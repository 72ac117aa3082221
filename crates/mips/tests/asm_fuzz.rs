//! Robustness fuzzing: the assembler must never panic — any input either
//! assembles or returns a line-attributed error.

use dim_mips::asm::assemble;
use proptest::prelude::*;

/// Fragments that stress the tokenizer when recombined.
const FRAGMENTS: &[&str] = &[
    "main:",
    "loop:",
    ".data",
    ".text",
    ".word",
    ".byte",
    ".asciiz",
    ".align",
    ".space",
    ".equ",
    "addu",
    "addiu",
    "lw",
    "sw",
    "beq",
    "bnez",
    "li",
    "la",
    "jal",
    "jr",
    "mult",
    "mflo",
    "$t0",
    "$t1",
    "$sp",
    "$zero",
    "$99",
    "$banana",
    "0x10",
    "-5",
    "0b11",
    "'a'",
    "'\\n'",
    "\"str\"",
    "\"unterminated",
    "4($t1)",
    "sym+4",
    "sym-",
    "(",
    ")",
    ",",
    "#comment",
    ";comment",
    ":",
    "label:",
    "+",
    "-",
    "0x",
    "''",
    "\\",
    "big_number_999999999999999999",
];

fn arbitrary_line() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(FRAGMENTS), 0..6).prop_map(|toks| toks.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Structured-ish garbage built from real lexical fragments.
    #[test]
    fn assembler_never_panics_on_fragment_soup(
        lines in prop::collection::vec(arbitrary_line(), 0..20),
    ) {
        let src = lines.join("\n");
        match assemble(&src) {
            Ok(program) => {
                // Whatever assembled must also decode.
                let _ = program.decoded();
            }
            Err(e) => {
                // Errors carry a plausible line number.
                prop_assert!(e.line() <= lines.len() + 1, "{e}");
            }
        }
    }

    /// Fully arbitrary unicode text.
    #[test]
    fn assembler_never_panics_on_arbitrary_text(src in ".{0,400}") {
        let _ = assemble(&src);
    }

    /// Arbitrary bytes forced into string form via lossy conversion.
    #[test]
    fn assembler_never_panics_on_lossy_bytes(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        assemble_lossy(&bytes);
    }
}

fn assemble_lossy(bytes: &[u8]) {
    let src = String::from_utf8_lossy(bytes);
    let _ = assemble(&src);
}

// Inputs the properties above once failed on, replayed by name (the
// offline proptest shim does not read `*.proptest-regressions` files).

/// A bare mnemonic-less line: NUL, vertical tab, `)`, `(`.
#[test]
fn regression_lossy_nul_vt_parens() {
    assemble_lossy(&[0, 11, 41, 40]);
}

/// A directive dot followed by a vertical tab and an invalid UTF-8 byte.
#[test]
fn regression_lossy_dot_vt_invalid_byte() {
    assemble_lossy(&[46, 11, 128]);
}

/// A multi-byte character before register sigils and parentheses.
#[test]
fn regression_text_inverted_exclamation_sigils() {
    let _ = assemble("\u{a1}$$$\t)(");
}

/// A directive dot, a vertical tab and a private-use character.
#[test]
fn regression_text_dot_vt_private_use() {
    let _ = assemble(".\u{b}\u{e000}");
}
