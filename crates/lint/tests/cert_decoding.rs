//! `dim accel --certs` and `dim prove --check` read streaming
//! certificates from disk, so `StreamingCert::parse_json` takes
//! untrusted text. Arbitrary strings, and a real `dim prove` certificate
//! with one to three bytes flipped, truncated, inserted or deleted, must
//! parse or be rejected without a panic; whatever parses goes through
//! `verify_cert` too.

use dim_cgra::{verify_cert, StreamingCert};
use dim_lint::prove::prove_program;
use dim_workloads::Scale;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The certificate `dim prove` emits for crc32 at `tiny`, as its JSON
/// line.
fn crc32_cert() -> &'static str {
    static CERT: OnceLock<String> = OnceLock::new();
    CERT.get_or_init(|| {
        let built = (dim_workloads::by_name("crc32").expect("crc32").build)(Scale::Tiny);
        let report = prove_program(&built.program, "crc32");
        let cert = report.certs().next().expect("crc32 is certified");
        cert.to_json()
    })
}

/// `text` with each `(op, position, byte)` mutation applied to its
/// bytes in turn: op 0 flips one bit, 1 truncates, 2 inserts `byte`,
/// 3 deletes a byte.
fn mutate(text: &str, mutations: &[(u8, u32, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(op, pos, byte) in mutations {
        let at = pos as usize % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] ^= 1 << (byte % 8),
            1 => bytes.truncate(at),
            2 => bytes.insert(at, byte),
            3 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses `line` and verifies what parses; a panic fails the property.
fn decode(line: &str) {
    if let Ok(cert) = StreamingCert::parse_json(line) {
        let _ = verify_cert(&cert);
    }
}

#[test]
fn the_unmutated_certificate_parses_and_verifies() {
    let cert = StreamingCert::parse_json(crc32_cert()).expect("parses");
    assert_eq!(verify_cert(&cert), Vec::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_strings_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        decode(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_certificates_never_panic(
        mutations in proptest::collection::vec((0u8..4, any::<u32>(), any::<u8>()), 1..4),
    ) {
        decode(&mutate(crc32_cert(), &mutations));
    }
}
