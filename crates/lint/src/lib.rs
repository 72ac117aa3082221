//! # dim-lint
//!
//! Static analysis for the DIM reproduction, in two passes:
//!
//! 1. **Binary analyzer** — reconstructs the control-flow graph of an
//!    assembled workload image ([`cfg`](mod@cfg)), runs register liveness and
//!    reaching-definitions over it ([`dataflow`]), and reports a
//!    catalogue of structural errors, delay-slot portability warnings,
//!    and performance notes ([`lints`]). It also enumerates the *static
//!    candidate set* ([`candidates`]) — every instruction chain the
//!    dynamic translator could merge — which the property tests use to
//!    prove that every dynamically committed region is a prefix of a
//!    statically predicted one.
//! 2. **Configuration verifier** — re-exported from
//!    [`dim_cgra::verify`], proving translated configurations and
//!    `.dimrc` snapshot contents satisfy the array's structural
//!    invariants (bounds, dependence order, write-port exclusivity,
//!    writeback consistency).
//! 3. **Stride/alias prover** ([`prove`]) — an abstract-interpretation
//!    pass over the CFG that classifies every memory access in a
//!    self-loop as affine, invariant, or unknown, runs a stride-based
//!    dependence test, bounds trip counts, and emits versioned,
//!    checksummed *streaming certificates*
//!    ([`dim_cgra::StreamingCert`]) that the translator consults at
//!    commit time to tag rcache entries `stream_ok(K)`.
//!
//! The CLI front-ends are `dim lint`, `dim verify` and `dim prove`.

#![warn(missing_docs)]

pub mod candidates;
pub mod cfg;
pub mod dataflow;
pub mod lints;
pub mod prove;
pub mod report;
pub mod walk;

pub use dim_cgra::verify::{verify_config, Violation, ViolationKind};

use dim_mips::asm::Program;
use lints::{Diagnostic, Severity};

/// Analysis policy.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Diagnostic codes to suppress (exact match, e.g. `"W104"`).
    /// Suppressed findings are counted but removed from the report.
    pub allow: Vec<String>,
}

/// The outcome of linting one program.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Findings that survived the allowlist, sorted by PC.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of findings removed by the allowlist.
    pub suppressed: usize,
    /// Total basic blocks.
    pub blocks: usize,
    /// Blocks reachable from the entry point.
    pub reachable_blocks: usize,
    /// Instruction slots in the text segment.
    pub instructions: usize,
}

impl LintReport {
    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of unsuppressed errors.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of unsuppressed warnings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of unsuppressed notes.
    pub fn note_count(&self) -> usize {
        self.count(Severity::Note)
    }

    /// Whether the program passes the gate: no unsuppressed errors or
    /// warnings (notes never gate).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0 && self.warning_count() == 0
    }
}

/// Runs the full binary-analysis pass over an assembled program.
pub fn lint_program(program: &Program, opts: &LintOptions) -> LintReport {
    let graph = cfg::Cfg::build(program);
    let all = lints::run_lints(&graph, program);
    let (kept, dropped): (Vec<Diagnostic>, Vec<Diagnostic>) = all
        .into_iter()
        .partition(|d| !opts.allow.iter().any(|code| code == d.code));
    LintReport {
        diagnostics: kept,
        suppressed: dropped.len(),
        reachable_blocks: graph.blocks.iter().filter(|b| b.reachable).count(),
        blocks: graph.blocks.len(),
        instructions: graph.insts.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mips::asm::assemble;

    fn lint(src: &str) -> LintReport {
        lint_program(&assemble(src).expect("assembles"), &LintOptions::default())
    }

    #[test]
    fn clean_program_is_clean() {
        let report = lint(
            "main: li   $a0, 3
                   li   $a1, 4
                   addu $v0, $a0, $a1
                   break 0",
        );
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.error_count(), 0);
    }

    #[test]
    fn unreachable_code_warns() {
        let report = lint(
            "main: j end
             dead: li $t0, 1
             end:  break 0",
        );
        assert!(!report.is_clean());
        assert!(report.diagnostics.iter().any(|d| d.code == "W101"));
    }

    #[test]
    fn zero_write_warns_but_nop_does_not() {
        let with_zero = lint(
            "main: addu $zero, $a0, $a1
                   break 0",
        );
        assert!(with_zero.diagnostics.iter().any(|d| d.code == "W103"));
        let with_nop = lint(
            "main: nop
                   break 0",
        );
        assert!(
            !with_nop.diagnostics.iter().any(|d| d.code == "W103"),
            "{:?}",
            with_nop.diagnostics
        );
    }

    #[test]
    fn control_in_delay_slot_warns() {
        let report = lint(
            "main: bnez $a0, out
                   j out
             out:  break 0",
        );
        assert!(
            report.diagnostics.iter().any(|d| d.code == "W102"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn load_use_stall_noted() {
        let report = lint(
            "main: lw   $t0, 0($a0)
                   addu $v0, $t0, $a1
                   break 0",
        );
        assert!(report.diagnostics.iter().any(|d| d.code == "N201"));
        // Notes alone do not fail the gate.
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn allowlist_suppresses_and_counts() {
        let opts = LintOptions {
            allow: vec!["W101".to_string()],
        };
        let program = assemble(
            "main: j end
             dead: li $t0, 1
             end:  break 0",
        )
        .unwrap();
        let report = lint_program(&program, &opts);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressed, 1);
    }
}
