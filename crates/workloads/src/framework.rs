//! Benchmark framework: built programs, expected results, validation.

use dim_mips::asm::{assemble, AsmError, Program};
use dim_mips_sim::{HaltReason, Machine, SimError};
use std::fmt;

/// Paper-style workload classification (Table 2 orders dataflow at the
/// top, control flow at the bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Large basic blocks, few branches (Rijndael, SHA, ...).
    DataFlow,
    /// In between, often without distinct kernels (JPEG, Susan, ...).
    Mixed,
    /// Small basic blocks, branch dominated (quicksort, ADPCM, ...).
    ControlFlow,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Category::DataFlow => write!(f, "dataflow"),
            Category::Mixed => write!(f, "mixed"),
            Category::ControlFlow => write!(f, "control"),
        }
    }
}

/// Input-size scale. `Tiny` keeps unit tests fast;
/// `Full` is what the table/figure harness runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// A few thousand dynamic instructions.
    Tiny,
    /// Tens of thousands of dynamic instructions.
    Small,
    /// Hundreds of thousands of dynamic instructions.
    Full,
}

impl Scale {
    /// Picks an iteration/size knob for the scale.
    pub fn pick(self, tiny: usize, small: usize, full: usize) -> usize {
        match self {
            Scale::Tiny => tiny,
            Scale::Small => small,
            Scale::Full => full,
        }
    }

    /// The scale's name (`tiny`, `small` or `full`) as flags, sweep
    /// specs, serve requests and result JSON spell it.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }
}

/// Parses a scale [`name`](Scale::name).
///
/// ```
/// use dim_workloads::Scale;
/// assert_eq!("small".parse(), Ok(Scale::Small));
/// for scale in [Scale::Tiny, Scale::Small, Scale::Full] {
///     assert_eq!(scale.name().parse(), Ok(scale));
/// }
/// assert!("huge".parse::<Scale>().unwrap_err().contains("unknown scale"));
/// ```
impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(name: &str) -> Result<Scale, String> {
        match name {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            other => Err(format!(
                "unknown scale `{other}` (expected tiny, small or full)"
            )),
        }
    }
}

/// A memory region that must match an expected byte image after the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedRegion {
    /// Data-segment label of the region.
    pub label: String,
    /// Expected contents.
    pub bytes: Vec<u8>,
}

/// A fully built benchmark instance: assembled program plus the oracle.
#[derive(Debug, Clone)]
pub struct BuiltBenchmark {
    /// Benchmark name (paper Table 2 row).
    pub name: &'static str,
    /// Workload class.
    pub category: Category,
    /// The assembled MIPS program with inputs baked into `.data`.
    pub program: Program,
    /// Regions the Rust reference model predicts.
    pub expected: Vec<ExpectedRegion>,
    /// Generous instruction budget for the run.
    pub max_steps: u64,
}

/// A benchmark definition.
#[derive(Clone)]
pub struct BenchmarkSpec {
    /// Name as in the paper's Table 2.
    pub name: &'static str,
    /// Workload class.
    pub category: Category,
    /// Builder producing the program + oracle at a given scale.
    pub build: fn(Scale) -> BuiltBenchmark,
}

impl fmt::Debug for BenchmarkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BenchmarkSpec")
            .field("name", &self.name)
            .field("category", &self.category)
            .finish()
    }
}

/// Errors from building or validating a benchmark run.
#[derive(Debug)]
pub enum WorkloadError {
    /// The program did not assemble (a bug in the kernel source).
    Asm(AsmError),
    /// Simulation failed.
    Sim(SimError),
    /// The program hit its step budget before halting.
    Timeout {
        /// The budget that was exhausted.
        max_steps: u64,
    },
    /// An output region does not match the reference model.
    Mismatch {
        /// Region label.
        label: String,
        /// First differing byte offset.
        offset: usize,
        /// Byte the simulation produced.
        got: u8,
        /// Byte the reference model expected.
        want: u8,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Asm(e) => write!(f, "assembly failed: {e}"),
            WorkloadError::Sim(e) => write!(f, "simulation failed: {e}"),
            WorkloadError::Timeout { max_steps } => {
                write!(f, "did not halt within {max_steps} instructions")
            }
            WorkloadError::Mismatch {
                label,
                offset,
                got,
                want,
            } => write!(
                f,
                "region `{label}` differs at byte {offset}: got {got:#04x}, want {want:#04x}"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<AsmError> for WorkloadError {
    fn from(e: AsmError) -> Self {
        WorkloadError::Asm(e)
    }
}

impl From<SimError> for WorkloadError {
    fn from(e: SimError) -> Self {
        WorkloadError::Sim(e)
    }
}

/// Assembles a kernel, panicking with a readable listing on error — kernel
/// sources are compiled into the crate, so failure is a programming bug.
pub(crate) fn must_assemble(name: &str, src: &str) -> Program {
    match assemble(src) {
        Ok(p) => p,
        Err(e) => {
            let line = src.lines().nth(e.line().saturating_sub(1)).unwrap_or("");
            panic!("kernel `{name}` failed to assemble: {e}\n  > {line}");
        }
    }
}

/// Validates a finished machine against the expected regions.
///
/// # Errors
///
/// [`WorkloadError::Mismatch`] for the first differing byte.
pub fn validate(machine: &Machine, built: &BuiltBenchmark) -> Result<(), WorkloadError> {
    for region in &built.expected {
        let addr = built
            .program
            .symbol(&region.label)
            .unwrap_or_else(|| panic!("benchmark `{}` lacks label `{}`", built.name, region.label));
        let got = machine.mem.read_bytes(addr, region.bytes.len());
        if let Some(offset) = got.iter().zip(&region.bytes).position(|(g, w)| g != w) {
            return Err(WorkloadError::Mismatch {
                label: region.label.clone(),
                offset,
                got: got[offset],
                want: region.bytes[offset],
            });
        }
    }
    Ok(())
}

/// Runs the benchmark on a plain machine and validates the result.
///
/// # Errors
///
/// Simulation errors, a step-budget timeout, or an output mismatch.
pub fn run_baseline(built: &BuiltBenchmark) -> Result<Machine, WorkloadError> {
    let mut machine = Machine::load(&built.program);
    match machine.run(built.max_steps)? {
        HaltReason::StepLimit => {
            return Err(WorkloadError::Timeout {
                max_steps: built.max_steps,
            })
        }
        HaltReason::Exit(_) => {}
    }
    validate(&machine, built)?;
    Ok(machine)
}

/// Formats `words` as `.word` directives, 8 per line.
pub(crate) fn words_directive(words: &[u32]) -> String {
    let mut out = String::with_capacity(words.len() * 12);
    for chunk in words.chunks(8) {
        out.push_str("    .word ");
        let row: Vec<String> = chunk.iter().map(|w| format!("{w:#x}")).collect();
        out.push_str(&row.join(", "));
        out.push('\n');
    }
    out
}

/// Formats `bytes` as `.byte` directives, 16 per line.
pub(crate) fn bytes_directive(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 6);
    for chunk in bytes.chunks(16) {
        out.push_str("    .byte ");
        let row: Vec<String> = chunk.iter().map(std::string::ToString::to_string).collect();
        out.push_str(&row.join(", "));
        out.push('\n');
    }
    out
}

/// Crate-internal alias so kernel modules can format byte tables without
/// re-importing the private helper under a clashing name.
pub(crate) fn bytes_directive_pub(bytes: &[u8]) -> String {
    bytes_directive(bytes)
}

/// A tiny deterministic xorshift32 generator so inputs never depend on
/// external crates' stream stability.
#[derive(Debug, Clone)]
pub(crate) struct XorShift32(pub u32);

impl XorShift32 {
    pub(crate) fn next_u32(&mut self) -> u32 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.0 = x;
        x
    }

    pub(crate) fn below(&mut self, bound: u32) -> u32 {
        self.next_u32() % bound.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directives_format() {
        assert_eq!(words_directive(&[1, 2]), "    .word 0x1, 0x2\n");
        assert_eq!(bytes_directive(&[1, 255]), "    .byte 1, 255\n");
    }

    #[test]
    fn xorshift_deterministic() {
        let mut a = XorShift32(1);
        let mut b = XorShift32(1);
        for _ in 0..10 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        assert!(a.below(10) < 10);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Tiny.pick(1, 2, 3), 1);
        assert_eq!(Scale::Small.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn validate_reports_first_mismatch() {
        let src = ".data\nout: .word 0x11223344\n.text\nmain: break 0";
        let program = must_assemble("t", src);
        let built = BuiltBenchmark {
            name: "t",
            category: Category::Mixed,
            program,
            expected: vec![ExpectedRegion {
                label: "out".into(),
                bytes: vec![0x44, 0x33, 0x99, 0x11],
            }],
            max_steps: 100,
        };
        let err = run_baseline(&built).unwrap_err();
        match err {
            WorkloadError::Mismatch {
                offset, got, want, ..
            } => {
                assert_eq!((offset, got, want), (2, 0x22, 0x99));
            }
            other => panic!("unexpected {other}"),
        }
    }
}
