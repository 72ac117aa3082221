//! One prepared kernel: built program, seeded input, certificates.

use crate::inputs::{self, SeededInput};
use crate::plan::Plan;
use dim_core::{StreamingCert, System, SystemConfig};
use dim_mips_sim::{HaltReason, Machine, SimError};
use dim_workloads::{validate, BuiltBenchmark};
use std::time::Instant;

/// A kernel ready to load: everything set-up produces before `run`.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The built benchmark, its expected output matching `input`.
    pub built: BuiltBenchmark,
    /// The seeded input, for kernels that take one.
    pub input: Option<SeededInput>,
    /// Streaming certificates to install (empty unless the plan wants them).
    pub certs: Vec<StreamingCert>,
}

impl Kernel {
    /// Builds `name` for `plan`: assembler, seeded input and reference
    /// model, and the prover where the plan installs certificates.
    pub fn prepare(name: &str, plan: &Plan) -> Kernel {
        let (built, input) = inputs::build(name, plan.scale, plan.seeded.then_some(plan.seed));
        let certs = if plan.certs {
            dim_lint::prove::prove_program(&built.program, built.name)
                .certs()
                .cloned()
                .collect()
        } else {
            Vec::new()
        };
        Kernel {
            built,
            input,
            certs,
        }
    }

    /// A freshly loaded machine holding the kernel's input.
    pub fn machine(&self) -> Machine {
        inputs::load(&self.built, self.input.as_ref())
    }

    /// A fresh accelerated system with the certificates installed.
    pub fn system(&self, config: SystemConfig) -> Result<System, String> {
        let mut system = System::new(self.machine(), config);
        if !self.certs.is_empty() {
            system.install_stream_certs(self.certs.iter().cloned())?;
        }
        Ok(system)
    }

    /// Checks a finished run: it halted by itself and its output matches
    /// the reference model.
    pub fn check(
        &self,
        halt: Result<HaltReason, SimError>,
        machine: &Machine,
    ) -> Result<(), String> {
        match halt {
            Ok(HaltReason::Exit(_)) => {}
            Ok(HaltReason::StepLimit) => {
                return Err(format!(
                    "did not halt within {} instructions",
                    self.built.max_steps
                ))
            }
            Err(e) => return Err(format!("simulation failed: {e}")),
        }
        validate(machine, &self.built).map_err(|e| e.to_string())
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
