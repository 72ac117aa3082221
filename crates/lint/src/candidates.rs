//! The static candidate set: every instruction chain the DIM translator
//! could merge into one configuration, computed from the binary alone.
//!
//! The walker mirrors the dynamic translator's `observe` loop exactly —
//! same placement calls against the same [`Configuration`] and
//! [`DependenceTable`] — but where the dynamic engine follows the one
//! path the program took (and extends over a branch only when the
//! bimodal predictor is saturated in the observed direction), the static
//! walker forks over *both* branch directions. Every region the dynamic
//! engine commits is therefore a prefix of some statically enumerated
//! path; [`contains_region`] checks exactly that, and the property tests
//! in this crate assert it for every workload.

use crate::walk::{decode_text, TextWalker};
use dim_cgra::{Configuration, SegmentBranch};
use dim_core::{DependenceTable, TranslatorOptions};
use dim_mips::asm::Program;
use dim_mips::{FuClass, Instruction};
use std::collections::BTreeMap;

/// Safety bound on instructions per enumerated path. Real paths close
/// far earlier (array capacity or the speculation-depth limit).
const MAX_PATH_OPS: usize = 4096;

struct WalkState {
    pc: u32,
    config: Configuration,
    table: DependenceTable,
    depth: u8,
    ops: Vec<u32>,
}

/// Enumerates every translation path the dynamic engine could take from
/// a region starting at `entry`. Each path is the PC sequence of
/// operations placed into the configuration, in placement order
/// (speculated branches included).
pub fn candidate_paths(program: &Program, opts: &TranslatorOptions, entry: u32) -> Vec<Vec<u32>> {
    let insts = decode_text(program);
    let walker = TextWalker::new(program.text_base, &insts);

    let mut paths: Vec<Vec<u32>> = Vec::new();
    let mut stack = vec![WalkState {
        pc: entry,
        config: Configuration::new(entry, opts.shape),
        table: DependenceTable::new(),
        depth: 0,
        ops: Vec::new(),
    }];

    while let Some(mut state) = stack.pop() {
        loop {
            if state.ops.len() >= MAX_PATH_OPS {
                paths.push(state.ops);
                break;
            }
            let Some(inst) = walker.inst_at(state.pc) else {
                paths.push(state.ops);
                break;
            };
            let shift_excluded = !opts.support_shifts
                && matches!(
                    inst,
                    Instruction::Shift { .. } | Instruction::ShiftVar { .. }
                );
            if shift_excluded || inst.fu_class() == FuClass::Unsupported {
                paths.push(state.ops);
                break;
            }
            if inst.fu_class() == FuClass::Branch {
                if !(opts.speculation && state.depth + 1 < opts.max_spec_blocks) {
                    paths.push(state.ops);
                    break;
                }
                let min_row = state.table.min_row(&inst) as usize;
                if state
                    .config
                    .place(state.pc, inst, state.depth, min_row)
                    .is_err()
                {
                    paths.push(state.ops);
                    break;
                }
                state.ops.push(state.pc);
                let taken_pc = inst.branch_target(state.pc).expect("branch has a target");
                let fall_pc = state.pc.wrapping_add(4);
                // Fork: the dynamic engine follows whichever direction the
                // predictor saturates on; enumerate both.
                for taken in [true, false] {
                    let mut config = state.config.clone();
                    let branch = SegmentBranch {
                        pc: state.pc,
                        inst,
                        predicted_taken: taken,
                        taken_pc,
                        fall_pc,
                    };
                    config.finish_segment(state.depth, Some(branch), branch.predicted_pc());
                    stack.push(WalkState {
                        pc: branch.predicted_pc(),
                        config,
                        table: state.table.clone(),
                        depth: state.depth + 1,
                        ops: state.ops.clone(),
                    });
                }
                break;
            }
            // Plain operation: place, record its row, advance.
            let min_row = state.table.min_row(&inst) as usize;
            let Ok((row, _col)) = state.config.place(state.pc, inst, state.depth, min_row) else {
                paths.push(state.ops);
                break;
            };
            state.table.record(&inst, row);
            state.ops.push(state.pc);
            state.pc = state.pc.wrapping_add(4);
        }
    }
    paths
}

/// Whether a dynamically committed region — `entry` plus the PC list of
/// its placed operations — is a prefix of some statically enumerated
/// path from the same entry.
pub fn contains_region(
    program: &Program,
    opts: &TranslatorOptions,
    entry: u32,
    op_pcs: &[u32],
) -> bool {
    candidate_paths(program, opts, entry)
        .iter()
        .any(|path| path.len() >= op_pcs.len() && path[..op_pcs.len()] == *op_pcs)
}

/// The whole-binary candidate set: for each viable region entry, the
/// enumerated translation paths.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Entry PC → paths (operation PC sequences). Only entries with at
    /// least one path long enough to be worth caching (more than three
    /// merged operations) are retained.
    pub candidates: BTreeMap<u32, Vec<Vec<u32>>>,
}

impl CandidateSet {
    /// Number of viable region entries.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether no viable region exists.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// Computes the candidate set for every possible region entry.
///
/// A dynamic region can open at any PC where the processor resumes
/// after a control transfer, a system effect, or an array invocation, so
/// every text PC is tried; entries whose best path would never be worth
/// caching are dropped.
pub fn compute_candidates(program: &Program, opts: &TranslatorOptions) -> CandidateSet {
    let base = program.text_base;
    let mut candidates = BTreeMap::new();
    for i in 0..program.text.len() {
        let entry = base + (i as u32) * 4;
        let paths = candidate_paths(program, opts, entry);
        if paths.iter().any(|p| p.len() > 3) {
            candidates.insert(entry, paths);
        }
    }
    CandidateSet { candidates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_cgra::ArrayShape;
    use dim_mips::asm::assemble;

    fn program(src: &str) -> Program {
        assemble(src).expect("assembles")
    }

    fn opts() -> TranslatorOptions {
        TranslatorOptions::new(ArrayShape::config2())
    }

    #[test]
    fn straightline_gives_single_path() {
        let p = program(
            "main: addu $t0, $a0, $a1
                   addu $t1, $t0, $a0
                   subu $t2, $t1, $a1
                   addu $v0, $t2, $t0
                   break 0",
        );
        let paths = candidate_paths(&p, &opts(), p.entry);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 4, "break closes the region after 4 ops");
        assert_eq!(paths[0][0], p.entry);
    }

    #[test]
    fn branch_forks_both_directions() {
        let p = program(
            "main: addu $t0, $a0, $a1
                   bnez $t0, over
                   addu $t1, $t0, $a0
             over: subu $v0, $t0, $a1
                   break 0",
        );
        let paths = candidate_paths(&p, &opts(), p.entry);
        assert!(paths.len() >= 2, "taken and fall-through paths: {paths:?}");
        let branch_pc = p.entry + 4;
        assert!(paths.iter().all(|path| path.contains(&branch_pc)));
    }

    #[test]
    fn speculation_off_stops_at_branch() {
        let p = program(
            "main: addu $t0, $a0, $a1
                   bnez $t0, main
                   break 0",
        );
        let mut o = opts();
        o.speculation = false;
        let paths = candidate_paths(&p, &o, p.entry);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 1, "branch closes the region: {paths:?}");
    }

    #[test]
    fn prefix_containment_accepts_prefixes_only() {
        let p = program(
            "main: addu $t0, $a0, $a1
                   addu $t1, $t0, $a0
                   subu $t2, $t1, $a1
                   addu $v0, $t2, $t0
                   break 0",
        );
        let o = opts();
        let full: Vec<u32> = (0..4).map(|i| p.entry + i * 4).collect();
        assert!(contains_region(&p, &o, p.entry, &full));
        assert!(contains_region(&p, &o, p.entry, &full[..2]));
        let skewed = [p.entry, p.entry + 8];
        assert!(!contains_region(&p, &o, p.entry, &skewed));
    }

    #[test]
    fn compute_candidates_finds_worthwhile_entries() {
        let p = program(
            "main: addu $t0, $a0, $a1
                   addu $t1, $t0, $a0
                   subu $t2, $t1, $a1
                   addu $v0, $t2, $t0
                   break 0",
        );
        let set = compute_candidates(&p, &opts());
        assert!(
            set.candidates.contains_key(&p.entry),
            "{:?}",
            set.candidates.keys()
        );
    }
}
