//! Self-loop discovery and loop-entry constant recovery.
//!
//! The prover targets the same region shape the dynamic translator
//! profits from most: a *self-loop* — one basic block whose closing
//! conditional branch targets its own first instruction. The body is a
//! single straight-line run, so one abstract pass over it yields the
//! exact per-iteration recurrence of every register.
//!
//! Trip-count bounding additionally needs the *concrete* register state
//! at first loop entry. [`entry_env`] recovers what is statically
//! certain of it by walking the unique-predecessor chain leading into
//! the header and executing those blocks through the poisoning
//! [`ConcreteEnv`] interpreter.

use super::lattice::ConcreteEnv;
use crate::cfg::{Cfg, Terminator};
use dim_mips::Instruction;

/// How many predecessor blocks the entry-constant walk may traverse.
/// Chains into a hot loop are short (argument setup); the cap only
/// bounds pathological graphs.
const MAX_ENTRY_CHAIN: usize = 8;

/// One discovered self-loop region.
#[derive(Debug, Clone)]
pub struct SelfLoop {
    /// Index of the header/body block in the CFG.
    pub block: usize,
    /// First PC of the body.
    pub entry: u32,
    /// Instructions in the body, including the back-edge branch.
    pub len: usize,
    /// PC of the back-edge branch.
    pub branch_pc: u32,
}

/// Finds every reachable self-loop: a block whose terminator is a
/// conditional branch back to the block's own start.
pub fn find_self_loops(cfg: &Cfg) -> Vec<SelfLoop> {
    cfg.blocks
        .iter()
        .enumerate()
        .filter_map(|(i, block)| {
            if !block.reachable {
                return None;
            }
            let Terminator::Branch { pc, taken, .. } = block.term else {
                return None;
            };
            (taken == block.start).then_some(SelfLoop {
                block: i,
                entry: block.start,
                len: block.len,
                branch_pc: pc,
            })
        })
        .collect()
}

/// Recovers the statically certain part of the register state at first
/// entry to `header` by executing the unique-predecessor chain leading
/// into it.
///
/// The walk steps backwards from the header while each block has
/// exactly one reachable predecessor besides the header's own
/// back-edge, up to `MAX_ENTRY_CHAIN` (8) blocks, then executes the chain
/// forwards through [`ConcreteEnv`]. Two stops keep this sound:
///
/// - The walk stops *before* any block that is its own predecessor —
///   executing another loop's body exactly once would compute the state
///   after one iteration, not the state on the path into our loop.
/// - Everything before the chain is unknown, and [`ConcreteEnv`]
///   poisons through unknowns, so a truncated chain only loses
///   precision, never soundness.
pub fn entry_env(cfg: &Cfg, header: usize) -> ConcreteEnv {
    let preds = cfg.predecessors();
    let mut chain: Vec<usize> = Vec::new();
    let mut cur = header;
    while chain.len() < MAX_ENTRY_CHAIN {
        let into: Vec<usize> = preds[cur]
            .iter()
            .copied()
            .filter(|&p| p != header && cfg.blocks[p].reachable)
            .collect();
        let [prev] = into[..] else {
            break; // join point, or chain start — state before is unknown
        };
        if preds[prev].contains(&prev) {
            break; // `prev` is itself a self-loop header: do not execute it
        }
        chain.push(prev);
        cur = prev;
    }
    chain.reverse();

    let mut env = ConcreteEnv::new();
    for &b in &chain {
        for (_, inst) in cfg.block_insts(&cfg.blocks[b]) {
            let Some(inst) = inst else {
                // Undecodable word mid-chain: drop all knowledge.
                return ConcreteEnv::new();
            };
            env.step(&inst);
        }
    }
    env
}

/// Simulates the loop body from `entry` concretely until the back-edge
/// branch falls through, the state becomes undecidable, or `cap`
/// iterations pass. Returns the number of body executions when the
/// exit was statically decided.
pub fn trip_bound(body: &[(u32, Instruction)], entry: &ConcreteEnv, cap: u64) -> Option<u64> {
    let mut env = entry.clone();
    let mut trips = 0u64;
    while trips < cap {
        trips += 1;
        let (_, branch) = body.last()?;
        for (_, inst) in &body[..body.len() - 1] {
            env.step(inst);
        }
        let taken = env.branch_taken(branch)?;
        env.step(branch);
        if !taken {
            return Some(trips);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mips::asm::assemble;
    use dim_mips::{DataLoc, Reg};

    fn cfg_of(src: &str) -> Cfg {
        Cfg::build(&assemble(src).expect("assembles"))
    }

    fn body_of(cfg: &Cfg, l: &SelfLoop) -> Vec<(u32, Instruction)> {
        cfg.block_insts(&cfg.blocks[l.block])
            .map(|(pc, i)| (pc, i.expect("decodes")))
            .collect()
    }

    #[test]
    fn finds_counted_self_loop() {
        let cfg = cfg_of(
            "main: li $s0, 10
             loop: addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
        );
        let loops = find_self_loops(&cfg);
        assert_eq!(loops.len(), 1, "{loops:?}");
        assert_eq!(loops[0].entry, cfg.text_base + 4);
        assert_eq!(loops[0].len, 2);
    }

    #[test]
    fn multi_block_loop_is_not_a_self_loop() {
        let cfg = cfg_of(
            "main: li $s0, 10
             loop: bnez $s0, body
                   break 0
             body: addiu $s0, $s0, -1
                   j loop",
        );
        assert!(find_self_loops(&cfg).is_empty());
    }

    #[test]
    fn entry_chain_recovers_constants() {
        let cfg = cfg_of(
            "main: li $s0, 10
                   li $s1, 0x2000
             loop: addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
        );
        let l = &find_self_loops(&cfg)[0];
        let env = entry_env(&cfg, l.block);
        assert_eq!(env.get(DataLoc::Gpr(Reg::S0)), Some(10));
        assert_eq!(env.get(DataLoc::Gpr(Reg::S1)), Some(0x2000));
    }

    #[test]
    fn entry_chain_stops_before_another_self_loop() {
        // The inner `prep` loop runs 5 times before `loop` starts;
        // executing its body once would see s1 == 4, not 0. The chain
        // walk must stop at it and leave s1 unknown, keeping s0 = 10
        // from the block after it.
        let cfg = cfg_of(
            "main: li $s1, 5
             prep: addiu $s1, $s1, -1
                   bnez $s1, prep
                   li $s0, 10
             loop: addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
        );
        let loops = find_self_loops(&cfg);
        let l = loops
            .iter()
            .find(|l| l.len == 2 && l.entry > cfg.text_base + 8);
        let l = l.expect("outer loop found");
        let env = entry_env(&cfg, l.block);
        assert_eq!(env.get(DataLoc::Gpr(Reg::S0)), Some(10));
        assert_eq!(env.get(DataLoc::Gpr(Reg::S1)), None, "not simulated");
    }

    #[test]
    fn trip_bound_counts_exactly() {
        let cfg = cfg_of(
            "main: li $s0, 10
             loop: addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
        );
        let l = &find_self_loops(&cfg)[0];
        let env = entry_env(&cfg, l.block);
        let body = body_of(&cfg, l);
        assert_eq!(trip_bound(&body, &env, 1 << 20), Some(10));
    }

    #[test]
    fn trip_bound_unknown_when_counter_is_loaded() {
        let cfg = cfg_of(
            "main: lw $s0, 0($a0)
             loop: addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
        );
        let l = &find_self_loops(&cfg)[0];
        let env = entry_env(&cfg, l.block);
        let body = body_of(&cfg, l);
        assert_eq!(trip_bound(&body, &env, 1 << 20), None);
    }

    #[test]
    fn trip_bound_respects_cap() {
        let cfg = cfg_of(
            "main: li $s0, 1000
             loop: addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
        );
        let l = &find_self_loops(&cfg)[0];
        let env = entry_env(&cfg, l.block);
        let body = body_of(&cfg, l);
        assert_eq!(trip_bound(&body, &env, 100), None, "cap hit");
    }
}
