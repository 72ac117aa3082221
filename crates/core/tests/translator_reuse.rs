//! One translator reuses one detection candidate for every region it
//! opens, and remembers each entry PC's most recently used region
//! outcomes. These tests feed a single `Translator` back-to-back regions
//! that end every way a region can end, and check that each region
//! translates exactly as it does on a fresh translator: nothing of a
//! closed, dropped or abandoned region (load/store counts, row usage,
//! the dependence table, the speculation depth, live-ins, write-backs)
//! carries into the next, and a region that repeats a remembered
//! outcome, switches from one to another, departs from all of them or
//! returns after its outcome was dropped produces what detecting it from
//! scratch produces. The file takes about 0.1 s in release and 0.3 s in
//! debug.

use dim_cgra::{ArrayShape, Configuration};
use dim_core::{BimodalPredictor, Translator, TranslatorOptions};
use dim_mips::asm::{assemble_with, AsmOptions};
use dim_mips::{AluImmOp, AluOp, BranchCond, Instruction, MemWidth, MulDivOp, Reg, ShiftOp};
use dim_mips_sim::{Effect, StepInfo};
use dim_obs::{Probe, ProbeEvent};
use proptest::prelude::*;

/// How a region's detection ends after its instructions are observed.
#[derive(Debug, Clone, Copy)]
enum End {
    /// The last observed instruction closes (or drops) the region.
    Observed,
    /// A cache hit at the next PC interrupts it (`take_partial`).
    Partial,
    /// A snapshot discards it (`abandon_region`).
    Abandon,
}

struct Region {
    name: &'static str,
    base: u32,
    src: &'static str,
    /// Outcomes of the branches the walk meets, in order.
    taken: &'static [bool],
    end: End,
}

/// Two rows of config #1's units, so a chain of three dependent ops
/// fills the array.
fn two_rows() -> ArrayShape {
    ArrayShape {
        rows: 2,
        ..ArrayShape::config1()
    }
}

/// The regions, in feeding order. Each one leaves loads, stores, rows,
/// producers and (the speculated one) a depth behind for the next.
const REGIONS: [Region; 8] = [
    Region {
        name: "three ops at a branch",
        base: 0x1000,
        src: "top: lw $t0, 0($a0)
                   sw $a1, 4($a0)
                   mult $t0, $a1
                   bne $t0, $zero, top",
        taken: &[false],
        end: End::Observed,
    },
    Region {
        name: "partial under eight ops",
        base: 0x1100,
        src: "mflo $t1
              lw $t3, 8($a0)
              addu $t2, $t1, $t3
              sw $t1, 12($a0)",
        taken: &[],
        end: End::Partial,
    },
    Region {
        name: "partial at nine ops",
        base: 0x1200,
        src: "mfhi $t4
              lw $t5, 0($a1)
              lw $t6, 4($a1)
              mult $t5, $t6
              addu $t7, $t4, $a2
              xor $s0, $a2, $a3
              or $s1, $a0, $a3
              sw $t4, 8($a1)
              and $s2, $s0, $s1",
        taken: &[],
        end: End::Partial,
    },
    Region {
        name: "abandoned",
        base: 0x1300,
        src: "lw $s3, 0($a2)
              addu $s4, $s3, $a0
              mult $s4, $s3",
        taken: &[],
        end: End::Abandon,
    },
    Region {
        name: "unsupported div",
        base: 0x1400,
        src: "addu $t0, $a0, $a1
              lw $t1, 0($t0)
              mult $a0, $a1
              mflo $t2
              sw $a3, 4($a0)
              div $t0, $a1",
        taken: &[],
        end: End::Observed,
    },
    Region {
        name: "array full",
        base: 0x1500,
        src: "addu $t0, $a0, $a1
              lw $t1, 0($a2)
              mult $a0, $a1
              addu $t3, $t0, $t1
              addu $t4, $t3, $t0",
        taken: &[],
        end: End::Observed,
    },
    Region {
        name: "speculated into a second segment",
        base: 0x1600,
        src: "lw $t0, 0($a0)
              mult $t0, $a1
              addu $t1, $a2, $a3
              bne $t1, $zero, next
              addu $zero, $zero, $zero
        next: sw $a1, 8($a0)
              addu $t3, $t1, $a0
              beq $t3, $zero, next",
        taken: &[true, false],
        end: End::Observed,
    },
    Region {
        name: "after speculation",
        base: 0x1700,
        src: "addu $t5, $t1, $a0
              sw $t5, 0($a1)
              mult $a0, $a2
              mfhi $t7
              jr $ra",
        taken: &[],
        end: End::Observed,
    },
];

/// The retired-instruction stream of `region`: its text walked from
/// the base, following the given branch outcomes, until it leaves.
fn steps(region: &Region) -> Vec<StepInfo> {
    let opts = AsmOptions {
        text_base: region.base,
        ..AsmOptions::default()
    };
    let program = assemble_with(region.src, opts).expect(region.name);
    let text = program.decoded();
    let mut taken = region.taken.iter();
    let mut steps = Vec::new();
    let mut pc = region.base;
    while let Some(&inst) = text.get(((pc - region.base) / 4) as usize) {
        let outcome = inst
            .branch_target(pc)
            .map(|_| *taken.next().expect("an outcome per branch"));
        let next_pc = match (outcome, inst.branch_target(pc)) {
            (Some(true), Some(target)) => target,
            _ => pc + 4,
        };
        let effect = match inst {
            Instruction::Syscall => Effect::Syscall,
            _ => Effect::None,
        };
        steps.push(StepInfo {
            pc,
            inst,
            next_pc,
            taken: outcome,
            mem_addr: None,
            effect,
        });
        pc = next_pc;
    }
    assert!(taken.next().is_none(), "{}: unused outcomes", region.name);
    steps
}

/// Feeds `region` to `translator` after a boundary (as the system does
/// after an array invocation), returning what every call produced.
fn feed(
    translator: &mut Translator,
    predictor: &BimodalPredictor,
    region: &Region,
) -> Vec<Option<Configuration>> {
    translator.note_boundary();
    let steps = steps(region);
    let mut out: Vec<_> = steps
        .iter()
        .map(|info| translator.observe(info, predictor))
        .collect();
    let exit_pc = steps.last().expect("region has instructions").next_pc;
    match region.end {
        End::Observed => {}
        End::Partial => out.push(translator.take_partial(exit_pc)),
        End::Abandon => translator.abandon_region(),
    }
    out
}

/// The speculated region's branch is saturated taken; no other is.
fn predictor() -> BimodalPredictor {
    let mut predictor = BimodalPredictor::new();
    let spec = &REGIONS[6];
    let branch = steps(spec)
        .into_iter()
        .find(|s| s.taken == Some(true))
        .expect("speculated branch");
    predictor.update(branch.pc, true);
    predictor.update(branch.pc, true);
    predictor
}

fn options() -> TranslatorOptions {
    TranslatorOptions::new(two_rows())
}

#[test]
fn a_reused_candidate_translates_every_region_as_a_fresh_one() {
    let predictor = predictor();
    let mut reused = Translator::new(options());
    for region in &REGIONS {
        let got = feed(&mut reused, &predictor, region);
        let want = feed(&mut Translator::new(options()), &predictor, region);
        assert_eq!(got, want, "{}", region.name);
    }
}

#[test]
fn the_regions_end_the_way_they_are_named() {
    let predictor = predictor();
    let mut translator = Translator::new(options());
    let committed: Vec<Option<Configuration>> = REGIONS
        .iter()
        .map(|region| {
            let mut out = feed(&mut translator, &predictor, region);
            let last = out.pop().expect("one call at least");
            assert!(out.iter().all(Option::is_none), "{}", region.name);
            last
        })
        .collect();
    let ops = |i: usize| committed[i].as_ref().map(Configuration::instruction_count);
    // Three ops at an unsaturated branch, and a 4-op partial: dropped.
    assert_eq!((ops(0), ops(1)), (None, None));
    assert_eq!(ops(2), Some(9));
    assert_eq!(ops(3), None);
    // The div ends the region on the processor.
    let div = committed[4].as_ref().expect("committed");
    assert_eq!(div.instruction_count(), 5);
    assert_eq!(div.segments()[0].exit_pc, 0x1414);
    assert_eq!((div.load_count(), div.store_count()), (1, 1));
    // The third dependent add finds no third row.
    let full = committed[5].as_ref().expect("committed");
    assert_eq!(full.instruction_count(), 4);
    assert_eq!(full.rows_used(), 2);
    assert_eq!(full.segments()[0].exit_pc, 0x1510);
    // The saturated bne is placed; the unsaturated beq closes.
    let spec = committed[6].as_ref().expect("committed");
    assert_eq!(spec.segments().len(), 2);
    assert_eq!(spec.max_depth(), 1);
    assert_eq!(spec.instruction_count(), 6);
    let after = committed[7].as_ref().expect("committed");
    assert_eq!(after.max_depth(), 0);
    assert!(after
        .live_ins()
        .any(|l| l == dim_mips::DataLoc::Gpr(dim_mips::Reg::T1)));
}

/// splitmix64, so one generated seed spells out a whole stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn reg(&mut self) -> Reg {
        [Reg::T0, Reg::T1, Reg::T2, Reg::A0, Reg::A1, Reg::V0][self.below(6) as usize]
    }
}

const TEXT_BASE: u32 = 0x4000;

/// A random instruction: mostly ALU work, with memory, multiplier,
/// shifts, short branches and the odd unsupported instruction.
fn random_inst(rng: &mut Rng) -> Instruction {
    let (rd, rs, rt) = (rng.reg(), rng.reg(), rng.reg());
    match rng.below(20) {
        0..=5 => Instruction::Alu {
            op: [AluOp::Addu, AluOp::Xor, AluOp::Or, AluOp::Subu][rng.below(4) as usize],
            rd,
            rs,
            rt,
        },
        6 | 7 => Instruction::AluImm {
            op: AluImmOp::Addiu,
            rt,
            rs,
            imm: rng.below(64) as u16,
        },
        8 => Instruction::Load {
            width: MemWidth::Word,
            signed: false,
            rt,
            base: Reg::A0,
            offset: 4 * rng.below(8) as i16,
        },
        9 => Instruction::Store {
            width: MemWidth::Word,
            rt,
            base: Reg::A0,
            offset: 4 * rng.below(8) as i16,
        },
        10 => Instruction::MulDiv {
            op: MulDivOp::Mult,
            rs,
            rt,
        },
        11 => Instruction::Mflo { rd },
        12 => Instruction::Shift {
            op: ShiftOp::Sll,
            rd,
            rt,
            shamt: 2,
        },
        13..=17 => Instruction::Branch {
            cond: [BranchCond::Ne, BranchCond::Eq][rng.below(2) as usize],
            rs,
            rt: Reg::ZERO,
            offset: rng.below(9) as i16 - 5,
        },
        18 => Instruction::MulDiv {
            op: MulDivOp::Div,
            rs,
            rt,
        },
        _ => Instruction::Jr { rs: Reg::RA },
    }
}

/// One call into the translator, or into the predictor it reads.
#[derive(Debug, Clone, Copy)]
enum Call {
    Observe(StepInfo),
    Predict(u32, bool),
    Partial(u32),
    Abandon,
}

/// A run of calls that starts at a region boundary with no region open
/// and leaves none open.
type Chunk = Vec<Call>;

/// How a chunk ends once it has observed its length.
#[derive(Debug, Clone, Copy)]
enum Ending {
    /// A hit at the next PC.
    Next,
    /// A hit at another PC.
    At(u32),
    /// A snapshot discards the region.
    Abandon,
}

/// How many usual paths each of a stream's three entries has: one, a
/// few, and more than the 8 outcomes a translator keeps per entry, so a
/// long-lived translator repeats, switches among and drops remembered
/// outcomes.
const PATHS: [usize; 3] = [1, 3, 12];

/// Region streams over one random text: each chunk walks the text from
/// one of three entry PCs, mostly along one of the entry's usual paths
/// (a length and an ending) and each branch's usual direction, so it
/// often repeats an earlier chunk from the same entry. It departs from
/// it by taking a branch the other way, by finding another instruction
/// at a PC, or by ending earlier or later, and ends at an unsupported
/// instruction, at a hit on the next PC or elsewhere, or by abandoning
/// the region. Between chunks, predictor updates saturate and
/// unsaturate the branches, which flips speculation decisions.
fn streams(seed: u64) -> Vec<Chunk> {
    let mut rng = Rng(seed);
    let text: Vec<Instruction> = (0..48).map(|_| random_inst(&mut rng)).collect();
    let words = text.len() as u64;
    let usual: Vec<bool> = (0..text.len()).map(|_| rng.chance(50)).collect();
    let entries: Vec<u32> = (0..3)
        .map(|_| TEXT_BASE + 4 * rng.below(words) as u32)
        .collect();
    let random_path = |rng: &mut Rng| {
        let ending = match rng.below(10) {
            0..=5 => Ending::Next,
            6..=8 => Ending::At(TEXT_BASE + 4 * rng.below(words) as u32),
            _ => Ending::Abandon,
        };
        (1 + rng.below(24), ending)
    };
    let paths: Vec<Vec<(u64, Ending)>> = PATHS
        .iter()
        .map(|&n| (0..n).map(|_| random_path(&mut rng)).collect())
        .collect();
    let fetch = |pc: u32| {
        pc.checked_sub(TEXT_BASE)
            .map(|offset| (offset / 4) as usize)
            .and_then(|word| text.get(word).copied())
    };
    (0..80)
        .map(|_| {
            let mut chunk = Chunk::new();
            for _ in 0..rng.below(3) {
                let branch = TEXT_BASE + 4 * rng.below(words) as u32;
                chunk.push(Call::Predict(branch, rng.chance(70)));
            }
            let which = rng.below(entries.len() as u64) as usize;
            let (length, ending) = if rng.chance(80) {
                let usual = &paths[which];
                usual[rng.below(usual.len() as u64) as usize]
            } else {
                random_path(&mut rng)
            };
            let mut pc = entries[which];
            let mut observed = 0;
            loop {
                let Some(mut inst) = fetch(pc) else {
                    chunk.push(Call::Partial(pc));
                    break;
                };
                if rng.chance(3) {
                    inst = random_inst(&mut rng);
                }
                let taken = inst.branch_target(pc).map(|_| {
                    let word = ((pc - TEXT_BASE) / 4) as usize;
                    usual[word] != rng.chance(10)
                });
                let next_pc = match (taken, inst.branch_target(pc)) {
                    (Some(true), Some(target)) => target,
                    _ => pc.wrapping_add(4),
                };
                if let Some(taken) = taken {
                    chunk.push(Call::Predict(pc, taken));
                }
                chunk.push(Call::Observe(StepInfo {
                    pc,
                    inst,
                    next_pc,
                    taken,
                    mem_addr: None,
                    effect: Effect::None,
                }));
                observed += 1;
                pc = next_pc;
                if inst.fu_class() == dim_mips::FuClass::Unsupported {
                    break;
                }
                if observed >= length {
                    chunk.push(match ending {
                        Ending::Next => Call::Partial(pc),
                        Ending::At(exit) => Call::Partial(exit),
                        Ending::Abandon => Call::Abandon,
                    });
                    break;
                }
            }
            chunk
        })
        .collect()
}

/// Records the translator's own events.
#[derive(Debug, Default)]
struct Events(Vec<ProbeEvent>);

impl Probe for Events {
    fn emit(&mut self, event: ProbeEvent) {
        assert!(
            matches!(
                event,
                ProbeEvent::TransBegin { .. } | ProbeEvent::TransCommit { .. }
            ),
            "{event:?}"
        );
        self.0.push(event);
    }
}

/// Feeds `chunk` after a boundary, returning every call's result and
/// every event.
fn run_chunk(
    translator: &mut Translator,
    predictor: &mut BimodalPredictor,
    chunk: &Chunk,
) -> (Vec<Option<Configuration>>, Vec<ProbeEvent>) {
    let mut events = Events::default();
    let mut out = Vec::new();
    translator.note_boundary();
    for call in chunk {
        match *call {
            Call::Observe(info) => {
                let record = translator.observe_probed(&info, predictor, &mut events);
                out.push(record.map(|r| r.config().clone()));
            }
            Call::Predict(pc, taken) => predictor.update(pc, taken),
            Call::Partial(pc) => {
                let record = translator.take_partial_probed(pc, &mut events);
                out.push(record.map(|r| r.config().clone()));
            }
            Call::Abandon => translator.abandon_region(),
        }
    }
    (out, events.0)
}

fn check_memo_matches_fresh(seed: u64, shape: ArrayShape) -> Result<(), String> {
    let opts = TranslatorOptions::new(shape);
    let mut long_lived = Translator::new(opts);
    let (mut live_predictor, mut fresh_predictor) =
        (BimodalPredictor::new(), BimodalPredictor::new());
    for (n, chunk) in streams(seed).iter().enumerate() {
        let got = run_chunk(&mut long_lived, &mut live_predictor, chunk);
        let want = run_chunk(&mut Translator::new(opts), &mut fresh_predictor, chunk);
        if got != want {
            return Err(format!(
                "chunk {n} diverged:\ncalls {chunk:#?}\nlong-lived {got:#?}\nfresh {want:#?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A translator that remembers every entry PC's recent outcomes
    /// returns, region by region, what a translator with an empty memo
    /// returns for the same steps and predictor state, and emits the
    /// same `TransBegin`/`TransCommit` events.
    #[test]
    fn a_remembered_outcome_translates_as_a_fresh_translator_does(
        seed in any::<u64>(),
        shape in prop_oneof![Just(two_rows()), Just(ArrayShape::config1()), Just(ArrayShape::infinite())],
    ) {
        if let Err(msg) = check_memo_matches_fresh(seed, shape) {
            prop_assert!(false, "{}", msg);
        }
    }
}
