//! Outside-in timing of the rcache and the translator.
//!
//! A [`Capture`] probe plus the system's commit log record, for one run,
//! every call the system makes into its reconfiguration cache and its
//! translator. [`Streams`] rebuilds those calls — including the
//! predictor updates the translator reads — and replays them through a
//! standalone `ReconfCache` and `Translator`, so each layer is timed by
//! itself through its public functions. Replays are checked against the
//! original run: the replayed cache must end with the run's counters and
//! the replayed translator must build the run's configurations.

use dim_cgra::Configuration;
use dim_core::{BimodalPredictor, ReconfCache, System, Translator, TranslatorOptions};
use dim_mips::Instruction;
use dim_mips_sim::{Effect, StepInfo};
use dim_obs::{Probe, ProbeEvent};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The part of the event stream that drives the rcache and translator.
#[derive(Debug, Clone, Copy)]
enum Event {
    Lookup { pc: u32, hit: bool },
    Retire { pc: u32 },
    Insert { pc: u32 },
    Flush { pc: u32 },
    Invoke { depth: u8, misspeculated: bool },
}

/// A probe that records the rcache and translator input streams.
#[derive(Debug, Default)]
pub struct Capture {
    events: Vec<Event>,
}

impl Probe for Capture {
    fn emit(&mut self, event: ProbeEvent) {
        self.events.push(match event {
            ProbeEvent::RcacheHit { pc, .. } => Event::Lookup { pc, hit: true },
            ProbeEvent::RcacheMiss { pc } => Event::Lookup { pc, hit: false },
            ProbeEvent::Retire { pc, .. } => Event::Retire { pc },
            ProbeEvent::RcacheInsert { pc, .. } => Event::Insert { pc },
            ProbeEvent::RcacheFlush { pc, .. } => Event::Flush { pc },
            ProbeEvent::ArrayInvoke(a) => Event::Invoke {
                depth: a.spec_depth,
                misspeculated: a.misspeculated,
            },
            _ => return,
        });
    }
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Lookup(u32),
    /// Index into the commit log.
    Insert(usize),
    Flush(u32),
}

#[derive(Debug, Clone, Copy)]
enum TransOp {
    Observe(StepInfo),
    /// A predictor update (pipeline or array branch), which the next
    /// observations read.
    Predict(u32, bool),
    /// A cache hit interrupting detection.
    Partial(u32),
    /// The pipeline resuming after an array invocation.
    Boundary,
}

/// The rcache and translator calls of one run.
#[derive(Debug)]
pub struct Streams {
    cache: Vec<CacheOp>,
    trans: Vec<TransOp>,
    commits: Vec<Configuration>,
    slots: usize,
    policy: dim_core::ReplacementPolicy,
    opts: TranslatorOptions,
    /// `lookup` calls.
    pub lookups: u64,
    /// `insert` calls.
    pub inserts: u64,
    /// `observe` calls.
    pub observes: u64,
}

impl Streams {
    /// Rebuilds the streams of `system`'s finished run from `capture`
    /// (which must have observed the whole run) and its commit log.
    ///
    /// # Errors
    ///
    /// An event sequence the system's run loop cannot produce.
    pub fn build(capture: Capture, system: &System) -> Result<Streams, String> {
        let config = system.config();
        let commits = system.commit_log().to_vec();
        let machine = system.machine();
        let mut streams = Streams {
            cache: Vec::new(),
            trans: Vec::new(),
            commits: Vec::new(),
            slots: config.cache_slots,
            policy: config.cache_policy,
            opts: TranslatorOptions {
                shape: config.shape,
                speculation: config.speculation,
                max_spec_blocks: config.max_spec_blocks,
                support_shifts: config.support_shifts,
            },
            lookups: 0,
            inserts: 0,
            observes: 0,
        };
        // The run loop retires an instruction, then looks up the next PC:
        // a retire's successor PC is the next lookup's.
        let observe = |streams: &mut Streams, pc: u32, next_pc: u32| -> Result<(), String> {
            let inst = machine.fetch(pc).map_err(|e| e.to_string())?;
            let taken = inst.branch_target(pc).map(|target| next_pc == target);
            let effect = match inst {
                Instruction::Syscall => Effect::Syscall,
                Instruction::Break { code } => Effect::Break(code),
                _ => Effect::None,
            };
            if let Some(taken) = taken {
                streams.trans.push(TransOp::Predict(pc, taken));
            }
            streams.trans.push(TransOp::Observe(StepInfo {
                pc,
                inst,
                next_pc,
                taken,
                mem_addr: None,
                effect,
            }));
            streams.observes += 1;
            Ok(())
        };
        let mut latest: HashMap<u32, usize> = HashMap::new();
        let mut executing = None;
        let mut retired = None;
        for event in capture.events {
            match event {
                Event::Lookup { pc, hit } => {
                    if let Some(prev) = retired.take() {
                        observe(&mut streams, prev, pc)?;
                    }
                    streams.cache.push(CacheOp::Lookup(pc));
                    streams.lookups += 1;
                    if hit {
                        streams.trans.push(TransOp::Partial(pc));
                        let index = latest.get(&pc).ok_or("hit on a PC never inserted")?;
                        executing = Some(*index);
                    }
                }
                Event::Retire { pc } => {
                    if retired.replace(pc).is_some() {
                        return Err("two retires without a lookup between them".into());
                    }
                }
                Event::Insert { pc } => {
                    let index = streams.inserts as usize;
                    let entry = commits.get(index).map(|c| c.entry_pc);
                    if entry != Some(pc) {
                        return Err(format!(
                            "insert {index} at {pc:#x} is not in the commit log"
                        ));
                    }
                    streams.cache.push(CacheOp::Insert(index));
                    streams.inserts += 1;
                    latest.insert(pc, index);
                }
                Event::Flush { pc } => streams.cache.push(CacheOp::Flush(pc)),
                Event::Invoke {
                    depth,
                    misspeculated,
                } => {
                    let index = executing.take().ok_or("array invocation without a hit")?;
                    // Replayed branches train the predictor: each resolves
                    // as predicted, except the one that misspeculated.
                    for segment in commits[index].segments() {
                        let Some(branch) = segment.branch else {
                            continue;
                        };
                        let failed = misspeculated && segment.depth == depth;
                        let taken = branch.predicted_taken != failed;
                        streams.trans.push(TransOp::Predict(branch.pc, taken));
                        if failed {
                            break;
                        }
                    }
                    streams.trans.push(TransOp::Boundary);
                }
            }
        }
        if let Some(prev) = retired {
            observe(&mut streams, prev, prev.wrapping_add(4))?;
        }
        if streams.inserts as usize != commits.len() {
            return Err(format!(
                "{} inserts for {} commits",
                streams.inserts,
                commits.len()
            ));
        }
        streams.commits = commits;
        Ok(streams)
    }

    /// Replays the rcache calls through a fresh cache, all of them or
    /// (`lookups` false) only inserts and flushes. Returns the seconds the
    /// replay loop took and the cache it left.
    pub fn replay_cache(&self, lookups: bool) -> (f64, ReconfCache) {
        let mut pool: Vec<Option<Configuration>> = self.commits.iter().cloned().map(Some).collect();
        let mut cache = ReconfCache::with_policy(self.slots, self.policy);
        let start = Instant::now();
        for op in &self.cache {
            match *op {
                CacheOp::Lookup(pc) => {
                    if lookups {
                        black_box(cache.lookup(pc));
                    }
                }
                CacheOp::Insert(index) => {
                    if let Some(config) = pool[index].take() {
                        black_box(cache.insert(config));
                    }
                }
                CacheOp::Flush(pc) => cache.flush(pc),
            }
        }
        (start.elapsed().as_secs_f64(), cache)
    }

    /// Replays the translator calls (with the predictor updates between
    /// them) through a fresh translator. Returns the seconds the replay
    /// loop took and the configurations it built.
    pub fn replay_translator(&self) -> (f64, Vec<Configuration>) {
        let mut translator = Translator::new(self.opts);
        let mut predictor = BimodalPredictor::new();
        let mut built = Vec::with_capacity(self.commits.len());
        let start = Instant::now();
        for op in &self.trans {
            let done = match op {
                TransOp::Observe(info) => translator.observe(info, &predictor),
                TransOp::Predict(pc, taken) => {
                    predictor.update(*pc, *taken);
                    None
                }
                TransOp::Partial(pc) => translator.take_partial(*pc),
                TransOp::Boundary => {
                    translator.note_boundary();
                    None
                }
            };
            if let Some(config) = done {
                built.push(config);
            }
        }
        (start.elapsed().as_secs_f64(), built)
    }

    /// Checks a full cache replay against the run's own cache counters.
    pub fn check_cache(&self, replayed: &ReconfCache, system: &System) -> Result<(), String> {
        let counters = |c: &ReconfCache| {
            (
                c.hit_miss(),
                c.insertions(),
                c.evictions_live(),
                c.evictions_dead(),
                c.flushes(),
            )
        };
        let (got, want) = (counters(replayed), counters(system.cache()));
        if got == want {
            Ok(())
        } else {
            Err(format!("rcache replay counters {got:?}, run {want:?}"))
        }
    }

    /// Checks a translator replay against the run's commit log.
    pub fn check_translator(&self, built: &[Configuration]) -> Result<(), String> {
        let key = |c: &Configuration| (c.entry_pc, c.instruction_count());
        if built.len() != self.commits.len() {
            return Err(format!(
                "translator replay built {} configurations, the run {}",
                built.len(),
                self.commits.len()
            ));
        }
        match built
            .iter()
            .zip(&self.commits)
            .position(|(a, b)| key(a) != key(b))
        {
            None => Ok(()),
            Some(i) => Err(format!(
                "translator replay configuration {i} differs: {:?} vs {:?}",
                key(&built[i]),
                key(&self.commits[i])
            )),
        }
    }
}
