//! The coupled system: MIPS core + DIM detection + reconfigurable array.
//!
//! The run loop mirrors Figure 1 of the paper. Before each fetch the PC
//! probes the reconfiguration cache. On a hit, the stored configuration
//! is loaded (stalling only if operand fetch exceeds the three hidden
//! pipeline stages), executed on the array — including speculative
//! segments gated by their branches — and the PC moved past the covered
//! region. On a miss, the instruction executes normally on the pipeline
//! while the DIM hardware translates it in parallel.

use crate::pctable::PcTable;
use crate::{
    BimodalPredictor, CycleBreakdown, DimStats, ReconfCache, ReplacementPolicy, ReplayRecord,
    Translator, TranslatorOptions,
};
use dim_cgra::{
    verify_cert, ArrayShape, ArrayTiming, Configuration, EncodingParams, FabricHeat, StreamingCert,
};
use dim_mips_sim::{HaltReason, Machine, SimError};
use dim_obs::{
    ArrayInvoke, FabricUtil, HostBucket, HostSplit, NullProbe, Probe, ProbeEvent, SharedClock,
};
use std::collections::{BTreeMap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// All accelerator parameters for one experiment point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Array geometry (Table 1).
    pub shape: ArrayShape,
    /// Array timing model.
    pub timing: ArrayTiming,
    /// Reconfiguration cache capacity in slots (Table 2 sweeps 16/64/256).
    pub cache_slots: usize,
    /// Cache replacement policy (FIFO per the paper; LRU for ablations).
    pub cache_policy: ReplacementPolicy,
    /// Whether branches may be speculated over.
    pub speculation: bool,
    /// Maximum basic blocks merged per configuration.
    pub max_spec_blocks: u8,
    /// A configuration accumulating this many misspeculations (without an
    /// intervening fully-correct run) is flushed even if the branch
    /// counter never saturates the other way — bounding the damage of
    /// periodically alternating branches.
    pub misspec_flush_threshold: u32,
    /// Whether the array's ALUs include shifters (false models the
    /// CCA-like baseline of paper §2.2).
    pub support_shifts: bool,
    /// Debug mode: additionally execute every invoked configuration
    /// *from its placement* (`dim_cgra::execute_dataflow`) on a copy of
    /// the architectural state and panic on any divergence from the
    /// replay result. Slow; for tests and bring-up.
    pub cross_check: bool,
    /// Debug mode: run the static configuration verifier
    /// (`dim_cgra::verify::verify_config`) on every configuration the
    /// translator commits, panicking on the first violation. Catches
    /// translator bugs at the commit point instead of at (mis)execution.
    pub verify_configs: bool,
    /// Encoding constants (cache bit accounting).
    pub encoding: EncodingParams,
}

impl SystemConfig {
    /// A full-featured setup for the given shape and cache size.
    pub fn new(shape: ArrayShape, cache_slots: usize, speculation: bool) -> SystemConfig {
        SystemConfig {
            shape,
            timing: ArrayTiming::default(),
            cache_slots,
            cache_policy: ReplacementPolicy::Fifo,
            speculation,
            max_spec_blocks: 3,
            misspec_flush_threshold: 8,
            support_shifts: true,
            cross_check: false,
            verify_configs: false,
            encoding: EncodingParams::default(),
        }
    }
}

/// The MIPS+DIM+array system simulator.
///
/// ```
/// use dim_core::{System, SystemConfig};
/// use dim_cgra::ArrayShape;
/// use dim_mips::asm::assemble;
/// use dim_mips_sim::Machine;
///
/// let program = assemble("
///     main: li $t0, 200
///           li $v0, 0
///     loop: addu $v0, $v0, $t0
///           xor  $t1, $v0, $t0
///           addu $v0, $v0, $t1
///           addiu $t0, $t0, -1
///           bnez $t0, loop
///           break 0
/// ")?;
/// let config = SystemConfig::new(ArrayShape::config1(), 64, true);
/// let mut accelerated = System::new(Machine::load(&program), config);
/// accelerated.run(1_000_000)?;
///
/// let mut baseline = Machine::load(&program);
/// baseline.run(1_000_000)?;
/// // Same architectural result, fewer cycles.
/// assert_eq!(accelerated.machine().cpu.reg(dim_mips::Reg::V0),
///            baseline.cpu.reg(dim_mips::Reg::V0));
/// assert!(accelerated.total_cycles() < baseline.stats.cycles);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct System {
    machine: Machine,
    config: SystemConfig,
    pub(crate) cache: ReconfCache,
    pub(crate) translator: Translator,
    pub(crate) predictor: BimodalPredictor,
    stats: DimStats,
    fabric: FabricHeat,
    host_split: Option<Box<HostSplit>>,
    stored_bits_per_config: u64,
    /// Misspeculations per configuration entry PC since its last full hit.
    pub(crate) misspec_counts: PcTable<u32>,
    commit_log: Option<Vec<Configuration>>,
    /// Installed streaming certificates, keyed by region entry PC.
    stream_certs: HashMap<u32, StreamingCert>,
    /// Commits whose region matched a certificate and were tagged.
    stream_tags_applied: u64,
    /// Budget the last `run`/`run_probed` call consumed.
    budget_used: u64,
}

impl System {
    /// Couples a loaded machine with a DIM accelerator.
    pub fn new(machine: Machine, config: SystemConfig) -> System {
        let opts = TranslatorOptions {
            shape: config.shape,
            speculation: config.speculation,
            max_spec_blocks: config.max_spec_blocks,
            support_shifts: config.support_shifts,
        };
        let stored_bits = if config.shape.is_infinite() {
            0
        } else {
            dim_cgra::encoding_breakdown(&config.shape, &config.encoding).stored_bits() as u64
        };
        System {
            machine,
            config,
            cache: ReconfCache::with_policy(config.cache_slots, config.cache_policy),
            translator: Translator::new(opts),
            predictor: BimodalPredictor::new(),
            stats: DimStats::new(),
            fabric: FabricHeat::new(),
            host_split: None,
            stored_bits_per_config: stored_bits,
            misspec_counts: PcTable::default(),
            commit_log: None,
            stream_certs: HashMap::new(),
            stream_tags_applied: 0,
            budget_used: 0,
        }
    }

    /// Installs streaming-eligibility certificates (`dim prove`) to be
    /// consulted at every translator commit: a committed configuration
    /// whose entry PC matches a certificate and whose ops all lie in
    /// the certified region is tagged `stream_ok(K)` in the rcache.
    /// Replay behavior is unchanged — the tag is the contract surface
    /// for the streaming executor. Returns the number installed.
    ///
    /// # Errors
    ///
    /// Rejects the whole batch on the first structurally invalid
    /// certificate (`dim_cgra::verify_cert`), naming its defect.
    pub fn install_stream_certs(
        &mut self,
        certs: impl IntoIterator<Item = StreamingCert>,
    ) -> Result<usize, String> {
        let mut installed = 0;
        for cert in certs {
            if let Some(violation) = verify_cert(&cert).into_iter().next() {
                return Err(format!(
                    "certificate @ {:#x} ({}): {violation}",
                    cert.entry_pc, cert.workload
                ));
            }
            self.stream_certs.insert(cert.entry_pc, cert);
            installed += 1;
        }
        Ok(installed)
    }

    /// Installed certificates, keyed by entry PC.
    pub fn stream_certs(&self) -> &HashMap<u32, StreamingCert> {
        &self.stream_certs
    }

    /// Commits that matched an installed certificate and tagged their
    /// rcache entry `stream_ok(K)` so far.
    pub fn stream_tags_applied(&self) -> u64 {
        self.stream_tags_applied
    }

    /// Starts recording every configuration the translator commits to
    /// the cache. The log is unbounded — test/analysis use only (the
    /// static-candidate soundness cross-check in `dim-lint` compares it
    /// against the statically computed candidate set).
    pub fn enable_commit_log(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    /// All configurations committed since [`enable_commit_log`]
    /// (in commit order), or an empty slice when logging is off.
    ///
    /// [`enable_commit_log`]: System::enable_commit_log
    pub fn commit_log(&self) -> &[Configuration] {
        self.commit_log.as_deref().unwrap_or(&[])
    }

    /// The underlying machine (CPU, memory, processor-side statistics).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the underlying machine.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Accelerator-side statistics.
    pub fn stats(&self) -> &DimStats {
        &self.stats
    }

    /// Always-on fabric utilization accounting (`dim heat`). Its
    /// `exec_cycles + residual_cycles` reconciles exactly with
    /// [`cycle_breakdown`](System::cycle_breakdown)'s array-execution
    /// span. Exact between [`run`](System::run) calls: a call tallies
    /// its hits and folds them in before it returns or unwinds.
    pub fn fabric_heat(&self) -> &FabricHeat {
        &self.fabric
    }

    /// Enables host-time attribution: subsequent
    /// [`run_probed`](System::run_probed) iterations split wall time
    /// (read from `clock`, strided-sampled) across the
    /// {fetch/decode, translate, rcache, array-replay}
    /// [`HostBucket`]s. Off by default — the uninstrumented hot loop
    /// pays nothing.
    pub fn enable_host_split(&mut self, clock: SharedClock) {
        self.host_split = Some(Box::new(HostSplit::new(clock)));
    }

    /// The host-time attribution accumulated so far, if
    /// [`enable_host_split`](System::enable_host_split) was called.
    pub fn host_split(&self) -> Option<&HostSplit> {
        self.host_split.as_deref()
    }

    /// The reconfiguration cache.
    pub fn cache(&self) -> &ReconfCache {
        &self.cache
    }

    /// The experiment parameters.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Bits one stored configuration occupies in the reconfiguration
    /// cache (0 for the idealized infinite array). Trace sinks record
    /// this so replay can reconstruct the cache-bit energy counters.
    pub fn stored_bits_per_config(&self) -> u64 {
        self.stored_bits_per_config
    }

    /// Total cycles: processor cycles plus all array-attributed cycles.
    pub fn total_cycles(&self) -> u64 {
        self.machine.stats.cycles + self.stats.total_array_cycles()
    }

    /// Total retired instructions (pipeline + array).
    pub fn total_instructions(&self) -> u64 {
        self.machine.stats.instructions + self.stats.array_instructions
    }

    /// The instruction budget the last [`run`](System::run) or
    /// [`run_probed`](System::run_probed) call consumed. A cache hit
    /// consumes the instructions its configuration covers, even when a
    /// misspeculation executes fewer, so this can differ from the
    /// growth of [`total_instructions`](System::total_instructions).
    /// Splitting one budget into calls that each get what the previous
    /// ones left stops at the iteration boundary a single call stops at.
    pub fn budget_used(&self) -> u64 {
        self.budget_used
    }

    /// Exact per-phase cycle attribution of the run so far. The
    /// breakdown's total equals [`total_cycles`](System::total_cycles)
    /// by construction: the pipeline phase is the machine's cycles less
    /// its cache stalls.
    pub fn cycle_breakdown(&self) -> CycleBreakdown {
        CycleBreakdown {
            pipeline: self.machine.stats.base_cycles(),
            i_stall: self.machine.stats.i_stall_cycles,
            d_stall: self.machine.stats.d_stall_cycles,
            reconfig_stall: self.stats.reconfig_stall_cycles,
            array_exec: self.stats.array_exec_cycles,
            writeback_tail: self.stats.writeback_tail_cycles,
        }
    }

    /// Runs until the program halts or `max_instructions` have retired.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] from either the pipeline or the
    /// array's memory accesses.
    pub fn run(&mut self, max_instructions: u64) -> Result<HaltReason, SimError> {
        self.run_probed(max_instructions, &mut NullProbe)
    }

    /// Runs like [`run`](System::run), emitting the full structured
    /// event stream — retires, translation begin/commit, cache
    /// hit/miss/insert/flush, array invocations — into `probe`. The
    /// probe is monomorphized in; with [`NullProbe`] this *is* `run`.
    /// The caller keeps ownership of the probe and is responsible for
    /// calling [`Probe::finish`] when the whole run is over.
    ///
    /// The call counts its array hits per (configuration, stop segment)
    /// in a 64-slot tally and adds their fabric heat when a slot is
    /// reused and when the call ends, returning or unwinding, so
    /// [`fabric_heat`](System::fabric_heat) is exact whenever the caller
    /// can read it; a probe sees every event before its hit's heat is
    /// folded. Stats and cycle spans are charged per hit.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] from either the pipeline or the
    /// array's memory accesses.
    pub fn run_probed<P: Probe>(
        &mut self,
        max_instructions: u64,
        probe: &mut P,
    ) -> Result<HaltReason, SimError> {
        // The loop is monomorphized over the attribution hooks, so a run
        // without host split pays no per-iteration check for it.
        let result = match self.host_split.take() {
            Some(mut split) => {
                let result = self.run_loop(max_instructions, probe, &mut *split);
                self.host_split = Some(split);
                result
            }
            None => self.run_loop(max_instructions, probe, &mut NoSplit),
        };
        // Refresh the detection-energy account once per call, so it is
        // exact after every return, an error included.
        self.stats.translated_instructions = self.translator.observed_instructions();
        result
    }

    /// Runs the loop with a fresh [`HeatTally`], folding it into the
    /// fabric heat on every exit, an unwinding panic included.
    fn run_loop<P: Probe, S: SplitHooks>(
        &mut self,
        max_instructions: u64,
        probe: &mut P,
        split: &mut S,
    ) -> Result<HaltReason, SimError> {
        let mut tally = HeatTally::new();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            self.run_tallied(max_instructions, probe, split, &mut tally)
        }));
        tally.fold_into(&mut self.fabric, &self.config.timing);
        result.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    fn run_tallied<P: Probe, S: SplitHooks>(
        &mut self,
        max_instructions: u64,
        probe: &mut P,
        split: &mut S,
        tally: &mut HeatTally,
    ) -> Result<HaltReason, SimError> {
        let mut retired: u64 = 0;
        let result = loop {
            if retired >= max_instructions {
                break Ok(self.machine.halted().unwrap_or(HaltReason::StepLimit));
            }
            if let Some(reason) = self.machine.halted() {
                break Ok(reason);
            }
            let pc = self.machine.cpu.pc;
            // Host-time attribution brackets the four engine sections;
            // most occurrences pay one counter increment (the clock is
            // only read on strided samples — see `HostSplit`).
            split.enter(HostBucket::Rcache);
            let hit = self.cache.lookup(pc).cloned();
            split.exit(HostBucket::Rcache);
            if let Some(record) = hit {
                let covered = record.config().instruction_count();
                if P::ENABLED {
                    probe.emit(ProbeEvent::RcacheHit {
                        pc,
                        len: covered as u32,
                    });
                }
                // A cache hit interrupts any in-flight detection region.
                // (The inserted partial may even evict the entry we are
                // about to execute, which is why the hit holds its own
                // refcount on the record.)
                split.enter(HostBucket::Translate);
                if let Some(partial) = self.translator.take_partial_probed(pc, probe) {
                    self.insert_config(partial, probe);
                }
                split.exit(HostBucket::Translate);
                retired += covered as u64;
                split.enter(HostBucket::ArrayReplay);
                let exec = self.execute_config(&record, tally, probe);
                split.exit(HostBucket::ArrayReplay);
                if let Err(e) = exec {
                    break Err(e);
                }
            } else {
                if P::ENABLED {
                    probe.emit(ProbeEvent::RcacheMiss { pc });
                }
                split.enter(HostBucket::FetchDecode);
                let step = self.machine.step_probed(probe);
                split.exit(HostBucket::FetchDecode);
                let info = match step {
                    Ok(info) => info,
                    Err(e) => break Err(e),
                };
                retired += 1;
                if let Some(taken) = info.taken {
                    self.predictor.update(info.pc, taken);
                }
                split.enter(HostBucket::Translate);
                if let Some(done) = self
                    .translator
                    .observe_probed(&info, &self.predictor, probe)
                {
                    self.insert_config(done, probe);
                }
                split.exit(HostBucket::Translate);
            }
        };
        self.budget_used = retired;
        result
    }

    fn insert_config<P: Probe>(&mut self, record: Arc<ReplayRecord>, probe: &mut P) {
        let config = record.config();
        if self.config.verify_configs {
            let violations = dim_cgra::verify::verify_config(config);
            assert!(
                violations.is_empty(),
                "translator committed an invalid configuration @ {:#x} ({} ops): {}",
                config.entry_pc,
                config.instruction_count(),
                violations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            );
        }
        if let Some(log) = &mut self.commit_log {
            log.push(config.clone());
        }
        // A cache without slots stores nothing, so there is no insert to
        // count, charge or report.
        if self.cache.slots() == 0 {
            return;
        }
        self.stats.configs_built += 1;
        self.stats.cache_bits_written += self.stored_bits_per_config;
        let pc = config.entry_pc;
        let len = config.instruction_count() as u32;
        // Consult the installed streaming certificates: a commit whose
        // ops all lie inside a certified region is provably safe to
        // burst-replay K iterations, so its rcache entry gets tagged.
        let burst = self.stream_certs.get(&pc).and_then(|cert| {
            config
                .ops()
                .iter()
                .all(|op| cert.contains(op.pc))
                .then_some(cert.burst)
        });
        let evicted = self.cache.insert_record(record);
        let tagged = burst.is_some_and(|k| self.cache.tag_stream(pc, k));
        if tagged {
            self.stream_tags_applied += 1;
        }
        if P::ENABLED {
            probe.emit(ProbeEvent::RcacheInsert {
                pc,
                len,
                evicted: evicted.as_ref().map(|e| e.pc),
            });
            if let Some(victim) = evicted {
                probe.emit(ProbeEvent::RcacheEvict {
                    pc: victim.pc,
                    len: victim.len,
                    uses: victim.uses,
                });
            }
            if tagged {
                probe.emit(ProbeEvent::StreamTag {
                    pc,
                    len,
                    burst: burst.unwrap_or(0),
                });
            }
        }
    }

    /// Dataflow-executes `config` (`dim_cgra::execute_dataflow`) from the
    /// current architectural state, before replay touches it. Stores go
    /// to a buffer, so memory is left as replay will find it.
    fn dataflow_check(&self, config: &Configuration) -> DataflowCheck {
        struct Bus<'m> {
            mem: &'m dim_mips_sim::Memory,
            stores: BTreeMap<u32, u8>,
        }
        impl dim_cgra::ExecMemory for Bus<'_> {
            fn read_u8(&self, addr: u32) -> u8 {
                *self.stores.get(&addr).unwrap_or(&self.mem.read_u8(addr))
            }
            fn write_u8(&mut self, addr: u32, value: u8) {
                self.stores.insert(addr, value);
            }
        }
        let cpu = &self.machine.cpu;
        let mut regs = [0u32; 32];
        for r in dim_mips::Reg::all() {
            regs[r.index()] = cpu.reg(r);
        }
        let mut context = dim_cgra::EntryContext {
            regs,
            hi: cpu.hi,
            lo: cpu.lo,
        };
        let mut bus = Bus {
            mem: &self.machine.mem,
            stores: BTreeMap::new(),
        };
        let outcome = dim_cgra::execute_dataflow(config, &mut context, &mut bus);
        DataflowCheck {
            outcome,
            context,
            stores: bus.stores,
        }
    }

    /// Debug cross-check: compares the dataflow pass run before replay
    /// with the state replay left — exit PC, registers, HI/LO and every
    /// byte the dataflow pass stored.
    ///
    /// # Panics
    ///
    /// Panics on any divergence — that is the point — including a
    /// configuration that replayed but does not dataflow-execute.
    fn cross_check(&self, config: &Configuration, check: DataflowCheck) {
        let entry_pc = config.entry_pc;
        let outcome = check.outcome.unwrap_or_else(|e| {
            panic!(
                "cross-check: config @ {entry_pc:#x} replayed but does not dataflow-execute: {e}"
            )
        });
        let cpu = &self.machine.cpu;
        assert_eq!(
            outcome.exit_pc, cpu.pc,
            "cross-check: exit PC diverged for config @ {entry_pc:#x}"
        );
        for r in dim_mips::Reg::all() {
            assert_eq!(
                check.context.regs[r.index()],
                cpu.reg(r),
                "cross-check: {r} diverged for config @ {entry_pc:#x}"
            );
        }
        assert_eq!(check.context.hi, cpu.hi, "cross-check: HI diverged");
        assert_eq!(check.context.lo, cpu.lo, "cross-check: LO diverged");
        // Committed stores must match the bytes the replay wrote.
        for (addr, byte) in check.stores {
            assert_eq!(
                self.machine.mem.read_u8(addr),
                byte,
                "cross-check: memory byte {addr:#x} diverged for config @ {entry_pc:#x}"
            );
        }
    }

    /// Replays `config`'s ops on the machine, segment by segment, until
    /// the last segment completes or a speculated branch resolves
    /// against its prediction. Not generic over the probe, so every
    /// probe runs the same replay code.
    ///
    /// A segment's ops before its branch only move data, so they run
    /// through [`Cpu::execute_data`](dim_mips_sim::Cpu::execute_data)
    /// with no PC write; the branch (the segment's last op) runs through
    /// `Cpu::execute` at its own PC. A fault leaves the PC at the
    /// faulting op, where the interpreter would have stopped.
    fn replay(&mut self, config: &Configuration) -> Result<Replay, SimError> {
        let segments = config.segments();
        let mut replay = Replay {
            stop: segments.len().saturating_sub(1),
            misspec_branch: None,
            mem_stall_cycles: 0,
        };
        let cpu = &mut self.machine.cpu;
        let mem = &mut self.machine.mem;
        let mut dcache = self.machine.dcache.as_mut();
        for (index, segment) in segments.iter().enumerate() {
            let ops = config.segment_ops(segment);
            let (body, branch) = match (segment.branch, ops.split_last()) {
                (Some(branch), Some((last, body))) => (body, Some((branch, last))),
                _ => (ops, None),
            };
            // Replay preserves exact architectural semantics; rows and
            // columns only affect the cycle accounting.
            for op in body {
                match cpu.execute_data(op.inst, mem) {
                    // Data-cache misses stall the whole array until
                    // resolved (paper §4.3); loads were *allocated*
                    // assuming hits.
                    Ok(Some(addr)) => {
                        if let Some(dc) = &mut dcache {
                            replay.mem_stall_cycles += dc.access(addr);
                        }
                    }
                    Ok(None) => {}
                    Err(e) => {
                        cpu.pc = op.pc;
                        return Err(e);
                    }
                }
            }
            match branch {
                Some((branch, op)) => {
                    cpu.pc = op.pc;
                    let info = cpu.execute(op.inst, mem)?;
                    if let Some(taken) = info.taken {
                        self.predictor.update(branch.pc, taken);
                        if taken != branch.predicted_taken {
                            // The branch resolved against the speculated
                            // direction: deeper segments are squashed (their
                            // gated writes never trigger) and execution
                            // resumes at the actual target, already set by
                            // the replayed branch.
                            replay.stop = index;
                            replay.misspec_branch = Some((branch.pc, branch.predicted_taken));
                            return Ok(replay);
                        }
                    }
                }
                None => cpu.pc = segment.exit_pc,
            }
        }
        Ok(replay)
    }

    /// Executes one cached configuration on the array, counting the hit
    /// in `tally`.
    fn execute_config<P: Probe>(
        &mut self,
        record: &Arc<ReplayRecord>,
        tally: &mut HeatTally,
        probe: &mut P,
    ) -> Result<(), SimError> {
        let config = record.config();
        self.stats.array_invocations += 1;
        self.stats.array_occupied_rows += config.rows_used() as u64;
        self.stats.cache_bits_read += self.stored_bits_per_config;

        let dataflow = self.config.cross_check.then(|| self.dataflow_check(config));

        let Replay {
            stop,
            misspec_branch,
            mem_stall_cycles,
        } = self.replay(config)?;

        // Everything but the memory stalls and the misspeculation penalty
        // is a function of the stop segment, derived on the record's
        // first hit.
        let cost = &record.costs(&self.config.timing)[stop];
        self.stats.array_instructions += u64::from(cost.invoke.executed);
        self.stats.array_loads += u64::from(cost.invoke.loads);
        self.stats.array_stores += u64::from(cost.invoke.stores);

        let spans = cost.spans;
        let mut flushed = false;
        let mut misspec_penalty: u64 = 0;
        match misspec_branch {
            Some((branch_pc, predicted)) => {
                self.stats.misspeculations += 1;
                misspec_penalty = self.config.timing.misspeculation_penalty;
                // Flush the whole configuration once the counter saturates
                // the other way (paper §4.2), or once this configuration
                // has misspeculated a bounded number of times in a row.
                let strikes = self
                    .misspec_counts
                    .get_or_insert_with(config.entry_pc, || 0);
                *strikes += 1;
                if self.predictor.saturated_direction(branch_pc) == Some(!predicted)
                    || *strikes >= self.config.misspec_flush_threshold
                {
                    self.misspec_counts.remove(config.entry_pc);
                    // The hit's partial insert may already have evicted
                    // the configuration being replayed; only a resident
                    // entry is flushed (and counted, and reported).
                    flushed = self.cache.peek(config.entry_pc).is_some();
                    if flushed {
                        self.cache.flush(config.entry_pc);
                        self.stats.config_flushes += 1;
                    }
                }
            }
            None => {
                self.stats.full_hits += 1;
                self.misspec_counts.remove(config.entry_pc);
            }
        }

        // The array stalls on data-cache misses and pays the flush
        // penalty inside its execution window, so both belong to the
        // exec span — stats, trace, and probe events all see one number.
        let residual_cycles = mem_stall_cycles + misspec_penalty;
        let exec_span = spans.exec + residual_cycles;
        self.stats.reconfig_stall_cycles += spans.stall;
        self.stats.array_exec_cycles += exec_span;
        self.stats.writeback_tail_cycles += spans.tail;

        // Always-on fabric heat: the stop segment's `FabricHeat::record`
        // contribution, derived from the same placement and timing state
        // the spans were charged from, is counted here and folded in by
        // the tally; this hit's residual is added now, so heat's cycles
        // reconcile exactly with `array_exec_cycles`.
        tally.count(record, stop, &mut self.fabric, &self.config.timing);
        self.fabric.residual_cycles = self.fabric.residual_cycles.saturating_add(residual_cycles);
        debug_assert_eq!(
            cost.fabric.exec_cycles(),
            spans.exec,
            "fabric sample diverged from the charged exec span for config @ {:#x}",
            config.entry_pc
        );

        if P::ENABLED {
            if let Some((branch_pc, _)) = misspec_branch {
                probe.emit(ProbeEvent::SpecMispredict {
                    region_pc: config.entry_pc,
                    region_len: cost.invoke.covered,
                    branch_pc,
                    penalty_cycles: misspec_penalty as u32,
                });
            }
            if flushed {
                probe.emit(ProbeEvent::RcacheFlush {
                    pc: config.entry_pc,
                    len: cost.invoke.covered,
                });
            }
            probe.emit(ProbeEvent::Fabric(FabricUtil {
                residual_cycles: residual_cycles as u32,
                ..cost.fabric
            }));
            probe.emit(ProbeEvent::ArrayInvoke(ArrayInvoke {
                exit_pc: self.machine.cpu.pc,
                misspeculated: misspec_branch.is_some(),
                flushed,
                exec_cycles: exec_span as u32,
                ..cost.invoke
            }));
        }

        if let Some(check) = dataflow {
            self.cross_check(config, check);
        }

        // The pipeline is drained while the array runs.
        self.machine.reset_hazard_window();
        self.translator.note_boundary();
        Ok(())
    }
}

/// What the dataflow cross-check computed for one invocation before
/// replay ran.
struct DataflowCheck {
    /// The placement-level executor's result.
    outcome: Result<dim_cgra::DataflowOutcome, dim_cgra::ExecError>,
    /// Registers and HI/LO after its gated commit.
    context: dim_cgra::EntryContext,
    /// The bytes it committed, by address.
    stores: BTreeMap<u32, u8>,
}

/// The run loop's [`HeatTally`] has `1 << HEAT_TALLY_BITS` slots.
const HEAT_TALLY_BITS: u32 = 6;

/// Array hits per (replay record, stop segment) that a run call has not
/// yet added to the system's [`FabricHeat`]: a direct-mapped table
/// keyed by the record's address and the stop segment. A hit that finds
/// its slot held by another pair folds that pair's count first, and the
/// run loop folds every slot when it exits. Each fold adds the pair's
/// frozen heat delta `hits` times ([`FabricHeat::merge_times`]); sums do
/// not depend on the order, so which pairs collide never shows.
struct HeatTally {
    slots: [Option<TallySlot>; 1 << HEAT_TALLY_BITS],
}

/// One pending count: `hits` hits of `record` that stopped after
/// segment `stop`.
struct TallySlot {
    /// Held so no later record can reuse the address while the count is
    /// pending.
    record: Arc<ReplayRecord>,
    stop: usize,
    hits: u64,
}

impl TallySlot {
    fn fold_into(self, fabric: &mut FabricHeat, timing: &ArrayTiming) {
        fabric.merge_times(&self.record.costs(timing)[self.stop].heat, self.hits);
    }
}

impl HeatTally {
    fn new() -> HeatTally {
        HeatTally {
            slots: std::array::from_fn(|_| None),
        }
    }

    /// Counts one hit of `record` that stopped after segment `stop`.
    fn count(
        &mut self,
        record: &Arc<ReplayRecord>,
        stop: usize,
        fabric: &mut FabricHeat,
        timing: &ArrayTiming,
    ) {
        // Fibonacci hashing of the address (8-aligned, so a small stop
        // lands in its zero low bits).
        let key = (Arc::as_ptr(record).addr() ^ stop) as u64;
        let index = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - HEAT_TALLY_BITS)) as usize;
        let slot = &mut self.slots[index];
        if let Some(held) = slot {
            if held.stop == stop && Arc::ptr_eq(&held.record, record) {
                held.hits += 1;
                return;
            }
        }
        let fresh = TallySlot {
            record: Arc::clone(record),
            stop,
            hits: 1,
        };
        if let Some(evicted) = slot.replace(fresh) {
            evicted.fold_into(fabric, timing);
        }
    }

    /// Folds every pending count into `fabric`, emptying the tally.
    fn fold_into(&mut self, fabric: &mut FabricHeat, timing: &ArrayTiming) {
        for slot in &mut self.slots {
            if let Some(held) = slot.take() {
                held.fold_into(fabric, timing);
            }
        }
    }
}

/// Where one replay stopped, and what it cost beyond its stop segment.
struct Replay {
    /// Index of the segment replay stopped after.
    stop: usize,
    /// The misspeculated branch's PC and predicted direction, if any.
    misspec_branch: Option<(u32, bool)>,
    /// Data-cache stall cycles the replayed accesses incurred.
    mem_stall_cycles: u64,
}

/// Host-time attribution hooks around the run loop's engine sections:
/// [`HostSplit`] when enabled, [`NoSplit`] (which compiles away)
/// otherwise.
trait SplitHooks {
    fn enter(&mut self, bucket: HostBucket);
    fn exit(&mut self, bucket: HostBucket);
}

impl SplitHooks for HostSplit {
    #[inline]
    fn enter(&mut self, bucket: HostBucket) {
        HostSplit::enter(self, bucket);
    }

    #[inline]
    fn exit(&mut self, bucket: HostBucket) {
        HostSplit::exit(self, bucket);
    }
}

/// No host-time attribution.
struct NoSplit;

impl SplitHooks for NoSplit {
    #[inline(always)]
    fn enter(&mut self, _bucket: HostBucket) {}

    #[inline(always)]
    fn exit(&mut self, _bucket: HostBucket) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mips::asm::assemble;
    use dim_mips::Reg;

    fn build(src: &str, shape: ArrayShape, slots: usize, spec: bool) -> (System, Machine) {
        let p = assemble(src).expect("assembles");
        let sys = System::new(Machine::load(&p), SystemConfig::new(shape, slots, spec));
        let baseline = Machine::load(&p);
        (sys, baseline)
    }

    fn check_equivalent(src: &str, shape: ArrayShape, slots: usize, spec: bool) -> (u64, u64) {
        let (mut sys, mut base) = build(src, shape, slots, spec);
        let r1 = sys.run(10_000_000).unwrap();
        let r2 = base.run(10_000_000).unwrap();
        assert_eq!(r1, r2, "halt reasons differ");
        for r in Reg::all() {
            assert_eq!(
                sys.machine().cpu.reg(r),
                base.cpu.reg(r),
                "register {r} differs"
            );
        }
        assert_eq!(sys.machine().output, base.output);
        (base.stats.cycles, sys.total_cycles())
    }

    const SUM_LOOP: &str = "
        main: li $t0, 500
              li $v0, 0
        loop: addu $v0, $v0, $t0
              xor  $t1, $v0, $t0
              addu $v0, $v0, $t1
              sll  $t2, $v0, 2
              addu $v0, $v0, $t2
              addiu $t0, $t0, -1
              bnez $t0, loop
              break 0";

    #[test]
    fn accelerated_matches_baseline_and_speeds_up() {
        let (base, accel) = check_equivalent(SUM_LOOP, ArrayShape::config1(), 64, false);
        assert!(accel < base, "accel {accel} >= base {base}");
    }

    #[test]
    fn speculation_matches_baseline_and_speeds_up_more() {
        let (base, spec) = check_equivalent(SUM_LOOP, ArrayShape::config1(), 64, true);
        let (_, nospec) = check_equivalent(SUM_LOOP, ArrayShape::config1(), 64, false);
        assert!(spec < base);
        // Speculation folds the loop branch into the configuration.
        assert!(spec <= nospec, "spec {spec} > nospec {nospec}");
    }

    #[test]
    fn host_split_populates_all_four_engine_buckets() {
        let (mut sys, _base) = build(SUM_LOOP, ArrayShape::config1(), 64, false);
        sys.enable_host_split(dim_obs::MonotonicClock::shared());
        sys.run(10_000_000).unwrap();
        let split = sys.host_split().expect("enabled");
        // Every loop iteration looks up the rcache; misses fetch/decode
        // and feed the translator; hits replay on the array.
        assert!(split.count(HostBucket::Rcache) > 0);
        assert!(split.count(HostBucket::FetchDecode) > 0);
        assert!(split.count(HostBucket::Translate) > 0);
        assert!(split.count(HostBucket::ArrayReplay) > 0);
        assert!(sys.stats().array_invocations > 0, "workload never warmed");
        // Priming samples guarantee a nonzero estimate per used bucket.
        assert!(split.sampled(HostBucket::Rcache) > 0);
    }

    #[test]
    fn host_split_is_off_by_default() {
        let (mut sys, _base) = build(SUM_LOOP, ArrayShape::config1(), 64, false);
        sys.run(10_000_000).unwrap();
        assert!(sys.host_split().is_none());
    }

    /// A 0-slot cache stores nothing, so the run reports no insert and
    /// the watchdog's occupancy law holds.
    #[test]
    fn zero_slot_cache_never_accelerates() {
        let (mut sys, mut base) = build(SUM_LOOP, ArrayShape::config1(), 0, true);
        let mut watchdog = dim_obs::Watchdog::new(0);
        sys.run_probed(10_000_000, &mut watchdog).unwrap();
        base.run(10_000_000).unwrap();
        assert_eq!(watchdog.violation(), None);
        assert_eq!(sys.stats().array_invocations, 0);
        assert_eq!(sys.stats().configs_built, 0);
        assert_eq!(sys.stats().cache_bits_written, 0);
        assert_eq!(sys.cache().insertions(), 0);
        assert!(sys.stats().translated_instructions > 0);
        assert_eq!(sys.total_cycles(), base.stats.cycles);
    }

    /// A run that ends in a fault still leaves `translated_instructions`
    /// equal to what the translator observed, including the
    /// instructions interpreted after the last array hit.
    #[test]
    fn stats_count_every_observed_instruction_after_a_fault() {
        let (mut sys, _base) = build(
            "main: li $t0, 200
                   li $v0, 0
             loop: addu $v0, $v0, $t0
                   xor  $t1, $v0, $t0
                   addu $v0, $v0, $t1
                   addiu $t0, $t0, -1
                   bnez $t0, loop
                   addiu $t2, $zero, 1
                   addiu $t2, $t2, 1
                   addiu $t2, $t2, 1
                   lw   $t3, 2($zero)
                   break 0",
            ArrayShape::config1(),
            64,
            true,
        );
        assert!(sys.run(10_000_000).is_err(), "the misaligned load faults");
        assert!(sys.stats().array_invocations > 0, "the loop never hit");
        assert_eq!(
            sys.stats().translated_instructions,
            sys.translator.observed_instructions()
        );
    }

    #[test]
    fn commit_tags_rcache_entry_when_cert_matches() {
        let p = assemble(SUM_LOOP).expect("assembles");
        // The loop head sits after the two one-instruction `li`s.
        let loop_pc = p.entry + 8;
        let cert = StreamingCert {
            version: dim_cgra::STREAM_CERT_VERSION,
            workload: "sum".into(),
            entry_pc: loop_pc,
            len: 7,
            accesses: vec![],
            burst: 4,
            trip_bound: Some(500),
        };
        let mut sys = System::new(
            Machine::load(&p),
            SystemConfig::new(ArrayShape::config1(), 64, false),
        );
        assert_eq!(sys.install_stream_certs([cert]), Ok(1));
        sys.run(10_000_000).unwrap();
        assert!(sys.stream_tags_applied() > 0, "loop commit never tagged");
        assert_eq!(sys.cache().stream_tag(loop_pc), Some(4));

        let mut base = Machine::load(&p);
        base.run(10_000_000).unwrap();
        for r in Reg::all() {
            assert_eq!(sys.machine().cpu.reg(r), base.cpu.reg(r), "{r} differs");
        }
    }

    #[test]
    fn commit_is_not_tagged_when_region_does_not_cover_ops() {
        let p = assemble(SUM_LOOP).expect("assembles");
        let loop_pc = p.entry + 8;
        // Certificate too short: the committed config's later ops fall
        // outside the certified region, so the tag must not apply.
        let cert = StreamingCert {
            version: dim_cgra::STREAM_CERT_VERSION,
            workload: "sum".into(),
            entry_pc: loop_pc,
            len: 3,
            accesses: vec![],
            burst: 4,
            trip_bound: None,
        };
        let mut sys = System::new(
            Machine::load(&p),
            SystemConfig::new(ArrayShape::config1(), 64, false),
        );
        sys.install_stream_certs([cert]).unwrap();
        sys.run(10_000_000).unwrap();
        assert_eq!(sys.stream_tags_applied(), 0);
        assert_eq!(sys.cache().stream_tag(loop_pc), None);
    }

    #[test]
    fn install_rejects_invalid_cert() {
        let (mut sys, _) = build(SUM_LOOP, ArrayShape::config1(), 64, false);
        let bad = StreamingCert {
            version: dim_cgra::STREAM_CERT_VERSION,
            workload: "sum".into(),
            entry_pc: 0x40_0000,
            len: 8,
            accesses: vec![],
            burst: 0, // burst must be ≥ 1
            trip_bound: None,
        };
        let err = sys.install_stream_certs([bad]).unwrap_err();
        assert!(err.contains("burst"), "{err}");
    }

    #[test]
    fn data_dependent_branch_speculation_stays_correct() {
        // Branch alternates: taken, not-taken, ... — bimodal never fully
        // stabilizes, misspeculations must not corrupt state.
        let src = "
            main: li $s0, 400
                  li $v0, 0
            loop: andi $t1, $s0, 1
                  beqz $t1, even
                  addiu $v0, $v0, 3
                  addiu $v0, $v0, 5
                  addiu $v0, $v0, 7
            even: addiu $v0, $v0, 1
                  xor   $t2, $v0, $s0
                  addu  $v0, $v0, $t2
                  addiu $s0, $s0, -1
                  bnez  $s0, loop
                  break 0";
        check_equivalent(src, ArrayShape::config2(), 64, true);
        check_equivalent(src, ArrayShape::config2(), 64, false);
    }

    #[test]
    fn memory_traffic_stays_correct_under_acceleration() {
        let src = "
            .data
            buf: .space 256
            .text
            main: li $s0, 64
                  la $s1, buf
            loop: sll $t0, $s0, 2
                  addu $t1, $s1, $t0
                  addiu $t2, $s0, 100
                  sw  $t2, -4($t1)
                  lw  $t3, -4($t1)
                  addu $s2, $s2, $t3
                  addiu $s0, $s0, -1
                  bnez $s0, loop
                  break 0";
        check_equivalent(src, ArrayShape::config1(), 64, true);
    }

    #[test]
    fn stats_account_array_activity() {
        let (mut sys, _) = build(SUM_LOOP, ArrayShape::config1(), 64, false);
        sys.run(10_000_000).unwrap();
        let s = sys.stats();
        assert!(s.array_invocations > 100, "{s:?}");
        assert!(s.array_instructions > 1000);
        assert!(s.configs_built >= 1);
        assert_eq!(s.misspeculations, 0);
        assert_eq!(s.full_hits, s.array_invocations);
        let (hits, _miss) = sys.cache().hit_miss();
        assert_eq!(hits, s.array_invocations);
    }

    #[test]
    fn total_instructions_conserved() {
        let (mut sys, mut base) = build(SUM_LOOP, ArrayShape::config3(), 256, true);
        sys.run(10_000_000).unwrap();
        base.run(10_000_000).unwrap();
        assert_eq!(sys.total_instructions(), base.stats.instructions);
    }

    #[test]
    fn tiny_array_still_correct() {
        let mut shape = ArrayShape::config1();
        shape.rows = 2;
        shape.alus_per_row = 2;
        shape.ldsts_per_row = 1;
        shape.mults_per_row = 1;
        check_equivalent(SUM_LOOP, shape, 16, true);
    }

    #[test]
    fn infinite_shape_correct_and_fast() {
        let (base, inf) = check_equivalent(SUM_LOOP, ArrayShape::infinite(), 1 << 20, true);
        assert!(inf < base);
    }
}

#[cfg(test)]
mod cross_check_tests {
    use super::*;
    use dim_mips::asm::assemble;

    /// The cross-check mode must pass silently on representative loops
    /// (pure ALU, store-only, load-only) — it panics on divergence.
    #[test]
    fn cross_check_passes_on_representative_loops() {
        let programs = [
            // ALU + speculation.
            "main: li $s0, 300
             loop: addu $v0, $v0, $s0
                   xor  $t1, $v0, $s0
                   addu $v0, $v0, $t1
                   sll  $t2, $v0, 2
                   addu $v0, $v0, $t2
                   addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
            // Store-only bodies.
            ".data
             buf: .space 1024
             .text
             main: li $s0, 200
                   la $s1, buf
             loop: andi $t0, $s0, 0xff
                   sll  $t1, $t0, 2
                   addu $t2, $s1, $t1
                   sw   $s0, 0($t2)
                   addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
            // Load-only bodies with a multiplier.
            ".data
             tab: .word 3, 1, 4, 1, 5, 9, 2, 6
             .text
             main: li $s0, 200
                   la $s1, tab
             loop: andi $t0, $s0, 7
                   sll  $t1, $t0, 2
                   addu $t2, $s1, $t1
                   lw   $t3, 0($t2)
                   mul  $t4, $t3, $s0
                   addu $v0, $v0, $t4
                   addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
        ];
        for src in programs {
            let program = assemble(src).expect("assembles");
            let mut config = SystemConfig::new(ArrayShape::config2(), 64, true);
            config.cross_check = true;
            let mut sys = System::new(Machine::load(&program), config);
            sys.run(1_000_000).expect("runs");
            assert!(
                sys.stats().array_invocations > 0,
                "nothing was cross-checked"
            );
        }
    }
}
