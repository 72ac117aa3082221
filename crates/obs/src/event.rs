//! The structured event vocabulary every instrumented component speaks.

/// Version of the event schema emitted by [`JsonlSink`](crate::JsonlSink)
/// and understood by [`replay`](crate::replay).
///
/// Compatibility policy: consumers must reject a trace whose header
/// carries a *greater* major version than they understand; fields may be
/// *added* to events within a version, so consumers must ignore unknown
/// fields.
///
/// History:
/// - **1** — initial vocabulary (header, retire_batch, translator,
///   rcache, array_invoke, footer).
/// - **2** — adds sink-emitted `telemetry` records (periodic
///   host-progress samples). Telemetry records are not probe events and
///   do not count toward the footer's `events` total; readers must
///   reject them in a trace whose header declares version 1.
/// - **3** — region identity: `rcache_hit`/`rcache_insert`/`rcache_flush`
///   carry the configuration length (`len`), and two new record types
///   appear — `rcache_evict` (per-eviction, with the evicted region's
///   reuse count) and `mispredict` (per-misspeculated invocation, with
///   the offending branch PC and penalty). Readers must reject the new
///   record types in a trace whose header declares an older version.
/// - **4** — fabric utilization: a new cycle-neutral `fabric` record
///   precedes every `array_invoke` with the invocation's per-unit-class
///   occupancy (busy/capacity thirds, issued/squashed ops, residual
///   cycles, write-back port pressure). `fabric.exec_thirds` rounded up
///   to cycles plus `fabric.residual` equals the paired invocation's
///   `exec_cycles` exactly (the conservation law `dim heat` enforces).
///   Readers must reject `fabric` records in a trace whose header
///   declares an older version.
/// - **5** — streaming certificates: a new cycle-neutral `stream_tag`
///   record marks a committed rcache entry whose region matched an
///   installed streaming-eligibility certificate (`dim prove`), with
///   the region id and the certified burst K. Readers must reject
///   `stream_tag` records in a trace whose header declares an older
///   version.
pub const SCHEMA_VERSION: u32 = 5;

/// Number of distinct [`ProbeEvent`] variants; sizes the per-kind
/// accounting arrays (e.g. the flight recorder's drop counters).
pub const EVENT_KINDS: usize = 12;

/// Stable wire names indexed by [`ProbeEvent::type_index`].
pub const EVENT_KIND_NAMES: [&str; EVENT_KINDS] = [
    "retire",
    "trans_begin",
    "trans_commit",
    "rcache_hit",
    "rcache_miss",
    "rcache_insert",
    "rcache_flush",
    "rcache_evict",
    "mispredict",
    "array_invoke",
    "fabric",
    "stream_tag",
];

/// Coarse classification of a retired pipeline instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetireKind {
    /// ALU / shift / compare / move.
    Alu,
    /// Data-memory load.
    Load,
    /// Data-memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump (j/jal/jr/jalr).
    Jump,
    /// Multiply or divide.
    MulDiv,
    /// Syscall or break.
    System,
}

impl RetireKind {
    /// Stable wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            RetireKind::Alu => "alu",
            RetireKind::Load => "load",
            RetireKind::Store => "store",
            RetireKind::Branch => "branch",
            RetireKind::Jump => "jump",
            RetireKind::MulDiv => "muldiv",
            RetireKind::System => "system",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn from_name(name: &str) -> Option<RetireKind> {
        Some(match name {
            "alu" => RetireKind::Alu,
            "load" => RetireKind::Load,
            "store" => RetireKind::Store,
            "branch" => RetireKind::Branch,
            "jump" => RetireKind::Jump,
            "muldiv" => RetireKind::MulDiv,
            "system" => RetireKind::System,
            _ => return None,
        })
    }
}

/// One array invocation, with its full cycle and speculation accounting.
///
/// The three cycle spans mirror the paper's overhead decomposition:
/// reconfiguration stall (§4.3), row execution (including data-cache
/// stalls and any misspeculation penalty), and the non-overlapped
/// write-back tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayInvoke {
    /// Entry PC of the executed configuration.
    pub entry_pc: u32,
    /// PC execution continued at afterwards.
    pub exit_pc: u32,
    /// Static instructions the configuration covers.
    pub covered: u32,
    /// Instructions actually executed (squashed segments excluded).
    pub executed: u32,
    /// Loads issued by array LD/ST units.
    pub loads: u32,
    /// Stores issued by array LD/ST units.
    pub stores: u32,
    /// Rows the configuration occupies.
    pub rows: u32,
    /// Deepest speculation segment actually executed.
    pub spec_depth: u8,
    /// Whether a speculated branch resolved against its prediction.
    pub misspeculated: bool,
    /// Whether the configuration was flushed after this invocation.
    pub flushed: bool,
    /// Reconfiguration stall cycles visible to the processor.
    pub stall_cycles: u32,
    /// Execution cycles (rows + d-cache stalls + misspeculation penalty).
    pub exec_cycles: u32,
    /// Write-back cycles not overlapped with execution.
    pub tail_cycles: u32,
}

impl ArrayInvoke {
    /// All cycles charged for this invocation.
    pub fn total_cycles(&self) -> u64 {
        self.stall_cycles as u64 + self.exec_cycles as u64 + self.tail_cycles as u64
    }
}

/// Per-unit-class fabric occupancy of one array invocation (schema v4).
///
/// Cycle-neutral: the cycles are already charged by the paired
/// [`ArrayInvoke`] this record precedes. Thirds are the pre-rounding
/// row-delay unit of the timing model (an ALU row is 1 third of a
/// cycle); the conservation law ties them back to charged cycles:
/// `ceil(exec_thirds / 3) + residual_cycles == invoke.exec_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricUtil {
    /// Entry PC of the executed configuration (pairs with the following
    /// `array_invoke`).
    pub entry_pc: u32,
    /// Rows traversed (`last executed row + 1`).
    pub rows: u32,
    /// Σ row-window thirds over the traversed rows.
    pub exec_thirds: u32,
    /// Σ physical-unit × window thirds over the traversed rows, all
    /// classes; 0 on infinite shapes (utilization undefined).
    pub capacity_thirds: u32,
    /// Busy unit-thirds on ALU/shifter/comparator units.
    pub alu_busy_thirds: u32,
    /// Busy unit-thirds on multiplier units.
    pub mult_busy_thirds: u32,
    /// Busy unit-thirds on load/store units.
    pub ldst_busy_thirds: u32,
    /// Operations confirmed (speculation depth ≤ executed depth).
    pub issued_ops: u32,
    /// Operations configured but squashed by misspeculation.
    pub squashed_ops: u32,
    /// Execution cycles outside the row model: memory stalls plus
    /// misspeculation penalty.
    pub residual_cycles: u32,
    /// Write-backs performed.
    pub writeback_writes: u32,
    /// Write-back port-slots available (`rf_write_ports × (exec + tail)`
    /// cycles); `writes ≤ slots` always.
    pub writeback_slots: u32,
}

impl FabricUtil {
    /// Total busy unit-thirds across classes.
    pub fn busy_thirds(&self) -> u64 {
        self.alu_busy_thirds as u64 + self.mult_busy_thirds as u64 + self.ldst_busy_thirds as u64
    }

    /// Row-model execution cycles (`exec_thirds` rounded up), i.e. the
    /// paired invocation's `exec_cycles` minus `residual_cycles`.
    pub fn exec_cycles(&self) -> u64 {
        (self.exec_thirds as u64).div_ceil(3)
    }
}

/// A structured event emitted by an instrumented component.
///
/// Events are small `Copy` payloads so emitting one into a recording
/// probe is cheap, and constructing one is skipped entirely (guarded by
/// [`Probe::ENABLED`](crate::Probe::ENABLED)) when probing is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// One instruction retired on the processor pipeline, with its cycle
    /// breakdown: `base_cycles` covers issue plus structural penalties
    /// (taken branch, load-use, mult/div), `i_stall`/`d_stall` are
    /// instruction- and data-cache miss cycles.
    Retire {
        /// Address of the retired instruction.
        pc: u32,
        /// Coarse instruction class.
        kind: RetireKind,
        /// Pipeline cycles including structural penalties.
        base_cycles: u32,
        /// Instruction-cache stall cycles.
        i_stall: u32,
        /// Data-cache stall cycles.
        d_stall: u32,
        /// Whether this instruction ends its basic block (control
        /// transfer, discontinuous next PC, or system effect).
        ends_block: bool,
    },
    /// The translator opened a detection region at `pc`.
    TransBegin {
        /// First PC of the region.
        pc: u32,
    },
    /// The translator closed a region and produced a configuration
    /// worth caching.
    TransCommit {
        /// Entry PC of the finished configuration.
        entry_pc: u32,
        /// Instructions the configuration covers.
        instructions: u32,
        /// Array rows it occupies.
        rows: u32,
        /// Basic blocks merged (1 + speculated branches).
        spec_blocks: u8,
        /// Whether this was an interrupted prefix
        /// ([`Translator::take_partial`](https://docs.rs)-style) rather
        /// than a naturally closed region.
        partial: bool,
    },
    /// Reconfiguration-cache lookup hit.
    RcacheHit {
        /// Looked-up PC.
        pc: u32,
        /// Instructions covered by the cached configuration — together
        /// with `pc` this is the stable region id (schema v3; 0 in
        /// older traces).
        len: u32,
    },
    /// Reconfiguration-cache lookup miss.
    RcacheMiss {
        /// Looked-up PC.
        pc: u32,
    },
    /// A configuration was inserted into the reconfiguration cache,
    /// possibly evicting another entry.
    RcacheInsert {
        /// Entry PC of the inserted configuration.
        pc: u32,
        /// Instructions the inserted configuration covers (region id;
        /// schema v3, 0 in older traces).
        len: u32,
        /// Entry PC of the evicted configuration, if the insert
        /// displaced one.
        evicted: Option<u32>,
    },
    /// A configuration was flushed after repeated misspeculation.
    RcacheFlush {
        /// Entry PC of the flushed configuration.
        pc: u32,
        /// Instructions the flushed configuration covered (region id;
        /// schema v3, 0 in older traces).
        len: u32,
    },
    /// A configuration was displaced from the reconfiguration cache by
    /// capacity pressure (schema v3). Distinguishes entries that repaid
    /// their translation (`uses > 0`) from dead insertions.
    RcacheEvict {
        /// Entry PC of the evicted configuration.
        pc: u32,
        /// Instructions the evicted configuration covered.
        len: u32,
        /// Lookup hits the entry served between insertion and eviction.
        uses: u64,
    },
    /// A speculated branch inside an array invocation resolved against
    /// its prediction (schema v3). The penalty cycles are *already*
    /// inside the corresponding `array_invoke`'s `exec_cycles`; this
    /// record only attributes them to a region and branch.
    SpecMispredict {
        /// Entry PC of the misspeculating configuration.
        region_pc: u32,
        /// Instructions that configuration covers.
        region_len: u32,
        /// PC of the branch that resolved against its prediction.
        branch_pc: u32,
        /// Misspeculation penalty cycles charged inside the invocation.
        penalty_cycles: u32,
    },
    /// A cached configuration executed on the array.
    ArrayInvoke(ArrayInvoke),
    /// Fabric occupancy of an array invocation (schema v4); emitted
    /// immediately before its paired `ArrayInvoke`. Cycle-neutral.
    Fabric(FabricUtil),
    /// A committed rcache entry matched an installed streaming
    /// certificate and was tagged `stream_ok(K)` (schema v5).
    /// Cycle-neutral: the tag is a contract surface for the streaming
    /// executor, not an executed event.
    StreamTag {
        /// Entry PC of the tagged configuration.
        pc: u32,
        /// Instructions the configuration covers (region id).
        len: u32,
        /// Certified maximum safe burst K.
        burst: u32,
    },
}

impl ProbeEvent {
    /// Stable wire name of the event type.
    pub fn type_name(&self) -> &'static str {
        EVENT_KIND_NAMES[self.type_index()]
    }

    /// Dense index of the event's variant, in [`EVENT_KIND_NAMES`]
    /// order — always below [`EVENT_KINDS`].
    pub fn type_index(&self) -> usize {
        match self {
            ProbeEvent::Retire { .. } => 0,
            ProbeEvent::TransBegin { .. } => 1,
            ProbeEvent::TransCommit { .. } => 2,
            ProbeEvent::RcacheHit { .. } => 3,
            ProbeEvent::RcacheMiss { .. } => 4,
            ProbeEvent::RcacheInsert { .. } => 5,
            ProbeEvent::RcacheFlush { .. } => 6,
            ProbeEvent::RcacheEvict { .. } => 7,
            ProbeEvent::SpecMispredict { .. } => 8,
            ProbeEvent::ArrayInvoke(_) => 9,
            ProbeEvent::Fabric(_) => 10,
            ProbeEvent::StreamTag { .. } => 11,
        }
    }

    /// Simulated cycles this event accounts for (0 for bookkeeping
    /// events like cache lookups).
    pub fn cycles(&self) -> u64 {
        match self {
            ProbeEvent::Retire {
                base_cycles,
                i_stall,
                d_stall,
                ..
            } => *base_cycles as u64 + *i_stall as u64 + *d_stall as u64,
            ProbeEvent::ArrayInvoke(inv) => inv.total_cycles(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_index_matches_name_table() {
        let samples = [
            ProbeEvent::Retire {
                pc: 0,
                kind: RetireKind::Alu,
                base_cycles: 1,
                i_stall: 0,
                d_stall: 0,
                ends_block: false,
            },
            ProbeEvent::TransBegin { pc: 0 },
            ProbeEvent::TransCommit {
                entry_pc: 0,
                instructions: 1,
                rows: 1,
                spec_blocks: 1,
                partial: false,
            },
            ProbeEvent::RcacheHit { pc: 0, len: 1 },
            ProbeEvent::RcacheMiss { pc: 0 },
            ProbeEvent::RcacheInsert {
                pc: 0,
                len: 1,
                evicted: None,
            },
            ProbeEvent::RcacheFlush { pc: 0, len: 1 },
            ProbeEvent::RcacheEvict {
                pc: 0,
                len: 1,
                uses: 0,
            },
            ProbeEvent::SpecMispredict {
                region_pc: 0,
                region_len: 1,
                branch_pc: 0,
                penalty_cycles: 1,
            },
            ProbeEvent::ArrayInvoke(ArrayInvoke {
                entry_pc: 0,
                exit_pc: 0,
                covered: 1,
                executed: 1,
                loads: 0,
                stores: 0,
                rows: 1,
                spec_depth: 0,
                misspeculated: false,
                flushed: false,
                stall_cycles: 0,
                exec_cycles: 1,
                tail_cycles: 0,
            }),
            ProbeEvent::Fabric(FabricUtil {
                entry_pc: 0,
                rows: 1,
                exec_thirds: 1,
                capacity_thirds: 11,
                alu_busy_thirds: 1,
                mult_busy_thirds: 0,
                ldst_busy_thirds: 0,
                issued_ops: 1,
                squashed_ops: 0,
                residual_cycles: 0,
                writeback_writes: 0,
                writeback_slots: 4,
            }),
            ProbeEvent::StreamTag {
                pc: 0,
                len: 1,
                burst: 1,
            },
        ];
        assert_eq!(samples.len(), EVENT_KINDS);
        for (i, event) in samples.iter().enumerate() {
            assert_eq!(event.type_index(), i);
            assert_eq!(EVENT_KIND_NAMES[i], event.type_name());
        }
    }
}
