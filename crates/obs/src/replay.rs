//! Parsing, validation, and summarization of JSONL traces.
//!
//! [`read_trace`] validates a trace written by
//! [`JsonlSink`](crate::JsonlSink): the first line must be a `header`
//! whose `schema_version` is not newer than [`SCHEMA_VERSION`], every
//! line must be well-formed JSON of a known record type, and the
//! `footer` (when present) must agree with the observed event count.
//! Unknown *fields* inside a known record are ignored, per the schema
//! compatibility policy. Version-1 traces remain readable; `telemetry`
//! records (added in version 2) are accepted only when the header
//! declares version 2 or newer, and never count as events. Likewise the
//! `rcache_evict` and `mispredict` records (added in version 3) are
//! rejected in traces whose header declares an older version, and the
//! `len` region-id field on rcache records defaults to 0 when absent.
//!
//! The returned [`TraceSummary`] reconstructs every accelerator-side
//! counter from the events alone — the round-trip test in `dim-core`
//! asserts it equals the live `DimStats` field for field.

use crate::event::{ArrayInvoke, FabricUtil, ProbeEvent, RetireKind, SCHEMA_VERSION};
use crate::json::{self, JsonValue};
use std::fmt;

/// A trace-reading error, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based line number (0 for whole-trace errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "trace error: {}", self.message)
        } else {
            write!(f, "trace error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ReplayError {}

/// The `header` record of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Schema version the trace was written with.
    pub schema_version: u32,
    /// Workload name recorded at trace time.
    pub workload: String,
    /// Stored bits per cache entry (drives the cache-bit counters).
    pub bits_per_config: u64,
    /// Per-kind counts of events a flight-recorder window dropped
    /// before this trace was dumped (empty for ordinary full traces).
    pub dropped: Vec<(String, u64)>,
}

/// One parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// The leading metadata record.
    Header(TraceHeader),
    /// A coalesced run of pipeline activity.
    RetireBatch {
        /// Instructions retired in the run.
        count: u64,
        /// Summed pipeline base cycles.
        base_cycles: u64,
        /// Summed instruction-cache stall cycles.
        i_stall: u64,
        /// Summed data-cache stall cycles.
        d_stall: u64,
        /// Reconfiguration-cache misses interleaved with the run.
        rcache_misses: u64,
        /// Retire counts per instruction kind.
        kinds: Vec<(RetireKind, u64)>,
    },
    /// Any non-batched event.
    Event(ProbeEvent),
    /// A sink-emitted host-progress sample (schema version 2).
    ///
    /// Not a probe event: excluded from the footer's `events` total and
    /// rejected when the header declares schema version 1.
    Telemetry {
        /// Zero-based sample index.
        seq: u64,
        /// Cumulative simulated cycles at the sample point.
        sim_cycles: u64,
        /// Cumulative retired instructions at the sample point.
        retired: u64,
        /// Cumulative probe events at the sample point.
        events: u64,
        /// Host wall-clock nanoseconds since the sink was created.
        host_nanos: u64,
    },
    /// The trailing integrity record.
    Footer {
        /// Total events the sink observed.
        events: u64,
    },
}

/// Accelerator- and pipeline-side counters reconstructed from a trace.
///
/// The first fifteen fields mirror `DimStats` in `dim-core` name for
/// name, and the trailing `rcache_evictions_live`/`rcache_evictions_dead`
/// pair mirrors `ReconfCache::evictions_live`/`evictions_dead`, the one
/// place the live cache counts them (the crates deliberately do not
/// depend on each other in that direction, so the round-trip test
/// compares field by field).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Times a configuration executed on the array.
    pub array_invocations: u64,
    /// Instructions retired through the array.
    pub array_instructions: u64,
    /// Array execution cycles.
    pub array_exec_cycles: u64,
    /// Reconfiguration stall cycles.
    pub reconfig_stall_cycles: u64,
    /// Non-overlapped write-back cycles.
    pub writeback_tail_cycles: u64,
    /// Loads issued by the array.
    pub array_loads: u64,
    /// Stores issued by the array.
    pub array_stores: u64,
    /// Invocations with every speculation correct.
    pub full_hits: u64,
    /// Misspeculated invocations.
    pub misspeculations: u64,
    /// Configurations flushed after misspeculation.
    pub config_flushes: u64,
    /// Configurations built and inserted.
    pub configs_built: u64,
    /// Instructions examined by the detection hardware.
    pub translated_instructions: u64,
    /// Bits read from the reconfiguration cache.
    pub cache_bits_read: u64,
    /// Bits written to the reconfiguration cache.
    pub cache_bits_written: u64,
    /// Summed occupied rows over invocations.
    pub array_occupied_rows: u64,

    /// Pipeline instructions retired.
    pub retired: u64,
    /// Pipeline cycles (base + i-stall + d-stall).
    pub pipeline_cycles: u64,
    /// Reconfiguration-cache hits.
    pub rcache_hits: u64,
    /// Reconfiguration-cache misses.
    pub rcache_misses: u64,
    /// Insertions that displaced an entry.
    pub rcache_evictions: u64,
    /// Evictions whose victim had served at least one lookup hit
    /// (schema v3; 0 in older traces).
    pub rcache_evictions_live: u64,
    /// Evictions whose victim was never reused after insertion
    /// (schema v3; 0 in older traces).
    pub rcache_evictions_dead: u64,

    /// `fabric` records seen (schema v4; 0 in older traces — one per
    /// array invocation when present). The `fabric_*` aggregates below
    /// are likewise all-zero for pre-v4 traces.
    pub fabric_records: u64,
    /// Σ rows traversed.
    pub fabric_rows: u64,
    /// Σ row-window thirds (pre-rounding execution time).
    pub fabric_exec_thirds: u64,
    /// Σ available unit-thirds across classes (0 on infinite shapes).
    pub fabric_capacity_thirds: u64,
    /// Σ busy unit-thirds on ALU units.
    pub fabric_alu_busy_thirds: u64,
    /// Σ busy unit-thirds on multiplier units.
    pub fabric_mult_busy_thirds: u64,
    /// Σ busy unit-thirds on load/store units.
    pub fabric_ldst_busy_thirds: u64,
    /// Σ operations confirmed.
    pub fabric_issued_ops: u64,
    /// Σ operations squashed by misspeculation.
    pub fabric_squashed_ops: u64,
    /// Σ execution cycles outside the row model (memory stalls +
    /// misspeculation penalties).
    pub fabric_residual_cycles: u64,
    /// Σ write-backs performed.
    pub fabric_writeback_writes: u64,
    /// Σ write-back port-slots available.
    pub fabric_writeback_slots: u64,

    /// `stream_tag` records seen (schema v5; 0 in older traces) — one
    /// per committed configuration that matched a streaming certificate.
    pub stream_tags: u64,
    /// Σ certified burst K over stream tags.
    pub stream_tag_burst: u64,
}

impl TraceSummary {
    /// Total simulated cycles: pipeline plus all array-attributed spans.
    pub fn total_cycles(&self) -> u64 {
        self.pipeline_cycles
            + self.array_exec_cycles
            + self.reconfig_stall_cycles
            + self.writeback_tail_cycles
    }
}

/// A fully parsed and validated trace.
#[derive(Debug, Clone)]
pub struct ReplayedTrace {
    /// The header record.
    pub header: TraceHeader,
    /// Every record after the header, in trace order (footer included).
    pub records: Vec<TraceRecord>,
    /// Counters reconstructed from the records.
    pub summary: TraceSummary,
}

fn err(line: usize, message: impl Into<String>) -> ReplayError {
    ReplayError {
        line,
        message: message.into(),
    }
}

fn get_u64(v: &JsonValue, key: &str, line: usize) -> Result<u64, ReplayError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| err(line, format!("missing or non-integer field `{key}`")))
}

fn get_u32(v: &JsonValue, key: &str, line: usize) -> Result<u32, ReplayError> {
    let n = get_u64(v, key, line)?;
    u32::try_from(n).map_err(|_| err(line, format!("field `{key}` out of range")))
}

fn get_bool(v: &JsonValue, key: &str, line: usize) -> Result<bool, ReplayError> {
    v.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| err(line, format!("missing or non-boolean field `{key}`")))
}

/// Reads an optional `u32` field, defaulting when absent (used for the
/// schema-v3 `len` region-id field, which older traces lack).
fn get_u32_or(v: &JsonValue, key: &str, default: u32, line: usize) -> Result<u32, ReplayError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(default),
        Some(_) => get_u32(v, key, line),
    }
}

/// Parses and validates a single trace line.
pub fn parse_record(text: &str, line: usize) -> Result<TraceRecord, ReplayError> {
    let v = json::parse(text).map_err(|e| err(line, e.to_string()))?;
    let ty = v
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err(line, "missing `type` field"))?;
    Ok(match ty {
        "header" => {
            let version = get_u32(&v, "schema_version", line)?;
            if version > SCHEMA_VERSION {
                return Err(err(
                    line,
                    format!(
                        "trace schema version {version} is newer than supported {SCHEMA_VERSION}"
                    ),
                ));
            }
            let mut dropped = Vec::new();
            if let Some(JsonValue::Object(map)) = v.get("dropped") {
                for (name, n) in map {
                    let n = n
                        .as_u64()
                        .ok_or_else(|| err(line, format!("non-integer dropped count `{name}`")))?;
                    dropped.push((name.clone(), n));
                }
            }
            TraceRecord::Header(TraceHeader {
                schema_version: version,
                workload: v
                    .get("workload")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string(),
                bits_per_config: get_u64(&v, "bits_per_config", line)?,
                dropped,
            })
        }
        "retire_batch" => {
            let mut kinds = Vec::new();
            if let Some(JsonValue::Object(map)) = v.get("kinds") {
                for (name, n) in map {
                    let kind = RetireKind::from_name(name)
                        .ok_or_else(|| err(line, format!("unknown retire kind `{name}`")))?;
                    let n = n
                        .as_u64()
                        .ok_or_else(|| err(line, format!("non-integer kind count `{name}`")))?;
                    kinds.push((kind, n));
                }
            }
            let count = get_u64(&v, "count", line)?;
            let kind_total: u64 = kinds.iter().map(|(_, n)| n).sum();
            if kind_total != count {
                return Err(err(
                    line,
                    format!("kind counts sum to {kind_total} but `count` is {count}"),
                ));
            }
            TraceRecord::RetireBatch {
                count,
                base_cycles: get_u64(&v, "base_cycles", line)?,
                i_stall: get_u64(&v, "i_stall", line)?,
                d_stall: get_u64(&v, "d_stall", line)?,
                rcache_misses: get_u64(&v, "rcache_misses", line)?,
                kinds,
            }
        }
        "trans_begin" => TraceRecord::Event(ProbeEvent::TransBegin {
            pc: get_u32(&v, "pc", line)?,
        }),
        "trans_commit" => TraceRecord::Event(ProbeEvent::TransCommit {
            entry_pc: get_u32(&v, "entry_pc", line)?,
            instructions: get_u32(&v, "instructions", line)?,
            rows: get_u32(&v, "rows", line)?,
            spec_blocks: get_u32(&v, "spec_blocks", line)?.min(u8::MAX as u32) as u8,
            partial: get_bool(&v, "partial", line)?,
        }),
        "rcache_hit" => TraceRecord::Event(ProbeEvent::RcacheHit {
            pc: get_u32(&v, "pc", line)?,
            len: get_u32_or(&v, "len", 0, line)?,
        }),
        "rcache_miss" => TraceRecord::Event(ProbeEvent::RcacheMiss {
            pc: get_u32(&v, "pc", line)?,
        }),
        "rcache_insert" => {
            let evicted = match v.get("evicted") {
                None | Some(JsonValue::Null) => None,
                Some(other) => Some(
                    other
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| err(line, "bad `evicted` field"))?,
                ),
            };
            TraceRecord::Event(ProbeEvent::RcacheInsert {
                pc: get_u32(&v, "pc", line)?,
                len: get_u32_or(&v, "len", 0, line)?,
                evicted,
            })
        }
        "rcache_flush" => TraceRecord::Event(ProbeEvent::RcacheFlush {
            pc: get_u32(&v, "pc", line)?,
            len: get_u32_or(&v, "len", 0, line)?,
        }),
        "rcache_evict" => TraceRecord::Event(ProbeEvent::RcacheEvict {
            pc: get_u32(&v, "pc", line)?,
            len: get_u32_or(&v, "len", 0, line)?,
            uses: get_u64(&v, "uses", line)?,
        }),
        "mispredict" => TraceRecord::Event(ProbeEvent::SpecMispredict {
            region_pc: get_u32(&v, "region_pc", line)?,
            region_len: get_u32_or(&v, "region_len", 0, line)?,
            branch_pc: get_u32(&v, "branch_pc", line)?,
            penalty_cycles: get_u32(&v, "penalty_cycles", line)?,
        }),
        "array_invoke" => {
            let spec_depth = get_u32(&v, "spec_depth", line)?;
            let spec_depth =
                u8::try_from(spec_depth).map_err(|_| err(line, "`spec_depth` out of range"))?;
            TraceRecord::Event(ProbeEvent::ArrayInvoke(ArrayInvoke {
                entry_pc: get_u32(&v, "entry_pc", line)?,
                exit_pc: get_u32(&v, "exit_pc", line)?,
                covered: get_u32(&v, "covered", line)?,
                executed: get_u32(&v, "executed", line)?,
                loads: get_u32(&v, "loads", line)?,
                stores: get_u32(&v, "stores", line)?,
                rows: get_u32(&v, "rows", line)?,
                spec_depth,
                misspeculated: get_bool(&v, "misspeculated", line)?,
                flushed: get_bool(&v, "flushed", line)?,
                stall_cycles: get_u32(&v, "stall_cycles", line)?,
                exec_cycles: get_u32(&v, "exec_cycles", line)?,
                tail_cycles: get_u32(&v, "tail_cycles", line)?,
            }))
        }
        "fabric" => TraceRecord::Event(ProbeEvent::Fabric(FabricUtil {
            entry_pc: get_u32(&v, "entry_pc", line)?,
            rows: get_u32(&v, "rows", line)?,
            exec_thirds: get_u32(&v, "exec_thirds", line)?,
            capacity_thirds: get_u32(&v, "capacity_thirds", line)?,
            alu_busy_thirds: get_u32(&v, "alu_busy_thirds", line)?,
            mult_busy_thirds: get_u32(&v, "mult_busy_thirds", line)?,
            ldst_busy_thirds: get_u32(&v, "ldst_busy_thirds", line)?,
            issued_ops: get_u32(&v, "issued_ops", line)?,
            squashed_ops: get_u32(&v, "squashed_ops", line)?,
            residual_cycles: get_u32(&v, "residual_cycles", line)?,
            writeback_writes: get_u32(&v, "writeback_writes", line)?,
            writeback_slots: get_u32(&v, "writeback_slots", line)?,
        })),
        "stream_tag" => TraceRecord::Event(ProbeEvent::StreamTag {
            pc: get_u32(&v, "pc", line)?,
            len: get_u32(&v, "len", line)?,
            burst: get_u32(&v, "burst", line)?,
        }),
        "telemetry" => TraceRecord::Telemetry {
            seq: get_u64(&v, "seq", line)?,
            sim_cycles: get_u64(&v, "sim_cycles", line)?,
            retired: get_u64(&v, "retired", line)?,
            events: get_u64(&v, "events", line)?,
            host_nanos: get_u64(&v, "host_nanos", line)?,
        },
        "footer" => TraceRecord::Footer {
            events: get_u64(&v, "events", line)?,
        },
        other => return Err(err(line, format!("unknown record type `{other}`"))),
    })
}

/// Reads, validates, and summarizes a whole JSONL trace.
///
/// # Errors
///
/// Returns the first structural problem found: malformed JSON, unknown
/// record type, missing header, a header newer than [`SCHEMA_VERSION`],
/// records after the footer, a missing footer (a truncated trace), or a
/// footer whose event count disagrees with the records.
pub fn read_trace(text: &str) -> Result<ReplayedTrace, ReplayError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (first_idx, first) = lines.next().ok_or_else(|| err(0, "empty trace"))?;
    let header = match parse_record(first, first_idx + 1)? {
        TraceRecord::Header(h) => h,
        other => {
            return Err(err(
                first_idx + 1,
                format!("first record must be a header, got `{other:?}`"),
            ))
        }
    };

    let mut records = Vec::new();
    let mut summary = TraceSummary::default();
    let mut events: u64 = 0;
    let mut footer: Option<u64> = None;
    let mut flushed_invocations: u64 = 0;
    let mut mispredict_records: u64 = 0;
    let mut last_telemetry_cycles: Option<u64> = None;
    let mut pending_fabric: Option<(usize, FabricUtil)> = None;

    for (idx, line) in lines {
        let lineno = idx + 1;
        if footer.is_some() {
            return Err(err(lineno, "record after footer"));
        }
        let record = parse_record(line, lineno)?;
        match &record {
            TraceRecord::Header(_) => return Err(err(lineno, "duplicate header")),
            TraceRecord::Footer { events: n } => footer = Some(*n),
            TraceRecord::Telemetry { sim_cycles, .. } => {
                // Telemetry arrived with schema version 2; a v1 header
                // promises a vocabulary that does not contain it.
                if header.schema_version < 2 {
                    return Err(err(
                        lineno,
                        format!(
                            "telemetry record in a schema version {} trace \
                             (requires version 2)",
                            header.schema_version
                        ),
                    ));
                }
                if let Some(prev) = last_telemetry_cycles {
                    if *sim_cycles < prev {
                        return Err(err(lineno, "telemetry sim_cycles went backwards"));
                    }
                }
                last_telemetry_cycles = Some(*sim_cycles);
            }
            TraceRecord::RetireBatch {
                count,
                base_cycles,
                i_stall,
                d_stall,
                rcache_misses,
                ..
            } => {
                events += count + rcache_misses;
                summary.retired += count;
                summary.translated_instructions += count;
                summary.pipeline_cycles += base_cycles + i_stall + d_stall;
                summary.rcache_misses += rcache_misses;
            }
            TraceRecord::Event(event) => {
                events += 1;
                match event {
                    ProbeEvent::Retire { .. } | ProbeEvent::RcacheMiss { .. } => {
                        return Err(err(lineno, "unbatched pipeline event in trace"))
                    }
                    ProbeEvent::TransBegin { .. } => {}
                    ProbeEvent::TransCommit { .. } => {}
                    ProbeEvent::RcacheHit { .. } => summary.rcache_hits += 1,
                    ProbeEvent::RcacheInsert { evicted, .. } => {
                        summary.configs_built += 1;
                        summary.cache_bits_written += header.bits_per_config;
                        if evicted.is_some() {
                            summary.rcache_evictions += 1;
                        }
                    }
                    ProbeEvent::RcacheFlush { .. } => summary.config_flushes += 1,
                    ProbeEvent::RcacheEvict { uses, .. } => {
                        // Arrived with schema version 3, like telemetry
                        // arrived with 2: an older header promises a
                        // vocabulary that does not contain it.
                        if header.schema_version < 3 {
                            return Err(err(
                                lineno,
                                format!(
                                    "rcache_evict record in a schema version {} trace \
                                     (requires version 3)",
                                    header.schema_version
                                ),
                            ));
                        }
                        if *uses > 0 {
                            summary.rcache_evictions_live += 1;
                        } else {
                            summary.rcache_evictions_dead += 1;
                        }
                    }
                    ProbeEvent::SpecMispredict { .. } => {
                        if header.schema_version < 3 {
                            return Err(err(
                                lineno,
                                format!(
                                    "mispredict record in a schema version {} trace \
                                     (requires version 3)",
                                    header.schema_version
                                ),
                            ));
                        }
                        mispredict_records += 1;
                    }
                    ProbeEvent::Fabric(fab) => {
                        // Arrived with schema version 4: an older header
                        // promises a vocabulary that does not contain it.
                        if header.schema_version < 4 {
                            return Err(err(
                                lineno,
                                format!(
                                    "fabric record in a schema version {} trace \
                                     (requires version 4)",
                                    header.schema_version
                                ),
                            ));
                        }
                        if let Some((prev_line, _)) = pending_fabric {
                            return Err(err(
                                lineno,
                                format!(
                                    "fabric record while the one at line {prev_line} \
                                     is still unpaired with an array_invoke"
                                ),
                            ));
                        }
                        pending_fabric = Some((lineno, *fab));
                        summary.fabric_records += 1;
                        summary.fabric_rows += fab.rows as u64;
                        summary.fabric_exec_thirds += fab.exec_thirds as u64;
                        summary.fabric_capacity_thirds += fab.capacity_thirds as u64;
                        summary.fabric_alu_busy_thirds += fab.alu_busy_thirds as u64;
                        summary.fabric_mult_busy_thirds += fab.mult_busy_thirds as u64;
                        summary.fabric_ldst_busy_thirds += fab.ldst_busy_thirds as u64;
                        summary.fabric_issued_ops += fab.issued_ops as u64;
                        summary.fabric_squashed_ops += fab.squashed_ops as u64;
                        summary.fabric_residual_cycles += fab.residual_cycles as u64;
                        summary.fabric_writeback_writes += fab.writeback_writes as u64;
                        summary.fabric_writeback_slots += fab.writeback_slots as u64;
                    }
                    ProbeEvent::StreamTag { burst, .. } => {
                        // Arrived with schema version 5: an older header
                        // promises a vocabulary that does not contain it.
                        if header.schema_version < 5 {
                            return Err(err(
                                lineno,
                                format!(
                                    "stream_tag record in a schema version {} trace \
                                     (requires version 5)",
                                    header.schema_version
                                ),
                            ));
                        }
                        if *burst == 0 {
                            return Err(err(lineno, "stream_tag with burst 0"));
                        }
                        summary.stream_tags += 1;
                        summary.stream_tag_burst += *burst as u64;
                    }
                    ProbeEvent::ArrayInvoke(inv) => {
                        if header.schema_version >= 4 {
                            let Some((_, fab)) = pending_fabric.take() else {
                                return Err(err(
                                    lineno,
                                    "array_invoke without a preceding fabric record \
                                     (required by schema version 4)",
                                ));
                            };
                            if fab.entry_pc != inv.entry_pc {
                                return Err(err(
                                    lineno,
                                    format!(
                                        "fabric record entry_pc {:#x} does not match \
                                         array_invoke entry_pc {:#x}",
                                        fab.entry_pc, inv.entry_pc
                                    ),
                                ));
                            }
                            let derived = fab.exec_cycles() + fab.residual_cycles as u64;
                            if derived != inv.exec_cycles as u64 {
                                return Err(err(
                                    lineno,
                                    format!(
                                        "fabric cycles (ceil({}/3) + {} residual = {}) \
                                         do not reconcile with array_invoke exec_cycles {}",
                                        fab.exec_thirds,
                                        fab.residual_cycles,
                                        derived,
                                        inv.exec_cycles
                                    ),
                                ));
                            }
                        }
                        summary.array_invocations += 1;
                        summary.array_instructions += inv.executed as u64;
                        summary.array_exec_cycles += inv.exec_cycles as u64;
                        summary.reconfig_stall_cycles += inv.stall_cycles as u64;
                        summary.writeback_tail_cycles += inv.tail_cycles as u64;
                        summary.array_loads += inv.loads as u64;
                        summary.array_stores += inv.stores as u64;
                        summary.array_occupied_rows += inv.rows as u64;
                        summary.cache_bits_read += header.bits_per_config;
                        if inv.misspeculated {
                            summary.misspeculations += 1;
                        } else {
                            summary.full_hits += 1;
                        }
                        if inv.flushed {
                            flushed_invocations += 1;
                        }
                    }
                }
            }
        }
        records.push(record);
    }

    match footer {
        None => return Err(err(0, "trace is truncated: no footer record")),
        Some(n) if n != events => {
            return Err(err(
                0,
                format!("footer reports {n} events but trace contains {events}"),
            ));
        }
        Some(_) => {}
    }
    if let Some((prev_line, _)) = pending_fabric {
        return Err(err(
            0,
            format!("fabric record at line {prev_line} never paired with an array_invoke"),
        ));
    }
    if flushed_invocations != summary.config_flushes {
        return Err(err(
            0,
            format!(
                "{} invocations marked flushed but {} rcache_flush records",
                flushed_invocations, summary.config_flushes
            ),
        ));
    }
    if header.schema_version >= 3 {
        let evict_records = summary.rcache_evictions_live + summary.rcache_evictions_dead;
        if evict_records != summary.rcache_evictions {
            return Err(err(
                0,
                format!(
                    "{} rcache_evict records but {} inserts displaced an entry",
                    evict_records, summary.rcache_evictions
                ),
            ));
        }
        if mispredict_records != summary.misspeculations {
            return Err(err(
                0,
                format!(
                    "{} mispredict records but {} invocations misspeculated",
                    mispredict_records, summary.misspeculations
                ),
            ));
        }
    }

    Ok(ReplayedTrace {
        header,
        records,
        summary,
    })
}

impl ReplayedTrace {
    /// Per-kind record counts, for `dim trace --stats`: one entry per
    /// record type present, sorted by name. Batched pipeline events are
    /// counted individually under `retire` / `rcache_miss`, and the
    /// batch records themselves under `retire_batch`.
    pub fn record_stats(&self) -> Vec<(&'static str, u64)> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for record in &self.records {
            match record {
                TraceRecord::Header(_) => *counts.entry("header").or_default() += 1,
                TraceRecord::RetireBatch {
                    count,
                    rcache_misses,
                    ..
                } => {
                    *counts.entry("retire_batch").or_default() += 1;
                    if *count > 0 {
                        *counts.entry("retire").or_default() += count;
                    }
                    if *rcache_misses > 0 {
                        *counts.entry("rcache_miss").or_default() += rcache_misses;
                    }
                }
                TraceRecord::Event(e) => *counts.entry(e.type_name()).or_default() += 1,
                TraceRecord::Telemetry { .. } => *counts.entry("telemetry").or_default() += 1,
                TraceRecord::Footer { .. } => *counts.entry("footer").or_default() += 1,
            }
        }
        counts.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::JsonlSink;
    use crate::probe::Probe;

    fn sample_trace() -> String {
        let mut sink = JsonlSink::new(Vec::new(), "sample", 100);
        sink.emit(ProbeEvent::RcacheMiss { pc: 0x400000 });
        sink.emit(ProbeEvent::Retire {
            pc: 0x400000,
            kind: RetireKind::Alu,
            base_cycles: 1,
            i_stall: 12,
            d_stall: 0,
            ends_block: false,
        });
        sink.emit(ProbeEvent::TransBegin { pc: 0x400000 });
        sink.emit(ProbeEvent::TransCommit {
            entry_pc: 0x400000,
            instructions: 7,
            rows: 3,
            spec_blocks: 2,
            partial: false,
        });
        sink.emit(ProbeEvent::RcacheInsert {
            pc: 0x400000,
            len: 7,
            evicted: None,
        });
        sink.emit(ProbeEvent::RcacheHit {
            pc: 0x400000,
            len: 7,
        });
        sink.emit(ProbeEvent::Fabric(FabricUtil {
            entry_pc: 0x400000,
            rows: 3,
            exec_thirds: 9,
            capacity_thirds: 99,
            alu_busy_thirds: 4,
            mult_busy_thirds: 0,
            ldst_busy_thirds: 9,
            issued_ops: 7,
            squashed_ops: 0,
            residual_cycles: 1,
            writeback_writes: 2,
            writeback_slots: 24,
        }));
        sink.emit(ProbeEvent::ArrayInvoke(ArrayInvoke {
            entry_pc: 0x400000,
            exit_pc: 0x40001c,
            covered: 7,
            executed: 7,
            loads: 2,
            stores: 1,
            rows: 3,
            spec_depth: 1,
            misspeculated: false,
            flushed: false,
            stall_cycles: 1,
            exec_cycles: 4,
            tail_cycles: 2,
        }));
        let (bytes, e) = sink.into_inner();
        assert!(e.is_none());
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn roundtrip_reconstructs_counters() {
        let trace = read_trace(&sample_trace()).unwrap();
        assert_eq!(trace.header.schema_version, SCHEMA_VERSION);
        assert_eq!(trace.header.workload, "sample");
        let s = trace.summary;
        assert_eq!(s.retired, 1);
        assert_eq!(s.translated_instructions, 1);
        assert_eq!(s.pipeline_cycles, 13);
        assert_eq!(s.rcache_misses, 1);
        assert_eq!(s.rcache_hits, 1);
        assert_eq!(s.configs_built, 1);
        assert_eq!(s.cache_bits_written, 100);
        assert_eq!(s.cache_bits_read, 100);
        assert_eq!(s.array_invocations, 1);
        assert_eq!(s.array_instructions, 7);
        assert_eq!(s.full_hits, 1);
        assert_eq!(s.total_cycles(), 13 + 7);
    }

    #[test]
    fn telemetry_roundtrips_in_v2_traces() {
        // `JsonlSink` writes no telemetry, but a v2-or-later trace may
        // hold it: the records parse, keep their fields and order, and
        // do not count as events.
        let v2 = r#"{"type":"header","schema_version":2,"workload":"t","bits_per_config":0}
{"type":"rcache_hit","pc":4,"len":1}
{"type":"telemetry","seq":0,"sim_cycles":0,"retired":0,"events":1,"host_nanos":700}
{"type":"telemetry","seq":1,"sim_cycles":0,"retired":0,"events":1,"host_nanos":900}
{"type":"footer","events":1}"#;
        let trace = read_trace(v2).unwrap();
        assert_eq!(trace.header.schema_version, 2);
        assert_eq!(trace.summary.rcache_hits, 1);
        let telemetry: Vec<_> = trace
            .records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Telemetry { .. }))
            .collect();
        assert_eq!(
            telemetry,
            [
                &TraceRecord::Telemetry {
                    seq: 0,
                    sim_cycles: 0,
                    retired: 0,
                    events: 1,
                    host_nanos: 700,
                },
                &TraceRecord::Telemetry {
                    seq: 1,
                    sim_cycles: 0,
                    retired: 0,
                    events: 1,
                    host_nanos: 900,
                },
            ]
        );
    }

    #[test]
    fn reads_v1_traces_without_telemetry() {
        // A trace written by the previous schema version stays readable.
        let v1 = r#"{"type":"header","schema_version":1,"workload":"old","bits_per_config":64}
{"type":"rcache_hit","pc":4}
{"type":"footer","events":1}"#;
        let trace = read_trace(v1).unwrap();
        assert_eq!(trace.header.schema_version, 1);
        assert_eq!(trace.summary.rcache_hits, 1);
    }

    #[test]
    fn rejects_telemetry_in_v1_trace() {
        let bad = r#"{"type":"header","schema_version":1,"workload":"old","bits_per_config":64}
{"type":"telemetry","seq":0,"sim_cycles":10,"retired":2,"events":2,"host_nanos":100}
{"type":"footer","events":0}"#;
        let e = read_trace(bad).unwrap_err();
        assert!(e.message.contains("requires version 2"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn reads_v2_traces_and_defaults_len() {
        // A trace written by schema version 2 (no `len` on rcache
        // records, no evict/mispredict events) stays readable.
        let v2 = r#"{"type":"header","schema_version":2,"workload":"old","bits_per_config":64}
{"type":"rcache_insert","pc":4,"evicted":null}
{"type":"rcache_hit","pc":4}
{"type":"array_invoke","entry_pc":4,"exit_pc":8,"covered":1,"executed":1,"loads":0,"stores":0,"rows":1,"spec_depth":1,"misspeculated":true,"flushed":true,"stall_cycles":0,"exec_cycles":1,"tail_cycles":0}
{"type":"rcache_flush","pc":4}
{"type":"footer","events":4}"#;
        let trace = read_trace(v2).unwrap();
        assert_eq!(trace.header.schema_version, 2);
        assert_eq!(trace.summary.rcache_hits, 1);
        assert_eq!(trace.summary.config_flushes, 1);
        assert_eq!(trace.summary.rcache_evictions_live, 0);
        assert_eq!(trace.summary.rcache_evictions_dead, 0);
        let hit = trace
            .records
            .iter()
            .find_map(|r| match r {
                TraceRecord::Event(ProbeEvent::RcacheHit { len, .. }) => Some(*len),
                _ => None,
            })
            .unwrap();
        assert_eq!(hit, 0);
    }

    #[test]
    fn rejects_v3_records_in_older_traces() {
        let evict = r#"{"type":"header","schema_version":2,"workload":"old","bits_per_config":64}
{"type":"rcache_evict","pc":4,"len":8,"uses":1}
{"type":"footer","events":1}"#;
        let e = read_trace(evict).unwrap_err();
        assert!(e.message.contains("requires version 3"), "{e}");
        assert_eq!(e.line, 2);

        let mispredict = r#"{"type":"header","schema_version":1,"workload":"old","bits_per_config":64}
{"type":"mispredict","region_pc":4,"region_len":8,"branch_pc":12,"penalty_cycles":2}
{"type":"footer","events":1}"#;
        let e = read_trace(mispredict).unwrap_err();
        assert!(e.message.contains("requires version 3"), "{e}");
    }

    #[test]
    fn golden_v3_trace_replays_with_zero_fabric_records() {
        // A byte-for-byte schema-v3 trace as PR 4's sink wrote it: no
        // fabric records, no pairing requirement, every counter intact.
        let v3 = r#"{"type":"header","schema_version":3,"workload":"legacy","bits_per_config":96}
{"type":"retire_batch","count":2,"base_cycles":2,"i_stall":1,"d_stall":0,"rcache_misses":1,"kinds":{"alu":2}}
{"type":"rcache_insert","pc":64,"len":4,"evicted":null}
{"type":"rcache_hit","pc":64,"len":4}
{"type":"mispredict","region_pc":64,"region_len":4,"branch_pc":72,"penalty_cycles":2}
{"type":"array_invoke","entry_pc":64,"exit_pc":80,"covered":4,"executed":2,"loads":1,"stores":0,"rows":2,"spec_depth":1,"misspeculated":true,"flushed":false,"stall_cycles":1,"exec_cycles":4,"tail_cycles":0}
{"type":"footer","events":7}"#;
        let trace = read_trace(v3).unwrap();
        assert_eq!(trace.header.schema_version, 3);
        assert_eq!(trace.summary.fabric_records, 0);
        assert_eq!(trace.summary.fabric_exec_thirds, 0);
        assert_eq!(trace.summary.array_invocations, 1);
        assert_eq!(trace.summary.misspeculations, 1);
        assert_eq!(trace.summary.rcache_hits, 1);
        let stats = trace.record_stats();
        assert!(
            !stats.iter().any(|(name, _)| *name == "fabric"),
            "{stats:?}"
        );
    }

    #[test]
    fn rejects_fabric_in_older_traces() {
        let bad = r#"{"type":"header","schema_version":3,"workload":"old","bits_per_config":64}
{"type":"fabric","entry_pc":4,"rows":1,"exec_thirds":3,"capacity_thirds":33,"alu_busy_thirds":1,"mult_busy_thirds":0,"ldst_busy_thirds":0,"issued_ops":1,"squashed_ops":0,"residual_cycles":0,"writeback_writes":0,"writeback_slots":4}
{"type":"footer","events":1}"#;
        let e = read_trace(bad).unwrap_err();
        assert!(e.message.contains("requires version 4"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_stream_tag_in_older_traces() {
        let bad = r#"{"type":"header","schema_version":4,"workload":"old","bits_per_config":64}
{"type":"stream_tag","pc":64,"len":8,"burst":16}
{"type":"footer","events":1}"#;
        let e = read_trace(bad).unwrap_err();
        assert!(e.message.contains("requires version 5"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn stream_tag_counts_in_v5_traces() {
        let trace = r#"{"type":"header","schema_version":5,"workload":"crc32","bits_per_config":64}
{"type":"rcache_insert","pc":64,"len":8,"evicted":null}
{"type":"stream_tag","pc":64,"len":8,"burst":16}
{"type":"stream_tag","pc":128,"len":4,"burst":2}
{"type":"footer","events":3}"#;
        let replayed = read_trace(trace).unwrap();
        assert_eq!(replayed.summary.stream_tags, 2);
        assert_eq!(replayed.summary.stream_tag_burst, 18);

        let zero_burst = r#"{"type":"header","schema_version":5,"workload":"crc32","bits_per_config":64}
{"type":"stream_tag","pc":64,"len":8,"burst":0}
{"type":"footer","events":1}"#;
        let e = read_trace(zero_burst).unwrap_err();
        assert!(e.message.contains("burst 0"), "{e}");
    }

    #[test]
    fn v4_requires_fabric_invoke_pairing() {
        // An invoke with no preceding fabric record...
        let missing_fabric = r#"{"type":"header","schema_version":4,"workload":"x","bits_per_config":0}
{"type":"array_invoke","entry_pc":4,"exit_pc":8,"covered":1,"executed":1,"loads":0,"stores":0,"rows":1,"spec_depth":0,"misspeculated":false,"flushed":false,"stall_cycles":0,"exec_cycles":1,"tail_cycles":0}
{"type":"footer","events":1}"#;
        let e = read_trace(missing_fabric).unwrap_err();
        assert!(e.message.contains("without a preceding fabric"), "{e}");

        // ...a fabric record whose invoke never arrives...
        let dangling = r#"{"type":"header","schema_version":4,"workload":"x","bits_per_config":0}
{"type":"fabric","entry_pc":4,"rows":1,"exec_thirds":3,"capacity_thirds":33,"alu_busy_thirds":1,"mult_busy_thirds":0,"ldst_busy_thirds":0,"issued_ops":1,"squashed_ops":0,"residual_cycles":0,"writeback_writes":0,"writeback_slots":4}
{"type":"footer","events":1}"#;
        let e = read_trace(dangling).unwrap_err();
        assert!(e.message.contains("never paired"), "{e}");

        // ...a pair whose entry PCs disagree...
        let mismatch = r#"{"type":"header","schema_version":4,"workload":"x","bits_per_config":0}
{"type":"fabric","entry_pc":8,"rows":1,"exec_thirds":3,"capacity_thirds":33,"alu_busy_thirds":1,"mult_busy_thirds":0,"ldst_busy_thirds":0,"issued_ops":1,"squashed_ops":0,"residual_cycles":0,"writeback_writes":0,"writeback_slots":4}
{"type":"array_invoke","entry_pc":4,"exit_pc":8,"covered":1,"executed":1,"loads":0,"stores":0,"rows":1,"spec_depth":0,"misspeculated":false,"flushed":false,"stall_cycles":0,"exec_cycles":1,"tail_cycles":0}
{"type":"footer","events":2}"#;
        let e = read_trace(mismatch).unwrap_err();
        assert!(e.message.contains("does not match"), "{e}");

        // ...and a pair violating the cycle conservation law are all
        // structural errors.
        let bad_cycles = r#"{"type":"header","schema_version":4,"workload":"x","bits_per_config":0}
{"type":"fabric","entry_pc":4,"rows":1,"exec_thirds":3,"capacity_thirds":33,"alu_busy_thirds":1,"mult_busy_thirds":0,"ldst_busy_thirds":0,"issued_ops":1,"squashed_ops":0,"residual_cycles":0,"writeback_writes":0,"writeback_slots":4}
{"type":"array_invoke","entry_pc":4,"exit_pc":8,"covered":1,"executed":1,"loads":0,"stores":0,"rows":1,"spec_depth":0,"misspeculated":false,"flushed":false,"stall_cycles":0,"exec_cycles":7,"tail_cycles":0}
{"type":"footer","events":2}"#;
        let e = read_trace(bad_cycles).unwrap_err();
        assert!(e.message.contains("reconcile"), "{e}");
    }

    #[test]
    fn v4_fabric_aggregates_land_in_summary() {
        let trace = read_trace(&sample_trace()).unwrap();
        let s = trace.summary;
        assert_eq!(s.fabric_records, 1);
        assert_eq!(s.fabric_rows, 3);
        assert_eq!(s.fabric_exec_thirds, 9);
        assert_eq!(s.fabric_capacity_thirds, 99);
        assert_eq!(s.fabric_alu_busy_thirds, 4);
        assert_eq!(s.fabric_ldst_busy_thirds, 9);
        assert_eq!(s.fabric_issued_ops, 7);
        assert_eq!(s.fabric_residual_cycles, 1);
        assert_eq!(s.fabric_writeback_writes, 2);
        assert_eq!(s.fabric_writeback_slots, 24);
        let count = trace
            .record_stats()
            .iter()
            .find(|(n, _)| *n == "fabric")
            .map_or(0, |(_, c)| *c);
        assert_eq!(count, 1);
    }

    #[test]
    fn rejects_unpaired_evict_and_mispredict_records() {
        // v3 demands one rcache_evict per displacing insert...
        let missing_evict = r#"{"type":"header","schema_version":3,"workload":"x","bits_per_config":0}
{"type":"rcache_insert","pc":4,"len":2,"evicted":8}
{"type":"footer","events":1}"#;
        let e = read_trace(missing_evict).unwrap_err();
        assert!(e.message.contains("rcache_evict"), "{e}");
        // ...and one mispredict per misspeculated invocation.
        let missing_mispredict = r#"{"type":"header","schema_version":3,"workload":"x","bits_per_config":0}
{"type":"array_invoke","entry_pc":4,"exit_pc":8,"covered":1,"executed":1,"loads":0,"stores":0,"rows":1,"spec_depth":1,"misspeculated":true,"flushed":false,"stall_cycles":0,"exec_cycles":1,"tail_cycles":0}
{"type":"footer","events":1}"#;
        let e = read_trace(missing_mispredict).unwrap_err();
        assert!(e.message.contains("mispredict"), "{e}");
    }

    #[test]
    fn record_stats_counts_batched_events_individually() {
        let trace = read_trace(&sample_trace()).unwrap();
        let stats = trace.record_stats();
        let count = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, c)| *c)
        };
        assert_eq!(count("retire"), 1);
        assert_eq!(count("rcache_miss"), 1);
        assert_eq!(count("retire_batch"), 1);
        assert_eq!(count("rcache_hit"), 1);
        assert_eq!(count("array_invoke"), 1);
        assert_eq!(count("footer"), 1);
    }

    #[test]
    fn rejects_backwards_telemetry() {
        let bad = r#"{"type":"header","schema_version":2,"workload":"x","bits_per_config":0}
{"type":"telemetry","seq":0,"sim_cycles":10,"retired":0,"events":0,"host_nanos":1}
{"type":"telemetry","seq":1,"sim_cycles":5,"retired":0,"events":0,"host_nanos":2}
{"type":"footer","events":0}"#;
        let e = read_trace(bad).unwrap_err();
        assert!(e.message.contains("backwards"), "{e}");
    }

    #[test]
    fn rejects_newer_schema() {
        let trace = r#"{"type":"header","schema_version":999,"workload":"x","bits_per_config":0}"#;
        let e = read_trace(trace).unwrap_err();
        assert!(e.message.contains("newer"), "{e}");
    }

    #[test]
    fn rejects_missing_header_and_bad_footer() {
        assert!(read_trace("").is_err());
        assert!(read_trace(r#"{"type":"footer","events":0}"#).is_err());
        let truncated = r#"{"type":"header","schema_version":1,"workload":"x","bits_per_config":0}
{"type":"rcache_hit","pc":4}
{"type":"footer","events":7}"#;
        let e = read_trace(truncated).unwrap_err();
        assert!(e.message.contains("footer"), "{e}");
    }

    #[test]
    fn rejects_unknown_type_but_ignores_unknown_fields() {
        let bad = r#"{"type":"header","schema_version":1,"workload":"x","bits_per_config":0}
{"type":"mystery"}"#;
        assert!(read_trace(bad).is_err());
        let extra_fields = r#"{"type":"header","schema_version":1,"workload":"x","bits_per_config":0,"generator":"future"}
{"type":"rcache_hit","pc":4,"way":3}
{"type":"footer","events":1}"#;
        let trace = read_trace(extra_fields).unwrap();
        assert_eq!(trace.summary.rcache_hits, 1);
    }

    #[test]
    fn rejects_truncated_trace_without_footer() {
        let full = sample_trace();
        let truncated: Vec<&str> = full.lines().collect();
        let truncated = truncated[..truncated.len() - 1].join("\n");
        let e = read_trace(&truncated).unwrap_err();
        assert!(e.message.contains("truncated"), "{e}");
    }

    #[test]
    fn rejects_inconsistent_batch() {
        let bad = r#"{"type":"header","schema_version":1,"workload":"x","bits_per_config":0}
{"type":"retire_batch","count":3,"base_cycles":3,"i_stall":0,"d_stall":0,"rcache_misses":0,"kinds":{"alu":1}}"#;
        let e = read_trace(bad).unwrap_err();
        assert!(e.message.contains("kind counts"), "{e}");
    }
}
