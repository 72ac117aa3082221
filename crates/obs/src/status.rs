//! The live telemetry status file (`status.dimstat`).
//!
//! Long-running commands publish their progress by atomically replacing
//! a small JSONL status file that `dim top` tails: one versioned,
//! checksummed header line followed by one [`StatusEntry`] per tracked
//! source (the sweep or daemon aggregate, then each pool worker).
//! Writers replace the whole file via temp-file-plus-rename — the
//! same discipline as `.dimrc` snapshots — so a reader polling
//! mid-write never sees a torn file, and the header's FNV-1a body
//! checksum catches any that slips through.
//!
//! Status files are *advisory* host-side output: like `spans.dimspan`,
//! they sit outside the sweep's serial-vs-parallel byte-identity
//! determinism contract (wall-clock fields make them inherently
//! nondeterministic).

use crate::frame::{atomic_write, parse_text_frame, render_text_frame, TextFrameError};
use crate::json::{parse, JsonValue, ObjectWriter};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Magic string identifying a status file header.
pub const STATUS_MAGIC: &str = "DIMSTAT";
/// Current status-file format version.
///
/// History: **1** — initial entry vocabulary; **2** — adds the
/// `fabric_busy_thirds`/`fabric_capacity_thirds` pair feeding the
/// `dim top` fabric-utilization column; **3** — adds the span-derived
/// `latency_p99_micros`/`queue_depth` pair feeding the `dim top` p99
/// and queue columns; **4** — adds `array_retired`, so `dim top`'s
/// sim-MIPS counts the array's instructions too. Readers accept older
/// versions (the new fields default to 0) and reject newer ones.
pub const STATUS_VERSION: u64 = 4;
/// Conventional file name, appended when a directory is given.
pub const STATUS_FILE_NAME: &str = "status.dimstat";

/// Why a status file could not be read.
#[derive(Debug)]
pub enum StatusError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The header is missing the `DIMSTAT` magic.
    BadMagic,
    /// The header declares a version newer than this reader.
    UnsupportedVersion(u64),
    /// The body does not hash to the header's checksum (torn write).
    ChecksumMismatch,
    /// A line failed to parse or lacked a required field.
    Malformed(String),
}

impl fmt::Display for StatusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatusError::Io(e) => write!(f, "status file I/O error: {e}"),
            StatusError::BadMagic => write!(f, "not a status file (bad magic)"),
            StatusError::UnsupportedVersion(v) => {
                write!(f, "status file version {v} is newer than this reader")
            }
            StatusError::ChecksumMismatch => {
                write!(f, "status file body checksum mismatch (torn write?)")
            }
            StatusError::Malformed(m) => write!(f, "malformed status file: {m}"),
        }
    }
}

impl std::error::Error for StatusError {}

impl From<io::Error> for StatusError {
    fn from(e: io::Error) -> StatusError {
        StatusError::Io(e)
    }
}

impl From<TextFrameError> for StatusError {
    fn from(e: TextFrameError) -> StatusError {
        match e {
            TextFrameError::Malformed(m) => StatusError::Malformed(m),
            TextFrameError::BadMagic => StatusError::BadMagic,
            TextFrameError::UnsupportedVersion(v) => StatusError::UnsupportedVersion(v),
            TextFrameError::ChecksumMismatch => StatusError::ChecksumMismatch,
        }
    }
}

/// One tracked source's live progress sample.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusEntry {
    /// Who is reporting: `sweep`, `serve`, or `worker-<n>`.
    pub source: String,
    /// What it is working on (cell id, workload name, or empty).
    pub label: String,
    /// `idle`, `running`, `done`, or `failed`.
    pub state: String,
    /// Work items completed (cells for a sweep; 0/1 for a single run).
    pub done: u64,
    /// Total work items.
    pub total: u64,
    /// Instructions retired on the pipeline so far.
    pub retired: u64,
    /// Instructions the array executed so far (version 4; 0 when read
    /// from an older file).
    pub array_retired: u64,
    /// Simulated cycles so far.
    pub sim_cycles: u64,
    /// Array invocations so far.
    pub invocations: u64,
    /// Reconfiguration-cache hits so far.
    pub rcache_hits: u64,
    /// Reconfiguration-cache misses so far.
    pub rcache_misses: u64,
    /// Misspeculated invocations so far.
    pub misspeculations: u64,
    /// Host nanoseconds spent so far (basis for live sim-MIPS).
    pub host_nanos: u64,
    /// Busy fabric unit-thirds so far (version 2; 0 when read from a
    /// version-1 file).
    pub fabric_busy_thirds: u64,
    /// Available fabric unit-thirds so far (version 2; 0 when read from
    /// a version-1 file or on infinite shapes — utilization unknown).
    pub fabric_capacity_thirds: u64,
    /// p99 request latency in microseconds over recent completions
    /// (version 3; serve aggregate only — 0 elsewhere or when read
    /// from an older file).
    pub latency_p99_micros: u64,
    /// Requests currently queued awaiting dispatch (version 3; serve
    /// aggregate only — 0 elsewhere or when read from an older file).
    pub queue_depth: u64,
}

impl StatusEntry {
    fn to_json(&self) -> String {
        let mut o = ObjectWriter::new();
        o.field_str("source", &self.source);
        o.field_str("label", &self.label);
        o.field_str("state", &self.state);
        o.field_u64("done", self.done);
        o.field_u64("total", self.total);
        o.field_u64("retired", self.retired);
        o.field_u64("array_retired", self.array_retired);
        o.field_u64("sim_cycles", self.sim_cycles);
        o.field_u64("invocations", self.invocations);
        o.field_u64("rcache_hits", self.rcache_hits);
        o.field_u64("rcache_misses", self.rcache_misses);
        o.field_u64("misspeculations", self.misspeculations);
        o.field_u64("host_nanos", self.host_nanos);
        o.field_u64("fabric_busy_thirds", self.fabric_busy_thirds);
        o.field_u64("fabric_capacity_thirds", self.fabric_capacity_thirds);
        o.field_u64("latency_p99_micros", self.latency_p99_micros);
        o.field_u64("queue_depth", self.queue_depth);
        o.finish()
    }

    fn from_json(value: &JsonValue, line: usize) -> Result<StatusEntry, StatusError> {
        let get_str = |key: &str| -> Result<String, StatusError> {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| {
                    StatusError::Malformed(format!("line {line}: missing string `{key}`"))
                })
        };
        let get_u64 = |key: &str| -> Result<u64, StatusError> {
            value.get(key).and_then(JsonValue::as_u64).ok_or_else(|| {
                StatusError::Malformed(format!("line {line}: missing number `{key}`"))
            })
        };
        let get_u64_or = |key: &str, default: u64| -> u64 {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .unwrap_or(default)
        };
        Ok(StatusEntry {
            source: get_str("source")?,
            label: get_str("label")?,
            state: get_str("state")?,
            done: get_u64("done")?,
            total: get_u64("total")?,
            retired: get_u64("retired")?,
            // Version-4 field: default when reading an older file.
            array_retired: get_u64_or("array_retired", 0),
            sim_cycles: get_u64("sim_cycles")?,
            invocations: get_u64("invocations")?,
            rcache_hits: get_u64("rcache_hits")?,
            rcache_misses: get_u64("rcache_misses")?,
            misspeculations: get_u64("misspeculations")?,
            host_nanos: get_u64("host_nanos")?,
            // Version-2 fields: default when reading a version-1 file.
            fabric_busy_thirds: get_u64_or("fabric_busy_thirds", 0),
            fabric_capacity_thirds: get_u64_or("fabric_capacity_thirds", 0),
            // Version-3 fields: default when reading an older file.
            latency_p99_micros: get_u64_or("latency_p99_micros", 0),
            queue_depth: get_u64_or("queue_depth", 0),
        })
    }
}

/// A parsed (or about-to-be-written) status file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusFile {
    /// Entries in publication order; by convention the aggregate comes
    /// first, workers after.
    pub entries: Vec<StatusEntry>,
}

impl StatusFile {
    /// Renders the header + body text that [`write_status`] persists,
    /// via the shared [`crate::frame`] text framing.
    pub fn render(&self) -> String {
        let mut body = String::new();
        for entry in &self.entries {
            body.push_str(&entry.to_json());
            body.push('\n');
        }
        render_text_frame(
            "status_header",
            STATUS_MAGIC,
            STATUS_VERSION,
            &[("entries", self.entries.len() as u64)],
            &body,
        )
    }

    /// Parses the text of a status file, verifying magic, version, and
    /// the body checksum.
    pub fn parse(text: &str) -> Result<StatusFile, StatusError> {
        let (header, body) = parse_text_frame(STATUS_MAGIC, STATUS_VERSION, text)?;
        let count = header
            .get("entries")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| StatusError::Malformed("header: missing `entries`".into()))?;
        let mut entries = Vec::new();
        for (i, line) in body.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = parse(line)
                .map_err(|e| StatusError::Malformed(format!("line {}: {e:?}", i + 2)))?;
            entries.push(StatusEntry::from_json(&value, i + 2)?);
        }
        if entries.len() as u64 != count {
            return Err(StatusError::Malformed(format!(
                "header declares {count} entries, body has {}",
                entries.len()
            )));
        }
        Ok(StatusFile { entries })
    }
}

/// Atomically replaces the status file at `path` through
/// [`atomic_write`], so a concurrent [`read_status`] sees either the old
/// or the new version — never a torn mix.
pub fn write_status(path: &Path, status: &StatusFile) -> io::Result<()> {
    atomic_write(path, status.render().as_bytes())
}

/// Reads and verifies the status file at `path`.
pub fn read_status(path: &Path) -> Result<StatusFile, StatusError> {
    StatusFile::parse(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fnv1a64;

    fn sample() -> StatusFile {
        StatusFile {
            entries: vec![
                StatusEntry {
                    source: "sweep".into(),
                    label: "18 cells".into(),
                    state: "running".into(),
                    done: 7,
                    total: 18,
                    retired: 123_456,
                    array_retired: 654_321,
                    sim_cycles: 234_567,
                    invocations: 42,
                    rcache_hits: 40,
                    rcache_misses: 2,
                    misspeculations: 1,
                    host_nanos: 5_000_000,
                    fabric_busy_thirds: 900,
                    fabric_capacity_thirds: 3_000,
                    latency_p99_micros: 850,
                    queue_depth: 3,
                },
                StatusEntry {
                    source: "worker-0".into(),
                    label: "crc32__base".into(),
                    state: "running".into(),
                    total: 1,
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let status = sample();
        let parsed = StatusFile::parse(&status.render()).expect("parses");
        assert_eq!(parsed, status);
    }

    #[test]
    fn rejects_bad_magic() {
        let text = "{\"type\":\"status_header\",\"magic\":\"NOPE\",\"version\":1,\
                    \"entries\":0,\"body_fnv64\":\"cbf29ce484222325\"}\n";
        assert!(matches!(
            StatusFile::parse(text),
            Err(StatusError::BadMagic)
        ));
    }

    #[test]
    fn rejects_newer_version() {
        let text = format!(
            "{{\"type\":\"status_header\",\"magic\":\"DIMSTAT\",\"version\":{},\
             \"entries\":0,\"body_fnv64\":\"cbf29ce484222325\"}}\n",
            STATUS_VERSION + 1
        );
        assert!(matches!(
            StatusFile::parse(&text),
            Err(StatusError::UnsupportedVersion(v)) if v == STATUS_VERSION + 1
        ));
    }

    /// Version-2 files (no `latency_p99_micros`/`queue_depth`, no
    /// `array_retired`) still read, with the new fields defaulting to 0.
    #[test]
    fn reads_version_2_files_with_defaults() {
        let body = "{\"source\":\"serve\",\"label\":\"\",\"state\":\"running\",\"done\":1,\
                    \"total\":2,\"retired\":10,\"sim_cycles\":20,\"invocations\":0,\
                    \"rcache_hits\":0,\"rcache_misses\":0,\"misspeculations\":0,\
                    \"host_nanos\":99,\"fabric_busy_thirds\":1,\"fabric_capacity_thirds\":3}\n";
        let text = format!(
            "{{\"type\":\"status_header\",\"magic\":\"DIMSTAT\",\"version\":2,\
             \"entries\":1,\"body_fnv64\":\"{:016x}\"}}\n{body}",
            fnv1a64(body.as_bytes())
        );
        let parsed = StatusFile::parse(&text).expect("v2 parses");
        assert_eq!(parsed.entries[0].latency_p99_micros, 0);
        assert_eq!(parsed.entries[0].queue_depth, 0);
        assert_eq!(parsed.entries[0].array_retired, 0);
        assert_eq!(parsed.entries[0].fabric_capacity_thirds, 3);
    }

    #[test]
    fn rejects_torn_body() {
        let mut text = sample().render();
        text.push_str("{\"tail\":\"of a torn write\"\n");
        assert!(matches!(
            StatusFile::parse(&text),
            Err(StatusError::ChecksumMismatch)
        ));
    }

    #[test]
    fn rejects_entry_count_mismatch() {
        let status = sample();
        let body: String = status
            .entries
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        let text = format!(
            "{{\"type\":\"status_header\",\"magic\":\"DIMSTAT\",\"version\":1,\
             \"entries\":99,\"body_fnv64\":\"{:016x}\"}}\n{body}",
            fnv1a64(body.as_bytes())
        );
        assert!(matches!(
            StatusFile::parse(&text),
            Err(StatusError::Malformed(_))
        ));
    }

    #[test]
    fn write_and_read_through_disk() {
        let dir = std::env::temp_dir().join(format!("dimstat-test-{}", std::process::id()));
        let path = dir.join(STATUS_FILE_NAME);
        let status = sample();
        write_status(&path, &status).expect("writes");
        let back = read_status(&path).expect("reads");
        assert_eq!(back, status);
        // Overwrite in place — the atomic-replace path.
        let mut second = status.clone();
        second.entries[0].done = 18;
        second.entries[0].state = "done".into();
        write_status(&path, &second).expect("replaces");
        assert_eq!(read_status(&path).expect("re-reads"), second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_missing_file_is_io_error() {
        let path = Path::new("/nonexistent/dimstat/status.dimstat");
        assert!(matches!(read_status(path), Err(StatusError::Io(_))));
    }
}
