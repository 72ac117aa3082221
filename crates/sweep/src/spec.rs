//! Declarative sweep specifications.
//!
//! A spec is a small line-based `key = value` file describing a grid of
//! DIM experiment points. Multi-valued keys take comma-separated lists;
//! the grid is the cartesian product of all axes, expanded in a fixed
//! nested order so cell indices — and therefore result aggregation —
//! are deterministic:
//!
//! ```text
//! # Table-2-style sweep over two kernels
//! workloads = crc32, sha
//! scale     = small
//! shapes    = 1, 2, 3
//! slots     = 16, 64, 256
//! speculation = off, on
//! max_spec_blocks  = 3
//! flush_thresholds = 8
//! policies  = fifo
//! ideal     = on          # append ideal-array reference cells
//! warm_rcache = off       # persist/reuse per-cell rcache snapshots
//! ```
//!
//! Unknown keys are errors — a typo silently shrinking a grid is the
//! worst possible failure mode for an overnight sweep.

use dim_cgra::ShapeChoice;
use dim_core::{ReplacementPolicy, SystemConfig};
use dim_workloads::Scale;
use std::fmt;

/// Spec parse/validation failure, with the offending line when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// One `shapes` entry: a Table 1 configuration. The ideal array has its
/// own `ideal = on` key.
fn parse_shape(token: &str) -> Result<ShapeChoice, SpecError> {
    match token.parse() {
        Ok(ShapeChoice::Ideal) => Err(SpecError(
            "shape `ideal` does not belong in `shapes` (use `ideal = on`)".to_string(),
        )),
        Ok(choice) => Ok(choice),
        Err(e) => Err(SpecError(e)),
    }
}

/// One experiment point of an expanded sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Position in the expanded grid (also the aggregation order).
    pub index: usize,
    /// Stable identifier, unique within the sweep; doubles as the result
    /// and snapshot file stem.
    pub id: String,
    /// Workload name (a `dim_workloads::suite()` entry).
    pub workload: String,
    /// Input scale.
    pub scale: Scale,
    /// Array geometry.
    pub shape: ShapeChoice,
    /// Reconfiguration-cache slots.
    pub slots: usize,
    /// Whether speculation is enabled.
    pub speculation: bool,
    /// Maximum merged basic blocks when speculating.
    pub max_spec_blocks: u8,
    /// Misspeculation flush threshold.
    pub flush_threshold: u32,
    /// Cache replacement policy.
    pub policy: ReplacementPolicy,
}

impl CellSpec {
    /// The accelerator parameters this cell runs with.
    pub fn system_config(&self) -> SystemConfig {
        let mut config = SystemConfig::new(self.shape.shape(), self.slots, self.speculation);
        config.max_spec_blocks = self.max_spec_blocks;
        config.misspec_flush_threshold = self.flush_threshold;
        config.cache_policy = self.policy;
        config
    }

    /// Short shape label for ids and reports.
    pub fn shape_key(&self) -> &'static str {
        self.shape.key()
    }
}

pub(crate) fn policy_key(policy: ReplacementPolicy) -> &'static str {
    match policy {
        ReplacementPolicy::Fifo => "fifo",
        ReplacementPolicy::Lru => "lru",
    }
}

/// A parsed, validated sweep specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Workload names, in spec order.
    pub workloads: Vec<String>,
    /// Input scale for every cell.
    pub scale: Scale,
    /// Array geometries to sweep.
    pub shapes: Vec<ShapeChoice>,
    /// Cache capacities to sweep.
    pub slots: Vec<usize>,
    /// Speculation settings to sweep.
    pub speculation: Vec<bool>,
    /// Speculation depths to sweep.
    pub max_spec_blocks: Vec<u8>,
    /// Misspeculation flush thresholds to sweep.
    pub flush_thresholds: Vec<u32>,
    /// Replacement policies to sweep.
    pub policies: Vec<ReplacementPolicy>,
    /// Append two idealized-array reference cells per workload.
    pub ideal: bool,
    /// Persist and reuse per-cell rcache snapshots.
    pub warm_rcache: bool,
}

impl Default for SweepSpec {
    fn default() -> SweepSpec {
        SweepSpec {
            workloads: Vec::new(),
            scale: Scale::Small,
            shapes: vec![
                ShapeChoice::Config1,
                ShapeChoice::Config2,
                ShapeChoice::Config3,
            ],
            slots: vec![16, 64, 256],
            speculation: vec![false, true],
            max_spec_blocks: vec![3],
            flush_thresholds: vec![8],
            policies: vec![ReplacementPolicy::Fifo],
            ideal: false,
            warm_rcache: false,
        }
    }
}

fn parse_bool(key: &str, token: &str) -> Result<bool, SpecError> {
    match token {
        "on" | "true" | "yes" | "1" => Ok(true),
        "off" | "false" | "no" | "0" => Ok(false),
        other => Err(SpecError(format!("bad boolean `{other}` for `{key}`"))),
    }
}

fn split_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(|t| t.trim().to_ascii_lowercase())
        .filter(|t| !t.is_empty())
        .collect()
}

fn parse_list<T>(
    key: &str,
    value: &str,
    mut parse: impl FnMut(&str) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    let tokens = split_list(value);
    if tokens.is_empty() {
        return Err(SpecError(format!("`{key}` must list at least one value")));
    }
    tokens.iter().map(|t| parse(t)).collect()
}

impl SweepSpec {
    /// Parses and validates spec text.
    ///
    /// # Errors
    ///
    /// Unknown keys, malformed values, unknown workloads, duplicate
    /// axis values, or a missing `workloads` key.
    pub fn parse(text: &str) -> Result<SweepSpec, SpecError> {
        let mut spec = SweepSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| SpecError(format!("line {}: expected `key = value`", lineno + 1)))?;
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim();
            let err_line = |e: SpecError| SpecError(format!("line {}: {}", lineno + 1, e.0));
            match key.as_str() {
                "workloads" => {
                    if value.eq_ignore_ascii_case("suite") {
                        spec.workloads = dim_workloads::suite()
                            .into_iter()
                            .map(|s| s.name.to_string())
                            .collect();
                    } else {
                        spec.workloads = split_list(value);
                    }
                }
                "scale" => {
                    spec.scale = value
                        .to_ascii_lowercase()
                        .parse()
                        .map_err(|e| err_line(SpecError(e)))?;
                }
                "shapes" => {
                    spec.shapes = parse_list(&key, value, parse_shape).map_err(err_line)?;
                }
                "slots" => {
                    spec.slots = parse_list(&key, value, |t| {
                        t.parse::<usize>()
                            .map_err(|_| SpecError(format!("bad slot count `{t}`")))
                    })
                    .map_err(err_line)?;
                }
                "speculation" => {
                    spec.speculation = parse_list(&key, value, |t| parse_bool("speculation", t))
                        .map_err(err_line)?;
                }
                "max_spec_blocks" => {
                    spec.max_spec_blocks = parse_list(&key, value, |t| {
                        t.parse::<u8>()
                            .map_err(|_| SpecError(format!("bad block count `{t}`")))
                    })
                    .map_err(err_line)?;
                }
                "flush_thresholds" => {
                    spec.flush_thresholds = parse_list(&key, value, |t| {
                        t.parse::<u32>()
                            .map_err(|_| SpecError(format!("bad flush threshold `{t}`")))
                    })
                    .map_err(err_line)?;
                }
                "policies" => {
                    spec.policies = parse_list(&key, value, |t| match t {
                        "fifo" => Ok(ReplacementPolicy::Fifo),
                        "lru" => Ok(ReplacementPolicy::Lru),
                        other => Err(SpecError(format!("unknown policy `{other}`"))),
                    })
                    .map_err(err_line)?;
                }
                "ideal" => spec.ideal = parse_bool("ideal", value).map_err(err_line)?,
                "warm_rcache" => {
                    spec.warm_rcache = parse_bool("warm_rcache", value).map_err(err_line)?;
                }
                other => {
                    return Err(err_line(SpecError(format!("unknown key `{other}`"))));
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), SpecError> {
        if self.workloads.is_empty() {
            return Err(SpecError(
                "`workloads` is required (names or `suite`)".to_string(),
            ));
        }
        for name in &self.workloads {
            if dim_workloads::by_name(name).is_none() {
                return Err(SpecError(format!("unknown workload `{name}`")));
            }
        }
        fn unique<T: PartialEq + fmt::Debug>(key: &str, values: &[T]) -> Result<(), SpecError> {
            for (i, v) in values.iter().enumerate() {
                if values[..i].contains(v) {
                    return Err(SpecError(format!("duplicate value {v:?} in `{key}`")));
                }
            }
            Ok(())
        }
        unique("workloads", &self.workloads)?;
        unique("shapes", &self.shapes)?;
        unique("slots", &self.slots)?;
        unique("speculation", &self.speculation)?;
        unique("max_spec_blocks", &self.max_spec_blocks)?;
        unique("flush_thresholds", &self.flush_thresholds)?;
        unique("policies", &self.policies)?;
        Ok(())
    }

    /// Expands the grid into cells, in deterministic nested order:
    /// workload (outermost) × shape × slots × speculation × blocks ×
    /// flush threshold × policy, with the optional ideal reference
    /// cells (no-spec, then spec) appended per workload.
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for workload in &self.workloads {
            for &shape in &self.shapes {
                for &slots in &self.slots {
                    for &speculation in &self.speculation {
                        for &blocks in &self.max_spec_blocks {
                            for &flush in &self.flush_thresholds {
                                for &policy in &self.policies {
                                    cells.push(self.cell(
                                        cells.len(),
                                        workload,
                                        shape,
                                        slots,
                                        speculation,
                                        blocks,
                                        flush,
                                        policy,
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            if self.ideal {
                for speculation in [false, true] {
                    cells.push(self.cell(
                        cells.len(),
                        workload,
                        ShapeChoice::Ideal,
                        1 << 20,
                        speculation,
                        self.max_spec_blocks[0],
                        self.flush_thresholds[0],
                        ReplacementPolicy::Fifo,
                    ));
                }
            }
        }
        cells
    }

    #[allow(clippy::too_many_arguments)]
    fn cell(
        &self,
        index: usize,
        workload: &str,
        shape: ShapeChoice,
        slots: usize,
        speculation: bool,
        blocks: u8,
        flush: u32,
        policy: ReplacementPolicy,
    ) -> CellSpec {
        let id = format!(
            "{workload}-{}-{}-s{slots}-b{blocks}-f{flush}-{}",
            shape.key(),
            if speculation { "spec" } else { "nospec" },
            policy_key(policy),
        );
        CellSpec {
            index,
            id,
            workload: workload.to_string(),
            scale: self.scale,
            shape,
            slots,
            speculation,
            max_spec_blocks: blocks,
            flush_threshold: flush,
            policy,
        }
    }

    /// The scale's id token (used in reports).
    pub fn scale_key(&self) -> &'static str {
        self.scale.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_give_table2_grid() {
        let spec = SweepSpec::parse("workloads = crc32").unwrap();
        let cells = spec.expand();
        // 3 shapes × 3 slots × 2 speculation settings.
        assert_eq!(cells.len(), 18);
        assert_eq!(cells[0].id, "crc32-c1-nospec-s16-b3-f8-fifo");
        assert_eq!(cells[17].id, "crc32-c3-spec-s256-b3-f8-fifo");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn ideal_appends_reference_cells() {
        let spec = SweepSpec::parse(
            "workloads = crc32\nshapes = 1\nslots = 16\nspeculation = on\nideal = on",
        )
        .unwrap();
        let cells = spec.expand();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[1].id, "crc32-ideal-nospec-s1048576-b3-f8-fifo");
        assert_eq!(cells[2].shape, ShapeChoice::Ideal);
        assert!(cells[2].system_config().shape.is_infinite());
    }

    #[test]
    fn suite_expands_all_workloads() {
        let spec = SweepSpec::parse("workloads = suite\nshapes = 1\nslots = 16").unwrap();
        assert_eq!(spec.workloads.len(), 18);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let spec =
            SweepSpec::parse("# header\n\nworkloads = crc32 # trailing\nscale = tiny\n").unwrap();
        assert_eq!(spec.scale, Scale::Tiny);
        assert_eq!(spec.workloads, vec!["crc32"]);
    }

    #[test]
    fn rejects_unknown_key_workload_and_duplicates() {
        assert!(SweepSpec::parse("workloads = crc32\nshepes = 1")
            .unwrap_err()
            .0
            .contains("unknown key"));
        assert!(SweepSpec::parse("workloads = nope")
            .unwrap_err()
            .0
            .contains("unknown workload"));
        assert!(SweepSpec::parse("workloads = crc32\nslots = 16, 16")
            .unwrap_err()
            .0
            .contains("duplicate"));
        assert!(SweepSpec::parse("").unwrap_err().0.contains("required"));
        assert!(SweepSpec::parse("workloads = crc32\nscale = huge")
            .unwrap_err()
            .0
            .contains("unknown scale"));
        assert!(SweepSpec::parse("workloads = crc32\nshapes = 2, ideal")
            .unwrap_err()
            .0
            .contains("ideal = on"));
    }

    #[test]
    fn sweep_axes_cover_policy_knobs() {
        let spec = SweepSpec::parse(
            "workloads = crc32\nshapes = 2\nslots = 64\nspeculation = on\n\
             max_spec_blocks = 2, 3\nflush_thresholds = 4, 8\npolicies = fifo, lru",
        )
        .unwrap();
        let cells = spec.expand();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].id, "crc32-c2-spec-s64-b2-f4-fifo");
        let cfg = cells[7].system_config();
        assert_eq!(cfg.max_spec_blocks, 3);
        assert_eq!(cfg.misspec_flush_threshold, 8);
        assert_eq!(cfg.cache_policy, ReplacementPolicy::Lru);
    }

    #[test]
    fn ids_are_unique() {
        let spec = SweepSpec::parse("workloads = crc32, sha\nideal = on").unwrap();
        let cells = spec.expand();
        let mut ids: Vec<_> = cells.iter().map(|c| c.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), cells.len());
    }
}
