//! Shared warm reconfiguration-cache shards.
//!
//! A shard is the server's cross-request, cross-tenant pool of
//! translated configurations for one (workload, scale, shape, slots,
//! speculation) point. Requests with `shared_shard` warm-start from the
//! shard's current contents and, after running, offer their own
//! `.dimrc` snapshot back for admission.
//!
//! **Trust boundary.** Nothing enters a shard unverified: every
//! admission runs the full snapshot pipeline — frame checksum, wire
//! decode, compatibility header, and the static configuration verifier
//! (`dim_cgra::verify` via [`SnapshotContents::verify`]) — the same
//! gauntlet `System::load_rcache` applies. A structurally perfect
//! snapshot whose payload describes a region the translator could never
//! have committed is rejected and the shard is left untouched (the
//! poisoned-entry drill test below proves it).
//!
//! **Determinism.** A shard's drained snapshot is a pure function of its
//! admission sequence: configurations merge in admission order,
//! duplicate entry PCs keep the first-admitted configuration
//! (first-writer-wins), and capacity evicts in FIFO order. Shards share
//! *only* configurations — predictor counters and misspeculation strikes
//! are per-request state and export empty — so a drained shard is a
//! valid `.dimrc` that `dim verify` accepts and a serial replay of the
//! same admissions reproduces byte for byte.

use dim_cgra::ShapeChoice;
use dim_core::{SnapshotContents, SnapshotError, SystemConfig};
use dim_workloads::Scale;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Why an admission or import was refused.
#[derive(Debug)]
pub enum ShardError {
    /// The offered bytes failed the snapshot pipeline (checksum, wire
    /// decode, or the configuration verifier) — the trust boundary.
    Snapshot(SnapshotError),
    /// The snapshot is valid but was taken under different accelerator
    /// parameters than this shard's.
    Incompatible(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Snapshot(e) => write!(f, "shard admission rejected: {e}"),
            ShardError::Incompatible(what) => {
                write!(f, "shard admission incompatible: {what}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<SnapshotError> for ShardError {
    fn from(e: SnapshotError) -> ShardError {
        ShardError::Snapshot(e)
    }
}

/// What one admission did to a shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmitOutcome {
    /// Configurations newly admitted.
    pub admitted: u32,
    /// Configurations skipped because their entry PC was already
    /// resident (first-writer-wins).
    pub duplicates: u32,
    /// Configurations evicted (FIFO) to stay within capacity.
    pub evicted: u32,
}

/// Live counters for one shard, for `status` replies and logs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard identity (`<workload>__<shape>_s<slots>_<spec>`).
    pub id: String,
    /// Configurations currently resident.
    pub resident: u64,
    /// Successful admissions (snapshots merged).
    pub admissions: u64,
    /// Configurations admitted across all admissions.
    pub admitted_configs: u64,
    /// Configurations skipped as duplicates.
    pub duplicates: u64,
    /// Configurations evicted for capacity.
    pub evictions: u64,
    /// Admissions rejected at the trust boundary.
    pub rejected: u64,
    /// Warm starts served from this shard.
    pub warm_loads: u64,
}

/// One shared warm shard. All mutation goes through [`admit`](Shard::admit).
#[derive(Debug)]
pub struct Shard {
    /// The parameters every admission must match.
    config: SystemConfig,
    /// `config`'s header as an otherwise-empty snapshot, whose `configs`
    /// is the resident set in FIFO admission order.
    contents: SnapshotContents,
    stats: ShardStats,
    /// Cached `contents.encode()`; invalidated by admission.
    encoded: Option<Vec<u8>>,
    /// When recording, every successfully admitted snapshot image in
    /// admission order — the replay script for the determinism tests.
    log: Option<Vec<Vec<u8>>>,
}

impl Shard {
    /// An empty shard whose compatibility header is taken from `config`
    /// — the parameters every admission and warm start must match.
    pub fn new(id: &str, config: &SystemConfig) -> Shard {
        Shard {
            config: *config,
            contents: SnapshotContents {
                shape: config.shape,
                cache_slots: config.cache_slots as u64,
                cache_policy: config.cache_policy,
                speculation: config.speculation,
                max_spec_blocks: config.max_spec_blocks,
                support_shifts: config.support_shifts,
                misspec_flush_threshold: config.misspec_flush_threshold,
                predictor: Vec::new(),
                strikes: Vec::new(),
                configs: Vec::new(),
            },
            stats: ShardStats {
                id: id.to_string(),
                ..ShardStats::default()
            },
            encoded: None,
            log: None,
        }
    }

    /// Starts recording admitted snapshot images for serial replay.
    pub fn record_admissions(&mut self) {
        self.log = Some(Vec::new());
    }

    /// The recorded admission sequence, if recording.
    pub fn take_log(&mut self) -> Option<Vec<Vec<u8>>> {
        self.log.take()
    }

    /// Current counters.
    pub fn stats(&self) -> ShardStats {
        let mut stats = self.stats.clone();
        stats.resident = self.contents.configs.len() as u64;
        stats
    }

    /// Offers a `.dimrc` snapshot image for admission. Parses, verifies
    /// (the trust boundary), checks the compatibility header, then
    /// merges: new entry PCs append in order, resident PCs win over
    /// incoming duplicates, FIFO eviction keeps the shard within its
    /// slot capacity. On any error the shard is unchanged.
    ///
    /// # Errors
    ///
    /// [`ShardError`] when the bytes fail the snapshot pipeline or were
    /// taken under different parameters.
    pub fn admit(&mut self, bytes: &[u8]) -> Result<AdmitOutcome, ShardError> {
        let incoming = match SnapshotContents::parse(bytes).and_then(|c| c.verify().map(|()| c)) {
            Ok(contents) => contents,
            Err(e) => {
                self.stats.rejected += 1;
                return Err(e.into());
            }
        };
        if let Err(e) = incoming.check_compatible(&self.config) {
            self.stats.rejected += 1;
            return Err(ShardError::Incompatible(e.to_string()));
        }
        if let Some(log) = &mut self.log {
            log.push(bytes.to_vec());
        }
        let mut outcome = AdmitOutcome::default();
        for config in incoming.configs {
            if self
                .contents
                .configs
                .iter()
                .any(|resident| resident.entry_pc == config.entry_pc)
            {
                outcome.duplicates += 1;
            } else {
                self.contents.configs.push(config);
                outcome.admitted += 1;
            }
        }
        while self.contents.configs.len() > self.config.cache_slots {
            self.contents.configs.remove(0);
            outcome.evicted += 1;
        }
        if outcome.admitted > 0 || outcome.evicted > 0 {
            self.encoded = None;
        }
        self.stats.admissions += 1;
        self.stats.admitted_configs += u64::from(outcome.admitted);
        self.stats.duplicates += u64::from(outcome.duplicates);
        self.stats.evictions += u64::from(outcome.evicted);
        Ok(outcome)
    }

    /// The shard as a complete `.dimrc` image (predictor and strikes
    /// empty by policy) — the warm-start payload and the drain artifact.
    pub fn export(&mut self) -> Vec<u8> {
        self.encoded
            .get_or_insert_with(|| self.contents.encode())
            .clone()
    }

    /// Number of resident configurations.
    pub fn resident(&self) -> usize {
        self.contents.configs.len()
    }
}

/// The server's shard table: one [`Shard`] per id, created lazily on
/// first admission and drained to `.dimrc` files at shutdown.
#[derive(Debug, Default)]
pub struct ShardManager {
    shards: Mutex<HashMap<String, Shard>>,
}

/// Identity of the shard a request maps to. The scale is part of it
/// because it changes the assembled text (a kernel's input sizes are
/// immediates), and a snapshot only loads into the program it came from.
pub fn shard_id(workload: &str, scale: Scale, shape: u8, slots: u32, speculation: bool) -> String {
    let shape = ShapeChoice::table1(shape).unwrap_or(ShapeChoice::Ideal);
    let spec = if speculation { "spec" } else { "nospec" };
    format!(
        "{workload}__{}_{}_s{slots}_{spec}",
        scale.name(),
        shape.key()
    )
}

impl ShardManager {
    /// An empty table.
    pub fn new() -> ShardManager {
        ShardManager::default()
    }

    /// The shard's current image for warm-starting, or `None` when the
    /// shard does not exist or is still empty (a cold start).
    pub fn warm_bytes(&self, id: &str) -> Option<Vec<u8>> {
        let mut shards = self.shards.lock().expect("shard table lock");
        let shard = shards.get_mut(id)?;
        if shard.resident() == 0 {
            return None;
        }
        shard.stats.warm_loads += 1;
        Some(shard.export())
    }

    /// Admits `bytes` into the shard `id`, creating it with `config`'s
    /// compatibility header on first contact.
    ///
    /// # Errors
    ///
    /// [`ShardError`] from [`Shard::admit`].
    pub fn admit(
        &self,
        id: &str,
        config: &SystemConfig,
        bytes: &[u8],
    ) -> Result<AdmitOutcome, ShardError> {
        let mut shards = self.shards.lock().expect("shard table lock");
        shards
            .entry(id.to_string())
            .or_insert_with(|| Shard::new(id, config))
            .admit(bytes)
    }

    /// Imports a drained `.dimrc` image as shard `id` (server start with
    /// `--shard-dir`). The image passes the same trust boundary as any
    /// admission; its own header seeds the shard's.
    ///
    /// # Errors
    ///
    /// [`ShardError`] when the image fails the snapshot pipeline.
    pub fn import(&self, id: &str, bytes: &[u8]) -> Result<AdmitOutcome, ShardError> {
        let contents = SnapshotContents::parse(bytes)?;
        contents.verify()?;
        let mut config = SystemConfig::new(
            contents.shape,
            usize::try_from(contents.cache_slots).map_err(|_| {
                ShardError::Incompatible(format!("cache_slots {} overflows", contents.cache_slots))
            })?,
            contents.speculation,
        );
        config.cache_policy = contents.cache_policy;
        config.max_spec_blocks = contents.max_spec_blocks;
        config.support_shifts = contents.support_shifts;
        config.misspec_flush_threshold = contents.misspec_flush_threshold;
        let mut shards = self.shards.lock().expect("shard table lock");
        shards
            .entry(id.to_string())
            .or_insert_with(|| Shard::new(id, &config))
            .admit(bytes)
    }

    /// Drains every shard to its `.dimrc` image, sorted by id so the
    /// drain order is deterministic.
    pub fn export_all(&self) -> Vec<(String, Vec<u8>)> {
        let mut shards = self.shards.lock().expect("shard table lock");
        let mut out: Vec<(String, Vec<u8>)> = shards
            .iter_mut()
            .map(|(id, shard)| (id.clone(), shard.export()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Counters for every shard, sorted by id.
    pub fn stats(&self) -> Vec<ShardStats> {
        let shards = self.shards.lock().expect("shard table lock");
        let mut out: Vec<ShardStats> = shards.values().map(Shard::stats).collect();
        out.sort_by(|a, b| a.id.cmp(&b.id));
        out
    }

    /// Runs `f` on shard `id` if it exists (test hook for recording).
    pub fn with_shard<T>(&self, id: &str, f: impl FnOnce(&mut Shard) -> T) -> Option<T> {
        let mut shards = self.shards.lock().expect("shard table lock");
        shards.get_mut(id).map(f)
    }

    /// Creates shard `id` with `config`'s header if absent (test hook).
    pub fn ensure(&self, id: &str, config: &SystemConfig) {
        let mut shards = self.shards.lock().expect("shard table lock");
        shards
            .entry(id.to_string())
            .or_insert_with(|| Shard::new(id, config));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_cgra::snapshot::WireError;
    use dim_cgra::Configuration;
    use dim_core::System;
    use dim_mips::asm::assemble;
    use dim_mips_sim::Machine;
    use std::sync::Arc;

    const SLOTS: usize = 4;

    fn shard_config() -> SystemConfig {
        SystemConfig::new(dim_cgra::ArrayShape::config1(), SLOTS, true)
    }

    /// A program whose hot loop sits `pad` instructions into the text
    /// segment, so different `pad` values yield configurations at
    /// different entry PCs — distinct shard entries.
    fn padded_loop(pad: usize) -> String {
        let mut text = String::from("main: li $s0, 200\n      li $v0, 7\n");
        for i in 0..pad {
            text.push_str(&format!("      addiu $v0, $v0, {}\n", i + 1));
        }
        text.push_str(
            "loop: addu $v0, $v0, $s0
                  xor  $t1, $v0, $s0
                  addu $v0, $v0, $t1
                  addiu $s0, $s0, -1
                  bnez $s0, loop
                  break 0",
        );
        text
    }

    /// A warmed `.dimrc` image from the `pad`-shifted loop, taken under
    /// the shard's exact configuration.
    fn warmed_snapshot(pad: usize) -> Vec<u8> {
        let program = assemble(&padded_loop(pad)).unwrap();
        let mut sys = System::new(Machine::load(&program), shard_config());
        sys.run(10_000_000).unwrap();
        assert!(!sys.cache().is_empty(), "warm-up produced no configs");
        sys.save_rcache()
    }

    #[test]
    fn admission_merges_dedups_and_evicts() {
        let mut shard = Shard::new("t", &shard_config());
        let a = warmed_snapshot(0);
        let first = shard.admit(&a).unwrap();
        assert!(first.admitted > 0);
        assert_eq!(first.duplicates, 0);
        // Re-admitting the same snapshot is pure duplicates.
        let again = shard.admit(&a).unwrap();
        assert_eq!(again.admitted, 0);
        assert_eq!(again.duplicates, first.admitted);
        // Distinct programs land distinct PCs until capacity evicts.
        let mut total = shard.resident();
        for pad in 1..=SLOTS + 2 {
            let outcome = shard.admit(&warmed_snapshot(pad)).unwrap();
            total += outcome.admitted as usize;
            assert!(shard.resident() <= SLOTS, "capacity exceeded");
        }
        assert!(total > SLOTS, "test never filled the shard");
        assert!(shard.stats().evictions > 0, "no evictions exercised");
        // The drained image passes the same pipeline `dim verify` runs.
        let drained = shard.export();
        let contents = SnapshotContents::parse(&drained).expect("drained image parses");
        contents.verify().expect("drained image verifies");
        assert!(contents.predictor.is_empty() && contents.strikes.is_empty());
        assert_eq!(contents.configs.len(), shard.resident());
    }

    /// The poisoned-entry drill: a snapshot with a valid checksum whose
    /// payload describes a region the translator could never have
    /// committed must be rejected at admission, leaving the shard
    /// byte-identical.
    #[test]
    fn poisoned_snapshot_is_rejected_at_the_trust_boundary() {
        let mut shard = Shard::new("t", &shard_config());
        shard.admit(&warmed_snapshot(0)).unwrap();
        let before = shard.export();
        let offered = warmed_snapshot(1);

        // A dropped write-back: decoding derives the write-backs from
        // the region's ops, so the stored list no longer parses.
        let mut contents = SnapshotContents::parse(&offered).unwrap();
        let victim = &mut contents.configs[0];
        let (loc, _) = victim.writebacks().next().expect("region writes something");
        victim.remove_writeback(loc);
        match shard.admit(&contents.encode()).unwrap_err() {
            ShardError::Snapshot(SnapshotError::Wire(WireError::Corrupt(what))) => {
                assert!(what.contains("write-backs"), "{what}");
            }
            other => panic!("expected a corrupt payload, got {other:?}"),
        }
        assert_eq!(shard.stats().rejected, 1);

        // A retargeted exit of a region's last, branchless segment is
        // structurally perfect: it parses, and the verifier rejects it.
        let mut contents = SnapshotContents::parse(&offered).unwrap();
        let index = contents
            .configs
            .iter()
            .position(|c| c.segments().last().is_some_and(|s| s.branch.is_none()))
            .expect("a region that ends without a branch");
        let victim = &contents.configs[index];
        let mut retargeted = Configuration::new(victim.entry_pc, *victim.shape());
        let last = victim.segments().len() - 1;
        for (k, segment) in victim.segments().iter().enumerate() {
            for op in victim.segment_ops(segment) {
                retargeted
                    .place(op.pc, op.inst, op.depth, op.row as usize)
                    .unwrap();
            }
            let moved = if k == last { 8 } else { 0 };
            retargeted.finish_segment(segment.depth, segment.branch, segment.exit_pc + moved);
        }
        let expected = (victim.entry_pc, victim.instruction_count() as u32);
        contents.configs[index] = retargeted;
        let poisoned = contents.encode();
        assert!(SnapshotContents::parse(&poisoned).is_ok());
        match shard.admit(&poisoned).unwrap_err() {
            ShardError::Snapshot(SnapshotError::InvalidConfig { pc, len, detail }) => {
                assert_eq!((pc, len), expected);
                assert!(detail.contains("segment-structure"), "{detail}");
            }
            other => panic!("expected InvalidConfig at the trust boundary, got {other:?}"),
        }
        assert_eq!(
            shard.export(),
            before,
            "rejected admission mutated the shard"
        );
        assert_eq!(shard.stats().rejected, 2);

        // Corrupted-byte and wrong-header admissions die the same way.
        let mut torn = warmed_snapshot(1);
        let mid = torn.len() / 2;
        torn[mid] ^= 0x20;
        assert!(matches!(
            shard.admit(&torn).unwrap_err(),
            ShardError::Snapshot(SnapshotError::ChecksumMismatch { .. })
        ));
        let program = assemble(&padded_loop(1)).unwrap();
        let mut other = System::new(
            Machine::load(&program),
            SystemConfig::new(dim_cgra::ArrayShape::config1(), SLOTS * 2, true),
        );
        other.run(10_000_000).unwrap();
        match shard.admit(&other.save_rcache()).unwrap_err() {
            ShardError::Incompatible(what) => assert!(what.contains("cache slots"), "{what}"),
            other => panic!("expected Incompatible, got {other:?}"),
        }
        assert_eq!(shard.export(), before);
        assert_eq!(shard.stats().rejected, 4);
    }

    /// The concurrent torture test: N threads hammer one shard through
    /// the admission path; the drained snapshot must round-trip, verify,
    /// and equal the byte-identical result of serially replaying the
    /// recorded admission sequence.
    #[test]
    fn concurrent_admissions_replay_serially_byte_identical() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 5;
        let snapshots: Arc<Vec<Vec<u8>>> = Arc::new((0..SLOTS + 2).map(warmed_snapshot).collect());

        let manager = Arc::new(ShardManager::new());
        manager.ensure("torture", &shard_config());
        manager
            .with_shard("torture", Shard::record_admissions)
            .unwrap();

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let manager = Arc::clone(&manager);
                let snapshots = Arc::clone(&snapshots);
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        for i in 0..snapshots.len() {
                            // Thread-dependent order so interleavings differ.
                            let pick = (t + round + i) % snapshots.len();
                            manager
                                .admit("torture", &shard_config(), &snapshots[pick])
                                .unwrap();
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        let drained = manager.with_shard("torture", Shard::export).unwrap();
        let contents = SnapshotContents::parse(&drained).expect("drained image parses");
        contents.verify().expect("drained image verifies");
        assert_eq!(contents.encode(), drained, "drained image round-trips");

        let log = manager
            .with_shard("torture", Shard::take_log)
            .unwrap()
            .expect("recording was on");
        assert_eq!(log.len(), THREADS * ROUNDS * snapshots.len());
        let mut replay = Shard::new("torture", &shard_config());
        for bytes in &log {
            replay.admit(bytes).unwrap();
        }
        assert_eq!(
            replay.export(),
            drained,
            "serial replay of the admission sequence diverged"
        );
    }

    #[test]
    fn warm_bytes_skips_missing_and_empty_shards() {
        let manager = ShardManager::new();
        assert!(manager.warm_bytes("absent").is_none());
        manager.ensure("empty", &shard_config());
        assert!(manager.warm_bytes("empty").is_none());
        manager
            .admit("warm", &shard_config(), &warmed_snapshot(0))
            .unwrap();
        let bytes = manager.warm_bytes("warm").expect("warm shard serves");
        assert!(SnapshotContents::parse(&bytes).is_ok());
        assert_eq!(manager.stats()[1].warm_loads, 1);
    }

    #[test]
    fn import_export_roundtrips_through_manager() {
        let manager = ShardManager::new();
        manager
            .admit("a", &shard_config(), &warmed_snapshot(0))
            .unwrap();
        manager
            .admit("b", &shard_config(), &warmed_snapshot(1))
            .unwrap();
        let drained = manager.export_all();
        assert_eq!(drained.len(), 2);
        let restored = ShardManager::new();
        for (id, bytes) in &drained {
            restored.import(id, bytes).unwrap();
        }
        assert_eq!(restored.export_all(), drained);
        // Import is behind the same trust boundary.
        let mut bad = drained[0].1.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(matches!(
            restored.import("c", &bad).unwrap_err(),
            ShardError::Snapshot(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn shard_ids_are_stable() {
        assert_eq!(
            shard_id("crc32", Scale::Tiny, 2, 64, true),
            "crc32__tiny_c2_s64_spec"
        );
        assert_eq!(
            shard_id("sha", Scale::Small, 1, 16, false),
            "sha__small_c1_s16_nospec"
        );
    }
}
