//! Pins the translator's output bytes.
//!
//! Every configuration a run commits, and the resident set it ends
//! with, is encoded with the `.dimrc` wire encoding
//! (`dim_cgra::snapshot::encode_config`) into one FNV-1a digest per run.
//! The encoding spells out live-ins and write-backs in iteration order,
//! so a change to that order, to placement or to region selection moves
//! a digest. The constants were computed before the translator's
//! candidate and `Configuration`'s location sets were last rewritten;
//! a deliberate change in translation must re-pin them and say why.
//!
//! A second table, `PINNED_BEHAVIOUR`, pins everything else a run
//! exposes: per run, one digest over the schema-v5 JSONL trace, the
//! `DimStats`, the `FabricHeat`, the cycle breakdown and the resident
//! set, over 18 workloads × 4 shapes × {4, 16, 64} slots × speculation
//! off/on × four accelerator variants. The first three columns were
//! computed before the engine's PC-keyed maps and `Memory`'s page map
//! stopped hashing, the `caches` column before replay stopped stepping
//! the interpreter per op; host-side shortcuts must leave them
//! unchanged, and a deliberate behaviour change re-pins them and says
//! why.

use dim_cgra::snapshot::encode_config;
use dim_cgra::ShapeChoice;
use dim_core::{fnv1a64, ReplacementPolicy, System, SystemConfig};
use dim_mips_sim::{CacheConfig, CacheSim, Machine};
use dim_obs::{JsonlSink, Probe as _};
use dim_workloads::{suite, validate, Scale};

const SHAPES: [ShapeChoice; 4] = [
    ShapeChoice::Config1,
    ShapeChoice::Config2,
    ShapeChoice::Config3,
    ShapeChoice::Ideal,
];
const SLOTS: [usize; 2] = [4, 64];

/// Per workload, one digest per (shape, slots) in `SHAPES` × `SLOTS`
/// order: c1/4, c1/64, c2/4, c2/64, c3/4, c3/64, ideal/4, ideal/64.
#[rustfmt::skip]
const PINNED: [(&str, [u64; 8]); 18] = [
    ("rijndael_enc", [0x822131acf3bae5e4, 0xfa4888f1eaf7c233, 0x670b93c432505520, 0x142555bcf32cfaf5, 0x312c250ac3e748ef, 0x1848e254c2be2d81, 0xc93dd9bb8f89f8ce, 0x9a9d98fe11043807]),
    ("rijndael_dec", [0x108686ff23c6b68d, 0x51b77299bb785ffb, 0x6c51d8574846c806, 0x75fe0e3b0f8cc781, 0x13620865857e15d8, 0x8d566b76b62034d9, 0x09c9f6132ba62862, 0x57529eea4cc2fee1]),
    ("gsm_enc", [0x5792ce33ce7c3e78, 0xd6183a357f6b39b4, 0xeb3913c20c98b957, 0xb658c3a6f21fea67, 0x7b2f9ba5619b9713, 0xe9f4a4019993cb49, 0x2bf48a2906aa1bc7, 0x9164e45304927c2b]),
    ("jpeg_enc", [0x927e53ec432b3d34, 0xcda886fd80fac429, 0x1d88dcca248dbcc3, 0x76a0f190cca93b99, 0x46881f366bfc653a, 0xbb8e4c9be5be1ec9, 0xe3372d5eed27903c, 0x04a1b4343fc38a41]),
    ("sha", [0xb28e3f012f01744e, 0x7d5042a77e93d577, 0x758bf18c6f272341, 0xb3ea3243b14be2d5, 0x991ed38d79de27fd, 0x4d822eb343e5263d, 0x2a1cf81a5e3f1406, 0x044d08e0faaacfc5]),
    ("susan_smoothing", [0x59da550762101329, 0xa2e607e1401eef83, 0x792360174947d69e, 0xa90e39b868ce6010, 0x5a3bc319f2b9f3e8, 0x1894d55222cc7d3a, 0x4d79440a06d994b2, 0x8bd8bdedf3538c6c]),
    ("crc32", [0xdedcf780affec411, 0xdedcf780affec411, 0x2d2ce4c66eab2f0b, 0x2d2ce4c66eab2f0b, 0x3ab83feb593ce00f, 0x3ab83feb593ce00f, 0x7cee06a895341083, 0x7cee06a895341083]),
    ("jpeg_dec", [0x39d4778ec5739946, 0x61542e47054e6605, 0x1854aa4d6bc45a41, 0x606ba85826ca6c71, 0x628636684adaae74, 0x33e065ba1b423981, 0x75af1ab132cfedb6, 0x3b2c402c736d78ad]),
    ("patricia", [0x260b84cbcbd43bab, 0x74294c7d0e64f31d, 0xaa7a4e8bc4af6f50, 0x8be5f2ded7671645, 0x1a4586eab7217fc6, 0x7ed5211394d28489, 0x835882d847c7bbec, 0x1bf1986c2c367b35]),
    ("susan_corners", [0xb6b9e3f1a4e831d9, 0xdbb56b8fadc57d20, 0x629fa068073ab7a1, 0x872e4e6f34e68387, 0xf27f1757fbbf0bf9, 0x31bc9118b78c83b1, 0x30f393846d5ccf7d, 0xef1f372c1077415f]),
    ("susan_edges", [0x51b3e6c08f2fda8c, 0xdbbb6c5ae6567a7b, 0x8784e4e3d1176108, 0x16525a7ec6a24a40, 0xa3935a77135be98c, 0x489171ab07536696, 0x0e29f359ae13c274, 0xe5ed1d35f7daf530]),
    ("dijkstra", [0x8fec3f656e45f0cd, 0x453e4f111ee83299, 0xa9451958bc3ffab9, 0xef5fc0cfd1539e90, 0xdb54d30b3d4b6ec7, 0xb74fe95388b3db3a, 0xed2c572f3656a3e5, 0xbf9595746e07998c]),
    ("gsm_dec", [0xb8415df36bb6ddc9, 0xec3ba2ac35e2f891, 0x9a303a68db907ff9, 0x4b5e9b3886d7c224, 0x9ba23ed5ac8e539d, 0xca343f2315d402a6, 0xdfdfffd452689861, 0xd8d884aa6fbde6b8]),
    ("bitcount", [0x870e144eea8aaa82, 0x18c99b1f99aea655, 0xe67542645523c03d, 0xa843485bc0022c49, 0xdd0105e9b826ed8b, 0x05175ab776bcd181, 0xb83f352f9c4ea809, 0xe255e886a868d3a9]),
    ("stringsearch", [0x61ec320b7fab098f, 0x7837f91660201920, 0x911689ec52fb0b63, 0x8e898f7ce045d5e0, 0x0b8403919cf9b37f, 0xa08cc8d7c5dadf78, 0xbab7098a86357753, 0xccf01b2aaef0ff48]),
    ("quicksort", [0xe16404e7256d0048, 0xd21f4ec670ad9366, 0xfbebcf32fc04646e, 0xd83a61ce08019d49, 0x8e0e6e57ee15e3ee, 0xdf19b79b441efb97, 0xe2dc3719fba075a6, 0x45b70faa5bf359cd]),
    ("rawaudio_enc", [0x9359f0b2de18aa0e, 0xeee50263229c9982, 0x80dcac9566291ae5, 0x1e1412519fea603b, 0x2a98c799f5b709b3, 0x84ef30dd18fc7aed, 0x9204037dc88639c1, 0x60a9e1611949143f]),
    ("rawaudio_dec", [0xd0437015262ac10d, 0x330c61ae105bf8a5, 0x18ae956045a98dfd, 0xc805aedaca880ba7, 0x396a164bfedfa4dd, 0x0790e5d659027aff, 0x3fd9f33221a9af95, 0xa10caaf05f8076b7]),
];

/// Runs `name` at `tiny` and digests its commit log, then a separator,
/// then its final resident set in FIFO order.
fn digest(name: &str, shape: ShapeChoice, slots: usize) -> u64 {
    let spec = dim_workloads::by_name(name).expect("workload exists");
    let built = (spec.build)(Scale::Tiny);
    let mut system = System::new(
        Machine::load(&built.program),
        SystemConfig::new(shape.shape(), slots, true),
    );
    system.enable_commit_log();
    system.run(built.max_steps).expect(name);
    validate(system.machine(), &built).expect(name);
    let mut bytes = Vec::new();
    for config in system.commit_log() {
        encode_config(config, &mut bytes);
    }
    bytes.extend_from_slice(b"resident");
    for config in system.cache().iter() {
        encode_config(config, &mut bytes);
    }
    fnv1a64(&bytes)
}

#[test]
fn commit_logs_and_resident_sets_match_their_pinned_digests() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    let names: Vec<&str> = suite().iter().map(|s| s.name).collect();
    for name in &names {
        let mut row = [0u64; 8];
        for (i, (shape, slots)) in SHAPES
            .iter()
            .flat_map(|&shape| SLOTS.iter().map(move |&slots| (shape, slots)))
            .enumerate()
        {
            row[i] = digest(name, shape, slots);
            let pinned = PINNED.iter().find(|(n, _)| n == name).map(|(_, d)| d[i]);
            if pinned != Some(row[i]) {
                mismatches.push(format!("{name} {}/{slots}", shape.key()));
            }
        }
        let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
        table += &format!("    (\"{name}\", [{}]),\n", cells.join(", "));
    }
    assert!(
        mismatches.is_empty(),
        "translator output changed on {mismatches:?}; digests now:\n{table}"
    );
    assert_eq!(PINNED.len(), names.len(), "one pinned row per workload");
}

/// The four accelerator variants of the behaviour grid: the default
/// setup; LRU replacement with one ALU row per cycle; a flush threshold
/// of 2 with the dataflow cross-check on; and 4-KiB instruction and
/// data caches attached to the machine.
const VARIANTS: [&str; 4] = ["default", "lru_alu1", "flush2_xcheck", "caches"];
const GRID_SLOTS: [usize; 3] = [4, 16, 64];

/// Per workload, one constant per variant in `VARIANTS` order, each
/// folding that variant's 24 run digests (`SHAPES` × `GRID_SLOTS` ×
/// speculation off/on, in that nesting order).
#[rustfmt::skip]
const PINNED_BEHAVIOUR: [(&str, [u64; 4]); 18] = [
    ("rijndael_enc", [0xbb50861329db2ff0, 0x8d2a3be7034c40c2, 0xe76f9804dac4c6ea, 0x815c429abcff225e]),
    ("rijndael_dec", [0x54c455cbbdc7e233, 0x5f6b8c08528e69e6, 0xe3d2a4f78076cc8e, 0x58fb57a372db7798]),
    ("gsm_enc", [0xc34eb183aa25d742, 0xd50c4f968ff15960, 0xa12ad5eb13767c9e, 0x36deef9261a9ff69]),
    ("jpeg_enc", [0xf4c67aaeaa10f073, 0x3b5366989b843ee6, 0x2e7ebdd7464a5f76, 0x76bae1dfbcc3daca]),
    ("sha", [0xb9735eb73a47c94b, 0x0dc95af3142b9d78, 0xb9735eb73a47c94b, 0x077c885417ab864a]),
    ("susan_smoothing", [0x9bbd36bfdd429e66, 0x25f9e440e1427ad1, 0x0ba27d1b840a90f3, 0x47268f51fb3d7711]),
    ("crc32", [0x6f3e47a14d63bbf9, 0xdb1c4f0f93cf3361, 0x6f3e47a14d63bbf9, 0x43762bc7e9ec0a5f]),
    ("jpeg_dec", [0xc4f15b6a570e6c4d, 0xd5a1bce056e17194, 0xc4f15b6a570e6c4d, 0x59de674f429e2446]),
    ("patricia", [0x1b64d215ef6b3d31, 0xd484679067869270, 0x1b64d215ef6b3d31, 0x1fe227b66677b63d]),
    ("susan_corners", [0xe5228ed2e2b21c96, 0x05535f0bcdea1bc4, 0x31316ae2862a2450, 0xc016f4806ef6d824]),
    ("susan_edges", [0x0e68b73f0eef64cf, 0xc56de0ee8ce4071a, 0xd491c4738029886b, 0x9d5e9fc17c4801d6]),
    ("dijkstra", [0x030373db9d3dea86, 0x2fcab3d38cc5a45c, 0x4210dee705a3e64f, 0xf0ce44fc24e3a323]),
    ("gsm_dec", [0x987f53574bfc70f4, 0x236743fc947ebc4a, 0x42776fd064636f6d, 0xf8bb48e75938f735]),
    ("bitcount", [0x5cfd342f9fa089ab, 0x9a85ed28beefd515, 0x6846e45a75acd7a5, 0x2f7d35ee6769162b]),
    ("stringsearch", [0x638a5f0d312ee6b1, 0xaa39b5a9082fc318, 0xde217a86239f61df, 0xf109bc3ab11654c6]),
    ("quicksort", [0xb340f5f81b964b17, 0x5beba5637260f875, 0xf00e9783d19262dc, 0x4eb13c0a0c360c6f]),
    ("rawaudio_enc", [0xb78db366300e387d, 0xf9bfda02136862dd, 0x5d3e7980c6894daf, 0x5a71fafdb52799fd]),
    ("rawaudio_dec", [0xcfc0933429af4604, 0x1d975d568575c4e6, 0xec8c4081e8fe1543, 0x7541719a75f6d62e]),
];

fn variant_config(variant: usize, shape: ShapeChoice, slots: usize, spec: bool) -> SystemConfig {
    let mut config = SystemConfig::new(shape.shape(), slots, spec);
    match VARIANTS[variant] {
        "default" => {}
        "lru_alu1" => {
            config.cache_policy = ReplacementPolicy::Lru;
            config.timing.alu_rows_per_cycle = 1;
        }
        "flush2_xcheck" => {
            config.misspec_flush_threshold = 2;
            config.cross_check = true;
        }
        "caches" => {}
        other => unreachable!("variant {other}"),
    }
    config
}

/// Runs `name` at `tiny` under `variant`'s `config` with a schema-v5
/// JSONL trace attached and digests everything the run exposes: the
/// trace bytes, `DimStats`, `FabricHeat`, the cycle breakdown and the
/// final resident set in FIFO order.
fn behaviour_digest(name: &str, variant: usize, config: SystemConfig) -> u64 {
    let spec = dim_workloads::by_name(name).expect("workload exists");
    let built = (spec.build)(Scale::Tiny);
    let mut machine = Machine::load(&built.program);
    if VARIANTS[variant] == "caches" {
        machine.icache = Some(CacheSim::new(CacheConfig::icache_4k()));
        machine.dcache = Some(CacheSim::new(CacheConfig::dcache_4k()));
    }
    let mut system = System::new(machine, config);
    let mut sink = JsonlSink::new(Vec::new(), name, system.stored_bits_per_config());
    system.run_probed(built.max_steps, &mut sink).expect(name);
    sink.finish();
    validate(system.machine(), &built).expect(name);
    let (mut bytes, io_error) = sink.into_inner();
    assert!(io_error.is_none(), "{name}: trace write failed");
    bytes.extend_from_slice(
        format!(
            "{:?}\n{:?}\n{:?}\nresident",
            system.stats(),
            system.fabric_heat(),
            system.cycle_breakdown()
        )
        .as_bytes(),
    );
    for config in system.cache().iter() {
        encode_config(config, &mut bytes);
    }
    fnv1a64(&bytes)
}

/// Checks every workload's `variant` column of `PINNED_BEHAVIOUR`,
/// printing the per-run digests of any workload that moved.
fn check_behaviour_variant(variant: usize) {
    let mut report = String::new();
    let mut table = String::new();
    let names: Vec<&str> = suite().iter().map(|s| s.name).collect();
    for name in &names {
        let mut runs = Vec::new();
        let mut folded = Vec::new();
        for &shape in &SHAPES {
            for &slots in &GRID_SLOTS {
                for spec in [false, true] {
                    let config = variant_config(variant, shape, slots, spec);
                    let digest = behaviour_digest(name, variant, config);
                    folded.extend_from_slice(&digest.to_le_bytes());
                    runs.push(format!(
                        "{}/{slots}/{}={digest:#018x}",
                        shape.key(),
                        if spec { "spec" } else { "nospec" }
                    ));
                }
            }
        }
        let got = fnv1a64(&folded);
        table += &format!("    (\"{name}\", {got:#018x}),\n");
        let pinned = PINNED_BEHAVIOUR
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d[variant]);
        if pinned != Some(got) {
            report += &format!("{name}: {}\n", runs.join(" "));
        }
    }
    assert!(
        report.is_empty(),
        "observable behaviour changed under variant {}; per-run digests of the \
         moved workloads:\n{report}folded constants now:\n{table}",
        VARIANTS[variant]
    );
    assert_eq!(
        PINNED_BEHAVIOUR.len(),
        names.len(),
        "one pinned row per workload"
    );
}

#[test]
fn behaviour_digests_match_under_the_default_variant() {
    check_behaviour_variant(0);
}

#[test]
fn behaviour_digests_match_under_lru_with_one_alu_row_per_cycle() {
    check_behaviour_variant(1);
}

#[test]
fn behaviour_digests_match_under_flush_threshold_two_with_cross_check() {
    check_behaviour_variant(2);
}

#[test]
fn behaviour_digests_match_with_instruction_and_data_caches() {
    check_behaviour_variant(3);
}
