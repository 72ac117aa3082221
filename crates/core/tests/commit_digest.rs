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

use dim_cgra::snapshot::encode_config;
use dim_cgra::ShapeChoice;
use dim_core::{fnv1a64, System, SystemConfig};
use dim_mips_sim::Machine;
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
