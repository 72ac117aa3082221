//! Property tests for the simulator substrate: profiler accounting,
//! superscalar retiming bounds, cache-model sanity, and memory behaviour.

use dim_mips::asm::assemble;
use dim_mips_sim::{
    CacheConfig, CacheSim, Machine, Memory, Profiler, SuperscalarConfig, SuperscalarModel,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A random but always-terminating counted loop with a data-dependent
/// diamond inside.
fn program(iters: u32, body_adds: usize) -> String {
    let mut src = format!("main: li $s0, {iters}\n");
    src.push_str("loop:\n");
    for i in 0..body_adds {
        src.push_str(&format!(" addu $t{}, $t{}, $s0\n", i % 8, (i + 1) % 8));
    }
    src.push_str(
        " andi $t8, $s0, 1\n beqz $t8, even\n addiu $v0, $v0, 7\n\
         even: addiu $s0, $s0, -1\n bnez $s0, loop\n break 0\n",
    );
    src
}

proptest! {
    /// The profiler attributes every retired instruction to exactly one
    /// block, and block entries sum to the control-transfer structure.
    #[test]
    fn profiler_conserves_instructions(iters in 1u32..60, body in 1usize..10) {
        let p = assemble(&program(iters, body)).unwrap();
        let mut m = Machine::load(&p);
        let mut prof = Profiler::new();
        m.run_with(1_000_000, |i| prof.observe(i)).unwrap();
        let profile = prof.finish();
        prop_assert_eq!(profile.total_instructions, m.stats.instructions);
        let attributed: u64 = profile.blocks.iter().map(|(_, b)| b.instructions).sum();
        prop_assert_eq!(attributed, m.stats.instructions);
        prop_assert_eq!(profile.control_transfers, m.stats.control_transfers());
        // Coverage curve is monotone and ends at the block count.
        let c50 = profile.blocks_for_coverage(0.5);
        let c100 = profile.blocks_for_coverage(1.0);
        prop_assert!(c50 <= c100);
        prop_assert!(c100 <= profile.block_count());
    }

    /// Dual-issue retiming is bounded: never slower than scalar, never
    /// better than 2x on issue-limited code.
    #[test]
    fn superscalar_bounded_by_width(iters in 1u32..60, body in 1usize..10) {
        let p = assemble(&program(iters, body)).unwrap();
        let mut m = Machine::load(&p);
        let mut model = SuperscalarModel::new(SuperscalarConfig::default());
        m.run_with(1_000_000, |i| model.observe(i)).unwrap();
        prop_assert_eq!(model.instructions(), m.stats.instructions);
        let ss = model.finish();
        prop_assert!(ss <= m.stats.cycles);
        // Issue groups are at most 2 wide, so at least half the
        // instruction count in cycles.
        prop_assert!(2 * ss >= m.stats.instructions);
    }

    /// Cache miss counts are bounded by accesses and by the footprint.
    #[test]
    fn cache_misses_bounded(addrs in prop::collection::vec(0u32..0x4000, 1..400)) {
        let mut c = CacheSim::new(CacheConfig::dcache_4k());
        for &a in &addrs {
            c.access(a);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert!(s.misses <= s.accesses);
        // Every line in a 16KiB address space: at most footprint/line
        // compulsory misses plus conflict misses bounded by accesses —
        // but with a 0x4000 footprint over a 0x1000 cache, misses can't
        // exceed the number of distinct lines touched plus re-fetches;
        // sanity: a single repeated address misses exactly once.
        let mut c2 = CacheSim::new(CacheConfig::dcache_4k());
        for _ in 0..10 {
            c2.access(addrs[0]);
        }
        prop_assert_eq!(c2.stats().misses, 1);
    }

    /// Memory reads always return the last written value.
    #[test]
    fn memory_read_your_writes(
        writes in prop::collection::vec((0u32..0x10000, any::<u32>()), 1..100),
    ) {
        let mut mem = Memory::new();
        let mut model = HashMap::new();
        for &(addr, value) in &writes {
            let addr = addr & !3;
            mem.write_u32(addr, value).unwrap();
            model.insert(addr, value);
        }
        for (&addr, &value) in &model {
            prop_assert_eq!(mem.read_u32(addr).unwrap(), value);
        }
    }

    /// `Memory` agrees with a byte-map reference over random mixes of
    /// u8/u16/u32 reads and writes and byte-slice copies, resident page
    /// count included: aligned and misaligned, at address 0, across
    /// 4 KiB page and 4 MiB directory boundaries, and in the top page
    /// (where slices wrap to address 0).
    #[test]
    fn memory_matches_a_byte_map(
        ops in prop::collection::vec(
            (0u8..8, memory_address(), any::<u32>()),
            1..200,
        ),
    ) {
        let mut mem = Memory::new();
        let mut bytes: HashMap<u32, u8> = HashMap::new();
        let mut pages: HashSet<u32> = HashSet::new();
        let read = |bytes: &HashMap<u32, u8>, addr: u32, width: u32| {
            (0..width).rev().fold(0u32, |acc, i| {
                (acc << 8) | u32::from(*bytes.get(&addr.wrapping_add(i)).unwrap_or(&0))
            })
        };
        for &(op, addr, value) in &ops {
            if op >= 6 {
                // A slice of up to 23 bytes, repeating `value`'s bytes.
                let slice: Vec<u8> = value.to_le_bytes().iter().copied().cycle().take((value % 24) as usize).collect();
                if op == 6 {
                    mem.write_bytes(addr, &slice);
                    for (i, &byte) in slice.iter().enumerate() {
                        let at = addr.wrapping_add(i as u32);
                        bytes.insert(at, byte);
                        pages.insert(at >> 12);
                    }
                } else {
                    let want: Vec<u8> = (0..slice.len() as u32)
                        .map(|i| *bytes.get(&addr.wrapping_add(i)).unwrap_or(&0))
                        .collect();
                    prop_assert_eq!(mem.read_bytes(addr, slice.len()), want, "read_bytes at {:#x}", addr);
                }
                prop_assert_eq!(mem.resident_pages(), pages.len());
                continue;
            }
            let width = [1, 2, 4][usize::from(op % 3)];
            let aligned = addr.is_multiple_of(width);
            if op < 3 {
                let got = match width {
                    1 => Ok(u32::from(mem.read_u8(addr))),
                    2 => mem.read_u16(addr).map(u32::from),
                    _ => mem.read_u32(addr),
                };
                match got {
                    Ok(v) => {
                        prop_assert!(aligned, "misaligned read at {:#x} succeeded", addr);
                        prop_assert_eq!(v, read(&bytes, addr, width), "read{} at {:#x}", width * 8, addr);
                    }
                    Err(e) => {
                        prop_assert!(!aligned, "aligned read at {:#x} failed: {}", addr, e);
                    }
                }
            } else {
                let done = match width {
                    1 => {
                        mem.write_u8(addr, value as u8);
                        Ok(())
                    }
                    2 => mem.write_u16(addr, value as u16),
                    _ => mem.write_u32(addr, value),
                };
                prop_assert_eq!(done.is_ok(), aligned, "write{} at {:#x}", width * 8, addr);
                if aligned {
                    for i in 0..width {
                        let at = addr.wrapping_add(i);
                        bytes.insert(at, (value >> (8 * i)) as u8);
                        pages.insert(at >> 12);
                    }
                }
            }
            prop_assert_eq!(mem.resident_pages(), pages.len());
        }
        for (&addr, &byte) in &bytes {
            prop_assert_eq!(mem.read_u8(addr), byte, "byte at {:#x}", addr);
        }
    }
}

/// Addresses near the page table's edges: address 0, page and 4 MiB
/// directory boundaries and the top page `0xffff_f000`, each with a
/// small offset that is often misaligned; and uniform addresses.
fn memory_address() -> impl Strategy<Value = u32> {
    const EDGES: [u32; 7] = [
        0,
        0x0000_0ffc,
        0x003f_fffc,
        0x0040_0ffc,
        0x1000_0000,
        0xffff_effc,
        0xffff_fff8,
    ];
    prop_oneof![
        4 => (0..EDGES.len(), 0u32..8).prop_map(|(i, off)| EDGES[i].wrapping_add(off)),
        1 => any::<u32>(),
    ]
}
