//! The host-speed reference: fixed work timed next to every sample.
//!
//! Other tenants of the host slow the benchmark down by up to 1.8x, in
//! phases that last from seconds to minutes and move every host time
//! together, so no statistic of one run's raw times repeats from run to
//! run. Each timed job is therefore preceded by a fixed piece of
//! reference work, and host times are reported in *reference seconds*:
//! the seconds a sample took, times [`REFERENCE_S`] over the seconds the
//! reference work took just before it. That is the time the sample would
//! have taken on a host that does the reference work in [`REFERENCE_S`].
//!
//! The reference work is a toy interpreter — fetch, dispatch, register
//! and memory traffic, a hash-map update per loop — followed by a scan of
//! random bytes that branches on their bits. Slow phases stretch
//! the toy interpreter about as much as the accelerated system, and the
//! plain interpreter less; the scan stretches least. With about a quarter
//! of the reference time in the scan, the scaled times of both simulator
//! paths moved least across host phases (recorded on the VM named at
//! [`REFERENCE_S`]). The reference work belongs to the benchmark and does
//! not change with the program under test.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Toy instructions in one piece of reference work.
const STEPS: u32 = 400_000;

/// Passes of the branchy scan in one piece of reference work.
const SCAN_PASSES: u32 = 4;

/// Seconds one piece of reference work takes on the reference host: one
/// thread of a 2-vCPU Xeon VM (Linux, release build) in a quiet phase.
pub const REFERENCE_S: f64 = 0.0015;

/// Does one piece of reference work on each of `threads` threads at once
/// and returns the wall seconds until the last one finished.
pub fn reference_work(threads: usize) -> f64 {
    let bytes = random_bytes();
    let work = || {
        black_box(toy_machine(black_box(STEPS)));
        black_box(branchy_scan(bytes, black_box(SCAN_PASSES)));
    };
    let start = Instant::now();
    if threads <= 1 {
        work();
    } else {
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(work);
            }
            work();
        });
    }
    start.elapsed().as_secs_f64()
}

/// `sample_s` in reference seconds, given the seconds the reference work
/// took next to it.
pub fn to_reference(sample_s: f64, reference_s: f64) -> f64 {
    sample_s * REFERENCE_S / reference_s
}

/// 64 KiB of fixed pseudo-random bytes (xorshift64), made once.
fn random_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..1 << 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    })
}

/// Scans `bytes` `passes` times, branching on two random bits of each,
/// and returns a checksum.
fn branchy_scan(bytes: &[u8], passes: u32) -> u64 {
    let (mut a, mut b) = (0u64, 0u64);
    for _ in 0..passes {
        for &x in bytes {
            if x & 1 == 1 {
                a = a.wrapping_add(u64::from(x));
            } else {
                b ^= u64::from(x);
            }
            if x & 2 == 2 {
                a = a.rotate_left(3);
            }
        }
    }
    a ^ b
}

/// Runs `steps` instructions of a fixed eight-instruction loop over 64 KiB
/// of memory and returns a checksum.
fn toy_machine(steps: u32) -> u32 {
    // (opcode, destination, source, second source)
    const PROGRAM: [[u8; 4]; 8] = [
        [0, 1, 1, 2], // r1 = r1 + r2
        [1, 3, 1, 4], // r3 = r1 ^ r4
        [2, 4, 3, 0], // r4 = mem[r3]
        [3, 5, 4, 1], // r5 = r4 << (r1 & 7)
        [4, 5, 3, 0], // mem[r3 ^ 5] = r5
        [0, 2, 2, 6], // r2 = r2 + r6
        [1, 6, 6, 5], // r6 = r6 ^ r5
        [5, 0, 0, 0], // count r1 in the table, jump to 0
    ];
    let program = black_box(PROGRAM);
    let mut mem: Vec<u32> = (0..1u32 << 14)
        .map(|i| i.wrapping_mul(0x9E37_79B1))
        .collect();
    let mask = mem.len() as u32 - 1;
    let mut table: HashMap<u32, u32> = HashMap::new();
    let mut r = [0u32; 8];
    r[2] = 7;
    r[6] = 3;
    let mut pc = 0;
    for step in 0..steps {
        let [op, d, s, t] = program[pc].map(usize::from);
        pc += 1;
        match op {
            0 => r[d] = r[s].wrapping_add(r[t]),
            1 => r[d] = r[s] ^ r[t],
            2 => r[d] = mem[(r[s] & mask) as usize],
            3 => r[d] = r[s] << (r[t] & 7),
            4 => mem[((r[s] ^ 5) & mask) as usize] = r[d],
            _ => {
                let count = table.entry(r[1] & 1023).or_insert(0);
                *count = count.wrapping_add(step);
                pc = 0;
            }
        }
    }
    r.iter().fold(table.len() as u32, |acc, x| acc ^ x)
}
