//! Seeded kernel inputs.
//!
//! For each kernel whose input is a plain buffer at a data label and
//! whose reference model is public, the seed generates a new buffer of
//! the same size and the reference model predicts the output for it.
//! The buffer is written into the loaded machine before the run, so the
//! assembled program (and anything proven about it) stays the same.
//! Other kernels keep their built-in inputs.

use dim_mips::asm::Program;
use dim_mips_sim::Machine;
use dim_workloads::kernels::{adpcm, bitcount, crc32, quicksort, sha};
use dim_workloads::{BuiltBenchmark, ExpectedRegion};

/// A small deterministic generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A value in `0..bound` (`bound` ≥ 1).
    pub fn below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % u64::from(bound.max(1))) as u32
    }
}

/// Orders `items` by the seed (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Rng::new(seed ^ 0x6f72_6465_7273);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u32 + 1) as usize;
        items.swap(i, j);
    }
}

/// The data label holding a kernel's seedable input, if it has one.
pub fn input_label(kernel: &str) -> Option<&'static str> {
    Some(match kernel {
        "crc32" => "buf",
        "bitcount" => "vals",
        "quicksort" => "arr",
        "rawaudio_enc" => "samples",
        "rawaudio_dec" => "codes",
        "sha" => "msg",
        _ => return None,
    })
}

/// Address and byte length of a data label: up to the next data label,
/// or to the end of the data segment.
pub fn label_extent(program: &Program, label: &str) -> Option<(u32, usize)> {
    let addr = program.symbol(label)?;
    let data_end = program.data_base + program.data.len() as u32;
    if addr < program.data_base || addr >= data_end {
        return None;
    }
    let end = program
        .symbols
        .values()
        .copied()
        .filter(|&a| a > addr && a <= data_end)
        .min()
        .unwrap_or(data_end);
    Some((addr, (end - addr) as usize))
}

/// The bytes a label holds in the assembled program.
pub fn built_in_input(program: &Program, label: &str) -> Option<Vec<u8>> {
    let (addr, len) = label_extent(program, label)?;
    let start = (addr - program.data_base) as usize;
    Some(program.data[start..start + len].to_vec())
}

fn words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn word_bytes(words: impl IntoIterator<Item = u32>) -> Vec<u8> {
    words.into_iter().flat_map(u32::to_le_bytes).collect()
}

fn region(label: &str, bytes: Vec<u8>) -> Vec<ExpectedRegion> {
    vec![ExpectedRegion {
        label: label.into(),
        bytes,
    }]
}

/// The kernel's reference model applied to `input` (the raw bytes at its
/// input label): the output regions the run must produce.
pub fn reference(kernel: &str, input: &[u8]) -> Option<Vec<ExpectedRegion>> {
    Some(match kernel {
        "crc32" => region("out", crc32::crc32_reference(input).to_le_bytes().to_vec()),
        "sha" => region("hbuf", word_bytes(sha::sha1_reference(&words(input)))),
        "bitcount" => {
            let sum = bitcount::popcount_sum(&words(input));
            region("out", word_bytes([sum; 3]))
        }
        "quicksort" => region(
            "arr",
            word_bytes(quicksort::sorted_reference(&words(input))),
        ),
        "rawaudio_enc" => {
            let samples: Vec<i16> = words(input).iter().map(|&w| w as i16).collect();
            region("codes", adpcm::adpcm_encode_reference(&samples))
        }
        "rawaudio_dec" => {
            let pcm = adpcm::adpcm_decode_reference(input);
            region("pcm", word_bytes(pcm.iter().map(|&s| i32::from(s) as u32)))
        }
        _ => return None,
    })
}

/// Speech-like audio: a triangle wave with seeded slope and amplitude
/// plus noise, as the built-in ADPCM generator makes.
fn audio(n: usize, rng: &mut Rng) -> Vec<i16> {
    let slope = 300 + rng.below(500) as i32;
    let peak = 8_000 + rng.below(8_000) as i32;
    let mut dir = slope;
    let mut phase: i32 = 0;
    (0..n)
        .map(|_| {
            phase += dir;
            if !(-peak..=peak).contains(&phase) {
                dir = -dir;
            }
            let noise = rng.below(2001) as i32 - 1000;
            (phase + noise).clamp(-32768, 32767) as i16
        })
        .collect()
}

/// A fresh `len`-byte input for `kernel`.
fn generate(kernel: &str, len: usize, rng: &mut Rng) -> Vec<u8> {
    match kernel {
        "rawaudio_enc" => word_bytes(audio(len / 4, rng).iter().map(|&s| i32::from(s) as u32)),
        "rawaudio_dec" => adpcm::adpcm_encode_reference(&audio(len, rng)),
        // Plain random bytes or words for the rest.
        _ => (0..len).map(|_| rng.next_u32() as u8).collect(),
    }
}

/// A kernel input drawn from a seed, with the output it must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededInput {
    /// Address of the input buffer.
    pub addr: u32,
    /// The new buffer contents.
    pub bytes: Vec<u8>,
    /// Reference-model output for `bytes`.
    pub expected: Vec<ExpectedRegion>,
}

impl SeededInput {
    /// Draws the input of `built` for `seed`; `None` for kernels that keep
    /// their built-in input.
    pub fn draw(built: &BuiltBenchmark, seed: u64) -> Option<SeededInput> {
        let label = input_label(built.name)?;
        let (addr, len) = label_extent(&built.program, label)?;
        let salt = dim_obs::fnv1a64(built.name.as_bytes());
        let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ salt);
        let bytes = generate(built.name, len, &mut rng);
        let expected = reference(built.name, &bytes)?;
        Some(SeededInput {
            addr,
            bytes,
            expected,
        })
    }

    /// Writes the input into a loaded machine.
    pub fn apply(&self, machine: &mut Machine) {
        machine.mem.write_bytes(self.addr, &self.bytes);
    }
}

/// Builds `kernel` at `scale` and [`seed`]s it.
pub fn build(
    kernel: &str,
    scale: dim_workloads::Scale,
    seed: Option<u64>,
) -> (BuiltBenchmark, Option<SeededInput>) {
    let spec = dim_workloads::by_name(kernel).expect("kernel names come from the suite");
    self::seed((spec.build)(scale), seed)
}

/// When `seed` is given and the kernel takes a seeded input, draws it and
/// swaps in its expected output. Returns the input to write into each
/// machine loaded from the program.
pub fn seed(mut built: BuiltBenchmark, seed: Option<u64>) -> (BuiltBenchmark, Option<SeededInput>) {
    let input = seed.and_then(|s| SeededInput::draw(&built, s));
    if let Some(input) = &input {
        built.expected.clone_from(&input.expected);
    }
    (built, input)
}

/// Loads `built` into a machine with `input` written over the built-in one.
pub fn load(built: &BuiltBenchmark, input: Option<&SeededInput>) -> Machine {
    let mut machine = Machine::load(&built.program);
    if let Some(input) = input {
        input.apply(&mut machine);
    }
    machine
}
