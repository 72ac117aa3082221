//! `dim trace`, `dim explain` and `dim heat` read JSONL traces from
//! disk, so the trace decoder and the explain pipeline behind it take
//! untrusted text. Arbitrary strings, and a real trace with one to
//! three bytes flipped, truncated, inserted or deleted, must decode or
//! be rejected without a panic.

use dim_cgra::ArrayShape;
use dim_core::{System, SystemConfig};
use dim_explain::explain_text;
use dim_mips_sim::Machine;
use dim_obs::replay::read_trace;
use dim_obs::{JsonlSink, Probe};
use dim_workloads::Scale;
use proptest::prelude::*;
use std::sync::OnceLock;

/// crc32 at `tiny` on array config 2 with a 4-slot cache, traced
/// through `JsonlSink`: a few hundred lines holding every record kind
/// a thrashing cache produces.
fn crc32_trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let built = (dim_workloads::by_name("crc32").expect("crc32").build)(Scale::Tiny);
        let mut system = System::new(
            Machine::load(&built.program),
            SystemConfig::new(ArrayShape::config2(), 4, true),
        );
        let mut sink = JsonlSink::new(Vec::new(), "crc32", system.stored_bits_per_config());
        system.run_probed(built.max_steps, &mut sink).expect("runs");
        sink.finish();
        let (bytes, io_error) = sink.into_inner();
        assert!(io_error.is_none());
        String::from_utf8(bytes).expect("UTF-8 trace")
    })
}

/// `text` with each `(op, position, byte)` mutation applied to its
/// bytes in turn: op 0 flips one bit, 1 truncates, 2 inserts `byte`,
/// 3 deletes a byte.
fn mutate(text: &str, mutations: &[(u8, u32, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(op, pos, byte) in mutations {
        let at = pos as usize % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] ^= 1 << (byte % 8),
            1 => bytes.truncate(at),
            2 => bytes.insert(at, byte),
            3 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feeds `text` to both decoders; a panic in either fails the property.
fn decode(text: &str) {
    let _ = read_trace(text);
    let _ = explain_text(text);
}

#[test]
fn the_unmutated_trace_decodes() {
    let trace = read_trace(crc32_trace()).expect("valid trace");
    assert!(trace.summary.array_invocations > 0);
    assert!(trace.records.len() > 100, "{} records", trace.records.len());
    explain_text(crc32_trace()).expect("explains");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn arbitrary_strings_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let text = String::from_utf8_lossy(&bytes);
        decode(&text);
        // The same text behind the real header reaches the record decoders.
        let header = crc32_trace().lines().next().expect("a header line");
        decode(&format!("{header}\n{text}"));
    }

    #[test]
    fn mutated_traces_never_panic(
        mutations in proptest::collection::vec((0u8..4, any::<u32>(), any::<u8>()), 1..4),
    ) {
        decode(&mutate(crc32_trace(), &mutations));
    }
}
