//! The two files every production run writes, `status.dimstat` and
//! `spans.dimspan`, are read back by `dim top` and `dim spans` from
//! disk, so their decoders take untrusted bytes. Arbitrary bytes, and
//! valid files whose body bytes were flipped or inserted and then
//! re-framed so that the checksum passes, must be rejected or decoded
//! without a panic — for spans, through the forest build and its law
//! check too. Valid files round-trip.

use dim_obs::frame::render_text_frame;
use dim_obs::span::SpanFile;
use dim_obs::status::{StatusEntry, StatusFile, STATUS_MAGIC, STATUS_VERSION};
use dim_obs::{FakeClock, SharedClock, SpanForest, SpanSheet, SPAN_MAGIC, SPAN_VERSION};
use proptest::prelude::*;
use std::sync::Arc;

fn sample_status() -> StatusFile {
    let worker = |w: u64| StatusEntry {
        source: format!("worker-{w}"),
        label: format!("crc32__c{w}_s64_spec"),
        state: "running".into(),
        done: w,
        total: 1,
        retired: 1_000 * w,
        array_retired: 9_000 * w,
        sim_cycles: 7_000 * w,
        invocations: 40 + w,
        rcache_hits: 38 + w,
        rcache_misses: 500,
        misspeculations: w,
        host_nanos: 123_456,
        fabric_busy_thirds: 900,
        fabric_capacity_thirds: 3_000,
        ..Default::default()
    };
    StatusFile {
        entries: vec![
            StatusEntry {
                source: "serve".into(),
                label: "dim.sock".into(),
                state: "running".into(),
                done: 7,
                total: 9,
                latency_p99_micros: 850,
                queue_depth: 3,
                ..Default::default()
            },
            worker(0),
            worker(1),
        ],
    }
}

/// A sweep-shaped span dump: three cells with their stages, under a
/// fake clock.
fn sample_spans() -> String {
    let clock = FakeClock::shared(1_000);
    let sheet = SpanSheet::new(Arc::clone(&clock) as SharedClock, 64);
    for seq in 0..3u64 {
        let root = sheet.begin_root("cell", "crc32", seq);
        for stage in ["warm_start", "simulate", "validate", "persist"] {
            clock.advance(10 + seq);
            let child = sheet.begin(stage, root);
            clock.advance(100);
            sheet.end(child);
        }
        sheet.end(root);
    }
    sheet.render()
}

/// The body of the frame `text` with `mutations` (position, byte,
/// insert or flip) applied to its bytes.
fn mutate_body(text: &str, mutations: &[(u16, u8, bool)]) -> String {
    let (_, body) = text.split_once('\n').expect("a header line");
    let mut bytes = body.as_bytes().to_vec();
    for &(pos, byte, insert) in mutations {
        let at = pos as usize % (bytes.len() + 1);
        if insert || at == bytes.len() {
            bytes.insert(at, byte);
        } else {
            bytes[at] ^= byte | 1;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Decodes `text` as a span dump and, if it decodes, builds its forest
/// and checks its laws; a panic anywhere fails the property.
fn decode_spans(text: &str) {
    if let Ok(file) = SpanFile::parse(text) {
        let forest = SpanForest::build(&file);
        let _ = forest.check_laws();
        let _ = forest.stage_durations();
    }
}

#[test]
fn valid_files_round_trip() {
    let status = sample_status();
    assert_eq!(StatusFile::parse(&status.render()).expect("parses"), status);

    let file = SpanFile::parse(&sample_spans()).expect("parses");
    assert_eq!(file.spans.len(), 15);
    let forest = SpanForest::build(&file);
    assert_eq!(forest.check_laws(), Vec::<String>::new());
    assert_eq!(forest.roots.len(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = StatusFile::parse(&text);
        decode_spans(&text);
        // The same bytes behind a valid header reach the body decoders.
        let _ = StatusFile::parse(&render_text_frame(
            "status_header",
            STATUS_MAGIC,
            STATUS_VERSION,
            &[("entries", 1)],
            &text,
        ));
        decode_spans(&render_text_frame(
            "span_header",
            SPAN_MAGIC,
            SPAN_VERSION,
            &[("spans", 1), ("dropped", 0)],
            &text,
        ));
    }

    #[test]
    fn reframed_status_mutations_are_rejected_or_decode(
        mutations in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<bool>()), 1..5),
    ) {
        let status = sample_status();
        let body = mutate_body(&status.render(), &mutations);
        let text = render_text_frame(
            "status_header",
            STATUS_MAGIC,
            STATUS_VERSION,
            &[("entries", status.entries.len() as u64)],
            &body,
        );
        if let Ok(decoded) = StatusFile::parse(&text) {
            // Whatever decodes renders back to itself.
            prop_assert_eq!(StatusFile::parse(&decoded.render()).expect("re-parses"), decoded);
        }
    }

    #[test]
    fn reframed_span_mutations_are_rejected_or_decode(
        mutations in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<bool>()), 1..5),
    ) {
        let body = mutate_body(&sample_spans(), &mutations);
        decode_spans(&render_text_frame(
            "span_header",
            SPAN_MAGIC,
            SPAN_VERSION,
            &[("spans", 15), ("dropped", 0)],
            &body,
        ));
    }
}
