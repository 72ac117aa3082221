//! `dim_obs::frame` is the framing every persisted and wire format goes
//! through, so its three decoders take untrusted bytes: `decode_frame`
//! (`.dimrc` snapshots), `read_frame` (the `dim serve` socket) and
//! `parse_text_frame` (`status.dimstat`, `spans.dimspan`). Arbitrary
//! bytes, and a valid frame with one to three bytes flipped, inserted
//! or deleted, must be decoded or rejected without a panic. A payload
//! mutated the same way and re-framed with a valid checksum decodes.
//! Whatever decodes re-encodes and decodes to the same value.

use dim_obs::frame::{
    decode_frame, encode_frame, parse_text_frame, read_frame, render_text_frame, FrameSpec,
};
use proptest::prelude::*;

const SPEC: FrameSpec = FrameSpec {
    magic: b"DIMPT\0",
    version: 3,
};

const TEXT_MAGIC: &str = "DIMPT";

/// The payload every mutated frame starts from.
const PAYLOAD: &[u8] = b"{\"kind\":\"sample\",\"rows\":[1,2,3],\"name\":\"crc32\"}\n\x00\x01\xff";

/// `bytes` with each `(op, position, byte)` mutation applied in turn:
/// op 0 flips one bit, 1 inserts `byte`, 2 deletes a byte.
fn mutate(bytes: &[u8], mutations: &[(u8, u32, u8)]) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    for &(op, pos, byte) in mutations {
        let at = pos as usize % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] ^= 1 << (byte % 8),
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    bytes
}

/// Decodes `bytes` as one binary frame; what decodes must re-encode to
/// a frame that decodes to the same version and payload.
fn check_binary(bytes: &[u8]) {
    if let Ok((version, payload)) = decode_frame(SPEC, bytes) {
        let spec = FrameSpec {
            magic: SPEC.magic,
            version,
        };
        let again = encode_frame(spec, payload);
        assert_eq!(decode_frame(SPEC, &again), Ok((version, payload)));
    }
}

/// Reads frames from `bytes` as a stream until it ends or fails; every
/// frame read must re-encode to one that reads back the same.
fn check_stream(bytes: &[u8]) {
    let mut reader = bytes;
    for _ in 0..=bytes.len() {
        match read_frame(SPEC, &mut reader, 1 << 16) {
            Ok(Some(payload)) => {
                let again = encode_frame(SPEC, &payload);
                let read_back = read_frame(SPEC, &mut again.as_slice(), 1 << 16);
                assert_eq!(read_back.ok().flatten().as_deref(), Some(&payload[..]));
            }
            Ok(None) | Err(_) => return,
        }
    }
}

/// Parses `text` as a text frame; what parses must re-render to a frame
/// that parses to the same header version and body.
fn check_text(text: &str) {
    if let Ok((header, body)) = parse_text_frame(TEXT_MAGIC, 3, text) {
        let version = header
            .get("version")
            .and_then(dim_obs::JsonValue::as_u64)
            .unwrap();
        let again = render_text_frame("sample_header", TEXT_MAGIC, version, &[], body);
        let (header2, body2) = parse_text_frame(TEXT_MAGIC, 3, &again).expect("re-parses");
        assert_eq!(body2, body);
        assert_eq!(
            header2.get("version").and_then(dim_obs::JsonValue::as_u64),
            Some(version)
        );
    }
}

fn sample_text() -> String {
    render_text_frame(
        "sample_header",
        TEXT_MAGIC,
        2,
        &[("entries", 1)],
        std::str::from_utf8(&PAYLOAD[..PAYLOAD.len() - 3]).unwrap(),
    )
}

#[test]
fn valid_frames_round_trip() {
    let frame = encode_frame(SPEC, PAYLOAD);
    assert_eq!(decode_frame(SPEC, &frame), Ok((3, PAYLOAD)));
    let mut two = frame.clone();
    two.extend_from_slice(&frame);
    let mut reader = two.as_slice();
    for _ in 0..2 {
        let payload = read_frame(SPEC, &mut reader, 1 << 16).expect("reads");
        assert_eq!(payload.as_deref(), Some(PAYLOAD));
    }
    assert!(read_frame(SPEC, &mut reader, 1 << 16)
        .expect("ends")
        .is_none());
    let text = sample_text();
    let (header, body) = parse_text_frame(TEXT_MAGIC, 3, &text).expect("parses");
    assert_eq!(
        header.get("entries").and_then(dim_obs::JsonValue::as_u64),
        Some(1)
    );
    assert!(body.starts_with("{\"kind\""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        check_binary(&bytes);
        check_stream(&bytes);
        check_text(&String::from_utf8_lossy(&bytes));
        // Behind a valid magic and version the bytes reach the length,
        // payload and checksum checks.
        let mut framed = SPEC.magic.to_vec();
        framed.extend_from_slice(&2u16.to_le_bytes());
        framed.extend_from_slice(&bytes);
        check_binary(&framed);
        check_stream(&framed);
    }

    #[test]
    fn mutated_frames_never_panic(
        mutations in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..4),
    ) {
        let frame = mutate(&encode_frame(SPEC, PAYLOAD), &mutations);
        check_binary(&frame);
        check_stream(&frame);
        let text = mutate(sample_text().as_bytes(), &mutations);
        check_text(&String::from_utf8_lossy(&text));
    }

    #[test]
    fn reframed_payload_mutations_decode(
        mutations in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..4),
    ) {
        let payload = mutate(PAYLOAD, &mutations);
        let frame = encode_frame(SPEC, &payload);
        prop_assert_eq!(decode_frame(SPEC, &frame), Ok((3, payload.as_slice())));
        check_stream(&frame);
        let body = String::from_utf8_lossy(&payload).into_owned();
        let text = render_text_frame("sample_header", TEXT_MAGIC, 3, &[], &body);
        let (_, parsed) = parse_text_frame(TEXT_MAGIC, 3, &text).expect("a re-framed body parses");
        prop_assert_eq!(parsed, body.as_str());
        check_text(&text);
    }
}
