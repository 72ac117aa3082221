//! `dim serve` decodes every request batch a client sends and `dim
//! submit` decodes every reply batch, so `decode_request_batch` and
//! `decode_reply_batch` take untrusted bytes. Arbitrary bytes, and a
//! valid batch with one to three payload bytes flipped, inserted or
//! deleted and re-framed with a valid checksum, must decode or be
//! rejected without a panic. Whatever decodes re-encodes and decodes to
//! the same batch.

use dim_core::frame::{decode_frame, encode_frame};
use dim_serve::proto::{
    decode_reply_batch, decode_request_batch, encode_reply_batch, encode_request_batch, WIRE_FRAME,
};
use dim_serve::{Command, Reply, Request};
use dim_workloads::Scale;
use proptest::prelude::*;

fn sample_requests() -> Vec<Request> {
    vec![
        Request {
            tenant: "alice".into(),
            command: Command::Accel,
            workload: "crc32".into(),
            scale: Scale::Small,
            shape: 2,
            slots: 64,
            speculation: true,
            shared_shard: true,
            max_steps: 1_000_000,
        },
        Request {
            tenant: "bob".into(),
            command: Command::Status,
            ..Request::default()
        },
    ]
}

fn sample_replies() -> Vec<Reply> {
    vec![
        Reply::Ok {
            json: "{\"accel_cycles\":123,\"report\":\"ok\\n\"}".into(),
        },
        Reply::Busy {
            retry_after_ms: 250,
            reason: "queue full (8/8)".into(),
        },
        Reply::Error {
            message: "unknown workload `nope`".into(),
        },
    ]
}

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

/// Decodes `payload` both ways; what decodes must re-encode to a batch
/// that decodes to the same value.
fn check(payload: &[u8]) {
    if let Ok(requests) = decode_request_batch(payload) {
        let again = encode_request_batch(&requests);
        assert_eq!(decode_request_batch(&again).expect("re-decodes"), requests);
    }
    if let Ok(replies) = decode_reply_batch(payload) {
        let again = encode_reply_batch(&replies);
        assert_eq!(decode_reply_batch(&again).expect("re-decodes"), replies);
    }
}

/// Frames `payload` as a wire message with a valid checksum and decodes
/// it the way the server and the client do.
fn check_reframed(payload: &[u8]) {
    let frame = encode_frame(WIRE_FRAME, payload);
    let (_, decoded) = decode_frame(WIRE_FRAME, &frame).expect("a re-framed payload passes");
    check(decoded);
}

#[test]
fn valid_batches_round_trip() {
    let requests = sample_requests();
    assert_eq!(
        decode_request_batch(&encode_request_batch(&requests)).expect("decodes"),
        requests
    );
    let replies = sample_replies();
    assert_eq!(
        decode_reply_batch(&encode_reply_batch(&replies)).expect("decodes"),
        replies
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_payloads_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        check(&bytes);
        // Behind each batch kind and a small count the bytes reach the
        // item decoders.
        for kind in [1u8, 2] {
            let mut payload = vec![kind];
            payload.extend_from_slice(&(u32::from(bytes.first().copied().unwrap_or(0)) % 4).to_le_bytes());
            payload.extend_from_slice(&bytes);
            check(&payload);
        }
    }

    #[test]
    fn mutated_request_batches_never_panic(
        mutations in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..4),
    ) {
        check_reframed(&mutate(&encode_request_batch(&sample_requests()), &mutations));
    }

    #[test]
    fn mutated_reply_batches_never_panic(
        mutations in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..4),
    ) {
        check_reframed(&mutate(&encode_reply_batch(&sample_replies()), &mutations));
    }
}
