//! The workspace's one header-framing discipline: magic, version,
//! length, payload, FNV-1a 64 checksum.
//!
//! Three persisted/wire formats share this shape and must never drift
//! apart:
//!
//! * `.dimrc` rcache snapshots (`dim_core::SnapshotContents`) — the
//!   binary frame with magic `DIMRC\0`;
//! * the `dim serve` wire protocol (`dim-serve`) — the same binary
//!   frame with magic `DIMSV\0`, one frame per message;
//! * `status.dimstat` live telemetry ([`crate::status`]) — the *text*
//!   frame: a JSON header line carrying magic, version and the body
//!   checksum over a JSONL body.
//!
//! Binary layout ([`encode_frame`]/[`decode_frame`]):
//!
//! ```text
//! magic   [u8; 6]
//! version u16 (little-endian)
//! len     u64 (little-endian, payload bytes)
//! payload [len bytes]
//! check   u64 (little-endian, FNV-1a 64 of payload)
//! ```
//!
//! Text layout ([`render_text_frame`]/[`parse_text_frame`]): one JSON
//! header object on the first line (`type`, `magic`, `version`, any
//! format-specific extras, `body_fnv64` as 16 hex digits), then the
//! body verbatim.
//!
//! The helper is defined here (the bottom of the crate graph, next to
//! [`fnv1a64`]) and re-exported as `dim_core::frame`.
//!
//! Files a reader may open while they are being replaced (sweep
//! results and snapshots, `status.dimstat`, span and flight dumps,
//! drained shards) are written through [`atomic_write`]: the bytes land
//! in a temporary file in the destination directory and are renamed
//! into place, so a reader sees either the complete old version or the
//! complete new one, never a torn file.

use crate::hash::fnv1a64;
use crate::json::{parse, JsonValue, ObjectWriter};
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identity of one framed format: its magic bytes and the newest
/// version this build writes (and accepts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpec {
    /// Six magic bytes opening every frame.
    pub magic: &'static [u8; 6],
    /// Current (maximum accepted) format version.
    pub version: u16,
}

/// Bytes before the payload: magic (6) + version (2) + length (8).
pub const FRAME_HEADER_LEN: usize = 16;
/// Total framing overhead: header plus the 8-byte checksum tail.
pub const FRAME_OVERHEAD: usize = FRAME_HEADER_LEN + 8;

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes do not start with the expected magic.
    BadMagic,
    /// The frame's version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The bytes end before the structure they promise.
    Truncated,
    /// The declared payload length exceeds the caller's limit.
    Oversized {
        /// Length the header declares.
        declared: u64,
        /// Maximum the caller accepts.
        max: u64,
    },
    /// Bytes remain after the checksum tail.
    TrailingBytes(usize),
    /// The payload does not hash to the recorded checksum.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        expected: u64,
        /// Checksum of the payload actually read.
        actual: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad magic"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Oversized { declared, max } => {
                write!(
                    f,
                    "declared payload of {declared} bytes exceeds limit {max}"
                )
            }
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after checksum"),
            FrameError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch (frame says {expected:#018x}, payload hashes to \
                 {actual:#018x}) — truncated or corrupted"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Wraps `payload` in a complete binary frame.
pub fn encode_frame(spec: FrameSpec, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(spec.magic);
    out.extend_from_slice(&spec.version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out
}

/// Decodes exactly one binary frame spanning all of `bytes`, returning
/// the frame's version and its payload slice.
///
/// Versions *newer* than `spec.version` are rejected; older ones are
/// returned for the caller to apply its own compatibility policy.
///
/// # Errors
///
/// [`FrameError`] for anything that is not one well-formed frame.
pub fn decode_frame(spec: FrameSpec, bytes: &[u8]) -> Result<(u16, &[u8]), FrameError> {
    if bytes.len() < 6 || &bytes[..6] != spec.magic {
        return Err(FrameError::BadMagic);
    }
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let version = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
    if version > spec.version {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let len_usize = usize::try_from(len).map_err(|_| FrameError::Truncated)?;
    let rest = &bytes[FRAME_HEADER_LEN..];
    if rest.len() < len_usize + 8 {
        return Err(FrameError::Truncated);
    }
    if rest.len() > len_usize + 8 {
        return Err(FrameError::TrailingBytes(rest.len() - len_usize - 8));
    }
    let payload = &rest[..len_usize];
    let expected = u64::from_le_bytes(rest[len_usize..].try_into().unwrap());
    let actual = fnv1a64(payload);
    if expected != actual {
        return Err(FrameError::ChecksumMismatch { expected, actual });
    }
    Ok((version, payload))
}

/// A [`read_frame`] failure: transport trouble or a malformed frame.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The underlying reader failed (including unexpected mid-frame EOF).
    Io(io::Error),
    /// The bytes read do not form a valid frame.
    Frame(FrameError),
}

impl fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadFrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            ReadFrameError::Frame(e) => write!(f, "invalid frame: {e}"),
        }
    }
}

impl std::error::Error for ReadFrameError {}

impl From<io::Error> for ReadFrameError {
    fn from(e: io::Error) -> ReadFrameError {
        ReadFrameError::Io(e)
    }
}

impl From<FrameError> for ReadFrameError {
    fn from(e: FrameError) -> ReadFrameError {
        ReadFrameError::Frame(e)
    }
}

/// Writes one binary frame to a stream.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_frame(spec: FrameSpec, w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(spec, payload))?;
    w.flush()
}

/// Reads one binary frame from a stream, returning its payload —
/// or `None` on a clean end-of-stream at a frame boundary.
///
/// `max_payload` bounds the allocation a corrupt length field can
/// request.
///
/// # Errors
///
/// [`ReadFrameError`] on transport failure, mid-frame EOF, or an
/// invalid frame.
pub fn read_frame(
    spec: FrameSpec,
    r: &mut impl Read,
    max_payload: u64,
) -> Result<Option<Vec<u8>>, ReadFrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // A clean EOF before the first header byte ends the stream; EOF
    // anywhere inside a frame is an error.
    let mut filled = 0;
    while filled < header.len() {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "end of stream inside a frame header",
            )
            .into());
        }
        filled += n;
    }
    if &header[..6] != spec.magic {
        return Err(FrameError::BadMagic.into());
    }
    let version = u16::from_le_bytes(header[6..8].try_into().unwrap());
    if version > spec.version {
        return Err(FrameError::UnsupportedVersion(version).into());
    }
    let len = u64::from_le_bytes(header[8..16].try_into().unwrap());
    if len > max_payload {
        return Err(FrameError::Oversized {
            declared: len,
            max: max_payload,
        }
        .into());
    }
    let mut rest = vec![0u8; len as usize + 8];
    r.read_exact(&mut rest)?;
    let payload_len = len as usize;
    let expected = u64::from_le_bytes(rest[payload_len..].try_into().unwrap());
    let actual = fnv1a64(&rest[..payload_len]);
    if expected != actual {
        return Err(FrameError::ChecksumMismatch { expected, actual }.into());
    }
    rest.truncate(payload_len);
    Ok(Some(rest))
}

/// Why a text frame could not be parsed.
#[derive(Debug)]
pub enum TextFrameError {
    /// The header line is missing, unparseable, or lacks a field.
    Malformed(String),
    /// The header's `magic` field does not match.
    BadMagic,
    /// The header declares a version newer than this reader.
    UnsupportedVersion(u64),
    /// The body does not hash to the header's checksum (torn write).
    ChecksumMismatch,
}

impl fmt::Display for TextFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextFrameError::Malformed(m) => write!(f, "malformed text frame: {m}"),
            TextFrameError::BadMagic => write!(f, "bad magic"),
            TextFrameError::UnsupportedVersion(v) => {
                write!(f, "version {v} is newer than this reader")
            }
            TextFrameError::ChecksumMismatch => write!(f, "body checksum mismatch (torn write?)"),
        }
    }
}

impl std::error::Error for TextFrameError {}

/// Renders a text frame: a JSON header line (`type` = `kind`, `magic`,
/// `version`, the `extras` in order, `body_fnv64` over `body`) followed
/// by the body verbatim.
pub fn render_text_frame(
    kind: &str,
    magic: &str,
    version: u64,
    extras: &[(&str, u64)],
    body: &str,
) -> String {
    let mut header = ObjectWriter::new();
    header.field_str("type", kind);
    header.field_str("magic", magic);
    header.field_u64("version", version);
    for &(key, value) in extras {
        header.field_u64(key, value);
    }
    header.field_str("body_fnv64", &format!("{:016x}", fnv1a64(body.as_bytes())));
    format!("{}\n{body}", header.finish())
}

/// Parses a text frame: validates magic, version and the body checksum,
/// returning the parsed header object (for format-specific extras) and
/// the body text.
///
/// # Errors
///
/// [`TextFrameError`] when the header is malformed, carries the wrong
/// magic, declares a version beyond `max_version`, or the body fails
/// the checksum.
pub fn parse_text_frame<'a>(
    magic: &str,
    max_version: u64,
    text: &'a str,
) -> Result<(JsonValue, &'a str), TextFrameError> {
    let Some((header_line, body)) = text.split_once('\n') else {
        return Err(TextFrameError::Malformed("missing header line".into()));
    };
    let header =
        parse(header_line).map_err(|e| TextFrameError::Malformed(format!("header: {e:?}")))?;
    if header.get("magic").and_then(JsonValue::as_str) != Some(magic) {
        return Err(TextFrameError::BadMagic);
    }
    let version = header
        .get("version")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| TextFrameError::Malformed("header: missing `version`".into()))?;
    if version > max_version {
        return Err(TextFrameError::UnsupportedVersion(version));
    }
    let declared = header
        .get("body_fnv64")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| TextFrameError::Malformed("header: missing `body_fnv64`".into()))?;
    if format!("{:016x}", fnv1a64(body.as_bytes())) != declared {
        return Err(TextFrameError::ChecksumMismatch);
    }
    Ok((header, body))
}

/// Writes `bytes` to `path` atomically (temp file in the same directory,
/// then rename), creating parent directories as needed. The temp name
/// carries the process id plus a per-process sequence, so concurrent
/// writers never collide on it.
///
/// # Errors
///
/// Any underlying filesystem error; the temporary file is removed on
/// failure when possible.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let result = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        fs::remove_file(&tmp).ok();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dim-obs-frame-{}-{name}", std::process::id()))
    }

    #[test]
    fn atomic_write_writes_and_replaces() {
        let dir = scratch("basic");
        let path = dir.join("nested/result.json");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        atomic_write(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        // No stray temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("result.json")]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_rejects_a_directory_path() {
        assert!(atomic_write(Path::new("/"), b"x").is_err());
    }

    const SPEC: FrameSpec = FrameSpec {
        magic: b"DIMGV\0",
        version: 3,
    };

    /// Golden vector: the binary layout is a compatibility surface for
    /// `.dimrc` and the serve wire protocol — changing it is a format
    /// break for both at once.
    #[test]
    fn binary_golden_vector() {
        let frame = encode_frame(SPEC, b"abc");
        let expected: Vec<u8> = [
            b"DIMGV\0".as_slice(),                // magic
            &3u16.to_le_bytes(),                  // version
            &3u64.to_le_bytes(),                  // payload length
            b"abc",                               // payload
            &0xe71fa2190541574bu64.to_le_bytes(), // fnv1a64("abc")
        ]
        .concat();
        assert_eq!(frame, expected);
        let (version, payload) = decode_frame(SPEC, &frame).unwrap();
        assert_eq!((version, payload), (3, b"abc".as_slice()));
    }

    #[test]
    fn binary_empty_payload_roundtrips() {
        let frame = encode_frame(SPEC, b"");
        assert_eq!(frame.len(), FRAME_OVERHEAD);
        assert_eq!(decode_frame(SPEC, &frame).unwrap(), (3, b"".as_slice()));
    }

    #[test]
    fn binary_rejects_every_corruption() {
        let frame = encode_frame(SPEC, b"payload bytes");
        // Wrong magic.
        let mut bad = frame.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_frame(SPEC, &bad), Err(FrameError::BadMagic));
        // Newer version.
        let mut bad = frame.clone();
        bad[6..8].copy_from_slice(&99u16.to_le_bytes());
        assert_eq!(
            decode_frame(SPEC, &bad),
            Err(FrameError::UnsupportedVersion(99))
        );
        // Older version is returned, not rejected.
        let mut old = frame.clone();
        old[6..8].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(decode_frame(SPEC, &old).unwrap().0, 1);
        // Payload flip.
        let mut bad = frame.clone();
        bad[FRAME_HEADER_LEN + 2] ^= 0x04;
        assert!(matches!(
            decode_frame(SPEC, &bad),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        // Trailing garbage.
        let mut bad = frame.clone();
        bad.push(0);
        assert_eq!(decode_frame(SPEC, &bad), Err(FrameError::TrailingBytes(1)));
        // Truncation at every boundary.
        for len in 0..frame.len() {
            assert!(
                decode_frame(SPEC, &frame[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn stream_roundtrip_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(SPEC, &mut buf, b"first").unwrap();
        write_frame(SPEC, &mut buf, b"second").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(SPEC, &mut cursor, 1024).unwrap().as_deref(),
            Some(b"first".as_slice())
        );
        assert_eq!(
            read_frame(SPEC, &mut cursor, 1024).unwrap().as_deref(),
            Some(b"second".as_slice())
        );
        assert!(read_frame(SPEC, &mut cursor, 1024).unwrap().is_none());
    }

    #[test]
    fn stream_rejects_midframe_eof_and_oversize() {
        let frame = encode_frame(SPEC, b"payload");
        for len in 1..frame.len() {
            let mut cursor = io::Cursor::new(frame[..len].to_vec());
            assert!(
                read_frame(SPEC, &mut cursor, 1024).is_err(),
                "stream prefix of {len} bytes read"
            );
        }
        let mut cursor = io::Cursor::new(frame);
        assert!(matches!(
            read_frame(SPEC, &mut cursor, 3),
            Err(ReadFrameError::Frame(FrameError::Oversized {
                declared: 7,
                max: 3
            }))
        ));
    }

    /// Golden vector for the text frame: this exact header line is what
    /// `status.dimstat` files carry on disk.
    #[test]
    fn text_golden_vector() {
        let text = render_text_frame("status_header", "DIMSTAT", 1, &[("entries", 2)], "a\nb\n");
        let expected = "{\"type\":\"status_header\",\"magic\":\"DIMSTAT\",\"version\":1,\
                        \"entries\":2,\"body_fnv64\":\"78ed6781f136a14e\"}\na\nb\n";
        assert_eq!(text, expected);
        let (header, body) = parse_text_frame("DIMSTAT", 1, &text).unwrap();
        assert_eq!(body, "a\nb\n");
        assert_eq!(header.get("entries").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn text_rejects_magic_version_and_torn_body() {
        let text = render_text_frame("h", "GOOD!", 2, &[], "body\n");
        assert!(matches!(
            parse_text_frame("OTHER", 2, &text),
            Err(TextFrameError::BadMagic)
        ));
        assert!(matches!(
            parse_text_frame("GOOD!", 1, &text),
            Err(TextFrameError::UnsupportedVersion(2))
        ));
        let torn = format!("{text}tail of a torn write\n");
        assert!(matches!(
            parse_text_frame("GOOD!", 2, &torn),
            Err(TextFrameError::ChecksumMismatch)
        ));
        assert!(matches!(
            parse_text_frame("GOOD!", 2, "no newline at all"),
            Err(TextFrameError::Malformed(_))
        ));
    }
}
