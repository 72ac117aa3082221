//! Wire format for [`Configuration`]: the per-entry payload of the
//! reconfiguration-cache snapshot (`.dimrc`) files.
//!
//! A configuration is serialized as its *construction recipe* — entry
//! PC, shape, live-in/write-back sets, and per-segment instruction
//! placements — and decoding replays that recipe through the normal
//! [`Configuration::place`]/[`Configuration::finish_segment`] builders.
//! Because placement is deterministic for a fixed insertion order, the
//! decoded configuration is structurally identical to the encoded one:
//! the decoder checks every replayed row, and placement derives the
//! live-ins and write-backs, which must equal the stored lists. Whether
//! the rebuilt configuration can run (segment structure, dependence
//! order, unit bounds) is the verifier's question
//! ([`crate::verify::verify_config`]), which every loader asks next.
//!
//! Instructions travel as their 32-bit MIPS machine encodings
//! (`dim_mips::code::encode`/`decode`), which the `golden_encodings`
//! suite proves lossless for every instruction the translator places.
//!
//! All integers are little-endian. Strings do not occur.

use crate::{ArrayShape, Configuration, SegmentBranch};
use dim_mips::{decode, encode, DataLoc};
use std::fmt;

/// Why a snapshot payload could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the structure it promised.
    Truncated,
    /// A field held a value outside its domain (bad register index,
    /// undecodable instruction word, row mismatch on replay, ...).
    Corrupt(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian byte cursor over a snapshot payload.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// FNV-1a 64-bit hash — the snapshot checksum (the workspace's shared
/// implementation, re-exported here for snapshot callers).
pub use dim_obs::fnv1a64;

/// Serializes an [`ArrayShape`] (six `u64` fields).
pub fn put_shape(out: &mut Vec<u8>, shape: &ArrayShape) {
    for v in [
        shape.rows,
        shape.alus_per_row,
        shape.mults_per_row,
        shape.ldsts_per_row,
        shape.rf_read_ports,
        shape.rf_write_ports,
    ] {
        put_u64(out, v as u64);
    }
}

/// Deserializes an [`ArrayShape`] written by [`put_shape`].
pub fn read_shape(c: &mut Cursor<'_>) -> Result<ArrayShape, WireError> {
    let mut f = || -> Result<usize, WireError> {
        let v = c.u64()?;
        usize::try_from(v).map_err(|_| WireError::Corrupt(format!("shape field {v} overflows")))
    };
    Ok(ArrayShape {
        rows: f()?,
        alus_per_row: f()?,
        mults_per_row: f()?,
        ldsts_per_row: f()?,
        rf_read_ports: f()?,
        rf_write_ports: f()?,
    })
}

/// Appends the wire encoding of one configuration to `out`.
pub fn encode_config(config: &Configuration, out: &mut Vec<u8>) {
    put_u32(out, config.entry_pc);
    put_shape(out, config.shape());
    let live_ins: Vec<DataLoc> = config.live_ins().collect();
    put_u32(out, live_ins.len() as u32);
    for loc in live_ins {
        out.push(loc.dense_index() as u8);
    }
    let writebacks: Vec<(DataLoc, u8)> = config.writebacks().collect();
    put_u32(out, writebacks.len() as u32);
    for (loc, depth) in writebacks {
        out.push(loc.dense_index() as u8);
        out.push(depth);
    }
    put_u32(out, config.segments().len() as u32);
    for segment in config.segments() {
        out.push(segment.depth);
        put_u32(out, segment.exit_pc);
        match segment.branch {
            None => out.push(0),
            Some(b) => {
                out.push(1);
                put_u32(out, b.pc);
                put_u32(out, encode(&b.inst));
                out.push(b.predicted_taken as u8);
                put_u32(out, b.taken_pc);
                put_u32(out, b.fall_pc);
            }
        }
        let ops = config.segment_ops(segment);
        put_u32(out, ops.len() as u32);
        for op in ops {
            put_u32(out, op.pc);
            put_u32(out, encode(&op.inst));
            put_u32(out, op.row);
        }
    }
}

fn read_loc(c: &mut Cursor<'_>) -> Result<DataLoc, WireError> {
    let idx = c.u8()? as usize;
    DataLoc::from_dense_index(idx)
        .ok_or_else(|| WireError::Corrupt(format!("data location index {idx}")))
}

/// Bounds a count field so a corrupt header cannot request a huge
/// allocation before the payload runs out anyway.
fn checked_count(c: &Cursor<'_>, n: u32, min_bytes_each: usize) -> Result<usize, WireError> {
    let n = n as usize;
    if n.saturating_mul(min_bytes_each) > c.remaining() {
        return Err(WireError::Truncated);
    }
    Ok(n)
}

/// Decodes one configuration from the cursor, replaying its placement.
///
/// # Errors
///
/// [`WireError`] when the payload is truncated, an instruction word does
/// not decode, the replayed placement diverges from the recorded rows,
/// or the stored live-ins or write-backs are not the ones placement
/// derives (the encoder writes both in dense-index order).
pub fn decode_config(c: &mut Cursor<'_>) -> Result<Configuration, WireError> {
    let entry_pc = c.u32()?;
    let shape = read_shape(c)?;
    let mut config = Configuration::new(entry_pc, shape);

    let n_live_raw = c.u32()?;
    let n_live = checked_count(c, n_live_raw, 1)?;
    let live_ins = (0..n_live)
        .map(|_| read_loc(c))
        .collect::<Result<Vec<_>, _>>()?;
    let n_wb_raw = c.u32()?;
    let n_wb = checked_count(c, n_wb_raw, 2)?;
    let writebacks = (0..n_wb)
        .map(|_| Ok((read_loc(c)?, c.u8()?)))
        .collect::<Result<Vec<_>, WireError>>()?;
    let n_segments_raw = c.u32()?;
    let n_segments = checked_count(c, n_segments_raw, 6)?;
    for _ in 0..n_segments {
        let depth = c.u8()?;
        let exit_pc = c.u32()?;
        let branch = match c.u8()? {
            0 => None,
            1 => {
                let pc = c.u32()?;
                let word = c.u32()?;
                let inst = decode(word).map_err(|e| {
                    WireError::Corrupt(format!("branch word {word:#010x} at {pc:#x}: {e}"))
                })?;
                let predicted_taken = c.u8()? != 0;
                let taken_pc = c.u32()?;
                let fall_pc = c.u32()?;
                Some(SegmentBranch {
                    pc,
                    inst,
                    predicted_taken,
                    taken_pc,
                    fall_pc,
                })
            }
            other => return Err(WireError::Corrupt(format!("branch tag {other}"))),
        };
        let n_ops_raw = c.u32()?;
        let n_ops = checked_count(c, n_ops_raw, 12)?;
        for _ in 0..n_ops {
            let pc = c.u32()?;
            let word = c.u32()?;
            let row = c.u32()?;
            let inst = decode(word).map_err(|e| {
                WireError::Corrupt(format!("instruction word {word:#010x} at {pc:#x}: {e}"))
            })?;
            // Placement keeps the occupied rows contiguous from row 0, so
            // no op lands past the first free row. Checked before placing:
            // `place` grows the row table to the row it is given.
            if row as usize > config.rows_used() {
                return Err(WireError::Corrupt(format!(
                    "op at {pc:#x} in row {row} past the {} occupied rows",
                    config.rows_used()
                )));
            }
            let (placed_row, _) = config.place(pc, inst, depth, row as usize).map_err(|e| {
                WireError::Corrupt(format!("placement replay at {pc:#x} row {row}: {e}"))
            })?;
            if placed_row != row {
                return Err(WireError::Corrupt(format!(
                    "placement replay at {pc:#x}: row {placed_row} != recorded {row}"
                )));
            }
        }
        config.finish_segment(depth, branch, exit_pc);
    }
    let differs = |what: &str| {
        WireError::Corrupt(format!(
            "configuration at {entry_pc:#x}: stored {what} differ from the ones its ops derive"
        ))
    };
    if !live_ins.into_iter().eq(config.live_ins()) {
        return Err(differs("live-ins"));
    }
    if !writebacks.into_iter().eq(config.writebacks()) {
        return Err(differs("write-backs"));
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mips::{AluOp, Instruction, Reg};

    fn sample_config() -> Configuration {
        let mut c = Configuration::new(0x40_0000, ArrayShape::config2());
        let alu = |rd, rs, rt| Instruction::Alu {
            op: AluOp::Addu,
            rd,
            rs,
            rt,
        };
        c.place(0x40_0000, alu(Reg::T0, Reg::A0, Reg::A1), 0, 0)
            .unwrap();
        c.place(0x40_0004, alu(Reg::T1, Reg::T0, Reg::A1), 0, 1)
            .unwrap();
        let branch = Instruction::Branch {
            cond: dim_mips::BranchCond::Ne,
            rs: Reg::T1,
            rt: Reg::ZERO,
            offset: -3,
        };
        c.place(0x40_0008, branch, 0, 2).unwrap();
        c.finish_segment(
            0,
            Some(SegmentBranch {
                pc: 0x40_0008,
                inst: branch,
                predicted_taken: true,
                taken_pc: 0x40_0000,
                fall_pc: 0x40_000c,
            }),
            0x40_000c,
        );
        c.place(0x40_0000, alu(Reg::T2, Reg::T1, Reg::A0), 1, 3)
            .unwrap();
        c.finish_segment(1, None, 0x40_0004);
        c
    }

    #[test]
    fn config_roundtrips() {
        let config = sample_config();
        let mut bytes = Vec::new();
        encode_config(&config, &mut bytes);
        let mut cursor = Cursor::new(&bytes);
        let back = decode_config(&mut cursor).unwrap();
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(back, config);
    }

    /// The stored live-ins and write-backs must be the ones placement
    /// derives, in dense-index order.
    #[test]
    fn a_stored_interface_that_placement_does_not_derive_is_corrupt() {
        let mut extra_live_in = sample_config();
        extra_live_in.force_live_in(DataLoc::Gpr(Reg::S0));
        let mut missing_writeback = sample_config();
        missing_writeback.remove_writeback(DataLoc::Gpr(Reg::T1));
        let mut unwritten = sample_config();
        unwritten.force_writeback(DataLoc::Hi, u8::MAX);
        let mut deeper = sample_config();
        deeper.force_writeback(DataLoc::Gpr(Reg::T0), 1);
        let mut cases: Vec<Vec<u8>> = [extra_live_in, missing_writeback, unwritten, deeper]
            .iter()
            .map(|config| {
                let mut bytes = Vec::new();
                encode_config(config, &mut bytes);
                bytes
            })
            .collect();
        // The live-ins A0 and A1 (after the entry PC, the shape and the
        // count) stored in the other order.
        let mut swapped = Vec::new();
        encode_config(&sample_config(), &mut swapped);
        swapped.swap(56, 57);
        cases.push(swapped);
        for bytes in cases {
            match decode_config(&mut Cursor::new(&bytes)) {
                Err(WireError::Corrupt(what)) => {
                    assert!(what.contains("configuration at 0x400000"), "{what}");
                }
                other => panic!("a doctored interface decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let config = sample_config();
        let mut bytes = Vec::new();
        encode_config(&config, &mut bytes);
        for len in 0..bytes.len() {
            let mut cursor = Cursor::new(&bytes[..len]);
            assert!(
                decode_config(&mut cursor).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn corrupt_instruction_word_detected() {
        let config = sample_config();
        let mut bytes = Vec::new();
        encode_config(&config, &mut bytes);
        // Flip bits of an op's instruction word (shape + counts precede).
        let last4 = bytes.len() - 8; // ...[word][row] of the final op
        bytes[last4..last4 + 4].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
        let mut cursor = Cursor::new(&bytes);
        assert!(decode_config(&mut cursor).is_err());
    }

    #[test]
    fn fnv_distinguishes_flips() {
        let a = b"the quick brown fox";
        let mut b = a.to_vec();
        b[3] ^= 1;
        assert_ne!(fnv1a64(a), fnv1a64(&b));
    }
}
