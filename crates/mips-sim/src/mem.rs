//! Sparse paged byte-addressable memory.

use crate::SimError;
use std::fmt;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
const OFFSET_MASK: u32 = (PAGE_SIZE as u32) - 1;
/// Pages per second-level table: the address's bits 12..22.
const TABLE_BITS: u32 = 10;
const TABLE_LEN: usize = 1 << TABLE_BITS;
const TABLE_MASK: u32 = (TABLE_LEN as u32) - 1;
/// Second-level tables in the directory: the address's top 10 bits.
const DIR_LEN: usize = 1 << (32 - PAGE_BITS - TABLE_BITS);

type Page = [u8; PAGE_SIZE];
/// One directory entry's 4 MiB: a slot per 4 KiB page.
type PageTable = [Option<Box<Page>>; TABLE_LEN];

/// A sparse 32-bit little-endian memory.
///
/// Pages are allocated on first touch; reads of untouched memory return
/// zero, mirroring an initialized SRAM image. Word and halfword accesses
/// must be naturally aligned (the R3000 traps on unaligned accesses).
///
/// Pages are found through a two-level table, as an MMU walks one: the
/// top 10 address bits pick one of 1024 directory entries, the next 10
/// one of that entry's 1024 pages. A second-level table is allocated
/// when its first page is, so an access costs two indexed loads and no
/// hashing.
///
/// ```
/// use dim_mips_sim::Memory;
/// let mut mem = Memory::new();
/// mem.write_u32(0x1000_0000, 0xdead_beef)?;
/// assert_eq!(mem.read_u32(0x1000_0000)?, 0xdead_beef);
/// assert_eq!(mem.read_u8(0x1000_0000), 0xef); // little-endian
/// # Ok::<(), dim_mips_sim::SimError>(())
/// ```
#[derive(Clone)]
pub struct Memory {
    dir: Box<[Option<Box<PageTable>>; DIR_LEN]>,
    resident: usize,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            dir: Box::new([const { None }; DIR_LEN]),
            resident: 0,
        }
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("resident_pages", &self.resident)
            .finish_non_exhaustive()
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn page(&self, addr: u32) -> Option<&Page> {
        let table = self.dir[(addr >> (PAGE_BITS + TABLE_BITS)) as usize].as_deref()?;
        table[((addr >> PAGE_BITS) & TABLE_MASK) as usize].as_deref()
    }

    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let table = self.dir[(addr >> (PAGE_BITS + TABLE_BITS)) as usize]
            .get_or_insert_with(|| Box::new([const { None }; TABLE_LEN]));
        let slot = &mut table[((addr >> PAGE_BITS) & TABLE_MASK) as usize];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.page(addr)
            .map_or(0, |p| p[(addr & OFFSET_MASK) as usize])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads a halfword.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] if `addr` is not 2-byte aligned.
    pub fn read_u16(&self, addr: u32) -> Result<u16, SimError> {
        self.check_align(addr, 2)?;
        // Aligned halfwords never straddle a page.
        let off = (addr & OFFSET_MASK) as usize;
        Ok(self
            .page(addr)
            .map_or(0, |p| u16::from_le_bytes([p[off], p[off + 1]])))
    }

    /// Writes a halfword.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] if `addr` is not 2-byte aligned.
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), SimError> {
        self.check_align(addr, 2)?;
        let off = (addr & OFFSET_MASK) as usize;
        self.page_mut(addr)[off..off + 2].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads a word.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] if `addr` is not 4-byte aligned.
    pub fn read_u32(&self, addr: u32) -> Result<u32, SimError> {
        self.check_align(addr, 4)?;
        // Aligned words never straddle a page.
        let off = (addr & OFFSET_MASK) as usize;
        Ok(self.page(addr).map_or(0, |p| {
            u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]])
        }))
    }

    /// Writes a word.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] if `addr` is not 4-byte aligned.
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        self.check_align(addr, 4)?;
        let off = (addr & OFFSET_MASK) as usize;
        self.page_mut(addr)[off..off + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    fn check_align(&self, addr: u32, width: u32) -> Result<(), SimError> {
        if !addr.is_multiple_of(width) {
            Err(SimError::Misaligned { addr, width })
        } else {
            Ok(())
        }
    }

    /// Copies a byte slice into memory starting at `addr` (wrapping
    /// past the top of the address space), one page at a time.
    pub fn write_bytes(&mut self, mut addr: u32, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr & OFFSET_MASK) as usize;
            let n = (PAGE_SIZE - off).min(bytes.len());
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
            addr = addr.wrapping_add(n as u32);
            bytes = &bytes[n..];
        }
    }

    /// Reads `len` bytes starting at `addr` (wrapping past the top of
    /// the address space), one page at a time.
    pub fn read_bytes(&self, mut addr: u32, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let off = (addr & OFFSET_MASK) as usize;
            let n = (PAGE_SIZE - off).min(len - out.len());
            match self.page(addr) {
                Some(p) => out.extend_from_slice(&p[off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
            addr = addr.wrapping_add(n as u32);
        }
        out
    }

    /// Reads a NUL-terminated string starting at `addr` (at most `max`
    /// bytes; lossy UTF-8).
    pub fn read_cstr(&self, addr: u32, max: usize) -> String {
        let mut out = Vec::new();
        for i in 0..max {
            let b = self.read_u8(addr.wrapping_add(i as u32));
            if b == 0 {
                break;
            }
            out.push(b);
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    /// Number of resident pages (for footprint diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let mem = Memory::new();
        assert_eq!(mem.read_u8(0x1234), 0);
        assert_eq!(mem.read_u32(0x1000).unwrap(), 0);
    }

    #[test]
    fn little_endian_word() {
        let mut mem = Memory::new();
        mem.write_u32(0x100, 0x0102_0304).unwrap();
        assert_eq!(mem.read_u8(0x100), 0x04);
        assert_eq!(mem.read_u8(0x103), 0x01);
        assert_eq!(mem.read_u16(0x100).unwrap(), 0x0304);
        assert_eq!(mem.read_u16(0x102).unwrap(), 0x0102);
    }

    #[test]
    fn misaligned_rejected() {
        let mut mem = Memory::new();
        assert!(matches!(
            mem.read_u32(0x101),
            Err(SimError::Misaligned { .. })
        ));
        assert!(matches!(
            mem.read_u16(0x101),
            Err(SimError::Misaligned { .. })
        ));
        assert!(matches!(
            mem.write_u32(0x102, 0),
            Err(SimError::Misaligned { .. })
        ));
        assert!(mem.write_u16(0x102, 0).is_ok());
    }

    #[test]
    fn cross_page_bytes() {
        let mut mem = Memory::new();
        let boundary = 0x2000 - 2;
        mem.write_bytes(boundary, &[1, 2, 3, 4]);
        assert_eq!(mem.read_bytes(boundary, 4), vec![1, 2, 3, 4]);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn cstr_reading() {
        let mut mem = Memory::new();
        mem.write_bytes(0x500, b"hello\0world");
        assert_eq!(mem.read_cstr(0x500, 64), "hello");
        assert_eq!(mem.read_cstr(0x500, 3), "hel");
    }
}
