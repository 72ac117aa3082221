//! The dense per-PC table behind the engine's PC-keyed state: the
//! reconfiguration cache's entries, the bimodal counters, the
//! misspeculation strikes and the translator's region memo.
//!
//! Text is fixed once a program is loaded, and every key these tables
//! see is the PC of a fetched instruction, so a slot per instruction
//! word indexed by `(pc - base) / 4` replaces a hash probe with a
//! subtraction, a shift and a bounds check. The span only grows to
//! cover the PCs actually inserted, to at most twice their range (see
//! [`PcTable::cover`]). A system inserts only PCs it fetched, and
//! `System::load_rcache` rejects snapshot PCs outside the loaded text,
//! so a system's tables are bounded by its text segment.

/// One optional value per 4-byte word from `base`, grown on insert to
/// cover every PC stored. A PC outside the span, or not word-aligned,
/// reads as absent; an absent slot is distinct from any stored value.
#[derive(Debug, Clone)]
pub(crate) struct PcTable<T> {
    base: u32,
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for PcTable<T> {
    fn default() -> PcTable<T> {
        PcTable {
            base: 0,
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> PcTable<T> {
    /// The slot `pc` would occupy, if it is on a word; whether the span
    /// reaches it is the caller's bounds check.
    #[inline]
    fn word(&self, pc: u32) -> Option<usize> {
        // `base` is word-aligned, so the offset's low bits are the PC's.
        let offset = pc.wrapping_sub(self.base);
        (offset & 3 == 0).then_some((offset >> 2) as usize)
    }

    /// The value stored at `pc`.
    #[inline]
    pub(crate) fn get(&self, pc: u32) -> Option<&T> {
        self.slots.get(self.word(pc)?)?.as_ref()
    }

    /// The value stored at `pc`, mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, pc: u32) -> Option<&mut T> {
        let word = self.word(pc)?;
        self.slots.get_mut(word)?.as_mut()
    }

    /// Number of stored values.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no value is stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value` at `pc`, returning the value it replaced.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not word-aligned: no instruction lives there.
    pub(crate) fn insert(&mut self, pc: u32, value: T) -> Option<T> {
        let index = self.cover(pc);
        let old = self.slots[index].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value at `pc`, storing `init()` there first if absent.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not word-aligned.
    #[inline]
    pub(crate) fn get_or_insert_with(&mut self, pc: u32, init: impl FnOnce() -> T) -> &mut T {
        let index = match self.word(pc) {
            Some(word) if word < self.slots.len() => word,
            _ => self.cover(pc),
        };
        let slot = &mut self.slots[index];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(init)
    }

    /// Removes and returns the value at `pc`.
    pub(crate) fn remove(&mut self, pc: u32) -> Option<T> {
        let word = self.word(pc)?;
        let old = self.slots.get_mut(word)?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The stored `(pc, value)` pairs in increasing PC order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> + '_ {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(index, slot)| {
                slot.as_ref().map(|value| (base + 4 * index as u32, value))
            })
    }

    /// Grows the span to cover `pc` and returns its slot index. Growing
    /// downwards adds at least the current span's length, so a run of
    /// ever-lower inserts shifts each slot amortized O(1) times, and the
    /// span stays within twice the range of PCs ever inserted; growing
    /// upwards rides on `Vec`'s own doubling.
    fn cover(&mut self, pc: u32) -> usize {
        assert!(pc.is_multiple_of(4), "PC {pc:#x} is not word-aligned");
        if self.slots.is_empty() {
            self.base = pc;
        } else if pc < self.base {
            let needed = ((self.base - pc) / 4) as usize;
            let grow = needed.max(self.slots.len()).min((self.base / 4) as usize);
            self.slots
                .splice(0..0, std::iter::repeat_with(|| None).take(grow));
            self.base -= 4 * grow as u32;
        }
        let index = ((pc - self.base) / 4) as usize;
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_outside_the_span_and_off_the_word() {
        let mut table = PcTable::default();
        assert_eq!(table.get(0x100), None, "empty");
        table.insert(0x100, 1);
        table.insert(0x10c, 2);
        for pc in [
            0x0,
            0xfc,
            0x104,
            0x108,
            0x110,
            0x101,
            0x102,
            0x10d,
            u32::MAX,
        ] {
            assert_eq!(table.get(pc), None, "{pc:#x}");
        }
        assert_eq!(table.get(0x100), Some(&1));
        assert_eq!(table.get(0x10c), Some(&2));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn growing_down_keeps_every_entry() {
        let mut table = PcTable::default();
        let pcs = [0x4000, 0x4010, 0x3ffc, 0x2000, 0x0, 0x8000, 0x1004];
        for (n, &pc) in pcs.iter().enumerate() {
            assert_eq!(table.insert(pc, n), None);
            for (m, &earlier) in pcs[..=n].iter().enumerate() {
                assert_eq!(table.get(earlier), Some(&m), "{earlier:#x} after {pc:#x}");
            }
        }
        let mut sorted: Vec<_> = pcs.iter().copied().enumerate().collect();
        sorted.sort_unstable_by_key(|&(_, pc)| pc);
        let listed: Vec<_> = table.iter().map(|(pc, &n)| (n, pc)).collect();
        assert_eq!(listed, sorted, "iteration is in PC order");
    }

    #[test]
    fn insert_remove_and_len_agree() {
        let mut table = PcTable::default();
        assert_eq!(table.insert(0x40, 'a'), None);
        assert_eq!(table.insert(0x40, 'b'), Some('a'));
        assert_eq!(table.len(), 1);
        *table.get_or_insert_with(0x48, || 'c') = 'd';
        assert_eq!(table.get(0x48), Some(&'d'));
        assert_eq!(*table.get_or_insert_with(0x48, || 'e'), 'd');
        assert_eq!(table.len(), 2);
        assert_eq!(table.remove(0x40), Some('b'));
        assert_eq!(table.remove(0x40), None);
        assert_eq!(table.remove(0x1000), None, "outside the span");
        assert_eq!(table.get(0x40), None);
        assert_eq!(table.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not word-aligned")]
    fn misaligned_insert_panics() {
        PcTable::default().insert(0x102, ());
    }
}
