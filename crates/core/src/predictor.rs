//! Bimodal branch prediction driving the speculation policy.
//!
//! The paper's speculative policy "is based on bimodal branch
//! prediction": a 2-bit saturating counter per branch. A basic block is
//! only speculated over once its branch counter saturates; a
//! configuration is flushed when the counter reaches the opposite
//! saturation point.

use crate::pctable::PcTable;

/// A 2-bit saturating counter state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// 0 — saturated not-taken.
    StrongNotTaken,
    /// 1.
    WeakNotTaken,
    /// 2.
    WeakTaken,
    /// 3 — saturated taken.
    StrongTaken,
}

impl Counter {
    fn update(self, taken: bool) -> Counter {
        use Counter::*;
        match (self, taken) {
            (StrongNotTaken, true) => WeakNotTaken,
            (WeakNotTaken, true) => WeakTaken,
            (WeakTaken, true) => StrongTaken,
            (StrongTaken, true) => StrongTaken,
            (StrongNotTaken, false) => StrongNotTaken,
            (WeakNotTaken, false) => StrongNotTaken,
            (WeakTaken, false) => WeakNotTaken,
            (StrongTaken, false) => WeakTaken,
        }
    }

    /// `Some(direction)` when the counter is saturated.
    pub fn saturated(self) -> Option<bool> {
        match self {
            Counter::StrongTaken => Some(true),
            Counter::StrongNotTaken => Some(false),
            _ => None,
        }
    }

    /// The 2-bit encoding used by the snapshot wire format.
    pub fn to_bits(self) -> u8 {
        match self {
            Counter::StrongNotTaken => 0,
            Counter::WeakNotTaken => 1,
            Counter::WeakTaken => 2,
            Counter::StrongTaken => 3,
        }
    }

    /// Inverse of [`to_bits`](Counter::to_bits); `None` above 3.
    pub fn from_bits(bits: u8) -> Option<Counter> {
        match bits {
            0 => Some(Counter::StrongNotTaken),
            1 => Some(Counter::WeakNotTaken),
            2 => Some(Counter::WeakTaken),
            3 => Some(Counter::StrongTaken),
            _ => None,
        }
    }
}

/// Table of per-branch 2-bit counters, keyed by branch PC.
///
/// Counters start at [`Counter::WeakNotTaken`], so a branch must go the
/// same way at least twice before the translator speculates across it.
/// They live in a dense table with one slot per instruction word; a
/// branch never updated has no slot, which keeps it out of
/// [`entries`](BimodalPredictor::entries) even though it reads as the
/// starting counter.
#[derive(Debug, Clone, Default)]
pub struct BimodalPredictor {
    counters: PcTable<Counter>,
}

impl BimodalPredictor {
    /// Creates an empty predictor.
    pub fn new() -> BimodalPredictor {
        BimodalPredictor::default()
    }

    /// Current counter for a branch (the starting counter for a PC
    /// never updated, or off the instruction words).
    pub fn counter(&self, pc: u32) -> Counter {
        self.counters
            .get(pc)
            .copied()
            .unwrap_or(Counter::WeakNotTaken)
    }

    /// Records one executed outcome (one indexed load).
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not word-aligned (no branch lives there).
    pub fn update(&mut self, pc: u32, taken: bool) {
        let counter = self
            .counters
            .get_or_insert_with(pc, || Counter::WeakNotTaken);
        *counter = counter.update(taken);
    }

    /// `Some(direction)` when the branch is saturated and safe to
    /// speculate over.
    pub fn saturated_direction(&self, pc: u32) -> Option<bool> {
        self.counter(pc).saturated()
    }

    /// Number of branches tracked.
    pub fn tracked_branches(&self) -> usize {
        self.counters.len()
    }

    /// All tracked `(branch PC, counter)` pairs, sorted by PC so the
    /// snapshot byte stream is deterministic.
    pub fn entries(&self) -> Vec<(u32, Counter)> {
        self.counters.iter().map(|(pc, &c)| (pc, c)).collect()
    }

    /// Restores one counter (snapshot warm-start path).
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not word-aligned.
    pub fn seed(&mut self, pc: u32, counter: Counter) {
        self.counters.insert(pc, counter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_after_two_takens() {
        let mut p = BimodalPredictor::new();
        assert_eq!(p.saturated_direction(8), None);
        p.update(8, true);
        assert_eq!(p.saturated_direction(8), None);
        p.update(8, true);
        assert_eq!(p.saturated_direction(8), Some(true));
        // Stays saturated.
        p.update(8, true);
        assert_eq!(p.counter(8), Counter::StrongTaken);
    }

    #[test]
    fn opposite_saturation_takes_hysteresis() {
        let mut p = BimodalPredictor::new();
        for _ in 0..5 {
            p.update(8, true);
        }
        p.update(8, false);
        assert_eq!(p.saturated_direction(8), None); // WeakTaken
        p.update(8, false);
        assert_eq!(p.saturated_direction(8), None); // WeakNotTaken
        p.update(8, false);
        assert_eq!(p.saturated_direction(8), Some(false));
    }

    #[test]
    fn branches_are_independent() {
        let mut p = BimodalPredictor::new();
        p.update(8, true);
        p.update(8, true);
        p.update(12, false);
        assert_eq!(p.saturated_direction(8), Some(true));
        assert_eq!(p.saturated_direction(12), Some(false));
        assert_eq!(p.tracked_branches(), 2);
    }

    /// PCs below, between and above the tracked branches, and PCs off
    /// the instruction words, read the starting counter; an update below
    /// the first tracked branch keeps every earlier counter.
    #[test]
    fn untracked_pcs_read_the_starting_counter() {
        let mut p = BimodalPredictor::new();
        p.update(0x1000, true);
        p.update(0x1000, true);
        p.update(0x1010, false);
        for pc in [0x0, 0xffc, 0x1004, 0x100c, 0x1014, 0x1001, 0x1012, u32::MAX] {
            assert_eq!(p.counter(pc), Counter::WeakNotTaken, "{pc:#x}");
            assert_eq!(p.saturated_direction(pc), None, "{pc:#x}");
        }
        p.update(0x10, false);
        assert_eq!(
            p.entries(),
            vec![
                (0x10, Counter::StrongNotTaken),
                (0x1000, Counter::StrongTaken),
                (0x1010, Counter::StrongNotTaken),
            ]
        );
        assert_eq!(p.tracked_branches(), 3);
    }

    /// A tracked branch back at the starting counter stays in the
    /// snapshot entries: absent and default are different states.
    #[test]
    fn tracked_branch_at_the_starting_counter_is_kept() {
        let mut p = BimodalPredictor::new();
        p.update(0x40, true);
        p.update(0x40, false);
        p.seed(0x80, Counter::WeakNotTaken);
        assert_eq!(
            p.entries(),
            vec![(0x40, Counter::WeakNotTaken), (0x80, Counter::WeakNotTaken)]
        );
        assert_eq!(p.tracked_branches(), 2);
    }
}
