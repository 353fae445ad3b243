//! Struct-of-lanes compare kernels for bit-parallel fault simulation.
//!
//! Classic fault simulators pack up to 64 concurrent faulty universes
//! into the bit lanes of machine words. Our behavioural component models
//! cannot be transposed that way (their per-universe control flow
//! diverges), so the lane batching lives one level up: the campaign
//! engine advances up to [`MAX_LANES`] cloned component universes
//! against **one** shared golden universe, and this module provides the
//! word-parallel golden-compare kernels that replace the per-injection
//! `*_arch_diff`-style scans at every check point.
//!
//! The contract mirrors the scalar path exactly: a lane "differs" iff
//! its [`BitBuf`] differs from the golden in at least one bit. The
//! kernels only *decide which lanes need the expensive per-bit benign
//! scan*; they never classify a difference themselves, so the scalar
//! engine remains the oracle.

use crate::BitBuf;

/// Maximum number of faulty universes per lane batch (bit lanes of `u64`).
pub const MAX_LANES: usize = 64;

/// A set of live lanes, one bit per lane (lane *i* ↔ bit *i*).
///
/// The campaign engine retires lanes independently — early termination,
/// divergence to the detailed scalar path — by clearing their bits; the
/// compare kernels skip retired lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LaneMask(u64);

impl LaneMask {
    /// The empty mask.
    pub const EMPTY: LaneMask = LaneMask(0);

    /// A mask with lanes `0..n` live.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_LANES`.
    pub fn full(n: usize) -> Self {
        assert!(n <= MAX_LANES, "lane count {n} > {MAX_LANES}");
        if n == MAX_LANES {
            LaneMask(u64::MAX)
        } else {
            LaneMask((1u64 << n) - 1)
        }
    }

    /// Marks lane `i` live.
    pub fn set(&mut self, i: usize) {
        assert!(i < MAX_LANES, "lane index {i} out of range");
        self.0 |= 1 << i;
    }

    /// Retires lane `i`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < MAX_LANES, "lane index {i} out of range");
        self.0 &= !(1 << i);
    }

    /// Returns `true` if lane `i` is live.
    pub fn contains(&self, i: usize) -> bool {
        i < MAX_LANES && (self.0 >> i) & 1 == 1
    }

    /// Returns `true` if any lane is live.
    pub fn any(&self) -> bool {
        self.0 != 0
    }

    /// Number of live lanes.
    pub fn count(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Live lane indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'static {
        let mut m = self.0;
        core::iter::from_fn(move || {
            if m == 0 {
                None
            } else {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                Some(i)
            }
        })
    }

    /// The raw lane bitset.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// Returns the set of live lanes whose flop state differs from `golden`
/// in at least one bit.
///
/// This is the lane-wise XOR golden compare: one word-parallel scan per
/// live lane with early exit on the first differing word, instead of a
/// full per-injection diff. Lanes absent from `live` (or with no buffer
/// in `lanes`) are skipped and never reported.
///
/// # Panics
///
/// Panics if a scanned lane's length differs from the golden's.
pub fn lanes_differing(golden: &BitBuf, lanes: &[&BitBuf], live: LaneMask) -> LaneMask {
    let g = golden.words();
    let mut differing = LaneMask::EMPTY;
    for i in live.iter() {
        let Some(lane) = lanes.get(i) else { continue };
        assert_eq!(
            lane.len(),
            golden.len(),
            "lane {i}: diffing buffers of unequal length"
        );
        if lane.words() != g {
            differing.set(i);
        }
    }
    differing
}

/// Word-parallel equality against the golden for a single lane buffer.
///
/// Equivalent to `lane == golden` but exposed alongside
/// [`lanes_differing`] so callers on the batched path never fall back to
/// bit-granular comparison for the cheap "did anything change" test.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn lane_matches_golden(golden: &BitBuf, lane: &BitBuf) -> bool {
    assert_eq!(
        lane.len(),
        golden.len(),
        "diffing buffers of unequal length"
    );
    lane.words().iter().zip(golden.words()).all(|(a, b)| a == b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mask_counts_and_iterates() {
        let m = LaneMask::full(5);
        assert_eq!(m.count(), 5);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert!(m.contains(4));
        assert!(!m.contains(5));
        assert_eq!(LaneMask::full(MAX_LANES).count(), MAX_LANES);
        assert!(!LaneMask::full(0).any());
    }

    #[test]
    fn set_clear_round_trip() {
        let mut m = LaneMask::EMPTY;
        m.set(63);
        m.set(0);
        assert_eq!(m.count(), 2);
        m.clear(63);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0]);
        m.clear(0);
        assert!(!m.any());
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn oversized_mask_panics() {
        let _ = LaneMask::full(65);
    }

    #[test]
    fn differing_lanes_reported_exactly() {
        let golden = BitBuf::zeroed(200);
        let mut a = golden.clone(); // stays equal
        let mut b = golden.clone();
        b.flip(0); // first word
        let mut c = golden.clone();
        c.flip(199); // last word
        a.flip(64);
        a.flip(64); // flip twice → equal again
        let lanes = [&a, &b, &c];
        let d = lanes_differing(&golden, &lanes, LaneMask::full(3));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn retired_lanes_are_skipped() {
        let golden = BitBuf::zeroed(64);
        let mut dirty = golden.clone();
        dirty.flip(3);
        let lanes = [&dirty, &dirty];
        let mut live = LaneMask::full(2);
        live.clear(0);
        let d = lanes_differing(&golden, &lanes, live);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn live_mask_wider_than_lane_slice_is_tolerated() {
        let golden = BitBuf::zeroed(64);
        let mut dirty = golden.clone();
        dirty.flip(1);
        let lanes = [&dirty];
        let d = lanes_differing(&golden, &lanes, LaneMask::full(8));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn lane_matches_golden_agrees_with_eq() {
        let golden = BitBuf::zeroed(130);
        let mut lane = golden.clone();
        assert!(lane_matches_golden(&golden, &lane));
        lane.flip(129);
        assert!(!lane_matches_golden(&golden, &lane));
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn length_mismatch_panics() {
        let golden = BitBuf::zeroed(64);
        let lane = BitBuf::zeroed(65);
        let _ = lanes_differing(&golden, &[&lane], LaneMask::full(1));
    }
}
