//! The value source handed to every property: a logged stream of raw
//! 64-bit choices.
//!
//! Every generated value is a pure, monotone function of the raw draws,
//! so the runner can (a) replay a failing case from its recorded choice
//! sequence and (b) *shrink* by editing that sequence — zeroing or
//! halving draws always moves the generated values toward their minimal
//! form (empty collections, zero integers, range lower bounds).

use crate::rng::HarnessRng;

/// Where raw draws come from: a fresh PRNG for generation, or a recorded
/// choice sequence for replay/shrinking (exhausted entries read as 0,
/// which maps every generator to its minimal value).
enum Draws {
    Fresh(HarnessRng),
    Replay(Vec<u64>),
}

/// The value source passed to a property body.
pub struct Source {
    draws: Draws,
    idx: usize,
    log: Vec<u64>,
}

impl Source {
    /// A source drawing fresh values from `seed`.
    pub fn fresh(seed: u64) -> Self {
        Source {
            draws: Draws::Fresh(HarnessRng::new(seed)),
            idx: 0,
            log: Vec::new(),
        }
    }

    /// A source replaying a recorded choice sequence.
    pub fn replay(choices: Vec<u64>) -> Self {
        Source {
            draws: Draws::Replay(choices),
            idx: 0,
            log: Vec::new(),
        }
    }

    /// The choices consumed so far (the shrinker edits this).
    pub fn log(&self) -> &[u64] {
        &self.log
    }

    fn draw(&mut self) -> u64 {
        let v = match &mut self.draws {
            Draws::Fresh(rng) => rng.next_u64(),
            Draws::Replay(cs) => cs.get(self.idx).copied().unwrap_or(0),
        };
        self.idx += 1;
        self.log.push(v);
        v
    }

    // ── scalar generators ──────────────────────────────────────────

    /// A uniform `u64`.
    pub fn u64(&mut self) -> u64 {
        self.draw()
    }

    /// A uniform `u8`.
    pub fn u8(&mut self) -> u8 {
        self.draw() as u8
    }

    /// A uniform `bool` (a zero draw is `false`).
    pub fn bool(&mut self) -> bool {
        self.draw() & 1 == 1
    }

    /// A uniform value in `[0, bound)`; a zero draw yields 0.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.draw() % bound
    }

    /// A uniform `u64` in `[lo, hi)`; a zero draw yields `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// A uniform `usize` in `[lo, hi)`; a zero draw yields `lo`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniform `usize` in `[lo, hi]` (inclusive).
    pub fn range_usize_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64 + 1) as usize
    }

    /// A uniform index into a collection of `len` elements
    /// (the analogue of proptest's `sample::Index`).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    // ── composite generators ───────────────────────────────────────

    /// A `Vec` whose length is uniform in `[min_len, max_len)` and whose
    /// elements come from `gen`.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut gen: impl FnMut(&mut Source) -> T,
    ) -> Vec<T> {
        let n = self.range_usize(min_len, max_len);
        (0..n).map(|_| gen(self)).collect()
    }

    /// A set of distinct values from `gen`, of size in `[min_len,
    /// max_len)` — capped below `min_len` if `gen`'s domain is too small
    /// to yield enough distinct values.
    pub fn distinct_vec<T: Ord>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut gen: impl FnMut(&mut Source) -> T,
    ) -> Vec<T> {
        let n = self.range_usize(min_len, max_len);
        let mut out: Vec<T> = Vec::with_capacity(n);
        // Bounded retry keeps shrinking/replay terminating even when the
        // domain is smaller than the requested size.
        let mut attempts = 0;
        while out.len() < n && attempts < n * 16 {
            attempts += 1;
            let v = gen(self);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// An ASCII-lowercase string with length uniform in `[min_len,
    /// max_len]`.
    pub fn lowercase_string(&mut self, min_len: usize, max_len: usize) -> String {
        let n = self.range_usize_inclusive(min_len, max_len);
        (0..n)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_is_deterministic_per_seed() {
        let mut a = Source::fresh(42);
        let mut b = Source::fresh(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn replay_reproduces_log() {
        let mut orig = Source::fresh(7);
        let vals: Vec<u64> = (0..20).map(|_| orig.range_u64(5, 500)).collect();
        let mut replayed = Source::replay(orig.log().to_vec());
        let again: Vec<u64> = (0..20).map(|_| replayed.range_u64(5, 500)).collect();
        assert_eq!(vals, again);
    }

    #[test]
    fn exhausted_replay_yields_minimal_values() {
        let mut s = Source::replay(Vec::new());
        assert_eq!(s.range_u64(3, 9), 3);
        assert!(!s.bool());
        assert_eq!(s.vec(0, 10, |s| s.u64()), Vec::<u64>::new());
    }

    #[test]
    fn distinct_vec_is_distinct_and_bounded() {
        let mut s = Source::fresh(3);
        let v = s.distinct_vec(1, 30, |s| s.below(512) as usize);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), v.len());
        assert!(v.len() < 30);
    }
}
