//! Deterministic seed derivation and a small splittable PRNG.
//!
//! Every random choice in a campaign (injection cycle, target flip-flop,
//! warm-up length, …) is derived from a single campaign seed through
//! [`SeedSeq`], so experiments are bit-for-bit reproducible and can be
//! sharded across worker threads without coordination.

/// SplitMix64 step: mixes `state + GOLDEN_GAMMA` into a 64-bit output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes a label into a 64-bit stream discriminator.
fn label_hash(label: &str) -> u64 {
    // FNV-1a, adequate for stream separation.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic, splittable seed sequence.
///
/// # Examples
///
/// ```
/// use nestsim_stats::SeedSeq;
///
/// let root = SeedSeq::new(42);
/// let a = root.derive("campaign.l2c").derive_index(7);
/// let b = root.derive("campaign.l2c").derive_index(7);
/// assert_eq!(a.seed(), b.seed()); // reproducible
/// assert_ne!(a.seed(), root.derive("campaign.mcu").derive_index(7).seed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedSeq {
    seed: u64,
}

impl SeedSeq {
    /// Creates a root sequence from a campaign seed.
    pub const fn new(seed: u64) -> Self {
        SeedSeq { seed }
    }

    /// The raw seed value.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives a child sequence for a named stream.
    #[must_use]
    pub fn derive(&self, label: &str) -> SeedSeq {
        let mut s = self.seed ^ label_hash(label);
        SeedSeq {
            seed: splitmix64(&mut s),
        }
    }

    /// Derives a child sequence for an indexed stream (e.g. run number).
    #[must_use]
    pub fn derive_index(&self, index: u64) -> SeedSeq {
        let mut s = self.seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f);
        SeedSeq {
            seed: splitmix64(&mut s),
        }
    }

    /// Creates a PRNG seeded from this sequence.
    pub fn rng(&self) -> SplitRng {
        SplitRng { state: self.seed }
    }
}

/// A minimal SplitMix64-based PRNG.
///
/// Not cryptographic; used only for reproducible experiment sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitRng {
    state: u64,
}

impl SplitRng {
    /// Creates a PRNG from a raw seed.
    pub const fn new(seed: u64) -> Self {
        SplitRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// XORs `mask` into the generator state (soft-error injection into
    /// the modeled program's control state; every subsequent draw
    /// changes).
    pub fn xor_state(&mut self, mask: u64) {
        self.state ^= mask;
    }

    /// Uniform value in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Widening-multiply rejection sampling.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "picking from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        let r = SeedSeq::new(1);
        assert_eq!(r.derive("a").seed(), r.derive("a").seed());
        assert_ne!(r.derive("a").seed(), r.derive("b").seed());
        assert_ne!(r.derive_index(0).seed(), r.derive_index(1).seed());
    }

    #[test]
    fn rng_below_is_in_range_and_covers() {
        let mut rng = SeedSeq::new(7).rng();
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rng_range_bounds() {
        let mut rng = SeedSeq::new(9).rng();
        for _ in 0..1000 {
            let v = rng.range(100, 110);
            assert!((100..110).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = SeedSeq::new(3).rng();
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn pick_returns_member() {
        let xs = [10, 20, 30];
        let mut rng = SeedSeq::new(5).rng();
        for _ in 0..100 {
            assert!(xs.contains(rng.pick(&xs)));
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_bound_panics() {
        let mut rng = SplitRng::new(0);
        let _ = rng.below(0);
    }
}
