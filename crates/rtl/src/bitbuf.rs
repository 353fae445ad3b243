//! Dense bit vectors backing flop state.

const WORD_BITS: usize = 64;

/// A fixed-length dense bit vector stored in 64-bit words.
///
/// `BitBuf` is the raw storage behind a [`FlopSpace`](crate::FlopSpace):
/// one bit per flip-flop. It supports the operations the mixed-mode
/// platform needs on every co-simulation cycle: word-range reads/writes,
/// single-bit flips (error injection), and fast diffing against a golden
/// copy.
///
/// # Examples
///
/// ```
/// use nestsim_rtl::BitBuf;
///
/// let mut target = BitBuf::zeroed(128);
/// let golden = target.clone();
/// target.write_bits(40, 16, 0xbeef);
/// target.flip(100); // inject a soft error
/// assert_eq!(target.read_bits(40, 16), 0xbeef);
/// assert_eq!(target.diff_count(&golden), 14); // 13 set data bits + 1 flip
/// ```
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct BitBuf {
    words: Vec<u64>,
    len: usize,
}

// Hand-written so that `clone_from` copies into the words it holds.
impl Clone for BitBuf {
    fn clone(&self) -> Self {
        BitBuf {
            words: self.words.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl BitBuf {
    /// Creates an all-zero buffer of `len` bits.
    pub fn zeroed(len: usize) -> Self {
        BitBuf {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the buffer holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let m = 1u64 << (i % WORD_BITS);
        if v {
            *w |= m;
        } else {
            *w &= !m;
        }
    }

    /// Inverts bit `i` (the error-injection primitive).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
    }

    /// Reads `width` bits starting at `offset` as a little-endian word.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the range exceeds the buffer.
    #[inline]
    pub fn read_bits(&self, offset: usize, width: usize) -> u64 {
        assert!(width <= 64, "field width {width} > 64");
        assert!(offset + width <= self.len, "range out of bounds");
        if width == 0 {
            return 0;
        }
        let w0 = offset / WORD_BITS;
        let shift = offset % WORD_BITS;
        let mut v = self.words[w0] >> shift;
        if shift + width > WORD_BITS {
            v |= self.words[w0 + 1] << (WORD_BITS - shift);
        }
        if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        }
    }

    /// Writes the low `width` bits of `value` starting at `offset` and
    /// returns whether any bit of the buffer changed.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the range exceeds the buffer.
    #[inline]
    pub fn write_bits(&mut self, offset: usize, width: usize, value: u64) -> bool {
        assert!(width <= 64, "field width {width} > 64");
        assert!(offset + width <= self.len, "range out of bounds");
        if width == 0 {
            return false;
        }
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let value = value & mask;
        let w0 = offset / WORD_BITS;
        let shift = offset % WORD_BITS;
        let lo = (self.words[w0] & !(mask << shift)) | (value << shift);
        let mut changed = lo != self.words[w0];
        self.words[w0] = lo;
        if shift + width > WORD_BITS {
            let hi_bits = shift + width - WORD_BITS;
            let hi_mask = (1u64 << hi_bits) - 1;
            let hi = (self.words[w0 + 1] & !hi_mask) | ((value >> (WORD_BITS - shift)) & hi_mask);
            changed |= hi != self.words[w0 + 1];
            self.words[w0 + 1] = hi;
        }
        changed
    }

    /// Reads `width <= 192` bits starting at `offset` as little-endian
    /// words, bits at and above `width` zero: a whole packet slot in one
    /// pass over the (at most four) words it lies in.
    ///
    /// # Panics
    ///
    /// Panics if `width > 192` or the range exceeds the buffer.
    #[inline]
    pub fn read_span(&self, offset: usize, width: usize) -> [u64; 3] {
        assert!(width <= 3 * WORD_BITS, "span width {width} > 192");
        assert!(offset + width <= self.len, "range out of bounds");
        let shift = offset % WORD_BITS;
        let src = &self.words[offset / WORD_BITS..(offset + width).div_ceil(WORD_BITS)];
        let word = |i: usize| src.get(i).copied().unwrap_or(0);
        core::array::from_fn(|i| {
            let lo = word(i) >> shift;
            let v = if shift == 0 {
                lo
            } else {
                lo | word(i + 1) << (WORD_BITS - shift)
            };
            match width.saturating_sub(i * WORD_BITS) {
                0 => 0,
                n if n >= WORD_BITS => v,
                n => v & ((1u64 << n) - 1),
            }
        })
    }

    /// Writes the low `width <= 192` bits of `value` starting at
    /// `offset`, one read-modify-write per word touched, and returns
    /// whether any bit of the buffer changed.
    ///
    /// # Panics
    ///
    /// Panics if `width > 192` or the range exceeds the buffer.
    #[inline]
    pub fn write_span(&mut self, offset: usize, width: usize, value: [u64; 3]) -> bool {
        assert!(width <= 3 * WORD_BITS, "span width {width} > 192");
        assert!(offset + width <= self.len, "range out of bounds");
        if width == 0 {
            return false;
        }
        let (w0, shift) = (offset / WORD_BITS, offset % WORD_BITS);
        let end = offset + width;
        let val = |i: usize| value.get(i).copied().unwrap_or(0);
        let mut changed = false;
        for (j, w) in self.words[w0..end.div_ceil(WORD_BITS)]
            .iter_mut()
            .enumerate()
        {
            // Bits `lo..hi` of this word belong to the span.
            let lo = if j == 0 { shift } else { 0 };
            let hi = (end - (w0 + j) * WORD_BITS).min(WORD_BITS);
            let mask = (u64::MAX >> (WORD_BITS - (hi - lo))) << lo;
            let bits = if shift == 0 {
                val(j)
            } else if j == 0 {
                val(0) << shift
            } else {
                val(j - 1) >> (WORD_BITS - shift) | val(j) << shift
            };
            let merged = (*w & !mask) | (bits & mask);
            changed |= merged != *w;
            *w = merged;
        }
        changed
    }

    /// Moves the `width` bits starting at `src` down to `dst` (`dst <=
    /// src`; the ranges may overlap) and returns whether any bit of the
    /// buffer changed. Bits outside `[dst, dst + width)` keep their
    /// values — the source bits above the destination range included,
    /// which a shifting queue then zeroes as its vacated tail.
    ///
    /// One store per destination word, each fed by a two-word funnel
    /// read: a queue pop costs its length in words, not a read and a
    /// write per field.
    ///
    /// # Panics
    ///
    /// Panics if `dst > src` or the source range exceeds the buffer.
    pub fn move_down(&mut self, src: usize, dst: usize, width: usize) -> bool {
        assert!(dst <= src, "move_down moves towards bit 0");
        assert!(src + width <= self.len, "range out of bounds");
        let delta = src - dst;
        if delta == 0 {
            return false;
        }
        let end = dst + width;
        let mut changed = false;
        let mut d = dst;
        // Ascending, so every read is of a bit no store has reached yet.
        while d < end {
            let lo = d % WORD_BITS;
            let n = (WORD_BITS - lo).min(end - d);
            let (sw, sh) = ((d + delta) / WORD_BITS, (d + delta) % WORD_BITS);
            let mut v = self.words[sw] >> sh;
            if sh + n > WORD_BITS {
                v |= self.words[sw + 1] << (WORD_BITS - sh);
            }
            let mask = (u64::MAX >> (WORD_BITS - n)) << lo;
            let w = &mut self.words[d / WORD_BITS];
            let moved = (*w & !mask) | ((v << lo) & mask);
            changed |= moved != *w;
            *w = moved;
            d += n;
        }
        changed
    }

    /// The backing 64-bit words, least-significant bit first.
    ///
    /// Trailing bits beyond [`len`](Self::len) in the last word are
    /// always zero, so word-wise XOR against another buffer of the same
    /// length is an exact bit-difference test. This is the raw view the
    /// lane-batched compare kernels ([`crate::lanes`]) operate on.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bit positions at which `self` and `other` differ.
    ///
    /// Four-way unrolled so the popcount reduction vectorizes; the flop
    /// spaces diffed on every co-simulation check are tens of kilobits,
    /// making this the hottest bitbuf kernel (`diff_count_32k`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn diff_count(&self, other: &BitBuf) -> usize {
        assert_eq!(self.len, other.len, "diffing buffers of unequal length");
        let mut acc = [0u64; 4];
        let a4 = self.words.chunks_exact(4);
        let b4 = other.words.chunks_exact(4);
        let tail: usize = a4
            .remainder()
            .iter()
            .zip(b4.remainder())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        for (a, b) in a4.zip(b4) {
            acc[0] += u64::from((a[0] ^ b[0]).count_ones());
            acc[1] += u64::from((a[1] ^ b[1]).count_ones());
            acc[2] += u64::from((a[2] ^ b[2]).count_ones());
            acc[3] += u64::from((a[3] ^ b[3]).count_ones());
        }
        (acc[0] + acc[1] + acc[2] + acc[3]) as usize + tail
    }

    /// Iterates over the bit indices at which `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn diff_bits<'a>(&'a self, other: &'a BitBuf) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.len, other.len, "diffing buffers of unequal length");
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(move |(wi, (a, b))| {
                let mut x = a ^ b;
                core::iter::from_fn(move || {
                    if x == 0 {
                        None
                    } else {
                        let tz = x.trailing_zeros() as usize;
                        x &= x - 1;
                        Some(wi * WORD_BITS + tz)
                    }
                })
            })
            .filter(move |&i| i < self.len)
    }

    /// Sets every bit to zero.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_flip_round_trip() {
        let mut b = BitBuf::zeroed(130);
        assert!(!b.get(129));
        b.set(129, true);
        assert!(b.get(129));
        b.flip(129);
        assert!(!b.get(129));
        b.flip(0);
        assert!(b.get(0));
    }

    #[test]
    fn read_write_bits_within_word() {
        let mut b = BitBuf::zeroed(64);
        b.write_bits(4, 8, 0xab);
        assert_eq!(b.read_bits(4, 8), 0xab);
        assert_eq!(b.read_bits(0, 4), 0);
        assert_eq!(b.read_bits(12, 4), 0);
    }

    #[test]
    fn read_write_bits_across_word_boundary() {
        let mut b = BitBuf::zeroed(200);
        b.write_bits(60, 16, 0xbeef);
        assert_eq!(b.read_bits(60, 16), 0xbeef);
        // Neighbours untouched.
        assert_eq!(b.read_bits(44, 16), 0);
        assert_eq!(b.read_bits(76, 16), 0);
    }

    #[test]
    fn write_full_width_64() {
        let mut b = BitBuf::zeroed(128);
        b.write_bits(32, 64, u64::MAX);
        assert_eq!(b.read_bits(32, 64), u64::MAX);
        assert_eq!(b.read_bits(0, 32), 0);
        assert_eq!(b.read_bits(96, 32), 0);
    }

    #[test]
    fn write_masks_excess_value_bits() {
        let mut b = BitBuf::zeroed(32);
        b.write_bits(8, 4, 0xff);
        assert_eq!(b.read_bits(8, 4), 0xf);
        assert_eq!(b.read_bits(12, 4), 0);
    }

    #[test]
    fn write_bits_reports_a_real_change_only() {
        let mut b = BitBuf::zeroed(200);
        assert!(!b.write_bits(10, 0, 1), "zero width");
        assert!(!b.write_bits(10, 20, 0), "zeros over zeros");
        assert!(b.write_bits(60, 16, 0xbeef));
        assert!(!b.write_bits(60, 16, 0xbeef), "same value again");
        assert!(
            !b.write_bits(60, 16, 0xf_beef),
            "masked-off bits do not count"
        );
        assert!(b.write_bits(60, 16, 0x3eef), "only the high word differs");
        assert!(b.write_bits(60, 16, 0x3eee), "only the low word differs");
    }

    /// `move_down` one bit at a time. Ascending order reads every
    /// source bit before a store can reach it.
    fn move_down_by_bit(b: &mut BitBuf, src: usize, dst: usize, width: usize) -> bool {
        let before = b.clone();
        for i in 0..width {
            let v = b.get(src + i);
            b.set(dst + i, v);
        }
        *b != before
    }

    #[test]
    fn move_down_matches_the_bit_by_bit_model() {
        const LEN: usize = 333;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Every pairing of destination alignment (word-aligned or not),
        // shift distance (under, at and over a word) and width (empty,
        // one bit, around one and two words, up to the buffer's end) ...
        let mut cases = Vec::new();
        for dst in [0, 1, 5, 63, 64, 65, 100, 128, 192] {
            for delta in [0, 1, 7, 63, 64, 65, 100, 128, 139] {
                let src = dst + delta;
                let room = LEN.saturating_sub(src);
                for width in [0, 1, 2, 63, 64, 65, 127, 128, 129, room] {
                    if src + width <= LEN {
                        cases.push((src, dst, width));
                    }
                }
            }
        }
        // ... and random triples on top.
        for _ in 0..2_000 {
            let dst = next() as usize % LEN;
            let src = dst + next() as usize % (LEN - dst);
            cases.push((src, dst, next() as usize % (LEN - src + 1)));
        }
        let (mut moved, mut unmoved) = (0, 0);
        for (case, &(src, dst, width)) in cases.iter().enumerate() {
            let mut got = BitBuf::zeroed(LEN);
            // Every fourth case moves zeros or a constant run, so moves
            // that change nothing occur with non-trivial geometry too.
            match case % 4 {
                0 => {}
                1 => (0..LEN).for_each(|i| got.set(i, true)),
                _ => (0..LEN).for_each(|i| got.set(i, next() & 1 == 1)),
            }
            let mut want = got.clone();
            let changed = got.move_down(src, dst, width);
            assert_eq!(
                changed,
                move_down_by_bit(&mut want, src, dst, width),
                "changed flag, src {src} dst {dst} width {width}"
            );
            assert_eq!(got, want, "src {src} dst {dst} width {width}");
            if changed {
                moved += 1;
            } else {
                unmoved += 1;
            }
        }
        assert!(moved > 1_000 && unmoved > 500, "{moved} / {unmoved}");
    }

    #[test]
    fn spans_match_the_bit_by_bit_model() {
        const LEN: usize = 333;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut cases = Vec::new();
        for offset in [0, 1, 5, 63, 64, 65, 100, 128, 141] {
            for width in [0, 1, 2, 63, 64, 65, 106, 127, 128, 129, 139, 191, 192] {
                cases.push((offset, width));
            }
        }
        for _ in 0..2_000 {
            let offset = next() as usize % LEN;
            cases.push((offset, next() as usize % (LEN - offset + 1).min(193)));
        }
        let (mut changed, mut unchanged) = (0, 0);
        for (case, &(offset, width)) in cases.iter().enumerate() {
            let mut buf = BitBuf::zeroed(LEN);
            (0..LEN).for_each(|i| buf.set(i, next() & 1 == 1));

            let got = buf.read_span(offset, width);
            for bit in 0..192 {
                let want = bit < width && buf.get(offset + bit);
                assert_eq!(
                    (got[bit / 64] >> (bit % 64)) & 1 == 1,
                    want,
                    "read, offset {offset} width {width} bit {bit}"
                );
            }

            // Every third case rewrites what is there (excess bits of
            // the value set), so a write that changes nothing occurs.
            let mut value = [next(), next(), next()];
            if case % 3 == 0 {
                value = got;
                (width..192).for_each(|bit| value[bit / 64] |= 1 << (bit % 64));
            }
            let before = buf.clone();
            let mut want = buf.clone();
            for bit in 0..width {
                want.set(offset + bit, (value[bit / 64] >> (bit % 64)) & 1 == 1);
            }
            let flag = buf.write_span(offset, width, value);
            assert_eq!(buf, want, "write, offset {offset} width {width}");
            assert_eq!(flag, buf != before, "changed flag");
            if flag {
                changed += 1;
            } else {
                unchanged += 1;
            }
        }
        assert!(
            changed > 1_000 && unchanged > 500,
            "{changed} / {unchanged}"
        );
    }

    #[test]
    #[should_panic(expected = "towards bit 0")]
    fn move_down_rejects_an_upward_move() {
        BitBuf::zeroed(64).move_down(3, 4, 1);
    }

    #[test]
    fn diff_count_and_bits() {
        let mut a = BitBuf::zeroed(100);
        let b = BitBuf::zeroed(100);
        a.flip(3);
        a.flip(77);
        assert_eq!(a.diff_count(&b), 2);
        let d: Vec<usize> = a.diff_bits(&b).collect();
        assert_eq!(d, vec![3, 77]);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut b = BitBuf::zeroed(70);
        b.set(69, true);
        b.set(1, true);
        b.clear();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let b = BitBuf::zeroed(10);
        let _ = b.get(10);
    }
}
