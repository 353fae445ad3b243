//! Architectural state and policy of one L2 cache bank.
//!
//! Table 1 of the paper lists the L2C high-level uncore state: the tag
//! address array, the line-state bit array, the cache data array, and
//! the L1 directory. [`L2BankArch`] holds exactly these four arrays plus
//! the (architecturally visible) round-robin replacement pointers.
//!
//! Both the accelerated-mode functional L2 model and the flip-flop-level
//! RTL bank (`nestsim-models`) use *this* code for tag matching, victim
//! selection, fills, evictions, and store merging, so the two modes make
//! identical architectural decisions and the mixed-mode state transfer
//! is outcome-preserving.

use nestsim_proto::addr::{LineAddr, PAddr, NUM_L2_BANKS};

use crate::mem::{LineBackend, WORDS_PER_LINE};

/// Geometry of one L2 bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Geometry {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl L2Geometry {
    /// Scaled-down default: 64 sets × 8 ways × 64 B = 32 KiB per bank.
    ///
    /// The OpenSPARC T2 bank holds 512 KiB (Table 1); we scale capacity
    /// by 16× to keep the repository laptop-runnable while preserving
    /// set-associative behaviour (see DESIGN.md, scale-down constants).
    pub const fn default_scaled() -> Self {
        L2Geometry { sets: 64, ways: 8 }
    }

    /// Total lines in the bank.
    pub const fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Set index for a line address (the low bits select the bank, the
    /// next bits the set).
    ///
    /// `sets` being a power of two ([`L2BankArch::for_bank`] asserts
    /// it), this and [`tag_of`](Self::tag_of) are a mask and a shift:
    /// a functional miss asks five times, and a divide by the runtime
    /// `sets` each time was a measurable share of the golden pass.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> usize {
        ((line.raw() / NUM_L2_BANKS as u64) & (self.sets as u64 - 1)) as usize
    }

    /// Tag for a line address.
    #[inline]
    pub fn tag_of(&self, line: LineAddr) -> u64 {
        (line.raw() / NUM_L2_BANKS as u64) >> self.sets.trailing_zeros()
    }

    /// Reconstructs a line address from a (set, tag) pair.
    ///
    /// Requires the bank id because the bank bits are below the set bits.
    pub fn line_from(&self, bank: usize, set: usize, tag: u64) -> LineAddr {
        LineAddr::new(
            tag * (NUM_L2_BANKS as u64 * self.sets as u64)
                + set as u64 * NUM_L2_BANKS as u64
                + bank as u64,
        )
    }
}

impl Default for L2Geometry {
    fn default() -> Self {
        L2Geometry::default_scaled()
    }
}

/// Per-line state bits.
const STATE_VALID: u8 = 0b01;
const STATE_DIRTY: u8 = 0b10;

/// A line's state bits and its L1 directory entry, in one array so that
/// a bank clones in one allocation fewer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LineFlags {
    state: u8,
    /// A bitmask of the cores that loaded the line.
    dir: u8,
}

/// Result of an architectural load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadResult {
    /// The loaded 8-byte word.
    pub value: u64,
    /// Whether the access hit in the bank.
    pub hit: bool,
    /// Line written back to memory if the fill evicted a dirty victim.
    pub writeback: Option<LineAddr>,
}

/// Result of an architectural store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreResult {
    /// Whether the access hit in the bank.
    pub hit: bool,
    /// Line written back to memory if the fill evicted a dirty victim.
    pub writeback: Option<LineAddr>,
}

/// Architectural state of one L2 bank (Table 1's "high-level uncore
/// state" for the L2 cache controller).
#[derive(Debug, PartialEq, Eq)]
pub struct L2BankArch {
    geo: L2Geometry,
    /// Which bank of the SoC this is (needed to reconstruct line
    /// addresses from set+tag, e.g. for evictions).
    bank: usize,
    tags: Vec<u64>,
    /// Per line: state bits and L1 directory entry.
    flags: Vec<LineFlags>,
    data: Vec<[u64; WORDS_PER_LINE]>,
    /// Per-set round-robin replacement pointer.
    rr: Vec<u8>,
}

impl Clone for L2BankArch {
    fn clone(&self) -> Self {
        let L2BankArch {
            geo,
            bank,
            tags,
            flags,
            data,
            rr,
        } = self;
        L2BankArch {
            geo: *geo,
            bank: *bank,
            tags: tags.clone(),
            flags: flags.clone(),
            data: data.clone(),
            rr: rr.clone(),
        }
    }

    /// Copies `source` into this bank's four arrays in place: a restored
    /// snapshot's banks allocate nothing when the geometry is the same.
    fn clone_from(&mut self, source: &Self) {
        let L2BankArch {
            geo,
            bank,
            tags,
            flags,
            data,
            rr,
        } = source;
        self.geo = *geo;
        self.bank = *bank;
        self.tags.clone_from(tags);
        self.flags.clone_from(flags);
        self.data.clone_from(data);
        self.rr.clone_from(rr);
    }
}

impl L2BankArch {
    /// Creates an empty bank (bank id 0) with the given geometry.
    pub fn new(geo: L2Geometry) -> Self {
        Self::for_bank(geo, 0)
    }

    /// Creates an empty bank with an explicit bank id.
    ///
    /// # Panics
    ///
    /// Panics if `geo.sets` is not a power of two.
    pub fn for_bank(geo: L2Geometry, bank: usize) -> Self {
        let mut arch = L2BankArch {
            geo,
            bank,
            tags: Vec::new(),
            flags: Vec::new(),
            data: Vec::new(),
            rr: Vec::new(),
        };
        arch.reset_for_bank(geo, bank);
        arch
    }

    /// Becomes [`for_bank`](Self::for_bank)`(geo, bank)` in the arrays
    /// this bank holds, which grow only for a larger geometry.
    ///
    /// # Panics
    ///
    /// As [`for_bank`](Self::for_bank).
    pub fn reset_for_bank(&mut self, geo: L2Geometry, bank: usize) {
        assert!(geo.sets.is_power_of_two(), "{} sets", geo.sets);
        let n = geo.lines();
        let L2BankArch {
            geo: my_geo,
            bank: my_bank,
            tags,
            flags,
            data,
            rr,
        } = self;
        (*my_geo, *my_bank) = (geo, bank);
        tags.clear();
        tags.resize(n, 0);
        flags.clear();
        flags.resize(n, LineFlags::default());
        data.clear();
        data.resize(n, [0; WORDS_PER_LINE]);
        rr.clear();
        rr.resize(geo.sets, 0);
    }

    /// Moves the arrays out, leaving this bank (same geometry and id)
    /// holding none, and allocates nothing: for a model that hands its
    /// arrays on and is refilled with `clone_from` before it is read.
    pub fn take(&mut self) -> L2BankArch {
        L2BankArch {
            geo: self.geo,
            bank: self.bank,
            tags: std::mem::take(&mut self.tags),
            flags: std::mem::take(&mut self.flags),
            data: std::mem::take(&mut self.data),
            rr: std::mem::take(&mut self.rr),
        }
    }

    /// The bank's geometry.
    pub fn geometry(&self) -> L2Geometry {
        self.geo
    }

    /// The bank id this state belongs to.
    pub fn bank_index(&self) -> usize {
        self.bank
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.geo.ways + way
    }

    /// Looks up a line; returns the hitting way.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> Option<usize> {
        let first = self.slot(self.geo.set_of(line), 0);
        self.slot_of(line).map(|s| s - first)
    }

    /// Looks up a line; returns the slot holding it, for the `*_at`
    /// accessors. A slot stays the line's until the line is evicted or
    /// invalidated, so one scan of the set serves a whole access.
    #[inline]
    pub fn slot_of(&self, line: LineAddr) -> Option<usize> {
        let first = self.slot(self.geo.set_of(line), 0);
        let tag = self.geo.tag_of(line);
        (first..first + self.geo.ways)
            .find(|&s| self.flags[s].state & STATE_VALID != 0 && self.tags[s] == tag)
    }

    /// Returns the way the next fill into `set` will use (invalid way if
    /// any, else the round-robin pointer). Does not advance the pointer.
    pub fn victim_way(&self, set: usize) -> usize {
        (0..self.geo.ways)
            .find(|&w| self.flags[self.slot(set, w)].state & STATE_VALID == 0)
            .unwrap_or(self.rr[set] as usize % self.geo.ways)
    }

    /// Installs `line` with `data`, evicting the victim if necessary.
    ///
    /// Returns `Some((victim_line, victim_data))` when a dirty line was
    /// displaced and must be written back.
    pub fn install(
        &mut self,
        line: LineAddr,
        data: [u64; WORDS_PER_LINE],
    ) -> Option<(LineAddr, [u64; WORDS_PER_LINE])> {
        self.install_at(line, &data).1
    }

    /// [`install`](Self::install), also returning the slot filled.
    pub fn install_at(
        &mut self,
        line: LineAddr,
        data: &[u64; WORDS_PER_LINE],
    ) -> (usize, Option<(LineAddr, [u64; WORDS_PER_LINE])>) {
        let set = self.geo.set_of(line);
        let way = self.victim_way(set);
        let s = self.slot(set, way);
        let evicted = if self.flags[s].state & STATE_VALID != 0 {
            // Advance round-robin only when we displaced a valid line.
            self.rr[set] = ((way + 1) % self.geo.ways) as u8;
            if self.flags[s].state & STATE_DIRTY != 0 {
                Some((
                    self.geo.line_from(self.bank, set, self.tags[s]),
                    self.data[s],
                ))
            } else {
                None
            }
        } else {
            None
        };
        self.tags[s] = self.geo.tag_of(line);
        self.flags[s] = LineFlags {
            state: STATE_VALID,
            dir: 0,
        };
        self.data[s] = *data;
        (s, evicted)
    }

    /// Reads the word at `addr` from a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (callers must `probe` first).
    pub fn read_word_resident(&self, addr: PAddr) -> u64 {
        let s = self.slot_of(addr.line()).expect("line not resident");
        self.read_word_at(s, addr)
    }

    /// Reads the word at `addr` from its line's slot.
    #[inline]
    pub fn read_word_at(&self, slot: usize, addr: PAddr) -> u64 {
        self.data[slot][(addr.line_offset() / 8) as usize]
    }

    /// Writes the word at `addr` into a resident line, marking it dirty.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn write_word_resident(&mut self, addr: PAddr, value: u64) {
        let s = self.slot_of(addr.line()).expect("line not resident");
        self.write_word_at(s, addr, value);
    }

    /// Writes the word at `addr` into its line's slot, marking it dirty.
    #[inline]
    pub fn write_word_at(&mut self, slot: usize, addr: PAddr, value: u64) {
        self.data[slot][(addr.line_offset() / 8) as usize] = value;
        self.flags[slot].state |= STATE_DIRTY;
    }

    /// Records core `core` as an L1 sharer of `addr`'s line (directory).
    pub fn touch_dir(&mut self, addr: PAddr, core: usize) {
        if let Some(s) = self.slot_of(addr.line()) {
            self.touch_dir_at(s, core);
        }
    }

    /// Records core `core` as an L1 sharer of the line in `slot`.
    #[inline]
    pub fn touch_dir_at(&mut self, slot: usize, core: usize) {
        self.flags[slot].dir |= 1u8 << (core % 8);
    }

    /// Architectural load of the aligned word at `addr`, filling from
    /// `mem` on a miss.
    pub fn load(&mut self, addr: PAddr, mem: &mut impl LineBackend) -> LoadResult {
        let line = addr.line();
        if self.probe(line).is_some() {
            LoadResult {
                value: self.read_word_resident(addr),
                hit: true,
                writeback: None,
            }
        } else {
            let data = mem.read_line(line);
            let wb = self.install(line, data);
            if let Some((wl, wd)) = wb {
                mem.write_line(wl, wd);
            }
            LoadResult {
                value: self.read_word_resident(addr),
                hit: false,
                writeback: wb.map(|(l, _)| l),
            }
        }
    }

    /// Architectural store of the aligned word at `addr` (write-allocate,
    /// write-back), filling from `mem` on a miss.
    pub fn store(&mut self, addr: PAddr, value: u64, mem: &mut impl LineBackend) -> StoreResult {
        let line = addr.line();
        let hit = self.probe(line).is_some();
        let mut wb = None;
        if !hit {
            let data = mem.read_line(line);
            wb = self.install(line, data);
            if let Some((wl, wd)) = wb {
                mem.write_line(wl, wd);
            }
        }
        self.write_word_resident(addr, value);
        StoreResult {
            hit,
            writeback: wb.map(|(l, _)| l),
        }
    }

    /// Flushes every dirty line to `mem` and invalidates the bank.
    pub fn flush_all(&mut self, mem: &mut impl LineBackend) {
        for set in 0..self.geo.sets {
            for way in 0..self.geo.ways {
                let s = self.slot(set, way);
                if self.flags[s].state & STATE_VALID != 0 && self.flags[s].state & STATE_DIRTY != 0
                {
                    let line = self.geo.line_from(self.bank, set, self.tags[s]);
                    mem.write_line(line, self.data[s]);
                }
                self.flags[s].state = 0;
            }
        }
    }

    /// Invalidates `line` if resident (coherent-I/O semantics: a DMA
    /// write to memory drops any cached copy). Returns `true` if the
    /// line was resident.
    pub fn invalidate_line(&mut self, line: LineAddr) -> bool {
        if let Some(s) = self.slot_of(line) {
            self.flags[s].state = 0;
            true
        } else {
            false
        }
    }

    /// Number of valid lines currently cached.
    pub fn valid_lines(&self) -> usize {
        self.flags
            .iter()
            .filter(|f| f.state & STATE_VALID != 0)
            .count()
    }

    /// Lines whose (tag, state, data, dir) differ from `other` —
    /// the architectural-mismatch set used by the mixed-mode platform's
    /// end-of-co-simulation check.
    pub fn diff_slots(&self, other: &L2BankArch) -> Vec<usize> {
        assert_eq!(self.geo, other.geo, "geometry mismatch");
        (0..self.geo.lines())
            .filter(|&s| {
                self.tags[s] != other.tags[s]
                    || self.flags[s] != other.flags[s]
                    || self.data[s] != other.data[s]
            })
            .collect()
    }

    /// Whether any slot differs from `other`:
    /// `!diff_slots(other).is_empty()` without building the list — the
    /// per-check form of the golden compare, which only needs the
    /// verdict.
    pub fn differs(&self, other: &L2BankArch) -> bool {
        assert_eq!(self.geo, other.geo, "geometry mismatch");
        self.tags != other.tags || self.flags != other.flags || self.data != other.data
    }

    /// Line addresses of slots that differ from `other` and are valid in
    /// either copy (feeds rollback-distance analysis).
    pub fn diff_lines(&self, other: &L2BankArch) -> Vec<LineAddr> {
        self.diff_slots(other)
            .into_iter()
            .flat_map(|s| {
                let set = s / self.geo.ways;
                let mut v = Vec::new();
                if self.flags[s].state & STATE_VALID != 0 {
                    v.push(self.geo.line_from(self.bank, set, self.tags[s]));
                }
                if other.flags[s].state & STATE_VALID != 0 {
                    v.push(other.geo.line_from(other.bank, set, other.tags[s]));
                }
                v
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::DramContents;

    #[test]
    fn differs_agrees_with_diff_slots() {
        let mut m = DramContents::new();
        let mut a = L2BankArch::new(L2Geometry::default());
        for i in 0..40 {
            a.store(addr_for_bank0(i), i + 1, &mut m);
        }
        let agree = |x: &L2BankArch, y: &L2BankArch, want: bool| {
            assert_eq!(x.differs(y), want);
            assert_eq!(y.differs(x), want);
            assert_eq!(!x.diff_slots(y).is_empty(), want);
        };
        agree(&a, &a.clone(), false);

        let mut word = a.clone();
        word.write_word_resident(addr_for_bank0(39), 0xbad);
        agree(&a, &word, true);

        let mut dir = a.clone();
        dir.touch_dir(addr_for_bank0(0), 3);
        agree(&a, &dir, true);

        // The replacement pointers are in neither comparison.
        let mut rr = a.clone();
        rr.rr[0] ^= 1;
        agree(&a, &rr, false);
    }

    #[test]
    fn slot_accessors_agree_with_the_probing_ones() {
        // Twin banks under one random sequence of fills, invalidations
        // and word accesses: one goes through `probe` + `*_resident`,
        // the other through `slot_of` + `*_at`. Values read and the
        // whole state (data, dirty bits, directory masks) must agree.
        use std::cell::Cell;
        let (hits, evictions) = (Cell::new(0u64), Cell::new(0u64));
        nestsim_harness::check("slot_accessors_agree_with_the_probing_ones", |src| {
            let mut probing = L2BankArch::new(L2Geometry { sets: 4, ways: 4 });
            let mut slotted = probing.clone();
            for _ in 0..400 {
                // 48 lines over 16 slots: hits, misses and evictions.
                let addr = PAddr::new(addr_for_bank0(src.below(48)).raw() + src.below(8) * 8);
                let line = addr.line();
                assert_eq!(
                    slotted.slot_of(line).map(|s| (s / 4, s % 4)),
                    probing.probe(line).map(|w| (probing.geo.set_of(line), w))
                );
                match (src.below(8), slotted.slot_of(line)) {
                    (0, _) => {
                        assert_eq!(slotted.invalidate_line(line), probing.invalidate_line(line));
                        assert_eq!(slotted.slot_of(line), None);
                    }
                    (_, None) => {
                        let data = [src.u64(); WORDS_PER_LINE];
                        let (slot, evicted) = slotted.install_at(line, &data);
                        assert_eq!(evicted, probing.install(line, data));
                        assert_eq!(slotted.slot_of(line), Some(slot));
                        evictions.set(evictions.get() + u64::from(evicted.is_some()));
                    }
                    (1..=3, Some(s)) => {
                        let value = src.u64();
                        slotted.write_word_at(s, addr, value);
                        probing.write_word_resident(addr, value);
                    }
                    (_, Some(s)) => {
                        let core = src.index(8);
                        slotted.touch_dir_at(s, core);
                        probing.touch_dir(addr, core);
                        assert_eq!(
                            slotted.read_word_at(s, addr),
                            probing.read_word_resident(addr)
                        );
                        hits.set(hits.get() + 1);
                    }
                }
                assert!(slotted == probing);
            }
        });
        assert!(hits.get() > 1_000 && evictions.get() > 1_000);
    }

    fn addr_for_bank0(i: u64) -> PAddr {
        // Lines with (line % 8 == 0) live in bank 0; stride sets apart.
        PAddr::new(i * 8 * 64)
    }

    #[test]
    fn miss_then_hit() {
        let mut m = DramContents::new();
        m.write_word(addr_for_bank0(1), 42);
        let mut b = L2BankArch::new(L2Geometry::default());
        let r1 = b.load(addr_for_bank0(1), &mut m);
        assert!(!r1.hit);
        assert_eq!(r1.value, 42);
        let r2 = b.load(addr_for_bank0(1), &mut m);
        assert!(r2.hit);
        assert_eq!(r2.value, 42);
    }

    #[test]
    fn store_allocates_and_dirties() {
        let mut m = DramContents::new();
        let mut b = L2BankArch::new(L2Geometry::default());
        let a = addr_for_bank0(3);
        let r = b.store(a, 7, &mut m);
        assert!(!r.hit);
        assert_eq!(b.load(a, &mut m).value, 7);
        // Not yet in DRAM (write-back).
        assert_eq!(m.read_word(a), 0);
        b.flush_all(&mut m);
        assert_eq!(m.read_word(a), 7);
        assert_eq!(b.valid_lines(), 0);
    }

    #[test]
    fn eviction_writes_back_dirty_victim() {
        let mut m = DramContents::new();
        let geo = L2Geometry { sets: 2, ways: 2 };
        let mut b = L2BankArch::new(geo);
        // Three lines mapping to set 0 of bank 0: line % 8 == 0 and
        // (line/8) % 2 == 0 → lines 0, 16, 32 → addresses 0, 0x400, 0x800.
        let a0 = PAddr::new(0);
        let a1 = PAddr::new(16 * 64);
        let a2 = PAddr::new(32 * 64);
        assert_eq!(geo.set_of(a0.line()), geo.set_of(a1.line()));
        assert_eq!(geo.set_of(a0.line()), geo.set_of(a2.line()));
        b.store(a0, 1, &mut m); // dirty line 0
        b.load(a1, &mut m);
        let r = b.load(a2, &mut m); // evicts one of them
                                    // Victim was the round-robin choice (way 0 = line a0, dirty).
        assert_eq!(r.writeback, Some(a0.line()));
        assert_eq!(m.read_word(a0), 1);
    }

    #[test]
    fn line_from_inverts_set_tag() {
        let geo = L2Geometry::default();
        for bank in [0usize, 3, 7] {
            let line = LineAddr::new(8 * 1234 + bank as u64);
            let set = geo.set_of(line);
            let tag = geo.tag_of(line);
            assert_eq!(geo.line_from(bank, set, tag), line);
        }
    }

    #[test]
    fn set_and_tag_are_remainder_and_quotient_by_the_set_count() {
        for sets in [1usize, 2, 64, 4096] {
            let geo = L2Geometry { sets, ways: 2 };
            for raw in (0..1u64 << 20).step_by(977).chain([u64::MAX >> 6]) {
                let line = LineAddr::new(raw);
                let in_bank = raw / NUM_L2_BANKS as u64;
                assert_eq!(geo.set_of(line) as u64, in_bank % sets as u64);
                assert_eq!(geo.tag_of(line), in_bank / sets as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "48 sets")]
    fn set_count_must_be_a_power_of_two() {
        let _ = L2BankArch::new(L2Geometry { sets: 48, ways: 8 });
    }

    #[test]
    fn diff_detects_corrupted_data() {
        let mut m = DramContents::new();
        let mut a = L2BankArch::new(L2Geometry::default());
        a.load(addr_for_bank0(5), &mut m);
        let g = a.clone();
        assert!(a.diff_slots(&g).is_empty());
        a.write_word_resident(addr_for_bank0(5), 0xbad);
        let d = a.diff_slots(&g);
        assert_eq!(d.len(), 1);
        let lines = a.diff_lines(&g);
        assert!(lines.contains(&addr_for_bank0(5).line()));
    }

    #[test]
    fn directory_tracks_sharers() {
        let mut m = DramContents::new();
        let mut b = L2BankArch::new(L2Geometry::default());
        let a = addr_for_bank0(9);
        b.load(a, &mut m);
        let g = b.clone();
        b.touch_dir(a, 4);
        assert_eq!(b.diff_slots(&g).len(), 1);
    }

    #[test]
    fn functional_equivalence_under_permuted_interleaving() {
        // Values returned by loads are independent of the order in which
        // *distinct* addresses were cached — the property that makes
        // mixed-mode state transfer outcome-preserving.
        let mut m1 = DramContents::new();
        let mut m2 = DramContents::new();
        for i in 0..32u64 {
            m1.write_word(addr_for_bank0(i), i * 10);
            m2.write_word(addr_for_bank0(i), i * 10);
        }
        let mut b1 = L2BankArch::new(L2Geometry { sets: 2, ways: 2 });
        let mut b2 = L2BankArch::new(L2Geometry { sets: 2, ways: 2 });
        for i in 0..32u64 {
            b1.load(addr_for_bank0(i), &mut m1);
            b2.load(addr_for_bank0(31 - i), &mut m2);
        }
        for i in 0..32u64 {
            assert_eq!(
                b1.load(addr_for_bank0(i), &mut m1).value,
                b2.load(addr_for_bank0(i), &mut m2).value
            );
        }
    }
}
