//! Named, classed flip-flop fields over a [`BitBuf`].

use std::sync::Arc;

use crate::bitbuf::BitBuf;

/// Protection/eligibility class of a flip-flop field.
///
/// Mirrors the partition of Table 4 (error-injection targets vs.
/// protected vs. inactive flops) plus the QRR-specific classes of
/// Sec. 6.4 (configuration flops excluded from reset, QRR-controller
/// flops protected by hardening).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlopClass {
    /// Eligible for soft-error injection (the "target" column of Table 4).
    Target,
    /// Stores ECC-encoded data; a single flip is corrected, so the flop is
    /// excluded from injection (Sec. 3.1).
    EccProtected,
    /// Stores CRC-encoded link data (PCIe); excluded from injection.
    CrcProtected,
    /// Dedicated to BIST / redundant-array repair; inactive on a
    /// defect-free chip and excluded from injection (Sec. 3.1).
    Inactive,
    /// Configuration state (e.g. cache-disable bits) that must survive a
    /// QRR reset; selectively radiation-hardened under QRR (Sec. 6).
    Config,
    /// Timing-critical flops where a parity XOR tree does not fit in the
    /// slack; radiation-hardened under QRR (Sec. 6.4 item 1).
    TimingCritical,
}

impl FlopClass {
    /// Returns `true` for classes eligible for error injection
    /// (everything that is neither protected nor inactive).
    pub fn is_injection_target(self) -> bool {
        matches!(
            self,
            FlopClass::Target | FlopClass::Config | FlopClass::TimingCritical
        )
    }

    /// Returns `true` for classes cleared by a QRR reset pulse.
    ///
    /// Configuration flops keep their values (Sec. 6, property 2).
    pub fn reset_by_qrr(self) -> bool {
        !matches!(self, FlopClass::Config)
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FlopClass::Target => "target",
            FlopClass::EccProtected => "ecc",
            FlopClass::CrcProtected => "crc",
            FlopClass::Inactive => "inactive",
            FlopClass::Config => "config",
            FlopClass::TimingCritical => "timing",
        }
    }
}

impl core::fmt::Display for FlopClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether a field's value can reach anything but itself: the role the
/// end-of-co-simulation compare (Fig. 2 step 7) reads beside the
/// [`FlopClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldRole {
    /// Read by some tick: a difference here can change what the
    /// component does.
    Live,
    /// Read by no tick, or only by its own update (a counter that
    /// nothing else reads). A difference here can never reach another
    /// flop, an output or memory, so the compare does not count it.
    Dead,
}

/// Definition of one named flop field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Hierarchical field name, e.g. `"iq.entry3.addr"`.
    pub name: String,
    /// Bit offset within the component's flop space.
    pub offset: usize,
    /// Width in bits (≤ 64).
    pub width: usize,
    /// Protection class.
    pub class: FlopClass,
    /// Whether a tick reads it.
    pub role: FieldRole,
}

/// Handle to a field registered in a [`FlopSpace`].
///
/// A handle carries its field's place in the bits, so a read or write
/// through it is a shift and a mask with no look at the field table. It
/// is only valid for the space (or an identically built space, e.g. the
/// golden copy) that issued it. Eight bytes: models hold hundreds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldHandle {
    index: u32,
    /// `offset << WIDTH_BITS | width`.
    place: u32,
}

/// Bits of [`FieldHandle::place`] holding the width (1..=64).
const WIDTH_BITS: u32 = 7;

impl FieldHandle {
    /// Raw index of the field within its space.
    #[inline]
    pub const fn index(self) -> usize {
        self.index as usize
    }

    /// Bit offset of the field within its space.
    #[inline]
    pub const fn offset(self) -> usize {
        (self.place >> WIDTH_BITS) as usize
    }

    /// Width of the field in bits.
    #[inline]
    pub const fn width(self) -> usize {
        (self.place & ((1 << WIDTH_BITS) - 1)) as usize
    }
}

/// Builder for a [`FlopSpace`].
#[derive(Debug)]
pub struct FlopSpaceBuilder {
    component: String,
    fields: Vec<FieldDef>,
    next_offset: usize,
}

impl FlopSpaceBuilder {
    /// Starts a new space for the named component.
    pub fn new(component: impl Into<String>) -> Self {
        FlopSpaceBuilder {
            component: component.into(),
            fields: Vec::new(),
            next_offset: 0,
        }
    }

    /// Registers a field of `width` bits and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 64, or the space outgrows
    /// what a handle can address (2^25 bits).
    pub fn field(
        &mut self,
        name: impl Into<String>,
        width: usize,
        class: FlopClass,
    ) -> FieldHandle {
        assert!(width > 0 && width <= 64, "field width must be 1..=64");
        // Every field is at least a bit wide, so this bounds the index too.
        assert!(
            self.next_offset < 1 << (32 - WIDTH_BITS),
            "flop space too large for a field handle"
        );
        let h = FieldHandle {
            index: self.fields.len() as u32,
            place: (self.next_offset as u32) << WIDTH_BITS | width as u32,
        };
        self.fields.push(FieldDef {
            name: name.into(),
            offset: self.next_offset,
            width,
            class,
            role: FieldRole::Live,
        });
        self.next_offset += width;
        h
    }

    /// [`field`](Self::field) for a field that no tick reads, or that
    /// only its own update reads ([`FieldRole::Dead`]).
    pub fn dead_field(
        &mut self,
        name: impl Into<String>,
        width: usize,
        class: FlopClass,
    ) -> FieldHandle {
        let h = self.field(name, width, class);
        self.fields[h.index()].role = FieldRole::Dead;
        h
    }

    /// Registers `n` identically-shaped fields (e.g. queue entries),
    /// named `"{name}{i}.{suffix}"`, returning their handles.
    pub fn field_array(
        &mut self,
        name: &str,
        n: usize,
        width: usize,
        class: FlopClass,
    ) -> Vec<FieldHandle> {
        (0..n)
            .map(|i| self.field(format!("{name}[{i}]"), width, class))
            .collect()
    }

    /// [`field_array`](Self::field_array) of fields no tick reads
    /// ([`FieldRole::Dead`]).
    pub fn dead_array(&mut self, name: &str, n: usize, width: usize, class: FlopClass) {
        for i in 0..n {
            self.dead_field(format!("{name}[{i}]"), width, class);
        }
    }

    /// Total bits declared so far (the next field's offset).
    pub fn declared_bits(&self) -> usize {
        self.next_offset
    }

    /// Finalizes the space with all registered fields zeroed.
    pub fn build(self) -> FlopSpace {
        let bits = BitBuf::zeroed(self.next_offset);
        FlopSpace {
            component: self.component.into(),
            fields: self.fields.into(),
            bits,
            changed: true,
        }
    }
}

/// A component's complete flip-flop state: named fields over dense bits.
///
/// Cloning a `FlopSpace` yields the *golden copy* used by the mixed-mode
/// platform's end-of-co-simulation check (Fig. 1b ⑤). The field table
/// and component name are fixed at [`FlopSpaceBuilder::build`] and
/// shared by every clone, so a clone copies the bit words only.
///
/// The space also remembers whether any bit changed since
/// [`clear_changed`](Self::clear_changed): every mutator that really
/// alters a bit sets the mark, a write of the value already held does
/// not. A model whose `tick` is a pure function of its state uses it to
/// recognise a fixed point (DESIGN.md, *Settled ticks*). The mark
/// travels with a clone and takes no part in equality.
#[derive(Debug)]
pub struct FlopSpace {
    component: Arc<str>,
    fields: Arc<[FieldDef]>,
    bits: BitBuf,
    changed: bool,
}

// Hand-written so that `clone_from` copies into the bit words it holds
// (a recycled golden or lane allocates nothing).
impl Clone for FlopSpace {
    fn clone(&self) -> Self {
        FlopSpace {
            component: Arc::clone(&self.component),
            fields: Arc::clone(&self.fields),
            bits: self.bits.clone(),
            changed: self.changed,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.component.clone_from(&source.component);
        self.fields.clone_from(&source.fields);
        self.bits.clone_from(&source.bits);
        self.changed = source.changed;
    }
}

impl PartialEq for FlopSpace {
    fn eq(&self, other: &Self) -> bool {
        self.component == other.component && self.fields == other.fields && self.bits == other.bits
    }
}

impl Eq for FlopSpace {}

impl FlopSpace {
    /// Whether a bit changed, or [`mark_changed`](Self::mark_changed)
    /// was called, since the last [`clear_changed`](Self::clear_changed).
    /// A freshly built space reads `true`.
    pub fn changed(&self) -> bool {
        self.changed
    }

    /// Forgets every change so far.
    pub fn clear_changed(&mut self) {
        self.changed = false;
    }

    /// Sets the mark without touching a bit: for the owner's state that
    /// lives outside the flops but decides what its next tick does.
    pub fn mark_changed(&mut self) {
        self.changed = true;
    }

    /// Component name this space belongs to.
    pub fn component(&self) -> &str {
        &self.component
    }

    /// Total number of flip-flops (bits).
    pub fn num_flops(&self) -> usize {
        self.bits.len()
    }

    /// All field definitions, in registration order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Looks up a field definition by its exact name.
    pub fn field_by_name(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Global bit index of bit `bit` of the field named `name`.
    ///
    /// Convenient for targeted injection experiments and tests.
    ///
    /// # Panics
    ///
    /// Panics if no field has that name or `bit` exceeds its width.
    pub fn named_bit(&self, name: &str, bit: usize) -> usize {
        let f = self
            .field_by_name(name)
            .unwrap_or_else(|| panic!("no field named {name}"));
        assert!(bit < f.width, "bit {bit} out of width {}", f.width);
        f.offset + bit
    }

    /// Reads a field's value.
    #[inline]
    pub fn read(&self, h: FieldHandle) -> u64 {
        self.bits.read_bits(h.offset(), h.width())
    }

    /// Writes a field's value (excess high bits of `v` are masked off).
    #[inline]
    pub fn write(&mut self, h: FieldHandle, v: u64) {
        self.changed |= self.bits.write_bits(h.offset(), h.width(), v);
    }

    /// Reads a single-bit field as a boolean.
    #[inline]
    pub fn read_bool(&self, h: FieldHandle) -> bool {
        self.read(h) != 0
    }

    /// Writes a boolean into a single-bit field.
    #[inline]
    pub fn write_bool(&mut self, h: FieldHandle, v: bool) {
        self.write(h, v as u64);
    }

    /// Global bit index of bit `bit` of field `h`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= width`.
    pub fn field_bit_index(&self, h: FieldHandle, bit: usize) -> usize {
        assert!(
            bit < h.width(),
            "bit {bit} out of field width {}",
            h.width()
        );
        h.offset() + bit
    }

    /// Flips the flip-flop at global bit index `bit` (error injection).
    pub fn flip(&mut self, bit: usize) {
        self.bits.flip(bit);
        self.changed = true;
    }

    /// Reads the flip-flop at global bit index `bit`.
    pub fn get_bit(&self, bit: usize) -> bool {
        self.bits.get(bit)
    }

    /// Returns the field containing global bit index `bit`.
    pub fn field_of_bit(&self, bit: usize) -> &FieldDef {
        // Fields are laid out in offset order; binary search.
        let idx = self
            .fields
            .partition_point(|f| f.offset + f.width <= bit)
            .min(self.fields.len() - 1);
        let f = &self.fields[idx];
        debug_assert!(bit >= f.offset && bit < f.offset + f.width);
        f
    }

    /// Returns the class of the flop at global bit index `bit`.
    pub fn class_of_bit(&self, bit: usize) -> FlopClass {
        self.field_of_bit(bit).class
    }

    /// Whether the flop at global bit index `bit` lies in a field no
    /// tick reads ([`FieldRole::Dead`]).
    pub fn is_dead_bit(&self, bit: usize) -> bool {
        self.field_of_bit(bit).role == FieldRole::Dead
    }

    /// Global bit indices of all flops whose class satisfies `pred`.
    pub fn bits_where(&self, mut pred: impl FnMut(FlopClass) -> bool) -> Vec<usize> {
        let mut v = Vec::new();
        for f in self.fields.iter() {
            if pred(f.class) {
                v.extend(f.offset..f.offset + f.width);
            }
        }
        v
    }

    /// Count of flops per class, as `(class, count)` pairs in a stable
    /// order. Feeds the Table 4 reproduction.
    pub fn class_census(&self) -> Vec<(FlopClass, usize)> {
        use FlopClass::*;
        let all = [
            Target,
            EccProtected,
            CrcProtected,
            Inactive,
            Config,
            TimingCritical,
        ];
        all.iter()
            .map(|&c| {
                (
                    c,
                    self.fields
                        .iter()
                        .filter(|f| f.class == c)
                        .map(|f| f.width)
                        .sum(),
                )
            })
            .collect()
    }

    /// Number of differing flops vs. another (identically built) space.
    ///
    /// # Panics
    ///
    /// Panics if the two spaces have different sizes.
    pub fn diff_count(&self, other: &FlopSpace) -> usize {
        self.bits.diff_count(&other.bits)
    }

    /// Bit indices that differ vs. another (identically built) space.
    pub fn diff_bits<'a>(&'a self, other: &'a FlopSpace) -> impl Iterator<Item = usize> + 'a {
        self.bits.diff_bits(&other.bits)
    }

    /// Clears all flops whose class is reset by QRR (everything except
    /// [`FlopClass::Config`]); see Sec. 6.2 of the paper.
    pub fn reset_except_config(&mut self) {
        for f in self.fields.iter() {
            if f.class.reset_by_qrr() {
                self.changed |= self.bits.write_bits(f.offset, f.width, 0);
            }
        }
    }

    /// Reads `width <= 192` bits at global offset `offset`
    /// ([`BitBuf::read_span`]): a whole packet slot in one access.
    #[inline]
    pub fn read_span(&self, offset: usize, width: usize) -> [u64; 3] {
        self.bits.read_span(offset, width)
    }

    /// Writes the low `width <= 192` bits of `value` at global offset
    /// `offset` ([`BitBuf::write_span`]).
    #[inline]
    pub fn write_span(&mut self, offset: usize, width: usize, value: [u64; 3]) {
        self.changed |= self.bits.write_span(offset, width, value);
    }

    /// Copies `width` bits from global offset `src` to `dst`. The ranges
    /// must not overlap; a shifting queue, whose ranges do, uses
    /// [`move_down`](Self::move_down).
    #[inline]
    pub fn copy_range(&mut self, src: usize, dst: usize, width: usize) {
        debug_assert!(src + width <= dst || dst + width <= src, "overlapping copy");
        let mut done = 0;
        while done < width {
            let chunk = (width - done).min(192);
            let v = self.bits.read_span(src + done, chunk);
            self.changed |= self.bits.write_span(dst + done, chunk, v);
            done += chunk;
        }
    }

    /// Moves `width` bits from global offset `src` down to `dst <= src`,
    /// overlap allowed ([`BitBuf::move_down`]): the whole upper part of
    /// a shifting queue in one pass.
    #[inline]
    pub fn move_down(&mut self, src: usize, dst: usize, width: usize) {
        self.changed |= self.bits.move_down(src, dst, width);
    }

    /// Clears `width` bits starting at global offset `offset` (the
    /// zero shifted into the tail of a shifting queue).
    #[inline]
    pub fn zero_range(&mut self, offset: usize, width: usize) {
        let mut done = 0;
        while done < width {
            let chunk = (width - done).min(192);
            self.changed |= self.bits.write_span(offset + done, chunk, [0; 3]);
            done += chunk;
        }
    }

    /// Raw access to the backing bits (read-only).
    pub fn raw_bits(&self) -> &BitBuf {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_space() -> (FlopSpace, FieldHandle, FieldHandle, FieldHandle) {
        let mut b = FlopSpaceBuilder::new("demo");
        let v = b.field("valid", 1, FlopClass::Target);
        let a = b.field("addr", 40, FlopClass::Target);
        let c = b.field("cfg.enable", 2, FlopClass::Config);
        b.field("ecc.syndrome", 8, FlopClass::EccProtected);
        b.field("bist.chain", 16, FlopClass::Inactive);
        (b.build(), v, a, c)
    }

    #[test]
    fn field_read_write_round_trip() {
        let (mut s, v, a, _) = demo_space();
        s.write(a, 0xff_1234_5678);
        s.write_bool(v, true);
        assert_eq!(s.read(a), 0xff_1234_5678);
        assert!(s.read_bool(v));
    }

    #[test]
    fn census_matches_declared_widths() {
        let (s, ..) = demo_space();
        let census: std::collections::HashMap<_, _> = s.class_census().into_iter().collect();
        assert_eq!(census[&FlopClass::Target], 41);
        assert_eq!(census[&FlopClass::Config], 2);
        assert_eq!(census[&FlopClass::EccProtected], 8);
        assert_eq!(census[&FlopClass::Inactive], 16);
        assert_eq!(s.num_flops(), 41 + 2 + 8 + 16);
    }

    #[test]
    fn injection_target_selection_excludes_protected() {
        let (s, ..) = demo_space();
        let targets = s.bits_where(|c| c.is_injection_target());
        assert_eq!(targets.len(), 43); // 41 target + 2 config
        for &b in &targets {
            assert!(s.class_of_bit(b).is_injection_target());
        }
    }

    #[test]
    fn flip_changes_exactly_one_field() {
        let (mut s, _, a, _) = demo_space();
        let golden = s.clone();
        let bit = s.field_bit_index(a, 3);
        s.flip(bit);
        assert_eq!(s.diff_count(&golden), 1);
        assert_eq!(s.diff_bits(&golden).next(), Some(bit));
        assert_eq!(s.read(a), 1 << 3);
    }

    #[test]
    fn field_of_bit_finds_owner() {
        let (s, v, a, _) = demo_space();
        assert_eq!(s.field_of_bit(s.field_bit_index(v, 0)).name, "valid");
        assert_eq!(s.field_of_bit(s.field_bit_index(a, 39)).name, "addr");
    }

    #[test]
    fn qrr_reset_preserves_config() {
        let (mut s, v, a, c) = demo_space();
        s.write_bool(v, true);
        s.write(a, 0xabc);
        s.write(c, 0b11);
        s.reset_except_config();
        assert!(!s.read_bool(v));
        assert_eq!(s.read(a), 0);
        assert_eq!(s.read(c), 0b11);
    }

    #[test]
    fn named_lookup() {
        let (s, ..) = demo_space();
        assert_eq!(s.field_by_name("addr").unwrap().width, 40);
        assert!(s.field_by_name("nope").is_none());
        assert_eq!(
            s.named_bit("addr", 3),
            s.field_by_name("addr").unwrap().offset + 3
        );
    }

    #[test]
    #[should_panic(expected = "no field named")]
    fn named_bit_unknown_field_panics() {
        let (s, ..) = demo_space();
        let _ = s.named_bit("ghost", 0);
    }

    #[test]
    fn field_array_names_and_layout() {
        let mut b = FlopSpaceBuilder::new("x");
        let hs = b.field_array("q.addr", 4, 10, FlopClass::Target);
        let s = b.build();
        assert_eq!(hs.len(), 4);
        assert_eq!(s.fields()[1].name, "q.addr[1]");
        assert_eq!(s.fields()[3].offset, 30);
        assert_eq!(s.num_flops(), 40);
    }

    #[test]
    fn handle_carries_its_fields_place() {
        assert_eq!(core::mem::size_of::<FieldHandle>(), 8);
        let mut b = FlopSpaceBuilder::new("x");
        let widths = [1, 64, 3, 34, 64, 7, 1];
        let handles = widths.map(|w| b.field(format!("f{w}"), w, FlopClass::Target));
        let s = b.build();
        for (i, h) in handles.iter().enumerate() {
            let def = &s.fields()[h.index()];
            assert_eq!(h.index(), i);
            assert_eq!((h.offset(), h.width()), (def.offset, def.width));
        }
    }

    #[test]
    fn range_ops_match_the_bit_by_bit_model() {
        // Widths around the 192-bit chunk the range ops move at a time,
        // at unaligned offsets, over random bits.
        let mut b = FlopSpaceBuilder::new("x");
        b.field_array("w", 16, 64, FlopClass::Target);
        let mut s = b.build();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for bit in 0..s.num_flops() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 1 {
                s.flip(bit);
            }
        }
        for width in [0, 1, 64, 138, 191, 192, 193, 384, 385, 450] {
            for (src, dst) in [(3, 500), (517, 1), (64, 514)] {
                let mut got = s.clone();
                got.copy_range(src, dst, width);
                for bit in 0..s.num_flops() {
                    let from = if (dst..dst + width).contains(&bit) {
                        bit - dst + src
                    } else {
                        bit
                    };
                    assert_eq!(got.get_bit(bit), s.get_bit(from), "copy {width} bit {bit}");
                }
                got.zero_range(dst, width);
                for bit in 0..s.num_flops() {
                    let want = !(dst..dst + width).contains(&bit) && s.get_bit(bit);
                    assert_eq!(got.get_bit(bit), want, "zero {width} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn clone_shares_the_field_table() {
        let (s, ..) = demo_space();
        let golden = s.clone();
        assert!(std::ptr::eq(s.fields(), golden.fields()));
        assert!(std::ptr::eq(s.component(), golden.component()));
    }

    #[test]
    fn change_mark_follows_real_bit_changes_only() {
        let (mut s, v, a, c) = demo_space();
        assert!(s.changed(), "a fresh space has settled nothing");
        s.write(a, 0x1234);
        s.write(c, 0b10);
        s.clear_changed();

        // Rewriting what is already there is not a change ...
        s.write(a, 0x1234);
        s.write_bool(v, false);
        s.zero_range(s.field_bit_index(v, 0), 1);
        s.move_down(s.field_bit_index(v, 0), s.field_bit_index(v, 0), 41);
        assert!(!s.changed());
        // ... and the mark is no part of the state: it travels with a
        // clone and is invisible to equality.
        let mut twin = s.clone();
        assert!(!twin.changed());
        twin.mark_changed();
        assert!(twin == s && !s.changed());

        type Mutator = fn(&mut FlopSpace, FieldHandle);
        let mutators: [(&str, Mutator); 6] = [
            ("write", |s, a| s.write(a, 0x1235)),
            ("flip", |s, a| s.flip(s.field_bit_index(a, 7))),
            ("copy_range", |s, a| {
                s.copy_range(s.field_bit_index(a, 0), 50, 8)
            }),
            ("move_down", |s, a| {
                s.move_down(s.field_bit_index(a, 4), 1, 8)
            }),
            ("zero_range", |s, a| {
                s.zero_range(s.field_bit_index(a, 0), 16)
            }),
            ("reset_except_config", |s, _| s.reset_except_config()),
        ];
        for (name, mutate) in mutators {
            let mut t = s.clone();
            mutate(&mut t, a);
            assert!(t.changed() && t != s, "{name}");
        }
        // A QRR reset of a space that holds configuration only changes
        // nothing and says so.
        let mut t = s.clone();
        t.reset_except_config();
        t.clear_changed();
        t.reset_except_config();
        assert!(!t.changed());
    }

    #[test]
    fn dead_fields_carry_their_role_and_nothing_else() {
        let mut b = FlopSpaceBuilder::new("x");
        let live = b.field("live", 3, FlopClass::Target);
        let dead = b.dead_field("perf", 8, FlopClass::Target);
        b.dead_array("bist", 2, 4, FlopClass::Inactive);
        let s = b.build();
        let roles: Vec<FieldRole> = s.fields().iter().map(|f| f.role).collect();
        use FieldRole::{Dead, Live};
        assert_eq!(roles, [Live, Dead, Dead, Dead]);
        assert!(!s.is_dead_bit(s.field_bit_index(live, 2)));
        assert!(s.is_dead_bit(s.field_bit_index(dead, 0)));
        assert!(s.is_dead_bit(s.num_flops() - 1));
        assert_eq!(s.fields()[2].name, "bist[0]");
    }

    #[test]
    fn golden_copy_is_identical_until_divergence() {
        let (mut s, _, a, _) = demo_space();
        let golden = s.clone();
        assert_eq!(s.diff_count(&golden), 0);
        s.write(a, 1);
        assert!(s.diff_count(&golden) > 0);
    }
}
