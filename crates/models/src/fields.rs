//! Reusable flop-field bundles for packets stored in queues.
//!
//! Each bundle declares the flop fields a packet occupies inside a
//! component's [`FlopSpace`] and converts between the packed flop
//! representation and the typed packet structs. Conversion is *lossy in
//! exactly the way hardware is*: a corrupted kind field decodes into a
//! different (possibly invalid) operation, a corrupted address field
//! into a different address — which is precisely the behaviour the
//! error-injection study needs.

use nestsim_proto::addr::{PAddr, ThreadId, NUM_THREADS};
use nestsim_proto::{CpxKind, CpxPacket, PcxKind, PcxPacket, ReqId};
use nestsim_rtl::{FieldHandle, FlopClass, FlopSpace, FlopSpaceBuilder};

/// Width of request-id fields in flops. Request ids are guaranteed (and
/// asserted) to fit: the system simulator allocates them densely.
pub const REQID_BITS: usize = 32;
/// Width of physical-address fields in flops (covers the modeled
/// address map with headroom, matching T2's 34-bit PA slice).
pub const ADDR_BITS: usize = 34;
/// Width of thread-id fields (64 hardware threads).
pub const THREAD_BITS: usize = 6;

/// Sampling stratum of a flop field: the address / control / datapath
/// partition the paper's Sec. 3 discussion groups uncore flops into,
/// used by the adaptive campaign engine for stratified allocation
/// (high-variance strata get more of each round's samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stratum {
    /// Address-carrying fields (`addr`, `line`): a flip redirects a
    /// request or a writeback to the wrong location.
    Address,
    /// Control and bookkeeping fields (`valid`, `kind`, `thread`,
    /// `reqid`, and anything unrecognized): a flip changes what the
    /// machine *does*.
    Control,
    /// Datapath fields (`data`, line words `w0..w7`): a flip changes
    /// the payload but not the protocol.
    Data,
}

impl Stratum {
    /// All strata, in the canonical (allocation/wire) order.
    pub const ALL: [Stratum; 3] = [Stratum::Address, Stratum::Control, Stratum::Data];

    /// Short label for telemetry and reports.
    pub fn label(self) -> &'static str {
        match self {
            Stratum::Address => "address",
            Stratum::Control => "control",
            Stratum::Data => "data",
        }
    }

    /// Index in [`Stratum::ALL`].
    pub fn index(self) -> usize {
        match self {
            Stratum::Address => 0,
            Stratum::Control => 1,
            Stratum::Data => 2,
        }
    }

    /// Classifies a flop field by its declared name (the bundles above
    /// name every field `<prefix>.<leaf>`): `addr`/`line` → Address,
    /// `data`/`w<i>` → Data, everything else (valid, kind, thread,
    /// reqid, component-specific control) → Control. Purely syntactic
    /// on the leaf segment, so every component's [`FlopSpace`] gets a
    /// total, deterministic partition without new per-field metadata.
    pub fn of_field(name: &str) -> Stratum {
        let leaf = name.rsplit('.').next().unwrap_or(name);
        match leaf {
            "addr" | "line" => Stratum::Address,
            "data" => Stratum::Data,
            _ if leaf.len() >= 2
                && leaf.starts_with('w')
                && leaf[1..].bytes().all(|b| b.is_ascii_digit()) =>
            {
                Stratum::Data
            }
            _ => Stratum::Control,
        }
    }
}

impl core::fmt::Display for Stratum {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A guarded group: a valid bit plus the bit-range of the fields it
/// guards. Differences inside the range are benign while the valid bit
/// is clear in both the target and the golden copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guard {
    /// The valid bit.
    pub valid: FieldHandle,
    /// First guarded global bit index.
    pub start: usize,
    /// One past the last guarded global bit index.
    pub end: usize,
}

impl Guard {
    /// Returns `true` if `bit` lies in the guarded range.
    pub fn contains(&self, bit: usize) -> bool {
        (self.start..self.end).contains(&bit)
    }

    /// Returns `true` if a diff at `bit` is benign given both copies.
    pub fn benign(&self, bit: usize, target: &FlopSpace, golden: &FlopSpace) -> bool {
        self.contains(bit) && !target.read_bool(self.valid) && !golden.read_bool(self.valid)
    }
}

/// Whether `guards` describe a collapsible queue: every slot is its
/// valid bit followed directly by the payload it guards, and each slot
/// starts on the bit after the one before it ends. Models assert this
/// once where they declare a queue; [`collapse_queue_at`] relies on it.
pub fn is_packed_queue(f: &FlopSpace, guards: &[Guard]) -> bool {
    guards
        .iter()
        .all(|g| f.field_bit_index(g.valid, 0) + 1 == g.start)
        && guards.windows(2).all(|w| w[0].end + 1 == w[1].start)
}

/// Shifts a queue of identically-shaped guarded slots down by one:
/// slot 0 is discarded, slot *i* moves to slot *i−1* (payload and valid
/// bit), and zeros shift into the tail — the collapsing-FIFO idiom of
/// the OpenSPARC T2 queues. Bitwise state therefore converges after a
/// drain, which the Fig. 5 warm-up comparison depends on.
pub fn shift_queue_down(f: &mut FlopSpace, guards: &[Guard]) {
    collapse_queue_at(f, guards, 0);
}

/// Removes the entry at `idx` from a collapsing queue: entries above it
/// shift down one, zeros shift into the tail. `idx == 0` is the plain
/// head pop. Used by schedulers that may retire a non-head entry (the
/// MCU serves the oldest *ready* DRAM bank, preserving per-bank order).
///
/// The queue must be packed ([`is_packed_queue`]): everything above the
/// removed slot then moves in one pass over its words, garbage in
/// unoccupied slots included, exactly as a slot-by-slot copy would.
pub fn collapse_queue_at(f: &mut FlopSpace, guards: &[Guard], idx: usize) {
    debug_assert!(is_packed_queue(f, guards), "queue slots are not packed");
    let Some(last) = guards.last() else {
        return;
    };
    if let Some(above) = guards.get(idx + 1) {
        let src = above.start - 1;
        f.move_down(src, guards[idx].start - 1, last.end - src);
    }
    f.zero_range(last.start - 1, last.end + 1 - last.start);
}

/// Checks a bit against a guard list. (Differences in flops no tick
/// reads, such as the BIST chains, are the layout's
/// [`Dead`](nestsim_rtl::FieldRole::Dead) role, which the compare reads
/// beside this.)
pub fn benign_in(guards: &[Guard], bit: usize, target: &FlopSpace, golden: &FlopSpace) -> bool {
    guards.iter().any(|g| g.benign(bit, target, golden))
}

/// Encodes a [`PcxKind`] into 2 bits.
pub fn encode_pcx_kind(k: PcxKind) -> u64 {
    match k {
        PcxKind::Load => 0,
        PcxKind::Store => 1,
        PcxKind::Ifetch => 2,
        PcxKind::Atomic => 3,
    }
}

/// Decodes 2 bits into a [`PcxKind`] (total: every bit pattern is some
/// operation, as in hardware).
pub fn decode_pcx_kind(v: u64) -> PcxKind {
    match v & 0b11 {
        0 => PcxKind::Load,
        1 => PcxKind::Store,
        2 => PcxKind::Ifetch,
        _ => PcxKind::Atomic,
    }
}

/// Encodes a [`CpxKind`] into 3 bits.
pub fn encode_cpx_kind(k: CpxKind) -> u64 {
    match k {
        CpxKind::LoadReturn => 0,
        CpxKind::StoreAck => 1,
        CpxKind::IfetchReturn => 2,
        CpxKind::AtomicReturn => 3,
        CpxKind::Error => 4,
    }
}

/// Decodes 3 bits into a [`CpxKind`]; corrupted encodings (5–7) decode
/// to [`CpxKind::Error`], which the receiving core treats as a fault.
pub fn decode_cpx_kind(v: u64) -> CpxKind {
    match v & 0b111 {
        0 => CpxKind::LoadReturn,
        1 => CpxKind::StoreAck,
        2 => CpxKind::IfetchReturn,
        3 => CpxKind::AtomicReturn,
        _ => CpxKind::Error,
    }
}

/// Bits `at..at + width` of a slot image read by
/// [`FlopSpace::read_span`]. Every caller passes constants, so this is a
/// shift, an or and a mask.
#[inline(always)]
fn span_get(v: [u64; 3], at: usize, width: usize) -> u64 {
    let (w, shift) = (at / 64, at % 64);
    let mut x = v[w] >> shift;
    if shift + width > 64 {
        x |= v[w + 1] << (64 - shift);
    }
    x & (u64::MAX >> (64 - width))
}

/// Ors the low `width` bits of `x` into bits `at..at + width` of a slot
/// image (which must hold zeros there).
#[inline(always)]
fn span_put(v: &mut [u64; 3], at: usize, width: usize, x: u64) {
    let x = x & (u64::MAX >> (64 - width));
    let (w, shift) = (at / 64, at % 64);
    v[w] |= x << shift;
    if shift + width > 64 {
        v[w + 1] |= x >> (64 - shift);
    }
}

/// Flop fields holding one request (PCX) packet plus a valid bit.
///
/// The fields are declared back to back, so [`load`](Self::load) and
/// [`store`](Self::store) move the whole slot as one span and place the
/// fields with constant shifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcxSlot {
    /// Entry-valid bit.
    pub valid: FieldHandle,
    kind: FieldHandle,
    thread: FieldHandle,
    reqid: FieldHandle,
    addr: FieldHandle,
    data: FieldHandle,
}

impl PcxSlot {
    /// Flops in a slot, the valid bit included.
    pub const BITS: usize = Self::DATA + 64;
    // Bit positions within the slot; the valid bit is bit 0.
    const KIND: usize = 1;
    const THREAD: usize = Self::KIND + 2;
    const REQID: usize = Self::THREAD + THREAD_BITS;
    const ADDR: usize = Self::REQID + REQID_BITS;
    const DATA: usize = Self::ADDR + ADDR_BITS;

    /// Declares the slot's fields under `prefix` with class `class`;
    /// the valid bit guards everything after it.
    pub fn declare_guarded(b: &mut FlopSpaceBuilder, prefix: &str, class: FlopClass) -> Self {
        let s = PcxSlot {
            valid: b.field(format!("{prefix}.valid"), 1, class),
            kind: b.field(format!("{prefix}.kind"), 2, class),
            thread: b.field(format!("{prefix}.thread"), THREAD_BITS, class),
            reqid: b.field(format!("{prefix}.reqid"), REQID_BITS, class),
            addr: b.field(format!("{prefix}.addr"), ADDR_BITS, class),
            data: b.field(format!("{prefix}.data"), 64, class),
        };
        // The builder packs fields in declaration order; the codec's
        // constants must say the same. Once per slot per process.
        let at = |h: FieldHandle| h.offset() - s.valid.offset();
        assert_eq!(
            [
                at(s.kind),
                at(s.thread),
                at(s.reqid),
                at(s.addr),
                at(s.data),
                at(s.data) + 64
            ],
            [
                Self::KIND,
                Self::THREAD,
                Self::REQID,
                Self::ADDR,
                Self::DATA,
                Self::BITS
            ]
        );
        s
    }

    /// The guard for this slot's payload fields.
    #[inline]
    pub fn guard(&self) -> Guard {
        Guard {
            valid: self.valid,
            start: self.valid.offset() + 1,
            end: self.valid.offset() + Self::BITS,
        }
    }

    /// The slot image holding `pkt`: the bits [`store`](Self::store)
    /// writes, valid bit set, as [`FlopSpace::read_span`] returns them.
    ///
    /// # Panics
    ///
    /// Panics if the request id does not fit the flop width (the system
    /// simulator never allocates such ids).
    #[inline]
    pub fn image(pkt: &PcxPacket) -> [u64; 3] {
        assert!(pkt.id.0 < (1 << REQID_BITS), "request id overflow");
        let mut v = [1, 0, 0];
        span_put(&mut v, Self::KIND, 2, encode_pcx_kind(pkt.kind));
        span_put(&mut v, Self::THREAD, THREAD_BITS, pkt.thread.index() as u64);
        span_put(&mut v, Self::REQID, REQID_BITS, pkt.id.0);
        span_put(&mut v, Self::ADDR, ADDR_BITS, pkt.addr.raw());
        span_put(&mut v, Self::DATA, 64, pkt.data);
        v
    }

    /// The packet a slot image holds (whatever its bits say).
    #[inline]
    pub fn from_image(v: [u64; 3]) -> PcxPacket {
        PcxPacket {
            id: ReqId(span_get(v, Self::REQID, REQID_BITS)),
            thread: ThreadId::new(span_get(v, Self::THREAD, THREAD_BITS) as usize % NUM_THREADS),
            kind: decode_pcx_kind(span_get(v, Self::KIND, 2)),
            addr: PAddr::new(span_get(v, Self::ADDR, ADDR_BITS)),
            data: span_get(v, Self::DATA, 64),
        }
    }

    /// Stores `pkt` into the slot and sets valid.
    ///
    /// # Panics
    ///
    /// As [`image`](Self::image).
    #[inline]
    pub fn store(&self, f: &mut FlopSpace, pkt: &PcxPacket) {
        self.store_image(f, Self::image(pkt));
    }

    /// Writes the image `v` over the slot, valid bit included.
    #[inline]
    pub fn store_image(&self, f: &mut FlopSpace, v: [u64; 3]) {
        f.write_span(self.valid.offset(), Self::BITS, v);
    }

    /// Loads the slot's packet (whatever the bits now say).
    #[inline]
    pub fn load(&self, f: &FlopSpace) -> PcxPacket {
        Self::from_image(f.read_span(self.valid.offset(), Self::BITS))
    }

    /// Moves the valid slot `from`'s packet into this slot: the bits
    /// `self.store(f, &from.load(f))` writes, never decoded.
    #[inline]
    pub fn copy_from(&self, f: &mut FlopSpace, from: &PcxSlot) {
        debug_assert!(from.is_valid(f));
        f.copy_range(from.valid.offset(), self.valid.offset(), Self::BITS);
    }

    /// Loads only the request id.
    #[inline]
    pub fn id(&self, f: &FlopSpace) -> ReqId {
        ReqId(f.read(self.reqid))
    }

    /// Loads only the address field — all a router needs to pick the
    /// destination bank.
    #[inline]
    pub fn addr(&self, f: &FlopSpace) -> PAddr {
        PAddr::new(f.read(self.addr))
    }

    /// Reads the valid bit.
    #[inline]
    pub fn is_valid(&self, f: &FlopSpace) -> bool {
        f.read_bool(self.valid)
    }

    /// Clears the valid bit.
    pub fn invalidate(&self, f: &mut FlopSpace) {
        f.write_bool(self.valid, false);
    }
}

/// Flop fields holding one return (CPX) packet plus a valid bit; one
/// span like [`PcxSlot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpxSlot {
    /// Entry-valid bit.
    pub valid: FieldHandle,
    kind: FieldHandle,
    thread: FieldHandle,
    reqid: FieldHandle,
    data: FieldHandle,
}

impl CpxSlot {
    /// Flops in a slot, the valid bit included.
    pub const BITS: usize = Self::DATA + 64;
    // Bit positions within the slot; the valid bit is bit 0.
    const KIND: usize = 1;
    const THREAD: usize = Self::KIND + 3;
    const REQID: usize = Self::THREAD + THREAD_BITS;
    const DATA: usize = Self::REQID + REQID_BITS;

    /// Declares the slot's fields under `prefix` with class `class`;
    /// the valid bit guards everything after it.
    pub fn declare_guarded(b: &mut FlopSpaceBuilder, prefix: &str, class: FlopClass) -> Self {
        let s = CpxSlot {
            valid: b.field(format!("{prefix}.valid"), 1, class),
            kind: b.field(format!("{prefix}.kind"), 3, class),
            thread: b.field(format!("{prefix}.thread"), THREAD_BITS, class),
            reqid: b.field(format!("{prefix}.reqid"), REQID_BITS, class),
            data: b.field(format!("{prefix}.data"), 64, class),
        };
        let at = |h: FieldHandle| h.offset() - s.valid.offset();
        assert_eq!(
            [
                at(s.kind),
                at(s.thread),
                at(s.reqid),
                at(s.data),
                at(s.data) + 64
            ],
            [
                Self::KIND,
                Self::THREAD,
                Self::REQID,
                Self::DATA,
                Self::BITS
            ]
        );
        s
    }

    /// The guard for this slot's payload fields.
    #[inline]
    pub fn guard(&self) -> Guard {
        Guard {
            valid: self.valid,
            start: self.valid.offset() + 1,
            end: self.valid.offset() + Self::BITS,
        }
    }

    /// The slot image holding `pkt`, as [`PcxSlot::image`].
    ///
    /// # Panics
    ///
    /// Panics if the request id does not fit the flop width.
    #[inline]
    pub fn image(pkt: &CpxPacket) -> [u64; 3] {
        assert!(pkt.id.0 < (1 << REQID_BITS), "request id overflow");
        let mut v = [1, 0, 0];
        span_put(&mut v, Self::KIND, 3, encode_cpx_kind(pkt.kind));
        span_put(&mut v, Self::THREAD, THREAD_BITS, pkt.thread.index() as u64);
        span_put(&mut v, Self::REQID, REQID_BITS, pkt.id.0);
        span_put(&mut v, Self::DATA, 64, pkt.data);
        v
    }

    /// The packet a slot image holds (whatever its bits say).
    #[inline]
    pub fn from_image(v: [u64; 3]) -> CpxPacket {
        CpxPacket {
            id: ReqId(span_get(v, Self::REQID, REQID_BITS)),
            thread: ThreadId::new(span_get(v, Self::THREAD, THREAD_BITS) as usize % NUM_THREADS),
            kind: decode_cpx_kind(span_get(v, Self::KIND, 3)),
            data: span_get(v, Self::DATA, 64),
        }
    }

    /// Stores `pkt` into the slot and sets valid.
    ///
    /// # Panics
    ///
    /// As [`image`](Self::image).
    #[inline]
    pub fn store(&self, f: &mut FlopSpace, pkt: &CpxPacket) {
        self.store_image(f, Self::image(pkt));
    }

    /// Writes the image `v` over the slot, valid bit included.
    #[inline]
    pub fn store_image(&self, f: &mut FlopSpace, v: [u64; 3]) {
        f.write_span(self.valid.offset(), Self::BITS, v);
    }

    /// Loads the slot's packet (whatever the bits now say).
    #[inline]
    pub fn load(&self, f: &FlopSpace) -> CpxPacket {
        Self::from_image(f.read_span(self.valid.offset(), Self::BITS))
    }

    /// Moves the valid slot `from`'s packet into this slot: the bits
    /// `self.store(f, &from.load(f))` writes. Only the kind is looked
    /// at, because that round trip is not the identity on it: a
    /// corrupted encoding (5–7) loads as `Error` and is stored as 4.
    #[inline]
    pub fn copy_from(&self, f: &mut FlopSpace, from: &CpxSlot) {
        debug_assert!(from.is_valid(f));
        let mut v = f.read_span(from.valid.offset(), Self::BITS);
        let kind = decode_cpx_kind(span_get(v, Self::KIND, 3));
        v[0] &= !(0b111 << Self::KIND);
        span_put(&mut v, Self::KIND, 3, encode_cpx_kind(kind));
        f.write_span(self.valid.offset(), Self::BITS, v);
    }

    /// Loads only the thread field — all a router needs to pick the
    /// destination core.
    #[inline]
    pub fn thread(&self, f: &FlopSpace) -> ThreadId {
        ThreadId::new((f.read(self.thread) as usize) % NUM_THREADS)
    }

    /// Reads the valid bit.
    #[inline]
    pub fn is_valid(&self, f: &FlopSpace) -> bool {
        f.read_bool(self.valid)
    }

    /// Clears the valid bit.
    pub fn invalidate(&self, f: &mut FlopSpace) {
        f.write_bool(self.valid, false);
    }
}

/// Flop fields holding a 512-bit cache line plus a valid bit, an address
/// field, and an optional small tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSlot {
    /// Entry-valid bit.
    pub valid: FieldHandle,
    /// Line-address field.
    pub line: FieldHandle,
    words: [FieldHandle; 8],
    span: (usize, usize),
}

impl LineSlot {
    /// Line-address field width (covers 34-bit physical addresses).
    pub const LINE_BITS: usize = 28;

    /// Declares the slot and computes its guarded bit span.
    pub fn declare_guarded(b: &mut FlopSpaceBuilder, prefix: &str, class: FlopClass) -> Self {
        let before = b.declared_bits();
        let valid = b.field(format!("{prefix}.valid"), 1, class);
        let line = b.field(format!("{prefix}.line"), Self::LINE_BITS, class);
        let words = core::array::from_fn(|i| b.field(format!("{prefix}.w{i}"), 64, class));
        LineSlot {
            valid,
            line,
            words,
            span: (before + 1, before + 1 + Self::LINE_BITS + 8 * 64),
        }
    }

    /// The guard for this slot's payload fields.
    pub fn guard(&self) -> Guard {
        Guard {
            valid: self.valid,
            start: self.span.0,
            end: self.span.1,
        }
    }

    /// Stores line address and data, setting valid.
    pub fn store(&self, f: &mut FlopSpace, line: u64, data: &[u64; 8]) {
        f.write_bool(self.valid, true);
        f.write(self.line, line);
        for (h, &w) in self.words.iter().zip(data) {
            f.write(*h, w);
        }
    }

    /// Loads the line address.
    pub fn line_addr(&self, f: &FlopSpace) -> u64 {
        f.read(self.line)
    }

    /// Loads the line data.
    pub fn data(&self, f: &FlopSpace) -> [u64; 8] {
        core::array::from_fn(|i| f.read(self.words[i]))
    }

    /// Reads the valid bit.
    pub fn is_valid(&self, f: &FlopSpace) -> bool {
        f.read_bool(self.valid)
    }

    /// Clears the valid bit.
    pub fn invalidate(&self, f: &mut FlopSpace) {
        f.write_bool(self.valid, false);
    }
}

/// The slot codecs as they were before the span codec, bodies verbatim:
/// one `FlopSpace` access per field. Oracles of
/// `span_codec_matches_the_field_by_field_codec` and of the crossbar's
/// `tick_reference`.
#[cfg(test)]
impl PcxSlot {
    pub(crate) fn store_reference(&self, f: &mut FlopSpace, pkt: &PcxPacket) {
        assert!(pkt.id.0 < (1 << REQID_BITS), "request id overflow");
        f.write_bool(self.valid, true);
        f.write(self.kind, encode_pcx_kind(pkt.kind));
        f.write(self.thread, pkt.thread.index() as u64);
        f.write(self.reqid, pkt.id.0);
        f.write(self.addr, pkt.addr.raw());
        f.write(self.data, pkt.data);
    }

    pub(crate) fn load_reference(&self, f: &FlopSpace) -> PcxPacket {
        PcxPacket {
            id: self.id(f),
            thread: ThreadId::new((f.read(self.thread) as usize) % NUM_THREADS),
            kind: decode_pcx_kind(f.read(self.kind)),
            addr: self.addr(f),
            data: f.read(self.data),
        }
    }
}

#[cfg(test)]
impl CpxSlot {
    pub(crate) fn store_reference(&self, f: &mut FlopSpace, pkt: &CpxPacket) {
        assert!(pkt.id.0 < (1 << REQID_BITS), "request id overflow");
        f.write_bool(self.valid, true);
        f.write(self.kind, encode_cpx_kind(pkt.kind));
        f.write(self.thread, pkt.thread.index() as u64);
        f.write(self.reqid, pkt.id.0);
        f.write(self.data, pkt.data);
    }

    pub(crate) fn load_reference(&self, f: &FlopSpace) -> CpxPacket {
        CpxPacket {
            id: ReqId(f.read(self.reqid)),
            thread: self.thread(f),
            kind: decode_cpx_kind(f.read(self.kind)),
            data: f.read(self.data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_proto::addr::ThreadId;

    fn pcx() -> PcxPacket {
        PcxPacket {
            id: ReqId(0xabcd),
            thread: ThreadId::new(17),
            kind: PcxKind::Store,
            addr: PAddr::new(0x1000_0040),
            data: 0x1122_3344_5566_7788,
        }
    }

    /// `collapse_queue_at` as it was before the one-move shift, body
    /// verbatim: each slot above `idx` copied down field group by field
    /// group. The oracle of `one_move_collapse_matches_the_per_slot_loop`.
    fn collapse_queue_at_reference(f: &mut FlopSpace, guards: &[Guard], idx: usize) {
        for i in (idx + 1)..guards.len() {
            let (src, dst) = (guards[i], guards[i - 1]);
            let v = f.read_bool(src.valid);
            f.write_bool(dst.valid, v);
            f.copy_range(src.start, dst.start, src.end - src.start);
        }
        if let Some(last) = guards.last() {
            f.write_bool(last.valid, false);
            f.zero_range(last.start, last.end - last.start);
        }
    }

    #[test]
    fn one_move_collapse_matches_the_per_slot_loop() {
        use crate::{Ccx, L2cBank, Mcu, UncoreRtl};
        use nestsim_proto::addr::{BankId, McuId};

        // Every collapsing queue in the workspace, in its real place in
        // its real flop space (offsets and word alignment included).
        let (bank, mcu, ccx) = (
            L2cBank::new(BankId::new(3)),
            Mcu::new(McuId::new(1)),
            Ccx::new(),
        );
        let mut queues: Vec<(&str, &FlopSpace, Vec<Guard>)> = Vec::new();
        queues.extend(bank.queues().into_iter().map(|(n, g)| (n, bank.flops(), g)));
        queues.extend(mcu.queues().into_iter().map(|(n, g)| (n, mcu.flops(), g)));
        queues.extend(ccx.queues().into_iter().map(|(n, g)| (n, ccx.flops(), g)));
        assert_eq!(queues.len(), 2 + 2 + 16);

        let mut rng = nestsim_harness::rng::HarnessRng::new(0x5eed_0020);
        for (name, space, guards) in &queues {
            assert!(is_packed_queue(space, guards), "{name}");
            for idx in 0..guards.len() {
                for round in 0..8 {
                    // Random bits everywhere — slots beyond any
                    // plausible `count` hold garbage too, as a flip
                    // leaves it, and so do the queue's neighbours.
                    let mut got = (*space).clone();
                    for bit in 0..got.num_flops() {
                        if round > 0 && rng.next_u64() & 1 == 1 {
                            got.flip(bit);
                        }
                    }
                    let mut want = got.clone();
                    let before = got.clone();
                    collapse_queue_at(&mut got, guards, idx);
                    collapse_queue_at_reference(&mut want, guards, idx);
                    assert_eq!(got.diff_count(&want), 0, "{name} idx {idx}");
                    let (lo, hi) = (guards[0].start - 1, guards[guards.len() - 1].end);
                    assert!(
                        got.diff_bits(&before).all(|b| (lo..hi).contains(&b)),
                        "{name} idx {idx}: a bit outside the queue moved"
                    );
                }
            }
        }
    }

    /// A space of random bits with two slots of one kind declared
    /// behind a random unaligned pad: the slot under test and a second
    /// one for `copy_from`.
    fn slots_in_noise<S>(
        src: &mut nestsim_harness::Source,
        declare: fn(&mut FlopSpaceBuilder, &str, FlopClass) -> S,
    ) -> (FlopSpace, S, S) {
        let mut b = FlopSpaceBuilder::new("t");
        for (name, bound) in [("pad", 200), ("gap", 70)] {
            let bits = src.below(bound) as usize + 1;
            b.field_array(&format!("{name}.w"), bits / 64, 64, FlopClass::Inactive);
            b.field(format!("{name}.tail"), bits % 64 + 1, FlopClass::Inactive);
        }
        let s = declare(&mut b, "s", FlopClass::Target);
        b.field("between", src.below(64) as usize + 1, FlopClass::Inactive);
        let t = declare(&mut b, "t", FlopClass::Target);
        b.field("after", 64, FlopClass::Inactive);
        let mut f = b.build();
        for bit in 0..f.num_flops() {
            if src.bool() {
                f.flip(bit);
            }
        }
        (f, s, t)
    }

    nestsim_harness::properties! {
        /// Whatever a slot's bits say, every corrupted encoding
        /// included, the span codec reads the packet the field-by-field
        /// codec reads; a store leaves the whole space as the reference
        /// leaves it, neighbours untouched; and a bits-only hop leaves
        /// what a load and a store would.
        fn span_codec_matches_the_field_by_field_codec(src) {
            let (mut f, s, t) = slots_in_noise(src, PcxSlot::declare_guarded);
            assert_eq!(s.load(&f), s.load_reference(&f));
            for pattern in 0..4 * 64 {
                f.write(s.kind, pattern / 64);
                f.write(s.thread, pattern % 64);
                assert_eq!(s.load(&f), s.load_reference(&f));
            }
            let mut want = f.clone();
            s.store_reference(&mut want, &t.load_reference(&f));
            f.write_bool(t.valid, true);
            want.write_bool(t.valid, true);
            s.copy_from(&mut f, &t);
            assert!(f == want, "pcx hop");
            let pkt = PcxPacket {
                id: ReqId(src.u64() >> 32),
                thread: ThreadId::new(src.below(64) as usize),
                kind: decode_pcx_kind(src.below(4)),
                addr: PAddr::new(src.u64() >> src.below(40)),
                data: src.u64(),
            };
            s.store(&mut f, &pkt);
            s.store_reference(&mut want, &pkt);
            assert!(f == want, "pcx store");

            let (mut f, s, t) = slots_in_noise(src, CpxSlot::declare_guarded);
            assert_eq!(s.load(&f), s.load_reference(&f));
            // Every kind and thread pattern; kinds 5–7 are corrupted
            // encodings and read as `Error` (4).
            for pattern in 0..8 * 64 {
                f.write(s.kind, pattern / 64);
                f.write(s.thread, pattern % 64);
                assert_eq!(s.load(&f), s.load_reference(&f));
                assert_eq!(s.load(&f).kind == CpxKind::Error, pattern / 64 >= 4);
            }
            let mut want = f.clone();
            s.store_reference(&mut want, &t.load_reference(&f));
            f.write_bool(t.valid, true);
            want.write_bool(t.valid, true);
            s.copy_from(&mut f, &t);
            assert!(f == want, "cpx hop");
            let pkt = CpxPacket {
                id: ReqId(src.u64() >> 32),
                thread: ThreadId::new(src.below(64) as usize),
                kind: decode_cpx_kind(src.below(8)),
                data: src.u64(),
            };
            s.store(&mut f, &pkt);
            s.store_reference(&mut want, &pkt);
            assert!(f == want, "cpx store");
        }
    }

    #[test]
    fn pcx_slot_round_trips() {
        let mut b = FlopSpaceBuilder::new("t");
        let s = PcxSlot::declare_guarded(&mut b, "iq[0]", FlopClass::Target);
        let mut f = b.build();
        let p = pcx();
        s.store(&mut f, &p);
        assert!(s.is_valid(&f));
        assert_eq!(s.load(&f), p);
        s.invalidate(&mut f);
        assert!(!s.is_valid(&f));
    }

    #[test]
    fn cpx_slot_round_trips() {
        let mut b = FlopSpaceBuilder::new("t");
        let s = CpxSlot::declare_guarded(&mut b, "oq[0]", FlopClass::Target);
        let mut f = b.build();
        let p = CpxPacket::reply_to(&pcx(), 55);
        s.store(&mut f, &p);
        assert_eq!(s.load(&f), p);
    }

    #[test]
    fn line_slot_round_trips() {
        let mut b = FlopSpaceBuilder::new("t");
        let s = LineSlot::declare_guarded(&mut b, "wbb[0]", FlopClass::Target);
        let mut f = b.build();
        let d = [1, 2, 3, 4, 5, 6, 7, 8];
        s.store(&mut f, 0x123, &d);
        assert_eq!(s.line_addr(&f), 0x123);
        assert_eq!(s.data(&f), d);
    }

    #[test]
    fn kind_decoding_is_total() {
        for v in 0..4 {
            let _ = decode_pcx_kind(v);
        }
        for v in 0..8 {
            let _ = decode_cpx_kind(v);
        }
        assert_eq!(decode_cpx_kind(6), CpxKind::Error);
    }

    #[test]
    fn corrupted_addr_bit_changes_loaded_packet() {
        let mut b = FlopSpaceBuilder::new("t");
        let s = PcxSlot::declare_guarded(&mut b, "iq[0]", FlopClass::Target);
        let mut f = b.build();
        let p = pcx();
        s.store(&mut f, &p);
        // Flip a bit inside the slot's guarded span (an address bit).
        let g = s.guard();
        f.flip(g.start + 2 + THREAD_BITS + REQID_BITS + 5); // 6th addr bit
        let q = s.load(&f);
        assert_ne!(q.addr, p.addr);
        assert_eq!(q.id, p.id);
    }

    #[test]
    fn strata_classify_bundle_fields() {
        assert_eq!(Stratum::of_field("iq[0].addr"), Stratum::Address);
        assert_eq!(Stratum::of_field("wbb[3].line"), Stratum::Address);
        assert_eq!(Stratum::of_field("iq[0].data"), Stratum::Data);
        assert_eq!(Stratum::of_field("wbb[3].w0"), Stratum::Data);
        assert_eq!(Stratum::of_field("wbb[3].w7"), Stratum::Data);
        for leaf in ["valid", "kind", "thread", "reqid", "state", "w", "wx1"] {
            assert_eq!(
                Stratum::of_field(&format!("iq[0].{leaf}")),
                Stratum::Control,
                "{leaf}"
            );
        }
        // Total over every field a real bundle declares.
        let mut b = FlopSpaceBuilder::new("t");
        let _ = PcxSlot::declare_guarded(&mut b, "iq[0]", FlopClass::Target);
        let _ = LineSlot::declare_guarded(&mut b, "wbb[0]", FlopClass::Target);
        let f = b.build();
        for fd in f.fields() {
            let _ = Stratum::of_field(&fd.name);
        }
    }

    #[test]
    fn guard_marks_invalid_entry_diffs_benign() {
        let mut b = FlopSpaceBuilder::new("t");
        let s = PcxSlot::declare_guarded(&mut b, "iq[0]", FlopClass::Target);
        let f = b.build();
        let mut target = f.clone();
        let golden = f;
        // Entry invalid in both; corrupt a payload bit in target only.
        let g = s.guard();
        target.flip(g.start + 3);
        assert!(g.benign(g.start + 3, &target, &golden));
        // The valid bit itself is never benign.
        assert!(!g.benign(g.start - 1, &target, &golden));
        // Once valid in target, payload diffs are significant.
        target.write_bool(s.valid, true);
        assert!(!g.benign(g.start + 3, &target, &golden));
    }
}
