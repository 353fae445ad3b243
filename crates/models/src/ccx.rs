//! Flip-flop-level model of the processor↔cache crossbar (CCX).
//!
//! The T2 crossbar moves PCX request packets from 8 cores to 8 L2 banks
//! and CPX return packets back. Per Table 1 it has **no** high-level
//! uncore state: everything it holds is in-flight packets, which is why
//! the paper can reconstruct its state purely through warm-up traffic
//! (footnote 4).
//!
//! Microarchitecture: a 2-entry input FIFO per core (PCX side) and per
//! bank (CPX side), a round-robin arbiter per destination, and one
//! staging register per destination port.
//!
//! Error semantics: a flipped address bit reroutes a request to the
//! (consistently) wrong bank *and* wrong address; a flipped thread field
//! returns data to the wrong hardware thread, leaving the requester
//! waiting (Hang); valid flips drop or fabricate packets in flight.
//!
//! Before the flip there is nothing for flops to be wrong about, so the
//! warm-up runs on [`CcxWarm`], the same crossbar over packets, which
//! becomes a [`Ccx`] at the golden snapshot, and packets again
//! ([`CcxWarm::from_ccx`]) once its flops are identical to a fault-free
//! crossbar's.

use std::sync::OnceLock;

use nestsim_proto::addr::{l2_bank_of, NUM_CORES, NUM_L2_BANKS};
use nestsim_proto::{CpxPacket, PcxPacket, ReqId};
use nestsim_rtl::{FieldHandle, FlopClass, FlopSpace, FlopSpaceBuilder};

use crate::fields::{
    benign_in, is_packed_queue, shift_queue_down, CpxSlot, Guard, PcxSlot, REQID_BITS,
};
use crate::{ComponentKind, UncoreRtl};

/// FIFO depth per port.
pub const PORT_FIFO_DEPTH: usize = 2;

/// Per-cycle inputs: at most one packet per source port.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CcxInputs {
    /// Requests arriving from each core (check [`Ccx::core_ready`]).
    pub from_cores: [Option<PcxPacket>; NUM_CORES],
    /// Returns arriving from each L2 bank (check [`Ccx::bank_ready`]).
    pub from_banks: [Option<CpxPacket>; NUM_L2_BANKS],
}

/// Per-cycle outputs: at most one packet per destination port.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CcxOutputs {
    /// Requests delivered to each L2 bank. The driver must only drain a
    /// port when the bank is ready; pass bank readiness via
    /// [`CcxInputs`]-independent flow control (`bank_can_accept`).
    pub to_banks: [Option<PcxPacket>; NUM_L2_BANKS],
    /// Returns delivered to each core.
    pub to_cores: [Option<CpxPacket>; NUM_CORES],
    /// Which core inputs were latched.
    pub core_accepted: [bool; NUM_CORES],
    /// Which bank inputs were latched.
    pub bank_accepted: [bool; NUM_L2_BANKS],
}

/// What the crossbar needs from a packet slot. The request (PCX) and
/// return (CPX) halves differ only in the packet they carry and in the
/// field that routes it, so both run the same FIFO, staging-register
/// and arbitration code over this.
trait Slot: Copy {
    type Packet: Copy + PartialEq + std::fmt::Debug;

    fn declare(b: &mut FlopSpaceBuilder, prefix: &str) -> Self;
    fn guard(&self) -> Guard;
    fn load(&self, f: &FlopSpace) -> Self::Packet;
    fn store(&self, f: &mut FlopSpace, pkt: &Self::Packet);
    /// The span `store` writes for `pkt`.
    fn image(pkt: &Self::Packet) -> [u64; 3];
    /// The packet `load` reads from a span holding `v`.
    fn from_image(v: [u64; 3]) -> Self::Packet;
    /// The packet an empty slot's zeroed flops decode to.
    #[inline]
    fn blank() -> Self::Packet {
        Self::from_image([0; 3])
    }
    /// Request id of `pkt`, which `store` asserts fits its field.
    fn id(pkt: &Self::Packet) -> ReqId;
    /// Destination port of `pkt`: what [`dest`](Self::dest) reads from a
    /// slot holding its image.
    fn route(pkt: &Self::Packet) -> usize;

    /// What `self.store(f, &from.load(f))` does for a valid `from`, on
    /// the bits alone: a packet crossing the crossbar is decoded once,
    /// where it leaves.
    fn copy_from(&self, f: &mut FlopSpace, from: &Self);

    /// Destination port named by the routing field, whatever its bits
    /// now say, read without loading the rest of the packet.
    fn dest(&self, f: &FlopSpace) -> usize;

    #[inline]
    fn is_valid(&self, f: &FlopSpace) -> bool {
        f.read_bool(self.guard().valid)
    }

    /// Empties a valid slot, payload included, and returns what it
    /// held. Stages self-clear on drain like the shifting queues do,
    /// which makes the microarchitectural state reconstructible by
    /// warm-up alone (footnote 4 / Fig. 5).
    #[inline] // 16 calls per tick, nearly all `None`: keep the packet out of memory
    fn take(&self, f: &mut FlopSpace) -> Option<Self::Packet> {
        if !self.is_valid(f) {
            return None;
        }
        let pkt = self.load(f);
        let g = self.guard();
        f.zero_range(g.start - 1, g.end + 1 - g.start); // the valid bit sits just below
        Some(pkt)
    }
}

impl Slot for PcxSlot {
    type Packet = PcxPacket;

    fn declare(b: &mut FlopSpaceBuilder, prefix: &str) -> Self {
        PcxSlot::declare_guarded(b, prefix, FlopClass::Target)
    }
    fn guard(&self) -> Guard {
        PcxSlot::guard(self)
    }
    fn load(&self, f: &FlopSpace) -> PcxPacket {
        PcxSlot::load(self, f)
    }
    fn store(&self, f: &mut FlopSpace, pkt: &PcxPacket) {
        PcxSlot::store(self, f, pkt);
    }
    fn image(pkt: &PcxPacket) -> [u64; 3] {
        PcxSlot::image(pkt)
    }
    fn from_image(v: [u64; 3]) -> PcxPacket {
        PcxSlot::from_image(v)
    }
    fn id(pkt: &PcxPacket) -> ReqId {
        pkt.id
    }
    fn route(pkt: &PcxPacket) -> usize {
        pkt.bank().index()
    }
    fn copy_from(&self, f: &mut FlopSpace, from: &Self) {
        PcxSlot::copy_from(self, f, from);
    }
    fn dest(&self, f: &FlopSpace) -> usize {
        l2_bank_of(self.addr(f)).index()
    }
}

impl Slot for CpxSlot {
    type Packet = CpxPacket;

    fn declare(b: &mut FlopSpaceBuilder, prefix: &str) -> Self {
        CpxSlot::declare_guarded(b, prefix, FlopClass::Target)
    }
    fn guard(&self) -> Guard {
        CpxSlot::guard(self)
    }
    fn load(&self, f: &FlopSpace) -> CpxPacket {
        CpxSlot::load(self, f)
    }
    fn store(&self, f: &mut FlopSpace, pkt: &CpxPacket) {
        CpxSlot::store(self, f, pkt);
    }
    fn image(pkt: &CpxPacket) -> [u64; 3] {
        CpxSlot::image(pkt)
    }
    fn from_image(v: [u64; 3]) -> CpxPacket {
        CpxSlot::from_image(v)
    }
    fn id(pkt: &CpxPacket) -> ReqId {
        pkt.id
    }
    fn route(pkt: &CpxPacket) -> usize {
        pkt.thread.core().index()
    }
    fn copy_from(&self, f: &mut FlopSpace, from: &Self) {
        CpxSlot::copy_from(self, f, from);
    }
    fn dest(&self, f: &FlopSpace) -> usize {
        self.thread(f).core().index()
    }
}

/// One source port's input FIFO: handles only, the bits live in the
/// crossbar's [`FlopSpace`].
#[derive(Debug, Clone, Copy)]
struct Fifo<S> {
    slots: [S; PORT_FIFO_DEPTH],
    guards: [Guard; PORT_FIFO_DEPTH],
    count: FieldHandle,
}

impl<S: Slot> Fifo<S> {
    fn declare(b: &mut FlopSpaceBuilder, port: &str) -> Self {
        let slots: [S; PORT_FIFO_DEPTH] =
            core::array::from_fn(|i| S::declare(b, &format!("{port}[{i}]")));
        Fifo {
            guards: slots.map(|s| s.guard()),
            slots,
            count: b.field(format!("{port}.count"), 2, FlopClass::Target),
        }
    }

    /// The occupancy counter as the flops hold it: a flip can make it
    /// exceed [`PORT_FIFO_DEPTH`] or disagree with the valid bits.
    #[inline]
    fn count(&self, f: &FlopSpace) -> usize {
        f.read(self.count) as usize
    }

    /// Discards the head entry; the counter must read non-zero.
    fn pop(&self, f: &mut FlopSpace) {
        let count = self.count(f);
        shift_queue_down(f, &self.guards);
        f.write(self.count, (count - 1) as u64);
    }

    /// Latches `pkt` behind the queued entries; `false` if full.
    fn push(&self, f: &mut FlopSpace, pkt: &S::Packet) -> bool {
        let count = self.count(f);
        if count >= PORT_FIFO_DEPTH {
            return false;
        }
        self.slots[count].store(f, pkt);
        f.write(self.count, (count + 1) as u64);
        true
    }
}

// Grants on which the scan passed over a source whose head it knew to
// be routed elsewhere, for the differential oracle's coverage.
#[cfg(test)]
thread_local! {
    static SKIPPED_KNOWN_HEADS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One arbitration phase: every destination port with a free staging
/// register scans the source FIFOs round-robin from its pointer and
/// moves the first head routed to it into the stage.
///
/// Route-once: a source's head is decoded from the flops (count, valid
/// bit, routing field) the first time some port's scan reaches it and
/// remembered in two kinds of source bitmask — `unknown`, and per
/// destination `to[dst]`; a source in neither is known to be empty. A
/// port's scan is the set bits of `unknown | to[dst]` rotated to start
/// at its pointer: the sources a scan of all of them would decode or
/// grant, in the same order. The rest have a head known to go
/// elsewhere, which such a scan compares and leaves alone, so skipping
/// them (and, when there is no candidate at all, the port) reads less
/// and changes nothing. The flops end up exactly as if every port had
/// re-read every source it scans, because the three ways a FIFO changes
/// inside a phase are the three ways the masks do:
///
/// * a phantom head (count > 0, valid clear — a corrupted FIFO) is
///   dropped by the scan that finds it and the source stays `unknown`,
///   so the next scan decodes the entry that shifted down;
/// * a grant pops the source and returns it to `unknown`, so a later
///   port can be granted the next entry in the same cycle;
/// * empty is sticky, because inputs latch only after arbitration.
fn arbitrate<S: Slot, const SRC: usize, const DST: usize>(
    f: &mut FlopSpace,
    fifos: &[Fifo<S>; SRC],
    stages: &[S; DST],
    rr: &[FieldHandle; DST],
) {
    let all = (1u32 << SRC) - 1;
    let mut unknown = all;
    let mut to = [0u32; DST];
    for (dst, (stage, &rr)) in stages.iter().zip(rr).enumerate() {
        let candidates = unknown | to[dst];
        if candidates == 0 {
            if to.iter().all(|&m| m == 0) {
                return; // nothing queued anywhere: the idle cycle costs one scan
            }
            continue;
        }
        if stage.is_valid(f) {
            continue;
        }
        let first = f.read(rr) as usize % SRC;
        // Bit `off` of a rotated mask is source `(first + off) % SRC`.
        let rotated = |m: u32| (m >> first | m << (SRC - first)) & all;
        let mut scan = rotated(candidates);
        while scan != 0 {
            let off = scan.trailing_zeros() as usize;
            scan &= scan - 1;
            let src = (first + off) % SRC;
            let (fifo, bit) = (&fifos[src], 1 << src);
            if unknown & bit != 0 {
                if fifo.count(f) == 0 {
                    unknown &= !bit;
                    continue;
                }
                if !fifo.slots[0].is_valid(f) {
                    fifo.pop(f);
                    continue;
                }
                unknown &= !bit;
                to[fifo.slots[0].dest(f)] |= bit;
            }
            if to[dst] & bit != 0 {
                #[cfg(test)]
                if rotated(to.iter().fold(0, |m, t| m | t) & !to[dst]) & ((1 << off) - 1) != 0 {
                    SKIPPED_KNOWN_HEADS.with(|n| n.set(n.get() + 1));
                }
                stage.copy_from(f, &fifo.slots[0]);
                fifo.pop(f);
                f.write(rr, ((src + 1) % SRC) as u64);
                to[dst] &= !bit;
                unknown |= bit;
                break;
            }
        }
    }
}

/// Guarded groups in a crossbar: every FIFO slot and staging register.
const NUM_GUARDS: usize = (NUM_CORES + NUM_L2_BANKS) * (PORT_FIFO_DEPTH + 1);

/// Where the crossbar's ports sit in its flops: fixed tables of field
/// handles. `Copy`, so a clone of the crossbar moves them as one block.
#[derive(Debug, Clone, Copy)]
struct Ports {
    pcx_fifos: [Fifo<PcxSlot>; NUM_CORES],
    cpx_fifos: [Fifo<CpxSlot>; NUM_L2_BANKS],
    /// Per-bank round-robin arbiter pointer over cores.
    pcx_rr: [FieldHandle; NUM_L2_BANKS],
    /// Per-core round-robin arbiter pointer over banks.
    cpx_rr: [FieldHandle; NUM_CORES],
    /// Per-bank staging register (one PCX packet).
    pcx_stage: [PcxSlot; NUM_L2_BANKS],
    /// Per-core staging register (one CPX packet).
    cpx_stage: [CpxSlot; NUM_CORES],
    guards: [Guard; NUM_GUARDS],
}

/// Flip-flop-level model of the crossbar interconnect.
///
/// Everything but `flops` is a fixed table of field handles, so a clone
/// (the golden copy) copies the flop bits and nothing else.
#[derive(Debug)]
pub struct Ccx {
    flops: FlopSpace,
    ports: Ports,
    /// Bit `k`: bank `k` could accept in the last cycle computed. A
    /// crossbar that settled can hold a staged packet for a bank that
    /// was not ready; it stays settled only until such a bank is.
    settled_ready: u8,
}

// Hand-written so that `clone_from` copies into the bits it holds.
impl Clone for Ccx {
    fn clone(&self) -> Self {
        Ccx {
            flops: self.flops.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Ccx {
            flops,
            ports,
            settled_ready,
        } = source;
        self.flops.clone_from(flops);
        self.ports = *ports;
        self.settled_ready = *settled_ready;
    }
}

impl Ccx {
    /// Creates an empty crossbar: a copy of the per-process prototype,
    /// so the 299 field names are formatted once.
    pub fn new() -> Self {
        Self::prototype().clone()
    }

    fn prototype() -> &'static Ccx {
        static PROTOTYPE: OnceLock<Ccx> = OnceLock::new();
        PROTOTYPE.get_or_init(Self::build)
    }

    fn build() -> Self {
        use core::array::from_fn;
        // Declaration order fixes every global bit index, and those are
        // sample identities: append, never reorder.
        let mut b = FlopSpaceBuilder::new("ccx");
        let pcx_fifos: [Fifo<PcxSlot>; NUM_CORES] =
            from_fn(|c| Fifo::declare(&mut b, &format!("pcx{c}")));
        let cpx_fifos: [Fifo<CpxSlot>; NUM_L2_BANKS] =
            from_fn(|k| Fifo::declare(&mut b, &format!("cpx{k}")));
        let pcx_rr = from_fn(|k| b.field(format!("arb.pcx{k}.rr"), 3, FlopClass::Target));
        let cpx_rr = from_fn(|c| b.field(format!("arb.cpx{c}.rr"), 3, FlopClass::Target));
        let pcx_stage: [PcxSlot; NUM_L2_BANKS] =
            from_fn(|k| Slot::declare(&mut b, &format!("stage.pcx{k}")));
        let cpx_stage: [CpxSlot; NUM_CORES] =
            from_fn(|c| Slot::declare(&mut b, &format!("stage.cpx{c}")));

        // Small BIST chain: Table 4 reports 0.8% inactive, nothing
        // protected, for CCX. No tick reads it.
        b.dead_array("bist.chain", 3, 16, FlopClass::Inactive);

        let mut guards = (pcx_fifos.iter().flat_map(|f| f.guards))
            .chain(cpx_fifos.iter().flat_map(|f| f.guards))
            .chain(pcx_stage.iter().map(Slot::guard))
            .chain(cpx_stage.iter().map(Slot::guard));
        let guards = from_fn(|_| guards.next().expect("NUM_GUARDS counts every slot"));

        let flops = b.build();
        // `guards` lists the FIFO slots first, port by port.
        let fifo_slots = (NUM_CORES + NUM_L2_BANKS) * PORT_FIFO_DEPTH;
        let mut fifos = guards[..fifo_slots].chunks(PORT_FIFO_DEPTH);
        assert!(fifos.all(|q| is_packed_queue(&flops, q)));
        let ports = Ports {
            pcx_fifos,
            cpx_fifos,
            pcx_rr,
            cpx_rr,
            pcx_stage,
            cpx_stage,
            guards,
        };
        Ccx {
            flops,
            ports,
            settled_ready: 0,
        }
    }

    /// True if core `c`'s input FIFO can accept a request this cycle.
    #[inline]
    pub fn core_ready(&self, c: usize) -> bool {
        self.ports.pcx_fifos[c].count(&self.flops) < PORT_FIFO_DEPTH
    }

    /// True if bank `k`'s return FIFO can accept a packet this cycle.
    #[inline]
    pub fn bank_ready(&self, k: usize) -> bool {
        self.ports.cpx_fifos[k].count(&self.flops) < PORT_FIFO_DEPTH
    }

    /// True if no packets are in flight anywhere in the crossbar.
    pub fn idle(&self) -> bool {
        self.pcx_occupancy() == 0
            && self.cpx_occupancy() == 0
            && self
                .ports
                .pcx_stage
                .iter()
                .all(|s| !s.is_valid(&self.flops))
            && self
                .ports
                .cpx_stage
                .iter()
                .all(|s| !s.is_valid(&self.flops))
    }

    /// Total request-side (PCX) FIFO occupancy across all core ports
    /// (sampled by campaign telemetry).
    pub fn pcx_occupancy(&self) -> usize {
        self.ports
            .pcx_fifos
            .iter()
            .map(|f| f.count(&self.flops))
            .sum()
    }

    /// Total return-side (CPX) FIFO occupancy across all bank ports
    /// (sampled by campaign telemetry).
    pub fn cpx_occupancy(&self) -> usize {
        self.ports
            .cpx_fifos
            .iter()
            .map(|f| f.count(&self.flops))
            .sum()
    }

    /// Advances the crossbar one cycle. `bank_can_accept[k]` is bank
    /// `k`'s flow-control (its `ready()` this cycle); core return ports
    /// are always ready (cores sink returns immediately).
    ///
    /// A cycle is a pure function of the flops and the two arguments, so
    /// one that took no input, changed no flop and delivered nothing is
    /// a fixed point: until a flop is touched, an input arrives or a
    /// bank that was not ready becomes ready, every further cycle is
    /// that same cycle and is not recomputed (DESIGN.md, *Settled
    /// ticks*).
    pub fn tick(&mut self, inp: &CcxInputs, bank_can_accept: &[bool; NUM_L2_BANKS]) -> CcxOutputs {
        let ready =
            (bank_can_accept.iter().enumerate()).fold(0u8, |m, (k, &r)| m | u8::from(r) << k);
        let quiet = ready & !self.settled_ready == 0
            && inp.from_cores.iter().all(Option::is_none)
            && inp.from_banks.iter().all(Option::is_none);
        if quiet && !self.flops.changed() {
            return CcxOutputs::default();
        }
        self.flops.clear_changed();
        self.settled_ready = ready;
        let out = self.tick_body(inp, bank_can_accept);
        if !quiet || out != CcxOutputs::default() {
            self.flops.mark_changed();
        }
        out
    }

    /// The cycle itself, computed whether or not anything can happen.
    fn tick_body(&mut self, inp: &CcxInputs, bank_can_accept: &[bool; NUM_L2_BANKS]) -> CcxOutputs {
        let mut out = CcxOutputs::default();
        let f = &mut self.flops;

        // ── Drain staging registers ─────────────────────────────────
        for (k, s) in self.ports.pcx_stage.iter().enumerate() {
            if bank_can_accept[k] {
                out.to_banks[k] = s.take(f);
            }
        }
        for (c, s) in self.ports.cpx_stage.iter().enumerate() {
            out.to_cores[c] = s.take(f);
        }

        // ── Arbitrate: per bank one requesting core, then per core ──
        // one returning bank, routed by the (possibly corrupted)
        // address and thread fields.
        arbitrate(
            f,
            &self.ports.pcx_fifos,
            &self.ports.pcx_stage,
            &self.ports.pcx_rr,
        );
        arbitrate(
            f,
            &self.ports.cpx_fifos,
            &self.ports.cpx_stage,
            &self.ports.cpx_rr,
        );

        // ── Latch inputs ────────────────────────────────────────────
        for (c, pkt) in inp.from_cores.iter().enumerate() {
            if let Some(pkt) = pkt {
                out.core_accepted[c] = self.ports.pcx_fifos[c].push(f, pkt);
            }
        }
        for (k, pkt) in inp.from_banks.iter().enumerate() {
            if let Some(pkt) = pkt {
                out.bank_accepted[k] = self.ports.cpx_fifos[k].push(f, pkt);
            }
        }

        out
    }
}

impl Default for Ccx {
    fn default() -> Self {
        Ccx::new()
    }
}

impl UncoreRtl for Ccx {
    fn kind(&self) -> ComponentKind {
        ComponentKind::Ccx
    }

    fn flops(&self) -> &FlopSpace {
        &self.flops
    }

    fn flops_mut(&mut self) -> &mut FlopSpace {
        &mut self.flops
    }

    fn is_benign_diff(&self, golden: &Self, bit: usize) -> bool {
        benign_in(&self.ports.guards, bit, &self.flops, &golden.flops)
    }
}

/// A bit per slot of `slots` that holds a packet, found without a
/// branch per slot.
pub fn present<T>(slots: &[Option<T>]) -> u32 {
    (slots.iter().enumerate()).fold(0, |m, (i, p)| m | u32::from(p.is_some()) << i)
}

/// The set bits of `m`, lowest first.
fn bits(mut m: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = (m != 0).then(|| m.trailing_zeros() as usize)?;
        m &= m - 1;
        Some(i)
    })
}

/// One direction of a [`CcxWarm`]: the source FIFOs, staging registers
/// and round-robin pointers of [`arbitrate`]'s phase, holding packets,
/// and two masks of what is occupied, so that a cycle touches only the
/// ports that hold traffic. An empty entry holds [`Slot::blank`] with
/// destination 0, as empty flops are zero, so two halves holding the
/// same traffic compare equal.
#[derive(Debug, Clone, PartialEq)]
struct WarmHalf<S: Slot, const SRC: usize, const DST: usize> {
    /// Queued packets per source, head first, up to the count.
    queue: [[S::Packet; PORT_FIFO_DEPTH]; SRC],
    /// Destination port of each queued packet, beside it.
    dest: [[u8; PORT_FIFO_DEPTH]; SRC],
    count: [u8; SRC],
    /// The packet in each stage that `staged` marks.
    stage: [S::Packet; DST],
    rr: [u8; DST],
    /// Bit `src`: source `src`'s FIFO is not empty.
    busy: u32,
    /// Bit `dst`: stage `dst` holds a packet.
    staged: u32,
}

impl<S: Slot, const SRC: usize, const DST: usize> WarmHalf<S, SRC, DST> {
    fn empty() -> Self {
        WarmHalf {
            queue: [[S::blank(); PORT_FIFO_DEPTH]; SRC],
            dest: [[0; PORT_FIFO_DEPTH]; SRC],
            count: [0; SRC],
            stage: [S::blank(); DST],
            rr: [0; DST],
            busy: 0,
            staged: 0,
        }
    }

    fn ready(&self, src: usize) -> bool {
        usize::from(self.count[src]) < PORT_FIFO_DEPTH
    }

    fn occupancy(&self) -> usize {
        self.count.iter().map(|&n| usize::from(n)).sum()
    }

    fn idle(&self) -> bool {
        self.busy | self.staged == 0
    }

    /// [`Slot::take`] on every stage in `ready`, into `out`.
    fn drain(&mut self, ready: u32, out: &mut [Option<S::Packet>; DST]) {
        for dst in bits(self.staged & ready) {
            out[dst] = Some(std::mem::replace(&mut self.stage[dst], S::blank()));
        }
        self.staged &= !ready;
    }

    /// [`Fifo::push`] on source `src`.
    fn push(&mut self, src: usize, pkt: &S::Packet) -> bool {
        let n = usize::from(self.count[src]);
        if n >= PORT_FIFO_DEPTH {
            return false;
        }
        // The flops `into_ccx` writes must hold the packet as it is.
        assert!(S::id(pkt).0 < 1 << REQID_BITS, "request id overflow");
        debug_assert_eq!(
            S::from_image(S::image(pkt)),
            *pkt,
            "no slot holds this packet"
        );
        self.queue[src][n] = *pkt;
        self.dest[src][n] = S::route(pkt) as u8;
        self.count[src] += 1;
        self.busy |= 1 << src;
        true
    }

    /// One cycle of this half: drain the stages `ready` names into
    /// `out`, arbitrate, and latch `inp`, recording in `accepted` which
    /// inputs were taken.
    fn step(
        &mut self,
        ready: u32,
        inp: &[Option<S::Packet>; SRC],
        out: &mut [Option<S::Packet>; DST],
        accepted: &mut [bool; SRC],
    ) {
        let given = present(inp);
        if self.idle() && given == 0 {
            return;
        }
        self.drain(ready, out);
        self.arbitrate();
        self.latch(inp, given, accepted);
    }

    /// [`Fifo::push`] of the inputs `given` marks, recording which were
    /// accepted.
    fn latch(&mut self, inp: &[Option<S::Packet>; SRC], given: u32, accepted: &mut [bool; SRC]) {
        for src in bits(given) {
            if let Some(pkt) = &inp[src] {
                accepted[src] = self.push(src, pkt);
            }
        }
    }

    /// [`arbitrate`] without corrupted FIFOs: every port with a free
    /// stage, in order, is granted the first head routed to it from its
    /// round-robin pointer on. `to[dst]` holds the sources whose head is
    /// routed to `dst`, built from the busy sources alone; `ports` holds
    /// the free ports some head is routed to. A grant routes the
    /// source's next head, and a later port it names joins the scan, so
    /// a FIFO can feed two ports in one phase as it does there.
    fn arbitrate(&mut self) {
        let all = (1u32 << SRC) - 1;
        let mut to = [0u32; DST];
        let mut ports = 0u32;
        for src in bits(self.busy) {
            let dst = self.dest[src][0];
            to[usize::from(dst)] |= 1 << src;
            ports |= 1 << dst;
        }
        ports &= !self.staged;
        while ports != 0 {
            let dst = ports.trailing_zeros() as usize;
            ports &= ports - 1;
            let first = usize::from(self.rr[dst]);
            let rotated = (to[dst] >> first | to[dst] << (SRC - first)) & all;
            let src = (first + rotated.trailing_zeros() as usize) % SRC;
            let (queue, dest) = (&mut self.queue[src], &mut self.dest[src]);
            self.stage[dst] = queue[0];
            queue.copy_within(1.., 0);
            queue[PORT_FIFO_DEPTH - 1] = S::blank();
            dest.copy_within(1.., 0);
            dest[PORT_FIFO_DEPTH - 1] = 0;
            self.count[src] -= 1;
            self.staged |= 1 << dst;
            self.rr[dst] = ((src + 1) % SRC) as u8;
            if self.count[src] == 0 {
                self.busy &= !(1 << src);
                continue;
            }
            let next = usize::from(dest[0]);
            to[next] |= 1 << src;
            if next > dst && self.staged & (1 << next) == 0 {
                ports |= 1 << next;
            }
        }
    }

    /// The half [`write_to`](Self::write_to) wrote into `f`: each FIFO's
    /// queued packets up to its count, the valid stages and the
    /// pointers.
    fn read_from(
        f: &FlopSpace,
        fifos: &[Fifo<S>; SRC],
        stages: &[S; DST],
        rr: &[FieldHandle; DST],
    ) -> Self {
        let mut half = Self::empty();
        for (src, fifo) in fifos.iter().enumerate() {
            let n = fifo.count(f).min(PORT_FIFO_DEPTH);
            for (i, slot) in fifo.slots[..n].iter().enumerate() {
                let pkt = slot.load(f);
                half.queue[src][i] = pkt;
                half.dest[src][i] = S::route(&pkt) as u8;
            }
            half.count[src] = n as u8;
            half.busy |= u32::from(n > 0) << src;
        }
        for (dst, stage) in stages.iter().enumerate() {
            if stage.is_valid(f) {
                half.stage[dst] = stage.load(f);
                half.staged |= 1 << dst;
            }
        }
        for (r, &h) in half.rr.iter_mut().zip(rr) {
            *r = f.read(h) as u8;
        }
        half
    }

    /// Writes this half into the zeroed flops of a crossbar: the only
    /// place a packet becomes a slot image.
    fn write_to(
        &self,
        f: &mut FlopSpace,
        fifos: &[Fifo<S>; SRC],
        stages: &[S; DST],
        rr: &[FieldHandle; DST],
    ) {
        for src in bits(self.busy) {
            let (fifo, n) = (&fifos[src], self.count[src]);
            for (slot, pkt) in fifo.slots.iter().zip(&self.queue[src][..n.into()]) {
                slot.store(f, pkt);
            }
            f.write(fifo.count, n.into());
        }
        for dst in bits(self.staged) {
            stages[dst].store(f, &self.stage[dst]);
        }
        for (&h, &r) in rr.iter().zip(&self.rr) {
            f.write(h, r.into());
        }
    }
}

/// The crossbar while no bit of it can be wrong: [`Ccx`]'s cycle on
/// packets and plain integers instead of flops.
///
/// Fig. 2 warms the target up (step 4) before the golden snapshot and
/// the flip (step 5), so no flop can hold an error yet, and the flops of
/// a crossbar are a function of the packets, counts and pointers it
/// holds (everything else is zero). `CcxWarm` keeps exactly those and
/// runs the same arbiter on them; [`into_ccx`](Self::into_ccx) writes
/// them into flops, giving the crossbar the flop-level warm-up would
/// have left. It owns nothing on the heap.
#[derive(Debug, Clone, PartialEq)]
pub struct CcxWarm {
    pcx: WarmHalf<PcxSlot, NUM_CORES, NUM_L2_BANKS>,
    cpx: WarmHalf<CpxSlot, NUM_L2_BANKS, NUM_CORES>,
}

impl CcxWarm {
    /// An empty crossbar, as [`Ccx::new`] is: a copy of the per-process
    /// prototype, which is one block copy where filling in every blank
    /// packet is a store per field.
    pub fn new() -> Self {
        static PROTOTYPE: OnceLock<CcxWarm> = OnceLock::new();
        let empty = || CcxWarm {
            pcx: WarmHalf::empty(),
            cpx: WarmHalf::empty(),
        };
        PROTOTYPE.get_or_init(empty).clone()
    }

    /// [`Ccx::core_ready`].
    #[inline]
    pub fn core_ready(&self, c: usize) -> bool {
        self.pcx.ready(c)
    }

    /// [`Ccx::bank_ready`].
    #[inline]
    pub fn bank_ready(&self, k: usize) -> bool {
        self.cpx.ready(k)
    }

    /// [`Ccx::idle`].
    pub fn idle(&self) -> bool {
        self.pcx.idle() && self.cpx.idle()
    }

    /// [`Ccx::pcx_occupancy`].
    pub fn pcx_occupancy(&self) -> usize {
        self.pcx.occupancy()
    }

    /// [`Ccx::cpx_occupancy`].
    pub fn cpx_occupancy(&self) -> usize {
        self.cpx.occupancy()
    }

    /// [`Ccx::tick`]: the same drain, arbitration and latch, in the same
    /// order, with the same outputs.
    ///
    /// # Panics
    ///
    /// Panics if an accepted packet's request id does not fit the flops,
    /// as [`Ccx::tick`] does.
    pub fn tick(&mut self, inp: &CcxInputs, bank_can_accept: &[bool; NUM_L2_BANKS]) -> CcxOutputs {
        let mut out = CcxOutputs::default();
        let ready =
            (bank_can_accept.iter().enumerate()).fold(0, |m, (k, &r)| m | u32::from(r) << k);
        // The halves share nothing, so each runs its drain, arbitration
        // and latch in turn, and one that holds nothing and is given
        // nothing does nothing.
        let (pcx_in, pcx_out) = (&inp.from_cores, &mut out.to_banks);
        self.pcx
            .step(ready, pcx_in, pcx_out, &mut out.core_accepted);
        let (cpx_in, cpx_out) = (&inp.from_banks, &mut out.to_cores);
        self.cpx
            .step(u32::MAX, cpx_in, cpx_out, &mut out.bank_accepted);
        out
    }

    /// The flop-level crossbar holding this state: occupied slots,
    /// counts, stages and pointers written into an empty [`Ccx`]. Its
    /// flops are marked changed, so its first tick is computed rather
    /// than skipped as settled.
    pub fn into_ccx(self) -> Ccx {
        let mut x = Ccx::new();
        self.store(&mut x);
        x
    }

    /// The packet crossbar whose flops `x` holds, for flops that
    /// [`into_ccx`](Self::into_ccx) could have written: a crossbar that
    /// checked identical to a fault-free one. The inverse of
    /// `into_ccx`, so the two tick alike from here on.
    pub fn from_ccx(x: &Ccx) -> CcxWarm {
        let (f, p) = (&x.flops, &x.ports);
        let warm = CcxWarm {
            pcx: WarmHalf::read_from(f, &p.pcx_fifos, &p.pcx_stage, &p.pcx_rr),
            cpx: WarmHalf::read_from(f, &p.cpx_fifos, &p.cpx_stage, &p.cpx_rr),
        };
        debug_assert_eq!(
            warm.clone().into_ccx().flops.diff_count(f),
            0,
            "the flops hold no packet crossbar"
        );
        warm
    }

    /// [`into_ccx`](Self::into_ccx) into `x`, a crossbar an earlier run
    /// held, which it overwrites: the empty crossbar is copied into the
    /// bits `x` holds.
    pub fn write_into(&self, x: &mut Ccx) {
        x.clone_from(Ccx::prototype());
        self.store(x);
    }

    /// Writes the packets, counts, stages and pointers into `x`, an
    /// empty crossbar, and marks its flops changed.
    fn store(&self, x: &mut Ccx) {
        let (f, p) = (&mut x.flops, &x.ports);
        self.pcx.write_to(f, &p.pcx_fifos, &p.pcx_stage, &p.pcx_rr);
        self.cpx.write_to(f, &p.cpx_fifos, &p.cpx_stage, &p.cpx_rr);
        f.mark_changed();
    }
}

impl Default for CcxWarm {
    fn default() -> Self {
        CcxWarm::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_proto::addr::{PAddr, ThreadId};
    use nestsim_proto::{CpxKind, PcxKind, ReqId};

    const ALL_READY: [bool; NUM_L2_BANKS] = [true; NUM_L2_BANKS];

    /// The crossbar as it was before route-once arbitration, bodies
    /// verbatim: every (port, source) pair re-reads the FIFO from the
    /// flops and loads the whole packet to test one routing field. The
    /// oracle of `route_once_tick_matches_the_reference_tick`.
    #[allow(
        clippy::clone_on_copy,
        reason = "the descriptors used to own two `Vec`s"
    )]
    impl Ccx {
        fn tick_reference(
            &mut self,
            inp: &CcxInputs,
            bank_can_accept: &[bool; NUM_L2_BANKS],
        ) -> CcxOutputs {
            let mut out = CcxOutputs::default();

            // ── Drain staging registers ─────────────────────────────────
            // Stages self-clear on drain (payload included): like the
            // shifting queues, this makes the microarchitectural state
            // reconstructible by warm-up alone (footnote 4 / Fig. 5).
            #[allow(
                clippy::needless_range_loop,
                reason = "k indexes three parallel arrays"
            )]
            for k in 0..NUM_L2_BANKS {
                let s = self.ports.pcx_stage[k];
                if s.is_valid(&self.flops) && bank_can_accept[k] {
                    out.to_banks[k] = Some(s.load_reference(&self.flops));
                    s.invalidate(&mut self.flops);
                    let g = s.guard();
                    self.flops.zero_range(g.start, g.end - g.start);
                }
            }
            for c in 0..NUM_CORES {
                let s = self.ports.cpx_stage[c];
                if s.is_valid(&self.flops) {
                    out.to_cores[c] = Some(s.load_reference(&self.flops));
                    s.invalidate(&mut self.flops);
                    let g = s.guard();
                    self.flops.zero_range(g.start, g.end - g.start);
                }
            }

            // ── Arbitrate PCX: per bank, pick one requesting core ───────
            for k in 0..NUM_L2_BANKS {
                let stage = self.ports.pcx_stage[k];
                if stage.is_valid(&self.flops) {
                    continue;
                }
                let rr = self.flops.read(self.ports.pcx_rr[k]) as usize;
                'cores: for off in 0..NUM_CORES {
                    let c = (rr + off) % NUM_CORES;
                    let fifo = self.ports.pcx_fifos[c].clone();
                    let count = self.flops.read(fifo.count) as usize;
                    if count == 0 {
                        continue;
                    }
                    let slot = fifo.slots[0];
                    if !slot.is_valid(&self.flops) {
                        // Corrupted FIFO: drop the phantom entry.
                        shift_queue_down(&mut self.flops, &fifo.guards);
                        self.flops.write(fifo.count, (count - 1) as u64);
                        continue;
                    }
                    let pkt = slot.load_reference(&self.flops);
                    // Routing decision from the (possibly corrupted) address.
                    if l2_bank_of(pkt.addr).index() != k {
                        continue 'cores;
                    }
                    shift_queue_down(&mut self.flops, &fifo.guards);
                    self.flops.write(fifo.count, (count - 1) as u64);
                    stage.store_reference(&mut self.flops, &pkt);
                    self.flops
                        .write(self.ports.pcx_rr[k], ((c + 1) % NUM_CORES) as u64);
                    break 'cores;
                }
            }

            // ── Arbitrate CPX: per core, pick one returning bank ────────
            for c in 0..NUM_CORES {
                let stage = self.ports.cpx_stage[c];
                if stage.is_valid(&self.flops) {
                    continue;
                }
                let rr = self.flops.read(self.ports.cpx_rr[c]) as usize;
                'banks: for off in 0..NUM_L2_BANKS {
                    let k = (rr + off) % NUM_L2_BANKS;
                    let fifo = self.ports.cpx_fifos[k].clone();
                    let count = self.flops.read(fifo.count) as usize;
                    if count == 0 {
                        continue;
                    }
                    let slot = fifo.slots[0];
                    if !slot.is_valid(&self.flops) {
                        shift_queue_down(&mut self.flops, &fifo.guards);
                        self.flops.write(fifo.count, (count - 1) as u64);
                        continue;
                    }
                    let pkt = slot.load_reference(&self.flops);
                    // Routing decision from the (possibly corrupted) thread.
                    if pkt.thread.core().index() != c {
                        continue 'banks;
                    }
                    shift_queue_down(&mut self.flops, &fifo.guards);
                    self.flops.write(fifo.count, (count - 1) as u64);
                    stage.store_reference(&mut self.flops, &pkt);
                    self.flops
                        .write(self.ports.cpx_rr[c], ((k + 1) % NUM_L2_BANKS) as u64);
                    break 'banks;
                }
            }

            // ── Latch inputs ────────────────────────────────────────────
            for c in 0..NUM_CORES {
                if let Some(pkt) = &inp.from_cores[c] {
                    let fifo = &self.ports.pcx_fifos[c];
                    let count = self.flops.read(fifo.count) as usize;
                    if count < PORT_FIFO_DEPTH {
                        let slot = fifo.slots[count];
                        let cn = fifo.count;
                        slot.store_reference(&mut self.flops, pkt);
                        self.flops.write(cn, (count + 1) as u64);
                        out.core_accepted[c] = true;
                    }
                }
            }
            for k in 0..NUM_L2_BANKS {
                if let Some(pkt) = &inp.from_banks[k] {
                    let fifo = &self.ports.cpx_fifos[k];
                    let count = self.flops.read(fifo.count) as usize;
                    if count < PORT_FIFO_DEPTH {
                        let slot = fifo.slots[count];
                        let cn = fifo.count;
                        slot.store_reference(&mut self.flops, pkt);
                        self.flops.write(cn, (count + 1) as u64);
                        out.bank_accepted[k] = true;
                    }
                }
            }

            out
        }
    }

    impl Ccx {
        /// The collapsing queues, for `fields::tests`.
        pub(crate) fn queues(&self) -> Vec<(&'static str, Vec<Guard>)> {
            let fifos = (self.ports.pcx_fifos.iter().map(|f| f.guards))
                .chain(self.ports.cpx_fifos.iter().map(|f| f.guards));
            fifos.map(|g| ("ccx.fifo", g.to_vec())).collect()
        }
    }

    fn req_to_bank(id: u64, core: usize, bank: usize) -> PcxPacket {
        // heap base is bank-aligned; add `bank` lines to select the bank.
        let addr = PAddr::new(0x1000_0000 + bank as u64 * 64);
        assert_eq!(l2_bank_of(addr).index(), bank);
        PcxPacket {
            id: ReqId(id),
            thread: ThreadId::new(core * 8),
            kind: PcxKind::Load,
            addr,
            data: 0,
        }
    }

    #[test]
    fn routes_request_to_addressed_bank() {
        let mut x = Ccx::new();
        let mut inp = CcxInputs::default();
        inp.from_cores[2] = Some(req_to_bank(1, 2, 5));
        let o1 = x.tick(&inp, &ALL_READY);
        assert!(o1.core_accepted[2]);
        let mut delivered = None;
        for _ in 0..5 {
            let o = x.tick(&CcxInputs::default(), &ALL_READY);
            for (k, p) in o.to_banks.iter().enumerate() {
                if let Some(p) = p {
                    delivered = Some((k, *p));
                }
            }
        }
        let (k, p) = delivered.expect("delivered");
        assert_eq!(k, 5);
        assert_eq!(p.id, ReqId(1));
        assert!(x.idle());
    }

    #[test]
    fn routes_return_to_owning_core() {
        let mut x = Ccx::new();
        let mut inp = CcxInputs::default();
        let cpx = CpxPacket {
            id: ReqId(9),
            thread: ThreadId::new(3 * 8 + 1),
            kind: CpxKind::LoadReturn,
            data: 7,
        };
        inp.from_banks[6] = Some(cpx);
        x.tick(&inp, &ALL_READY);
        let mut got = None;
        for _ in 0..5 {
            let o = x.tick(&CcxInputs::default(), &ALL_READY);
            for (c, p) in o.to_cores.iter().enumerate() {
                if let Some(p) = p {
                    got = Some((c, *p));
                }
            }
        }
        let (c, p) = got.expect("delivered");
        assert_eq!(c, 3);
        assert_eq!(p, cpx);
    }

    #[test]
    fn backpressure_holds_packet_until_bank_ready() {
        let mut x = Ccx::new();
        let mut inp = CcxInputs::default();
        inp.from_cores[0] = Some(req_to_bank(1, 0, 2));
        x.tick(&inp, &ALL_READY);
        let mut not_ready = ALL_READY;
        not_ready[2] = false;
        for _ in 0..10 {
            let o = x.tick(&CcxInputs::default(), &not_ready);
            assert!(o.to_banks[2].is_none());
        }
        let mut seen = false;
        for _ in 0..3 {
            let o = x.tick(&CcxInputs::default(), &ALL_READY);
            seen |= o.to_banks[2].is_some();
        }
        assert!(seen);
    }

    #[test]
    fn fair_arbitration_between_competing_cores() {
        let mut x = Ccx::new();
        // Both cores target bank 0 repeatedly.
        let mut delivered_from: [usize; NUM_CORES] = [0; NUM_CORES];
        for i in 0..40u64 {
            let mut inp = CcxInputs::default();
            if x.core_ready(0) {
                inp.from_cores[0] = Some(req_to_bank(i * 2, 0, 0));
            }
            if x.core_ready(1) {
                inp.from_cores[1] = Some(req_to_bank(i * 2 + 1, 1, 0));
            }
            let o = x.tick(&inp, &ALL_READY);
            if let Some(p) = &o.to_banks[0] {
                delivered_from[p.thread.core().index()] += 1;
            }
        }
        assert!(delivered_from[0] > 5 && delivered_from[1] > 5);
        let diff = delivered_from[0].abs_diff(delivered_from[1]);
        assert!(diff <= 2, "unfair: {delivered_from:?}");
    }

    #[test]
    fn corrupted_addr_bit_reroutes_consistently() {
        let mut x = Ccx::new();
        let mut inp = CcxInputs::default();
        inp.from_cores[0] = Some(req_to_bank(1, 0, 0));
        x.tick(&inp, &ALL_READY);
        // Flip bit 0 of the queued address's bank-select bits (addr bit 6
        // is bit 6 of the addr field).
        let bit = x
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "pcx0[0].addr")
            .map(|f| f.offset + 6)
            .unwrap();
        x.flops_mut().flip(bit);
        let mut delivered = None;
        for _ in 0..5 {
            let o = x.tick(&CcxInputs::default(), &ALL_READY);
            for (k, p) in o.to_banks.iter().enumerate() {
                if p.is_some() {
                    delivered = Some(k);
                }
            }
        }
        // The packet went to bank 1 — and its address field agrees, so
        // the wrong bank serves a "plausible" (corrupted) address.
        assert_eq!(delivered, Some(1));
    }

    #[test]
    fn corrupted_thread_field_misdelivers_return() {
        let mut x = Ccx::new();
        let mut inp = CcxInputs::default();
        inp.from_banks[0] = Some(CpxPacket {
            id: ReqId(5),
            thread: ThreadId::new(0),
            kind: CpxKind::LoadReturn,
            data: 1,
        });
        x.tick(&inp, &ALL_READY);
        // Flip thread bit 3 (0 → 8, i.e. core 0 → core 1).
        let bit = x
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "cpx0[0].thread")
            .map(|f| f.offset + 3)
            .unwrap();
        x.flops_mut().flip(bit);
        let mut got = None;
        for _ in 0..5 {
            let o = x.tick(&CcxInputs::default(), &ALL_READY);
            for (c, p) in o.to_cores.iter().enumerate() {
                if p.is_some() {
                    got = Some(c);
                }
            }
        }
        assert_eq!(got, Some(1), "return misrouted to the wrong core");
    }

    #[test]
    fn golden_lockstep_without_errors() {
        let mut t = Ccx::new();
        let mut g = t.clone();
        for i in 0..100u64 {
            let mut inp = CcxInputs::default();
            if i % 3 == 0 {
                inp.from_cores[(i % 8) as usize] =
                    Some(req_to_bank(i, (i % 8) as usize, (i % 8) as usize));
            }
            let ot = t.tick(&inp, &ALL_READY);
            let og = g.tick(&inp, &ALL_READY);
            assert_eq!(ot, og);
        }
        assert_eq!(t.flops().diff_count(g.flops()), 0);
    }

    #[test]
    fn census_is_target_dominated() {
        use nestsim_rtl::FlopClass;
        let x = Ccx::new();
        let census: std::collections::HashMap<_, _> =
            x.flops().class_census().into_iter().collect();
        let total = x.flops().num_flops();
        let target = census[&FlopClass::Target];
        assert!(target as f64 / total as f64 > 0.95); // Table 4: 99.2%
        assert_eq!(census[&FlopClass::EccProtected], 0);
    }

    #[test]
    fn flop_layout_is_pinned() {
        // Global bit indices are sample identities (a campaign's seed
        // draws them), so the declaration order, names and widths are a
        // compatibility surface. Spelled out here, not derived from
        // `Ccx::new`.
        const PCX: &[(&str, usize)] = &[
            ("valid", 1),
            ("kind", 2),
            ("thread", 6),
            ("reqid", 32),
            ("addr", 34),
            ("data", 64),
        ];
        const CPX: &[(&str, usize)] = &[
            ("valid", 1),
            ("kind", 3),
            ("thread", 6),
            ("reqid", 32),
            ("data", 64),
        ];
        fn slot(want: &mut Vec<(String, usize)>, prefix: &str, leaves: &[(&str, usize)]) {
            want.extend(leaves.iter().map(|(l, w)| (format!("{prefix}.{l}"), *w)));
        }
        let mut want = Vec::new();
        for (port, leaves) in [("pcx", PCX), ("cpx", CPX)] {
            for p in 0..8 {
                for i in 0..PORT_FIFO_DEPTH {
                    slot(&mut want, &format!("{port}{p}[{i}]"), leaves);
                }
                want.push((format!("{port}{p}.count"), 2));
            }
        }
        for port in ["pcx", "cpx"] {
            want.extend((0..8).map(|p| (format!("arb.{port}{p}.rr"), 3)));
        }
        for (port, leaves) in [("pcx", PCX), ("cpx", CPX)] {
            for p in 0..8 {
                slot(&mut want, &format!("stage.{port}{p}"), leaves);
            }
        }
        want.extend((0..3).map(|i| (format!("bist.chain[{i}]"), 16)));

        let x = Ccx::new();
        let fields = x.flops().fields();
        assert_eq!(fields.len(), 299);
        assert_eq!(x.flops().num_flops(), 6_008);
        assert_eq!(fields.len(), want.len());
        let mut offset = 0;
        for (f, (name, width)) in fields.iter().zip(&want) {
            assert_eq!((&f.name, f.width, f.offset), (name, *width, offset));
            let class = if name.starts_with("bist.") {
                FlopClass::Inactive
            } else {
                FlopClass::Target
            };
            assert_eq!(f.class, class, "{name}");
            offset += width;
        }
    }

    #[test]
    fn gated_tick_matches_the_always_ticked_twin() {
        // Differential oracle for the settled-tick gate: one twin goes
        // through `tick`, the other runs `tick_body` every cycle, under
        // the same traffic, bank readiness and flips. Outputs and flops
        // must agree on every cycle. What the traffic exercised is
        // counted out here, where shrinking cannot trip on it.
        use nestsim_harness::{check_with, Config};
        use std::cell::Cell;

        const CYCLES: u64 = 10_000;
        let skipped = Cell::new(0u64);
        let settled_flips = Cell::new(0u64);
        let settled_clone_flips = Cell::new(0u64);
        let ready_wakes = Cell::new(0u64);
        let bump = |c: &Cell<u64>| c.set(c.get() + 1);

        /// One cycle of both twins; `true` if the gate skipped it.
        fn lockstep(
            gated: &mut Ccx,
            always: &mut Ccx,
            inp: &CcxInputs,
            ready: &[bool; NUM_L2_BANKS],
        ) -> (bool, CcxOutputs) {
            let settled = !gated.flops.changed();
            let got = gated.tick(inp, ready);
            let want = always.tick_body(inp, ready);
            assert_eq!(got, want, "outputs");
            assert_eq!(gated.flops.diff_count(&always.flops), 0, "flops");
            // The rule the fixed-point argument needs, checked as such:
            // today's crossbar changes a flop whenever an input or an
            // output has any effect, so the twins alone could not tell
            // if a cycle that took or emitted something left it settled.
            assert!(
                gated.flops.changed()
                    || (*inp == CcxInputs::default() && got == CcxOutputs::default()),
                "settled by a cycle that was not quiet"
            );
            // A call that starts settled runs the body only if it is
            // not quiet, and then ends marked.
            (settled && !gated.flops.changed(), got)
        }

        check_with(
            Config::with_cases(6),
            "gated_tick_matches_the_always_ticked_twin",
            |src| {
                let mut gated = Ccx::new();
                let mut always = gated.clone();
                let num_flops = gated.flops.num_flops();
                let hot: Vec<usize> = (gated.flops.fields().iter())
                    .filter(|f| {
                        [".count", ".valid", ".rr"]
                            .iter()
                            .any(|leaf| f.name.ends_with(leaf))
                    })
                    .flat_map(|f| f.offset..f.offset + f.width)
                    .collect();
                let mut load = 0;
                let mut ready = ALL_READY;
                let mut next_id = 0;

                for cyc in 0..CYCLES {
                    if cyc % 256 == 0 {
                        // Offered load in eighths per port; every other
                        // stretch is silent so the crossbar can settle
                        // — with packets staged for banks not ready.
                        load = if src.bool() { 0 } else { src.below(8) + 1 };
                    }
                    if src.below(32) == 0 {
                        // Readiness holds for a random stretch.
                        let r = src.u64();
                        ready = core::array::from_fn(|k| (r >> (2 * k)) & 3 != 0);
                    }
                    if src.below(50) == 0 {
                        let bit = if src.bool() {
                            hot[src.index(hot.len())]
                        } else {
                            src.index(num_flops)
                        };
                        if !gated.flops.changed() {
                            bump(&settled_flips);
                        }
                        gated.flops_mut().flip(bit);
                        always.flops_mut().flip(bit);
                    }
                    if src.below(1_000) == 0 && !gated.flops.changed() {
                        // A clone of a settled crossbar is settled, and
                        // a flip wakes the clone only.
                        let (mut c, mut r) = (gated.clone(), always.clone());
                        assert!(!c.flops.changed());
                        let bit = hot[src.index(hot.len())];
                        c.flops_mut().flip(bit);
                        r.flops_mut().flip(bit);
                        bump(&settled_clone_flips);
                        for _ in 0..32 {
                            lockstep(&mut c, &mut r, &CcxInputs::default(), &ALL_READY);
                        }
                        assert!(!gated.flops.changed(), "the original woke up");
                    }

                    let mut inp = CcxInputs::default();
                    if load > 0 {
                        let r = src.u64();
                        for c in 0..NUM_CORES {
                            if (r >> (3 * c)) & 7 < load {
                                let x = src.u64();
                                let mut p = req_to_bank(next_id, c, (x % 8) as usize);
                                p.data = x;
                                inp.from_cores[c] = Some(p);
                                next_id += 1;
                            }
                        }
                        for k in 0..NUM_L2_BANKS {
                            if (r >> (24 + 3 * k)) & 7 < load {
                                let x = src.u64();
                                inp.from_banks[k] = Some(CpxPacket {
                                    id: ReqId(next_id),
                                    thread: ThreadId::new((x % 64) as usize),
                                    kind: CpxKind::LoadReturn,
                                    data: x,
                                });
                                next_id += 1;
                            }
                        }
                    }

                    let was_settled = !gated.flops.changed();
                    let (skip, out) = lockstep(&mut gated, &mut always, &inp, &ready);
                    if skip {
                        bump(&skipped);
                    }
                    if was_settled && load == 0 && out.to_banks.iter().any(Option::is_some) {
                        bump(&ready_wakes);
                    }
                }
            },
        );

        let share = skipped.get() as f64 / (6 * CYCLES) as f64;
        println!(
            "skipped {:.1} %, flips on a settled crossbar {}, on a settled clone {}, \
             stages released by a bank turning ready {}",
            100.0 * share,
            settled_flips.get(),
            settled_clone_flips.get(),
            ready_wakes.get()
        );
        assert!(
            share >= 0.10,
            "only {:.1} % of cycles were skipped",
            100.0 * share
        );
        assert!(
            settled_flips.get() >= 20,
            "{} flips on a settled crossbar",
            settled_flips.get()
        );
        assert!(
            settled_clone_flips.get() >= 1,
            "no settled clone was flipped"
        );
        assert!(
            ready_wakes.get() >= 1,
            "no settled crossbar was woken by a bank turning ready"
        );
    }

    #[test]
    fn image_crossbar_matches_the_flop_crossbar_in_lockstep() {
        // Differential oracle of the warm-up model: the same fault-free
        // traffic on all 16 source ports and the same random bank
        // back-pressure drive `CcxWarm` and `Ccx`. Every cycle their
        // outputs, port readiness, idleness and occupancies agree, and
        // the image state converted to flops is the flop crossbar bit
        // for bit. Now and then the converted crossbar is ticked on
        // beside a clone of the flop one, whether or not that one had
        // settled. Every offered packet survives its slot image.
        // Coverage is counted
        // out here, where shrinking cannot trip on it.
        use nestsim_harness::{check_with, Config};
        use std::cell::Cell;

        const CYCLES: u64 = 10_000;
        let held = Cell::new(0u64);
        let refused = Cell::new(0u64);
        let double_grants = Cell::new(0u64);
        let settled_conversions = Cell::new(0u64);
        let bump = |c: &Cell<u64>| c.set(c.get() + 1);

        fn agree(warm: &CcxWarm, x: &Ccx) {
            for p in 0..NUM_CORES {
                assert_eq!(warm.core_ready(p), x.core_ready(p), "core_ready({p})");
                assert_eq!(warm.bank_ready(p), x.bank_ready(p), "bank_ready({p})");
            }
            assert_eq!(warm.idle(), x.idle(), "idle");
            assert_eq!(warm.pcx_occupancy(), x.pcx_occupancy(), "pcx occupancy");
            assert_eq!(warm.cpx_occupancy(), x.cpx_occupancy(), "cpx occupancy");
        }

        check_with(
            Config::with_cases(5),
            "image_crossbar_matches_the_flop_crossbar_in_lockstep",
            |src| {
                let mut warm = CcxWarm::new();
                let mut flops = Ccx::new();
                let mut load = 0;
                let mut next_id = 0;
                for cyc in 0..CYCLES {
                    if cyc % 256 == 0 {
                        // Offered load in eighths per port, with silent
                        // stretches so the crossbar drains and settles.
                        load = if src.below(4) == 0 {
                            0
                        } else {
                            src.below(8) + 1
                        };
                    }
                    let r = src.u64();
                    let mut inp = CcxInputs::default();
                    for c in 0..NUM_CORES {
                        if (r >> (3 * c)) & 7 < load {
                            let x = src.u64();
                            let mut p = req_to_bank(next_id, c, (x % 8) as usize);
                            p.data = x;
                            p.kind = crate::fields::decode_pcx_kind(x >> 8);
                            assert_eq!(PcxSlot::from_image(PcxSlot::image(&p)), p);
                            inp.from_cores[c] = Some(p);
                            next_id += 1;
                        }
                    }
                    for k in 0..NUM_L2_BANKS {
                        if (r >> (24 + 3 * k)) & 7 < load {
                            let x = src.u64();
                            let p = CpxPacket {
                                id: ReqId(next_id),
                                thread: ThreadId::new((x % 64) as usize),
                                kind: crate::fields::decode_cpx_kind((x >> 8) % 5),
                                data: x,
                            };
                            assert_eq!(CpxSlot::from_image(CpxSlot::image(&p)), p);
                            inp.from_banks[k] = Some(p);
                            next_id += 1;
                        }
                    }
                    let ready: [bool; NUM_L2_BANKS] =
                        core::array::from_fn(|k| (r >> (48 + 2 * k)) & 3 != 0);

                    let counts_before: Vec<usize> = (flops.ports.pcx_fifos.iter())
                        .map(|q| q.count(&flops.flops))
                        .chain(flops.ports.cpx_fifos.iter().map(|q| q.count(&flops.flops)))
                        .collect();
                    let got = warm.tick(&inp, &ready);
                    let want = flops.tick(&inp, &ready);
                    assert_eq!(got, want, "outputs diverged in cycle {cyc}");
                    agree(&warm, &flops);
                    let converted = warm.clone().into_ccx();
                    assert!(
                        converted.flops.changed(),
                        "conversion left the flops settled"
                    );
                    assert_eq!(
                        converted.flops.diff_count(&flops.flops),
                        0,
                        "flops diverged in cycle {cyc}"
                    );

                    let stage_held = (flops.ports.pcx_stage.iter().zip(ready))
                        .any(|(s, r)| !r && s.is_valid(&flops.flops));
                    if stage_held {
                        bump(&held);
                    }
                    let offered = inp.from_cores.iter().map(Option::is_some);
                    let offered = offered.chain(inp.from_banks.iter().map(Option::is_some));
                    let accepted = got.core_accepted.iter().chain(&got.bank_accepted);
                    if offered.zip(accepted).any(|(o, &a)| o && !a) {
                        bump(&refused);
                    }
                    let counts_after = (flops.ports.pcx_fifos.iter())
                        .map(|q| q.count(&flops.flops))
                        .chain(flops.ports.cpx_fifos.iter().map(|q| q.count(&flops.flops)));
                    let accepted = got.core_accepted.iter().chain(&got.bank_accepted);
                    for ((&n, now), &acc) in counts_before.iter().zip(counts_after).zip(accepted) {
                        if n == 2 && now - usize::from(acc) == 0 {
                            bump(&double_grants);
                        }
                    }

                    if src.below(500) == 0 {
                        if !flops.flops.changed() {
                            bump(&settled_conversions);
                        }
                        let (mut a, mut b) = (warm.clone().into_ccx(), flops.clone());
                        for _ in 0..32 {
                            let quiet = CcxInputs::default();
                            assert_eq!(a.tick(&quiet, &ALL_READY), b.tick(&quiet, &ALL_READY));
                            assert_eq!(a.flops.diff_count(&b.flops), 0, "converted crossbar");
                        }
                    }
                }
            },
        );

        for (what, hits) in [
            ("stages held by a bank that was not ready", held.get()),
            ("inputs refused by a full FIFO", refused.get()),
            ("two grants from one FIFO in one tick", double_grants.get()),
            (
                "conversions of a settled crossbar",
                settled_conversions.get(),
            ),
        ] {
            println!("{what}: {hits}");
            assert!(hits > 0, "the traffic never produced {what}");
        }
    }

    /// Counter and per-entry valid bits of each FIFO, in port order.
    fn fifo_view<'a, S: Slot>(
        f: &'a FlopSpace,
        fifos: &'a [Fifo<S>],
    ) -> impl Iterator<Item = (usize, [bool; PORT_FIFO_DEPTH])> + 'a {
        (fifos.iter()).map(move |q| (q.count(f), q.slots.map(|s| s.is_valid(f))))
    }

    #[test]
    fn route_once_tick_matches_the_reference_tick() {
        // Differential oracle: the same random traffic, back-pressure
        // and flop flips drive the route-once tick and the verbatim
        // pre-change tick; outputs and every flop must agree on every
        // cycle. Flips favour the fields arbitration and the hop read,
        // so the cases the head masks and the bits-only hop must get
        // right all occur — counted across cases out here, where
        // shrinking cannot trip on them.
        use nestsim_harness::{check_with, Config};
        use std::cell::Cell;

        const CYCLES: u64 = 10_000;
        let phantom_drops = Cell::new(0u64);
        let misroutes = Cell::new(0u64);
        let double_grants = Cell::new(0u64);
        let corrupt_kind_hops = Cell::new(0u64);
        SKIPPED_KNOWN_HEADS.with(|n| n.set(0));

        check_with(
            Config::with_cases(6),
            "route_once_tick_matches_the_reference_tick",
            |src| {
                let mut new = Ccx::new();
                let mut old = new.clone();
                let num_flops = new.flops.num_flops();
                let hot: Vec<usize> = new
                    .flops
                    .fields()
                    .iter()
                    .filter(|f| {
                        [".count", ".valid", ".kind", ".addr", ".thread", ".rr"]
                            .iter()
                            .any(|leaf| f.name.ends_with(leaf))
                    })
                    .flat_map(|f| f.offset..f.offset + f.width)
                    .collect();
                // Intended destination port of every packet offered,
                // indexed by request id.
                let mut pcx_dest: Vec<usize> = Vec::new();
                let mut cpx_dest: Vec<usize> = Vec::new();
                let mut load = 0;

                for cyc in 0..CYCLES {
                    if cyc % 256 == 0 {
                        load = src.below(8) + 1; // offered load, eighths per port
                    }
                    if src.below(4) == 0 {
                        let bit = if src.below(4) == 0 {
                            src.index(num_flops)
                        } else {
                            hot[src.index(hot.len())]
                        };
                        new.flops.flip(bit);
                        old.flops.flip(bit);
                    }

                    // One draw decides who offers (3 bits a source
                    // port) and which banks accept (2 bits a bank);
                    // sources offer whether or not their FIFO has room.
                    let r = src.u64();
                    let mut inp = CcxInputs::default();
                    for c in 0..NUM_CORES {
                        if (r >> (3 * c)) & 7 < load {
                            let x = src.u64();
                            let mut p = req_to_bank(pcx_dest.len() as u64, c, (x % 8) as usize);
                            p.data = x;
                            pcx_dest.push(p.bank().index());
                            inp.from_cores[c] = Some(p);
                        }
                    }
                    for k in 0..NUM_L2_BANKS {
                        if (r >> (24 + 3 * k)) & 7 < load {
                            let x = src.u64();
                            let thread = ThreadId::new((x % 64) as usize);
                            inp.from_banks[k] = Some(CpxPacket {
                                id: ReqId(cpx_dest.len() as u64),
                                thread,
                                // Every kind, so one flip reaches the
                                // encodings no kind has (5–7).
                                kind: crate::fields::decode_cpx_kind((x >> 8) % 4),
                                data: x,
                            });
                            cpx_dest.push(thread.core().index());
                        }
                    }
                    let ready: [bool; NUM_L2_BANKS] =
                        core::array::from_fn(|k| (r >> (48 + 2 * k)) & 3 != 0);

                    let before: Vec<_> = fifo_view(&new.flops, &new.ports.pcx_fifos)
                        .chain(fifo_view(&new.flops, &new.ports.cpx_fifos))
                        .collect();
                    // A hop re-encodes a kind no packet has as `Error`.
                    let corrupt_heads: Vec<bool> = (new.ports.cpx_fifos.iter())
                        .map(|q| {
                            let kind = q.slots[0].guard().start;
                            q.slots[0].is_valid(&new.flops) && new.flops.read_span(kind, 3)[0] > 4
                        })
                        .collect();

                    let got = new.tick(&inp, &ready);
                    let want = old.tick_reference(&inp, &ready);
                    assert_eq!(got, want, "outputs diverged in cycle {cyc}");
                    assert_eq!(
                        new.flops.diff_count(&old.flops),
                        0,
                        "flops diverged in cycle {cyc}"
                    );

                    let after = fifo_view(&new.flops, &new.ports.pcx_fifos)
                        .chain(fifo_view(&new.flops, &new.ports.cpx_fifos));
                    let accepted = got.core_accepted.iter().chain(&got.bank_accepted);
                    for ((&(n, valid), (now, _)), &acc) in before.iter().zip(after).zip(accepted) {
                        let left = now - usize::from(acc);
                        if n > 0 && !valid[0] && left < n {
                            phantom_drops.set(phantom_drops.get() + 1);
                        }
                        if n == 2 && valid == [true; 2] && left == 0 {
                            double_grants.set(double_grants.get() + 1);
                        }
                    }
                    for (k, corrupt) in corrupt_heads.into_iter().enumerate() {
                        let (n, _) = before[NUM_CORES + k];
                        let now = new.ports.cpx_fifos[k].count(&new.flops);
                        if corrupt && n > 0 && now - usize::from(got.bank_accepted[k]) < n {
                            corrupt_kind_hops.set(corrupt_kind_hops.get() + 1);
                        }
                    }
                    let wrong_bank = (got.to_banks.iter().enumerate())
                        .filter_map(|(k, p)| Some((k, pcx_dest.get(p.as_ref()?.id.0 as usize)?)))
                        .filter(|(k, dest)| k != *dest);
                    let wrong_core = (got.to_cores.iter().enumerate())
                        .filter_map(|(c, p)| Some((c, cpx_dest.get(p.as_ref()?.id.0 as usize)?)))
                        .filter(|(c, dest)| c != *dest);
                    misroutes
                        .set(misroutes.get() + (wrong_bank.count() + wrong_core.count()) as u64);
                }
            },
        );

        for (what, hits) in [
            ("phantom-head drops", phantom_drops.get()),
            ("misrouted deliveries", misroutes.get()),
            ("two grants from one FIFO in one tick", double_grants.get()),
            (
                "hops of a return whose kind no packet has",
                corrupt_kind_hops.get(),
            ),
        ] {
            assert!(hits > 0, "the traffic never produced {what}");
            println!("{what}: {hits}");
        }
        // The property runs on this thread, so the counter is its own.
        let skips = SKIPPED_KNOWN_HEADS.with(Cell::get);
        println!("grants past a head known to go elsewhere: {skips}");
        assert!(skips >= 100, "only {skips} grants skipped a known head");
    }
}
