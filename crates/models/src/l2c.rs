//! Flip-flop-level model of one L2 cache bank controller (L2C).
//!
//! Microarchitecture (all sequential state lives in the [`FlopSpace`];
//! the tag/state/data/directory arrays are the embedded architectural
//! [`L2BankArch`], ECC-protected SRAM per Sec. 3.1):
//!
//! ```text
//!            ┌────────┐   ┌────┐ ┌────┐   ┌────────┐
//!  PCX in ──▶│ IQ (8) │──▶│ P1 │▶│ P2 │──▶│ OQ (8) │──▶ CPX out
//!            └────────┘   └────┘ └────┘   └────────┘
//!                 │ miss                      ▲
//!                 ▼                           │ fill completion
//!            ┌────────┐    fill req      ┌──────────────┐
//!            │ MB (4) │───────────────▶  │ fill_pending │◀─ DRAM resp
//!            └────────┘                  │     (2)      │
//!                                        └──────────────┘
//! ```
//!
//! Noteworthy behaviours the paper's analysis depends on:
//!
//! * **Early store acknowledgement** — a store miss is acknowledged as
//!   soon as the miss buffer entry is allocated, while the fill is still
//!   in flight. This is exactly the Sec. 6.1 case ("L2C may continue to
//!   process a request even after sending the return packet"), which is
//!   why QRR's completion monitor must watch the miss buffer and not
//!   just return packets.
//! * **Per-line ordering** — a request whose line matches a pending miss
//!   stalls at the IQ head, preserving the memory ordering QRR's replay
//!   correctness argument relies on (Sec. 6.3).
//! * **Atomic victim writeback** — when a fill displaces a dirty victim,
//!   the writeback command is emitted in the same cycle the victim is
//!   read from the (preserved, ECC-protected) data array, so a QRR reset
//!   can never lose dirty data that exists nowhere else. DESIGN.md
//!   documents this as a QRR-correctness-motivated design point.
//!
//! Before the flip there is nothing for flops to be wrong about, so the
//! warm-up runs on [`L2cWarm`], the same bank over slot images, which
//! becomes an [`L2cBank`] at the golden snapshot.

use nestsim_arch::{L2BankArch, L2Geometry};
use std::sync::OnceLock;

use nestsim_proto::addr::{BankId, LineAddr, PAddr, NUM_L2_BANKS};
use nestsim_proto::{CpxPacket, DramCmd, DramResp, PcxKind, PcxPacket, ReqId};
use nestsim_rtl::{FieldHandle, FlopClass, FlopSpace, FlopSpaceBuilder};

use crate::fields::{
    benign_in, is_packed_queue, shift_queue_down, CpxSlot, Guard, LineSlot, PcxSlot,
};
use crate::{ComponentKind, UncoreRtl};

/// Input-queue depth.
pub const IQ_DEPTH: usize = 8;
/// Miss-buffer depth.
pub const MB_DEPTH: usize = 4;
/// Output-queue depth.
pub const OQ_DEPTH: usize = 8;
/// Fill-pending buffer depth.
pub const FILL_DEPTH: usize = 2;

/// Per-cycle inputs to the bank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct L2cInputs {
    /// A request packet arriving from the crossbar (only offer when
    /// [`L2cBank::ready`] is true; an offer while full is dropped, which
    /// models a protocol violation and is flagged in the outputs).
    pub pcx: Option<PcxPacket>,
    /// A response arriving from the DRAM controller.
    pub dram_resp: Option<DramResp>,
}

/// Per-cycle outputs from the bank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct L2cOutputs {
    /// Return packet to the cores (via the crossbar).
    pub cpx: Option<CpxPacket>,
    /// Command to the DRAM controller.
    pub dram_cmd: Option<DramCmd>,
    /// Request id whose *store-miss post-processing* completed this
    /// cycle (the QRR completion monitor's extra signal, Sec. 6.1).
    pub store_miss_done: Option<ReqId>,
    /// Whether the offered `pcx` input was latched into the IQ.
    pub accepted: bool,
}

/// A miss-buffer slot: a request plus issue/ack bookkeeping bits.
#[derive(Debug, Clone, Copy)]
struct MbSlot {
    pcx: PcxSlot,
    issued: FieldHandle,
    acked: FieldHandle,
    guard: Guard,
}

impl MbSlot {
    fn declare(b: &mut FlopSpaceBuilder, prefix: &str, class: FlopClass) -> Self {
        let start = b.declared_bits() + 1; // skip the valid bit
        let pcx = PcxSlot::declare_guarded(b, prefix, class);
        let issued = b.field(format!("{prefix}.issued"), 1, class);
        let acked = b.field(format!("{prefix}.acked"), 1, class);
        let end = b.declared_bits();
        MbSlot {
            pcx,
            issued,
            acked,
            guard: Guard {
                valid: pcx.valid,
                start,
                end,
            },
        }
    }
}

/// A fill-pending slot: a line of returned DRAM data plus the miss
/// buffer tag it answers.
#[derive(Debug, Clone, Copy)]
struct FillSlot {
    line: LineSlot,
    tag: FieldHandle,
    guard: Guard,
}

impl FillSlot {
    fn declare(b: &mut FlopSpaceBuilder, prefix: &str, class: FlopClass) -> Self {
        let start = b.declared_bits() + 1;
        let line = LineSlot::declare_guarded(b, prefix, class);
        let tag = b.field(format!("{prefix}.tag"), 3, class);
        let end = b.declared_bits();
        FillSlot {
            line,
            tag,
            guard: Guard {
                valid: line.valid,
                start,
                end,
            },
        }
    }
}

/// Reads the word at `addr` if its line is resident; corrupted
/// addresses may reference non-resident lines, in which case the
/// datapath returns a poison pattern (open bus), as hardware would.
fn read_word(arch: &L2BankArch, addr: PAddr) -> u64 {
    if arch.probe(addr.line()).is_some() {
        arch.read_word_resident(addr)
    } else {
        0xdead_dead_dead_dead
    }
}

fn write_word(arch: &mut L2BankArch, addr: PAddr, v: u64) {
    if arch.probe(addr.line()).is_some() {
        arch.write_word_resident(addr, v);
    }
    // Non-resident (corrupted) store target: the write is silently
    // lost, a realistic consequence of a corrupted way-select.
}

/// Performs `pkt` on the arrays of a bank holding its line (a hit, or a
/// miss whose fill just installed it) and returns its reply.
fn serve(arch: &mut L2BankArch, pkt: &PcxPacket) -> CpxPacket {
    match pkt.kind {
        PcxKind::Load | PcxKind::Ifetch => {
            let v = read_word(arch, pkt.addr);
            arch.touch_dir(pkt.addr, pkt.thread.core().index());
            CpxPacket::reply_to(pkt, v)
        }
        PcxKind::Store => {
            write_word(arch, pkt.addr, pkt.data);
            CpxPacket::reply_to(pkt, 0)
        }
        PcxKind::Atomic => {
            let old = read_word(arch, pkt.addr);
            write_word(arch, pkt.addr, old.wrapping_add(pkt.data));
            CpxPacket::reply_to(pkt, old)
        }
    }
}

/// Guarded groups in a bank: every queue, pipeline, miss-buffer and
/// fill-pending entry.
const NUM_GUARDS: usize = IQ_DEPTH + 2 + MB_DEPTH + FILL_DEPTH + OQ_DEPTH;

/// Flip-flop-level model of one L2 cache bank.
///
/// Everything but `flops` and `arch` is a fixed table of field handles,
/// so a clone (the golden copy, a batch lane) copies the flop bits and
/// the arrays and nothing else.
#[derive(Debug)]
pub struct L2cBank {
    bank: BankId,
    flops: FlopSpace,
    arch: L2BankArch,

    iq: [PcxSlot; IQ_DEPTH],
    iq_guards: [Guard; IQ_DEPTH],
    iq_count: FieldHandle,
    p1: CpxSlot,
    p2: CpxSlot,
    mb: [MbSlot; MB_DEPTH],
    fill: [FillSlot; FILL_DEPTH],
    oq: [CpxSlot; OQ_DEPTH],
    oq_guards: [Guard; OQ_DEPTH],
    oq_count: FieldHandle,
    perf_ctr: FieldHandle,

    cfg_enable: FieldHandle,

    guards: [Guard; NUM_GUARDS],
    /// QRR write-disable: while set, the bank performs no architectural
    /// writes and emits no packets (Sec. 6.2).
    write_block: bool,
}

// Hand-written so that `clone_from` copies into the bits and arrays this
// bank holds: a recycled golden or lane allocates nothing.
impl Clone for L2cBank {
    fn clone(&self) -> Self {
        L2cBank {
            flops: self.flops.clone(),
            arch: self.arch.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.copy_all_but_arch(source);
        self.arch.clone_from(&source.arch);
    }
}

impl L2cBank {
    /// Creates an empty bank with the scaled default geometry.
    pub fn new(bank: BankId) -> Self {
        Self::with_geometry(bank, L2Geometry::default())
    }

    /// Creates an empty bank with an explicit cache geometry.
    pub fn with_geometry(bank: BankId, geo: L2Geometry) -> Self {
        Self::with_arch(bank, L2BankArch::for_bank(geo, bank.index()))
    }

    /// Creates a bank at reset around transferred architectural state
    /// (Fig. 2 step 3): flops and handle tables are copied from a
    /// per-process prototype of that bank, so the field names are
    /// formatted once and no arrays are built only to be replaced.
    ///
    /// # Panics
    ///
    /// Panics if `arch` belongs to another bank.
    pub fn with_arch(bank: BankId, arch: L2BankArch) -> Self {
        assert_eq!(arch.bank_index(), bank.index(), "bank mismatch");
        let proto = Self::prototype(bank);
        L2cBank {
            flops: proto.flops.clone(),
            arch,
            ..*proto
        }
    }

    /// [`with_arch`](Self::with_arch) in place: this bank, whatever it
    /// held, becomes bank `bank` at reset around `arch`, with its flops
    /// copied into the bits it holds.
    ///
    /// # Panics
    ///
    /// Panics if `arch` belongs to another bank.
    pub fn reset(&mut self, bank: BankId, arch: L2BankArch) {
        assert_eq!(arch.bank_index(), bank.index(), "bank mismatch");
        self.copy_all_but_arch(Self::prototype(bank));
        self.arch = arch;
    }

    /// Moves the arrays out, leaving the bank holding none, and
    /// allocates nothing ([`L2BankArch::take`]): for a bank that is only
    /// written into ([`reset`](Self::reset), `clone_from`) before it is
    /// read again.
    pub fn take_arch(&mut self) -> L2BankArch {
        self.arch.take()
    }

    /// The per-process prototype of bank `bank`.
    fn prototype(bank: BankId) -> &'static L2cBank {
        static PROTOTYPES: [OnceLock<L2cBank>; NUM_L2_BANKS] =
            [const { OnceLock::new() }; NUM_L2_BANKS];
        PROTOTYPES[bank.index()].get_or_init(|| Self::build(bank))
    }

    /// Copies every field of `source` but the arrays, the flops into the
    /// bits this bank holds. Destructures every field: a new field fails
    /// to compile here until it is copied.
    fn copy_all_but_arch(&mut self, source: &Self) {
        let L2cBank {
            bank,
            flops,
            arch: _,
            iq,
            iq_guards,
            iq_count,
            p1,
            p2,
            mb,
            fill,
            oq,
            oq_guards,
            oq_count,
            perf_ctr,
            cfg_enable,
            guards,
            write_block,
        } = source;
        self.bank = *bank;
        self.flops.clone_from(flops);
        self.iq = *iq;
        self.iq_guards = *iq_guards;
        self.iq_count = *iq_count;
        self.p1 = *p1;
        self.p2 = *p2;
        self.mb = *mb;
        self.fill = *fill;
        self.oq = *oq;
        self.oq_guards = *oq_guards;
        self.oq_count = *oq_count;
        self.perf_ctr = *perf_ctr;
        self.cfg_enable = *cfg_enable;
        self.guards = *guards;
        self.write_block = *write_block;
    }

    /// Declares the flop layout. The prototype's own arrays are never
    /// read, so they are the smallest there is.
    fn build(bank: BankId) -> Self {
        use core::array::from_fn;
        let mut b = FlopSpaceBuilder::new(format!("l2c{}", bank.index()));

        let iq: [PcxSlot; IQ_DEPTH] =
            from_fn(|i| PcxSlot::declare_guarded(&mut b, &format!("iq[{i}]"), FlopClass::Target));
        let iq_count = b.field("iq.count", 4, FlopClass::Target);

        // The issue pipeline is the timing-critical path of the bank
        // (tag access + way select feed it); under QRR these flops are
        // radiation-hardened instead of parity-protected (Sec. 6.4).
        let p1 = CpxSlot::declare_guarded(&mut b, "pipe.p1", FlopClass::TimingCritical);
        let p2 = CpxSlot::declare_guarded(&mut b, "pipe.p2", FlopClass::TimingCritical);

        let mb: [MbSlot; MB_DEPTH] =
            from_fn(|i| MbSlot::declare(&mut b, &format!("mb[{i}]"), FlopClass::Target));
        let fill: [FillSlot; FILL_DEPTH] =
            from_fn(|i| FillSlot::declare(&mut b, &format!("fill[{i}]"), FlopClass::Target));

        let oq: [CpxSlot; OQ_DEPTH] =
            from_fn(|i| CpxSlot::declare_guarded(&mut b, &format!("oq[{i}]"), FlopClass::Target));
        let oq_count = b.field("oq.count", 4, FlopClass::Target);
        // The hit counter only counts: its own increment is its one
        // reader.
        let perf_ctr = b.dead_field("perf.hits", 8, FlopClass::Target);

        // Configuration state: survives QRR reset, hardened under QRR.
        // No tick reads the bank id or the throttle.
        let cfg_enable = b.field("cfg.enable", 1, FlopClass::Config);
        b.dead_field("cfg.bank_id", 3, FlopClass::Config);
        b.dead_field("cfg.throttle", 28, FlopClass::Config);

        // ECC datapath pipeline registers: protected, excluded from
        // injection (Sec. 3.1). Sized to keep the protected share of the
        // model in the neighbourhood of Table 4's 27%. No tick reads
        // them, nor the BIST chains below.
        b.dead_array("ecc.data_pipe", 32, 64, FlopClass::EccProtected);
        b.dead_array("ecc.syndrome", 32, 8, FlopClass::EccProtected);

        // BIST / redundancy-repair chains: inactive on a defect-free
        // chip (Table 4: 14.7% of L2C flops).
        b.dead_array("bist.chain", 20, 64, FlopClass::Inactive);
        b.dead_array("bist.repair", 8, 16, FlopClass::Inactive);

        let flops = b.build();
        let iq_guards = iq.map(|s| s.guard());
        let oq_guards = oq.map(|s| s.guard());
        assert!(is_packed_queue(&flops, &iq_guards) && is_packed_queue(&flops, &oq_guards));
        let mut guards = (iq_guards.into_iter())
            .chain([p1.guard(), p2.guard()])
            .chain(mb.iter().map(|s| s.guard))
            .chain(fill.iter().map(|s| s.guard))
            .chain(oq_guards);
        let guards = from_fn(|_| guards.next().expect("NUM_GUARDS counts every entry"));
        let mut bankm = L2cBank {
            bank,
            flops,
            arch: L2BankArch::for_bank(L2Geometry { sets: 1, ways: 1 }, bank.index()),
            iq,
            iq_guards,
            iq_count,
            p1,
            p2,
            mb,
            fill,
            oq,
            oq_guards,
            oq_count,
            perf_ctr,
            cfg_enable,
            guards,
            write_block: false,
        };
        bankm.flops.write_bool(bankm.cfg_enable, true);
        bankm
    }

    /// Which bank of the SoC this is.
    pub fn bank(&self) -> BankId {
        self.bank
    }

    /// True if the input queue can accept a request this cycle.
    pub fn ready(&self) -> bool {
        (self.flops.read(self.iq_count) as usize) < IQ_DEPTH
    }

    /// True if the bank is completely idle (no queued or in-flight
    /// work). Used by drivers to decide when co-simulation may detach.
    pub fn idle(&self) -> bool {
        self.flops.read(self.iq_count) == 0
            && self.flops.read(self.oq_count) == 0
            && !self.p1.is_valid(&self.flops)
            && !self.p2.is_valid(&self.flops)
            && self.mb.iter().all(|m| !m.pcx.is_valid(&self.flops))
            && self.fill.iter().all(|f| !f.line.is_valid(&self.flops))
    }

    /// Engages or releases the QRR write-disable (Sec. 6.2): while
    /// blocked the bank performs no array writes and raises no valid
    /// output signals, preventing a detected error from escaping.
    pub fn set_write_block(&mut self, block: bool) {
        self.write_block = block;
        self.flops.mark_changed();
    }

    /// QRR recovery reset: clears every flop except configuration state;
    /// the ECC-protected arrays (architectural state) are preserved.
    pub fn reset_for_replay(&mut self) {
        self.flops.reset_except_config();
        self.set_write_block(false);
    }

    /// Replaces the architectural (high-level) state — mixed-mode state
    /// transfer *into* RTL (Fig. 2 step 3).
    pub fn load_arch(&mut self, arch: L2BankArch) {
        assert_eq!(arch.bank_index(), self.bank.index(), "bank mismatch");
        self.arch = arch;
        self.flops.mark_changed();
    }

    /// Reads the architectural state — state transfer back to the
    /// high-level model (Fig. 2 step 10).
    pub fn arch(&self) -> &L2BankArch {
        &self.arch
    }

    /// Current input-queue occupancy (sampled by campaign telemetry).
    pub fn iq_occupancy(&self) -> usize {
        self.flops.read(self.iq_count) as usize
    }

    /// Current output-queue occupancy (sampled by campaign telemetry).
    pub fn oq_occupancy(&self) -> usize {
        self.flops.read(self.oq_count) as usize
    }

    /// Current miss-buffer occupancy (sampled by campaign telemetry).
    pub fn mb_occupancy(&self) -> usize {
        self.mb
            .iter()
            .filter(|m| m.pcx.is_valid(&self.flops))
            .count()
    }

    /// Request ids of all in-flight (incomplete) miss-buffer entries.
    pub fn inflight_miss_ids(&self) -> Vec<ReqId> {
        self.mb
            .iter()
            .filter(|m| m.pcx.is_valid(&self.flops))
            .map(|m| m.pcx.id(&self.flops))
            .collect()
    }

    fn mb_conflict(&self, line: LineAddr) -> bool {
        self.mb
            .iter()
            .any(|m| m.pcx.is_valid(&self.flops) && m.pcx.addr(&self.flops).line() == line)
            || self.fill.iter().any(|f| {
                f.line.is_valid(&self.flops) && LineAddr::new(f.line.line_addr(&self.flops)) == line
            })
    }

    fn oq_push(&mut self, pkt: &CpxPacket) -> bool {
        let count = self.flops.read(self.oq_count) as usize;
        if count >= OQ_DEPTH {
            return false;
        }
        // Shifting (collapsing) queue: the head is always entry 0 and
        // pushes land at entry `count` (T2-style queue structure; see
        // fields::shift_queue_down).
        let slot = self.oq[count % OQ_DEPTH];
        slot.store(&mut self.flops, pkt);
        self.flops.write(self.oq_count, (count + 1) as u64);
        true
    }

    /// Advances the bank by one clock cycle.
    ///
    /// A cycle is a pure function of the flops, `arch`, `write_block`
    /// and `inp`, so one that took no input, changed no flop and
    /// emitted nothing is a fixed point: until something marks the
    /// flops changed, every further input-less cycle is that same cycle
    /// and is not recomputed (DESIGN.md, *Settled ticks*).
    pub fn tick(&mut self, inp: &L2cInputs) -> L2cOutputs {
        let quiet = inp.pcx.is_none() && inp.dram_resp.is_none();
        if quiet && !self.flops.changed() {
            return L2cOutputs::default();
        }
        self.flops.clear_changed();
        let out = self.tick_body(inp);
        if !quiet || out != L2cOutputs::default() {
            self.flops.mark_changed();
        }
        out
    }

    /// The cycle itself, computed whether or not anything can happen.
    fn tick_body(&mut self, inp: &L2cInputs) -> L2cOutputs {
        let mut out = L2cOutputs::default();
        let enabled = self.flops.read_bool(self.cfg_enable);

        // ── Output stage: OQ head (entry 0) → CPX ───────────────────
        if !self.write_block {
            let count = self.flops.read(self.oq_count) as usize;
            if count > 0 {
                let slot = self.oq[0];
                if slot.is_valid(&self.flops) {
                    out.cpx = Some(slot.load(&self.flops));
                }
                shift_queue_down(&mut self.flops, &self.oq_guards);
                self.flops.write(self.oq_count, (count - 1) as u64);
            }
        }

        // ── DRAM responses → fill-pending buffer ────────────────────
        if let Some(resp) = &inp.dram_resp {
            if !resp.is_writeback_ack {
                if let Some(slot) = self
                    .fill
                    .iter()
                    .find(|f| !f.line.is_valid(&self.flops))
                    .copied()
                {
                    slot.line
                        .store(&mut self.flops, resp.line.raw(), &resp.data);
                    self.flops.write(slot.tag, resp.tag as u64);
                }
                // No free slot: the response is dropped. Under error-free
                // operation the MCU never has more responses in flight
                // than FILL_DEPTH + MB_DEPTH allows.
            }
        }

        // ── Fill completion: install line, complete miss entry ──────
        // Requires the DRAM command port (for a same-cycle victim
        // writeback) — fills therefore have priority over new fill
        // requests below.
        if !self.write_block && enabled {
            if let Some(fslot) = self
                .fill
                .iter()
                .find(|f| f.line.is_valid(&self.flops))
                .copied()
            {
                let line = LineAddr::new(fslot.line.line_addr(&self.flops));
                let data = fslot.line.data(&self.flops);
                if let Some((victim_line, victim_data)) = self.arch.install(line, data) {
                    // Atomic victim writeback (see module docs).
                    out.dram_cmd = Some(DramCmd::writeback(
                        0xff,
                        self.bank,
                        victim_line,
                        victim_data,
                    ));
                }
                let tag = self.flops.read(fslot.tag) as usize;
                if let Some(m) = self.mb.get(tag % MB_DEPTH).copied() {
                    if m.pcx.is_valid(&self.flops) {
                        let pkt = m.pcx.load(&self.flops);
                        let reply = serve(&mut self.arch, &pkt);
                        if pkt.kind == PcxKind::Store && self.flops.read_bool(m.acked) {
                            out.store_miss_done = Some(pkt.id);
                        } else {
                            self.oq_push(&reply);
                        }
                        m.pcx.invalidate(&mut self.flops);
                    }
                }
                fslot.line.invalidate(&mut self.flops);
            }
        }

        // ── Pipeline advance: P2 → OQ, P1 → P2 ──────────────────────
        if self.p2.is_valid(&self.flops) {
            let pkt = self.p2.load(&self.flops);
            if self.oq_push(&pkt) {
                self.p2.invalidate(&mut self.flops);
            }
        }
        if self.p1.is_valid(&self.flops) && !self.p2.is_valid(&self.flops) {
            let pkt = self.p1.load(&self.flops);
            self.p2.store(&mut self.flops, &pkt);
            self.p1.invalidate(&mut self.flops);
        }

        // ── IQ dispatch ─────────────────────────────────────────────
        if !self.write_block && enabled && !self.p1.is_valid(&self.flops) {
            let count = self.flops.read(self.iq_count) as usize;
            if count > 0 {
                let slot = self.iq[0];
                let mut pop = false;
                if slot.is_valid(&self.flops) {
                    let pkt = slot.load(&self.flops);
                    let line = pkt.addr.line();
                    if !self.mb_conflict(line) {
                        if self.arch.probe(line).is_some() {
                            // Hit path.
                            let hits = self.flops.read(self.perf_ctr);
                            self.flops.write(self.perf_ctr, hits.wrapping_add(1));
                            let reply = serve(&mut self.arch, &pkt);
                            self.p1.store(&mut self.flops, &reply);
                            slot.invalidate(&mut self.flops);
                            pop = true;
                        } else if let Some(m) = self
                            .mb
                            .iter()
                            .find(|m| !m.pcx.is_valid(&self.flops))
                            .copied()
                        {
                            // Miss path: allocate miss-buffer entry.
                            m.pcx.store(&mut self.flops, &pkt);
                            self.flops.write_bool(m.issued, false);
                            let early_ack = pkt.kind == PcxKind::Store;
                            self.flops.write_bool(m.acked, early_ack);
                            if early_ack {
                                // Early store acknowledgement (Sec. 6.1).
                                self.p1
                                    .store(&mut self.flops, &CpxPacket::reply_to(&pkt, 0));
                            }
                            slot.invalidate(&mut self.flops);
                            pop = true;
                        }
                        // else: miss buffer full → stall at head.
                    }
                    // else: per-line ordering conflict → stall at head.
                } else {
                    // Corrupted FIFO state (count > 0, head invalid):
                    // the slot is skipped, losing whatever it held.
                    pop = true;
                }
                if pop {
                    shift_queue_down(&mut self.flops, &self.iq_guards);
                    self.flops.write(self.iq_count, (count - 1) as u64);
                }
            }
        }

        // ── Fill-request emission (if the command port is free) ─────
        if !self.write_block && enabled && out.dram_cmd.is_none() {
            if let Some((i, m)) = self
                .mb
                .iter()
                .enumerate()
                .find(|(_, m)| m.pcx.is_valid(&self.flops) && !self.flops.read_bool(m.issued))
                .map(|(i, m)| (i, *m))
            {
                let pkt = m.pcx.load(&self.flops);
                out.dram_cmd = Some(DramCmd::fill(i as u32, self.bank, pkt.addr.line()));
                self.flops.write_bool(m.issued, true);
            }
        }

        // ── Input acceptance ─────────────────────────────────────────
        if let Some(pkt) = &inp.pcx {
            if !self.write_block {
                let count = self.flops.read(self.iq_count) as usize;
                if count < IQ_DEPTH {
                    let slot = self.iq[count];
                    slot.store(&mut self.flops, pkt);
                    self.flops.write(self.iq_count, (count + 1) as u64);
                    out.accepted = true;
                }
            }
        }

        out
    }
}

impl UncoreRtl for L2cBank {
    fn kind(&self) -> ComponentKind {
        ComponentKind::L2c
    }

    fn flops(&self) -> &FlopSpace {
        &self.flops
    }

    fn flops_mut(&mut self) -> &mut FlopSpace {
        &mut self.flops
    }

    fn is_benign_diff(&self, golden: &Self, bit: usize) -> bool {
        benign_in(&self.guards, bit, &self.flops, &golden.flops)
    }
}

/// A fill-pending entry as [`FillSlot`]'s flops hold it.
#[derive(Debug, Clone, Copy, Default)]
struct FillImage {
    valid: bool,
    /// Line address, as wide as its field.
    line: u64,
    data: [u64; 8],
    /// Miss-buffer tag, as wide as its field.
    tag: u64,
}

/// Whether a slot image's valid bit is set.
#[inline]
fn valid(v: &[u64; 3]) -> bool {
    v[0] & 1 != 0
}

/// Pops the head of a queue of slot images: what [`shift_queue_down`]
/// does to a packed queue of flops, zeros shifted into the tail.
#[inline]
fn shift_images_down<const N: usize>(q: &mut [[u64; 3]; N]) {
    q.copy_within(1.., 0);
    q[N - 1] = [0; 3];
}

/// The bank before any bit of it can be wrong: [`L2cBank`]'s cycle on
/// slot images and plain integers instead of flops.
///
/// Fig. 2 transfers the arrays into the model (step 3) and warms it up
/// with live traffic (step 4) before the golden snapshot and the flip
/// (step 5), so no flop can hold an error yet, and the flops of a
/// fault-free bank are a function of its slots, counts, miss-buffer bits
/// and hit counter (`cfg.enable` is set, everything else is zero).
/// `L2cWarm` keeps exactly those, each IQ, pipeline, miss-buffer and OQ
/// slot as the span its flops would hold, and runs the same cycle on
/// them. A slot is invalidated by clearing its valid bit only, so its
/// stale payload stays in the image as it stays in the flops.
/// [`into_l2c`](Self::into_l2c) writes them into flops, giving the bank
/// the flop-level warm-up would have left.
#[derive(Debug)]
pub struct L2cWarm {
    bank: BankId,
    arch: L2BankArch,
    iq: [[u64; 3]; IQ_DEPTH],
    iq_count: usize,
    p1: [u64; 3],
    p2: [u64; 3],
    mb: [[u64; 3]; MB_DEPTH],
    mb_issued: [bool; MB_DEPTH],
    mb_acked: [bool; MB_DEPTH],
    fill: [FillImage; FILL_DEPTH],
    oq: [[u64; 3]; OQ_DEPTH],
    oq_count: usize,
    hits: u8,
}

// Hand-written so that `clone_from` copies into the arrays it holds.
impl Clone for L2cWarm {
    fn clone(&self) -> Self {
        L2cWarm {
            arch: self.arch.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let L2cWarm {
            bank,
            arch,
            iq,
            iq_count,
            p1,
            p2,
            mb,
            mb_issued,
            mb_acked,
            fill,
            oq,
            oq_count,
            hits,
        } = source;
        self.bank = *bank;
        self.arch.clone_from(arch);
        self.iq = *iq;
        self.iq_count = *iq_count;
        self.p1 = *p1;
        self.p2 = *p2;
        self.mb = *mb;
        self.mb_issued = *mb_issued;
        self.mb_acked = *mb_acked;
        self.fill = *fill;
        self.oq = *oq;
        self.oq_count = *oq_count;
        self.hits = *hits;
    }
}

impl L2cWarm {
    /// A bank at reset around transferred architectural state, as
    /// [`L2cBank::with_arch`] is.
    ///
    /// # Panics
    ///
    /// Panics if `arch` belongs to another bank.
    pub fn new(bank: BankId, arch: L2BankArch) -> Self {
        assert_eq!(arch.bank_index(), bank.index(), "bank mismatch");
        L2cWarm {
            bank,
            arch,
            iq: [[0; 3]; IQ_DEPTH],
            iq_count: 0,
            p1: [0; 3],
            p2: [0; 3],
            mb: [[0; 3]; MB_DEPTH],
            mb_issued: [false; MB_DEPTH],
            mb_acked: [false; MB_DEPTH],
            fill: [FillImage::default(); FILL_DEPTH],
            oq: [[0; 3]; OQ_DEPTH],
            oq_count: 0,
            hits: 0,
        }
    }

    /// [`L2cBank::ready`].
    #[inline]
    pub fn ready(&self) -> bool {
        self.iq_count < IQ_DEPTH
    }

    /// [`L2cBank::idle`].
    pub fn idle(&self) -> bool {
        self.iq_count == 0
            && self.oq_count == 0
            && !valid(&self.p1)
            && !valid(&self.p2)
            && self.mb.iter().all(|m| !valid(m))
            && self.fill.iter().all(|f| !f.valid)
    }

    /// [`L2cBank::iq_occupancy`].
    pub fn iq_occupancy(&self) -> usize {
        self.iq_count
    }

    /// [`L2cBank::oq_occupancy`].
    pub fn oq_occupancy(&self) -> usize {
        self.oq_count
    }

    /// [`L2cBank::mb_occupancy`].
    pub fn mb_occupancy(&self) -> usize {
        self.mb.iter().filter(|m| valid(m)).count()
    }

    fn mb_conflict(&self, line: LineAddr) -> bool {
        self.mb
            .iter()
            .any(|&m| valid(&m) && PcxSlot::from_image(m).addr.line() == line)
            || self
                .fill
                .iter()
                .any(|f| f.valid && LineAddr::new(f.line) == line)
    }

    fn oq_push(&mut self, pkt: &CpxPacket) -> bool {
        if self.oq_count >= OQ_DEPTH {
            return false;
        }
        self.oq[self.oq_count] = CpxSlot::image(pkt);
        self.oq_count += 1;
        true
    }

    /// [`L2cBank::tick`] of a bank that is enabled and not write-blocked:
    /// the same stages, in the same order, with the same outputs.
    pub fn tick(&mut self, inp: &L2cInputs) -> L2cOutputs {
        let mut out = L2cOutputs::default();

        // Output stage: OQ head → CPX.
        if self.oq_count > 0 {
            if valid(&self.oq[0]) {
                out.cpx = Some(CpxSlot::from_image(self.oq[0]));
            }
            shift_images_down(&mut self.oq);
            self.oq_count -= 1;
        }

        // DRAM responses → fill-pending buffer.
        if let Some(resp) = inp.dram_resp.as_ref().filter(|r| !r.is_writeback_ack) {
            if let Some(slot) = self.fill.iter_mut().find(|f| !f.valid) {
                *slot = FillImage {
                    valid: true,
                    line: resp.line.raw() & ((1 << LineSlot::LINE_BITS) - 1),
                    data: resp.data,
                    tag: u64::from(resp.tag) & 0b111,
                };
            }
        }

        // Fill completion: install line, complete miss entry.
        if let Some(slot) = self.fill.iter_mut().find(|f| f.valid) {
            slot.valid = false;
            let FillImage {
                line, data, tag, ..
            } = *slot;
            if let Some((victim_line, victim_data)) = self.arch.install(LineAddr::new(line), data) {
                out.dram_cmd = Some(DramCmd::writeback(
                    0xff,
                    self.bank,
                    victim_line,
                    victim_data,
                ));
            }
            let m = tag as usize % MB_DEPTH;
            if valid(&self.mb[m]) {
                let pkt = PcxSlot::from_image(self.mb[m]);
                let reply = serve(&mut self.arch, &pkt);
                if pkt.kind == PcxKind::Store && self.mb_acked[m] {
                    out.store_miss_done = Some(pkt.id);
                } else {
                    self.oq_push(&reply);
                }
                self.mb[m][0] &= !1;
            }
        }

        // Pipeline advance: P2 → OQ, P1 → P2.
        if valid(&self.p2) && self.oq_push(&CpxSlot::from_image(self.p2)) {
            self.p2[0] &= !1;
        }
        if valid(&self.p1) && !valid(&self.p2) {
            self.p2 = CpxSlot::image(&CpxSlot::from_image(self.p1));
            self.p1[0] &= !1;
        }

        // IQ dispatch.
        if !valid(&self.p1) && self.iq_count > 0 {
            let pop = if valid(&self.iq[0]) {
                let pkt = PcxSlot::from_image(self.iq[0]);
                let line = pkt.addr.line();
                if self.mb_conflict(line) {
                    false // per-line ordering conflict → stall at head
                } else if self.arch.probe(line).is_some() {
                    self.hits = self.hits.wrapping_add(1);
                    self.p1 = CpxSlot::image(&serve(&mut self.arch, &pkt));
                    true
                } else if let Some(m) = self.mb.iter().position(|m| !valid(m)) {
                    self.mb[m] = PcxSlot::image(&pkt);
                    self.mb_issued[m] = false;
                    self.mb_acked[m] = pkt.kind == PcxKind::Store;
                    if self.mb_acked[m] {
                        self.p1 = CpxSlot::image(&CpxPacket::reply_to(&pkt, 0));
                    }
                    true
                } else {
                    false // miss buffer full → stall at head
                }
            } else {
                true
            };
            if pop {
                shift_images_down(&mut self.iq);
                self.iq_count -= 1;
            }
        }

        // Fill-request emission (if the command port is free).
        if out.dram_cmd.is_none() {
            if let Some(m) = (0..MB_DEPTH).find(|&m| valid(&self.mb[m]) && !self.mb_issued[m]) {
                let pkt = PcxSlot::from_image(self.mb[m]);
                out.dram_cmd = Some(DramCmd::fill(m as u32, self.bank, pkt.addr.line()));
                self.mb_issued[m] = true;
            }
        }

        // Input acceptance.
        if let Some(pkt) = &inp.pcx {
            if self.iq_count < IQ_DEPTH {
                self.iq[self.iq_count] = PcxSlot::image(pkt);
                self.iq_count += 1;
                out.accepted = true;
            }
        }

        out
    }

    /// The flop-level bank holding this state: every slot image, stale
    /// payloads included, the counts, the miss-buffer bits and the hit
    /// counter written into [`L2cBank::with_arch`], which takes the
    /// arrays over. Its flops are marked changed, so its first tick is
    /// computed rather than skipped as settled.
    pub fn into_l2c(mut self) -> L2cBank {
        let mut b = L2cBank::with_arch(self.bank, self.arch.take());
        self.store(&mut b);
        b
    }

    /// [`into_l2c`](Self::into_l2c) into `b`, a bank an earlier run held,
    /// which it overwrites ([`L2cBank::reset`]): the arrays move over and
    /// the flops are copied into the bits `b` holds.
    pub fn write_into(mut self, b: &mut L2cBank) {
        b.reset(self.bank, self.arch.take());
        self.store(b);
    }

    /// [`write_into`](Self::write_into) of a copy: this state stays as it
    /// is, and its arrays are copied into the ones `b` holds.
    pub fn copy_into(&self, b: &mut L2cBank) {
        let mut arch = b.take_arch();
        arch.clone_from(&self.arch);
        b.reset(self.bank, arch);
        self.store(b);
    }

    /// The arrays, moved out.
    pub fn into_arch(self) -> L2BankArch {
        self.arch
    }

    /// Writes every slot image, count, miss-buffer bit and the hit
    /// counter into `b`, a bank at reset, and marks its flops changed.
    fn store(&self, b: &mut L2cBank) {
        let f = &mut b.flops;
        for (slot, &v) in b.iq.iter().zip(&self.iq) {
            slot.store_image(f, v);
        }
        f.write(b.iq_count, self.iq_count as u64);
        b.p1.store_image(f, self.p1);
        b.p2.store_image(f, self.p2);
        for (i, m) in b.mb.iter().enumerate() {
            m.pcx.store_image(f, self.mb[i]);
            f.write_bool(m.issued, self.mb_issued[i]);
            f.write_bool(m.acked, self.mb_acked[i]);
        }
        for (slot, img) in b.fill.iter().zip(&self.fill) {
            slot.line.store(f, img.line, &img.data);
            if !img.valid {
                slot.line.invalidate(f);
            }
            f.write(slot.tag, img.tag);
        }
        for (slot, &v) in b.oq.iter().zip(&self.oq) {
            slot.store_image(f, v);
        }
        f.write(b.oq_count, self.oq_count as u64);
        f.write(b.perf_ctr, self.hits.into());
        f.mark_changed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_proto::addr::ThreadId;
    use nestsim_proto::CpxKind;

    impl L2cBank {
        /// The collapsing queues, for `fields::tests`.
        pub(crate) fn queues(&self) -> Vec<(&'static str, Vec<Guard>)> {
            vec![
                ("l2c.iq", self.iq_guards.to_vec()),
                ("l2c.oq", self.oq_guards.to_vec()),
            ]
        }
    }

    fn bank0_addr(i: u64) -> PAddr {
        PAddr::new(0x1000_0000 + i * 8 * 64) // heap lines in bank 0
    }

    fn req(id: u64, kind: PcxKind, addr: PAddr, data: u64) -> PcxPacket {
        PcxPacket {
            id: ReqId(id),
            thread: ThreadId::new(1),
            kind,
            addr,
            data,
        }
    }

    /// Drives the bank with a simple in-test DRAM: fills return after a
    /// fixed latency, writebacks are applied to the map.
    struct Harness {
        bank: L2cBank,
        dram: std::collections::HashMap<u64, [u64; 8]>,
        pending: std::collections::VecDeque<(u64, DramCmd)>, // (ready_cycle, cmd)
        cycle: u64,
        cpx: Vec<CpxPacket>,
        store_miss_done: Vec<ReqId>,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                bank: L2cBank::new(BankId::new(0)),
                dram: Default::default(),
                pending: Default::default(),
                cycle: 0,
                cpx: Vec::new(),
                store_miss_done: Vec::new(),
            }
        }

        fn poke_dram(&mut self, addr: PAddr, v: u64) {
            let e = self.dram.entry(addr.line().raw()).or_insert([0; 8]);
            e[(addr.line_offset() / 8) as usize] = v;
        }

        fn step(&mut self, pcx: Option<PcxPacket>) {
            let resp = match self.pending.front() {
                Some((c, _)) if *c <= self.cycle => {
                    let (_, cmd) = self.pending.pop_front().unwrap();
                    match cmd.kind {
                        nestsim_proto::DramCmdKind::Fill => Some(DramResp {
                            tag: cmd.tag,
                            bank: cmd.bank,
                            line: cmd.line,
                            data: self.dram.get(&cmd.line.raw()).copied().unwrap_or([0; 8]),
                            is_writeback_ack: false,
                        }),
                        nestsim_proto::DramCmdKind::Writeback => {
                            self.dram.insert(cmd.line.raw(), cmd.data);
                            None
                        }
                    }
                }
                _ => None,
            };
            let out = self.bank.tick(&L2cInputs {
                pcx,
                dram_resp: resp,
            });
            if let Some(cmd) = out.dram_cmd {
                self.pending.push_back((self.cycle + 10, cmd));
            }
            if let Some(c) = out.cpx {
                self.cpx.push(c);
            }
            if let Some(id) = out.store_miss_done {
                self.store_miss_done.push(id);
            }
            self.cycle += 1;
        }

        fn run(&mut self, cycles: u64) {
            for _ in 0..cycles {
                self.step(None);
            }
        }
    }

    #[test]
    fn load_miss_returns_dram_value() {
        let mut h = Harness::new();
        let a = bank0_addr(1);
        h.poke_dram(a, 4242);
        h.step(Some(req(1, PcxKind::Load, a, 0)));
        h.run(40);
        assert_eq!(h.cpx.len(), 1);
        assert_eq!(h.cpx[0].kind, CpxKind::LoadReturn);
        assert_eq!(h.cpx[0].data, 4242);
        assert_eq!(h.cpx[0].id, ReqId(1));
    }

    #[test]
    fn load_hit_is_faster_than_miss() {
        let mut h = Harness::new();
        let a = bank0_addr(2);
        h.poke_dram(a, 7);
        h.step(Some(req(1, PcxKind::Load, a, 0)));
        h.run(40);
        let miss_seen = h.cpx.len();
        let t0 = h.cycle;
        h.step(Some(req(2, PcxKind::Load, a, 0)));
        h.run(10);
        assert_eq!(h.cpx.len(), miss_seen + 1);
        assert!(h.cycle - t0 <= 11);
        assert_eq!(h.cpx.last().unwrap().data, 7);
    }

    #[test]
    fn store_miss_acks_early_and_signals_completion_later() {
        let mut h = Harness::new();
        let a = bank0_addr(3);
        h.step(Some(req(9, PcxKind::Store, a, 123)));
        // Early ack arrives before the fill latency (10 cycles) elapses.
        h.run(6);
        assert_eq!(h.cpx.len(), 1);
        assert_eq!(h.cpx[0].kind, CpxKind::StoreAck);
        assert!(h.store_miss_done.is_empty(), "completion must come later");
        h.run(30);
        assert_eq!(h.store_miss_done, vec![ReqId(9)]);
        // The stored value is now readable.
        h.step(Some(req(10, PcxKind::Load, a, 0)));
        h.run(10);
        assert_eq!(h.cpx.last().unwrap().data, 123);
    }

    #[test]
    fn atomic_returns_old_value_and_adds() {
        let mut h = Harness::new();
        let a = bank0_addr(4);
        h.poke_dram(a, 100);
        h.step(Some(req(1, PcxKind::Atomic, a, 5)));
        h.run(40);
        assert_eq!(h.cpx.last().unwrap().data, 100);
        h.step(Some(req(2, PcxKind::Load, a, 0)));
        h.run(10);
        assert_eq!(h.cpx.last().unwrap().data, 105);
    }

    #[test]
    fn same_line_requests_are_ordered_across_a_miss() {
        let mut h = Harness::new();
        let a = bank0_addr(5);
        h.step(Some(req(1, PcxKind::Store, a, 77))); // miss, early-acked
        h.step(Some(req(2, PcxKind::Load, a, 0))); // must see 77
        h.run(60);
        let load_ret = h
            .cpx
            .iter()
            .find(|c| c.kind == CpxKind::LoadReturn)
            .expect("load returned");
        assert_eq!(load_ret.data, 77);
    }

    #[test]
    fn dirty_eviction_writes_back_before_install() {
        let mut h = Harness::new();
        // Small geometry to force evictions quickly.
        h.bank = L2cBank::with_geometry(BankId::new(0), L2Geometry { sets: 2, ways: 2 });
        let a = PAddr::new(0); // set 0
        let b = PAddr::new(16 * 64); // same set
        let c = PAddr::new(32 * 64); // same set
        h.step(Some(req(1, PcxKind::Store, a, 1)));
        h.run(30);
        h.step(Some(req(2, PcxKind::Load, b, 0)));
        h.run(30);
        h.step(Some(req(3, PcxKind::Load, c, 0))); // evicts dirty a
        h.run(40);
        assert_eq!(h.dram.get(&a.line().raw()).map(|l| l[0]), Some(1));
        // And the value survives re-reading through the cache.
        h.step(Some(req(4, PcxKind::Load, a, 0)));
        h.run(40);
        assert_eq!(h.cpx.last().unwrap().data, 1);
    }

    #[test]
    fn golden_copy_stays_identical_without_errors() {
        let mut h = Harness::new();
        let mut golden = h.bank.clone();
        let a = bank0_addr(6);
        h.poke_dram(a, 9);
        // Drive both with identical inputs.
        let inputs: Vec<Option<PcxPacket>> = vec![
            Some(req(1, PcxKind::Load, a, 0)),
            None,
            Some(req(2, PcxKind::Store, bank0_addr(7), 1)),
        ];
        let mut pending: std::collections::VecDeque<(u64, DramCmd)> = Default::default();
        let mut gpending: std::collections::VecDeque<(u64, DramCmd)> = Default::default();
        for cyc in 0..80u64 {
            let pcx = inputs.get(cyc as usize).cloned().flatten();
            let mk_resp =
                |p: &mut std::collections::VecDeque<(u64, DramCmd)>,
                 dram: &std::collections::HashMap<u64, [u64; 8]>| {
                    match p.front() {
                        Some((c, _)) if *c <= cyc => {
                            let (_, cmd) = p.pop_front().unwrap();
                            if cmd.kind == nestsim_proto::DramCmdKind::Fill {
                                Some(DramResp {
                                    tag: cmd.tag,
                                    bank: cmd.bank,
                                    line: cmd.line,
                                    data: dram.get(&cmd.line.raw()).copied().unwrap_or([0; 8]),
                                    is_writeback_ack: false,
                                })
                            } else {
                                None
                            }
                        }
                        _ => None,
                    }
                };
            let r1 = mk_resp(&mut pending, &h.dram);
            let r2 = mk_resp(&mut gpending, &h.dram);
            let o1 = h.bank.tick(&L2cInputs { pcx, dram_resp: r1 });
            let o2 = golden.tick(&L2cInputs { pcx, dram_resp: r2 });
            assert_eq!(o1.cpx, o2.cpx, "outputs diverged at cycle {cyc}");
            if let Some(cmd) = o1.dram_cmd {
                pending.push_back((cyc + 10, cmd));
            }
            if let Some(cmd) = o2.dram_cmd {
                gpending.push_back((cyc + 10, cmd));
            }
        }
        assert_eq!(h.bank.flops().diff_count(golden.flops()), 0);
        assert!(h.bank.arch().diff_slots(golden.arch()).is_empty());
    }

    #[test]
    fn injected_addr_flip_corrupts_a_different_line() {
        let mut h = Harness::new();
        let a = bank0_addr(8);
        // Enqueue a store, then corrupt its address while it waits.
        h.bank.tick(&L2cInputs {
            pcx: Some(req(1, PcxKind::Store, a, 55)),
            dram_resp: None,
        });
        let golden = h.bank.clone();
        // Flip a mid address bit of IQ entry 0.
        let f = h.bank.flops();
        let bit = f
            .fields()
            .iter()
            .find(|fd| fd.name == "iq[0].addr")
            .map(|fd| fd.offset + 12)
            .unwrap();
        h.bank.flops_mut().flip(bit);
        assert_eq!(h.bank.flops().diff_count(golden.flops()), 1);
        h.run(60);
        // The store landed somewhere other than `a`.
        assert_ne!(h.dram.get(&a.line().raw()).map(|l| l[0]), Some(55));
    }

    #[test]
    fn valid_flip_drops_request_silently() {
        let mut h = Harness::new();
        let a = bank0_addr(9);
        h.bank.tick(&L2cInputs {
            pcx: Some(req(1, PcxKind::Load, a, 0)),
            dram_resp: None,
        });
        // Clear the IQ entry's valid bit (1→0 flip).
        let f = h.bank.flops();
        let bit = f
            .fields()
            .iter()
            .find(|fd| fd.name == "iq[0].valid")
            .map(|fd| fd.offset)
            .unwrap();
        h.bank.flops_mut().flip(bit);
        h.run(60);
        assert!(h.cpx.is_empty(), "dropped request must never answer");
    }

    #[test]
    fn write_block_gates_outputs_and_array_writes() {
        let mut h = Harness::new();
        let a = bank0_addr(10);
        h.step(Some(req(1, PcxKind::Store, a, 3)));
        h.bank.set_write_block(true);
        h.run(40);
        assert!(h.cpx.is_empty());
        assert!(h.dram.is_empty());
        h.bank.set_write_block(false);
        h.run(60);
        assert_eq!(h.cpx.len(), 1); // ack eventually flows
    }

    #[test]
    fn reset_for_replay_clears_flops_keeps_config_and_arch() {
        let mut h = Harness::new();
        let a = bank0_addr(11);
        h.step(Some(req(1, PcxKind::Store, a, 5)));
        h.run(40);
        // Cache now holds dirty line with 5.
        h.bank.reset_for_replay();
        assert!(h.bank.idle());
        assert!(h.bank.flops.read_bool(h.bank.cfg_enable));
        // Arch preserved: a re-load hits and returns 5.
        h.step(Some(req(2, PcxKind::Load, a, 0)));
        h.run(10);
        assert_eq!(h.cpx.last().unwrap().data, 5);
    }

    #[test]
    fn benign_diff_detection_for_idle_entries() {
        let b1 = L2cBank::new(BankId::new(0));
        let mut b2 = b1.clone();
        // Corrupt a payload bit of an invalid IQ entry.
        let bit = b1
            .flops()
            .fields()
            .iter()
            .find(|fd| fd.name == "iq[3].data")
            .map(|fd| fd.offset + 5)
            .unwrap();
        b2.flops_mut().flip(bit);
        assert!(b2.is_benign_diff(&b1, bit));
        // Queue-count bits are never benign.
        let hbit = b1
            .flops()
            .fields()
            .iter()
            .find(|fd| fd.name == "iq.count")
            .map(|fd| fd.offset)
            .unwrap();
        assert!(!b2.is_benign_diff(&b1, hbit));
    }

    #[test]
    fn flop_layout_is_pinned() {
        // Global bit indices are sample identities (a campaign's seed
        // draws them) and the guard spans decide what a benign diff is,
        // so declaration order, names, widths and guards are a
        // compatibility surface. Spelled out here, not derived from
        // `L2cBank::with_geometry`.
        use FlopClass::{Config, EccProtected, Inactive, Target, TimingCritical};
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
        type Want = Vec<(String, usize, FlopClass)>;
        fn slot(want: &mut Want, prefix: &str, leaves: &[(&str, usize)], class: FlopClass) {
            want.extend(
                leaves
                    .iter()
                    .map(|(l, w)| (format!("{prefix}.{l}"), *w, class)),
            );
        }
        fn bits(want: &Want) -> usize {
            want.iter().map(|(_, width, _)| width).sum()
        }
        /// Declares one guarded entry and notes its span: from the bit
        /// after its leading valid bit to the end of what it declared.
        fn guarded(
            want: &mut Want,
            spans: &mut Vec<(usize, usize)>,
            entry: impl FnOnce(&mut Want),
        ) {
            let start = bits(want) + 1;
            entry(want);
            spans.push((start, bits(want)));
        }
        let mut want: Want = Vec::new();
        // Spans in `guards` order.
        let mut spans = Vec::new();
        for i in 0..IQ_DEPTH {
            guarded(&mut want, &mut spans, |w| {
                slot(w, &format!("iq[{i}]"), PCX, Target)
            });
        }
        want.push(("iq.count".into(), 4, Target));
        for p in ["pipe.p1", "pipe.p2"] {
            guarded(&mut want, &mut spans, |w| slot(w, p, CPX, TimingCritical));
        }
        for i in 0..MB_DEPTH {
            guarded(&mut want, &mut spans, |w| {
                slot(w, &format!("mb[{i}]"), PCX, Target);
                w.push((format!("mb[{i}].issued"), 1, Target));
                w.push((format!("mb[{i}].acked"), 1, Target));
            });
        }
        for i in 0..FILL_DEPTH {
            guarded(&mut want, &mut spans, |w| {
                w.push((format!("fill[{i}].valid"), 1, Target));
                w.push((format!("fill[{i}].line"), 28, Target));
                w.extend((0..8).map(|k| (format!("fill[{i}].w{k}"), 64, Target)));
                w.push((format!("fill[{i}].tag"), 3, Target));
            });
        }
        for i in 0..OQ_DEPTH {
            guarded(&mut want, &mut spans, |w| {
                slot(w, &format!("oq[{i}]"), CPX, Target)
            });
        }
        want.push(("oq.count".into(), 4, Target));
        want.push(("perf.hits".into(), 8, Target));
        want.push(("cfg.enable".into(), 1, Config));
        want.push(("cfg.bank_id".into(), 3, Config));
        want.push(("cfg.throttle".into(), 28, Config));
        want.extend((0..32).map(|i| (format!("ecc.data_pipe[{i}]"), 64, EccProtected)));
        want.extend((0..32).map(|i| (format!("ecc.syndrome[{i}]"), 8, EccProtected)));
        want.extend((0..20).map(|i| (format!("bist.chain[{i}]"), 64, Inactive)));
        want.extend((0..8).map(|i| (format!("bist.repair[{i}]"), 16, Inactive)));

        let b = L2cBank::new(BankId::new(0));
        let fields = b.flops().fields();
        assert_eq!(fields.len(), 250);
        assert_eq!(b.flops().num_flops(), 7_584);
        assert_eq!(fields.len(), want.len());
        let mut offset = 0;
        for (f, (name, width, class)) in fields.iter().zip(&want) {
            assert_eq!(
                (&f.name, f.width, f.offset, f.class),
                (name, *width, offset, *class)
            );
            offset += width;
        }
        let got: Vec<(usize, usize)> = b.guards.iter().map(|g| (g.start, g.end)).collect();
        assert_eq!(got, spans);
        for (g, (start, _)) in b.guards.iter().zip(&spans) {
            let valid = b.flops().fields()[g.valid.index()].offset;
            assert_eq!(valid + 1, *start, "each guard starts after its valid bit");
        }
        assert_eq!(b.iq_guards[..], b.guards[..IQ_DEPTH]);
        assert_eq!(b.oq_guards[..], b.guards[b.guards.len() - OQ_DEPTH..]);
    }

    #[test]
    fn gated_tick_matches_the_always_ticked_twin() {
        // Differential oracle for the settled-tick gate: one twin goes
        // through `tick`, the other runs `tick_body` every cycle, under
        // the same traffic, DRAM answers, flips and out-of-band state
        // changes. Outputs, flops and arch must agree on every cycle.
        // What the traffic exercised is counted out here, where
        // shrinking cannot trip on it.
        use nestsim_harness::{check_with, Config};
        use std::cell::Cell;
        use std::collections::{HashMap, VecDeque};

        const CYCLES: u64 = 10_000;
        let skipped = Cell::new(0u64);
        let settled_flips = Cell::new(0u64);
        let settled_clone_flips = Cell::new(0u64);
        let block_wakes = Cell::new(0u64);
        let bump = |c: &Cell<u64>| c.set(c.get() + 1);

        /// One cycle of both twins; `true` if the gate skipped it.
        fn lockstep(
            gated: &mut L2cBank,
            always: &mut L2cBank,
            inp: &L2cInputs,
        ) -> (bool, L2cOutputs) {
            let settled = !gated.flops.changed();
            let got = gated.tick(inp);
            let want = always.tick_body(inp);
            assert_eq!(got, want, "outputs");
            assert_eq!(gated.flops.diff_count(&always.flops), 0, "flops");
            assert!(gated.arch == always.arch, "arch");
            // The rule the fixed-point argument needs, checked as such:
            // today's bank changes a flop whenever an input or an
            // output has any effect, so the twins alone could not tell
            // if a cycle that took or emitted something left it settled.
            assert!(
                gated.flops.changed()
                    || (*inp == L2cInputs::default() && got == L2cOutputs::default()),
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
                // Eight lines of cache under 32 lines of traffic:
                // hits, misses, conflicts and dirty evictions all occur.
                let geo = L2Geometry { sets: 4, ways: 2 };
                let mut gated = L2cBank::with_geometry(BankId::new(0), geo);
                let mut always = gated.clone();
                let num_flops = gated.flops.num_flops();
                let hot: Vec<usize> = (gated.flops.fields().iter())
                    .filter(|f| {
                        [".valid", ".count", ".issued", ".acked", ".tag"]
                            .iter()
                            .any(|leaf| f.name.ends_with(leaf))
                    })
                    .flat_map(|f| f.offset..f.offset + f.width)
                    .collect();
                let mut dram: HashMap<u64, [u64; 8]> = HashMap::new();
                let mut in_flight: VecDeque<(u64, DramCmd)> = VecDeque::new();
                let latency = 10 + src.below(40);
                let mut spare_arch = gated.arch.clone();
                let mut load = 0;
                let mut unblock_at = None;
                let mut released_settled = false;

                for cyc in 0..CYCLES {
                    if cyc % 256 == 0 {
                        // Offered load in eighths; every other stretch
                        // is silent so the bank drains and settles.
                        load = if src.bool() { 0 } else { src.below(8) + 1 };
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
                    match src.below(1_000) {
                        0 => spare_arch = gated.arch.clone(),
                        1 => {
                            gated.load_arch(spare_arch.clone());
                            always.load_arch(spare_arch.clone());
                        }
                        2 => {
                            gated.reset_for_replay();
                            always.reset_for_replay();
                            unblock_at = None;
                        }
                        3..=6 if unblock_at.is_none() => {
                            gated.set_write_block(true);
                            always.set_write_block(true);
                            unblock_at = Some(cyc + 60 + src.below(200));
                        }
                        7 if !gated.flops.changed() => {
                            // A clone of a settled bank is settled, and
                            // a flip wakes the clone only.
                            let (mut c, mut r) = (gated.clone(), always.clone());
                            assert!(!c.flops.changed());
                            let bit = hot[src.index(hot.len())];
                            c.flops_mut().flip(bit);
                            r.flops_mut().flip(bit);
                            bump(&settled_clone_flips);
                            for _ in 0..64 {
                                lockstep(&mut c, &mut r, &L2cInputs::default());
                            }
                            assert!(!gated.flops.changed(), "the original woke up");
                        }
                        _ => {}
                    }
                    if unblock_at == Some(cyc) {
                        released_settled = !gated.flops.changed();
                        gated.set_write_block(false);
                        always.set_write_block(false);
                        unblock_at = None;
                    }

                    // A blocked bank is offered nothing (its driver
                    // holds requests back), so it can settle blocked.
                    let offer = unblock_at.is_none() && src.below(8) < load;
                    let pcx = offer.then(|| {
                        let x = src.u64();
                        let kind = [
                            PcxKind::Load,
                            PcxKind::Store,
                            PcxKind::Ifetch,
                            PcxKind::Atomic,
                        ][(x % 4) as usize];
                        req(cyc, kind, bank0_addr((x >> 2) % 32), x)
                    });
                    let dram_resp = match in_flight.front() {
                        Some((due, _)) if *due <= cyc => {
                            let (_, cmd) = in_flight.pop_front().unwrap();
                            let is_writeback_ack =
                                cmd.kind == nestsim_proto::DramCmdKind::Writeback;
                            if is_writeback_ack {
                                dram.insert(cmd.line.raw(), cmd.data);
                            }
                            Some(DramResp {
                                tag: cmd.tag,
                                bank: cmd.bank,
                                line: cmd.line,
                                data: dram.get(&cmd.line.raw()).copied().unwrap_or([cyc; 8]),
                                is_writeback_ack,
                            })
                        }
                        _ => None,
                    };

                    always.flops.clear_changed();
                    let (skip, out) =
                        lockstep(&mut gated, &mut always, &L2cInputs { pcx, dram_resp });
                    if skip {
                        bump(&skipped);
                    }
                    if released_settled && (always.flops.changed() || out != L2cOutputs::default())
                    {
                        bump(&block_wakes);
                    }
                    released_settled = false;
                    if let Some(cmd) = out.dram_cmd {
                        in_flight.push_back((cyc + latency, cmd));
                    }
                }
            },
        );

        let share = skipped.get() as f64 / (6 * CYCLES) as f64;
        println!(
            "skipped {:.1} %, flips on a settled bank {}, on a settled clone {}, write-block wakes {}",
            100.0 * share,
            settled_flips.get(),
            settled_clone_flips.get(),
            block_wakes.get()
        );
        assert!(
            share >= 0.40,
            "only {:.1} % of cycles were skipped",
            100.0 * share
        );
        assert!(
            settled_flips.get() >= 20,
            "{} flips on a settled bank",
            settled_flips.get()
        );
        assert!(
            settled_clone_flips.get() >= 1,
            "no settled clone was flipped"
        );
        assert!(
            block_wakes.get() >= 1,
            "no bank settled blocked and woke on release"
        );
    }

    #[test]
    fn image_bank_matches_the_flop_bank_in_lockstep() {
        // Differential oracle of the warm-up model: the same fault-free
        // traffic drives `L2cWarm` and `L2cBank`, with every DRAM command
        // answered after its own random latency. Every cycle their
        // outputs, readiness, idleness and occupancies agree, and the
        // image state converted to flops is the flop bank bit for bit,
        // arrays included. Now and then the converted bank is ticked on
        // beside a clone of the flop one, settled or not. Coverage is
        // counted out here, where shrinking cannot trip on it.
        use nestsim_harness::{check_with, Config};
        use std::cell::Cell;
        use std::collections::HashMap;

        const CYCLES: u64 = 10_000;
        let stale = Cell::new(0u64);
        let hits_wrapped = Cell::new(0u64);
        let mb_full = Cell::new(0u64);
        let refused = Cell::new(0u64);
        let writebacks = Cell::new(0u64);
        let late_store_completions = Cell::new(0u64);
        let settled_conversions = Cell::new(0u64);
        let bump = |c: &Cell<u64>| c.set(c.get() + 1);

        fn agree(warm: &L2cWarm, b: &L2cBank) {
            assert_eq!(warm.ready(), b.ready(), "ready");
            assert_eq!(warm.idle(), b.idle(), "idle");
            assert_eq!(warm.iq_occupancy(), b.iq_occupancy(), "iq occupancy");
            assert_eq!(warm.oq_occupancy(), b.oq_occupancy(), "oq occupancy");
            assert_eq!(warm.mb_occupancy(), b.mb_occupancy(), "mb occupancy");
        }

        check_with(
            Config::with_cases(5),
            "image_bank_matches_the_flop_bank_in_lockstep",
            |src| {
                // Eight lines of cache under 32 lines of traffic: hits,
                // misses, conflicts and dirty evictions all occur.
                let geo = L2Geometry { sets: 4, ways: 2 };
                let bank = BankId::new(0);
                let mut warm = L2cWarm::new(bank, L2BankArch::for_bank(geo, 0));
                let mut flops = L2cBank::with_geometry(bank, geo);
                let mut dram: HashMap<u64, [u64; 8]> = HashMap::new();
                // (due cycle, command), answered one a cycle, earliest due first.
                let mut in_flight: Vec<(u64, DramCmd)> = Vec::new();
                let mut load = 0;
                let mut max_latency = 1;
                for cyc in 0..CYCLES {
                    if cyc % 256 == 0 {
                        // Offered load in eighths; every other stretch
                        // is silent so the bank drains and settles.
                        load = if src.bool() { 0 } else { src.below(8) + 1 };
                        max_latency = 1 + src.below(60);
                    }
                    let pcx = (src.below(8) < load).then(|| {
                        let x = src.u64();
                        let kind = [
                            PcxKind::Load,
                            PcxKind::Store,
                            PcxKind::Ifetch,
                            PcxKind::Atomic,
                        ][(x % 4) as usize];
                        req(cyc, kind, bank0_addr((x >> 2) % 32), x)
                    });
                    let next = (in_flight.iter().enumerate())
                        .filter(|(_, (due, _))| *due <= cyc)
                        .min_by_key(|(_, (due, _))| *due)
                        .map(|(i, _)| i);
                    let dram_resp = next.map(|i| {
                        let (_, cmd) = in_flight.remove(i);
                        let is_writeback_ack = cmd.kind == nestsim_proto::DramCmdKind::Writeback;
                        if is_writeback_ack {
                            dram.insert(cmd.line.raw(), cmd.data);
                        }
                        DramResp {
                            tag: cmd.tag,
                            bank: cmd.bank,
                            line: cmd.line,
                            data: dram.get(&cmd.line.raw()).copied().unwrap_or([cyc; 8]),
                            is_writeback_ack,
                        }
                    });
                    let inp = L2cInputs { pcx, dram_resp };

                    let (hits_before, settled) = (warm.hits, !flops.flops.changed());
                    let full_before = warm.mb_occupancy() == MB_DEPTH;
                    let got = warm.tick(&inp);
                    let want = flops.tick(&inp);
                    assert_eq!(got, want, "outputs diverged in cycle {cyc}");
                    agree(&warm, &flops);
                    let converted = warm.clone().into_l2c();
                    assert!(
                        converted.flops.changed(),
                        "conversion left the flops settled"
                    );
                    assert_eq!(
                        converted.flops.diff_count(&flops.flops),
                        0,
                        "flops diverged in cycle {cyc}"
                    );
                    assert!(
                        converted.arch == flops.arch,
                        "arrays diverged in cycle {cyc}"
                    );

                    let stale_slot = (warm.mb.iter().chain([&warm.p1, &warm.p2]))
                        .any(|v| !valid(v) && *v != [0; 3])
                        || warm.fill.iter().any(|f| !f.valid && f.data != [0; 8]);
                    if stale_slot {
                        bump(&stale);
                    }
                    if warm.hits < hits_before {
                        bump(&hits_wrapped);
                    }
                    if full_before && inp.pcx.is_some() && warm.mb_occupancy() == MB_DEPTH {
                        bump(&mb_full);
                    }
                    if inp.pcx.is_some() && !got.accepted {
                        bump(&refused);
                    }
                    if got.store_miss_done.is_some() {
                        bump(&late_store_completions);
                    }
                    if let Some(cmd) = got.dram_cmd {
                        if cmd.kind == nestsim_proto::DramCmdKind::Writeback {
                            bump(&writebacks);
                        }
                        in_flight.push((cyc + 1 + src.below(max_latency), cmd));
                    }

                    if src.below(500) == 0 {
                        if settled {
                            bump(&settled_conversions);
                        }
                        let (mut a, mut b) = (warm.clone().into_l2c(), flops.clone());
                        for _ in 0..32 {
                            let quiet = L2cInputs::default();
                            assert_eq!(a.tick(&quiet), b.tick(&quiet));
                            assert_eq!(a.flops.diff_count(&b.flops), 0, "converted bank");
                        }
                    }
                }
            },
        );

        for (what, hits) in [
            (
                "cycles with a stale payload in an invalid slot",
                stale.get(),
            ),
            ("wraps of the hit counter", hits_wrapped.get()),
            ("cycles with the miss buffer full", mb_full.get()),
            ("requests refused by a full input queue", refused.get()),
            ("dirty-victim writebacks", writebacks.get()),
            (
                "store misses completed after their ack",
                late_store_completions.get(),
            ),
            ("conversions of a settled bank", settled_conversions.get()),
        ] {
            println!("{what}: {hits}");
            assert!(hits > 0, "the traffic never produced {what}");
        }
    }

    #[test]
    fn every_bank_builds_its_layout_once() {
        for b in BankId::all() {
            let (x, y) = (L2cBank::new(b), L2cBank::new(b));
            assert!(std::ptr::eq(x.flops().fields(), y.flops().fields()), "{b}");
            assert_eq!(x.flops().component(), format!("l2c{}", b.index()));
            assert_eq!(x.bank(), b);
            // The prototype's stand-in arrays never leave it.
            assert_eq!(x.arch().geometry(), L2Geometry::default());
        }
    }

    #[test]
    fn census_has_all_classes() {
        use nestsim_rtl::FlopClass;
        let b = L2cBank::new(BankId::new(0));
        let census: std::collections::HashMap<_, _> =
            b.flops().class_census().into_iter().collect();
        assert!(census[&FlopClass::Target] > 3_000);
        assert!(census[&FlopClass::EccProtected] > 1_000);
        assert!(census[&FlopClass::Inactive] > 500);
        assert!(census[&FlopClass::Config] > 0);
        assert!(census[&FlopClass::TimingCritical] > 0);
    }
}
