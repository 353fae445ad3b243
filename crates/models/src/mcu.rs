//! Flip-flop-level model of one DRAM controller (MCU).
//!
//! Microarchitecture: an 8-entry request queue fed by the two L2 banks
//! the MCU serves, a write-data buffer holding writeback payloads, eight
//! DRAM-bank row FSMs with tRCD/tCAS/tRP timing counters, a refresh
//! engine, and a return queue. DRAM *contents* are the MCU's high-level
//! uncore state (Table 1) and are accessed through a
//! [`LineBackend`], which during
//! co-simulation is an overlay so target and golden writes stay
//! separable.
//!
//! Error semantics this model produces:
//!
//! * request-queue `line` flips → reads/writes of the **wrong DRAM
//!   location** (arbitrarily old data corrupted → long required rollback
//!   distances, Fig. 9),
//! * write-data-buffer flips → corrupted values silently committed to
//!   memory (Output Mismatch),
//! * valid/tag flips → lost commands or orphaned responses, leaving the
//!   L2 miss buffer waiting forever (Hang),
//! * row/timer/refresh flips → transient scheduling perturbations that
//!   usually vanish.
//!
//! Before the flip no flop can be wrong, so the warm-up runs on
//! [`McuWarm`], the same controller over plain fields, which becomes an
//! [`Mcu`] at the golden snapshot.

use nestsim_arch::LineBackend;
use std::sync::OnceLock;

use nestsim_proto::addr::{BankId, LineAddr, McuId, NUM_L2_BANKS, NUM_MCUS};
use nestsim_proto::{DramCmd, DramCmdKind, DramResp};
use nestsim_rtl::{FieldHandle, FlopClass, FlopSpace, FlopSpaceBuilder};

use crate::fields::{benign_in, is_packed_queue, shift_queue_down, Guard};
use crate::{ComponentKind, UncoreRtl};

/// Request-queue depth.
pub const RQ_DEPTH: usize = 8;
/// Write-data-buffer depth.
pub const WDB_DEPTH: usize = 4;
/// Return-queue depth.
pub const RETQ_DEPTH: usize = 4;
/// Modeled internal DRAM banks.
pub const DRAM_BANKS: usize = 8;

/// Default DRAM timing parameters (cycles), stored in config flops.
pub mod timing {
    /// Row activate delay.
    pub const T_RCD: u64 = 4;
    /// Column access latency.
    pub const T_CAS: u64 = 4;
    /// Precharge delay.
    pub const T_RP: u64 = 3;
    /// Cycles between refresh bursts.
    pub const REFRESH_INTERVAL: u64 = 512;
    /// Length of a refresh burst.
    pub const REFRESH_BUSY: u64 = 12;
}

/// Per-cycle inputs to the MCU.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McuInputs {
    /// A command arriving from one of the served L2 banks (only offer
    /// when [`Mcu::ready`] is true).
    pub cmd: Option<DramCmd>,
}

/// Per-cycle outputs from the MCU.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McuOutputs {
    /// Response to the issuing L2 bank.
    pub resp: Option<DramResp>,
    /// Whether the offered command was latched.
    pub accepted: bool,
}

#[derive(Debug, Clone, Copy)]
struct RqSlot {
    valid: FieldHandle,
    is_wb: FieldHandle,
    tag: FieldHandle,
    src_bank: FieldHandle,
    line: FieldHandle,
    wdb_idx: FieldHandle,
    guard: Guard,
}

#[derive(Debug, Clone, Copy)]
struct WdbSlot {
    valid: FieldHandle,
    words: [FieldHandle; 8],
    guard: Guard,
}

#[derive(Debug, Clone, Copy)]
struct RetSlot {
    valid: FieldHandle,
    tag: FieldHandle,
    src_bank: FieldHandle,
    line: FieldHandle,
    is_wb_ack: FieldHandle,
    words: [FieldHandle; 8],
    guard: Guard,
}

/// Width of a queue entry's command tag.
const TAG_BITS: usize = 8;
/// Width of a queue entry's issuing-bank field.
const SRC_BANK_BITS: usize = 3;
/// Width of a queue entry's line address.
const LINE_BITS: usize = 28;

/// Guarded groups in a controller: every request-queue, write-data-
/// buffer and return-queue entry.
const NUM_GUARDS: usize = RQ_DEPTH + WDB_DEPTH + RETQ_DEPTH;

/// Flip-flop-level model of one DRAM controller.
///
/// Everything but `flops` is a fixed table of field handles, so a clone
/// (the golden copy) copies the flop bits and nothing else.
#[derive(Debug)]
pub struct Mcu {
    id: McuId,
    flops: FlopSpace,

    rq: [RqSlot; RQ_DEPTH],
    rq_guards: [Guard; RQ_DEPTH],
    rq_count: FieldHandle,
    wdb: [WdbSlot; WDB_DEPTH],
    retq: [RetSlot; RETQ_DEPTH],
    retq_guards: [Guard; RETQ_DEPTH],
    retq_count: FieldHandle,

    bank_state: [FieldHandle; DRAM_BANKS], // 0 idle, 1 row open
    bank_row: [FieldHandle; DRAM_BANKS],
    bank_timer: [FieldHandle; DRAM_BANKS],
    refresh_ctr: FieldHandle,
    refresh_busy: FieldHandle,

    cfg_trcd: FieldHandle,
    cfg_tcas: FieldHandle,
    cfg_trp: FieldHandle,
    cfg_refresh: FieldHandle,

    guards: [Guard; NUM_GUARDS],
    write_block: bool,
}

// Hand-written so that `clone_from` copies into the bits it holds.
// Both destructure every field: a new field fails to compile here
// until it is copied.
impl Clone for Mcu {
    fn clone(&self) -> Self {
        Mcu {
            flops: self.flops.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Mcu {
            id,
            flops,
            rq,
            rq_guards,
            rq_count,
            wdb,
            retq,
            retq_guards,
            retq_count,
            bank_state,
            bank_row,
            bank_timer,
            refresh_ctr,
            refresh_busy,
            cfg_trcd,
            cfg_tcas,
            cfg_trp,
            cfg_refresh,
            guards,
            write_block,
        } = source;
        self.id = *id;
        self.flops.clone_from(flops);
        self.rq = *rq;
        self.rq_guards = *rq_guards;
        self.rq_count = *rq_count;
        self.wdb = *wdb;
        self.retq = *retq;
        self.retq_guards = *retq_guards;
        self.retq_count = *retq_count;
        self.bank_state = *bank_state;
        self.bank_row = *bank_row;
        self.bank_timer = *bank_timer;
        self.refresh_ctr = *refresh_ctr;
        self.refresh_busy = *refresh_busy;
        self.cfg_trcd = *cfg_trcd;
        self.cfg_tcas = *cfg_tcas;
        self.cfg_trp = *cfg_trp;
        self.cfg_refresh = *cfg_refresh;
        self.guards = *guards;
        self.write_block = *write_block;
    }
}

impl Mcu {
    /// Creates an idle MCU: a copy of that controller's per-process
    /// prototype, so its field names are formatted once.
    pub fn new(id: McuId) -> Self {
        Self::prototype(id).clone()
    }

    fn prototype(id: McuId) -> &'static Mcu {
        static PROTOTYPES: [OnceLock<Mcu>; NUM_MCUS] = [const { OnceLock::new() }; NUM_MCUS];
        PROTOTYPES[id.index()].get_or_init(|| Self::build(id))
    }

    fn build(id: McuId) -> Self {
        use core::array::from_fn;
        let mut b = FlopSpaceBuilder::new(format!("mcu{}", id.index()));

        let rq: [RqSlot; RQ_DEPTH] = from_fn(|i| {
            let start = b.declared_bits() + 1;
            let valid = b.field(format!("rq[{i}].valid"), 1, FlopClass::Target);
            let is_wb = b.field(format!("rq[{i}].is_wb"), 1, FlopClass::Target);
            let tag = b.field(format!("rq[{i}].tag"), TAG_BITS, FlopClass::Target);
            let src_bank = b.field(
                format!("rq[{i}].src_bank"),
                SRC_BANK_BITS,
                FlopClass::Target,
            );
            let line = b.field(format!("rq[{i}].line"), LINE_BITS, FlopClass::Target);
            let wdb_idx = b.field(format!("rq[{i}].wdb_idx"), 2, FlopClass::Target);
            let guard = Guard {
                valid,
                start,
                end: b.declared_bits(),
            };
            RqSlot {
                valid,
                is_wb,
                tag,
                src_bank,
                line,
                wdb_idx,
                guard,
            }
        });
        let rq_count = b.field("rq.count", 4, FlopClass::Target);

        let wdb: [WdbSlot; WDB_DEPTH] = from_fn(|i| {
            let start = b.declared_bits() + 1;
            let valid = b.field(format!("wdb[{i}].valid"), 1, FlopClass::Target);
            let words = from_fn(|w| b.field(format!("wdb[{i}].w{w}"), 64, FlopClass::Target));
            let guard = Guard {
                valid,
                start,
                end: b.declared_bits(),
            };
            WdbSlot {
                valid,
                words,
                guard,
            }
        });

        let retq: [RetSlot; RETQ_DEPTH] = from_fn(|i| {
            let start = b.declared_bits() + 1;
            let valid = b.field(format!("retq[{i}].valid"), 1, FlopClass::Target);
            let tag = b.field(format!("retq[{i}].tag"), TAG_BITS, FlopClass::Target);
            let src_bank = b.field(
                format!("retq[{i}].src_bank"),
                SRC_BANK_BITS,
                FlopClass::Target,
            );
            let line = b.field(format!("retq[{i}].line"), LINE_BITS, FlopClass::Target);
            let is_wb_ack = b.field(format!("retq[{i}].is_wb_ack"), 1, FlopClass::Target);
            let words = from_fn(|w| b.field(format!("retq[{i}].w{w}"), 64, FlopClass::Target));
            let guard = Guard {
                valid,
                start,
                end: b.declared_bits(),
            };
            RetSlot {
                valid,
                tag,
                src_bank,
                line,
                is_wb_ack,
                words,
                guard,
            }
        });
        let retq_count = b.field("retq.count", 3, FlopClass::Target);

        // The bank-FSM next-state logic sits on the scheduler's critical
        // path: timing-critical under QRR (Sec. 6.4; MCU has only a
        // handful of such flops — 0.3% in the paper).
        let bank_state =
            from_fn(|i| b.field(format!("bank[{i}].state"), 1, FlopClass::TimingCritical));
        let bank_row = from_fn(|i| b.field(format!("bank[{i}].row"), 15, FlopClass::Target));
        let bank_timer = from_fn(|i| b.field(format!("bank[{i}].timer"), 6, FlopClass::Target));
        let refresh_ctr = b.field("refresh.ctr", 12, FlopClass::Target);
        let refresh_busy = b.field("refresh.busy", 5, FlopClass::Target);

        let cfg_trcd = b.field("cfg.trcd", 4, FlopClass::Config);
        let cfg_tcas = b.field("cfg.tcas", 4, FlopClass::Config);
        let cfg_trp = b.field("cfg.trp", 4, FlopClass::Config);
        let cfg_refresh = b.field("cfg.refresh_interval", 12, FlopClass::Config);

        // ECC encode/decode pipeline (protected, Table 4: 26.5%).
        // No tick reads these, nor the BIST chain below.
        b.dead_array("ecc.data_pipe", 24, 64, FlopClass::EccProtected);
        b.dead_array("ecc.check_bits", 24, 8, FlopClass::EccProtected);

        // BIST / repair (inactive, Table 4: 7.1%).
        b.dead_array("bist.chain", 8, 64, FlopClass::Inactive);

        let flops = b.build();
        let rq_guards = rq.map(|s| s.guard);
        let retq_guards = retq.map(|s| s.guard);
        assert!(is_packed_queue(&flops, &rq_guards) && is_packed_queue(&flops, &retq_guards));
        let mut guards = (rq_guards.into_iter())
            .chain(wdb.iter().map(|s| s.guard))
            .chain(retq_guards);
        let guards = from_fn(|_| guards.next().expect("NUM_GUARDS counts every entry"));
        let mut m = Mcu {
            id,
            flops,
            rq,
            rq_guards,
            rq_count,
            wdb,
            retq,
            retq_guards,
            retq_count,
            bank_state,
            bank_row,
            bank_timer,
            refresh_ctr,
            refresh_busy,
            cfg_trcd,
            cfg_tcas,
            cfg_trp,
            cfg_refresh,
            guards,
            write_block: false,
        };
        m.flops.write(m.cfg_trcd, timing::T_RCD);
        m.flops.write(m.cfg_tcas, timing::T_CAS);
        m.flops.write(m.cfg_trp, timing::T_RP);
        m.flops.write(m.cfg_refresh, timing::REFRESH_INTERVAL);
        m
    }

    /// Which MCU of the SoC this is.
    pub fn id(&self) -> McuId {
        self.id
    }

    /// Returns `true` if the L2 banks served by this MCU include `bank`.
    pub fn serves(&self, bank: BankId) -> bool {
        bank.index() / 2 == self.id.index()
    }

    /// True if the request queue can accept a command this cycle
    /// (writebacks additionally need a write-data-buffer slot).
    pub fn ready(&self, is_writeback: bool) -> bool {
        let rq_ok = (self.flops.read(self.rq_count) as usize) < RQ_DEPTH;
        if !is_writeback {
            return rq_ok;
        }
        rq_ok && self.wdb.iter().any(|w| !self.flops.read_bool(w.valid))
    }

    /// True if no queued or in-flight work remains.
    pub fn idle(&self) -> bool {
        self.flops.read(self.rq_count) == 0 && self.flops.read(self.retq_count) == 0
    }

    /// Current request-queue occupancy (sampled by campaign telemetry).
    pub fn rq_occupancy(&self) -> usize {
        self.flops.read(self.rq_count) as usize
    }

    /// Current return-queue occupancy (sampled by campaign telemetry).
    pub fn retq_occupancy(&self) -> usize {
        self.flops.read(self.retq_count) as usize
    }

    /// Engages or releases the QRR write-disable (Sec. 6.2).
    pub fn set_write_block(&mut self, block: bool) {
        self.write_block = block;
    }

    /// QRR recovery reset (configuration timing parameters survive).
    pub fn reset_for_replay(&mut self) {
        self.flops.reset_except_config();
        self.write_block = false;
    }

    fn dram_bank_of(line: LineAddr) -> usize {
        ((line.raw() / NUM_L2_BANKS as u64) % DRAM_BANKS as u64) as usize
    }

    fn row_of(line: LineAddr) -> u64 {
        (line.raw() >> 6) & 0x7fff
    }

    /// Advances the controller by one cycle, reading/writing DRAM
    /// contents through `mem`.
    pub fn tick(&mut self, inp: &McuInputs, mem: &mut dyn LineBackend) -> McuOutputs {
        let mut out = McuOutputs::default();

        // ── Return-queue head → response ────────────────────────────
        if !self.write_block {
            let count = self.flops.read(self.retq_count) as usize;
            if count > 0 {
                let slot = self.retq[0];
                if self.flops.read_bool(slot.valid) {
                    out.resp = Some(DramResp {
                        tag: self.flops.read(slot.tag) as u32,
                        bank: BankId::new(self.flops.read(slot.src_bank) as usize % 8),
                        line: LineAddr::new(self.flops.read(slot.line)),
                        data: core::array::from_fn(|i| self.flops.read(slot.words[i])),
                        is_writeback_ack: self.flops.read_bool(slot.is_wb_ack),
                    });
                }
                shift_queue_down(&mut self.flops, &self.retq_guards);
                self.flops.write(self.retq_count, (count - 1) as u64);
            }
        }

        // ── Refresh engine ───────────────────────────────────────────
        let busy = self.flops.read(self.refresh_busy);
        if busy > 0 {
            self.flops.write(self.refresh_busy, busy - 1);
        } else {
            let ctr = self.flops.read(self.refresh_ctr) + 1;
            let interval = self.flops.read(self.cfg_refresh).max(16);
            if ctr >= interval {
                self.flops.write(self.refresh_ctr, 0);
                self.flops.write(self.refresh_busy, timing::REFRESH_BUSY);
            } else {
                self.flops.write(self.refresh_ctr, ctr);
            }
        }

        // ── Per-bank timers tick down ────────────────────────────────
        for &t in &self.bank_timer {
            let v = self.flops.read(t);
            if v > 0 {
                self.flops.write(t, v - 1);
            }
        }

        // ── Scheduler: bank-parallel, per-bank order preserved ───────
        // The command bus issues at most one row command (activate or
        // precharge) and one column access (data transfer) per cycle,
        // but different DRAM banks operate concurrently — the oldest
        // ready entry wins, and entries behind an earlier entry for the
        // same bank wait (per-bank, and therefore per-line, ordering).
        if !self.write_block && self.flops.read(self.refresh_busy) == 0 {
            let count = (self.flops.read(self.rq_count) as usize).min(RQ_DEPTH);
            let mut seen_banks: u8 = 0;
            let mut row_cmd_done = false;
            let mut access_done = false;
            let mut remove: Option<usize> = None;
            for idx in 0..count {
                let slot = self.rq[idx];
                if !self.flops.read_bool(slot.valid) {
                    if idx == 0 {
                        // Corrupted FIFO: drop the phantom head entry.
                        remove = Some(0);
                        break;
                    }
                    continue;
                }
                let line = LineAddr::new(self.flops.read(slot.line));
                let dbank = Self::dram_bank_of(line);
                if seen_banks & (1 << dbank) != 0 {
                    continue; // an older entry owns this bank this cycle
                }
                seen_banks |= 1 << dbank;
                if self.flops.read(self.bank_timer[dbank]) > 0 {
                    continue;
                }
                let row = Self::row_of(line);
                let state = self.flops.read(self.bank_state[dbank]);
                let open_row = self.flops.read(self.bank_row[dbank]);
                if state == 0 {
                    if row_cmd_done {
                        continue;
                    }
                    // Activate the row.
                    self.flops.write(self.bank_state[dbank], 1);
                    self.flops.write(self.bank_row[dbank], row);
                    let trcd = self.flops.read(self.cfg_trcd);
                    self.flops.write(self.bank_timer[dbank], trcd);
                    row_cmd_done = true;
                } else if open_row != row {
                    if row_cmd_done {
                        continue;
                    }
                    // Row conflict: precharge, then re-activate.
                    self.flops.write(self.bank_state[dbank], 0);
                    let trp = self.flops.read(self.cfg_trp);
                    self.flops.write(self.bank_timer[dbank], trp);
                    row_cmd_done = true;
                } else if !access_done {
                    // Row hit: perform the column access.
                    let retq_count = self.flops.read(self.retq_count) as usize;
                    if retq_count >= RETQ_DEPTH {
                        continue; // return queue full → retry
                    }
                    let is_wb = self.flops.read_bool(slot.is_wb);
                    let tag = self.flops.read(slot.tag);
                    let src_bank = self.flops.read(slot.src_bank);
                    let data = if is_wb {
                        let wi = self.flops.read(slot.wdb_idx) as usize % WDB_DEPTH;
                        let w = self.wdb[wi];
                        let d: [u64; 8] = core::array::from_fn(|i| self.flops.read(w.words[i]));
                        mem.write_line(line, d);
                        // Self-clearing buffer (see the shifting
                        // queues): freed entries hold no stale bits,
                        // so warm-up converges bitwise.
                        self.flops.write_bool(w.valid, false);
                        self.flops
                            .zero_range(w.guard.start, w.guard.end - w.guard.start);
                        d
                    } else {
                        mem.read_line(line)
                    };
                    // Enqueue the response (shifting queue: pushes
                    // land at entry `count`).
                    let rslot = self.retq[retq_count % RETQ_DEPTH];
                    self.flops.write_bool(rslot.valid, true);
                    self.flops.write(rslot.tag, tag);
                    self.flops.write(rslot.src_bank, src_bank);
                    self.flops.write(rslot.line, line.raw());
                    self.flops.write_bool(rslot.is_wb_ack, is_wb);
                    for (i, &w) in rslot.words.iter().enumerate() {
                        self.flops.write(w, data[i]);
                    }
                    self.flops.write(self.retq_count, (retq_count + 1) as u64);
                    let tcas = self.flops.read(self.cfg_tcas);
                    self.flops.write(self.bank_timer[dbank], tcas);
                    access_done = true;
                    remove = Some(idx);
                }
                if row_cmd_done && access_done {
                    break;
                }
            }
            if let Some(idx) = remove {
                let count = self.flops.read(self.rq_count) as usize;
                crate::fields::collapse_queue_at(&mut self.flops, &self.rq_guards, idx);
                self.flops
                    .write(self.rq_count, (count.saturating_sub(1)) as u64);
            }
        }

        // ── Input acceptance ─────────────────────────────────────────
        if let Some(cmd) = &inp.cmd {
            if !self.write_block {
                let count = self.flops.read(self.rq_count) as usize;
                let is_wb = cmd.kind == DramCmdKind::Writeback;
                let free_wdb = self
                    .wdb
                    .iter()
                    .enumerate()
                    .find(|(_, w)| !self.flops.read_bool(w.valid))
                    .map(|(i, w)| (i, *w));
                if count < RQ_DEPTH && (!is_wb || free_wdb.is_some()) {
                    let slot = self.rq[count % RQ_DEPTH];
                    self.flops.write_bool(slot.valid, true);
                    self.flops.write_bool(slot.is_wb, is_wb);
                    self.flops.write(slot.tag, cmd.tag as u64);
                    self.flops.write(slot.src_bank, cmd.bank.index() as u64);
                    self.flops.write(slot.line, cmd.line.raw());
                    // The whole payload, the buffer index of a read
                    // included: what an invalid slot held never reaches
                    // a valid one (the compare's benign-slot rule).
                    let mut wdb_idx = 0;
                    if is_wb {
                        let (wi, w) = free_wdb.expect("checked above");
                        self.flops.write_bool(w.valid, true);
                        for (k, &h) in w.words.iter().enumerate() {
                            self.flops.write(h, cmd.data[k]);
                        }
                        wdb_idx = wi as u64;
                    }
                    self.flops.write(slot.wdb_idx, wdb_idx);
                    self.flops.write(self.rq_count, (count + 1) as u64);
                    out.accepted = true;
                }
            }
        }

        out
    }
}

impl UncoreRtl for Mcu {
    fn kind(&self) -> ComponentKind {
        ComponentKind::Mcu
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

/// A request-queue entry of a [`McuWarm`], every field masked to its
/// flops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WarmReq {
    is_wb: bool,
    tag: u8,
    src_bank: u8,
    line: u32,
    wdb_idx: u8,
}

/// A return-queue entry of a [`McuWarm`], every field masked to its
/// flops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WarmRet {
    tag: u8,
    src_bank: u8,
    line: u32,
    is_wb_ack: bool,
    words: [u64; 8],
}

/// `v` cut to a `bits`-wide flop field, as a write to the field cuts it.
fn masked(v: u64, bits: usize) -> u64 {
    v & ((1 << bits) - 1)
}

/// The DRAM controller while no bit of it can be wrong: [`Mcu`]'s cycle
/// on plain fields instead of flops.
///
/// Fig. 2 warms the target up (step 4) before the golden snapshot and
/// the flip (step 5), so no flop can hold an error yet, and the flops of
/// a fault-free controller are a function of the entries under the two
/// queue counts, the valid write-data-buffer slots and the bank and
/// refresh fields: the queues shift zeros into their tails and a freed
/// buffer slot is cleared, so every other target flop is zero, and the
/// configuration is constant. `McuWarm` keeps exactly those, masked to
/// their flop widths, and runs the same refresh engine, timers and
/// scheduler on them; [`into_mcu`](Self::into_mcu) writes them into
/// flops. It owns nothing on the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McuWarm {
    id: McuId,
    rq: [WarmReq; RQ_DEPTH],
    rq_count: usize,
    /// Bit `i`: write-data-buffer slot `i` holds a payload.
    wdb_valid: u8,
    wdb: [[u64; 8]; WDB_DEPTH],
    retq: [WarmRet; RETQ_DEPTH],
    retq_count: usize,
    /// Bit `i`: DRAM bank `i` has a row open.
    bank_open: u8,
    bank_row: [u64; DRAM_BANKS],
    bank_timer: [u64; DRAM_BANKS],
    refresh_ctr: u64,
    refresh_busy: u64,
}

impl McuWarm {
    /// An idle controller, as [`Mcu::new`] is.
    pub fn new(id: McuId) -> Self {
        McuWarm {
            id,
            rq: [WarmReq::default(); RQ_DEPTH],
            rq_count: 0,
            wdb_valid: 0,
            wdb: [[0; 8]; WDB_DEPTH],
            retq: [WarmRet::default(); RETQ_DEPTH],
            retq_count: 0,
            bank_open: 0,
            bank_row: [0; DRAM_BANKS],
            bank_timer: [0; DRAM_BANKS],
            refresh_ctr: 0,
            refresh_busy: 0,
        }
    }

    /// [`Mcu::id`].
    pub fn id(&self) -> McuId {
        self.id
    }

    /// [`Mcu::ready`].
    #[inline]
    pub fn ready(&self, is_writeback: bool) -> bool {
        self.rq_count < RQ_DEPTH && (!is_writeback || self.free_wdb().is_some())
    }

    /// [`Mcu::idle`].
    pub fn idle(&self) -> bool {
        self.rq_count == 0 && self.retq_count == 0
    }

    /// [`Mcu::rq_occupancy`].
    pub fn rq_occupancy(&self) -> usize {
        self.rq_count
    }

    /// [`Mcu::retq_occupancy`].
    pub fn retq_occupancy(&self) -> usize {
        self.retq_count
    }

    /// The lowest free write-data-buffer slot, which [`Mcu::tick`] fills.
    fn free_wdb(&self) -> Option<usize> {
        let slot = self.wdb_valid.trailing_ones() as usize;
        (slot < WDB_DEPTH).then_some(slot)
    }

    /// [`Mcu::tick`]: the same response, refresh, timers, scheduler and
    /// acceptance, in the same order, with the same outputs and the same
    /// DRAM reads and writes.
    pub fn tick(&mut self, inp: &McuInputs, mem: &mut dyn LineBackend) -> McuOutputs {
        let mut out = McuOutputs::default();

        if self.retq_count > 0 {
            let r = self.retq[0];
            out.resp = Some(DramResp {
                tag: r.tag.into(),
                bank: BankId::new(usize::from(r.src_bank) % 8),
                line: LineAddr::new(r.line.into()),
                data: r.words,
                is_writeback_ack: r.is_wb_ack,
            });
            self.retq.copy_within(1.., 0);
            self.retq[RETQ_DEPTH - 1] = WarmRet::default();
            self.retq_count -= 1;
        }

        if self.refresh_busy > 0 {
            self.refresh_busy -= 1;
        } else {
            self.refresh_ctr += 1;
            if self.refresh_ctr >= timing::REFRESH_INTERVAL.max(16) {
                self.refresh_ctr = 0;
                self.refresh_busy = timing::REFRESH_BUSY;
            }
        }

        for t in &mut self.bank_timer {
            *t = t.saturating_sub(1);
        }

        if self.refresh_busy == 0 {
            self.schedule(mem);
        }

        if let Some(cmd) = &inp.cmd {
            let is_wb = cmd.kind == DramCmdKind::Writeback;
            if self.ready(is_wb) {
                let mut req = WarmReq {
                    is_wb,
                    tag: masked(cmd.tag.into(), TAG_BITS) as u8,
                    src_bank: masked(cmd.bank.index() as u64, SRC_BANK_BITS) as u8,
                    line: masked(cmd.line.raw(), LINE_BITS) as u32,
                    wdb_idx: 0,
                };
                if is_wb {
                    let wi = self.free_wdb().expect("ready found a free slot");
                    self.wdb_valid |= 1 << wi;
                    self.wdb[wi] = cmd.data;
                    req.wdb_idx = wi as u8;
                }
                self.rq[self.rq_count] = req;
                self.rq_count += 1;
                out.accepted = true;
            }
        }

        out
    }

    /// [`Mcu::tick`]'s scheduler: the oldest ready entry per DRAM bank,
    /// at most one row command and one column access this cycle.
    fn schedule(&mut self, mem: &mut dyn LineBackend) {
        let mut seen_banks: u8 = 0;
        let mut row_cmd_done = false;
        let mut access_done = false;
        let mut remove = None;
        for idx in 0..self.rq_count {
            let req = self.rq[idx];
            let line = LineAddr::new(req.line.into());
            let dbank = Mcu::dram_bank_of(line);
            if seen_banks & (1 << dbank) != 0 {
                continue;
            }
            seen_banks |= 1 << dbank;
            if self.bank_timer[dbank] > 0 {
                continue;
            }
            let row = Mcu::row_of(line);
            if self.bank_open & (1 << dbank) == 0 {
                if row_cmd_done {
                    continue;
                }
                self.bank_open |= 1 << dbank;
                self.bank_row[dbank] = row;
                self.bank_timer[dbank] = timing::T_RCD;
                row_cmd_done = true;
            } else if self.bank_row[dbank] != row {
                if row_cmd_done {
                    continue;
                }
                self.bank_open &= !(1 << dbank);
                self.bank_timer[dbank] = timing::T_RP;
                row_cmd_done = true;
            } else if !access_done {
                if self.retq_count >= RETQ_DEPTH {
                    continue;
                }
                let words = if req.is_wb {
                    let wi = usize::from(req.wdb_idx) % WDB_DEPTH;
                    let d = std::mem::take(&mut self.wdb[wi]);
                    self.wdb_valid &= !(1 << wi);
                    mem.write_line(line, d);
                    d
                } else {
                    mem.read_line(line)
                };
                self.retq[self.retq_count] = WarmRet {
                    tag: req.tag,
                    src_bank: req.src_bank,
                    line: req.line,
                    is_wb_ack: req.is_wb,
                    words,
                };
                self.retq_count += 1;
                self.bank_timer[dbank] = timing::T_CAS;
                access_done = true;
                remove = Some(idx);
            }
            if row_cmd_done && access_done {
                break;
            }
        }
        if let Some(idx) = remove {
            self.rq.copy_within(idx + 1.., idx);
            self.rq[RQ_DEPTH - 1] = WarmReq::default();
            self.rq_count -= 1;
        }
    }

    /// The flop-level controller holding this state: queue entries,
    /// buffer slots, bank and refresh fields written into
    /// [`Mcu::new`]`(id)`. Its flops are marked changed, as every model
    /// converted into flops is.
    pub fn into_mcu(self) -> Mcu {
        let mut m = Mcu::new(self.id);
        self.store(&mut m);
        m
    }

    /// [`into_mcu`](Self::into_mcu) into `m`, a controller an earlier
    /// run held, which it overwrites: the idle controller is copied into
    /// the bits `m` holds.
    pub fn write_into(&self, m: &mut Mcu) {
        m.clone_from(Mcu::prototype(self.id));
        self.store(m);
    }

    /// Writes the entries, slots, bank and refresh fields into `m`, an
    /// idle controller, and marks its flops changed.
    fn store(&self, m: &mut Mcu) {
        let f = &mut m.flops;
        for (r, slot) in self.rq[..self.rq_count].iter().zip(&m.rq) {
            f.write_bool(slot.valid, true);
            f.write_bool(slot.is_wb, r.is_wb);
            f.write(slot.tag, r.tag.into());
            f.write(slot.src_bank, r.src_bank.into());
            f.write(slot.line, r.line.into());
            f.write(slot.wdb_idx, r.wdb_idx.into());
        }
        f.write(m.rq_count, self.rq_count as u64);
        for (i, (words, slot)) in self.wdb.iter().zip(&m.wdb).enumerate() {
            if self.wdb_valid & (1 << i) != 0 {
                f.write_bool(slot.valid, true);
                for (&h, &w) in slot.words.iter().zip(words) {
                    f.write(h, w);
                }
            }
        }
        for (r, slot) in self.retq[..self.retq_count].iter().zip(&m.retq) {
            f.write_bool(slot.valid, true);
            f.write(slot.tag, r.tag.into());
            f.write(slot.src_bank, r.src_bank.into());
            f.write(slot.line, r.line.into());
            f.write_bool(slot.is_wb_ack, r.is_wb_ack);
            for (&h, &w) in slot.words.iter().zip(&r.words) {
                f.write(h, w);
            }
        }
        f.write(m.retq_count, self.retq_count as u64);
        for i in 0..DRAM_BANKS {
            f.write_bool(m.bank_state[i], self.bank_open & (1 << i) != 0);
            f.write(m.bank_row[i], self.bank_row[i]);
            f.write(m.bank_timer[i], self.bank_timer[i]);
        }
        f.write(m.refresh_ctr, self.refresh_ctr);
        f.write(m.refresh_busy, self.refresh_busy);
        f.mark_changed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_arch::DramContents;
    use nestsim_proto::addr::PAddr;

    impl Mcu {
        /// The collapsing queues, for `fields::tests`.
        pub(crate) fn queues(&self) -> Vec<(&'static str, Vec<Guard>)> {
            vec![
                ("mcu.rq", self.rq_guards.to_vec()),
                ("mcu.retq", self.retq_guards.to_vec()),
            ]
        }
    }

    fn fill_cmd(tag: u32, line: u64) -> DramCmd {
        DramCmd::fill(tag, BankId::new(0), LineAddr::new(line))
    }

    fn run(mcu: &mut Mcu, mem: &mut DramContents, cycles: usize) -> Vec<DramResp> {
        let mut resps = Vec::new();
        for _ in 0..cycles {
            let out = mcu.tick(&McuInputs::default(), mem);
            resps.extend(out.resp);
        }
        resps
    }

    #[test]
    fn fill_returns_memory_contents() {
        let mut mem = DramContents::new();
        mem.write_word(PAddr::new(0x40 * 8), 77); // line 8, word 0
        let mut mcu = Mcu::new(McuId::new(0));
        let out = mcu.tick(
            &McuInputs {
                cmd: Some(fill_cmd(3, 8)),
            },
            &mut mem,
        );
        assert!(out.accepted);
        let resps = run(&mut mcu, &mut mem, 30);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].tag, 3);
        assert_eq!(resps[0].data[0], 77);
        assert!(!resps[0].is_writeback_ack);
    }

    #[test]
    fn writeback_commits_and_acks() {
        let mut mem = DramContents::new();
        let mut mcu = Mcu::new(McuId::new(0));
        let data = [9u64; 8];
        mcu.tick(
            &McuInputs {
                cmd: Some(DramCmd::writeback(
                    7,
                    BankId::new(1),
                    LineAddr::new(16),
                    data,
                )),
            },
            &mut mem,
        );
        let resps = run(&mut mcu, &mut mem, 30);
        assert_eq!(resps.len(), 1);
        assert!(resps[0].is_writeback_ack);
        assert_eq!(mem.read_line(LineAddr::new(16)), data);
    }

    #[test]
    fn row_hit_is_faster_than_row_conflict() {
        let mut mem = DramContents::new();
        let mut mcu = Mcu::new(McuId::new(0));
        // Two lines in the same DRAM bank & row vs different rows.
        mcu.tick(
            &McuInputs {
                cmd: Some(fill_cmd(0, 0)),
            },
            &mut mem,
        );
        let t1 = run(&mut mcu, &mut mem, 40).len();
        assert_eq!(t1, 1);
        // Same row → no activate needed.
        let mut fast = 0;
        mcu.tick(
            &McuInputs {
                cmd: Some(fill_cmd(1, 0)),
            },
            &mut mem,
        );
        for c in 0..40 {
            if mcu.tick(&McuInputs::default(), &mut mem).resp.is_some() {
                fast = c;
                break;
            }
        }
        assert!(fast <= timing::T_CAS as usize + 2, "row hit took {fast}");
    }

    #[test]
    fn refresh_blocks_scheduling_periodically() {
        let mut mem = DramContents::new();
        let mut mcu = Mcu::new(McuId::new(0));
        // Advance past a refresh interval.
        run(&mut mcu, &mut mem, timing::REFRESH_INTERVAL as usize + 2);
        assert!(mcu.flops.read(mcu.refresh_busy) > 0);
    }

    #[test]
    fn corrupted_line_field_writes_wrong_location() {
        let mut mem = DramContents::new();
        let mut mcu = Mcu::new(McuId::new(0));
        let data = [5u64; 8];
        mcu.tick(
            &McuInputs {
                cmd: Some(DramCmd::writeback(
                    1,
                    BankId::new(0),
                    LineAddr::new(32),
                    data,
                )),
            },
            &mut mem,
        );
        // Flip a line-address bit of the queued request.
        let bit = mcu
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "rq[0].line")
            .map(|f| f.offset + 7)
            .unwrap();
        mcu.flops_mut().flip(bit);
        run(&mut mcu, &mut mem, 40);
        // The intended line is untouched; some other line got the data.
        assert_eq!(mem.read_line(LineAddr::new(32)), [0; 8]);
        assert_eq!(mem.read_line(LineAddr::new(32 + 128)), data);
    }

    #[test]
    fn corrupted_valid_drops_command() {
        let mut mem = DramContents::new();
        let mut mcu = Mcu::new(McuId::new(0));
        mcu.tick(
            &McuInputs {
                cmd: Some(fill_cmd(0, 8)),
            },
            &mut mem,
        );
        let bit = mcu
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "rq[0].valid")
            .map(|f| f.offset)
            .unwrap();
        mcu.flops_mut().flip(bit);
        let resps = run(&mut mcu, &mut mem, 60);
        assert!(resps.is_empty(), "dropped command must never answer");
    }

    #[test]
    fn golden_lockstep_without_errors() {
        let mut mem_t = DramContents::new();
        let mut mem_g = DramContents::new();
        mem_t.write_word(PAddr::new(0), 1);
        mem_g.write_word(PAddr::new(0), 1);
        let mut t = Mcu::new(McuId::new(1));
        let mut g = t.clone();
        for cyc in 0..200u64 {
            let cmd = if cyc % 17 == 0 {
                Some(fill_cmd((cyc / 17) as u32, (cyc % 64) * 8))
            } else {
                None
            };
            let ot = t.tick(&McuInputs { cmd: cmd.clone() }, &mut mem_t);
            let og = g.tick(&McuInputs { cmd }, &mut mem_g);
            assert_eq!(ot, og, "diverged at cycle {cyc}");
        }
        assert_eq!(t.flops().diff_count(g.flops()), 0);
    }

    #[test]
    fn reset_preserves_timing_config() {
        let mut mcu = Mcu::new(McuId::new(2));
        mcu.reset_for_replay();
        assert_eq!(mcu.flops.read(mcu.cfg_trcd), timing::T_RCD);
        assert_eq!(mcu.flops.read(mcu.cfg_refresh), timing::REFRESH_INTERVAL);
        assert!(mcu.idle());
    }

    #[test]
    fn ready_accounts_for_wdb_space() {
        let mut mem = DramContents::new();
        let mut mcu = Mcu::new(McuId::new(0));
        mcu.set_write_block(true); // prevent draining
        for i in 0..WDB_DEPTH as u64 {
            mcu.set_write_block(false);
            mcu.tick(
                &McuInputs {
                    cmd: Some(DramCmd::writeback(
                        i as u32,
                        BankId::new(0),
                        LineAddr::new(i * 8),
                        [1; 8],
                    )),
                },
                &mut mem,
            );
            mcu.set_write_block(true);
        }
        assert!(!mcu.ready(true), "wdb exhausted");
        assert!(mcu.ready(false), "plain fills still accepted");
    }

    #[test]
    fn different_dram_banks_are_served_in_parallel() {
        // Two fills to different internal banks overlap their row
        // activations; two to different rows of the same bank serialise
        // through a precharge. Lines 8 and 16 differ in dram bank
        // ((line/8) % 8); lines 8 and 8+64*8 share a bank, differ in row.
        let time_two = |l1: u64, l2: u64| {
            let mut mem = DramContents::new();
            let mut mcu = Mcu::new(McuId::new(0));
            mcu.tick(
                &McuInputs {
                    cmd: Some(fill_cmd(0, l1)),
                },
                &mut mem,
            );
            mcu.tick(
                &McuInputs {
                    cmd: Some(fill_cmd(1, l2)),
                },
                &mut mem,
            );
            let mut got = 0;
            for c in 0..200 {
                if mcu.tick(&McuInputs::default(), &mut mem).resp.is_some() {
                    got += 1;
                    if got == 2 {
                        return c;
                    }
                }
            }
            panic!("fills never completed");
        };
        let parallel = time_two(8, 16); // different banks
        let conflict = time_two(8, 8 + 64 * 512); // same bank, rows differ
        assert!(
            parallel < conflict,
            "bank parallelism must help: {parallel} vs {conflict}"
        );
    }

    #[test]
    fn same_line_commands_complete_in_order() {
        // A writeback followed by a fill of the same line must return
        // the written data (per-bank, hence per-line, ordering).
        let mut mem = DramContents::new();
        let mut mcu = Mcu::new(McuId::new(0));
        let data = [0xabu64; 8];
        mcu.tick(
            &McuInputs {
                cmd: Some(DramCmd::writeback(
                    9,
                    BankId::new(0),
                    LineAddr::new(24),
                    data,
                )),
            },
            &mut mem,
        );
        mcu.tick(
            &McuInputs {
                cmd: Some(fill_cmd(10, 24)),
            },
            &mut mem,
        );
        let mut responses = Vec::new();
        for _ in 0..200 {
            if let Some(r) = mcu.tick(&McuInputs::default(), &mut mem).resp {
                responses.push(r);
            }
            if responses.len() == 2 {
                break;
            }
        }
        assert_eq!(responses.len(), 2);
        assert!(responses[0].is_writeback_ack, "writeback first");
        assert_eq!(responses[1].tag, 10);
        assert_eq!(responses[1].data, data, "fill sees the written data");
    }

    #[test]
    fn flop_layout_is_pinned() {
        // Global bit indices are sample identities and the guard spans
        // decide what a benign diff is (see the L2C twin of this test).
        // Spelled out here, not derived from `Mcu::new`.
        use FlopClass::{Config, EccProtected, Inactive, Target, TimingCritical};
        type Want = Vec<(String, usize, FlopClass)>;
        fn bits(want: &Want) -> usize {
            want.iter().map(|(_, width, _)| width).sum()
        }
        /// Declares one guarded entry — its leaves, then `words` 64-bit
        /// words — and notes its span: from the bit after its leading
        /// valid bit to the end of what it declared.
        fn guarded(
            want: &mut Want,
            spans: &mut Vec<(usize, usize)>,
            prefix: &str,
            leaves: &[(&str, usize)],
            words: usize,
        ) {
            let start = bits(want) + 1;
            want.extend(
                leaves
                    .iter()
                    .map(|(l, w)| (format!("{prefix}.{l}"), *w, Target)),
            );
            want.extend((0..words).map(|w| (format!("{prefix}.w{w}"), 64, Target)));
            spans.push((start, bits(want)));
        }
        let mut want: Want = Vec::new();
        // Spans in `guards` order.
        let mut spans = Vec::new();
        for i in 0..RQ_DEPTH {
            let leaves = [
                ("valid", 1),
                ("is_wb", 1),
                ("tag", 8),
                ("src_bank", 3),
                ("line", 28),
                ("wdb_idx", 2),
            ];
            guarded(&mut want, &mut spans, &format!("rq[{i}]"), &leaves, 0);
        }
        want.push(("rq.count".into(), 4, Target));
        for i in 0..WDB_DEPTH {
            guarded(
                &mut want,
                &mut spans,
                &format!("wdb[{i}]"),
                &[("valid", 1)],
                8,
            );
        }
        for i in 0..RETQ_DEPTH {
            let leaves = [
                ("valid", 1),
                ("tag", 8),
                ("src_bank", 3),
                ("line", 28),
                ("is_wb_ack", 1),
            ];
            guarded(&mut want, &mut spans, &format!("retq[{i}]"), &leaves, 8);
        }
        want.push(("retq.count".into(), 3, Target));
        want.extend((0..DRAM_BANKS).map(|i| (format!("bank[{i}].state"), 1, TimingCritical)));
        want.extend((0..DRAM_BANKS).map(|i| (format!("bank[{i}].row"), 15, Target)));
        want.extend((0..DRAM_BANKS).map(|i| (format!("bank[{i}].timer"), 6, Target)));
        want.push(("refresh.ctr".into(), 12, Target));
        want.push(("refresh.busy".into(), 5, Target));
        want.push(("cfg.trcd".into(), 4, Config));
        want.push(("cfg.tcas".into(), 4, Config));
        want.push(("cfg.trp".into(), 4, Config));
        want.push(("cfg.refresh_interval".into(), 12, Config));
        want.extend((0..24).map(|i| (format!("ecc.data_pipe[{i}]"), 64, EccProtected)));
        want.extend((0..24).map(|i| (format!("ecc.check_bits[{i}]"), 8, EccProtected)));
        want.extend((0..8).map(|i| (format!("bist.chain[{i}]"), 64, Inactive)));

        let m = Mcu::new(McuId::new(0));
        let fields = m.flops().fields();
        assert_eq!(fields.len(), 224);
        assert_eq!(m.flops().num_flops(), 7_072);
        assert_eq!(fields.len(), want.len());
        let mut offset = 0;
        for (f, (name, width, class)) in fields.iter().zip(&want) {
            assert_eq!(
                (&f.name, f.width, f.offset, f.class),
                (name, *width, offset, *class)
            );
            offset += width;
        }
        let got: Vec<(usize, usize)> = m.guards.iter().map(|g| (g.start, g.end)).collect();
        assert_eq!(got, spans);
        for (g, (start, _)) in m.guards.iter().zip(&spans) {
            let valid = m.flops().fields()[g.valid.index()].offset;
            assert_eq!(valid + 1, *start, "each guard starts after its valid bit");
        }
        assert_eq!(m.rq_guards[..], m.guards[..RQ_DEPTH]);
        assert_eq!(m.retq_guards[..], m.guards[RQ_DEPTH + WDB_DEPTH..]);
    }

    #[test]
    fn warm_matches_flops_in_lockstep() {
        // Differential oracle of the warm-up model: the same fault-free
        // commands drive `McuWarm` and `Mcu` on every controller. Every
        // cycle their outputs and readiness agree; every ~100 cycles the
        // plain fields converted to flops are the flop controller bit
        // for bit. Lines crowd two rows of two DRAM banks (row conflicts),
        // bursts fill the queues, and some lines carry bits above the
        // 28 the flops keep. Coverage is counted out here, where
        // shrinking cannot trip on it.
        use nestsim_harness::{check_with, Config};
        use std::cell::Cell;

        const CYCLES: u64 = 30_000;
        let precharges = Cell::new(0u64);
        let rq_full = Cell::new(0u64);
        let wdb_full = Cell::new(0u64);
        let refused = Cell::new(0u64);
        let wide_lines = Cell::new(0u64);
        let bump = |c: &Cell<u64>| c.set(c.get() + 1);

        check_with(
            Config::with_cases(4),
            "warm_matches_flops_in_lockstep",
            |src| {
                let id = McuId::new(src.below(NUM_MCUS as u64) as usize);
                let mut warm = McuWarm::new(id);
                let mut flops = Mcu::new(id);
                let (mut mem_w, mut mem_f) = (DramContents::new(), DramContents::new());
                let mut load = 0;
                for cyc in 0..CYCLES {
                    if cyc % 200 == 0 {
                        // Offered load in sixteenths, with silent
                        // stretches so the queues drain.
                        load = if src.below(4) == 0 {
                            0
                        } else {
                            src.below(16) + 1
                        };
                    }
                    let cmd = (src.below(16) < load).then(|| {
                        let x = src.u64();
                        // DRAM banks 0-3, row 0 or 3, any column.
                        let dbank = x & 3;
                        let row = 3 * ((x >> 13) & 1);
                        let mut line = row << 6 | dbank << 3 | (x >> 2) & 7;
                        if (x >> 5) & 15 == 0 {
                            line |= 1 << (28 + (x >> 9) % 6);
                            bump(&wide_lines);
                        }
                        let (tag, bank) = ((x >> 16) as u32, BankId::new((x >> 48) as usize % 8));
                        if (x >> 12) & 1 == 0 {
                            DramCmd::fill(tag, bank, LineAddr::new(line))
                        } else {
                            DramCmd::writeback(
                                tag,
                                bank,
                                LineAddr::new(line),
                                [x, cyc, !x, 0, 1, 2, 3, 4],
                            )
                        }
                    });
                    if !flops.ready(false) {
                        bump(&rq_full);
                    } else if !flops.ready(true) {
                        bump(&wdb_full);
                    }
                    let open = warm.bank_open;
                    let inp = McuInputs { cmd };
                    let got = warm.tick(&inp, &mut mem_w);
                    let want = flops.tick(&inp, &mut mem_f);
                    assert_eq!(got, want, "outputs diverged in cycle {cyc}");
                    if inp.cmd.is_some() && !got.accepted {
                        bump(&refused);
                    }
                    if open & !warm.bank_open != 0 {
                        bump(&precharges);
                    }
                    for wb in [false, true] {
                        assert_eq!(
                            warm.ready(wb),
                            flops.ready(wb),
                            "ready({wb}) in cycle {cyc}"
                        );
                    }
                    assert_eq!(warm.idle(), flops.idle(), "idle in cycle {cyc}");
                    assert_eq!(warm.rq_occupancy(), flops.rq_occupancy());
                    assert_eq!(warm.retq_occupancy(), flops.retq_occupancy());
                    if src.below(100) == 0 {
                        let converted = warm.clone().into_mcu();
                        assert!(
                            converted.flops.changed(),
                            "conversion left the flops unmarked"
                        );
                        let diff = converted.flops.diff_count(&flops.flops);
                        assert_eq!(diff, 0, "flops diverged in cycle {cyc}");
                    }
                }
                assert_eq!(mem_w, mem_f, "memory diverged");
            },
        );

        for (what, hits) in [
            ("precharges on a row conflict", precharges.get()),
            ("cycles with a full request queue", rq_full.get()),
            ("cycles with a full write-data buffer", wdb_full.get()),
            ("commands refused", refused.get()),
            ("lines wider than the flops", wide_lines.get()),
        ] {
            println!("{what}: {hits}");
            assert!(hits > 0, "the traffic never produced {what}");
        }
    }

    #[test]
    fn serves_paired_banks() {
        let m = Mcu::new(McuId::new(1));
        assert!(m.serves(BankId::new(2)));
        assert!(m.serves(BankId::new(3)));
        assert!(!m.serves(BankId::new(4)));
    }
}
