//! Co-simulation drivers: one per uncore component kind.
//!
//! A driver owns the [`System`] (accelerated simulator) plus the target
//! RTL component and its golden copy, and advances all of them one
//! cycle at a time, ferrying packets across the simulator boundary
//! (Fig. 1b ② of the paper). The golden copy receives exactly the same
//! inputs as the target but is never injected (Fig. 1b ⑤); divergence
//! of its outputs from the target's is the paper's erroneous-return-
//! packet monitor (Fig. 1b ⑥).
//!
//! Authority: the *target* is the real component — its outputs drive
//! the system, its memory writes land in system memory (through a
//! per-driver overlay that is applied at detach, so golden-side reads
//! stay isolated during co-simulation).

use std::collections::VecDeque;

use nestsim_arch::{DramContents, DramOverlay, LineBackend, OverlayBackend};
use nestsim_hlsim::{InterceptMode, OutMsg, System};
use nestsim_models::ccx::{CcxInputs, CcxOutputs, CcxWarm};
use nestsim_models::l2c::{L2cInputs, L2cOutputs, L2cWarm};
use nestsim_models::mcu::{McuInputs, McuOutputs, McuWarm};
use nestsim_models::pcie::PcieArchState;
use nestsim_models::{Ccx, L2cBank, Mcu, Pcie, UncoreRtl};
use nestsim_proto::addr::{BankId, LineAddr, McuId, NUM_CORES, NUM_L2_BANKS};
use nestsim_proto::{CpxPacket, DramCmd, DramCmdKind, DramResp, PcxPacket};
use nestsim_rtl::lane_matches_golden;
use nestsim_telemetry::{names, Recorder};

/// DRAM round-trip latency seen by a co-simulated L2 bank.
pub const COSIM_DRAM_LATENCY: u64 = 40;
/// Functional-bank service latency seen by the co-simulated crossbar.
pub const COSIM_BANK_LATENCY: u64 = 15;

/// Result of the end-of-co-simulation comparison (Fig. 2 step 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CosimCheck {
    /// Target and golden are bit-identical (flops, arch state,
    /// in-flight traffic).
    Identical,
    /// Only benign flop differences (invalid-entry payloads) remain.
    BenignOnly,
    /// All remaining differences map to high-level uncore state
    /// (Table 1) — the accelerated mode can take over.
    ArchMappable,
    /// Unmapped microarchitectural state still differs — co-simulation
    /// must continue.
    Microarch,
}

impl CosimCheck {
    /// True when co-simulation may end (Fig. 2 step 7 → "No").
    pub fn exitable(self) -> bool {
        !matches!(self, CosimCheck::Microarch)
    }
}

/// What a driver hands back when co-simulation ends (Fig. 2 step 10).
#[derive(Debug)]
pub struct Detach {
    /// The system, with erroneous architectural state transferred back
    /// and interception removed.
    pub sys: System,
    /// Memory/cache lines whose contents differ from the error-free
    /// run (feeds taint tracking and the Sec. 5 analyses).
    pub corrupted_lines: Vec<LineAddr>,
}

/// Common interface of the four co-simulation drivers.
pub trait CosimDriver: Sized {
    /// Advances system + target (+ golden) by one cycle.
    fn step(&mut self);

    /// Current co-simulation cycle (the system's cycle).
    fn cycle(&self) -> u64;

    /// The system under the driver.
    fn sys(&self) -> &System;

    /// Snapshots the target into the golden copy (done right before
    /// injection, after warm-up).
    fn snapshot_golden(&mut self);

    /// Installs a *cold* golden copy: a freshly reset component carrying
    /// only the transferred architectural state — i.e. exactly the state
    /// a mixed-mode co-simulation entry starts from. Used by the Fig. 5
    /// warm-up-accuracy experiment to compare warm-up against full
    /// co-simulation history.
    fn snapshot_golden_cold(&mut self);

    /// Fraction of flop bits differing between target and golden
    /// (the Fig. 5 microarchitectural-state-difference metric).
    fn mismatch_fraction(&self) -> f64;

    /// True when the target is at a point where a cold (mixed-mode-
    /// entry) snapshot is architecturally aligned. Only the PCIe engine
    /// constrains this (its architectural progress is frame-granular).
    fn at_cold_snapshot_boundary(&self) -> bool {
        true
    }

    /// Flips the target flop at global `bit`.
    fn inject(&mut self, bit: usize);

    /// Compares target vs. golden (Fig. 2 step 7). Only meaningful
    /// after [`snapshot_golden`](CosimDriver::snapshot_golden).
    fn check(&self) -> CosimCheck;

    /// Drops the golden twin. Call only after
    /// [`check`](CosimDriver::check) returned [`CosimCheck::Identical`]
    /// with no [`erroneous_output`](CosimDriver::erroneous_output): the
    /// twin then equals the target in everything `step` reads besides
    /// the inputs they share, so it has no future of its own. From here
    /// on `step` ticks the target only, every `check` is `Identical`,
    /// and `detach` reports no corrupted lines — what the diff of two
    /// equal states reports.
    fn retire_golden(&mut self);

    /// True when no in-flight traffic would be stranded by detaching.
    fn drained(&self) -> bool;

    /// First cycle at which a target output diverged from golden, if
    /// any (the erroneous-return-packet monitor, Fig. 1b ⑥).
    fn erroneous_output(&self) -> Option<u64>;

    /// Ends co-simulation: transfers architectural state back to the
    /// high-level model and releases interception.
    fn detach(self) -> Detach;

    /// The system under the driver, as it stands, with no state
    /// transferred back: for a run that is over and only hands its
    /// storage on to the next restore.
    fn into_sys(self) -> System;

    /// Records the component's queue occupancies into `rec`. Called by
    /// the injection loop at golden-compare points only (never on the
    /// per-cycle path), and only when the recorder is active.
    fn sample_telemetry(&self, rec: &mut Recorder) {
        let _ = rec;
    }
}

// ─────────────────────────── Golden compare ──────────────────────────

/// Fig. 2 step 7 on one target/golden pair: every driver's `check` and
/// every lane of a batch end here. A flop difference outside the benign
/// set is `Microarch`; otherwise `arch_dirty`, the caller's question
/// about the state its model keeps beside the flops, decides
/// `ArchMappable`. A word-parallel compare comes first, so an equal pair
/// skips the per-bit benign scan.
fn verdict<M: UncoreRtl>(target: &M, golden: &M, arch_dirty: impl FnOnce() -> bool) -> CosimCheck {
    let mut benign_seen = false;
    if !lane_matches_golden(golden.flops().raw_bits(), target.flops().raw_bits()) {
        for bit in target.flops().diff_bits(golden.flops()) {
            if target.is_benign_diff(golden, bit) {
                benign_seen = true;
            } else {
                return CosimCheck::Microarch;
            }
        }
    }
    if arch_dirty() {
        CosimCheck::ArchMappable
    } else if benign_seen {
        CosimCheck::BenignOnly
    } else {
        CosimCheck::Identical
    }
}

/// Every driver's `mismatch_fraction`: the share of flop bits in which a
/// target and its golden differ, or 0 while there is no golden.
fn flop_mismatch<M: UncoreRtl>(pair: Option<(&M, &M)>) -> f64 {
    pair.map_or(0.0, |(t, g)| {
        t.flops().diff_count(g.flops()) as f64 / t.flops().num_flops() as f64
    })
}

// ─────────────────────────── Warm-up target ──────────────────────────

/// A fault-free model a target warms up on, and the flop-level model it
/// becomes.
trait IntoFlops {
    type Flops;

    /// The flop-level model holding this state, marked changed.
    fn into_flops(self) -> Self::Flops;
}

impl IntoFlops for CcxWarm {
    type Flops = Ccx;

    fn into_flops(self) -> Ccx {
        self.into_ccx()
    }
}

impl IntoFlops for L2cWarm {
    type Flops = L2cBank;

    fn into_flops(self) -> L2cBank {
        self.into_l2c()
    }
}

impl IntoFlops for McuWarm {
    type Flops = Mcu;

    fn into_flops(self) -> Mcu {
        self.into_mcu()
    }
}

#[cfg(test)]
thread_local! {
    /// Targets converted from their fault-free model to flops on this
    /// thread.
    pub(crate) static CONVERSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The component a driver co-simulates: the fault-free model `W` through
/// the warm-up, its flops from the first call that needs them on.
///
/// Until the golden snapshot and the flip (Fig. 2 step 5) no flop can be
/// wrong, so the warm-up (step 4) runs on `W`, which gives the same
/// cycles at a fraction of the cost; [`flops`](Self::flops) then turns
/// it into the flops the flop-level warm-up would have left. A crossbar
/// or a DRAM controller whose golden retired is fault-free again and
/// goes back to `W`. An L2 bank's golden twin and the lanes of a batch
/// are forked from a target on flops, so they hold flops from the start.
// `Flops` holds the component's handle tables inline, as the drivers
// did before; a box would be one more allocation per conversion.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Target<W: IntoFlops> {
    /// The fault-free model: packets (CCX), slot images (L2C) or plain
    /// fields (MCU).
    Warm(W),
    Flops(W::Flops),
    /// Only inside [`flops`](Self::flops), between taking the fault-free
    /// model and storing what it became.
    Converting,
}

impl<W: IntoFlops> Target<W> {
    /// The flop-level model, converted from the fault-free one in place
    /// the first time it is asked for.
    fn flops(&mut self) -> &mut W::Flops {
        if let Target::Warm(_) = self {
            let Target::Warm(warm) = std::mem::replace(self, Target::Converting) else {
                unreachable!("matched above")
            };
            *self = Target::Flops(warm.into_flops());
            #[cfg(test)]
            CONVERSIONS.with(|n| n.set(n.get() + 1));
        }
        match self {
            Target::Flops(x) => x,
            _ => unreachable!("converted above"),
        }
    }

    /// The flop-level model, if the target holds flops.
    fn as_flops(&self) -> Option<&W::Flops> {
        match self {
            Target::Flops(x) => Some(x),
            _ => None,
        }
    }
}

/// `$body` with `$x` bound to the model a [`Target`] holds, the
/// fault-free one or its flops: every call the drivers make on either
/// model dispatches here. The two models share method names, not a
/// trait, so each arm is compiled for its own type.
macro_rules! on_target {
    ($target:expr, $x:ident => $body:expr) => {
        match $target {
            Target::Warm($x) => $body,
            Target::Flops($x) => $body,
            Target::Converting => unreachable!("a target converts only inside `Target::flops`"),
        }
    };
}

impl Target<L2cWarm> {
    fn ready(&self) -> bool {
        on_target!(self, x => x.ready())
    }

    fn tick(&mut self, inp: &L2cInputs) -> L2cOutputs {
        on_target!(self, x => x.tick(inp))
    }

    fn idle(&self) -> bool {
        on_target!(self, x => x.idle())
    }

    /// Input-queue, output-queue and miss-buffer occupancy.
    fn occupancy(&self) -> [usize; 3] {
        on_target!(self, x => [x.iq_occupancy(), x.oq_occupancy(), x.mb_occupancy()])
    }
}

// ─────────────────────────── L2C driver ───────────────────────────

/// Mini DRAM model (latency queue over an overlay) standing in for the
/// rest of the memory system while an L2 bank is co-simulated.
#[derive(Debug, Clone, Default)]
struct LatencyDram {
    queue: VecDeque<(u64, DramCmd)>,
}

impl LatencyDram {
    fn push(&mut self, cycle: u64, cmd: DramCmd) {
        self.queue.push_back((cycle + COSIM_DRAM_LATENCY, cmd));
    }

    fn pop_ready(
        &mut self,
        cycle: u64,
        base: &DramContents,
        overlay: &mut DramOverlay,
    ) -> Option<DramResp> {
        match self.queue.front() {
            Some((ready, _)) if *ready <= cycle => {
                let (_, cmd) = self.queue.pop_front().unwrap();
                match cmd.kind {
                    DramCmdKind::Fill => Some(DramResp {
                        tag: cmd.tag,
                        bank: cmd.bank,
                        line: cmd.line,
                        data: overlay.read_line(base, cmd.line),
                        is_writeback_ack: false,
                    }),
                    DramCmdKind::Writeback => {
                        overlay.write_line(cmd.line, cmd.data);
                        Some(DramResp {
                            tag: cmd.tag,
                            bank: cmd.bank,
                            line: cmd.line,
                            data: cmd.data,
                            is_writeback_ack: true,
                        })
                    }
                }
            }
            _ => None,
        }
    }
}

/// An L2 bank with the memory it reaches: its overlay over the system's
/// DRAM and its DRAM latency queue. A driver's target is one (on images,
/// then flops), its golden twin another and each lane of a batch a third
/// (both forked on flops), so all of them tick, compare and drain by the
/// code below.
#[derive(Debug, Clone)]
pub(crate) struct BankSide {
    bank: Target<L2cWarm>,
    ov: DramOverlay,
    dram: LatencyDram,
}

impl BankSide {
    /// Whether the bank accepts a request packet this cycle.
    pub(crate) fn ready(&self) -> bool {
        self.bank.ready()
    }

    /// Cycle `cyc` on `pcx`, the request packet consumed this cycle: the
    /// bank takes the DRAM response due now and queues the command it
    /// issues.
    pub(crate) fn tick(
        &mut self,
        cyc: u64,
        pcx: Option<PcxPacket>,
        base: &DramContents,
    ) -> L2cOutputs {
        let dram_resp = self.dram.pop_ready(cyc, base, &mut self.ov);
        let out = self.bank.tick(&L2cInputs { pcx, dram_resp });
        if let Some(cmd) = &out.dram_cmd {
            self.dram.push(cyc, cmd.clone());
        }
        out
    }

    fn idle(&self) -> bool {
        self.bank.idle() && self.dram.queue.is_empty()
    }

    /// Fig. 2 step 7 with this side as the target. In-flight traffic
    /// (the DRAM queue) counts as microarchitectural state; the bank
    /// arrays and the overlay are the architectural state.
    fn check(&self, golden: &BankSide, base: &DramContents) -> CosimCheck {
        let (Some(target), Some(g)) = (self.bank.as_flops(), golden.bank.as_flops()) else {
            return CosimCheck::Identical;
        };
        if self.dram.queue != golden.dram.queue {
            return CosimCheck::Microarch;
        }
        verdict(target, g, || {
            target.arch().differs(g.arch()) || self.ov.differs(&golden.ov, base)
        })
    }

    /// Records the bank's queue occupancies.
    pub(crate) fn sample_telemetry(&self, rec: &mut Recorder) {
        let [iq, oq, mb] = self.bank.occupancy();
        rec.record_hist(names::H_Q_L2C_IQ, iq as u64);
        rec.record_hist(names::H_Q_L2C_OQ, oq as u64);
        rec.record_hist(names::H_Q_L2C_MB, mb as u64);
    }

    /// Flips flop `bit`: a lane's fault.
    pub(crate) fn flip(&mut self, bit: usize) {
        self.bank.flops().flops_mut().flip(bit);
    }
}

/// Co-simulation driver for one L2 cache bank.
///
/// The target warms up on [`L2cWarm`]: until the golden snapshot and the
/// flip (Fig. 2 step 5) no flop can be wrong, so slot images give the
/// same cycles at a fraction of the cost. `snapshot_golden`,
/// `snapshot_golden_cold`, `inject`, `retire_golden` and `detach` turn
/// it into the [`L2cBank`] the flop-level warm-up would have left, and
/// the rest of the run is flop-level.
#[derive(Debug, Clone)]
pub struct L2cDriver {
    sys: System,
    bank: BankId,
    /// The co-simulated (error-injected) bank.
    target: BankSide,
    /// The golden twin (present after
    /// [`snapshot_golden`](CosimDriver::snapshot_golden)).
    golden: Option<BankSide>,
    inbox: VecDeque<PcxPacket>,
    first_err_out: Option<u64>,
}

#[cfg(test)]
thread_local! {
    /// Cycles the system under an L2C driver ran on this thread after
    /// its attach (warm-up and co-simulation alike).
    pub(crate) static STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl L2cDriver {
    /// Attaches co-simulation for `bank`: intercepts its traffic and
    /// transfers the high-level uncore state into the RTL model
    /// (Fig. 2 step 3). Flop state starts at reset and is reconstructed
    /// by warm-up traffic (step 4).
    pub fn attach(mut sys: System, bank: BankId) -> Self {
        let target = BankSide {
            bank: Target::Warm(L2cWarm::new(bank, sys.bank_arch(bank).clone())),
            ov: DramOverlay::new(),
            dram: LatencyDram::default(),
        };
        sys.set_intercept(InterceptMode::Bank(bank));
        L2cDriver {
            sys,
            bank,
            target,
            golden: None,
            inbox: VecDeque::new(),
            first_err_out: None,
        }
    }

    /// The co-simulated bank, once it holds flops: from the first call
    /// that needs them (the golden snapshot, the flip) on.
    pub fn target(&self) -> Option<&L2cBank> {
        self.target.bank.as_flops()
    }

    /// A copy of the target side on flops, converting the target from
    /// its images first if it is still on them: the golden twin at the
    /// snapshot, and every lane a batch's carrier forks.
    pub(crate) fn twin(&mut self) -> BankSide {
        BankSide {
            bank: Target::Flops(self.target.bank.flops().clone()),
            ov: self.target.ov.clone(),
            dram: self.target.dram.clone(),
        }
    }

    /// Fig. 2 step 7 for a lane of a batch whose carrier this is: the
    /// carrier's target side is every lane's golden.
    pub(crate) fn check_lane(&self, lane: &BankSide) -> CosimCheck {
        lane.check(&self.target, self.sys.dram())
    }

    /// Whether detaching with `side` as the target would strand no
    /// traffic: `drained` for this driver's target or for a lane.
    pub(crate) fn drained_with(&self, side: &BankSide) -> bool {
        self.inbox.is_empty() && side.idle() && self.sys.waiting_on_uncore() == 0
    }

    /// Whether the target is still on slot images.
    #[cfg(test)]
    pub(crate) fn holds_images(&self) -> bool {
        matches!(self.target.bank, Target::Warm(_))
    }

    /// Phase 1 of a cycle: the system runs one cycle, and the requests
    /// it sent the bank join the inbox. Returns the cycle, which the
    /// system's clock does not show once it trapped or halted.
    pub(crate) fn run_system(&mut self) -> u64 {
        #[cfg(test)]
        STEPS.with(|n| n.set(n.get() + 1));
        let cyc = self.sys.cycle() + 1;
        self.sys.run_until(cyc);
        while let Some(msg) = self.sys.pop_outbox() {
            match msg {
                OutMsg::Pcx(p) => self.inbox.push_back(p),
                other => unreachable!("unexpected outbox message {other:?}"),
            }
        }
        cyc
    }

    /// The bank's pop gate this cycle while a request waits in the
    /// inbox: whether the target would take it. `None` when the inbox is
    /// empty, so that nothing is popped whatever the gate says.
    pub(crate) fn ready_at_stake(&self) -> Option<bool> {
        (!self.inbox.is_empty()).then(|| self.target.ready())
    }

    /// Phase 2 of cycle `cyc`: the target pops a request if it is ready
    /// and ticks on it and on its DRAM queue. Returns the request and the
    /// target's outputs.
    pub(crate) fn tick_target(&mut self, cyc: u64) -> (Option<PcxPacket>, L2cOutputs) {
        let pcx = if self.target.ready() {
            self.inbox.pop_front()
        } else {
            None
        };
        let out = self.target.tick(cyc, pcx, self.sys.dram());
        (pcx, out)
    }

    /// Phase 3 of a cycle: the target's return packet reaches the system.
    pub(crate) fn deliver(&mut self, cpx: Option<CpxPacket>) {
        if let Some(cpx) = cpx {
            self.sys.deliver_cpx(cpx);
        }
    }

    /// Everything of cycle `cyc` after [`run_system`](Self::run_system):
    /// the target's tick, the golden twin's on the same request, the
    /// divergence monitor, and the delivery. A lane that leaves its batch
    /// before its bank ticked finishes its cycle here.
    pub(crate) fn finish_cycle(&mut self, cyc: u64) {
        let (pcx, out) = self.tick_target(cyc);
        if let Some(golden) = &mut self.golden {
            let g_out = golden.tick(cyc, pcx, self.sys.dram());
            let diverged = out.cpx != g_out.cpx || out.dram_cmd != g_out.dram_cmd;
            if diverged && self.first_err_out.is_none() {
                self.first_err_out = Some(cyc);
            }
        }
        self.deliver(out.cpx);
    }

    /// The scalar driver of a lane that leaves the batch this driver
    /// carries, as the lane's own run would hold it now: this driver's
    /// system and inbox; `lane` as the target with this driver's target
    /// as its golden twin, or for a parked lane (`None`) a copy of this
    /// driver's target with no twin, as its run retired the golden when
    /// the lane parked; and `first_err_out` as the divergence monitor's
    /// record. The system refills `spare` when there is one.
    pub(crate) fn fork(
        &self,
        lane: Option<BankSide>,
        first_err_out: Option<u64>,
        spare: Option<System>,
    ) -> L2cDriver {
        debug_assert!(
            self.golden.is_none(),
            "a batch carrier is every lane's golden and has none of its own"
        );
        let sys = match spare {
            Some(mut sys) => {
                sys.clone_from(&self.sys);
                sys
            }
            None => self.sys.clone(),
        };
        let (target, golden) = match lane {
            Some(lane) => (lane, Some(self.target.clone())),
            None => (self.target.clone(), None),
        };
        L2cDriver {
            sys,
            bank: self.bank,
            target,
            golden,
            inbox: self.inbox.clone(),
            first_err_out,
        }
    }
}

impl CosimDriver for L2cDriver {
    fn step(&mut self) {
        let cyc = self.run_system();
        self.finish_cycle(cyc);
    }

    fn cycle(&self) -> u64 {
        self.sys.cycle()
    }

    fn sys(&self) -> &System {
        &self.sys
    }

    fn snapshot_golden(&mut self) {
        self.golden = Some(self.twin());
    }

    fn snapshot_golden_cold(&mut self) {
        let arch = self.target.bank.flops().arch().clone();
        self.golden = Some(BankSide {
            bank: Target::Flops(L2cBank::with_arch(self.bank, arch)),
            ov: self.target.ov.clone(),
            dram: LatencyDram::default(),
        });
    }

    fn mismatch_fraction(&self) -> f64 {
        let golden = self.golden.as_ref().and_then(|g| g.bank.as_flops());
        flop_mismatch(self.target.bank.as_flops().zip(golden))
    }

    fn inject(&mut self, bit: usize) {
        self.target.bank.flops().flops_mut().flip(bit);
    }

    fn check(&self) -> CosimCheck {
        (self.golden.as_ref()).map_or(CosimCheck::Identical, |g| {
            self.target.check(g, self.sys.dram())
        })
    }

    fn retire_golden(&mut self) {
        self.target.bank.flops();
        self.golden = None;
    }

    fn drained(&self) -> bool {
        self.drained_with(&self.target)
    }

    fn erroneous_output(&self) -> Option<u64> {
        self.first_err_out
    }

    fn sample_telemetry(&self, rec: &mut Recorder) {
        self.target.sample_telemetry(rec);
    }

    fn detach(mut self) -> Detach {
        let target = self.target.bank.flops();
        // Corrupted lines: cache-resident divergence + memory-side
        // divergence through the overlays.
        let mut corrupted: Vec<LineAddr> = Vec::new();
        if let Some(BankSide {
            bank: Target::Flops(g),
            ov,
            ..
        }) = &self.golden
        {
            corrupted.extend(target.arch().diff_lines(g.arch()));
            corrupted.extend(self.target.ov.diff_lines(ov, self.sys.dram()));
        }
        corrupted.sort_unstable_by_key(|l| l.raw());
        corrupted.dedup();
        // Transfer state back (Fig. 2 step 10): memory overlay, then
        // the bank's architectural arrays.
        self.target.ov.apply_to(self.sys.dram_mut());
        self.sys.set_bank_arch(self.bank, target.arch().clone());
        self.sys.set_intercept(InterceptMode::None);
        // Any packets the wedged target never accepted are served
        // functionally so the threads see *some* response (forced
        // detach path); an idle detach has an empty inbox.
        while let Some(p) = self.inbox.pop_front() {
            let reply = self.sys.service_request_functionally(&p);
            self.sys.deliver_cpx(reply);
        }
        self.sys.mark_tainted(corrupted.iter().copied());
        Detach {
            sys: self.sys,
            corrupted_lines: corrupted,
        }
    }

    fn into_sys(self) -> System {
        self.sys
    }
}

// ─────────────────────────── MCU driver ───────────────────────────

/// DRAM command tags: the controller's tag flops hold 8 bits.
const DRAM_TAGS: usize = 256;

/// What a DRAM command tag routes its response to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TagRoute {
    /// No command in flight carries the tag.
    Free,
    /// A writeback: its ack completes nothing.
    Writeback,
    /// A fill, delivered to the bank that asked for the line.
    Fill(BankId, LineAddr),
}

/// The engine side of an intercepted MCU pair's DRAM port: it turns the
/// system's DRAM outbox into tagged commands, routes the controller's
/// fill responses back to the requesting bank, and serves what the
/// controller never accepted when co-simulation ends. Every MCU
/// co-simulation driver holds one.
#[derive(Debug, Clone)]
pub struct DramPort {
    inbox: VecDeque<DramCmd>,
    /// Each tag's in-flight command. Tags must be unique across *all*
    /// in-flight commands — a fill reusing a live writeback's tag would
    /// lose its route when the writeback acks, stranding the requesting
    /// threads forever.
    routes: [TagRoute; DRAM_TAGS],
    /// Tags whose route is not [`TagRoute::Free`].
    in_flight: usize,
    next_tag: u32,
}

impl Default for DramPort {
    fn default() -> Self {
        DramPort {
            inbox: VecDeque::new(),
            routes: [TagRoute::Free; DRAM_TAGS],
            in_flight: 0,
            next_tag: 0,
        }
    }
}

impl DramPort {
    /// Puts `route` in flight under the next free tag, counting on from
    /// the last one issued, and returns the tag.
    fn issue(&mut self, route: TagRoute) -> u32 {
        debug_assert!(self.in_flight < DRAM_TAGS, "every DRAM tag is in flight");
        loop {
            let t = self.next_tag;
            self.next_tag = (t + 1) % DRAM_TAGS as u32;
            let slot = &mut self.routes[t as usize];
            if *slot == TagRoute::Free {
                *slot = route;
                self.in_flight += 1;
                return t;
            }
        }
    }

    /// Moves the DRAM traffic `sys` emitted this cycle into the inbox,
    /// one fresh tag per command.
    pub fn intake(&mut self, sys: &mut System) {
        while let Some(msg) = sys.pop_outbox() {
            let cmd = match msg {
                OutMsg::DramFill { bank, line } => {
                    DramCmd::fill(self.issue(TagRoute::Fill(bank, line)), bank, line)
                }
                OutMsg::DramWriteback { bank, line, data } => {
                    DramCmd::writeback(self.issue(TagRoute::Writeback), bank, line, data)
                }
                other => unreachable!("unexpected outbox message {other:?}"),
            };
            self.inbox.push_back(cmd);
        }
    }

    /// Pops the oldest pending command if `ready` accepts it.
    pub fn accept(&mut self, ready: impl FnOnce(&DramCmd) -> bool) -> Option<DramCmd> {
        match self.inbox.front() {
            Some(c) if ready(c) => self.inbox.pop_front(),
            _ => None,
        }
    }

    /// Retires `resp`'s tag and delivers a fill to the bank that asked
    /// for it. A corrupted tag names no command in flight and the fill
    /// is lost (the L2/threads hang), or collides with another request
    /// and delivers wrong data to the wrong line.
    pub fn complete(&mut self, sys: &mut System, resp: DramResp) {
        let Some(slot) = self.routes.get_mut(resp.tag as usize) else {
            return;
        };
        let route = std::mem::replace(slot, TagRoute::Free);
        if route != TagRoute::Free {
            self.in_flight -= 1;
        }
        if let (TagRoute::Fill(bank, line), false) = (route, resp.is_writeback_ack) {
            sys.deliver_fill(bank, line, resp.data);
        }
    }

    /// True when no command is pending or in flight.
    pub fn idle(&self) -> bool {
        self.inbox.is_empty() && self.in_flight == 0
    }

    /// Serves the commands the controller never accepted functionally,
    /// against `sys`'s memory (forced detach).
    pub fn serve_stranded(&mut self, sys: &mut System) {
        for cmd in self.inbox.drain(..) {
            match cmd.kind {
                DramCmdKind::Fill => {
                    let data = sys.dram().read_line(cmd.line);
                    sys.deliver_fill(cmd.bank, cmd.line, data);
                }
                DramCmdKind::Writeback => sys.dram_mut().write_line(cmd.line, cmd.data),
            }
        }
    }
}

impl Target<McuWarm> {
    fn ready(&self, is_writeback: bool) -> bool {
        on_target!(self, x => x.ready(is_writeback))
    }

    fn tick(&mut self, inp: &McuInputs, mem: &mut dyn LineBackend) -> McuOutputs {
        on_target!(self, x => x.tick(inp, mem))
    }

    fn idle(&self) -> bool {
        on_target!(self, x => x.idle())
    }

    /// Request-queue and return-queue occupancy.
    fn occupancy(&self) -> (usize, usize) {
        on_target!(self, x => (x.rq_occupancy(), x.retq_occupancy()))
    }
}

/// Co-simulation driver for one DRAM controller.
///
/// The target warms up on [`McuWarm`]: until the golden snapshot and the
/// flip (Fig. 2 step 5) no flop can be wrong, so plain fields give the
/// same cycles at a fraction of the cost. `snapshot_golden`,
/// `snapshot_golden_cold` and `inject` turn it into the [`Mcu`] the
/// flop-level warm-up would have left, and the run is flop-level while
/// the golden lives. `retire_golden` puts it back on plain fields: the
/// target then equals the golden, a fault-free controller.
#[derive(Debug, Clone)]
pub struct McuDriver {
    sys: System,
    /// The co-simulated controller.
    target: Target<McuWarm>,
    /// The golden copy.
    golden: Option<Mcu>,
    t_ov: DramOverlay,
    g_ov: DramOverlay,
    port: DramPort,
    first_err_out: Option<u64>,
}

impl McuDriver {
    /// Attaches co-simulation for `mcu`: DRAM traffic of its two banks
    /// is diverted to the RTL model. The high-level uncore state (DRAM
    /// contents, Table 1) stays in place and is accessed through an
    /// overlay.
    pub fn attach(mut sys: System, mcu: McuId) -> Self {
        sys.set_intercept(InterceptMode::McuPair(mcu));
        McuDriver {
            sys,
            target: Target::Warm(McuWarm::new(mcu)),
            golden: None,
            t_ov: DramOverlay::new(),
            g_ov: DramOverlay::new(),
            port: DramPort::default(),
            first_err_out: None,
        }
    }

    /// Whether the target is on plain fields.
    #[cfg(test)]
    pub(crate) fn holds_fields(&self) -> bool {
        matches!(self.target, Target::Warm(_))
    }
}

impl CosimDriver for McuDriver {
    fn step(&mut self) {
        let cyc = self.sys.cycle() + 1;
        self.sys.run_until(cyc);
        self.port.intake(&mut self.sys);
        let cmd = (self.port).accept(|c| self.target.ready(c.kind == DramCmdKind::Writeback));
        let t_out = {
            let mut be = OverlayBackend::new(self.sys.dram(), &mut self.t_ov);
            self.target.tick(&McuInputs { cmd: cmd.clone() }, &mut be)
        };
        let g_out = self.golden.as_mut().map(|golden| {
            let mut be = OverlayBackend::new(self.sys.dram(), &mut self.g_ov);
            golden.tick(&McuInputs { cmd }, &mut be)
        });
        if let Some(g_out) = &g_out {
            if t_out.resp != g_out.resp && self.first_err_out.is_none() {
                self.first_err_out = Some(cyc);
            }
        }
        if let Some(resp) = t_out.resp {
            self.port.complete(&mut self.sys, resp);
        }
    }

    fn cycle(&self) -> u64 {
        self.sys.cycle()
    }

    fn sys(&self) -> &System {
        &self.sys
    }

    fn snapshot_golden(&mut self) {
        self.golden = Some(self.target.flops().clone());
        self.g_ov = self.t_ov.clone();
    }

    fn snapshot_golden_cold(&mut self) {
        let id = self.target.flops().id();
        self.golden = Some(Mcu::new(id));
        self.g_ov = self.t_ov.clone();
    }

    fn mismatch_fraction(&self) -> f64 {
        flop_mismatch(self.target.as_flops().zip(self.golden.as_ref()))
    }

    fn inject(&mut self, bit: usize) {
        self.target.flops().flops_mut().flip(bit);
    }

    fn check(&self) -> CosimCheck {
        (self.target.as_flops().zip(self.golden.as_ref()))
            .map_or(CosimCheck::Identical, |(t, g)| {
                verdict(t, g, || self.t_ov.differs(&self.g_ov, self.sys.dram()))
            })
    }

    fn retire_golden(&mut self) {
        // The check just found the target's flops equal to the golden's,
        // which only ever held fault-free traffic, so plain fields hold
        // them exactly. A later call finds the target on them already.
        if let Target::Flops(x) = &self.target {
            self.target = Target::Warm(McuWarm::from_mcu(x));
        }
        self.golden = None;
    }

    fn drained(&self) -> bool {
        self.port.idle() && self.target.idle() && self.sys.waiting_on_uncore() == 0
    }

    fn erroneous_output(&self) -> Option<u64> {
        self.first_err_out
    }

    fn sample_telemetry(&self, rec: &mut Recorder) {
        let (rq, retq) = self.target.occupancy();
        rec.record_hist(names::H_Q_MCU_RQ, rq as u64);
        rec.record_hist(names::H_Q_MCU_RETQ, retq as u64);
    }

    fn detach(mut self) -> Detach {
        // DRAM contents are the controller's only state to transfer back
        // (Table 1), and they are in the overlay: the target is dropped
        // as it is, on flops or plain fields.
        let mut corrupted: Vec<LineAddr> = if self.golden.is_some() {
            self.t_ov.diff_lines(&self.g_ov, self.sys.dram())
        } else {
            Vec::new()
        };
        corrupted.sort_unstable_by_key(|l| l.raw());
        corrupted.dedup();
        self.t_ov.apply_to(self.sys.dram_mut());
        self.sys.set_intercept(InterceptMode::None);
        self.port.serve_stranded(&mut self.sys);
        self.sys.mark_tainted(corrupted.iter().copied());
        Detach {
            sys: self.sys,
            corrupted_lines: corrupted,
        }
    }

    fn into_sys(self) -> System {
        self.sys
    }
}

// ─────────────────────────── CCX driver ───────────────────────────

impl Target<CcxWarm> {
    fn core_ready(&self, c: usize) -> bool {
        on_target!(self, x => x.core_ready(c))
    }

    fn bank_ready(&self, k: usize) -> bool {
        on_target!(self, x => x.bank_ready(k))
    }

    fn tick(&mut self, inp: &CcxInputs, bank_can_accept: &[bool; NUM_L2_BANKS]) -> CcxOutputs {
        on_target!(self, x => x.tick(inp, bank_can_accept))
    }

    fn idle(&self) -> bool {
        on_target!(self, x => x.idle())
    }

    fn occupancy(&self) -> (usize, usize) {
        on_target!(self, x => (x.pcx_occupancy(), x.cpx_occupancy()))
    }
}

/// Co-simulation driver for the crossbar.
///
/// The target warms up on [`CcxWarm`]: until the golden snapshot and
/// the flip (Fig. 2 step 5) no flop can be wrong, so packets give the
/// same cycles at a fraction of the cost. `snapshot_golden`,
/// `snapshot_golden_cold` and `inject` turn it into the [`Ccx`] the
/// flop-level warm-up would have left, and the run is flop-level while
/// the golden lives. `retire_golden` puts it back on packets: the
/// target then equals the golden, a fault-free crossbar.
#[derive(Debug, Clone)]
pub struct CcxDriver {
    sys: System,
    target: Target<CcxWarm>,
    /// The golden copy.
    golden: Option<Ccx>,
    core_q: [VecDeque<PcxPacket>; NUM_CORES],
    bank_q: [VecDeque<(u64, CpxPacket)>; NUM_L2_BANKS],
    first_err_out: Option<u64>,
}

impl CcxDriver {
    /// Attaches crossbar co-simulation: every core request flows
    /// through the RTL crossbar; the L2 banks stay functional. The
    /// crossbar has no high-level state to transfer (Table 1), so
    /// warm-up alone reconstructs it (footnote 4 of the paper).
    pub fn attach(mut sys: System) -> Self {
        sys.set_intercept(InterceptMode::AllRequests);
        CcxDriver {
            sys,
            target: Target::Warm(CcxWarm::new()),
            golden: None,
            core_q: Default::default(),
            bank_q: Default::default(),
            first_err_out: None,
        }
    }

    /// Whether the target is on packets.
    #[cfg(test)]
    pub(crate) fn holds_packets(&self) -> bool {
        matches!(self.target, Target::Warm(_))
    }
}

impl CosimDriver for CcxDriver {
    fn step(&mut self) {
        let cyc = self.sys.cycle() + 1;
        self.sys.run_until(cyc);
        while let Some(msg) = self.sys.pop_outbox() {
            match msg {
                OutMsg::Pcx(p) => self.core_q[p.thread.core().index()].push_back(p),
                other => unreachable!("unexpected outbox message {other:?}"),
            }
        }
        let mut inp = CcxInputs::default();
        // A port's FIFO occupancy is read only if something waits for it.
        for (c, q) in self.core_q.iter_mut().enumerate() {
            if !q.is_empty() && self.target.core_ready(c) {
                inp.from_cores[c] = q.pop_front();
            }
        }
        for (k, q) in self.bank_q.iter_mut().enumerate() {
            let due = q.front().is_some_and(|(ready, _)| *ready <= cyc);
            if due && self.target.bank_ready(k) {
                inp.from_banks[k] = q.pop_front().map(|(_, p)| p);
            }
        }
        let all_ready = [true; NUM_L2_BANKS];
        let t_out = self.target.tick(&inp, &all_ready);
        if let Some(golden) = &mut self.golden {
            let g_out = golden.tick(&inp, &all_ready);
            // The erroneous-output monitor (Fig. 1b ⑥) watches *return
            // packets to the processor cores*. Request-side divergence
            // is not recorded here: a load request's data lanes are
            // don't-care, so comparing requests over-counts; real
            // consequences of a corrupted request (wrong data, memory
            // corruption) surface through the served values and the
            // final output digest.
            if t_out.to_cores != g_out.to_cores && self.first_err_out.is_none() {
                self.first_err_out = Some(cyc);
            }
        }
        for (k, slot) in t_out.to_banks.iter().enumerate() {
            if let Some(p) = slot {
                // Functional bank service (the banks remain high-level
                // during CCX co-simulation); the response re-enters the
                // crossbar on the port it came out of.
                let reply = self.sys.service_request_functionally(p);
                self.bank_q[k].push_back((cyc + COSIM_BANK_LATENCY, reply));
            }
        }
        for slot in t_out.to_cores.iter().flatten() {
            self.sys.deliver_cpx(*slot);
        }
    }

    fn cycle(&self) -> u64 {
        self.sys.cycle()
    }

    fn sys(&self) -> &System {
        &self.sys
    }

    fn snapshot_golden(&mut self) {
        self.golden = Some(self.target.flops().clone());
    }

    fn snapshot_golden_cold(&mut self) {
        self.target.flops();
        self.golden = Some(Ccx::new());
    }

    fn mismatch_fraction(&self) -> f64 {
        flop_mismatch(self.target.as_flops().zip(self.golden.as_ref()))
    }

    fn inject(&mut self, bit: usize) {
        self.target.flops().flops_mut().flip(bit);
    }

    fn check(&self) -> CosimCheck {
        // No architectural state (Table 1): clean or benign is exitable.
        (self.target.as_flops().zip(self.golden.as_ref()))
            .map_or(CosimCheck::Identical, |(t, g)| verdict(t, g, || false))
    }

    fn retire_golden(&mut self) {
        // The check just found the target's flops equal to the golden's,
        // which only ever held fault-free traffic, so packets hold them
        // exactly. A later call finds the target on packets already.
        if let Target::Flops(x) = &self.target {
            self.target = Target::Warm(CcxWarm::from_ccx(x));
        }
        self.golden = None;
    }

    fn drained(&self) -> bool {
        self.target.idle()
            && self.core_q.iter().all(VecDeque::is_empty)
            && self.bank_q.iter().all(VecDeque::is_empty)
            && self.sys.waiting_on_uncore() == 0
    }

    fn erroneous_output(&self) -> Option<u64> {
        self.first_err_out
    }

    fn sample_telemetry(&self, rec: &mut Recorder) {
        let (pcx, cpx) = self.target.occupancy();
        rec.record_hist(names::H_Q_CCX_PCX, pcx as u64);
        rec.record_hist(names::H_Q_CCX_CPX, cpx as u64);
    }

    fn detach(mut self) -> Detach {
        // The crossbar has no state to transfer back (Table 1), so the
        // target is dropped as it is, on flops or packets.
        self.sys.set_intercept(InterceptMode::None);
        // Serve anything stranded in the wedged crossbar's engine-side
        // queues functionally (forced detach path).
        for p in self.core_q.iter_mut().flat_map(|q| q.drain(..)) {
            let reply = self.sys.service_request_functionally(&p);
            self.sys.deliver_cpx(reply);
        }
        for (_, p) in self.bank_q.iter_mut().flat_map(|q| q.drain(..)) {
            self.sys.deliver_cpx(p);
        }
        Detach {
            sys: self.sys,
            corrupted_lines: Vec::new(),
        }
    }

    fn into_sys(self) -> System {
        self.sys
    }
}

// ─────────────────────────── PCIe driver ──────────────────────────

/// Co-simulation driver for the PCIe DMA engine.
#[derive(Debug, Clone)]
pub struct PcieDriver {
    sys: System,
    /// The co-simulated engine.
    target: Pcie,
    /// The golden copy.
    golden: Option<Pcie>,
    g_ov: DramOverlay,
    corrupted: Vec<LineAddr>,
    first_err_out: Option<u64>,
}

/// Backend routing the target PCIe engine's writes coherently into
/// system memory while logging them.
struct CoherentLog<'a> {
    sys: &'a mut System,
    wrote: &'a mut Option<LineAddr>,
}

impl nestsim_arch::LineBackend for CoherentLog<'_> {
    fn read_line(&mut self, line: LineAddr) -> [u64; 8] {
        self.sys.dram().read_line(line)
    }
    fn write_line(&mut self, line: LineAddr, data: [u64; 8]) {
        self.sys.coherent_dma_write(line, data);
        *self.wrote = Some(line);
    }
}

impl PcieDriver {
    /// Attaches PCIe co-simulation: the functional DMA engine is
    /// suspended and the RTL engine resumes the transfer from the
    /// architectural progress point (Table 1 state transfer).
    pub fn attach(mut sys: System) -> Self {
        let (pos, active) = sys.dma_progress();
        let desc = sys.dma_descriptor();
        sys.set_intercept(InterceptMode::PcieDma);
        let mut target = Pcie::new();
        target.load_arch(PcieArchState {
            bufs: nestsim_arch::PcieBuffers::new(),
            dst: desc.dst.raw(),
            len: desc.len,
            seed: desc.stream_seed,
            pos,
            drain_pos: pos,
            occ: 0,
            wr_ptr: 0,
            rd_ptr: 0,
            active,
        });
        PcieDriver {
            sys,
            target,
            golden: None,
            g_ov: DramOverlay::new(),
            corrupted: Vec::new(),
            first_err_out: None,
        }
    }
}

impl CosimDriver for PcieDriver {
    fn step(&mut self) {
        let cyc = self.sys.cycle() + 1;
        self.sys.run_until(cyc);
        // The outbox is unused in PCIe mode, but drain defensively.
        while self.sys.pop_outbox().is_some() {}

        // Golden first: its reads must not observe the target's write
        // of this very cycle.
        let g_out = self.golden.as_mut().map(|golden| {
            let mut be = OverlayBackend::new(self.sys.dram(), &mut self.g_ov);
            golden.tick(&mut be)
        });
        let mut wrote = None;
        let t_out = {
            let mut be = CoherentLog {
                sys: &mut self.sys,
                wrote: &mut wrote,
            };
            self.target.tick(&mut be)
        };
        if let Some(g_out) = g_out {
            let diverged = match (wrote, g_out.wrote.map(|a| a.line())) {
                (None, None) => false,
                (Some(t), Some(g)) if t == g => {
                    self.sys.dram().read_line(t) != self.g_ov.read_line(self.sys.dram(), g)
                }
                _ => true,
            };
            if diverged || t_out.completed != g_out.completed {
                if self.first_err_out.is_none() {
                    self.first_err_out = Some(cyc);
                }
                if let Some(t) = wrote {
                    self.corrupted.push(t);
                }
                if let Some(g) = g_out.wrote {
                    self.corrupted.push(g.line());
                }
            }
        }
    }

    fn cycle(&self) -> u64 {
        self.sys.cycle()
    }

    fn sys(&self) -> &System {
        &self.sys
    }

    fn snapshot_golden(&mut self) {
        self.golden = Some(self.target.clone());
        self.g_ov = DramOverlay::new();
    }

    fn snapshot_golden_cold(&mut self) {
        let mut cold = Pcie::new();
        cold.load_arch(self.target.arch());
        self.golden = Some(cold);
        self.g_ov = DramOverlay::new();
    }

    fn at_cold_snapshot_boundary(&self) -> bool {
        // Architectural DMA progress is frame-granular; snapshotting
        // mid-frame would leave the cold copy permanently skewed by the
        // re-streamed partial frame.
        let a = self.target.arch();
        !a.active || a.pos.is_multiple_of(64)
    }

    fn mismatch_fraction(&self) -> f64 {
        flop_mismatch(self.golden.as_ref().map(|g| (&self.target, g)))
    }

    fn inject(&mut self, bit: usize) {
        self.target.flops_mut().flip(bit);
    }

    fn check(&self) -> CosimCheck {
        (self.golden.as_ref()).map_or(CosimCheck::Identical, |g| {
            verdict(&self.target, g, || self.target.buffer_diff(g) > 0)
        })
    }

    fn retire_golden(&mut self) {
        self.golden = None;
    }

    fn drained(&self) -> bool {
        // The PCIe engine does not serve core requests; nothing can be
        // stranded by detaching at a state-converged point.
        true
    }

    fn erroneous_output(&self) -> Option<u64> {
        self.first_err_out
    }

    fn sample_telemetry(&self, rec: &mut Recorder) {
        rec.record_hist(names::H_Q_PCIE_BUF, self.target.buffer_occupancy() as u64);
    }

    fn detach(mut self) -> Detach {
        let arch = self.target.arch();
        self.sys.set_intercept(InterceptMode::None);
        self.sys.resume_dma(arch.drain_pos, arch.active);
        let mut corrupted = self.corrupted;
        corrupted.sort_unstable_by_key(|l| l.raw());
        corrupted.dedup();
        self.sys.mark_tainted(corrupted.iter().copied());
        Detach {
            sys: self.sys,
            corrupted_lines: corrupted,
        }
    }

    fn into_sys(self) -> System {
        self.sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_hlsim::workload::by_name;
    use nestsim_hlsim::SystemConfig;
    use nestsim_proto::addr::McuId;

    fn sys_at(bench: &str, cycle: u64) -> System {
        let mut sys = System::new(SystemConfig::smoke_test(by_name(bench).unwrap()));
        sys.run_until(cycle);
        sys
    }

    fn drive_checked<D: CosimDriver>(mut drv: D, cycles: u64) -> D {
        for _ in 0..cycles {
            drv.step();
            assert!(drv.sys().trap().is_none(), "error-free co-sim trapped");
        }
        drv
    }

    #[test]
    fn l2c_uninjected_cosim_stays_identical() {
        let mut drv = L2cDriver::attach(sys_at("radi", 500), BankId::new(0));
        for _ in 0..500 {
            drv.step();
        }
        drv.snapshot_golden();
        let drv = drive_checked(drv, 1_000);
        assert_eq!(drv.check(), CosimCheck::Identical);
        assert!(drv.erroneous_output().is_none());
    }

    #[test]
    fn mcu_uninjected_cosim_stays_identical() {
        let mut drv = McuDriver::attach(sys_at("fft", 500), McuId::new(0));
        for _ in 0..500 {
            drv.step();
        }
        drv.snapshot_golden();
        let drv = drive_checked(drv, 1_000);
        assert_eq!(drv.check(), CosimCheck::Identical);
    }

    #[test]
    fn ccx_uninjected_cosim_stays_identical() {
        let mut drv = CcxDriver::attach(sys_at("lu-c", 500));
        for _ in 0..500 {
            drv.step();
        }
        drv.snapshot_golden();
        let drv = drive_checked(drv, 1_000);
        assert_eq!(drv.check(), CosimCheck::Identical);
    }

    /// Cycles a [`PathProbe`] stepped, by where the target was (`[flops,
    /// fault-free model]`) and then whether the golden lived (`[retired,
    /// live]`).
    type Paths = std::rc::Rc<std::cell::Cell<[[u64; 2]; 2]>>;

    /// A driver that notes, at every cycle it steps, whether its target
    /// was on its fault-free model and whether its golden was alive.
    struct PathProbe<D> {
        inner: D,
        /// (target on its fault-free model, golden alive)
        state: fn(&D) -> (bool, bool),
        steps: Paths,
    }

    impl<D: CosimDriver> CosimDriver for PathProbe<D> {
        fn step(&mut self) {
            let (warm, live) = (self.state)(&self.inner);
            let mut steps = self.steps.get();
            steps[usize::from(warm)][usize::from(live)] += 1;
            self.steps.set(steps);
            self.inner.step();
        }
        fn cycle(&self) -> u64 {
            self.inner.cycle()
        }
        fn sys(&self) -> &System {
            self.inner.sys()
        }
        fn snapshot_golden(&mut self) {
            self.inner.snapshot_golden();
        }
        fn snapshot_golden_cold(&mut self) {
            self.inner.snapshot_golden_cold();
        }
        fn mismatch_fraction(&self) -> f64 {
            self.inner.mismatch_fraction()
        }
        fn inject(&mut self, bit: usize) {
            self.inner.inject(bit);
        }
        fn check(&self) -> CosimCheck {
            self.inner.check()
        }
        fn retire_golden(&mut self) {
            self.inner.retire_golden();
        }
        fn drained(&self) -> bool {
            self.inner.drained()
        }
        fn erroneous_output(&self) -> Option<u64> {
            self.inner.erroneous_output()
        }
        fn detach(self) -> Detach {
            self.inner.detach()
        }
        fn into_sys(self) -> System {
            self.inner.into_sys()
        }
    }

    #[test]
    fn ccx_runs_on_flops_only_while_the_golden_lives() {
        // Every identity suite passes whichever model the crossbar runs
        // on, so only this notices if the warm-up or a retired run stops
        // being on packets, or a cycle with a live golden is not on flops.
        use crate::campaign::{golden_reference, CampaignSpec};
        use crate::inject::{finish, warm_component, InjectionSpec, WarmedDriver};
        use nestsim_models::ComponentKind;
        use nestsim_telemetry::Recorder;

        let profile = by_name("stre").unwrap();
        let (base, golden) = golden_reference(profile, &CampaignSpec::quick(ComponentKind::Ccx, 1));
        let spec = InjectionSpec {
            component: ComponentKind::Ccx,
            instance: 0,
            bit: Ccx::new().flops().named_bit("pcx0[0].addr", 6),
            inject_cycle: 2_000,
            warmup: 1_000,
            cosim_cap: 4_000,
            check_interval: 16,
        };
        let WarmedDriver::Ccx(w) = warm_component(&base, &golden, &spec, None) else {
            panic!("a CCX spec warmed another component");
        };
        assert!(w.driver.holds_packets(), "the warm-up ran on flops");
        // A group resumes every member but the last from a clone.
        assert!(w.clone().driver.holds_packets(), "a clone holds flops");
        let steps = Paths::default();
        let probed = w.map(|inner| PathProbe {
            inner,
            state: |d: &CcxDriver| (d.holds_packets(), d.golden.is_some()),
            steps: std::rc::Rc::clone(&steps),
        });
        let (record, _) = finish(probed, &golden, &spec, &mut Recorder::null());
        let [[flops_retired, flops_live], [packets_retired, packets_live]] = steps.get();
        println!(
            "{record:?}: live golden {flops_live} on flops, {packets_live} on packets; \
             retired {packets_retired} on packets, {flops_retired} on flops"
        );
        assert!(flops_live > 0, "no cycle ran beside a live golden");
        assert!(packets_retired > 0, "no cycle ran after retirement");
        assert_eq!(packets_live, 0, "cycles with a live golden ran on packets");
        assert_eq!(flops_retired, 0, "cycles after retirement ran on flops");
    }

    #[test]
    fn mcu_runs_on_flops_only_while_the_golden_lives() {
        // As for the crossbar: only this notices if the controller's
        // warm-up or a retired run stops being on plain fields, a cycle
        // with a live golden is not on flops, or the run converts to
        // flops more than once.
        use crate::campaign::{golden_reference, CampaignSpec};
        use crate::inject::{finish, warm_component, InjectionSpec, WarmedDriver};
        use nestsim_models::ComponentKind;
        use nestsim_telemetry::Recorder;

        let profile = by_name("fft").unwrap();
        let (base, golden) = golden_reference(profile, &CampaignSpec::quick(ComponentKind::Mcu, 1));
        let spec = InjectionSpec {
            component: ComponentKind::Mcu,
            instance: 0,
            bit: Mcu::new(McuId::new(0))
                .flops()
                .named_bit("bank[3].timer", 1),
            inject_cycle: 2_000,
            warmup: 1_000,
            cosim_cap: 4_000,
            check_interval: 16,
        };
        let before = CONVERSIONS.with(std::cell::Cell::get);
        let WarmedDriver::Mcu(w) = warm_component(&base, &golden, &spec, None) else {
            panic!("an MCU spec warmed another component");
        };
        assert!(w.driver.holds_fields(), "the warm-up ran on flops");
        assert!(w.clone().driver.holds_fields(), "a clone holds flops");
        assert_eq!(CONVERSIONS.with(std::cell::Cell::get), before);
        let steps = Paths::default();
        let probed = w.map(|inner| PathProbe {
            inner,
            state: |d: &McuDriver| (d.holds_fields(), d.golden.is_some()),
            steps: std::rc::Rc::clone(&steps),
        });
        let (record, _) = finish(probed, &golden, &spec, &mut Recorder::null());
        let conversions = CONVERSIONS.with(std::cell::Cell::get) - before;
        let [[flops_retired, flops_live], [fields_retired, fields_live]] = steps.get();
        println!(
            "{record:?}: live golden {flops_live} on flops, {fields_live} on fields; \
             retired {fields_retired} on fields, {flops_retired} on flops"
        );
        assert_eq!(
            conversions, 1,
            "the run converted to flops {conversions} times"
        );
        assert!(flops_live > 0, "no cycle ran beside a live golden");
        assert!(fields_retired > 0, "no cycle ran after retirement");
        assert_eq!(
            fields_live, 0,
            "cycles with a live golden ran on plain fields"
        );
        assert_eq!(flops_retired, 0, "cycles after retirement ran on flops");
    }

    #[test]
    fn dram_port_tags_skip_live_ones_and_wrap() {
        let mut sys = sys_at("fft", 0);
        let mut port = DramPort::default();
        assert!(port.idle());
        let ack = |tag: u32, is_writeback_ack: bool| DramResp {
            tag,
            bank: BankId::new(0),
            line: LineAddr::new(8),
            data: [7; 8],
            is_writeback_ack,
        };
        // Tags count up from 0 and every one is taken.
        let fill = TagRoute::Fill(BankId::new(0), LineAddr::new(8));
        for want in 0..DRAM_TAGS as u32 {
            let route = if want == 5 { fill } else { TagRoute::Writeback };
            assert_eq!(port.issue(route), want);
        }
        assert_eq!(port.in_flight, DRAM_TAGS);
        // Acks free tags 5 and 9; the count wraps to 0 and skips the live
        // tags up to the first free one.
        port.complete(&mut sys, ack(9, true));
        port.complete(&mut sys, ack(5, false));
        assert_eq!(port.in_flight, DRAM_TAGS - 2);
        assert_eq!(port.issue(TagRoute::Writeback), 5);
        assert_eq!(port.issue(TagRoute::Writeback), 9);
        // Tag 5 acks once; acking it again, or a tag wider than the
        // flops, is a no-op.
        port.complete(&mut sys, ack(5, true));
        port.complete(&mut sys, ack(5, true));
        assert_eq!(port.in_flight, DRAM_TAGS - 1);
        assert_eq!(port.routes[5], TagRoute::Free);
        port.complete(&mut sys, ack(DRAM_TAGS as u32 + 1, true));
        assert_eq!(port.in_flight, DRAM_TAGS - 1);
        // The port is idle exactly when nothing is in flight.
        for tag in 0..DRAM_TAGS as u32 {
            assert!(!port.idle());
            port.complete(&mut sys, ack(tag, true));
        }
        assert!(port.idle() && port.in_flight == 0);
        assert_eq!(port.issue(TagRoute::Writeback), 10, "counting goes on");
    }

    #[test]
    fn l2c_warm_up_runs_on_images_and_the_run_on_flops() {
        // As for the crossbar: only this notices if an L2 bank stops
        // warming up on slot images, or a lane batch converts more than
        // its carrier.
        use crate::campaign::{golden_reference, CampaignSpec};
        use crate::inject::{finish, warm_component, InjectionSpec, WarmedDriver};
        use crate::lanes::{run_l2c_batch, LaneBatchStats};
        use nestsim_models::ComponentKind;
        use nestsim_telemetry::Recorder;

        let profile = by_name("stre").unwrap();
        let (base, golden) = golden_reference(profile, &CampaignSpec::quick(ComponentKind::L2c, 1));
        let named =
            |name: &str, bit: usize| L2cBank::new(BankId::new(0)).flops().named_bit(name, bit);
        let spec = InjectionSpec {
            component: ComponentKind::L2c,
            instance: 0,
            bit: named("iq[0].addr", 6),
            inject_cycle: 2_000,
            warmup: 1_000,
            cosim_cap: 4_000,
            check_interval: 16,
        };
        let WarmedDriver::L2c(w) = warm_component(&base, &golden, &spec, None) else {
            panic!("an L2C spec warmed another component");
        };
        assert!(w.driver.holds_images(), "the warm-up ran on flops");
        assert!(w.clone().driver.holds_images(), "a clone holds flops");
        let steps = Paths::default();
        let probed = w.map(|inner| PathProbe {
            inner,
            state: |d: &L2cDriver| (d.holds_images(), d.golden.is_some()),
            steps: std::rc::Rc::clone(&steps),
        });
        finish(probed, &golden, &spec, &mut Recorder::null());
        let [on_flops, on_images] = steps.get().map(|by_golden| by_golden.iter().sum::<u64>());
        assert!(on_flops > 0, "the run stepped no cycle after the flip");
        assert_eq!(
            on_images,
            0,
            "{on_images} of {} cycles after the flip ran on images",
            on_flops + on_images
        );

        // A batch converts its carrier, once: a lane that leaves for the
        // scalar path forks off the carrier, which holds flops by then.
        let samples: Vec<InjectionSpec> = [
            named("iq[0].addr", 6),
            named("bist.chain[0]", 0),
            named("oq[3].data", 9),
            named("iq.count", 1),
            named("mb[0].valid", 0),
            named("perf.hits", 2),
        ]
        .map(|bit| InjectionSpec { bit, ..spec })
        .into();
        let group: Vec<usize> = (0..samples.len()).collect();
        let before = CONVERSIONS.with(std::cell::Cell::get);
        let mut stats = LaneBatchStats::default();
        let (runs, _) = run_l2c_batch(&base, &golden, &samples, &group, None, &mut stats, None);
        let conversions = CONVERSIONS.with(std::cell::Cell::get) - before;
        assert_eq!(runs.len(), samples.len());
        assert!(
            stats.retired_early > 0 && stats.scalar_fallbacks > 0,
            "{stats:?}"
        );
        assert_eq!(
            conversions, 1,
            "{conversions} conversions for one carrier and {} leavers",
            stats.scalar_fallbacks
        );
    }

    /// One piece of the state an L2C `check` compares (DESIGN.md *What
    /// `check()` compares*), and the verdict a difference in it alone
    /// must give.
    #[derive(Debug, Clone, Copy)]
    enum Piece {
        /// A flop outside every benign payload: `Microarch`.
        Flop,
        /// One `L2BankArch` slot: `ArchMappable`.
        Slot,
        /// One overlay line: `ArchMappable`.
        Overlay,
        /// One DRAM-queue entry: `Microarch`.
        Queue,
    }

    impl Piece {
        const ALL: [Piece; 4] = [Piece::Flop, Piece::Slot, Piece::Overlay, Piece::Queue];

        fn verdict(self) -> CosimCheck {
            match self {
                Piece::Flop | Piece::Queue => CosimCheck::Microarch,
                Piece::Slot | Piece::Overlay => CosimCheck::ArchMappable,
            }
        }

        /// Changes this piece, and only it, on one side of a compare.
        fn perturb(self, side: &mut BankSide, base: &DramContents) {
            let bank = side.bank.flops();
            match self {
                Piece::Flop => {
                    let bit = bank.flops().named_bit("iq.count", 0);
                    bank.flops_mut().flip(bit);
                }
                Piece::Slot => {
                    let mut arch = bank.arch().clone();
                    let addr = nestsim_proto::addr::PAddr::new(0);
                    arch.write_word_at(0, addr, !arch.read_word_at(0, addr));
                    bank.load_arch(arch);
                }
                Piece::Overlay => {
                    let line = LineAddr::new(0);
                    let mut data = side.ov.read_line(base, line);
                    data[0] = !data[0];
                    side.ov.write_line(line, data);
                }
                Piece::Queue => {
                    let cmd = DramCmd::fill(0, BankId::new(0), LineAddr::new(0));
                    side.dram.push(0, cmd);
                }
            }
        }
    }

    #[test]
    fn l2c_check_gives_each_compared_piece_its_verdict_for_driver_and_lane() {
        // Parking and retirement are as sound as this table: a
        // difference in any one compared piece must keep the run out of
        // `Identical`. Both callers of the one L2C compare are held to
        // it: the scalar driver (the target differs from its golden twin)
        // and a batch (a lane differs from its carrier).
        let mut warmed = L2cDriver::attach(sys_at("radi", 500), BankId::new(0));
        for _ in 0..1_000 {
            warmed.step();
        }
        let mut scalar = warmed.clone();
        scalar.snapshot_golden();
        assert_eq!(scalar.check(), CosimCheck::Identical);
        let mut carrier = warmed;
        let lane = carrier.twin();
        assert_eq!(carrier.check_lane(&lane), CosimCheck::Identical);

        for piece in Piece::ALL {
            let mut drv = scalar.clone();
            piece.perturb(&mut drv.target, drv.sys.dram());
            assert_eq!(drv.check(), piece.verdict(), "driver, {piece:?}");

            let mut lane = carrier.twin();
            piece.perturb(&mut lane, carrier.sys.dram());
            let got = carrier.check_lane(&lane);
            assert_eq!(got, piece.verdict(), "lane, {piece:?}");
        }
    }

    #[test]
    fn pcie_uninjected_cosim_stays_identical() {
        // Attach while the DMA is active.
        let mut drv = PcieDriver::attach(sys_at("p-lr", 200));
        for _ in 0..200 {
            drv.step();
        }
        drv.snapshot_golden();
        let drv = drive_checked(drv, 2_000);
        assert_eq!(drv.check(), CosimCheck::Identical);
        assert!(drv.erroneous_output().is_none());
    }

    #[test]
    fn l2c_address_flip_produces_arch_divergence() {
        use nestsim_models::UncoreRtl;
        let mut drv = L2cDriver::attach(sys_at("radi", 500), BankId::new(0));
        for _ in 0..1_500 {
            drv.step();
        }
        drv.snapshot_golden();
        // Corrupt a *resident cache line* via the golden-visible arch:
        // flip a data bit in a store sitting in the miss buffer if any;
        // fall back to an address bit of IQ entry 0.
        let target = drv
            .target()
            .expect("the golden snapshot converted the bank");
        let bit = target
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "iq[0].addr")
            .map(|f| f.offset + 8)
            .unwrap();
        drv.inject(bit);
        let mut saw_non_identical = false;
        for _ in 0..4_000 {
            drv.step();
            if drv.check() != CosimCheck::Identical {
                saw_non_identical = true;
                break;
            }
        }
        // The flip either mattered (divergence observed) or the entry
        // was idle (benign) — it must never be silently identical AND
        // flagged clean while bits differ.
        if !saw_non_identical {
            assert_eq!(
                drv.mismatch_fraction(),
                0.0,
                "identical check with differing bits"
            );
        }
    }

    #[test]
    fn mcu_detach_serves_stranded_fills_functionally() {
        let mut drv = McuDriver::attach(sys_at("fft", 500), McuId::new(0));
        // Accumulate some traffic, then detach mid-flight (forced).
        for _ in 0..300 {
            drv.step();
        }
        let waiting_before = drv.sys().waiting_on_uncore();
        let detach = drv.detach();
        let mut sys = detach.sys;
        // The stranded fills were completed functionally at detach (or
        // there were none).
        assert!(sys.waiting_on_uncore() <= waiting_before);
        sys.run_until(sys.cycle() + 5_000);
        assert!(sys.trap().is_none());
    }

    #[test]
    fn cosim_check_exitability_matrix() {
        assert!(CosimCheck::Identical.exitable());
        assert!(CosimCheck::BenignOnly.exitable());
        assert!(CosimCheck::ArchMappable.exitable());
        assert!(!CosimCheck::Microarch.exitable());
    }
}
