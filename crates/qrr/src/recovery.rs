//! QRR-augmented co-simulation and the Sec. 6.4 recovery evaluation.
//!
//! [`QrrL2cDriver`] is the mixed-mode L2C co-simulation driver with the
//! QRR hardware attached: logic parity over the covered flops, the
//! record table with its monitors, and the replay FSM. No golden copy
//! is needed — recovery correctness is judged end-to-end by running the
//! application to completion and comparing its output digest against
//! the error-free reference, the strictest possible check. The MCU's
//! [`crate::QrrMcuDriver`] shares its run and campaign loop.
//!
//! Known corner (the paper's footnote 14 concedes such cases exist): a
//! read-modify-write atomic whose array update committed but whose
//! return packet was destroyed by the reset is re-executed by replay
//! and double-applies its addend. The Sec. 6.3 idempotence property is
//! verified for loads/stores by property test
//! (`replaying_a_suffix_is_idempotent`); the workloads never fold
//! atomic results into outputs, mirroring how such ops are used for
//! synchronisation in the benchmarks.

use std::collections::VecDeque;

use nestsim_core::campaign::{golden_reference, injection_window, instances_of, CampaignSpec};
use nestsim_core::cosim::{Component, L2cPort, COSIM_DRAM_LATENCY};
use nestsim_core::inject::{GoldenRef, MIN_WARMUP};
use nestsim_core::Outcome;
use nestsim_hlsim::workload::BenchProfile;
use nestsim_hlsim::{InterceptMode, System};
use nestsim_models::l2c::L2cInputs;
use nestsim_models::{ComponentKind, L2cBank, UncoreRtl};
use nestsim_proto::addr::BankId;
use nestsim_proto::{DramCmd, DramCmdKind, DramResp, PcxPacket};
use nestsim_rtl::{FlopClass, FlopSpace, ParityDetector, ParityPlan};
use nestsim_stats::{seed::SplitRng, SeedSeq};
use nestsim_telemetry::{names, EventKind, Recorder};

use crate::controller::QrrController;

/// Worst-case recovery budget the paper quotes for L2C ("fewer than
/// 5,000 cycles" when every replayed packet is a load miss).
pub const PAPER_WORST_CASE_RECOVERY: u64 = 5_000;

/// Result of one QRR-protected injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QrrRecord {
    /// Application outcome.
    pub outcome: Outcome,
    /// The flipped bit (the first of a burst).
    pub bit: usize,
    /// Whether parity detected the flip (i.e. the flop was covered).
    pub detected: bool,
    /// Whether the application finished with the error-free output.
    pub recovered: bool,
    /// Cycles from detection until normal operation resumed.
    pub recovery_cycles: u64,
}

/// A co-simulation driver with the QRR hardware attached: what the
/// protected run needs of it. Each driver keeps its own `step`, the
/// cycle of its component with parity, record table and replay.
pub trait QrrDriver: Sized {
    /// The protected component.
    const KIND: ComponentKind;

    /// Advances one cycle.
    fn step(&mut self);

    /// Flips every bit of `bits` in the same cycle, as from one particle
    /// strike. Detection follows real parity physics: an even number of
    /// flips under one XOR tree cancels and escapes. If parity sees the
    /// flips, the write paths are gated at once (the Sec. 6.2 fix routing
    /// individual error signals to the write disables) and the aggregated
    /// detection reaches the controller a few cycles later. Returns
    /// whether parity saw them.
    fn flip(&mut self, bits: &[usize]) -> bool;

    /// True when detaching would strand nothing.
    fn drained(&self) -> bool;

    /// The underlying system.
    fn sys(&self) -> &System;

    /// Ends co-simulation and resumes pure accelerated mode.
    fn detach(self) -> System;

    /// Recoveries the controller performed, and the cycles the last one
    /// took.
    fn recoveries(&self) -> (u64, u64);
}

/// [`QrrDriver::flip`] on `flops` at `cycle`, up to the write gating:
/// returns whether `detector` has a detection pending.
pub(crate) fn flip_under_parity(
    flops: &mut FlopSpace,
    detector: &mut ParityDetector,
    bits: &[usize],
    cycle: u64,
) -> bool {
    for &bit in bits {
        flops.flip(bit);
        detector.observe_flip(bit, cycle);
    }
    detector.is_pending()
}

/// The `Target` flops of `flops` that the Sec. 6.4 parity plan covers.
pub(crate) fn parity_covered(flops: &FlopSpace) -> Vec<usize> {
    let plan = ParityPlan::for_qrr(flops);
    (flops.bits_where(|c| c == FlopClass::Target).into_iter())
        .filter(|&b| plan.covers(b))
        .collect()
}

/// The QRR-protected L2C co-simulation driver.
#[derive(Debug)]
pub struct QrrL2cDriver {
    sys: System,
    bank: BankId,
    /// The protected bank.
    pub target: L2cBank,
    /// The QRR controller (hardened; plain state).
    pub ctrl: QrrController<PcxPacket>,
    detector: ParityDetector,
    dram_q: VecDeque<(u64, DramCmd)>,
    port: L2cPort,
}

impl QrrL2cDriver {
    /// Attaches QRR co-simulation for `bank`.
    pub fn attach(mut sys: System, bank: BankId) -> Self {
        let target = L2cBank::with_arch(bank, sys.bank_arch(bank).clone());
        sys.set_intercept(InterceptMode::Bank(bank));
        let plan = ParityPlan::for_qrr(target.flops());
        QrrL2cDriver {
            sys,
            bank,
            target,
            ctrl: QrrController::new(),
            detector: ParityDetector::new(plan),
            dram_q: VecDeque::new(),
            port: L2cPort::default(),
        }
    }

    /// The same driver with parity over `plan` (e.g. an interleaved
    /// layout) instead of the Sec. 6.4 one.
    pub fn with_parity_plan(self, plan: ParityPlan) -> Self {
        QrrL2cDriver {
            detector: ParityDetector::new(plan),
            ..self
        }
    }
}

impl QrrDriver for QrrL2cDriver {
    const KIND: ComponentKind = ComponentKind::L2c;

    fn step(&mut self) {
        let cyc = self.sys.cycle() + 1;
        self.sys.run_until(cyc);
        self.port.intake(&mut self.sys);

        // Aggregated parity signal reaches the controller.
        if self.detector.fired(cyc) {
            self.ctrl.on_error_detected(cyc);
            // Assert reset: flops cleared, configuration retained, the
            // preserved arrays untouched (Sec. 6.2). Write gating ends
            // with the reset.
            self.target.reset_for_replay();
            // The reset also aborts the DRAM *read* interface: stale
            // fill responses would otherwise match the tags of
            // freshly-allocated (replayed) miss-buffer entries and
            // complete them with the wrong line. Posted writebacks
            // carry dirty data that exists nowhere else and must still
            // commit.
            self.dram_q
                .retain(|(_, cmd)| cmd.kind == DramCmdKind::Writeback);
            self.ctrl.on_reset_done();
        }

        // DRAM responses (to the preserved engine-side queue).
        let resp: Option<DramResp> = match self.dram_q.front() {
            Some((ready, _)) if *ready <= cyc => {
                let (_, cmd) = self.dram_q.pop_front().unwrap();
                match cmd.kind {
                    DramCmdKind::Fill => Some(DramResp {
                        tag: cmd.tag,
                        bank: cmd.bank,
                        line: cmd.line,
                        data: self.sys.dram().read_line(cmd.line),
                        is_writeback_ack: false,
                    }),
                    DramCmdKind::Writeback => {
                        self.sys.dram_mut().write_line(cmd.line, cmd.data);
                        None
                    }
                }
            }
            _ => None,
        };

        // Input selection: replay packets have priority; new packets
        // are blocked during recovery (Sec. 6.2) and when the record
        // table is full (back-pressure).
        let pcx = if self.ctrl.blocking_new_requests() {
            if self.target.ready() {
                self.ctrl.next_replay()
            } else {
                None
            }
        } else {
            let pcx = (self.port).accept(|_| self.target.ready() && self.ctrl.can_record());
            if let Some(p) = &pcx {
                self.ctrl.on_request_accepted(p.id.0, p);
            }
            pcx
        };

        let out = self.target.tick(&L2cInputs {
            pcx,
            dram_resp: resp,
        });

        if let Some(cmd) = out.dram_cmd {
            self.dram_q.push_back((cyc + COSIM_DRAM_LATENCY, cmd));
        }
        if let Some(cpx) = out.cpx {
            let still = self.target.inflight_miss_ids().contains(&cpx.id);
            // The controller gates duplicate responses for entries whose
            // return packet was already delivered before recovery (a
            // core traps on unexpected CPX packets).
            let duplicate = self.ctrl.was_answered(cpx.id.0);
            self.ctrl.on_return_packet(cpx.id.0, still);
            if !duplicate {
                self.sys.deliver_cpx(cpx);
            }
        }
        if let Some(id) = out.store_miss_done {
            self.ctrl.on_post_processing_done(id.0);
        }

        self.ctrl.poll_recovery_complete(cyc);
    }

    fn flip(&mut self, bits: &[usize]) -> bool {
        let cycle = self.sys.cycle();
        let detected = flip_under_parity(self.target.flops_mut(), &mut self.detector, bits, cycle);
        if detected {
            self.target.set_write_block(true);
        }
        detected
    }

    fn drained(&self) -> bool {
        self.port.idle()
            && self.target.idle()
            && self.dram_q.is_empty()
            && self.sys.waiting_on_uncore() == 0
            && !self.ctrl.blocking_new_requests()
    }

    fn sys(&self) -> &System {
        &self.sys
    }

    /// Transfers the bank's architectural state back and serves the
    /// packets it never accepted functionally.
    fn detach(mut self) -> System {
        self.sys.set_bank_arch(self.bank, self.target.arch());
        self.sys.set_intercept(InterceptMode::None);
        self.port.serve_stranded(&mut self.sys);
        self.sys
    }

    fn recoveries(&self) -> (u64, u64) {
        (self.ctrl.recoveries, self.ctrl.last_recovery_cycles)
    }
}

/// Runs one QRR-protected injection of `bits` on the driver `attach`
/// builds (analogous to [`nestsim_core::inject::run_injection`] but with
/// the QRR hardware in the loop) and judges recovery end-to-end. Parity
/// detections, replay attempts and recovery outcomes go into `rec`.
pub fn run_qrr_injection<D: QrrDriver>(
    base: &System,
    golden: &GoldenRef,
    attach: impl FnOnce(System) -> D,
    bits: &[usize],
    inject_cycle: u64,
    warmup: u64,
    rec: &mut Recorder,
) -> QrrRecord {
    let comp = D::KIND.name();
    let warmup = warmup.max(MIN_WARMUP);
    let mut sys = base.clone();
    sys.set_watchdog(golden.watchdog());
    sys.run_until(inject_cycle.saturating_sub(warmup));
    let mut drv = attach(sys);
    for _ in 0..warmup {
        drv.step();
    }
    let detected = drv.flip(bits);
    rec.count(names::QRR_RUNS, 1);
    if detected {
        rec.count(names::QRR_DETECTED, 1);
        let cycle = drv.sys().cycle();
        rec.event(cycle, comp, EventKind::ParityDetected, bits[0] as u64);
    }

    // Run co-simulation until recovery completes and traffic drains
    // (bounded; undetected flips may simply never show activity).
    for budget in (0..60_000u64).rev() {
        drv.step();
        if drv.sys().trap().is_some() || (budget.is_multiple_of(32) && drv.drained()) {
            break;
        }
    }
    let (recoveries, recovery_cycles) = drv.recoveries();
    rec.count(names::QRR_REPLAY_ATTEMPTS, recoveries);
    let mut sys = drv.detach();
    let outcome = golden.verdict(&sys.run_to_end());
    let recovered = outcome == Outcome::Vanished;
    if detected {
        if recovered {
            rec.count(names::QRR_RECOVERED, 1);
            rec.record_hist(names::H_QRR_RECOVERY, recovery_cycles);
        } else {
            rec.count(names::QRR_FAILED, 1);
        }
        let failed = u64::from(!recovered);
        rec.event(sys.cycle(), comp, EventKind::ReplayOutcome, failed);
    }
    QrrRecord {
        outcome,
        bit: bits[0],
        detected,
        recovered,
        recovery_cycles,
    }
}

/// The one Sec. 6.4 campaign loop: `samples` protected runs on `D`'s
/// component, drawn from the seed stream `salt`. Each sample draws its
/// bits (`choose`), its injection cycle from the component's
/// [`injection_window`], its warm-up and its instance, in that order,
/// and runs on the driver `attach` builds for that instance.
#[allow(
    clippy::too_many_arguments,
    reason = "the cell (4), the draw (3) and the recorder"
)]
pub(crate) fn campaign<'a, D: QrrDriver>(
    profile: &'static BenchProfile,
    samples: u64,
    seed: u64,
    length_scale: u64,
    salt: &str,
    choose: impl Fn(&mut SplitRng) -> &'a [usize],
    attach: impl Fn(System, usize) -> D,
    rec: &mut Recorder,
) -> Vec<QrrRecord> {
    let spec = CampaignSpec {
        seed,
        length_scale,
        ..CampaignSpec::new(D::KIND, samples)
    };
    let (base, golden) = golden_reference(profile, &spec);
    let (lo, hi) = injection_window(D::KIND, profile, &golden);
    let instances = instances_of(D::KIND) as u64;
    let root = SeedSeq::new(seed).derive(salt).derive(profile.name);
    (0..samples)
        .map(|k| {
            let mut rng = root.derive_index(k).rng();
            let bits = choose(&mut rng);
            let cycle = rng.range(lo, hi);
            let warmup = MIN_WARMUP + rng.below(1_000);
            let instance = rng.below(instances) as usize;
            let attach = |sys| attach(sys, instance);
            run_qrr_injection(&base, &golden, attach, bits, cycle, warmup, rec)
        })
        .collect()
}

/// Aggregate results of a QRR evaluation campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QrrEval {
    /// Runs with a parity-covered flip.
    pub covered_runs: u64,
    /// Covered runs that recovered to the error-free output.
    pub covered_recovered: u64,
    /// Longest observed recovery.
    pub max_recovery_cycles: u64,
}

impl QrrEval {
    /// Tallies a campaign's records.
    pub(crate) fn of(records: &[QrrRecord]) -> Self {
        let covered = records.iter().filter(|r| r.detected);
        QrrEval {
            covered_runs: covered.clone().count() as u64,
            covered_recovered: covered.filter(|r| r.recovered).count() as u64,
            max_recovery_cycles: (records.iter())
                .map(|r| r.recovery_cycles)
                .max()
                .unwrap_or(0),
        }
    }
}

/// Runs a QRR evaluation campaign over parity-covered flops of the L2C
/// (the Sec. 6.4 experiment: "QRR successfully recovered from all
/// errors injected into the flip-flops covered by logic parity"). Per-run
/// QRR telemetry is recorded into `rec` in sample order (the campaign
/// is serial, so that is the execution order).
pub fn qrr_campaign(
    profile: &'static BenchProfile,
    samples: u64,
    seed: u64,
    length_scale: u64,
    rec: &mut Recorder,
) -> (QrrEval, Vec<QrrRecord>) {
    let covered = parity_covered(L2cBank::new(BankId::new(0)).flops());
    let records = campaign(
        profile,
        samples,
        seed,
        length_scale,
        "qrr",
        |rng| std::slice::from_ref(rng.pick(&covered)),
        |sys, bank| QrrL2cDriver::attach(sys, BankId::new(bank)),
        rec,
    );
    (QrrEval::of(&records), records)
}

/// Aggregate results of a burst-injection campaign (the multi-bit
/// extension experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BurstEval {
    /// Bursts injected.
    pub runs: u64,
    /// Bursts parity detected.
    pub detected: u64,
    /// Detected bursts that recovered to the error-free output.
    pub recovered: u64,
    /// Undetected bursts that nevertheless produced the correct output
    /// (the flips vanished on their own).
    pub escaped_benign: u64,
    /// Undetected bursts that corrupted the application — QRR's
    /// multi-bit blind spot.
    pub silent_failures: u64,
}

/// Runs a QRR burst-injection campaign: `width` adjacent `Target` flops
/// of the L2C flip simultaneously, as from a single particle strike (the
/// paper's future-work "broader class of errors"). With the default
/// blocked parity layout, even-width bursts inside one XOR tree cancel
/// and escape detection; with `interleaved = true`, adjacent flops sit
/// under different trees and every burst is caught — the standard
/// interleaving mitigation, quantified.
pub fn burst_campaign(
    profile: &'static BenchProfile,
    samples: u64,
    width: usize,
    interleaved: bool,
    seed: u64,
    length_scale: u64,
) -> BurstEval {
    let reference = L2cBank::new(BankId::new(0));
    let targets = reference.flops().bits_where(|c| c == FlopClass::Target);
    let plan = if interleaved {
        ParityPlan::for_qrr_interleaved(reference.flops())
    } else {
        ParityPlan::for_qrr(reference.flops())
    };
    let records = campaign(
        profile,
        samples,
        seed,
        length_scale,
        "qrr-burst",
        |rng| {
            // A burst strikes `width` *physically adjacent* flops.
            let start = rng.below((targets.len() - width) as u64) as usize;
            &targets[start..start + width]
        },
        |sys, bank| QrrL2cDriver::attach(sys, BankId::new(bank)).with_parity_plan(plan.clone()),
        &mut Recorder::null(),
    );
    let count = |of: fn(&QrrRecord) -> bool| records.iter().filter(|r| of(r)).count() as u64;
    BurstEval {
        runs: records.len() as u64,
        detected: count(|r| r.detected),
        recovered: count(|r| r.detected && r.recovered),
        escaped_benign: count(|r| !r.detected && r.recovered),
        silent_failures: count(|r| !r.detected && !r.recovered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_hlsim::workload::by_name;

    fn setup() -> (System, GoldenRef) {
        let spec = CampaignSpec::quick(ComponentKind::L2c, 1);
        golden_reference(by_name("radi").unwrap(), &spec)
    }

    /// One protected run on bank 0 flipping `bit` at `cycle`.
    fn run(base: &System, golden: &GoldenRef, bit: usize, cycle: u64) -> QrrRecord {
        let attach = |sys| QrrL2cDriver::attach(sys, BankId::new(0));
        let rec = &mut Recorder::null();
        run_qrr_injection(base, golden, attach, &[bit], cycle, MIN_WARMUP, rec)
    }

    fn covered_bit(name: &str, offset: usize) -> usize {
        let bank = L2cBank::new(BankId::new(0));
        bank.flops()
            .fields()
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.offset + offset)
            .unwrap()
    }

    #[test]
    fn covered_flip_is_detected_and_recovered() {
        let (base, golden) = setup();
        // An IQ address bit: covered by parity, and dangerous without
        // QRR (it redirects a request to the wrong line).
        let bit = covered_bit("iq[0].addr", 10);
        let r = run(&base, &golden, bit, 2_500);
        assert!(r.detected, "parity must detect a covered flip");
        assert!(r.recovered, "QRR must recover: {r:?}");
        assert_eq!(r.outcome, Outcome::Vanished);
    }

    #[test]
    fn valid_bit_flip_is_recovered_by_replay() {
        let (base, golden) = setup();
        // Dropping a request via a valid-bit flip hangs the app without
        // QRR; with QRR the replay re-executes the recorded packet.
        let bit = covered_bit("iq[0].valid", 0);
        let r = run(&base, &golden, bit, 3_000);
        assert!(r.detected);
        assert!(
            r.recovered,
            "replay must resurrect the dropped request: {r:?}"
        );
    }

    #[test]
    fn uncovered_timing_critical_flip_is_not_detected() {
        let (base, golden) = setup();
        let bank = L2cBank::new(BankId::new(0));
        let bit = bank
            .flops()
            .fields()
            .iter()
            .find(|f| f.class == FlopClass::TimingCritical)
            .map(|f| f.offset)
            .unwrap();
        let r = run(&base, &golden, bit, 2_500);
        assert!(!r.detected, "hardened flops are outside parity coverage");
    }

    #[test]
    fn adjacent_double_burst_escapes_blocked_parity() {
        // Two adjacent covered flops under one XOR tree: parity stays
        // even → undetected. Under interleaving, the same burst is
        // caught.
        let (base, _) = setup();
        let bank = L2cBank::new(BankId::new(0));
        let covered = bank.flops().bits_where(|c| c == FlopClass::Target);
        let bits = [covered[0], covered[1]];
        let mut sys = base.clone();
        sys.run_until(1_000);
        let mut drv = QrrL2cDriver::attach(sys, BankId::new(0));
        assert!(!drv.flip(&bits), "blocked layout must miss");

        let mut sys2 = base.clone();
        sys2.run_until(1_000);
        let interleaved = ParityPlan::for_qrr_interleaved(bank.flops());
        let mut drv2 = QrrL2cDriver::attach(sys2, BankId::new(0)).with_parity_plan(interleaved);
        assert!(drv2.flip(&bits), "interleaved layout must catch");
    }

    #[test]
    fn interleaved_burst_campaign_detects_everything() {
        let e = burst_campaign(by_name("radi").unwrap(), 6, 2, true, 5, 200);
        assert_eq!(e.detected, e.runs, "interleaving catches every burst");
        assert_eq!(e.silent_failures, 0);
        assert_eq!(e.recovered, e.detected, "and QRR recovers them: {e:?}");
    }

    #[test]
    fn small_qrr_campaign_recovers_every_covered_flip() {
        let (eval, records) =
            qrr_campaign(by_name("radi").unwrap(), 10, 77, 100, &mut Recorder::null());
        assert_eq!(records.len(), 10);
        assert!(eval.covered_runs > 0, "campaign must hit covered flops");
        assert_eq!(
            eval.covered_recovered, eval.covered_runs,
            "Sec. 6.4: all covered injections recover ({records:?})"
        );
        assert!(
            eval.max_recovery_cycles < PAPER_WORST_CASE_RECOVERY,
            "recovery took {} cycles",
            eval.max_recovery_cycles
        );
    }
}
