//! QRR-augmented co-simulation and the Sec. 6.4 recovery evaluation.
//!
//! [`QrrL2cDriver`] is the mixed-mode L2C co-simulation driver with the
//! QRR hardware attached: logic parity over the covered flops, the
//! record table with its monitors, and the replay FSM. No golden copy
//! is needed — recovery correctness is judged end-to-end by running the
//! application to completion and comparing its output digest against
//! the error-free reference, the strictest possible check.
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

use nestsim_core::inject::{GoldenRef, MIN_WARMUP};
use nestsim_core::Outcome;
use nestsim_hlsim::workload::BenchProfile;
use nestsim_hlsim::{InterceptMode, OutMsg, RunResult, System};
use nestsim_models::l2c::L2cInputs;
use nestsim_models::{L2cBank, UncoreRtl};
use nestsim_proto::addr::BankId;
use nestsim_proto::{DramCmd, DramCmdKind, DramResp, PcxPacket};
use nestsim_rtl::{ParityDetector, ParityPlan};
use nestsim_stats::SeedSeq;
use nestsim_telemetry::{names, EventKind, Recorder};

use crate::controller::QrrController;

/// DRAM round-trip latency during QRR co-simulation (matches the plain
/// driver so timing behaviour is comparable).
pub const QRR_DRAM_LATENCY: u64 = 40;
/// Worst-case recovery budget the paper quotes for L2C ("fewer than
/// 5,000 cycles" when every replayed packet is a load miss).
pub const PAPER_WORST_CASE_RECOVERY: u64 = 5_000;

/// Result of one QRR-protected injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QrrRecord {
    /// Application outcome.
    pub outcome: Outcome,
    /// The flipped bit.
    pub bit: usize,
    /// Whether parity detected the flip (i.e. the flop was covered).
    pub detected: bool,
    /// Whether the application finished with the error-free output.
    pub recovered: bool,
    /// Cycles from detection until normal operation resumed.
    pub recovery_cycles: u64,
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
    inbox: VecDeque<PcxPacket>,
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
            inbox: VecDeque::new(),
        }
    }

    /// Injects a flip at `bit`. If the flop is parity-covered, the
    /// write paths are gated immediately (the Sec. 6.2 fix routing
    /// individual error signals to the write disables) and the
    /// aggregated detection reaches the controller a few cycles later.
    /// Returns whether the flip was detected.
    pub fn inject(&mut self, bit: usize) -> bool {
        self.inject_burst(&[bit])
    }

    /// Injects a multi-bit burst (the paper's future-work "broader
    /// class of errors"): all bits flip in the same cycle, as from a
    /// single particle strike spanning adjacent flops. Detection
    /// follows real parity physics — an even number of flips under the
    /// same XOR tree cancels and escapes (see
    /// [`nestsim_rtl::ParityDetector::observe_flip`]). Returns whether
    /// the burst was detected.
    pub fn inject_burst(&mut self, bits: &[usize]) -> bool {
        let cyc = self.sys.cycle();
        for &bit in bits {
            self.target.flops_mut().flip(bit);
            self.detector.observe_flip(bit, cyc);
        }
        if self.detector.is_pending() {
            self.target.set_write_block(true);
            true
        } else {
            false
        }
    }

    /// Replaces the parity plan (e.g. with an interleaved layout) —
    /// must be called before any injection.
    pub fn set_parity_plan(&mut self, plan: ParityPlan) {
        self.detector = ParityDetector::new(plan);
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        let cyc = self.sys.cycle() + 1;
        self.sys.run_until(cyc);
        while let Some(msg) = self.sys.pop_outbox() {
            match msg {
                OutMsg::Pcx(p) => self.inbox.push_back(p),
                other => unreachable!("unexpected outbox message {other:?}"),
            }
        }

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
        } else if self.target.ready() && self.ctrl.can_record() {
            if let Some(p) = self.inbox.pop_front() {
                self.ctrl.on_request_accepted(p.id.0, &p);
                Some(p)
            } else {
                None
            }
        } else {
            None
        };

        let out = self.target.tick(&L2cInputs {
            pcx,
            dram_resp: resp,
        });

        if let Some(cmd) = out.dram_cmd {
            self.dram_q.push_back((cyc + QRR_DRAM_LATENCY, cmd));
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

    /// True when detaching would strand nothing.
    pub fn drained(&self) -> bool {
        self.inbox.is_empty()
            && self.target.idle()
            && self.dram_q.is_empty()
            && self.sys.waiting_on_uncore() == 0
            && !self.ctrl.blocking_new_requests()
    }

    /// The underlying system.
    pub fn sys(&self) -> &System {
        &self.sys
    }

    /// Ends co-simulation: transfers the bank's architectural state
    /// back and resumes pure accelerated mode.
    pub fn detach(mut self) -> System {
        self.sys
            .set_bank_arch(self.bank, self.target.arch().clone());
        self.sys.set_intercept(InterceptMode::None);
        while let Some(p) = self.inbox.pop_front() {
            let reply = self.sys.service_request_functionally(&p);
            self.sys.deliver_cpx(reply);
        }
        self.sys
    }
}

/// Runs one QRR-protected injection (analogous to
/// [`nestsim_core::inject::run_injection`] but with the QRR hardware
/// in the loop) and judges recovery end-to-end.
pub fn run_qrr_injection(
    base: &System,
    golden: &GoldenRef,
    bank: usize,
    bit: usize,
    inject_cycle: u64,
    warmup: u64,
) -> QrrRecord {
    run_qrr_injection_with(
        base,
        golden,
        bank,
        bit,
        inject_cycle,
        warmup,
        &mut Recorder::null(),
    )
}

/// [`run_qrr_injection`] with telemetry: parity detections, replay
/// attempts and recovery outcomes are recorded into `rec`.
#[allow(clippy::too_many_arguments)] // mirrors run_injection_with's published signature
pub fn run_qrr_injection_with(
    base: &System,
    golden: &GoldenRef,
    bank: usize,
    bit: usize,
    inject_cycle: u64,
    warmup: u64,
    rec: &mut Recorder,
) -> QrrRecord {
    let entry = inject_cycle.saturating_sub(warmup.max(MIN_WARMUP));
    let mut sys = base.clone();
    sys.set_watchdog(2 * golden.cycles + 50_000);
    sys.run_until(entry);
    let mut drv = QrrL2cDriver::attach(sys, BankId::new(bank % 8));
    for _ in 0..warmup.max(MIN_WARMUP) {
        drv.step();
    }
    let detected = drv.inject(bit);
    rec.count(names::QRR_RUNS, 1);
    if detected {
        rec.count(names::QRR_DETECTED, 1);
        rec.event(
            drv.sys().cycle(),
            "L2C",
            EventKind::ParityDetected,
            bit as u64,
        );
    }

    // Run co-simulation until recovery completes and traffic drains
    // (bounded; undetected flips may simply never show activity).
    let mut budget = 60_000u64;
    while budget > 0 {
        drv.step();
        budget -= 1;
        if drv.sys().trap().is_some() {
            break;
        }
        if budget.is_multiple_of(32) && drv.drained() {
            break;
        }
    }
    let recovery_cycles = drv.ctrl.last_recovery_cycles;
    rec.count(names::QRR_REPLAY_ATTEMPTS, drv.ctrl.recoveries);
    let mut sys = drv.detach();
    let result = sys.run_to_end();
    let (outcome, recovered) = match result {
        RunResult::Trapped { .. } => (Outcome::Ut, false),
        RunResult::Hang { .. } => (Outcome::Hang, false),
        RunResult::Completed { digest, .. } => {
            if digest == golden.digest {
                (Outcome::Vanished, true)
            } else {
                (Outcome::Omm, false)
            }
        }
    };
    if detected {
        if recovered {
            rec.count(names::QRR_RECOVERED, 1);
            rec.record_hist(names::H_QRR_RECOVERY, recovery_cycles);
        } else {
            rec.count(names::QRR_FAILED, 1);
        }
        rec.event(
            sys.cycle(),
            "L2C",
            EventKind::ReplayOutcome,
            u64::from(!recovered),
        );
    }
    QrrRecord {
        outcome,
        bit,
        detected,
        recovered,
        recovery_cycles,
    }
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

/// Runs a QRR evaluation campaign over parity-covered flops of the L2C
/// (the Sec. 6.4 experiment: "QRR successfully recovered from all
/// errors injected into the flip-flops covered by logic parity").
pub fn qrr_campaign(
    profile: &'static BenchProfile,
    samples: u64,
    seed: u64,
    length_scale: u64,
) -> (QrrEval, Vec<QrrRecord>) {
    qrr_campaign_with(profile, samples, seed, length_scale, &mut Recorder::null())
}

/// [`qrr_campaign`] with telemetry: per-run QRR telemetry is merged
/// into `rec` in sample order (the campaign is serial, so the merge
/// order is the execution order).
pub fn qrr_campaign_with(
    profile: &'static BenchProfile,
    samples: u64,
    seed: u64,
    length_scale: u64,
    rec: &mut Recorder,
) -> (QrrEval, Vec<QrrRecord>) {
    use nestsim_core::campaign::{golden_reference, CampaignSpec};
    use nestsim_models::ComponentKind;

    let spec = CampaignSpec {
        seed,
        length_scale,
        ..CampaignSpec::new(ComponentKind::L2c, samples)
    };
    let (base, golden) = golden_reference(profile, &spec);
    let covered_bits: Vec<usize> = {
        let bank = L2cBank::new(BankId::new(0));
        let plan = ParityPlan::for_qrr(bank.flops());
        bank.flops()
            .bits_where(|c| c == nestsim_rtl::FlopClass::Target)
            .into_iter()
            .filter(|&b| plan.covers(b))
            .collect()
    };
    let root = SeedSeq::new(seed).derive("qrr").derive(profile.name);
    let mut eval = QrrEval::default();
    let mut records = Vec::with_capacity(samples as usize);
    let hi = (golden.cycles * 9 / 10).max(MIN_WARMUP + 128);
    for k in 0..samples {
        let mut rng = root.derive_index(k).rng();
        let bit = *rng.pick(&covered_bits);
        let cycle = rng.range(MIN_WARMUP + 64, hi.max(MIN_WARMUP + 65));
        let warmup = MIN_WARMUP + rng.below(1_000);
        let bank = rng.below(8) as usize;
        let r = run_qrr_injection_with(&base, &golden, bank, bit, cycle, warmup, rec);
        eval.covered_runs += u64::from(r.detected);
        eval.covered_recovered += u64::from(r.detected && r.recovered);
        eval.max_recovery_cycles = eval.max_recovery_cycles.max(r.recovery_cycles);
        records.push(r);
    }
    (eval, records)
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

/// Runs a QRR burst-injection campaign: `width` adjacent covered flops
/// flip simultaneously. With the default blocked parity layout,
/// even-width bursts inside one XOR tree cancel and escape detection;
/// with `interleaved = true`, adjacent flops sit under different trees
/// and every burst is caught — the standard interleaving mitigation,
/// quantified.
pub fn burst_campaign(
    profile: &'static BenchProfile,
    samples: u64,
    width: usize,
    interleaved: bool,
    seed: u64,
    length_scale: u64,
) -> BurstEval {
    use nestsim_core::campaign::{golden_reference, CampaignSpec};
    use nestsim_models::ComponentKind;
    use nestsim_rtl::FlopClass;

    let spec = CampaignSpec {
        seed,
        length_scale,
        ..CampaignSpec::new(ComponentKind::L2c, samples)
    };
    let (base, golden) = golden_reference(profile, &spec);
    let reference = L2cBank::new(BankId::new(0));
    let covered: Vec<usize> = reference.flops().bits_where(|c| c == FlopClass::Target);
    let plan = if interleaved {
        ParityPlan::for_qrr_interleaved(reference.flops())
    } else {
        ParityPlan::for_qrr(reference.flops())
    };
    let root = SeedSeq::new(seed).derive("qrr-burst").derive(profile.name);
    let hi = (golden.cycles * 9 / 10).max(MIN_WARMUP + 128);
    let mut eval = BurstEval::default();
    for k in 0..samples {
        let mut rng = root.derive_index(k).rng();
        // A burst strikes `width` *physically adjacent* covered flops.
        let start = rng.below((covered.len() - width) as u64) as usize;
        let bits: Vec<usize> = covered[start..start + width].to_vec();
        let cycle = rng.range(MIN_WARMUP + 64, hi.max(MIN_WARMUP + 65));
        let warmup = MIN_WARMUP + rng.below(1_000);

        let entry = cycle.saturating_sub(warmup);
        let mut sys = base.clone();
        sys.set_watchdog(2 * golden.cycles + 50_000);
        sys.run_until(entry);
        let mut drv = QrrL2cDriver::attach(sys, BankId::new(rng.below(8) as usize % 8));
        drv.set_parity_plan(plan.clone());
        for _ in 0..warmup {
            drv.step();
        }
        let detected = drv.inject_burst(&bits);
        let mut budget = 60_000u64;
        while budget > 0 {
            drv.step();
            budget -= 1;
            if drv.sys().trap().is_some() {
                break;
            }
            if budget.is_multiple_of(32) && drv.drained() {
                break;
            }
        }
        let mut sys = drv.detach();
        let ok = matches!(
            sys.run_to_end(),
            RunResult::Completed { digest, .. } if digest == golden.digest
        );
        eval.runs += 1;
        if detected {
            eval.detected += 1;
            eval.recovered += u64::from(ok);
        } else if ok {
            eval.escaped_benign += 1;
        } else {
            eval.silent_failures += 1;
        }
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_core::campaign::{golden_reference, CampaignSpec};
    use nestsim_hlsim::workload::by_name;
    use nestsim_models::ComponentKind;
    use nestsim_rtl::FlopClass;

    fn setup() -> (System, GoldenRef) {
        let spec = CampaignSpec::quick(ComponentKind::L2c, 1);
        golden_reference(by_name("radi").unwrap(), &spec)
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
        let r = run_qrr_injection(&base, &golden, 0, bit, 2_500, MIN_WARMUP);
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
        let r = run_qrr_injection(&base, &golden, 0, bit, 3_000, MIN_WARMUP);
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
        let r = run_qrr_injection(&base, &golden, 0, bit, 2_500, MIN_WARMUP);
        assert!(!r.detected, "hardened flops are outside parity coverage");
    }

    #[test]
    fn adjacent_double_burst_escapes_blocked_parity() {
        // Two adjacent covered flops under one XOR tree: parity stays
        // even → undetected. Under interleaving, the same burst is
        // caught.
        let (base, golden) = setup();
        let bank = L2cBank::new(BankId::new(0));
        let covered = bank
            .flops()
            .bits_where(|c| c == nestsim_rtl::FlopClass::Target);
        let bits = [covered[0], covered[1]];
        let mut sys = base.clone();
        sys.run_until(1_000);
        let mut drv = QrrL2cDriver::attach(sys, BankId::new(0));
        assert!(!drv.inject_burst(&bits), "blocked layout must miss");

        let mut sys2 = base.clone();
        sys2.run_until(1_000);
        let mut drv2 = QrrL2cDriver::attach(sys2, BankId::new(0));
        drv2.set_parity_plan(ParityPlan::for_qrr_interleaved(bank.flops()));
        assert!(drv2.inject_burst(&bits), "interleaved layout must catch");
        let _ = golden;
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
        let (eval, records) = qrr_campaign(by_name("radi").unwrap(), 10, 77, 100);
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
