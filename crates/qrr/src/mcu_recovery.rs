//! QRR for the DRAM controller (Sec. 6.4 evaluates QRR "for the L2C
//! and MCU modules").
//!
//! In the paper, MCU coverage rides on the L2C record tables: "since an
//! MCU instance operates with two L2C instances ... soft error
//! detection in an MCU invokes recovery operation of two QRR
//! controllers in the two L2C instances" (footnote 12). Our MCU
//! co-simulation intercepts at the MCU port, so the equivalent record
//! table sits there: it records incomplete DRAM commands (which the L2C
//! tables imply) and replays them in arrival order after reset. The
//! correctness argument is the same — fills are idempotent reads,
//! writebacks idempotent writes over the preserved DRAM contents, and
//! in-order replay preserves the original per-line ordering.

use std::collections::VecDeque;

use nestsim_core::inject::{GoldenRef, MIN_WARMUP};
use nestsim_core::Outcome;
use nestsim_hlsim::workload::BenchProfile;
use nestsim_hlsim::{InterceptMode, OutMsg, RunResult, System};
use nestsim_models::mcu::McuInputs;
use nestsim_models::{Mcu, UncoreRtl};
use nestsim_proto::addr::{BankId, LineAddr, McuId};
use nestsim_proto::{DramCmd, DramCmdKind};
use nestsim_rtl::{FlopClass, ParityDetector, ParityPlan};
use nestsim_stats::SeedSeq;

use crate::controller::QrrController;
use crate::recovery::{QrrEval, QrrRecord};

/// The QRR-protected MCU co-simulation driver.
#[derive(Debug)]
pub struct QrrMcuDriver {
    sys: System,
    /// The protected controller.
    pub target: Mcu,
    /// The QRR controller (hardened; plain state).
    pub ctrl: QrrController<DramCmd>,
    detector: ParityDetector,
    inbox: VecDeque<DramCmd>,
    /// In-flight tags: fills carry their routing target, writebacks
    /// `None`. Unique across all in-flight commands (see the same field
    /// in `nestsim_core::cosim::McuDriver` for the stranding bug this
    /// prevents).
    tag_map: TagMap,
    next_tag: u32,
}

// nestlint: allow(no-nondeterminism) -- audited: the in-flight tag map
// is keyed by wire tag and only probed point-wise (contains_key,
// insert, remove, is_empty); nothing iterates it, so hash order cannot
// reach results.
type TagMap = std::collections::HashMap<u32, Option<(BankId, LineAddr)>>;

impl QrrMcuDriver {
    /// Attaches QRR co-simulation for `mcu`.
    pub fn attach(mut sys: System, mcu: McuId) -> Self {
        sys.set_intercept(InterceptMode::McuPair(mcu));
        let target = Mcu::new(mcu);
        let plan = ParityPlan::for_qrr(target.flops());
        QrrMcuDriver {
            sys,
            target,
            ctrl: QrrController::new(),
            detector: ParityDetector::new(plan),
            inbox: VecDeque::new(),
            tag_map: TagMap::new(),
            next_tag: 0,
        }
    }

    fn alloc_tag(&mut self) -> u32 {
        loop {
            let t = self.next_tag;
            self.next_tag = (self.next_tag + 1) % 256;
            if !self.tag_map.contains_key(&t) {
                return t;
            }
        }
    }

    /// Injects a flip; gates writes immediately if parity-covered.
    /// Returns whether the flip was detected.
    pub fn inject(&mut self, bit: usize) -> bool {
        self.target.flops_mut().flip(bit);
        let cyc = self.sys.cycle();
        if self.detector.observe_flip(bit, cyc).is_some() {
            self.target.set_write_block(true);
            true
        } else {
            false
        }
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        let cyc = self.sys.cycle() + 1;
        self.sys.run_until(cyc);
        while let Some(msg) = self.sys.pop_outbox() {
            match msg {
                OutMsg::DramFill { bank, line } => {
                    let tag = self.alloc_tag();
                    self.tag_map.insert(tag, Some((bank, line)));
                    self.inbox.push_back(DramCmd::fill(tag, bank, line));
                }
                OutMsg::DramWriteback { bank, line, data } => {
                    let tag = self.alloc_tag();
                    self.tag_map.insert(tag, None);
                    self.inbox
                        .push_back(DramCmd::writeback(tag, bank, line, data));
                }
                other => unreachable!("unexpected outbox message {other:?}"),
            }
        }

        if self.detector.fired(cyc) {
            self.ctrl.on_error_detected(cyc);
            self.target.reset_for_replay();
            self.ctrl.on_reset_done();
        }

        // Input: replay has priority; new commands are recorded.
        let cmd = if self.ctrl.blocking_new_requests() {
            match self.ctrl.next_replay() {
                Some(c) if self.target.ready(c.kind == DramCmdKind::Writeback) => Some(c),
                Some(c) => {
                    // Not ready this cycle: put it back at the front.
                    self.ctrl.push_back_replay(c);
                    None
                }
                None => None,
            }
        } else {
            match self.inbox.front() {
                Some(c)
                    if self.target.ready(c.kind == DramCmdKind::Writeback)
                        && self.ctrl.can_record() =>
                {
                    let c = self.inbox.pop_front().unwrap();
                    self.ctrl.on_request_accepted(c.tag as u64, &c);
                    Some(c)
                }
                _ => None,
            }
        };

        let out = {
            let dram = self.sys.dram_mut();
            self.target.tick(&McuInputs { cmd }, dram)
        };
        if let Some(resp) = out.resp {
            // MCU responses complete their command atomically — no
            // store-miss-style post-processing (Sec. 6.1 is L2C-only).
            self.ctrl.on_return_packet(resp.tag as u64, false);
            if !resp.is_writeback_ack {
                if let Some(Some((bank, line))) = self.tag_map.remove(&resp.tag) {
                    self.sys.deliver_fill(bank, line, resp.data);
                }
            } else {
                self.tag_map.remove(&resp.tag);
            }
        }
        self.ctrl.poll_recovery_complete(cyc);
    }

    /// True when detaching would strand nothing.
    pub fn drained(&self) -> bool {
        self.inbox.is_empty()
            && self.target.idle()
            && self.tag_map.is_empty()
            && self.sys.waiting_on_uncore() == 0
            && !self.ctrl.blocking_new_requests()
    }

    /// The underlying system.
    pub fn sys(&self) -> &System {
        &self.sys
    }

    /// Pending (not yet accepted) commands (diagnostics).
    pub fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// Ends co-simulation (DRAM contents are already in place — the
    /// driver writes through to system memory).
    pub fn detach(mut self) -> System {
        self.sys.set_intercept(InterceptMode::None);
        let pending: Vec<DramCmd> = self.inbox.drain(..).collect();
        for cmd in pending {
            match cmd.kind {
                DramCmdKind::Fill => {
                    let data = self.sys.dram().read_line(cmd.line);
                    self.sys.deliver_fill(cmd.bank, cmd.line, data);
                }
                DramCmdKind::Writeback => {
                    self.sys.dram_mut().write_line(cmd.line, cmd.data);
                }
            }
        }
        self.sys
    }
}

/// Runs one QRR-protected MCU injection end to end.
pub fn run_qrr_mcu_injection(
    base: &System,
    golden: &GoldenRef,
    mcu: usize,
    bit: usize,
    inject_cycle: u64,
    warmup: u64,
) -> QrrRecord {
    let entry = inject_cycle.saturating_sub(warmup.max(MIN_WARMUP));
    let mut sys = base.clone();
    sys.set_watchdog(2 * golden.cycles + 50_000);
    sys.run_until(entry);
    let mut drv = QrrMcuDriver::attach(sys, McuId::new(mcu % 4));
    for _ in 0..warmup.max(MIN_WARMUP) {
        drv.step();
    }
    let detected = drv.inject(bit);
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
    QrrRecord {
        outcome,
        bit,
        detected,
        recovered,
        recovery_cycles,
    }
}

/// Runs the Sec. 6.4 recovery evaluation over parity-covered MCU flops.
pub fn qrr_mcu_campaign(
    profile: &'static BenchProfile,
    samples: u64,
    seed: u64,
    length_scale: u64,
) -> (QrrEval, Vec<QrrRecord>) {
    use nestsim_core::campaign::{golden_reference, CampaignSpec};
    use nestsim_models::ComponentKind;

    let spec = CampaignSpec {
        seed,
        length_scale,
        ..CampaignSpec::new(ComponentKind::Mcu, samples)
    };
    let (base, golden) = golden_reference(profile, &spec);
    let covered_bits: Vec<usize> = {
        let mcu = Mcu::new(McuId::new(0));
        let plan = ParityPlan::for_qrr(mcu.flops());
        mcu.flops()
            .bits_where(|c| c == FlopClass::Target)
            .into_iter()
            .filter(|&b| plan.covers(b))
            .collect()
    };
    let root = SeedSeq::new(seed).derive("qrr-mcu").derive(profile.name);
    let hi = (golden.cycles * 9 / 10).max(MIN_WARMUP + 128);
    let mut eval = QrrEval::default();
    let mut records = Vec::with_capacity(samples as usize);
    for k in 0..samples {
        let mut rng = root.derive_index(k).rng();
        let bit = *rng.pick(&covered_bits);
        let cycle = rng.range(MIN_WARMUP + 64, hi.max(MIN_WARMUP + 65));
        let warmup = MIN_WARMUP + rng.below(1_000);
        let mcu = rng.below(4) as usize;
        let r = run_qrr_mcu_injection(&base, &golden, mcu, bit, cycle, warmup);
        eval.covered_runs += u64::from(r.detected);
        eval.covered_recovered += u64::from(r.detected && r.recovered);
        eval.max_recovery_cycles = eval.max_recovery_cycles.max(r.recovery_cycles);
        records.push(r);
    }
    (eval, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_core::campaign::{golden_reference, CampaignSpec};
    use nestsim_hlsim::workload::by_name;
    use nestsim_models::ComponentKind;

    fn setup() -> (System, GoldenRef) {
        let spec = CampaignSpec::quick(ComponentKind::Mcu, 1);
        golden_reference(by_name("fft").unwrap(), &spec)
    }

    fn field_bit(name: &str, offset: usize) -> usize {
        let mcu = Mcu::new(McuId::new(0));
        mcu.flops()
            .fields()
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.offset + offset)
            .unwrap()
    }

    #[test]
    fn corrupted_line_field_is_detected_and_recovered() {
        // A request-queue line-address flip silently corrupts a wrong
        // DRAM location without QRR; with QRR the reset discards the
        // corrupted request and the replay re-issues the original.
        let (base, golden) = setup();
        let bit = field_bit("rq[0].line", 9);
        let r = run_qrr_mcu_injection(&base, &golden, 0, bit, 2_500, MIN_WARMUP);
        assert!(r.detected);
        assert!(r.recovered, "QRR must recover the MCU: {r:?}");
    }

    #[test]
    fn dropped_command_is_resurrected_by_replay() {
        let (base, golden) = setup();
        let bit = field_bit("rq[0].valid", 0);
        let r = run_qrr_mcu_injection(&base, &golden, 0, bit, 3_000, MIN_WARMUP);
        assert!(r.detected);
        assert!(
            r.recovered,
            "replay must re-issue the dropped command: {r:?}"
        );
    }

    #[test]
    fn small_mcu_qrr_campaign_recovers_everything() {
        let (eval, records) = qrr_mcu_campaign(by_name("fft").unwrap(), 8, 31, 100);
        assert!(eval.covered_runs > 0);
        assert_eq!(
            eval.covered_recovered, eval.covered_runs,
            "all covered MCU injections recover: {records:?}"
        );
        assert!(eval.max_recovery_cycles < crate::recovery::PAPER_WORST_CASE_RECOVERY);
    }
}
