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

use nestsim_core::cosim::{Component, DramPort};
use nestsim_hlsim::workload::BenchProfile;
use nestsim_hlsim::{InterceptMode, System};
use nestsim_models::mcu::McuInputs;
use nestsim_models::{ComponentKind, Mcu, UncoreRtl};
use nestsim_proto::addr::McuId;
use nestsim_proto::{DramCmd, DramCmdKind};
use nestsim_rtl::{ParityDetector, ParityPlan};
use nestsim_telemetry::Recorder;

use crate::controller::QrrController;
use crate::recovery::{campaign, flip_under_parity, parity_covered, QrrDriver, QrrEval, QrrRecord};

/// The QRR-protected MCU co-simulation driver.
#[derive(Debug)]
pub struct QrrMcuDriver {
    sys: System,
    /// The protected controller.
    pub target: Mcu,
    /// The QRR controller (hardened; plain state).
    pub ctrl: QrrController<DramCmd>,
    detector: ParityDetector,
    port: DramPort,
}

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
            port: DramPort::default(),
        }
    }
}

impl QrrDriver for QrrMcuDriver {
    const KIND: ComponentKind = ComponentKind::Mcu;

    /// Advances one cycle. DRAM writes go straight to system memory.
    fn step(&mut self) {
        let cyc = self.sys.cycle() + 1;
        self.sys.run_until(cyc);
        self.port.intake(&mut self.sys);

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
            let cmd = self.port.accept(|c| {
                self.target.ready(c.kind == DramCmdKind::Writeback) && self.ctrl.can_record()
            });
            if let Some(c) = &cmd {
                self.ctrl.on_request_accepted(c.tag as u64, c);
            }
            cmd
        };

        let out = self.target.tick(&McuInputs { cmd }, self.sys.dram_mut());
        if let Some(resp) = out.resp {
            // MCU responses complete their command atomically — no
            // store-miss-style post-processing (Sec. 6.1 is L2C-only).
            self.ctrl.on_return_packet(resp.tag as u64, false);
            self.port.complete(&mut self.sys, resp);
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
            && self.sys.waiting_on_uncore() == 0
            && !self.ctrl.blocking_new_requests()
    }

    fn sys(&self) -> &System {
        &self.sys
    }

    /// DRAM contents are already in place (the driver writes through to
    /// system memory); only the commands never accepted are served.
    fn detach(mut self) -> System {
        self.sys.set_intercept(InterceptMode::None);
        self.port.serve_stranded(&mut self.sys);
        self.sys
    }

    fn recoveries(&self) -> (u64, u64) {
        (self.ctrl.recoveries, self.ctrl.last_recovery_cycles)
    }
}

/// Runs the Sec. 6.4 recovery evaluation over parity-covered MCU flops.
pub fn qrr_mcu_campaign(
    profile: &'static BenchProfile,
    samples: u64,
    seed: u64,
    length_scale: u64,
) -> (QrrEval, Vec<QrrRecord>) {
    let covered = parity_covered(Mcu::new(McuId::new(0)).flops());
    let records = campaign(
        profile,
        samples,
        seed,
        length_scale,
        "qrr-mcu",
        |rng| std::slice::from_ref(rng.pick(&covered)),
        |sys, mcu| QrrMcuDriver::attach(sys, McuId::new(mcu)),
        &mut Recorder::null(),
    );
    (QrrEval::of(&records), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{run_qrr_injection, PAPER_WORST_CASE_RECOVERY};
    use nestsim_core::campaign::{golden_reference, CampaignSpec};
    use nestsim_core::inject::{GoldenRef, MIN_WARMUP};
    use nestsim_hlsim::workload::by_name;

    fn setup() -> (System, GoldenRef) {
        let spec = CampaignSpec::quick(ComponentKind::Mcu, 1);
        golden_reference(by_name("fft").unwrap(), &spec)
    }

    /// One protected run on controller 0 flipping `bit` at `cycle`.
    fn run(base: &System, golden: &GoldenRef, bit: usize, cycle: u64) -> QrrRecord {
        let attach = |sys| QrrMcuDriver::attach(sys, McuId::new(0));
        let rec = &mut Recorder::null();
        run_qrr_injection(base, golden, attach, &[bit], cycle, MIN_WARMUP, rec)
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
        let r = run(&base, &golden, bit, 2_500);
        assert!(r.detected);
        assert!(r.recovered, "QRR must recover the MCU: {r:?}");
    }

    #[test]
    fn dropped_command_is_resurrected_by_replay() {
        let (base, golden) = setup();
        let bit = field_bit("rq[0].valid", 0);
        let r = run(&base, &golden, bit, 3_000);
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
        assert!(eval.max_recovery_cycles < PAPER_WORST_CASE_RECOVERY);
    }
}
