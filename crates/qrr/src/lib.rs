//! Quick Replay Recovery (QRR) — Sec. 6 of the paper.
//!
//! QRR recovers uncore soft errors *without engaging processor cores*:
//! a hardened controller records every incomplete request packet in a
//! 32-entry record table; when logic parity detects a flip, the
//! component's write paths and output valids are gated (Sec. 6.2), its
//! flip-flops are reset (configuration flops excepted), and the recorded
//! packets are replayed in their original order. Replay is sound for
//! memory-subsystem components because re-executing requests in order is
//! idempotent over the preserved SRAM/DRAM arrays (Sec. 6.3).
//!
//! * [`plan`] — the Sec. 6.4 protection partition (parity-covered vs.
//!   selectively hardened flops) and the footnote-15 residual-failure
//!   arithmetic behind the >100× improvement claim.
//! * [`controller`] — the record table with its request/completion
//!   monitors (including the store-miss post-processing case of
//!   Sec. 6.1) and the replay sequencer.
//! * [`recovery`] — the QRR-augmented L2C co-simulation driver, the one
//!   protected run and campaign loop that every driver goes through, and
//!   the recovery evaluation used to reproduce Sec. 6.4's results;
//!   [`mcu_recovery`] is the MCU's driver.
//! * [`cost`] — the Table 6 area/power model of QRR against
//!   hardening everything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod cost;
pub mod mcu_recovery;
pub mod plan;
pub mod recovery;

pub use controller::{QrrController, RECORD_TABLE_ENTRIES};
pub use mcu_recovery::{qrr_mcu_campaign, QrrMcuDriver};
pub use plan::QrrPlan;
pub use recovery::{
    burst_campaign, qrr_campaign, run_qrr_injection, BurstEval, QrrDriver, QrrRecord,
};

#[cfg(test)]
mod tests {
    //! The Table 6 calibration of [`crate::cost`].
    use crate::cost::*;
    use nestsim_models::ComponentKind;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn table6_matches_paper_within_tolerance() {
        let t = CostModel::default().table6();
        assert!(
            close(t.qrr_area.parity, 0.325, 0.01),
            "{}",
            t.qrr_area.parity
        );
        assert!(
            close(t.qrr_area.hardening, 0.076, 0.01),
            "{}",
            t.qrr_area.hardening
        );
        assert!(
            close(t.qrr_area.controller, 0.058, 0.01),
            "{}",
            t.qrr_area.controller
        );
        assert!(
            close(t.qrr_area.total(), 0.459, 0.02),
            "{}",
            t.qrr_area.total()
        );
        assert!(
            close(t.qrr_power.total(), 0.474, 0.02),
            "{}",
            t.qrr_power.total()
        );
        assert!(
            close(t.hardening_only_area, 0.603, 0.02),
            "{}",
            t.hardening_only_area
        );
        assert!(
            close(t.hardening_only_power, 0.683, 0.02),
            "{}",
            t.hardening_only_power
        );
    }

    #[test]
    fn chip_level_overheads_match_paper() {
        let t = CostModel::default().table6();
        assert!(close(t.qrr_area_chip, 0.0332, 0.003), "{}", t.qrr_area_chip);
        assert!(
            close(t.qrr_power_chip, 0.0609, 0.005),
            "{}",
            t.qrr_power_chip
        );
    }

    #[test]
    fn qrr_is_cheaper_than_hardening_everything() {
        let t = CostModel::default().table6();
        let area_saving = 1.0 - t.qrr_area.total() / t.hardening_only_area;
        let power_saving = 1.0 - t.qrr_power.total() / t.hardening_only_power;
        // Paper: 23% and 31% lower, respectively.
        assert!(close(area_saving, 0.23, 0.05), "{area_saving}");
        assert!(close(power_saving, 0.31, 0.05), "{power_saving}");
    }

    #[test]
    fn budgets_scale_with_gate_counts() {
        let m = CostModel::default();
        let l2c = m.component_budget(ComponentKind::L2c);
        let mcu = m.component_budget(ComponentKind::Mcu);
        assert!(l2c.area > mcu.area);
        assert!(l2c.power > mcu.power);
    }

    #[test]
    fn custom_partition_shifts_costs() {
        let m = CostModel::default();
        let mut cheap = ProtectionCounts::paper_l2c();
        cheap.hardened_timing = 0; // pretend no timing-critical flops
        let t = m.table6_with(&cheap, &ProtectionCounts::paper_mcu());
        let t_ref = m.table6();
        assert!(t.qrr_area.hardening < t_ref.qrr_area.hardening);
    }
}
