//! Quick Replay Recovery, step by step: drop a request inside the L2
//! cache controller with a valid-bit flip — a guaranteed application
//! hang without protection — and watch QRR detect, reset, and replay.
//!
//! ```sh
//! cargo run --release --example qrr_recovery
//! ```

use nestsim::core::campaign::{golden_reference, CampaignSpec};
use nestsim::core::inject::{run_injection, InjectionSpec, MIN_WARMUP};
use nestsim::hlsim::workload::by_name;
use nestsim::models::{ComponentKind, L2cBank, UncoreRtl};
use nestsim::proto::addr::BankId;
use nestsim::qrr::recovery::{run_qrr_injection, QrrL2cDriver};
use nestsim::qrr::QrrPlan;
use nestsim::telemetry::Recorder;

fn main() {
    let profile = by_name("lu-c").expect("known benchmark");
    let spec = CampaignSpec::quick(ComponentKind::L2c, 1);
    let (base, golden) = golden_reference(profile, &spec);

    // The target: the valid bit of input-queue entry 0. Flipping it
    // 1 -> 0 silently drops an in-flight request; the issuing thread
    // waits forever and the application hangs.
    let bank = L2cBank::new(BankId::new(0));
    let bit = bank
        .flops()
        .fields()
        .iter()
        .find(|f| f.name == "iq[0].valid")
        .map(|f| f.offset)
        .unwrap();

    // Without QRR: the mixed-mode platform classifies the outcome.
    let unprotected = run_injection(
        &base,
        &golden,
        &InjectionSpec {
            component: ComponentKind::L2c,
            instance: 0,
            bit,
            inject_cycle: 3_000,
            warmup: MIN_WARMUP,
            cosim_cap: 100_000,
            check_interval: 16,
        },
    );
    println!("without QRR: outcome = {}", unprotected.outcome);

    // With QRR: parity detects the flip, the write paths are gated,
    // the bank is reset (configuration flops retained, SRAM arrays
    // preserved), and the record table replays the dropped request.
    let attach = |sys| QrrL2cDriver::attach(sys, BankId::new(0));
    let rec = &mut Recorder::null();
    let protected = run_qrr_injection(&base, &golden, attach, &[bit], 3_000, MIN_WARMUP, rec);
    println!(
        "with QRR:    outcome = {}, detected = {}, recovered in {} cycles",
        protected.outcome, protected.detected, protected.recovery_cycles
    );
    assert!(protected.recovered, "QRR must recover a covered flip");

    // The cost side (Sec. 6.4 / footnote 15): selective hardening of
    // the flops parity cannot cover bounds the residual failure rate.
    let plan = QrrPlan::paper_l2c();
    println!(
        "\nL2C protection plan: {:.1}% parity-covered, residual failure {:.4}% of\n\
         the unprotected soft-error probability -> {:.0}x improvement (paper: >100x).",
        plan.coverage() * 100.0,
        plan.residual_error_fraction() * 100.0,
        plan.improvement_factor(0.014)
    );
}
