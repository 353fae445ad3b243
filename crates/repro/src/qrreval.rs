//! QRR recovery evaluation (Sec. 6.4).

use nestsim::report::{pct, Table};
use nestsim_hlsim::workload::by_name;
use nestsim_qrr::plan::QrrPlan;
use nestsim_qrr::recovery::PAPER_WORST_CASE_RECOVERY;

use crate::Opts;

/// Runs the QRR evaluation: injections into parity-covered flops must
/// all recover; residual failure probability follows the footnote-15
/// arithmetic.
pub fn qrr(opts: &Opts) {
    use nestsim_qrr::mcu_recovery::qrr_mcu_campaign;
    use nestsim_qrr::recovery::qrr_campaign;
    use nestsim_telemetry::Recorder;
    println!(
        "== QRR recovery evaluation ({} injections/component into covered flops) ==\n",
        opts.samples
    );
    let profile = by_name("radi").unwrap();
    let (l2c_eval, l2c_records) = qrr_campaign(
        profile,
        opts.samples,
        opts.seed,
        opts.scale.max(1),
        &mut Recorder::null(),
    );
    let (mcu_eval, mcu_records) = qrr_mcu_campaign(
        by_name("fft").unwrap(),
        opts.samples,
        opts.seed,
        opts.scale.max(1),
    );

    let mut t = Table::new(["metric", "L2C", "MCU", "paper"]);
    t.row([
        "covered injections".to_string(),
        l2c_eval.covered_runs.to_string(),
        mcu_eval.covered_runs.to_string(),
        ">400,000 total".to_string(),
    ]);
    t.row([
        "recovered".to_string(),
        format!(
            "{} ({})",
            l2c_eval.covered_recovered,
            pct(
                l2c_eval.covered_recovered as f64 / l2c_eval.covered_runs.max(1) as f64,
                1
            )
        ),
        format!(
            "{} ({})",
            mcu_eval.covered_recovered,
            pct(
                mcu_eval.covered_recovered as f64 / mcu_eval.covered_runs.max(1) as f64,
                1
            )
        ),
        "all (100%)".to_string(),
    ]);
    t.row([
        "max recovery latency".to_string(),
        format!("{} cycles", l2c_eval.max_recovery_cycles),
        format!("{} cycles", mcu_eval.max_recovery_cycles),
        format!("<{PAPER_WORST_CASE_RECOVERY} cycles (worst case)"),
    ]);
    print!("{}", t.render());
    let records = l2c_records;
    let _ = &mcu_records;

    if opts.worst_case {
        worst_case(opts);
    }

    println!("\nResidual-failure arithmetic (footnote 15):");
    let mut t = Table::new([
        "component",
        "coverage",
        "residual SER fraction",
        "improvement vs unprotected",
    ]);
    for (plan, rate) in [(QrrPlan::paper_l2c(), 0.014), (QrrPlan::paper_mcu(), 0.017)] {
        t.row([
            plan.component.to_string(),
            pct(plan.coverage(), 1),
            pct(plan.residual_error_fraction(), 4),
            format!("{:.0}x", plan.improvement_factor(rate)),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nPaper: residual < 0.013% of the unprotected soft-error probability;\n\
         >100x reduction in erroneous-outcome probability, even assuming every\n\
         residual error causes an erroneous outcome."
    );
    let failures: Vec<_> = records
        .iter()
        .filter(|r| r.detected && !r.recovered)
        .collect();
    if !failures.is_empty() {
        println!("\nWARNING: unrecovered covered injections: {failures:?}");
    }
}

/// The multi-bit burst extension (the paper's future work: "a broader
/// class of errors"): adjacent double-bit flips escape blocked parity
/// (even parity under one XOR tree) and become silent failures; parity
/// interleaving restores full detection at extra routing cost.
pub fn burst(opts: &Opts) {
    use nestsim_qrr::recovery::burst_campaign;
    println!(
        "\n== Burst extension: {}x adjacent 2-bit bursts into covered L2C flops ==\n",
        opts.samples
    );
    let profile = by_name("lu-c").unwrap();
    let mut t = Table::new([
        "parity layout",
        "detected",
        "recovered",
        "escaped (benign)",
        "silent failures",
    ]);
    for (label, interleaved) in [("blocked (paper)", false), ("interleaved", true)] {
        let e = burst_campaign(
            profile,
            opts.samples,
            2,
            interleaved,
            opts.seed,
            opts.scale.max(1),
        );
        t.row([
            label.to_string(),
            format!("{}/{}", e.detected, e.runs),
            e.recovered.to_string(),
            e.escaped_benign.to_string(),
            e.silent_failures.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nSingle-bit QRR (the paper's model) assumes one flip per strike; a 2-bit\n\
         burst under one XOR tree has even parity and is invisible to blocked\n\
         logic parity. Interleaving adjacent flops across trees closes the gap."
    );
}

/// Measures the worst-case replay scenario the paper quotes: a full
/// record table where every replayed packet is an L2 load miss.
fn worst_case(opts: &Opts) {
    use nestsim_core::campaign::{golden_reference, CampaignSpec};
    use nestsim_core::inject::MIN_WARMUP;
    use nestsim_models::ComponentKind;
    use nestsim_proto::addr::BankId;
    use nestsim_qrr::recovery::{QrrDriver, QrrL2cDriver};

    println!("\nWorst-case replay (cold cache, all misses):");
    let spec = CampaignSpec {
        seed: opts.seed,
        length_scale: opts.scale.max(1),
        ..CampaignSpec::new(ComponentKind::L2c, 1)
    };
    let (base, _) = golden_reference(by_name("stre").unwrap(), &spec);
    let mut sys = base.clone();
    sys.run_until(MIN_WARMUP);
    let mut drv = QrrL2cDriver::attach(sys, BankId::new(0));
    // Warm with real traffic so the record table holds genuine packets,
    // then force detection at a busy moment.
    for _ in 0..MIN_WARMUP {
        drv.step();
    }
    let bit = {
        use nestsim_models::UncoreRtl;
        drv.target
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "iq[0].addr")
            .map(|f| f.offset)
            .unwrap()
    };
    drv.flip(&[bit]);
    for _ in 0..20_000 {
        drv.step();
        if drv.ctrl.recoveries > 0 && drv.drained() {
            break;
        }
    }
    println!(
        "  recovery latency: {} cycles (paper worst case: <{} cycles)",
        drv.ctrl.last_recovery_cycles, PAPER_WORST_CASE_RECOVERY
    );
}
