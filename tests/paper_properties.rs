//! Tests pinning the paper's quantitative claims to this
//! implementation (the EXPERIMENTS.md contract).

use nestsim::core::perfmodel::{paper_throughput, PAPER_RTL_ONLY_RATE};
use nestsim::hlsim::workload::{with_input_files, BENCHMARKS};
use nestsim::models::inventory::{table3_for, table4_for, TABLE3};
use nestsim::models::ComponentKind;
use nestsim::qrr::cost::CostModel;
use nestsim::qrr::recovery::{qrr_campaign, PAPER_WORST_CASE_RECOVERY};
use nestsim::qrr::QrrPlan;
use nestsim::stats::ci::required_samples;

#[test]
fn abstract_claims_are_reproduced_by_the_models() {
    // "20,000× speedup over RTL-only simulation"
    assert!(paper_throughput(280e6) / PAPER_RTL_ONLY_RATE >= 20_000.0);
    // "3.32% and 6.09% chip-level area and power impact"
    let t6 = CostModel::default().table6();
    assert!((t6.qrr_area_chip - 0.0332).abs() < 0.004);
    assert!((t6.qrr_power_chip - 0.0609).abs() < 0.006);
    // "more than 100×" improvement.
    assert!(QrrPlan::paper_l2c().improvement_factor(0.014) > 100.0);
}

#[test]
fn footnote2_sample_size() {
    // "more than 40,000 samples ... ±0.1% accuracy with 95% confidence
    // when the observed rate is 1%" (normal approximation gives ~38K;
    // the paper rounds up).
    let n = required_samples(0.01, 0.001, 0.95);
    assert!(n > 35_000 && n < 40_000);
}

#[test]
fn table3_totals_match_500m_transistor_soc() {
    // The studied SoC has 8 cores and the listed uncore instances.
    let cores = TABLE3
        .iter()
        .find(|r| r.component == "Processor Core")
        .unwrap();
    assert_eq!(cores.instances, 8);
    let total_flops: usize = TABLE3.iter().map(|r| r.instances * r.flops).sum();
    assert!(
        total_flops > 900_000,
        "large-scale SoC: {total_flops} flops"
    );
}

#[test]
fn table4_partition_is_internally_consistent() {
    for kind in ComponentKind::ALL {
        let t4 = table4_for(kind);
        let t3 = table3_for(kind);
        assert_eq!(t4.total(), t3.flops, "{kind}");
        assert_eq!(t4.instances, t3.instances, "{kind}");
    }
}

#[test]
fn twelve_of_eighteen_benchmarks_feed_pcie() {
    assert_eq!(BENCHMARKS.len(), 18);
    assert_eq!(with_input_files().count(), 12);
}

#[test]
fn benchmark_lengths_match_table5() {
    let lengths: Vec<(&str, u64)> = BENCHMARKS
        .iter()
        .map(|b| (b.name, b.paper_mcycles))
        .collect();
    for (name, mc) in [
        ("barn", 413),
        ("chol", 531),
        ("fft", 862),
        ("lu-c", 215),
        ("radi", 120),
        ("rayt", 1005),
        ("blsc", 164),
        ("body", 571),
        ("ferr", 763),
        ("flui", 842),
        ("freq", 353),
        ("stre", 695),
        ("swap", 591),
        ("vips", 1003),
        ("x264", 881),
        ("p-lr", 54),
        ("p-sm", 248),
        ("p-wc", 566),
    ] {
        assert!(lengths.contains(&(name, mc)), "{name} length mismatch");
    }
}

#[test]
fn qrr_recovers_all_covered_injections_end_to_end() {
    // Sec. 6.4's experiment at miniature scale: every parity-covered
    // flip must recover, with recovery latency within the paper's
    // worst-case bound.
    let (eval, _) = qrr_campaign(
        nestsim::hlsim::workload::by_name("lu-c").unwrap(),
        12,
        424_242,
        100,
        &mut nestsim::telemetry::Recorder::null(),
    );
    assert!(eval.covered_runs >= 10);
    assert_eq!(eval.covered_recovered, eval.covered_runs);
    assert!(eval.max_recovery_cycles < PAPER_WORST_CASE_RECOVERY);
}

#[test]
fn qrr_cost_beats_hardening_only() {
    let t6 = CostModel::default().table6();
    assert!(t6.qrr_area.total() < t6.hardening_only_area);
    assert!(t6.qrr_power.total() < t6.hardening_only_power);
}

#[test]
fn paper_partitions_cover_at_least_ninety_percent() {
    // Sec. 6.4: fewer than 10% of L2C/MCU flops end up hardened; the
    // remainder ride on parity + replay.
    assert!(QrrPlan::paper_l2c().coverage() > 0.89);
    assert!(QrrPlan::paper_mcu().coverage() > 0.89);
}

#[test]
fn fig5_warm_up_leaves_under_two_tenths_of_a_percent_after_1000_cycles() {
    // Fig. 5 / Sec. 4.1: "<0.2% after 1,000 cycles", at `repro fig5
    // --runs 10 --window 1000 --scale 10`'s configuration (radi, p-lr
    // for PCIe; repro's default seed 2015).
    use nestsim::core::warmup::warmup_experiment;
    use nestsim::hlsim::workload::by_name;
    for kind in ComponentKind::ALL {
        let bench = if kind == ComponentKind::Pcie {
            "p-lr"
        } else {
            "radi"
        };
        let curve = warmup_experiment(kind, by_name(bench).unwrap(), 10, 1_000, 2015, 10);
        assert_eq!(curve.points.len(), 1_001, "{kind}");
        assert!(
            curve.residual() < 0.002,
            "{kind}: {:.4}% left after 1,000 cycles",
            100.0 * curve.residual()
        );
    }
}
