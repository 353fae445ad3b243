//! One smoke bench per experiment pipeline (Tables 3–6, Figs. 3–9,
//! QRR): each bench runs a miniature version of the pipeline that
//! regenerates the corresponding table/figure, so a performance
//! regression in any reproduction path shows up in the bench run.
//!
//! Writes `BENCH_experiments.json` via the in-repo harness runner.

use std::hint::black_box;

use nestsim_bench::bench_base;
use nestsim_core::campaign::{draw_samples, run_campaign_with, CampaignSpec};
use nestsim_core::inject::run_injection;
use nestsim_core::persistence::persistence_sweep;
use nestsim_core::rtl_only::{
    draw_fig7_samples, rtl_only_golden, run_rtl_only_injection, RtlOnlyConfig,
};
use nestsim_core::warmup::warmup_experiment;
use nestsim_harness::bench::Suite;
use nestsim_hlsim::workload::by_name;
use nestsim_models::inventory::model_census;
use nestsim_models::ComponentKind;
use nestsim_qrr::cost::CostModel;
use nestsim_qrr::recovery::{run_qrr_injection, QrrL2cDriver};
use nestsim_telemetry::Recorder;

fn quick_spec(component: ComponentKind) -> CampaignSpec {
    CampaignSpec {
        seed: 99,
        length_scale: 100,
        cosim_cap: 20_000,
        workers: 1,
        ..CampaignSpec::new(component, 4)
    }
}

fn tables(suite: &mut Suite) {
    suite.bench("experiments/tables", "table3_table4_census", || {
        for kind in ComponentKind::ALL {
            black_box(model_census(kind));
        }
    });
    suite.bench("experiments/tables", "table6_cost_model", || {
        black_box(CostModel::default().table6())
    });
}

fn fig3_cell(suite: &mut Suite) {
    suite.bench("experiments/fig3", "l2c_cell_4_injections", || {
        black_box(run_campaign_with(
            by_name("radi").unwrap(),
            &quick_spec(ComponentKind::L2c),
            None,
        ))
    });
}

fn fig5_warmup(suite: &mut Suite) {
    suite.bench("experiments/fig5", "l2c_one_window", || {
        black_box(warmup_experiment(
            ComponentKind::L2c,
            by_name("radi").unwrap(),
            1,
            200,
            99,
            200,
        ))
    });
}

fn fig6_persistence(suite: &mut Suite) {
    suite.bench("experiments/fig6", "l2c_4_flops", || {
        black_box(persistence_sweep(
            ComponentKind::L2c,
            by_name("radi").unwrap(),
            4,
            4_000,
            &quick_spec(ComponentKind::L2c),
        ))
    });
}

fn fig7_rtl_only(suite: &mut Suite) {
    let cfg = RtlOnlyConfig {
        length_scale: 400,
        seed: 99,
        ..RtlOnlyConfig::paper_like(by_name("fft").unwrap())
    };
    let golden = rtl_only_golden(&cfg);
    let samples = draw_fig7_samples(&cfg, &golden, 1);
    suite.bench("experiments/fig7", "one_rtl_only_injection", || {
        let (bit, cycle) = samples[0];
        black_box(run_rtl_only_injection(&cfg, &golden, bit, cycle))
    });
}

fn fig8_fig9_injection(suite: &mut Suite) {
    // Figs. 3/8/9 all consume the same per-run records; benchmark one
    // full Fig. 2 injection flow end to end.
    let (base, golden) = bench_base("radi", 100);
    let spec = quick_spec(ComponentKind::L2c);
    let samples = draw_samples(by_name("radi").unwrap(), &spec, &golden);
    suite.bench("experiments/injection_flow", "one_l2c_injection", || {
        black_box(run_injection(&base, &golden, &samples[0]))
    });
}

fn qrr_recovery(suite: &mut Suite) {
    let (base, golden) = bench_base("radi", 100);
    use nestsim_models::{L2cBank, UncoreRtl};
    let bank = L2cBank::new(nestsim_proto::addr::BankId::new(0));
    let bit = bank
        .flops()
        .fields()
        .iter()
        .find(|f| f.name == "iq[0].valid")
        .map(|f| f.offset)
        .unwrap();
    suite.bench("experiments/qrr", "detect_reset_replay", || {
        let attach = |sys| QrrL2cDriver::attach(sys, nestsim_proto::addr::BankId::new(0));
        let rec = &mut Recorder::null();
        black_box(run_qrr_injection(
            &base,
            &golden,
            attach,
            &[bit],
            2_000,
            1_000,
            rec,
        ))
    });
}

fn main() {
    let mut suite = Suite::new("experiments");
    tables(&mut suite);
    fig3_cell(&mut suite);
    fig5_warmup(&mut suite);
    fig6_persistence(&mut suite);
    fig7_rtl_only(&mut suite);
    fig8_fig9_injection(&mut suite);
    qrr_recovery(&mut suite);
    suite.finish();
}
