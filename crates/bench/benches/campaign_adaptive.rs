//! Adaptive-sampling benchmark: CI-driven sequential stopping against
//! the fixed-count campaign it replaces, on one reference cell.
//!
//! Two timed rows share a small quick-policy cell so the gate tracks
//! the round-scheduling overhead (draw + ladder + merge per round)
//! relative to a one-shot fixed campaign of the same budget. The
//! headline claim — adaptive stops with **at least 2x fewer samples**
//! than the a-priori fixed-count plan at the same CI target — is
//! asserted once, untimed, on the reference cell at a paper-realistic
//! target, so a regression in the stop rule fails the bench run itself
//! rather than drifting a timing row.
//!
//! Writes `BENCH_campaign_adaptive.json` via the in-repo harness
//! runner.

use std::hint::black_box;

use nestsim_core::campaign::{
    run_campaign_with, run_rounds, CampaignResult, CampaignSpec, LadderExecutor, Plan,
};
use nestsim_harness::bench::Suite;
use nestsim_hlsim::workload::{by_name, BenchProfile};
use nestsim_models::ComponentKind;
use nestsim_stats::stop::StopPolicy;

fn spec(samples: u64) -> CampaignSpec {
    CampaignSpec {
        seed: 99,
        length_scale: 100,
        cosim_cap: 20_000,
        workers: 1,
        ..CampaignSpec::new(ComponentKind::L2c, samples)
    }
}

/// One cell under `policy` on the in-process executor.
fn run_adaptive(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    policy: &StopPolicy,
) -> CampaignResult {
    let plan = Plan::Adaptive(*policy);
    let executor = LadderExecutor::new(profile, spec, &plan, None);
    run_rounds(profile, spec, &plan, None, executor)
}

/// The small policy behind the timed rows: a handful of 16..64-sample
/// rounds inside a 96-sample budget, so one timed iteration is a full
/// multi-round sequential campaign without minutes of wall clock.
fn quick_policy() -> StopPolicy {
    let mut p = StopPolicy::new(0.10, 0.90);
    p.min_samples = 16;
    p.initial_round = 16;
    p.max_round = 64;
    p.max_samples = 96;
    p
}

fn main() {
    let profile = by_name("radi").unwrap();

    // The acceptance claim, checked before anything is timed: at a
    // paper-realistic target the sequential rule must finish the
    // reference cell (crossbar / radi, where the outcome distribution
    // is heavily skewed toward Vanished) with at least 2x fewer
    // samples than the fixed-count plan (`max_samples`, the
    // normal-approximation sizing at worst-case variance) it replaces.
    let reference_policy = StopPolicy::new(0.02, 0.95);
    let reference_spec = CampaignSpec {
        component: ComponentKind::Ccx,
        ..spec(1)
    };
    let adaptive = run_adaptive(profile, &reference_spec, &reference_policy);
    let summary = adaptive.adaptive.as_ref().expect("adaptive summary");
    eprintln!(
        "campaign_adaptive: {} samples in {} rounds vs {}-sample fixed plan ({:.1}x saving), \
         strata addr/ctl/data = {}/{}/{}",
        summary.samples_run,
        summary.rounds.len(),
        summary.fixed_budget,
        summary.fixed_budget as f64 / summary.samples_run.max(1) as f64,
        summary.per_stratum[0],
        summary.per_stratum[1],
        summary.per_stratum[2],
    );
    assert!(
        !summary.budget_exhausted,
        "reference cell must reach its CI target inside the fixed budget"
    );
    assert!(
        summary.samples_run * 2 <= summary.fixed_budget,
        "adaptive ran {} of the {}-sample fixed plan: less than the promised 2x saving",
        summary.samples_run,
        summary.fixed_budget
    );

    // Advisory companion on an L2C cell: its pooled outcome variance is
    // higher (Neyman steering oversamples the erroneous strata, raising
    // the pooled worst-category p(1-p)), so the saving is smaller and
    // not asserted — a margin-free 2x assert here would turn any
    // legitimate model change into a confusing bench failure.
    let l2c_policy = StopPolicy::new(0.03, 0.95);
    let l2c = run_adaptive(by_name("flui").unwrap(), &spec(1), &l2c_policy);
    let l2c_summary = l2c.adaptive.as_ref().expect("adaptive summary");
    eprintln!(
        "campaign_adaptive: L2C/flui advisory: {} samples in {} rounds vs {}-sample fixed plan ({:.1}x)",
        l2c_summary.samples_run,
        l2c_summary.rounds.len(),
        l2c_summary.fixed_budget,
        l2c_summary.fixed_budget as f64 / l2c_summary.samples_run.max(1) as f64,
    );

    let mut suite = Suite::new("campaign_adaptive");
    let policy = quick_policy();
    suite.bench("campaign_adaptive/cell", "adaptive_rounds", || {
        black_box(run_adaptive(by_name("radi").unwrap(), &spec(1), &policy));
    });
    // The same budget spent as one fixed-count campaign: the delta
    // between these rows is the round tax (per-round draw, ladder
    // truncation, merge, stop evaluation).
    suite.bench("campaign_adaptive/cell", "fixed_same_budget", || {
        black_box(run_campaign_with(
            by_name("radi").unwrap(),
            &spec(policy.max_samples),
            None,
        ));
    });
    suite.finish();
}
