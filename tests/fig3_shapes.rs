//! Fig. 3's shapes as seeded tests (EXPERIMENTS.md, *Fig. 3*).
//!
//! Each claim compares outcome rates by their 95 % Wilson intervals: it
//! holds when the intervals separate in its favour, and fails when they
//! separate against it or still overlap at the claim's fixed budget of
//! injections — an undecided claim is never a pass. Rates are over the
//! reported runs (Persist excluded, Sec. 4.2), pooled over the cells.

use std::sync::OnceLock;

use nestsim::core::campaign::{run_campaign_with, CampaignSpec};
use nestsim::core::outcome::{Outcome, OutcomeCounts};
use nestsim::hlsim::workload::by_name;
use nestsim::models::ComponentKind;

const CONFIDENCE: f64 = 0.95;

/// The pooled outcomes of `samples` injections into `component` on
/// each of `benches`, at length divisor `length_scale` and the paper's
/// other defaults: `repro fig3 --samples <samples> --scale
/// <length_scale>`.
fn outcomes(
    component: ComponentKind,
    benches: &[&str],
    samples: u64,
    length_scale: u64,
) -> OutcomeCounts {
    let mut pooled = OutcomeCounts::new();
    for bench in benches {
        let spec = CampaignSpec {
            length_scale,
            ..CampaignSpec::new(component, samples)
        };
        let profile = by_name(bench).expect("a known benchmark");
        pooled.merge(&run_campaign_with(profile, &spec, None).counts);
    }
    pooled
}

/// Asserts that `leader`'s rate is above each of `others`' with the
/// intervals apart.
fn assert_leads(what: &str, counts: &OutcomeCounts, leader: Outcome, others: &[Outcome]) {
    let interval = |o: Outcome| counts.rate(o).wilson_interval(CONFIDENCE);
    let (lo, hi) = interval(leader);
    for &other in others {
        let (other_lo, other_hi) = interval(other);
        assert!(
            other_lo <= hi,
            "{what}: {other:?} [{other_lo:.4}, {other_hi:.4}] leads {leader:?} [{lo:.4}, {hi:.4}]"
        );
        assert!(
            other_hi < lo,
            "{what}: undecided at budget: {leader:?} [{lo:.4}, {hi:.4}] overlaps \
             {other:?} [{other_lo:.4}, {other_hi:.4}] ({counts:?})"
        );
    }
}

const ERRONEOUS: [Outcome; 4] = [Outcome::Ona, Outcome::Omm, Outcome::Ut, Outcome::Hang];

#[test]
fn vanished_dominates_on_every_component() {
    let cells = [
        (ComponentKind::L2c, ["barn", "flui"]),
        (ComponentKind::Mcu, ["lu-c", "swap"]),
        (ComponentKind::Ccx, ["radi", "stre"]),
        (ComponentKind::Pcie, ["p-lr", "p-sm"]),
    ];
    for (component, benches) in cells {
        let counts = outcomes(component, &benches, 48, 100);
        let what = format!("{component} Vanished");
        assert_leads(&what, &counts, Outcome::Vanished, &ERRONEOUS);
        // Dominates: more than every erroneous run together.
        let (lo, _) = counts.rate(Outcome::Vanished).wilson_interval(CONFIDENCE);
        assert!(
            lo > 0.5,
            "{what}: undecided at budget: lower bound {lo:.4} ({counts:?})"
        );
    }
}

/// EXPERIMENTS.md's L2C table: its six benchmarks, 2,400 injections,
/// run once for the claims that read it.
fn l2c_table() -> &'static OutcomeCounts {
    static COUNTS: OnceLock<OutcomeCounts> = OnceLock::new();
    COUNTS.get_or_init(|| {
        let benches = ["barn", "lu-c", "blsc", "flui", "swap", "p-lr"];
        outcomes(ComponentKind::L2c, &benches, 400, 10)
    })
}

#[test]
fn ut_leads_the_erroneous_categories_of_l2c() {
    let others = [Outcome::Ona, Outcome::Omm, Outcome::Hang];
    assert_leads("L2C UT", l2c_table(), Outcome::Ut, &others);
}

#[test]
fn ccx_errs_less_often_than_l2c() {
    // EXPERIMENTS.md's CCX table: its four benchmarks, 480 injections.
    // On the accelerated timeline no erroneous category of CCX leads
    // another at this budget; its rate against L2C's resolves.
    let ccx = outcomes(
        ComponentKind::Ccx,
        &["radi", "lu-c", "flui", "stre"],
        120,
        10,
    );
    let (lo, hi) = l2c_table().erroneous_rate().wilson_interval(CONFIDENCE);
    let (ccx_lo, ccx_hi) = ccx.erroneous_rate().wilson_interval(CONFIDENCE);
    assert!(
        ccx_lo <= hi,
        "CCX [{ccx_lo:.4}, {ccx_hi:.4}] errs more often than L2C [{lo:.4}, {hi:.4}]"
    );
    assert!(
        ccx_hi < lo,
        "CCX vs L2C erroneous rate: undecided at budget: [{ccx_lo:.4}, {ccx_hi:.4}] overlaps \
         [{lo:.4}, {hi:.4}] ({ccx:?})"
    );
}

#[test]
fn omm_leads_pcie_on_the_large_input_files() {
    // EXPERIMENTS.md's PCIe table, on its two large-input benchmarks.
    let counts = outcomes(ComponentKind::Pcie, &["p-lr", "p-sm"], 250, 10);
    let others = [Outcome::Ona, Outcome::Ut, Outcome::Hang];
    assert_leads("PCIe OMM", &counts, Outcome::Omm, &others);
}
