//! Lane-engine accounting.
//!
//! Every component batches: a same-trajectory group of two or more
//! samples runs as one lane batch. `lanes.scalar_fallbacks` counts the
//! lanes that *left* a batch, each to finish on a scalar driver forked
//! off the batch's carrier at the cycle it left on, and
//! `lanes.retired_early` the lanes that retired inside it. The contract
//! locked here is a partition: every clustered injection either retires
//! in its batch or falls back — never both, never neither — and every
//! one of them stays byte-identical to the pre-ladder reference engine.

use nestsim::core::campaign::{
    run_campaign_replay, run_campaign_with, CampaignResult, CampaignSpec,
};
use nestsim::hlsim::workload::by_name;
use nestsim::models::ComponentKind;
use nestsim::telemetry::{names, TelemetryConfig};

/// `(batches, retired_early, scalar_fallbacks)`.
fn lane_counters(got: &CampaignResult) -> (u64, u64, u64) {
    let engine = &got.telemetry.engine;
    (
        engine.counter(names::LANES_BATCHES),
        engine.counter(names::LANES_RETIRED_EARLY),
        engine.counter(names::LANES_SCALAR_FALLBACKS),
    )
}

fn spec(component: ComponentKind, samples: u64, lane_cluster: u64) -> CampaignSpec {
    CampaignSpec {
        seed: 7,
        // One worker keeps every cluster group whole: shard boundaries
        // would split groups and change what "took the scalar path".
        workers: 1,
        lane_cluster,
        ..CampaignSpec::quick(component, samples)
    }
}

fn assert_matches_replay(ctx: &str, spec: &CampaignSpec, got: &CampaignResult) {
    let profile = by_name(got.benchmark).unwrap();
    let reference = run_campaign_replay(profile, spec, None);
    assert_eq!(got.records, reference.records, "{ctx}: records diverged");
    assert_eq!(got.counts, reference.counts, "{ctx}: counts diverged");
    assert_eq!(got.golden, reference.golden, "{ctx}: golden diverged");
}

/// With `lane_cluster = 4`, every one of the 12 samples sits in a
/// 4-sample same-trajectory group, so three batches form, and every
/// clustered injection of `component` retires in its batch or falls
/// back, exactly once: `(retired_early, scalar_fallbacks)` is `want`.
fn clustered_injections_partition(component: ComponentKind, bench: &str, want: (u64, u64)) {
    let spec = spec(component, 12, 4);
    let telemetry = TelemetryConfig::default();
    let got = run_campaign_with(by_name(bench).unwrap(), &spec, Some(&telemetry));
    let (batches, retired_early, scalar_fallbacks) = lane_counters(&got);
    assert_eq!(batches, 3, "{component}: one batch per cluster");
    assert_eq!(
        (retired_early, scalar_fallbacks),
        want,
        "{component}: every clustered injection retires in-batch or falls back, exactly once"
    );
    assert_eq!(retired_early + scalar_fallbacks, 12, "{component}");
    assert_matches_replay(&format!("{component} cluster=4"), &spec, &got);

    // Width 1 batches nothing, and changes nothing.
    let scalar = CampaignSpec {
        lane_width: 1,
        ..spec
    };
    let got = run_campaign_with(by_name(bench).unwrap(), &scalar, Some(&telemetry));
    assert_eq!(lane_counters(&got), (0, 0, 0), "{component}");
    assert_matches_replay(&format!("{component} cluster=4 width=1"), &scalar, &got);
}

#[test]
fn l2c_clustered_injections_partition_into_retired_and_fallbacks() {
    clustered_injections_partition(ComponentKind::L2c, "flui", (9, 3));
}

#[test]
fn mcu_clustered_injections_partition_into_retired_and_fallbacks() {
    clustered_injections_partition(ComponentKind::Mcu, "flui", (7, 5));
}

#[test]
fn ccx_clustered_injections_partition_into_retired_and_fallbacks() {
    clustered_injections_partition(ComponentKind::Ccx, "lu-c", (11, 1));
}

#[test]
fn pcie_clustered_injections_partition_into_retired_and_fallbacks() {
    clustered_injections_partition(ComponentKind::Pcie, "p-lr", (10, 2));
}

/// A cap so tight (64 cycles) that the carrier is still busy when it
/// strikes: a lane whose compare finds no difference a tick can read
/// before it retires in the batch as Vanished, with no drain to wait
/// for; the others leave through the cap fallback, or retire as
/// Persist.
#[test]
fn l2c_identical_lanes_retire_before_a_tight_cap() {
    let profile = by_name("radi").unwrap();
    let spec = CampaignSpec {
        cosim_cap: 64,
        ..spec(ComponentKind::L2c, 48, 16)
    };
    let telemetry = TelemetryConfig::default();
    let got = run_campaign_with(profile, &spec, Some(&telemetry));

    let (batches, retired_early, scalar_fallbacks) = lane_counters(&got);
    assert_eq!((batches, retired_early, scalar_fallbacks), (3, 39, 9));
    assert_matches_replay("l2c cluster=16 cap=64", &spec, &got);
}

/// Unclustered sampling (`lane_cluster = 1`) is the classic engine:
/// singletons are not "fallbacks" from anything, so the counter must
/// stay zero even though every injection runs scalar.
#[test]
fn unclustered_singletons_are_not_counted_as_fallbacks() {
    let profile = by_name("flui").unwrap();
    let spec = spec(ComponentKind::Mcu, 8, 1);
    let telemetry = TelemetryConfig::default();
    let got = run_campaign_with(profile, &spec, Some(&telemetry));

    assert_eq!(
        got.telemetry.engine.counter(names::LANES_SCALAR_FALLBACKS),
        0,
        "singleton groups are the classic engine, not a fallback"
    );
    assert_matches_replay("mcu cluster=1", &spec, &got);
}
