//! Lane-engine accounting.
//!
//! `lanes.scalar_fallbacks` counts injections that ran the scalar
//! path *despite* being clustered (drawn as part of a same-trajectory
//! group): whole groups on components with no lane engine (anything
//! but L2C), and individual lanes that left an L2C batch for the
//! scalar path. The contract locked here: the counter equals
//! **exactly** the number of injections that took the scalar path
//! while belonging to a multi-sample group, and every fallback stays
//! byte-identical to the pre-ladder reference engine.
//!
//! `lanes.shared_warmups` and `lanes.parked` count what those groups
//! no longer pay for: a non-L2C group of two or more runs off one
//! attach + warm-up (the replay engine warms every sample on its own,
//! so matching it is an independent check that sharing changes
//! nothing), and an L2C lane proved identical to its carrier stops
//! being ticked. Neither moves `batches`, `retired_early` or
//! `scalar_fallbacks`: their values below were read off the engine
//! before it shared or parked anything.

use nestsim::core::campaign::{
    run_campaign_replay, run_campaign_with, CampaignResult, CampaignSpec,
};
use nestsim::hlsim::workload::by_name;
use nestsim::models::ComponentKind;
use nestsim::telemetry::{names, TelemetryConfig};

/// `(batches, retired_early, scalar_fallbacks, parked, shared_warmups)`.
fn lane_counters(got: &CampaignResult) -> (u64, u64, u64, u64, u64) {
    let engine = &got.telemetry.engine;
    (
        engine.counter(names::LANES_BATCHES),
        engine.counter(names::LANES_RETIRED_EARLY),
        engine.counter(names::LANES_SCALAR_FALLBACKS),
        engine.counter(names::LANES_PARKED),
        engine.counter(names::LANES_SHARED_WARMUPS),
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

/// A component without a lane engine: with `lane_cluster = 4`, every
/// one of the 12 samples sits in a 4-sample same-trajectory group, so
/// every single injection is a scalar fallback — no more, no less —
/// and each of the three groups warms up once.
fn clustered_injections_are_all_scalar_fallbacks_sharing_warmups(
    component: ComponentKind,
    bench: &str,
) {
    let spec = spec(component, 12, 4);
    let telemetry = TelemetryConfig::default();
    let got = run_campaign_with(by_name(bench).unwrap(), &spec, Some(&telemetry));
    let (batches, retired_early, scalar_fallbacks, parked, shared_warmups) = lane_counters(&got);
    assert_eq!(
        scalar_fallbacks, 12,
        "every clustered {component} injection takes the scalar path"
    );
    assert_eq!(batches, 0, "non-L2C components must never lane-batch");
    assert_eq!((retired_early, parked), (0, 0), "no batch, no lanes");
    assert_eq!(
        shared_warmups, 3,
        "one shared warm-up per same-trajectory group of two or more"
    );
    assert_matches_replay(&format!("{component} cluster=4"), &spec, &got);

    // Width 1 shares nothing, and changes nothing.
    let scalar = CampaignSpec {
        lane_width: 1,
        ..spec
    };
    let got = run_campaign_with(by_name(bench).unwrap(), &scalar, Some(&telemetry));
    assert_eq!(lane_counters(&got), (0, 0, 0, 0, 0));
    assert_matches_replay(&format!("{component} cluster=4 width=1"), &scalar, &got);
}

#[test]
fn mcu_clustered_injections_are_all_scalar_fallbacks() {
    clustered_injections_are_all_scalar_fallbacks_sharing_warmups(ComponentKind::Mcu, "flui");
}

#[test]
fn ccx_clustered_injections_are_all_scalar_fallbacks() {
    clustered_injections_are_all_scalar_fallbacks_sharing_warmups(ComponentKind::Ccx, "lu-c");
}

#[test]
fn pcie_clustered_injections_are_all_scalar_fallbacks() {
    clustered_injections_are_all_scalar_fallbacks_sharing_warmups(ComponentKind::Pcie, "p-lr");
}

/// The same clustering on L2C batches instead. There, the fallback
/// counter means "lanes that *left* a batch for the scalar oracle"
/// (divergence, ArchMappable exit, abort, trapped warm-up), so the
/// exact-accounting contract is a partition: every clustered injection
/// either retires inside its batch or falls back — never both, never
/// neither.
#[test]
fn l2c_clustered_injections_partition_into_retired_and_fallbacks() {
    let profile = by_name("flui").unwrap();
    let spec = spec(ComponentKind::L2c, 12, 4);
    let telemetry = TelemetryConfig::default();
    let got = run_campaign_with(profile, &spec, Some(&telemetry));

    let (batches, retired_early, scalar_fallbacks, parked, shared_warmups) = lane_counters(&got);
    assert_eq!(
        (batches, retired_early, scalar_fallbacks),
        (3, 9, 3),
        "three batches; every clustered L2C injection retires in-batch or falls back, exactly once"
    );
    assert!(parked > 0, "no lane was ever parked");
    assert!(
        parked <= retired_early + scalar_fallbacks,
        "a parked lane leaves as an in-batch Vanished or through the fallback"
    );
    assert_eq!(shared_warmups, 0, "a batch is not a shared scalar warm-up");
    assert_matches_replay("l2c cluster=4", &spec, &got);
}

/// A cap so tight (64 cycles) that the carrier is still busy when it
/// strikes: the lanes the first check proves identical are parked, and
/// all of them leave through the cap fallback — only a Persist lane can
/// retire in such a batch.
#[test]
fn l2c_parked_lanes_cut_off_by_the_cap_fall_back() {
    let profile = by_name("radi").unwrap();
    let spec = CampaignSpec {
        cosim_cap: 64,
        ..spec(ComponentKind::L2c, 48, 16)
    };
    let telemetry = TelemetryConfig::default();
    let got = run_campaign_with(profile, &spec, Some(&telemetry));

    let (batches, retired_early, scalar_fallbacks, parked, _) = lane_counters(&got);
    assert_eq!((batches, retired_early, scalar_fallbacks), (3, 1, 47));
    assert!(
        parked > retired_early,
        "{parked} parked lanes: more than retired, so some fell back at the cap"
    );
    assert!(parked <= retired_early + scalar_fallbacks);
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
