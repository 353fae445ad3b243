//! The snapshot ladder's rung budget, counted exactly.
//!
//! A fixed-count cell keeps at most one rung per shard, base included
//! (`rung_budget`): a single worker captures nothing and its cursor
//! runs forward from the base to the last entry, and so does a single
//! cluster worker across its leases. Adaptive rounds keep the
//! `DEFAULT_MAX_RUNGS` ladder. The budget is execution-only — the
//! byte-identity of every budget against the replay reference is
//! `end_to_end.rs`'s `ladder_engine_is_byte_identical_…` — so what is
//! checked here is what each budget costs: captures, live rungs,
//! restores and forward cycles, from the engine counters.

use nestsim::cluster::{run_cluster, ClusterConfig};
use nestsim::core::campaign::{
    draw_samples, entry_cycle, golden_reference, laddered_golden_reference, run_campaign_with,
    run_rounds, rung_budget, CampaignResult, CampaignSpec, LadderExecutor, Plan,
};
use nestsim::hlsim::ladder::DEFAULT_MAX_RUNGS;
use nestsim::hlsim::workload::by_name;
use nestsim::hlsim::SnapshotLadder;
use nestsim::models::ComponentKind;
use nestsim::stats::stop::StopPolicy;
use nestsim::telemetry::{names, Recorder, TelemetryConfig};

fn engine_counts(engine: &Recorder) -> [u64; 4] {
    [
        names::LADDER_CAPTURES,
        names::LADDER_RUNGS,
        names::LADDER_RESTORES,
        names::FORWARD_CYCLES,
    ]
    .map(|name| engine.counter(name))
}

#[test]
fn one_worker_captures_nothing_and_runs_from_the_base() {
    let profile = by_name("flui").unwrap();
    let cfg = TelemetryConfig::default();
    let spec = CampaignSpec {
        workers: 1,
        ..CampaignSpec::quick(ComponentKind::Mcu, 8)
    };
    assert_eq!(rung_budget(false, &spec), 1);
    let r = run_campaign_with(profile, &spec, Some(&cfg));
    // The one cursor restores the base once and forward-simulates
    // exactly up to the last entry point.
    let last_entry = draw_samples(profile, &spec, &r.golden)
        .iter()
        .map(entry_cycle)
        .max()
        .unwrap();
    assert_eq!(
        engine_counts(&r.telemetry.engine),
        [0, 1, 1, last_entry],
        "captures, rungs, restores, forward cycles"
    );
    // The frozen probe surface applies the same rule.
    let (ladder, golden) = laddered_golden_reference(profile, &spec);
    assert_eq!((ladder.len(), ladder.captures()), (1, 0));
    assert_eq!(golden, r.golden);
}

#[test]
fn one_cluster_worker_walks_like_one_thread() {
    // One worker takes the cell's four leases in position order on one
    // walk from the base alone: the forward cycles and restores of one
    // in-process thread, exactly.
    let profile = by_name("flui").unwrap();
    let cfg = TelemetryConfig::default();
    let spec = CampaignSpec {
        workers: 1,
        ..CampaignSpec::quick(ComponentKind::Mcu, 24)
    };
    let local = run_campaign_with(profile, &spec, Some(&cfg));
    let one = ClusterConfig::threads(1);
    let cluster = run_cluster(profile, &spec, &Plan::Fixed, Some(&cfg), &one);
    assert_eq!(cluster.records, local.records);
    assert_eq!(cluster.telemetry.engine.counter(names::CLUSTER_SHARDS), 4);
    let walked = |r: &CampaignResult| {
        [names::FORWARD_CYCLES, names::LADDER_RESTORES].map(|n| r.telemetry.engine.counter(n))
    };
    assert_eq!(walked(&cluster), walked(&local), "forward cycles, restores");
}

#[test]
fn four_workers_keep_at_most_one_rung_per_shard() {
    let cfg = TelemetryConfig::default();
    for (component, bench) in [(ComponentKind::L2c, "radi"), (ComponentKind::Mcu, "flui")] {
        let profile = by_name(bench).unwrap();
        let spec = CampaignSpec {
            workers: 4,
            ..CampaignSpec::quick(component, 16)
        };
        assert_eq!(rung_budget(false, &spec), 4);
        let r = run_campaign_with(profile, &spec, Some(&cfg));
        let [captures, rungs, restores, _] = engine_counts(&r.telemetry.engine);
        assert!(
            (2..=4).contains(&rungs),
            "{bench}: {rungs} rungs for 4 shards"
        );
        assert!(captures >= rungs - 1, "{bench}: {captures} captures");
        assert!(
            (4..=4 * rungs).contains(&restores),
            "{bench}: {restores} restores"
        );
        // Fewer samples than workers: the budget follows the shards
        // that exist.
        let few = CampaignSpec { samples: 2, ..spec };
        assert_eq!(rung_budget(false, &few), 2);
    }
}

#[test]
fn adaptive_cells_keep_the_full_ladder() {
    let profile = by_name("radi").unwrap();
    let cfg = TelemetryConfig::default();
    let spec = CampaignSpec {
        workers: 2,
        snapshot_interval: 512,
        ..CampaignSpec::quick(ComponentKind::L2c, 0)
    };
    let mut policy = StopPolicy::new(0.2, 0.90);
    policy.min_samples = 8;
    policy.initial_round = 8;
    policy.max_round = 16;
    policy.max_samples = 16;
    let plan = Plan::Adaptive(policy);
    assert_eq!(rung_budget(true, &spec), DEFAULT_MAX_RUNGS);
    let executor = LadderExecutor::new(profile, &spec, &plan, Some(&cfg));
    let r = run_rounds(profile, &spec, &plan, Some(&cfg), executor);
    // The ladder a direct capture at the default cap builds: every rung
    // kept, none truncated — later rounds may enter anywhere.
    let (base, _) = golden_reference(profile, &spec);
    let (full, _) = SnapshotLadder::capture(&base, spec.snapshot_interval, DEFAULT_MAX_RUNGS);
    let [captures, rungs, restores, forward] = engine_counts(&r.telemetry.engine);
    assert_eq!((captures, rungs), (full.captures(), full.len() as u64));
    // What the adaptive engine reported before the budget existed
    // (measured on the parent engine), with entries on the warm-up
    // grid: rungs, restores, forward cycles.
    assert_eq!([rungs, restores, forward], [12, 9, 3_224]);
}
