//! End-to-end byte-identity and accounting tests for the adaptive
//! sampling engine.
//!
//! The adaptive contract extends the cluster contract: the stop
//! decision is a pure function of the merged round tallies, so for any
//! worker count — and for cluster execution versus the in-process
//! engine — an adaptive campaign produces byte-identical records,
//! counts, golden reference, merged telemetry, and round trace. Sample
//! identities `(stratum, j)` are drawn independently of round
//! boundaries and CI targets, so campaigns that share identities share
//! their records exactly (the prefix property).

use nestsim::cluster::{run_cluster, ClusterConfig};
use nestsim::core::campaign::{run_rounds, CampaignResult, CampaignSpec, LadderExecutor, Plan};
use nestsim::core::Outcome;
use nestsim::hlsim::workload::{by_name, BenchProfile};
use nestsim::models::ComponentKind;
use nestsim::stats::stop::StopPolicy;
use nestsim::telemetry::{names, TelemetryConfig};

/// `spec` under `policy` on the in-process executor.
fn adaptive_in_process(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    policy: &StopPolicy,
    telemetry: Option<&TelemetryConfig>,
) -> CampaignResult {
    let plan = Plan::Adaptive(*policy);
    let executor = LadderExecutor::new(profile, spec, &plan, telemetry);
    run_rounds(profile, spec, &plan, telemetry, executor)
}

fn cell() -> (&'static BenchProfile, CampaignSpec) {
    let profile = by_name("flui").unwrap();
    let spec = CampaignSpec {
        seed: 7,
        ..CampaignSpec::quick(ComponentKind::L2c, 12)
    };
    (profile, spec)
}

/// A loose, small-budget policy so the whole sequential campaign stays
/// test-sized: a handful of 8..32-sample rounds inside a 48-sample
/// budget.
fn quick_policy(half_width: f64) -> StopPolicy {
    let mut p = StopPolicy::new(half_width, 0.90);
    p.min_samples = 8;
    p.initial_round = 8;
    p.max_round = 32;
    p.max_samples = 48;
    p
}

fn assert_identical(ctx: &str, reference: &CampaignResult, got: &CampaignResult) {
    assert_eq!(got.records, reference.records, "{ctx}: records diverged");
    assert_eq!(got.counts, reference.counts, "{ctx}: counts diverged");
    assert_eq!(got.golden, reference.golden, "{ctx}: golden diverged");
    assert_eq!(
        got.telemetry.merged.to_jsonl(),
        reference.telemetry.merged.to_jsonl(),
        "{ctx}: merged telemetry diverged"
    );
    assert_eq!(
        got.adaptive, reference.adaptive,
        "{ctx}: adaptive summary diverged"
    );
}

#[test]
fn adaptive_campaign_is_byte_identical_across_worker_counts() {
    let (profile, spec) = cell();
    let policy = quick_policy(0.22);
    let telemetry = TelemetryConfig::default();
    let reference = adaptive_in_process(profile, &spec, &policy, Some(&telemetry));
    assert!(reference.adaptive.is_some());
    for workers in [1usize, 4] {
        let spec = CampaignSpec { workers, ..spec };
        let got = adaptive_in_process(profile, &spec, &policy, Some(&telemetry));
        assert_identical(&format!("{workers} workers"), &reference, &got);
    }
}

#[test]
fn adaptive_cluster_matches_in_process_at_two_ci_targets() {
    let (profile, spec) = cell();
    let telemetry = TelemetryConfig::default();
    for half_width in [0.22, 0.35] {
        let policy = quick_policy(half_width);
        let reference = adaptive_in_process(profile, &spec, &policy, Some(&telemetry));
        let got = run_cluster(
            profile,
            &spec,
            &Plan::Adaptive(policy),
            Some(&telemetry),
            &ClusterConfig::threads(2),
        );
        assert_identical(&format!("ci target {half_width}"), &reference, &got);
    }
}

/// Workers persist across adaptive rounds: the server parks idle
/// workers between rounds and re-serves the same connections, so a
/// multi-round campaign handshakes each worker exactly once (the old
/// implementation respawned the pool per round, counting
/// `workers × rounds` connects).
#[test]
fn adaptive_cluster_workers_connect_once_for_all_rounds() {
    let (profile, spec) = cell();
    // The tight CI target forces multiple rounds within the budget.
    let policy = quick_policy(0.16);
    let telemetry = TelemetryConfig::default();
    let workers = 2;
    let got = run_cluster(
        profile,
        &spec,
        &Plan::Adaptive(policy),
        Some(&telemetry),
        &ClusterConfig::threads(workers),
    );
    let summary = got.adaptive.as_ref().expect("adaptive summary");
    assert!(
        summary.rounds.len() >= 2,
        "policy must drive a multi-round campaign, got {} round(s)",
        summary.rounds.len()
    );
    let connects = got
        .telemetry
        .engine
        .counter(names::CLUSTER_WORKERS_CONNECTED);
    assert_eq!(
        connects,
        workers as u64,
        "each worker must connect once for the whole {}-round campaign",
        summary.rounds.len()
    );
}

/// The prefix property, end to end: two adaptive campaigns with
/// different CI targets run different numbers of rounds with different
/// allocations, but a sample's identity `(stratum, j)` alone determines
/// its injection and therefore its record. Every identity the two
/// campaigns share must carry the identical record — and within each
/// campaign every identity is run exactly once, with the outcome
/// accounting closed over the records.
#[test]
fn adaptive_campaigns_share_records_on_shared_sample_identities() {
    let (profile, spec) = cell();
    let telemetry = TelemetryConfig::default();
    let loose = adaptive_in_process(profile, &spec, &quick_policy(0.35), Some(&telemetry));
    let tight = adaptive_in_process(profile, &spec, &quick_policy(0.16), Some(&telemetry));

    let index = |r: &CampaignResult| {
        let summary = r.adaptive.clone().expect("adaptive summary");
        let ids = summary.sample_identities();
        assert_eq!(
            ids.len(),
            r.records.len(),
            "one identity per record, in record order"
        );
        let mut map = std::collections::HashMap::new();
        for (id, rec) in ids.into_iter().zip(r.records.clone()) {
            assert!(map.insert(id, rec).is_none(), "identity {id:?} ran twice");
        }
        map
    };
    let loose_map = index(&loose);
    let tight_map = index(&tight);

    assert_ne!(
        loose.records.len(),
        tight.records.len(),
        "the two CI targets must exercise different stopping points"
    );
    let shared: Vec<_> = loose_map
        .keys()
        .filter(|id| tight_map.contains_key(id))
        .collect();
    assert!(!shared.is_empty(), "the campaigns share no samples");
    for id in shared {
        assert_eq!(
            loose_map[id], tight_map[id],
            "record for shared sample {id:?} diverged across CI targets"
        );
    }

    // Exact accounting inside each campaign: the outcome tally is the
    // records, nothing more and nothing less.
    for r in [&loose, &tight] {
        for outcome in Outcome::ALL {
            let from_records = r
                .records
                .iter()
                .filter(|rec| rec.outcome == outcome)
                .count();
            assert_eq!(
                r.counts.count(outcome),
                from_records as u64,
                "{outcome:?} tally diverged from the records"
            );
        }
    }
}
