//! Integration tests for the deterministic protocol simulator.
//!
//! Everything here is a pure function of the source tree: the engine
//! cell is built once, schedules are either explicit or derived from
//! fixed seeds, and every assertion about "the explorer finds X" is
//! paired with a replay assertion — a failure that cannot be replayed
//! from its printed handle is worthless. A failing schedule prints the
//! seed a [`RandomChooser`] and the picks a [`ScheduleChooser`] replay
//! it from.

use std::sync::OnceLock;

use nestsim_core::campaign::CampaignSpec;
use nestsim_harness::properties;
use nestsim_hlsim::workload::by_name;
use nestsim_mck::explore::{
    explore_dfs, explore_random, failure_report, Chooser, RandomChooser, ScheduleChooser,
};
use nestsim_mck::world::{run_sim, world, Fault, FaultBudget, Mutation, SimConfig, SimError};
use nestsim_mck::{CampaignExec, ServerScenario};
use nestsim_models::ComponentKind;
use nestsim_telemetry::TelemetryConfig;

/// Every random sweep below derives from this seed.
const BASE_SEED: u64 = 0xD0C5_2015;
/// Schedules the bounded DFS runs.
const DFS_TRACES: usize = 400;
/// Seeded random schedules per sweep.
const RANDOM_TRACES: usize = 96;

/// The shared engine cell: built once, read by every test. The
/// scenario borrows it, so sharing is free and safe.
fn cell() -> &'static CampaignExec {
    static CELL: OnceLock<CampaignExec> = OnceLock::new();
    CELL.get_or_init(|| {
        let profile = by_name("flui").expect("flui profile exists");
        let spec = CampaignSpec {
            seed: 7,
            workers: 1,
            ..CampaignSpec::quick(ComponentKind::L2c, 6)
        };
        CampaignExec::new(profile, &spec, Some(&TelemetryConfig::default()))
    })
}

fn scenario() -> ServerScenario<'static> {
    ServerScenario::new(cell())
}

fn cfg(faults: u32) -> SimConfig {
    SimConfig {
        faults: FaultBudget(faults),
        mutate: None,
    }
}

/// The all-defaults schedule (every pick 0) is the fault-free happy
/// path: the campaign and every tenant's cell complete with zero
/// faults injected.
#[test]
fn benign_schedule_completes_without_faults() {
    let mut chooser = ScheduleChooser::new(Vec::new());
    let report = run_sim(&scenario(), &cfg(2), &mut chooser).expect("benign schedule holds");
    assert_eq!(report.faults_injected(), 0, "pick 0 is always 'no fault'");
    assert!(report.steps > 0);
    assert!(report.virtual_ms > 0);
}

/// The same seed always produces the same schedule and the same
/// report — the whole point of a deterministic simulator.
#[test]
fn identical_seeds_produce_identical_executions() {
    let cfg = cfg(2);
    let mut a = RandomChooser::new(0xA11CE);
    let ra = run_sim(&scenario(), &cfg, &mut a).expect("schedule holds");
    let mut b = RandomChooser::new(0xA11CE);
    let rb = run_sim(&scenario(), &cfg, &mut b).expect("schedule holds");
    assert_eq!(a.trace(), b.trace(), "same seed, same picks");
    assert_eq!(ra, rb, "same seed, same report");
}

/// Faults taken across a sweep's passing schedules, by flavour.
type Tally = [u64; Fault::NAMES.len()];

/// The clean world with two faults per schedule, adding each passing
/// schedule's faults to `taken`.
fn counted(taken: &mut Tally) -> impl FnMut(&mut dyn Chooser) -> Result<(), SimError> + '_ {
    move |chooser| {
        let report = run_sim(&scenario(), &cfg(2), chooser)?;
        for (t, n) in taken.iter_mut().zip(report.faults) {
            *t += u64::from(n);
        }
        Ok(())
    }
}

/// Renders a tally as `flavour count` pairs.
fn tally(taken: &Tally) -> String {
    let parts: Vec<String> = (Fault::NAMES.iter().zip(taken))
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
    parts.join(", ")
}

/// A bounded DFS over the schedule tree, with two faults per schedule,
/// keeps every invariant. Prints what it explored and the faults it
/// took.
#[test]
fn bounded_dfs_is_clean() {
    let mut taken = Tally::default();
    let dfs = explore_dfs(DFS_TRACES, counted(&mut taken));
    if let Some((schedule, err)) = &dfs.failure {
        panic!("DFS: {}", failure_report(err, None, schedule));
    }
    println!(
        "mck: DFS {} schedules (tree exhausted: {}); faults taken: {}",
        dfs.traces,
        dfs.exhausted,
        tally(&taken)
    );
    assert!(dfs.traces > 0);
}

/// Seeded random schedules, with two faults per schedule, keep every
/// invariant, and between them take every fault flavour: a flavour no
/// schedule takes is a fault path nothing checks. Prints what it
/// explored and the faults it took.
#[test]
fn random_sweep_is_clean_and_exercises_faults() {
    let mut taken = Tally::default();
    let random = explore_random(BASE_SEED, RANDOM_TRACES, counted(&mut taken));
    if let Some((seed, schedule, err)) = &random.failure {
        panic!("random: {}", failure_report(err, Some(*seed), schedule));
    }
    println!(
        "mck: random {} schedules; faults taken: {}",
        random.traces,
        tally(&taken)
    );
    for (name, n) in Fault::NAMES.iter().zip(taken) {
        assert!(n > 0, "no clean schedule took a {name} fault");
    }
}

/// A random sweep with `mutation` planted must find the violation
/// `planted` names, and the failure must replay both from its seed and
/// from its recorded schedule with the identical error — the
/// copy-pasteable-repro contract. A checker that cannot catch a planted
/// exactly-once bug guards nothing.
fn caught_and_replayed(mutation: Mutation, planted: fn(&SimError) -> bool) {
    let mutated = SimConfig {
        mutate: Some(mutation),
        ..cfg(2)
    };
    let hunt = explore_random(BASE_SEED, RANDOM_TRACES, world(&scenario(), &mutated));
    let (seed, schedule, err) = hunt
        .failure
        .unwrap_or_else(|| panic!("{mutation:?} off: {} schedules, no violation", hunt.traces));
    assert!(
        planted(&err),
        "{mutation:?} off tripped the wrong invariant: {err}"
    );
    println!(
        "mck: {mutation:?} off caught after {} schedules\n{}",
        hunt.traces,
        failure_report(&err, Some(seed), &schedule)
    );

    let mut by_seed = RandomChooser::new(seed);
    let replayed = run_sim(&scenario(), &mutated, &mut by_seed).expect_err("seed replay must fail");
    assert_eq!(replayed, err, "seed replay must reproduce the violation");
    assert_eq!(by_seed.trace(), schedule, "seed replay must retrace");

    let mut by_schedule = ScheduleChooser::new(schedule);
    let replayed =
        run_sim(&scenario(), &mutated, &mut by_schedule).expect_err("schedule replay must fail");
    assert_eq!(
        replayed, err,
        "schedule replay must reproduce the violation"
    );
}

/// With first-writer-wins off, a duplicate shard completion is merged:
/// the machine's cover check crashes the cell, and no injected fault
/// explains the crash.
#[test]
fn disabled_dedupe_is_caught_and_replays() {
    caught_and_replayed(Mutation::FirstWriterWins, |e| {
        matches!(e, SimError::UnexplainedCrash { .. })
    });
}

/// With dedup fan-out off, a cell's result reaches only its first
/// subscriber: the explorer must find the lost one.
#[test]
fn disabling_dedup_fanout_is_caught_and_replays() {
    caught_and_replayed(Mutation::DedupFanout, |e| {
        matches!(e, SimError::LostSubscriber { .. })
    });
}

// Random schedules seeded through the harness property runner: any
// failure prints a `NESTSIM_PROP_SEED=<seed>` replay handle, and the
// inner simulator failure the seed and schedule that replay it.
properties! {
    /// Every harness-drawn schedule, with a harness-drawn fault
    /// budget, satisfies every invariant.
    fn any_seeded_schedule_holds_invariants(src) {
        let faults = src.range_u64(0, 4) as u32;
        let seed = src.u64();
        let mut chooser = RandomChooser::new(seed);
        if let Err(e) = run_sim(&scenario(), &cfg(faults), &mut chooser) {
            panic!("faults {faults}: {}", failure_report(&e, Some(seed), chooser.trace()));
        }
    }
}
