//! Integration tests for the deterministic protocol simulator.
//!
//! Everything here is a pure function of the source tree: the engine
//! cell is built once, schedules are either explicit or derived from
//! fixed seeds, and every assertion about "the explorer finds X" is
//! paired with a replay assertion — a failure that cannot be replayed
//! from its printed handle is worthless.

use std::sync::OnceLock;

use nestsim_core::campaign::CampaignSpec;
use nestsim_harness::properties;
use nestsim_hlsim::workload::by_name;
use nestsim_mck::explore::{explore_dfs, explore_random, Chooser, RandomChooser, ScheduleChooser};
use nestsim_mck::world::{run_sim, world, FaultBudget, Mutation, SimConfig, SimError};
use nestsim_mck::{CampaignExec, ServerScenario};
use nestsim_models::ComponentKind;
use nestsim_telemetry::TelemetryConfig;

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

/// Seeded random schedules with a fault budget keep every invariant,
/// and at least one of them actually spends the budget — a sweep that
/// never injects a fault would prove nothing about fault tolerance.
#[test]
fn random_sweep_is_clean_and_exercises_faults() {
    let cfg = cfg(2);
    let mut injected = 0u64;
    for seed in 0..24u64 {
        let mut chooser = RandomChooser::new(0x5EED_0000 + seed);
        let report = run_sim(&scenario(), &cfg, &mut chooser)
            .unwrap_or_else(|e| panic!("seed {seed:#x} violated an invariant: {e}"));
        injected += u64::from(report.faults_injected());
    }
    assert!(injected > 0, "the sweep must hit at least one fault path");
}

/// Bounded DFS over the schedule tree stays clean.
#[test]
fn bounded_dfs_is_clean() {
    let report = explore_dfs(120, world(&scenario(), &cfg(1)));
    assert!(report.traces > 0);
    assert!(
        report.failure.is_none(),
        "DFS found a violation: {:?}",
        report.failure
    );
}

/// The mutation check end to end: with first-writer-wins disabled the
/// explorer must find the double count — the machine's cover check
/// crashes the cell, and no injected fault explains the crash — and the
/// failure must replay both
/// from its seed and from its recorded schedule with the identical
/// error — the copy-pasteable-repro contract.
#[test]
fn disabled_dedupe_is_caught_and_replays() {
    let mutated = SimConfig {
        mutate: Some(Mutation::FirstWriterWins),
        ..cfg(2)
    };
    let hunt = explore_random(0xD0C5_2015, 96, world(&scenario(), &mutated));
    let (seed, schedule, err) = hunt
        .failure
        .expect("a planted exactly-once bug must be found");
    assert!(
        matches!(err, SimError::UnexplainedCrash { .. }),
        "wrong invariant tripped: {err}"
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

// Random schedules seeded through the harness property runner: any
// failure prints a `NESTSIM_PROP_SEED=<seed>` replay handle, and the
// inner simulator failure its own schedule.
properties! {
    /// Every harness-drawn schedule, with a harness-drawn fault
    /// budget, satisfies every invariant.
    fn any_seeded_schedule_holds_invariants(src) {
        let faults = src.range_u64(0, 4) as u32;
        let seed = src.u64();
        let mut chooser = RandomChooser::new(seed);
        if let Err(e) = run_sim(&scenario(), &cfg(faults), &mut chooser) {
            panic!(
                "NESTSIM_MCK_SEED={seed:#x} (faults {faults}) violated an invariant: {e}"
            );
        }
    }
}
