//! CI smoke gate for the deterministic protocol simulator: four
//! fixed-seed, fully deterministic phases on the one scenario.
//!
//! 1. **DFS** — bounded depth-first enumeration of the schedule tree;
//!    every explored schedule must satisfy every invariant.
//! 2. **Random** — a sweep of seeded random schedules; same bar.
//! 3. / 4. **Mutation** — a planted bug ([`SimConfig::mutate`]) that a
//!    random sweep must catch and that must replay from its seed and
//!    its schedule: first-writer-wins off, caught as a crash no fault
//!    explains (the machine's cover check found a sample merged twice),
//!    then dedup fan-out off, caught as a lost subscriber. A checker
//!    that cannot catch a planted exactly-once bug guards nothing.
//!
//! The clean phases print how often each of the six fault flavours
//! fired, and the run fails if one never did. Replay environment
//! (printed by every failure):
//!
//! * `NESTSIM_MCK_SEED=<n|0xhex>` — rerun one random schedule.
//! * `NESTSIM_MCK_SCHEDULE=3,0,1,...` — rerun one explicit schedule.
//! * `NESTSIM_MCK_MUTATE=fww|fanout` — replay against a mutated machine.

use nestsim_core::campaign::CampaignSpec;
use nestsim_hlsim::workload::by_name;
use nestsim_mck::explore::{
    explore_dfs, explore_random, failure_report, Chooser, RandomChooser, ScheduleChooser,
};
use nestsim_mck::world::{run_sim, world, Fault, FaultBudget, Mutation, SimConfig, SimError};
use nestsim_mck::{CampaignExec, ServerScenario};
use nestsim_models::ComponentKind;
use nestsim_telemetry::TelemetryConfig;
use std::process::ExitCode;

/// Every phase derives from this seed; the whole smoke run is a pure
/// function of the source tree.
const BASE_SEED: u64 = 0xD0C5_2015;
const DFS_TRACES: usize = 400;
const RANDOM_TRACES: usize = 96;

/// Faults taken across a phase's passing schedules, by flavour.
type Tally = [u64; Fault::NAMES.len()];

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn cell() -> CampaignExec {
    let profile = by_name("flui").expect("flui profile exists");
    let spec = CampaignSpec {
        seed: 7,
        workers: 1,
        ..CampaignSpec::quick(ComponentKind::L2c, 6)
    };
    CampaignExec::new(profile, &spec, Some(&TelemetryConfig::default()))
}

fn config(mutate: Option<Mutation>) -> SimConfig {
    let faults = FaultBudget(2);
    SimConfig { faults, mutate }
}

/// The replay handle's name for a mutation.
fn mutation_name(mutation: Mutation) -> &'static str {
    match mutation {
        Mutation::FirstWriterWins => "fww",
        Mutation::DedupFanout => "fanout",
    }
}

/// The world, adding each passing schedule's faults to `tally`.
fn counted<'a>(
    scenario: &'a ServerScenario<'_>,
    cfg: &'a SimConfig,
    tally: &'a mut Tally,
) -> impl FnMut(&mut dyn Chooser) -> Result<(), SimError> + 'a {
    move |chooser| {
        let report = run_sim(scenario, cfg, chooser)?;
        for (t, n) in tally.iter_mut().zip(report.faults) {
            *t += u64::from(n);
        }
        Ok(())
    }
}

/// How often each fault flavour fired.
fn print_tally(tally: &Tally) {
    let parts: Vec<String> = (Fault::NAMES.iter().zip(tally))
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
    println!("mck: faults taken: {}", parts.join(", "));
}

/// Replays the one schedule the environment names, if it names one.
fn replay_from_env(scenario: &ServerScenario<'_>) -> Option<Result<(), String>> {
    let seed = std::env::var("NESTSIM_MCK_SEED").ok();
    let schedule = std::env::var("NESTSIM_MCK_SCHEDULE").ok();
    if seed.is_none() && schedule.is_none() {
        return None;
    }
    let mutate = match std::env::var("NESTSIM_MCK_MUTATE").as_deref() {
        Ok("fww") => Some(Mutation::FirstWriterWins),
        Ok("fanout") => Some(Mutation::DedupFanout),
        Ok(other) => {
            return Some(Err(format!(
                "NESTSIM_MCK_MUTATE: fww or fanout, not {other}"
            )))
        }
        Err(_) => None,
    };
    let mut chooser: Box<dyn Chooser> = if let Some(s) = schedule {
        Box::new(ScheduleChooser::parse(&s).expect("NESTSIM_MCK_SCHEDULE: comma-joined integers"))
    } else {
        let seed = parse_u64(&seed.expect("checked above")).expect("NESTSIM_MCK_SEED: integer");
        Box::new(RandomChooser::new(seed))
    };
    println!("mck: replaying one schedule (mutate={mutate:?})");
    Some(match run_sim(scenario, &config(mutate), chooser.as_mut()) {
        Ok(report) => {
            let (steps, faults) = (report.steps, report.faults_injected());
            let ms = report.virtual_ms;
            println!("mck: schedule passed: {steps} events, {faults} fault(s), {ms} virtual ms");
            Ok(())
        }
        Err(e) => Err(format!(
            "replay failed\n{}",
            failure_report(&e, None, chooser.trace())
        )),
    })
}

/// Two phases, a bounded DFS and a seeded random sweep, which must both
/// come back clean and together take every fault flavour.
fn clean(scenario: &ServerScenario<'_>) -> Result<(), String> {
    let cfg = config(None);
    let mut tally = Tally::default();
    let dfs = explore_dfs(DFS_TRACES, counted(scenario, &cfg, &mut tally));
    if let Some((schedule, err)) = dfs.failure {
        return Err(format!("DFS: {}", failure_report(&err, None, &schedule)));
    }
    let exhausted = if dfs.exhausted {
        ", tree exhausted"
    } else {
        ""
    };
    println!("mck: DFS clean: {} schedules{exhausted}", dfs.traces);
    let sweep = counted(scenario, &cfg, &mut tally);
    let random = explore_random(BASE_SEED, RANDOM_TRACES, sweep);
    if let Some((seed, schedule, err)) = random.failure {
        return Err(format!(
            "random: {}",
            failure_report(&err, Some(seed), &schedule)
        ));
    }
    println!("mck: random clean: {} schedules", random.traces);
    print_tally(&tally);
    match Fault::NAMES.iter().zip(tally).find(|(_, n)| *n == 0) {
        Some((name, _)) => Err(format!("no clean schedule took a {name} fault")),
        None => Ok(()),
    }
}

/// A mutation phase: a random sweep with `mutation` planted must find
/// the violation `planted` names, and it must replay from its seed and
/// from its schedule with the identical error.
fn caught(
    scenario: &ServerScenario<'_>,
    mutation: Mutation,
    planted: fn(&SimError) -> bool,
) -> Result<(), String> {
    let label = mutation_name(mutation);
    let mutated = config(Some(mutation));
    let hunt = explore_random(BASE_SEED, RANDOM_TRACES, world(scenario, &mutated));
    let traces = hunt.traces;
    let Some((seed, schedule, err)) = hunt.failure else {
        return Err(format!(
            "{label} mutation: {traces} schedules, no violation"
        ));
    };
    if !planted(&err) {
        return Err(format!(
            "{label} mutation tripped the wrong invariant: {err}"
        ));
    }
    println!("mck: {label} mutation caught after {traces} schedules: {err}");
    let run = "cargo run -p nestsim-mck --bin mck_smoke";
    println!("  (replay: NESTSIM_MCK_MUTATE={label} NESTSIM_MCK_SEED={seed:#x} {run})");
    let mut by_seed = RandomChooser::new(seed);
    let seed_err = run_sim(scenario, &mutated, &mut by_seed).expect_err("seed replay fails");
    let mut by_schedule = ScheduleChooser::new(schedule.clone());
    let sched_err = run_sim(scenario, &mutated, &mut by_schedule).expect_err("replay fails");
    if seed_err != err || by_seed.trace() != schedule || sched_err != err {
        return Err(format!("{label} replay diverged: {seed_err} / {sched_err}"));
    }
    println!("mck: {label} mutation failure replays from seed and from schedule");
    Ok(())
}

fn smoke(scenario: &ServerScenario<'_>) -> Result<(), String> {
    clean(scenario)?;
    let double_count = |e: &SimError| matches!(e, SimError::UnexplainedCrash { .. });
    caught(scenario, Mutation::FirstWriterWins, double_count)?;
    let lost = |e: &SimError| matches!(e, SimError::LostSubscriber { .. });
    caught(scenario, Mutation::DedupFanout, lost)
}

fn main() -> ExitCode {
    println!("mck_smoke: deterministic protocol simulation of the campaign server");
    let exec = cell();
    println!(
        "mck: cell ready: {} samples, engine cached and in-process reference computed",
        exec.samples()
    );
    let scenario = ServerScenario::new(&exec);
    let outcome = replay_from_env(&scenario).unwrap_or_else(|| smoke(&scenario));
    match outcome {
        Ok(()) => {
            println!("mck_smoke: OK");
            ExitCode::SUCCESS
        }
        Err(message) => {
            println!("mck: FAIL: {message}");
            ExitCode::FAILURE
        }
    }
}
