//! CI smoke gate for the deterministic protocol simulator: six
//! fixed-seed, fully deterministic phases on the one world, three per
//! scenario (cluster, then service).
//!
//! 1. / 4. **DFS** — bounded depth-first enumeration of the schedule
//!    tree; every explored schedule must satisfy every invariant.
//! 2. / 5. **Random** — a sweep of seeded random schedules; same bar.
//! 3. / 6. **Mutation** — the planted bug on ([`SimConfig::mutate`]):
//!    the coordinator's first-writer-wins dedupe off, which a random
//!    sweep must catch as a double count that replays from its seed and
//!    its schedule; the service's dedup fan-out off, which a DFS must
//!    catch as a lost subscriber that replays from its schedule. A
//!    checker that cannot catch a planted exactly-once bug guards
//!    nothing.
//!
//! Every phase prints its schedule count and the faults its schedules
//! took, by flavour. Replay environment (printed by every failure):
//!
//! * `NESTSIM_MCK_SEED=<n|0xhex>` — rerun one random schedule.
//! * `NESTSIM_MCK_SCHEDULE=3,0,1,...` — rerun one explicit schedule.
//! * `NESTSIM_MCK_MUTATE=1` — replay against the mutated machine.
//! * `NESTSIM_MCK_SVC=1` — replay the service scenario instead of the
//!   cluster one.

use nestsim_core::campaign::CampaignSpec;
use nestsim_hlsim::workload::by_name;
use nestsim_mck::explore::{
    explore_dfs, explore_random, failure_report, Chooser, RandomChooser, ScheduleChooser,
};
use nestsim_mck::world::{run_sim, Fault, FaultBudget, Scenario, SimConfig, SimError};
use nestsim_mck::{schedule_to_string, CampaignExec, Cluster, SvcScenario};
use nestsim_models::ComponentKind;
use nestsim_telemetry::TelemetryConfig;
use std::process::ExitCode;

/// Every phase derives from this seed; the whole smoke run is a pure
/// function of the source tree.
const BASE_SEED: u64 = 0xD0C5_2015;
const DFS_TRACES: usize = 400;
const RANDOM_TRACES: usize = 96;
const SVC_DFS_TRACES: usize = 400;

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

fn config(mutate: bool) -> SimConfig {
    let faults = FaultBudget(2);
    SimConfig { faults, mutate }
}

/// `scenario`'s world, adding each passing schedule's faults to `tally`.
fn counted<'a, S: Scenario>(
    scenario: &'a S,
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

fn print_tally(tally: &Tally) {
    let parts: Vec<String> = (Fault::NAMES.iter().zip(tally))
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
    println!("mck:   faults taken: {}", parts.join(", "));
}

/// Replays the one schedule the environment names, if it names one.
fn replay_from_env(exec: &CampaignExec) -> Option<Result<(), String>> {
    let seed = std::env::var("NESTSIM_MCK_SEED").ok();
    let schedule = std::env::var("NESTSIM_MCK_SCHEDULE").ok();
    if seed.is_none() && schedule.is_none() {
        return None;
    }
    let mutate = std::env::var("NESTSIM_MCK_MUTATE").is_ok_and(|v| v == "1");
    let svc = std::env::var("NESTSIM_MCK_SVC").is_ok_and(|v| v == "1");
    let mut chooser: Box<dyn Chooser> = if let Some(s) = schedule {
        Box::new(ScheduleChooser::parse(&s).expect("NESTSIM_MCK_SCHEDULE: comma-joined integers"))
    } else {
        let seed = parse_u64(&seed.expect("checked above")).expect("NESTSIM_MCK_SEED: integer");
        Box::new(RandomChooser::new(seed))
    };
    println!("mck: replaying one schedule (mutate={mutate}, svc={svc})");
    let cfg = config(mutate);
    let outcome = if svc {
        run_sim(&SvcScenario::standard(), &cfg, chooser.as_mut())
    } else {
        run_sim(&Cluster::new(exec), &cfg, chooser.as_mut())
    };
    Some(match outcome {
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

/// Two phases: a bounded DFS and a seeded random sweep of `scenario`,
/// both of which must come back clean.
fn clean<S: Scenario>(label: &str, scenario: &S, dfs_traces: usize) -> Result<(), String> {
    let cfg = config(false);
    let mut tally = Tally::default();
    let dfs = explore_dfs(dfs_traces, counted(scenario, &cfg, &mut tally));
    if let Some((schedule, err)) = dfs.failure {
        let report = failure_report(&err, None, &schedule);
        return Err(format!("{label}DFS found an invariant violation\n{report}"));
    }
    let how = if dfs.exhausted {
        "tree exhausted"
    } else {
        "trace budget reached"
    };
    println!("mck: {label}DFS clean: {} schedules ({how})", dfs.traces);
    print_tally(&tally);

    let mut tally = Tally::default();
    let sweep = counted(scenario, &cfg, &mut tally);
    let random = explore_random(BASE_SEED, RANDOM_TRACES, sweep);
    if let Some((seed, schedule, err)) = random.failure {
        let report = failure_report(&err, Some(seed), &schedule);
        return Err(format!(
            "{label}random schedule found an invariant violation\n{report}"
        ));
    }
    println!("mck: {label}random clean: {} schedules", random.traces);
    print_tally(&tally);
    Ok(())
}

/// A mutation phase's verdict: the hunt must have found the planted
/// bug's violation, and it must replay from its seed (random hunts)
/// and from its schedule with the identical error.
fn caught<S: Scenario>(
    label: &str,
    scenario: &S,
    (traces, tally): (usize, Tally),
    found: Option<(Option<u64>, Vec<usize>, SimError)>,
    planted: fn(&SimError) -> bool,
) -> Result<(), String> {
    let Some((seed, schedule, err)) = found else {
        let blind = "found no violation — the checker is blind";
        return Err(format!("{label}mutation check: {traces} schedules {blind}"));
    };
    if !planted(&err) {
        return Err(format!(
            "{label}mutation check tripped the wrong invariant: {err}"
        ));
    }
    println!("mck: {label}mutation caught after {traces} schedules: {err}");
    print_tally(&tally);
    let scope = if label.is_empty() {
        ""
    } else {
        "NESTSIM_MCK_SVC=1 "
    };
    let handle = match seed {
        Some(seed) => format!("NESTSIM_MCK_SEED={seed:#x}"),
        None => format!("NESTSIM_MCK_SCHEDULE={}", schedule_to_string(&schedule)),
    };
    let run = "cargo run -p nestsim-mck --bin mck_smoke";
    println!("  (replay: {scope}NESTSIM_MCK_MUTATE=1 {handle} {run})");

    let mutated = config(true);
    if let Some(seed) = seed {
        let mut by_seed = RandomChooser::new(seed);
        let seed_err = run_sim(scenario, &mutated, &mut by_seed).expect_err("seed replay fails");
        if seed_err != err || by_seed.trace() != schedule {
            return Err(format!("{label}seed replay diverged: {seed_err}"));
        }
    }
    let mut by_schedule = ScheduleChooser::new(schedule);
    let sched_err =
        run_sim(scenario, &mutated, &mut by_schedule).expect_err("schedule replay fails");
    if sched_err != err {
        return Err(format!("{label}schedule replay diverged: {sched_err}"));
    }
    let from = if seed.is_some() {
        "from seed and from schedule"
    } else {
        "from its schedule"
    };
    println!("mck: {label}mutation failure replays {from}");
    Ok(())
}

fn smoke(exec: &CampaignExec) -> Result<(), String> {
    let mutated = config(true);

    // Phases 1–3: the cluster.
    let cluster = Cluster::new(exec);
    clean("", &cluster, DFS_TRACES)?;
    let mut tally = Tally::default();
    let hunt = counted(&cluster, &mutated, &mut tally);
    let hunt = explore_random(BASE_SEED, RANDOM_TRACES, hunt);
    let found = (hunt.failure).map(|(seed, sched, err)| (Some(seed), sched, err));
    let double_count = |e: &SimError| matches!(e, SimError::SampleDoubleCounted { .. });
    caught("", &cluster, (hunt.traces, tally), found, double_count)?;

    // Phases 4–6: the service.
    let service = SvcScenario::standard();
    clean("service ", &service, SVC_DFS_TRACES)?;
    let mut tally = Tally::default();
    let hunt = explore_dfs(SVC_DFS_TRACES, counted(&service, &mutated, &mut tally));
    let found = hunt.failure.map(|(sched, err)| (None, sched, err));
    let lost = |e: &SimError| matches!(e, SimError::LostSubscriber { .. });
    caught("service ", &service, (hunt.traces, tally), found, lost)
}

fn main() -> ExitCode {
    println!("mck_smoke: deterministic protocol simulation of the coordinator and the service");
    let exec = cell();
    println!(
        "mck: cell ready: {} samples, engine cached and in-process reference computed",
        exec.samples()
    );
    let outcome = replay_from_env(&exec).unwrap_or_else(|| smoke(&exec));
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
