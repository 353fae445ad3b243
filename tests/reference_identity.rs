//! One property holds every way of running a campaign cell to one plain
//! reference. [`run_campaign_replay`] runs a cell on one thread with a
//! fresh system for the golden run and for each sample, and none of the
//! engine's shortcuts: no ladder, cursor, window carrier, lane batch,
//! shard or parked storage. Each case draws two cells, each with an
//! executor, runs them back to back and requires the golden reference,
//! the counts, the records and the merged telemetry export of each to be
//! the reference's bytes. The second cell runs on the storage the first
//! one parked — on the same component, whose drivers it takes, or on
//! another — and the cases run back to back in this one process, so
//! the history of parked storage is drawn too, and replays with a case.
//!
//! Coverage is counted across the cases, as the lockstep oracles count
//! theirs: a default run fails if an executor, a component or an engine
//! path the identity must reach was never reached (`--nocapture` prints
//! the counts). A case is a whole campaign, so a failure is not shrunk:
//! the printed `NESTSIM_PROP_SEED` replays the failing case alone.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use nestsim_harness::{check_with, Config, Source};

use nestsim::cluster::{
    auto_shard_size, plan_shards, run_campaign_cluster, run_worker, ClusterConfig, RemoteExecutor,
    SvcClient, WorkerOptions,
};
use nestsim::core::campaign::{
    contiguous_shards, default_workers, draw_samples, entry_cycle, entry_order,
    run_campaign_replay, run_campaign_with, run_rounds, CampaignResult, CampaignSpec, Plan,
};
use nestsim::core::inject::InjectionSpec;
use nestsim::hlsim::workload::{by_name, BenchProfile, BENCHMARKS};
use nestsim::models::ComponentKind;
use nestsim::svc::{serve, ServiceConfig};
use nestsim::telemetry::{names, TelemetryConfig};

/// Cases of a default run.
const CASES: u32 = 24;

/// How long a remote execution may take before the case fails: a
/// server whose workers all died waits for them for ever.
const DEADLINE: Duration = Duration::from_secs(60);

/// Where a case runs its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Executor {
    /// `run_campaign_with`: the ladder executor's worker threads.
    InProcess,
    /// `run_cluster` with this many worker threads.
    Cluster(usize),
    /// A `serve()`d service through `RemoteExecutor`, with or without a
    /// worker dialled in.
    Served { worker: bool },
}

impl Executor {
    /// The slot [`Coverage::executors`] counts it in.
    fn slot(self) -> usize {
        match self {
            Executor::InProcess => 0,
            Executor::Cluster(_) => 1,
            Executor::Served { worker: false } => 2,
            Executor::Served { worker: true } => 3,
        }
    }

    /// Whether one worker takes the cell as shards, so that the shard
    /// plan is the one-worker plan.
    fn one_leasing_worker(self) -> bool {
        matches!(
            self,
            Executor::Cluster(1) | Executor::Served { worker: true }
        )
    }
}

/// One drawn case.
#[derive(Clone, Copy)]
struct Case {
    profile: &'static BenchProfile,
    spec: CampaignSpec,
    telemetry: Option<TelemetryConfig>,
    executor: Executor,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Case {
            profile,
            spec,
            telemetry,
            executor,
        } = self;
        write!(f, "{} {spec:?} {telemetry:?} {executor:?}", profile.name)
    }
}

/// A cell of `component`, or of a component drawn for `None`.
fn draw(src: &mut Source, component: Option<ComponentKind>) -> Case {
    let component =
        component.unwrap_or_else(|| ComponentKind::ALL[src.index(ComponentKind::ALL.len())]);
    // PCIe injects only into the benchmarks fed by an input file.
    let benches: Vec<&str> = (BENCHMARKS.iter())
        .filter(|p| component != ComponentKind::Pcie || p.has_input_file())
        .map(|p| p.name)
        .collect();
    let profile = by_name(benches[src.index(benches.len())]).expect("a known benchmark");
    // A cap this tight strikes while a batch's carrier is still busy, so
    // lanes end at it inside their batch: its cells batch, and as its
    // runs are short, they are larger.
    let (cosim_cap, samples, lane_cluster, lane_width) = match src.bool() {
        false => (
            20_000,
            src.range_u64(1, 17),
            [1, 2, 4, 8, 16][src.index(5)],
            [1, 2, 8, 64][src.index(4)],
        ),
        true => (64, src.range_u64(16, 65), [8, 16][src.index(2)], 64),
    };
    let spec = CampaignSpec {
        seed: src.u64(),
        workers: src.index(5),
        snapshot_interval: [512, 2_000, 8_192, u64::MAX][src.index(4)],
        lane_cluster,
        lane_width,
        cosim_cap,
        ..CampaignSpec::quick(component, samples)
    };
    let telemetry = [
        None,
        Some(TelemetryConfig::default()),
        Some(TelemetryConfig { trace_capacity: 16 }),
    ][src.index(3)];
    let executor = match src.index(5) {
        0 | 1 => Executor::InProcess,
        2 => Executor::Cluster(src.range_usize_inclusive(1, 3)),
        3 => Executor::Served { worker: false },
        _ => Executor::Served { worker: true },
    };
    Case {
        profile,
        spec,
        telemetry,
        executor,
    }
}

/// `f` on a thread of its own, failing the case if it has not returned
/// within [`DEADLINE`].
fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(Ok(r)) => r,
        Ok(Err(panic)) => panic::resume_unwind(panic),
        Err(_) => panic!("the execution did not finish within {DEADLINE:?}"),
    }
}

/// The cell's fixed plan on a fresh service, through `RemoteExecutor`;
/// with `worker`, a worker is dialled in first and takes it as shards.
fn served(case: Case, worker: bool) -> CampaignResult {
    let Case {
        profile,
        spec,
        telemetry,
        ..
    } = case;
    let handle = serve(ServiceConfig::default()).expect("the service binds");
    let addr = handle.addr().to_string();
    let worker = worker.then(|| {
        let to = addr.clone();
        let worker = std::thread::spawn(move || run_worker(&to, &WorkerOptions::default()));
        let mut observer = SvcClient::connect(&addr, "observer").expect("the service answers");
        let connected = |o: &mut SvcClient| {
            let stats = o.stats().expect("the service reports");
            stats.counter(names::CLUSTER_WORKERS_CONNECTED) > 0
        };
        while !connected(&mut observer) {
            std::thread::sleep(Duration::from_millis(1));
        }
        worker
    });
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        let telemetry = telemetry.as_ref();
        let executor =
            RemoteExecutor::connect(&addr, profile, &spec, telemetry).expect("the service answers");
        run_rounds(profile, &spec, &Plan::Fixed, telemetry, executor)
    }));
    handle.shutdown().expect("the service stops");
    if let Some(worker) = worker {
        let _ = worker.join();
    }
    run.unwrap_or_else(|panic| panic::resume_unwind(panic))
}

fn execute(case: Case) -> CampaignResult {
    let Case {
        profile,
        spec,
        telemetry,
        executor,
    } = case;
    match executor {
        Executor::InProcess => run_campaign_with(profile, &spec, telemetry.as_ref()),
        Executor::Cluster(n) => within_deadline(move || {
            let cfg = ClusterConfig::threads(n);
            run_campaign_cluster(profile, &spec, telemetry.as_ref(), &cfg)
        }),
        Executor::Served { worker } => within_deadline(move || served(case, worker)),
    }
}

/// Requires `got` to carry `want`'s bytes, naming the first record that
/// differs.
fn assert_same(at: &str, want: &CampaignResult, got: &CampaignResult) {
    assert_eq!(got.golden, want.golden, "{at}: golden");
    assert_eq!(got.counts, want.counts, "{at}: counts");
    assert_eq!(got.records.len(), want.records.len(), "{at}: records");
    if let Some(i) = (0..want.records.len()).find(|&i| got.records[i] != want.records[i]) {
        panic!(
            "{at}: record {i} is {:?}, the reference's {:?}",
            got.records[i], want.records[i]
        );
    }
    assert!(
        got.telemetry.merged.to_jsonl() == want.telemetry.merged.to_jsonl(),
        "{at}: merged telemetry differs"
    );
}

/// What the cases reached, summed over a run.
#[derive(Debug, Default)]
struct Coverage {
    cases: u32,
    components: [u32; 4],
    /// In process, cluster, served, served to a worker.
    executors: [u32; 4],
    lanes_retired_early: u64,
    lanes_forked: u64,
    /// Runs whose cursors restored from a rung above the base.
    restores_above_base: u32,
    systems_taken: u64,
    drivers_taken: u64,
    /// Drivers a served run reported through the service's `Done`.
    served_drivers: u64,
    /// Cases whose second cell switched component, and whose ran on the
    /// first one's.
    pairs: [u32; 2],
    /// Leased runs with a shard boundary inside a window.
    shards_cutting_a_window: u32,
}

/// The cycles a one-walk-per-shard run forward-simulates when every
/// walk restores once, from the base: each shard's walk runs from
/// cycle 0 to its last entry point.
fn forward_from_the_base(samples: &[InjectionSpec], workers: usize) -> u64 {
    let order = entry_order(samples);
    let shards = contiguous_shards(&order, workers.min(samples.len()));
    (shards.iter())
        .filter_map(|shard| shard.last())
        .map(|&i| entry_cycle(&samples[i]))
        .sum()
}

/// Whether the one-worker shard plan of `samples` puts a boundary
/// between two samples of one window: one instance entering at one
/// cycle.
fn one_worker_plan_cuts_a_window(samples: &[InjectionSpec]) -> bool {
    let order = entry_order(samples);
    let n = samples.len() as u64;
    plan_shards(n, auto_shard_size(n, 1))
        .iter()
        .skip(1)
        .any(|shard| {
            let (a, b) = (
                &samples[order[shard.start as usize - 1]],
                &samples[order[shard.start as usize]],
            );
            a.instance == b.instance && entry_cycle(a) == entry_cycle(b)
        })
}

/// Counts what the run of `case` reached, checking on the way what its
/// executor reports of itself.
fn count(cov: &mut Coverage, case: &Case, samples: &[InjectionSpec], got: &CampaignResult) {
    let at = format!("{case:?}");
    let engine = &got.telemetry.engine;
    cov.components[case.spec.component as usize] += 1;
    cov.executors[case.executor.slot()] += 1;
    if case.executor.one_leasing_worker() && one_worker_plan_cuts_a_window(samples) {
        cov.shards_cutting_a_window += 1;
    }
    if case.telemetry.is_none() {
        return;
    }
    cov.lanes_retired_early += engine.counter(names::LANES_RETIRED_EARLY);
    cov.lanes_forked += engine.counter(names::LANES_SCALAR_FALLBACKS);
    cov.systems_taken += engine.counter(names::STORAGE_SYSTEMS_TAKEN);
    cov.drivers_taken += engine.counter(names::STORAGE_DRIVERS_TAKEN);
    match case.executor {
        Executor::InProcess => {
            let workers = match case.spec.workers {
                0 => default_workers(),
                n => n,
            };
            let order = entry_order(samples);
            let split: Vec<usize> = (contiguous_shards(&order, workers.min(samples.len())))
                .iter()
                .map(Vec::len)
                .collect();
            assert_eq!(
                got.telemetry.worker_samples, split,
                "{at}: samples per worker"
            );
            let forward = engine.counter(names::FORWARD_CYCLES);
            let from_base = forward_from_the_base(samples, workers);
            assert!(forward <= from_base, "{at}: {forward} forward cycles");
            if forward < from_base {
                cov.restores_above_base += 1;
            }
        }
        Executor::Cluster(_) => {
            let shards = engine.counter(names::CLUSTER_SHARDS);
            assert!(shards >= 1, "{at}: no shard");
            assert_eq!(
                engine.counter(names::CLUSTER_SHARDS_COMPLETED),
                shards,
                "{at}: every shard completes exactly once in a healthy run"
            );
            assert_eq!(engine.counter(names::CLUSTER_REDISPATCHES), 0, "{at}");
        }
        Executor::Served { .. } => {
            cov.served_drivers += engine.counter(names::STORAGE_DRIVERS_TAKEN)
                + engine.counter(names::STORAGE_DRIVERS_BUILT);
        }
    }
}

#[test]
fn every_executor_gives_the_reference_bytes() {
    let coverage = RefCell::new(Coverage::default());
    let config = Config {
        cases: CASES,
        max_shrink_iters: 0,
        ..Config::default()
    };
    check_with(config, "every_executor_gives_the_reference_bytes", |src| {
        let mut cov = coverage.borrow_mut();
        cov.cases += 1;
        // The second cell runs on the first one's component, whose
        // drivers it takes, or on another.
        let first = draw(src, None);
        let same = src.bool();
        let second = match same {
            true => first.spec.component,
            false => {
                let others: Vec<ComponentKind> = (ComponentKind::ALL.into_iter())
                    .filter(|&c| c != first.spec.component)
                    .collect();
                others[src.index(others.len())]
            }
        };
        cov.pairs[usize::from(same)] += 1;
        for cell in [first, draw(src, Some(second))] {
            let want = run_campaign_replay(cell.profile, &cell.spec, cell.telemetry.as_ref());
            let got = execute(cell);
            assert_same(&format!("{cell:?}"), &want, &got);
            let samples = draw_samples(cell.profile, &cell.spec, &want.golden);
            count(&mut cov, &cell, &samples, &got);
        }
    });
    let cov = coverage.into_inner();
    eprintln!("reference identity coverage: {cov:?}");
    if cov.cases < CASES {
        // A replay of one pinned case: its identity is what it checks.
        return;
    }
    assert!(
        cov.components.iter().all(|&n| n > 0),
        "a component was never drawn: {cov:?}"
    );
    assert!(
        cov.executors.iter().all(|&n| n > 0),
        "an executor was never drawn: {cov:?}"
    );
    for (what, n) in [
        ("lanes retired inside a batch", cov.lanes_retired_early),
        ("lanes forked out of a batch", cov.lanes_forked),
        (
            "restores from a rung above the base",
            cov.restores_above_base.into(),
        ),
        ("systems taken from parked storage", cov.systems_taken),
        ("drivers taken from parked storage", cov.drivers_taken),
        ("drivers counted through the service", cov.served_drivers),
        (
            "component switch between a case's cells",
            cov.pairs[0].into(),
        ),
        ("same-component pair of cells", cov.pairs[1].into()),
        (
            "shards cutting a window",
            cov.shards_cutting_a_window.into(),
        ),
    ] {
        assert!(n > 0, "no {what}: {cov:?}");
    }
}
