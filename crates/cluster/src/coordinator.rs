//! The campaign thread: a campaign cell's rounds fed to the one server
//! machine, with the campaign's workers attached.
//!
//! The coordinator never simulates. [`ClusterCampaign`] is the
//! cluster's [`RoundExecutor`]: for each round the one round loop
//! ([`nestsim_core::campaign::run_rounds`]) asks for, it plans
//! contiguous shards over the entry-sorted sample order (knowing only
//! the sample *count*), has the machine lease them, and hands the
//! accepted runs back sorted by round position. The merge and the
//! adaptive stop decisions are the in-process executor's: with
//! deterministic workers, any worker count, shard size or crash and
//! re-dispatch interleaving feeds the identical runs into the identical
//! merge.
//!
//! The campaign thread talks to the machine only through the loop's
//! [`Waker`](crate::server::Waker): begin a round, hear it settle,
//! snapshot the counters, shut down. Between rounds the workers stay
//! parked; shutdown dismisses them with `done`.

use std::io;
use std::net::SocketAddr;
use std::sync::mpsc;

use nestsim_core::campaign::{
    check_campaign, default_workers, run_campaign_with, run_rounds, sorted_cover, CampaignResult,
    CampaignSpec, Execution, IndexedRuns, Plan, RoundExecutor,
};
use nestsim_core::inject::{recorder_for, GoldenRef};
use nestsim_hlsim::workload::BenchProfile;
use nestsim_stats::stop::StopPolicy;
use nestsim_telemetry::{Recorder, TelemetryConfig};

use crate::lease::LeaseConfig;
use crate::machine::{Command, ServiceMachine, SvcConfig};
use crate::proto::{AdaptiveRoundWire, JobWire};
use crate::server::Server;
use crate::shard::{auto_shard_size, plan_shards, Shard};
use crate::worker::{run_worker, WorkerOptions};

/// Coordinator tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinatorConfig {
    /// Lease/heartbeat/backoff timing.
    pub lease: LeaseConfig,
    /// Shard size in samples (0 = four shards per hinted worker, see
    /// [`auto_shard_size`]).
    pub shard_size: u64,
    /// Expected worker count, used only for auto shard sizing
    /// (0 = [`default_workers`]).
    pub workers_hint: usize,
    /// Listen address — loopback-only by design; campaigns carry no
    /// authentication and trust every connected worker.
    pub listen: String,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            lease: LeaseConfig::default(),
            shard_size: 0,
            workers_hint: 0,
            listen: "127.0.0.1:0".to_string(),
        }
    }
}

/// A campaign cell being served to workers on loopback TCP: the
/// cluster's [`RoundExecutor`]. [`serve_campaign`] returns one with its
/// only round already dispatching, for callers that attach their own
/// workers and [`wait`](ClusterCampaign::wait).
pub struct ClusterCampaign {
    addr: SocketAddr,
    /// `None` once shut down.
    server: Option<Server>,
    profile: &'static BenchProfile,
    spec: CampaignSpec,
    telemetry: Option<TelemetryConfig>,
    cfg: CoordinatorConfig,
    /// The round the next [`RoundExecutor::run_round`] is asked for is
    /// already dispatching ([`serve_campaign`]).
    begun: bool,
    /// The first round's golden reference, which every later round must
    /// match.
    golden: Option<GoldenRef>,
    worker_samples: Vec<usize>,
}

impl ClusterCampaign {
    /// The coordinator's bound listen address (`127.0.0.1:port`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends the loop a command carrying a reply channel and waits for
    /// the reply; `None` if the loop stopped first.
    fn ask<T>(&self, cmd: impl FnOnce(mpsc::Sender<T>) -> Command) -> Option<T> {
        let (tx, rx) = mpsc::channel();
        self.tell(cmd(tx)).then(|| rx.recv().ok())?
    }

    /// Sends the loop a command; false if the loop already returned.
    fn tell(&self, cmd: Command) -> bool {
        (self.server.as_ref()).is_some_and(|server| server.waker().send(cmd).is_ok())
    }

    /// A snapshot of the coordinator's engine recorder (lease/frame
    /// counters live here) — lets tests poll dispatch progress.
    pub fn engine_stats(&self) -> Recorder {
        self.ask(Command::Stats)
            .expect("the coordinator loop is running")
    }

    /// Lets the machine lease the round of `strata` (`None`: the
    /// cell's fixed-count samples).
    fn begin(&self, strata: Option<&AdaptiveRoundWire>) {
        let telemetry = self.telemetry.as_ref();
        let (job, shards) = plan_round(self.profile, &self.spec, telemetry, &self.cfg, strata);
        let begun = self.tell(Command::BeginRound { job, shards });
        assert!(begun, "the coordinator loop is running");
    }

    /// Shuts the coordinator down — dismisses every parked worker with
    /// `done`, waits for every worker to hang up — and hands back its
    /// counters.
    fn shutdown(&mut self) -> Recorder {
        self.tell(Command::Shutdown);
        let server = self.server.take().expect("the coordinator shuts down once");
        server.join().expect("coordinator loop failed").into_stats()
    }

    /// Blocks until every shard completed, then assembles the result:
    /// [`Plan::Fixed`] on this executor.
    ///
    /// # Panics
    ///
    /// Panics if a worker submitted a divergent golden reference (the
    /// processes disagree on the simulation itself — never a matter of
    /// retrying) or if the merged runs do not cover the sample space.
    pub fn wait(self) -> CampaignResult {
        let (profile, spec, telemetry) = (self.profile, self.spec, self.telemetry);
        run_rounds(profile, &spec, &Plan::Fixed, telemetry.as_ref(), self)
    }
}

impl RoundExecutor for ClusterCampaign {
    fn run_round(&mut self, strata: Option<&AdaptiveRoundWire>) -> IndexedRuns {
        if !std::mem::take(&mut self.begun) {
            self.begin(strata);
        }
        // The workers stay parked for the next round.
        let settled = self
            .ask(Command::AwaitRound)
            .unwrap_or_else(|| Err("the coordinator loop stopped".to_string()))
            .and_then(|(golden, runs)| match self.golden.replace(golden) {
                Some(first) if first != golden => Err(format!(
                    "golden reference diverged between rounds: {:#x}/{} cycles, then {:#x}/{}",
                    first.digest, first.cycles, golden.digest, golden.cycles
                )),
                _ => Ok(runs),
            });
        if strata.is_none() {
            // A fixed plan's one round is its last: let the workers go
            // while the round loop merges.
            self.tell(Command::Shutdown);
        }
        let shard_runs = settled.unwrap_or_else(|e| {
            // Dismiss the workers before unwinding, or whoever joins
            // them above us would block forever.
            self.shutdown();
            panic!("cluster campaign failed: {e}");
        });
        let total = strata.map_or(self.spec.samples, |r| r.alloc.iter().sum()) as usize;
        let mut indexed: IndexedRuns = Vec::with_capacity(total);
        for runs in shard_runs {
            assert!(!runs.is_empty(), "completed round has every shard");
            if self.telemetry.is_some() {
                self.worker_samples.push(runs.len());
            }
            indexed.extend(
                runs.into_iter()
                    .map(|run| (run.sample as usize, run.record, run.recorder)),
            );
        }
        sorted_cover(indexed, total)
    }

    fn finish(mut self) -> Execution {
        Execution {
            engine: self.shutdown(),
            golden: self.golden.expect("a settled round has a golden ref"),
            worker_samples: self.worker_samples,
        }
    }
}

/// Starts serving one fixed-count campaign cell to workers on loopback
/// TCP; attach workers ([`run_worker`]) and
/// [`wait`](ClusterCampaign::wait).
///
/// # Panics
///
/// Panics on invalid campaign cells ([`check_campaign`]) and on empty
/// campaigns (`samples == 0` — nothing to distribute; use
/// [`run_campaign_cluster`], which short-circuits them in process).
pub fn serve_campaign(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    telemetry: Option<&TelemetryConfig>,
    cfg: &CoordinatorConfig,
) -> io::Result<ClusterCampaign> {
    assert!(
        spec.samples > 0,
        "an empty campaign has nothing to distribute"
    );
    let mut campaign = bind_campaign(profile, spec, telemetry, cfg)?;
    campaign.begin(None);
    campaign.begun = true;
    Ok(campaign)
}

/// Binds the one machine for one cell, with no execution pool: its
/// rounds go out as leases only, and workers that find none are parked
/// until one begins.
fn bind_campaign(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    telemetry: Option<&TelemetryConfig>,
    cfg: &CoordinatorConfig,
) -> io::Result<ClusterCampaign> {
    check_campaign(profile, spec);
    let stats = recorder_for(telemetry);
    let machine = ServiceMachine::new(SvcConfig::default(), cfg.lease, stats, None);
    let server = Server::spawn(&cfg.listen, "nestsim-coordinator", machine)?;
    Ok(ClusterCampaign {
        addr: server.addr(),
        server: Some(server),
        profile,
        spec: *spec,
        telemetry: telemetry.copied(),
        cfg: cfg.clone(),
        begun: false,
        golden: None,
        worker_samples: Vec::new(),
    })
}

/// One round's job and shard plan; every round shards the same way.
fn plan_round(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    telemetry: Option<&TelemetryConfig>,
    cfg: &CoordinatorConfig,
    strata: Option<&AdaptiveRoundWire>,
) -> (JobWire, Vec<Shard>) {
    let job = JobWire::for_round(profile, spec, telemetry, strata);
    let workers_hint = if cfg.workers_hint == 0 {
        default_workers()
    } else {
        cfg.workers_hint
    };
    let shard_size = if cfg.shard_size == 0 {
        auto_shard_size(job.spec.samples, workers_hint)
    } else {
        cfg.shard_size
    };
    let shards = plan_shards(job.spec.samples, shard_size);
    (job, shards)
}

/// How [`run_campaign_cluster`] brings up its workers.
pub enum WorkerSpawn {
    /// In-process worker threads, one per element (each with its own
    /// chaos options). Cheap; used by tests and benches.
    Threads(Vec<WorkerOptions>),
    /// `count` spawned worker processes: `argv + ["--connect", ADDR]`.
    /// The real deployment shape (`nestsim-worker`, `repro --cluster`).
    Processes {
        /// Program + leading arguments.
        argv: Vec<String>,
        /// Number of processes to spawn.
        count: usize,
    },
}

/// Cluster execution parameters: coordinator tuning plus worker spawn
/// mode.
pub struct ClusterConfig {
    /// Coordinator tuning.
    pub coordinator: CoordinatorConfig,
    /// How to bring up workers.
    pub spawn: WorkerSpawn,
}

impl ClusterConfig {
    /// `n` in-process worker threads with default options.
    pub fn threads(n: usize) -> Self {
        ClusterConfig {
            coordinator: CoordinatorConfig::default(),
            spawn: WorkerSpawn::Threads(vec![WorkerOptions::default(); n.max(1)]),
        }
    }

    /// `count` worker processes spawned from `argv`.
    pub fn processes(argv: Vec<String>, count: usize) -> Self {
        ClusterConfig {
            coordinator: CoordinatorConfig::default(),
            spawn: WorkerSpawn::Processes {
                argv,
                count: count.max(1),
            },
        }
    }
}

/// Runs one campaign cell through the cluster — `plan` on a
/// [`ClusterCampaign`] with the configured workers attached — returning
/// a [`CampaignResult`] byte-identical to the same plan in process in
/// records, counts, merged telemetry and adaptive summary (engine
/// counters and `worker_samples` describe the execution and differ).
///
/// Workers are spawned **once**: between rounds the machine parks them,
/// so each keeps one golden pass and one ladder for the whole campaign.
/// Workers never see the stop policy. An empty fixed-count campaign has
/// nothing to distribute and runs in process.
///
/// # Panics
///
/// Panics on invalid specs and policies, on worker-process spawn
/// failures, on cross-worker golden-reference divergence and on
/// round-accounting violations.
pub fn run_cluster(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    plan: &Plan,
    telemetry: Option<&TelemetryConfig>,
    cfg: &ClusterConfig,
) -> CampaignResult {
    if matches!(plan, Plan::Fixed) && spec.samples == 0 {
        return run_campaign_with(profile, spec, telemetry);
    }
    let mut coord_cfg = cfg.coordinator.clone();
    if coord_cfg.workers_hint == 0 {
        coord_cfg.workers_hint = match &cfg.spawn {
            WorkerSpawn::Threads(opts) => opts.len(),
            WorkerSpawn::Processes { count, .. } => *count,
        };
    }
    let campaign =
        bind_campaign(profile, spec, telemetry, &coord_cfg).expect("failed to bind coordinator");
    let addr = campaign.addr().to_string();
    with_workers(&addr, &cfg.spawn, || {
        run_rounds(profile, spec, plan, telemetry, campaign)
    })
}

/// [`run_cluster`] under [`Plan::Fixed`]: byte-identical to
/// [`run_campaign_with`] on the same spec.
pub fn run_campaign_cluster(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    telemetry: Option<&TelemetryConfig>,
    cfg: &ClusterConfig,
) -> CampaignResult {
    run_cluster(profile, spec, &Plan::Fixed, telemetry, cfg)
}

/// [`run_cluster`] under [`Plan::Adaptive`]: byte-identical to
/// [`nestsim_core::adaptive::run_campaign_adaptive`] on the same spec
/// and policy.
pub fn run_campaign_adaptive_cluster(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    policy: &StopPolicy,
    telemetry: Option<&TelemetryConfig>,
    cfg: &ClusterConfig,
) -> CampaignResult {
    run_cluster(profile, spec, &Plan::Adaptive(*policy), telemetry, cfg)
}

/// Runs `body` with the configured workers attached to `addr`, then
/// joins them. `body` must leave the coordinator shut down (workers
/// dismissed) before returning, or the joins would block forever.
fn with_workers<R>(addr: &str, spawn: &WorkerSpawn, body: impl FnOnce() -> R) -> R {
    match spawn {
        WorkerSpawn::Threads(opts) => std::thread::scope(|scope| {
            let handles: Vec<_> = opts
                .iter()
                .map(|wopts| scope.spawn(move || run_worker(addr, wopts)))
                .collect();
            let result = body();
            for h in handles {
                // Chaos workers return early or error by design; the
                // coordinator's lease table already re-dispatched their
                // work, so worker exits carry no result data.
                let _ = h.join().expect("cluster worker thread panicked");
            }
            result
        }),
        WorkerSpawn::Processes { argv, count } => {
            let mut children: Vec<std::process::Child> = (0..*count)
                .map(|_| {
                    std::process::Command::new(&argv[0])
                        .args(&argv[1..])
                        .arg("--connect")
                        .arg(addr)
                        .stdout(std::process::Stdio::null())
                        .spawn()
                        .unwrap_or_else(|e| panic!("failed to spawn worker {:?}: {e}", argv[0]))
                })
                .collect();
            let result = body();
            for child in &mut children {
                // Crash-injected workers exit nonzero by design.
                let _ = child.wait();
            }
            result
        }
    }
}
