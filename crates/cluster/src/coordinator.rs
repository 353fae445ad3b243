//! Campaigns on the one campaign server: the remote executor, and the
//! cluster that binds a server for one cell.
//!
//! The coordinator never simulates. [`RemoteExecutor`] is the
//! [`RoundExecutor`] of a campaign server: for each round the one round
//! loop ([`nestsim_core::campaign::run_rounds`]) asks for, it submits the
//! round as a job ([`JobWire::for_round`]) through a [`SvcClient`] and
//! hands back the streamed records and merged telemetry. The server runs
//! the job on its execution pool or leases its shards to connected
//! workers; with deterministic workers, any worker count, shard size or
//! crash and re-dispatch interleaving returns the identical bytes. The
//! merge and the adaptive stop decisions are the round loop's.
//!
//! [`run_cluster`] binds the server with no execution pool, so its cells
//! wait for workers, attaches the campaign's workers and runs the plan
//! on a [`RemoteExecutor`] against it. Between rounds the workers stay
//! parked; shutdown dismisses them with `done`.

use std::panic::{self, AssertUnwindSafe};

use nestsim_core::campaign::{
    check_campaign, run_campaign_with, run_rounds, CampaignResult, CampaignSpec, Execution, Plan,
    RoundExecutor,
};
use nestsim_core::inject::{recorder_for, GoldenRef, InjectionRecord};
use nestsim_hlsim::workload::BenchProfile;
use nestsim_telemetry::{Recorder, TelemetryConfig};

use crate::client::{JobOutcome, SvcClient};
use crate::lease::LeaseConfig;
use crate::machine::{Command, ServiceMachine, SvcConfig};
use crate::proto::{AdaptiveRoundWire, JobWire};
use crate::server::Server;
use crate::worker::{run_worker, WorkerOptions};

/// Where a cluster's server listens: loopback only, by design — a
/// campaign carries no authentication and trusts every connected worker.
const LISTEN: &str = "127.0.0.1:0";

/// The tenant a [`RemoteExecutor`] submits as.
const TENANT: &str = "campaign";

/// The executor that runs each round on a campaign server: the round is
/// submitted as one job, and its golden reference must match the first
/// round's.
pub struct RemoteExecutor<'a> {
    client: SvcClient,
    addr: String,
    profile: &'static BenchProfile,
    spec: &'a CampaignSpec,
    telemetry: Option<&'a TelemetryConfig>,
    /// The first round's golden reference.
    golden: Option<GoldenRef>,
}

impl<'a> RemoteExecutor<'a> {
    /// Connects to the campaign server at `addr` to run the rounds of
    /// `spec` on `profile`.
    pub fn connect(
        addr: &str,
        profile: &'static BenchProfile,
        spec: &'a CampaignSpec,
        telemetry: Option<&'a TelemetryConfig>,
    ) -> Result<Self, String> {
        Ok(RemoteExecutor {
            client: SvcClient::connect(addr, TENANT)?,
            addr: addr.to_string(),
            profile,
            spec,
            telemetry,
            golden: None,
        })
    }
}

impl RoundExecutor for RemoteExecutor<'_> {
    /// # Panics
    ///
    /// Panics if the server rejects or fails the round, on an I/O error,
    /// and if the round's golden reference differs from the first
    /// round's (the processes disagree on the simulation itself — never
    /// a matter of retrying).
    fn run_round(
        &mut self,
        strata: Option<&AdaptiveRoundWire>,
    ) -> (Vec<InjectionRecord>, Recorder) {
        let job = JobWire::for_round(self.profile, self.spec, self.telemetry, strata);
        let addr = &self.addr;
        let result = match self.client.run_job(&job, 1) {
            Ok(JobOutcome::Done(result)) => result,
            Ok(JobOutcome::Rejected(why)) => {
                panic!("the campaign server at {addr} rejected the round: {why}")
            }
            Ok(JobOutcome::Failed(why)) => {
                panic!("the campaign server at {addr} failed the round: {why}")
            }
            Err(e) => panic!("campaign server I/O at {addr} failed: {e}"),
        };
        let (first, golden) = (*self.golden.get_or_insert(result.golden), result.golden);
        assert!(
            first == golden,
            "golden reference diverged between rounds: {:#x}/{} cycles, then {:#x}/{}",
            first.digest,
            first.cycles,
            golden.digest,
            golden.cycles
        );
        (result.records, result.telemetry.merged)
    }

    fn finish(self) -> Execution {
        Execution {
            golden: self.golden.expect("the round loop runs a round"),
            engine: recorder_for(self.telemetry),
            worker_samples: Vec::new(),
        }
    }
}

/// How [`run_cluster`] brings up its workers.
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

/// Cluster execution parameters: lease timing plus worker spawn mode.
pub struct ClusterConfig {
    /// Lease/heartbeat/backoff timing.
    pub lease: LeaseConfig,
    /// How to bring up workers.
    pub spawn: WorkerSpawn,
}

impl ClusterConfig {
    /// `n` in-process worker threads with default options.
    pub fn threads(n: usize) -> Self {
        ClusterConfig {
            lease: LeaseConfig::default(),
            spawn: WorkerSpawn::Threads(vec![WorkerOptions::default(); n.max(1)]),
        }
    }

    /// `count` worker processes spawned from `argv`.
    pub fn processes(argv: Vec<String>, count: usize) -> Self {
        ClusterConfig {
            lease: LeaseConfig::default(),
            spawn: WorkerSpawn::Processes {
                argv,
                count: count.max(1),
            },
        }
    }
}

/// Runs one campaign cell through the cluster — `plan` on a
/// [`RemoteExecutor`] against a server with no execution pool and the
/// configured workers attached — returning a [`CampaignResult`]
/// byte-identical to the same plan in process in records, counts,
/// merged telemetry and adaptive summary. The engine recorder carries
/// the server's lease and frame counters; `worker_samples` is empty.
///
/// Workers are spawned **once**: between rounds the server parks them,
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
    check_campaign(profile, spec);
    let stats = recorder_for(telemetry);
    let machine = ServiceMachine::new(SvcConfig::default(), cfg.lease, stats, None);
    let server =
        Server::spawn(LISTEN, "nestsim-coordinator", machine).expect("failed to bind coordinator");
    let addr = server.addr().to_string();
    with_workers(&addr, &cfg.spawn, || {
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            let executor = RemoteExecutor::connect(&addr, profile, spec, telemetry)
                .unwrap_or_else(|e| panic!("cannot reach the coordinator: {e}"));
            run_rounds(profile, spec, plan, telemetry, executor)
        }));
        // Dismiss the workers, also before unwinding, or the joins
        // around us would wait for a round that never comes.
        let _ = server.waker().send(Command::Shutdown);
        let stats = server.join().expect("coordinator loop failed").into_stats();
        let mut result = run.unwrap_or_else(|panic| panic::resume_unwind(panic));
        result.telemetry.engine.merge(&stats);
        result
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

/// Runs `body` with the configured workers attached to `addr`, then
/// joins them. `body` must leave the server shut down (workers
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
                // server's lease table already re-dispatched their
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
