//! The campaign coordinator: the pure [`CoordMachine`] on the one
//! [`crate::server`] loop.
//!
//! The coordinator never simulates. [`ClusterCampaign`] is the
//! cluster's [`RoundExecutor`]: for each round the one round loop
//! ([`nestsim_core::campaign::run_rounds`]) asks for, it plans
//! contiguous shards over the entry-sorted sample order (knowing only
//! the sample *count*), leases them to workers through the machine's
//! [`crate::lease`] table, and hands the accepted submissions back
//! sorted by round position. The loop that merges them — per-run
//! recorders **in round order** — and takes the adaptive plan's stop
//! decisions is the one the in-process executor runs under. That plus
//! deterministic workers is the whole byte-identity argument: any
//! worker count, any shard size, any crash/re-dispatch interleaving
//! feeds the identical `(sample, record, recorder)` set into the
//! identical merge.
//!
//! All protocol decisions live in [`crate::coord_machine`]; this
//! module only translates. The machine runs on a [`Server`] thread
//! that owns every worker connection: frames in become
//! [`CoordEvent`]s, [`CoordAction`]s become frames out, and a parked
//! worker's long-poll is simply a reply the machine has not sent yet,
//! with [`CoordMachine::next_wake`] as the loop's timer. The campaign
//! thread talks to the machine only through the loop's [`Waker`]:
//! begin a round, ask to hear when it settles, snapshot the engine
//! recorder, shut down. Shutdown dismisses parked workers with `done`
//! and the loop returns the machine once the last worker hangs up.

use std::io;
use std::net::SocketAddr;
use std::sync::mpsc;

use nestsim_core::campaign::{
    check_campaign, default_workers, run_campaign_with, run_rounds, sorted_cover, CampaignResult,
    CampaignSpec, Execution, IndexedRuns, Plan, RoundExecutor,
};
use nestsim_core::inject::recorder_for;
use nestsim_hlsim::workload::BenchProfile;
use nestsim_stats::stop::StopPolicy;
use nestsim_telemetry::{Recorder, TelemetryConfig};

use crate::coord_machine::{CoordAction, CoordEvent, CoordMachine};
use crate::lease::LeaseConfig;
use crate::proto::{AdaptiveRoundWire, JobWire, Message, RunWire};
use crate::server::{decode_frame, send_frame, Action, Event, Machine, Server, Waker};
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

/// A settled round's accepted runs per shard, or the campaign's error.
type RoundResult = Result<Vec<Vec<RunWire>>, String>;

/// What the campaign thread (or `nestsim-mck`'s cluster scenario) asks
/// of the loop.
pub enum Command {
    /// Re-serve the held workers with the next round.
    BeginRound {
        /// The round's job.
        job: JobWire,
        /// The round's shard plan.
        shards: Vec<Shard>,
    },
    /// Reply once the dispatching round settles.
    AwaitRound(mpsc::Sender<RoundResult>),
    /// Reply with a snapshot of the engine recorder.
    Stats(mpsc::Sender<Recorder>),
    /// Dismiss every worker and return once they hang up.
    Shutdown,
}

/// [`CoordMachine`] as the loop sees it: frames and commands in,
/// frames out. The model checker steps this very adapter.
pub struct Coord {
    machine: CoordMachine,
    awaiting: Option<mpsc::Sender<RoundResult>>,
}

impl Coord {
    /// The adapter around `machine`.
    pub fn new(machine: CoordMachine) -> Coord {
        Coord {
            machine,
            awaiting: None,
        }
    }

    /// Hands the machine back, for [`CoordMachine::into_outcome`].
    pub fn into_machine(self) -> CoordMachine {
        self.machine
    }

    /// Turns machine actions into loop actions; a reply that does not
    /// encode closes its connection ([`send_frame`]).
    fn perform(&mut self, now: u64, acts: Vec<CoordAction>, out: &mut Vec<Action>) {
        for act in acts {
            match act {
                CoordAction::Send { conn, msg } => match send_frame(conn, &msg, out) {
                    Some(bytes) => self.machine.note_frame_sent(bytes),
                    None => {
                        let closed = CoordEvent::Closed { conn, clean: false };
                        let acts = self.machine.step(now, closed);
                        self.perform(now, acts, out);
                    }
                },
                CoordAction::Close { conn } => out.push(Action::Close { conn }),
            }
        }
    }
}

impl Machine for Coord {
    type Command = Command;

    fn step(&mut self, now: u64, event: Event<Command>, out: &mut Vec<Action>) {
        let m = &mut self.machine;
        let acts = match event {
            Event::Connected { conn } => m.step(now, CoordEvent::Connected { conn }),
            Event::Frame { conn, payload } => {
                let msg = decode_frame(conn, &payload, out);
                m.note_frame_received(payload.len(), matches!(msg, Some(Message::Submit(_))));
                match msg {
                    Some(msg) => m.step(now, CoordEvent::Received { conn, msg }),
                    None => m.step(now, CoordEvent::Closed { conn, clean: false }),
                }
            }
            Event::Closed { conn, clean } => m.step(now, CoordEvent::Closed { conn, clean }),
            Event::Tick => m.step(now, CoordEvent::Tick),
            Event::Command(Command::BeginRound { job, shards }) => m.begin_round(now, job, shards),
            Event::Command(Command::AwaitRound(reply)) => {
                self.awaiting = Some(reply);
                Vec::new()
            }
            Event::Command(Command::Stats(reply)) => {
                let _ = reply.send(m.engine().clone());
                Vec::new()
            }
            Event::Command(Command::Shutdown) => {
                out.push(Action::Drain);
                m.begin_shutdown(now)
            }
        };
        self.perform(now, acts, out);
        if self.machine.is_settled() {
            if let Some(reply) = self.awaiting.take() {
                let _ = reply.send(match self.machine.error() {
                    Some(e) => Err(e.to_string()),
                    None => Ok(self.machine.take_round_results()),
                });
            }
        }
    }

    fn next_wake(&self) -> Option<u64> {
        self.machine.next_wake()
    }
}

/// A campaign cell being served to workers on loopback TCP: the
/// cluster's [`RoundExecutor`]. [`serve_campaign`] returns one with its
/// only round already dispatching, for callers that attach their own
/// workers and [`wait`](ClusterCampaign::wait).
pub struct ClusterCampaign {
    addr: SocketAddr,
    /// `None` once shut down.
    server: Option<Server<Coord>>,
    profile: &'static BenchProfile,
    spec: CampaignSpec,
    telemetry: Option<TelemetryConfig>,
    cfg: CoordinatorConfig,
    /// The round the next [`RoundExecutor::run_round`] is asked for is
    /// already dispatching ([`serve_campaign`]).
    begun: bool,
    worker_samples: Vec<usize>,
}

impl ClusterCampaign {
    /// The coordinator's bound listen address (`127.0.0.1:port`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn waker(&self) -> &Waker<Command> {
        self.server
            .as_ref()
            .expect("the coordinator is running")
            .waker()
    }

    /// Sends the loop a command carrying a reply channel and waits for
    /// the reply; `None` if the loop stopped first.
    fn ask<T>(&self, cmd: impl FnOnce(mpsc::Sender<T>) -> Command) -> Option<T> {
        let (tx, rx) = mpsc::channel();
        self.waker().send(cmd(tx)).ok()?;
        rx.recv().ok()
    }

    /// A snapshot of the coordinator's engine recorder (lease/frame
    /// counters live here) — lets tests poll dispatch progress.
    pub fn engine_stats(&self) -> Recorder {
        self.ask(Command::Stats)
            .expect("the coordinator loop is running")
    }

    /// Blocks until the dispatching round settles, harvesting its
    /// accepted runs per shard **without** dismissing the workers —
    /// they stay parked for the next round. Returns the campaign's
    /// fatal error instead, if it has one.
    fn wait_round(&self) -> RoundResult {
        self.ask(Command::AwaitRound)
            .unwrap_or_else(|| Err("the coordinator loop stopped".to_string()))
    }

    /// Shuts the coordinator down — dismisses every parked worker with
    /// `done`, waits for every worker to hang up — and extracts the
    /// drained machine.
    fn shutdown(&mut self) -> CoordMachine {
        let server = self.server.take().expect("the coordinator shuts down once");
        let _ = server.waker().send(Command::Shutdown);
        server
            .join()
            .expect("coordinator loop failed")
            .into_machine()
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
            let (job, shards) = plan_round(
                self.profile,
                &self.spec,
                self.telemetry.as_ref(),
                &self.cfg,
                strata,
            );
            self.waker()
                .send(Command::BeginRound { job, shards })
                .expect("the coordinator loop is running");
        }
        let shard_runs = self.wait_round().unwrap_or_else(|e| {
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
        let outcome = self.shutdown().into_outcome();
        Execution {
            golden: outcome.golden.expect("a settled round has a golden ref"),
            engine: outcome.engine,
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
    bind_campaign(profile, spec, telemetry, cfg, true)
}

/// Binds a coordinator for one cell. A `fixed` cell's only round is in
/// the machine before anyone can know the address, since nothing holds
/// a worker that finds no round to work on. Otherwise the machine parks
/// idle workers between rounds instead of dismissing them
/// ([`CoordMachine::hold_workers_between_rounds`]), which also keeps
/// the ones that connect before the first round.
fn bind_campaign(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    telemetry: Option<&TelemetryConfig>,
    cfg: &CoordinatorConfig,
    fixed: bool,
) -> io::Result<ClusterCampaign> {
    check_campaign(profile, spec);
    let mut machine = CoordMachine::new(
        JobWire::default(),
        Vec::new(),
        cfg.lease,
        recorder_for(telemetry),
    );
    if fixed {
        let (job, shards) = plan_round(profile, spec, telemetry, cfg, None);
        // No worker is connected yet, so there is nobody to serve.
        machine.begin_round(0, job, shards);
    } else {
        machine.hold_workers_between_rounds();
    }
    let server = Server::spawn(&cfg.listen, "nestsim-coordinator", Coord::new(machine))?;
    Ok(ClusterCampaign {
        addr: server.addr(),
        server: Some(server),
        profile,
        spec: *spec,
        telemetry: telemetry.copied(),
        cfg: cfg.clone(),
        begun: fixed,
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
/// a [`CampaignResult`] byte-identical to the same plan on the
/// in-process executor in records, counts, merged telemetry and
/// adaptive summary (engine counters and `worker_samples` are
/// execution telemetry and differ).
///
/// Workers are spawned **once** and stay attached for the whole
/// campaign: between the rounds of an adaptive plan the coordinator
/// machine parks idle workers on their long-poll
/// ([`CoordMachine::hold_workers_between_rounds`]) and
/// [`CoordMachine::begin_round`] re-serves the same connections with
/// the next round's job. Persistent workers keep their per-job
/// derivation caches warm — one golden pass and one snapshot ladder
/// per worker per campaign, not per round — and processes pay one exec
/// total. Workers never see the policy, so no execution-layer detail
/// can leak into the stopping decision.
///
/// An empty fixed-count campaign has nothing to distribute and runs in
/// process.
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
    let fixed = matches!(plan, Plan::Fixed);
    if fixed && spec.samples == 0 {
        return run_campaign_with(profile, spec, telemetry);
    }
    let mut coord_cfg = cfg.coordinator.clone();
    if coord_cfg.workers_hint == 0 {
        coord_cfg.workers_hint = match &cfg.spawn {
            WorkerSpawn::Threads(opts) => opts.len(),
            WorkerSpawn::Processes { count, .. } => *count,
        };
    }
    // A fixed plan's round is out before the first worker connects; an
    // adaptive plan's workers are held until the loop asks for one.
    let campaign = bind_campaign(profile, spec, telemetry, &coord_cfg, fixed)
        .expect("failed to bind coordinator");
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
