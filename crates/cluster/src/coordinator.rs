//! The campaign coordinator's TCP driver: listener, threads, and
//! frame I/O wrapped around the pure [`CoordMachine`].
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
//! module only moves bytes and blocks threads. Threading: one
//! accept-loop thread, one handler thread per worker connection, all
//! sharing one mutexed [`CoordMachine`] plus per-connection outboxes.
//! A handler reads a frame, steps the machine, distributes the
//! resulting sends into outboxes, then drains its own outbox — parking
//! on the condvar when the machine parked its connection (the
//! long-poll), with a timeout at [`CoordMachine::next_wake`] that
//! feeds timer ticks back in. A round parks on the same condvar until
//! the machine settles; ending the campaign unblocks the accept loop
//! with a self-connection and joins everything.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nestsim_core::campaign::{
    check_campaign, default_workers, run_campaign_with, run_rounds, sorted_cover, CampaignResult,
    CampaignSpec, Execution, IndexedRuns, Plan, RoundExecutor,
};
use nestsim_core::inject::recorder_for;
use nestsim_hlsim::workload::BenchProfile;
use nestsim_stats::stop::StopPolicy;
use nestsim_telemetry::{Recorder, TelemetryConfig};

use crate::coord_machine::{CoordAction, CoordEvent, CoordMachine};
use crate::frame::{read_frame, write_frame};
use crate::lease::LeaseConfig;
use crate::proto::{AdaptiveRoundWire, JobWire, Message, RunWire};
use crate::shard::{auto_shard_size, plan_shards};
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

/// One connection's driver-side mailbox: replies the machine queued
/// for its handler thread to write, plus the machine's close request.
#[derive(Default)]
struct ConnIo {
    outbox: VecDeque<Message>,
    closing: bool,
}

struct Inner {
    machine: CoordMachine,
    /// Mailboxes for live handler threads, in accept order (a `Vec`
    /// keyed by linear scan — connection counts are small).
    conns: Vec<(u64, ConnIo)>,
    next_conn: u64,
    shutdown: bool,
}

impl Inner {
    fn conn_mut(&mut self, conn: u64) -> Option<&mut ConnIo> {
        self.conns
            .iter_mut()
            .find(|(id, _)| *id == conn)
            .map(|(_, io)| io)
    }

    /// Distribute machine actions into mailboxes. Sends to connections
    /// whose handler is already gone are dropped, exactly as a closed
    /// socket would drop them.
    fn dispatch(&mut self, acts: Vec<CoordAction>) {
        for act in acts {
            match act {
                CoordAction::Send { conn, msg } => {
                    if let Some(io) = self.conn_mut(conn) {
                        io.outbox.push_back(msg);
                    }
                }
                CoordAction::Close { conn } => {
                    if let Some(io) = self.conn_mut(conn) {
                        io.closing = true;
                    }
                }
            }
        }
    }
}

struct Shared {
    inner: Mutex<Inner>,
    cv: Condvar,
    start: Instant,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

const POISONED: &str = "cluster state poisoned";

/// A campaign cell being served to workers on loopback TCP: the
/// cluster's [`RoundExecutor`]. [`serve_campaign`] returns one with its
/// only round already dispatching, for callers that attach their own
/// workers and [`wait`](ClusterCampaign::wait).
pub struct ClusterCampaign {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
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

    /// A snapshot of the coordinator's engine recorder (lease/frame
    /// counters live here) — lets tests poll dispatch progress.
    pub fn engine_stats(&self) -> Recorder {
        self.shared
            .inner
            .lock()
            .expect(POISONED)
            .machine
            .engine()
            .clone()
    }

    /// Starts a round on the attached worker pool: the machine swaps in
    /// the round's job and shard plan — every round shards the same
    /// way — and re-serves every parked worker.
    fn begin_round(&mut self, strata: Option<&AdaptiveRoundWire>) {
        let job = JobWire::for_round(self.profile, &self.spec, self.telemetry.as_ref(), strata);
        let workers_hint = if self.cfg.workers_hint == 0 {
            default_workers()
        } else {
            self.cfg.workers_hint
        };
        let shard_size = if self.cfg.shard_size == 0 {
            auto_shard_size(job.samples, workers_hint)
        } else {
            self.cfg.shard_size
        };
        let shards = plan_shards(job.samples, shard_size);
        let mut inner = self.shared.inner.lock().expect(POISONED);
        let now = self.shared.now_ms();
        let acts = inner.machine.begin_round(now, job, shards);
        inner.dispatch(acts);
        drop(inner);
        self.shared.cv.notify_all();
    }

    /// Blocks until the dispatching round settles, harvesting its
    /// accepted runs per shard **without** dismissing the workers —
    /// they stay parked for the next round. Returns the campaign's
    /// fatal error instead, if it has one.
    fn wait_round(&self) -> Result<Vec<Vec<RunWire>>, String> {
        let mut inner = self.shared.inner.lock().expect(POISONED);
        while !inner.machine.is_settled() {
            inner = self.shared.cv.wait(inner).expect(POISONED);
        }
        match inner.machine.error() {
            Some(e) => Err(e.to_string()),
            None => Ok(inner.machine.take_round_results()),
        }
    }

    /// Shuts the coordinator down — dismisses every parked worker with
    /// `done`, joins the accept and handler threads — and extracts the
    /// drained machine.
    fn shutdown(&mut self) -> CoordMachine {
        let shared = Arc::clone(&self.shared);
        {
            let mut inner = shared.inner.lock().expect(POISONED);
            inner.shutdown = true;
            let now = shared.now_ms();
            let acts = inner.machine.begin_shutdown(now);
            inner.dispatch(acts);
            shared.cv.notify_all();
        }
        // Unblock the accept loop so its thread can observe `shutdown`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            h.join().expect("coordinator accept thread panicked");
        }
        let handlers = std::mem::take(
            &mut *self
                .handlers
                .lock()
                .expect("cluster handler registry poisoned"),
        );
        for h in handlers {
            h.join().expect("coordinator handler thread panicked");
        }

        let mut inner = shared.inner.lock().expect(POISONED);
        std::mem::replace(
            &mut inner.machine,
            CoordMachine::new(
                JobWire::default(),
                Vec::new(),
                LeaseConfig::default(),
                Recorder::null(),
            ),
        )
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
            self.begin_round(strata);
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
    // Nothing holds a worker that finds no round to work on, so the only
    // round is dispatching before anyone can know the address.
    let mut campaign = bind_campaign(profile, spec, telemetry, cfg, false)?;
    campaign.begin_round(None);
    campaign.begun = true;
    Ok(campaign)
}

/// Binds a coordinator for one cell with no round dispatching yet.
/// With `hold_workers` the machine parks idle workers between rounds
/// instead of dismissing them
/// ([`CoordMachine::hold_workers_between_rounds`]), which also keeps
/// the ones that connect before the first round.
fn bind_campaign(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    telemetry: Option<&TelemetryConfig>,
    cfg: &CoordinatorConfig,
    hold_workers: bool,
) -> io::Result<ClusterCampaign> {
    check_campaign(profile, spec);
    let mut machine = CoordMachine::new(
        JobWire::default(),
        Vec::new(),
        cfg.lease,
        recorder_for(telemetry),
    );
    if hold_workers {
        machine.hold_workers_between_rounds();
    }

    let listener = TcpListener::bind(&cfg.listen)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            machine,
            conns: Vec::new(),
            next_conn: 0,
            shutdown: false,
        }),
        cv: Condvar::new(),
        start: Instant::now(), // nestlint: allow(determinism-taint) -- lease/timeout clock only; campaign results are merged from worker payloads, never from wall time
    });

    let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let shared = Arc::clone(&shared);
        let handlers = Arc::clone(&handlers);
        std::thread::spawn(move || loop {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            // Small request/response frames; Nagle + delayed ACK would
            // add ~40ms to every round trip.
            let _ = stream.set_nodelay(true);
            if shared.inner.lock().expect(POISONED).shutdown {
                return;
            }
            let shared = Arc::clone(&shared);
            let handle = std::thread::spawn(move || handle_worker(&shared, stream));
            handlers
                .lock()
                .expect("cluster handler registry poisoned")
                .push(handle);
        })
    };

    Ok(ClusterCampaign {
        addr,
        shared,
        accept: Some(accept),
        handlers,
        profile,
        spec: *spec,
        telemetry: telemetry.copied(),
        cfg: cfg.clone(),
        begun: false,
        worker_samples: Vec::new(),
    })
}

/// One worker connection, handshake to hangup: register it with the
/// machine, pump frames, report the close.
fn handle_worker(shared: &Shared, mut stream: TcpStream) {
    let conn = {
        let mut inner = shared.inner.lock().expect(POISONED);
        let conn = inner.next_conn;
        inner.next_conn += 1;
        inner.conns.push((conn, ConnIo::default()));
        let now = shared.now_ms();
        let acts = inner.machine.step(now, CoordEvent::Connected { conn });
        inner.dispatch(acts);
        conn
    };
    let clean = serve_conn(shared, &mut stream, conn);
    let mut inner = shared.inner.lock().expect(POISONED);
    if let Some(i) = inner.conns.iter().position(|(id, _)| *id == conn) {
        inner.conns.remove(i);
    }
    let now = shared.now_ms();
    let acts = inner.machine.step(
        now,
        CoordEvent::Closed {
            conn,
            clean: clean.is_ok(),
        },
    );
    inner.dispatch(acts);
    drop(inner);
    // Released leases may have re-dispatchable shards; wake parked
    // handlers (and `wait`) to notice.
    shared.cv.notify_all();
}

/// Pumps one connection: read a frame, step the machine, drain this
/// connection's outbox (parking on the condvar while the machine holds
/// the long-poll reply, ticking its timers on timeout).
fn serve_conn(shared: &Shared, stream: &mut TcpStream, conn: u64) -> io::Result<()> {
    loop {
        let payload = match read_frame(stream) {
            Ok(p) => p,
            // EOF after the worker was told `done` is the clean exit.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let msg = Message::decode(&payload);
        let mut inner = shared.inner.lock().expect(POISONED);
        inner
            .machine
            .note_frame_received(payload.len(), matches!(msg, Ok(Message::Submit(_))));
        let msg = match msg {
            Ok(m) => m,
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        };
        let now = shared.now_ms();
        let acts = inner.machine.step(now, CoordEvent::Received { conn, msg });
        inner.dispatch(acts);
        shared.cv.notify_all();

        // Write whatever the machine owes this connection. `wrote`
        // distinguishes "reply sent, go read the next request" from
        // "parked, keep waiting".
        let mut wrote = false;
        loop {
            let popped = inner.conn_mut(conn).and_then(|io| io.outbox.pop_front());
            match popped {
                Some(reply) => {
                    let payload = reply
                        .encode()
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
                    inner.machine.note_frame_sent(payload.len());
                    drop(inner);
                    write_frame(stream, &payload)?;
                    wrote = true;
                    inner = shared.inner.lock().expect(POISONED);
                }
                None => {
                    if inner.conn_mut(conn).is_none_or(|io| io.closing) {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "connection closed by coordinator",
                        ));
                    }
                    if wrote {
                        break;
                    }
                    // Parked: wait for an unpark (submission, release,
                    // shutdown) or the machine's next retry timer.
                    match inner.machine.next_wake() {
                        Some(at) => {
                            let ms = at.saturating_sub(shared.now_ms()).max(1);
                            let (guard, timeout) = shared
                                .cv
                                .wait_timeout(inner, Duration::from_millis(ms))
                                .expect(POISONED);
                            inner = guard;
                            if timeout.timed_out() {
                                let now = shared.now_ms();
                                let acts = inner.machine.step(now, CoordEvent::Tick);
                                inner.dispatch(acts);
                                shared.cv.notify_all();
                            }
                        }
                        None => {
                            inner = shared.cv.wait(inner).expect(POISONED);
                        }
                    }
                }
            }
        }
        drop(inner);
    }
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
    let campaign = if fixed {
        serve_campaign(profile, spec, telemetry, &coord_cfg)
    } else {
        bind_campaign(profile, spec, telemetry, &coord_cfg, true)
    }
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
