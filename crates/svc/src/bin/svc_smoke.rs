//! `svc_smoke` — offline CI gate for the campaign server, as a service
//! and as a cluster campaign, all over loopback TCP.
//!
//! 1. **Dedup fan-out**: two concurrent clients submit overlapping
//!    campaign grids (client A: cells 1+2, client B: cells 2+3). Every
//!    result must be byte-identical to in-process execution, and the
//!    shared cell must execute exactly once (`svc.dedup.hits >= 1`,
//!    `svc.execs.started == 3` asserted via `QueryStats`).
//! 2. **Crash recovery**: a fresh service with one chaos-injected
//!    execution crash; the same overlapping submissions must still
//!    come back byte-identical (exact cover, no double count), with
//!    `svc.exec.crashes >= 1` proving the crash actually happened.
//! 3. **Worker processes**: `run_cluster` leases one cell to two
//!    spawned `nestsim-worker` processes (the sibling binary, so build
//!    the cluster package's bins first); the result is byte-identical.
//! 4. **Worker crash**: the same cell on a server with no execution
//!    pool, as `run_cluster` binds it, with one worker process killed
//!    mid-shard beside a healthy one; at least one lease is
//!    re-dispatched and the result is still byte-identical.
//! 5. **Adaptive service**: an adaptive cell whose rounds run through
//!    the service is byte-identical to in-process, adaptive summary
//!    included.
//!
//! Exits nonzero on any mismatch; prints one summary line per stage.

use std::process::{Command, Stdio};
use std::time::Duration;

use nestsim_cluster::machine::{Command as Loop, ServiceMachine};
use nestsim_cluster::proto::JobWire;
use nestsim_cluster::server::Server;
use nestsim_cluster::{run_campaign_cluster, ClusterConfig, LeaseConfig, RemoteExecutor};
use nestsim_core::campaign::{
    run_campaign_with, run_rounds, CampaignResult, CampaignSpec, LadderExecutor, Plan,
};
use nestsim_hlsim::workload::by_name;
use nestsim_models::ComponentKind;
use nestsim_stats::stop::StopPolicy;
use nestsim_svc::{serve, JobOutcome, ServiceConfig, SvcClient, SvcConfig};
use nestsim_telemetry::{names, Recorder, TelemetryConfig};

fn spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        seed,
        ..CampaignSpec::quick(ComponentKind::L2c, 12)
    }
}

fn cell(seed: u64) -> (JobWire, CampaignResult) {
    let profile = by_name("flui").expect("benchmark profile");
    let telemetry = TelemetryConfig { trace_capacity: 32 };
    let job = JobWire::from_spec(profile, &spec(seed), Some(&telemetry));
    let reference = run_campaign_with(profile, &spec(seed), Some(&telemetry));
    (job, reference)
}

/// The sibling `nestsim-worker` binary (same target directory).
fn worker_bin() -> String {
    let mut path = std::env::current_exe().expect("current_exe");
    path.set_file_name("nestsim-worker");
    let built = "build the cluster package's bins first";
    assert!(
        path.exists(),
        "no worker binary at {} ({built})",
        path.display()
    );
    path.to_string_lossy().into_owned()
}

fn assert_done(stage: &str, reference: &CampaignResult, outcome: &JobOutcome) {
    match outcome {
        JobOutcome::Done(result) => assert_identical(stage, reference, result),
        other => panic!("{stage}: job did not complete: {other:?}"),
    }
}

fn assert_identical(stage: &str, reference: &CampaignResult, got: &CampaignResult) {
    assert_eq!(got.records, reference.records, "{stage}: records diverged");
    assert_eq!(got.counts, reference.counts, "{stage}: counts diverged");
    assert_eq!(got.golden, reference.golden, "{stage}: golden diverged");
    assert_eq!(
        got.telemetry.merged.to_jsonl(),
        reference.telemetry.merged.to_jsonl(),
        "{stage}: merged telemetry diverged"
    );
}

/// Runs the two-client overlapping-grid scenario against `addr`;
/// returns results of (client A: cells 0,1) and (client B: cells 1,2).
fn overlapping_clients(addr: &str, jobs: &[JobWire; 3]) -> (Vec<JobOutcome>, Vec<JobOutcome>) {
    std::thread::scope(|s| {
        let a = s.spawn(|| {
            let mut c = SvcClient::connect(addr, "alice").expect("client A connect");
            c.run_jobs(&[(jobs[0].clone(), 1), (jobs[1].clone(), 1)])
                .expect("client A jobs")
        });
        let b = s.spawn(|| {
            let mut c = SvcClient::connect(addr, "bob").expect("client B connect");
            c.run_jobs(&[(jobs[1].clone(), 2), (jobs[2].clone(), 2)])
                .expect("client B jobs")
        });
        (a.join().expect("client A"), b.join().expect("client B"))
    })
}

/// Serves the two clients' overlapping grids (the first `chaos`
/// executions crash), checks all four results against `refs`, and
/// returns the service's counters.
fn overlapping(stage: &str, chaos: u64, jobs: &[JobWire; 3], refs: &[CampaignResult]) -> Recorder {
    let handle = serve(ServiceConfig {
        chaos_crash_first: chaos,
        ..ServiceConfig::default()
    })
    .expect("start service");
    let addr = handle.addr().to_string();
    let (a, b) = overlapping_clients(&addr, jobs);
    for (got, cell) in [(&a[0], 0), (&a[1], 1), (&b[0], 1), (&b[1], 2)] {
        assert_done(&format!("{stage}/cell{}", cell + 1), &refs[cell], got);
    }
    let mut observer = SvcClient::connect(&addr, "observer").expect("stats connect");
    let stats = observer.stats().expect("stats");
    handle.shutdown().expect("shutdown");
    stats
}

fn main() {
    let (cells, refs): (Vec<_>, Vec<_>) = [101, 102, 103].map(cell).into_iter().unzip();
    let jobs: [JobWire; 3] = cells.try_into().expect("three cells");

    // Stage 1: dedup fan-out with two concurrent clients.
    let stats = overlapping("dedup", 0, &jobs, &refs);
    let dedup = stats.counter(names::SVC_DEDUP_HITS);
    let execs = stats.counter(names::SVC_EXECS_STARTED);
    assert!(dedup >= 1, "expected a dedup hit, counters: {stats:?}");
    assert_eq!(execs, 3, "shared cell must execute exactly once");
    assert_eq!(stats.counter(names::SVC_JOBS_COMPLETED), 3);
    println!("svc_smoke: dedup: 4 results byte-identical, {execs} execs ({dedup} dedup hits)");

    // Stage 2: an execution crash mid-service must not break identity.
    let stats = overlapping("crash", 1, &jobs, &refs);
    let crashes = stats.counter(names::SVC_EXEC_CRASHES);
    assert!(crashes >= 1, "chaos crash never fired");
    assert_eq!(stats.counter(names::SVC_JOBS_COMPLETED), 3);
    println!("svc_smoke: crash: byte-identical under {crashes} injected crash(es)");

    // Stage 3: two healthy worker processes.
    let profile = by_name("flui").expect("benchmark profile");
    let (spec, telemetry) = (spec(42), TelemetryConfig::default());
    let reference = run_campaign_with(profile, &spec, Some(&telemetry));
    let worker = worker_bin();
    let config = ClusterConfig::processes(vec![worker.clone()], 2);
    let procs = run_campaign_cluster(profile, &spec, Some(&telemetry), &config);
    assert_identical("2 worker processes", &reference, &procs);
    println!("svc_smoke: workers: 2 worker processes byte-identical");

    // Stage 4: one crash-injected process (dies after 1 sample) plus
    // one healthy process on a server with no execution pool. Short
    // leases so re-dispatch is prompt; the crasher is given a head start
    // so it certainly leases a shard.
    let lease = LeaseConfig {
        lease_ms: 1_500,
        heartbeat_ms: 100,
        backoff_ms: 10,
    };
    let stats = Recorder::active(&telemetry);
    let machine = ServiceMachine::new(SvcConfig::default(), lease, stats, None);
    let server = Server::spawn("127.0.0.1:0", "svc-smoke-cluster", machine).expect("bind");
    let addr = server.addr().to_string();
    let spawn = |extra: &[&str]| {
        let args = extra.iter().copied().chain(["--connect", &addr]);
        let quiet = || Stdio::null();
        let mut cmd = Command::new(&worker);
        cmd.args(args).stdout(quiet()).stderr(quiet());
        cmd.spawn().expect("spawn worker process")
    };
    let chaos = std::thread::scope(|scope| {
        let campaign = scope.spawn(|| {
            let executor = RemoteExecutor::connect(&addr, profile, &spec, Some(&telemetry))
                .expect("connect the campaign");
            run_rounds(profile, &spec, &Plan::Fixed, Some(&telemetry), executor)
        });
        let mut crasher = spawn(&["--crash-after", "1"]);
        let mut observer = SvcClient::connect(&addr, "observer").expect("stats connect");
        while observer
            .stats()
            .expect("stats")
            .counter(names::CLUSTER_LEASES_GRANTED)
            == 0
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut healthy = spawn(&[]);
        let chaos = campaign.join().expect("the campaign completes");
        server.waker().send(Loop::Shutdown).expect("the loop runs");
        let crash_status = crasher.wait().expect("wait crasher");
        let _ = healthy.wait();
        assert_eq!(crash_status.code(), Some(17), "the crasher exits with 17");
        chaos
    });
    let engine = server.join().expect("the loop returns").into_stats();
    let redispatched = engine.counter(names::CLUSTER_REDISPATCHES);
    assert!(
        redispatched >= 1,
        "no lease was re-dispatched after the crash"
    );
    assert_identical("worker crash + re-dispatch", &reference, &chaos);
    println!("svc_smoke: workers: {redispatched} lease(s) re-dispatched after a crash");

    // Stage 5: an adaptive cell, one job per round through the service.
    let plan = Plan::Adaptive(StopPolicy {
        min_samples: 8,
        max_samples: 48,
        initial_round: 8,
        max_round: 16,
        ..StopPolicy::new(0.2, 0.9)
    });
    let executor = LadderExecutor::new(profile, &spec, &plan, Some(&telemetry));
    let reference = run_rounds(profile, &spec, &plan, Some(&telemetry), executor);
    let handle = serve(ServiceConfig::default()).expect("start service");
    let addr = handle.addr().to_string();
    let executor =
        RemoteExecutor::connect(&addr, profile, &spec, Some(&telemetry)).expect("connect");
    let served = run_rounds(profile, &spec, &plan, Some(&telemetry), executor);
    handle.shutdown().expect("shutdown");
    assert_identical("adaptive service", &reference, &served);
    assert_eq!(
        served.adaptive, reference.adaptive,
        "adaptive summary diverged"
    );
    let rounds = reference.adaptive.as_ref().map_or(0, |a| a.rounds.len());
    println!("svc_smoke: adaptive: {rounds} rounds through the service byte-identical");
}
