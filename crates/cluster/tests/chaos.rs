//! Worker-process chaos tests: real process death, lease-expiry hangs
//! and misbehaving peers, asserting fault tolerance *and*
//! byte-identity.
//!
//! These run against the actual `nestsim-worker` binary (via
//! `CARGO_BIN_EXE_nestsim-worker`), so a "crash" here is a genuine
//! `SIGKILL`-equivalent process exit mid-shard with an open TCP
//! connection — the failure mode the lease table exists for.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;

use nestsim_cluster::frame::{read_frame, write_frame, MAGIC, MAX_FRAME};
use nestsim_cluster::machine::{Command as Loop, ServiceMachine, SvcConfig};
use nestsim_cluster::server::Server;
use nestsim_cluster::{
    run_campaign_cluster, ClusterConfig, LeaseConfig, Message, RemoteExecutor, SvcClient,
    WorkerOptions, WorkerSpawn, PROTOCOL_VERSION,
};
use nestsim_core::campaign::{run_campaign_with, run_rounds, CampaignResult, CampaignSpec, Plan};
use nestsim_hlsim::workload::by_name;
use nestsim_models::ComponentKind;
use nestsim_telemetry::{names, Recorder, TelemetryConfig};

fn cell() -> (&'static nestsim_hlsim::workload::BenchProfile, CampaignSpec) {
    let profile = by_name("flui").unwrap();
    let spec = CampaignSpec {
        seed: 11,
        ..CampaignSpec::quick(ComponentKind::L2c, 10)
    };
    (profile, spec)
}

fn assert_identical(ctx: &str, reference: &CampaignResult, got: &CampaignResult) {
    assert_eq!(got.records, reference.records, "{ctx}: records diverged");
    assert_eq!(got.counts, reference.counts, "{ctx}: counts diverged");
    assert_eq!(got.golden, reference.golden, "{ctx}: golden diverged");
    assert_eq!(
        got.telemetry.merged.to_jsonl(),
        reference.telemetry.merged.to_jsonl(),
        "{ctx}: merged telemetry diverged"
    );
}

/// The one machine with no execution pool, as `run_cluster` binds it,
/// under `lease`; the test attaches its own workers.
fn coordinator(lease: LeaseConfig) -> Server {
    let stats = Recorder::active(&TelemetryConfig::default());
    let machine = ServiceMachine::new(SvcConfig::default(), lease, stats, None);
    Server::spawn("127.0.0.1:0", "test-coordinator", machine).unwrap()
}

/// Runs the cell's fixed plan on a [`RemoteExecutor`] against `addr`,
/// on a thread of `scope`.
fn campaign<'s>(
    scope: &'s Scope<'s, '_>,
    addr: &'s str,
    telemetry: &'s TelemetryConfig,
) -> ScopedJoinHandle<'s, CampaignResult> {
    scope.spawn(move || {
        let (profile, spec) = cell();
        let executor = RemoteExecutor::connect(addr, profile, &spec, Some(telemetry)).unwrap();
        run_rounds(profile, &spec, &Plan::Fixed, Some(telemetry), executor)
    })
}

/// Blocks until the server at `addr` has granted a lease.
fn await_lease(addr: &str) {
    let mut observer = SvcClient::connect(addr, "observer").unwrap();
    while observer
        .stats()
        .unwrap()
        .counter(names::CLUSTER_LEASES_GRANTED)
        == 0
    {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Tells the server to dismiss its workers; its counters once they left.
fn shutdown(server: Server) -> Recorder {
    server.waker().send(Loop::Shutdown).unwrap();
    server.join().unwrap().into_stats()
}

fn spawn_worker(addr: &str, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_nestsim-worker"))
        .args(extra)
        .arg("--connect")
        .arg(addr)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn nestsim-worker")
}

/// Two healthy worker *processes* reproduce the in-process result
/// byte-for-byte over loopback TCP.
#[test]
fn worker_processes_match_in_process_engine() {
    let (profile, spec) = cell();
    let telemetry = TelemetryConfig::default();
    let reference = run_campaign_with(profile, &spec, Some(&telemetry));
    let got = run_campaign_cluster(
        profile,
        &spec,
        Some(&telemetry),
        &ClusterConfig {
            lease: LeaseConfig::default(),
            spawn: WorkerSpawn::Processes {
                argv: vec![env!("CARGO_BIN_EXE_nestsim-worker").to_string()],
                count: 2,
            },
        },
    );
    assert_identical("2 worker processes", &reference, &got);
}

/// A worker process killed mid-shard (exit code 17, connection dropped)
/// has its shard re-dispatched; the merged campaign is unaffected.
#[test]
fn killed_worker_process_is_redispatched() {
    let (profile, spec) = cell();
    let telemetry = TelemetryConfig::default();
    let reference = run_campaign_with(profile, &spec, Some(&telemetry));

    let server = coordinator(LeaseConfig {
        lease_ms: 10_000,
        heartbeat_ms: 1_000,
        backoff_ms: 5,
    });
    let addr = server.addr().to_string();

    let (got, mut crasher, mut healthy) = std::thread::scope(|scope| {
        let run = campaign(scope, &addr, &telemetry);
        let crasher = spawn_worker(&addr, &["--crash-after", "1"]);
        // Head start: the crasher must lease a shard before the healthy
        // worker can drain the campaign.
        await_lease(&addr);
        let healthy = spawn_worker(&addr, &[]);
        (run.join().unwrap(), crasher, healthy)
    });
    let engine = shutdown(server);
    let crash_status = crasher.wait().expect("wait crasher");
    assert_eq!(
        crash_status.code(),
        Some(17),
        "the crash-injected worker must actually die"
    );
    assert!(healthy.wait().expect("wait healthy").success());

    assert!(
        engine.counter(names::CLUSTER_REDISPATCHES) >= 1,
        "the killed process's shard must be re-dispatched"
    );
    assert!(engine.counter(names::CLUSTER_WORKERS_DISCONNECTED) >= 1);
    assert_identical("killed worker process", &reference, &got);
}

/// A hung worker (holds its lease, stops heartbeating) is treated as
/// dead once the lease deadline passes: the shard is re-dispatched and
/// the straggler's eventual non-submission changes nothing.
#[test]
fn stalled_worker_lease_expires_and_work_moves_on() {
    let (profile, spec) = cell();
    let telemetry = TelemetryConfig::default();
    let reference = run_campaign_with(profile, &spec, Some(&telemetry));

    let server = coordinator(LeaseConfig {
        lease_ms: 300,
        heartbeat_ms: 50,
        backoff_ms: 5,
    });
    let addr = server.addr().to_string();

    std::thread::scope(|scope| {
        let run = campaign(scope, &addr, &telemetry);
        let staller = scope.spawn(|| {
            nestsim_cluster::run_worker(
                &addr,
                &WorkerOptions {
                    stall_after_samples: Some(1),
                    ..WorkerOptions::default()
                },
            )
        });
        await_lease(&addr);
        let healthy = scope.spawn(|| nestsim_cluster::run_worker(&addr, &WorkerOptions::default()));

        let got = run.join().unwrap();
        let engine = shutdown(server);
        let _ = staller.join().unwrap();
        let _ = healthy.join().unwrap();

        assert!(
            engine.counter(names::CLUSTER_LEASES_EXPIRED) >= 1,
            "the stalled worker's lease must expire"
        );
        assert!(engine.counter(names::CLUSTER_REDISPATCHES) >= 1);
        assert_identical("stalled worker", &reference, &got);
    });
}

/// Whether the server hung up on `stream` (EOF or reset) rather than
/// leaving it open.
fn hung_up(stream: &mut TcpStream) -> bool {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match stream.read(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ),
    }
}

/// The one server loop serves every worker from one thread, so peers
/// that trickle, speak the wrong protocol, or claim a maximal frame and
/// stall must not hold up the healthy worker beside them; the two bad
/// ones are hung up on.
#[test]
fn slow_and_bad_peers_do_not_stall_the_server_loop() {
    let (profile, spec) = cell();
    let telemetry = TelemetryConfig::default();
    let reference = run_campaign_with(profile, &spec, Some(&telemetry));
    let server = coordinator(LeaseConfig::default());
    let addr = server.addr();
    let addr_text = addr.to_string();

    std::thread::scope(|scope| {
        let run = campaign(scope, &addr_text, &telemetry);
        let healthy =
            scope.spawn(|| nestsim_cluster::run_worker(&addr_text, &WorkerOptions::default()));

        let mut bad_magic = TcpStream::connect(addr).unwrap();
        bad_magic.write_all(&[0xff; 8]).unwrap();
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(&MAGIC.to_le_bytes()).unwrap();
        stalled.write_all(&MAX_FRAME.to_le_bytes()).unwrap();

        // A handshake whose every byte arrives on its own.
        let mut slow = TcpStream::connect(addr).unwrap();
        let mut hello = Vec::new();
        let payload = Message::Hello {
            version: PROTOCOL_VERSION,
            tenant: String::new(),
        };
        write_frame(&mut hello, &payload.encode().unwrap()).unwrap();
        for byte in hello {
            slow.write_all(&[byte]).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let reply = Message::decode(&read_frame(&mut slow).unwrap()).unwrap();
        assert!(matches!(reply, Message::HelloAck { .. }), "{reply:?}");
        drop(slow);

        assert!(hung_up(&mut bad_magic), "bad magic must be hung up on");
        let got = run.join().unwrap();
        shutdown(server);
        assert!(
            hung_up(&mut stalled),
            "a stalled frame is hung up on at shutdown"
        );
        assert!(healthy.join().unwrap().unwrap().shards_completed >= 1);
        assert_identical("beside slow and bad peers", &reference, &got);
    });
}
