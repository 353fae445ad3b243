//! End-to-end byte-identity tests for distributed campaign execution.
//!
//! The cluster's contract is exact: for any worker count, and under
//! injected worker failures, the merged [`CampaignResult`] — records,
//! outcome counts, golden reference, and the merged telemetry's
//! JSON-lines export — is **byte-identical** to the in-process
//! engine's. Only the execution telemetry (the engine recorder's
//! cluster counters and shard latency, the worker-sample split) is
//! allowed to differ, because it deliberately describes *how* the
//! campaign ran rather than *what* it computed.

use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;

use nestsim::cluster::machine::{Command, ServiceMachine, SvcConfig};
use nestsim::cluster::server::Server;
use nestsim::cluster::{
    run_campaign_cluster, ClusterConfig, LeaseConfig, RemoteExecutor, SvcClient, WorkerOptions,
};
use nestsim::core::campaign::{run_campaign_with, run_rounds, CampaignResult, CampaignSpec, Plan};
use nestsim::hlsim::workload::by_name;
use nestsim::models::ComponentKind;
use nestsim::telemetry::{names, Recorder, TelemetryConfig};

fn cell() -> (
    &'static nestsim::hlsim::workload::BenchProfile,
    CampaignSpec,
) {
    let profile = by_name("flui").unwrap();
    let spec = CampaignSpec {
        seed: 7,
        ..CampaignSpec::quick(ComponentKind::L2c, 12)
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

/// The server's counters, read over the wire.
fn stats(addr: &str) -> Recorder {
    SvcClient::connect(addr, "observer")
        .unwrap()
        .stats()
        .unwrap()
}

/// Tells the server to dismiss its workers; its counters once they left.
fn shutdown(server: Server) -> Recorder {
    server.waker().send(Command::Shutdown).unwrap();
    server.join().unwrap().into_stats()
}

#[test]
fn cluster_is_byte_identical_for_one_two_and_four_workers() {
    let (profile, spec) = cell();
    let telemetry = TelemetryConfig::default();
    let reference = run_campaign_with(profile, &spec, Some(&telemetry));
    for workers in [1usize, 2, 4] {
        let got = run_campaign_cluster(
            profile,
            &spec,
            Some(&telemetry),
            &ClusterConfig::threads(workers),
        );
        assert_identical(&format!("{workers} workers"), &reference, &got);
        // The engine recorder carries the cluster's own accounting.
        let engine = &got.telemetry.engine;
        assert!(engine.counter(names::CLUSTER_SHARDS) >= 1);
        assert_eq!(
            engine.counter(names::CLUSTER_SHARDS_COMPLETED),
            engine.counter(names::CLUSTER_SHARDS),
            "every shard completes exactly once in a healthy run"
        );
        assert_eq!(engine.counter(names::CLUSTER_REDISPATCHES), 0);
    }
}

#[test]
fn cluster_without_telemetry_matches_in_process() {
    let (profile, spec) = cell();
    let reference = run_campaign_with(profile, &spec, None);
    let got = run_campaign_cluster(profile, &spec, None, &ClusterConfig::threads(2));
    assert_eq!(got.records, reference.records);
    assert_eq!(got.counts, reference.counts);
    assert_eq!(got.golden, reference.golden);
}

/// A clustered cell batches on cluster workers as it does in process:
/// the worker runs each same-trajectory group through the shard
/// executor, cut where the shard ends — one worker takes four shards of
/// 5 positions, so every 8-sample cluster is cut — and the bytes do not
/// move.
#[test]
fn clustered_cell_with_shards_that_cut_groups_is_byte_identical() {
    let (profile, spec) = cell();
    let spec = CampaignSpec {
        samples: 20,
        lane_cluster: 8,
        ..spec
    };
    let telemetry = TelemetryConfig::default();
    let reference = run_campaign_with(profile, &spec, Some(&telemetry));
    assert!(
        reference.telemetry.engine.counter(names::LANES_BATCHES) > 0,
        "the cell must be one the lane engine batches"
    );
    let cfg = ClusterConfig::threads(1);
    let got = run_campaign_cluster(profile, &spec, Some(&telemetry), &cfg);
    assert_identical("lane_cluster 8, shards of 5", &reference, &got);
    assert_eq!(got.telemetry.engine.counter(names::CLUSTER_SHARDS), 4);
}

/// A worker speaking an old protocol version is rejected with a clean
/// `Error` frame and a closed connection — no panic, no hung lease, no
/// phantom worker in the accounting — and the coordinator keeps
/// serving healthy workers to a byte-identical result.
#[test]
fn version_mismatch_worker_is_rejected_cleanly() {
    use nestsim::cluster::frame::{read_frame, write_frame};
    use nestsim::cluster::Message;

    let (profile, spec) = cell();
    let telemetry = TelemetryConfig::default();
    let reference = run_campaign_with(profile, &spec, Some(&telemetry));
    let server = coordinator(LeaseConfig::default());
    let addr = server.addr().to_string();

    // A "v1 worker": a raw socket speaking the framed wire protocol
    // with an outdated version claim.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let hello = Message::Hello {
        version: 1,
        tenant: String::new(),
    };
    let hello = hello.encode().unwrap();
    write_frame(&mut stream, &hello).unwrap();
    let reply = Message::decode(&read_frame(&mut stream).unwrap()).unwrap();
    let Message::Error { message } = reply else {
        panic!("expected an Error reply, got {reply:?}");
    };
    assert!(
        message.contains("protocol version mismatch"),
        "unhelpful rejection: {message}"
    );
    // ... and then the coordinator hangs up on us.
    assert!(
        read_frame(&mut stream).is_err(),
        "connection must be closed after the rejection"
    );
    drop(stream);

    // The rejected worker never handshook: nothing was leased to it,
    // nothing needs releasing, and it never counted as connected.
    let engine = stats(&addr);
    assert_eq!(engine.counter(names::CLUSTER_LEASES_GRANTED), 0);
    assert_eq!(engine.counter(names::CLUSTER_LEASES_RELEASED), 0);
    assert_eq!(engine.counter(names::CLUSTER_WORKERS_CONNECTED), 0);

    // A healthy worker drains the whole campaign afterwards.
    let stats = std::thread::scope(|scope| {
        let run = campaign(scope, &addr, &telemetry);
        let healthy =
            scope.spawn(|| nestsim::cluster::run_worker(&addr, &WorkerOptions::default()));
        let got = run.join().unwrap();
        assert_identical("after version mismatch", &reference, &got);
        shutdown(server);
        healthy.join().unwrap().unwrap()
    });
    assert!(stats.shards_completed >= 1);
}

/// A worker that dies mid-shard (drops its connection without
/// submitting) loses its lease; the shard is re-dispatched to a healthy
/// worker and the merged result is still byte-identical.
#[test]
fn crashed_worker_is_redispatched_and_bytes_are_identical() {
    let (profile, spec) = cell();
    let telemetry = TelemetryConfig::default();
    let reference = run_campaign_with(profile, &spec, Some(&telemetry));

    let server = coordinator(LeaseConfig {
        lease_ms: 10_000,
        heartbeat_ms: 1_000,
        backoff_ms: 5,
    });
    let addr = server.addr().to_string();

    std::thread::scope(|scope| {
        let run = campaign(scope, &addr, &telemetry);
        let crasher = scope.spawn(|| {
            nestsim::cluster::run_worker(
                &addr,
                &WorkerOptions {
                    crash_after_samples: Some(1),
                    ..WorkerOptions::default()
                },
            )
        });
        // Give the crasher a head start so it certainly leases a shard
        // before the healthy worker can drain the campaign.
        while stats(&addr).counter(names::CLUSTER_LEASES_GRANTED) == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let healthy =
            scope.spawn(|| nestsim::cluster::run_worker(&addr, &WorkerOptions::default()));

        let got = run.join().unwrap();
        let engine = shutdown(server);
        let crasher_stats = crasher.join().unwrap().unwrap();
        let healthy_stats = healthy.join().unwrap().unwrap();

        assert_eq!(crasher_stats.shards_abandoned, 1);
        assert!(
            engine.counter(names::CLUSTER_REDISPATCHES) >= 1,
            "the crashed worker's shard must be re-dispatched"
        );
        assert!(
            healthy_stats.shards_completed >= 1,
            "the healthy worker must pick up the abandoned work"
        );
        assert_identical("crashed worker", &reference, &got);
    });
}
