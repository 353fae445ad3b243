//! `cluster_smoke` — offline CI gate for the distributed campaign
//! path.
//!
//! Runs one small campaign cell three ways and asserts byte-identity:
//!
//! 1. the in-process engine (`run_campaign_with`) — the reference;
//! 2. a coordinator plus two spawned `nestsim-worker` *processes* over
//!    loopback TCP;
//! 3. the same cell with a crash-injected worker process (killed after
//!    one sample), asserting the coordinator re-dispatched at least one
//!    lease and the merged result is still byte-identical.
//!
//! Exits nonzero on any mismatch; prints one summary line per stage.
//! Used by `ci.sh` after the release build (it needs the sibling
//! `nestsim-worker` binary).

use std::process::{Command, Stdio};
use std::time::Duration;

use nestsim_cluster::{
    run_campaign_cluster, serve_campaign, ClusterConfig, CoordinatorConfig, LeaseConfig,
};
use nestsim_core::campaign::{run_campaign_with, CampaignResult, CampaignSpec};
use nestsim_hlsim::workload::by_name;
use nestsim_models::ComponentKind;
use nestsim_telemetry::{names, TelemetryConfig};

/// The sibling `nestsim-worker` binary (same target directory).
fn worker_bin() -> String {
    let mut path = std::env::current_exe().expect("current_exe");
    path.set_file_name("nestsim-worker");
    assert!(
        path.exists(),
        "worker binary not found at {} (build the full workspace first)",
        path.display()
    );
    path.to_string_lossy().into_owned()
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
    println!(
        "cluster_smoke: {stage}: byte-identical ({} records, counts {:?})",
        got.records.len(),
        got.counts
    );
}

fn main() {
    let profile = by_name("flui").expect("benchmark profile");
    let spec = CampaignSpec {
        seed: 42,
        ..CampaignSpec::quick(ComponentKind::L2c, 12)
    };
    let telemetry = TelemetryConfig::default();
    let worker = worker_bin();

    let reference = run_campaign_with(profile, &spec, Some(&telemetry));

    // Stage 1: two healthy worker processes.
    let procs = run_campaign_cluster(
        profile,
        &spec,
        Some(&telemetry),
        &ClusterConfig::processes(vec![worker.clone()], 2),
    );
    assert_identical("2 worker processes", &reference, &procs);

    // Stage 2: one crash-injected process (dies after 1 sample) plus
    // one healthy process. Short leases so re-dispatch is prompt; the
    // crasher is given a head start so it certainly leases a shard.
    let cfg = CoordinatorConfig {
        lease: LeaseConfig {
            lease_ms: 1_500,
            heartbeat_ms: 100,
            backoff_ms: 10,
        },
        workers_hint: 2,
        ..CoordinatorConfig::default()
    };
    let campaign =
        serve_campaign(profile, &spec, Some(&telemetry), &cfg).expect("bind coordinator");
    let addr = campaign.addr().to_string();
    let spawn = |extra: &[&str]| {
        Command::new(&worker)
            .args(extra)
            .arg("--connect")
            .arg(&addr)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn worker process")
    };
    let mut crasher = spawn(&["--crash-after", "1"]);
    while campaign
        .engine_stats()
        .counter(names::CLUSTER_LEASES_GRANTED)
        == 0
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut healthy = spawn(&[]);
    let chaos = campaign.wait();
    let crash_status = crasher.wait().expect("wait crasher");
    let _ = healthy.wait();
    assert_eq!(
        crash_status.code(),
        Some(17),
        "crash-injected worker should die with exit code 17"
    );
    let redispatched = chaos.telemetry.engine.counter(names::CLUSTER_REDISPATCHES);
    assert!(
        redispatched >= 1,
        "expected at least one lease re-dispatch after the worker crash"
    );
    assert_identical("worker crash + re-dispatch", &reference, &chaos);
    println!("cluster_smoke: {redispatched} lease(s) re-dispatched after crash");
    println!("cluster_smoke: OK");
}
