//! End-to-end service tests over loopback TCP: real sockets, real
//! event loop, real execution pool, and the `nestsim-svc` binary. A
//! test that talks to a service stops it on every path, and fails,
//! rather than hangs, when the service never answers.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::panic;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use nestsim_cluster::frame::{read_frame, write_frame, MAGIC, MAX_FRAME};
use nestsim_cluster::proto::{JobWire, Message, PROTOCOL_VERSION};
use nestsim_cluster::{run_worker, Shard, WorkerOptions};
use nestsim_core::campaign::{run_campaign_with, CampaignSpec};
use nestsim_hlsim::workload::by_name;
use nestsim_models::ComponentKind;
use nestsim_svc::{serve, JobOutcome, ServiceConfig, SvcClient, SvcConfig};
use nestsim_telemetry::{names, Recorder, TelemetryConfig};

#[test]
fn zero_capacity_service_backpressures_over_the_wire() {
    let handle = serve(ServiceConfig {
        machine: SvcConfig {
            max_queue_depth: 0,
            ..SvcConfig::default()
        },
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let profile = by_name("radi").unwrap();
    let spec = CampaignSpec::quick(ComponentKind::L2c, 4);
    let job = JobWire::from_spec(profile, &spec, None);
    let mut client = SvcClient::connect(&addr, "t1").unwrap();
    match client.run_job(&job, 1).unwrap() {
        JobOutcome::Rejected(reason) => assert!(reason.contains("queue full"), "{reason}"),
        other => panic!("expected backpressure, got {other:?}"),
    }
    handle.shutdown().unwrap();
}

#[test]
fn invalid_job_is_rejected_over_the_wire() {
    let handle = serve(ServiceConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let profile = by_name("radi").unwrap();
    let mut spec = CampaignSpec::quick(ComponentKind::L2c, 4);
    spec.check_interval = 0;
    let job = JobWire::from_spec(profile, &spec, None);
    let mut client = SvcClient::connect(&addr, "t1").unwrap();
    match client.run_job(&job, 1).unwrap() {
        JobOutcome::Rejected(reason) => assert!(reason.contains("check_interval"), "{reason}"),
        other => panic!("expected rejection, got {other:?}"),
    }
    handle.shutdown().unwrap();
}

/// How long a test waits for a service, its worker or its process
/// before it fails.
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs `checks` on a thread of its own and calls `stop` once they
/// return, panic or outlast [`DEADLINE`]. `stop` ends the server the
/// checks talk to, which hangs up on a check still blocked on it, so a
/// server that never answers fails the test instead of hanging it.
fn bounded<T: Send>(checks: impl FnOnce() -> T + Send, stop: impl FnOnce()) -> T {
    let (done, finished) = mpsc::channel();
    std::thread::scope(|scope| {
        let run = scope.spawn(move || {
            let out = checks();
            let _ = done.send(());
            out
        });
        let late = finished.recv_timeout(DEADLINE) == Err(RecvTimeoutError::Timeout);
        stop();
        let out = run.join();
        assert!(!late, "the checks did not finish within {DEADLINE:?}");
        out.unwrap_or_else(|panic| panic::resume_unwind(panic))
    })
}

/// [`bounded`] `checks` against a service [`serve`]d with `cfg`, given
/// its address; the service stops whether or not they pass.
fn against_service<T: Send>(cfg: ServiceConfig, checks: impl FnOnce(&str) -> T + Send) -> T {
    let handle = serve(cfg).expect("start the service");
    let addr = handle.addr().to_string();
    let mut stopped = None;
    let out = bounded(|| checks(&addr), || stopped = Some(handle.shutdown()));
    let stopped = stopped.expect("the service was stopped");
    stopped.expect("the service loop failed");
    out
}

/// A worker that dials the service takes a client's job as shard
/// leases, and the records come back byte-equal to the in-process run.
/// A peer that sends a frame only a server sends, such as `Assign`,
/// gets the server's `Error` naming it.
#[test]
fn a_worker_dialing_the_service_runs_its_shards() {
    let (left, worker) = mpsc::channel();
    against_service(ServiceConfig::default(), |addr| {
        let to = addr.to_string();
        std::thread::spawn(move || {
            let _ = left.send(run_worker(&to, &WorkerOptions::default()));
        });
        leased_job_checks(addr);
    });
    // The loop returned and dropped the parked worker's connection.
    let gone = worker.recv_timeout(DEADLINE);
    assert!(gone.is_ok(), "the worker did not leave within {DEADLINE:?}");
}

/// The checks of the test above, against the service at `addr` with one
/// worker dialling it.
fn leased_job_checks(addr: &str) {
    let mut client = SvcClient::connect(addr, "t1").unwrap();
    let profile = by_name("radi").unwrap();
    let spec = CampaignSpec::quick(ComponentKind::L2c, 8);
    let telemetry = TelemetryConfig::default();
    let job = JobWire::from_spec(profile, &spec, Some(&telemetry));
    // The job goes out as leases only once the worker asked for one.
    let start = Instant::now();
    while client
        .stats()
        .unwrap()
        .counter(names::CLUSTER_WORKERS_CONNECTED)
        == 0
    {
        assert!(start.elapsed() < DEADLINE, "no worker within {DEADLINE:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
    let outcome = client.run_job(&job, 1).unwrap();
    assert_in_process(outcome, &spec, &telemetry);
    let served = client.stats().unwrap();
    assert!(served.counter(names::CLUSTER_SHARDS_COMPLETED) >= 1);
    assert_eq!(served.counter(names::SVC_EXECS_STARTED), 1);

    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = Message::Hello {
        version: PROTOCOL_VERSION,
        tenant: "t2".into(),
    };
    write_frame(&mut stream, &hello.encode().unwrap()).unwrap();
    let ack = Message::decode(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(matches!(ack, Message::HelloAck { .. }), "{ack:?}");
    let assign = Message::Assign {
        shard: Shard {
            id: 0,
            start: 0,
            len: 1,
        },
        job: Box::new(job.clone()),
        lease_ms: 1,
        heartbeat_ms: 1,
    };
    write_frame(&mut stream, &assign.encode().unwrap()).unwrap();
    match Message::decode(&read_frame(&mut stream).unwrap()).unwrap() {
        Message::Error { message } => assert!(message.contains("Assign"), "{message}"),
        other => panic!("expected an Error, got {other:?}"),
    }
    assert!(hung_up(&mut stream), "the peer is hung up on");
}

/// Asserts a service outcome equals the in-process run of `spec` on
/// `radi`.
fn assert_in_process(outcome: JobOutcome, spec: &CampaignSpec, telemetry: &TelemetryConfig) {
    let reference = run_campaign_with(by_name("radi").unwrap(), spec, Some(telemetry));
    let JobOutcome::Done(result) = outcome else {
        panic!("job did not complete: {outcome:?}");
    };
    assert_eq!(result.records, reference.records);
    assert_eq!(result.counts, reference.counts);
    assert_eq!(result.golden, reference.golden);
    assert_eq!(
        result.telemetry.merged.to_jsonl(),
        reference.telemetry.merged.to_jsonl()
    );
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

/// Serves two concurrent clients whose job lists share one cell (A:
/// cells 0 and 1, B: cells 1 and 2), the first `chaos` executions
/// crashing; asserts all four results equal the in-process runs and
/// returns the service's counters.
fn overlapping_clients(chaos: u64) -> Recorder {
    let telemetry = TelemetryConfig { trace_capacity: 32 };
    let specs = [101, 102, 103].map(|seed| CampaignSpec {
        seed,
        ..CampaignSpec::quick(ComponentKind::L2c, 6)
    });
    let jobs =
        specs.map(|spec| JobWire::from_spec(by_name("radi").unwrap(), &spec, Some(&telemetry)));
    let cfg = ServiceConfig {
        chaos_crash_first: chaos,
        ..ServiceConfig::default()
    };
    against_service(cfg, |addr| {
        let run = |tenant: &str, cells: [usize; 2]| {
            let mut client = SvcClient::connect(addr, tenant).unwrap();
            let list = cells.map(|c| (jobs[c].clone(), 1));
            let outcomes = client.run_jobs(&list).unwrap();
            for (outcome, c) in outcomes.into_iter().zip(cells) {
                assert_in_process(outcome, &specs[c], &telemetry);
            }
        };
        std::thread::scope(|scope| {
            let a = scope.spawn(|| run("alice", [0, 1]));
            let b = scope.spawn(|| run("bob", [1, 2]));
            for client in [a, b] {
                client
                    .join()
                    .unwrap_or_else(|panic| panic::resume_unwind(panic));
            }
        });
        SvcClient::connect(addr, "observer")
            .unwrap()
            .stats()
            .unwrap()
    })
}

/// The shared cell executes once: its second subscriber joins the first
/// execution or reads its stored result, and both get the same bytes.
#[test]
fn overlapping_clients_share_one_execution_of_their_common_cell() {
    let stats = overlapping_clients(0);
    assert!(stats.counter(names::SVC_DEDUP_HITS) >= 1, "{stats:?}");
    assert_eq!(stats.counter(names::SVC_EXECS_STARTED), 3, "{stats:?}");
    assert_eq!(stats.counter(names::SVC_JOBS_COMPLETED), 3, "{stats:?}");
}

/// A crashed execution is requeued, and every result is still the
/// in-process run's, counted once.
#[test]
fn a_crashed_execution_is_requeued_and_results_stay_identical() {
    let stats = overlapping_clients(1);
    assert!(stats.counter(names::SVC_EXEC_CRASHES) >= 1, "{stats:?}");
    assert_eq!(stats.counter(names::SVC_JOBS_COMPLETED), 3, "{stats:?}");
}

/// `nestsim-svc` spawned with `args`, its stdout piped; the child is
/// killed and reaped when dropped.
struct SvcProcess(Child);

impl SvcProcess {
    fn spawn(args: &[&str], stderr: Stdio) -> SvcProcess {
        let child = Command::new(env!("CARGO_BIN_EXE_nestsim-svc"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn nestsim-svc");
        SvcProcess(child)
    }
}

impl Drop for SvcProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The `nestsim-svc` binary listens where it says it does and serves a
/// client's job byte-identical to the in-process run.
#[test]
fn the_service_binary_serves_a_job() {
    let mut svc = SvcProcess::spawn(&["--listen", "127.0.0.1:0"], Stdio::inherit());
    let stdout = svc.0.stdout.take().expect("piped stdout");
    let checks = || {
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("nestsim-svc: listening on ")
            .unwrap_or_else(|| panic!("no listening line: {line:?}"));
        let telemetry = TelemetryConfig::default();
        let spec = CampaignSpec::quick(ComponentKind::L2c, 4);
        let job = JobWire::from_spec(by_name("radi").unwrap(), &spec, Some(&telemetry));
        let outcome = SvcClient::connect(addr, "t1")
            .unwrap()
            .run_job(&job, 1)
            .unwrap();
        assert_in_process(outcome, &spec, &telemetry);
    };
    bounded(checks, || drop(svc));
}

/// An invalid flag value ends `nestsim-svc` with exit code 2 and its
/// usage line.
#[test]
fn the_service_binary_rejects_zero_exec_slots() {
    let mut svc = SvcProcess::spawn(
        &["--listen", "127.0.0.1:0", "--exec-slots", "0"],
        Stdio::piped(),
    );
    let start = Instant::now();
    let status = loop {
        if let Some(status) = svc.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            start.elapsed() < DEADLINE,
            "still running after {DEADLINE:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut stderr = String::new();
    let pipe = svc.0.stderr.as_mut().expect("piped stderr");
    pipe.read_to_string(&mut stderr).unwrap();
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage: nestsim-svc "), "{stderr}");
}

/// A tenant that trickles its hello a byte at a time, one that speaks
/// the wrong protocol, and one that claims a maximal frame and stalls
/// share the loop with a healthy tenant, whose job still comes back
/// byte-identical; the bad two are hung up on.
#[test]
fn slow_and_bad_peers_do_not_stall_a_healthy_tenant() {
    let telemetry = TelemetryConfig { trace_capacity: 16 };
    let spec = CampaignSpec {
        seed: 7,
        ..CampaignSpec::quick(ComponentKind::L2c, 6)
    };
    let handle = serve(ServiceConfig::default()).unwrap();
    let addr = handle.addr();

    let mut bad_magic = TcpStream::connect(addr).unwrap();
    bad_magic.write_all(&[0xff; 8]).unwrap();
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(&MAGIC.to_le_bytes()).unwrap();
    stalled.write_all(&MAX_FRAME.to_le_bytes()).unwrap();

    std::thread::scope(|scope| {
        let healthy = scope.spawn(|| {
            let job = JobWire::from_spec(by_name("radi").unwrap(), &spec, Some(&telemetry));
            let mut client = SvcClient::connect(&addr.to_string(), "healthy").unwrap();
            client.run_job(&job, 1).unwrap()
        });

        let mut slow = TcpStream::connect(addr).unwrap();
        let mut hello = Vec::new();
        let payload = Message::Hello {
            version: PROTOCOL_VERSION,
            tenant: "slow".to_string(),
        };
        write_frame(&mut hello, &payload.encode().unwrap()).unwrap();
        for byte in hello {
            slow.write_all(&[byte]).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let reply = Message::decode(&read_frame(&mut slow).unwrap()).unwrap();
        assert!(matches!(reply, Message::HelloAck { .. }), "{reply:?}");

        assert!(hung_up(&mut bad_magic), "bad magic must be hung up on");
        assert_in_process(healthy.join().unwrap(), &spec, &telemetry);
    });
    handle.shutdown().unwrap();
    assert!(
        hung_up(&mut stalled),
        "a stalled frame is hung up on at shutdown"
    );
}

/// A tenant that keeps submitting and never reads is cut off once its
/// unsent replies pass one maximal frame, instead of growing the
/// service's memory without limit; a second tenant is unaffected.
#[test]
fn tenant_that_never_reads_is_dropped() {
    let telemetry = TelemetryConfig { trace_capacity: 16 };
    let spec = CampaignSpec {
        seed: 5,
        ..CampaignSpec::quick(ComponentKind::L2c, 6)
    };
    let job = JobWire::from_spec(by_name("radi").unwrap(), &spec, Some(&telemetry));
    let handle = serve(ServiceConfig::default()).unwrap();
    let addr = handle.addr().to_string();

    // Every resubmission is answered in full from the result store.
    let mut warm = SvcClient::connect(&addr, "warm").unwrap();
    drop(warm.run_job(&job, 1).unwrap());
    let mut deaf = TcpStream::connect(&addr).unwrap();
    let hello = Message::Hello {
        version: PROTOCOL_VERSION,
        tenant: "deaf".to_string(),
    };
    write_frame(&mut deaf, &hello.encode().unwrap()).unwrap();
    let mut batch = Vec::new();
    for req in 0..1_000 {
        let submit = Message::SubmitJob {
            req,
            priority: 1,
            job: job.clone(),
        };
        write_frame(&mut batch, &submit.encode().unwrap()).unwrap();
    }
    std::thread::scope(|scope| {
        let second = CampaignSpec { seed: 6, ..spec };
        let reader = scope.spawn(move || {
            let job = JobWire::from_spec(by_name("radi").unwrap(), &second, Some(&telemetry));
            let mut client = SvcClient::connect(&addr, "reader").unwrap();
            assert_in_process(client.run_job(&job, 1).unwrap(), &second, &telemetry);
        });
        // Each submission is answered with ~800 bytes, so the cap
        // (64 MiB) falls near batch 80.
        let dropped = (0..200).any(|_| deaf.write_all(&batch).is_err());
        assert!(dropped, "a tenant that never reads must be dropped");
        reader.join().unwrap();
    });
    handle.shutdown().unwrap();
}
