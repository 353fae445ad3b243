//! The service driver: the one campaign server machine
//! ([`ServiceMachine`]) on the cluster's server loop, which owns every
//! client and worker socket on one thread, plus the execution pool.
//! While no worker is connected a job runs in process as one round on
//! the in-process executor — which is what makes service results
//! byte-identical to local execution — so the pool runs each job
//! through [`LadderExecutor::run_round`] and reports it back as a loop
//! command; the loop never blocks on anything but the poller. Connected
//! workers take jobs as shard leases instead.

use nestsim_cluster::machine::{Command, ServiceMachine, SvcConfig};
use nestsim_cluster::proto::JobWire;
use nestsim_cluster::server::{Server, Waker};
use nestsim_cluster::store::ExecOutput;
use nestsim_cluster::LeaseConfig;
use nestsim_core::campaign::{LadderExecutor, Plan, RoundExecutor};
use nestsim_telemetry::{Recorder, TelemetryConfig};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

/// Tunables of [`serve`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub listen: String,
    /// Protocol-machine tunables (queue bound, DRR quantum, slots).
    pub machine: SvcConfig,
    /// Execution-pool threads; clamped to 1..=`machine.exec_slots`.
    pub exec_threads: usize,
    /// Chaos knob for tests: crash the first N executions instead of
    /// running them, exercising the requeue path end to end.
    pub chaos_crash_first: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            listen: "127.0.0.1:0".to_string(),
            machine: SvcConfig::default(),
            exec_threads: 2,
            chaos_crash_first: 0,
        }
    }
}

/// A running service; dropping the handle leaves it running (use
/// [`ServiceHandle::shutdown`] for a clean stop).
#[derive(Debug)]
pub struct ServiceHandle {
    server: Server,
    execs: Vec<thread::JoinHandle<()>>,
}

impl ServiceHandle {
    /// The bound listen address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the event loop, joins the execution pool, and returns the
    /// loop's exit status.
    pub fn shutdown(self) -> io::Result<()> {
        let _ = self.server.waker().send(Command::Stop);
        // The loop drops the task queue when it returns, which ends the
        // pool once running executions finish.
        let res = self.server.join().map(drop);
        for exec in self.execs {
            let _ = exec.join();
        }
        res
    }
}

/// Starts the service and returns once the listener is bound.
pub fn serve(cfg: ServiceConfig) -> io::Result<ServiceHandle> {
    let pool = cfg.exec_threads.clamp(1, cfg.machine.exec_slots.max(1));
    let (tasks, task_rx) = mpsc::channel::<(u64, JobWire)>();
    let stats = Recorder::active(&TelemetryConfig { trace_capacity: 16 });
    let machine = ServiceMachine::new(cfg.machine, LeaseConfig::default(), stats, Some(tasks));
    let server = Server::spawn(&cfg.listen, "nestsim-svc-loop", machine)?;
    let task_rx = Arc::new(Mutex::new(task_rx));
    let chaos = Arc::new(AtomicU64::new(cfg.chaos_crash_first));
    let execs = (0..pool)
        .map(|_| {
            let task_rx = Arc::clone(&task_rx);
            let chaos = Arc::clone(&chaos);
            let waker = server.waker().clone();
            thread::spawn(move || exec_worker(&task_rx, &chaos, &waker))
        })
        .collect();
    Ok(ServiceHandle { server, execs })
}

fn exec_worker(task_rx: &Mutex<mpsc::Receiver<(u64, JobWire)>>, chaos: &AtomicU64, waker: &Waker) {
    loop {
        let task = match task_rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok((exec, job)) = task else { return };
        let chaos_hit = chaos
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        let result = if chaos_hit {
            Err("chaos: injected worker crash".to_string())
        } else {
            run_exec(&job)
        };
        let _ = waker.send(Command::Exec { exec, result });
    }
}

/// Runs one job, a fixed-count cell or one adaptive round, to
/// completion in-process. Panics inside the campaign engine surface as
/// crashes (the machine retries, then fails the job) rather than taking
/// the service down.
fn run_exec(job: &JobWire) -> Result<ExecOutput, String> {
    let job = job.clone();
    let run = std::panic::catch_unwind(move || {
        let profile = job.profile()?;
        let telemetry = job.telemetry.as_ref();
        // One round on one executor: the ladder one fixed-count round
        // can use, whichever plan the round belongs to.
        let mut executor = LadderExecutor::new(profile, &job.spec, &Plan::Fixed, telemetry);
        let (records, merged) = executor.run_round(job.adaptive.as_ref());
        let execution = executor.finish();
        Ok::<ExecOutput, String>(ExecOutput {
            golden: execution.golden,
            records,
            merged,
            engine: execution.engine,
        })
    });
    match run {
        Ok(res) => res,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            Err(format!("execution panicked: {msg}"))
        }
    }
}
