//! The service driver: [`SvcMachine`] on the cluster's server loop
//! ([`nestsim_cluster::server`], which owns every client socket on one
//! thread, as it does for the campaign coordinator), plus the
//! execution pool. A job *is* an in-process campaign — that is what
//! makes service results byte-identical to local execution — so the
//! pool runs whole jobs through `run_campaign_with` and reports each
//! back as a loop command; the loop never blocks on anything but the
//! poller.

use crate::machine::{SvcAction, SvcConfig, SvcEvent, SvcMachine};
use crate::store::ExecOutput;
use nestsim_cluster::proto::JobWire;
use nestsim_cluster::server::{decode_frame, send_frame, Action, Event, Machine, Server, Waker};
use nestsim_core::run_campaign_with;
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
    /// Execution-pool threads; clamped up to `machine.exec_slots`.
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
    server: Server<Svc>,
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

/// What reaches the loop from outside it: the execution pool, the
/// handle, or `nestsim-mck`'s service scenario.
pub enum Command {
    /// An execution finished (`Ok`) or crashed (`Err(reason)`).
    Exec {
        /// Id from the machine's `StartExec`.
        exec: u64,
        /// What the execution produced, or why it crashed.
        result: Result<ExecOutput, String>,
    },
    /// Return from the loop.
    Stop,
}

/// [`SvcMachine`] as the server loop sees it. The model checker steps
/// this very adapter.
#[derive(Debug)]
pub struct Svc {
    machine: SvcMachine,
    tasks: mpsc::Sender<(u64, JobWire)>,
}

impl Svc {
    /// The adapter around `machine`, handing executions to `tasks`.
    pub fn new(machine: SvcMachine, tasks: mpsc::Sender<(u64, JobWire)>) -> Svc {
        Svc { machine, tasks }
    }

    /// The machine, for its end state.
    pub fn machine(&self) -> &SvcMachine {
        &self.machine
    }

    /// Steps the machine and performs its actions.
    fn feed(&mut self, ev: SvcEvent, out: &mut Vec<Action>) {
        for act in self.machine.step(ev) {
            match act {
                SvcAction::Send { conn, msg } => {
                    if send_frame(conn, &msg, out).is_none() {
                        self.feed(SvcEvent::Closed { conn }, out);
                    }
                }
                SvcAction::Close { conn } => {
                    // The loop reports no close the machine asked for,
                    // so the machine hears of it here and drops the
                    // connection's tickets.
                    out.push(Action::Close { conn });
                    self.feed(SvcEvent::Closed { conn }, out);
                }
                SvcAction::StartExec { exec, job } => {
                    if self.tasks.send((exec, job)).is_err() {
                        // Pool gone: surface as a crash so the machine's
                        // books stay balanced.
                        let reason = "execution pool unavailable".to_string();
                        self.feed(SvcEvent::ExecCrashed { exec, reason }, out);
                    }
                }
            }
        }
    }
}

impl Machine for Svc {
    type Command = Command;

    fn step(&mut self, _now: u64, event: Event<Command>, out: &mut Vec<Action>) {
        let ev = match event {
            Event::Connected { conn } => SvcEvent::Connected { conn },
            Event::Frame { conn, payload } => match decode_frame(conn, &payload, out) {
                Some(msg) => SvcEvent::Received { conn, msg },
                None => SvcEvent::Closed { conn },
            },
            Event::Closed { conn, .. } => SvcEvent::Closed { conn },
            Event::Tick => return,
            Event::Command(Command::Exec { exec, result }) => match result {
                Ok(output) => SvcEvent::ExecDone { exec, output },
                Err(reason) => SvcEvent::ExecCrashed { exec, reason },
            },
            Event::Command(Command::Stop) => {
                out.push(Action::Exit);
                return;
            }
        };
        self.feed(ev, out);
    }
}

/// Starts the service and returns once the listener is bound.
pub fn serve(cfg: ServiceConfig) -> io::Result<ServiceHandle> {
    let pool = cfg.exec_threads.clamp(1, cfg.machine.exec_slots.max(1));
    let (tasks, task_rx) = mpsc::channel::<(u64, JobWire)>();
    let svc = Svc::new(SvcMachine::new(cfg.machine), tasks);
    let server = Server::spawn(&cfg.listen, "nestsim-svc-loop", svc)?;
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

fn exec_worker(
    task_rx: &Mutex<mpsc::Receiver<(u64, JobWire)>>,
    chaos: &AtomicU64,
    waker: &Waker<Command>,
) {
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

/// Runs one job to completion in-process. Panics inside the campaign
/// engine surface as crashes (the machine retries, then fails the job)
/// rather than taking the service down.
fn run_exec(job: &JobWire) -> Result<ExecOutput, String> {
    let job = job.clone();
    let run = std::panic::catch_unwind(move || {
        let profile = job.profile()?;
        let result = run_campaign_with(profile, &job.spec, job.telemetry.as_ref());
        Ok::<ExecOutput, String>(ExecOutput {
            golden: result.golden,
            records: result.records,
            merged: result.telemetry.merged,
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
