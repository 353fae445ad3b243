//! The worker as a pure sans-I/O state machine.
//!
//! [`WorkerMachine`] is the worker's half of the cluster protocol —
//! handshake, shard request/execute/submit loop, heartbeats, wait
//! backoff, and the deterministic chaos hooks — expressed as
//! `step(now, event) -> Vec<action>` with no sockets, clocks, or
//! simulation engine anywhere. The TCP worker in [`crate::worker`] is
//! a thin driver: it performs each [`WorkerAction`] (write a frame,
//! run one injection through the real [`ShardWalk`], sleep) and
//! feeds the outcome back as the next [`WorkerEvent`]. The `crates/mck`
//! simulator drives the same type with a virtual clock and canned
//! execution results, exploring interleavings the TCP driver would
//! need lucky timing to hit.
//!
//! The protocol is strictly request/response from the worker's side:
//! after every [`WorkerAction::Send`] the machine owes the driver
//! nothing until the coordinator's single reply arrives as
//! [`WorkerEvent::Received`]. Execution is asynchronous by contract —
//! [`WorkerAction::Execute`] names a sample-order position, and the
//! driver answers with [`WorkerEvent::Executed`] whenever the run is
//! done, which is what lets the simulator interleave execution with
//! message delivery.
//!
//! [`ShardWalk`]: nestsim_core::campaign::ShardWalk

use nestsim_core::inject::GoldenRef;

use crate::proto::{JobWire, Message, RunWire, SubmitWire, PROTOCOL_VERSION};
use crate::shard::Shard;

/// Worker behaviour knobs, including deterministic chaos injection.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Crash (drop the connection mid-shard without submitting) after
    /// this many total samples have been executed. With
    /// [`WorkerOptions::process_exit_on_crash`] the whole process
    /// exits, modelling a killed worker.
    pub crash_after_samples: Option<u64>,
    /// Hang after this many total samples: stop executing and stop
    /// heartbeating while holding the lease, until it has certainly
    /// expired, then disconnect without submitting — modelling a hung
    /// or straggling worker.
    pub stall_after_samples: Option<u64>,
    /// On crash, exit the process (exit code 17) instead of returning
    /// — the `nestsim-worker` bin sets this so a "crash" is a real
    /// process death.
    pub process_exit_on_crash: bool,
}

/// What a worker did before exiting, for logs and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Shards completed and accepted.
    pub shards_completed: u64,
    /// Shards completed but deduped by the coordinator.
    pub shards_duplicate: u64,
    /// Shards abandoned (lost lease, or chaos).
    pub shards_abandoned: u64,
    /// Injection samples executed.
    pub samples_run: u64,
}

/// An input to the worker state machine.
#[derive(Debug, Clone)]
pub enum WorkerEvent {
    /// The connection is up; begin the handshake.
    Start,
    /// The coordinator's reply to the last `Send`.
    Received {
        /// The decoded message.
        msg: Message,
    },
    /// The driver finished the injection run that the last `Execute`
    /// asked for.
    Executed {
        /// The completed run, ready for the shard submission.
        run: RunWire,
        /// The executor's independently derived golden reference
        /// (cross-checked by the coordinator on submit).
        golden: GoldenRef,
        /// Forward-simulated cycles this lease has cost so far.
        forward: u64,
        /// Ladder restores this lease has cost so far.
        restores: u64,
    },
    /// The sleep the last `Sleep` asked for has elapsed.
    Woke,
    /// The connection dropped out from under the worker.
    ConnClosed,
}

/// How a finished worker ended, carried by [`WorkerAction::Finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerEnd {
    /// The coordinator said `done`; clean exit.
    Done,
    /// Chaos stall ran its course; exit without submitting.
    Stalled,
    /// Protocol failure (coordinator error, unexpected reply, lost
    /// connection). The driver surfaces this as an error.
    Failed(String),
}

/// An output of the worker state machine, for the driver to perform.
#[derive(Debug, Clone)]
pub enum WorkerAction {
    /// Write `msg` to the coordinator, then feed back its reply.
    Send {
        /// The message to write.
        msg: Message,
    },
    /// Run the injection at sample-order position `pos` (an index into
    /// the entry order, not a raw sample id), then feed back
    /// [`WorkerEvent::Executed`]. The active job is
    /// [`WorkerMachine::current_job`].
    Execute {
        /// Sample-order position to execute.
        pos: u64,
    },
    /// Sleep `ms` (already clamped), then feed back
    /// [`WorkerEvent::Woke`].
    Sleep {
        /// Milliseconds to sleep.
        ms: u64,
    },
    /// Chaos crash: drop the connection immediately without another
    /// word (and exit the process, if so configured).
    Crash,
    /// The worker is finished; stop driving.
    Finish {
        /// How it ended.
        end: WorkerEnd,
    },
}

/// Per-assignment state while a shard is being executed.
#[derive(Debug, Clone)]
struct Assignment {
    shard: Shard,
    job: JobWire,
    lease_ms: u64,
    heartbeat_ms: u64,
    /// Offset of the next sample within the shard.
    next_off: u64,
    runs: Vec<RunWire>,
    golden: Option<GoldenRef>,
    forward: u64,
    restores: u64,
    /// Tick of the last coordinator contact (assign or heartbeat ack).
    last_contact: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Init,
    AwaitHelloAck,
    AwaitAssign,
    /// Told to wait; sleeping before the next request.
    Sleeping,
    /// Executing the current assignment.
    Running,
    AwaitHeartbeatAck,
    AwaitSubmitAck,
    /// Chaos stall: holding the lease silently until it expired.
    Stalling,
    /// Terminal: finished (the `Finish` action was emitted).
    Finished,
    /// Terminal: chaos crash (the `Crash` action was emitted).
    Dead,
}

/// The worker protocol as a pure state machine. See the module docs
/// for the driving contract.
pub struct WorkerMachine {
    version: u16,
    opts: WorkerOptions,
    phase: Phase,
    worker: u32,
    assignment: Option<Assignment>,
    stats: WorkerStats,
}

impl WorkerMachine {
    /// A worker speaking the current [`PROTOCOL_VERSION`].
    pub fn new(opts: WorkerOptions) -> Self {
        Self::with_version(PROTOCOL_VERSION, opts)
    }

    /// A worker claiming protocol version `version` — lets tests and
    /// the model checker exercise version-mismatch rejection.
    pub fn with_version(version: u16, opts: WorkerOptions) -> Self {
        WorkerMachine {
            version,
            opts,
            phase: Phase::Init,
            worker: 0,
            assignment: None,
            stats: WorkerStats::default(),
        }
    }

    /// What the worker accomplished so far.
    pub fn stats(&self) -> WorkerStats {
        self.stats
    }

    /// The chaos/behaviour options this machine was built with.
    pub fn options(&self) -> &WorkerOptions {
        &self.opts
    }

    /// The job of the active assignment, if a shard is in flight. The
    /// driver resolves `Execute` positions against this job's
    /// derivation.
    pub fn current_job(&self) -> Option<&JobWire> {
        self.assignment.as_ref().map(|a| &a.job)
    }

    /// The shard of the active assignment, if one is in flight. Stays
    /// `Some` from `Assign` until the shard is submitted (acked),
    /// abandoned, stalled, or crashed — the driver counts the lease's
    /// forward cycles and restores over this window.
    pub fn current_shard(&self) -> Option<Shard> {
        self.assignment.as_ref().map(|a| a.shard)
    }

    /// Advance the machine by one event at time `now` (milliseconds on
    /// the driver's clock), returning the actions to perform, in
    /// order.
    pub fn step(&mut self, now: u64, event: WorkerEvent) -> Vec<WorkerAction> {
        match event {
            WorkerEvent::Start => {
                self.phase = Phase::AwaitHelloAck;
                vec![WorkerAction::Send {
                    msg: Message::Hello {
                        version: self.version,
                        tenant: String::new(),
                    },
                }]
            }
            WorkerEvent::Received { msg } => self.on_message(now, msg),
            WorkerEvent::Executed {
                run,
                golden,
                forward,
                restores,
            } => {
                if self.phase != Phase::Running {
                    return self.fail("executed a sample outside an assignment".to_string());
                }
                let a = self
                    .assignment
                    .as_mut()
                    .expect("Running phase has an assignment");
                a.runs.push(run);
                a.golden = Some(golden);
                a.forward = forward;
                a.restores = restores;
                a.next_off += 1;
                self.stats.samples_run += 1;
                self.continue_shard(now)
            }
            WorkerEvent::Woke => match self.phase {
                Phase::Sleeping => self.request_shard(),
                Phase::Stalling => {
                    self.stats.shards_abandoned += 1;
                    self.finish(WorkerEnd::Stalled)
                }
                _ => self.fail("woke without sleeping".to_string()),
            },
            WorkerEvent::ConnClosed => match self.phase {
                Phase::Finished | Phase::Dead => Vec::new(),
                _ => self.fail("connection closed by coordinator".to_string()),
            },
        }
    }

    fn on_message(&mut self, now: u64, msg: Message) -> Vec<WorkerAction> {
        // An Error from the coordinator ends the worker in any phase.
        if let Message::Error { message } = msg {
            return self.fail(message);
        }
        match self.phase {
            Phase::AwaitHelloAck => match msg {
                Message::HelloAck { id } => {
                    self.worker = id;
                    self.request_shard()
                }
                other => self.fail(format!("expected HelloAck, got {other:?}")),
            },
            Phase::AwaitAssign => match msg {
                Message::Wait { done: true, .. } => self.finish(WorkerEnd::Done),
                Message::Wait { ms, .. } => {
                    self.phase = Phase::Sleeping;
                    vec![WorkerAction::Sleep {
                        ms: ms.clamp(1, 5_000),
                    }]
                }
                Message::Assign {
                    shard,
                    job,
                    lease_ms,
                    heartbeat_ms,
                } => {
                    self.assignment = Some(Assignment {
                        shard,
                        job: *job,
                        lease_ms,
                        heartbeat_ms,
                        next_off: 0,
                        runs: Vec::with_capacity(shard.len as usize),
                        golden: None,
                        forward: 0,
                        restores: 0,
                        last_contact: now,
                    });
                    self.phase = Phase::Running;
                    self.continue_shard(now)
                }
                other => self.fail(format!("unexpected reply {other:?}")),
            },
            Phase::AwaitHeartbeatAck => match msg {
                Message::HeartbeatAck { current: true } => {
                    let a = self
                        .assignment
                        .as_mut()
                        .expect("heartbeating has an assignment");
                    a.last_contact = now;
                    self.phase = Phase::Running;
                    self.continue_shard(now)
                }
                Message::HeartbeatAck { current: false } => {
                    // The lease expired and was re-dispatched: abandon
                    // the shard instead of submitting duplicate work.
                    self.stats.shards_abandoned += 1;
                    self.assignment = None;
                    self.request_shard()
                }
                other => self.fail(format!("expected HeartbeatAck, got {other:?}")),
            },
            Phase::AwaitSubmitAck => match msg {
                Message::SubmitAck { accepted } => {
                    if accepted {
                        self.stats.shards_completed += 1;
                    } else {
                        self.stats.shards_duplicate += 1;
                    }
                    self.assignment = None;
                    self.request_shard()
                }
                other => self.fail(format!("expected SubmitAck, got {other:?}")),
            },
            _ => self.fail(format!("unsolicited message {msg:?}")),
        }
    }

    /// Decide the next move within the active assignment: chaos,
    /// heartbeat, execute the next sample, or submit the full shard.
    fn continue_shard(&mut self, now: u64) -> Vec<WorkerAction> {
        let a = self
            .assignment
            .as_mut()
            .expect("continue_shard inside an assignment");
        if a.next_off == a.shard.len {
            let sub = SubmitWire {
                worker: self.worker,
                shard: a.shard.id,
                golden: a.golden.expect("a non-empty shard executed a sample"),
                forward: a.forward,
                restores: a.restores,
                runs: std::mem::take(&mut a.runs),
            };
            self.phase = Phase::AwaitSubmitAck;
            return vec![WorkerAction::Send {
                msg: Message::Submit(sub),
            }];
        }
        // Deterministic chaos hooks, checked between samples.
        if self.opts.crash_after_samples == Some(self.stats.samples_run) {
            self.stats.shards_abandoned += 1;
            self.assignment = None;
            self.phase = Phase::Dead;
            return vec![WorkerAction::Crash];
        }
        if self.opts.stall_after_samples == Some(self.stats.samples_run) {
            // Hold the lease silently until it must have expired.
            let ms = 3 * a.lease_ms + 50;
            self.assignment = None;
            self.phase = Phase::Stalling;
            return vec![WorkerAction::Sleep { ms }];
        }
        if now.saturating_sub(a.last_contact) >= a.heartbeat_ms {
            let msg = Message::Heartbeat { shard: a.shard.id };
            self.phase = Phase::AwaitHeartbeatAck;
            return vec![WorkerAction::Send { msg }];
        }
        vec![WorkerAction::Execute {
            pos: a.shard.start + a.next_off,
        }]
    }

    fn request_shard(&mut self) -> Vec<WorkerAction> {
        self.phase = Phase::AwaitAssign;
        vec![WorkerAction::Send {
            msg: Message::RequestShard,
        }]
    }

    fn finish(&mut self, end: WorkerEnd) -> Vec<WorkerAction> {
        self.phase = Phase::Finished;
        self.assignment = None;
        vec![WorkerAction::Finish { end }]
    }

    fn fail(&mut self, message: String) -> Vec<WorkerAction> {
        self.finish(WorkerEnd::Failed(message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: u64) -> nestsim_core::inject::InjectionRecord {
        nestsim_core::inject::InjectionRecord {
            outcome: nestsim_core::Outcome::Vanished,
            bit: k as usize,
            inject_cycle: 1_000 + k,
            cosim_cycles: 40,
            erroneous_output_cycle: None,
            propagation_latency: None,
            corrupted_line_count: 0,
            rollback_distance: None,
        }
    }

    fn start(m: &mut WorkerMachine) {
        let acts = m.step(0, WorkerEvent::Start);
        assert!(
            matches!(
                &acts[..],
                [WorkerAction::Send {
                    msg: Message::Hello { .. }
                }]
            ),
            "{acts:?}"
        );
    }

    #[test]
    fn v1_machine_handles_rejection_cleanly() {
        let mut m = WorkerMachine::with_version(1, WorkerOptions::default());
        start(&mut m);
        let acts = m.step(
            0,
            WorkerEvent::Received {
                msg: Message::Error {
                    message: "protocol version mismatch: peer speaks 1, this build speaks 2"
                        .to_string(),
                },
            },
        );
        match &acts[..] {
            [WorkerAction::Finish {
                end: WorkerEnd::Failed(m),
            }] => assert!(m.contains("protocol version mismatch"), "{m}"),
            other => panic!("expected clean failure, got {other:?}"),
        }
        assert_eq!(m.stats(), WorkerStats::default());
    }

    #[test]
    fn heartbeat_fires_once_cadence_elapsed() {
        let mut m = WorkerMachine::new(WorkerOptions::default());
        start(&mut m);
        m.step(
            0,
            WorkerEvent::Received {
                msg: Message::HelloAck { id: 3 },
            },
        );
        let assign = Message::Assign {
            shard: Shard {
                id: 0,
                start: 0,
                len: 2,
            },
            job: Box::default(),
            lease_ms: 100,
            heartbeat_ms: 20,
        };
        let acts = m.step(0, WorkerEvent::Received { msg: assign });
        assert!(matches!(&acts[..], [WorkerAction::Execute { pos: 0 }]));
        // First sample finishes after the heartbeat cadence: the next
        // move is a heartbeat, not the second sample.
        let run = RunWire {
            sample: 0,
            record: rec(0),
            recorder: nestsim_telemetry::Recorder::null(),
        };
        let g = GoldenRef {
            digest: 1,
            cycles: 2,
        };
        let acts = m.step(
            25,
            WorkerEvent::Executed {
                run: run.clone(),
                golden: g,
                forward: 10,
                restores: 1,
            },
        );
        assert!(
            matches!(
                &acts[..],
                [WorkerAction::Send {
                    msg: Message::Heartbeat { shard: 0 }
                }]
            ),
            "{acts:?}"
        );
        // A current ack resumes execution; a stale one abandons.
        let acts = m.step(
            26,
            WorkerEvent::Received {
                msg: Message::HeartbeatAck { current: true },
            },
        );
        assert!(matches!(&acts[..], [WorkerAction::Execute { pos: 1 }]));
        let acts = m.step(
            30,
            WorkerEvent::Executed {
                run,
                golden: g,
                forward: 20,
                restores: 1,
            },
        );
        match &acts[..] {
            [WorkerAction::Send {
                msg: Message::Submit(sub),
            }] => {
                assert_eq!(sub.shard, 0);
                assert_eq!(sub.runs.len(), 2);
                assert_eq!(sub.golden, g);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
        let acts = m.step(
            31,
            WorkerEvent::Received {
                msg: Message::SubmitAck { accepted: true },
            },
        );
        assert!(matches!(
            &acts[..],
            [WorkerAction::Send {
                msg: Message::RequestShard
            }]
        ));
        assert_eq!(m.stats().shards_completed, 1);
        assert_eq!(m.stats().samples_run, 2);
    }

    #[test]
    fn stale_heartbeat_abandons_shard() {
        let mut m = WorkerMachine::new(WorkerOptions::default());
        start(&mut m);
        m.step(
            0,
            WorkerEvent::Received {
                msg: Message::HelloAck { id: 0 },
            },
        );
        m.step(
            0,
            WorkerEvent::Received {
                msg: Message::Assign {
                    shard: Shard {
                        id: 1,
                        start: 2,
                        len: 2,
                    },
                    job: Box::default(),
                    lease_ms: 100,
                    heartbeat_ms: 20,
                },
            },
        );
        let acts = m.step(
            50,
            WorkerEvent::Executed {
                run: RunWire {
                    sample: 2,
                    record: rec(2),
                    recorder: nestsim_telemetry::Recorder::null(),
                },
                golden: GoldenRef {
                    digest: 1,
                    cycles: 2,
                },
                forward: 1,
                restores: 0,
            },
        );
        assert!(matches!(
            &acts[..],
            [WorkerAction::Send {
                msg: Message::Heartbeat { .. }
            }]
        ));
        let acts = m.step(
            51,
            WorkerEvent::Received {
                msg: Message::HeartbeatAck { current: false },
            },
        );
        assert!(
            matches!(
                &acts[..],
                [WorkerAction::Send {
                    msg: Message::RequestShard
                }]
            ),
            "{acts:?}"
        );
        assert_eq!(m.current_shard(), None, "assignment dropped");
        assert_eq!(m.stats().shards_abandoned, 1);
    }

    #[test]
    fn chaos_crash_fires_before_the_configured_sample() {
        let mut m = WorkerMachine::new(WorkerOptions {
            crash_after_samples: Some(1),
            ..WorkerOptions::default()
        });
        start(&mut m);
        m.step(
            0,
            WorkerEvent::Received {
                msg: Message::HelloAck { id: 0 },
            },
        );
        let acts = m.step(
            0,
            WorkerEvent::Received {
                msg: Message::Assign {
                    shard: Shard {
                        id: 0,
                        start: 0,
                        len: 2,
                    },
                    job: Box::default(),
                    lease_ms: 100,
                    heartbeat_ms: 1_000,
                },
            },
        );
        assert!(matches!(&acts[..], [WorkerAction::Execute { pos: 0 }]));
        let acts = m.step(
            1,
            WorkerEvent::Executed {
                run: RunWire {
                    sample: 0,
                    record: rec(0),
                    recorder: nestsim_telemetry::Recorder::null(),
                },
                golden: GoldenRef {
                    digest: 1,
                    cycles: 2,
                },
                forward: 1,
                restores: 0,
            },
        );
        assert!(matches!(&acts[..], [WorkerAction::Crash]), "{acts:?}");
        assert_eq!(m.stats().samples_run, 1);
        assert_eq!(m.stats().shards_abandoned, 1);
    }
}
