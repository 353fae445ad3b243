//! The sans-I/O campaign-service state machine.
//!
//! Like the cluster's `coord_machine`, this is pure protocol logic:
//! the driver feeds [`SvcEvent`]s (connections, decoded frames,
//! execution results) and applies the returned [`SvcAction`]s (frames
//! to send, connections to close, executions to start). No sockets, no
//! threads, no clock — the machine is *time-free*, which keeps the
//! `nestsim-mck` state space small and makes every unit test here a
//! deterministic replay.
//!
//! Responsibilities: protocol/version checking, admission control with
//! explicit backpressure, DRR fair-share scheduling ([`DrrScheduler`]),
//! content-addressed dedup ([`ResultStore`]), result fan-out streaming,
//! crash-retry, and `svc.*` telemetry.

use crate::sched::DrrScheduler;
use crate::store::{
    CrashOutcome, ExecOutput, JobKey, ResultStore, SubscribeOutcome, Subscriber, UnsubscribeOutcome,
};
use nestsim_cluster::proto::{check_version, JobWire, Message};
use nestsim_telemetry::{names, Recorder, TelemetryConfig};
use std::collections::{BTreeMap, BTreeSet};

/// Records per `Chunk` frame: few enough that clients see big jobs
/// stream, enough that framing overhead stays negligible.
pub const CHUNK_RECORDS: usize = 256;

/// Tunables of the service machine.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Admission bound: queued jobs beyond this are rejected with an
    /// explicit backpressure reply (dedup subscriptions are free).
    pub max_queue_depth: usize,
    /// Concurrent executions the driver can run.
    pub exec_slots: usize,
    /// DRR quantum, in samples per grant per unit of tenant weight.
    pub quantum: u64,
    /// Crashes tolerated per job before it fails terminally.
    pub max_crash_retries: u64,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            max_queue_depth: 64,
            exec_slots: 2,
            quantum: 64,
            max_crash_retries: 2,
        }
    }
}

/// One input to the machine.
#[derive(Debug, Clone)]
pub enum SvcEvent {
    /// A client connection was accepted.
    Connected {
        /// Driver-assigned connection id.
        conn: u64,
    },
    /// A complete frame arrived and decoded on `conn`.
    Received {
        /// Source connection.
        conn: u64,
        /// The decoded message.
        msg: Message,
    },
    /// The connection closed (either side, any reason).
    Closed {
        /// The closed connection.
        conn: u64,
    },
    /// An execution slot finished successfully.
    ExecDone {
        /// Id from the matching [`SvcAction::StartExec`].
        exec: u64,
        /// What the execution produced.
        output: ExecOutput,
    },
    /// An execution slot crashed (worker death, panic, chaos).
    ExecCrashed {
        /// Id from the matching [`SvcAction::StartExec`].
        exec: u64,
        /// Human-readable crash reason.
        reason: String,
    },
}

/// One output of the machine for the driver to apply.
#[derive(Debug, Clone, PartialEq)]
pub enum SvcAction {
    /// Send `msg` on `conn`.
    Send {
        /// Destination connection.
        conn: u64,
        /// The message to encode and frame.
        msg: Message,
    },
    /// Close `conn` after flushing pending sends.
    Close {
        /// The connection to close.
        conn: u64,
    },
    /// Start executing `job` in a free slot, reporting back as `exec`.
    StartExec {
        /// Execution id to echo in [`SvcEvent::ExecDone`]/`ExecCrashed`.
        exec: u64,
        /// The job to run.
        job: JobWire,
    },
}

#[derive(Debug, Default)]
struct ConnState {
    tenant: Option<String>,
    tickets: BTreeSet<u64>,
}

#[derive(Debug)]
struct TicketState {
    conn: u64,
    key: JobKey,
}

/// The service machine. See the module docs for the contract.
#[derive(Debug)]
pub struct SvcMachine {
    cfg: SvcConfig,
    store: ResultStore,
    sched: DrrScheduler<JobKey>,
    conns: BTreeMap<u64, ConnState>,
    tickets: BTreeMap<u64, TicketState>,
    /// In-flight executions and the key each one computes.
    execs: BTreeMap<u64, JobKey>,
    next_ticket: u64,
    next_exec: u64,
    /// The id the next client's `Hello` is acknowledged with: minted,
    /// never reused, so no two clients hold one.
    next_client: u32,
    stats: Recorder,
    sched_rounds_seen: u64,
    /// Mutation hook: when false, results reach only the first
    /// subscriber — the mck mutation gate proves the model checker
    /// notices.
    dedup_fanout: bool,
}

impl SvcMachine {
    /// A fresh machine with the given tunables.
    pub fn new(cfg: SvcConfig) -> Self {
        let quantum = cfg.quantum;
        SvcMachine {
            cfg,
            store: ResultStore::new(),
            sched: DrrScheduler::new(quantum),
            conns: BTreeMap::new(),
            tickets: BTreeMap::new(),
            execs: BTreeMap::new(),
            next_ticket: 1,
            next_exec: 1,
            next_client: 1,
            stats: Recorder::active(&TelemetryConfig { trace_capacity: 16 }),
            sched_rounds_seen: 0,
            dedup_fanout: true,
        }
    }

    /// The service's own `svc.*` telemetry.
    pub fn stats(&self) -> &Recorder {
        &self.stats
    }

    /// Queued jobs awaiting an execution slot.
    pub fn queue_depth(&self) -> usize {
        self.sched.len()
    }

    /// True when nothing is queued or executing.
    pub fn is_idle(&self) -> bool {
        self.sched.is_empty() && self.execs.is_empty()
    }

    /// **Mutation hook** (correctness-gate testing only): deliver each
    /// result to just the first subscriber instead of fanning out.
    pub fn disable_dedup_fanout(&mut self) {
        self.dedup_fanout = false;
    }

    /// Advances the machine by one event.
    pub fn step(&mut self, ev: SvcEvent) -> Vec<SvcAction> {
        match ev {
            SvcEvent::Connected { conn } => {
                self.conns.insert(conn, ConnState::default());
                self.stats.count(names::SVC_CLIENTS_CONNECTED, 1);
                Vec::new()
            }
            SvcEvent::Closed { conn } => {
                let mut acts = Vec::new();
                if let Some(state) = self.conns.remove(&conn) {
                    for ticket in state.tickets {
                        self.drop_ticket(ticket);
                    }
                    acts.extend(self.pump());
                }
                acts
            }
            SvcEvent::Received { conn, msg } => self.on_message(conn, msg),
            SvcEvent::ExecDone { exec, output } => self.on_exec_done(exec, output),
            SvcEvent::ExecCrashed { exec, reason } => self.on_exec_crashed(exec, &reason),
        }
    }

    fn on_message(&mut self, conn: u64, msg: Message) -> Vec<SvcAction> {
        if !self.conns.contains_key(&conn) {
            return Vec::new(); // raced with a close
        }
        match msg {
            Message::Hello { version, tenant } => {
                if let Err(message) = check_version(version) {
                    return self.fatal(conn, message);
                }
                if let Some(state) = self.conns.get_mut(&conn) {
                    state.tenant = Some(tenant);
                }
                let id = self.next_client;
                self.next_client += 1;
                vec![SvcAction::Send {
                    conn,
                    msg: Message::HelloAck { id },
                }]
            }
            Message::SubmitJob { req, priority, job } => self.on_submit(conn, req, priority, job),
            Message::Cancel { ticket } => self.on_cancel(conn, ticket),
            Message::QueryStats => vec![SvcAction::Send {
                conn,
                msg: Message::Stats {
                    recorder: self.stats.clone(),
                },
            }],
            Message::Error { .. } => vec![SvcAction::Close { conn }],
            other => self.fatal(conn, format!("unexpected client frame {other:?}")),
        }
    }

    fn on_submit(&mut self, conn: u64, req: u64, priority: u32, job: JobWire) -> Vec<SvcAction> {
        let Some(tenant) = self.conns.get(&conn).and_then(|c| c.tenant.clone()) else {
            return self.fatal(conn, "submit before hello".to_string());
        };
        self.stats.count(names::SVC_JOBS_SUBMITTED, 1);
        if let Err(reason) = validate_job(&job) {
            return vec![self.reject(conn, req, reason)];
        }
        let key = match job.result_key() {
            Ok(key) => key,
            Err(e) => return vec![self.reject(conn, req, format!("unencodable job: {e}"))],
        };
        let mut acts = Vec::new();
        // Cached cell: stream the result right away, no subscription.
        if self.store.ready(&key).is_some() {
            let ticket = self.mint_ticket();
            self.stats.count(names::SVC_DEDUP_HITS, 1);
            acts.push(SvcAction::Send {
                conn,
                msg: Message::Accepted {
                    req,
                    ticket,
                    dedup: true,
                    queue_depth: self.sched.len() as u64,
                },
            });
            if let Some(out) = self.store.ready(&key).cloned() {
                acts.extend(stream_result(conn, ticket, job.spec.samples, &out));
            }
            return acts;
        }
        // Admission control applies only to *new* cells; joining an
        // existing one consumes no queue capacity.
        let is_new = self.store.subscribers(&key).is_empty() && !self.store.is_running(&key);
        if is_new && self.sched.len() >= self.cfg.max_queue_depth {
            self.stats.count(names::SVC_ADMISSION_REJECTED, 1);
            return vec![self.reject(
                conn,
                req,
                format!(
                    "queue full ({} jobs queued, bound {}): retry after backlog drains",
                    self.sched.len(),
                    self.cfg.max_queue_depth
                ),
            )];
        }
        let ticket = self.mint_ticket();
        let sub = Subscriber { conn, ticket };
        let outcome = self.store.subscribe(&key, &job, &tenant, priority, sub);
        let dedup = match outcome {
            SubscribeOutcome::New => {
                self.sched
                    .enqueue(&tenant, priority, key.clone(), job.spec.samples.max(1));
                self.stats
                    .record_hist(names::H_SVC_QUEUE_DEPTH, self.sched.len() as u64);
                false
            }
            SubscribeOutcome::Joined => {
                self.stats.count(names::SVC_DEDUP_HITS, 1);
                true
            }
            // `ready` returned None above, so Cached cannot happen.
            SubscribeOutcome::Cached => true,
        };
        self.tickets.insert(
            ticket,
            TicketState {
                conn,
                key: key.clone(),
            },
        );
        if let Some(state) = self.conns.get_mut(&conn) {
            state.tickets.insert(ticket);
        }
        acts.push(SvcAction::Send {
            conn,
            msg: Message::Accepted {
                req,
                ticket,
                dedup,
                queue_depth: self.sched.len() as u64,
            },
        });
        acts.push(SvcAction::Send {
            conn,
            msg: Message::Progress {
                ticket,
                running: self.store.is_running(&key),
                done: 0,
                total: job.spec.samples,
            },
        });
        acts.extend(self.pump());
        acts
    }

    fn on_cancel(&mut self, conn: u64, ticket: u64) -> Vec<SvcAction> {
        match self.tickets.get(&ticket) {
            Some(t) if t.conn != conn => {
                return self.fatal(conn, format!("ticket {ticket} belongs to another client"));
            }
            Some(_) => {
                self.drop_ticket(ticket);
                if let Some(state) = self.conns.get_mut(&conn) {
                    state.tickets.remove(&ticket);
                }
                self.stats.count(names::SVC_JOBS_CANCELLED, 1);
            }
            // Unknown tickets are acknowledged too: the job may have
            // completed while the cancel was in flight.
            None => {}
        }
        vec![SvcAction::Send {
            conn,
            msg: Message::Cancelled { ticket },
        }]
    }

    fn on_exec_done(&mut self, exec: u64, output: ExecOutput) -> Vec<SvcAction> {
        let Some(key) = self.execs.remove(&exec) else {
            return Vec::new();
        };
        self.stats.count(names::SVC_JOBS_COMPLETED, 1);
        let total = output.records.len() as u64;
        let mut subs = self.store.complete(&key, output.clone());
        if !self.dedup_fanout {
            subs.truncate(1);
        }
        let mut acts = Vec::new();
        for sub in subs {
            self.tickets.remove(&sub.ticket);
            if let Some(state) = self.conns.get_mut(&sub.conn) {
                state.tickets.remove(&sub.ticket);
                acts.extend(stream_result(sub.conn, sub.ticket, total, &output));
            }
        }
        acts.extend(self.pump());
        acts
    }

    fn on_exec_crashed(&mut self, exec: u64, reason: &str) -> Vec<SvcAction> {
        let Some(key) = self.execs.remove(&exec) else {
            return Vec::new();
        };
        self.stats.count(names::SVC_EXEC_CRASHES, 1);
        let mut acts = Vec::new();
        match self.store.crash(&key, self.cfg.max_crash_retries) {
            Some(CrashOutcome::Requeue {
                tenant,
                weight,
                cost,
            }) => {
                self.sched.enqueue(&tenant, weight, key, cost);
            }
            Some(CrashOutcome::Fail { subs }) => {
                for sub in subs {
                    self.tickets.remove(&sub.ticket);
                    if let Some(state) = self.conns.get_mut(&sub.conn) {
                        state.tickets.remove(&sub.ticket);
                        acts.push(SvcAction::Send {
                            conn: sub.conn,
                            msg: Message::Failed {
                                ticket: sub.ticket,
                                reason: format!(
                                    "execution crashed {} times (last: {reason})",
                                    self.cfg.max_crash_retries + 1
                                ),
                            },
                        });
                    }
                }
            }
            None => {}
        }
        acts.extend(self.pump());
        acts
    }

    /// Fills free execution slots from the scheduler.
    fn pump(&mut self) -> Vec<SvcAction> {
        let mut acts = Vec::new();
        while self.execs.len() < self.cfg.exec_slots {
            let Some(key) = self.sched.dequeue() else {
                break;
            };
            let Some(job) = self.store.start(&key) else {
                continue; // cell vanished (cancelled) after scheduling
            };
            let exec = self.next_exec;
            self.next_exec += 1;
            self.execs.insert(exec, key.clone());
            self.stats.count(names::SVC_EXECS_STARTED, 1);
            for sub in self.store.subscribers(&key) {
                acts.push(SvcAction::Send {
                    conn: sub.conn,
                    msg: Message::Progress {
                        ticket: sub.ticket,
                        running: true,
                        done: 0,
                        total: job.spec.samples,
                    },
                });
            }
            acts.push(SvcAction::StartExec { exec, job });
        }
        let rounds = self.sched.rounds();
        if rounds > self.sched_rounds_seen {
            self.stats
                .count(names::SVC_SCHED_ROUNDS, rounds - self.sched_rounds_seen);
            self.sched_rounds_seen = rounds;
        }
        acts
    }

    fn mint_ticket(&mut self) -> u64 {
        let t = self.next_ticket;
        self.next_ticket += 1;
        t
    }

    fn drop_ticket(&mut self, ticket: u64) {
        if let Some(t) = self.tickets.remove(&ticket) {
            if self.store.unsubscribe(&t.key, ticket) == UnsubscribeOutcome::RemovedQueued {
                self.sched.remove(|k| *k == t.key);
            }
        }
    }

    fn reject(&mut self, conn: u64, req: u64, reason: String) -> SvcAction {
        SvcAction::Send {
            conn,
            msg: Message::Rejected {
                req,
                reason,
                queue_depth: self.sched.len() as u64,
            },
        }
    }

    fn fatal(&mut self, conn: u64, message: String) -> Vec<SvcAction> {
        vec![
            SvcAction::Send {
                conn,
                msg: Message::Error { message },
            },
            SvcAction::Close { conn },
        ]
    }
}

/// Admission-time validation: everything that would make the execution
/// engine panic must be rejected here instead.
fn validate_job(job: &JobWire) -> Result<(), String> {
    let profile = job.profile().map_err(|e| format!("unknown job: {e}"))?;
    if job.adaptive.is_some() {
        return Err(
            "adaptive round jobs are cluster-internal; submit the base campaign instead".into(),
        );
    }
    job.spec.check(profile)
}

/// The action stream delivering a finished job to one subscriber.
fn stream_result(conn: u64, ticket: u64, total: u64, out: &ExecOutput) -> Vec<SvcAction> {
    let mut acts = vec![SvcAction::Send {
        conn,
        msg: Message::Progress {
            ticket,
            running: true,
            done: total,
            total,
        },
    }];
    let mut start = 0usize;
    for chunk in out.records.chunks(CHUNK_RECORDS) {
        acts.push(SvcAction::Send {
            conn,
            msg: Message::Chunk {
                ticket,
                start: start as u64,
                records: chunk.to_vec(),
            },
        });
        start += chunk.len();
    }
    acts.push(SvcAction::Send {
        conn,
        msg: Message::Done {
            ticket,
            golden: out.golden,
            merged: out.merged.clone(),
        },
    });
    acts
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_cluster::proto::PROTOCOL_VERSION;
    use nestsim_core::CampaignSpec;
    use nestsim_hlsim::workload::by_name;
    use nestsim_models::ComponentKind;

    fn test_job(samples: u64, seed: u64) -> JobWire {
        let mut spec = CampaignSpec::quick(ComponentKind::L2c, samples);
        spec.seed = seed;
        JobWire::from_spec(by_name("radi").unwrap(), &spec, None)
    }

    fn output(n: usize) -> ExecOutput {
        ExecOutput {
            golden: nestsim_core::inject::GoldenRef {
                digest: 7,
                cycles: 11,
            },
            records: (0..n)
                .map(|i| nestsim_core::InjectionRecord {
                    outcome: nestsim_core::Outcome::Ona,
                    bit: i,
                    inject_cycle: i as u64,
                    cosim_cycles: 1,
                    erroneous_output_cycle: None,
                    propagation_latency: None,
                    corrupted_line_count: 0,
                    rollback_distance: None,
                })
                .collect(),
            merged: Recorder::null(),
        }
    }

    /// Connects `conn` as `tenant`; returns the id its `Hello` is
    /// acknowledged with.
    fn hello(m: &mut SvcMachine, conn: u64, tenant: &str) -> u32 {
        m.step(SvcEvent::Connected { conn });
        let acts = m.step(SvcEvent::Received {
            conn,
            msg: Message::Hello {
                version: PROTOCOL_VERSION,
                tenant: tenant.into(),
            },
        });
        match acts.as_slice() {
            [SvcAction::Send {
                msg: Message::HelloAck { id },
                ..
            }] => *id,
            other => panic!("expected one HelloAck, got {other:?}"),
        }
    }

    fn submit(m: &mut SvcMachine, conn: u64, req: u64, job: JobWire) -> Vec<SvcAction> {
        m.step(SvcEvent::Received {
            conn,
            msg: Message::SubmitJob {
                req,
                priority: 1,
                job,
            },
        })
    }

    fn sent_to(acts: &[SvcAction], conn: u64) -> Vec<&Message> {
        acts.iter()
            .filter_map(|a| match a {
                SvcAction::Send { conn: c, msg } if *c == conn => Some(msg),
                _ => None,
            })
            .collect()
    }

    fn starts(acts: &[SvcAction]) -> Vec<u64> {
        acts.iter()
            .filter_map(|a| match a {
                SvcAction::StartExec { exec, .. } => Some(*exec),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn client_ids_are_never_handed_out_twice() {
        // Two clients, the first leaves, a third arrives: it must not
        // get the id the second still holds.
        let mut m = SvcMachine::new(SvcConfig::default());
        let first = hello(&mut m, 1, "alice");
        let second = hello(&mut m, 2, "bob");
        m.step(SvcEvent::Closed { conn: 1 });
        let third = hello(&mut m, 3, "carol");
        assert!(
            first != second && second != third && first != third,
            "ids {first}, {second}, {third}"
        );
    }

    #[test]
    fn version_mismatch_is_fatal() {
        let mut m = SvcMachine::new(SvcConfig::default());
        m.step(SvcEvent::Connected { conn: 1 });
        let acts = m.step(SvcEvent::Received {
            conn: 1,
            msg: Message::Hello {
                version: PROTOCOL_VERSION + 1,
                tenant: "x".into(),
            },
        });
        assert!(matches!(
            acts.as_slice(),
            [
                SvcAction::Send {
                    msg: Message::Error { .. },
                    ..
                },
                SvcAction::Close { conn: 1 }
            ]
        ));
    }

    #[test]
    fn overlapping_submits_dedupe_to_one_execution_and_fan_out() {
        let mut m = SvcMachine::new(SvcConfig {
            exec_slots: 1,
            ..SvcConfig::default()
        });
        hello(&mut m, 1, "alice");
        hello(&mut m, 2, "bob");
        let acts1 = submit(&mut m, 1, 100, test_job(8, 42));
        assert_eq!(starts(&acts1).len(), 1, "first submit starts the exec");
        let acts2 = submit(&mut m, 2, 200, test_job(8, 42));
        assert!(
            starts(&acts2).is_empty(),
            "dedup submit must not re-execute"
        );
        match sent_to(&acts2, 2).first() {
            Some(Message::Accepted { dedup, .. }) => assert!(dedup),
            other => panic!("expected Accepted, got {other:?}"),
        }
        assert_eq!(m.stats().counter(names::SVC_DEDUP_HITS), 1);
        assert_eq!(m.stats().counter(names::SVC_EXECS_STARTED), 1);
        let out = output(8);
        let acts = m.step(SvcEvent::ExecDone {
            exec: 1,
            output: out.clone(),
        });
        for conn in [1, 2] {
            let msgs = sent_to(&acts, conn);
            let done = msgs.iter().find_map(|m| match m {
                Message::Done { golden, merged, .. } => Some((golden, merged)),
                _ => None,
            });
            let (golden, merged) = done.unwrap_or_else(|| panic!("conn {conn} got no Done"));
            assert_eq!(*golden, out.golden);
            assert_eq!(*merged, out.merged);
            let streamed: Vec<_> = msgs
                .iter()
                .filter_map(|m| match m {
                    Message::Chunk { records, .. } => Some(records.clone()),
                    _ => None,
                })
                .flatten()
                .collect();
            assert_eq!(streamed, out.records, "conn {conn} records must match");
        }
        assert!(m.is_idle());
    }

    #[test]
    fn cached_cell_replays_without_reexecution() {
        let mut m = SvcMachine::new(SvcConfig {
            exec_slots: 1,
            ..SvcConfig::default()
        });
        hello(&mut m, 1, "alice");
        submit(&mut m, 1, 1, test_job(8, 1));
        m.step(SvcEvent::ExecDone {
            exec: 1,
            output: output(8),
        });
        let acts = submit(&mut m, 1, 2, test_job(8, 1));
        assert!(starts(&acts).is_empty());
        let msgs = sent_to(&acts, 1);
        assert!(matches!(
            msgs.first(),
            Some(Message::Accepted { dedup: true, .. })
        ));
        assert!(msgs.iter().any(|m| matches!(m, Message::Done { .. })));
        assert_eq!(m.stats().counter(names::SVC_EXECS_STARTED), 1);
    }

    #[test]
    fn over_admission_gets_explicit_backpressure() {
        let mut m = SvcMachine::new(SvcConfig {
            max_queue_depth: 1,
            exec_slots: 0, // nothing drains: pure queue behaviour
            ..SvcConfig::default()
        });
        hello(&mut m, 1, "alice");
        let a = submit(&mut m, 1, 1, test_job(8, 1));
        assert!(matches!(
            sent_to(&a, 1).first(),
            Some(Message::Accepted { dedup: false, .. })
        ));
        // Same key again: a dedup join, admitted despite the full queue.
        let b = submit(&mut m, 1, 2, test_job(8, 1));
        assert!(matches!(
            sent_to(&b, 1).first(),
            Some(Message::Accepted { dedup: true, .. })
        ));
        // A new key exceeds the bound: explicit Rejected, not queued.
        let c = submit(&mut m, 1, 3, test_job(8, 2));
        match sent_to(&c, 1).first() {
            Some(Message::Rejected {
                req,
                reason,
                queue_depth,
            }) => {
                assert_eq!(*req, 3);
                assert!(reason.contains("queue full"), "{reason}");
                assert_eq!(*queue_depth, 1);
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert_eq!(m.stats().counter(names::SVC_ADMISSION_REJECTED), 1);
        assert_eq!(m.queue_depth(), 1, "rejected job must not queue");
    }

    #[test]
    fn drr_bounds_light_tenant_wait_at_machine_level() {
        let mut m = SvcMachine::new(SvcConfig {
            exec_slots: 1,
            quantum: 8,
            ..SvcConfig::default()
        });
        hello(&mut m, 1, "heavy");
        hello(&mut m, 2, "light");
        let first = submit(&mut m, 1, 0, test_job(8, 10)); // occupies the slot
        assert_eq!(starts(&first).len(), 1);
        for (req, seed) in [(1u64, 11u64), (2, 12), (3, 13)] {
            submit(&mut m, 1, req, test_job(8, seed));
        }
        submit(&mut m, 2, 9, test_job(8, 99));
        // Drain executions; the light tenant's job must start within
        // two completions of its submission, not after heavy's backlog.
        let mut started_seeds = Vec::new();
        for exec in 1..=5u64 {
            let acts = m.step(SvcEvent::ExecDone {
                exec,
                output: output(8),
            });
            for a in &acts {
                if let SvcAction::StartExec { job, .. } = a {
                    started_seeds.push(job.spec.seed);
                }
            }
        }
        let light_pos = started_seeds.iter().position(|&s| s == 99);
        assert!(
            light_pos.is_some_and(|p| p <= 1),
            "light tenant starved: start order {started_seeds:?}"
        );
        assert!(m.is_idle());
    }

    #[test]
    fn cancel_of_sole_queued_job_prevents_execution() {
        let mut m = SvcMachine::new(SvcConfig {
            exec_slots: 1,
            ..SvcConfig::default()
        });
        hello(&mut m, 1, "alice");
        submit(&mut m, 1, 1, test_job(8, 1)); // running
        let acts = submit(&mut m, 1, 2, test_job(8, 2)); // queued
        let ticket = match sent_to(&acts, 1).first() {
            Some(Message::Accepted { ticket, .. }) => *ticket,
            other => panic!("expected Accepted, got {other:?}"),
        };
        let acts = m.step(SvcEvent::Received {
            conn: 1,
            msg: Message::Cancel { ticket },
        });
        assert!(matches!(
            sent_to(&acts, 1).as_slice(),
            [Message::Cancelled { .. }]
        ));
        assert_eq!(m.stats().counter(names::SVC_JOBS_CANCELLED), 1);
        let acts = m.step(SvcEvent::ExecDone {
            exec: 1,
            output: output(8),
        });
        assert!(starts(&acts).is_empty(), "cancelled job must never execute");
        assert!(m.is_idle());
    }

    #[test]
    fn crash_requeues_then_fails_terminally() {
        let mut m = SvcMachine::new(SvcConfig {
            exec_slots: 1,
            max_crash_retries: 1,
            ..SvcConfig::default()
        });
        hello(&mut m, 1, "alice");
        submit(&mut m, 1, 1, test_job(8, 1));
        let acts = m.step(SvcEvent::ExecCrashed {
            exec: 1,
            reason: "chaos".into(),
        });
        assert_eq!(starts(&acts), vec![2], "crash must requeue and restart");
        let acts = m.step(SvcEvent::ExecCrashed {
            exec: 2,
            reason: "chaos".into(),
        });
        match sent_to(&acts, 1).first() {
            Some(Message::Failed { reason, .. }) => {
                assert!(reason.contains("crashed 2 times"), "{reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(m.stats().counter(names::SVC_EXEC_CRASHES), 2);
        assert!(m.is_idle());
    }

    #[test]
    fn disconnect_drops_sole_queued_jobs_but_running_survives() {
        let mut m = SvcMachine::new(SvcConfig {
            exec_slots: 1,
            ..SvcConfig::default()
        });
        hello(&mut m, 1, "alice");
        submit(&mut m, 1, 1, test_job(8, 1)); // running
        submit(&mut m, 1, 2, test_job(8, 2)); // queued
        m.step(SvcEvent::Closed { conn: 1 });
        assert_eq!(m.queue_depth(), 0, "queued job dropped with its client");
        // The running exec completes into the cache with nobody waiting.
        let acts = m.step(SvcEvent::ExecDone {
            exec: 1,
            output: output(8),
        });
        assert!(sent_to(&acts, 1).is_empty());
        assert!(m.is_idle());
    }

    #[test]
    fn invalid_jobs_are_rejected_not_executed() {
        let mut m = SvcMachine::new(SvcConfig::default());
        hello(&mut m, 1, "alice");
        let mut bad = test_job(8, 1);
        bad.benchmark = "no-such-benchmark".into();
        let acts = submit(&mut m, 1, 1, bad);
        assert!(matches!(
            sent_to(&acts, 1).as_slice(),
            [Message::Rejected { .. }]
        ));
        let mut bad = test_job(8, 1);
        bad.spec.check_interval = 0;
        let acts = submit(&mut m, 1, 2, bad);
        assert!(matches!(
            sent_to(&acts, 1).as_slice(),
            [Message::Rejected { .. }]
        ));
        assert!(m.is_idle());
    }

    #[test]
    fn mutation_hook_starves_second_subscriber() {
        let mut m = SvcMachine::new(SvcConfig {
            exec_slots: 1,
            ..SvcConfig::default()
        });
        m.disable_dedup_fanout();
        hello(&mut m, 1, "alice");
        hello(&mut m, 2, "bob");
        submit(&mut m, 1, 1, test_job(8, 1));
        submit(&mut m, 2, 2, test_job(8, 1));
        let acts = m.step(SvcEvent::ExecDone {
            exec: 1,
            output: output(8),
        });
        assert!(!sent_to(&acts, 1).is_empty(), "first subscriber served");
        assert!(
            sent_to(&acts, 2).is_empty(),
            "mutation must starve the second subscriber"
        );
    }
}
