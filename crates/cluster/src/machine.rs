//! The one campaign server machine. [`ServiceMachine`] is the whole
//! server protocol as a sans-I/O machine: frames, closes, ticks and
//! commands in; frames and closes out; no sockets, threads or clock of
//! its own, so `crates/mck` steps this very type. Like dslab's
//! `SimulationState` it is the one owner of the connections, the work
//! queue and the counters.
//!
//! Every connection opens with `Hello` and gets an id from one counter;
//! its frames then say what it is. A **client** submits jobs — a whole
//! fixed-count cell or one round of an adaptive one: admitted against a
//! queue bound, deduplicated in the [`ResultStore`], ordered across
//! tenants by the [`DrrScheduler`], streamed back in `Chunk`s. A
//! **worker** asks for shards: leased from the [`Round`] out, parked
//! while nothing is leasable, its completions cross-checked against the
//! round's golden reference and accepted first-writer-wins.
//!
//! A cell goes out as leases while a worker is connected, else runs in
//! process on an exec slot, reported back as [`Command::Exec`]. A
//! machine with no execution pool has no exec slots: its cells wait for
//! a worker, which is how a cluster campaign ([`crate::coordinator`])
//! serves its rounds. The loop's millisecond clock serves only lease
//! deadlines and parked retries.

use std::collections::BTreeMap;
use std::sync::mpsc;

use nestsim_core::adaptive::stratum_bits;
use nestsim_core::inject::{recorder_for, GoldenRef};
use nestsim_telemetry::{names, Recorder};

use crate::lease::{Completion, Grant, LeaseConfig, LeaseTable};
use crate::proto::{check_version, JobWire, Message, RunWire, SubmitWire};
use crate::sched::DrrScheduler;
use crate::server::{decode_frame, send_frame, Action, Event};
use crate::shard::{auto_shard_size, plan_shards, Shard};
use crate::store::{
    CrashOutcome, ExecOutput, JobKey, ResultStore, SubscribeOutcome, Subscriber, UnsubscribeOutcome,
};

/// Records per `Chunk` frame: few enough that clients see big jobs
/// stream, enough that framing overhead stays negligible.
pub const CHUNK_RECORDS: usize = 256;

/// The most samples one job may ask for: drawing a cell's samples
/// reserves them up front, and a reservation the allocator cannot make
/// aborts the whole service.
const MAX_JOB_SAMPLES: u64 = 1 << 20;

/// Tunables of the service side of the machine.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Admission bound: queued jobs beyond this are rejected with an
    /// explicit backpressure reply (dedup subscriptions are free).
    pub max_queue_depth: usize,
    /// Concurrent in-process executions the driver can run (none
    /// without an execution pool).
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

/// What reaches the machine from outside the loop.
pub enum Command {
    /// An in-process execution finished (`Ok`) or crashed (`Err`).
    Exec {
        /// The id the machine handed the driver with the job.
        exec: u64,
        /// What the execution produced, or why it crashed.
        result: Result<ExecOutput, String>,
    },
    /// Stop accepting, dismiss every worker with `done`, hang up on
    /// every client, and return once the workers left.
    Shutdown,
    /// Return now, dropping every connection.
    Stop,
}

/// One connection. Its role follows from what it sends after `Hello`.
#[derive(Debug, Default)]
struct Conn {
    /// `Hello`'s tenant; `None` until the handshake.
    tenant: Option<String>,
    /// The id `HelloAck` carried: the lease table's name for a worker.
    id: u32,
    /// It asked for a shard.
    worker: bool,
    /// Owed the reply to a `RequestShard`, retried at this time.
    parked: Option<u64>,
    /// The round its last `Assign` came from.
    round: u64,
}

/// A cell out on leases: its job's shards.
struct Round {
    /// Names the round in its workers' connections.
    serial: u64,
    job: JobWire,
    shards: Vec<Shard>,
    leases: LeaseTable,
    /// Accepted runs per shard.
    results: Vec<Vec<RunWire>>,
    golden: Option<GoldenRef>,
    /// The cell it computes.
    cell: JobKey,
}

/// The campaign server machine. See the module docs for the contract.
pub struct ServiceMachine {
    cfg: SvcConfig,
    lease: LeaseConfig,
    conns: BTreeMap<u64, Conn>,
    store: ResultStore,
    sched: DrrScheduler<JobKey>,
    /// Open tickets and the cell each one waits for.
    tickets: BTreeMap<u64, (u64, JobKey)>,
    /// In-flight in-process executions and the cell each one computes.
    execs: BTreeMap<u64, JobKey>,
    /// Where in-process executions go; `None` when nothing runs them.
    tasks: Option<mpsc::Sender<(u64, JobWire)>>,
    /// The cell out on leases, one at a time.
    round: Option<Round>,
    stats: Recorder,
    /// Mints every id the machine hands out: connections, tickets,
    /// executions and rounds.
    next: u64,
    sched_rounds_seen: u64,
    shutdown: bool,
    /// Mutation hook: results reach only a cell's first subscriber.
    dedup_fanout: bool,
    /// Mutation hook: duplicate shard completions are merged.
    accept_duplicates: bool,
}

impl ServiceMachine {
    /// A machine with no work: `cfg` for client jobs, `lease` for shard
    /// leases, counting into `stats` ([`Recorder::null`] counts
    /// nothing), handing in-process executions to `tasks` — with none,
    /// it has no exec slots.
    pub fn new(
        cfg: SvcConfig,
        lease: LeaseConfig,
        stats: Recorder,
        tasks: Option<mpsc::Sender<(u64, JobWire)>>,
    ) -> Self {
        let exec_slots = tasks.as_ref().map_or(0, |_| cfg.exec_slots);
        ServiceMachine {
            sched: DrrScheduler::new(cfg.quantum),
            cfg: SvcConfig { exec_slots, ..cfg },
            lease,
            conns: BTreeMap::new(),
            store: ResultStore::new(),
            tickets: BTreeMap::new(),
            execs: BTreeMap::new(),
            tasks,
            round: None,
            stats,
            next: 1,
            sched_rounds_seen: 0,
            shutdown: false,
            dedup_fanout: true,
            accept_duplicates: false,
        }
    }

    /// The machine's counters: `svc.*` for clients, `cluster.*` for
    /// leases and frames.
    pub fn stats(&self) -> &Recorder {
        &self.stats
    }

    /// Hands the counters back once the loop returned.
    pub fn into_stats(self) -> Recorder {
        self.stats
    }

    /// Queued jobs awaiting execution.
    pub fn queue_depth(&self) -> usize {
        self.sched.len()
    }

    /// True when nothing is queued, executing or leased.
    pub fn is_idle(&self) -> bool {
        self.sched.is_empty() && self.execs.is_empty() && self.round.is_none()
    }

    /// **Mutation hook** (model-checker gate only): deliver each result
    /// to just the first subscriber instead of fanning out.
    #[doc(hidden)]
    pub fn disable_dedup_fanout(&mut self) {
        self.dedup_fanout = false;
    }

    /// **Mutation hook** (model-checker gate only): merge duplicate
    /// shard completions as if they were first, breaking exactly-once.
    #[doc(hidden)]
    pub fn disable_first_writer_wins(&mut self) {
        self.accept_duplicates = true;
    }

    /// Frames `msg` to `conn`; one that does not encode costs the peer
    /// its connection.
    fn send(&mut self, now: u64, conn: u64, msg: &Message, out: &mut Vec<Action>) {
        match send_frame(conn, msg, out) {
            Some(bytes) => {
                self.stats.count(names::CLUSTER_FRAMES_SENT, 1);
                self.stats.count(names::CLUSTER_BYTES_SENT, bytes as u64);
            }
            None => self.drop_conn(now, conn, false, out),
        }
    }

    /// Replies with an `Error` naming the cause and hangs up.
    fn fatal(&mut self, now: u64, conn: u64, message: String, out: &mut Vec<Action>) {
        self.send(now, conn, &Message::Error { message }, out);
        self.close(now, conn, out);
    }

    /// Hangs up on `conn` from the machine's side.
    fn close(&mut self, now: u64, conn: u64, out: &mut Vec<Action>) {
        if self.conns.contains_key(&conn) {
            out.push(Action::Close { conn });
            self.drop_conn(now, conn, false, out);
        }
    }

    /// Forgets `conn`: a worker's leases go back to the pool, a client's
    /// tickets are dropped. The loop reports no close the machine asked
    /// for, so every close passes through here exactly once.
    fn drop_conn(&mut self, now: u64, conn: u64, clean: bool, out: &mut Vec<Action>) {
        let Some(c) = self.conns.remove(&conn) else {
            return; // closed already
        };
        let tickets = self.tickets.iter().filter(|(_, (owner, _))| *owner == conn);
        for ticket in tickets.map(|(&t, _)| t).collect::<Vec<_>>() {
            self.drop_ticket(ticket);
        }
        if c.worker {
            let released = match self.round.as_mut() {
                Some(round) => round.leases.release_worker(c.id, now),
                None => 0,
            };
            self.stats.count(names::CLUSTER_LEASES_RELEASED, released);
            // A clean goodbye that abandons leased work is still a loss.
            if !clean || released > 0 {
                self.stats.count(names::CLUSTER_WORKERS_DISCONNECTED, 1);
            }
            // With no worker left, a leased cell runs in process, or
            // waits for the next worker if there is no process to run in.
            if self.cfg.exec_slots > 0 && !self.conns.values().any(|c| c.worker) {
                if let Some(round) = self.round.take() {
                    self.start_exec(now, round.cell, round.job, out);
                }
            }
            if released > 0 {
                self.serve_parked(now, out);
            }
        }
        self.pump(now, out);
    }

    fn on_message(&mut self, now: u64, conn: u64, msg: Message, out: &mut Vec<Action>) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return; // raced with a close
        };
        match msg {
            Message::Hello { version, tenant } if c.tenant.is_none() => {
                match check_version(version) {
                    Ok(()) => {
                        c.tenant = Some(tenant);
                        c.id = self.next as u32;
                        self.next += 1;
                        let id = c.id;
                        self.send(now, conn, &Message::HelloAck { id }, out);
                    }
                    Err(message) => self.fatal(now, conn, message, out),
                }
            }
            // Nothing but `Hello` opens a connection, and a parked worker
            // owes silence until it gets its reply.
            msg if c.tenant.is_none() || c.parked.is_some() => {
                self.fatal(now, conn, format!("unexpected frame {msg:?}"), out)
            }
            Message::SubmitJob { req, priority, job } => {
                self.on_submit(now, conn, req, priority, job, out)
            }
            Message::Cancel { ticket } => self.on_cancel(now, conn, ticket, out),
            Message::QueryStats => {
                let recorder = self.stats.clone();
                self.send(now, conn, &Message::Stats { recorder }, out);
            }
            Message::RequestShard => {
                if !std::mem::replace(&mut c.worker, true) {
                    self.stats.count(names::CLUSTER_WORKERS_CONNECTED, 1);
                    // A cell queued for want of a worker goes out now.
                    self.pump(now, out);
                }
                self.try_grant(now, conn, out);
            }
            Message::Heartbeat { shard } => {
                self.stats.count(names::CLUSTER_HEARTBEATS, 1);
                let (id, assigned) = (c.id, c.round);
                let current = match self.round.as_mut() {
                    Some(round) if round.serial == assigned => {
                        round.leases.heartbeat(id, shard, now)
                    }
                    _ => false,
                };
                self.send(now, conn, &Message::HeartbeatAck { current }, out);
            }
            Message::Submit(sub) => self.on_shard(now, conn, sub, out),
            // The peer reported an error: hang up without a reply.
            Message::Error { .. } => self.close(now, conn, out),
            other => self.fatal(now, conn, format!("unexpected frame {other:?}"), out),
        }
    }

    // ---- workers ----------------------------------------------------

    /// One lease attempt for a `RequestShard` or a parked retry: replies
    /// `Assign` or `done`, or parks the worker.
    fn try_grant(&mut self, now: u64, conn: u64, out: &mut Vec<Action>) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        c.parked = None;
        if self.shutdown {
            let done = Message::Wait { ms: 0, done: true };
            return self.send(now, conn, &done, out);
        }
        let Some(round) = self.round.as_mut() else {
            // No work: held until some arrives.
            c.parked = Some(now + self.lease.heartbeat_ms);
            return;
        };
        let acq = round.leases.acquire(c.id, now);
        if acq.expired > 0 {
            (self.stats).count(names::CLUSTER_LEASES_EXPIRED, acq.expired);
        }
        match acq.grant {
            Grant::Shard { id, redispatch } => {
                self.stats.count(names::CLUSTER_LEASES_GRANTED, 1);
                if redispatch {
                    self.stats.count(names::CLUSTER_REDISPATCHES, 1);
                }
                c.round = round.serial;
                let assign = Message::Assign {
                    shard: round.shards[id as usize],
                    job: Box::new(round.job.clone()),
                    lease_ms: self.lease.lease_ms,
                    heartbeat_ms: self.lease.heartbeat_ms,
                };
                self.send(now, conn, &assign, out);
            }
            Grant::Wait { ms } => {
                self.stats.count(names::CLUSTER_BACKOFF_WAITS, 1);
                c.parked = Some(now + ms);
            }
            // The last shard is in; the round settles on its way out.
            Grant::Done => c.parked = Some(now + self.lease.heartbeat_ms),
        }
    }

    /// Retries every parked worker, in connection order.
    fn serve_parked(&mut self, now: u64, out: &mut Vec<Action>) {
        let parked: Vec<u64> = (self.conns.iter())
            .filter(|(_, c)| c.parked.is_some())
            .map(|(&conn, _)| conn)
            .collect();
        for conn in parked {
            self.try_grant(now, conn, out);
        }
    }

    /// A worker's shard completion: golden cross-check, then first
    /// writer wins.
    fn on_shard(&mut self, now: u64, conn: u64, sub: SubmitWire, out: &mut Vec<Action>) {
        let assigned = self.conns.get(&conn).map_or(0, |c| c.round);
        let accepted = match self.round.as_mut() {
            // A completion for a round that already settled.
            Some(round) if round.serial == assigned => round,
            _ => return self.ack(now, conn, false, out),
        };
        let round = accepted;
        match round.golden {
            None => round.golden = Some(sub.golden),
            Some(g) if g != sub.golden => {
                let why = format!(
                    "golden reference diverged: the round has digest {:#x}/{} cycles, worker \
                     {} submitted {:#x}/{} — the processes disagree on the simulation itself",
                    g.digest, g.cycles, sub.worker, sub.golden.digest, sub.golden.cycles,
                );
                return self.fail_round(now, conn, why, out);
            }
            Some(_) => {}
        }
        let shard = sub.shard as usize;
        match round.leases.complete(sub.shard, now) {
            Completion::Accepted { latency_ms } => {
                let expected = round.shards.get(shard).map_or(0, |s| s.len as usize);
                if sub.runs.len() != expected {
                    let got = sub.runs.len();
                    let why = format!("shard {shard} submitted {got} runs, expected {expected}");
                    return self.fail_round(now, conn, why, out);
                }
                self.stats.count(names::CLUSTER_SHARDS_COMPLETED, 1);
                self.stats.count(names::FORWARD_CYCLES, sub.forward);
                self.stats.count(names::LADDER_RESTORES, sub.restores);
                self.stats
                    .record_hist(names::H_CLUSTER_SHARD_MS, latency_ms);
                self.stats
                    .record_hist(names::H_CLUSTER_SHARD_SAMPLES, expected as u64);
                round.results[shard] = sub.runs;
                let done = round.leases.all_done();
                self.ack(now, conn, true, out);
                if done {
                    self.settle_round(now, out);
                }
            }
            Completion::Duplicate if self.accept_duplicates => {
                // MUTATION HOOK: the double count the model checker
                // must catch.
                self.stats.count(names::CLUSTER_SHARDS_COMPLETED, 1);
                if let Some(slot) = round.results.get_mut(shard) {
                    slot.extend(sub.runs);
                }
                self.ack(now, conn, true, out);
            }
            Completion::Duplicate => {
                self.stats.count(names::CLUSTER_SHARDS_DUPLICATE, 1);
                self.ack(now, conn, false, out);
            }
        }
    }

    fn ack(&mut self, now: u64, conn: u64, accepted: bool, out: &mut Vec<Action>) {
        self.send(now, conn, &Message::SubmitAck { accepted }, out);
    }

    /// The leased round's last shard is in: its cell completes, and the
    /// next cell goes out.
    fn settle_round(&mut self, now: u64, out: &mut Vec<Action>) {
        let round = self.round.take().expect("a round settles");
        let output = (round.golden).and_then(|g| assemble(&round.job, g, round.results));
        let why = "the leased shards did not cover the cell";
        match output {
            Some(output) => self.complete(now, round.cell, output, out),
            None => self.crashed(now, round.cell, why, out),
        }
        self.serve_parked(now, out);
        self.pump(now, out);
    }

    /// The leased round cannot complete: `conn` submitted against the
    /// simulation itself, which counts as a crash of its cell.
    fn fail_round(&mut self, now: u64, conn: u64, why: String, out: &mut Vec<Action>) {
        let round = self.round.take().expect("the leased round fails");
        self.close(now, conn, out);
        self.crashed(now, round.cell, &why, out);
        self.serve_parked(now, out);
        self.pump(now, out);
    }

    // ---- clients ----------------------------------------------------

    fn on_submit(
        &mut self,
        now: u64,
        conn: u64,
        req: u64,
        priority: u32,
        job: JobWire,
        out: &mut Vec<Action>,
    ) {
        let tenant = self.conns[&conn].tenant.clone().unwrap_or_default();
        self.stats.count(names::SVC_JOBS_SUBMITTED, 1);
        let key =
            match validate_job(&job).and_then(|()| job.result_key().map_err(|e| e.to_string())) {
                Ok(key) => key,
                Err(reason) => return self.reject(now, conn, req, reason, out),
            };
        if job.spec.samples == 0 && self.tasks.is_none() {
            let reason = "a job of zero samples has no shard to lease, and this server has no \
                          execution pool to run it"
                .to_string();
            return self.reject(now, conn, req, reason, out);
        }
        let queue_depth = self.sched.len() as u64;
        // Cached cell: stream the result right away, no subscription.
        if let Some(output) = self.store.ready(&key).cloned() {
            let ticket = self.mint();
            self.stats.count(names::SVC_DEDUP_HITS, 1);
            let accepted = Message::Accepted {
                req,
                ticket,
                dedup: true,
                queue_depth,
            };
            self.send(now, conn, &accepted, out);
            return self.stream(now, conn, ticket, &output, out);
        }
        // Admission control applies only to *new* cells; joining an
        // existing one consumes no queue capacity.
        let is_new = self.store.subscribers(&key).is_empty() && !self.store.is_running(&key);
        if is_new && self.sched.len() >= self.cfg.max_queue_depth {
            self.stats.count(names::SVC_ADMISSION_REJECTED, 1);
            let (queued, bound) = (self.sched.len(), self.cfg.max_queue_depth);
            let reason = format!(
                "queue full ({queued} jobs queued, bound {bound}): retry after backlog drains"
            );
            return self.reject(now, conn, req, reason, out);
        }
        let ticket = self.mint();
        let sub = Subscriber { conn, ticket };
        let dedup = match self.store.subscribe(&key, &job, &tenant, priority, sub) {
            SubscribeOutcome::New => {
                let cost = job.spec.samples.max(1);
                self.sched.enqueue(&tenant, priority, key.clone(), cost);
                (self.stats).record_hist(names::H_SVC_QUEUE_DEPTH, self.sched.len() as u64);
                false
            }
            SubscribeOutcome::Joined => {
                self.stats.count(names::SVC_DEDUP_HITS, 1);
                true
            }
            // `ready` returned None above, so Cached cannot happen.
            SubscribeOutcome::Cached => true,
        };
        self.tickets.insert(ticket, (conn, key.clone()));
        let queue_depth = self.sched.len() as u64;
        let accepted = Message::Accepted {
            req,
            ticket,
            dedup,
            queue_depth,
        };
        self.send(now, conn, &accepted, out);
        self.pump(now, out);
    }

    fn on_cancel(&mut self, now: u64, conn: u64, ticket: u64, out: &mut Vec<Action>) {
        match self.tickets.get(&ticket) {
            Some(&(owner, _)) if owner != conn => {
                let why = format!("ticket {ticket} belongs to another client");
                return self.fatal(now, conn, why, out);
            }
            Some(_) => {
                self.drop_ticket(ticket);
                self.stats.count(names::SVC_JOBS_CANCELLED, 1);
            }
            // Unknown tickets are acknowledged too: the job may have
            // completed while the cancel was in flight.
            None => {}
        }
        self.send(now, conn, &Message::Cancelled { ticket }, out);
    }

    /// Starts queued cells while there is room: on leases if a worker
    /// is connected (one leased cell at a time), else on exec slots. A
    /// cell of no samples has no shard to lease, so it always goes to
    /// the pool (a machine without one rejects it on admission).
    fn pump(&mut self, now: u64, out: &mut Vec<Action>) {
        loop {
            let workers = self.conns.values().filter(|c| c.worker).count();
            let full = match workers {
                0 => self.execs.len() >= self.cfg.exec_slots,
                _ => self.round.is_some(),
            };
            if full {
                break;
            }
            let Some(key) = self.sched.dequeue() else {
                break;
            };
            let Some(job) = self.store.start(&key) else {
                continue; // cell vanished (cancelled) after scheduling
            };
            self.stats.count(names::SVC_EXECS_STARTED, 1);
            if workers == 0 || job.spec.samples == 0 {
                self.start_exec(now, key, job, out);
            } else {
                let samples = job.spec.samples;
                let shards = plan_shards(samples, auto_shard_size(samples, workers));
                self.stats.count(names::CLUSTER_SHARDS, shards.len() as u64);
                self.round = Some(Round {
                    serial: self.mint(),
                    results: shards.iter().map(|_| Vec::new()).collect(),
                    leases: LeaseTable::new(shards.len(), self.lease),
                    job,
                    shards,
                    golden: None,
                    cell: key,
                });
                self.serve_parked(now, out);
            }
        }
        let rounds = self.sched.rounds();
        if rounds > self.sched_rounds_seen {
            let new = rounds - self.sched_rounds_seen;
            self.stats.count(names::SVC_SCHED_ROUNDS, new);
            self.sched_rounds_seen = rounds;
        }
    }

    /// Hands `job` to the driver's execution pool.
    fn start_exec(&mut self, now: u64, key: JobKey, job: JobWire, out: &mut Vec<Action>) {
        let exec = self.mint();
        self.execs.insert(exec, key);
        let sent = self
            .tasks
            .as_ref()
            .is_some_and(|t| t.send((exec, job)).is_ok());
        if !sent {
            // Books stay balanced: a pool that hung up is a crash.
            self.on_exec(
                now,
                exec,
                Err("execution pool unavailable".to_string()),
                out,
            );
        }
    }

    fn on_exec(
        &mut self,
        now: u64,
        exec: u64,
        result: Result<ExecOutput, String>,
        out: &mut Vec<Action>,
    ) {
        let Some(key) = self.execs.remove(&exec) else {
            return;
        };
        match result {
            Ok(output) => self.complete(now, key, output, out),
            Err(reason) => self.crashed(now, key, &reason, out),
        }
        self.pump(now, out);
    }

    /// Caches a cell's output and streams it to its subscribers.
    fn complete(&mut self, now: u64, key: JobKey, output: ExecOutput, out: &mut Vec<Action>) {
        self.stats.count(names::SVC_JOBS_COMPLETED, 1);
        let mut subs = self.store.complete(&key, output.clone());
        if !self.dedup_fanout {
            subs.truncate(1);
        }
        for sub in subs {
            if self.tickets.remove(&sub.ticket).is_some() {
                self.stream(now, sub.conn, sub.ticket, &output, out);
            }
        }
    }

    /// A cell's execution crashed: retry it, or fail its subscribers.
    fn crashed(&mut self, now: u64, key: JobKey, reason: &str, out: &mut Vec<Action>) {
        self.stats.count(names::SVC_EXEC_CRASHES, 1);
        match self.store.crash(&key, self.cfg.max_crash_retries) {
            Some(CrashOutcome::Requeue {
                tenant,
                weight,
                cost,
            }) => self.sched.enqueue(&tenant, weight, key, cost),
            Some(CrashOutcome::Fail { subs }) => {
                let times = self.cfg.max_crash_retries + 1;
                let reason = format!("execution crashed {times} times (last: {reason})");
                for sub in subs {
                    if self.tickets.remove(&sub.ticket).is_some() {
                        let (ticket, reason) = (sub.ticket, reason.clone());
                        self.send(now, sub.conn, &Message::Failed { ticket, reason }, out);
                    }
                }
            }
            None => {}
        }
    }

    /// Delivers a finished cell to one subscriber.
    fn stream(
        &mut self,
        now: u64,
        conn: u64,
        ticket: u64,
        cell: &ExecOutput,
        out: &mut Vec<Action>,
    ) {
        for (i, chunk) in cell.records.chunks(CHUNK_RECORDS).enumerate() {
            let chunk = Message::Chunk {
                ticket,
                start: (i * CHUNK_RECORDS) as u64,
                records: chunk.to_vec(),
            };
            self.send(now, conn, &chunk, out);
        }
        let done = Message::Done {
            ticket,
            golden: cell.golden,
            merged: cell.merged.clone(),
            engine: cell.engine.clone(),
        };
        self.send(now, conn, &done, out);
    }

    fn mint(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }

    fn drop_ticket(&mut self, ticket: u64) {
        if let Some((_, key)) = self.tickets.remove(&ticket) {
            if self.store.unsubscribe(&key, ticket) == UnsubscribeOutcome::RemovedQueued {
                self.sched.remove(|k| *k == key);
            }
        }
    }

    fn reject(&mut self, now: u64, conn: u64, req: u64, reason: String, out: &mut Vec<Action>) {
        let queue_depth = self.sched.len() as u64;
        let rejected = Message::Rejected {
            req,
            reason,
            queue_depth,
        };
        self.send(now, conn, &rejected, out);
    }

    fn on_command(&mut self, now: u64, cmd: Command, out: &mut Vec<Action>) {
        match cmd {
            Command::Exec { exec, result } => self.on_exec(now, exec, result, out),
            Command::Shutdown => {
                self.shutdown = true;
                out.push(Action::Drain);
                self.serve_parked(now, out);
                let clients: Vec<u64> = (self.conns.iter())
                    .filter(|(_, c)| !c.worker)
                    .map(|(&conn, _)| conn)
                    .collect();
                for conn in clients {
                    self.close(now, conn, out);
                }
            }
            Command::Stop => out.push(Action::Exit),
        }
    }

    /// Advances the machine by one event at `now` (milliseconds on the
    /// loop's clock), appending the actions to perform, in order.
    pub fn step(&mut self, now: u64, event: Event, out: &mut Vec<Action>) {
        match event {
            Event::Connected { conn } => {
                self.conns.insert(conn, Conn::default());
                self.stats.count(names::SVC_CLIENTS_CONNECTED, 1);
            }
            Event::Frame { conn, payload } => {
                let msg = decode_frame(conn, &payload, out);
                self.stats.count(names::CLUSTER_FRAMES_RECEIVED, 1);
                (self.stats).count(names::CLUSTER_BYTES_RECEIVED, payload.len() as u64);
                match msg {
                    Some(msg) => {
                        if matches!(msg, Message::Submit(_)) {
                            let bytes = payload.len() as u64;
                            self.stats.record_hist(names::H_CLUSTER_SUBMIT_BYTES, bytes);
                        }
                        self.on_message(now, conn, msg, out);
                    }
                    None => self.drop_conn(now, conn, false, out),
                }
            }
            Event::Closed { conn, clean } => self.drop_conn(now, conn, clean, out),
            Event::Tick => self.serve_parked(now, out),
            Event::Command(cmd) => self.on_command(now, cmd, out),
        }
    }

    /// When the machine next wants an [`Event::Tick`], if ever: parked
    /// workers retry only while there is leased work.
    pub fn next_wake(&self) -> Option<u64> {
        self.round.as_ref()?;
        self.conns.values().filter_map(|c| c.parked).min()
    }
}

/// Admission-time validation: everything that would make the execution
/// engine panic, or abort the service, must be rejected here instead.
fn validate_job(job: &JobWire) -> Result<(), String> {
    let profile = job.profile().map_err(|e| format!("unknown job: {e}"))?;
    let samples = job.spec.samples;
    if samples > MAX_JOB_SAMPLES {
        return Err(format!(
            "{samples} samples exceed the bound of {MAX_JOB_SAMPLES} per job"
        ));
    }
    if let Some(round) = &job.adaptive {
        let bits = stratum_bits(job.spec.component);
        let mut total = 0u64;
        for ((start, alloc), bits) in round.start.iter().zip(round.alloc).zip(&bits) {
            if start.checked_add(alloc).is_none() {
                return Err(format!("a stratum's samples {start} + {alloc} overflow"));
            }
            if alloc > 0 && bits.is_empty() {
                return Err(format!(
                    "{alloc} samples allocated to a stratum with no bits"
                ));
            }
            total = total.saturating_add(alloc);
        }
        if total != samples {
            return Err(format!(
                "the round allocates {total} samples, the job carries {samples}"
            ));
        }
    }
    job.spec.check(profile)
}

/// A leased cell's output: the runs in sample order, each sample once,
/// with per-run telemetry merged in that order — the in-process
/// engine's epilogue. `None` if the runs do not cover the cell.
fn assemble(job: &JobWire, golden: GoldenRef, results: Vec<Vec<RunWire>>) -> Option<ExecOutput> {
    let mut runs: Vec<RunWire> = results.into_iter().flatten().collect();
    runs.sort_by_key(|r| r.sample);
    let covered = runs.len() as u64 == job.spec.samples
        && runs.iter().enumerate().all(|(i, r)| r.sample == i as u64);
    let mut merged = recorder_for(job.telemetry.as_ref());
    let records = runs
        .into_iter()
        .map(|run| {
            merged.merge(&run.recorder);
            run.record
        })
        .collect();
    covered.then_some(ExecOutput {
        golden,
        records,
        merged,
        engine: Recorder::null(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{AdaptiveRoundWire, PROTOCOL_VERSION};
    use nestsim_core::inject::InjectionRecord;
    use nestsim_core::{CampaignSpec, Outcome};
    use nestsim_hlsim::workload::by_name;
    use nestsim_models::ComponentKind;
    use nestsim_telemetry::TelemetryConfig;
    use std::collections::VecDeque;

    const LEASE: LeaseConfig = LeaseConfig {
        lease_ms: 100,
        heartbeat_ms: 20,
        backoff_ms: 10,
    };

    /// What one step asked the loop to do, with frames decoded.
    #[derive(Debug)]
    enum Out {
        Send(u64, Message),
        Close(u64),
        Drain,
        Exit,
    }

    /// The machine, the executions it handed its pool, and a clock.
    struct Rig {
        m: ServiceMachine,
        tasks: mpsc::Receiver<(u64, JobWire)>,
        /// Executions started since [`Rig::starts`] last looked.
        fresh: Vec<(u64, JobWire)>,
        /// Executions not yet finished, oldest first.
        running: VecDeque<u64>,
        now: u64,
    }

    fn rig(cfg: SvcConfig) -> Rig {
        let (tx, tasks) = mpsc::channel();
        let stats = Recorder::active(&TelemetryConfig::default());
        let m = ServiceMachine::new(cfg, LEASE, stats, Some(tx));
        let (fresh, running) = (Vec::new(), VecDeque::new());
        Rig {
            m,
            tasks,
            fresh,
            running,
            now: 0,
        }
    }

    fn slots(exec_slots: usize) -> Rig {
        rig(SvcConfig {
            exec_slots,
            ..SvcConfig::default()
        })
    }

    /// A machine with no execution pool, as a cluster campaign binds it.
    fn cluster(cfg: SvcConfig) -> Rig {
        let (_, tasks) = mpsc::channel();
        let stats = Recorder::active(&TelemetryConfig::default());
        let m = ServiceMachine::new(cfg, LEASE, stats, None);
        let (fresh, running) = (Vec::new(), VecDeque::new());
        Rig {
            m,
            tasks,
            fresh,
            running,
            now: 0,
        }
    }

    impl Rig {
        fn step(&mut self, event: Event) -> Vec<Out> {
            let mut actions = Vec::new();
            self.m.step(self.now, event, &mut actions);
            for (exec, job) in self.tasks.try_iter() {
                self.running.push_back(exec);
                self.fresh.push((exec, job));
            }
            (actions.into_iter())
                .map(|a| match a {
                    Action::Send { conn, payload } => {
                        Out::Send(conn, Message::decode(&payload).expect("frames decode"))
                    }
                    Action::Close { conn } => Out::Close(conn),
                    Action::Drain => Out::Drain,
                    Action::Exit => Out::Exit,
                })
                .collect()
        }

        fn recv(&mut self, conn: u64, msg: Message) -> Vec<Out> {
            let payload = msg.encode().expect("test frames encode");
            self.step(Event::Frame { conn, payload })
        }

        fn cmd(&mut self, cmd: Command) -> Vec<Out> {
            self.step(Event::Command(cmd))
        }

        /// Connects `conn` as `tenant`; returns its `HelloAck` id.
        fn hello(&mut self, conn: u64, tenant: &str) -> u32 {
            self.step(Event::Connected { conn });
            let hello = Message::Hello {
                version: PROTOCOL_VERSION,
                tenant: tenant.into(),
            };
            match self.recv(conn, hello).as_slice() {
                [Out::Send(_, Message::HelloAck { id })] => *id,
                other => panic!("expected one HelloAck, got {other:?}"),
            }
        }

        fn submit(&mut self, conn: u64, req: u64, job: JobWire) -> Vec<Out> {
            let priority = 1;
            self.recv(conn, Message::SubmitJob { req, priority, job })
        }

        /// Executions started since the last call.
        fn starts(&mut self) -> Vec<(u64, JobWire)> {
            std::mem::take(&mut self.fresh)
        }

        /// The oldest running execution ends with `result`.
        fn exec(&mut self, result: Result<ExecOutput, String>) -> Vec<Out> {
            let exec = self.running.pop_front().expect("an execution is running");
            self.cmd(Command::Exec { exec, result })
        }

        fn request(&mut self, conn: u64) -> Vec<Out> {
            self.recv(conn, Message::RequestShard)
        }

        /// `worker` takes every shard of the cell `client` waits for,
        /// from `outs` on, submitting each as `runs` makes it, until
        /// `client` hears the cell's end; returns what `client` was
        /// sent then.
        fn drain(
            &mut self,
            worker: u64,
            client: u64,
            mut outs: Vec<Out>,
            runs: impl Fn(Shard) -> Vec<RunWire>,
        ) -> Vec<Message> {
            for _ in 0..64 {
                let told = sent_to(&outs, client);
                if told
                    .iter()
                    .any(|m| matches!(m, Message::Done { .. } | Message::Failed { .. }))
                {
                    return told.into_iter().cloned().collect();
                }
                outs = match sent_to(&outs, worker).pop() {
                    Some(Message::Assign { shard, .. }) => {
                        let shard = *shard;
                        self.shard(worker, shard.id, golden(), runs(shard))
                    }
                    Some(_) => self.request(worker),
                    // Parked: its retry comes with the next tick.
                    None => {
                        self.now = self.m.next_wake().expect("a parked worker retries");
                        self.step(Event::Tick)
                    }
                };
            }
            panic!("the cell never ended");
        }

        fn shard(
            &mut self,
            conn: u64,
            shard: u32,
            golden: GoldenRef,
            runs: Vec<RunWire>,
        ) -> Vec<Out> {
            let sub = SubmitWire {
                worker: 0,
                shard,
                golden,
                forward: 0,
                restores: 0,
                runs,
            };
            self.recv(conn, Message::Submit(sub))
        }
    }

    fn sent_to(outs: &[Out], conn: u64) -> Vec<&Message> {
        (outs.iter())
            .filter_map(|o| match o {
                Out::Send(c, msg) if *c == conn => Some(msg),
                _ => None,
            })
            .collect()
    }

    fn assigned(outs: &[Out], conn: u64) -> bool {
        (sent_to(outs, conn).iter()).any(|m| matches!(m, Message::Assign { .. }))
    }

    fn test_job(samples: u64, seed: u64) -> JobWire {
        let mut spec = CampaignSpec::quick(ComponentKind::L2c, samples);
        spec.seed = seed;
        JobWire::from_spec(by_name("radi").unwrap(), &spec, None)
    }

    fn record(i: usize) -> InjectionRecord {
        InjectionRecord {
            outcome: Outcome::Ona,
            bit: i,
            inject_cycle: i as u64,
            cosim_cycles: 1,
            erroneous_output_cycle: None,
            propagation_latency: None,
            corrupted_line_count: 0,
            rollback_distance: None,
        }
    }

    fn golden() -> GoldenRef {
        GoldenRef {
            digest: 7,
            cycles: 11,
        }
    }

    fn output(n: usize) -> ExecOutput {
        ExecOutput {
            golden: golden(),
            records: (0..n).map(record).collect(),
            merged: Recorder::null(),
            engine: Recorder::null(),
        }
    }

    fn runs(samples: std::ops::Range<u64>) -> Vec<RunWire> {
        (samples.map(|sample| RunWire {
            sample,
            record: record(sample as usize),
            recorder: Recorder::null(),
        }))
        .collect()
    }

    fn shard_runs(shard: Shard) -> Vec<RunWire> {
        runs(shard.range())
    }

    /// The records a client was streamed.
    fn streamed(told: &[Message]) -> Vec<InjectionRecord> {
        (told.iter())
            .filter_map(|m| match m {
                Message::Chunk { records, .. } => Some(records.clone()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    fn rejected(outs: &[Out], conn: u64) -> bool {
        matches!(sent_to(outs, conn).as_slice(), [Message::Rejected { .. }])
    }

    #[test]
    fn client_ids_are_never_handed_out_twice() {
        // Workers and clients draw from one counter: two peers, the
        // first leaves, more arrive, and no id is handed out twice.
        let mut r = cluster(SvcConfig::default());
        let mut ids = vec![r.hello(1, "alice"), r.hello(2, "")];
        r.submit(1, 1, test_job(2, 1));
        r.request(2);
        r.step(Event::Closed {
            conn: 1,
            clean: true,
        });
        ids.extend([r.hello(3, ""), r.hello(4, "carol")]);
        r.request(3);
        ids.push(r.hello(5, "dave"));
        let distinct: std::collections::BTreeSet<u32> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "ids {ids:?}");
    }

    #[test]
    fn version_mismatch_is_fatal() {
        let mut r = slots(2);
        r.step(Event::Connected { conn: 1 });
        let hello = Message::Hello {
            version: PROTOCOL_VERSION + 1,
            tenant: "x".into(),
        };
        let outs = r.recv(1, hello);
        assert!(
            matches!(
                outs.as_slice(),
                [Out::Send(1, Message::Error { .. }), Out::Close(1)]
            ),
            "{outs:?}"
        );
    }

    #[test]
    fn version_mismatch_is_rejected_with_error_then_close() {
        let mut r = cluster(SvcConfig::default());
        r.hello(3, "alice");
        r.submit(3, 1, test_job(4, 1));
        r.step(Event::Connected { conn: 1 });
        let hello = Message::Hello {
            version: 1,
            tenant: String::new(),
        };
        match r.recv(1, hello).as_slice() {
            [Out::Send(1, Message::Error { message }), Out::Close(1)] => {
                assert!(message.contains("protocol version mismatch"), "{message}");
                assert!(message.contains("peer speaks 1"), "{message}");
            }
            other => panic!("expected Error then Close, got {other:?}"),
        }
        // The rejected connection must not wedge the cell: a healthy
        // worker still gets shards.
        r.hello(2, "");
        assert!(assigned(&r.request(2), 2));
        let stats = r.m.stats();
        assert_eq!(stats.counter(names::CLUSTER_WORKERS_CONNECTED), 1);
    }

    #[test]
    fn overlapping_submits_dedupe_to_one_execution_and_fan_out() {
        let mut r = slots(1);
        r.hello(1, "alice");
        r.hello(2, "bob");
        r.submit(1, 100, test_job(8, 42));
        assert_eq!(r.starts().len(), 1, "first submit starts the exec");
        let outs = r.submit(2, 200, test_job(8, 42));
        assert!(r.starts().is_empty(), "dedup submit must not re-execute");
        match sent_to(&outs, 2).first() {
            Some(Message::Accepted { dedup, .. }) => assert!(dedup),
            other => panic!("expected Accepted, got {other:?}"),
        }
        assert_eq!(r.m.stats().counter(names::SVC_DEDUP_HITS), 1);
        assert_eq!(r.m.stats().counter(names::SVC_EXECS_STARTED), 1);
        let out = output(8);
        let outs = r.exec(Ok(out.clone()));
        for conn in [1, 2] {
            let msgs = sent_to(&outs, conn);
            let done = msgs.iter().find_map(|m| match m {
                Message::Done { golden, merged, .. } => Some((golden, merged)),
                _ => None,
            });
            let (golden, merged) = done.unwrap_or_else(|| panic!("conn {conn} got no Done"));
            assert_eq!(*golden, out.golden);
            assert_eq!(*merged, out.merged);
            let streamed: Vec<_> = (msgs.iter())
                .filter_map(|m| match m {
                    Message::Chunk { records, .. } => Some(records.clone()),
                    _ => None,
                })
                .flatten()
                .collect();
            assert_eq!(streamed, out.records, "conn {conn} records must match");
        }
        assert!(r.m.is_idle());
    }

    #[test]
    fn cached_cell_replays_without_reexecution() {
        let mut r = slots(1);
        r.hello(1, "alice");
        r.submit(1, 1, test_job(8, 1));
        r.exec(Ok(output(8)));
        r.starts();
        let outs = r.submit(1, 2, test_job(8, 1));
        assert!(r.starts().is_empty());
        let msgs = sent_to(&outs, 1);
        assert!(matches!(
            msgs.first(),
            Some(Message::Accepted { dedup: true, .. })
        ));
        assert!(msgs.iter().any(|m| matches!(m, Message::Done { .. })));
        assert_eq!(r.m.stats().counter(names::SVC_EXECS_STARTED), 1);
    }

    #[test]
    fn over_admission_gets_explicit_backpressure() {
        let mut r = rig(SvcConfig {
            max_queue_depth: 1,
            exec_slots: 0, // nothing drains: pure queue behaviour
            ..SvcConfig::default()
        });
        r.hello(1, "alice");
        let a = r.submit(1, 1, test_job(8, 1));
        assert!(matches!(
            sent_to(&a, 1).first(),
            Some(Message::Accepted { dedup: false, .. })
        ));
        // Same key again: a dedup join, admitted despite the full queue.
        let b = r.submit(1, 2, test_job(8, 1));
        assert!(matches!(
            sent_to(&b, 1).first(),
            Some(Message::Accepted { dedup: true, .. })
        ));
        // A new key exceeds the bound: explicit Rejected, not queued.
        let c = r.submit(1, 3, test_job(8, 2));
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
        assert_eq!(r.m.stats().counter(names::SVC_ADMISSION_REJECTED), 1);
        assert_eq!(r.m.queue_depth(), 1, "rejected job must not queue");
    }

    #[test]
    fn drr_bounds_light_tenant_wait_at_machine_level() {
        let mut r = rig(SvcConfig {
            exec_slots: 1,
            quantum: 8,
            ..SvcConfig::default()
        });
        r.hello(1, "heavy");
        r.hello(2, "light");
        r.submit(1, 0, test_job(8, 10)); // occupies the slot
        assert_eq!(r.starts().len(), 1);
        for (req, seed) in [(1u64, 11u64), (2, 12), (3, 13)] {
            r.submit(1, req, test_job(8, seed));
        }
        r.submit(2, 9, test_job(8, 99));
        // Drain executions; the light tenant's job must start within
        // two completions of its submission, not after heavy's backlog.
        let mut started_seeds = Vec::new();
        for _ in 0..5 {
            r.exec(Ok(output(8)));
            started_seeds.extend(r.starts().iter().map(|(_, job)| job.spec.seed));
        }
        let light_pos = started_seeds.iter().position(|&s| s == 99);
        assert!(
            light_pos.is_some_and(|p| p <= 1),
            "light tenant starved: start order {started_seeds:?}"
        );
        assert!(r.m.is_idle());
    }

    #[test]
    fn cancel_of_sole_queued_job_prevents_execution() {
        let mut r = slots(1);
        r.hello(1, "alice");
        r.submit(1, 1, test_job(8, 1)); // running
        let outs = r.submit(1, 2, test_job(8, 2)); // queued
        let ticket = match sent_to(&outs, 1).first() {
            Some(Message::Accepted { ticket, .. }) => *ticket,
            other => panic!("expected Accepted, got {other:?}"),
        };
        let outs = r.recv(1, Message::Cancel { ticket });
        assert!(matches!(
            sent_to(&outs, 1).as_slice(),
            [Message::Cancelled { .. }]
        ));
        assert_eq!(r.m.stats().counter(names::SVC_JOBS_CANCELLED), 1);
        r.starts();
        r.exec(Ok(output(8)));
        assert!(r.starts().is_empty(), "cancelled job must never execute");
        assert!(r.m.is_idle());
    }

    #[test]
    fn crash_requeues_then_fails_terminally() {
        let mut r = rig(SvcConfig {
            exec_slots: 1,
            max_crash_retries: 1,
            ..SvcConfig::default()
        });
        r.hello(1, "alice");
        r.submit(1, 1, test_job(8, 1));
        r.starts();
        r.exec(Err("chaos".into()));
        let restarted: Vec<u64> = r.starts().iter().map(|(exec, _)| *exec).collect();
        assert_eq!(restarted.len(), 1, "crash must requeue and restart");
        let outs = r.exec(Err("chaos".into()));
        match sent_to(&outs, 1).first() {
            Some(Message::Failed { reason, .. }) => {
                assert!(reason.contains("crashed 2 times"), "{reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(r.m.stats().counter(names::SVC_EXEC_CRASHES), 2);
        assert!(r.m.is_idle());
    }

    #[test]
    fn disconnect_drops_sole_queued_jobs_but_running_survives() {
        let mut r = slots(1);
        r.hello(1, "alice");
        r.submit(1, 1, test_job(8, 1)); // running
        r.submit(1, 2, test_job(8, 2)); // queued
        r.step(Event::Closed {
            conn: 1,
            clean: true,
        });
        assert_eq!(r.m.queue_depth(), 0, "queued job dropped with its client");
        // The running exec completes into the cache with nobody waiting.
        let outs = r.exec(Ok(output(8)));
        assert!(sent_to(&outs, 1).is_empty());
        assert!(r.m.is_idle());
    }

    #[test]
    fn invalid_jobs_are_rejected_not_executed() {
        let mut r = slots(2);
        r.hello(1, "alice");
        let mut bad = test_job(8, 1);
        bad.benchmark = "no-such-benchmark".into();
        let outs = r.submit(1, 1, bad);
        assert!(matches!(
            sent_to(&outs, 1).as_slice(),
            [Message::Rejected { .. }]
        ));
        let mut bad = test_job(8, 1);
        bad.spec.check_interval = 0;
        let outs = r.submit(1, 2, bad);
        assert!(matches!(
            sent_to(&outs, 1).as_slice(),
            [Message::Rejected { .. }]
        ));
        assert!(r.m.is_idle());
    }

    /// One round of an adaptive L2C cell drawing `alloc` per stratum
    /// from `start`.
    fn round_job(start: [u64; 3], alloc: [u64; 3]) -> JobWire {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec::quick(ComponentKind::L2c, 0);
        let strata = AdaptiveRoundWire { start, alloc };
        JobWire::for_round(profile, &spec, None, Some(&strata))
    }

    #[test]
    fn a_round_job_is_admitted() {
        let mut r = slots(1);
        r.hello(1, "alice");
        let outs = r.submit(1, 1, round_job([0, 3, 0], [2, 2, 2]));
        assert!(matches!(
            sent_to(&outs, 1).as_slice(),
            [Message::Accepted { .. }]
        ));
        assert_eq!(r.starts().len(), 1);
    }

    #[test]
    fn a_round_job_whose_samples_are_not_its_allocation_is_rejected() {
        let mut r = slots(1);
        r.hello(1, "alice");
        let mut job = round_job([0; 3], [2, 2, 2]);
        job.spec.samples = 5;
        assert!(rejected(&r.submit(1, 1, job), 1));
        assert!(r.m.is_idle());
    }

    #[test]
    fn a_round_job_whose_stratum_range_overflows_is_rejected() {
        let mut r = slots(1);
        r.hello(1, "alice");
        let job = round_job([u64::MAX - 1, 0, 0], [2, 0, 0]);
        assert!(rejected(&r.submit(1, 1, job), 1));
        assert!(r.m.is_idle());
    }

    #[test]
    fn a_round_job_allocating_to_an_empty_stratum_is_rejected() {
        let (component, empty) = (ComponentKind::ALL.into_iter())
            .find_map(|c| {
                let bits = stratum_bits(c);
                (bits.iter().position(Vec::is_empty)).map(|s| (c, s))
            })
            .expect("some component has a stratum with no bits");
        let mut alloc = [0; 3];
        alloc[empty] = 2;
        let mut job = round_job([0; 3], alloc);
        job.spec.component = component;
        if component == ComponentKind::Pcie {
            job.benchmark = "p-lr".into();
        }
        let mut r = slots(1);
        r.hello(1, "alice");
        assert!(rejected(&r.submit(1, 1, job), 1));
        assert!(r.m.is_idle());
    }

    #[test]
    fn a_job_over_the_sample_bound_is_rejected() {
        let mut r = slots(1);
        r.hello(1, "alice");
        assert!(rejected(&r.submit(1, 1, test_job(1 << 40, 1)), 1));
        let total = MAX_JOB_SAMPLES + 1;
        let job = round_job([0; 3], [total - 2, 1, 1]);
        assert!(rejected(&r.submit(1, 2, job), 1));
        assert!(r.m.is_idle());
    }

    #[test]
    fn mutation_hook_starves_second_subscriber() {
        let mut r = slots(1);
        r.m.disable_dedup_fanout();
        r.hello(1, "alice");
        r.hello(2, "bob");
        r.submit(1, 1, test_job(8, 1));
        r.submit(2, 2, test_job(8, 1));
        let outs = r.exec(Ok(output(8)));
        assert!(!sent_to(&outs, 1).is_empty(), "first subscriber served");
        assert!(
            sent_to(&outs, 2).is_empty(),
            "mutation must starve the second subscriber"
        );
    }

    #[test]
    fn duplicate_submission_is_deduped_first_writer_wins() {
        let mut r = cluster(SvcConfig::default());
        r.hello(1, "");
        r.hello(2, "alice");
        r.submit(2, 1, test_job(8, 1)); // four shards of two
        let outs = r.request(1);
        let Some(Message::Assign { shard, .. }) = sent_to(&outs, 1).pop() else {
            panic!("the worker gets a shard: {outs:?}");
        };
        let shard = *shard;
        let outs = r.shard(1, shard.id, golden(), shard_runs(shard));
        assert!(matches!(
            sent_to(&outs, 1).as_slice(),
            [Message::SubmitAck { accepted: true }]
        ));
        let outs = r.shard(1, shard.id, golden(), shard_runs(shard));
        assert!(matches!(
            sent_to(&outs, 1).as_slice(),
            [Message::SubmitAck { accepted: false }]
        ));
        let outs = r.request(1);
        let told = r.drain(1, 2, outs, shard_runs);
        assert_eq!(
            streamed(&told),
            output(8).records,
            "exactly one submission merged"
        );
        assert_eq!(r.m.stats().counter(names::CLUSTER_SHARDS_DUPLICATE), 1);
    }

    #[test]
    fn mutation_hook_double_counts_duplicates() {
        let mut r = cluster(SvcConfig::default());
        r.m.disable_first_writer_wins();
        r.hello(1, "");
        r.hello(2, "alice");
        r.submit(2, 1, test_job(2, 1)); // two shards of one
        r.request(1);
        r.shard(1, 0, golden(), runs(0..1));
        let outs = r.shard(1, 0, golden(), runs(0..1));
        assert!(
            matches!(
                sent_to(&outs, 1).as_slice(),
                [Message::SubmitAck { accepted: true }]
            ),
            "mutated machine accepts the duplicate: {outs:?}"
        );
        r.request(1);
        let outs = r.shard(1, 1, golden(), runs(1..2));
        // The cover check catches the double count: the cell crashes
        // instead of completing, and goes out again.
        assert!(sent_to(&outs, 2).is_empty(), "{outs:?}");
        assert_eq!(r.m.stats().counter(names::SVC_EXEC_CRASHES), 1);
        assert_eq!(r.m.stats().counter(names::SVC_JOBS_COMPLETED), 0);
    }

    #[test]
    fn parked_connection_is_woken_by_release() {
        let mut r = cluster(SvcConfig::default());
        r.hello(1, "");
        r.hello(2, "");
        r.hello(3, "alice");
        r.submit(3, 1, test_job(1, 1)); // one shard
                                        // Worker 1 takes the only shard; worker 2 parks.
        assert!(assigned(&r.request(1), 1));
        r.now = 1;
        assert!(r.request(2).is_empty(), "parked, no reply yet");
        assert!(r.m.next_wake().is_some());
        // Worker 1 dies; its lease releases and conn 2 must get the
        // re-dispatched shard once the backoff passes.
        r.now = 2;
        let outs = r.step(Event::Closed {
            conn: 1,
            clean: true,
        });
        if !assigned(&outs, 2) {
            r.now = r.m.next_wake().expect("parked with a retry timer");
            assert!(assigned(&r.step(Event::Tick), 2));
        }
        assert_eq!(r.m.stats().counter(names::CLUSTER_REDISPATCHES), 1);
    }

    #[test]
    fn held_worker_is_reserved_across_rounds_on_one_connection() {
        let mut r = cluster(SvcConfig::default());
        r.hello(1, "");
        r.hello(2, "alice");
        // No cell yet: the worker is held, and no timer runs for it.
        assert!(r.request(1).is_empty());
        assert_eq!(r.m.next_wake(), None);
        for round in 0..2u64 {
            r.now = 10 * round;
            let outs = r.submit(2, round, test_job(2, round));
            assert!(assigned(&outs, 1), "round {round}: held worker re-served");
            let told = r.drain(1, 2, outs, shard_runs);
            assert_eq!(streamed(&told), output(2).records, "round {round} harvest");
            // The idle worker's next request parks (no `done`).
            assert!(
                r.request(1).is_empty(),
                "round {round}: held, not dismissed"
            );
        }
        // Shutdown finally dismisses the parked worker with `done`.
        let outs = r.cmd(Command::Shutdown);
        assert!(matches!(outs.first(), Some(Out::Drain)));
        assert!(matches!(
            sent_to(&outs, 1).as_slice(),
            [Message::Wait { done: true, .. }]
        ));
        // One handshake served both rounds.
        assert_eq!(r.m.stats().counter(names::CLUSTER_WORKERS_CONNECTED), 1);
    }

    #[test]
    fn golden_divergence_fails_campaign_and_frees_parked() {
        let mut r = cluster(SvcConfig {
            max_crash_retries: 0,
            ..SvcConfig::default()
        });
        r.hello(1, "");
        r.hello(2, "");
        r.hello(3, "");
        r.hello(4, "alice");
        r.submit(4, 1, test_job(2, 1)); // two shards
        r.request(1);
        r.request(2);
        assert!(r.request(3).is_empty(), "nothing left: parked");
        r.shard(1, 0, golden(), runs(0..1));
        let bad = GoldenRef {
            digest: 0xbad,
            cycles: 11,
        };
        let outs = r.shard(2, 1, bad, runs(1..2));
        assert!(matches!(outs.first(), Some(Out::Close(2))), "{outs:?}");
        match sent_to(&outs, 4).as_slice() {
            [Message::Failed { reason, .. }] => {
                assert!(reason.contains("golden reference diverged"), "{reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // The round is gone; the parked worker waits for the next one,
        // and shutdown dismisses it.
        assert_eq!(r.m.next_wake(), None);
        let outs = r.cmd(Command::Shutdown);
        assert!(matches!(
            sent_to(&outs, 3).as_slice(),
            [Message::Wait { done: true, .. }]
        ));
    }

    #[test]
    fn a_completion_counts_only_against_its_own_round() {
        // A straggler of the first round submits its shard id again
        // while the next round, with shards of the same ids, is out: it
        // must not complete the new round's shard.
        let mut r = cluster(SvcConfig::default());
        r.hello(1, "");
        r.hello(2, "");
        r.hello(3, "alice");
        r.submit(3, 1, test_job(1, 1));
        r.request(1);
        let outs = r.shard(1, 0, golden(), runs(0..1));
        assert!(sent_to(&outs, 3)
            .iter()
            .any(|m| matches!(m, Message::Done { .. })));
        r.submit(3, 2, test_job(1, 2));
        assert!(assigned(&r.request(2), 2));
        let outs = r.shard(1, 0, golden(), runs(0..1));
        assert!(matches!(
            sent_to(&outs, 1).as_slice(),
            [Message::SubmitAck { accepted: false }]
        ));
        let outs = r.shard(2, 0, golden(), runs(0..1));
        assert!(matches!(
            sent_to(&outs, 2).as_slice(),
            [Message::SubmitAck { accepted: true }]
        ));
        let done = sent_to(&outs, 3);
        assert!(
            done.iter().any(|m| matches!(m, Message::Done { .. })),
            "the assigned worker settles it"
        );
    }

    #[test]
    fn without_a_pool_a_cell_waits_for_a_worker() {
        let mut r = cluster(SvcConfig::default());
        r.hello(1, "alice");
        let outs = r.submit(1, 1, test_job(4, 1));
        assert!(matches!(
            sent_to(&outs, 1).as_slice(),
            [Message::Accepted { .. }]
        ));
        assert_eq!(r.m.queue_depth(), 1, "the cell waits for a worker");
        // The first worker that asks gets it.
        r.hello(2, "");
        assert!(assigned(&r.request(2), 2));
        // That worker leaves mid-cell: the cell waits for the next.
        let outs = r.step(Event::Closed {
            conn: 2,
            clean: false,
        });
        assert!(sent_to(&outs, 1).is_empty(), "{outs:?}");
        assert_eq!(r.m.stats().counter(names::SVC_EXEC_CRASHES), 0);
        r.hello(3, "");
        let outs = r.request(3);
        let told = r.drain(3, 1, outs, shard_runs);
        assert_eq!(streamed(&told), output(4).records);
        assert!(r.m.is_idle());
    }

    #[test]
    fn a_zero_sample_cell_runs_in_process_beside_a_worker() {
        // It has no shard to lease: a round of it would never settle, and
        // every later cell would queue behind it.
        let mut r = slots(1);
        r.hello(1, "");
        assert!(r.request(1).is_empty(), "no work: the worker parks");
        r.hello(2, "alice");
        r.submit(2, 1, test_job(0, 1));
        assert_eq!(r.starts().len(), 1, "the empty cell goes to the pool");
        let told = r.exec(Ok(output(0)));
        let done = sent_to(&told, 2);
        assert!(
            matches!(done.as_slice(), [Message::Done { .. }]),
            "{done:?}"
        );
        // The next cell goes out to the parked worker.
        let outs = r.submit(2, 2, test_job(2, 2));
        assert_eq!(r.m.queue_depth(), 0);
        let told = r.drain(1, 2, outs, shard_runs);
        assert_eq!(streamed(&told), output(2).records);
        assert!(r.m.is_idle());
    }

    #[test]
    fn without_a_pool_a_zero_sample_cell_is_rejected() {
        let mut r = cluster(SvcConfig::default());
        r.hello(1, "");
        r.request(1);
        r.hello(2, "alice");
        let outs = r.submit(2, 1, test_job(0, 1));
        assert!(rejected(&outs, 2), "{outs:?}");
        assert!(r.m.is_idle());
    }

    #[test]
    fn a_client_cell_is_leased_while_a_worker_is_connected() {
        let mut r = slots(1);
        r.hello(1, "");
        r.request(1);
        r.hello(2, "alice");
        let mut outs = r.submit(2, 1, test_job(4, 1));
        assert!(r.starts().is_empty(), "a connected worker takes it");
        // Each shard's samples come back in reverse.
        while let Some(Message::Assign { shard, .. }) = sent_to(&outs, 1).pop() {
            let shard = *shard;
            outs = r.shard(
                1,
                shard.id,
                golden(),
                runs(shard.range()).into_iter().rev().collect(),
            );
            if sent_to(&outs, 2).is_empty() {
                outs = r.request(1);
            }
        }
        let done = sent_to(&outs, 2);
        let streamed: Vec<InjectionRecord> = (done.iter())
            .filter_map(|m| match m {
                Message::Chunk { records, .. } => Some(records.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(streamed, output(4).records, "sample order restored");
        assert!(done.iter().any(|m| matches!(m, Message::Done { .. })));
        // The worker leaves: the next cell runs in process.
        r.step(Event::Closed {
            conn: 1,
            clean: true,
        });
        r.submit(2, 2, test_job(4, 2));
        assert_eq!(r.starts().len(), 1);
    }
}
