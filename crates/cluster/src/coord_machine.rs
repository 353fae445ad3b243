//! The coordinator as a pure sans-I/O state machine.
//!
//! [`CoordMachine`] is the entire coordinator protocol — handshakes,
//! lease grants, long-poll parking, heartbeats, submission dedupe,
//! golden cross-checks, failure propagation — expressed as
//! `step(now, event) -> Vec<action>` over [`crate::proto::Message`]
//! values, with no sockets, threads, or wall clocks anywhere. The
//! coordinator in [`crate::coordinator`] runs it on the
//! [`crate::server`] loop, which feeds frames in as [`CoordEvent`]s and
//! writes the returned [`CoordAction`]s back out; the deterministic
//! simulator in `crates/mck` drives the very same type under a virtual
//! clock and a simulated network, which is what makes the protocol
//! model-checkable at all.
//!
//! Time is a caller-supplied millisecond tick (like
//! [`crate::lease::LeaseTable`], which this type wraps). Connections
//! are opaque `u64` ids chosen by the driver; the machine never
//! invents one. The long-poll (hold a `RequestShard` response until a
//! shard frees up) is explicit *parking*: a connection whose acquire
//! came back `Wait` is marked
//! parked and owed exactly one reply, delivered by a later
//! [`CoordEvent::Tick`], a lease release, a completion, an error, or
//! shutdown — whichever re-serves it first. [`CoordMachine::next_wake`]
//! tells the driver when the earliest parked retry timer is due.

use nestsim_core::inject::GoldenRef;
use nestsim_telemetry::{names, Recorder};

use crate::lease::{Completion, Grant, LeaseConfig, LeaseTable};
use crate::proto::{check_version, JobWire, Message, RunWire};
use crate::shard::Shard;

/// An input to the coordinator state machine.
#[derive(Debug, Clone)]
pub enum CoordEvent {
    /// A new connection was accepted. `conn` is a driver-chosen id,
    /// unique for the machine's lifetime.
    Connected {
        /// The new connection's id.
        conn: u64,
    },
    /// One decoded message arrived on `conn`.
    Received {
        /// The connection it arrived on.
        conn: u64,
        /// The decoded message.
        msg: Message,
    },
    /// The driver observed `conn` closing (EOF or I/O error). Unknown
    /// ids are ignored, so a driver may report a close the machine
    /// itself requested.
    Closed {
        /// The connection that closed.
        conn: u64,
        /// True for an orderly EOF; false for errors. A "clean" close
        /// while holding a lease is still counted as a worker
        /// disconnect (a killed worker's EOF looks like a goodbye).
        clean: bool,
    },
    /// A timer tick: re-serve parked connections whose retry is due.
    /// Safe to deliver at any time.
    Tick,
}

/// An output of the coordinator state machine, for the driver to
/// perform.
#[derive(Debug, Clone)]
pub enum CoordAction {
    /// Write `msg` to `conn`.
    Send {
        /// The destination connection.
        conn: u64,
        /// The message to write.
        msg: Message,
    },
    /// Close `conn`. Any `Send`s to the same connection earlier in the
    /// action list must be written first (e.g. a final `Error` reply).
    Close {
        /// The connection to close.
        conn: u64,
    },
}

/// Where one connection is in its protocol lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnPhase {
    /// Accepted; no (valid) `Hello` yet.
    Greeting,
    /// Handshook as `worker`; no reply owed.
    Serving { worker: u32 },
    /// Handshook, sent `RequestShard`, got `Wait` internally: owed
    /// exactly one reply once something frees up or `retry_at` passes.
    Parked { worker: u32, retry_at: u64 },
}

#[derive(Debug, Clone, Copy)]
struct ConnState {
    id: u64,
    phase: ConnPhase,
}

/// What a drained campaign left behind, extracted by
/// [`CoordMachine::into_outcome`].
pub struct CoordOutcome {
    /// The first fatal error, if any (golden divergence, short shard).
    pub error: Option<String>,
    /// The cross-checked golden reference (present once any shard was
    /// accepted).
    pub golden: Option<GoldenRef>,
    /// Accepted runs per shard, indexed by shard id. Empty inner
    /// vectors are shards that never completed (only possible when the
    /// campaign errored). With first-writer-wins disabled (the
    /// model-checker mutation hook) a slot may hold more than one
    /// submission's runs — exactly the double-count the checker must
    /// catch.
    pub results: Vec<Vec<RunWire>>,
    /// The engine recorder: lease/frame counters and shard histograms.
    pub engine: Recorder,
}

/// The coordinator protocol as a pure state machine. See the module
/// docs for the driving contract.
pub struct CoordMachine {
    shards: Vec<Shard>,
    job: JobWire,
    leases: LeaseTable,
    results: Vec<Vec<RunWire>>,
    golden: Option<GoldenRef>,
    engine: Recorder,
    error: Option<String>,
    next_worker: u32,
    /// Live connections in ascending-id (accept) order — a `Vec`, not
    /// a hash map, so every iteration is deterministic under the model
    /// checker.
    conns: Vec<ConnState>,
    shutdown: bool,
    /// Multi-round mode: park workers when the current round drains
    /// instead of dismissing them, so [`CoordMachine::begin_round`] can
    /// re-serve the same connections. See
    /// [`CoordMachine::hold_workers_between_rounds`].
    hold_workers: bool,
    /// Mutation hook: when set, `Duplicate` completions are merged
    /// anyway (first-writer-wins disabled). Test-only; see
    /// [`CoordMachine::disable_first_writer_wins`].
    accept_duplicates: bool,
}

impl CoordMachine {
    /// A coordinator for one campaign: `shards` planned over the
    /// sample order, the `job` to hand to workers, lease timing, and
    /// the engine recorder to count into ([`Recorder::null`] to count
    /// nothing).
    pub fn new(job: JobWire, shards: Vec<Shard>, lease: LeaseConfig, mut engine: Recorder) -> Self {
        engine.count(names::CLUSTER_SHARDS, shards.len() as u64);
        let results = shards.iter().map(|_| Vec::new()).collect();
        let leases = LeaseTable::new(shards.len(), lease);
        CoordMachine {
            shards,
            job,
            leases,
            results,
            golden: None,
            engine,
            error: None,
            next_worker: 0,
            conns: Vec::new(),
            shutdown: false,
            hold_workers: false,
            accept_duplicates: false,
        }
    }

    /// Switch the machine into multi-round mode: once every shard of
    /// the current round completes, idle workers are *parked* (their
    /// long-poll reply withheld) instead of dismissed with `done`, so
    /// a later [`CoordMachine::begin_round`] re-serves the very same
    /// connections. The adaptive cluster runner uses this to keep its
    /// workers — and their per-job golden/ladder caches — attached for
    /// the whole campaign. [`CoordMachine::begin_shutdown`] still
    /// releases everyone with `done`.
    pub fn hold_workers_between_rounds(&mut self) {
        self.hold_workers = true;
    }

    /// Start the next round on an existing worker pool: swap in the
    /// round's job and shard plan, reset the lease table, and re-serve
    /// every parked connection. The golden reference and engine
    /// recorder carry over — cross-round golden divergence is still a
    /// campaign failure, and lease/frame counters accumulate for the
    /// whole campaign.
    ///
    /// # Panics
    ///
    /// Panics if the previous round has not settled cleanly (callers
    /// harvest via [`CoordMachine::take_round_results`] only after
    /// [`CoordMachine::is_settled`]).
    pub fn begin_round(&mut self, now: u64, job: JobWire, shards: Vec<Shard>) -> Vec<CoordAction> {
        assert!(
            self.leases.all_done() && self.error.is_none(),
            "begin_round before the previous round settled"
        );
        self.engine
            .count(names::CLUSTER_SHARDS, shards.len() as u64);
        self.results = shards.iter().map(|_| Vec::new()).collect();
        self.leases = LeaseTable::new(shards.len(), *self.leases.config());
        self.shards = shards;
        self.job = job;
        let mut acts = Vec::new();
        self.serve_parked(now, &mut acts);
        acts
    }

    /// Drain the settled round's accepted runs (indexed by shard id),
    /// leaving the machine ready for [`CoordMachine::begin_round`].
    pub fn take_round_results(&mut self) -> Vec<Vec<RunWire>> {
        std::mem::take(&mut self.results)
    }

    /// Advance the machine by one event at time `now` (milliseconds on
    /// the driver's clock), returning the actions to perform, in
    /// order.
    pub fn step(&mut self, now: u64, event: CoordEvent) -> Vec<CoordAction> {
        let mut acts = Vec::new();
        match event {
            CoordEvent::Connected { conn } => {
                self.conns.push(ConnState {
                    id: conn,
                    phase: ConnPhase::Greeting,
                });
            }
            CoordEvent::Received { conn, msg } => self.on_message(now, conn, msg, &mut acts),
            CoordEvent::Closed { conn, clean } => {
                let Some(i) = self.conn_index(conn) else {
                    return acts; // already closed by the machine
                };
                let state = self.conns.remove(i);
                match state.phase {
                    // A connection that never handshook releases
                    // nothing and counts nothing.
                    ConnPhase::Greeting => {}
                    ConnPhase::Serving { worker } | ConnPhase::Parked { worker, .. } => {
                        let released = self.leases.release_worker(worker, now);
                        self.engine.count(names::CLUSTER_LEASES_RELEASED, released);
                        // A disconnect is unclean if it broke protocol
                        // *or* abandoned leased work.
                        if !clean || released > 0 {
                            self.engine.count(names::CLUSTER_WORKERS_DISCONNECTED, 1);
                        }
                        if released > 0 {
                            self.serve_parked(now, &mut acts);
                        }
                    }
                }
            }
            CoordEvent::Tick => self.serve_parked(now, &mut acts),
        }
        acts
    }

    /// Mark the campaign shutting down and release every parked
    /// connection with a `done` reply. The driver calls this from
    /// `wait()` once [`CoordMachine::is_settled`] turns true.
    pub fn begin_shutdown(&mut self, now: u64) -> Vec<CoordAction> {
        let mut acts = Vec::new();
        self.shutdown = true;
        self.serve_parked(now, &mut acts);
        acts
    }

    /// True once every shard completed or a fatal error was recorded —
    /// the condition `wait()` parks on.
    pub fn is_settled(&self) -> bool {
        self.leases.all_done() || self.error.is_some()
    }

    /// The earliest parked retry deadline, if any connection is
    /// parked. The driver should deliver a [`CoordEvent::Tick`] no
    /// later than this.
    pub fn next_wake(&self) -> Option<u64> {
        self.conns
            .iter()
            .filter_map(|c| match c.phase {
                ConnPhase::Parked { retry_at, .. } => Some(retry_at),
                _ => None,
            })
            .min()
    }

    /// The fatal error, if one was recorded.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// The engine recorder (lease/frame counters live here).
    pub fn engine(&self) -> &Recorder {
        &self.engine
    }

    /// Count one received frame of `bytes` payload bytes into the
    /// engine recorder; `submit` marks decoded `Submit` frames for the
    /// submit-size histogram. Frame accounting stays with the driver
    /// because only it sees bytes.
    pub fn note_frame_received(&mut self, bytes: usize, submit: bool) {
        self.engine.count(names::CLUSTER_FRAMES_RECEIVED, 1);
        self.engine
            .count(names::CLUSTER_BYTES_RECEIVED, bytes as u64);
        if submit {
            self.engine
                .record_hist(names::H_CLUSTER_SUBMIT_BYTES, bytes as u64);
        }
    }

    /// Count one sent frame of `bytes` payload bytes into the engine
    /// recorder.
    pub fn note_frame_sent(&mut self, bytes: usize) {
        self.engine.count(names::CLUSTER_FRAMES_SENT, 1);
        self.engine.count(names::CLUSTER_BYTES_SENT, bytes as u64);
    }

    /// Disable first-writer-wins completion dedupe: duplicate shard
    /// submissions are merged as if accepted. This deliberately breaks
    /// the protocol's exactly-once invariant so the model checker can
    /// prove it would catch such a bug (the mutation check in
    /// `crates/mck`). Never called by production drivers.
    #[doc(hidden)]
    pub fn disable_first_writer_wins(&mut self) {
        self.accept_duplicates = true;
    }

    /// Consume the machine into its final outcome for assembly.
    pub fn into_outcome(self) -> CoordOutcome {
        CoordOutcome {
            error: self.error,
            golden: self.golden,
            results: self.results,
            engine: self.engine,
        }
    }

    fn conn_index(&self, conn: u64) -> Option<usize> {
        self.conns.iter().position(|c| c.id == conn)
    }

    fn fail(&mut self, msg: String) {
        if self.error.is_none() {
            self.error = Some(msg);
        }
    }

    /// Close `conn` from the machine's side: emit the `Close`, drop
    /// the connection state, and do the release/disconnect accounting
    /// (a machine-initiated close of a handshook connection is always
    /// unclean). Returns how many leases the close released.
    fn close_conn(&mut self, now: u64, conn: u64, acts: &mut Vec<CoordAction>) -> u64 {
        let Some(i) = self.conn_index(conn) else {
            return 0;
        };
        let state = self.conns.remove(i);
        acts.push(CoordAction::Close { conn });
        match state.phase {
            ConnPhase::Greeting => 0,
            ConnPhase::Serving { worker } | ConnPhase::Parked { worker, .. } => {
                let released = self.leases.release_worker(worker, now);
                self.engine.count(names::CLUSTER_LEASES_RELEASED, released);
                self.engine.count(names::CLUSTER_WORKERS_DISCONNECTED, 1);
                released
            }
        }
    }

    fn on_message(&mut self, now: u64, conn: u64, msg: Message, acts: &mut Vec<CoordAction>) {
        let Some(i) = self.conn_index(conn) else {
            return; // closed by the machine; late frame, ignore
        };
        match (self.conns[i].phase, msg) {
            (ConnPhase::Greeting, Message::Hello { version, .. }) => match check_version(version) {
                Ok(()) => {
                    self.engine.count(names::CLUSTER_WORKERS_CONNECTED, 1);
                    let id = self.next_worker;
                    self.next_worker += 1;
                    self.conns[i].phase = ConnPhase::Serving { worker: id };
                    acts.push(CoordAction::Send {
                        conn,
                        msg: Message::HelloAck { id },
                    });
                }
                Err(message) => {
                    acts.push(CoordAction::Send {
                        conn,
                        msg: Message::Error { message },
                    });
                    self.close_conn(now, conn, acts);
                }
            },
            (ConnPhase::Greeting, _) => {
                // Anything but Hello first is a protocol breach; hang
                // up without a reply (matching the TCP coordinator's
                // historical behaviour).
                self.close_conn(now, conn, acts);
            }
            (ConnPhase::Serving { worker }, Message::RequestShard { .. }) => {
                self.try_grant(now, conn, worker, acts);
            }
            (ConnPhase::Serving { worker }, Message::Heartbeat { shard, .. }) => {
                self.engine.count(names::CLUSTER_HEARTBEATS, 1);
                let current = self.leases.heartbeat(worker, shard, now);
                acts.push(CoordAction::Send {
                    conn,
                    msg: Message::HeartbeatAck { current },
                });
            }
            (ConnPhase::Serving { worker }, Message::Submit(sub)) => {
                self.on_submit(now, conn, worker, sub, acts);
            }
            (ConnPhase::Serving { .. }, Message::Error { .. }) => {
                // The worker reported an error; close without a reply.
                self.close_conn(now, conn, acts);
            }
            (_, other) => {
                // Unexpected message for this phase (including anything
                // at all on a parked connection, which owes us silence
                // until we reply).
                acts.push(CoordAction::Send {
                    conn,
                    msg: Message::Error {
                        message: format!("unexpected message {other:?}"),
                    },
                });
                self.close_conn(now, conn, acts);
            }
        }
    }

    /// One lease-acquire attempt for a `RequestShard` (or a parked
    /// retry). Replies immediately with `Assign`/`Wait{done}` or parks
    /// the connection.
    fn try_grant(&mut self, now: u64, conn: u64, worker: u32, acts: &mut Vec<CoordAction>) {
        let Some(i) = self.conn_index(conn) else {
            return;
        };
        if self.shutdown || self.error.is_some() {
            self.conns[i].phase = ConnPhase::Serving { worker };
            acts.push(CoordAction::Send {
                conn,
                msg: Message::Wait { ms: 0, done: true },
            });
            return;
        }
        let acq = self.leases.acquire(worker, now);
        if acq.expired > 0 {
            self.engine
                .count(names::CLUSTER_LEASES_EXPIRED, acq.expired);
        }
        match acq.grant {
            Grant::Shard { id, redispatch } => {
                self.engine.count(names::CLUSTER_LEASES_GRANTED, 1);
                if redispatch {
                    self.engine.count(names::CLUSTER_REDISPATCHES, 1);
                }
                let lease = *self.leases.config();
                self.conns[i].phase = ConnPhase::Serving { worker };
                acts.push(CoordAction::Send {
                    conn,
                    msg: Message::Assign {
                        shard: self.shards[id as usize],
                        job: Box::new(self.job.clone()),
                        lease_ms: lease.lease_ms,
                        heartbeat_ms: lease.heartbeat_ms,
                    },
                });
            }
            Grant::Wait { ms } => {
                self.engine.count(names::CLUSTER_BACKOFF_WAITS, 1);
                self.conns[i].phase = ConnPhase::Parked {
                    worker,
                    retry_at: now + ms,
                };
            }
            Grant::Done if self.hold_workers => {
                // Multi-round mode: the round drained but the campaign
                // continues. Keep the worker parked (its long-poll
                // reply withheld) until `begin_round` re-serves it or
                // `begin_shutdown` sends the real `done`. The retry
                // timer only bounds how long a missed wakeup could
                // stall the connection.
                self.conns[i].phase = ConnPhase::Parked {
                    worker,
                    retry_at: now + self.leases.config().heartbeat_ms,
                };
            }
            Grant::Done => {
                self.conns[i].phase = ConnPhase::Serving { worker };
                acts.push(CoordAction::Send {
                    conn,
                    msg: Message::Wait { ms: 0, done: true },
                });
            }
        }
    }

    /// Retry every parked connection, in accept order. Each either
    /// gets its owed reply or stays parked with a fresh retry timer.
    fn serve_parked(&mut self, now: u64, acts: &mut Vec<CoordAction>) {
        let parked: Vec<(u64, u32)> = self
            .conns
            .iter()
            .filter_map(|c| match c.phase {
                ConnPhase::Parked { worker, .. } => Some((c.id, worker)),
                _ => None,
            })
            .collect();
        for (conn, worker) in parked {
            self.try_grant(now, conn, worker, acts);
        }
    }

    fn on_submit(
        &mut self,
        now: u64,
        conn: u64,
        worker: u32,
        sub: crate::proto::SubmitWire,
        acts: &mut Vec<CoordAction>,
    ) {
        match self.golden {
            None => self.golden = Some(sub.golden),
            Some(g) if g != sub.golden => {
                self.fail(format!(
                    "golden reference diverged: coordinator has \
                     digest {:#x}/{} cycles, worker {worker} submitted \
                     {:#x}/{} — the processes disagree on the \
                     simulation itself",
                    g.digest, g.cycles, sub.golden.digest, sub.golden.cycles,
                ));
                self.close_conn(now, conn, acts);
                self.serve_parked(now, acts); // parked conns get `done`
                return;
            }
            Some(_) => {}
        }
        let shard_id = sub.shard;
        match self.leases.complete(shard_id, now) {
            Completion::Accepted { latency_ms } => {
                let expected = self
                    .shards
                    .get(shard_id as usize)
                    .map_or(0, |s| s.len as usize);
                if sub.runs.len() != expected {
                    self.fail(format!(
                        "shard {shard_id} submitted {} runs, expected {expected}",
                        sub.runs.len()
                    ));
                    self.close_conn(now, conn, acts);
                    self.serve_parked(now, acts);
                    return;
                }
                self.engine.count(names::CLUSTER_SHARDS_COMPLETED, 1);
                self.engine.count(names::FORWARD_CYCLES, sub.forward);
                self.engine.count(names::LADDER_RESTORES, sub.restores);
                self.engine
                    .record_hist(names::H_CLUSTER_SHARD_MS, latency_ms);
                self.engine
                    .record_hist(names::H_CLUSTER_SHARD_SAMPLES, sub.runs.len() as u64);
                self.results[shard_id as usize] = sub.runs;
                acts.push(CoordAction::Send {
                    conn,
                    msg: Message::SubmitAck { accepted: true },
                });
                if self.leases.all_done() {
                    // Everyone still parked gets `done` now rather
                    // than on their retry timers.
                    self.serve_parked(now, acts);
                }
            }
            Completion::Duplicate if self.accept_duplicates => {
                // MUTATION HOOK (test-only): merge the duplicate as if
                // it were first — the double-count the model checker
                // must detect. A duplicate landing after the settled
                // round was taken has nowhere to go.
                self.engine.count(names::CLUSTER_SHARDS_COMPLETED, 1);
                let mut runs = sub.runs;
                if let Some(slot) = self.results.get_mut(shard_id as usize) {
                    slot.append(&mut runs);
                }
                acts.push(CoordAction::Send {
                    conn,
                    msg: Message::SubmitAck { accepted: true },
                });
            }
            Completion::Duplicate => {
                self.engine.count(names::CLUSTER_SHARDS_DUPLICATE, 1);
                acts.push(CoordAction::Send {
                    conn,
                    msg: Message::SubmitAck { accepted: false },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{SubmitWire, PROTOCOL_VERSION};
    use crate::shard::plan_shards;

    fn machine(samples: u64, shard_size: u64) -> CoordMachine {
        CoordMachine::new(
            JobWire::default(),
            plan_shards(samples, shard_size),
            LeaseConfig {
                lease_ms: 100,
                heartbeat_ms: 20,
                backoff_ms: 10,
            },
            Recorder::null(),
        )
    }

    fn golden() -> GoldenRef {
        GoldenRef {
            digest: 0xfeed,
            cycles: 42,
        }
    }

    fn run(sample: u64) -> RunWire {
        RunWire {
            sample,
            record: nestsim_core::inject::InjectionRecord {
                outcome: nestsim_core::Outcome::Vanished,
                bit: sample as usize,
                inject_cycle: 1_000 + sample,
                cosim_cycles: 40,
                erroneous_output_cycle: None,
                propagation_latency: None,
                corrupted_line_count: 0,
                rollback_distance: None,
            },
            recorder: Recorder::null(),
        }
    }

    fn handshake(m: &mut CoordMachine, conn: u64) -> u32 {
        m.step(0, CoordEvent::Connected { conn });
        let acts = m.step(
            0,
            CoordEvent::Received {
                conn,
                msg: Message::Hello {
                    version: PROTOCOL_VERSION,
                    tenant: String::new(),
                },
            },
        );
        match &acts[..] {
            [CoordAction::Send {
                msg: Message::HelloAck { id },
                ..
            }] => *id,
            other => panic!("expected HelloAck, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected_with_error_then_close() {
        let mut m = machine(4, 2);
        m.step(0, CoordEvent::Connected { conn: 1 });
        let acts = m.step(
            0,
            CoordEvent::Received {
                conn: 1,
                msg: Message::Hello {
                    version: 1,
                    tenant: String::new(),
                },
            },
        );
        assert_eq!(acts.len(), 2, "{acts:?}");
        match &acts[0] {
            CoordAction::Send {
                conn: 1,
                msg: Message::Error { message },
            } => {
                assert!(message.contains("protocol version mismatch"), "{message}");
                assert!(message.contains("peer speaks 1"), "{message}");
            }
            other => panic!("expected Error reply, got {other:?}"),
        }
        assert!(matches!(acts[1], CoordAction::Close { conn: 1 }));
        // The rejected connection must not wedge the campaign: a
        // healthy worker still gets shards.
        let w = handshake(&mut m, 2);
        let acts = m.step(
            1,
            CoordEvent::Received {
                conn: 2,
                msg: Message::RequestShard { worker: w },
            },
        );
        assert!(
            matches!(
                &acts[..],
                [CoordAction::Send {
                    msg: Message::Assign { .. },
                    ..
                }]
            ),
            "{acts:?}"
        );
    }

    #[test]
    fn duplicate_submission_is_deduped_first_writer_wins() {
        let mut m = machine(2, 2); // one shard of two samples
        let w = handshake(&mut m, 1);
        let acts = m.step(
            0,
            CoordEvent::Received {
                conn: 1,
                msg: Message::RequestShard { worker: w },
            },
        );
        assert!(matches!(
            &acts[..],
            [CoordAction::Send {
                msg: Message::Assign { .. },
                ..
            }]
        ));
        let sub = || {
            Message::Submit(SubmitWire {
                worker: w,
                shard: 0,
                golden: golden(),
                forward: 0,
                restores: 0,
                runs: vec![run(0), run(1)],
            })
        };
        let acts = m.step(
            5,
            CoordEvent::Received {
                conn: 1,
                msg: sub(),
            },
        );
        assert!(
            acts.iter().any(|a| matches!(
                a,
                CoordAction::Send {
                    msg: Message::SubmitAck { accepted: true },
                    ..
                }
            )),
            "{acts:?}"
        );
        assert!(m.is_settled());
        let acts = m.step(
            6,
            CoordEvent::Received {
                conn: 1,
                msg: sub(),
            },
        );
        assert!(
            matches!(
                &acts[..],
                [CoordAction::Send {
                    msg: Message::SubmitAck { accepted: false },
                    ..
                }]
            ),
            "{acts:?}"
        );
        let out = m.into_outcome();
        assert_eq!(out.results[0].len(), 2, "exactly one submission merged");
    }

    #[test]
    fn mutation_hook_double_counts_duplicates() {
        let mut m = machine(2, 2);
        m.disable_first_writer_wins();
        let w = handshake(&mut m, 1);
        m.step(
            0,
            CoordEvent::Received {
                conn: 1,
                msg: Message::RequestShard { worker: w },
            },
        );
        let sub = || {
            Message::Submit(SubmitWire {
                worker: w,
                shard: 0,
                golden: golden(),
                forward: 0,
                restores: 0,
                runs: vec![run(0), run(1)],
            })
        };
        m.step(
            5,
            CoordEvent::Received {
                conn: 1,
                msg: sub(),
            },
        );
        let acts = m.step(
            6,
            CoordEvent::Received {
                conn: 1,
                msg: sub(),
            },
        );
        assert!(
            matches!(
                &acts[..],
                [CoordAction::Send {
                    msg: Message::SubmitAck { accepted: true },
                    ..
                }]
            ),
            "mutated machine accepts the duplicate: {acts:?}"
        );
        let out = m.into_outcome();
        assert_eq!(out.results[0].len(), 4, "duplicate was double-counted");
    }

    #[test]
    fn parked_connection_is_woken_by_release() {
        let mut m = machine(2, 2); // one shard
        let w1 = handshake(&mut m, 1);
        let w2 = handshake(&mut m, 2);
        // Worker 1 takes the only shard; worker 2 parks.
        m.step(
            0,
            CoordEvent::Received {
                conn: 1,
                msg: Message::RequestShard { worker: w1 },
            },
        );
        let acts = m.step(
            1,
            CoordEvent::Received {
                conn: 2,
                msg: Message::RequestShard { worker: w2 },
            },
        );
        assert!(acts.is_empty(), "parked, no reply yet: {acts:?}");
        assert!(m.next_wake().is_some());
        // Worker 1 dies; its lease releases and conn 2 must get the
        // re-dispatched shard (after the backoff window).
        let acts = m.step(
            2,
            CoordEvent::Closed {
                conn: 1,
                clean: true,
            },
        );
        // Backoff may park it again with a retry timer; tick past it.
        let woke = acts.iter().any(|a| {
            matches!(
                a,
                CoordAction::Send {
                    conn: 2,
                    msg: Message::Assign { .. },
                }
            )
        });
        if !woke {
            let retry = m.next_wake().expect("parked with a retry timer");
            let acts = m.step(retry, CoordEvent::Tick);
            assert!(
                acts.iter().any(|a| matches!(
                    a,
                    CoordAction::Send {
                        conn: 2,
                        msg: Message::Assign { .. },
                    }
                )),
                "{acts:?}"
            );
        }
    }

    #[test]
    fn held_worker_is_reserved_across_rounds_on_one_connection() {
        let mut m = CoordMachine::new(
            JobWire::default(),
            plan_shards(2, 2),
            LeaseConfig {
                lease_ms: 100,
                heartbeat_ms: 20,
                backoff_ms: 10,
            },
            nestsim_telemetry::Recorder::active(&nestsim_telemetry::TelemetryConfig::default()),
        );
        m.hold_workers_between_rounds();
        let w = handshake(&mut m, 1);
        let submit = |w| {
            Message::Submit(SubmitWire {
                worker: w,
                shard: 0,
                golden: golden(),
                forward: 0,
                restores: 0,
                runs: vec![run(0), run(1)],
            })
        };
        for round in 0..2u64 {
            if round > 0 {
                let acts = m.begin_round(10 * round, JobWire::default(), plan_shards(2, 2));
                assert!(
                    acts.iter().any(|a| matches!(
                        a,
                        CoordAction::Send {
                            conn: 1,
                            msg: Message::Assign { .. },
                        }
                    )),
                    "round {round}: parked worker re-served: {acts:?}"
                );
            } else {
                let acts = m.step(
                    0,
                    CoordEvent::Received {
                        conn: 1,
                        msg: Message::RequestShard { worker: w },
                    },
                );
                assert!(
                    matches!(
                        &acts[..],
                        [CoordAction::Send {
                            msg: Message::Assign { .. },
                            ..
                        }]
                    ),
                    "{acts:?}"
                );
            }
            let acts = m.step(
                10 * round + 1,
                CoordEvent::Received {
                    conn: 1,
                    msg: submit(w),
                },
            );
            assert!(
                acts.iter().any(|a| matches!(
                    a,
                    CoordAction::Send {
                        msg: Message::SubmitAck { accepted: true },
                        ..
                    }
                )),
                "round {round}: {acts:?}"
            );
            assert!(m.is_settled(), "round {round} settled");
            // The idle worker's next request parks (no `done`) so the
            // next round can re-serve the same connection.
            let acts = m.step(
                10 * round + 2,
                CoordEvent::Received {
                    conn: 1,
                    msg: Message::RequestShard { worker: w },
                },
            );
            assert!(
                acts.is_empty(),
                "round {round}: held, not dismissed: {acts:?}"
            );
            assert_eq!(m.take_round_results()[0].len(), 2, "round {round} harvest");
        }
        // Shutdown finally dismisses the parked worker with `done`.
        let acts = m.begin_shutdown(30);
        assert!(
            acts.iter().any(|a| matches!(
                a,
                CoordAction::Send {
                    conn: 1,
                    msg: Message::Wait { done: true, .. },
                }
            )),
            "{acts:?}"
        );
        // One handshake served the whole multi-round campaign.
        assert_eq!(m.engine().counter(names::CLUSTER_WORKERS_CONNECTED), 1);
    }

    #[test]
    fn golden_divergence_fails_campaign_and_frees_parked() {
        let mut m = machine(4, 2); // two shards
        let w1 = handshake(&mut m, 1);
        let w2 = handshake(&mut m, 2);
        m.step(
            0,
            CoordEvent::Received {
                conn: 1,
                msg: Message::RequestShard { worker: w1 },
            },
        );
        m.step(
            0,
            CoordEvent::Received {
                conn: 2,
                msg: Message::RequestShard { worker: w2 },
            },
        );
        m.step(
            1,
            CoordEvent::Received {
                conn: 1,
                msg: Message::Submit(SubmitWire {
                    worker: w1,
                    shard: 0,
                    golden: golden(),
                    forward: 0,
                    restores: 0,
                    runs: vec![run(0), run(1)],
                }),
            },
        );
        let acts = m.step(
            2,
            CoordEvent::Received {
                conn: 2,
                msg: Message::Submit(SubmitWire {
                    worker: w2,
                    shard: 1,
                    golden: GoldenRef {
                        digest: 0xbad,
                        cycles: 42,
                    },
                    forward: 0,
                    restores: 0,
                    runs: vec![run(2), run(3)],
                }),
            },
        );
        assert!(
            matches!(acts[0], CoordAction::Close { conn: 2 }),
            "{acts:?}"
        );
        assert!(m.is_settled());
        assert!(m.error().unwrap().contains("golden reference diverged"));
    }
}
