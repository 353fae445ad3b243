//! The cluster scenario: the coordinator adapter
//! ([`nestsim_cluster::coordinator::Coord`]) and restarting
//! [`WorkerMachine`] slots speaking real `Message` frames. A crashed or
//! reset worker restarts on a fresh connection until the coordinator
//! drains — the deployment's "operator restarts dead workers" loop.
//! Leases, heartbeats and backoff run on the virtual clock. The side
//! channel is answered as the campaign thread does: `AwaitRound` at
//! the start, `Shutdown` once it replies.
//!
//! * **Requests** may be reset, delayed past the lease, or — `Submit`
//!   only — duplicated, as by an at-least-once retry layer whose
//!   retransmission the coordinator must dedupe.
//! * **Replies** may be reset or delayed. A lost `SubmitAck` after an
//!   accepted submission is the classic exactly-once trap: the worker
//!   dies unacknowledged, restarts, and the shard must still count
//!   exactly once.
//! * **Executions** may crash the worker mid-shard, or stall past the
//!   lease so the coordinator re-dispatches while the original worker
//!   later submits a late completion.
//!
//! **Invariants.** The coordinator records no fatal error and drains
//! within the step bound. Every sample is merged exactly once, across
//! duplicate and late completions, byte-identical to the cached engine
//! run, and the assembled campaign (records, counts, golden reference,
//! merged telemetry) equals the in-process engine's.

use std::sync::mpsc;

use nestsim_cluster::coordinator::{Command, Coord};
use nestsim_cluster::proto::{Message, RunWire};
use nestsim_cluster::shard::plan_shards;
use nestsim_cluster::{
    CoordMachine, LeaseConfig, WorkerAction, WorkerEnd, WorkerEvent, WorkerMachine, WorkerOptions,
};
use nestsim_core::campaign::CampaignResult;
use nestsim_telemetry::Recorder;

use crate::exec::CampaignExec;
use crate::world::{Fault, Input, Net, Scenario, SimConfig, SimError};

/// Worker slots.
const WORKERS: usize = 2;
/// Samples per shard.
const SHARD_SIZE: u64 = 2;
/// Lease timing in virtual ms, small so expiry and backoff are
/// reachable within short schedules.
const LEASE: LeaseConfig = LeaseConfig {
    lease_ms: 10,
    heartbeat_ms: 4,
    backoff_ms: 2,
};
/// A prompt injection run, in virtual ms.
const EXEC_MS: u64 = 1;
/// Dead-worker restart delay, in virtual ms.
const RESTART_MS: u64 = 1;

/// One campaign cell served to restarting workers.
pub struct Cluster<'a> {
    exec: &'a CampaignExec,
    /// A peer that connects first and opens with this frame.
    intruder: Option<Vec<u8>>,
}

impl<'a> Cluster<'a> {
    /// The cell `exec` served to two workers in shards of two samples.
    pub fn new(exec: &'a CampaignExec) -> Cluster<'a> {
        Cluster {
            exec,
            intruder: None,
        }
    }
}

/// One schedule's workers.
pub struct Workers {
    slots: Vec<Slot>,
    /// The adapter's one reply to `AwaitRound`, and that reply.
    round: mpsc::Receiver<Result<Vec<Vec<RunWire>>, String>>,
    settled: Option<Result<Vec<Vec<RunWire>>, String>>,
    /// The intruder's connection. It never hangs up itself, so a
    /// coordinator that does not close it never finishes draining.
    intruder: Option<u64>,
}

#[derive(Default)]
struct Slot {
    machine: Option<WorkerMachine>,
    /// The current incarnation's connection.
    conn: u64,
}

/// A cluster event, addressed to one incarnation by its connection.
pub enum ClusterEv {
    /// Worker slot `w` (re)starts.
    Start(usize),
    /// A worker's `Sleep` elapsed.
    Wake { w: usize, conn: u64 },
    /// A worker finished executing entry-order position `pos`.
    Executed { w: usize, conn: u64, pos: u64 },
}

impl Scenario for Cluster<'_> {
    type Machine = Coord;
    type Peers = Workers;
    type Ev = ClusterEv;
    const HOP_MS: u64 = 1;
    /// Long enough to outlive a lease plus backoff, so delayed frames
    /// and stalled executions land in genuinely expired worlds.
    const DELAY_MS: u64 = 2 * LEASE.lease_ms + 5;
    const REPLY_FAULTS: &'static [Fault] = &[Fault::Reset, Fault::Delay];
    const MAX_STEPS: usize = 20_000;

    fn start(&self, cfg: &SimConfig, net: &mut Net<'_, Self>) -> (Coord, Workers) {
        let shards = plan_shards(self.exec.samples(), SHARD_SIZE);
        let mut machine =
            CoordMachine::new(self.exec.job().clone(), shards, LEASE, Recorder::null());
        if cfg.mutate {
            machine.disable_first_writer_wins();
        }
        let (tx, round) = mpsc::channel();
        net.command(Command::AwaitRound(tx));
        // Stagger start-up so the first handshakes are ordered by
        // default; the chooser can still interleave everything later.
        for w in 0..WORKERS {
            net.schedule(w as u64, ClusterEv::Start(w));
        }
        let intruder = self.intruder.clone().and_then(|frame| {
            let conn = net.connect()?;
            net.send(conn, frame, &[]);
            Some(conn)
        });
        let slots = (0..WORKERS).map(|_| Slot::default()).collect();
        let workers = Workers {
            slots,
            round,
            settled: None,
            intruder,
        };
        (Coord::new(machine), workers)
    }

    fn input(
        &self,
        peers: &mut Workers,
        net: &mut Net<'_, Self>,
        input: Input<ClusterEv>,
    ) -> Result<(), SimError> {
        let (w, event) = match input {
            Input::Own(ClusterEv::Start(w)) => {
                let Some(conn) = net.connect() else {
                    return Ok(()); // the coordinator stopped listening
                };
                let slot = &mut peers.slots[w];
                slot.conn = conn;
                slot.machine = Some(WorkerMachine::new(WorkerOptions::default()));
                (w, WorkerEvent::Start)
            }
            // Mail for a dead incarnation dies with it.
            Input::Own(ClusterEv::Wake { w, conn } | ClusterEv::Executed { w, conn, .. })
                if peers.live(conn) != Some(w) =>
            {
                return Ok(())
            }
            Input::Own(ClusterEv::Wake { w, .. }) => (w, WorkerEvent::Woke),
            // Forward cycles and restores feed only throughput counters,
            // and this coordinator's engine recorder counts nothing.
            Input::Own(ClusterEv::Executed { w, pos, .. }) => {
                let (run, golden) = (self.exec.run(pos), self.exec.golden());
                let (forward, restores) = (0, 0);
                let executed = WorkerEvent::Executed {
                    run,
                    golden,
                    forward,
                    restores,
                };
                (w, executed)
            }
            Input::Frame(conn, payload) => {
                let unexpected = |frame| SimError::UnexpectedFrame { conn, frame };
                let msg = Message::decode(&payload).map_err(|e| unexpected(e.to_string()))?;
                if peers.intruder == Some(conn) && !matches!(msg, Message::Error { .. }) {
                    return Err(unexpected(format!("{msg:?}")));
                }
                let Some(w) = peers.live(conn) else {
                    return Ok(());
                };
                (w, WorkerEvent::Received { msg })
            }
            Input::Closed(conn) => {
                let Some(w) = peers.live(conn) else {
                    return Ok(());
                };
                (w, WorkerEvent::ConnClosed)
            }
        };
        peers.step(net, w, event);
        Ok(())
    }

    fn answer(&self, peers: &mut Workers, net: &mut Net<'_, Self>) -> Result<(), SimError> {
        if let Ok(round) = peers.round.try_recv() {
            peers.settled = Some(round);
            net.command(Command::Shutdown);
        }
        Ok(())
    }

    /// Checks every result invariant against the cached engine.
    fn finish(&self, peers: Workers, coord: Coord) -> Result<(), SimError> {
        let exec = self.exec;
        // The coordinator drains only on `Shutdown`, sent on the reply.
        let results = peers
            .settled
            .expect("the world drains only after the round settled")
            .map_err(SimError::Coordinator)?;
        let outcome = coord.into_machine().into_outcome();
        if let Some(message) = outcome.error {
            return Err(SimError::Coordinator(message));
        }
        // Accepted shards set the golden; the epilogue compares it.
        let golden = outcome.golden.ok_or(SimError::MergeDiverged("golden"))?;

        // Exact cover and byte-identity: every sample merged exactly
        // once, with the bytes the cached engine run has.
        let mut expected = vec![None; exec.samples() as usize];
        for pos in 0..exec.samples() {
            let run = exec.run(pos);
            let sample = run.sample as usize;
            expected[sample] = Some(run);
        }
        for run in results.iter().flatten() {
            let sample = run.sample;
            match expected.get_mut(sample as usize).and_then(Option::take) {
                None => return Err(SimError::SampleDoubleCounted(sample)),
                Some(want) if want != *run => return Err(SimError::ResultDiverged(sample)),
                Some(_) => {}
            }
        }
        if let Some(sample) = expected.iter().position(Option::is_some) {
            return Err(SimError::SampleLost(sample as u64));
        }

        // The coordinator epilogue, checked against the in-process
        // engine byte for byte (cover holds, so this cannot panic).
        let assembled = exec.assemble(golden, results, outcome.engine);
        let (got, want) = (&assembled, exec.reference());
        let jsonl = |r: &CampaignResult| r.telemetry.merged.to_jsonl();
        let attributed = |r: &CampaignResult| r.telemetry.worker_samples.iter().sum::<usize>();
        let same = [
            ("records", got.records == want.records),
            ("counts", got.counts == want.counts),
            ("golden", got.golden == want.golden),
            ("merged telemetry", jsonl(got) == jsonl(want)),
            ("attributed samples", attributed(got) == attributed(want)),
        ];
        match same.iter().find(|(_, same)| !same) {
            Some(&(what, _)) => Err(SimError::MergeDiverged(what)),
            None => Ok(()),
        }
    }
}

impl Workers {
    /// The slot whose live incarnation holds `conn`.
    fn live(&self, conn: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.conn == conn && s.machine.is_some())
    }

    /// Steps worker `w` and performs its actions.
    fn step(&mut self, net: &mut Net<'_, Cluster<'_>>, w: usize, ev: WorkerEvent) {
        let slot = &mut self.slots[w];
        let Some(machine) = slot.machine.as_mut() else {
            return;
        };
        let conn = slot.conn;
        for act in machine.step(net.now(), ev) {
            match act {
                WorkerAction::Send { msg } => {
                    // Only a `Submit` is retried, so only it duplicates.
                    let faults: &[Fault] = if matches!(msg, Message::Submit(_)) {
                        &[Fault::Reset, Fault::Delay, Fault::Duplicate]
                    } else {
                        &[Fault::Reset, Fault::Delay]
                    };
                    net.send(conn, msg.encode().expect("worker frames encode"), faults);
                }
                WorkerAction::Sleep { ms } => net.schedule(ms.max(1), ClusterEv::Wake { w, conn }),
                WorkerAction::Execute { pos } => {
                    let delay = match net.pick_fault(&[Fault::Crash, Fault::Stall]) {
                        Some(Fault::Crash) => return self.died(net, w, false, true),
                        Some(_) => <Cluster as Scenario>::DELAY_MS,
                        None => EXEC_MS,
                    };
                    net.schedule(delay, ClusterEv::Executed { w, conn, pos });
                }
                // Only chaos options crash a worker machine, and they
                // stay off: crashes are picks at `Execute` instead.
                WorkerAction::Crash => return self.died(net, w, false, true),
                // The process exits: an orderly EOF. Only `done` retires
                // the slot; a lost connection restarts it.
                WorkerAction::Finish { end } => {
                    let restart = !matches!(end, WorkerEnd::Done);
                    return self.died(net, w, true, restart);
                }
            }
        }
    }

    /// Worker `w`'s incarnation ends: its connection closes (an orderly
    /// EOF if `clean`, else a reset), and the slot may `restart`.
    fn died(&mut self, net: &mut Net<'_, Cluster<'_>>, w: usize, clean: bool, restart: bool) {
        let slot = &mut self.slots[w];
        slot.machine = None;
        net.hang_up(slot.conn, clean);
        if restart {
            net.schedule(RESTART_MS, ClusterEv::Start(w));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use nestsim_cluster::PROTOCOL_VERSION;
    use nestsim_core::campaign::CampaignSpec;
    use nestsim_hlsim::workload::by_name;
    use nestsim_models::ComponentKind;
    use nestsim_telemetry::TelemetryConfig;

    use super::*;
    use crate::explore::{explore_dfs, explore_random, ScheduleChooser};
    use crate::world::{run_sim, world, FaultBudget};

    fn cell() -> &'static CampaignExec {
        static CELL: OnceLock<CampaignExec> = OnceLock::new();
        CELL.get_or_init(|| {
            let profile = by_name("flui").expect("flui profile exists");
            let spec = CampaignSpec {
                seed: 7,
                workers: 1,
                ..CampaignSpec::quick(ComponentKind::L2c, 6)
            };
            CampaignExec::new(profile, &spec, Some(&TelemetryConfig::default()))
        })
    }

    fn cfg(faults: u32) -> SimConfig {
        SimConfig {
            faults: FaultBudget(faults),
            mutate: false,
        }
    }

    /// A peer opening with `frame` reaches `Coord::step`'s close arms.
    /// It may get nothing but `Error` (so no worker id and no shard),
    /// the drain cannot end unless it was closed, and every other
    /// invariant must still hold.
    fn intruder_is_closed_and_the_rest_holds(frame: Vec<u8>) {
        let cluster = Cluster {
            intruder: Some(frame),
            ..Cluster::new(cell())
        };
        let benign = |scenario: &Cluster<'_>| {
            let mut chooser = ScheduleChooser::new(Vec::new());
            run_sim(scenario, &cfg(0), &mut chooser).expect("benign schedule passes")
        };
        // Counted for nothing: the workers' campaign keeps its timeline.
        let (with, without) = (benign(&cluster), benign(&Cluster::new(cell())));
        assert_eq!(with.virtual_ms, without.virtual_ms);
        assert!(with.steps > without.steps, "the intruder's frame arrived");
        let cfg = cfg(2);
        let dfs = explore_dfs(120, world(&cluster, &cfg));
        assert!(dfs.failure.is_none(), "DFS failure: {:?}", dfs.failure);
        let random = explore_random(0x1A7E, 48, world(&cluster, &cfg));
        assert!(random.failure.is_none(), "random: {:?}", random.failure);
    }

    #[test]
    fn undecodable_first_frame_is_closed() {
        assert!(Message::decode(&[0xff; 8]).is_err());
        intruder_is_closed_and_the_rest_holds(vec![0xff; 8]);
    }

    #[test]
    fn wrong_protocol_version_is_closed() {
        let hello = Message::Hello {
            version: PROTOCOL_VERSION + 1,
            tenant: String::new(),
        };
        intruder_is_closed_and_the_rest_holds(hello.encode().expect("hello encodes"));
    }
}
