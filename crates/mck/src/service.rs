//! The service scenario: the service adapter
//! ([`nestsim_svc::service::Svc`]) and a fixed cast of scripted
//! tenants speaking real `Message` frames, one action at a time:
//! hello, submit (several clients submit the *same* cell, exercising
//! dedup), cancel, disconnect. Every task the adapter queues for its
//! execution pool becomes a pending execution, answered with
//! `Command::Exec` whenever the schedule says; once nothing is left to
//! fire, `Stop` makes the adapter's `Exit` end the world.
//!
//! The service machine is time-free, so the state space is event order
//! plus faults. Its links are zero-hop: the loop writes a reply in the
//! turn it reads the request, so replies are handed over in order,
//! which keeps the tree small enough for a bounded DFS to reach real
//! depth. Requests may be lost to a reset; replies are never faulted,
//! since a lost reply *is* a lost connection. Executions may crash
//! (retry, then failure).
//!
//! **Invariants.** No client gets a frame it is not owed, a valid
//! submit is never rejected, a cell completes at most once however many
//! clients share it, every surviving subscriber gets one terminal reply
//! whose contiguous chunks reassemble byte-identically, a queued cell
//! whose sole subscriber cancelled never starts, and the service ends
//! idle. [`SimConfig::mutate`] turns the machine's dedup fan-out off,
//! and the explorer must then find a [`SimError::LostSubscriber`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;

use nestsim_cluster::proto::{JobWire, Message, PROTOCOL_VERSION};
use nestsim_core::campaign::CampaignSpec;
use nestsim_core::inject::GoldenRef;
use nestsim_core::{InjectionRecord, Outcome};
use nestsim_hlsim::workload::by_name;
use nestsim_models::ComponentKind;
use nestsim_svc::service::{Command, Svc};
use nestsim_svc::{ExecOutput, SvcConfig, SvcMachine};
use nestsim_telemetry::Recorder;

use crate::world::{Fault, Input, Net, Scenario, SimConfig, SimError};
use ClientAct::*;

/// One scripted client action.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ClientAct {
    /// Handshake.
    Hello,
    /// Submit the cell with this seed.
    Submit(u64),
    /// Cancel the most recent still-open ticket (no-op if none).
    CancelLast,
    /// Close the connection deliberately.
    Disconnect,
    /// Send the scenario's intruder frame, owed only `Error` and a close.
    Intrude,
}

/// Three tenants, three cells: two submitted by two clients each (dedup
/// and fan-out), one cancelled by its sole subscriber, and one client
/// disconnecting with a subscription open.
const CAST: [(&str, &[ClientAct]); 3] = [
    ("alice", &[Hello, Submit(1), Submit(2)]),
    ("bob", &[Hello, Submit(1), Submit(3), CancelLast]),
    ("carol", &[Hello, Submit(2), Disconnect]),
];

/// The cast's cells and their outputs, built once outside the explored
/// world so schedules only replay protocol behaviour.
#[derive(Debug)]
pub struct SvcScenario {
    /// seed → the job every submitter sends and what the pool returns.
    cells: BTreeMap<u64, (JobWire, ExecOutput)>,
    /// A further client that opens with this frame.
    intruder: Option<Vec<u8>>,
}

impl SvcScenario {
    /// The standard checking scenario.
    pub fn standard() -> SvcScenario {
        let cell = |seed| (seed, (cell_job(seed), cell_output(seed)));
        SvcScenario {
            cells: [1, 2, 3].map(cell).into(),
            intruder: None,
        }
    }

    /// Client `c` performs its next scripted action.
    fn act(&self, peers: &mut Clients, net: &mut Net<'_, Self>, c: usize) {
        let client = &mut peers.clients[c];
        if client.gone {
            return;
        }
        let (conn, act) = (c as u64, client.script[client.next]);
        client.next += 1;
        let msg = match act {
            Hello => Some(Message::Hello {
                version: PROTOCOL_VERSION,
                tenant: client.tenant.to_string(),
            }),
            Submit(seed) => {
                let req = client.reqs.len() as u64 + 1;
                client.reqs.insert(req, seed);
                let job = self.cells[&seed].0.clone();
                Some(Message::SubmitJob {
                    req,
                    priority: 1,
                    job,
                })
            }
            // With nothing open, the schedule outran the script.
            CancelLast => (client.tickets.iter().rev())
                .find(|(_, t)| t.open())
                .map(|(&ticket, _)| Message::Cancel { ticket }),
            Disconnect => {
                client.gone = true;
                return net.hang_up(conn, true);
            }
            Intrude => {
                let frame = self.intruder.clone().expect("intruders have a frame");
                return net.send(conn, frame, &[]);
            }
        };
        if let Some(msg) = msg {
            let payload = msg.encode().expect("client frames encode");
            net.send(conn, payload, &[Fault::Reset]);
        }
        if client.next < client.script.len() {
            net.schedule(0, SvcEv::Client(c));
        }
    }
}

/// A small, valid service job parameterised only by seed (the seed is
/// part of the determinism key, so distinct seeds are distinct cells).
fn cell_job(seed: u64) -> JobWire {
    let mut spec = CampaignSpec::quick(ComponentKind::L2c, 5);
    spec.seed = seed;
    JobWire::from_spec(by_name("radi").expect("radi profile exists"), &spec, None)
}

/// A synthetic but deterministic execution output for one cell. The
/// scenario checks *delivery* (exactly-once execution, lossless
/// fan-out, chunk reassembly), so the records only need to be
/// distinctive per cell — engine fidelity is the TCP e2e tests' job.
fn cell_output(seed: u64) -> ExecOutput {
    ExecOutput {
        golden: GoldenRef {
            digest: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            cycles: 1_000 + seed,
        },
        records: (0..5)
            .map(|i| InjectionRecord {
                outcome: Outcome::Ona,
                bit: (seed as usize) * 64 + i,
                inject_cycle: seed * 100 + i as u64,
                cosim_cycles: 1 + i as u64,
                erroneous_output_cycle: None,
                propagation_latency: None,
                corrupted_line_count: 0,
                rollback_distance: None,
            })
            .collect(),
        merged: Recorder::null(),
    }
}

/// The scenario's view of one ticket's lifetime.
#[derive(Debug, Default)]
struct Track {
    seed: u64,
    chunks: Vec<(u64, Vec<InjectionRecord>)>,
    done: Option<(GoldenRef, Recorder)>,
    failed: bool,
    cancelled: bool,
}

impl Track {
    /// Still owed a terminal reply.
    fn open(&self) -> bool {
        self.done.is_none() && !self.failed && !self.cancelled
    }
}

/// Client `c` holds connection `c`: the world numbers connections in
/// connect order, and the cast connects in index order.
#[derive(Default)]
struct Client {
    tenant: &'static str,
    script: &'static [ClientAct],
    next: usize,
    /// Disconnected; a gone client is owed nothing.
    gone: bool,
    /// req id → submitted cell seed.
    reqs: BTreeMap<u64, u64>,
    /// Accepted tickets; the machine mints them in acceptance order.
    tickets: BTreeMap<u64, Track>,
}

/// One schedule's clients and the executions they caused.
pub struct Clients {
    clients: Vec<Client>,
    /// The tasks the adapter hands its execution pool.
    tasks: mpsc::Receiver<(u64, JobWire)>,
    /// exec id → cell seed.
    inflight: BTreeMap<u64, u64>,
    /// Cells that started executing.
    started: BTreeSet<u64>,
    /// seed → executions completed successfully.
    completed: BTreeMap<u64, u64>,
    /// Cells whose sole subscriber cancelled while still queued: any
    /// later start is a violation.
    banned: BTreeSet<u64>,
}

/// A service event: client `c` acts, or an execution ends.
pub enum SvcEv {
    /// Client `c` performs its next scripted action.
    Client(usize),
    /// Execution `exec` finishes (or crashes).
    Exec(u64),
}

impl Scenario for SvcScenario {
    type Machine = Svc;
    type Peers = Clients;
    type Ev = SvcEv;
    const HOP_MS: u64 = 0;
    const MAX_STEPS: usize = 2_000;

    /// One execution slot keeps queueing and DRR reachable; one crash
    /// retry keeps terminal failure reachable within a small budget.
    fn start(&self, cfg: &SimConfig, net: &mut Net<'_, Self>) -> (Svc, Clients) {
        let mut machine = SvcMachine::new(SvcConfig {
            exec_slots: 1,
            max_crash_retries: 1,
            ..SvcConfig::default()
        });
        if cfg.mutate {
            machine.disable_dedup_fanout();
        }
        let intruder = self.intruder.as_ref().map(|_| ("mallory", &[Intrude][..]));
        // Every client connects up front; faults model resets after.
        let clients = (CAST.into_iter().chain(intruder).enumerate())
            .map(|(c, (tenant, script))| {
                net.schedule(0, SvcEv::Client(c));
                assert_eq!(net.connect(), Some(c as u64), "client c holds conn c");
                let client = Client::default();
                Client {
                    tenant,
                    script,
                    ..client
                }
            })
            .collect();
        let (tx, tasks) = mpsc::channel();
        let clients = Clients {
            clients,
            tasks,
            inflight: BTreeMap::new(),
            started: BTreeSet::new(),
            completed: BTreeMap::new(),
            banned: BTreeSet::new(),
        };
        (Svc::new(machine, tx), clients)
    }

    fn input(
        &self,
        peers: &mut Clients,
        net: &mut Net<'_, Self>,
        input: Input<SvcEv>,
    ) -> Result<(), SimError> {
        match input {
            Input::Own(SvcEv::Client(c)) => self.act(peers, net, c),
            Input::Own(SvcEv::Exec(exec)) => {
                let Some(seed) = peers.inflight.remove(&exec) else {
                    return Ok(());
                };
                let result = if net.pick_fault(&[Fault::ExecCrash]).is_some() {
                    Err("simulated crash".to_string())
                } else {
                    *peers.completed.entry(seed).or_insert(0) += 1;
                    Ok(self.cells[&seed].1.clone())
                };
                net.command(Command::Exec { exec, result });
            }
            Input::Frame(conn, payload) => return peers.received(conn, &payload),
            Input::Closed(conn) => peers.clients[conn as usize].gone = true,
        }
        Ok(())
    }

    /// Every task the adapter queued becomes a pending execution.
    fn answer(&self, peers: &mut Clients, net: &mut Net<'_, Self>) -> Result<(), SimError> {
        while let Ok((exec, job)) = peers.tasks.try_recv() {
            if peers.banned.contains(&job.spec.seed) {
                return Err(SimError::CancelledButRan(job.spec.seed));
            }
            peers.started.insert(job.spec.seed);
            peers.inflight.insert(exec, job.spec.seed);
            net.schedule(0, SvcEv::Exec(exec));
        }
        Ok(())
    }

    fn quiet(&self, _peers: &mut Clients, net: &mut Net<'_, Self>) {
        net.command(Command::Stop);
    }

    fn finish(&self, peers: Clients, svc: Svc) -> Result<(), SimError> {
        if !svc.machine().is_idle() {
            return Err(SimError::NotIdle(svc.machine().queue_depth()));
        }
        if let Some((&seed, &times)) = peers.completed.iter().find(|(_, &n)| n > 1) {
            return Err(SimError::ExecutedTwice { seed, times });
        }
        for (c, client) in peers.clients.iter().enumerate() {
            if !client.gone && client.script.contains(&Intrude) {
                return Err(SimError::PeerNotClosed(c as u64));
            }
            let owed = client.tickets.iter().filter(|_| !client.gone);
            for (&ticket, track) in owed.filter(|(_, t)| !t.cancelled && !t.failed) {
                let Some((golden, merged)) = &track.done else {
                    return Err(SimError::LostSubscriber { client: c, ticket });
                };
                let want = &self.cells[&track.seed].1;
                let mut chunks = track.chunks.clone();
                chunks.sort_by_key(|(start, _)| *start);
                let mut records = Vec::new();
                for (start, part) in chunks {
                    if start as usize != records.len() {
                        let at = records.len() as u64;
                        return Err(SimError::StreamGap { ticket, at });
                    }
                    records.extend(part);
                }
                let what = if records != want.records {
                    "records"
                } else if *golden != want.golden || *merged != want.merged {
                    "Done epilogue"
                } else {
                    continue;
                };
                return Err(SimError::StreamDiverged { ticket, what });
            }
        }
        Ok(())
    }
}

impl Clients {
    /// A frame from the service reaches connection `conn`.
    fn received(&mut self, conn: u64, payload: &[u8]) -> Result<(), SimError> {
        let unexpected = |frame| SimError::UnexpectedFrame { conn, frame };
        let msg = Message::decode(payload).map_err(|e| unexpected(e.to_string()))?;
        let client = &mut self.clients[conn as usize];
        let unknown = |ticket| unexpected(format!("frame for unknown ticket {ticket}"));
        let tickets = &mut client.tickets;
        match msg {
            Message::Error { .. } if client.script.contains(&Intrude) => {}
            _ if client.script.contains(&Intrude) => return Err(unexpected(format!("{msg:?}"))),
            Message::HelloAck { .. } | Message::Progress { .. } => {}
            Message::Accepted { req, ticket, .. } => {
                let Some(&seed) = client.reqs.get(&req) else {
                    return Err(unexpected(format!("Accepted for unknown req {req}")));
                };
                tickets.insert(
                    ticket,
                    Track {
                        seed,
                        ..Track::default()
                    },
                );
            }
            Message::Chunk {
                ticket,
                start,
                records,
            } => {
                let track = tickets.get_mut(&ticket).ok_or_else(|| unknown(ticket))?;
                track.chunks.push((start, records));
            }
            Message::Done {
                ticket,
                golden,
                merged,
            } => {
                let track = tickets.get_mut(&ticket).ok_or_else(|| unknown(ticket))?;
                if track.done.replace((golden, merged)).is_some() {
                    return Err(unexpected(format!("second Done for ticket {ticket}")));
                }
            }
            Message::Failed { ticket, .. } => {
                tickets
                    .get_mut(&ticket)
                    .ok_or_else(|| unknown(ticket))?
                    .failed = true;
            }
            Message::Cancelled { ticket } => {
                // A cancel that raced its ticket's end is acknowledged too.
                let Some(track) = tickets.get_mut(&ticket) else {
                    return Ok(());
                };
                track.cancelled = true;
                let seed = track.seed;
                // Sole subscriber of a not-yet-started cell: the
                // machine promised never to run it.
                let subscribed = (self.clients.iter().filter(|cl| !cl.gone))
                    .flat_map(|cl| cl.tickets.values())
                    .any(|t| t.seed == seed && t.open());
                if !subscribed && !self.started.contains(&seed) {
                    self.banned.insert(seed);
                }
            }
            // A rejected valid submit, a protocol error, or a
            // client-side frame.
            other => return Err(unexpected(format!("{other:?}"))),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_dfs, explore_random, ScheduleChooser};
    use crate::world::{run_sim, world, FaultBudget};

    fn cfg(faults: u32, mutate: bool) -> SimConfig {
        SimConfig {
            faults: FaultBudget(faults),
            mutate,
        }
    }

    #[test]
    fn benign_schedule_passes_every_invariant() {
        let scenario = SvcScenario::standard();
        let mut chooser = ScheduleChooser::new(Vec::new());
        let report =
            run_sim(&scenario, &cfg(1, false), &mut chooser).expect("benign schedule passes");
        assert!(report.steps > 0);
        assert_eq!(report.faults_injected(), 0);
    }

    #[test]
    fn bounded_dfs_and_random_sweeps_are_clean() {
        let scenario = SvcScenario::standard();
        let cfg = cfg(1, false);
        let dfs = explore_dfs(60, world(&scenario, &cfg));
        assert!(dfs.failure.is_none(), "DFS failure: {:?}", dfs.failure);
        let random = explore_random(0x5E41_11CE, 24, world(&scenario, &cfg));
        assert!(
            random.failure.is_none(),
            "random failure: {:?}",
            random.failure
        );
    }

    #[test]
    fn disabling_dedup_fanout_is_caught_and_replays() {
        let scenario = SvcScenario::standard();
        let cfg = cfg(1, true);
        let report = explore_dfs(200, world(&scenario, &cfg));
        let (schedule, err) = report
            .failure
            .expect("the planted fan-out bug must be found");
        assert!(
            matches!(err, SimError::LostSubscriber { .. }),
            "wrong violation: {err}"
        );
        let mut replay = ScheduleChooser::new(schedule);
        let replayed = run_sim(&scenario, &cfg, &mut replay).expect_err("replay must fail");
        assert_eq!(replayed, err, "schedule replay diverged");
    }

    #[test]
    fn crash_schedules_stay_exactly_once() {
        // Spend a bigger fault budget on random schedules: crashes,
        // resets, and retries must never double-execute a cell or lose
        // a surviving subscriber.
        let scenario = SvcScenario::standard();
        let random = explore_random(0x000C_4A54_u64, 48, world(&scenario, &cfg(2, false)));
        assert!(
            random.failure.is_none(),
            "random failure: {:?}",
            random.failure
        );
    }

    /// A client opening with `frame` reaches `Svc::step`'s error arms:
    /// `finish` requires that it got nothing but `Error` (so no ticket)
    /// and was closed, and every other invariant must still hold.
    fn intruder_is_closed_and_the_rest_holds(frame: Vec<u8>) {
        let scenario = SvcScenario {
            intruder: Some(frame),
            ..SvcScenario::standard()
        };
        let mut chooser = ScheduleChooser::new(Vec::new());
        run_sim(&scenario, &cfg(0, false), &mut chooser).expect("benign schedule passes");
        let cfg = cfg(2, false);
        let dfs = explore_dfs(120, world(&scenario, &cfg));
        assert!(dfs.failure.is_none(), "DFS failure: {:?}", dfs.failure);
        let random = explore_random(0x1A7E, 48, world(&scenario, &cfg));
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
            tenant: "mallory".into(),
        };
        intruder_is_closed_and_the_rest_holds(hello.encode().expect("hello encodes"));
    }
}
