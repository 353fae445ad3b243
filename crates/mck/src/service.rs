//! The one scenario: the campaign server machine
//! ([`nestsim_cluster::ServiceMachine`]) with two restarting
//! [`WorkerMachine`] slots and a cast of scripted tenants, all speaking
//! real `Message` frames.
//!
//! One tenant is the campaign: it submits the real engine's cell as a
//! `RemoteExecutor` submits a round, and no fault ever resets it. A dead
//! worker restarts on a fresh connection until it is told `done`. The
//! other tenants act one frame at a time — hello, submit (several submit
//! the *same* cell), cancel, disconnect. Cells go to the workers while
//! one is connected, else to the machine's execution pool, whose tasks
//! become pending executions here; with no other tenant there is no
//! pool, as `run_cluster` binds the machine, and cells wait for a
//! worker. Once nothing is left to fire, `Shutdown` dismisses the
//! workers and hangs up on the tenants.
//!
//! Faults come in the six flavours of [`Fault`]: a worker crashes
//! mid-shard or loses a request to a reset; an execution or a worker's
//! frame stalls past its lease; a `Submit` lands twice; a `SubmitAck`
//! is lost, so the worker restarts with its shard already accepted; a
//! tenant's request is lost to a reset; an in-process execution
//! crashes (retry, then failure).
//!
//! **Invariants.** The machine crashes a cell only when a fault crashed
//! its execution: a leased cell whose accepted shards count a sample
//! twice, or miss one, fails the machine's cover check, which would show
//! as a crash nothing injected. No tenant gets a frame it is not owed (a
//! cell fails only after an injected crash), a cell completes in process
//! at most once, every surviving subscriber gets one terminal reply
//! whose chunks reassemble byte-identically — in process or on leases,
//! so the campaign's records, golden reference and merged telemetry
//! equal the in-process engine's — a queued cell whose sole subscriber
//! cancelled never starts, and the machine ends idle.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;

use nestsim_cluster::machine::{Command, ServiceMachine, SvcConfig};
use nestsim_cluster::proto::{JobWire, Message, RunWire, PROTOCOL_VERSION};
use nestsim_cluster::store::ExecOutput;
use nestsim_cluster::{
    LeaseConfig, WorkerAction, WorkerEnd, WorkerEvent, WorkerMachine, WorkerOptions,
};
use nestsim_core::campaign::CampaignSpec;
use nestsim_core::inject::GoldenRef;
use nestsim_core::{InjectionRecord, Outcome};
use nestsim_hlsim::workload::by_name;
use nestsim_models::ComponentKind;
use nestsim_telemetry::{names, Recorder, TelemetryConfig};

use crate::exec::CampaignExec;
use crate::world::{Fault, Input, Mutation, Net, SimConfig, SimError, DELAY_MS};
use ClientAct::*;

/// Worker slots.
const WORKERS: usize = 2;
/// Lease timing in virtual ms, small so expiry and backoff are
/// reachable within short schedules.
pub(crate) const LEASE: LeaseConfig = LeaseConfig {
    lease_ms: 10,
    heartbeat_ms: 4,
    backoff_ms: 2,
};
/// A prompt injection run, in virtual ms.
const EXEC_MS: u64 = 1;
/// Dead-worker restart delay, in virtual ms.
const RESTART_MS: u64 = 1;
/// Samples per tenant cell.
const CELL_SAMPLES: u64 = 5;

/// One scripted tenant action.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ClientAct {
    /// Handshake.
    Hello,
    /// Submit the cell with this seed.
    Submit(u64),
    /// Submit the campaign's cell.
    SubmitCampaign,
    /// Cancel the most recent still-open ticket (no-op if none).
    CancelLast,
    /// Close the connection deliberately.
    Disconnect,
    /// Send the scenario's intruder frame, owed only `Error` and a close.
    Intrude,
}

/// Three tenants, three cells: two submitted by two tenants each (dedup
/// and fan-out), one cancelled by its sole subscriber, and one tenant
/// disconnecting with a subscription open.
const CAST: [(&str, &[ClientAct]); 3] = [
    ("alice", &[Hello, Submit(1), Submit(2)]),
    ("bob", &[Hello, Submit(1), Submit(3), CancelLast]),
    ("carol", &[Hello, Submit(2), Disconnect]),
];

/// The campaign's client, connected after the cast.
const CAMPAIGN: (&str, &[ClientAct]) = ("campaign", &[Hello, SubmitCampaign]);

/// The campaign cell and the tenants' cells, built once outside the
/// explored world so schedules only replay protocol behaviour.
pub struct ServerScenario<'a> {
    exec: &'a CampaignExec,
    /// seed → a cell's job and what running it yields; the campaign's
    /// cell among them.
    cells: BTreeMap<u64, (JobWire, ExecOutput)>,
    /// The scripted tenants besides the campaign: [`CAST`], or none for
    /// the campaign alone.
    cast: &'static [(&'static str, &'static [ClientAct])],
    /// A further tenant that opens with this frame.
    intruder: Option<Vec<u8>>,
}

impl<'a> ServerScenario<'a> {
    /// The campaign cell of `exec` for two workers, beside the standard
    /// cast of tenants.
    pub fn new(exec: &'a CampaignExec) -> ServerScenario<'a> {
        let cell = |seed| (seed, (cell_job(seed), cell_output(seed)));
        let mut cells: BTreeMap<_, _> = [1, 2, 3].map(cell).into();
        let campaign = (exec.job().clone(), exec.output());
        let seed = exec.job().spec.seed;
        assert!(
            cells.insert(seed, campaign).is_none(),
            "seed {seed} is a tenant's"
        );
        ServerScenario {
            exec,
            cells,
            cast: &CAST,
            intruder: None,
        }
    }

    /// The campaign alone: the workers and the campaign's client on a
    /// machine with no execution pool, as a cluster campaign runs it.
    pub fn round_only(exec: &'a CampaignExec) -> ServerScenario<'a> {
        ServerScenario {
            cast: &[],
            ..ServerScenario::new(exec)
        }
    }

    /// This scenario with a further tenant that opens with `frame`.
    #[cfg(test)]
    pub(crate) fn with_intruder(self, frame: Vec<u8>) -> ServerScenario<'a> {
        ServerScenario {
            intruder: Some(frame),
            ..self
        }
    }

    /// What executing entry-order position `pos` of `job` yields.
    fn run(&self, job: &JobWire, pos: u64) -> (RunWire, GoldenRef) {
        if job == self.exec.job() {
            return (self.exec.run(pos), self.exec.golden());
        }
        let output = &self.cells[&job.spec.seed].1;
        let run = RunWire {
            sample: pos,
            record: output.records[pos as usize].clone(),
            recorder: Recorder::null(),
        };
        (run, output.golden)
    }

    /// Tenant `c` performs its next scripted action.
    fn act(&self, peers: &mut Peers, net: &mut Net<'_>, c: usize) {
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
            Submit(_) | SubmitCampaign => {
                let seed = match act {
                    Submit(seed) => seed,
                    _ => self.exec.job().spec.seed,
                };
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
            // The campaign's rounds must complete: no reset hits it.
            let faults: &[Fault] = if client.script.contains(&SubmitCampaign) {
                &[]
            } else {
                &[Fault::Disconnect]
            };
            net.send(conn, payload, faults);
        }
        if client.next < client.script.len() {
            net.schedule(0, Ev::Client(c));
        }
    }
}

/// A small, valid job parameterised only by seed (the seed is part of
/// the determinism key, so distinct seeds are distinct cells).
fn cell_job(seed: u64) -> JobWire {
    let mut spec = CampaignSpec::quick(ComponentKind::L2c, CELL_SAMPLES);
    spec.seed = seed;
    JobWire::from_spec(by_name("radi").expect("radi profile exists"), &spec, None)
}

/// A synthetic but deterministic output for one tenant cell, its
/// samples in entry order. The tenants check *delivery* (exactly-once
/// execution, lossless fan-out, chunk reassembly, the leased cell's
/// assembly), so the records only need to be distinctive per cell; the
/// campaign round checks the real engine's bytes.
fn cell_output(seed: u64) -> ExecOutput {
    ExecOutput {
        golden: GoldenRef {
            digest: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            cycles: 1_000 + seed,
        },
        records: (0..CELL_SAMPLES as usize)
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

/// Tenant `c` holds connection `c`: the world numbers connections in
/// connect order, and the cast connects first, in index order.
#[derive(Default)]
struct Client {
    tenant: &'static str,
    script: &'static [ClientAct],
    next: usize,
    /// Disconnected; a gone tenant is owed nothing.
    gone: bool,
    /// req id → submitted cell seed.
    reqs: BTreeMap<u64, u64>,
    /// Accepted tickets; the machine mints them in acceptance order.
    tickets: BTreeMap<u64, Track>,
}

#[derive(Default)]
struct Slot {
    machine: Option<WorkerMachine>,
    /// The current incarnation's connection.
    conn: u64,
    /// The job of its last `Assign`.
    job: Option<JobWire>,
}

/// One schedule's peers: workers, tenants and the executions they
/// caused.
pub struct Peers {
    slots: Vec<Slot>,
    clients: Vec<Client>,
    /// The tasks the machine hands its execution pool.
    tasks: mpsc::Receiver<(u64, JobWire)>,
    /// exec id → cell seed.
    inflight: BTreeMap<u64, u64>,
    /// Cells that started executing, in process or on leases.
    started: BTreeSet<u64>,
    /// seed → in-process executions completed successfully.
    completed: BTreeMap<u64, u64>,
    /// Cells an injected crash hit: the only ones that may fail.
    crashed: BTreeSet<u64>,
    /// Executions an injected crash ended.
    crashes: u64,
    /// Cells whose sole subscriber cancelled while still queued: any
    /// later start is a violation.
    banned: BTreeSet<u64>,
    /// What was still owed when the world fell quiet.
    stranded: Option<SimError>,
}

/// A scenario event, addressed to one worker incarnation by its
/// connection where it concerns a worker.
pub enum Ev {
    /// Worker slot `w` (re)starts.
    Start(usize),
    /// A worker's `Sleep` elapsed.
    Wake { w: usize, conn: u64 },
    /// A worker finished executing entry-order position `pos`.
    Executed { w: usize, conn: u64, pos: u64 },
    /// Tenant `c` performs its next scripted action.
    Client(usize),
    /// In-process execution `exec` finishes (or crashes).
    Exec(u64),
}

/// The world's hooks: what the scenario does at each turn of it.
impl ServerScenario<'_> {
    /// One execution slot keeps queueing and DRR reachable; one crash
    /// retry keeps terminal failure reachable within a small budget.
    /// The machine counts crashes for the cover invariant.
    pub(crate) fn start(&self, cfg: &SimConfig, net: &mut Net<'_>) -> (ServiceMachine, Peers) {
        let (tx, tasks) = mpsc::channel();
        let svc = SvcConfig {
            exec_slots: 1,
            max_crash_retries: 1,
            ..SvcConfig::default()
        };
        let stats = Recorder::active(&TelemetryConfig::default());
        let pool = (!self.cast.is_empty()).then_some(tx);
        let mut machine = ServiceMachine::new(svc, LEASE, stats, pool);
        match cfg.mutate {
            Some(Mutation::FirstWriterWins) => machine.disable_first_writer_wins(),
            Some(Mutation::DedupFanout) => machine.disable_dedup_fanout(),
            None => {}
        }
        let intruder = self.intruder.as_ref().map(|_| ("mallory", &[Intrude][..]));
        let cast = self.cast.iter().copied().chain([CAMPAIGN]).chain(intruder);
        // Every tenant connects up front; faults model resets after.
        let clients = (cast.enumerate())
            .map(|(c, (tenant, script))| {
                net.schedule(0, Ev::Client(c));
                assert_eq!(net.connect(), Some(c as u64), "client c holds conn c");
                let client = Client::default();
                Client {
                    tenant,
                    script,
                    ..client
                }
            })
            .collect();
        // Stagger start-up so the first handshakes are ordered by
        // default; the chooser can still interleave everything later.
        for w in 0..WORKERS {
            net.schedule(w as u64, Ev::Start(w));
        }
        let peers = Peers {
            slots: (0..WORKERS).map(|_| Slot::default()).collect(),
            clients,
            tasks,
            inflight: BTreeMap::new(),
            started: BTreeSet::new(),
            completed: BTreeMap::new(),
            crashed: BTreeSet::new(),
            crashes: 0,
            banned: BTreeSet::new(),
            stranded: None,
        };
        (machine, peers)
    }

    pub(crate) fn input(
        &self,
        peers: &mut Peers,
        net: &mut Net<'_>,
        input: Input,
    ) -> Result<(), SimError> {
        let (w, event) = match input {
            Input::Own(Ev::Client(c)) => {
                self.act(peers, net, c);
                return Ok(());
            }
            Input::Own(Ev::Exec(exec)) => {
                let Some(seed) = peers.inflight.remove(&exec) else {
                    return Ok(());
                };
                let result = if net.pick_fault(&[Fault::ExecCrash]).is_some() {
                    peers.crashed.insert(seed);
                    peers.crashes += 1;
                    Err("simulated crash".to_string())
                } else {
                    *peers.completed.entry(seed).or_insert(0) += 1;
                    Ok(self.cells[&seed].1.clone())
                };
                net.command(Command::Exec { exec, result });
                return Ok(());
            }
            Input::Frame(conn, payload) if (conn as usize) < peers.clients.len() => {
                return peers.received(conn, &payload)
            }
            Input::Closed(conn) if (conn as usize) < peers.clients.len() => {
                peers.clients[conn as usize].gone = true;
                return Ok(());
            }
            Input::Own(Ev::Start(w)) => {
                let Some(conn) = net.connect() else {
                    return Ok(()); // the machine stopped listening
                };
                peers.slots[w] = Slot {
                    machine: Some(WorkerMachine::new(WorkerOptions::default())),
                    conn,
                    job: None,
                };
                (w, WorkerEvent::Start)
            }
            // Mail for a dead incarnation dies with it.
            Input::Own(Ev::Wake { w, conn } | Ev::Executed { w, conn, .. })
                if peers.live(conn) != Some(w) =>
            {
                return Ok(())
            }
            Input::Own(Ev::Wake { w, .. }) => (w, WorkerEvent::Woke),
            // Forward cycles and restores feed only throughput counters,
            // and this machine counts nothing.
            Input::Own(Ev::Executed { w, pos, .. }) => {
                let job = peers.slots[w].job.as_ref().expect("executing a leased job");
                let (run, golden) = self.run(job, pos);
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
                let Some(w) = peers.live(conn) else {
                    return Ok(());
                };
                if let Message::Assign { job, .. } = &msg {
                    peers.start(job.spec.seed)?;
                    peers.slots[w].job = Some((**job).clone());
                }
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

    /// A worker may lose its `SubmitAck` or get any reply late; replies
    /// to tenants are never faulted, since a lost reply *is* a lost
    /// connection.
    pub(crate) fn reply_faults(&self, conn: u64, payload: &[u8]) -> &'static [Fault] {
        let tenants = self.cast.len() + 1 + usize::from(self.intruder.is_some());
        match Message::decode(payload) {
            _ if (conn as usize) < tenants => &[],
            Ok(Message::SubmitAck { .. }) => &[Fault::LostAck, Fault::Stall],
            _ => &[Fault::Stall],
        }
    }

    /// Every crash the machine counted must be one the scenario
    /// injected, and every task the machine queued becomes a pending
    /// execution.
    pub(crate) fn answer(
        &self,
        peers: &mut Peers,
        net: &mut Net<'_>,
        machine: &ServiceMachine,
    ) -> Result<(), SimError> {
        let crashes = machine.stats().counter(names::SVC_EXEC_CRASHES);
        if crashes > peers.crashes {
            let injected = peers.crashes;
            return Err(SimError::UnexplainedCrash { crashes, injected });
        }
        while let Ok((exec, job)) = peers.tasks.try_recv() {
            peers.start(job.spec.seed)?;
            peers.inflight.insert(exec, job.spec.seed);
            net.schedule(EXEC_MS, Ev::Exec(exec));
        }
        Ok(())
    }

    /// Nothing can reply any more, so whatever a live tenant is still
    /// owed is lost, and an intruder must have been hung up on by now;
    /// then the operator shuts the server down.
    pub(crate) fn quiet(&self, peers: &mut Peers, net: &mut Net<'_>) {
        for (c, client) in peers.clients.iter().enumerate().filter(|(_, cl)| !cl.gone) {
            let open = client.tickets.iter().find(|(_, track)| track.open());
            if let Some((&ticket, _)) = open {
                peers.stranded = Some(SimError::LostSubscriber { client: c, ticket });
            } else if client.script.contains(&Intrude) {
                peers.stranded = Some(SimError::PeerNotClosed(c as u64));
            }
        }
        net.command(Command::Shutdown);
    }

    /// Checks every invariant at the end of the world.
    pub(crate) fn finish(&self, peers: Peers, machine: ServiceMachine) -> Result<(), SimError> {
        if let Some(stranded) = peers.stranded {
            return Err(stranded);
        }
        if !machine.is_idle() {
            return Err(SimError::NotIdle(machine.queue_depth()));
        }
        if let Some((&seed, &times)) = peers.completed.iter().find(|(_, &n)| n > 1) {
            return Err(SimError::ExecutedTwice { seed, times });
        }
        for (&ticket, track) in peers.clients.iter().flat_map(|cl| &cl.tickets) {
            if let Some((golden, merged)) = &track.done {
                self.check_stream(ticket, track, golden, merged)?;
            }
        }
        Ok(())
    }
}

impl ServerScenario<'_> {
    /// A delivered ticket's chunks reassemble to its cell's output.
    fn check_stream(
        &self,
        ticket: u64,
        track: &Track,
        golden: &GoldenRef,
        merged: &Recorder,
    ) -> Result<(), SimError> {
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
            return Ok(());
        };
        Err(SimError::StreamDiverged { ticket, what })
    }
}

impl Peers {
    /// The slot whose live incarnation holds `conn`.
    fn live(&self, conn: u64) -> Option<usize> {
        (self.slots.iter()).position(|s| s.conn == conn && s.machine.is_some())
    }

    /// A tenant cell starts, in process or on leases.
    fn start(&mut self, seed: u64) -> Result<(), SimError> {
        if self.banned.contains(&seed) {
            return Err(SimError::CancelledButRan(seed));
        }
        self.started.insert(seed);
        Ok(())
    }

    /// Steps worker `w` and performs its actions.
    fn step(&mut self, net: &mut Net<'_>, w: usize, ev: WorkerEvent) {
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
                        &[Fault::Crash, Fault::Stall, Fault::Duplicate]
                    } else {
                        &[Fault::Crash, Fault::Stall]
                    };
                    net.send(conn, msg.encode().expect("worker frames encode"), faults);
                }
                WorkerAction::Sleep { ms } => net.schedule(ms.max(1), Ev::Wake { w, conn }),
                WorkerAction::Execute { pos } => {
                    let delay = match net.pick_fault(&[Fault::Crash, Fault::Stall]) {
                        Some(Fault::Crash) => return self.died(net, w, false, true),
                        Some(_) => DELAY_MS,
                        None => EXEC_MS,
                    };
                    net.schedule(delay, Ev::Executed { w, conn, pos });
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
    fn died(&mut self, net: &mut Net<'_>, w: usize, clean: bool, restart: bool) {
        let slot = &mut self.slots[w];
        slot.machine = None;
        net.hang_up(slot.conn, clean);
        if restart {
            net.schedule(RESTART_MS, Ev::Start(w));
        }
    }

    /// A frame from the machine reaches tenant connection `conn`.
    fn received(&mut self, conn: u64, payload: &[u8]) -> Result<(), SimError> {
        let unexpected = |frame| SimError::UnexpectedFrame { conn, frame };
        let msg = Message::decode(payload).map_err(|e| unexpected(e.to_string()))?;
        let client = &mut self.clients[conn as usize];
        let unknown = |ticket| unexpected(format!("frame for unknown ticket {ticket}"));
        let tickets = &mut client.tickets;
        match msg {
            Message::Error { .. } if client.script.contains(&Intrude) => {}
            _ if client.script.contains(&Intrude) => return Err(unexpected(format!("{msg:?}"))),
            Message::HelloAck { .. } => {}
            Message::Accepted { req, ticket, .. } => {
                let Some(&seed) = client.reqs.get(&req) else {
                    return Err(unexpected(format!("Accepted for unknown req {req}")));
                };
                let track = Track {
                    seed,
                    ..Track::default()
                };
                tickets.insert(ticket, track);
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
            Message::Failed { ticket, reason } => {
                let track = tickets.get_mut(&ticket).ok_or_else(|| unknown(ticket))?;
                // Only an injected crash may fail a valid cell.
                if !self.crashed.contains(&track.seed) {
                    return Err(unexpected(format!("Failed without a crash: {reason}")));
                }
                track.failed = true;
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
            // worker-side frame.
            other => return Err(unexpected(format!("{other:?}"))),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

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

    fn cfg(faults: u32, mutate: Option<Mutation>) -> SimConfig {
        SimConfig {
            faults: FaultBudget(faults),
            mutate,
        }
    }

    #[test]
    fn benign_schedule_passes_every_invariant() {
        let scenario = ServerScenario::new(cell());
        let mut chooser = ScheduleChooser::new(Vec::new());
        let report = run_sim(&scenario, &cfg(1, None), &mut chooser).expect("benign schedule");
        assert!(report.steps > 0);
        assert_eq!(report.faults_injected(), 0);
    }

    #[test]
    fn bounded_dfs_and_random_sweeps_are_clean() {
        let scenario = ServerScenario::new(cell());
        let cfg = cfg(1, None);
        let dfs = explore_dfs(60, world(&scenario, &cfg));
        assert!(dfs.failure.is_none(), "DFS failure: {:?}", dfs.failure);
        let random = explore_random(0x5E41_11CE, 24, world(&scenario, &cfg));
        assert!(random.failure.is_none(), "random: {:?}", random.failure);
    }

    #[test]
    fn disabling_dedup_fanout_is_caught_and_replays() {
        let scenario = ServerScenario::new(cell());
        let cfg = cfg(1, Some(Mutation::DedupFanout));
        let hunt = explore_random(0xD0C5_2015, 48, world(&scenario, &cfg));
        let (seed, schedule, err) = hunt.failure.expect("the planted fan-out bug must be found");
        assert!(
            matches!(err, SimError::LostSubscriber { .. }),
            "wrong violation: {err}"
        );
        let mut by_seed = crate::explore::RandomChooser::new(seed);
        let replayed = run_sim(&scenario, &cfg, &mut by_seed).expect_err("seed replay fails");
        assert_eq!(replayed, err, "seed replay diverged");
        let mut replay = ScheduleChooser::new(schedule);
        let replayed = run_sim(&scenario, &cfg, &mut replay).expect_err("replay must fail");
        assert_eq!(replayed, err, "schedule replay diverged");
    }

    #[test]
    fn crash_schedules_stay_exactly_once() {
        // Spend a bigger fault budget on random schedules: crashes,
        // resets, and retries must never double-execute a cell, lose a
        // surviving subscriber or miscount a sample.
        let scenario = ServerScenario::new(cell());
        let random = explore_random(0x000C_4A54_u64, 48, world(&scenario, &cfg(3, None)));
        assert!(random.failure.is_none(), "random: {:?}", random.failure);
    }

    /// A tenant opening with `frame` reaches the machine's error arms:
    /// it may get nothing but `Error` (so no ticket) and must be closed
    /// before the world falls quiet, and every other invariant must
    /// still hold.
    fn intruder_is_closed_and_the_rest_holds(frame: Vec<u8>) {
        let scenario = ServerScenario {
            intruder: Some(frame),
            ..ServerScenario::new(cell())
        };
        let mut chooser = ScheduleChooser::new(Vec::new());
        run_sim(&scenario, &cfg(0, None), &mut chooser).expect("benign schedule passes");
        let cfg = cfg(2, None);
        let dfs = explore_dfs(60, world(&scenario, &cfg));
        assert!(dfs.failure.is_none(), "DFS failure: {:?}", dfs.failure);
        let random = explore_random(0x1A7E, 24, world(&scenario, &cfg));
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
