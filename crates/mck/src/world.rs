//! The one simulated world: a virtual clock, a `(time, seq)` event
//! queue, a fault budget and a connection table around the very
//! [`ServiceMachine`] the server loop ([`nestsim_cluster::server`])
//! drives, so every schedule runs the decoding, close, accounting and
//! command paths a deployment runs. The [`ServerScenario`] brings the
//! peers, answers the machine's side channels and checks the end state.
//!
//! It feeds [`Event`]s with real frame payloads and performs
//! [`Action`]s the way the epoll loop does:
//!
//! * a `Close` lands at the peer after every earlier `Send` to it, and
//!   the machine hears no `Closed` for a close it asked for;
//! * `Drain` stops new connections and hangs up on every peer that has
//!   not sent a whole frame; the world ends once no connection is left;
//! * `Exit` ends the world.
//!
//! A connection is FIFO: a frame or close lands strictly after the one
//! before it. Every peer incarnation connects afresh, so a connection id
//! names one incarnation and a dead one's mail dies with its connection.
//!
//! Everything the physical world decides is a [`Chooser`] pick: which
//! event due at the earliest instant fires first, and each fault point
//! (benign, or a [`Fault`] its scenario names). Faults draw from a
//! finite [`FaultBudget`]; once it is spent, fault points leave the
//! choice tree. That keeps bounded DFS bounded and makes the liveness
//! bound honest: *under finitely many faults, the world ends*.

use std::collections::{BTreeMap, VecDeque};

use nestsim_cluster::machine::{Command, ServiceMachine};
use nestsim_cluster::server::{Action, Event};

use crate::explore::Chooser;
use crate::service::{Ev as PeerEv, Peers, ServerScenario};

/// One link hop, in virtual ms.
const HOP_MS: u64 = 1;
/// How late a [`Fault::Stall`] lands past the hop, in virtual ms: long
/// enough to outlive a lease plus backoff, so stalled frames and
/// executions land in genuinely expired worlds.
pub(crate) const DELAY_MS: u64 = 2 * crate::service::LEASE.lease_ms + 5;
/// Events one schedule may fire before it fails liveness.
const MAX_STEPS: usize = 20_000;

/// How many faulty picks a schedule may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBudget(pub u32);

/// What can go wrong at a fault point: the six fault flavours of the
/// one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A worker dies where it stands, or its request is lost to a
    /// connection reset that both ends see, like TCP.
    Crash,
    /// A worker's execution, or a frame to or from it, outlives its
    /// lease: it lands [`DELAY_MS`] late.
    Stall,
    /// A `Submit` lands twice, as from an at-least-once retry layer,
    /// which also absorbs the replies to the echo.
    Duplicate,
    /// A `SubmitAck` is lost to a connection reset.
    LostAck,
    /// A tenant's request is lost to a connection reset.
    Disconnect,
    /// An in-process execution crashes.
    ExecCrash,
}

impl Fault {
    /// Each flavour's name in reports, in [`SimReport::faults`] order.
    pub const NAMES: [&str; 6] = [
        "worker crash",
        "stall past lease",
        "duplicate Submit",
        "lost SubmitAck",
        "tenant disconnect",
        "exec crash",
    ];

    /// The frame is lost to a reset rather than delivered.
    fn resets(self) -> bool {
        matches!(self, Fault::Crash | Fault::LostAck | Fault::Disconnect)
    }
}

/// A bug [`SimConfig::mutate`] plants in the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Duplicate shard completions are merged: the explorer must find
    /// a double count.
    FirstWriterWins,
    /// A cell's result reaches only its first subscriber: the explorer
    /// must find a lost subscriber.
    DedupFanout,
}

/// Random-driver odds of the benign alternative at each fault point,
/// relative to 1 per fault flavour: a uniform pick would spend the
/// budget on the first few points, so the few budgeted faults of a
/// schedule scatter across the whole run instead.
const BENIGN_WEIGHT: u32 = 20;

/// How one schedule runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Maximum faulty picks per schedule.
    pub faults: FaultBudget,
    /// Plant a bug in the machine, which the explorer must then find.
    pub mutate: Option<Mutation>,
}

/// An invariant violation found on one schedule, one variant per
/// invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The campaign thread's round failed, or never settled.
    Coordinator(String),
    /// This sample is missing from the merged results.
    SampleLost(u64),
    /// This sample appears more than once in the merged results.
    SampleDoubleCounted(u64),
    /// This sample's merged bytes differ from the engine's cached run.
    ResultDiverged(u64),
    /// This field of the assembled campaign diverged from the
    /// in-process engine's.
    MergeDiverged(&'static str),
    /// The world did not end within the scenario's step bound.
    Liveness {
        /// Events fired before giving up.
        steps: usize,
        /// Events still queued.
        pending: usize,
    },
    /// A surviving subscriber's ticket got no terminal reply.
    LostSubscriber {
        /// The client's index in the scenario.
        client: usize,
        /// The starved ticket.
        ticket: u64,
    },
    /// A cell executed to completion more than once.
    ExecutedTwice {
        /// The cell's seed.
        seed: u64,
        /// Completed executions.
        times: u64,
    },
    /// The cell with this seed started after its sole subscriber
    /// cancelled it while queued.
    CancelledButRan(u64),
    /// A ticket's chunk stream skipped records.
    StreamGap {
        /// The ticket.
        ticket: u64,
        /// The first record no chunk delivered.
        at: u64,
    },
    /// A ticket's stream differs from its cell's output.
    StreamDiverged {
        /// The ticket.
        ticket: u64,
        /// Which part diverged.
        what: &'static str,
    },
    /// A peer got a frame the protocol never owes it.
    UnexpectedFrame {
        /// The peer's connection.
        conn: u64,
        /// What arrived.
        frame: String,
    },
    /// The service still had work running, or this many jobs queued,
    /// at the end.
    NotIdle(usize),
    /// The client on this connection opened with a bad frame and was
    /// never hung up on.
    PeerNotClosed(u64),
}

/// Every violation is its own variant, so its fields say it all.
impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for SimError {}

/// What a passing schedule did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimReport {
    /// Events fired.
    pub steps: usize,
    /// Faulty picks taken, by flavour in [`Fault::NAMES`] order.
    pub faults: [u32; Fault::NAMES.len()],
    /// Final virtual time in milliseconds.
    pub virtual_ms: u64,
}

impl SimReport {
    /// Faulty picks taken, all flavours.
    pub fn faults_injected(&self) -> u32 {
        self.faults.iter().sum()
    }
}

/// What reaches the scenario's peers.
pub enum Input {
    /// A frame's payload from the machine reaches the peer end of a
    /// connection.
    Frame(u64, Vec<u8>),
    /// The peer end of a connection learns that it closed.
    Closed(u64),
    /// One of the scenario's own events fires.
    Own(PeerEv),
}

/// A queued world event.
enum Queued {
    /// A frame reaches the machine; the replies to an echo (`true`) are
    /// absorbed.
    Frame(u64, Vec<u8>, bool),
    /// A close reaches one end of a connection, or both.
    HangUp(u64, End),
    /// [`ServiceMachine::next_wake`] is due.
    Tick,
    /// Something for the peers.
    Peer(Input),
}

/// Where a close lands.
#[derive(Clone, Copy, PartialEq)]
enum End {
    /// The machine's end: the peer hung up, cleanly or not.
    Machine { clean: bool },
    /// The peer's end: the loop dropped the connection.
    Peer,
    /// Both ends: a reset.
    Both,
}

/// One connection, as the loop and the peer each hold it.
#[derive(Default)]
struct Link {
    /// The loop dropped it; it reports no close from now on.
    gone: bool,
    /// The peer no longer holds its end.
    peer_gone: bool,
    /// A whole frame reached the machine.
    greeted: bool,
    /// The latest arrival scheduled on it, either way.
    last: u64,
}

/// Everything in the world but the machine and the peers: what the
/// scenario acts through.
pub struct Net<'c> {
    chooser: &'c mut dyn Chooser,
    queue: BTreeMap<(u64, u64), Queued>,
    /// Events the machine has yet to see, oldest first.
    inbox: VecDeque<Event>,
    links: BTreeMap<u64, Link>,
    seq: u64,
    now: u64,
    steps: usize,
    faults_left: u32,
    taken: [u32; Fault::NAMES.len()],
    tick: Option<(u64, u64)>,
    draining: bool,
    exit: bool,
}

impl Net<'_> {
    /// The virtual clock, in ms.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Queues a scenario event `delay` ms from now. Events due at the
    /// same instant are the chooser's to order.
    pub fn schedule(&mut self, delay: u64, ev: PeerEv) {
        self.queue_at(self.now + delay, Queued::Peer(Input::Own(ev)));
    }

    /// Queues a command for the machine, as the loop's `Waker` would.
    pub fn command(&mut self, cmd: Command) {
        self.inbox.push_back(Event::Command(cmd));
    }

    /// A fault choice point over `menu`: `None` is benign. Spends
    /// budget on a fault; with none left the point has one alternative.
    pub fn pick_fault(&mut self, menu: &[Fault]) -> Option<Fault> {
        if self.faults_left == 0 || menu.is_empty() {
            return None;
        }
        let mut weights = vec![1u32; menu.len() + 1];
        weights[0] = BENIGN_WEIGHT;
        let fault = menu[self.chooser.choose_weighted(&weights).checked_sub(1)?];
        self.faults_left -= 1;
        self.taken[fault as usize] += 1;
        Some(fault)
    }

    /// Connects a new peer incarnation; `None` once the machine drains.
    pub fn connect(&mut self) -> Option<u64> {
        if self.draining {
            return None;
        }
        let conn = self.links.len() as u64;
        self.links.insert(conn, Link::default());
        self.inbox.push_back(Event::Connected { conn });
        Some(conn)
    }

    /// The peer end of `conn` writes a frame, which may take any fault
    /// in `menu`.
    pub fn send(&mut self, conn: u64, payload: Vec<u8>, menu: &[Fault]) {
        if self.links.get(&conn).is_none_or(|l| l.peer_gone) {
            return;
        }
        let fault = self.pick_fault(menu);
        let echo = (fault == Some(Fault::Duplicate)).then(|| payload.clone());
        self.on_link(conn, fault, Queued::Frame(conn, payload, false));
        if let Some(payload) = echo {
            self.on_link(conn, None, Queued::Frame(conn, payload, true));
        }
    }

    /// The peer closes its end of `conn`: an orderly EOF if `clean`,
    /// else a reset. The machine hears of it after the peer's frames.
    pub fn hang_up(&mut self, conn: u64, clean: bool) {
        if let Some(link) = self.links.get_mut(&conn).filter(|l| !l.peer_gone) {
            link.peer_gone = true;
            self.on_link(conn, None, Queued::HangUp(conn, End::Machine { clean }));
        }
    }

    fn queue_at(&mut self, at: u64, ev: Queued) -> (u64, u64) {
        let key = (at, self.seq);
        self.seq += 1;
        self.queue.insert(key, ev);
        key
    }

    /// Sends `ev` along `conn` under `fault`: a reset one hop from now,
    /// overtaking what is in flight; otherwise a hop (plus the delay)
    /// from now and strictly after the link's previous arrival.
    fn on_link(&mut self, conn: u64, fault: Option<Fault>, ev: Queued) {
        let reset = fault.is_some_and(Fault::resets);
        let (ev, delay) = match fault {
            _ if reset => (Queued::HangUp(conn, End::Both), 0),
            Some(Fault::Stall) => (ev, DELAY_MS),
            _ => (ev, 0),
        };
        let mut at = self.now + HOP_MS + delay;
        let link = self.links.get_mut(&conn).expect("links are never removed");
        if !reset {
            at = at.max(link.last + 1);
            link.last = at;
        }
        self.queue_at(at, ev);
    }

    /// Performs one machine action; `absorb` names the connection whose
    /// replies an echo provoked, and a frame may take a fault on `menu`.
    fn perform(&mut self, action: Action, absorb: Option<u64>, menu: &[Fault]) {
        match action {
            Action::Send { conn, payload } => {
                if absorb == Some(conn) || self.links.get(&conn).is_none_or(|l| l.gone) {
                    return; // an echo's reply, or the peer left before its reply did
                }
                let fault = self.pick_fault(menu);
                self.on_link(conn, fault, Queued::Peer(Input::Frame(conn, payload)));
            }
            Action::Close { conn } => self.drop_link(conn, None),
            Action::Drain => {
                self.draining = true;
                for conn in 0..self.links.len() as u64 {
                    if !self.links[&conn].greeted {
                        self.drop_link(conn, Some(Event::Closed { conn, clean: false }));
                    }
                }
            }
            Action::Exit => self.exit = true,
        }
    }

    /// The loop drops `conn`, telling the machine `told`; the peer
    /// learns of it after everything sent before.
    fn drop_link(&mut self, conn: u64, told: Option<Event>) {
        if let Some(link) = self.links.get_mut(&conn).filter(|l| !l.gone) {
            link.gone = true;
            self.inbox.extend(told);
            self.on_link(conn, None, Queued::HangUp(conn, End::Peer));
        }
    }
}

/// Runs one schedule of `scenario` to the end and checks every
/// invariant.
pub fn run_sim(
    scenario: &ServerScenario<'_>,
    cfg: &SimConfig,
    chooser: &mut dyn Chooser,
) -> Result<SimReport, SimError> {
    let mut net = Net {
        chooser,
        queue: BTreeMap::new(),
        inbox: VecDeque::new(),
        links: BTreeMap::new(),
        seq: 0,
        now: 0,
        steps: 0,
        faults_left: cfg.faults.0,
        taken: [0; Fault::NAMES.len()],
        tick: None,
        draining: false,
        exit: false,
    };
    let (machine, peers) = scenario.start(cfg, &mut net);
    let mut world = World {
        scenario,
        machine,
        peers,
        net,
    };
    world.run()?;
    let (steps, faults, virtual_ms) = (world.net.steps, world.net.taken, world.net.now);
    world.scenario.finish(world.peers, world.machine)?;
    Ok(SimReport {
        steps,
        faults,
        virtual_ms,
    })
}

/// Adapts [`run_sim`] to the shape the explorers drive: a world that
/// is a pure function of its chooser.
pub fn world<'a>(
    scenario: &'a ServerScenario<'_>,
    cfg: &'a SimConfig,
) -> impl FnMut(&mut dyn Chooser) -> Result<(), SimError> + 'a {
    move |chooser| run_sim(scenario, cfg, chooser).map(|_| ())
}

struct World<'s, 'a, 'c> {
    scenario: &'s ServerScenario<'a>,
    machine: ServiceMachine,
    peers: Peers,
    net: Net<'c>,
}

impl World<'_, '_, '_> {
    /// Fires events until the machine exits or drains to no connection.
    fn run(&mut self) -> Result<(), SimError> {
        let mut hushed = false;
        loop {
            self.settle()?;
            let net = &mut self.net;
            if net.exit || (net.draining && net.links.values().all(|l| l.gone)) {
                return Ok(());
            }
            // Keep one `Tick` queued no later than the machine's next
            // wake, as the loop's poll timeout does.
            if let Some(at) = self.machine.next_wake().map(|at| at.max(net.now)) {
                if net.tick.is_none_or(|key| key.0 > at) {
                    net.tick.and_then(|key| net.queue.remove(&key));
                    net.tick = Some(net.queue_at(at, Queued::Tick));
                }
            }
            if net.queue.is_empty() && !std::mem::replace(&mut hushed, true) {
                self.scenario.quiet(&mut self.peers, net);
                continue;
            }
            if net.queue.is_empty() || net.steps >= MAX_STEPS {
                let (steps, pending) = (net.steps, net.queue.len());
                return Err(SimError::Liveness { steps, pending });
            }
            // Every event due at the earliest instant is concurrent;
            // the schedule decides which one the world sees first.
            let t0 = net.queue.keys().next().expect("queue non-empty").0;
            let due = net.queue.keys().take_while(|(t, _)| *t == t0).count();
            let key = *net
                .queue
                .keys()
                .nth(net.chooser.choose(due))
                .expect("a due key");
            let ev = net.queue.remove(&key).expect("picked key exists");
            net.tick = net.tick.filter(|&tick| tick != key);
            net.now = t0;
            net.steps += 1;
            self.fire(ev)?;
        }
    }

    /// Runs the machine through everything pending.
    fn settle(&mut self) -> Result<(), SimError> {
        while let Some(event) = self.net.inbox.pop_front() {
            self.step(event, None)?;
        }
        Ok(())
    }

    fn step(&mut self, event: Event, absorb: Option<u64>) -> Result<(), SimError> {
        let mut actions = Vec::new();
        self.machine.step(self.net.now, event, &mut actions);
        for action in actions {
            let menu = match &action {
                Action::Send { conn, payload } => self.scenario.reply_faults(*conn, payload),
                _ => &[],
            };
            self.net.perform(action, absorb, menu);
        }
        self.scenario.answer(&mut self.peers, &mut self.net)
    }

    fn fire(&mut self, ev: Queued) -> Result<(), SimError> {
        let net = &mut self.net;
        match ev {
            Queued::Frame(conn, payload, echo) => {
                let Some(link) = net.links.get_mut(&conn).filter(|l| !l.gone) else {
                    return Ok(()); // the loop already dropped the connection
                };
                link.greeted = true;
                // The inbox is empty here, so stepping now keeps order.
                self.step(Event::Frame { conn, payload }, echo.then_some(conn))
            }
            Queued::HangUp(conn, end) => {
                let link = net.links.get_mut(&conn).expect("links are never removed");
                if end != End::Peer && !std::mem::replace(&mut link.gone, true) {
                    let clean = end == End::Machine { clean: true };
                    net.inbox.push_back(Event::Closed { conn, clean });
                }
                if matches!(end, End::Machine { .. })
                    || std::mem::replace(&mut link.peer_gone, true)
                {
                    return Ok(());
                }
                self.scenario
                    .input(&mut self.peers, net, Input::Closed(conn))
            }
            Queued::Tick => self.step(Event::Tick, None),
            Queued::Peer(Input::Frame(conn, _)) if net.links[&conn].peer_gone => Ok(()),
            Queued::Peer(input) => self.scenario.input(&mut self.peers, net, input),
        }
    }
}
