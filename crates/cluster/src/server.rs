//! The server loop under the one campaign server machine
//! ([`crate::machine`]), a pure `step(event) -> actions` machine over
//! `NSCL` frames, whether it serves a cluster campaign or the
//! `nestsim-svc` service. One thread owns
//! the listener, a wake channel and every connection, multiplexed by a
//! level-triggered epoll poller. It hands the machine whole frames,
//! frames what the machine sends into per-connection buffers flushed
//! under write interest, ticks it at [`ServiceMachine::next_wake`], and
//! delivers the commands other threads queue through a [`Waker`]. No
//! peer can block another: a trickling one only grows its own frame
//! buffer, and one that stops reading is closed past
//! `conn::MAX_UNSENT`. The machine decodes and sends through
//! [`decode_frame`] and [`send_frame`], the one framing policy.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use crate::conn::Conn;
use crate::machine::{Command, ServiceMachine};
use crate::poll::{Interest, PollEvent, Poller};
use crate::proto::Message;

/// An input the loop feeds its machine. `conn` ids are unique for the
/// loop's lifetime.
pub enum Event {
    /// A peer connected.
    Connected {
        /// The new connection.
        conn: u64,
    },
    /// One whole frame arrived.
    Frame {
        /// Where it arrived.
        conn: u64,
        /// The frame's payload.
        payload: Vec<u8>,
    },
    /// A connection closed under the loop (never one the machine closed).
    Closed {
        /// The closed connection.
        conn: u64,
        /// Orderly EOF; false for an I/O error, a corrupt header, a frame
        /// that cannot be sent, unsent bytes past the cap, or a hang-up
        /// by [`Action::Drain`].
        clean: bool,
    },
    /// [`ServiceMachine::next_wake`] passed.
    Tick,
    /// A command queued through the loop's [`Waker`].
    Command(Command),
}

/// An output of the machine for the loop to perform.
pub enum Action {
    /// Frame `payload` and write it to `conn`.
    Send {
        /// The destination.
        conn: u64,
        /// The frame's payload.
        payload: Vec<u8>,
    },
    /// Close `conn` once everything sent to it so far is written.
    Close {
        /// The connection to close.
        conn: u64,
    },
    /// Stop accepting, hang up on every peer that has not sent a whole
    /// frame, and return once the rest have hung up.
    Drain,
    /// Return now, dropping every connection.
    Exit,
}

/// Decodes a frame from `conn`. One that does not decode is refused
/// and yields `None`: the connection is closed.
pub fn decode_frame(conn: u64, payload: &[u8], out: &mut Vec<Action>) -> Option<Message> {
    Message::decode(payload)
        .map_err(|e| refuse(conn, format!("undecodable frame: {e}"), out))
        .ok()
}

/// Queues `msg` to `conn` and returns its payload size. A reply that
/// does not encode is refused the same way.
pub fn send_frame(conn: u64, msg: &Message, out: &mut Vec<Action>) -> Option<usize> {
    let payload = msg
        .encode()
        .map_err(|e| refuse(conn, format!("unencodable reply: {e}"), out))
        .ok()?;
    let bytes = payload.len();
    out.push(Action::Send { conn, payload });
    Some(bytes)
}

/// The one framing policy: a frame that does not decode
/// or a reply that does not encode costs the peer its connection, with
/// an `Error` naming the cause first if that encodes.
fn refuse(conn: u64, message: String, out: &mut Vec<Action>) {
    if let Ok(payload) = (Message::Error { message }).encode() {
        out.push(Action::Send { conn, payload });
    }
    out.push(Action::Close { conn });
}

/// Queues commands for a running loop, from any thread.
#[derive(Clone)]
pub struct Waker {
    tx: mpsc::Sender<Command>,
    wake: Arc<UnixStream>,
}

impl Waker {
    /// Queues `cmd` and wakes the loop. Fails once the loop returned.
    pub fn send(&self, cmd: Command) -> io::Result<()> {
        self.tx
            .send(cmd)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "the server loop returned"))?;
        match (&*self.wake).write(&[1]) {
            // A full wake socket already holds a wake-up.
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => Err(e),
            _ => Ok(()),
        }
    }
}

/// A server loop running on its own thread.
pub struct Server {
    addr: SocketAddr,
    waker: Waker,
    join: JoinHandle<io::Result<ServiceMachine>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

const LISTENER: u64 = 0;
const WAKE: u64 = 1;

impl Server {
    /// Binds `listen` and starts driving `machine` on a thread named
    /// `name`.
    pub fn spawn(listen: &str, name: &str, machine: ServiceMachine) -> io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER, Interest::Read)?;
        poller.add(wake_rx.as_raw_fd(), WAKE, Interest::Read)?;
        let (tx, commands) = mpsc::channel();
        let event_loop = Loop {
            machine,
            poller,
            listener: Some(listener),
            wake: wake_rx,
            commands,
            conns: BTreeMap::new(),
            next_conn: WAKE + 1,
            start: Instant::now(), // lease and timer clock only: machines decide results from frames
            pending: VecDeque::new(),
            actions: Vec::new(),
            dirty: Vec::new(),
            draining: false,
            exit: false,
        };
        let join = thread::Builder::new()
            .name(name.to_string())
            .spawn(move || event_loop.run())?;
        Ok(Server {
            addr,
            waker: Waker {
                tx,
                wake: Arc::new(wake_tx),
            },
            join,
        })
    }

    /// The bound listen address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The loop's command channel.
    pub fn waker(&self) -> &Waker {
        &self.waker
    }

    /// Waits for the loop to return — after its machine asked for
    /// [`Action::Drain`] or [`Action::Exit`] — and hands the machine
    /// back.
    pub fn join(self) -> io::Result<ServiceMachine> {
        // `self.waker` lives until the loop returns: the loop stops on
        // its own once every waker is gone.
        self.join
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("the server loop panicked")))
    }
}

struct Loop {
    machine: ServiceMachine,
    poller: Poller,
    /// `None` once draining.
    listener: Option<TcpListener>,
    wake: UnixStream,
    commands: mpsc::Receiver<Command>,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    start: Instant,
    /// Events the machine has yet to see, oldest first.
    pending: VecDeque<Event>,
    /// Scratch for the actions of one step.
    actions: Vec<Action>,
    /// Connections whose unsent bytes went from none to some.
    dirty: Vec<u64>,
    draining: bool,
    exit: bool,
}

impl Loop {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn run(mut self) -> io::Result<ServiceMachine> {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            if self
                .machine
                .next_wake()
                .is_some_and(|at| at <= self.now_ms())
            {
                self.feed(Event::Tick);
            }
            if self.exit || (self.draining && self.conns.is_empty()) {
                return Ok(self.machine);
            }
            // A wake still due after its tick re-arms a millisecond out
            // rather than spinning.
            let timeout = self.machine.next_wake().map_or(-1, |at| {
                at.saturating_sub(self.now_ms()).clamp(1, i32::MAX as u64) as i32
            });
            events.clear();
            self.poller.wait(timeout, &mut events)?;
            for ev in &events {
                match ev.token {
                    LISTENER => self.accept(),
                    WAKE => self.wake(),
                    conn => self.ready(conn, ev),
                }
            }
        }
    }

    /// Accepts every pending connection.
    fn accept(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let Ok(c) = Conn::new(stream) else {
                continue;
            };
            let conn = self.next_conn;
            self.next_conn += 1;
            if self.poller.add(c.fd(), conn, Interest::Read).is_ok() {
                self.conns.insert(conn, c);
                self.feed(Event::Connected { conn });
            }
        }
    }

    /// Drains wake-ups, then hands the machine every queued command.
    /// EOF means every [`Waker`] is gone: nobody can stop the loop any
    /// more, so it stops itself.
    fn wake(&mut self) {
        let mut buf = [0u8; 64];
        let orphaned = loop {
            match (&self.wake).read(&mut buf) {
                Ok(0) => break true,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break false,
            }
        };
        while let Ok(cmd) = self.commands.try_recv() {
            self.feed(Event::Command(cmd));
        }
        self.exit |= orphaned;
    }

    fn ready(&mut self, conn: u64, ev: &PollEvent) {
        if ev.readable || ev.hangup {
            self.read(conn);
        }
        if ev.writable {
            self.flush(conn);
        }
        self.settle();
    }

    /// Reads one chunk and hands the machine every whole frame it
    /// completes. The poller is level-triggered, so the rest of what the
    /// peer sent waits for the next turn of the loop: no peer can keep
    /// the loop to itself.
    fn read(&mut self, conn: u64) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        match c.read_some() {
            Ok(0) => return self.close(conn, true),
            Ok(_) => {}
            // Readiness that went stale, or a signal: the poller reports
            // the socket again.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return,
            Err(_) => return self.close(conn, false),
        }
        while let Some(c) = self.conns.get_mut(&conn).filter(|c| !c.closing) {
            match c.next_frame() {
                Ok(Some(payload)) => self.feed(Event::Frame { conn, payload }),
                Ok(None) => break,
                Err(_) => return self.close(conn, false),
            }
        }
    }

    /// Steps the machine through `event` and everything it causes.
    fn feed(&mut self, event: Event) {
        self.pending.push_back(event);
        self.settle();
    }

    /// Runs pending events through the machine, performing their
    /// actions in order; closes those actions cause come back as
    /// events. Fresh output is flushed once the machine is quiet.
    fn settle(&mut self) {
        loop {
            if let Some(event) = self.pending.pop_front() {
                let now = self.now_ms();
                let mut actions = std::mem::take(&mut self.actions);
                self.machine.step(now, event, &mut actions);
                for action in actions.drain(..) {
                    self.perform(action);
                }
                self.actions = actions;
            } else if let Some(conn) = self.dirty.pop() {
                self.flush(conn);
            } else {
                return;
            }
        }
    }

    fn perform(&mut self, action: Action) {
        match action {
            Action::Send { conn, payload } => {
                let Some(c) = self.conns.get_mut(&conn).filter(|c| !c.closing) else {
                    return; // the peer left before its reply did
                };
                let idle = c.unsent() == 0;
                match c.queue(&payload) {
                    Ok(()) if idle => self.dirty.push(conn),
                    Ok(()) => {}
                    Err(_) => self.close(conn, false),
                }
            }
            Action::Close { conn } => {
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.closing = true;
                    self.dirty.push(conn);
                }
            }
            Action::Drain => {
                self.draining = true;
                if let Some(listener) = self.listener.take() {
                    let _ = self.poller.remove(listener.as_raw_fd());
                }
                let silent: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| !c.greeted && !c.closing)
                    .map(|(&conn, _)| conn)
                    .collect();
                for conn in silent {
                    self.close(conn, false);
                }
            }
            Action::Exit => self.exit = true,
        }
    }

    /// Writes what the socket accepts, keeps write interest exactly
    /// while bytes remain, and drops a closing connection once drained.
    fn flush(&mut self, conn: u64) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        if c.flush().is_err() {
            return self.close(conn, false);
        }
        let want = c.unsent() > 0;
        if want != c.want_write {
            let interest = if want {
                Interest::ReadWrite
            } else {
                Interest::Read
            };
            if self.poller.modify(c.fd(), conn, interest).is_err() {
                return self.close(conn, false);
            }
            c.want_write = want;
        }
        if !want && c.closing {
            self.remove(conn);
        }
    }

    /// Drops `conn` and, unless the machine closed it itself, queues
    /// [`Event::Closed`].
    fn close(&mut self, conn: u64, clean: bool) {
        if self.remove(conn).is_some_and(|c| !c.closing) {
            self.pending.push_back(Event::Closed { conn, clean });
        }
    }

    fn remove(&mut self, conn: u64) -> Option<Conn> {
        let c = self.conns.remove(&conn)?;
        let _ = self.poller.remove(c.fd());
        Some(c)
    }
}
