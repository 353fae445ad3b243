//! Readiness polling for the [`crate::server`] loop: a thin wrapper
//! over the Linux `epoll` family, called via direct `extern "C"`
//! declarations against the C runtime the binary is already linked
//! with — no external crate, keeping the workspace hermetic.
//!
//! The wrapper is **level-triggered**: a descriptor keeps reporting
//! ready until drained, so a driver that processes a bounded amount
//! per wakeup never loses events.

#![allow(
    unsafe_code,
    reason = "the epoll FFI below is the workspace's one audited exception to the crate's \
              `deny(unsafe_code)`: four foreign calls, each checked for -1 and surfaced as \
              `io::Error`, with no pointer lifetime beyond the call"
)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "nestsim's cluster and service drivers run on an epoll loop and are Linux-only \
     (the only platform CI builds)"
);

use std::ffi::c_int;
use std::io;
use std::os::fd::RawFd;

/// What a registration waits for; readability and hang-up always.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable only.
    Read,
    /// Readable or writable.
    ReadWrite,
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token given at registration time.
    pub token: u64,
    /// Readable now (or peer closed — read to find out).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Error/hangup condition reported by the OS.
    pub hangup: bool,
}

// Kernel ABI: on x86-64 `struct epoll_event` is packed; elsewhere it
// has natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// Capacity of the per-wait event buffer.
const MAX_EVENTS: usize = 64;

fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn mask(interest: Interest) -> u32 {
    match interest {
        Interest::Read => EPOLLIN | EPOLLRDHUP,
        Interest::ReadWrite => EPOLLIN | EPOLLRDHUP | EPOLLOUT,
    }
}

/// A readiness poller: register descriptors with tokens, then wait.
#[derive(Debug)]
pub struct Poller {
    epfd: c_int,
}

impl Poller {
    /// A fresh poller.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; the return value is
        // validated before use.
        let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: mask(interest),
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it. (A
        // pre-2.6.9 kernel required a non-null event even for
        // EPOLL_CTL_DEL; passing one is always valid.)
        check(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of an already-registered descriptor.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Unregisters a descriptor.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::Read)
    }

    /// Blocks up to `timeout_ms` (-1 = forever) and appends readiness
    /// reports to `out`; returns how many were appended.
    pub fn wait(&self, timeout_ms: i32, out: &mut Vec<PollEvent>) -> io::Result<usize> {
        let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        // SAFETY: `buf` holds MAX_EVENTS writable slots and the kernel
        // writes at most `maxevents` of them.
        let n = match check(unsafe {
            epoll_wait(self.epfd, buf.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms)
        }) {
            Ok(n) => n as usize,
            // A signal interrupting the wait is a zero-event wake.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in buf.iter().take(n) {
            let bits = ev.events;
            out.push(PollEvent {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing our own descriptor exactly once.
        let _ = unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_fires_on_data_and_respects_timeout() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        poller.add(rx.as_raw_fd(), 7, Interest::Read).unwrap();

        // Nothing pending: a short wait times out empty.
        let mut events = Vec::new();
        assert_eq!(poller.wait(10, &mut events).unwrap(), 0);

        tx.write_all(b"ping").unwrap();
        tx.flush().unwrap();
        // Level-triggered: readable must be reported within a bounded
        // number of waits once data is queued.
        let mut saw = false;
        for _ in 0..100 {
            let mut events = Vec::new();
            poller.wait(50, &mut events).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                saw = true;
                break;
            }
        }
        assert!(saw, "readable readiness never reported");
        let mut buf = [0u8; 8];
        let mut rx = rx;
        let n = rx.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        poller.remove(rx.as_raw_fd()).unwrap();
    }

    #[test]
    fn modify_switches_interest() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        poller.add(rx.as_raw_fd(), 1, Interest::Read).unwrap();
        poller
            .modify(rx.as_raw_fd(), 1, Interest::ReadWrite)
            .unwrap();
        // A connected socket with an empty send buffer is writable.
        let mut saw = false;
        for _ in 0..100 {
            let mut events = Vec::new();
            poller.wait(50, &mut events).unwrap();
            if events.iter().any(|e| e.token == 1 && e.writable) {
                saw = true;
                break;
            }
        }
        assert!(saw, "writable readiness never reported");
    }
}
