//! The QRR controller: record table, monitors, and replay sequencer
//! (Sec. 6.1 / 6.2).
//!
//! The controller's own flip-flops are radiation-hardened in the paper
//! (Sec. 6.4 item 3), so — assuming single soft errors — its state is
//! never injected and is modeled as plain (uncorruptible) Rust state;
//! its *cost* is accounted by [`crate::cost`].

use std::collections::VecDeque;

use nestsim_proto::PcxPacket;

/// Record-table capacity (Sec. 6: "Record Table (32 entries)").
pub const RECORD_TABLE_ENTRIES: usize = 32;

/// One record-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry<P> {
    id: u64,
    pkt: P,
    /// The return packet has been sent but post-processing continues
    /// (the store-miss case of Sec. 6.1).
    return_seen: bool,
}

/// Recovery state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QrrState {
    /// Normal operation: recording and monitoring.
    Normal,
    /// Error signal received; waiting to assert reset.
    Detected,
    /// Replaying recorded packets in order.
    Replaying,
}

/// The QRR controller for one uncore component instance.
///
/// Generic over the recorded packet type: `PcxPacket` for the L2C port
/// (the paper's design) and `DramCmd` for the equivalent record table
/// at the MCU port (footnote 12 covers MCU via the L2C tables; our MCU
/// co-simulation records at the MCU port instead — see DESIGN.md).
/// Entries are keyed by a caller-supplied unique id.
///
/// # Examples
///
/// ```
/// use nestsim_qrr::QrrController;
/// use nestsim_proto::addr::{PAddr, ThreadId};
/// use nestsim_proto::{PcxKind, PcxPacket, ReqId};
///
/// let pkt = PcxPacket {
///     id: ReqId(7),
///     thread: ThreadId::new(0),
///     kind: PcxKind::Load,
///     addr: PAddr::new(0x1000_0000),
///     data: 0,
/// };
/// let mut ctrl: QrrController = QrrController::new();
/// ctrl.on_request_accepted(7, &pkt);         // request monitor
/// ctrl.on_error_detected(100);               // parity fired
/// ctrl.on_reset_done();
/// assert_eq!(ctrl.next_replay().unwrap().id, ReqId(7));
/// ```
#[derive(Debug, Clone)]
pub struct QrrController<P = PcxPacket> {
    table: VecDeque<Entry<P>>,
    state: QrrState,
    /// Packets still to be re-sent during replay.
    replay_queue: VecDeque<P>,
    /// Statistics: total recoveries performed.
    pub recoveries: u64,
    /// Statistics: cycles spent in the most recent recovery.
    pub last_recovery_cycles: u64,
    recovery_started_at: u64,
}

impl<P: Clone> QrrController<P> {
    /// Creates an idle controller.
    pub fn new() -> Self {
        QrrController {
            table: VecDeque::new(),
            state: QrrState::Normal,
            replay_queue: VecDeque::new(),
            recoveries: 0,
            last_recovery_cycles: 0,
            recovery_started_at: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> QrrState {
        self.state
    }

    /// Number of recorded (incomplete) requests.
    pub fn recorded(&self) -> usize {
        self.table.len()
    }

    /// True while recovery (reset + replay) is in progress: the
    /// component must not accept new request packets (Sec. 6.2).
    pub fn blocking_new_requests(&self) -> bool {
        self.state != QrrState::Normal
    }

    /// True if the record table can accept another entry; when full the
    /// controller back-pressures the input port.
    pub fn can_record(&self) -> bool {
        self.table.len() < RECORD_TABLE_ENTRIES
    }

    /// Request monitor: a new packet was accepted by the component.
    ///
    /// # Panics
    ///
    /// Panics if the record table is full (callers must check
    /// [`can_record`](Self::can_record) — the hardware back-pressures).
    pub fn on_request_accepted(&mut self, id: u64, pkt: &P) {
        assert!(self.can_record(), "record table overflow");
        self.table.push_back(Entry {
            id,
            pkt: pkt.clone(),
            return_seen: false,
        });
    }

    /// Completion monitor: the component produced a return packet.
    ///
    /// `still_processing` is the miss-buffer occupancy signal: when the
    /// return is an early store-miss acknowledgement the operation is
    /// *not* complete and the entry must be retained until
    /// [`on_post_processing_done`](Self::on_post_processing_done)
    /// (Sec. 6.1).
    pub fn on_return_packet(&mut self, id: u64, still_processing: bool) {
        if let Some(e) = self.table.iter_mut().find(|e| e.id == id) {
            if still_processing {
                e.return_seen = true;
            } else {
                self.table.retain(|e| e.id != id);
            }
        }
    }

    /// Completion monitor: store-miss post-processing finished.
    pub fn on_post_processing_done(&mut self, id: u64) {
        self.table.retain(|e| e.id != id);
    }

    /// True if the recorded entry for `id` already produced its return
    /// packet (a replayed execution must not emit a duplicate — the
    /// controller gates the CPX valid for such entries, since a core
    /// traps on an unexpected return packet).
    pub fn was_answered(&self, id: u64) -> bool {
        self.table.iter().any(|e| e.id == id && e.return_seen)
    }

    /// The aggregated parity error signal arrived: begin recovery.
    /// Returns the packets to replay, in original arrival order.
    pub fn on_error_detected(&mut self, cycle: u64) {
        if self.state == QrrState::Normal {
            self.state = QrrState::Detected;
            self.recovery_started_at = cycle;
            self.replay_queue = self.table.iter().map(|e| e.pkt.clone()).collect();
        }
    }

    /// The component's reset has been asserted; replay begins next
    /// cycle.
    pub fn on_reset_done(&mut self) {
        if self.state == QrrState::Detected {
            self.state = QrrState::Replaying;
        }
    }

    /// Replay sequencer: the next packet to re-send, if the component
    /// is ready. Recorded entries stay in the table so the completion
    /// monitors re-arm for the replayed execution.
    pub fn next_replay(&mut self) -> Option<P> {
        self.replay_queue.pop_front()
    }

    /// Returns a popped replay packet that the component could not
    /// accept this cycle to the head of the replay queue (order must
    /// be preserved, Sec. 6.3).
    pub fn push_back_replay(&mut self, pkt: P) {
        self.replay_queue.push_front(pkt);
    }

    /// Called every recovery cycle; completes recovery once every
    /// replayed packet has been re-sent *and* completed.
    pub fn poll_recovery_complete(&mut self, cycle: u64) -> bool {
        if self.state == QrrState::Replaying
            && self.replay_queue.is_empty()
            && self.table.is_empty()
        {
            self.state = QrrState::Normal;
            self.recoveries += 1;
            self.last_recovery_cycles = cycle.saturating_sub(self.recovery_started_at);
            true
        } else {
            false
        }
    }
}

impl<P: Clone> Default for QrrController<P> {
    fn default() -> Self {
        QrrController::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_proto::addr::{PAddr, ThreadId};
    use nestsim_proto::{PcxKind, ReqId};

    fn pkt(id: u64, kind: PcxKind) -> PcxPacket {
        PcxPacket {
            id: ReqId(id),
            thread: ThreadId::new(0),
            kind,
            addr: PAddr::new(0x1000_0000),
            data: 0,
        }
    }

    #[test]
    fn normal_completion_deletes_entry() {
        let mut c: QrrController = QrrController::new();
        let p = pkt(1, PcxKind::Load);
        c.on_request_accepted(p.id.0, &p);
        assert_eq!(c.recorded(), 1);
        c.on_return_packet(p.id.0, false);
        assert_eq!(c.recorded(), 0);
    }

    #[test]
    fn store_miss_entry_survives_early_ack() {
        let mut c: QrrController = QrrController::new();
        let p = pkt(2, PcxKind::Store);
        c.on_request_accepted(p.id.0, &p);
        // Early ack while the miss buffer still processes (Sec. 6.1).
        c.on_return_packet(p.id.0, true);
        assert_eq!(c.recorded(), 1, "entry must be retained");
        c.on_post_processing_done(2);
        assert_eq!(c.recorded(), 0);
    }

    #[test]
    fn replay_preserves_arrival_order() {
        let mut c: QrrController = QrrController::new();
        for i in 0..5 {
            c.on_request_accepted(i, &pkt(i, PcxKind::Load));
        }
        c.on_error_detected(100);
        c.on_reset_done();
        let mut order = Vec::new();
        while let Some(p) = c.next_replay() {
            order.push(p.id.0);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recovery_completes_when_table_drains() {
        let mut c: QrrController = QrrController::new();
        let p = pkt(7, PcxKind::Load);
        c.on_request_accepted(7, &p);
        c.on_error_detected(10);
        c.on_reset_done();
        assert!(c.blocking_new_requests());
        let r = c.next_replay().unwrap();
        assert_eq!(r.id.0, 7);
        assert!(!c.poll_recovery_complete(20), "entry still outstanding");
        c.on_return_packet(7, false);
        assert!(c.poll_recovery_complete(25));
        assert!(!c.blocking_new_requests());
        assert_eq!(c.recoveries, 1);
        assert_eq!(c.last_recovery_cycles, 15);
    }

    #[test]
    fn table_capacity_backpressures() {
        let mut c: QrrController = QrrController::new();
        for i in 0..RECORD_TABLE_ENTRIES as u64 {
            assert!(c.can_record());
            c.on_request_accepted(i, &pkt(i, PcxKind::Load));
        }
        assert!(!c.can_record());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overfilling_table_panics() {
        let mut c: QrrController = QrrController::new();
        for i in 0..=RECORD_TABLE_ENTRIES as u64 {
            c.on_request_accepted(i, &pkt(i, PcxKind::Load));
        }
    }
}
