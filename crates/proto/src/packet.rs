//! Core↔uncore request/return packets (PCX / CPX analogues).

use crate::addr::{BankId, PAddr, ThreadId};

/// Globally unique identifier of an in-flight request.
///
/// Request ids are assigned by the issuing core and echoed back in the
/// matching [`CpxPacket`]; the QRR record table and the outcome monitors
/// key on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId(pub u64);

impl core::fmt::Display for ReqId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Kinds of processor-to-uncore requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcxKind {
    /// Data load (fills the thread's destination register).
    Load,
    /// Data store.
    Store,
    /// Instruction fetch (modeled as a load from the text region).
    Ifetch,
    /// Atomic read-modify-write (load + store as one ordered operation).
    Atomic,
}

impl PcxKind {
    /// Returns `true` for kinds that write memory.
    pub fn writes(self) -> bool {
        matches!(self, PcxKind::Store | PcxKind::Atomic)
    }
}

impl core::fmt::Display for PcxKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            PcxKind::Load => "load",
            PcxKind::Store => "store",
            PcxKind::Ifetch => "ifetch",
            PcxKind::Atomic => "atomic",
        };
        f.write_str(s)
    }
}

/// A request packet travelling from a processor core through the crossbar
/// to an L2 cache bank (analogue of a T2 "PCX" packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PcxPacket {
    /// Request identifier (echoed in the return packet).
    pub id: ReqId,
    /// Issuing hardware thread.
    pub thread: ThreadId,
    /// Request kind.
    pub kind: PcxKind,
    /// Target physical address (8-byte aligned for word accesses).
    pub addr: PAddr,
    /// Store data (ignored for loads/ifetches).
    pub data: u64,
}

impl PcxPacket {
    /// Returns the L2 bank this packet targets.
    pub fn bank(&self) -> BankId {
        crate::addr::l2_bank_of(self.addr)
    }
}

/// Kinds of uncore-to-processor return packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpxKind {
    /// Load data return.
    LoadReturn,
    /// Store acknowledgement.
    StoreAck,
    /// Instruction-fetch return.
    IfetchReturn,
    /// Atomic completion (old value returned).
    AtomicReturn,
    /// Access error signalled by the uncore (address out of backing range).
    Error,
}

impl core::fmt::Display for CpxKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            CpxKind::LoadReturn => "load-ret",
            CpxKind::StoreAck => "store-ack",
            CpxKind::IfetchReturn => "ifetch-ret",
            CpxKind::AtomicReturn => "atomic-ret",
            CpxKind::Error => "error",
        };
        f.write_str(s)
    }
}

/// A return packet travelling from an uncore component back to a core
/// (analogue of a T2 "CPX" packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpxPacket {
    /// Identifier of the request this packet answers.
    pub id: ReqId,
    /// Destination hardware thread.
    pub thread: ThreadId,
    /// Return kind.
    pub kind: CpxKind,
    /// Returned data (loads/atomics); zero for acks.
    pub data: u64,
}

impl CpxPacket {
    /// Builds the expected return packet for `req` carrying `data`.
    pub fn reply_to(req: &PcxPacket, data: u64) -> Self {
        let kind = match req.kind {
            PcxKind::Load => CpxKind::LoadReturn,
            PcxKind::Store => CpxKind::StoreAck,
            PcxKind::Ifetch => CpxKind::IfetchReturn,
            PcxKind::Atomic => CpxKind::AtomicReturn,
        };
        CpxPacket {
            id: req.id,
            thread: req.thread,
            kind,
            data,
        }
    }

    /// Builds an error return for `req`.
    pub fn error_for(req: &PcxPacket) -> Self {
        CpxPacket {
            id: req.id,
            thread: req.thread,
            kind: CpxKind::Error,
            data: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::l2_bank_of;

    fn req(kind: PcxKind) -> PcxPacket {
        PcxPacket {
            id: ReqId(7),
            thread: ThreadId::new(3),
            kind,
            addr: PAddr::new(0x1000_0040),
            data: 0xdead_beef,
        }
    }

    #[test]
    fn reply_kind_matches_request_kind() {
        assert_eq!(
            CpxPacket::reply_to(&req(PcxKind::Load), 1).kind,
            CpxKind::LoadReturn
        );
        assert_eq!(
            CpxPacket::reply_to(&req(PcxKind::Store), 0).kind,
            CpxKind::StoreAck
        );
        assert_eq!(
            CpxPacket::reply_to(&req(PcxKind::Atomic), 0).kind,
            CpxKind::AtomicReturn
        );
    }

    #[test]
    fn reply_preserves_id_and_thread() {
        let r = req(PcxKind::Load);
        let c = CpxPacket::reply_to(&r, 42);
        assert_eq!(c.id, r.id);
        assert_eq!(c.thread, r.thread);
        assert_eq!(c.data, 42);
    }

    #[test]
    fn packet_bank_matches_address_hash() {
        let r = req(PcxKind::Store);
        assert_eq!(r.bank(), l2_bank_of(r.addr));
    }

    #[test]
    fn kind_predicates() {
        assert!(PcxKind::Store.writes());
        assert!(PcxKind::Atomic.writes());
        assert!(!PcxKind::Load.writes());
    }

    #[test]
    fn error_reply_flags_error() {
        let r = req(PcxKind::Load);
        let e = CpxPacket::error_for(&r);
        assert_eq!(e.kind, CpxKind::Error);
        assert_eq!(e.id, r.id);
    }
}
