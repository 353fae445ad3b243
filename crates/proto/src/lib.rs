//! Shared protocol vocabulary for the nestsim SoC model.
//!
//! This crate defines the packet formats exchanged between processor cores
//! and uncore components, mirroring (in structure, not bit-layout) the
//! OpenSPARC T2 on-chip protocols studied in *Understanding Soft Errors in
//! Uncore Components* (Cho et al., DAC 2015):
//!
//! * [`PcxPacket`] — processor-to-cache-crossbar request packets
//!   (the "PCX" side of the T2 crossbar),
//! * [`CpxPacket`] — cache-to-processor return packets ("CPX"),
//! * [`DramCmd`] / [`DramResp`] — L2-bank to DRAM-controller traffic,
//! * [`DmaDescriptor`] — PCI Express DMA traffic used to stream benchmark
//!   input files into memory.
//!
//! It also defines the physical address space carving ([`addr`]) including
//! the address-interleaved mapping of cache lines onto the 8 L2 banks and
//! 4 DRAM controllers of the modeled SoC.
//!
//! # Examples
//!
//! ```
//! use nestsim_proto::addr::{PAddr, l2_bank_of, mcu_of_bank};
//!
//! let a = PAddr::new(0x4000_1240);
//! let bank = l2_bank_of(a);
//! let mcu = mcu_of_bank(bank);
//! assert!(bank.index() < 8 && mcu.index() < 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod dram;
pub mod packet;
pub mod pcie;
pub mod topology;

pub use addr::{BankId, CoreId, LineAddr, McuId, PAddr, ThreadId};
pub use dram::{DramCmd, DramCmdKind, DramResp};
pub use packet::{CpxKind, CpxPacket, PcxKind, PcxPacket, ReqId};
pub use pcie::DmaDescriptor;
pub use topology::Topology;
