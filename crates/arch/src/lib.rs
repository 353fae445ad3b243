//! Architectural ("high-level uncore") state shared between simulation
//! modes.
//!
//! Table 1 of *Understanding Soft Errors in Uncore Components* (Cho et
//! al., DAC 2015) lists the state each high-level uncore model carries:
//!
//! | Component | High-level uncore state |
//! |---|---|
//! | L2 cache controller | tag array, line-state bits, data array, L1 directory |
//! | DRAM controller | DRAM contents |
//! | Crossbar | none |
//! | PCIe controller | RX/TX transfer buffers |
//!
//! This crate implements exactly that state, plus its *functional
//! semantics* (lookup, fill, evict, store-merge). Both the accelerated
//! mode (`nestsim-hlsim`) and the flip-flop-level RTL models
//! (`nestsim-models`) operate on these same types and the same policy
//! code, which is what guarantees the paper's premise that "under
//! error-free conditions, \[the high-level models\] produce the same
//! output signals ... as the actual uncore components" — and therefore
//! that transferring state between the two simulators (Fig. 1 ②③,
//! Fig. 2 steps 3/10) does not itself perturb the application outcome.
//!
//! # Examples
//!
//! ```
//! use nestsim_arch::l2::{L2BankArch, L2Geometry};
//! use nestsim_arch::mem::DramContents;
//! use nestsim_proto::PAddr;
//!
//! let mut dram = DramContents::new();
//! dram.write_word(PAddr::new(0x1000_0040), 99);
//!
//! let mut bank = L2BankArch::new(L2Geometry::default());
//! let v = bank.load(PAddr::new(0x1000_0040), &mut dram);
//! assert_eq!(v.value, 99);
//! assert!(!v.hit); // first access misses, fills the cache
//! assert!(bank.load(PAddr::new(0x1000_0040), &mut dram).hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod l2;
pub mod mem;
pub mod pciebuf;

pub use l2::{L2BankArch, L2Geometry};
pub use mem::{BuildU64Hasher, DramContents, DramOverlay, LineBackend, OverlayBackend};
pub use pciebuf::PcieBuffers;
