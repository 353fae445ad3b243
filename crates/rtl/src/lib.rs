//! Flip-flop-accurate simulation kernel.
//!
//! This crate plays the role the commercial RTL simulator plays in
//! *Understanding Soft Errors in Uncore Components* (Cho et al., DAC 2015):
//! it provides the low-level substrate on which the detailed uncore
//! component models (`nestsim-models`) are built, with the observability
//! contract the paper's methodology needs —
//!
//! * every flip-flop of a component is individually **addressable**
//!   (for error injection, Fig. 1b ④),
//! * the full flop state is **comparable** against a golden copy
//!   (Fig. 1b ⑤–⑥) and **diffable** bit-by-bit (Sec. 4.1),
//! * flops carry a **class** ([`FlopClass`]) describing whether they are
//!   injection targets, ECC/CRC-protected, inactive (BIST/redundancy),
//!   configuration state, or QRR-controller state (Tables 4 and 6), and
//! * flop state supports **reset-except-config** semantics, which the
//!   Quick Replay Recovery controller relies on (Sec. 6.2).
//!
//! The central types are [`BitBuf`] (a dense bit vector) and
//! [`FlopSpace`] (a registry of named, classed flop fields over a
//! `BitBuf`).
//!
//! # Examples
//!
//! ```
//! use nestsim_rtl::{FlopClass, FlopSpaceBuilder};
//!
//! let mut b = FlopSpaceBuilder::new("demo");
//! let valid = b.field("iq.valid", 1, FlopClass::Target);
//! let addr = b.field("iq.addr", 32, FlopClass::Target);
//! let mut flops = b.build();
//!
//! flops.write(addr, 0x1234);
//! flops.write(valid, 1);
//! assert_eq!(flops.read(addr), 0x1234);
//!
//! // Inject a bit flip into the low bit of the address field.
//! let bit = flops.field_bit_index(addr, 0);
//! flops.flip(bit);
//! assert_eq!(flops.read(addr), 0x1235);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitbuf;
pub mod field;
pub mod lanes;
pub mod parity;

pub use bitbuf::BitBuf;
pub use field::{FieldDef, FieldHandle, FieldRole, FlopClass, FlopSpace, FlopSpaceBuilder};
pub use lanes::{lane_matches_golden, lanes_differing, LaneMask, MAX_LANES};
pub use parity::{GroupLayout, ParityDetector, ParityPlan};
