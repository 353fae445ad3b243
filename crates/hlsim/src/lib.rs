//! High-level (accelerated-mode) full-system simulator.
//!
//! This crate plays the role Wind River Simics plays in *Understanding
//! Soft Errors in Uncore Components* (Cho et al., DAC 2015): a fast
//! functional simulator of the whole SoC — 8 cores × 8 hardware threads
//! running multi-threaded benchmark applications against *functional*
//! uncore models whose architectural state is exactly the Table 1
//! "high-level uncore state" (shared with the RTL models through
//! `nestsim-arch`).
//!
//! Key pieces:
//!
//! * [`workload`] — 18 deterministic benchmark kernels parameterised to
//!   mimic the SPLASH-2 / PARSEC / Phoenix applications of Table 5
//!   (memory-access signature, sharing, synchronisation, input files,
//!   output volume), at the DESIGN.md cycle scale (1000× shorter).
//! * [`thread`] — the per-hardware-thread execution state machine with
//!   an OS-lite runtime: invalid/misaligned accesses trap (Unexpected
//!   Termination), a watchdog catches Hangs, and application output is
//!   written to a dedicated region and digested for the Output Mismatch
//!   check.
//! * [`system`] — the event-driven SoC: functional L2 banks
//!   (`nestsim-arch`), sparse DRAM, a functional PCIe DMA engine that
//!   streams input files, barriers, snapshots (`Clone`), and the
//!   **interception hooks** the mixed-mode platform uses to splice an
//!   RTL component into the running system (Fig. 1b ②).
//! * [`events`] — the time-ordered ring [`system`] schedules thread
//!   wakes and DMA frames on.
//! * [`ladder`] — periodic whole-system snapshots ("rungs") captured
//!   during the golden reference pass, the paper's every-2M-cycle
//!   snapshot mechanism (Sec. 2.2) at the DESIGN.md cycle scale, up to
//!   a rung budget its caller sets; the campaign engine restores each
//!   shard's cursor from the nearest rung instead of replaying from
//!   cycle 0.
//!
//! Determinism: given the same [`SystemConfig`], every run is
//! bit-identical — the property that lets the mixed-mode platform
//! classify "Vanished" outcomes by comparing against a single golden
//! reference execution.
//!
//! # Examples
//!
//! ```
//! use nestsim_hlsim::{System, SystemConfig};
//! use nestsim_hlsim::workload::by_name;
//!
//! let cfg = SystemConfig::smoke_test(by_name("radi").unwrap());
//! let mut sys = System::new(cfg);
//! let result = sys.run_to_end();
//! assert!(result.is_completed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod ladder;
pub mod layout;
pub mod system;
pub mod thread;
pub mod workload;

pub use ladder::SnapshotLadder;
pub use system::{
    CoreReg, InterceptMode, OutMsg, RunResult, SnapshotCost, System, SystemConfig,
    UNCORE_REQ_ID_LIMIT,
};
pub use thread::{LoadUse, Op, TrapCause};
pub use workload::{BenchProfile, Suite, BENCHMARKS};
