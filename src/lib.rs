//! # nestsim
//!
//! A mixed-mode soft-error injection platform for uncore components —
//! a from-scratch Rust reproduction of *Understanding Soft Errors in
//! Uncore Components* (Cho, Cher, Shepherd, Mitra — DAC 2015).
//!
//! The paper studies how single-bit flips in the flip-flops of a large
//! SoC's *uncore* (L2 cache controllers, DRAM controllers, crossbar,
//! PCIe) affect applications, using a platform that couples a fast
//! functional full-system simulator with flip-flop-accurate component
//! models, and proposes Quick Replay Recovery (QRR) to make the memory
//! subsystem resilient. This crate re-exports the whole stack:
//!
//! | Layer | Crate | Paper role |
//! |---|---|---|
//! | [`proto`] | `nestsim-proto` | on-chip packet formats, address map |
//! | [`rtl`] | `nestsim-rtl` | flip-flop-level simulation kernel |
//! | [`arch`] | `nestsim-arch` | Table 1 "high-level uncore state" |
//! | [`models`] | `nestsim-models` | the four uncore components in RTL detail |
//! | [`hlsim`] | `nestsim-hlsim` | the Simics-role full-system simulator |
//! | [`core`] | `nestsim-core` | the mixed-mode platform, campaigns, Sec. 5 checkpoint analyses |
//! | [`cluster`] | `nestsim-cluster` | distributed campaign execution (coordinator/worker over TCP) |
//! | [`svc`] | `nestsim-svc` | multi-tenant campaign service (fair-share queue, dedup store) |
//! | [`qrr`] | `nestsim-qrr` | Quick Replay Recovery and its Table 6 area/power model |
//! | [`stats`] | `nestsim-stats` | confidence intervals, CDFs, seeding |
//! | [`telemetry`] | `nestsim-telemetry` | campaign observability (counters, traces) |
//! | [`report`] | `nestsim-report` | table/figure rendering |
//!
//! # Quick start
//!
//! ```
//! use nestsim::core::campaign::{run_campaign, CampaignSpec};
//! use nestsim::hlsim::workload::by_name;
//! use nestsim::models::ComponentKind;
//!
//! // A tiny L2C injection campaign on the Radix workload.
//! let spec = CampaignSpec::quick(ComponentKind::L2c, 8);
//! let result = run_campaign(by_name("radi").unwrap(), &spec);
//! assert_eq!(result.counts.total(), 8);
//! println!("erroneous rate: {}", result.counts.erroneous_rate());
//! ```
//!
//! The `repro` binary (`cargo run --release -p nestsim-repro -- all`)
//! regenerates every table and figure; see `EXPERIMENTS.md` for the
//! paper-vs-measured record and `DESIGN.md` for the architecture and
//! the substitutions made for hardware we do not have.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nestsim_arch as arch;
pub use nestsim_cluster as cluster;
pub use nestsim_core as core;
pub use nestsim_hlsim as hlsim;
pub use nestsim_models as models;
pub use nestsim_proto as proto;
pub use nestsim_qrr as qrr;
pub use nestsim_report as report;
pub use nestsim_rtl as rtl;
pub use nestsim_stats as stats;
pub use nestsim_svc as svc;
pub use nestsim_telemetry as telemetry;
