//! The mixed-mode soft-error simulation platform — the paper's primary
//! contribution (Sec. 2 of *Understanding Soft Errors in Uncore
//! Components*, Cho et al., DAC 2015).
//!
//! `nestsim-core` couples the accelerated-mode full-system simulator
//! (`nestsim-hlsim`, the Simics role) with the flip-flop-level uncore
//! models (`nestsim-models`, the RTL-simulator role) exactly as Fig. 1
//! of the paper describes:
//!
//! * **Accelerated mode** — the whole SoC runs functionally; uncore
//!   components are high-level models carrying only the Table 1
//!   architectural state.
//! * **Co-simulation mode** — the target uncore component is the
//!   flip-flop-level model; request/return packets are exchanged with
//!   the high-level simulator every cycle ([`cosim`] drivers), a
//!   *golden* copy of the component runs in lockstep on the same
//!   inputs, and the platform compares flops, architectural state and
//!   output packets to decide when co-simulation can end (Fig. 2
//!   steps 6–9).
//!
//! On top of the platform sit:
//!
//! * [`inject`] — the Fig. 2 error-injection flow (snapshot restore,
//!   warm-up, bit flip, co-simulation, state transfer back, outcome
//!   determination), producing one [`inject::InjectionRecord`] per run;
//! * [`outcome`] — the paper's five application-level outcome
//!   categories (ONA / OMM / UT / Hang / Vanished) plus the
//!   persists-past-cap bucket of Sec. 4.2;
//! * [`campaign`] — seeded, shardable campaign execution over
//!   (component × benchmark) cells with confidence intervals
//!   (Fig. 3 / Fig. 4 data);
//! * [`adaptive`] — round-based campaigns with CI-driven sequential
//!   stopping and stratified (address/control/datapath) allocation;
//! * [`warmup`] — the Fig. 5 warm-up-accuracy experiment;
//! * [`persistence`] — the Fig. 6 persistence sweep;
//! * [`rtl_only`] — RTL-only (full co-simulation) runs for the Fig. 7
//!   accuracy comparison;
//! * [`checkpoint`] — the Sec. 5 checkpoint-recovery analyses (Fig. 8
//!   propagation latency, Fig. 9 rollback distance);
//! * [`perfmodel`] — the Table 2 performance model;
//! * [`core_inject`] — processor-core register injection, the
//!   apples-to-apples baseline for the Fig. 4 comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod campaign;
pub mod checkpoint;
pub mod core_inject;
pub mod cosim;
pub mod inject;
mod lanes;
pub mod outcome;
pub mod perfmodel;
pub mod persistence;
pub mod rtl_only;
pub mod warmup;

pub use adaptive::{AdaptiveState, AdaptiveSummary, RoundTrace};
pub use campaign::{run_campaign_with, CampaignResult, CampaignSpec};
pub use inject::{run_injection, run_injection_with, InjectionRecord, InjectionSpec};
pub use outcome::{Outcome, OutcomeCounts};
