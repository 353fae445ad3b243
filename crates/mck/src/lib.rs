//! # nestsim-mck
//!
//! A deterministic protocol simulator ("model checker") for the
//! workspace's two servers.
//!
//! The paper's statistical claims only hold if distributed campaigns
//! count every injection **exactly once**. The chaos tests kill and
//! stall real processes, but each run samples a handful of lucky
//! interleavings. This crate steps the very adapters the epoll server
//! loop runs under a virtual clock and a simulated network, and
//! *systematically* explores schedules:
//!
//! * [`world`](mod@world) — the one discrete-event world, which any
//!   [`nestsim_cluster::server::Machine`] runs in;
//! * [`Cluster`] and [`SvcScenario`] — the coordinator and the service
//!   as two scenarios on it: their peers, faults and invariants;
//! * [`explore`] — seeded random schedules and bounded DFS, every
//!   failure replayable from a printed seed or schedule;
//! * [`exec`] — the real engine run once per cell and cached, so merged
//!   results are checked against real records.
//!
//! [`SimConfig::mutate`] plants one bug per scenario, and the
//! `mck_smoke` bin proves the explorer catches both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod exec;
pub mod explore;
mod service;
pub mod world;

pub use cluster::Cluster;
pub use exec::CampaignExec;
pub use explore::{
    explore_random, schedule_to_string, Chooser, DfsReport, RandomChooser, ScheduleChooser,
};
pub use service::SvcScenario;
pub use world::{run_sim, world, Fault, FaultBudget, Scenario, SimConfig, SimError, SimReport};
