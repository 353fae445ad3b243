//! # nestsim-mck
//!
//! A deterministic protocol simulator ("model checker") for the one
//! campaign server. The paper's statistics hold only if distributed
//! campaigns count every injection **exactly once**; chaos tests sample
//! a few lucky interleavings, while this crate steps the very machine
//! the epoll loop runs under a virtual clock and a simulated network and
//! explores schedules *systematically*:
//!
//! * [`world`](mod@world) — the one discrete-event world;
//! * [`ServerScenario`] — the one scenario on it: the campaign's
//!   client, restarting workers and scripted tenants, both fault
//!   families and every invariant;
//! * [`explore`] — seeded random schedules and bounded DFS, every
//!   failure replayable from a printed seed or schedule;
//! * [`exec`] — the real engine run once per cell and cached.
//!
//! [`SimConfig::mutate`] plants one of two bugs, and the crate's tests
//! prove the explorer catches both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod cluster;
pub mod exec;
pub mod explore;
mod service;
pub mod world;

pub use exec::CampaignExec;
pub use explore::{explore_random, Chooser, DfsReport, RandomChooser, ScheduleChooser};
pub use service::ServerScenario;
pub use world::{run_sim, world, Fault, FaultBudget, Mutation, SimConfig, SimError, SimReport};
