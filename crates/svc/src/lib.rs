//! # nestsim-svc — campaign-as-a-service
//!
//! A long-lived, multi-tenant campaign service: many clients connect
//! over TCP, submit injection-campaign jobs, and stream back results —
//! all multiplexed through **one** nonblocking event loop, the same
//! `nestsim_cluster::server` loop the campaign coordinator runs on.
//!
//! The layering mirrors the cluster crate so the `nestsim-mck` model
//! checker keeps covering the protocol:
//!
//! | Layer | Module | Role |
//! |---|---|---|
//! | wire | `nestsim_cluster::proto` | the one message set, shared with the coordinator (protocol v5, `NSCL` frames) |
//! | scheduling | [`sched`] | deficit-round-robin fair share across tenants |
//! | dedup | [`store`] | content-addressed result store keyed by `JobWire::result_key` |
//! | protocol | [`machine`] | sans-I/O service state machine (model-checked) |
//! | driver | [`service`] | the machine on the server loop, plus the execution pool |
//! | client | [`client`] | blocking client used by `repro --service` and tests |
//!
//! Determinism contract: a job's results are byte-identical to an
//! in-process [`nestsim_core::run_campaign_with`] execution of the same
//! spec — the service *is* such an execution, serialized over exact
//! wire codecs. Overlapping submissions deduplicate to a single
//! execution whose results fan out to every subscriber.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod machine;
pub mod sched;
pub mod service;
pub mod store;

pub use client::{JobOutcome, SvcClient};
pub use machine::{SvcAction, SvcConfig, SvcEvent, SvcMachine};
pub use sched::DrrScheduler;
pub use service::{serve, ServiceConfig, ServiceHandle};
pub use store::{ExecOutput, JobKey, ResultStore};
