//! # nestsim-svc — campaign-as-a-service
//!
//! A long-lived, multi-tenant campaign service: many clients connect
//! over TCP, submit injection-campaign jobs, and stream back results —
//! all multiplexed through **one** nonblocking event loop, the same
//! `nestsim_cluster::server` loop and machine a cluster campaign runs on.
//!
//! The protocol itself is the one campaign server machine,
//! [`nestsim_cluster::ServiceMachine`], which the `nestsim-mck` model
//! checker steps; this crate adds the driver around it:
//!
//! | Layer | Module | Role |
//! |---|---|---|
//! | driver | [`service`] | the machine on the server loop, plus the execution pool |
//! | client | [`client`] | blocking client used by `repro --service` and tests |
//!
//! Determinism contract: a job's results are byte-identical to an
//! in-process [`nestsim_core::run_campaign_with`] execution of the same
//! spec — the service runs such an execution, or leases its shards to
//! connected workers, and serializes it over exact wire codecs. Overlapping submissions deduplicate to a single
//! execution whose results fan out to every subscriber.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod service;

pub use client::{JobOutcome, SvcClient};
pub use nestsim_cluster::machine::SvcConfig;
pub use nestsim_cluster::store::{ExecOutput, JobKey};
pub use service::{serve, ServiceConfig, ServiceHandle};
