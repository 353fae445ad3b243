//! # nestsim-svc — campaign-as-a-service
//!
//! A long-lived, multi-tenant campaign service: many clients connect
//! over TCP, submit injection-campaign jobs, and stream back results —
//! all multiplexed through **one** nonblocking event loop, the same
//! `nestsim_cluster::server` loop and machine a cluster campaign runs on.
//!
//! The protocol itself is the one campaign server machine,
//! [`nestsim_cluster::ServiceMachine`], which the `nestsim-mck` model
//! checker steps; this crate adds its driver, [`service`]: the machine
//! on the server loop, plus the execution pool. The blocking client is
//! the cluster's ([`SvcClient`], re-exported here); `repro --service`
//! runs a campaign's rounds through it with
//! [`nestsim_cluster::RemoteExecutor`].
//!
//! Determinism contract: a job — a fixed-count cell or one round of an
//! adaptive one — yields results byte-identical to the in-process
//! executor's round ([`nestsim_core::campaign::LadderExecutor`]): the
//! service runs that round, or leases its shards to connected workers,
//! and serializes it over exact wire codecs. Overlapping submissions
//! deduplicate to a single execution whose results fan out to every
//! subscriber.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;

pub use nestsim_cluster::client::{JobOutcome, SvcClient};
pub use nestsim_cluster::machine::SvcConfig;
pub use nestsim_cluster::store::{ExecOutput, JobKey};
pub use service::{serve, ServiceConfig, ServiceHandle};
