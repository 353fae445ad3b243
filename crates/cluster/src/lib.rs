//! # nestsim-cluster
//!
//! Fault-tolerant distributed campaign execution: a coordinator
//! serving shard leases to worker processes over loopback TCP, built
//! on nothing but `std::net`.
//!
//! The paper's injection campaigns (Sec. 5) are embarrassingly
//! parallel and bit-deterministic, which makes distribution almost
//! embarrassingly safe: any shard of a campaign can be executed by any
//! worker, any number of times, and always reproduces the same bytes.
//! The cluster layer turns that property into fault tolerance —
//!
//! * [`shard`] — contiguous ranges over the entry-sorted sample order;
//!   the coordinator plans them from the sample *count* alone.
//! * [`frame`] / [`wire`] / [`proto`] — a length-prefixed, versioned
//!   binary protocol whose codecs are exact inverses, so records and
//!   per-run telemetry recorders survive the wire bit-identically; one
//!   message set serves the coordinator and the service alike.
//! * [`lease`] — shard leases with deadlines, heartbeat extension,
//!   lazy expiry, and exponential re-dispatch backoff: a killed, hung,
//!   or straggling worker's shard moves to another worker, and
//!   double-completed shards dedupe idempotently by shard id.
//! * [`coord_machine`] / [`worker_machine`] — the protocol itself, as
//!   pure sans-I/O state machines (`step(now, event) -> actions`) with
//!   no sockets, threads, or wall clocks: the same types run under the
//!   TCP drivers below and under the deterministic `crates/mck`
//!   simulator, which model-checks them across message delays, drops,
//!   duplicates, and crash/restart schedules.
//! * [`server`] (with the private `conn` and `poll`) — the one server loop:
//!   one epoll thread driving a sans-I/O machine, for the coordinator
//!   and the `nestsim-svc` campaign service alike.
//! * [`coordinator`] / [`worker`] — the drivers around the two
//!   machines. [`ClusterCampaign`] is the cluster's executor for the
//!   one round loop of `nestsim_core::campaign`;
//!   [`coordinator::run_cluster`] runs a plan on it with workers
//!   attached and returns a [`nestsim_core::campaign::CampaignResult`]
//!   **byte-identical** to the in-process executor at any worker count,
//!   with or without injected worker crashes (locked by the
//!   workspace-root cluster tests and the chaos tests in this crate).
//!
//! Workers are stateless: a [`proto::JobWire`] carries the campaign
//! *spec*, and each worker re-derives golden reference, snapshot
//! ladder, and samples from the seed. The coordinator cross-checks the
//! golden digest on every submission, so a worker whose re-derivation
//! diverged is detected, not merged.
//!
//! Everything is loopback-only and offline; there is no
//! authentication, by design — never bind the coordinator to a
//! non-loopback address. The server loop is built on epoll, so the
//! crate is Linux-only.

// `unsafe` is denied everywhere but `poll`, whose epoll FFI is the
// workspace's one audited exception.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod conn;
pub mod coord_machine;
pub mod coordinator;
pub mod frame;
pub mod lease;
mod poll;
pub mod proto;
pub mod server;
pub mod shard;
pub mod wire;
pub mod worker;
pub mod worker_machine;

pub use coord_machine::{CoordAction, CoordEvent, CoordMachine, CoordOutcome};
pub use coordinator::{
    run_campaign_adaptive_cluster, run_campaign_cluster, run_cluster, serve_campaign,
    ClusterCampaign, ClusterConfig, CoordinatorConfig, WorkerSpawn,
};
pub use lease::{LeaseConfig, LeaseTable};
pub use proto::{AdaptiveRoundWire, JobWire, Message, PROTOCOL_VERSION};
pub use shard::{auto_shard_size, plan_shards, Shard};
pub use worker::{run_worker, WorkerOptions, WorkerStats};
pub use worker_machine::{WorkerAction, WorkerEnd, WorkerEvent, WorkerMachine};
