//! # nestsim-cluster
//!
//! Fault-tolerant distributed campaign execution: one campaign server
//! serving cells to its clients, in process or as shards leased to
//! worker processes over loopback TCP, built on nothing but `std::net`.
//!
//! The paper's injection campaigns (Sec. 5) are embarrassingly
//! parallel and bit-deterministic: any shard can be executed by any
//! worker, any number of times, and reproduces the same bytes. The
//! crate turns that property into fault tolerance —
//!
//! * [`shard`] — contiguous ranges over the entry-sorted sample order,
//!   planned from the sample *count* alone.
//! * [`frame`] / [`wire`] / [`proto`] — a length-prefixed, versioned
//!   binary protocol whose codecs are exact inverses, so records and
//!   per-run recorders survive the wire bit-identically.
//! * [`lease`] — shard leases with deadlines, heartbeats, lazy expiry
//!   and exponential re-dispatch backoff; double completions dedupe by
//!   shard id.
//! * [`machine`] / [`worker_machine`] — the protocol as pure sans-I/O
//!   machines: [`ServiceMachine`] is the one server machine (leases,
//!   parked workers, the [`sched`] fair-share queue, the [`store`] of
//!   deduplicated results), [`WorkerMachine`] its worker. The
//!   `crates/mck` simulator model-checks these very types.
//! * [`server`] (with the private `conn` and `poll`) — the one epoll
//!   loop driving the machine.
//! * [`client`] / [`worker`] — the drivers of the server's two kinds of
//!   peer: [`SvcClient`] submits cells, [`run_worker`] runs leased
//!   shards.
//! * [`coordinator`] — [`RemoteExecutor`] runs the round loop of
//!   `nestsim_core::campaign` through a client, one job per round;
//!   [`run_cluster`] runs a plan on it against a server with workers
//!   attached, **byte-identical** to the in-process executor at any
//!   worker count, crashes or not.
//!
//! Workers are stateless: a [`proto::JobWire`] carries the campaign
//! *spec*, each worker re-derives golden reference, ladder and samples
//! from the seed, and the server cross-checks the golden digest of
//! every submission. Everything is loopback-only with no
//! authentication, by design — never bind the server to a non-loopback
//! address. The loop is built on epoll, so the crate is Linux-only.

// `unsafe` is denied everywhere but `poll`, whose epoll FFI is the
// workspace's one audited exception.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod coordinator;
pub mod frame;
pub mod lease;
pub mod machine;
mod poll;
pub mod proto;
pub mod sched;
pub mod server;
pub mod shard;
pub mod store;
pub mod wire;
pub mod worker;
pub mod worker_machine;

pub use client::{JobOutcome, SvcClient};
pub use coordinator::{
    run_campaign_cluster, run_cluster, ClusterConfig, RemoteExecutor, WorkerSpawn,
};
pub use lease::{LeaseConfig, LeaseTable};
pub use machine::{ServiceMachine, SvcConfig};
pub use proto::{AdaptiveRoundWire, JobWire, Message, PROTOCOL_VERSION};
pub use shard::{auto_shard_size, plan_shards, Shard};
pub use worker::{run_worker, WorkerOptions, WorkerStats};
pub use worker_machine::{WorkerAction, WorkerEnd, WorkerEvent, WorkerMachine};
