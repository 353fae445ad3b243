//! `nestsim-worker` — a campaign worker process.
//!
//! ```text
//! nestsim-worker --connect HOST:PORT [--crash-after N] [--stall-after N]
//! ```
//!
//! Connects to a campaign server (the one `run_cluster` binds for
//! `repro --cluster N`, or a `nestsim-svc` service), leases campaign
//! shards, executes them, and exits when the server dismisses it. The chaos
//! flags deterministically kill (`--crash-after`, exit code 17) or
//! hang (`--stall-after`) the worker after N samples — used by the
//! fault-tolerance tests and the CI smoke stage.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    nestsim_cluster::worker::worker_main("nestsim-worker", &args)
}
