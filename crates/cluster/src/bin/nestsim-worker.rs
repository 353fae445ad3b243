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

use nestsim_cluster::{run_worker, WorkerOptions};

fn parse(args: &[String]) -> Result<(String, WorkerOptions), String> {
    let mut addr = None;
    let mut opts = WorkerOptions {
        process_exit_on_crash: true,
        ..WorkerOptions::default()
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", args[*i - 1]))
        };
        match args[i].as_str() {
            "--connect" => addr = Some(take(&mut i)?),
            "--crash-after" => {
                opts.crash_after_samples = Some(take(&mut i)?.parse().map_err(|e| format!("{e}"))?);
            }
            "--stall-after" => {
                opts.stall_after_samples = Some(take(&mut i)?.parse().map_err(|e| format!("{e}"))?);
            }
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    let addr = addr.ok_or("missing --connect HOST:PORT")?;
    Ok((addr, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, opts) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}\nusage: nestsim-worker --connect HOST:PORT [--crash-after N] [--stall-after N]");
            return ExitCode::FAILURE;
        }
    };
    match run_worker(&addr, &opts) {
        Ok(stats) => {
            eprintln!(
                "nestsim-worker: {} shards completed ({} duplicate, {} abandoned), {} samples",
                stats.shards_completed,
                stats.shards_duplicate,
                stats.shards_abandoned,
                stats.samples_run
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("nestsim-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
