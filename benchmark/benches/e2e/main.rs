//! `e2e` — the repo's end-to-end benchmark (see `../../README.md` and
//! `BENCHMARK.json` at the repo root).
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! e2e --smoke [--workload NAME]   # untraced and traced, one rep each
//! e2e --aa [--seed N]             # every workload twice, fresh processes
//! ```
//!
//! Without `--workload` all five run, one after another.
//!
//! A run generates the workload's cells from `--seed`, runs a fixed
//! number of short cold reps on one compute thread, checks every rep's
//! result, prints every metric by name with its unit, and ends with the
//! one-line JSON result the driver reads: end-to-end metrics untraced,
//! per-layer metrics with `--trace`.

mod aa;
mod alloc;
mod calib;
mod contract;
mod layers;
mod stats;
mod trace;
mod untraced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use stats::Metric;
use workloads::{workload, Plan, Workload, DEFAULT_SECONDS, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    aa: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 99,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        aa: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace` alone turns tracing on; the driver spells it
            // `--trace 0` / `--trace 1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// What one run reports.
pub struct Report {
    /// Injections in timed reps.
    pub attempted: u64,
    /// Injections in timed reps that failed the result check.
    pub failed: u64,
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

fn run_one(
    w: &Workload,
    args: &Args,
    trace: bool,
    started: Instant,
    process_started: Instant,
) -> Result<Report, String> {
    let plan = if args.smoke {
        Plan::SMOKE
    } else {
        w.plan(args.seconds)
    };
    println!(
        "# {} seed {}{}  ({})",
        w.name,
        args.seed,
        if trace { "  traced" } else { "" },
        w.why
    );
    let report = if trace {
        layers::run(w, args.seed, args.smoke)?
    } else {
        println!("# {} cells x {} rounds", plan.cells, plan.rounds);
        untraced::run(w, args.seed, plan, started)
    };
    for m in &report.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some((user, sys)) = stats::process_cpu_s() {
        // CPU time above wall time would mean more than one busy thread.
        println!(
            "# process so far: wall {:.2} s, cpu user {user:.2} s + sys {sys:.2} s",
            process_started.elapsed().as_secs_f64()
        );
    }
    Ok(report)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            eprintln!(
                "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] | --aa"
            );
            return ExitCode::from(2);
        }
    };
    if args.aa {
        return aa::run(args.seed, args.seconds);
    }
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => match workload(name) {
            Some(w) => vec![w],
            None => {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "e2e: unknown workload {name:?}; known: {}",
                    known.join(", ")
                );
                return ExitCode::from(2);
            }
        },
        None => WORKLOADS.iter().collect(),
    };
    // `--smoke` covers both halves of each workload.
    let halves: &[bool] = if args.smoke {
        &[false, true]
    } else {
        &[args.trace]
    };
    let mut last = None;
    let mut all_correct = true;
    // Set-up time counts from process start for the first run, from the
    // end of the previous run for any later one.
    let process_started = started;
    let mut started = started;
    for w in selected {
        for &trace in halves {
            let report = match run_one(w, &args, trace, started, process_started) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("e2e: {}: {e}", w.name);
                    return ExitCode::from(1);
                }
            };
            all_correct &= report.failed == 0;
            last = Some(report);
            started = Instant::now();
        }
    }
    let report = last.expect("at least one workload ran");
    // The result line is the last line of standard output.
    println!(
        "{}",
        stats::result_line(report.attempted, report.failed, &report.metrics)
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload served --seed 7 --seconds 12 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("served"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, false));
        assert!(parse("--workload served --trace 1").unwrap().trace);
        assert!(parse("--trace --workload served").unwrap().trace);
        assert_eq!(parse("--workload x").unwrap().seed, 99);
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(parse("--seed").is_err());
    }
}
