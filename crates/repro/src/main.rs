//! `repro` — regenerates every table and figure of *Understanding Soft
//! Errors in Uncore Components* (Cho et al., DAC 2015).
//!
//! ```text
//! repro <experiment> [options]
//!
//! experiments:
//!   table2   mixed-mode performance model (+ measured rates)
//!   table3   component inventory
//!   table4   injection-target flop partition
//!   table5   benchmark applications (+ measured lengths)
//!   table6   QRR area/power overhead
//!   fig3     outcome rates per benchmark   (--component l2c|mcu|ccx|pcie)
//!   fig4     OMM rates: uncore vs processor cores
//!   fig5     warm-up state convergence
//!   fig6     error persistence beyond co-simulation cycles
//!   fig7     RTL-only vs mixed-mode accuracy   (--component l2c|mcu|ccx|pcie)
//!   fig8     error-propagation latency CDF
//!   fig9     required rollback distance CDF
//!   qrr      QRR recovery evaluation (+ --worst-case)
//!   burst    multi-bit burst extension: blocked vs interleaved parity
//!   validate platform self-checks (mode equivalence, determinism)
//!   all      everything above with quick defaults
//!
//! options:
//!   --samples N      injection runs per cell        (default 120)
//!   --scale N        extra benchmark length divisor (default 20)
//!   --benchmarks a,b comma-separated subset          (default: per experiment)
//!   --seed N         campaign seed                   (default 2015)
//!   --component X    component for fig3 and fig7     (default l2c)
//!   --cosim-cap N         co-simulation cycle cap, >= 1   (default 100000)
//!   --check-interval N    golden-compare interval, >= 1   (default 16)
//!   --snapshot-interval N snapshot-ladder rung spacing in cycles, >= 1
//!                         before thinning (default 2000 = paper's 2M /
//!                         cycle scale; rungs let each worker's shard
//!                         start from the nearest snapshot below its first
//!                         entry cycle instead of replaying from cycle 0;
//!                         a fixed-count cell keeps at most one rung per
//!                         worker — results are identical for every
//!                         interval)
//!   --lane-cluster N group every N consecutive samples onto one
//!                    injection trajectory so they can share a warm-up
//!                    and, on L2C, a lane batch (default 1 =
//!                    independent draws; result-affecting: changes
//!                    which cycles are hit)
//!   --lane-width N   max same-trajectory samples per shared warm-up
//!                    (an L2C lane batch; clones of one warmed driver
//!                    elsewhere), 1-64 (default 64; execution-only —
//!                    results are byte-identical for every width)
//!   --cluster N      distribute campaigns across N spawned worker
//!                    processes over loopback TCP (0 = in-process,
//!                    the default; results are byte-identical either
//!                    way — see DESIGN.md "The campaign server")
//!   --service ADDR   submit campaign cells to a running `nestsim-svc`
//!                    campaign service instead of executing locally
//!                    (results are byte-identical; overlapping cells
//!                    from concurrent clients dedupe to one execution —
//!                    see DESIGN.md "The campaign server"; conflicts with
//!                    --cluster)
//!   --adaptive       run campaigns in rounds with CI-driven sequential
//!                    stopping and stratified allocation instead of the
//!                    fixed --samples count (see DESIGN.md "Adaptive
//!                    sampling"; composes with --cluster and --service)
//!   --ci-target W    adaptive stopping target: Wilson half-width every
//!                    outcome category must reach, in (0,1)
//!                    (default 0.005 = ±0.5%)
//!   --ci-confidence C confidence level of the stopping intervals,
//!                    in (0,1) (default 0.95)
//!   --csv DIR        also write raw per-run records as CSV into DIR
//!   --telemetry FILE record campaign telemetry, write the merged
//!                    JSON-lines export to FILE, and print provenance +
//!                    engine footers under the figure
//! ```
//!
//! Paper reference values are printed alongside every reproduced
//! number. Absolute rates differ from the paper's (different chip,
//! scaled workloads); the *shape* — which outcomes dominate, which
//! components are worst, where distributions have mass — is the
//! reproduction target (see EXPERIMENTS.md).

mod cache;
mod figs;
mod qrreval;
mod tables;

use std::process::ExitCode;

use nestsim_core::campaign::DEFAULT_SNAPSHOT_INTERVAL;
use nestsim_core::inject::{DEFAULT_CHECK_INTERVAL, DEFAULT_COSIM_CAP};
use nestsim_hlsim::workload::{by_name, BENCHMARKS};
use nestsim_models::ComponentKind;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub samples: u64,
    pub scale: u64,
    pub seed: u64,
    pub component: ComponentKind,
    pub benchmarks: Option<Vec<String>>,
    pub csv: Option<String>,
    pub telemetry: Option<String>,
    pub worst_case: bool,
    pub runs: usize,
    pub window: u64,
    pub flops: usize,
    pub cosim_cap: u64,
    pub check_interval: u64,
    pub snapshot_interval: u64,
    pub lane_cluster: u64,
    pub lane_width: u64,
    pub cluster: usize,
    pub service: Option<String>,
    pub adaptive: bool,
    pub ci_target: f64,
    pub ci_confidence: f64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            samples: 120,
            scale: 20,
            seed: 2015,
            component: ComponentKind::L2c,
            benchmarks: None,
            csv: None,
            telemetry: None,
            worst_case: false,
            runs: 10,
            window: 1_000,
            flops: 64,
            cosim_cap: DEFAULT_COSIM_CAP,
            check_interval: DEFAULT_CHECK_INTERVAL,
            snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL,
            lane_cluster: 1,
            lane_width: nestsim_rtl::MAX_LANES as u64,
            cluster: 0,
            service: None,
            adaptive: false,
            ci_target: 0.005,
            ci_confidence: 0.95,
        }
    }
}

/// Parses a flag value that must be a probability-like fraction in the
/// open interval (0, 1) — confidence levels and interval half-widths.
fn take_fraction(flag: &str, value: &str) -> Result<f64, String> {
    let v: f64 = value
        .parse()
        .map_err(|e| format!("invalid value for {flag}: {e}"))?;
    if !(v > 0.0 && v < 1.0) {
        return Err(format!("{flag} must be a fraction in (0, 1), got {value}"));
    }
    Ok(v)
}

/// Parses a flag value that must be a positive integer, with an error
/// explaining *why* zero is rejected rather than silently misbehaving.
fn take_positive(flag: &str, value: &str, why_zero_is_wrong: &str) -> Result<u64, String> {
    let v: u64 = value
        .parse()
        .map_err(|e| format!("invalid value for {flag}: {e}"))?;
    if v == 0 {
        return Err(format!("{flag} must be >= 1: {why_zero_is_wrong}"));
    }
    Ok(v)
}

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut opts = Opts::default();
    let cmd = args.first().cloned().ok_or_else(usage)?;
    let mut i = 1;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", args[*i - 1]))
        };
        match args[i].as_str() {
            "--samples" => opts.samples = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--scale" => opts.scale = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => opts.seed = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--runs" => opts.runs = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--window" => opts.window = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--flops" => opts.flops = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--component" => {
                let v = take(&mut i)?;
                opts.component =
                    ComponentKind::parse(&v).ok_or_else(|| format!("unknown component {v}"))?;
            }
            "--benchmarks" => {
                let names: Vec<String> = take(&mut i)?.split(',').map(str::to_string).collect();
                for n in &names {
                    if by_name(n).is_none() {
                        return Err(format!(
                            "unknown benchmark {n:?}; valid names: {}",
                            BENCHMARKS
                                .iter()
                                .map(|b| b.name)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ));
                    }
                }
                opts.benchmarks = Some(names);
            }
            "--cosim-cap" => {
                opts.cosim_cap = take_positive(
                    "--cosim-cap",
                    &take(&mut i)?,
                    "a zero cap leaves no co-simulation window",
                )?;
            }
            "--check-interval" => {
                opts.check_interval = take_positive(
                    "--check-interval",
                    &take(&mut i)?,
                    "an interval of 0 never fires a golden compare, so every \
                     run burns the full co-simulation cap and misclassifies as Persist",
                )?;
            }
            "--snapshot-interval" => {
                opts.snapshot_interval = take_positive(
                    "--snapshot-interval",
                    &take(&mut i)?,
                    "rung spacing of 0 cycles is degenerate",
                )?;
            }
            "--lane-cluster" => {
                opts.lane_cluster = take_positive(
                    "--lane-cluster",
                    &take(&mut i)?,
                    "a cluster of 0 samples draws nothing; 1 disables clustering",
                )?;
            }
            "--lane-width" => {
                let v = take_positive(
                    "--lane-width",
                    &take(&mut i)?,
                    "a batch of 0 lanes can make no progress",
                )?;
                if v > nestsim_rtl::MAX_LANES as u64 {
                    return Err(format!(
                        "--lane-width must be <= {}: one golden-compare word holds one bit per lane",
                        nestsim_rtl::MAX_LANES
                    ));
                }
                opts.lane_width = v;
            }
            "--cluster" => {
                opts.cluster = take(&mut i)?.parse().map_err(|e| format!("{e}"))?;
            }
            "--service" => opts.service = Some(take(&mut i)?),
            "--adaptive" => opts.adaptive = true,
            "--ci-target" => {
                opts.ci_target = take_fraction("--ci-target", &take(&mut i)?)?;
            }
            "--ci-confidence" => {
                opts.ci_confidence = take_fraction("--ci-confidence", &take(&mut i)?)?;
            }
            "--csv" => opts.csv = Some(take(&mut i)?),
            "--telemetry" => opts.telemetry = Some(take(&mut i)?),
            "--worst-case" => opts.worst_case = true,
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
        i += 1;
    }
    if opts.service.is_some() && opts.cluster > 0 {
        return Err(
            "--service and --cluster conflict: the service runs its own \
             execution pool; pick one distribution mode"
                .to_string(),
        );
    }
    Ok((cmd, opts))
}

fn usage() -> String {
    "usage: repro <table2|table3|table4|table5|table6|fig3|fig4|fig5|fig6|fig7|fig8|fig9|qrr|all> [options]".to_string()
}

/// Hidden subcommand: `repro worker --connect HOST:PORT` turns this
/// process into a cluster campaign worker. `repro --cluster N` spawns
/// N of these against its coordinator; the flag set mirrors the
/// standalone `nestsim-worker` binary.
fn worker_main(args: &[String]) -> ExitCode {
    let mut addr = None;
    let mut wopts = nestsim_cluster::WorkerOptions {
        process_exit_on_crash: true,
        ..nestsim_cluster::WorkerOptions::default()
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", args[*i - 1]))
        };
        let r = match args[i].as_str() {
            "--connect" => take(&mut i).map(|v| addr = Some(v)),
            "--crash-after" => take(&mut i).and_then(|v| {
                v.parse()
                    .map(|n| wopts.crash_after_samples = Some(n))
                    .map_err(|e| format!("{e}"))
            }),
            "--stall-after" => take(&mut i).and_then(|v| {
                v.parse()
                    .map(|n| wopts.stall_after_samples = Some(n))
                    .map_err(|e| format!("{e}"))
            }),
            other => Err(format!("unknown worker option {other}")),
        };
        if let Err(e) = r {
            eprintln!(
                "{e}\nusage: repro worker --connect HOST:PORT [--crash-after N] [--stall-after N]"
            );
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    let Some(addr) = addr else {
        eprintln!("missing --connect HOST:PORT");
        return ExitCode::FAILURE;
    };
    match nestsim_cluster::run_worker(&addr, &wopts) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro worker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return worker_main(&args[1..]);
    }
    let (cmd, opts) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.as_str() {
        "table2" => tables::table2(&opts),
        "table3" => tables::table3(),
        "table4" => tables::table4(),
        "table5" => tables::table5(&opts),
        "table6" => tables::table6(),
        "fig3" => figs::fig3(&opts),
        "fig4" => figs::fig4(&opts),
        "fig5" => figs::fig5(&opts),
        "fig6" => figs::fig6(&opts),
        "fig7" => figs::fig7(&opts),
        "fig8" => figs::fig8(&opts),
        "fig9" => figs::fig9(&opts),
        "qrr" => qrreval::qrr(&opts),
        "burst" => qrreval::burst(&opts),
        "validate" => tables::validate(&opts),
        "all" => {
            tables::table3();
            tables::table4();
            tables::table5(&opts);
            tables::table2(&opts);
            tables::table6();
            let mut o = opts.clone();
            o.samples = opts.samples.min(60);
            figs::fig3(&o);
            figs::fig4(&o);
            figs::fig5(&o);
            figs::fig6(&o);
            figs::fig7(&o);
            figs::fig8(&o);
            figs::fig9(&o);
            qrreval::qrr(&o);
            qrreval::burst(&o);
        }
        other => {
            eprintln!("unknown experiment {other}\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_benchmark_name_is_rejected_with_the_valid_list() {
        let err = parse(&args(&["fig3", "--benchmarks", "radi,nope"])).unwrap_err();
        assert!(err.contains("unknown benchmark \"nope\""), "{err}");
        assert!(err.contains("valid names:"), "{err}");
        assert!(
            err.contains("radi"),
            "the error must list valid names: {err}"
        );
    }

    #[test]
    fn known_benchmark_names_parse() {
        let (_, opts) = parse(&args(&["fig3", "--benchmarks", "radi,fft"])).unwrap();
        assert_eq!(
            opts.benchmarks,
            Some(vec!["radi".to_string(), "fft".to_string()])
        );
    }

    #[test]
    fn zero_cosim_bounds_are_rejected_at_the_cli() {
        let err = parse(&args(&["fig3", "--cosim-cap", "0"])).unwrap_err();
        assert!(err.contains("--cosim-cap must be >= 1"), "{err}");
        let err = parse(&args(&["fig3", "--check-interval", "0"])).unwrap_err();
        assert!(err.contains("--check-interval must be >= 1"), "{err}");
        let err = parse(&args(&["fig3", "--snapshot-interval", "0"])).unwrap_err();
        assert!(err.contains("--snapshot-interval must be >= 1"), "{err}");
    }

    #[test]
    fn snapshot_interval_flag_overrides_the_default() {
        let (_, opts) = parse(&args(&["fig3"])).unwrap();
        assert_eq!(opts.snapshot_interval, DEFAULT_SNAPSHOT_INTERVAL);
        assert_eq!(opts.cosim_cap, DEFAULT_COSIM_CAP);
        assert_eq!(opts.check_interval, DEFAULT_CHECK_INTERVAL);
        let (_, opts) = parse(&args(&["fig3", "--snapshot-interval", "512"])).unwrap();
        assert_eq!(opts.snapshot_interval, 512);
    }

    #[test]
    fn lane_flags_override_the_defaults_and_reject_bad_widths() {
        let (_, opts) = parse(&args(&["fig3"])).unwrap();
        assert_eq!(opts.lane_cluster, 1);
        assert_eq!(opts.lane_width, nestsim_rtl::MAX_LANES as u64);
        let (_, opts) = parse(&args(&[
            "fig3",
            "--lane-cluster",
            "8",
            "--lane-width",
            "16",
        ]))
        .unwrap();
        assert_eq!(opts.lane_cluster, 8);
        assert_eq!(opts.lane_width, 16);
        let err = parse(&args(&["fig3", "--lane-cluster", "0"])).unwrap_err();
        assert!(err.contains("--lane-cluster must be >= 1"), "{err}");
        let err = parse(&args(&["fig3", "--lane-width", "0"])).unwrap_err();
        assert!(err.contains("--lane-width must be >= 1"), "{err}");
        let err = parse(&args(&["fig3", "--lane-width", "65"])).unwrap_err();
        assert!(err.contains("--lane-width must be <= 64"), "{err}");
    }

    #[test]
    fn service_flag_parses_and_rejects_conflicting_modes() {
        let (_, opts) = parse(&args(&["fig3"])).unwrap();
        assert_eq!(opts.service, None);
        let (_, opts) = parse(&args(&["fig3", "--service", "127.0.0.1:4915"])).unwrap();
        assert_eq!(opts.service.as_deref(), Some("127.0.0.1:4915"));
        let err = parse(&args(&[
            "fig3",
            "--service",
            "127.0.0.1:4915",
            "--cluster",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("--service and --cluster conflict"), "{err}");
    }

    #[test]
    fn adaptive_flags_parse_and_reject_out_of_range_fractions() {
        let (_, opts) = parse(&args(&["fig3"])).unwrap();
        assert!(!opts.adaptive);
        assert_eq!(opts.ci_target, 0.005);
        assert_eq!(opts.ci_confidence, 0.95);
        let (_, opts) = parse(&args(&[
            "fig3",
            "--adaptive",
            "--ci-target",
            "0.01",
            "--ci-confidence",
            "0.9",
        ]))
        .unwrap();
        assert!(opts.adaptive);
        assert_eq!(opts.ci_target, 0.01);
        assert_eq!(opts.ci_confidence, 0.9);
        for bad in ["0", "1", "1.5", "-0.1"] {
            let err = parse(&args(&["fig3", "--ci-target", bad])).unwrap_err();
            assert!(err.contains("must be a fraction in (0, 1)"), "{err}");
            let err = parse(&args(&["fig3", "--ci-confidence", bad])).unwrap_err();
            assert!(err.contains("must be a fraction in (0, 1)"), "{err}");
        }
    }
}
