//! `e2e --aa`: the same code against itself. Every workload runs twice
//! in fresh processes — first in `BENCHMARK.json` order, then reversed,
//! so no workload always follows the same neighbour — and each
//! end-to-end metric's two values are printed with their gap and the
//! metric's bound. Three such passes are the noise table of the README.

use std::process::{Command, ExitCode};

use crate::contract::END_TO_END;
use crate::stats::parse_result_line;
use crate::workloads::{Workload, WORKLOADS};

/// One untraced run of `w` in a child process; its metrics by name.
fn child_run(w: &Workload, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("could not start the {} run: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!(
            "the {} run exited with {}: {}",
            w.name,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    parse_result_line(last).ok_or_else(|| format!("no result line from the {} run", w.name))
}

/// Relative gap between two same-code values: their distance as a share
/// of the smaller.
fn gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b)
}

/// Runs the A/A pass and prints its table.
pub fn run(seed: u64, seconds: u64) -> ExitCode {
    let forward: Vec<&Workload> = WORKLOADS.iter().collect();
    let backward: Vec<&Workload> = WORKLOADS.iter().rev().collect();
    let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
    for w in forward.iter().chain(&backward) {
        eprintln!("e2e --aa: {} ...", w.name);
        match child_run(w, seed, seconds) {
            Ok(metrics) => runs.push(metrics),
            Err(e) => {
                eprintln!("e2e --aa: {e}");
                return ExitCode::from(1);
            }
        }
    }
    println!(
        "{:<12} {:<17} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    let n = WORKLOADS.len();
    let mut over = 0;
    for (i, w) in WORKLOADS.iter().enumerate() {
        // Run i of the forward half and run n-1-i of the backward half.
        let (a, b) = (&runs[i], &runs[n + (n - 1 - i)]);
        for (name, _, _, bound) in END_TO_END {
            let value = |run: &[(String, f64)]| {
                run.iter()
                    .find(|(n, _)| n == name)
                    .map_or(f64::NAN, |(_, v)| *v)
            };
            let (x, y) = (value(a), value(b));
            let g = gap(x, y);
            let mark = if g <= bound { "" } else { "  OVER" };
            over += usize::from(g > bound);
            println!(
                "{:<12} {:<17} {x:>14.4} {y:>14.4} {:>7.2}% {:>5.0}%{mark}",
                w.name,
                name,
                g * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "# {over} of {} pairs over their bound",
        n * END_TO_END.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_symmetric_and_relative_to_the_smaller_value() {
        assert_eq!(gap(100.0, 110.0), gap(110.0, 100.0));
        assert!((gap(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert_eq!(gap(5.0, 5.0), 0.0);
    }
}
