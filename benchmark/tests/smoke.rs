//! `e2e --smoke` end to end: every workload, untraced and traced, one
//! cell each — the whole binary in seconds.

use std::process::Command;
use std::time::{Duration, Instant};

const E2E: &str = env!("CARGO_BIN_EXE_e2e");

#[test]
fn smoke_runs_every_workload_both_halves_and_ends_with_the_result_line() {
    let started = Instant::now();
    let out = Command::new(E2E)
        .arg("--smoke")
        .output()
        .expect("e2e starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "e2e --smoke failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Seconds when optimised; an unoptimised build is ≈10× slower and
    // is only held to finishing.
    if !cfg!(debug_assertions) {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "--smoke is meant to take seconds"
        );
    }

    for workload in [
        "l2c_indep",
        "l2c_lanes",
        "ccx_indep",
        "ladder_long",
        "served",
    ] {
        assert!(
            stdout.contains(&format!("# {workload} seed 99  (")),
            "{workload} ran untraced"
        );
        assert!(
            stdout.contains(&format!("# {workload} seed 99  traced")),
            "{workload} ran traced"
        );
    }
    // Five untraced runs print the end-to-end metrics, five traced runs
    // the per-layer ones; nothing was dropped from any trace.
    assert_eq!(stdout.matches("\nus_per_inj ").count(), 5);
    assert_eq!(stdout.matches("\ntrace.dropped ").count(), 5);
    assert_eq!(
        stdout
            .matches("\ntrace.dropped                              0.000000 count")
            .count(),
        5
    );

    // The last line is the contract's result object, of the last run.
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {\"hlsim.golden_pass_ms\": {\"value\": "));
    assert!(last.ends_with("\"unit\": \"%\"}}}"), "{last}");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result_line() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--frobnicate"][..],
        &["--seconds", "0"][..],
    ] {
        let out = Command::new(E2E).args(args).output().expect("e2e starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
