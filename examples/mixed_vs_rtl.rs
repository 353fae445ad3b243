//! Mixed-mode accuracy and speed vs. RTL-only simulation (Sec. 2.3 and
//! Fig. 7): runs the same injections through both pipelines on the
//! paper's reduced FFT setup and compares outcome rates and wall-clock.
//!
//! ```sh
//! cargo run --release --example mixed_vs_rtl -- [samples]
//! ```

use std::time::Instant;

use nestsim::core::rtl_only::{
    draw_fig7_samples, fig7_outcome, rtl_only_golden, run_mixed_injection_reduced,
    run_rtl_only_injection, RtlOnlyConfig,
};
use nestsim::core::{Outcome, OutcomeCounts};
use nestsim::hlsim::workload::by_name;
use nestsim::report::{pct, Table};

fn main() {
    let samples: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);

    // The paper's Fig. 7 setup: a small FFT on 4 threads without an OS.
    let cfg = RtlOnlyConfig::paper_like(by_name("fft").unwrap());
    let golden = rtl_only_golden(&cfg);
    println!(
        "reduced FFT: {} error-free cycles; {samples} injections per pipeline\n",
        golden.cycles
    );
    let points = draw_fig7_samples(&cfg, &golden, samples);

    let t0 = Instant::now();
    let mut rtl = OutcomeCounts::new();
    for &(bit, cycle) in &points {
        rtl.record(fig7_outcome(&run_rtl_only_injection(
            &cfg, &golden, bit, cycle,
        )));
    }
    let rtl_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut mixed = OutcomeCounts::new();
    for &(bit, cycle) in &points {
        mixed.record(fig7_outcome(&run_mixed_injection_reduced(
            &cfg, &golden, bit, cycle,
        )));
    }
    let mixed_secs = t1.elapsed().as_secs_f64();

    let mut t = Table::new(["outcome", "RTL-only", "mixed-mode"]);
    for (label, outs) in [
        ("ONA+OMM", vec![Outcome::Ona, Outcome::Omm]),
        ("UT", vec![Outcome::Ut]),
        ("Hang", vec![Outcome::Hang]),
        ("Vanished", vec![Outcome::Vanished]),
    ] {
        let rate = |c: &OutcomeCounts| {
            outs.iter().map(|&o| c.count(o)).sum::<u64>() as f64 / c.reported_total().max(1) as f64
        };
        t.row([label.to_string(), pct(rate(&rtl), 1), pct(rate(&mixed), 1)]);
    }
    print!("{}", t.render());

    println!(
        "\nwall-clock: RTL-only {rtl_secs:.2}s, mixed-mode {mixed_secs:.2}s \
         ({:.1}x faster here; the paper reports >20,000x at OpenSPARC T2 scale,\n\
         where RTL-only runs at ~100 cycles/sec)",
        rtl_secs / mixed_secs.max(1e-9)
    );
    println!("paper: mixed-mode outcome rates within 0.9-1.1x of RTL-only.");
}
