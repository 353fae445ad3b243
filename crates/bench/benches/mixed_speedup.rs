//! The Table 2 / Sec. 2.3 performance claims on this implementation:
//! accelerated-mode cycle rate vs. co-simulation cycle rate (their
//! ratio is the analogue of the paper's 20,000× speedup over RTL-only
//! simulation), plus the cost of the mixed-mode plumbing itself
//! (state transfer, snapshot clone, warm-up window).
//!
//! Writes `BENCH_mixed_speedup.json` via the in-repo harness runner.

use std::hint::black_box;

use nestsim_bench::bench_base;
use nestsim_core::cosim::{CosimDriver, L2cDriver};
use nestsim_harness::bench::Suite;
use nestsim_hlsim::ladder::DEFAULT_MAX_RUNGS;
use nestsim_hlsim::{SnapshotLadder, System};
use nestsim_proto::addr::BankId;

fn accelerated_mode(suite: &mut Suite) {
    let (base, _golden) = bench_base("radi", 50);
    suite.bench("table2/accelerated", "full_run", || {
        let mut sys = base.clone();
        black_box(sys.run_to_end())
    });
}

fn cosim_mode(suite: &mut Suite) {
    let window = 4_000u64;
    let (base, _) = bench_base("radi", 50);
    suite.bench("table2/cosim", "target_plus_golden_window", || {
        let mut sys = base.clone();
        sys.run_until(500);
        let mut drv = L2cDriver::attach(sys, BankId::new(0));
        drv.snapshot_golden();
        for _ in 0..window {
            drv.step();
        }
        black_box(drv.cycle())
    });
}

fn mixed_mode_plumbing(suite: &mut Suite) {
    let (base, golden) = bench_base("radi", 50);

    // Building the base system: program image, threads, DMA set-up —
    // paid once per campaign cell, cluster worker and service execution.
    suite.bench("table2/plumbing", "system_new", || {
        black_box(System::new(base.config().clone()))
    });

    // Clone of the pristine base, whose whole image is shared.
    suite.bench("table2/plumbing", "snapshot_clone", || {
        black_box(base.clone())
    });

    // Snapshot restore (Fig. 2 step 1) = clone of a mid-run ladder
    // rung: shared pages, plus the warmed L2 arrays, in-flight events
    // and store-tracking state the pristine base does not have yet.
    let (ladder, _) = SnapshotLadder::capture(&base, 512, DEFAULT_MAX_RUNGS);
    let rung = ladder.rung_below(golden.cycles / 2);
    assert!(rung.cycle() > 0, "a mid-run rung");
    suite.bench("table2/plumbing", "snapshot_restore", || {
        black_box(rung.clone())
    });

    // State transfer into RTL (Fig. 2 step 3).
    suite.bench("table2/plumbing", "state_transfer_attach", || {
        let sys = base.clone();
        black_box(L2cDriver::attach(sys, BankId::new(0)))
    });

    // The 1,000-cycle warm-up window (Fig. 2 step 4).
    suite.bench("table2/plumbing", "warmup_1000", || {
        let mut sys = base.clone();
        sys.run_until(500);
        let mut drv = L2cDriver::attach(sys, BankId::new(0));
        for _ in 0..1_000 {
            drv.step();
        }
        black_box(drv.cycle())
    });
}

fn main() {
    let mut suite = Suite::new("mixed_speedup");
    accelerated_mode(&mut suite);
    cosim_mode(&mut suite);
    mixed_mode_plumbing(&mut suite);
    suite.finish();
}
