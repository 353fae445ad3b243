//! The untraced run: the end-to-end metrics, through the three stable
//! one-call entry points only (`run_campaign_with`,
//! `run_campaign_cluster`, `svc::serve` + `SvcClient::run_jobs`), so an
//! engine refactor can break at most the traced half.

use std::time::Instant;

use crate::alloc::Heap;
use crate::calib::{kernel_s, REFERENCE_S};
use crate::stats::{floor, metric, percentile, proc_status_kb, Metric};
use crate::workloads::{check, Cell, Delivered, Plan, Workload};
use crate::Report;

/// One timed call: its wall time and the mean of the calibration-kernel
/// passes right before and right after it, both in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall time of the call.
    pub wall_s: f64,
    /// Mean wall time of the two kernel passes bracketing it.
    pub kernel_s: f64,
}

/// Host-time samples of one run: `[cell][round]`.
#[derive(Debug)]
pub struct Timings {
    /// The `samples = 0` set-up call.
    pub setup: Vec<Vec<Timed>>,
    /// The full-cell call.
    pub full: Vec<Vec<Timed>>,
    /// The latest kernel pass: the next call's "before".
    last_kernel_s: f64,
}

impl Timings {
    /// Room for `cells` cells; runs the first kernel pass.
    pub fn new(cells: usize) -> Timings {
        Timings {
            setup: vec![Vec::new(); cells],
            full: vec![Vec::new(); cells],
            last_kernel_s: kernel_s(),
        }
    }

    /// Times `f` and the kernel pass after it.
    fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let before = self.last_kernel_s;
        let t = Instant::now();
        let r = f();
        let wall_s = t.elapsed().as_secs_f64();
        self.last_kernel_s = kernel_s();
        let kernel_s = (before + self.last_kernel_s) / 2.0;
        (r, Timed { wall_s, kernel_s })
    }
}

/// Seconds per call at the reference machine speed: total wall time over
/// total kernel time beside it, times the kernel's reference time.
pub fn calibrated_s(per_cell: &[Vec<Timed>]) -> f64 {
    let (mut wall, mut kernel) = (0.0, 0.0);
    for t in per_cell.iter().flatten() {
        wall += t.wall_s;
        kernel += t.kernel_s;
    }
    // (wall ÷ n) × REFERENCE_S ÷ (kernel ÷ n)
    wall / kernel * REFERENCE_S
}

/// Mean over cells of each cell's floor over rounds, unscaled: what the
/// traced run's per-layer rows use.
pub fn floor_mean(per_cell: &[Vec<f64>]) -> f64 {
    per_cell.iter().map(|rounds| floor(rounds)).sum::<f64>() / per_cell.len() as f64
}

/// The wall times of `per_cell`, for [`floor_mean`].
pub fn walls(per_cell: &[Vec<Timed>]) -> Vec<Vec<f64>> {
    per_cell
        .iter()
        .map(|rounds| rounds.iter().map(|t| t.wall_s).collect())
        .collect()
}

/// Discarded reps of the first cell: heap grown, code paths hot, the
/// served path's sockets opened once.
pub fn warm_up(w: &Workload, cell: &Cell, reps: usize) {
    for _ in 0..reps {
        cell.run_setup();
        if let Err(e) = cell.run_full(w.path) {
            eprintln!("e2e: {}: warm-up rep failed: {e}", w.name);
        }
    }
}

/// One timed cold rep of `cell`: the set-up call, then the full cell
/// with the allocation counters bracketing it, a kernel pass between and
/// after. Returns what the full call delivered and its allocation window.
pub fn timed_rep(
    w: &Workload,
    cell: &Cell,
    k: usize,
    t: &mut Timings,
) -> (Result<Delivered, String>, Heap) {
    let ((), setup) = t.timed(|| cell.run_setup());
    let heap0 = Heap::now();
    let ((got, heap), full) = t.timed(|| {
        let got = cell.run_full(w.path);
        (got, Heap::since(heap0))
    });
    t.setup[k].push(setup);
    t.full[k].push(full);
    (got, heap)
}

/// Checks rep `got` of cell `k`, whose reference is made from the
/// cell's first rep. Returns whether the rep passed.
pub fn checked(
    w: &Workload,
    cell: &Cell,
    k: usize,
    references: &mut [Option<Delivered>],
    got: &Result<Delivered, String>,
) -> bool {
    let reference = references[k].get_or_insert_with(|| cell.reference(w.path, got));
    match check(w, reference, got) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("e2e: {} cell {k}: {e}", w.name);
            false
        }
    }
}

/// Runs the plan's timed rounds over its cells and reports the five
/// end-to-end metrics.
pub fn run(w: &Workload, seed: u64, plan: Plan, started: Instant) -> Report {
    let cells = w.cells(seed, plan.cells);
    // Process start to workload generated: the one-shot part of set-up.
    let one_shot_s = started.elapsed().as_secs_f64();

    warm_up(w, &cells[0], plan.warmup_reps);

    let mut t = Timings::new(cells.len());
    let mut references = vec![None; cells.len()];
    let mut heap = Heap::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for _ in 0..plan.rounds {
        for (k, cell) in cells.iter().enumerate() {
            let (got, rep_heap) = timed_rep(w, cell, k, &mut t);
            heap += rep_heap;
            attempted += w.samples;
            // A failed rep keeps its timing and counts all its
            // injections as failed.
            if !checked(w, cell, k, &mut references, &got) {
                failed += w.samples;
            }
        }
    }

    let full_s = calibrated_s(&t.full);
    let setup_s = calibrated_s(&t.setup);
    let reps: Vec<&Timed> = t.full.iter().flatten().collect();
    let wall_ms: Vec<f64> = reps.iter().map(|r| r.wall_s * 1e3).collect();
    let kernel_ms: Vec<f64> = reps.iter().map(|r| r.kernel_s * 1e3).collect();
    let raw_s = wall_ms.iter().sum::<f64>() / 1e3 / reps.len() as f64;
    println!(
        "# reps n={} full-cell wall ms p10 {:.3} p50 {:.3} p90 {:.3}; set-up one-shot {:.6} s",
        reps.len(),
        percentile(&wall_ms, 10.0),
        percentile(&wall_ms, 50.0),
        percentile(&wall_ms, 90.0),
        one_shot_s,
    );
    println!(
        "# calibration kernel ms p10 {:.3} p50 {:.3} p90 {:.3} (reference {:.3}): unscaled us_per_inj {:.3}, machine factor {:.4}",
        percentile(&kernel_ms, 10.0),
        percentile(&kernel_ms, 50.0),
        percentile(&kernel_ms, 90.0),
        REFERENCE_S * 1e3,
        raw_s / w.samples as f64 * 1e6,
        raw_s / full_s,
    );

    let inj = attempted as f64;
    let metrics: Vec<Metric> = vec![
        metric("us_per_inj", full_s / w.samples as f64 * 1e6, "us"),
        metric("setup_s", one_shot_s + setup_s, "s"),
        metric("allocs_per_inj", heap.calls as f64 / inj, "count"),
        metric("alloc_kb_per_inj", heap.bytes as f64 / 1024.0 / inj, "KiB"),
        metric(
            "peak_rss_mb",
            proc_status_kb("VmHWM").unwrap_or(0) as f64 / 1024.0,
            "MB",
        ),
    ];
    Report {
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_time_is_total_wall_over_total_kernel_at_reference_speed() {
        let at = |wall_s, kernel_s| Timed { wall_s, kernel_s };
        // A quiet machine: the kernel runs at its reference time, so the
        // calibrated time is the mean wall time.
        let quiet = vec![
            vec![at(0.10, REFERENCE_S), at(0.12, REFERENCE_S)],
            vec![at(0.20, REFERENCE_S)],
        ];
        assert!((calibrated_s(&quiet) - 0.14).abs() < 1e-12);
        // The same work on a machine running 1.4× slower throughout.
        let slow: Vec<Vec<Timed>> = quiet
            .iter()
            .map(|c| {
                c.iter()
                    .map(|t| at(t.wall_s * 1.4, t.kernel_s * 1.4))
                    .collect()
            })
            .collect();
        assert!((calibrated_s(&slow) - 0.14).abs() < 1e-12);
    }
}
