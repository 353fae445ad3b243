//! Checkpoint-recovery analyses (Sec. 5 of the paper).
//!
//! The paper argues that traditional system-level checkpoint recovery is
//! inadequate for uncore soft errors because of (1) long error-detection
//! latency — an uncore error may take millions of cycles to produce an
//! erroneous output a core-side detector could see (Fig. 8) — and
//! (2) long required rollback distance — an address-related uncore error
//! can corrupt a memory location last written arbitrarily long ago, far
//! outside any incremental checkpoint's log (Fig. 9).
//!
//! Both analyses consume the per-run [`InjectionRecord`]s produced by the
//! mixed-mode platform's campaigns.

use nestsim_stats::Cdf;

use crate::InjectionRecord;

// ───────────── Error-propagation latency (Fig. 8, Sec. 5.1) ─────────────

/// Builds the cumulative distribution of error-propagation latencies to
/// processor cores from a set of injection records.
///
/// Only runs in which the error actually reached the cores contribute
/// (the Fig. 8 population: "uncore errors propagating to processor
/// cores"). The latency of a run is the number of cycles from the bit
/// flip until the first erroneous return packet — or, for errors parked
/// in architectural state, until a core first loaded a corrupted
/// location.
pub fn propagation_cdf<'a>(records: impl IntoIterator<Item = &'a InjectionRecord>) -> Cdf {
    records
        .into_iter()
        .filter_map(|r| r.propagation_latency)
        .collect()
}

/// Mean propagation latency (the paper quotes 36M cycles for L2C at
/// full scale; ours is at the DESIGN.md cycle scale).
pub fn mean_propagation<'a>(records: impl IntoIterator<Item = &'a InjectionRecord>) -> f64 {
    let cdf = propagation_cdf(records);
    cdf.mean()
}

// ───────────── Required rollback distance (Fig. 9, Sec. 5.2) ────────────

/// Builds the cumulative distribution of required rollback distances
/// from a set of injection records.
///
/// Only runs that corrupted memory contribute (the Fig. 9 population:
/// "soft errors resulting in corrupted memory"). A run's distance is
/// `injection cycle − last core store to the corrupted location`,
/// maximised over all corrupted lines — the oldest state a recovery
/// mechanism would have to roll back to (Sec. 5.2's address-error
/// example: a corrupted location outside the incremental checkpoint's
/// logged range forces rollback to a much older checkpoint).
pub fn rollback_cdf<'a>(records: impl IntoIterator<Item = &'a InjectionRecord>) -> Cdf {
    records
        .into_iter()
        .filter_map(|r| r.rollback_distance)
        .collect()
}

/// Fraction of memory-corrupting errors recoverable with incremental
/// checkpoints taken every `interval` cycles and `depth` retained
/// checkpoints: the error is covered if the required rollback distance
/// fits within the retained window.
pub fn checkpoint_coverage<'a>(
    records: impl IntoIterator<Item = &'a InjectionRecord>,
    interval: u64,
    depth: u64,
) -> f64 {
    let mut cdf = rollback_cdf(records);
    if cdf.is_empty() {
        return 1.0;
    }
    cdf.fraction_at_most(interval.saturating_mul(depth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Outcome;

    fn rec(latency: Option<u64>, dist: Option<u64>) -> InjectionRecord {
        InjectionRecord {
            outcome: Outcome::Omm,
            bit: 0,
            inject_cycle: 5_000,
            cosim_cycles: 10,
            erroneous_output_cycle: None,
            propagation_latency: latency,
            corrupted_line_count: usize::from(dist.is_some()),
            rollback_distance: dist,
        }
    }

    #[test]
    fn only_propagating_runs_counted() {
        let records = vec![rec(Some(10), None), rec(None, None), rec(Some(1_000), None)];
        let mut cdf = propagation_cdf(&records);
        assert_eq!(cdf.len(), 2);
        assert!((cdf.fraction_at_most(10) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_over_propagating_runs() {
        let records = vec![rec(Some(10), None), rec(Some(30), None)];
        assert!((mean_propagation(&records) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn distances_build_cdf() {
        let records = vec![
            rec(None, Some(100)),
            rec(None, None),
            rec(None, Some(4_000)),
        ];
        let mut cdf = rollback_cdf(&records);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.quantile(1.0), 4_000);
    }

    #[test]
    fn coverage_grows_with_interval_and_depth() {
        let records = vec![
            rec(None, Some(100)),
            rec(None, Some(1_000)),
            rec(None, Some(100_000)),
        ];
        let shallow = checkpoint_coverage(&records, 500, 1);
        let deeper = checkpoint_coverage(&records, 500, 4);
        let huge = checkpoint_coverage(&records, 500, 1_000);
        assert!(shallow <= deeper && deeper <= huge);
        assert!((shallow - 1.0 / 3.0).abs() < 1e-12);
        assert!((huge - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_corrupting_runs_means_full_coverage() {
        let records = vec![rec(None, None)];
        assert_eq!(checkpoint_coverage(&records, 1, 1), 1.0);
    }
}
