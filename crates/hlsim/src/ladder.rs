//! The snapshot ladder: whole-system snapshots captured during a
//! single forward pass (Sec. 2.2 — "snapshots … taken every 2M
//! cycles", at the DESIGN.md cycle scale).
//!
//! A [`SnapshotLadder`] is built by running one clone of the base
//! system to completion, pausing every `interval` cycles to record a
//! [`System::clone`] snapshot ("rung"). Because the simulator is
//! deterministic and [`System::run_until`] is insensitive to how the
//! target is reached (pausing at intermediate cycles leaves the state
//! bit-identical to running straight through), restoring the nearest
//! rung below a cycle and running forward reproduces exactly the state
//! a from-zero replay would reach — the equivalence the campaign
//! engine's identity property pins down.
//!
//! The capture pass doubles as the error-free reference execution: its
//! [`RunResult`] carries the golden digest and length, so the ladder
//! adds no forward-simulated cycles to the golden run the campaign
//! needs anyway. A rung is not free, though: each costs a clone plus
//! the pages dirtied since the previous one (≈270 µs and ≈1.4 MB on
//! `flui`/20), and a cursor walking ascending entry cycles can only use
//! one to skip the gap between two consecutive entries. So the caller
//! that will restore from the ladder sets its budget, `max_rungs`.
//!
//! At most `max_rungs` snapshots, rung 0 (the base) included, are live
//! when [`SnapshotLadder::capture`] returns: when a capture would exceed
//! the budget the ladder thins itself geometrically (keep every other
//! rung, double the effective interval), and a budget of one captures
//! nothing — the base is the whole ladder.

use crate::system::{RunResult, SnapshotCost, System};

/// Rung budget for callers whose cursors may enter anywhere (adaptive
/// rounds, leased cluster shards); capture thins geometrically beyond
/// it.
pub const DEFAULT_MAX_RUNGS: usize = 256;

/// A ladder of periodic system snapshots plus capture statistics.
#[derive(Debug, Clone)]
pub struct SnapshotLadder {
    /// Effective rung spacing in cycles. May exceed the requested
    /// interval when thinning kicked in; rung `k` sits at cycle
    /// `k * interval`.
    interval: u64,
    /// Snapshots, rung `k` at cycle `k * interval`; rung 0 is the
    /// pristine base system.
    rungs: Vec<System>,
    /// Rungs captured by the pass, thinned ones included.
    captures: u64,
}

impl SnapshotLadder {
    /// Runs a clone of `base` (which must be at cycle 0) to the end of
    /// the application, capturing a snapshot every `interval` cycles
    /// (clamped to ≥ 1) while keeping at most `max_rungs` (clamped to
    /// ≥ 1) live, base included, and returns the ladder together with
    /// the run's [`RunResult`] — the golden reference of the same pass.
    ///
    /// # Panics
    ///
    /// Panics if `base` has already advanced past cycle 0 (ladder rungs
    /// are indexed from the start of execution).
    pub fn capture(base: &System, interval: u64, max_rungs: usize) -> (SnapshotLadder, RunResult) {
        let (ladder, result, _) = Self::capture_owned(base.clone(), interval, max_rungs, || None);
        (ladder, result)
    }

    /// [`capture`](Self::capture) from `base` itself, which becomes rung
    /// 0 instead of a copy of it. The run and every rung after the base
    /// refill the systems `spare` hands out (`clone_from`), a copy of
    /// what they hold is made only when it hands out none. Also returns
    /// the finished run, whose storage a later system can refill.
    ///
    /// # Panics
    ///
    /// As [`capture`](Self::capture).
    pub fn capture_owned(
        mut base: System,
        interval: u64,
        max_rungs: usize,
        mut spare: impl FnMut() -> Option<System>,
    ) -> (SnapshotLadder, RunResult, System) {
        assert_eq!(base.cycle(), 0, "ladder capture requires a pristine base");
        let mut interval = interval.max(1);
        let mut copy = |source: &System| match spare() {
            Some(mut sys) => {
                sys.clone_from(source);
                sys
            }
            None => source.clone(),
        };
        // The base's pages become shared between rung 0, the run and
        // every restore from it.
        base.share_pages();
        let mut run = copy(&base);
        if max_rungs <= 1 {
            // No rung will be cloned off the run: its last stores are
            // nobody's to read.
            run.untrack_stores();
        }
        let mut rungs = vec![base];
        let mut captures = 0;
        loop {
            // A budget of one is the base alone: nothing to capture.
            if max_rungs <= 1 || run.trap().is_some() || run.all_halted() {
                break;
            }
            let Some(target) = (rungs.len() as u64).checked_mul(interval) else {
                break;
            };
            run.run_until(target);
            if run.trap().is_some() || run.all_halted() {
                break;
            }
            // The pages dirtied since the previous rung become shared
            // between `run`, this rung and every restore from it.
            run.share_pages();
            rungs.push(copy(&run));
            captures += 1;
            if rungs.len() > max_rungs {
                // Thin geometrically: even rungs survive at 2× spacing.
                let mut i = 0usize;
                rungs.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                interval *= 2;
            }
        }
        let result = run.run_to_end();
        let ladder = SnapshotLadder {
            interval,
            rungs,
            captures,
        };
        (ladder, result, run)
    }

    /// The effective rung spacing in cycles (≥ the requested interval).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of live rungs (≥ 1: rung 0 is the base system).
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// Rungs the capture pass cloned, thinned ones included (0 when the
    /// budget was one rung or the run ended before the first interval).
    pub fn captures(&self) -> u64 {
        self.captures
    }

    /// A ladder always holds at least the base rung.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The nearest rung at or below `cycle`.
    pub fn rung_below(&self, cycle: u64) -> &System {
        let idx = (cycle / self.interval).min(self.rungs.len() as u64 - 1) as usize;
        &self.rungs[idx]
    }

    /// Drops every rung above `cycle`, freeing snapshots no injection
    /// can start from (entry points never exceed the sampling window).
    pub fn truncate_above(&mut self, cycle: u64) {
        let keep = (cycle / self.interval).min(self.rungs.len() as u64 - 1) as usize + 1;
        self.rungs.truncate(keep);
    }

    /// Takes the live rungs out, base first, for their storage to be
    /// refilled, and leaves the ladder with none: the last thing its
    /// owner does with it.
    pub fn take_rungs(&mut self) -> Vec<System> {
        std::mem::take(&mut self.rungs)
    }

    /// Snapshot cost of each live rung, in rung order.
    pub fn rung_costs(&self) -> impl Iterator<Item = SnapshotCost> + '_ {
        self.rungs.iter().map(System::snapshot_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use crate::workload::by_name;

    fn base() -> System {
        System::new(SystemConfig::smoke_test(by_name("radi").unwrap()))
    }

    #[test]
    fn capture_matches_plain_golden_run() {
        let base = base();
        let plain = base.clone().run_to_end();
        let (ladder, paused) = SnapshotLadder::capture(&base, 512, DEFAULT_MAX_RUNGS);
        assert_eq!(plain, paused, "pausing for rungs must not change the run");
        assert!(ladder.len() >= 2, "run long enough to capture rungs");
        assert_eq!(ladder.rung_below(0).cycle(), 0);
    }

    #[test]
    fn rung_restore_equals_replay_from_zero() {
        let base = base();
        let (ladder, result) = SnapshotLadder::capture(&base, 512, DEFAULT_MAX_RUNGS);
        let target = result.digest().map(|_| 2_000).unwrap();
        let mut from_zero = base.clone();
        from_zero.run_until(target);
        let rung = ladder.rung_below(target);
        assert!(rung.cycle() <= target);
        let mut from_rung = rung.clone();
        from_rung.run_until(target);
        // Determinism: the restored-and-advanced system finishes the
        // application with the same digest as the from-zero replay.
        assert_eq!(from_zero.run_to_end(), from_rung.run_to_end());
    }

    #[test]
    fn base_and_every_rung_hold_no_private_page() {
        let base = base();
        assert_eq!(
            base.dram().private_pages(),
            0,
            "System::new shares its image"
        );
        let (ladder, _) = SnapshotLadder::capture(&base, 512, DEFAULT_MAX_RUNGS);
        assert!(ladder.len() >= 3);
        for rung in &ladder.rungs {
            assert_eq!(rung.dram().private_pages(), 0, "rung at {}", rung.cycle());
        }
    }

    #[test]
    fn restored_rung_copies_only_the_pages_it_writes() {
        let base = base();
        let (ladder, _) = SnapshotLadder::capture(&base, 512, DEFAULT_MAX_RUNGS);
        let rung = &ladder.rungs[1];
        // A page holds 64 lines, so the image has at least this many.
        let image_pages = rung.snapshot_cost().dram_lines / 64;
        let mut restored = rung.clone();
        assert_eq!(
            restored.dram().private_pages(),
            0,
            "a restore copies no page"
        );
        restored.run_until(rung.cycle() + 256);
        let after_256 = restored.dram().private_pages();
        assert!(after_256 > 0, "256 cycles of radi write memory");
        assert!(
            after_256 * 4 < image_pages,
            "{after_256} private pages of a {image_pages}-page image after 256 cycles"
        );
        // Its writes stay its own: the rung is as it was captured.
        assert_eq!(rung.dram().private_pages(), 0);
        let mut replayed = base.clone();
        replayed.run_until(rung.cycle());
        assert!(rung.dram() == replayed.dram());
        // Sharing again parks the dirtied pages; the next stretch
        // copies only what it writes in turn.
        restored.share_pages();
        assert_eq!(restored.dram().private_pages(), 0);
        replayed.run_until(rung.cycle() + 256);
        assert!(restored.dram() == replayed.dram());
    }

    #[test]
    fn sharing_changes_no_simulated_state_at_any_interval() {
        let base = base();
        let mut golden = Vec::new();
        for interval in [512, 2_048, u64::MAX] {
            let (ladder, result) = SnapshotLadder::capture(&base, interval, DEFAULT_MAX_RUNGS);
            golden.push(result);
            // A from-zero run that never shares a page along the way.
            let mut replayed = base.clone();
            for rung in &ladder.rungs {
                // Rung 0 is the base before any event ran.
                if rung.cycle() > 0 {
                    replayed.run_until(rung.cycle());
                }
                assert_eq!(rung.snapshot_cost(), replayed.snapshot_cost());
                assert_eq!(rung.output_digest(), replayed.output_digest());
                assert!(
                    rung.dram() == replayed.dram(),
                    "rung at {}, interval {interval}",
                    rung.cycle()
                );
            }
        }
        assert!(golden.iter().all(|g| *g == golden[0]), "got {golden:?}");
    }

    #[test]
    fn thinning_bounds_live_rungs() {
        let base = base();
        let (ladder, _) = SnapshotLadder::capture(&base, 1, 8);
        assert!(ladder.len() <= 8);
        assert!(ladder.interval() > 1, "thinning widened the interval");
    }

    /// The budget rule on paper: the live rungs and captures a pass over
    /// a run ending at `end` must leave, given that a rung is captured
    /// at every target cycle the run is still going at.
    fn budget_model(end: u64, mut interval: u64, max_rungs: usize) -> (usize, u64) {
        if max_rungs <= 1 {
            return (1, 0);
        }
        let (mut live, mut captures) = (1usize, 0u64);
        while (live as u64) * interval < end {
            live += 1;
            captures += 1;
            if live > max_rungs {
                live = live.div_ceil(2);
                interval *= 2;
            }
        }
        (live, captures)
    }

    #[test]
    fn small_budgets_keep_at_most_max_rungs_live() {
        let base = base();
        let plain = base.clone().run_to_end();
        let end = match plain {
            RunResult::Completed { cycles, .. } => cycles,
            ref other => panic!("radi did not complete: {other:?}"),
        };
        let interval = 256;
        assert!(end > 16 * interval, "run long enough to thin at 8 rungs");
        let mut seen = Vec::new();
        for max_rungs in [1, 2, 3, 8] {
            let (ladder, result) = SnapshotLadder::capture(&base, interval, max_rungs);
            assert_eq!(result, plain, "max_rungs {max_rungs}");
            let live = ladder.len();
            assert_eq!(
                (live, ladder.captures()),
                budget_model(end, interval, max_rungs),
                "max_rungs {max_rungs}"
            );
            assert!(live <= max_rungs);
            for (k, rung) in ladder.rungs.iter().enumerate() {
                assert_eq!(rung.cycle(), k as u64 * ladder.interval());
            }
            seen.push((live, ladder.captures()));
        }
        // One rung is the base alone; two keep the base and one rung
        // instead of falling back to the base after every capture.
        assert_eq!(seen[0], (1, 0));
        assert_eq!(seen[1].0, 2);
        assert!(seen[2].0 >= 2 && seen[3].0 >= 5, "{seen:?}");
        // Thinning re-captures at every doubling, so a small budget
        // still clones more than once — but never more than a large one.
        assert!(seen[1].1 > 1 && seen[3].1 >= seen[1].1, "{seen:?}");
    }

    #[test]
    fn infinite_interval_keeps_only_the_base_rung() {
        let base = base();
        let (ladder, result) = SnapshotLadder::capture(&base, u64::MAX, DEFAULT_MAX_RUNGS);
        assert!(result.is_completed());
        assert_eq!(ladder.len(), 1);
        assert_eq!(ladder.captures(), 0);
        assert_eq!(ladder.rung_below(u64::MAX - 1).cycle(), 0);
    }

    #[test]
    fn truncate_drops_unreachable_rungs() {
        let base = base();
        let (mut ladder, _) = SnapshotLadder::capture(&base, 256, DEFAULT_MAX_RUNGS);
        let before = ladder.len();
        ladder.truncate_above(300);
        assert!(ladder.len() <= before);
        assert_eq!(ladder.len(), 2, "rungs at 0 and 256 survive");
        assert_eq!(ladder.rung_below(9_999).cycle(), 256);
    }
}
