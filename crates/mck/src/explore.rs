//! Schedule sources and the schedule explorer.
//!
//! Every nondeterministic decision the simulated world makes — which
//! pending event fires next, whether a message is dropped, duplicated
//! or delayed, whether a worker crashes at an execution step — is
//! funnelled through one narrow interface: [`Chooser::choose`]`(n)`,
//! "pick one of `n` alternatives". A *schedule* is the sequence of
//! picks. That framing gives three interchangeable drivers:
//!
//! * [`RandomChooser`] — picks via a seeded `nestsim-harness`
//!   [`Source`], so random exploration inherits the harness's replay
//!   story: a failing seed reruns the identical schedule
//!   (`RandomChooser::new(seed)`, mirroring `NESTSIM_PROP_SEED`).
//! * [`ScheduleChooser`] — replays an explicit pick sequence
//!   (`ScheduleChooser::new(vec![3, 0, 1, ...])`), padding with `0`
//!   past the end; pick `0` is always the benign alternative ("fire the
//!   oldest event, no fault"), so truncated schedules still terminate.
//! * [`explore_dfs`] — bounded depth-first enumeration of the choice
//!   tree by repeated execution with a forced prefix (stateless model
//!   checking in the Verisoft tradition: the world re-runs from the
//!   start for every trace, which the cached [`crate::CampaignExec`]
//!   makes cheap).
//!
//! Choice points with a single alternative are not recorded: they
//! contribute nothing to the tree, keep printed schedules short, and
//! make DFS depth equal to *actual* branching.

use nestsim_harness::Source;

use crate::world::SimError;

/// A source of scheduling decisions. `choose(n)` must return a value
/// `< n`; `n == 0` is a caller bug and panics.
pub trait Chooser {
    /// Pick one of `n` alternatives.
    fn choose(&mut self, n: usize) -> usize;

    /// Pick one of `weights.len()` alternatives, where random drivers
    /// should weight alternative `i` proportionally to `weights[i]`.
    /// The recorded pick is the *index*, so weighted and uniform
    /// schedules replay interchangeably. Enumerating drivers (DFS,
    /// replay) ignore the weights — every alternative is one branch.
    ///
    /// The simulator weights fault points heavily toward "no fault":
    /// a uniform pick would spend the whole fault budget on the first
    /// few choice points of every random schedule, starving the
    /// interesting late faults (a stalled final sample, a duplicated
    /// submit) that exercise expiry and dedupe.
    fn choose_weighted(&mut self, weights: &[u32]) -> usize {
        self.choose(weights.len())
    }

    /// The picks made so far, single-alternative points omitted.
    fn trace(&self) -> &[usize];
}

/// Random schedules through a seeded harness [`Source`].
pub struct RandomChooser {
    source: Source,
    trace: Vec<usize>,
}

impl RandomChooser {
    /// A chooser whose whole schedule derives from `seed`.
    pub fn new(seed: u64) -> RandomChooser {
        RandomChooser {
            source: Source::fresh(seed),
            trace: Vec::new(),
        }
    }
}

impl Chooser for RandomChooser {
    fn choose(&mut self, n: usize) -> usize {
        assert!(n > 0, "choose(0): no alternatives");
        if n == 1 {
            return 0;
        }
        let pick = self.source.index(n);
        self.trace.push(pick);
        pick
    }

    fn choose_weighted(&mut self, weights: &[u32]) -> usize {
        assert!(!weights.is_empty(), "choose_weighted: no alternatives");
        if weights.len() == 1 {
            return 0;
        }
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "choose_weighted: all weights zero");
        let mut x = self.source.below(total);
        let mut pick = 0;
        for (i, &w) in weights.iter().enumerate() {
            if x < w as u64 {
                pick = i;
                break;
            }
            x -= w as u64;
        }
        self.trace.push(pick);
        pick
    }

    fn trace(&self) -> &[usize] {
        &self.trace
    }
}

/// Replays an explicit schedule; past its end every pick is `0` (the
/// benign alternative), so any prefix of a failing schedule is still a
/// terminating — if no longer failing — execution.
pub struct ScheduleChooser {
    schedule: Vec<usize>,
    trace: Vec<usize>,
}

impl ScheduleChooser {
    /// A chooser that replays `schedule` verbatim.
    pub fn new(schedule: Vec<usize>) -> ScheduleChooser {
        ScheduleChooser {
            schedule,
            trace: Vec::new(),
        }
    }
}

impl Chooser for ScheduleChooser {
    fn choose(&mut self, n: usize) -> usize {
        assert!(n > 0, "choose(0): no alternatives");
        if n == 1 {
            return 0;
        }
        // Out-of-range picks clamp rather than panic: a schedule
        // recorded against a slightly different world (say, after a
        // code change) should degrade to a boring run, not a crash. A
        // DFS prefix clamps too: earlier picks change which choice
        // points exist, and a clamped pick still explores a real
        // schedule.
        let pick = self
            .schedule
            .get(self.trace.len())
            .copied()
            .unwrap_or(0)
            .min(n - 1);
        self.trace.push(pick);
        pick
    }

    fn trace(&self) -> &[usize] {
        &self.trace
    }
}

/// The chooser behind [`explore_dfs`]: a replayed prefix, then always
/// the first alternative, recording each point's branching factor so
/// the driver can backtrack.
struct DfsChooser {
    prefix: ScheduleChooser,
    widths: Vec<usize>,
}

impl Chooser for DfsChooser {
    fn choose(&mut self, n: usize) -> usize {
        if n > 1 {
            self.widths.push(n);
        }
        self.prefix.choose(n)
    }

    fn trace(&self) -> &[usize] {
        self.prefix.trace()
    }
}

/// What a bounded exploration found.
#[derive(Debug)]
pub struct DfsReport {
    /// Schedules executed.
    pub traces: usize,
    /// `true` if the whole bounded choice tree was enumerated (rather
    /// than stopping at the trace budget).
    pub exhausted: bool,
    /// The first invariant violation, with the schedule that hit it.
    pub failure: Option<(Vec<usize>, SimError)>,
}

/// Bounded depth-first enumeration of the schedule tree: runs `world`
/// repeatedly, each time forcing the lexicographically next unexplored
/// branch, until the tree is exhausted, `budget` schedules have run,
/// or an invariant fails.
///
/// `world` receives a fresh chooser per run and must be a pure
/// function of its picks — which the deterministic simulator is.
pub fn explore_dfs(
    budget: usize,
    mut world: impl FnMut(&mut dyn Chooser) -> Result<(), SimError>,
) -> DfsReport {
    let mut prefix: Vec<usize> = Vec::new();
    let mut traces = 0;
    loop {
        let mut chooser = DfsChooser {
            prefix: ScheduleChooser::new(std::mem::take(&mut prefix)),
            widths: Vec::new(),
        };
        let outcome = world(&mut chooser);
        traces += 1;
        if let Err(e) = outcome {
            return DfsReport {
                traces,
                exhausted: false,
                failure: Some((chooser.prefix.trace, e)),
            };
        }
        if traces >= budget {
            return DfsReport {
                traces,
                exhausted: false,
                failure: None,
            };
        }
        // Backtrack: bump the deepest pick that still has an untried
        // sibling, drop everything below it.
        let mut next = chooser.prefix.trace;
        loop {
            let Some(pick) = next.pop() else {
                return DfsReport {
                    traces,
                    exhausted: true,
                    failure: None,
                };
            };
            if pick + 1 < chooser.widths[next.len()] {
                next.push(pick + 1);
                break;
            }
        }
        prefix = next;
    }
}

/// What a random-schedule sweep found.
#[derive(Debug)]
pub struct RandomReport {
    /// Schedules executed.
    pub traces: usize,
    /// The first invariant violation: seed, recorded schedule, error.
    pub failure: Option<(u64, Vec<usize>, SimError)>,
}

/// Runs `count` random schedules derived from `base_seed` (seed `i` is
/// `base_seed + i`, so any failure names a single replayable seed).
pub fn explore_random(
    base_seed: u64,
    count: usize,
    mut world: impl FnMut(&mut dyn Chooser) -> Result<(), SimError>,
) -> RandomReport {
    for i in 0..count {
        let seed = base_seed.wrapping_add(i as u64);
        let mut chooser = RandomChooser::new(seed);
        if let Err(e) = world(&mut chooser) {
            return RandomReport {
                traces: i + 1,
                failure: Some((seed, chooser.trace, e)),
            };
        }
    }
    RandomReport {
        traces: count,
        failure: None,
    }
}

/// Formats a failing execution the way the harness property runner
/// formats failing cases: the violation, then the choosers that replay
/// it through [`crate::run_sim`]. `seed` is present for random
/// schedules; the explicit schedule always replays.
pub fn failure_report(err: &SimError, seed: Option<u64>, schedule: &[usize]) -> String {
    let mut out = format!("mck: invariant violated: {err}\n");
    if let Some(seed) = seed {
        out.push_str(&format!("  replay with: RandomChooser::new({seed:#x})\n"));
    }
    out.push_str(&format!(
        "  replay with: ScheduleChooser::new(vec!{schedule:?})"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world with a known 3-level binary choice tree that fails on
    /// exactly one leaf.
    fn tiny_world(bad: &[usize]) -> impl FnMut(&mut dyn Chooser) -> Result<(), SimError> + '_ {
        move |ch| {
            let mut picks = Vec::new();
            for _ in 0..3 {
                picks.push(ch.choose(2));
            }
            if picks == bad {
                Err(SimError::Liveness {
                    steps: 3,
                    pending: picks.len(),
                })
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn dfs_enumerates_the_whole_tree() {
        let report = explore_dfs(100, tiny_world(&[9, 9, 9]));
        assert!(report.exhausted);
        assert_eq!(report.traces, 8, "2^3 leaves");
        assert!(report.failure.is_none());
    }

    #[test]
    fn dfs_finds_the_bad_leaf_and_reports_its_schedule() {
        let bad = [1, 0, 1];
        let report = explore_dfs(100, tiny_world(&bad));
        let (schedule, _) = report.failure.expect("must find the bad leaf");
        assert_eq!(schedule, bad);
        // And the schedule replays through the replay chooser.
        let mut replay = ScheduleChooser::new(schedule);
        assert!(tiny_world(&bad)(&mut replay).is_err());
    }

    #[test]
    fn dfs_respects_the_trace_budget() {
        let report = explore_dfs(3, tiny_world(&[9, 9, 9]));
        assert_eq!(report.traces, 3);
        assert!(!report.exhausted);
    }

    #[test]
    fn random_failures_replay_from_their_seed() {
        // Fails whenever the first pick of 4 is 3 — a random sweep
        // finds this quickly.
        let world = |ch: &mut dyn Chooser| {
            if ch.choose(4) == 3 {
                Err(SimError::Liveness {
                    steps: 1,
                    pending: 0,
                })
            } else {
                Ok(())
            }
        };
        let report = explore_random(0xA11CE, 64, world);
        let (seed, schedule, _) = report.failure.expect("1/4 per trace must hit in 64");
        let mut replay = RandomChooser::new(seed);
        assert!(world(&mut replay).is_err());
        assert_eq!(replay.trace(), schedule);
    }

    #[test]
    fn single_alternative_points_are_free() {
        let mut ch = RandomChooser::new(1);
        assert_eq!(ch.choose(1), 0);
        assert!(ch.trace().is_empty());
        let mut ch = ScheduleChooser::new(vec![5]);
        assert_eq!(ch.choose(1), 0);
        assert_eq!(ch.choose(9), 5);
        assert_eq!(ch.trace(), &[5]);
    }

    #[test]
    fn failure_report_is_copy_pasteable() {
        let err = SimError::Liveness {
            steps: 10,
            pending: 2,
        };
        let msg = failure_report(&err, Some(0xBEEF), &[1, 2, 3]);
        assert!(msg.contains("RandomChooser::new(0xbeef)"), "{msg}");
        assert!(msg.contains("ScheduleChooser::new(vec![1, 2, 3])"), "{msg}");
    }
}
