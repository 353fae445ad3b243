//! Round-based adaptive campaigns: sequential stopping with stratified
//! allocation.
//!
//! [`Plan::Fixed`] runs the a-priori sample budget to the end in one
//! round; [`Plan::Adaptive`] runs the same injections in **rounds** and
//! stops as soon as every outcome category's Wilson interval reaches
//! the target half-width ([`nestsim_stats::stop`]). This module holds
//! what the adaptive plan adds to the one round loop
//! ([`crate::campaign::run_rounds`]): the stratified draw
//! ([`draw_round`]) and the decision state ([`AdaptiveState`]); it
//! executes nothing. Each round's samples are allocated across
//! the component's flop **strata** — address, control, datapath, the
//! partition [`Stratum`] reads off the declared field names — with
//! later rounds steered toward the strata whose erroneous rates carry
//! the most variance (Neyman allocation on smoothed per-stratum
//! estimates).
//!
//! # Determinism
//!
//! Everything the next round depends on is a pure function of merged
//! round results:
//!
//! * **Sample identity is `(stratum, j)`**, not "position in a shared
//!   stream": stratum `s`'s `j`-th sample is drawn from
//!   `seed → "adaptive" → benchmark → s.label() → j`, so *any* two
//!   campaigns that draw `(s, j)` — different CI targets, different
//!   round schedules, cluster or in-process — produce bit-identical
//!   [`InjectionSpec`]s, and hence bit-identical records (the prefix
//!   property the accounting tests lock).
//! * **The stop/steer decisions** ([`AdaptiveState`]) see only merged
//!   outcomes, and one loop asks for them whichever executor ran the
//!   round, so every executor stops on the same round.
//! * **Round order is canonical**: stratum-major
//!   ([`Stratum::ALL`] order), ascending `j` — a sample's stratum is
//!   read off the allocation, never carried beside it; the final
//!   record list is the concatenation of rounds.
//!
//! # Estimates under non-proportional allocation
//!
//! Steered allocation deliberately over-samples high-variance strata,
//! so the *pooled* counts are not an unbiased estimate of the
//! uniform-sampling rate once allocation diverges from the stratum
//! population shares. The engine keeps per-stratum tallies in the
//! [`AdaptiveSummary`] so post-stratified estimates can be formed; at
//! the default settings allocation starts proportional and the
//! steering stays within the same order of magnitude (see DESIGN.md,
//! "Adaptive sampling").
//!
//! [`Plan::Fixed`]: crate::campaign::Plan::Fixed
//! [`Plan::Adaptive`]: crate::campaign::Plan::Adaptive

use nestsim_hlsim::workload::BenchProfile;
use nestsim_models::fields::Stratum;
use nestsim_stats::ci::Proportion;
use nestsim_stats::stop::{StopDecision, StopPolicy};
use nestsim_stats::SeedSeq;
use nestsim_telemetry::{names, Recorder};

use crate::campaign::{checked_window, component_flops, draw_stream, CampaignSpec};
use crate::inject::{GoldenRef, InjectionSpec};
use crate::outcome::{Outcome, OutcomeCounts};

/// Number of strata (`Stratum::ALL.len()`, fixed).
pub const NUM_STRATA: usize = 3;

/// The outcome categories the stop rule tracks: everything the paper
/// reports rates for (Persist is excluded from `reported_total`, so it
/// has no well-defined proportion to tighten).
const REPORTED: [Outcome; 5] = [
    Outcome::Ona,
    Outcome::Omm,
    Outcome::Ut,
    Outcome::Hang,
    Outcome::Vanished,
];

/// Injection-eligible bits of a component, partitioned by stratum
/// (indexed by [`Stratum::index`]). Bits within a stratum keep the
/// ascending order of the flop space, so the partition is a pure
/// function of the component model.
pub fn stratum_bits(component: nestsim_models::ComponentKind) -> [Vec<usize>; NUM_STRATA] {
    let flops = component_flops(component);
    let bits = flops.bits_where(|c| c.is_injection_target());
    let mut out: [Vec<usize>; NUM_STRATA] = Default::default();
    for b in bits {
        let s = Stratum::of_field(&flops.field_of_bit(b).name);
        out[s.index()].push(b);
    }
    out
}

/// Which samples one stratified round holds: for each stratum (in
/// [`Stratum::ALL`] order) samples `start .. start + alloc` of its
/// stream. On the cluster wire as `AdaptiveRoundWire`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StratifiedRound {
    /// Per-stratum stream offsets (cumulative samples already drawn).
    pub start: [u64; NUM_STRATA],
    /// Per-stratum sample counts for this round.
    pub alloc: [u64; NUM_STRATA],
}

/// One round of the allocation trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrace {
    /// Round number (0-based).
    pub round: u32,
    /// Samples allocated to each stratum this round
    /// ([`Stratum::ALL`] order).
    pub alloc: [u64; NUM_STRATA],
    /// Cumulative samples run after this round.
    pub samples_run: u64,
    /// Cumulative reported trials (non-Persist) after this round.
    pub reported: u64,
    /// Worst Wilson half-width across the tracked outcome categories
    /// after this round.
    pub worst_half_width: f64,
}

/// What the adaptive engine did: the campaign-level telemetry of
/// sequential stopping, carried on
/// [`CampaignResult::adaptive`](crate::campaign::CampaignResult::adaptive).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSummary {
    /// The policy the campaign ran under.
    pub policy: StopPolicy,
    /// Per-round allocation/progress trace.
    pub rounds: Vec<RoundTrace>,
    /// Total samples run.
    pub samples_run: u64,
    /// The fixed-count budget the policy replaced
    /// (`policy.max_samples`): samples saved = `fixed_budget -
    /// samples_run`.
    pub fixed_budget: u64,
    /// Cumulative samples per stratum ([`Stratum::ALL`] order).
    pub per_stratum: [u64; NUM_STRATA],
    /// Per-stratum outcome tallies, for post-stratified estimates.
    pub stratum_counts: [OutcomeCounts; NUM_STRATA],
    /// True when the campaign hit `max_samples` before every category
    /// met the target.
    pub budget_exhausted: bool,
}

impl AdaptiveSummary {
    /// The `(stratum, j)` identity of every sample, in global record
    /// order — the inverse of the canonical round order, usable to
    /// join records across campaigns that share samples.
    pub fn sample_identities(&self) -> Vec<(Stratum, u64)> {
        let mut done = [0u64; NUM_STRATA];
        let mut out = Vec::with_capacity(self.samples_run as usize);
        for r in &self.rounds {
            for s in Stratum::ALL {
                for j in done[s.index()]..done[s.index()] + r.alloc[s.index()] {
                    out.push((s, j));
                }
                done[s.index()] += r.alloc[s.index()];
            }
        }
        out
    }
}

/// The pure decision core of the adaptive plan
/// ([`Plan::Adaptive`](crate::campaign::Plan::Adaptive)): absorbs merged
/// round outcomes, answers "stop or continue" and "how to allocate the
/// next round". Identical inputs produce identical decisions, so a campaign
/// is byte-identical on every executor.
#[derive(Debug, Clone)]
pub struct AdaptiveState {
    policy: StopPolicy,
    /// Stratum population weights (bit-count shares).
    weights: [f64; NUM_STRATA],
    nonempty: [bool; NUM_STRATA],
    /// Cumulative samples drawn per stratum (the next `j` per stratum).
    done: [u64; NUM_STRATA],
    counts: OutcomeCounts,
    stratum_counts: [OutcomeCounts; NUM_STRATA],
    samples_run: u64,
    trace: Vec<RoundTrace>,
    budget_exhausted: bool,
}

impl AdaptiveState {
    /// A fresh state for one campaign cell.
    ///
    /// # Panics
    ///
    /// Panics if the policy fails [`StopPolicy::validate`] or the
    /// component has no injection-eligible bits.
    pub fn new(component: nestsim_models::ComponentKind, policy: StopPolicy) -> AdaptiveState {
        policy.validate();
        let bits = stratum_bits(component);
        let total: usize = bits.iter().map(Vec::len).sum();
        assert!(total > 0, "component has no injection-eligible bits");
        let weights = core::array::from_fn(|i| bits[i].len() as f64 / total as f64);
        AdaptiveState {
            policy,
            weights,
            nonempty: core::array::from_fn(|i| !bits[i].is_empty()),
            done: [0; NUM_STRATA],
            counts: OutcomeCounts::new(),
            stratum_counts: Default::default(),
            samples_run: 0,
            trace: Vec::new(),
            budget_exhausted: false,
        }
    }

    /// The next round under allocation `alloc`: it starts where the
    /// samples drawn so far end.
    pub fn round(&self, alloc: [u64; NUM_STRATA]) -> StratifiedRound {
        StratifiedRound {
            start: self.done,
            alloc,
        }
    }

    /// Round 0's allocation: proportional to stratum population shares
    /// (every campaign starts unsteered), sized `initial_round` but
    /// never over the budget.
    pub fn initial_alloc(&self) -> [u64; NUM_STRATA] {
        let total = self
            .policy
            .initial_round
            .min(self.policy.max_samples)
            .max(1);
        apportion(total, &self.weights, &self.nonempty)
    }

    /// Merges one completed round: its allocation and its outcomes in
    /// canonical round order, which is stratum-major — the first
    /// `alloc[0]` outcomes belong to the first stratum, and so on.
    ///
    /// # Panics
    ///
    /// Panics if the outcome count does not match the allocation — a
    /// dropped or duplicated sample upstream must not be absorbed into
    /// the decision state.
    pub fn absorb_round(
        &mut self,
        alloc: &[u64; NUM_STRATA],
        outcomes: impl IntoIterator<Item = Outcome>,
    ) {
        const SHORT: &str = "round outcomes must cover the allocation exactly";
        let mut outcomes = outcomes.into_iter();
        let strata = self.stratum_counts.iter_mut().zip(&mut self.done);
        for ((tally, done), &n) in strata.zip(alloc) {
            for _ in 0..n {
                let o = outcomes.next().expect(SHORT);
                self.counts.record(o);
                tally.record(o);
            }
            *done += n;
        }
        assert!(outcomes.next().is_none(), "{SHORT}");
        self.samples_run += alloc.iter().sum::<u64>();
        let worst = self
            .categories()
            .iter()
            .map(|c| c.wilson_half_width(self.policy.confidence))
            .fold(0.0f64, f64::max);
        self.trace.push(RoundTrace {
            round: self.trace.len() as u32,
            alloc: *alloc,
            samples_run: self.samples_run,
            reported: self.counts.reported_total(),
            worst_half_width: worst,
        });
    }

    /// The merged outcome-category proportions the stop rule sees.
    pub fn categories(&self) -> [Proportion; REPORTED.len()] {
        core::array::from_fn(|i| self.counts.rate(REPORTED[i]))
    }

    /// Evaluates the stop rule on the merged counts. The budget is
    /// enforced on samples *run* (Persist runs burn budget even though
    /// they are not reported trials), so the engine never exceeds
    /// `max_samples` injections.
    pub fn decide(&mut self) -> StopDecision {
        if self.samples_run >= self.policy.max_samples {
            let d = StopDecision::evaluate(&self.categories(), &self.policy);
            self.budget_exhausted = !matches!(
                d,
                StopDecision::Stop {
                    budget_exhausted: false
                }
            );
            return StopDecision::Stop {
                budget_exhausted: self.budget_exhausted,
            };
        }
        match StopDecision::evaluate(&self.categories(), &self.policy) {
            StopDecision::Continue { next_round } => StopDecision::Continue {
                next_round: next_round
                    .min(self.policy.max_samples - self.samples_run)
                    .max(1),
            },
            StopDecision::Stop { budget_exhausted } => {
                self.budget_exhausted = budget_exhausted;
                StopDecision::Stop { budget_exhausted }
            }
        }
    }

    /// Allocates the next round of `total` samples: Neyman allocation,
    /// weighting each stratum by its population share times the
    /// (Laplace-smoothed) standard deviation of its erroneous rate —
    /// strata whose outcomes still carry variance get more samples.
    /// Falls back to population shares while no stratum has data.
    pub fn alloc_for(&self, total: u64) -> [u64; NUM_STRATA] {
        let mut v = [0.0f64; NUM_STRATA];
        for (i, share) in v.iter_mut().enumerate() {
            if !self.nonempty[i] {
                continue;
            }
            let c = &self.stratum_counts[i];
            let err = c.erroneous_rate();
            let p = (err.successes as f64 + 1.0) / (err.trials as f64 + 2.0);
            *share = self.weights[i] * (p * (1.0 - p)).sqrt();
        }
        if v.iter().sum::<f64>() <= 0.0 {
            return apportion(total, &self.weights, &self.nonempty);
        }
        apportion(total, &v, &self.nonempty)
    }

    /// Counts the campaign-level adaptive telemetry into the engine
    /// recorder.
    pub(crate) fn publish(&self, engine: &mut Recorder) {
        engine.count(names::ADAPTIVE_ROUNDS, self.trace.len() as u64);
        engine.count(names::ADAPTIVE_SAMPLES, self.samples_run);
        engine.count(
            names::ADAPTIVE_SAMPLES_SAVED,
            self.policy.max_samples.saturating_sub(self.samples_run),
        );
        engine.count(names::ADAPTIVE_ALLOC_ADDRESS, self.done[0]);
        engine.count(names::ADAPTIVE_ALLOC_CONTROL, self.done[1]);
        engine.count(names::ADAPTIVE_ALLOC_DATA, self.done[2]);
    }

    /// Finalizes the campaign-level summary.
    pub fn into_summary(self) -> AdaptiveSummary {
        AdaptiveSummary {
            policy: self.policy,
            rounds: self.trace,
            samples_run: self.samples_run,
            fixed_budget: self.policy.max_samples,
            per_stratum: self.done,
            stratum_counts: self.stratum_counts,
            budget_exhausted: self.budget_exhausted,
        }
    }
}

/// Splits `total` across strata proportionally to `weights` with
/// deterministic largest-remainder rounding (ties break toward the
/// lower stratum index) and a one-sample floor for every non-empty
/// stratum when `total` allows — an empty allocation would silently
/// stop refining that stratum's estimate.
fn apportion(
    total: u64,
    weights: &[f64; NUM_STRATA],
    nonempty: &[bool; NUM_STRATA],
) -> [u64; NUM_STRATA] {
    let sum: f64 = (0..NUM_STRATA)
        .filter(|&i| nonempty[i])
        .map(|i| weights[i])
        .sum();
    let mut alloc = [0u64; NUM_STRATA];
    if sum <= 0.0 || total == 0 {
        return alloc;
    }
    let mut fracs: [(f64, usize); NUM_STRATA] = [(0.0, 0); NUM_STRATA];
    let mut assigned = 0u64;
    for i in 0..NUM_STRATA {
        let share = if nonempty[i] {
            total as f64 * weights[i] / sum
        } else {
            0.0
        };
        alloc[i] = share.floor() as u64;
        assigned += alloc[i];
        fracs[i] = (share - share.floor(), i);
    }
    // Largest remainder first; equal remainders go to the lower index.
    fracs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    let mut left = total.saturating_sub(assigned);
    for &(_, i) in fracs.iter().cycle().take(NUM_STRATA * 2) {
        if left == 0 {
            break;
        }
        if nonempty[i] {
            alloc[i] += 1;
            left -= 1;
        }
    }
    // Floor: every non-empty stratum keeps refining, budget allowing.
    let wanted: u64 = nonempty.iter().map(|&n| u64::from(n)).sum();
    if total >= wanted {
        for i in 0..NUM_STRATA {
            if nonempty[i] && alloc[i] == 0 {
                let donor = (0..NUM_STRATA)
                    .max_by_key(|&k| (alloc[k], usize::MAX - k))
                    .expect("NUM_STRATA > 0");
                if alloc[donor] > 1 {
                    alloc[donor] -= 1;
                    alloc[i] += 1;
                }
            }
        }
    }
    alloc
}

/// Draws one round of samples: for each stratum `s` (in
/// [`Stratum::ALL`] order), samples `start[s] .. start[s] + alloc[s]`
/// of its deterministic per-stratum stream, in canonical round order.
///
/// Sample `(s, j)` is a pure function of `(seed, benchmark, s, j)` —
/// independent of round boundaries, CI targets, worker counts, and
/// every other sample — with the same trajectory-clustering semantics
/// as [`crate::campaign::draw_samples`] applied *within* the stratum
/// stream.
///
/// # Panics
///
/// Panics if [`crate::campaign::validate_window`] rejects the cell, or
/// if the round allocates samples to a stratum without bits.
pub fn draw_round(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    golden: &GoldenRef,
    round: &StratifiedRound,
) -> Vec<InjectionSpec> {
    let window = checked_window(profile, spec, golden);
    let bits = stratum_bits(spec.component);
    let root = SeedSeq::new(spec.seed)
        .derive("adaptive")
        .derive(profile.name);
    let mut specs = Vec::with_capacity(round.alloc.iter().sum::<u64>() as usize);
    for s in Stratum::ALL {
        let (start, a) = (round.start[s.index()], round.alloc[s.index()]);
        assert!(
            a == 0 || !bits[s.index()].is_empty(),
            "allocated {a} samples to empty stratum {s}"
        );
        draw_stream(
            spec,
            &root.derive(s.label()),
            &bits[s.index()],
            window,
            start..start + a,
            &mut specs,
        );
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_rounds, CampaignResult, LadderExecutor, Plan};
    use nestsim_hlsim::workload::by_name;
    use nestsim_models::ComponentKind;

    /// [`Plan::Adaptive`] on a [`LadderExecutor`], without telemetry.
    fn run_adaptive(
        profile: &'static BenchProfile,
        spec: &CampaignSpec,
        policy: &StopPolicy,
    ) -> CampaignResult {
        let plan = Plan::Adaptive(*policy);
        let executor = LadderExecutor::new(profile, spec, &plan, None);
        run_rounds(profile, spec, &plan, None, executor)
    }

    fn quick_policy() -> StopPolicy {
        let mut p = StopPolicy::new(0.08, 0.90);
        p.min_samples = 8;
        p.initial_round = 8;
        p.max_round = 32;
        p.max_samples = 64;
        p
    }

    #[test]
    fn every_component_has_nonempty_address_and_control_strata() {
        for c in ComponentKind::ALL {
            let bits = stratum_bits(c);
            let total: usize = bits.iter().map(Vec::len).sum();
            assert!(total > 0, "{c:?} has no injection-eligible bits");
            assert!(
                !bits[Stratum::Control.index()].is_empty(),
                "{c:?} must expose control-stratum bits"
            );
            // Strata partition the eligible bits exactly.
            let flat: usize = crate::campaign::injection_target_bits(c).len();
            assert_eq!(total, flat);
        }
    }

    #[test]
    fn apportion_is_exact_and_deterministic() {
        let w = [0.5, 0.3, 0.2];
        let nonempty = [true, true, true];
        for total in [0u64, 1, 2, 3, 7, 100, 101, 8192] {
            let a = apportion(total, &w, &nonempty);
            assert_eq!(a.iter().sum::<u64>(), total, "total {total}");
            assert_eq!(a, apportion(total, &w, &nonempty));
        }
        // Proportionality at a round number.
        assert_eq!(apportion(100, &w, &nonempty), [50, 30, 20]);
        // Empty strata get nothing even with weight.
        let a = apportion(10, &w, &[true, false, true]);
        assert_eq!(a[1], 0);
        assert_eq!(a.iter().sum::<u64>(), 10);
        // The one-sample floor keeps tiny strata alive.
        let a = apportion(100, &[0.999, 0.0005, 0.0005], &nonempty);
        assert!(a[1] >= 1 && a[2] >= 1, "{a:?}");
        assert_eq!(a.iter().sum::<u64>(), 100);
    }

    #[test]
    fn round_draws_have_the_prefix_property() {
        // Sample (s, j) is identical no matter which round drew it.
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec::quick(ComponentKind::L2c, 0);
        let (_, golden) = crate::campaign::golden_reference(profile, &spec);
        let draw =
            |start, alloc| draw_round(profile, &spec, &golden, &StratifiedRound { start, alloc });
        let one = draw([0, 0, 0], [6, 6, 6]);
        let a = draw([0, 0, 0], [2, 4, 1]);
        let b = draw([2, 4, 1], [4, 2, 5]);
        // Reassemble per-stratum streams from the two-round split.
        let split: Vec<_> = [
            &a[0..2],  // address 0..2
            &b[0..4],  // address 2..6
            &a[2..6],  // control 0..4
            &b[4..6],  // control 4..6
            &a[6..7],  // data 0..1
            &b[6..11], // data 1..6
        ]
        .concat();
        assert_eq!(split, one);
    }

    #[test]
    fn round_draws_respect_stratum_membership() {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec::quick(ComponentKind::L2c, 0);
        let (_, golden) = crate::campaign::golden_reference(profile, &spec);
        let bits = stratum_bits(ComponentKind::L2c);
        let round = StratifiedRound {
            start: [0, 0, 0],
            alloc: [5, 4, 3],
        };
        let specs = draw_round(profile, &spec, &golden, &round);
        assert_eq!(specs.len(), 12);
        // Canonical round order: stratum-major in Stratum::ALL order.
        let strata = Stratum::ALL
            .into_iter()
            .flat_map(|s| std::iter::repeat_n(s, round.alloc[s.index()] as usize));
        for (sp, s) in specs.iter().zip(strata) {
            assert!(
                bits[s.index()].contains(&sp.bit),
                "bit {} not in stratum {s}",
                sp.bit
            );
        }
    }

    #[test]
    fn lane_cluster_replays_leaders_within_the_stratum_stream() {
        let profile = by_name("radi").unwrap();
        let mut spec = CampaignSpec::quick(ComponentKind::L2c, 0);
        spec.lane_cluster = 4;
        let (_, golden) = crate::campaign::golden_reference(profile, &spec);
        let round = StratifiedRound {
            start: [0, 0, 0],
            alloc: [8, 8, 8],
        };
        let specs = draw_round(profile, &spec, &golden, &round);
        for group in specs.chunks(8) {
            for (j, sp) in group.iter().enumerate() {
                let leader = group[j - j % 4];
                assert_eq!(sp.instance, leader.instance);
                assert_eq!(sp.inject_cycle, leader.inject_cycle);
                assert_eq!(sp.warmup, leader.warmup);
            }
            // Followers keep their own bits (overwhelmingly distinct).
            let distinct: std::collections::HashSet<_> = group.iter().map(|sp| sp.bit).collect();
            assert!(distinct.len() > 1);
        }
    }

    #[test]
    fn state_absorbs_rounds_and_stops_within_budget() {
        let mut st = AdaptiveState::new(ComponentKind::L2c, quick_policy());
        let alloc = st.initial_alloc();
        assert_eq!(alloc.iter().sum::<u64>(), 8);
        // Feed vanished-only rounds until the state stops.
        let mut rounds = 0;
        let mut alloc = alloc;
        loop {
            let total = alloc.iter().sum::<u64>() as usize;
            st.absorb_round(&alloc, std::iter::repeat_n(Outcome::Vanished, total));
            rounds += 1;
            match st.decide() {
                StopDecision::Stop { .. } => break,
                StopDecision::Continue { next_round } => {
                    assert!(st.samples_run + next_round <= st.policy.max_samples);
                    alloc = st.alloc_for(next_round);
                    assert_eq!(alloc.iter().sum::<u64>(), next_round);
                }
            }
            assert!(rounds < 100, "state must terminate");
        }
        let sum = st.into_summary();
        assert_eq!(sum.rounds.len(), rounds);
        assert!(sum.samples_run <= sum.fixed_budget);
        assert_eq!(sum.per_stratum.iter().sum::<u64>(), sum.samples_run);
    }

    #[test]
    #[should_panic(expected = "cover the allocation exactly")]
    fn absorb_round_rejects_short_rounds() {
        let mut st = AdaptiveState::new(ComponentKind::L2c, quick_policy());
        st.absorb_round(&[2, 0, 0], [Outcome::Vanished]);
    }

    #[test]
    fn summary_identities_cover_every_sample_once() {
        let mut st = AdaptiveState::new(ComponentKind::L2c, quick_policy());
        for alloc in [[3u64, 2, 1], [1, 4, 2]] {
            let total = alloc.iter().sum::<u64>() as usize;
            st.absorb_round(&alloc, std::iter::repeat_n(Outcome::Vanished, total));
        }
        let ids = st.clone().into_summary().sample_identities();
        assert_eq!(ids.len(), 13);
        // Per stratum, j runs 0..done without gaps or repeats.
        for s in Stratum::ALL {
            let js: Vec<u64> = ids
                .iter()
                .filter(|(x, _)| *x == s)
                .map(|&(_, j)| j)
                .collect();
            let mut sorted = js.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..js.len() as u64).collect::<Vec<_>>());
        }
        // Round order: round 0's identities precede round 1's.
        assert_eq!(ids[0], (Stratum::Address, 0));
        assert_eq!(ids[6], (Stratum::Address, 3));
    }

    #[test]
    fn adaptive_campaign_runs_and_carries_a_summary() {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec {
            workers: 2,
            ..CampaignSpec::quick(ComponentKind::L2c, 0)
        };
        let r = run_adaptive(profile, &spec, &quick_policy());
        let sum = r.adaptive.as_ref().expect("adaptive summary");
        assert_eq!(r.counts.total(), sum.samples_run);
        assert_eq!(r.records.len() as u64, sum.samples_run);
        assert!(!sum.rounds.is_empty());
        assert!(sum.samples_run <= sum.fixed_budget);
        assert_eq!(
            sum.per_stratum.iter().sum::<u64>(),
            sum.samples_run,
            "per-stratum tallies must cover every sample"
        );
        let mut merged = OutcomeCounts::new();
        for c in &sum.stratum_counts {
            merged.merge(c);
        }
        assert_eq!(merged, r.counts);
    }

    #[test]
    fn adaptive_campaign_is_reproducible_across_worker_counts() {
        let profile = by_name("radi").unwrap();
        let mk = |workers| {
            let spec = CampaignSpec {
                workers,
                ..CampaignSpec::quick(ComponentKind::L2c, 0)
            };
            run_adaptive(profile, &spec, &quick_policy())
        };
        let (a, b) = (mk(1), mk(3));
        assert_eq!(a.records, b.records);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.adaptive, b.adaptive);
    }
}
