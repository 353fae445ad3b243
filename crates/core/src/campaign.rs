//! Seeded, shardable error-injection campaigns (the Sec. 3 study).
//!
//! A campaign is one (component × benchmark) cell of Fig. 3: injection
//! runs, each with a randomly selected injection cycle, target
//! flip-flop, instance, and warm-up length — all derived from a single
//! campaign seed, so results are bit-reproducible and can be sharded
//! across worker threads or processes without coordination.
//!
//! Every way of running a cell is **a plan of rounds run by an
//! executor** through one loop, [`run_rounds`]: the [`Plan`] says which
//! rounds there are (one of `spec.samples` runs, or stratified rounds
//! until the stop rule of [`crate::adaptive`] is met), the
//! [`RoundExecutor`] runs a round and hands back its records
//! ([`LadderExecutor`] on threads here; `nestsim_cluster::RemoteExecutor`
//! submits each round to a campaign server, which runs it on a
//! [`LadderExecutor`] or leases it to worker processes). Every executor
//! builds the same seed-derived pair — the [`CellBase`] and each
//! [`Round`] — and runs shards through [`ShardRunner::run_span`].
//!
//! Forward simulation is amortised with the paper's snapshot ladder
//! (Sec. 2.2: snapshots every 2M cycles, [`DEFAULT_SNAPSHOT_INTERVAL`]
//! at the DESIGN.md cycle scale): the golden pass records
//! clone-snapshots every `snapshot_interval` cycles, workers take
//! contiguous entry-cycle ranges of the sorted samples, and each shard's
//! cursor starts from the nearest rung at or below its first entry
//! point and runs forward through the rest instead of replaying the
//! benchmark from cycle 0. A rung costs a clone and the pages dirtied
//! since the previous one, and a cursor that passes every rung can only
//! use one to skip the gap between two consecutive entries, so the
//! ladder holds no more rungs than its readers can use: [`rung_budget`]
//! gives a fixed-count cell one rung per shard, base included — a
//! single worker captures nothing and runs from the base — and keeps
//! the [`DEFAULT_MAX_RUNGS`] ladder for adaptive rounds and leased
//! cluster shards, which may enter anywhere. Determinism makes
//! restore-from-rung bit-identical to replay-from-zero, so records,
//! counts, and merged telemetry are byte-identical for any worker
//! count, snapshot interval and rung budget — locked by the equivalence
//! tests against [`run_campaign_replay`], the independent reference
//! that shares none of this (interleaved shards, no ladder, no
//! grouping).

use nestsim_hlsim::ladder::DEFAULT_MAX_RUNGS;
use nestsim_hlsim::workload::BenchProfile;
use nestsim_hlsim::{RunResult, SnapshotLadder, System, SystemConfig};
use nestsim_models::{inventory, Ccx, ComponentKind, L2cBank, Mcu, Pcie, UncoreRtl};
use nestsim_proto::addr::{BankId, McuId};
use nestsim_stats::seed::SplitRng;
use nestsim_stats::stop::{StopDecision, StopPolicy};
use nestsim_stats::SeedSeq;
use nestsim_telemetry::{names, CampaignTelemetry, Recorder, TelemetryConfig};

use crate::adaptive::{draw_round, AdaptiveState, StratifiedRound};
use crate::cosim::{on_component, Component, Spares};
use crate::inject::{
    finish, recorder_for, run_injection_with, warm, GoldenRef, InjectionRecord, InjectionSpec,
    DEFAULT_CHECK_INTERVAL, DEFAULT_COSIM_CAP, MIN_WARMUP,
};
use crate::lanes::run_batch;
use crate::outcome::OutcomeCounts;

/// Default snapshot-ladder rung spacing in cycles: the paper's 2M
/// cycles (Sec. 2.2) divided by the DESIGN.md `CYCLE_SCALE` of 1000.
pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 2_000;

/// Parameters of one campaign cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Component under test.
    pub component: ComponentKind,
    /// Number of injection runs.
    pub samples: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Benchmark length divisor (1 = full DESIGN.md scale).
    pub length_scale: u64,
    /// Co-simulation cycle cap (Sec. 4.2; default 100K).
    pub cosim_cap: u64,
    /// Golden-comparison interval.
    pub check_interval: u64,
    /// Worker threads (0 = available parallelism).
    pub workers: usize,
    /// Snapshot-ladder rung spacing in cycles before thinning (Sec.
    /// 2.2; default [`DEFAULT_SNAPSHOT_INTERVAL`]). How many rungs stay
    /// live is the reader's [`rung_budget`], not this spacing: a
    /// single-worker fixed-count cell keeps the base rung only whatever
    /// the interval. `u64::MAX` keeps only the base rung everywhere, i.e.
    /// every cursor replays from cycle 0. The interval never affects
    /// results — only how much forward simulation and rung capture the
    /// engine spends reaching injection entry points.
    pub snapshot_interval: u64,
    /// Injection-trajectory cluster size (default 1). Consecutive
    /// sample groups of this size share one randomly drawn trajectory
    /// — instance, injection cycle and warm-up — and differ only in the
    /// flipped bit, which is what lets the lane-batched engine advance
    /// them as one batch against a single golden universe.
    ///
    /// **Result-affecting**: clustering changes *which* samples are
    /// drawn (it is part of the sampling model, like `seed`), so it
    /// belongs in reproducibility cell keys. `1` reproduces the
    /// classic fully independent sampling bit-for-bit.
    pub lane_cluster: u64,
    /// How many same-trajectory samples may share one restore, attach
    /// and warm-up (default [`nestsim_rtl::MAX_LANES`]; valid range
    /// 1–64). On every component a shared group is a lane batch: that
    /// many faulty universes advanced per carrier universe.
    ///
    /// **Execution-only**: like `workers` and `snapshot_interval`, the
    /// lane width never affects records, counts, or merged telemetry —
    /// `1` shares nothing and is the scalar engine, and the equivalence
    /// tests lock byte-identity across widths.
    pub lane_width: u64,
}

impl CampaignSpec {
    /// A campaign with the paper's defaults at the given sample count.
    pub fn new(component: ComponentKind, samples: u64) -> Self {
        CampaignSpec {
            component,
            samples,
            seed: 2015,
            length_scale: 1,
            cosim_cap: DEFAULT_COSIM_CAP,
            check_interval: DEFAULT_CHECK_INTERVAL,
            workers: 0,
            snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL,
            lane_cluster: 1,
            lane_width: nestsim_rtl::MAX_LANES as u64,
        }
    }

    /// Shrinks the campaign for tests/smoke runs.
    pub fn quick(component: ComponentKind, samples: u64) -> Self {
        CampaignSpec {
            length_scale: 100,
            cosim_cap: 20_000,
            ..CampaignSpec::new(component, samples)
        }
    }

    /// Checks the spec for values that would silently corrupt a
    /// campaign rather than fail it loudly.
    ///
    /// `check_interval = 0` is the classic trap: `cycles % 0` is never
    /// zero, so no golden compare would ever fire, every run would burn
    /// the full co-simulation cap, and Vanished runs would misclassify
    /// as Persist. `cosim_cap = 0` and `snapshot_interval = 0` are
    /// rejected for the same reason (a campaign that cannot co-simulate
    /// or snapshot is a configuration error, not a result).
    pub fn validate(&self) -> Result<(), String> {
        if self.check_interval == 0 {
            return Err(
                "check_interval must be >= 1: an interval of 0 never fires a golden \
                 compare, so every run burns the full co-simulation cap and \
                 misclassifies as Persist"
                    .into(),
            );
        }
        if self.cosim_cap == 0 {
            return Err("cosim_cap must be >= 1: a zero cap leaves no co-simulation window".into());
        }
        if self.snapshot_interval == 0 {
            return Err(
                "snapshot_interval must be >= 1 (use u64::MAX to disable intermediate rungs)"
                    .into(),
            );
        }
        if self.lane_cluster == 0 {
            return Err(
                "lane_cluster must be >= 1 (1 = fully independent samples, no clustering)".into(),
            );
        }
        if self.lane_width == 0 || self.lane_width > nestsim_rtl::MAX_LANES as u64 {
            return Err(format!(
                "lane_width must be in 1..={} (1 = scalar execution), got {}",
                nestsim_rtl::MAX_LANES,
                self.lane_width
            ));
        }
        Ok(())
    }

    /// The one rule for whether the spec is a runnable cell of
    /// `profile`: PCIe cells need a benchmark with an input file (the
    /// paper only runs PCIe injections for the 12 file-fed benchmarks),
    /// and the spec must pass [`CampaignSpec::validate`].
    pub fn check(&self, profile: &BenchProfile) -> Result<(), String> {
        if self.component == ComponentKind::Pcie && !profile.has_input_file() {
            return Err(format!(
                "PCIe campaigns require a benchmark with an input file ({} has none)",
                profile.name
            ));
        }
        self.validate()
    }
}

/// Results of one campaign cell.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Component under test.
    pub component: ComponentKind,
    /// Outcome tallies.
    pub counts: OutcomeCounts,
    /// Per-run records (in sample order).
    pub records: Vec<InjectionRecord>,
    /// The error-free reference.
    pub golden: GoldenRef,
    /// Campaign telemetry (disabled unless the campaign ran with a
    /// telemetry configuration): per-run recorders merged in round
    /// order, identical on every executor, beside what the executor
    /// reports of itself.
    pub telemetry: CampaignTelemetry,
    /// Sequential-stopping trace, when the cell ran through the
    /// adaptive plan ([`Plan::Adaptive`]); `None` for fixed-count
    /// campaigns.
    pub adaptive: Option<crate::adaptive::AdaptiveSummary>,
}

/// The flop space of one instance of a component model (every instance
/// of a component shares one layout).
pub fn component_flops(component: ComponentKind) -> nestsim_rtl::FlopSpace {
    match component {
        ComponentKind::L2c => L2cBank::new(BankId::new(0)).flops().clone(),
        ComponentKind::Mcu => Mcu::new(McuId::new(0)).flops().clone(),
        ComponentKind::Ccx => Ccx::new().flops().clone(),
        ComponentKind::Pcie => Pcie::new().flops().clone(),
    }
}

/// Global bit indices eligible for injection in a component model
/// (Table 4's target partition, via the field classes).
pub fn injection_target_bits(component: ComponentKind) -> Vec<usize> {
    component_flops(component).bits_where(|c| c.is_injection_target())
}

/// Number of instances of a component in the SoC (Table 3).
pub fn instances_of(component: ComponentKind) -> usize {
    inventory::table4_for(component).instances
}

/// An instance of `component` drawn from `rng`, as the Fig. 5 and Fig. 6
/// experiments pick one: a single-instance component draws nothing.
pub(crate) fn draw_instance(component: ComponentKind, rng: &mut SplitRng) -> usize {
    match instances_of(component) {
        1 => 0,
        n => rng.below(n as u64) as usize,
    }
}

/// The pristine system of a campaign cell, at cycle 0.
fn base_system(profile: &'static BenchProfile, spec: &CampaignSpec) -> System {
    System::new(SystemConfig {
        seed: spec.seed,
        length_scale: spec.length_scale,
        ..SystemConfig::new(profile)
    })
}

/// The golden reference a completed error-free run leaves.
///
/// # Panics
///
/// Panics if the run did not complete (a workload bug).
fn golden_of(profile: &BenchProfile, result: RunResult) -> GoldenRef {
    match result {
        RunResult::Completed { digest, cycles } => GoldenRef { digest, cycles },
        other => panic!(
            "error-free run of {} did not complete: {other:?}",
            profile.name
        ),
    }
}

/// Runs the error-free reference execution for a campaign cell and
/// returns the pristine base system plus the golden reference.
///
/// # Panics
///
/// Panics if the error-free run does not complete (a workload bug).
pub fn golden_reference(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
) -> (System, GoldenRef) {
    let base = base_system(profile, spec);
    let golden = golden_of(profile, base.clone().run_to_end());
    (base, golden)
}

/// The window of cycles injection points are sampled from.
///
/// PCIe injections are sampled while the DMA transfer is in flight
/// (the paper "modeled a situation where PCIe I/O is used to transfer
/// the application's input data files"); other components use the bulk
/// of the application's execution.
pub fn injection_window(
    component: ComponentKind,
    profile: &BenchProfile,
    golden: &GoldenRef,
) -> (u64, u64) {
    match component {
        ComponentKind::Pcie => {
            let dma_cycles = (profile.input_bytes() / 64).max(4) * 8;
            let hi = dma_cycles
                .min(golden.cycles.saturating_sub(1))
                .max(MIN_WARMUP + 64);
            (16, hi)
        }
        _ => {
            let hi = (golden.cycles * 9 / 10).max(MIN_WARMUP + 128);
            (MIN_WARMUP + 64, hi)
        }
    }
}

/// Checks that the injection window for this cell actually contains
/// injectable cycles of the error-free execution.
///
/// The window formulas clamp their bounds upward to keep them ordered,
/// so a benchmark shorter than the minimum warm-up would otherwise
/// yield samples whose injection cycles lie at or beyond program end —
/// every run would degenerate to Vanished without ever exercising the
/// component. That is a configuration error (the workload is too short
/// for the sampling model), not a result, so [`draw_samples`] fails
/// loudly instead.
pub fn validate_window(
    component: ComponentKind,
    profile: &BenchProfile,
    golden: &GoldenRef,
) -> Result<(), String> {
    let (lo, hi) = injection_window(component, profile, golden);
    if hi <= lo || golden.cycles <= lo {
        return Err(format!(
            "empty injection window for {} on {}: window [{lo}, {hi}) vs error-free \
             length {} cycles — the benchmark is too short to inject into after the \
             minimum warm-up; increase the workload length (lower length_scale)",
            component.name(),
            profile.name,
            golden.cycles,
        ));
    }
    Ok(())
}

/// The injection window of a cell, checked by [`validate_window`].
///
/// # Panics
///
/// Panics if the window is empty — sampling from it would silently
/// classify every run as Vanished.
pub(crate) fn checked_window(
    profile: &BenchProfile,
    spec: &CampaignSpec,
    golden: &GoldenRef,
) -> (u64, u64) {
    if let Err(e) = validate_window(spec.component, profile, golden) {
        panic!("invalid campaign cell: {e}");
    }
    injection_window(spec.component, profile, golden)
}

/// Appends samples `range` of the seed stream `root`, bits picked from
/// `bits` and injection cycles from `window` — the one per-sample draw
/// every plan shares.
///
/// With `spec.lane_cluster > 1`, consecutive groups of that size share
/// their *leader's* trajectory (instance, injection cycle, warm-up)
/// while every member keeps its own independently drawn bit — each
/// member's bit still comes from its own per-sample RNG stream, so
/// raising the cluster size never changes which bits sample `k` flips,
/// only where it flips them.
pub(crate) fn draw_stream(
    spec: &CampaignSpec,
    root: &SeedSeq,
    bits: &[usize],
    (lo, hi): (u64, u64),
    range: std::ops::Range<u64>,
    out: &mut Vec<InjectionSpec>,
) {
    let instances = instances_of(spec.component) as u64;
    let cluster = spec.lane_cluster.max(1);
    // One sample's own draws, in stream order: (instance, bit,
    // injection cycle, warm-up).
    let draw = |k: u64| {
        let mut rng = root.derive_index(k).rng();
        (
            rng.below(instances) as usize,
            *rng.pick(bits),
            rng.range(lo, hi),
            MIN_WARMUP + rng.below(1_000),
        )
    };
    out.extend(range.map(|k| {
        let own = draw(k);
        let leader = k - k % cluster;
        // A follower replays its leader's draws and adopts everything
        // but the bit.
        let (instance, _, inject_cycle, warmup) = if leader == k { own } else { draw(leader) };
        InjectionSpec {
            component: spec.component,
            instance,
            bit: own.1,
            inject_cycle,
            warmup,
            cosim_cap: spec.cosim_cap,
            check_interval: spec.check_interval,
        }
    }));
}

/// Draws the `spec.samples` injection specs of a fixed-count campaign
/// (deterministic in the campaign seed), with the trajectory clustering
/// of [`CampaignSpec::lane_cluster`].
///
/// # Panics
///
/// Panics if [`validate_window`] rejects the cell — sampling from an
/// empty window would silently classify every run as Vanished.
pub fn draw_samples(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    golden: &GoldenRef,
) -> Vec<InjectionSpec> {
    let window = checked_window(profile, spec, golden);
    let root = SeedSeq::new(spec.seed)
        .derive("campaign")
        .derive(profile.name);
    let bits = injection_target_bits(spec.component);
    let mut out = Vec::with_capacity(spec.samples as usize);
    draw_stream(spec, &root, &bits, window, 0..spec.samples, &mut out);
    out
}

/// One worker's completed runs: (sample index, record, per-run
/// recorder), in shard order.
pub type IndexedRuns = Vec<(usize, InjectionRecord, Recorder)>;

/// Executes one shard of a campaign: a cursor over the snapshot ladder
/// that runs injection samples with **ascending entry cycles**, each
/// restored from the nearest rung at or below its entry point. Every
/// injection after the first restores into the driver the one before
/// ended with — system, port and sides — and every lane batch after the
/// first takes its lanes from the sides the ones before left, so a shard
/// allocates one injection driver, not one per sample.
///
/// This is the unit of work every execution layer shares —
/// [`LadderExecutor`] gives each worker thread one runner per shard,
/// the `nestsim-cluster` worker builds one per leased shard — so
/// "re-run the shard anywhere" is bit-identical by construction.
pub struct ShardRunner<'a> {
    ladder: &'a SnapshotLadder,
    samples: &'a [InjectionSpec],
    golden: &'a GoldenRef,
    telemetry: Option<&'a TelemetryConfig>,
    // The forward cursor: a rung clone advanced monotonically through
    // the shard's ascending entry cycles; re-restored (in place)
    // whenever a later rung is closer than the cursor.
    cursor: Option<System>,
    // The drivers and lane sides the last group ended with, which the
    // next group refills (`System::clone_from`, `Driver::reattach`).
    // Parked with their pages released, so that the cursor takes back
    // the pages it shared for that group when it moves on.
    kept: Spares,
    forward: u64,
    restores: u64,
    lane_width: usize,
    lanes: crate::lanes::LaneBatchStats,
}

impl<'a> ShardRunner<'a> {
    /// A fresh runner (fresh cursor) for one shard. `lane_width` caps
    /// how many same-trajectory samples [`run_span`](Self::run_span)
    /// runs as one lane batch (clamped to 1–64; it never affects
    /// results, only execution).
    pub fn new(
        ladder: &'a SnapshotLadder,
        samples: &'a [InjectionSpec],
        golden: &'a GoldenRef,
        telemetry: Option<&'a TelemetryConfig>,
        lane_width: usize,
    ) -> Self {
        ShardRunner {
            ladder,
            samples,
            golden,
            telemetry,
            cursor: None,
            kept: Spares::default(),
            forward: 0,
            restores: 0,
            lane_width: lane_width.clamp(1, nestsim_rtl::MAX_LANES),
            lanes: crate::lanes::LaneBatchStats::default(),
        }
    }

    /// Positions the cursor at `entry`: restores from the nearest rung
    /// at or below it when that beats the current cursor (into the
    /// cursor, if there is one), then runs forward.
    fn seek(&mut self, entry: u64) {
        let rung = self.ladder.rung_below(entry);
        if self
            .cursor
            .as_ref()
            .is_none_or(|c| rung.cycle() > c.cycle())
        {
            match &mut self.cursor {
                Some(cursor) => cursor.clone_from(rung),
                None => self.cursor = Some(rung.clone()),
            }
            self.restores += 1;
        }
        let my_base = self.cursor.as_mut().expect("cursor was just restored");
        debug_assert!(
            my_base.cycle() <= entry,
            "shard samples must be run in ascending entry-cycle order"
        );
        self.forward += entry.saturating_sub(my_base.cycle());
        my_base.run_until(entry);
        // Every injection at this entry point clones the cursor: share
        // the pages the forward run dirtied so those clones copy none.
        // With the group's systems released, the next forward run takes
        // them back instead of copying them again.
        my_base.share_pages();
    }

    /// How many leading samples of `span` run off one shared restore,
    /// attach and warm-up: the run of same-trajectory samples at its
    /// head, cut at the lane width.
    fn group_len(&self, span: &[usize]) -> usize {
        let Some(&first) = span.first() else {
            return 0;
        };
        let mut end = 1;
        while end < span.len()
            && end < self.lane_width
            && same_trajectory(&self.samples[first], &self.samples[span[end]])
        {
            end += 1;
        }
        end
    }

    /// [`run_span`](Self::run_span) of the leading group of `span`
    /// alone — the samples that share one warm-up — for callers that
    /// hand results on between groups. The rest of the span is the
    /// caller's to continue with.
    pub fn run_group(&mut self, span: &[usize]) -> IndexedRuns {
        self.run_span(&span[..self.group_len(span)])
    }

    /// Runs a whole shard (a contiguous slice of [`entry_order`]),
    /// grouping consecutive same-trajectory samples — the product of
    /// `CampaignSpec::lane_cluster` — up to `lane_width` at a time. A
    /// group pays for one restore, one attach and one warm-up: a group
    /// of two or more runs as a lane batch on a shared carrier
    /// (`crate::lanes`), whatever the component, and a singleton runs
    /// the scalar engine. Results come back in shard order and are
    /// byte-identical however the shard is cut into spans.
    ///
    /// Spans given to one runner must present non-decreasing entry
    /// cycles (consecutive slices of [`entry_order`] do); a shard that
    /// restarts earlier needs a fresh runner, or the cursor would sit
    /// past the entry point.
    pub fn run_span(&mut self, span: &[usize]) -> IndexedRuns {
        let mut out: IndexedRuns = Vec::with_capacity(span.len());
        let mut rest = span;
        while !rest.is_empty() {
            let (group, tail) = rest.split_at(self.group_len(rest));
            rest = tail;
            let spec0 = &self.samples[group[0]];
            self.seek(entry_cycle(spec0));
            let base = self.cursor.as_ref().expect("cursor was just positioned");
            let golden = self.golden;
            on_component!(spec0.component, C => {
                let kept = C::kept(&mut self.kept);
                match *group {
                    [i] => {
                        let mut rec = recorder_for(self.telemetry);
                        let warmed = warm::<C>(base, golden, spec0, kept.driver.take());
                        let (record, driver) = finish(warmed, golden, spec0, &mut rec);
                        kept.driver = Some(driver);
                        out.push((i, record, rec));
                    }
                    _ => {
                        let (telemetry, stats) = (self.telemetry, &mut self.lanes);
                        let mut runs =
                            run_batch::<C>(base, golden, self.samples, group, telemetry, stats, kept);
                        // Batch retirement order is check-driven; the caller
                        // contract is shard order.
                        runs.sort_by_key(|(i, _, _)| group.iter().position(|&s| s == *i));
                        out.extend(runs);
                    }
                }
                kept.park();
            });
        }
        out
    }

    /// Accelerated-mode cycles forward-simulated so far.
    pub fn forward_cycles(&self) -> u64 {
        self.forward
    }

    /// Ladder-rung restores performed so far.
    pub fn restores(&self) -> u64 {
        self.restores
    }

    /// Lane-batching counters accumulated so far.
    pub(crate) fn lane_stats(&self) -> crate::lanes::LaneBatchStats {
        self.lanes
    }
}

/// True when two samples share one injection trajectory — everything
/// but the flipped bit — and can therefore ride one lane batch.
pub(crate) fn same_trajectory(a: &InjectionSpec, b: &InjectionSpec) -> bool {
    a.component == b.component
        && a.instance == b.instance
        && a.inject_cycle == b.inject_cycle
        && a.warmup == b.warmup
        && a.cosim_cap == b.cosim_cap
        && a.check_interval == b.check_interval
}

/// Runs the error-free reference execution *and* captures the snapshot
/// ladder of a [`Plan::Fixed`] cell in the same forward pass: the golden
/// run pauses every `spec.snapshot_interval` cycles to record a
/// clone-snapshot rung, keeping at most [`rung_budget`] live, so the
/// ladder costs no forward-simulated cycles beyond the reference
/// execution the campaign needs anyway — only the clones.
///
/// # Panics
///
/// Panics if the error-free run does not complete (a workload bug).
pub fn laddered_golden_reference(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
) -> (SnapshotLadder, GoldenRef) {
    golden_ladder(profile, spec, rung_budget(&Plan::Fixed, spec))
}

/// [`laddered_golden_reference`] at an explicit rung budget.
fn golden_ladder(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    max_rungs: usize,
) -> (SnapshotLadder, GoldenRef) {
    let base = base_system(profile, spec);
    let (ladder, result) = SnapshotLadder::capture(&base, spec.snapshot_interval, max_rungs);
    (ladder, golden_of(profile, result))
}

/// How many ladder rungs, base included, a cell run under `plan` on the
/// in-process executor can use. A fixed-count cell is one round cut into
/// [`worker_count`] contiguous shards, and each shard's cursor walks its
/// entries in ascending order: it restores once, from the rung below its
/// first entry, and after that a rung can only save the gap between two
/// consecutive entries — less than the clone and dirtied pages it cost.
/// So one rung per shard; a single worker (or no sample) captures
/// nothing. Adaptive rounds enter anywhere, so they keep the
/// [`DEFAULT_MAX_RUNGS`] ladder (as do the cluster worker and `mck`,
/// whose leased shards start at any position).
pub fn rung_budget(plan: &Plan, spec: &CampaignSpec) -> usize {
    match plan {
        Plan::Fixed => worker_count(spec, spec.samples as usize).max(1),
        Plan::Adaptive(_) => DEFAULT_MAX_RUNGS,
    }
}

/// The seed-derived base of one campaign cell, captured once and
/// shared by all of its rounds: the error-free reference and the
/// snapshot ladder recorded in the same forward pass.
pub struct CellBase {
    /// Clone-snapshots of the error-free run.
    pub ladder: SnapshotLadder,
    /// The error-free reference.
    pub golden: GoldenRef,
}

/// One round's samples in canonical round order, and the order they
/// are executed and sharded in.
pub struct Round {
    /// The drawn injection specs, indexed by round position.
    pub samples: Vec<InjectionSpec>,
    /// [`entry_order`] of `samples`.
    pub order: Vec<usize>,
}

impl CellBase {
    /// Runs the golden pass of a cell, recording a ladder of at most
    /// `max_rungs` rungs on the way — the budget of whoever restores
    /// from it ([`rung_budget`], or [`DEFAULT_MAX_RUNGS`] for a cursor
    /// that may enter anywhere).
    ///
    /// # Panics
    ///
    /// Panics if [`check_campaign`] rejects the cell or the error-free
    /// run does not complete.
    pub fn capture(
        profile: &'static BenchProfile,
        spec: &CampaignSpec,
        max_rungs: usize,
    ) -> CellBase {
        check_campaign(profile, spec);
        let (ladder, golden) = golden_ladder(profile, spec, max_rungs);
        CellBase { ladder, golden }
    }

    /// Draws one round: the `spec.samples` runs of the fixed-count
    /// stream ([`draw_samples`]) for `None`, the stratified slice
    /// `strata` names ([`draw_round`]) otherwise. Every process that
    /// draws the same round of the same cell gets the same bytes.
    ///
    /// # Panics
    ///
    /// Panics if the cell's injection window is empty
    /// ([`validate_window`]).
    pub fn draw(
        &mut self,
        profile: &'static BenchProfile,
        spec: &CampaignSpec,
        strata: Option<&StratifiedRound>,
    ) -> Round {
        let samples = match strata {
            None => draw_samples(profile, spec, &self.golden),
            Some(round) => draw_round(profile, spec, &self.golden, round),
        };
        let order = entry_order(&samples);
        if strata.is_none() {
            // A fixed-count job is its campaign's only round, so rungs
            // above its last entry point can never be restored from. A
            // stratified round keeps them: a later round may enter later.
            let max_entry = order.last().map_or(0, |&i| entry_cycle(&samples[i]));
            self.ladder.truncate_above(max_entry);
        }
        Round { samples, order }
    }
}

/// Which rounds a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plan {
    /// One round: the `spec.samples` runs of the fixed-count stream.
    Fixed,
    /// Stratified rounds until the policy's stop rule is met
    /// ([`crate::adaptive`]); `spec.samples` is ignored, the policy's
    /// budget governs.
    Adaptive(StopPolicy),
}

/// What an executor hands back when its campaign ends.
pub struct Execution {
    /// The error-free reference the runs were classified against.
    pub golden: GoldenRef,
    /// Execution telemetry: ladder, forward-simulation, lane, lease and
    /// frame counters — whatever this executor has to report.
    pub engine: Recorder,
    /// Samples per shard, in dispatch order, over all rounds (empty
    /// without telemetry).
    pub worker_samples: Vec<usize>,
}

/// The way a campaign's rounds get executed. The two real executors are
/// [`LadderExecutor`] and `nestsim_cluster::RemoteExecutor`, which
/// submits each round to a campaign server; tests script a third to
/// drive [`run_rounds`] alone.
pub trait RoundExecutor {
    /// Runs one round — the stratified slice `strata`, or for `None`
    /// the cell's fixed-count samples — and returns its records in round
    /// position order, each position exactly once, with their per-run
    /// recorders merged in that order.
    fn run_round(&mut self, strata: Option<&StratifiedRound>) -> (Vec<InjectionRecord>, Recorder);

    /// Ends the campaign.
    fn finish(self) -> Execution;
}

/// The in-process executor: each round is cut into contiguous shards of
/// its entry order, one worker thread and one [`ShardRunner`] per
/// shard, all on one shared [`CellBase`].
pub struct LadderExecutor<'a> {
    profile: &'static BenchProfile,
    spec: &'a CampaignSpec,
    telemetry: Option<&'a TelemetryConfig>,
    base: CellBase,
    engine: Recorder,
    worker_samples: Vec<usize>,
}

impl<'a> LadderExecutor<'a> {
    /// Captures the cell's base with the ladder `plan` can use
    /// ([`rung_budget`]); `spec.workers` threads (0 = available
    /// parallelism) will run each round.
    ///
    /// # Panics
    ///
    /// Panics as [`CellBase::capture`] does.
    pub fn new(
        profile: &'static BenchProfile,
        spec: &'a CampaignSpec,
        plan: &Plan,
        telemetry: Option<&'a TelemetryConfig>,
    ) -> Self {
        LadderExecutor {
            profile,
            spec,
            telemetry,
            base: CellBase::capture(profile, spec, rung_budget(plan, spec)),
            engine: recorder_for(telemetry),
            worker_samples: Vec::new(),
        }
    }
}

impl RoundExecutor for LadderExecutor<'_> {
    fn run_round(&mut self, strata: Option<&StratifiedRound>) -> (Vec<InjectionRecord>, Recorder) {
        let round = self.base.draw(self.profile, self.spec, strata);
        // No samples: no shards, no threads, nothing counted.
        let workers = worker_count(self.spec, round.order.len());
        if workers == 0 {
            return (Vec::new(), recorder_for(self.telemetry));
        }
        let shards = contiguous_shards(&round.order, workers);
        if self.telemetry.is_some() {
            self.worker_samples.extend(shards.iter().map(Vec::len));
        }
        let (base, samples) = (&self.base, &round.samples);
        let (telemetry, width) = (self.telemetry, self.spec.lane_width as usize);
        type WorkerOut = (IndexedRuns, u64, u64, crate::lanes::LaneBatchStats);
        let per_worker: Vec<WorkerOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|shard| {
                    scope.spawn(move || {
                        let mut runner =
                            ShardRunner::new(&base.ladder, samples, &base.golden, telemetry, width);
                        let out = runner.run_span(shard);
                        (
                            out,
                            runner.forward_cycles(),
                            runner.restores(),
                            runner.lane_stats(),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        });
        let mut indexed = Vec::with_capacity(samples.len());
        for (out, forward, restores, lanes) in per_worker {
            self.engine.count(names::FORWARD_CYCLES, forward);
            self.engine.count(names::LADDER_RESTORES, restores);
            lanes.publish(&mut self.engine);
            indexed.extend(out);
        }
        let mut merged = recorder_for(self.telemetry);
        let records = sorted_cover(indexed, samples.len())
            .into_iter()
            .map(|(_, record, rec)| {
                merged.merge(&rec);
                record
            })
            .collect();
        (records, merged)
    }

    fn finish(mut self) -> Execution {
        let ladder = &self.base.ladder;
        self.engine.count(names::LADDER_RUNGS, ladder.len() as u64);
        self.engine.count(names::LADDER_CAPTURES, ladder.captures());
        if self.engine.is_active() {
            for cost in ladder.rung_costs() {
                self.engine
                    .record_hist(names::H_LADDER_RUNG_DRAM_LINES, cost.dram_lines as u64);
                self.engine.record_hist(
                    names::H_LADDER_RUNG_RESIDENT_LINES,
                    cost.resident_l2_lines as u64,
                );
            }
        }
        Execution {
            golden: self.base.golden,
            engine: self.engine,
            worker_samples: self.worker_samples,
        }
    }
}

/// Runs one campaign cell: the rounds of `plan`, each through
/// `executor`. Records, counts and merged telemetry depend on the cell
/// and the plan alone — per-run recorders merge **in round order**
/// (sample order for [`Plan::Fixed`], stratum-major round after round
/// for [`Plan::Adaptive`]; a round's recorders arrive merged, which is
/// the same bytes because merging is associative) and the adaptive
/// decisions see only merged
/// outcomes ([`AdaptiveState`]); the executor shows only in
/// [`CampaignTelemetry::engine`] and
/// [`CampaignTelemetry::worker_samples`].
///
/// # Panics
///
/// Panics on an invalid policy ([`StopPolicy::validate`]) and on
/// round-accounting violations.
pub fn run_rounds(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    plan: &Plan,
    telemetry: Option<&TelemetryConfig>,
    mut executor: impl RoundExecutor,
) -> CampaignResult {
    let mut state = match plan {
        Plan::Fixed => None,
        Plan::Adaptive(policy) => Some(AdaptiveState::new(spec.component, *policy)),
    };
    let mut strata = state.as_ref().map(|s| s.round(s.initial_alloc()));
    let mut counts = OutcomeCounts::new();
    let mut merged = recorder_for(telemetry);
    let mut records = Vec::new();
    loop {
        let first = records.len();
        let (round, rec) = executor.run_round(strata.as_ref());
        merged.merge(&rec);
        for record in &round {
            counts.record(record.outcome);
        }
        records.extend(round);
        let (Some(state), Some(round)) = (&mut state, &mut strata) else {
            break;
        };
        state.absorb_round(&round.alloc, records[first..].iter().map(|r| r.outcome));
        match state.decide() {
            StopDecision::Stop { .. } => break,
            StopDecision::Continue { next_round } => {
                *round = state.round(state.alloc_for(next_round));
            }
        }
    }
    let mut done = executor.finish();
    CampaignResult {
        benchmark: profile.name,
        component: spec.component,
        counts,
        records,
        golden: done.golden,
        adaptive: state.map(|s| {
            s.publish(&mut done.engine);
            s.into_summary()
        }),
        telemetry: CampaignTelemetry {
            merged,
            worker_samples: done.worker_samples,
            engine: done.engine,
        },
    }
}

/// Runs one campaign cell for `profile`, with optional telemetry:
/// [`Plan::Fixed`] on a [`LadderExecutor`]. An empty campaign spawns
/// nothing and carries valid, empty telemetry.
///
/// # Panics
///
/// Panics if the component is PCIe and the benchmark has no input file
/// (the paper only runs PCIe injections for the 12 file-fed
/// benchmarks), or if the spec fails [`CampaignSpec::validate`].
pub fn run_campaign_with(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    telemetry: Option<&TelemetryConfig>,
) -> CampaignResult {
    let executor = LadderExecutor::new(profile, spec, &Plan::Fixed, telemetry);
    run_rounds(profile, spec, &Plan::Fixed, telemetry, executor)
}

/// The pre-ladder campaign engine, kept as the independent reference
/// the identity suites compare [`run_rounds`] against — it shares no
/// round loop, executor, ladder, shard layout or grouping with it:
/// every worker replays one forward pass of the whole benchmark over
/// an *interleaved* shard of the sorted samples, cloning at each entry
/// point and running one sample at a time. Byte-identical to
/// [`run_campaign_with`] in records, counts, and merged telemetry;
/// roughly `workers ×` more forward simulation.
///
/// # Panics
///
/// Panics if the component is PCIe and the benchmark has no input file,
/// or if the spec fails [`CampaignSpec::validate`].
pub fn run_campaign_replay(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    telemetry: Option<&TelemetryConfig>,
) -> CampaignResult {
    check_campaign(profile, spec);
    let (base, golden) = golden_reference(profile, spec);
    let samples = draw_samples(profile, spec, &golden);

    // Order samples by co-simulation entry point; each worker replays
    // one forward pass over its (ascending, interleaved) shard.
    let order = entry_order(&samples);

    let workers = worker_count(spec, order.len());
    let shards: Vec<Vec<usize>> = (0..workers)
        .map(|w| order.iter().copied().skip(w).step_by(workers).collect())
        .collect();

    let mut engine = recorder_for(telemetry);
    let per_worker: Vec<(IndexedRuns, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                let base = &base;
                let samples = &samples;
                let golden = &golden;
                scope.spawn(move || {
                    let mut my_base = base.clone();
                    let mut out = Vec::with_capacity(shard.len());
                    let mut forward = 0u64;
                    for &i in shard {
                        let s = &samples[i];
                        let entry = entry_cycle(s);
                        forward += entry.saturating_sub(my_base.cycle());
                        my_base.run_until(entry);
                        let mut rec = recorder_for(telemetry);
                        let r = run_injection_with(&my_base, golden, s, &mut rec);
                        out.push((i, r, rec));
                    }
                    (out, forward)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });

    let mut indexed = Vec::with_capacity(samples.len());
    for (out, forward) in per_worker {
        engine.count(names::FORWARD_CYCLES, forward);
        indexed.extend(out);
    }
    let worker_samples = if telemetry.is_some() {
        shards.iter().map(Vec::len).collect()
    } else {
        Vec::new()
    };
    assemble_result(
        profile,
        spec,
        telemetry,
        golden,
        indexed,
        worker_samples,
        engine,
    )
}

/// Panics on specs that cannot produce a meaningful campaign, with the
/// message of [`CampaignSpec::check`]. Shared precondition of every
/// executor ([`CellBase::capture`] checks it, as does
/// `nestsim_cluster::run_cluster`, which captures nothing) and of the
/// replay reference.
pub fn check_campaign(profile: &BenchProfile, spec: &CampaignSpec) {
    if let Err(e) = spec.check(profile) {
        panic!("invalid campaign spec: {e}");
    }
}

/// The default degree of parallelism when a spec says `workers = 0`:
/// available hardware parallelism, falling back to 4 when the platform
/// cannot report it. The single source of truth for every execution
/// layer ([`LadderExecutor`], the replay reference and the repro
/// grid).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

fn worker_count(spec: &CampaignSpec, samples: usize) -> usize {
    if spec.workers == 0 {
        default_workers()
    } else {
        spec.workers
    }
    .min(samples)
}

/// The cycle at which sample `s`'s forward simulation must leave
/// accelerated mode: its injection cycle minus its warm-up.
pub fn entry_cycle(s: &InjectionSpec) -> u64 {
    s.inject_cycle.saturating_sub(s.warmup.max(MIN_WARMUP))
}

/// Sample indices sorted by ascending [`entry_cycle`] — the canonical
/// execution order every engine shards. The sort is stable, so equal
/// entry cycles tie-break by sample index and the order is a pure
/// function of the drawn samples (identical in every process).
pub fn entry_order(samples: &[InjectionSpec]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by_key(|&i| entry_cycle(&samples[i]));
    order
}

/// Splits the sorted order into `workers` contiguous, balanced ranges
/// (sizes differ by at most one, larger ranges first).
///
/// # Panics
///
/// Panics on `workers == 0`: no worker can take the samples.
pub fn contiguous_shards(order: &[usize], workers: usize) -> Vec<Vec<usize>> {
    assert!(workers >= 1, "contiguous_shards needs at least one worker");
    let base = order.len() / workers;
    let rem = order.len() % workers;
    let mut shards = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < rem);
        shards.push(order[start..start + len].to_vec());
        start += len;
    }
    shards
}

/// Sorts runs by sample index and checks they are exactly `0..n`.
///
/// # Panics
///
/// Panics on a duplicated or dropped run — the execution layer's merge
/// is broken, and silently skewed statistics are worse than a crash.
pub fn sorted_cover(mut indexed: IndexedRuns, n: usize) -> IndexedRuns {
    indexed.sort_by_key(|(i, _, _)| *i);
    assert!(
        indexed.len() == n && indexed.iter().enumerate().all(|(k, (i, _, _))| k == *i),
        "campaign runs must cover every sample index exactly once"
    );
    indexed
}

/// One-round epilogue for callers that hold a round's runs but ran no
/// [`run_rounds`] (the replay reference and the benchmark probes):
/// sorts the runs back into sample order, tallies outcomes, and merges
/// per-run telemetry **in sample order**.
///
/// # Panics
///
/// Panics unless `indexed` covers each sample index `0..n` exactly once
/// ([`sorted_cover`]).
pub fn assemble_result(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    telemetry: Option<&TelemetryConfig>,
    golden: GoldenRef,
    indexed: IndexedRuns,
    worker_samples: Vec<usize>,
    engine: Recorder,
) -> CampaignResult {
    let n = indexed.len();
    let mut counts = OutcomeCounts::new();
    let mut merged = recorder_for(telemetry);
    let records: Vec<InjectionRecord> = sorted_cover(indexed, n)
        .into_iter()
        .map(|(_, r, rec)| {
            counts.record(r.outcome);
            merged.merge(&rec);
            r
        })
        .collect();

    CampaignResult {
        benchmark: profile.name,
        component: spec.component,
        counts,
        records,
        golden,
        telemetry: CampaignTelemetry {
            merged,
            worker_samples,
            engine,
        },
        adaptive: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcome;
    use nestsim_hlsim::workload::by_name;

    #[test]
    fn target_bits_exclude_protected_classes() {
        use nestsim_rtl::FlopClass;
        let bits = injection_target_bits(ComponentKind::L2c);
        let bank = L2cBank::new(BankId::new(0));
        for &b in bits.iter().step_by(97) {
            assert!(bank.flops().class_of_bit(b).is_injection_target());
            assert_ne!(bank.flops().class_of_bit(b), FlopClass::EccProtected);
        }
        assert!(!bits.is_empty());
    }

    #[test]
    fn sample_drawing_is_deterministic_and_in_window() {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec::quick(ComponentKind::L2c, 50);
        let (_, golden) = golden_reference(profile, &spec);
        let a = draw_samples(profile, &spec, &golden);
        let b = draw_samples(profile, &spec, &golden);
        assert_eq!(a, b);
        let (lo, hi) = injection_window(ComponentKind::L2c, profile, &golden);
        for s in &a {
            assert!((lo..hi).contains(&s.inject_cycle));
            assert!(s.warmup >= MIN_WARMUP);
        }
    }

    #[test]
    fn empty_injection_window_is_an_explicit_error() {
        // A fabricated error-free run shorter than the minimum warm-up:
        // the window formulas clamp hi above lo, but every cycle in
        // [lo, hi) then lies beyond program end. Before validate_window
        // this silently drew samples that all degenerate to Vanished.
        let profile = by_name("radi").unwrap();
        let golden = GoldenRef {
            digest: 0,
            cycles: 100,
        };
        let err = validate_window(ComponentKind::L2c, profile, &golden).unwrap_err();
        assert!(err.contains("empty injection window"), "{err}");
        assert!(err.contains("L2C"), "must name the component: {err}");
        assert!(err.contains("radi"), "must name the benchmark: {err}");

        // A realistic golden reference passes for every component.
        let spec = CampaignSpec::quick(ComponentKind::L2c, 1);
        let (_, real) = golden_reference(profile, &spec);
        assert!(validate_window(ComponentKind::L2c, profile, &real).is_ok());
        assert!(validate_window(ComponentKind::Pcie, profile, &real).is_ok());
    }

    #[test]
    #[should_panic(expected = "empty injection window")]
    fn draw_samples_refuses_an_empty_window() {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec::quick(ComponentKind::L2c, 4);
        let golden = GoldenRef {
            digest: 0,
            cycles: 10,
        };
        let _ = draw_samples(profile, &spec, &golden);
    }

    #[test]
    fn entry_order_sorts_by_entry_cycle_with_stable_ties() {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec::quick(ComponentKind::L2c, 32);
        let (_, golden) = golden_reference(profile, &spec);
        let samples = draw_samples(profile, &spec, &golden);
        let order = entry_order(&samples);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..samples.len()).collect::<Vec<_>>());
        for w in order.windows(2) {
            let (a, b) = (entry_cycle(&samples[w[0]]), entry_cycle(&samples[w[1]]));
            assert!(a < b || (a == b && w[0] < w[1]), "order must be stable");
        }
    }

    #[test]
    fn small_l2c_campaign_classifies_everything() {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec {
            workers: 2,
            ..CampaignSpec::quick(ComponentKind::L2c, 12)
        };
        let r = run_campaign_with(profile, &spec, None);
        assert_eq!(r.counts.total(), 12);
        assert_eq!(r.records.len(), 12);
        // Vanished must dominate, as in the paper (>97% on average at
        // full scale; at smoke scale we only require a majority).
        assert!(r.counts.count(Outcome::Vanished) >= 6);
    }

    #[test]
    fn campaign_is_reproducible_across_worker_counts() {
        let profile = by_name("lu-c").unwrap();
        let mk = |workers| {
            let spec = CampaignSpec {
                workers,
                ..CampaignSpec::quick(ComponentKind::L2c, 8)
            };
            run_campaign_with(profile, &spec, None)
        };
        let a = mk(1);
        let b = mk(4);
        assert_eq!(a.records, b.records);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    #[should_panic(expected = "input file")]
    fn pcie_campaign_rejects_fileless_benchmarks() {
        let profile = by_name("barn").unwrap();
        let spec = CampaignSpec::quick(ComponentKind::Pcie, 1);
        let _ = run_campaign_with(profile, &spec, None);
    }

    #[test]
    fn spec_validation_names_the_offending_field() {
        assert!(CampaignSpec::quick(ComponentKind::L2c, 1)
            .validate()
            .is_ok());
        let bad = |f: fn(&mut CampaignSpec)| {
            let mut s = CampaignSpec::quick(ComponentKind::L2c, 1);
            f(&mut s);
            s.validate().unwrap_err()
        };
        assert!(bad(|s| s.check_interval = 0).contains("check_interval"));
        assert!(bad(|s| s.cosim_cap = 0).contains("cosim_cap"));
        assert!(bad(|s| s.snapshot_interval = 0).contains("snapshot_interval"));
        assert!(bad(|s| s.lane_cluster = 0).contains("lane_cluster"));
        assert!(bad(|s| s.lane_width = 0).contains("lane_width"));
        assert!(bad(|s| s.lane_width = 65).contains("lane_width"));
    }

    #[test]
    fn clustered_sampling_shares_trajectories_but_not_bits() {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec {
            lane_cluster: 4,
            ..CampaignSpec::quick(ComponentKind::L2c, 16)
        };
        let (_, golden) = golden_reference(profile, &spec);
        let clustered = draw_samples(profile, &spec, &golden);
        let independent = draw_samples(
            profile,
            &CampaignSpec {
                lane_cluster: 1,
                ..spec
            },
            &golden,
        );
        for (k, s) in clustered.iter().enumerate() {
            let leader = &clustered[k - k % 4];
            // Cluster members share the leader's trajectory...
            assert_eq!(s.instance, leader.instance);
            assert_eq!(s.inject_cycle, leader.inject_cycle);
            assert_eq!(s.warmup, leader.warmup);
            // ...but keep the very bit they would draw unclustered.
            assert_eq!(s.bit, independent[k].bit);
        }
        // Leaders are untouched by clustering.
        for k in (0..16).step_by(4) {
            assert_eq!(clustered[k], independent[k]);
        }
    }

    #[test]
    #[should_panic(expected = "check_interval must be >= 1")]
    fn zero_check_interval_fails_loudly_instead_of_misclassifying() {
        let spec = CampaignSpec {
            check_interval: 0,
            ..CampaignSpec::quick(ComponentKind::L2c, 1)
        };
        let _ = run_campaign_with(by_name("radi").unwrap(), &spec, None);
    }

    #[test]
    #[should_panic(expected = "cosim_cap must be >= 1")]
    fn zero_cosim_cap_fails_loudly() {
        let spec = CampaignSpec {
            cosim_cap: 0,
            ..CampaignSpec::quick(ComponentKind::Mcu, 1)
        };
        let _ = run_campaign_with(by_name("fft").unwrap(), &spec, None);
    }

    #[test]
    fn contiguous_shards_are_balanced_and_order_preserving() {
        let order: Vec<usize> = (0..11).collect();
        let shards = contiguous_shards(&order, 4);
        assert_eq!(
            shards.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 3, 3, 2]
        );
        let flat: Vec<usize> = shards.concat();
        assert_eq!(flat, order);
    }

    #[test]
    fn positioned_cursor_holds_no_private_page() {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec::quick(ComponentKind::L2c, 4);
        // One rung: the cursor has to run forward to every entry.
        let mut base = CellBase::capture(profile, &spec, 1);
        let round = base.draw(profile, &spec, None);
        let mut runner = ShardRunner::new(&base.ladder, &round.samples, &base.golden, None, 1);
        for i in round.order {
            runner.run_span(&[i]);
            let cursor = runner
                .cursor
                .as_ref()
                .expect("run_span positions the cursor");
            assert!(cursor.cycle() > 0, "the cursor ran forward");
            assert_eq!(cursor.dram().private_pages(), 0);
            use crate::cosim::CosimDriver;
            let kept = crate::cosim::L2cPort::kept(&mut runner.kept);
            let spare = kept.driver.as_ref().expect("run_span keeps a driver");
            assert_eq!(
                spare.sys().dram().retained_pages(),
                0,
                "the parked spare holds a page"
            );
        }
    }

    /// Walks a fresh workers-1 cursor of `n` `flui` MCU samples over
    /// all their entries as `run_span` does, but with a stand-in for
    /// each group: a system refilled from the cursor, alive while it
    /// runs on a little, then parked. Returns the cursor, and the pages
    /// a straight `run_until` from the same rung to the last entry
    /// copies.
    fn walk_cursor(n: u64) -> (System, u64) {
        let profile = by_name("flui").unwrap();
        let spec = CampaignSpec {
            length_scale: 20,
            ..CampaignSpec::quick(ComponentKind::Mcu, n)
        };
        let mut base = CellBase::capture(profile, &spec, 1);
        let round = base.draw(profile, &spec, None);
        let mut runner = ShardRunner::new(&base.ladder, &round.samples, &base.golden, None, 1);
        let entries: Vec<u64> = (round.order.iter())
            .map(|&i| entry_cycle(&round.samples[i]))
            .collect();
        let mut spare: Option<System> = None;
        for &entry in &entries {
            runner.seek(entry);
            let cursor = runner.cursor.as_ref().expect("seek positions the cursor");
            let mut group = crate::cosim::refilled(spare.take(), cursor);
            group.run_until(entry + 200);
            // Parked as `Kept::park` parks a group's systems.
            group.release_pages();
            assert_eq!(
                group.dram().retained_pages(),
                0,
                "the parked spare holds a page"
            );
            spare = Some(group);
        }
        assert_eq!(runner.restores(), 1);
        let last = *entries.last().expect("the cell draws samples");
        let mut straight = base.ladder.rung_below(last).clone();
        straight.run_until(last);
        let cursor = runner
            .cursor
            .take()
            .expect("the walk positioned the cursor");
        (cursor, straight.dram().copied_pages())
    }

    #[test]
    fn the_cursor_takes_back_the_pages_it_shared() {
        // Every identity suite passes whether or not a writer takes back
        // the pages it froze; only this notices if it stops. Without the
        // take-back the cursor copies every page it rewrites again after
        // each entry, and each entry's arena stays pinned by the pages
        // still read from it.
        let (few, straight_few) = walk_cursor(8);
        let (many, straight_many) = walk_cursor(256);
        for (cursor, straight) in [(&few, straight_few), (&many, straight_many)] {
            assert!(
                cursor.dram().copied_pages() <= straight,
                "the walk copied {} pages, a straight run {straight}",
                cursor.dram().copied_pages()
            );
        }
        let (r8, r256) = (few.dram().retained_pages(), many.dram().retained_pages());
        assert!(
            r256 * 10 <= r8 * 11,
            "the cursor retains {r8} pages after 8 entries, {r256} after 256"
        );
    }

    #[test]
    fn shards_recycle_the_injection_system() {
        // Every identity suite passes whether or not a run refills the
        // driver its shard kept; only this notices if recycling stops.
        // One row per component, on the cells `tests/lanes_accounting.rs`
        // batches with forks.
        use crate::cosim::{CosimDriver, L2cPort};
        use crate::inject::{run_injection, FORK_REFILLS, LANE_REFILLS, REFILLS};
        use crate::lanes::LaneBatchStats;
        use nestsim_rtl::FlopClass;
        use std::cell::Cell;
        // `[driver refills, fork refills, lane sides refilled]` since `at`.
        let counts = || [&REFILLS, &FORK_REFILLS, &LANE_REFILLS].map(|c| c.with(Cell::get));
        let since = |at: [u64; 3]| {
            let now = counts();
            [0, 1, 2].map(|k| now[k] - at[k])
        };
        let table = [
            (ComponentKind::L2c, "flui"),
            (ComponentKind::Mcu, "flui"),
            (ComponentKind::Ccx, "lu-c"),
            (ComponentKind::Pcie, "p-lr"),
        ];
        for (component, bench) in table {
            let profile = by_name(bench).unwrap();
            // A scalar shard of n injections refills its driver n − 1
            // times: each but the first restores into the driver the one
            // before ended with.
            let spec = CampaignSpec {
                seed: 7,
                ..CampaignSpec::quick(component, 6)
            };
            let mut base = CellBase::capture(profile, &spec, 1);
            let round = base.draw(profile, &spec, None);
            let at = counts();
            ShardRunner::new(&base.ladder, &round.samples, &base.golden, None, 1)
                .run_span(&round.order);
            assert_eq!(since(at), [5, 0, 0], "{component}: scalar shard");

            // A shard of three 4-lane batches: each carrier after the
            // first refills the driver the batch before ended with, each
            // fork after the first the one the fork before ended with, and
            // every batch after the first takes its lanes' sides from the
            // pool but for the one a fork may keep as its target.
            let clustered = CampaignSpec {
                lane_cluster: 4,
                ..CampaignSpec::quick(component, 12)
            };
            let clustered = CampaignSpec {
                seed: 7,
                ..clustered
            };
            let mut cbase = CellBase::capture(profile, &clustered, 1);
            let cround = cbase.draw(profile, &clustered, None);
            let at = counts();
            let mut runner =
                ShardRunner::new(&cbase.ladder, &cround.samples, &cbase.golden, None, 64);
            runner.run_span(&cround.order);
            let stats = runner.lane_stats();
            let [refills, forks, lanes] = since(at);
            assert_eq!(stats.batches, 3, "{component}");
            assert!(stats.scalar_fallbacks > 0, "{component}: no lane forked");
            assert_eq!(refills, 2, "{component}: batch carriers");
            assert_eq!(forks, stats.scalar_fallbacks - 1, "{component}: forks");
            assert!(
                lanes >= 2 * 4 - 1,
                "{component}: {lanes} lane sides refilled"
            );

            // A lone run attaches its own driver and refills nothing.
            let at = counts();
            run_injection(base.ladder.rung_below(0), &base.golden, &round.samples[0]);
            assert_eq!(since(at), [0, 0, 0], "{component}: run_injection");
        }

        // A batch whose lanes all retire in it keeps its carrier, which ran
        // on past the golden-snapshot point the warmed driver stopped at,
        // to where the last lane retired.
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec::quick(ComponentKind::L2c, 6);
        let mut base = CellBase::capture(profile, &spec, 1);
        let round = base.draw(profile, &spec, None);
        let spec0 = round.samples[round.order[0]];
        let inactive = component_flops(ComponentKind::L2c).bits_where(|c| c == FlopClass::Inactive);
        let samples: Vec<InjectionSpec> = (inactive.iter().take(8))
            .map(|&bit| InjectionSpec { bit, ..spec0 })
            .collect();
        let group: Vec<usize> = (0..samples.len()).collect();
        let mut stats = LaneBatchStats::default();
        let mut kept = crate::cosim::Kept::<L2cPort>::default();
        let start = base.ladder.rung_below(0);
        let runs = run_batch(
            start,
            &base.golden,
            &samples,
            &group,
            None,
            &mut stats,
            &mut kept,
        );
        assert_eq!((stats.retired_early, stats.scalar_fallbacks), (8, 0));
        let last_retired = runs
            .iter()
            .map(|(_, r, _)| r.inject_cycle + r.cosim_cycles)
            .max();
        let carrier = kept.driver.as_ref().expect("the batch keeps its carrier");
        assert_eq!(Some(carrier.cycle()), last_retired);
        assert!(kept.fork.is_none());
        assert_eq!(kept.lanes.len(), 8, "every lane side is back in the pool");
    }

    #[test]
    fn lane_batched_engine_matches_replay_with_clustering() {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec {
            workers: 2,
            lane_cluster: 8,
            ..CampaignSpec::quick(ComponentKind::L2c, 16)
        };
        let batched = run_campaign_with(profile, &spec, None);
        let replay = run_campaign_replay(profile, &spec, None);
        assert_eq!(batched.records, replay.records);
        assert_eq!(batched.counts, replay.counts);
        assert_eq!(batched.golden, replay.golden);
    }

    #[test]
    fn ladder_engine_matches_replay_engine_on_a_quick_cell() {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec {
            workers: 2,
            ..CampaignSpec::quick(ComponentKind::L2c, 8)
        };
        let ladder = run_campaign_with(profile, &spec, None);
        let replay = run_campaign_replay(profile, &spec, None);
        assert_eq!(ladder.records, replay.records);
        assert_eq!(ladder.counts, replay.counts);
        assert_eq!(ladder.golden, replay.golden);
    }
}
