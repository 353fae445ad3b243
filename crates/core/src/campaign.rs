//! Seeded, shardable error-injection campaigns (the Sec. 3 study).
//!
//! A campaign is one (component × benchmark) cell of Fig. 3: injection
//! runs, each with a randomly selected injection cycle, target
//! flip-flop and instance — all derived from a single campaign seed, so
//! results are bit-reproducible and can be sharded across worker threads
//! or processes without coordination. A run's warm-up starts on the
//! [`grid_entry`] below its injection cycle, so every sample of one
//! instance whose warm-up starts at one grid point forks off one
//! uninjected carrier's warm-up ([`ShardWalk::run_span`]).
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
//! [`Round`] — and runs shards through [`ShardWalk::run_span`].
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
//! single worker captures nothing and runs from the base, and so does a
//! cluster worker, whose one walk takes its leases in position order —
//! and keeps the [`DEFAULT_MAX_RUNGS`] ladder for adaptive rounds,
//! which may enter anywhere. A walk handed an entry behind its cursor
//! restores from the rung below that entry. Determinism makes
//! restore-from-rung bit-identical to replay-from-zero, so records,
//! counts, and merged telemetry are byte-identical for any worker
//! count, snapshot interval and rung budget — locked by the identity
//! property of `tests/reference_identity.rs` against
//! [`run_campaign_replay`], the one-thread reference that shares none of
//! this (no ladder, carrier, lane batch, shard or parked storage).

use std::sync::{Mutex, OnceLock, PoisonError};

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
use crate::cosim::{
    on_component, park, parked_copy, refilled, unpark, walk_ended, walk_started, Component, Driver,
    Kept, Spares, StorageStats,
};
use crate::inject::{
    enter, finish, recorder_for, GoldenRef, InjectionRecord, InjectionSpec, PostFlipStats, Warmed,
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
    /// — instance and injection cycle — and differ only in the
    /// flipped bit, which is what lets the lane-batched engine advance
    /// them as one batch against a single golden universe.
    ///
    /// **Result-affecting**: clustering changes *which* samples are
    /// drawn (it is part of the sampling model, like `seed`), so it
    /// belongs in reproducibility cell keys. `1` reproduces the
    /// classic fully independent sampling bit-for-bit.
    pub lane_cluster: u64,
    /// How many same-trajectory samples may run as one lane batch
    /// (default [`nestsim_rtl::MAX_LANES`]; valid range 1–64): that many
    /// faulty universes advanced per carrier universe, on every
    /// component.
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
/// (Table 4's target partition, via the field classes), ascending. A
/// layout is fixed for the process, so each component's list is built
/// once.
pub fn injection_target_bits(component: ComponentKind) -> &'static [usize] {
    static BITS: [OnceLock<Vec<usize>>; ComponentKind::ALL.len()] =
        [const { OnceLock::new() }; ComponentKind::ALL.len()];
    BITS[component as usize]
        .get_or_init(|| component_flops(component).bits_where(|c| c.is_injection_target()))
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

/// The system configuration of a campaign cell.
fn cell_config(profile: &'static BenchProfile, spec: &CampaignSpec) -> SystemConfig {
    SystemConfig {
        seed: spec.seed,
        length_scale: spec.length_scale,
        ..SystemConfig::new(profile)
    }
}

/// The pristine system of a campaign cell, at cycle 0, in parked
/// storage when there is some.
fn base_system(profile: &'static BenchProfile, spec: &CampaignSpec) -> System {
    let cfg = cell_config(profile, spec);
    match unpark() {
        Some(mut sys) => {
            sys.renew(cfg);
            sys
        }
        None => System::new(cfg),
    }
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
    let mut run = parked_copy(&base);
    run.untrack_stores();
    let golden = golden_of(profile, run.run_to_end());
    park(run);
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

/// The cycle a campaign sample injected at `inject_cycle` enters
/// co-simulation at: the last multiple of [`MIN_WARMUP`] at least
/// [`MIN_WARMUP`] before it, or cycle 0. Its warm-up is then uniform in
/// [1,000, 2,000) cycles over uniform injection cycles (Sec. 4.1 sets
/// 1,000 as a minimum; Fig. 5 shows a longer warm-up only converges
/// further), and a warm-up from cycle 0 starts from reset, which is
/// exact. Every sample of one instance entering at one grid point forks
/// off one carrier's warm-up.
pub fn grid_entry(inject_cycle: u64) -> u64 {
    inject_cycle.saturating_sub(MIN_WARMUP) / MIN_WARMUP * MIN_WARMUP
}

/// Appends samples `range` of the seed stream `root`, bits picked from
/// `bits` and injection cycles from `window` — the one per-sample draw
/// every plan shares. A sample's warm-up runs from its [`grid_entry`].
///
/// With `spec.lane_cluster > 1`, consecutive groups of that size share
/// their *leader's* trajectory (instance and injection cycle) while
/// every member keeps its own independently drawn bit — each member's
/// bit still comes from its own per-sample RNG stream, so raising the
/// cluster size never changes which bits sample `k` flips, only where
/// it flips them.
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
    // injection cycle).
    let draw = |k: u64| {
        let mut rng = root.derive_index(k).rng();
        (
            rng.below(instances) as usize,
            *rng.pick(bits),
            rng.range(lo, hi),
        )
    };
    out.extend(range.map(|k| {
        let own = draw(k);
        let leader = k - k % cluster;
        // A follower replays its leader's draws and adopts everything
        // but the bit.
        let (instance, _, inject_cycle) = if leader == k { own } else { draw(leader) };
        InjectionSpec {
            component: spec.component,
            instance,
            bit: own.1,
            inject_cycle,
            warmup: inject_cycle - grid_entry(inject_cycle),
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
    draw_stream(spec, &root, bits, window, 0..spec.samples, &mut out);
    out
}

/// One worker's completed runs: (sample index, record, per-run
/// recorder), in shard order.
pub type IndexedRuns = Vec<(usize, InjectionRecord, Recorder)>;

/// What a [`ShardWalk`] reads of a campaign cell, borrowed: the
/// snapshot ladder, one round's samples, the golden reference and the
/// per-run telemetry configuration — and the system the cell's golden
/// pass finished on, for the first walk's cursor to refill.
#[derive(Clone, Copy)]
pub struct ShardCell<'a> {
    ladder: &'a SnapshotLadder,
    samples: &'a [InjectionSpec],
    golden: &'a GoldenRef,
    telemetry: Option<&'a TelemetryConfig>,
    spare: Option<&'a Mutex<Option<System>>>,
}

impl<'a> ShardCell<'a> {
    /// The cell `base` and `round` make, with per-run recorders for
    /// `telemetry`.
    pub fn new(
        base: &'a CellBase,
        round: &'a Round,
        telemetry: Option<&'a TelemetryConfig>,
    ) -> Self {
        ShardCell {
            ladder: &base.ladder,
            samples: &round.samples,
            golden: &base.golden,
            telemetry,
            spare: Some(&base.spare),
        }
    }

    /// The system the cell's golden pass finished on, once, with its
    /// storage counts started over: a walk's are its own.
    fn take_spare(&self) -> Option<System> {
        let spare = self
            .spare?
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        spare.map(|mut sys| {
            sys.dram_mut().restart_counts();
            sys
        })
    }
}

/// Executes shards of a campaign: a cursor over the snapshot ladder, run
/// forward to each window's entry point, and the drivers the last runs
/// left. A window — the samples of one instance whose warm-up starts at
/// one [`grid_entry`] — attaches one uninjected carrier there and warms it
/// up once, through every injection cycle of the window in turn; each
/// sample forks its driver off the carrier at its cycle. Every carrier
/// after the first refills the one the window before ended with, every
/// fork the driver the sample before ended with — system, port and
/// sides — and every lane batch after the first takes its lanes from
/// the sides the ones before left, so a walk allocates one set of
/// drivers, not one per sample.
///
/// The first cursor refills the system the cell's golden pass finished
/// on; the first window takes the drivers and lane sides a dropped walk
/// of its component parked, and every other system a walk starts on
/// parked storage. The walk parks them all when it is dropped — its
/// drivers and lane sides (`Spares::park`), its cursor to the systems
/// (`cosim::park`) — so the next walk in the process, of any cell,
/// refills them in turn.
///
/// This is the unit of work every execution layer shares —
/// [`LadderExecutor`] gives each worker thread one walk per shard, the
/// `nestsim-cluster` worker keeps one per job across all its leases of
/// it, and `mck` runs one through the whole entry order — so "re-run the
/// shard anywhere" is bit-identical by construction. The walk owns no
/// part of the cell: each call names the [`ShardCell`] it reads, which
/// must be the same for the walk's whole life.
pub struct ShardWalk {
    // The forward cursor: a rung clone advanced through the entry
    // cycles; re-restored (in place) whenever a later rung is closer
    // than the cursor, or the next entry lies behind it.
    cursor: Option<System>,
    // The carrier, drivers and lane sides the last window ended with,
    // which the next refills (`System::clone_from`, `Driver::reattach`,
    // `Driver::fork_sample`). Parked with their pages released, so that
    // the cursor takes back the pages it shared for that window when it
    // moves on.
    kept: Spares,
    // A window's samples in injection-cycle order, when its span gave
    // them in another; kept between windows.
    by_cycle: Vec<usize>,
    forward: u64,
    restores: u64,
    lane_width: usize,
    lanes: crate::lanes::LaneBatchStats,
    warm: WarmStats,
    post_flip: PostFlipStats,
    storage: StorageStats,
}

/// Engine-side counters of the DRAM storage a walk's systems allocate,
/// reported as `dram.*` beside `warm.*`. Each system counts from when
/// the walk took it — a parked system and the golden pass's count from
/// zero there — across refills, so a walk's are the sum over the
/// systems it holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DramStats {
    /// Arena chunks allocated (`DramContents::chunks_allocated`).
    pub chunks: u64,
    /// Pages copied out of shared arenas on a first write
    /// (`DramContents::copied_pages`).
    pub copied: u64,
}

impl DramStats {
    /// Adds what `sys` counted.
    fn add(&mut self, sys: &System) {
        self.chunks += sys.dram().chunks_allocated();
        self.copied += sys.dram().copied_pages();
    }

    /// Adds these counters to the engine-side recorder.
    pub(crate) fn publish(&self, engine: &mut Recorder) {
        engine.count(names::DRAM_CHUNKS_ALLOCATED, self.chunks);
        engine.count(names::DRAM_PAGES_COPIED, self.copied);
    }
}

/// Engine-side counters of the windows' warm-up carriers (reported as
/// `warm.*` telemetry beside `lanes.*`, outside the merged per-run
/// recorder: they describe how the engine ran, never what it computed).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WarmStats {
    /// Carriers attached: one per window a walk ran.
    pub carriers: u64,
    /// Warm-up cycles the carriers ran, each from its window's entry
    /// point to its last sample's injection cycle.
    pub cycles: u64,
}

impl WarmStats {
    /// Adds these counters to the engine-side recorder.
    pub(crate) fn publish(&self, engine: &mut Recorder) {
        engine.count(names::WARM_CARRIERS, self.carriers);
        engine.count(names::WARM_CYCLES, self.cycles);
    }
}

impl ShardWalk {
    /// A fresh walk (no cursor yet). `lane_width` caps how many
    /// same-trajectory samples [`run_span`](Self::run_span) runs as one
    /// lane batch (clamped to 1–64; it never affects results, only
    /// execution).
    pub fn new(lane_width: usize) -> Self {
        walk_started();
        ShardWalk {
            cursor: None,
            kept: Spares::default(),
            by_cycle: Vec::new(),
            forward: 0,
            restores: 0,
            lane_width: lane_width.clamp(1, nestsim_rtl::MAX_LANES),
            lanes: crate::lanes::LaneBatchStats::default(),
            warm: WarmStats::default(),
            post_flip: PostFlipStats::default(),
            storage: StorageStats::default(),
        }
    }

    /// Positions the cursor at `entry`: restores from the nearest rung
    /// at or below it (into the cursor, if there is one) when that rung
    /// beats the cursor or the cursor is past `entry`, then runs
    /// forward.
    fn seek(&mut self, cell: ShardCell<'_>, entry: u64) {
        let rung = cell.ladder.rung_below(entry);
        if self
            .cursor
            .as_ref()
            .is_none_or(|c| c.cycle() > entry || rung.cycle() > c.cycle())
        {
            match &mut self.cursor {
                Some(cursor) => cursor.clone_from(rung),
                None => self.cursor = Some(refilled(cell.take_spare().or_else(unpark), rung)),
            }
            self.restores += 1;
        }
        let my_base = self.cursor.as_mut().expect("cursor was just restored");
        self.forward += entry - my_base.cycle();
        my_base.run_until(entry);
        // The window's carrier clones the cursor: share the pages the
        // forward run dirtied so that clone copies none. With the
        // window's systems released, the next forward run takes them
        // back instead of copying them again.
        my_base.share_pages();
    }

    /// [`run_span`](Self::run_span) of the leading window of `span`
    /// alone — the samples that share one warm-up — for callers that
    /// hand results on between windows. The rest of the span is the
    /// caller's to continue with.
    pub fn run_group(&mut self, cell: ShardCell<'_>, span: &[usize]) -> IndexedRuns {
        self.run_span(cell, &span[..window_len(cell.samples, span)])
    }

    /// Runs a span of the cell's samples (positions of `cell`'s round),
    /// a window at a time: consecutive samples of one instance entering
    /// at one [`grid_entry`]. A window pays for one seek, one attach and
    /// one warm-up, by an uninjected carrier that steps through the
    /// window's injection cycles in ascending order. At each, the samples
    /// injected there fork off it: a lone one as a scalar run, two or
    /// more on one trajectory — the product of
    /// `CampaignSpec::lane_cluster` — as lane batches of up to the lane
    /// width (`crate::lanes`), whatever the component. The carrier is
    /// never injected, so a fork is exactly the sample's lone run warmed
    /// up from the same entry point: results come back in span order and
    /// are byte-identical however the samples are cut into spans and
    /// windows, and in whatever order the spans come.
    ///
    /// A span's samples may come in any order, as may the spans given
    /// to one walk: a window whose entry lies behind the cursor restores
    /// from the nearest rung at or below it. Otherwise the cursor only
    /// runs forward, so consecutive slices of [`entry_order`] cost what
    /// one span of them would.
    pub fn run_span(&mut self, cell: ShardCell<'_>, span: &[usize]) -> IndexedRuns {
        let mut out: IndexedRuns = Vec::with_capacity(span.len());
        let mut rest = span;
        while !rest.is_empty() {
            let (window, tail) = rest.split_at(window_len(cell.samples, rest));
            rest = tail;
            let start = out.len();
            let ((), taken) = StorageStats::during(|| self.run_window(cell, window, &mut out));
            self.storage.add(taken);
            // The carrier runs the window in injection-cycle order, and a
            // batch retires its lanes as their checks decide; the caller
            // contract is span order.
            out[start..].sort_unstable_by_key(|(i, _, _)| window.iter().position(|&s| s == *i));
        }
        out
    }

    /// One window's runs, appended to `out` in the order they end.
    fn run_window(&mut self, cell: ShardCell<'_>, window: &[usize], out: &mut IndexedRuns) {
        let samples = cell.samples;
        // In `entry_order` a window already comes in injection-cycle order.
        let key = |&i: &usize| (samples[i].inject_cycle, i);
        let mut by_cycle = std::mem::take(&mut self.by_cycle);
        let order = if window.is_sorted_by_key(key) {
            window
        } else {
            by_cycle.clear();
            by_cycle.extend_from_slice(window);
            by_cycle.sort_unstable_by_key(key);
            &by_cycle
        };
        let spec0 = &samples[order[0]];
        self.seek(cell, entry_cycle(spec0));
        let base = self.cursor.as_ref().expect("cursor was just positioned");
        let golden = cell.golden;
        on_component!(spec0.component, C => {
            let kept = C::kept(&mut self.kept);
            let mut carrier = enter::<C>(base, golden, spec0, kept.carrier.take());
            let mut rest = order;
            loop {
                // The samples injected at one cycle on one trajectory, up
                // to the lane width.
                let spec = &samples[rest[0]];
                let len = 1 + (rest[1..].iter())
                    .take(self.lane_width - 1)
                    .take_while(|&&i| same_trajectory(spec, &samples[i]))
                    .count();
                let (group, tail) = rest.split_at(len);
                rest = tail;
                carrier.warm_to(spec.inject_cycle);
                if rest.is_empty() {
                    // The window's last samples need no carrier after
                    // them: they run on it.
                    self.warm.carriers += 1;
                    self.warm.cycles += carrier.warmup_done();
                    let stats = (&mut self.lanes, &mut self.post_flip);
                    let driver = run_flipped(carrier, cell, group, stats, kept, out);
                    kept.carrier = Some(driver);
                    break;
                }
                let warmed = carrier.fork(kept.driver.take());
                let stats = (&mut self.lanes, &mut self.post_flip);
                let mut driver = run_flipped(warmed, cell, group, stats, kept, out);
                // Kept until the next fork refills it, the driver must not
                // pin the pages the carrier shared for this one.
                driver.sys_mut().release_pages();
                kept.driver = Some(driver);
            }
            kept.park();
        });
        self.by_cycle = by_cycle;
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

    /// Window-carrier counters accumulated so far.
    pub(crate) fn warm_stats(&self) -> WarmStats {
        self.warm
    }

    /// Post-flip co-simulation counters accumulated so far.
    pub(crate) fn post_flip_stats(&self) -> PostFlipStats {
        self.post_flip
    }

    /// DRAM storage counters accumulated so far, by the systems the
    /// walk holds.
    pub(crate) fn dram_stats(&self) -> DramStats {
        let mut stats = DramStats::default();
        self.cursor.iter().for_each(|sys| stats.add(sys));
        self.kept.for_each_system(|sys| stats.add(sys));
        stats
    }

    /// Systems the walk took from parked storage and built so far.
    pub(crate) fn storage_stats(&self) -> StorageStats {
        self.storage
    }
}

impl Drop for ShardWalk {
    fn drop(&mut self) {
        // The drivers go to the next walk of their component
        // (`Component::kept`). The cursor goes to the system pool: after
        // the cell's base, the next cell takes it first, for its golden
        // run, which its cursor refills (`cosim::unpark`).
        std::mem::take(&mut self.kept).park();
        self.cursor.take().into_iter().for_each(park);
        walk_ended();
    }
}

/// Runs `group`, samples injected at `warmed`'s cycle on one trajectory,
/// off `warmed`: a lone sample as a scalar run, several as one lane
/// batch, counted into the walk's lane and post-flip `stats`. Returns
/// the driver they end with.
fn run_flipped<C: Component>(
    warmed: Warmed<C>,
    cell: ShardCell<'_>,
    group: &[usize],
    (lanes, post): (&mut crate::lanes::LaneBatchStats, &mut PostFlipStats),
    kept: &mut Kept<C>,
    out: &mut IndexedRuns,
) -> Driver<C> {
    let (samples, golden, telemetry) = (cell.samples, cell.golden, cell.telemetry);
    match *group {
        [i] => {
            let mut rec = recorder_for(telemetry);
            let (record, driver) = finish(warmed, golden, &samples[i], &mut rec, post);
            out.push((i, record, rec));
            driver
        }
        _ => {
            let stats = (lanes, post);
            let (runs, driver) = run_batch(warmed, golden, samples, group, telemetry, stats, kept);
            out.extend(runs);
            driver
        }
    }
}

/// How many leading samples of `span` make one window: the run of
/// samples at its head that enter co-simulation at one cycle on one
/// instance of one component.
fn window_len(samples: &[InjectionSpec], span: &[usize]) -> usize {
    let Some(&first) = span.first() else {
        return 0;
    };
    let (a, entry) = (&samples[first], entry_cycle(&samples[first]));
    let same = |b: &InjectionSpec| {
        a.component == b.component && a.instance == b.instance && entry_cycle(b) == entry
    };
    1 + span[1..].iter().take_while(|&&i| same(&samples[i])).count()
}

/// A fresh [`ShardWalk`] bound to one cell, for a caller that runs one
/// shard and has the cell's parts at hand rather than a [`CellBase`].
pub struct ShardRunner<'a> {
    cell: ShardCell<'a>,
    walk: ShardWalk,
}

impl<'a> ShardRunner<'a> {
    /// A fresh walk over the cell `ladder`, `samples` and `golden` make;
    /// `lane_width` as in [`ShardWalk::new`].
    pub fn new(
        ladder: &'a SnapshotLadder,
        samples: &'a [InjectionSpec],
        golden: &'a GoldenRef,
        telemetry: Option<&'a TelemetryConfig>,
        lane_width: usize,
    ) -> Self {
        ShardRunner {
            cell: ShardCell {
                ladder,
                samples,
                golden,
                telemetry,
                spare: None,
            },
            walk: ShardWalk::new(lane_width),
        }
    }

    /// [`ShardWalk::run_span`] on the bound cell.
    pub fn run_span(&mut self, span: &[usize]) -> IndexedRuns {
        self.walk.run_span(self.cell, span)
    }
}

/// True when two samples share one injection trajectory — everything
/// but the flipped bit — and can therefore ride one lane batch off the
/// same fork of their window's carrier.
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
    let (ladder, golden, run) = golden_ladder(profile, spec, rung_budget(false, spec));
    park(run);
    (ladder, golden)
}

/// [`laddered_golden_reference`] at an explicit rung budget, on parked
/// storage, and the system the golden run finished on.
fn golden_ladder(
    profile: &'static BenchProfile,
    spec: &CampaignSpec,
    max_rungs: usize,
) -> (SnapshotLadder, GoldenRef, System) {
    let base = base_system(profile, spec);
    let (ladder, result, run) =
        SnapshotLadder::capture_owned(base, spec.snapshot_interval, max_rungs, unpark);
    (ladder, golden_of(profile, result), run)
}

/// How many ladder rungs, base included, a cell can use: the rounds of
/// a [`Plan::Adaptive`] plan when `adaptive`, else the one round of
/// [`Plan::Fixed`] — the one rule of every executor, the cluster worker
/// and `mck`. A fixed-count cell is one round cut into [`worker_count`]
/// contiguous shards, and each shard's walk runs its entries in
/// ascending order: it restores once, from the rung below its first
/// entry, and after that a rung can only save the gap between two
/// consecutive entries — less than the clone and dirtied pages it cost.
/// So one rung per shard; a single worker (or no sample) captures
/// nothing. A cluster worker is one walk (a job's `workers` reads 1) and
/// takes its leases in position order, so it captures nothing either.
/// Adaptive rounds enter anywhere, so they keep the
/// [`DEFAULT_MAX_RUNGS`] ladder.
pub fn rung_budget(adaptive: bool, spec: &CampaignSpec) -> usize {
    if adaptive {
        DEFAULT_MAX_RUNGS
    } else {
        worker_count(spec, spec.samples as usize).max(1)
    }
}

/// The seed-derived base of one campaign cell, captured once and
/// shared by all of its rounds: the error-free reference and the
/// snapshot ladder recorded in the same forward pass. Its rungs are
/// parked when it is dropped, as a walk's systems are.
pub struct CellBase {
    /// Clone-snapshots of the error-free run.
    pub ladder: SnapshotLadder,
    /// The error-free reference.
    pub golden: GoldenRef,
    /// Systems the golden pass took from parked storage and built.
    storage: StorageStats,
    /// The system the golden run finished on, until the first walk's
    /// cursor takes it (`ShardCell::take_spare`).
    spare: Mutex<Option<System>>,
}

impl Drop for CellBase {
    fn drop(&mut self) {
        let spare = self.spare.get_mut().unwrap_or_else(PoisonError::into_inner);
        spare.take().into_iter().for_each(park);
        // The base last: the next cell takes it first.
        self.ladder.take_rungs().into_iter().rev().for_each(park);
    }
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
    /// from it, [`rung_budget`].
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
        let ((ladder, golden, run), storage) =
            StorageStats::during(|| golden_ladder(profile, spec, max_rungs));
        CellBase {
            ladder,
            golden,
            storage,
            spare: Mutex::new(Some(run)),
        }
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
/// its entry order, one worker thread and one [`ShardWalk`] per
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
            base: CellBase::capture(
                profile,
                spec,
                rung_budget(matches!(plan, Plan::Adaptive(_)), spec),
            ),
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
        let cell = ShardCell::new(&self.base, &round, self.telemetry);
        let width = self.spec.lane_width as usize;
        let run_shard = |shard: &[usize]| {
            let mut walk = ShardWalk::new(width);
            let out = walk.run_span(cell, shard);
            (out, walk)
        };
        // One shard runs on this thread: a thread of its own would only
        // cost its creation.
        let per_worker: Vec<(IndexedRuns, ShardWalk)> = match &shards[..] {
            [shard] => vec![run_shard(shard)],
            _ => std::thread::scope(|scope| {
                let handles: Vec<_> = (shards.iter())
                    .map(|shard| scope.spawn(move || run_shard(shard)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("campaign worker panicked"))
                    .collect()
            }),
        };
        let samples = &round.samples;
        let mut indexed = Vec::with_capacity(samples.len());
        for (out, walk) in per_worker {
            self.engine
                .count(names::FORWARD_CYCLES, walk.forward_cycles());
            self.engine.count(names::LADDER_RESTORES, walk.restores());
            walk.lane_stats().publish(&mut self.engine);
            walk.warm_stats().publish(&mut self.engine);
            walk.dram_stats().publish(&mut self.engine);
            walk.storage_stats().publish(&mut self.engine);
            walk.post_flip_stats().publish(&mut self.engine);
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
        self.base.storage.publish(&mut self.engine);
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

/// The one campaign-level reference every executor is held to: one
/// thread, and a fresh [`System::new`] for the golden run and for each
/// sample, which runs from cycle 0 to its entry point, attaches its
/// driver there and finishes on the per-run flow every engine shares
/// (`inject::finish`). No ladder, cursor, window carrier, lane batch,
/// shard or parked storage: records, counts and merged telemetry equal
/// [`run_campaign_with`]'s, whatever the execution-only fields of the
/// spec. Its engine recorder counts only the forward cycles, the sum of
/// the samples' entry cycles.
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
    let cfg = cell_config(profile, spec);
    let golden = golden_of(profile, System::new(cfg.clone()).run_to_end());
    let samples = draw_samples(profile, spec, &golden);
    let mut engine = recorder_for(telemetry);
    let mut runs = Vec::with_capacity(samples.len());
    for (i, s) in samples.iter().enumerate() {
        let mut sys = System::new(cfg.clone());
        sys.set_watchdog(golden.watchdog());
        sys.run_until(entry_cycle(s));
        engine.count(names::FORWARD_CYCLES, sys.cycle());
        let mut rec = recorder_for(telemetry);
        let record = on_component!(s.component, C => {
            let mut warmed = Warmed::<C>::attach(sys, s);
            warmed.warm_to(s.inject_cycle);
            finish(warmed, &golden, s, &mut rec, &mut PostFlipStats::default()).0
        });
        runs.push((i, record, rec));
    }
    assemble_result(profile, spec, telemetry, golden, runs, Vec::new(), engine)
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
/// layer ([`LadderExecutor`] and the repro grid).
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

/// Sample indices sorted by ascending [`entry_cycle`], then instance,
/// then injection cycle — the canonical execution order every engine
/// shards, in which each window ([`ShardWalk::run_span`]) is one run of
/// samples in the order its carrier reaches them. The sort is stable, so
/// full ties break by sample index and the order is a pure function of
/// the drawn samples (identical in every process).
pub fn entry_order(samples: &[InjectionSpec]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by_key(|&i| {
        let s = &samples[i];
        (entry_cycle(s), s.instance, s.inject_cycle)
    });
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
        // Entry cycle, then instance, then injection cycle: each window
        // is one run, in the order its carrier reaches its samples.
        let key = |i: usize| {
            let s = &samples[i];
            (entry_cycle(s), s.instance, s.inject_cycle)
        };
        for w in order.windows(2) {
            let (a, b) = (key(w[0]), key(w[1]));
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
    fn a_walk_seeks_behind_its_cursor() {
        // A re-dispatched lease can hand a cluster worker's walk entries
        // behind its cursor: the walk restores from the rung below them,
        // and its runs are the bytes fresh walks make.
        let profile = by_name("radi").unwrap();
        let cfg = TelemetryConfig::default();
        let spec = CampaignSpec {
            snapshot_interval: 512,
            ..CampaignSpec::quick(ComponentKind::L2c, 8)
        };
        for budget in [1, DEFAULT_MAX_RUNGS] {
            let mut base = CellBase::capture(profile, &spec, budget);
            let round = base.draw(profile, &spec, None);
            let cell = ShardCell::new(&base, &round, Some(&cfg));
            let (early, late) = round.order.split_at(4);
            let entry = |pos: &[usize]| entry_cycle(&round.samples[pos[0]]);
            assert!(entry(early) < entry(&late[late.len() - 1..]), "{budget}");
            let fresh = |span: &[usize]| ShardWalk::new(1).run_span(cell, span);
            let mut walk = ShardWalk::new(1);
            let (later, earlier) = (walk.run_span(cell, late), walk.run_span(cell, early));
            assert_eq!(later, fresh(late), "budget {budget}: the later span");
            assert_eq!(earlier, fresh(early), "budget {budget}: the earlier span");
            // The base alone: one restore per span.
            if budget == 1 {
                assert_eq!(walk.restores(), 2);
            }
        }
    }

    #[test]
    fn positioned_cursor_holds_no_private_page() {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec::quick(ComponentKind::L2c, 4);
        // One rung: the cursor has to run forward to every entry.
        let mut base = CellBase::capture(profile, &spec, 1);
        let round = base.draw(profile, &spec, None);
        let mut walk = ShardWalk::new(1);
        for &i in &round.order {
            walk.run_span(ShardCell::new(&base, &round, None), &[i]);
            let cursor = walk.cursor.as_ref().expect("run_span positions the cursor");
            assert!(cursor.cycle() > 0, "the cursor ran forward");
            assert_eq!(cursor.dram().private_pages(), 0);
            use crate::cosim::CosimDriver;
            let kept = crate::cosim::L2cPort::kept(&mut walk.kept);
            assert!(kept.carrier.is_some(), "run_span keeps its carrier");
            for spare in kept.carrier.iter().chain(&kept.driver) {
                assert_eq!(
                    spare.sys().dram().retained_pages(),
                    0,
                    "the parked spare holds a page"
                );
            }
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
        let mut walk = ShardWalk::new(1);
        let entries: Vec<u64> = (round.order.iter())
            .map(|&i| entry_cycle(&round.samples[i]))
            .collect();
        let mut spare: Option<System> = None;
        for &entry in &entries {
            walk.seek(ShardCell::new(&base, &round, None), entry);
            let cursor = walk.cursor.as_ref().expect("seek positions the cursor");
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
        assert_eq!(walk.restores(), 1);
        let last = *entries.last().expect("the cell draws samples");
        let mut straight = base.ladder.rung_below(last).clone();
        straight.run_until(last);
        let cursor = walk.cursor.take().expect("the walk positioned the cursor");
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
        use crate::inject::{run_injection, CARRIER_REFILLS, FORK_REFILLS, LANE_REFILLS, REFILLS};
        use crate::lanes::LaneBatchStats;
        use nestsim_rtl::FlopClass;
        use std::cell::Cell;
        // A pool of this thread's own: each walk below takes what the one
        // before it parked, and nothing another test parked.
        crate::cosim::tests::own_pool();
        // `[sample driver refills, carrier refills, fork refills, lane
        // sides refilled]` since `at`.
        let counters = [&REFILLS, &CARRIER_REFILLS, &FORK_REFILLS, &LANE_REFILLS];
        let counts = || counters.map(|c| c.with(Cell::get));
        let since = |at: [u64; 4]| {
            let now = counts();
            [0, 1, 2, 3].map(|k| now[k] - at[k])
        };
        let table = [
            (ComponentKind::L2c, "flui"),
            (ComponentKind::Mcu, "flui"),
            (ComponentKind::Ccx, "lu-c"),
            (ComponentKind::Pcie, "p-lr"),
        ];
        // Forks in the scalar shards below that refilled a driver.
        let mut fork_refills = 0;
        for (component, bench) in table {
            let profile = by_name(bench).unwrap();
            // A scalar shard of n injections: each window's carrier but
            // the first refills the one the window before ended with, the
            // last sample of each window runs on its carrier, and each
            // other sample forks off it into the driver the fork before
            // ended with: n − 1 refills in all.
            let spec = CampaignSpec {
                seed: 7,
                ..CampaignSpec::quick(component, 6)
            };
            let mut base = CellBase::capture(profile, &spec, 1);
            let round = base.draw(profile, &spec, None);
            let at = counts();
            let mut walk = ShardWalk::new(1);
            walk.run_span(ShardCell::new(&base, &round, None), &round.order);
            let carriers = walk.warm_stats().carriers;
            let forks = 6 - carriers;
            let want = [forks.saturating_sub(1), carriers - 1, 0, 0];
            assert_eq!(since(at), want, "{component}: scalar shard");
            fork_refills += want[0];
            // The pool holds another component's drivers, whose systems
            // it gives back. The cursor refills the system the golden
            // pass finished on; every other system the walk holds it took
            // from parked storage or built, once, with its driver: the
            // first carrier and, when a sample forked, the first sample
            // driver.
            let storage = walk.storage_stats();
            let drivers = 1 + u64::from(forks > 0);
            assert_eq!(storage.drivers_built, drivers, "{component}: {storage:?}");
            assert_eq!(storage.drivers_taken, 0, "{component}: {storage:?}");
            assert_eq!(
                storage.systems_taken + storage.systems_built,
                drivers,
                "{component}: {storage:?}"
            );
            drop(walk);

            // A shard of three 4-lane batches on the drivers the scalar
            // shard parked: a batch runs on its window's carrier or on a
            // driver forked off it as above, each lane fork after the
            // first refills the one the lane fork before ended with, and
            // every batch after the first takes its lanes' sides from the
            // pool but for the one a fork may keep as its target.
            let clustered = CampaignSpec {
                lane_cluster: 4,
                ..CampaignSpec::quick(component, 12)
            };
            let clustered = CampaignSpec {
                seed: 9,
                ..clustered
            };
            let mut cbase = CellBase::capture(profile, &clustered, 1);
            let cround = cbase.draw(profile, &clustered, None);
            let at = counts();
            let mut walk = ShardWalk::new(64);
            walk.run_span(ShardCell::new(&cbase, &cround, None), &cround.order);
            let stats = walk.lane_stats();
            let carriers = walk.warm_stats().carriers;
            let [refills, carrier_refills, forks, lanes] = since(at);
            assert_eq!(stats.batches, 3, "{component}");
            assert!(stats.scalar_fallbacks > 0, "{component}: no lane forked");
            let batch_forks = 3 - carriers;
            let built_sample_driver = batch_forks > 0 && drivers == 1;
            assert_eq!(
                refills,
                batch_forks - u64::from(built_sample_driver),
                "{component}: batch forks"
            );
            assert_eq!(carrier_refills, carriers, "{component}: carriers");
            assert_eq!(forks, stats.scalar_fallbacks - 1, "{component}: forks");
            assert!(
                lanes >= 2 * 4 - 1,
                "{component}: {lanes} lane sides refilled"
            );
            // It takes the scalar shard's drivers and builds the first
            // lane fork's and, if it forked a batch driver off a carrier
            // and the scalar shard had none, that.
            let storage = walk.storage_stats();
            assert_eq!(storage.drivers_taken, drivers, "{component}: {storage:?}");
            assert_eq!(
                storage.drivers_built,
                1 + u64::from(built_sample_driver),
                "{component}: {storage:?}"
            );
            assert_eq!(
                storage.systems_taken + storage.systems_built,
                storage.drivers_built,
                "{component}: {storage:?}"
            );

            // A lone run attaches its own driver and refills nothing.
            let at = counts();
            run_injection(base.ladder.rung_below(0), &base.golden, &round.samples[0]);
            assert_eq!(since(at), [0; 4], "{component}: run_injection");
        }
        assert!(fork_refills > 0, "no fork refilled the driver a fork left");

        // A batch whose lanes all retire in it hands back its carrier, which ran
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
        let (runs, carrier) = run_batch(
            crate::inject::warm::<L2cPort>(start, &base.golden, &spec0, None),
            &base.golden,
            &samples,
            &group,
            None,
            (&mut stats, &mut crate::inject::PostFlipStats::default()),
            &mut kept,
        );
        assert_eq!((stats.retired_early, stats.scalar_fallbacks), (8, 0));
        let last_retired = runs
            .iter()
            .map(|(_, r, _)| r.inject_cycle + r.cosim_cycles)
            .max();
        assert_eq!(Some(carrier.cycle()), last_retired);
        assert!(kept.fork.is_none());
        assert_eq!(kept.lanes.len(), 8, "every lane side is back in the pool");
    }

    #[test]
    fn a_second_cell_builds_no_driver() {
        // Every identity suite passes whether or not a dropped walk parks
        // its drivers; only this notices if the next cell builds its own
        // again. One row per component, each two lane-batched cells back
        // to back on this thread, with a pool of its own: the first builds
        // a carrier, a sample driver and a lane fork, the second takes
        // them, with the lane sides, and refills them. A lane fork keeps
        // one lane's side as its target, so the sides the first cell
        // leaves can be one short of a batch.
        use crate::cosim::tests::own_pool;
        use crate::inject::{CARRIER_REFILLS, FORK_REFILLS, LANE_REFILLS, REFILLS};
        use std::cell::Cell;
        own_pool();
        let counters = [&REFILLS, &CARRIER_REFILLS, &FORK_REFILLS, &LANE_REFILLS];
        let counts = || counters.map(|c| c.with(Cell::get));
        let cfg = TelemetryConfig::default();
        let table = [
            (ComponentKind::L2c, "flui"),
            (ComponentKind::Mcu, "flui"),
            (ComponentKind::Ccx, "lu-c"),
            (ComponentKind::Pcie, "p-lr"),
        ];
        for (component, bench) in table {
            let profile = by_name(bench).unwrap();
            let cell = |seed| CampaignSpec {
                seed,
                workers: 1,
                lane_cluster: 4,
                ..CampaignSpec::quick(component, 48)
            };
            let first = run_campaign_with(profile, &cell(7), Some(&cfg));
            let built = first.telemetry.engine.counter(names::STORAGE_DRIVERS_BUILT);
            assert_eq!(built, 3, "{component}: the first cell's drivers");
            let spec = cell(5);
            let at = counts();
            let second = run_campaign_with(profile, &spec, Some(&cfg));
            let [refills, carriers, forks, lanes] = {
                let now = counts();
                [0, 1, 2, 3].map(|k| now[k] - at[k])
            };
            let engine = &second.telemetry.engine;
            let c = |name| engine.counter(name);
            assert_eq!(c(names::STORAGE_DRIVERS_BUILT), 0, "{component}");
            assert!(c(names::STORAGE_DRIVERS_TAKEN) > 0, "{component}");
            assert_eq!(carriers, c(names::WARM_CARRIERS), "{component}: carriers");
            assert_eq!(
                forks,
                c(names::LANES_SCALAR_FALLBACKS),
                "{component}: lane forks"
            );
            assert!(
                forks > 0 && refills > 0,
                "{component}: {refills} sample refills"
            );
            assert_eq!(c(names::LANES_BATCHES), 12, "{component}");
            assert!(lanes >= 48 - 1, "{component}: {lanes} lane sides refilled");
            let want = run_campaign_replay(profile, &spec, Some(&cfg));
            assert_eq!(second.golden, want.golden, "{component}");
            assert_eq!(second.records, want.records, "{component}");
            assert_eq!(second.counts, want.counts, "{component}");
            assert!(
                second.telemetry.merged.to_jsonl() == want.telemetry.merged.to_jsonl(),
                "{component}: merged telemetry"
            );
        }
    }

    /// The four components' cells the carrier tests share.
    const CELLS: [(ComponentKind, &str); 4] = [
        (ComponentKind::L2c, "radi"),
        (ComponentKind::Mcu, "fft"),
        (ComponentKind::Ccx, "lu-c"),
        (ComponentKind::Pcie, "p-lr"),
    ];

    #[test]
    fn every_sample_is_flipped_at_its_drawn_cycle() {
        // A sample drawn before a whole minimum warm-up fits enters at
        // cycle 0 and still flips at its drawn cycle (PCIe's window
        // starts at cycle 16).
        for (component, bench) in CELLS {
            let profile = by_name(bench).unwrap();
            let spec = CampaignSpec::quick(component, 32);
            let mut base = CellBase::capture(profile, &spec, 1);
            let round = base.draw(profile, &spec, None);
            let cell = ShardCell::new(&base, &round, None);
            let runs = ShardWalk::new(64).run_span(cell, &round.order);
            // Backwards, every window comes against injection-cycle
            // order: the same runs, in span order.
            let reversed: Vec<usize> = round.order.iter().rev().copied().collect();
            let mut back = ShardWalk::new(64).run_span(cell, &reversed);
            back.reverse();
            assert_eq!(back, runs, "{component}: windows given backwards");
            for (i, record, _) in runs {
                let want = round.samples[i];
                assert_eq!(
                    record.inject_cycle, want.inject_cycle,
                    "{component}: {want:?}"
                );
                let entry = entry_cycle(&want);
                assert!(
                    entry == 0 || want.inject_cycle - entry >= MIN_WARMUP,
                    "{want:?}"
                );
                assert_eq!(entry, grid_entry(want.inject_cycle), "{want:?}");
            }
        }
    }

    #[test]
    fn warm_counters_count_windows_and_their_spans() {
        // `warm.carriers` is the number of distinct (instance, grid
        // entry) windows of a one-worker cell, and `warm.cycles` the sum
        // of each window's span, its entry to its last injection cycle.
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec {
            workers: 1,
            ..CampaignSpec::quick(ComponentKind::L2c, 96)
        };
        let result = run_campaign_with(profile, &spec, Some(&TelemetryConfig::default()));
        let (_, golden) = golden_reference(profile, &spec);
        let mut spans = std::collections::BTreeMap::new();
        for s in draw_samples(profile, &spec, &golden) {
            let entry = grid_entry(s.inject_cycle);
            let span = spans.entry((s.instance, entry)).or_insert(0);
            *span = (s.inject_cycle - entry).max(*span);
        }
        let engine = &result.telemetry.engine;
        assert!(spans.len() < 96, "no window holds two samples");
        assert_eq!(engine.counter(names::WARM_CARRIERS), spans.len() as u64);
        assert_eq!(
            engine.counter(names::WARM_CYCLES),
            spans.values().sum::<u64>()
        );
        // Engine counters, never in the merged per-run bytes.
        assert_eq!(result.telemetry.merged.counter(names::WARM_CARRIERS), 0);
        assert!(engine.counter(names::DRAM_CHUNKS_ALLOCATED) > 0);
        assert!(engine.counter(names::DRAM_PAGES_COPIED) > 0);
        for name in [names::DRAM_CHUNKS_ALLOCATED, names::DRAM_PAGES_COPIED] {
            assert_eq!(result.telemetry.merged.counter(name), 0, "{name}");
        }
    }

    #[test]
    fn the_second_window_on_an_instance_allocates_no_dram_chunk() {
        // Storage outlives the contents written into it. A walk given one
        // window twice, as a re-dispatched lease can, refills the
        // carrier and the fork the first pass left, and the pages they
        // copy again land in the chunks those already hold. Every
        // identity suite passes whether or not a refill keeps them.
        for (component, bench) in CELLS {
            let profile = by_name(bench).unwrap();
            let spec = CampaignSpec::quick(component, 32);
            let mut base = CellBase::capture(profile, &spec, 1);
            let round = base.draw(profile, &spec, None);
            let cell = ShardCell::new(&base, &round, None);
            // The cell's largest window past cycle 0, which the cursor
            // runs forward to.
            let mut window: &[usize] = &[];
            let mut rest = &round.order[..];
            while !rest.is_empty() {
                let (next, tail) = rest.split_at(window_len(&round.samples, rest));
                if next.len() > window.len() && entry_cycle(&round.samples[next[0]]) > 0 {
                    window = next;
                }
                rest = tail;
            }
            assert!(window.len() >= 2, "{component}: no window forks a sample");
            let mut walk = ShardWalk::new(1);
            let runs = walk.run_span(cell, window);
            let first = walk.dram_stats();
            assert!(first.chunks > 0, "{component}: {first:?}");
            assert_eq!(walk.run_span(cell, window), runs, "{component}");
            let both = walk.dram_stats();
            assert_eq!(
                both.chunks, first.chunks,
                "{component}: the second window allocated chunks ({both:?})"
            );
            assert!(both.copied > first.copied, "{component}: {both:?}");
            assert_eq!(walk.warm_stats().carriers, 2, "{component}");
        }
    }
}
