//! Co-simulation: one driver, [`Driver`], for every uncore component.
//!
//! A driver owns the [`System`] (accelerated simulator), the component's
//! engine-side port, the target side and, from the golden snapshot on,
//! a golden side of the same type. It advances all of them one cycle at
//! a time, ferrying packets across the simulator boundary (Fig. 1b ② of
//! the paper). The golden side receives exactly the same inputs as the
//! target but is never injected (Fig. 1b ⑤); divergence of its outputs
//! from the target's is the paper's erroneous-return-packet monitor
//! (Fig. 1b ⑥).
//!
//! The Fig. 2 flow is the same for every component, so it is written
//! once, on [`Driver`]: golden snapshot (warm or cold), flip, compare,
//! the divergence monitor and the detach tail. A component
//! supplies only what differs (Table 1): its [`Side`], the model a
//! target, golden or lane ticks with its private memory view, and its
//! [`Component`], the port its traffic moves through, with how a cycle
//! moves it, when nothing is stranded and what detach transfers back.
//! [`L2cDriver`], [`McuDriver`], [`CcxDriver`] and [`PcieDriver`] name
//! the four.
//!
//! Authority: the *target* is the real component — its outputs drive
//! the system, its memory writes land in system memory (through a
//! per-side overlay that is applied at detach, so golden-side reads
//! stay isolated during co-simulation).

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use nestsim_arch::{DramContents, DramOverlay, L2BankArch, OverlayBackend};
use nestsim_hlsim::system::{L2_HIT_LATENCY, L2_MISS_LATENCY};
use nestsim_hlsim::{InterceptMode, OutMsg, System};
use nestsim_models::ccx::{present, CcxInputs, CcxOutputs, CcxWarm};
use nestsim_models::l2c::{L2cInputs, L2cOutputs, L2cWarm};
use nestsim_models::mcu::{McuInputs, McuOutputs, McuWarm};
use nestsim_models::pcie::PcieOutputs;
use nestsim_models::{Ccx, L2cBank, Mcu, Pcie, UncoreRtl};
use nestsim_proto::addr::{
    BankId, LineAddr, McuId, NUM_CORES, NUM_L2_BANKS, NUM_MCUS, NUM_THREADS, THREADS_PER_CORE,
};
use nestsim_proto::pcie::doorbell_addr;
use nestsim_proto::{CpxPacket, DramCmd, DramCmdKind, DramResp, PcxPacket};
use nestsim_rtl::lane_matches_golden;
use nestsim_telemetry::{names, Recorder};

/// DRAM round-trip latency seen by a co-simulated L2 bank.
pub const COSIM_DRAM_LATENCY: u64 = 40;
/// Functional-bank service latency seen by the co-simulated crossbar.
pub const COSIM_BANK_LATENCY: u64 = 15;

/// Result of the end-of-co-simulation comparison (Fig. 2 step 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CosimCheck {
    /// Target and golden are bit-identical (flops, arch state,
    /// in-flight traffic).
    Identical,
    /// Only flop differences no tick can read remain: payloads of
    /// invalid guarded slots, and fields the layout marks
    /// [`Dead`](nestsim_rtl::FieldRole::Dead).
    BenignOnly,
    /// All remaining differences map to high-level uncore state
    /// (Table 1) — the accelerated mode can take over.
    ArchMappable,
    /// Unmapped microarchitectural state still differs — co-simulation
    /// must continue.
    Microarch,
}

impl CosimCheck {
    /// True when co-simulation may end (Fig. 2 step 7 → "No").
    pub fn exitable(self) -> bool {
        !matches!(self, CosimCheck::Microarch)
    }
}

/// What a driver hands back when co-simulation ends (Fig. 2 step 10).
#[derive(Debug)]
pub struct Detach {
    /// The system, with erroneous architectural state transferred back
    /// and interception removed.
    pub sys: System,
    /// Memory/cache lines whose contents differ from the error-free
    /// run (feeds taint tracking and the Sec. 5 analyses).
    pub corrupted_lines: Vec<LineAddr>,
}

/// The interface of a co-simulation driver, as the injection loop and
/// the figure experiments drive it.
pub trait CosimDriver: Sized {
    /// Advances system + target (+ golden) by one cycle.
    fn step(&mut self);

    /// Current co-simulation cycle (the system's cycle).
    fn cycle(&self) -> u64;

    /// The system under the driver.
    fn sys(&self) -> &System;

    /// Snapshots the target into the golden copy (done right before
    /// injection, after warm-up).
    fn snapshot_golden(&mut self);

    /// Installs a *cold* golden copy: a freshly reset component carrying
    /// only the transferred architectural state — i.e. exactly the state
    /// a mixed-mode co-simulation entry starts from. Used by the Fig. 5
    /// warm-up-accuracy experiment to compare warm-up against full
    /// co-simulation history.
    fn snapshot_golden_cold(&mut self);

    /// Fraction of flop bits differing between target and golden
    /// (the Fig. 5 microarchitectural-state-difference metric).
    fn mismatch_fraction(&self) -> f64;

    /// True when the target is at a point where a cold (mixed-mode-
    /// entry) snapshot is architecturally aligned. Only the PCIe engine
    /// constrains this (its architectural progress is frame-granular).
    fn at_cold_snapshot_boundary(&self) -> bool;

    /// Flips the target flop at global `bit`.
    fn inject(&mut self, bit: usize);

    /// Compares target vs. golden (Fig. 2 step 7). Only meaningful
    /// after [`snapshot_golden`](CosimDriver::snapshot_golden).
    fn check(&self) -> CosimCheck;

    /// [`check`](CosimDriver::check) with a difference in a field no
    /// tick reads counted as `Microarch`: Fig. 6's persistence, which
    /// reports configuration flops as persistent, as the paper does.
    fn check_every_field(&self) -> CosimCheck;

    /// True when no in-flight traffic would be stranded by detaching.
    fn drained(&self) -> bool;

    /// First cycle at which a target output diverged from golden, if
    /// any (the erroneous-return-packet monitor, Fig. 1b ⑥).
    fn erroneous_output(&self) -> Option<u64>;

    /// Whether the system has received from the target only what the
    /// golden would have given it ([`Component::seen`]), and the monitor
    /// flagged nothing: for CCX, the packets to the banks as well as
    /// those to the cores.
    fn outputs_matched(&self) -> bool;

    /// Ends co-simulation: transfers architectural state back to the
    /// high-level model and releases interception.
    fn detach(self) -> Detach;

    /// Records the component's queue occupancies into `rec`. Called by
    /// the injection loop at golden-compare points only (never on the
    /// per-cycle path), and only when the recorder is active.
    fn sample_telemetry(&self, rec: &mut Recorder);
}

/// A copy of `source`, written into `spare` when there is one: storage
/// an earlier run held, so that nothing it holds is allocated again.
pub(crate) fn refilled<T: Clone>(spare: Option<T>, source: &T) -> T {
    match spare {
        Some(mut t) => {
            t.clone_from(source);
            t
        }
        None => source.clone(),
    }
}

// ─────────────────────────── Parked storage ──────────────────────────

/// Storage no campaign holds any more, parked process-wide for the next
/// campaign to refill (DESIGN.md *Recycling the injection's driver*):
/// systems — a dropped walk's cursor, a dropped cell's rungs, a golden
/// run no walk took — and the drivers and lane sides of dropped walks.
struct Parked {
    /// The most recently parked last.
    systems: Vec<System>,
    /// One component's [`Kept`] drivers each, their systems parked; the
    /// most recently parked last.
    drivers: Vec<Spares>,
    /// Walks alive now, and the most alive at once so far.
    walks: usize,
    peak_walks: usize,
}

/// What one walk and its cell hold of systems on a one-worker cell, and
/// so what the pool keeps per walk: the base, the golden run the cursor
/// refills, and a window's carrier, sample driver and lane fork, which
/// come here when their driver set is freed for another component's
/// ([`take_drivers`]).
const SYSTEMS_PER_WALK: usize = 5;

impl Parked {
    const EMPTY: Parked = Parked {
        systems: Vec::new(),
        drivers: Vec::new(),
        walks: 0,
        peak_walks: 0,
    };
}

static PARKED: Mutex<Parked> = Mutex::new(Parked::EMPTY);

#[cfg(test)]
thread_local! {
    /// A pool of this thread's own, in place of [`PARKED`], for a test
    /// whose counts must not depend on what tests on other threads park
    /// and take ([`tests::own_pool`]).
    static OWN_POOL: Cell<Option<&'static Mutex<Parked>>> = const { Cell::new(None) };
}

/// The pool. A panic never leaves it half-changed (a push, a pop or a
/// count at a time), so a poisoned lock still guards whole systems.
fn parked() -> MutexGuard<'static, Parked> {
    #[cfg(test)]
    let pool = OWN_POOL.with(Cell::get).unwrap_or(&PARKED);
    #[cfg(not(test))]
    let pool = &PARKED;
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Systems and drivers this thread took from the pool and built.
    static STORAGE: Cell<StorageStats> = const { Cell::new(StorageStats::ZERO) };
}

/// Engine-side counters of where a campaign's systems and drivers came
/// from, reported as `storage.*` beside `dram.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StorageStats {
    /// Systems refilled from parked storage.
    pub systems_taken: u64,
    /// Systems built because none was parked.
    pub systems_built: u64,
    /// Drivers taken from parked storage, with their ports and sides.
    pub drivers_taken: u64,
    /// Drivers built because the walk had none to refill.
    pub drivers_built: u64,
}

impl StorageStats {
    const ZERO: StorageStats = StorageStats {
        systems_taken: 0,
        systems_built: 0,
        drivers_taken: 0,
        drivers_built: 0,
    };

    /// `f`'s result, and the systems and drivers this thread took and
    /// built while it ran.
    pub(crate) fn during<R>(f: impl FnOnce() -> R) -> (R, StorageStats) {
        let before = STORAGE.with(Cell::get);
        let r = f();
        let after = STORAGE.with(Cell::get);
        let stats = StorageStats {
            systems_taken: after.systems_taken - before.systems_taken,
            systems_built: after.systems_built - before.systems_built,
            drivers_taken: after.drivers_taken - before.drivers_taken,
            drivers_built: after.drivers_built - before.drivers_built,
        };
        (r, stats)
    }

    /// Adds `other`'s counts.
    pub(crate) fn add(&mut self, other: StorageStats) {
        self.systems_taken += other.systems_taken;
        self.systems_built += other.systems_built;
        self.drivers_taken += other.drivers_taken;
        self.drivers_built += other.drivers_built;
    }

    /// Adds these counters to the engine-side recorder, the drivers'
    /// only once there was one: a golden pass holds none.
    pub(crate) fn publish(&self, engine: &mut Recorder) {
        engine.count(names::STORAGE_SYSTEMS_TAKEN, self.systems_taken);
        engine.count(names::STORAGE_SYSTEMS_BUILT, self.systems_built);
        if self.drivers_taken + self.drivers_built > 0 {
            engine.count(names::STORAGE_DRIVERS_TAKEN, self.drivers_taken);
            engine.count(names::STORAGE_DRIVERS_BUILT, self.drivers_built);
        }
    }
}

/// Adds `f`'s change to this thread's storage counters.
fn counted(f: impl FnOnce(&mut StorageStats)) {
    STORAGE.with(|n| {
        let mut stats = n.get();
        f(&mut stats);
        n.set(stats);
    });
}

/// Counts a driver built because its walk had none to refill.
pub(crate) fn driver_built() {
    counted(|n| n.drivers_built += 1);
}

/// Storage for one more system: the one parked last, or `None` for the
/// caller to build one. Every system a campaign needs asks here first.
///
/// Systems are parked in the reverse of the order the next cell takes
/// them — base, golden run (the cursor) and, from a freed driver set,
/// carrier, sample driver, lane fork — so that one process running cell
/// after cell hands each system back to the role it had, whose buffers
/// it has grown to fit.
pub(crate) fn unpark() -> Option<System> {
    let sys = parked().systems.pop();
    match sys {
        Some(_) => counted(|n| n.systems_taken += 1),
        None => counted(|n| n.systems_built += 1),
    }
    sys
}

/// A copy of `source`, in parked storage when there is some.
pub(crate) fn parked_copy(source: &System) -> System {
    refilled(unpark(), source)
}

/// Parks `sys` for a later [`unpark`] (`System::park`): its pages
/// released, so that it pins none of the system it was copied from, and
/// its DRAM arena chunks freed, so that the pool holds the storage a
/// system's configuration sizes and not what one run's dirtied pages
/// needed — storage that would otherwise sit beside whatever the process
/// allocates between campaigns. The pool keeps [`SYSTEMS_PER_WALK`] for
/// each walk the process ever ran at once (for one before the first
/// walk: a cell that ran none parks its systems too), the most recently
/// parked, so it never holds more systems than those walks did.
pub(crate) fn park(mut sys: System) {
    sys.park();
    let evicted = {
        let mut pool = parked();
        pool.systems.push(sys);
        let room = SYSTEMS_PER_WALK * pool.peak_walks.max(1);
        let over = pool.systems.len().saturating_sub(room);
        pool.systems.drain(..over).collect::<Vec<_>>()
    };
    // Freed outside the lock.
    drop(evicted);
}

/// The drivers parked last of the component `mine` matches, if any.
/// With none, the set parked first, of another component, gives its
/// systems to the pool for this walk's drivers to refill, and its ports
/// and sides are freed.
fn take_drivers(mine: impl Fn(&Spares) -> bool) -> Option<Spares> {
    let (taken, other) = {
        let mut pool = parked();
        match pool.drivers.iter().rposition(mine) {
            Some(at) => (Some(pool.drivers.remove(at)), None),
            None if pool.drivers.is_empty() => (None, None),
            None => (None, Some(pool.drivers.remove(0))),
        }
    };
    if let Some(other) = other {
        // The carrier's last: a walk builds it first of the three.
        other.into_systems().into_iter().flatten().for_each(park);
    }
    if let Some(taken) = &taken {
        let mut drivers = 0;
        taken.for_each_system(|_| drivers += 1);
        counted(|n| n.drivers_taken += drivers);
    }
    taken
}

/// Counts a walk alive from [`walk_started`] to [`walk_ended`], the
/// pool's bound.
pub(crate) fn walk_started() {
    let mut pool = parked();
    pool.walks += 1;
    pool.peak_walks = pool.peak_walks.max(pool.walks);
}

/// See [`walk_started`].
pub(crate) fn walk_ended() {
    parked().walks -= 1;
}

/// `Clone` for a struct of the named fields, whose `clone_from` refills
/// each field in place. Both destructure every field: a new field fails
/// to compile here until it is named.
macro_rules! clone_in_place {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                let $ty { $($field),* } = self;
                $ty { $($field: $field.clone()),* }
            }

            fn clone_from(&mut self, source: &Self) {
                let $ty { $($field),* } = source;
                $(self.$field.clone_from($field);)*
            }
        }
    };
}

// ─────────────────────────── The contract ───────────────────────────

/// One side of a co-simulation: the model a target, its golden copy or
/// a lane of a batch ticks, with its private memory view.
pub trait Side: Clone + std::fmt::Debug {
    /// The flop-level model.
    type Flops: UncoreRtl;

    /// The flop-level model, converted from the fault-free one in place
    /// the first time it is asked for.
    fn flops(&mut self) -> &mut Self::Flops;

    /// The flop-level model, if the side holds flops.
    fn as_flops(&self) -> Option<&Self::Flops>;

    /// A copy on flops, converting this side first if it is still on
    /// its fault-free model: the golden at the snapshot, and every lane
    /// a batch's carrier starts. It is written into `spare`, a side an
    /// earlier run held, when there is one.
    fn twin(&mut self, spare: Option<Self>) -> Self {
        self.flops();
        refilled(spare, self)
    }

    /// `clone_from` that leaves this side on flops whatever `source`
    /// holds: `source` stays on the model it holds, and a fault-free one
    /// is converted into the flops this side holds or keeps. A sample's
    /// target forked off its window's carrier ([`Driver::fork_sample`]).
    fn refill_on_flops(&mut self, source: &Self) {
        self.clone_from(source);
    }

    /// The side a mixed-mode entry starts from (Fig. 5's cold golden): a
    /// reset model carrying only this side's architectural state. This
    /// side converts to flops.
    fn cold(&mut self) -> Self;

    /// Puts a side that checked `Identical` to its golden back on its
    /// fault-free model, which ticks as the golden would from here on,
    /// and says whether it did. Only a side whose ticks read nothing but
    /// its flops and their inputs can; by default a side stays on flops.
    fn recover(&mut self) -> bool {
        false
    }

    /// Whether a cold snapshot taken now is architecturally aligned.
    fn at_cold_boundary(&self) -> bool {
        true
    }

    /// Whether in-flight traffic outside the flops differs from
    /// `golden`'s: unmapped microarchitectural state.
    fn traffic_differs(&self, _golden: &Self) -> bool {
        false
    }

    /// Whether the state the component keeps beside its flops differs
    /// from `golden`'s: the architectural state of Table 1.
    fn arch_differs(&self, golden: &Self, base: &DramContents) -> bool;

    /// Records the side's queue occupancies.
    fn sample_telemetry(&self, rec: &mut Recorder);
}

/// A component's engine-side port, the queues its traffic waits in on
/// the system's side of the boundary, and what the one [`Driver`]
/// leaves to the component: the phases of a cycle, when nothing is
/// stranded, and the state transfer at detach.
///
/// A cycle has the same phases for every component, in the scalar
/// driver and in a lane batch: the port admits inputs as a side's
/// readiness allows ([`admits`](Self::admits), [`take`](Self::take)),
/// each side ticks on them ([`tick`](Self::tick)), outputs are compared
/// ([`flags`](Self::flags), [`seen`](Self::seen)) and the target's
/// reach the system ([`deliver`](Self::deliver)). No tick writes the
/// system, so every side reads memory as the cycle began.
pub trait Component: Clone + std::fmt::Debug {
    /// The model a target, golden or lane ticks.
    type Side: Side;
    /// Which of the inputs waiting at the port a side's readiness admits
    /// this cycle.
    type Gate: PartialEq;
    /// What a side ticks on in one cycle.
    type Inputs;
    /// What a side puts out in one cycle.
    type Outputs;

    /// `attach` for instance `instance`, modulo the instance count.
    fn attach_instance(sys: System, instance: usize) -> Driver<Self>;

    /// [`attach_instance`](Self::attach_instance) in place: `sys`, this
    /// port and `target`, whatever an earlier run left in them, end as
    /// that attach leaves its driver's, and nothing they hold is
    /// allocated again.
    fn reattach(&mut self, sys: &mut System, target: &mut Self::Side, instance: usize);

    /// This component's part of a shard's [`Spares`].
    fn kept(spares: &mut Spares) -> &mut Kept<Self>;

    /// Moves the traffic the system sent the component this cycle into
    /// the port.
    fn intake(&mut self, sys: &mut System);

    /// Which inputs waiting for cycle `cyc` `side`'s readiness admits.
    fn admits(&self, side: &Self::Side, cyc: u64) -> Self::Gate;

    /// Takes the inputs `gate` admits out of the port.
    fn take(&mut self, gate: &Self::Gate) -> Self::Inputs;

    /// Cycle `cyc` of `side` on `inp`, with `mem` as system memory.
    fn tick(
        side: &mut Self::Side,
        inp: &Self::Inputs,
        mem: &DramContents,
        cyc: u64,
    ) -> Self::Outputs;

    /// Whether the erroneous-output monitor (Fig. 1b ⑥) flags `out`
    /// against `other`, another side's outputs on the same inputs.
    fn flags(out: &Self::Outputs, other: &Self::Outputs) -> bool;

    /// Whether the system would receive something else from `out` than
    /// from `other`: what the monitor flags, by default.
    fn seen(out: &Self::Outputs, other: &Self::Outputs) -> bool {
        Self::flags(out, other)
    }

    /// Notes a cycle whose target outputs `out` the monitor flagged
    /// against the golden's. Nothing by default.
    fn diverged(&mut self, _out: &Self::Outputs, _golden: &Self::Outputs) {}

    /// Hands `out`, the target's outputs of cycle `cyc`, to the system.
    fn deliver(&mut self, sys: &mut System, target: &mut Self::Side, out: &Self::Outputs, cyc: u64);

    /// Whether detaching with `side` as the target strands nothing.
    fn drained(&self, side: &Self::Side, sys: &System) -> bool;

    /// Fig. 2 step 10 while interception holds: the lines where the
    /// target's state differs from `golden`'s, then the target's
    /// architectural state written into `sys`.
    fn transfer(
        &mut self,
        sys: &mut System,
        target: &mut Self::Side,
        golden: Option<&Self::Side>,
    ) -> Vec<LineAddr>;

    /// After interception is released: serves what the port still
    /// holds (a forced detach) and hands the component's work back.
    fn release(&mut self, sys: &mut System, target: &Self::Side);
}

/// Fig. 2 step 7 on one target/golden pair: every driver's `check` and
/// every lane of a batch end here. Traffic outside the flops or a flop
/// difference that a tick can read is `Microarch`; otherwise the state
/// beside the flops decides `ArchMappable`. A flop difference no tick
/// can read is an invalid guarded slot's payload or, when `dead_counts`
/// is clear, a bit of a [`Dead`](nestsim_rtl::FieldRole::Dead) field. A
/// word-parallel compare comes first, so an equal pair skips the
/// per-bit scan. A side still on its fault-free model is fault-free:
/// `Identical`.
fn verdict<S: Side>(target: &S, golden: &S, base: &DramContents, dead_counts: bool) -> CosimCheck {
    let (Some(t), Some(g)) = (target.as_flops(), golden.as_flops()) else {
        return CosimCheck::Identical;
    };
    if target.traffic_differs(golden) {
        return CosimCheck::Microarch;
    }
    let mut benign_seen = false;
    if !lane_matches_golden(g.flops().raw_bits(), t.flops().raw_bits()) {
        for bit in t.flops().diff_bits(g.flops()) {
            if (!dead_counts && t.flops().is_dead_bit(bit)) || t.is_benign_diff(g, bit) {
                benign_seen = true;
            } else {
                return CosimCheck::Microarch;
            }
        }
    }
    if target.arch_differs(golden, base) {
        CosimCheck::ArchMappable
    } else if benign_seen {
        CosimCheck::BenignOnly
    } else {
        CosimCheck::Identical
    }
}

/// The co-simulation driver of one component `C` (module docs).
#[derive(Debug, Clone)]
pub struct Driver<C: Component> {
    sys: System,
    port: C,
    /// The co-simulated (error-injected) side.
    target: C::Side,
    /// The golden side, from its snapshot to the end of the run.
    golden: Option<C::Side>,
    first_err_out: Option<u64>,
    /// The system received an output of the target's that the golden's
    /// differs from ([`Component::seen`]).
    seen_differs: bool,
    /// The target checked `Identical` to the golden and went back to its
    /// fault-free model ([`Side::recover`]): the golden ticks no more.
    golden_retired: bool,
}

/// What a shard keeps of component `C`'s drivers from one group to the
/// next, so that each group refills them instead of building its own
/// (DESIGN.md *Recycling the injection's driver*).
#[derive(Debug)]
pub struct Kept<C: Component> {
    /// The uninjected driver the last window's warm-up ran on.
    pub(crate) carrier: Option<Driver<C>>,
    /// The driver the last sample ended with: a scalar run's, or a
    /// batch's carrier.
    pub(crate) driver: Option<Driver<C>>,
    /// The driver the last lane that left a batch ended with.
    pub(crate) fork: Option<Driver<C>>,
    /// Lane sides no batch holds.
    pub(crate) lanes: Vec<C::Side>,
}

impl<C: Component> Default for Kept<C> {
    fn default() -> Self {
        Kept {
            carrier: None,
            driver: None,
            fork: None,
            lanes: Vec::new(),
        }
    }
}

impl<C: Component> Kept<C> {
    /// Between windows: the kept systems let go of the pages they share
    /// with the cursor, which takes them back when it moves on.
    pub(crate) fn park(&mut self) {
        let drivers = (self.carrier.iter_mut()).chain(&mut self.driver);
        for driver in drivers.chain(&mut self.fork) {
            driver.sys.release_pages();
        }
    }

    /// The systems of the drivers kept.
    fn systems(&self) -> impl Iterator<Item = &System> {
        let drivers = (self.carrier.iter()).chain(&self.driver);
        drivers.chain(&self.fork).map(|driver| &driver.sys)
    }

    /// Readies these drivers for the pool: each system parked as
    /// [`park`] parks one, and each golden side dropped. A golden is
    /// refilled from its target at the snapshot, so a parked one saves
    /// a walk little, and an L2C golden holds its bank's arrays, which
    /// would sit beside what the process allocates between campaigns.
    fn park_drivers(&mut self) {
        let drivers = (self.carrier.iter_mut()).chain(&mut self.driver);
        for driver in drivers.chain(&mut self.fork) {
            driver.sys.park();
            driver.golden = None;
        }
    }

    /// The systems of the drivers kept, the carrier's last; their ports
    /// and sides are dropped.
    fn into_systems(self) -> [Option<System>; 3] {
        [self.fork, self.driver, self.carrier].map(|driver| driver.map(|d| d.sys))
    }
}

/// A shard's [`Kept`] drivers and lanes. A shard runs one component, so
/// it keeps that component's alone, from its first window, which takes
/// the set a dropped walk of that component parked ([`Component::kept`]),
/// to its drop, which parks it ([`Spares::park`]).
#[allow(
    clippy::large_enum_variant,
    reason = "one per shard runner, inline: it is as large as one component's drivers, \
              where a field per component would hold all four"
)]
#[derive(Debug, Default)]
pub enum Spares {
    /// Nothing kept yet.
    #[default]
    Empty,
    /// An L2 bank's.
    L2c(Kept<L2cPort>),
    /// A DRAM controller's.
    Mcu(Kept<DramPort>),
    /// The crossbar's.
    Ccx(Kept<CcxPort>),
    /// The PCIe engine's.
    Pcie(Kept<PciePort>),
}

impl Spares {
    /// Calls `f` on the system of every driver kept.
    pub(crate) fn for_each_system(&self, f: impl FnMut(&System)) {
        match self {
            Spares::Empty => {}
            Spares::L2c(kept) => kept.systems().for_each(f),
            Spares::Mcu(kept) => kept.systems().for_each(f),
            Spares::Ccx(kept) => kept.systems().for_each(f),
            Spares::Pcie(kept) => kept.systems().for_each(f),
        }
    }

    /// The system of every driver kept, the carrier's last.
    fn into_systems(self) -> [Option<System>; 3] {
        match self {
            Spares::Empty => [None, None, None],
            Spares::L2c(kept) => kept.into_systems(),
            Spares::Mcu(kept) => kept.into_systems(),
            Spares::Ccx(kept) => kept.into_systems(),
            Spares::Pcie(kept) => kept.into_systems(),
        }
    }

    /// Parks these drivers and lane sides for a later walk of their
    /// component to take ([`Component::kept`]), without their golden
    /// sides (`Kept::park_drivers`). The pool keeps one set for each
    /// walk the process ever ran at once, the most recently parked.
    pub(crate) fn park(mut self) {
        match &mut self {
            Spares::Empty => return,
            Spares::L2c(kept) => kept.park_drivers(),
            Spares::Mcu(kept) => kept.park_drivers(),
            Spares::Ccx(kept) => kept.park_drivers(),
            Spares::Pcie(kept) => kept.park_drivers(),
        }
        let evicted = {
            let mut pool = parked();
            pool.drivers.push(self);
            let over = pool.drivers.len().saturating_sub(pool.peak_walks.max(1));
            pool.drivers.drain(..over).collect::<Vec<_>>()
        };
        // Freed outside the lock.
        drop(evicted);
    }
}

/// [`Component::kept`] for the component of `Spares::$variant`: what
/// `$spares` keeps of it. Spares of another component, or none, are
/// parked, and the set a dropped walk of this one parked last taken in
/// their place, or an empty one.
macro_rules! kept_as {
    ($spares:expr, $variant:ident) => {{
        let spares: &mut Spares = $spares;
        if !matches!(spares, Spares::$variant(_)) {
            std::mem::take(spares).park();
            *spares = take_drivers(|s| matches!(s, Spares::$variant(_)))
                .unwrap_or_else(|| Spares::$variant(Kept::default()));
        }
        match spares {
            Spares::$variant(kept) => kept,
            _ => unreachable!("filled above"),
        }
    }};
}

/// Co-simulation driver for one L2 cache bank.
pub type L2cDriver = Driver<L2cPort>;
/// Co-simulation driver for one DRAM controller.
pub type McuDriver = Driver<DramPort>;
/// Co-simulation driver for the crossbar.
pub type CcxDriver = Driver<CcxPort>;
/// Co-simulation driver for the PCIe DMA engine.
pub type PcieDriver = Driver<PciePort>;

impl<C: Component> Driver<C> {
    /// Attaches `target` behind `port` to `sys`, with no golden yet.
    fn new(sys: System, port: C, target: C::Side) -> Self {
        Driver {
            sys,
            port,
            target,
            golden: None,
            first_err_out: None,
            seen_differs: false,
            golden_retired: false,
        }
    }

    /// [`Component::reattach`] of this driver, which an earlier run left
    /// as it ended, to its system. Returns the golden side that run
    /// ended with, for the next snapshot to refill ([`snapshot`](Self::snapshot)):
    /// a warm-up ticks no golden.
    pub(crate) fn reattach(&mut self, instance: usize) -> Option<C::Side> {
        self.first_err_out = None;
        self.seen_differs = false;
        self.golden_retired = false;
        (self.port).reattach(&mut self.sys, &mut self.target, instance);
        self.golden.take()
    }

    /// Fig. 2 step 5: the golden side becomes a copy of the target,
    /// written into `spare`, a side an earlier run held, when there is
    /// one.
    pub(crate) fn snapshot(&mut self, spare: Option<C::Side>) {
        self.golden = Some(self.target.twin(spare));
        self.golden_retired = false;
    }

    /// Ends the golden's part in a run whose target just checked
    /// `Identical` to it, when the target can go back to its fault-free
    /// model ([`Side::recover`]): equal state on equal inputs stays
    /// equal, so from here on the target ticks as the golden would,
    /// alone, and every compare finds nothing.
    pub(crate) fn retire_golden(&mut self) {
        if !self.golden_retired && self.target.recover() {
            self.golden_retired = true;
        }
    }

    /// Phase 1 of a cycle: the system runs one cycle, and the traffic it
    /// sent the component joins the port. Returns the cycle, which the
    /// system's clock does not show once it trapped or halted.
    pub(crate) fn run_system(&mut self) -> u64 {
        #[cfg(test)]
        tests::stepped(self);
        let cyc = self.sys.cycle() + 1;
        self.sys.run_until(cyc);
        self.port.intake(&mut self.sys);
        cyc
    }

    /// The rest of cycle `cyc` after [`run_system`](Self::run_system), in
    /// [`Component`]'s phases. A lane that leaves its batch before the
    /// sides ticked finishes its cycle here.
    pub(crate) fn finish_cycle(&mut self, cyc: u64) -> C::Outputs {
        let gate = self.admits(None, cyc);
        let inp = self.take(&gate);
        let live = (self.golden.as_mut()).filter(|_| !self.golden_retired);
        let golden = live.map(|g| C::tick(g, &inp, self.sys.dram(), cyc));
        let out = self.tick_target(&inp, cyc);
        self.settle(cyc, &out, golden.as_ref());
        out
    }

    /// The end of cycle `cyc`, from the target's outputs `out` and the
    /// golden's: the divergence monitor, then delivery to the system.
    pub(crate) fn settle(&mut self, cyc: u64, out: &C::Outputs, golden: Option<&C::Outputs>) {
        if let Some(golden) = golden {
            if C::flags(out, golden) {
                self.port.diverged(out, golden);
                self.first_err_out.get_or_insert(cyc);
            }
            self.seen_differs = self.seen_differs || C::seen(out, golden);
        }
        self.port.deliver(&mut self.sys, &mut self.target, out, cyc);
    }

    /// What `side`'s readiness admits from the port in cycle `cyc`, or
    /// the target's for `None`.
    pub(crate) fn admits(&self, side: Option<&C::Side>, cyc: u64) -> C::Gate {
        self.port.admits(side.unwrap_or(&self.target), cyc)
    }

    /// Takes the inputs `gate` admits out of the port.
    pub(crate) fn take(&mut self, gate: &C::Gate) -> C::Inputs {
        self.port.take(gate)
    }

    /// Cycle `cyc` of the target on `inp`.
    pub(crate) fn tick_target(&mut self, inp: &C::Inputs, cyc: u64) -> C::Outputs {
        C::tick(&mut self.target, inp, self.sys.dram(), cyc)
    }

    /// [`Side::twin`] of the target side.
    pub(crate) fn twin(&mut self, spare: Option<C::Side>) -> C::Side {
        self.target.twin(spare)
    }

    /// Fig. 2 step 7 for a lane of a batch whose carrier this is: the
    /// carrier's target side is every lane's golden.
    pub(crate) fn check_lane(&self, lane: &C::Side) -> CosimCheck {
        verdict(lane, &self.target, self.sys.dram(), false)
    }

    /// Whether detaching with `side` as the target would strand no
    /// traffic: `drained` for this driver's target or for a lane.
    pub(crate) fn drained_with(&self, side: &C::Side) -> bool {
        self.port.drained(side, &self.sys)
    }

    /// A sample's driver forked off this one, the uninjected carrier of
    /// the sample's window, which is what the sample's lone run warmed up
    /// to this cycle would hold: this driver's system and port, and its
    /// target copied onto flops (the carrier stays on its fault-free
    /// model). It refills `spare`, the driver the sample before ended
    /// with, when there is one, and hands back the golden side `spare`
    /// held, for the snapshot to refill. The carrier shares its pages
    /// first, as [`fork`](Self::fork) does.
    pub(crate) fn fork_sample(&mut self, spare: Option<Self>) -> (Self, Option<C::Side>) {
        debug_assert!(
            self.golden.is_none() && self.first_err_out.is_none() && !self.seen_differs,
            "a window's carrier is never injected"
        );
        self.sys.share_pages();
        let Some(mut fork) = spare else {
            driver_built();
            let mut target = self.target.clone();
            target.flops();
            let fork = Driver::new(parked_copy(&self.sys), self.port.clone(), target);
            return (fork, None);
        };
        #[cfg(test)]
        crate::inject::count(&crate::inject::REFILLS);
        fork.sys.clone_from(&self.sys);
        fork.port.clone_from(&self.port);
        fork.target.refill_on_flops(&self.target);
        fork.first_err_out = None;
        fork.seen_differs = false;
        fork.golden_retired = false;
        let golden = fork.golden.take();
        (fork, golden)
    }

    /// The scalar driver of a lane that leaves the batch this driver
    /// carries, as the lane's own run would hold it now: this driver's
    /// system and port; `lane` as the target with this driver's target
    /// as its golden; and `first_err_out` as the divergence monitor's
    /// record (a lane in a batch has seen nothing the carrier did not,
    /// [`Component::seen`]). It refills `spare`, the driver the previous
    /// fork ended with, when there is one; the side `lane` replaces goes
    /// to `pool`.
    /// A carrier forks many times, so it shares its pages first: a fork
    /// copies none, and once the fork's system is released the carrier
    /// takes them back at its next write.
    pub(crate) fn fork(
        &mut self,
        lane: C::Side,
        first_err_out: Option<u64>,
        spare: Option<Self>,
        pool: &mut Vec<C::Side>,
    ) -> Self {
        debug_assert!(
            self.golden.is_none(),
            "a batch carrier is every lane's golden and has none of its own"
        );
        self.sys.share_pages();
        let Some(mut fork) = spare else {
            driver_built();
            return Driver {
                sys: parked_copy(&self.sys),
                port: self.port.clone(),
                target: lane,
                golden: Some(self.target.clone()),
                first_err_out,
                seen_differs: false,
                golden_retired: false,
            };
        };
        #[cfg(test)]
        crate::inject::count(&crate::inject::FORK_REFILLS);
        fork.sys.clone_from(&self.sys);
        fork.port.clone_from(&self.port);
        fork.first_err_out = first_err_out;
        fork.seen_differs = false;
        fork.golden_retired = false;
        pool.push(std::mem::replace(&mut fork.target, lane));
        fork.golden = Some(refilled(fork.golden.take(), &self.target));
        fork
    }
}

impl<C: Component> CosimDriver for Driver<C> {
    fn step(&mut self) {
        let cyc = self.run_system();
        self.finish_cycle(cyc);
    }

    fn cycle(&self) -> u64 {
        self.sys.cycle()
    }

    fn sys(&self) -> &System {
        &self.sys
    }

    fn snapshot_golden(&mut self) {
        let spare = self.golden.take();
        self.snapshot(spare);
    }

    fn snapshot_golden_cold(&mut self) {
        self.golden = Some(self.target.cold());
    }

    fn mismatch_fraction(&self) -> f64 {
        let golden = self.golden.as_ref().and_then(Side::as_flops);
        (self.target.as_flops().zip(golden)).map_or(0.0, |(t, g)| {
            t.flops().diff_count(g.flops()) as f64 / t.flops().num_flops() as f64
        })
    }

    fn at_cold_snapshot_boundary(&self) -> bool {
        self.target.at_cold_boundary()
    }

    fn inject(&mut self, bit: usize) {
        self.target.flops().flops_mut().flip(bit);
    }

    /// `Identical` before the snapshot: there is nothing to compare.
    fn check(&self) -> CosimCheck {
        (self.golden.as_ref()).map_or(CosimCheck::Identical, |g| {
            verdict(&self.target, g, self.sys.dram(), false)
        })
    }

    fn check_every_field(&self) -> CosimCheck {
        (self.golden.as_ref()).map_or(CosimCheck::Identical, |g| {
            verdict(&self.target, g, self.sys.dram(), true)
        })
    }

    fn drained(&self) -> bool {
        self.drained_with(&self.target)
    }

    fn erroneous_output(&self) -> Option<u64> {
        self.first_err_out
    }

    fn outputs_matched(&self) -> bool {
        self.first_err_out.is_none() && !self.seen_differs
    }

    fn sample_telemetry(&self, rec: &mut Recorder) {
        self.target.sample_telemetry(rec);
    }

    fn detach(mut self) -> Detach {
        let corrupted_lines = self.detach_in_place();
        Detach {
            sys: self.sys,
            corrupted_lines,
        }
    }
}

impl<C: Component> Driver<C> {
    /// [`detach`](CosimDriver::detach) in place, for a driver the run
    /// hands on to the next instead of dropping it (DESIGN.md *Recycling
    /// the injection's driver*): the corrupted lines, with the detached
    /// system left under the driver.
    pub(crate) fn detach_in_place(&mut self) -> Vec<LineAddr> {
        let mut corrupted =
            (self.port).transfer(&mut self.sys, &mut self.target, self.golden.as_ref());
        corrupted.sort_unstable_by_key(|l| l.raw());
        corrupted.dedup();
        self.sys.set_intercept(InterceptMode::None);
        self.port.release(&mut self.sys, &self.target);
        self.sys.mark_tainted(corrupted.iter().copied());
        corrupted
    }

    /// The system under the driver.
    pub(crate) fn sys_mut(&mut self) -> &mut System {
        &mut self.sys
    }
}

/// `$body` with the type `$C` bound to the [`Component`] that the
/// `ComponentKind` `$kind` names: the one place a component kind picks a
/// driver. Each arm compiles `$body` for its own type.
macro_rules! on_component {
    ($kind:expr, $C:ident => $body:expr) => {
        match $kind {
            nestsim_models::ComponentKind::L2c => {
                type $C = $crate::cosim::L2cPort;
                $body
            }
            nestsim_models::ComponentKind::Mcu => {
                type $C = $crate::cosim::DramPort;
                $body
            }
            nestsim_models::ComponentKind::Ccx => {
                type $C = $crate::cosim::CcxPort;
                $body
            }
            nestsim_models::ComponentKind::Pcie => {
                type $C = $crate::cosim::PciePort;
                $body
            }
        }
    };
}
pub(crate) use on_component;

// ─────────────────────────── Warm-up target ──────────────────────────

/// The model a side ticks: the fault-free model `W` through the
/// warm-up, its flops `F` from the first call that needs them on.
///
/// Until the golden snapshot and the flip (Fig. 2 step 5) no flop can be
/// wrong, so the warm-up (step 4) runs on `W`, which gives the same
/// cycles at a fraction of the cost; [`flops`](Self::flops) then turns
/// it into the flops the flop-level warm-up would have left. A golden
/// and the lanes of a batch are copied from a target on flops, so they
/// hold flops from the start. A target on `W` keeps the flops it last
/// held, and the next conversion writes into them: a recycled driver
/// converts without allocating.
#[allow(
    clippy::large_enum_variant,
    reason = "`Flops` holds the component's handle tables inline; a box would be one more \
              allocation per conversion"
)]
#[derive(Debug)]
enum Target<W: FaultFree> {
    /// The fault-free model: packets (CCX), slot images (L2C) or plain
    /// fields (MCU); and the flops an earlier conversion left, if any.
    Warm(W, Option<W::Flops>),
    Flops(W::Flops),
    /// Only while a method moves the models out, between taking them and
    /// storing what they became.
    Converting,
}

/// A fault-free model and the flop-level model it converts to.
trait FaultFree: Clone + std::fmt::Debug {
    type Flops: Clone + std::fmt::Debug;

    /// The flops this state converts to, marked changed: written into
    /// `buf`, flops an earlier conversion left, when there is one.
    fn convert(self, buf: Option<Self::Flops>) -> Self::Flops;

    /// [`convert`](Self::convert) of a copy of this state.
    fn convert_copy(&self, buf: Option<Self::Flops>) -> Self::Flops;
}

/// [`FaultFree`] for each fault-free model, by its `into_*` conversion,
/// its `write_into` and the method that writes a copy into flops.
macro_rules! fault_free {
    ($($warm:ty => $flops:ty, $into:ident, $copy:ident;)*) => {$(
        impl FaultFree for $warm {
            type Flops = $flops;

            fn convert(self, buf: Option<$flops>) -> $flops {
                match buf {
                    Some(mut x) => {
                        self.write_into(&mut x);
                        x
                    }
                    None => self.$into(),
                }
            }

            fn convert_copy(&self, buf: Option<$flops>) -> $flops {
                match buf {
                    Some(mut x) => {
                        self.$copy(&mut x);
                        x
                    }
                    None => self.clone().$into(),
                }
            }
        }
    )*};
}

fault_free! {
    L2cWarm => L2cBank, into_l2c, copy_into;
    CcxWarm => Ccx, into_ccx, write_into;
    McuWarm => Mcu, into_mcu, write_into;
}

impl<W: FaultFree> Target<W> {
    /// The flop-level model, converted from the fault-free one in place
    /// the first time it is asked for.
    fn flops(&mut self) -> &mut W::Flops {
        if let Target::Warm(..) = self {
            let (Some(warm), buf) = self.take() else {
                unreachable!("matched above")
            };
            *self = Target::Flops(warm.convert(buf));
            #[cfg(test)]
            crate::inject::count(&tests::CONVERSIONS);
        }
        match self {
            Target::Flops(x) => x,
            _ => unreachable!("converted above"),
        }
    }

    /// [`Side::refill_on_flops`] of a target.
    fn refill_on_flops(&mut self, source: &Self) {
        match source {
            Target::Warm(warm, _) => {
                let (_, buf) = self.take();
                *self = Target::Flops(warm.convert_copy(buf));
                #[cfg(test)]
                crate::inject::count(&tests::CONVERSIONS);
            }
            _ => self.clone_from(source),
        }
    }

    /// The flop-level model, if the target holds flops.
    fn as_flops(&self) -> Option<&W::Flops> {
        match self {
            Target::Flops(x) => Some(x),
            _ => None,
        }
    }

    /// Both models moved out, for the caller to store what they become:
    /// the fault-free one if the target is on it, and the flops, held or
    /// kept.
    fn take(&mut self) -> (Option<W>, Option<W::Flops>) {
        match std::mem::replace(self, Target::Converting) {
            Target::Warm(warm, flops) => (Some(warm), flops),
            Target::Flops(x) => (None, Some(x)),
            Target::Converting => unreachable!("a target is converting only inside its methods"),
        }
    }
}

// Not derived: the flops a target on its fault-free model keeps are its
// own storage, not state, so a copy leaves them; and `clone_from` writes
// into whichever model the target holds.
impl<W: FaultFree> Clone for Target<W> {
    fn clone(&self) -> Self {
        match self {
            Target::Warm(warm, _) => Target::Warm(warm.clone(), None),
            Target::Flops(x) => Target::Flops(x.clone()),
            Target::Converting => unreachable!("a target is converting only inside its methods"),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (&mut *self, source) {
            (Target::Warm(warm, _), Target::Warm(from, _)) => warm.clone_from(from),
            (Target::Flops(x), Target::Flops(from)) => x.clone_from(from),
            _ => {
                let (_, flops) = self.take();
                *self = match source {
                    Target::Warm(from, _) => Target::Warm(from.clone(), flops),
                    Target::Flops(from) => Target::Flops(refilled(flops, from)),
                    Target::Converting => {
                        unreachable!("a target is converting only inside its methods")
                    }
                };
            }
        }
    }
}

/// `$body` with `$x` bound to the model a [`Target`] holds, the
/// fault-free one or its flops: every call a side makes on either
/// model dispatches here. The two models share method names, not a
/// trait, so each arm is compiled for its own type.
macro_rules! on_target {
    ($target:expr, $x:ident => $body:expr) => {
        match $target {
            Target::Warm($x, _) => $body,
            Target::Flops($x) => $body,
            Target::Converting => unreachable!("a target is converting only inside its methods"),
        }
    };
}

// ─────────────────────────── L2C ───────────────────────────

/// Mini DRAM model (latency queue over an overlay) standing in for the
/// rest of the memory system while an L2 bank is co-simulated.
#[derive(Debug, Default)]
struct LatencyDram {
    queue: VecDeque<(u64, DramCmd)>,
}

clone_in_place!(LatencyDram { queue });

impl LatencyDram {
    fn push(&mut self, cycle: u64, cmd: DramCmd) {
        self.queue.push_back((cycle + COSIM_DRAM_LATENCY, cmd));
    }

    /// The response to the oldest command, once it is due at `cycle`: a
    /// fill reads the overlay over `base`, a writeback writes it.
    fn pop_ready(
        &mut self,
        cycle: u64,
        base: &DramContents,
        overlay: &mut DramOverlay,
    ) -> Option<DramResp> {
        if self.queue.front()?.0 > cycle {
            return None;
        }
        let (_, cmd) = self.queue.pop_front()?;
        let is_writeback_ack = cmd.kind == DramCmdKind::Writeback;
        let data = if is_writeback_ack {
            overlay.write_line(cmd.line, cmd.data);
            cmd.data
        } else {
            overlay.read_line(base, cmd.line)
        };
        Some(DramResp {
            tag: cmd.tag,
            bank: cmd.bank,
            line: cmd.line,
            data,
            is_writeback_ack,
        })
    }
}

/// An L2 bank with the memory it reaches: its overlay over the system's
/// DRAM and its DRAM latency queue. The target warms up on
/// [`L2cWarm`]'s slot images; its golden and each lane of a batch are
/// copied from it on flops.
#[derive(Debug)]
pub struct BankSide {
    bank: Target<L2cWarm>,
    ov: DramOverlay,
    dram: LatencyDram,
}

clone_in_place!(BankSide { bank, ov, dram });

impl BankSide {
    /// Bank `bank` at reset around `arch` (Fig. 2 step 3), with nothing
    /// in its memory: the arrays are copied into the ones this side
    /// holds, and its flops are kept for the conversion to write into.
    fn attach(&mut self, bank: BankId, arch: &L2BankArch) {
        let (warm, mut flops) = self.bank.take();
        let mut arrays = match warm {
            Some(warm) => warm.into_arch(),
            None => (flops.as_mut()).expect("a side holds a model").take_arch(),
        };
        arrays.clone_from(arch);
        self.bank = Target::Warm(L2cWarm::new(bank, arrays), flops);
        self.ov.clear();
        self.dram.queue.clear();
    }
}

impl Side for BankSide {
    type Flops = L2cBank;

    fn flops(&mut self) -> &mut L2cBank {
        self.bank.flops()
    }

    fn as_flops(&self) -> Option<&L2cBank> {
        self.bank.as_flops()
    }

    fn refill_on_flops(&mut self, source: &Self) {
        let BankSide { bank, ov, dram } = source;
        self.bank.refill_on_flops(bank);
        self.ov.clone_from(ov);
        self.dram.clone_from(dram);
    }

    fn cold(&mut self) -> Self {
        let bank = self.flops();
        BankSide {
            bank: Target::Flops(L2cBank::with_arch(bank.bank(), bank.arch().clone())),
            ov: self.ov.clone(),
            dram: LatencyDram::default(),
        }
    }

    /// The DRAM queue.
    fn traffic_differs(&self, golden: &Self) -> bool {
        self.dram.queue != golden.dram.queue
    }

    /// The bank arrays and the overlay.
    fn arch_differs(&self, golden: &Self, base: &DramContents) -> bool {
        let (Some(t), Some(g)) = (self.bank.as_flops(), golden.bank.as_flops()) else {
            return false;
        };
        t.arch().differs(g.arch()) || self.ov.differs(&golden.ov, base)
    }

    fn sample_telemetry(&self, rec: &mut Recorder) {
        let [iq, oq, mb] =
            on_target!(&self.bank, x => [x.iq_occupancy(), x.oq_occupancy(), x.mb_occupancy()]);
        rec.record_hist(names::H_Q_L2C_IQ, iq as u64);
        rec.record_hist(names::H_Q_L2C_OQ, oq as u64);
        rec.record_hist(names::H_Q_L2C_MB, mb as u64);
    }
}

/// The engine side of an intercepted L2 bank: the requests the system
/// sent it that it has not taken yet. Every L2C co-simulation driver
/// holds one.
#[derive(Debug, Default)]
pub struct L2cPort {
    inbox: VecDeque<PcxPacket>,
}

clone_in_place!(L2cPort { inbox });

impl L2cPort {
    /// Pops the oldest pending request if `ready` accepts it.
    pub fn accept(&mut self, ready: impl FnOnce(&PcxPacket) -> bool) -> Option<PcxPacket> {
        match self.inbox.front() {
            Some(p) if ready(p) => self.inbox.pop_front(),
            _ => None,
        }
    }

    /// True when no request is pending.
    pub fn idle(&self) -> bool {
        self.inbox.is_empty()
    }

    /// Serves the requests the bank never took functionally, so the
    /// threads see *some* response (forced detach).
    pub fn serve_stranded(&mut self, sys: &mut System) {
        for p in self.inbox.drain(..) {
            let (reply, _) = sys.service_request_functionally(&p);
            sys.deliver_cpx(reply);
        }
    }
}

impl L2cDriver {
    /// Attaches co-simulation for `bank`: intercepts its traffic and
    /// transfers the high-level uncore state into the RTL model
    /// (Fig. 2 step 3). Flop state starts at reset and is reconstructed
    /// by warm-up traffic (step 4).
    pub fn attach(mut sys: System, bank: BankId) -> Self {
        let target = BankSide {
            bank: Target::Warm(L2cWarm::new(bank, sys.bank_arch(bank).clone()), None),
            ov: DramOverlay::new(),
            dram: LatencyDram::default(),
        };
        sys.set_intercept(InterceptMode::Bank(bank));
        Driver::new(sys, L2cPort::default(), target)
    }
}

impl Component for L2cPort {
    type Side = BankSide;
    /// Whether the bank takes the request at the head of the inbox;
    /// `None` when none waits.
    type Gate = Option<bool>;
    /// The request packet consumed this cycle.
    type Inputs = Option<PcxPacket>;
    type Outputs = L2cOutputs;

    fn attach_instance(sys: System, instance: usize) -> L2cDriver {
        L2cDriver::attach(sys, BankId::new(instance % NUM_L2_BANKS))
    }

    fn reattach(&mut self, sys: &mut System, target: &mut BankSide, instance: usize) {
        let bank = BankId::new(instance % NUM_L2_BANKS);
        target.attach(bank, sys.bank_arch(bank));
        sys.set_intercept(InterceptMode::Bank(bank));
        self.inbox.clear();
    }

    fn kept(spares: &mut Spares) -> &mut Kept<Self> {
        kept_as!(spares, L2c)
    }

    fn intake(&mut self, sys: &mut System) {
        while let Some(msg) = sys.pop_outbox() {
            match msg {
                OutMsg::Pcx(p) => self.inbox.push_back(p),
                other => unreachable!("unexpected outbox message {other:?}"),
            }
        }
    }

    fn admits(&self, side: &BankSide, _cyc: u64) -> Option<bool> {
        (!self.inbox.is_empty()).then(|| on_target!(&side.bank, x => x.ready()))
    }

    fn take(&mut self, gate: &Option<bool>) -> Option<PcxPacket> {
        self.accept(|_| *gate == Some(true))
    }

    /// The bank takes the DRAM response due now and queues the command
    /// it issues.
    fn tick(side: &mut BankSide, pcx: &Self::Inputs, mem: &DramContents, cyc: u64) -> L2cOutputs {
        let (pcx, dram_resp) = (*pcx, side.dram.pop_ready(cyc, mem, &mut side.ov));
        let out = on_target!(&mut side.bank, x => x.tick(&L2cInputs { pcx, dram_resp }));
        if let Some(cmd) = &out.dram_cmd {
            side.dram.push(cyc, cmd.clone());
        }
        out
    }

    /// The return packet or the DRAM command.
    fn flags(out: &L2cOutputs, other: &L2cOutputs) -> bool {
        out.cpx != other.cpx || out.dram_cmd != other.dram_cmd
    }

    /// The return packet: the DRAM command stays in the side's own
    /// latency queue.
    fn seen(out: &L2cOutputs, other: &L2cOutputs) -> bool {
        out.cpx != other.cpx
    }

    fn deliver(&mut self, sys: &mut System, _target: &mut BankSide, out: &L2cOutputs, _cyc: u64) {
        if let Some(cpx) = out.cpx {
            sys.deliver_cpx(cpx);
        }
    }

    fn drained(&self, side: &BankSide, sys: &System) -> bool {
        let idle = on_target!(&side.bank, x => x.idle());
        self.idle() && idle && side.dram.queue.is_empty() && sys.waiting_on_uncore() == 0
    }

    /// Cache-resident divergence and memory-side divergence through the
    /// overlays; then the overlay and the bank's arrays go back.
    fn transfer(
        &mut self,
        sys: &mut System,
        target: &mut BankSide,
        golden: Option<&BankSide>,
    ) -> Vec<LineAddr> {
        let bank = target.bank.flops();
        let mut corrupted = Vec::new();
        if let Some((g, g_ov)) = golden.and_then(|g| Some((g.bank.as_flops()?, &g.ov))) {
            corrupted.extend(bank.arch().diff_lines(g.arch()));
            corrupted.extend(target.ov.diff_lines(g_ov, sys.dram()));
        }
        target.ov.apply_to(sys.dram_mut());
        sys.set_bank_arch(bank.bank(), bank.arch());
        corrupted
    }

    /// Requests the wedged bank never took are served functionally; an
    /// idle detach has none.
    fn release(&mut self, sys: &mut System, _target: &BankSide) {
        self.serve_stranded(sys);
    }
}

// ─────────────────────────── MCU ───────────────────────────

/// DRAM command tags: the controller's tag flops hold 8 bits.
const DRAM_TAGS: usize = 256;

/// What a DRAM command tag routes its response to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TagRoute {
    /// No command in flight carries the tag.
    Free,
    /// A writeback: its ack completes nothing.
    Writeback,
    /// A fill, delivered to the bank that asked for the line.
    Fill(BankId, LineAddr),
}

/// The engine side of an intercepted MCU pair's DRAM port: it turns the
/// system's DRAM outbox into tagged commands, routes the controller's
/// fill responses back to the requesting bank, and serves what the
/// controller never accepted when co-simulation ends. Every MCU
/// co-simulation driver holds one.
#[derive(Debug)]
pub struct DramPort {
    inbox: VecDeque<DramCmd>,
    /// Each tag's in-flight command. Tags must be unique across *all*
    /// in-flight commands — a fill reusing a live writeback's tag would
    /// lose its route when the writeback acks, stranding the requesting
    /// threads forever.
    routes: [TagRoute; DRAM_TAGS],
    /// Tags whose route is not [`TagRoute::Free`].
    in_flight: usize,
    next_tag: u32,
}

clone_in_place!(DramPort {
    inbox,
    routes,
    in_flight,
    next_tag
});

impl Default for DramPort {
    fn default() -> Self {
        DramPort {
            inbox: VecDeque::new(),
            routes: [TagRoute::Free; DRAM_TAGS],
            in_flight: 0,
            next_tag: 0,
        }
    }
}

impl DramPort {
    /// Puts `route` in flight under the next free tag, counting on from
    /// the last one issued, and returns the tag.
    fn issue(&mut self, route: TagRoute) -> u32 {
        debug_assert!(self.in_flight < DRAM_TAGS, "every DRAM tag is in flight");
        loop {
            let t = self.next_tag;
            self.next_tag = (t + 1) % DRAM_TAGS as u32;
            let slot = &mut self.routes[t as usize];
            if *slot == TagRoute::Free {
                *slot = route;
                self.in_flight += 1;
                return t;
            }
        }
    }

    /// Pops the oldest pending command if `ready` accepts it.
    pub fn accept(&mut self, ready: impl FnOnce(&DramCmd) -> bool) -> Option<DramCmd> {
        match self.inbox.front() {
            Some(c) if ready(c) => self.inbox.pop_front(),
            _ => None,
        }
    }

    /// Retires `resp`'s tag and delivers a fill to the bank that asked
    /// for it. A corrupted tag names no command in flight and the fill
    /// is lost (the L2/threads hang), or collides with another request
    /// and delivers wrong data to the wrong line.
    pub fn complete(&mut self, sys: &mut System, resp: DramResp) {
        let Some(slot) = self.routes.get_mut(resp.tag as usize) else {
            return;
        };
        let route = std::mem::replace(slot, TagRoute::Free);
        if route != TagRoute::Free {
            self.in_flight -= 1;
        }
        if let (TagRoute::Fill(bank, line), false) = (route, resp.is_writeback_ack) {
            sys.deliver_fill(bank, line, resp.data);
        }
    }

    /// True when no command is pending or in flight.
    pub fn idle(&self) -> bool {
        self.inbox.is_empty() && self.in_flight == 0
    }

    /// Serves the commands the controller never accepted functionally,
    /// against `sys`'s memory (forced detach).
    pub fn serve_stranded(&mut self, sys: &mut System) {
        for cmd in self.inbox.drain(..) {
            match cmd.kind {
                DramCmdKind::Fill => {
                    let data = sys.dram().read_line(cmd.line);
                    sys.deliver_fill(cmd.bank, cmd.line, data);
                }
                DramCmdKind::Writeback => sys.dram_mut().write_line(cmd.line, cmd.data),
            }
        }
    }
}

/// A DRAM controller with its overlay over the system's DRAM, which
/// holds the contents it wrote (Table 1's state for the MCU). The target
/// warms up on [`McuWarm`]'s plain fields.
#[derive(Debug)]
pub struct McuSide {
    mcu: Target<McuWarm>,
    ov: DramOverlay,
}

clone_in_place!(McuSide { mcu, ov });

impl Side for McuSide {
    type Flops = Mcu;

    fn flops(&mut self) -> &mut Mcu {
        self.mcu.flops()
    }

    fn as_flops(&self) -> Option<&Mcu> {
        self.mcu.as_flops()
    }

    fn refill_on_flops(&mut self, source: &Self) {
        let McuSide { mcu, ov } = source;
        self.mcu.refill_on_flops(mcu);
        self.ov.clone_from(ov);
    }

    fn cold(&mut self) -> Self {
        McuSide {
            mcu: Target::Flops(Mcu::new(self.flops().id())),
            ov: self.ov.clone(),
        }
    }

    /// The DRAM contents, in the overlay.
    fn arch_differs(&self, golden: &Self, base: &DramContents) -> bool {
        self.ov.differs(&golden.ov, base)
    }

    fn sample_telemetry(&self, rec: &mut Recorder) {
        let (rq, retq) = on_target!(&self.mcu, x => (x.rq_occupancy(), x.retq_occupancy()));
        rec.record_hist(names::H_Q_MCU_RQ, rq as u64);
        rec.record_hist(names::H_Q_MCU_RETQ, retq as u64);
    }
}

impl McuDriver {
    /// Attaches co-simulation for `mcu`: DRAM traffic of its two banks
    /// is diverted to the RTL model. The high-level uncore state (DRAM
    /// contents, Table 1) stays in place and is accessed through an
    /// overlay.
    pub fn attach(mut sys: System, mcu: McuId) -> Self {
        sys.set_intercept(InterceptMode::McuPair(mcu));
        let target = McuSide {
            mcu: Target::Warm(McuWarm::new(mcu), None),
            ov: DramOverlay::new(),
        };
        Driver::new(sys, DramPort::default(), target)
    }
}

impl Component for DramPort {
    type Side = McuSide;
    /// Whether the controller takes the command at the head of the
    /// inbox, which depends on its kind; `None` when none waits.
    type Gate = Option<bool>;
    /// The command accepted this cycle.
    type Inputs = Option<DramCmd>;
    type Outputs = McuOutputs;

    fn attach_instance(sys: System, instance: usize) -> McuDriver {
        McuDriver::attach(sys, McuId::new(instance % NUM_MCUS))
    }

    fn reattach(&mut self, sys: &mut System, target: &mut McuSide, instance: usize) {
        let mcu = McuId::new(instance % NUM_MCUS);
        sys.set_intercept(InterceptMode::McuPair(mcu));
        let (_, flops) = target.mcu.take();
        target.mcu = Target::Warm(McuWarm::new(mcu), flops);
        target.ov.clear();
        self.inbox.clear();
        self.routes = [TagRoute::Free; DRAM_TAGS];
        self.in_flight = 0;
        self.next_tag = 0;
    }

    fn kept(spares: &mut Spares) -> &mut Kept<Self> {
        kept_as!(spares, Mcu)
    }

    /// Moves the DRAM traffic `sys` emitted this cycle into the inbox,
    /// one fresh tag per command.
    fn intake(&mut self, sys: &mut System) {
        while let Some(msg) = sys.pop_outbox() {
            let cmd = match msg {
                OutMsg::DramFill { bank, line } => {
                    DramCmd::fill(self.issue(TagRoute::Fill(bank, line)), bank, line)
                }
                OutMsg::DramWriteback { bank, line, data } => {
                    DramCmd::writeback(self.issue(TagRoute::Writeback), bank, line, data)
                }
                other => unreachable!("unexpected outbox message {other:?}"),
            };
            self.inbox.push_back(cmd);
        }
    }

    fn admits(&self, side: &McuSide, _cyc: u64) -> Option<bool> {
        let cmd = self.inbox.front()?;
        let is_writeback = cmd.kind == DramCmdKind::Writeback;
        Some(on_target!(&side.mcu, x => x.ready(is_writeback)))
    }

    fn take(&mut self, gate: &Option<bool>) -> Option<DramCmd> {
        self.accept(|_| *gate == Some(true))
    }

    /// The controller reads and writes memory through its overlay.
    fn tick(side: &mut McuSide, cmd: &Self::Inputs, mem: &DramContents, _: u64) -> McuOutputs {
        let mut be = OverlayBackend::new(mem, &mut side.ov);
        let inp = McuInputs { cmd: cmd.clone() };
        on_target!(&mut side.mcu, x => x.tick(&inp, &mut be))
    }

    /// The response, which completes a command at the system.
    fn flags(out: &McuOutputs, other: &McuOutputs) -> bool {
        out.resp != other.resp
    }

    fn deliver(&mut self, sys: &mut System, _target: &mut McuSide, out: &McuOutputs, _cyc: u64) {
        if let Some(resp) = &out.resp {
            self.complete(sys, resp.clone());
        }
    }

    fn drained(&self, side: &McuSide, sys: &System) -> bool {
        self.idle() && on_target!(&side.mcu, x => x.idle()) && sys.waiting_on_uncore() == 0
    }

    /// The DRAM contents are the controller's only state (Table 1), and
    /// they are in the overlay: the target's model is dropped as it is.
    fn transfer(
        &mut self,
        sys: &mut System,
        target: &mut McuSide,
        golden: Option<&McuSide>,
    ) -> Vec<LineAddr> {
        let corrupted = golden.map_or_else(Vec::new, |g| target.ov.diff_lines(&g.ov, sys.dram()));
        target.ov.apply_to(sys.dram_mut());
        corrupted
    }

    fn release(&mut self, sys: &mut System, _target: &McuSide) {
        self.serve_stranded(sys);
    }
}

// ─────────────────────────── CCX ───────────────────────────

/// The crossbar. It has no architectural state (Table 1): the target
/// warms up on [`CcxWarm`]'s packets.
#[derive(Debug)]
pub struct CcxSide {
    xbar: Target<CcxWarm>,
}

clone_in_place!(CcxSide { xbar });

impl Side for CcxSide {
    type Flops = Ccx;

    fn flops(&mut self) -> &mut Ccx {
        self.xbar.flops()
    }

    fn as_flops(&self) -> Option<&Ccx> {
        self.xbar.as_flops()
    }

    fn refill_on_flops(&mut self, source: &Self) {
        let CcxSide { xbar } = source;
        self.xbar.refill_on_flops(xbar);
    }

    fn cold(&mut self) -> Self {
        self.flops();
        CcxSide {
            xbar: Target::Flops(Ccx::new()),
        }
    }

    /// The crossbar's ticks read its flops and inputs alone, and flops
    /// identical to a fault-free crossbar's hold packets.
    fn recover(&mut self) -> bool {
        let Some(x) = self.xbar.as_flops() else {
            return false;
        };
        let warm = CcxWarm::from_ccx(x);
        let (_, flops) = self.xbar.take();
        self.xbar = Target::Warm(warm, flops);
        true
    }

    /// None: clean or benign is exitable.
    fn arch_differs(&self, _golden: &Self, _base: &DramContents) -> bool {
        false
    }

    fn sample_telemetry(&self, rec: &mut Recorder) {
        let (pcx, cpx) = on_target!(&self.xbar, x => (x.pcx_occupancy(), x.cpx_occupancy()));
        rec.record_hist(names::H_Q_CCX_PCX, pcx as u64);
        rec.record_hist(names::H_Q_CCX_CPX, cpx as u64);
    }
}

/// The cycle a functional bank's reply to a request served at cycle
/// `cyc` is due back at the crossbar: [`COSIM_BANK_LATENCY`] after a hit
/// on a `resident` line, and as much later after a miss as accelerated
/// mode charges a miss over a hit (`L2_MISS_LATENCY − L2_HIT_LATENCY`),
/// so a co-simulated crossbar cycle carries one cycle of the program.
pub fn bank_reply_due(cyc: u64, resident: bool) -> u64 {
    let miss = if resident {
        0
    } else {
        L2_MISS_LATENCY - L2_HIT_LATENCY
    };
    cyc + COSIM_BANK_LATENCY + miss
}

/// The engine side of the crossbar: each core's requests and each
/// bank's replies waiting for a free crossbar port, with what a cycle
/// reads of them kept beside them, so that it visits only the ports
/// whose packet is there to take.
#[derive(Debug)]
pub struct CcxPort {
    core_q: [VecDeque<PcxPacket>; NUM_CORES],
    /// Functional-bank replies to hits and to misses, each with the
    /// cycle it is due ([`bank_reply_due`]). A class has one latency, so
    /// each queue is in due order; a bank's next reply is the earlier
    /// head, the miss on a tie (it was served first), so a hit is not
    /// held behind an earlier miss.
    bank_q: [[VecDeque<(u64, CpxPacket)>; 2]; NUM_L2_BANKS],
    /// Bit `c`: `core_q[c]` holds a request.
    requests: u8,
    /// When each bank's next reply is due; `u64::MAX` when it has none.
    head_due: [u64; NUM_L2_BANKS],
}

impl Default for CcxPort {
    /// Queues that need not grow: a core's holds at most one request per
    /// thread, and a bank's of one kind seldom more than twice its share
    /// of the threads'.
    fn default() -> Self {
        let replies = || VecDeque::with_capacity(2 * NUM_THREADS / NUM_L2_BANKS);
        CcxPort {
            core_q: std::array::from_fn(|_| VecDeque::with_capacity(THREADS_PER_CORE)),
            bank_q: std::array::from_fn(|_| [replies(), replies()]),
            requests: 0,
            head_due: [u64::MAX; NUM_L2_BANKS],
        }
    }
}

clone_in_place!(CcxPort {
    core_q,
    bank_q,
    requests,
    head_due
});

impl CcxDriver {
    /// Attaches crossbar co-simulation: every core request flows
    /// through the RTL crossbar; the L2 banks stay functional. The
    /// crossbar has no high-level state to transfer (Table 1), so
    /// warm-up alone reconstructs it (footnote 4 of the paper).
    pub fn attach(mut sys: System) -> Self {
        sys.set_intercept(InterceptMode::AllRequests);
        let target = CcxSide {
            xbar: Target::Warm(CcxWarm::new(), None),
        };
        Driver::new(sys, CcxPort::default(), target)
    }
}

impl CcxPort {
    /// A bit per port, at its [`Gate`](Component::Gate) position, whose
    /// packet is there to take in cycle `cyc`.
    fn waiting(&self, cyc: u64) -> u16 {
        let due = (self.head_due.iter().enumerate())
            .fold(0u16, |m, (k, &d)| m | u16::from(d <= cyc) << k);
        u16::from(self.requests) | due << NUM_CORES
    }

    /// The ports of `waiting` that the crossbar's readiness, as
    /// `core_ready` and `bank_ready` tell it, admits.
    #[inline]
    fn admit(
        mut waiting: u16,
        core_ready: impl Fn(usize) -> bool,
        bank_ready: impl Fn(usize) -> bool,
    ) -> u16 {
        let mut gate = 0;
        while waiting != 0 {
            let port = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            let open = match port.checked_sub(NUM_CORES) {
                None => core_ready(port),
                Some(k) => bank_ready(k),
            };
            gate |= u16::from(open) << port;
        }
        gate
    }

    /// Which of bank `k`'s two queues holds its next reply: the miss
    /// queue (1) unless the hit queue's head is due sooner.
    fn next_of(&self, k: usize) -> usize {
        let due = |q: &VecDeque<(u64, CpxPacket)>| q.front().map_or(u64::MAX, |(d, _)| *d);
        let [hits, misses] = &self.bank_q[k];
        usize::from(due(misses) <= due(hits))
    }

    /// Takes bank `k`'s next reply and notes when the one after it is
    /// due in `head_due`.
    fn pop_reply(&mut self, k: usize) -> Option<CpxPacket> {
        let reply = self.bank_q[k][self.next_of(k)].pop_front();
        let next = &self.bank_q[k][self.next_of(k)];
        self.head_due[k] = next.front().map_or(u64::MAX, |(d, _)| *d);
        reply.map(|(_, p)| p)
    }
}

impl Component for CcxPort {
    type Side = CcxSide;
    /// One bit per port whose waiting packet the crossbar takes: the
    /// cores' request ports low, the banks' return ports above them.
    type Gate = u16;
    type Inputs = CcxInputs;
    type Outputs = CcxOutputs;

    fn attach_instance(sys: System, _instance: usize) -> CcxDriver {
        CcxDriver::attach(sys)
    }

    fn reattach(&mut self, sys: &mut System, target: &mut CcxSide, _instance: usize) {
        sys.set_intercept(InterceptMode::AllRequests);
        let (_, flops) = target.xbar.take();
        target.xbar = Target::Warm(CcxWarm::new(), flops);
        for q in &mut self.core_q {
            q.clear();
        }
        for q in self.bank_q.as_flattened_mut() {
            q.clear();
        }
        self.requests = 0;
        self.head_due = [u64::MAX; NUM_L2_BANKS];
    }

    fn kept(spares: &mut Spares) -> &mut Kept<Self> {
        kept_as!(spares, Ccx)
    }

    fn intake(&mut self, sys: &mut System) {
        while let Some(msg) = sys.pop_outbox() {
            match msg {
                OutMsg::Pcx(p) => {
                    let c = p.thread.core().index();
                    self.core_q[c].push_back(p);
                    self.requests |= 1 << c;
                }
                other => unreachable!("unexpected outbox message {other:?}"),
            }
        }
    }

    /// Reads a port's FIFO occupancy only if its packet is there to
    /// take.
    fn admits(&self, side: &CcxSide, cyc: u64) -> u16 {
        let waiting = self.waiting(cyc);
        if waiting == 0 {
            return 0;
        }
        on_target!(&side.xbar, x => {
            CcxPort::admit(waiting, |c| x.core_ready(c), |k| x.bank_ready(k))
        })
    }

    fn take(&mut self, gate: &u16) -> CcxInputs {
        let mut inp = CcxInputs::default();
        let mut open = *gate;
        while open != 0 {
            let port = open.trailing_zeros() as usize;
            open &= open - 1;
            match port.checked_sub(NUM_CORES) {
                None => {
                    let q = &mut self.core_q[port];
                    inp.from_cores[port] = q.pop_front();
                    self.requests &= !(u8::from(q.is_empty()) << port);
                }
                Some(k) => inp.from_banks[k] = self.pop_reply(k),
            }
        }
        inp
    }

    fn tick(side: &mut CcxSide, inp: &CcxInputs, _: &DramContents, _: u64) -> CcxOutputs {
        // The banks are functional and always take a request.
        let all_ready = [true; NUM_L2_BANKS];
        on_target!(&mut side.xbar, x => x.tick(inp, &all_ready))
    }

    /// Only *return packets to the processor cores*. A load request's
    /// data lanes are don't-care, so comparing requests over-counts; real
    /// consequences of a corrupted request (wrong data, memory
    /// corruption) surface through the served values and the final
    /// output digest.
    fn flags(out: &CcxOutputs, other: &CcxOutputs) -> bool {
        out.to_cores != other.to_cores
    }

    /// The packets to the cores and to the banks.
    fn seen(out: &CcxOutputs, other: &CcxOutputs) -> bool {
        out.to_cores != other.to_cores || out.to_banks != other.to_banks
    }

    fn deliver(&mut self, sys: &mut System, _target: &mut CcxSide, out: &CcxOutputs, cyc: u64) {
        let mut requests = present(&out.to_banks);
        while requests != 0 {
            let k = requests.trailing_zeros() as usize;
            requests &= requests - 1;
            let Some(p) = &out.to_banks[k] else { continue };
            // Functional bank service (the banks remain high-level
            // during CCX co-simulation); the response re-enters the
            // crossbar on the port it came out of, once it is due.
            let (reply, resident) = sys.service_request_functionally(p);
            let due = bank_reply_due(cyc, resident);
            self.bank_q[k][usize::from(!resident)].push_back((due, reply));
            self.head_due[k] = self.head_due[k].min(due);
        }
        let mut replies = present(&out.to_cores);
        while replies != 0 {
            let c = replies.trailing_zeros() as usize;
            replies &= replies - 1;
            if let Some(p) = out.to_cores[c] {
                sys.deliver_cpx(p);
            }
        }
    }

    fn drained(&self, side: &CcxSide, sys: &System) -> bool {
        on_target!(&side.xbar, x => x.idle())
            && self.requests == 0
            && self.head_due == [u64::MAX; NUM_L2_BANKS]
            && sys.waiting_on_uncore() == 0
    }

    /// Nothing: the crossbar has no state to transfer back (Table 1), so
    /// the target is dropped as it is.
    fn transfer(&mut self, _: &mut System, _: &mut CcxSide, _: Option<&CcxSide>) -> Vec<LineAddr> {
        Vec::new()
    }

    /// What the wedged crossbar left in the engine-side queues is served
    /// functionally.
    fn release(&mut self, sys: &mut System, _target: &CcxSide) {
        for p in self.core_q.iter_mut().flat_map(|q| q.drain(..)) {
            let (reply, _) = sys.service_request_functionally(&p);
            sys.deliver_cpx(reply);
        }
        for k in 0..NUM_L2_BANKS {
            while let Some(p) = self.pop_reply(k) {
                sys.deliver_cpx(p);
            }
        }
        self.requests = 0;
    }
}

// ─────────────────────────── PCIe ──────────────────────────

/// The DMA engine with its private memory view: an overlay over system
/// memory that its writes land in. A target's holds one tick's writes,
/// until they reach system memory; a golden's and a lane's keep theirs.
#[derive(Debug)]
pub struct PcieSide {
    engine: Pcie,
    ov: DramOverlay,
}

clone_in_place!(PcieSide { engine, ov });

impl PcieSide {
    /// The engine resuming `sys`'s transfer from its architectural
    /// progress point (Table 1 state transfer), with nothing in its
    /// memory, in place.
    fn attach(&mut self, sys: &System) {
        let (pos, active) = sys.dma_progress();
        let desc = sys.dma_descriptor();
        (self.engine).resume(desc.dst.raw(), desc.len, desc.stream_seed, pos, active);
        self.ov.clear();
    }
}

impl Side for PcieSide {
    type Flops = Pcie;

    fn flops(&mut self) -> &mut Pcie {
        &mut self.engine
    }

    fn as_flops(&self) -> Option<&Pcie> {
        Some(&self.engine)
    }

    fn cold(&mut self) -> Self {
        let mut engine = Pcie::new();
        engine.load_arch(self.engine.arch());
        PcieSide {
            engine,
            ov: DramOverlay::new(),
        }
    }

    /// Architectural DMA progress is frame-granular; snapshotting
    /// mid-frame would leave the cold copy permanently skewed by the
    /// re-streamed partial frame.
    fn at_cold_boundary(&self) -> bool {
        let a = self.engine.arch();
        !a.active || a.pos.is_multiple_of(64)
    }

    /// The staging buffers. Memory is not compared: the divergence
    /// monitor compares every write instead.
    fn arch_differs(&self, golden: &Self, _base: &DramContents) -> bool {
        self.engine.buffer_diff(&golden.engine) > 0
    }

    fn sample_telemetry(&self, rec: &mut Recorder) {
        rec.record_hist(names::H_Q_PCIE_BUF, self.engine.buffer_occupancy() as u64);
    }
}

/// The engine side of the PCIe DMA engine: the lines where the target's
/// writes and the golden's disagreed.
#[derive(Debug, Default)]
pub struct PciePort {
    corrupted: Vec<LineAddr>,
}

clone_in_place!(PciePort { corrupted });

/// One cycle of a PCIe side: the engine's outputs, and what the cycle
/// left in the line it drained a frame into and in the doorbell line
/// it wrote on completion, the last line it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcieTick {
    out: PcieOutputs,
    drained: Option<(LineAddr, [u64; 8])>,
    last: Option<(LineAddr, [u64; 8])>,
}

impl PcieDriver {
    /// Attaches PCIe co-simulation: the functional DMA engine is
    /// suspended and the RTL engine resumes the transfer from the
    /// architectural progress point (Table 1 state transfer).
    pub fn attach(mut sys: System) -> Self {
        let mut target = PcieSide {
            engine: Pcie::new(),
            ov: DramOverlay::new(),
        };
        target.attach(&sys);
        sys.set_intercept(InterceptMode::PcieDma);
        Driver::new(sys, PciePort::default(), target)
    }
}

impl Component for PciePort {
    type Side = PcieSide;
    /// The engine takes no inputs from the port.
    type Gate = ();
    type Inputs = ();
    type Outputs = PcieTick;

    fn attach_instance(sys: System, _instance: usize) -> PcieDriver {
        PcieDriver::attach(sys)
    }

    fn reattach(&mut self, sys: &mut System, target: &mut PcieSide, _instance: usize) {
        target.attach(sys);
        sys.set_intercept(InterceptMode::PcieDma);
        self.corrupted.clear();
    }

    fn kept(spares: &mut Spares) -> &mut Kept<Self> {
        kept_as!(spares, Pcie)
    }

    /// The engine takes no traffic from the system.
    fn intake(&mut self, _sys: &mut System) {}

    fn admits(&self, _side: &PcieSide, _cyc: u64) {}

    fn take(&mut self, _gate: &()) {}

    fn tick(side: &mut PcieSide, _: &(), mem: &DramContents, _: u64) -> PcieTick {
        let out = (side.engine).tick(&mut OverlayBackend::new(mem, &mut side.ov));
        let left = |line: LineAddr| (line, side.ov.read_line(mem, line));
        let drained = out.wrote.map(|a| left(a.line()));
        let last = if out.completed {
            Some(left(doorbell_addr().line()))
        } else {
            drained
        };
        PcieTick { out, drained, last }
    }

    /// A write or the completion, as the monitor compares them: each
    /// side's drained line against the other's, its last line against
    /// the other's, and what the cycle left in each. A completion cycle
    /// may drain the final frame too, so both pairs are compared.
    fn flags(out: &PcieTick, other: &PcieTick) -> bool {
        out.drained != other.drained
            || out.last != other.last
            || out.out.completed != other.out.completed
    }

    /// The lines of each pair [`flags`](Self::flags) found different.
    fn diverged(&mut self, out: &PcieTick, golden: &PcieTick) {
        for (t, g) in [(out.drained, golden.drained), (out.last, golden.last)] {
            if t != g {
                self.corrupted
                    .extend(t.into_iter().chain(g).map(|(line, _)| line));
            }
        }
    }

    /// The target's writes reach system memory coherently, in order.
    fn deliver(&mut self, sys: &mut System, target: &mut PcieSide, out: &PcieTick, _cyc: u64) {
        let doorbell = out.last.filter(|_| out.out.completed);
        for (line, data) in out.drained.into_iter().chain(doorbell) {
            sys.coherent_dma_write(line, data);
        }
        target.ov.clear();
    }

    /// The engine does not serve core requests; nothing can be stranded
    /// by detaching at a state-converged point.
    fn drained(&self, _side: &PcieSide, _sys: &System) -> bool {
        true
    }

    /// The lines the divergence monitor saw written differently.
    fn transfer(
        &mut self,
        _: &mut System,
        _: &mut PcieSide,
        _: Option<&PcieSide>,
    ) -> Vec<LineAddr> {
        std::mem::take(&mut self.corrupted)
    }

    /// The functional engine resumes from the target's drain point.
    fn release(&mut self, sys: &mut System, target: &PcieSide) {
        let arch = target.engine.arch();
        sys.resume_dma(arch.drain_pos, arch.active);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nestsim_hlsim::workload::by_name;
    use nestsim_hlsim::SystemConfig;
    use nestsim_models::pcie::PcieArchState;
    use nestsim_proto::addr::McuId;

    thread_local! {
        /// Cycles the system under a driver ran on this thread after its
        /// attach (warm-up and co-simulation alike), by where the target
        /// was (`[flops, fault-free model]`) and then whether a golden
        /// lived (`[none, live]`).
        static STEPS: std::cell::Cell<[[u64; 2]; 2]> = const { std::cell::Cell::new([[0; 2]; 2]) };
        /// Targets converted from their fault-free model to flops on this
        /// thread.
        pub(crate) static CONVERSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Notes the cycle `drv`'s system is about to run.
    pub(super) fn stepped<C: Component>(drv: &Driver<C>) {
        let (warm, live) = (
            drv.holds_warm(),
            drv.golden.is_some() && !drv.golden_retired,
        );
        STEPS.with(|n| {
            let mut steps = n.get();
            steps[usize::from(warm)][usize::from(live)] += 1;
            n.set(steps);
        });
    }

    /// [`STEPS`] as it stands.
    pub(crate) fn steps() -> [[u64; 2]; 2] {
        STEPS.with(std::cell::Cell::get)
    }

    /// Gives this thread an empty pool of parked storage of its own, as
    /// if it were alone in its process: what it parks, only it takes.
    pub(crate) fn own_pool() {
        let pool = Box::leak(Box::new(Mutex::new(Parked::EMPTY)));
        OWN_POOL.with(|own| own.set(Some(pool)));
    }

    impl<C: Component> Driver<C> {
        /// Whether the target is on its fault-free model.
        pub(crate) fn holds_warm(&self) -> bool {
            self.target.as_flops().is_none()
        }

        /// The target's flops, once it holds them.
        pub(crate) fn target(&self) -> Option<&<C::Side as Side>::Flops> {
            self.target.as_flops()
        }

        /// The golden's flops, from the snapshot on.
        pub(crate) fn golden(&self) -> Option<&<C::Side as Side>::Flops> {
            self.golden.as_ref().and_then(Side::as_flops)
        }
    }

    fn sys_at(bench: &str, cycle: u64) -> System {
        let mut sys = System::new(SystemConfig::smoke_test(by_name(bench).unwrap()));
        sys.run_until(cycle);
        sys
    }

    fn drive_checked<D: CosimDriver>(mut drv: D, cycles: u64) -> D {
        for _ in 0..cycles {
            drv.step();
            assert!(drv.sys().trap().is_none(), "error-free co-sim trapped");
        }
        drv
    }

    /// Fault-free co-simulation of `component` never tells target from
    /// golden: no flop, traffic or architectural difference, and no
    /// output divergence.
    fn assert_uninjected_cosim_stays_identical(
        component: nestsim_models::ComponentKind,
        bench: &str,
        attach_at: u64,
        warmup: u64,
        cycles: u64,
    ) {
        on_component!(component, C => {
            let mut drv = C::attach_instance(sys_at(bench, attach_at), 0);
            for _ in 0..warmup {
                drv.step();
            }
            drv.snapshot_golden();
            let drv = drive_checked(drv, cycles);
            assert_eq!(drv.check(), CosimCheck::Identical, "{component}");
            assert!(drv.erroneous_output().is_none(), "{component}");
        });
    }

    #[test]
    fn l2c_uninjected_cosim_stays_identical() {
        assert_uninjected_cosim_stays_identical(
            nestsim_models::ComponentKind::L2c,
            "radi",
            500,
            500,
            1_000,
        );
    }

    #[test]
    fn mcu_uninjected_cosim_stays_identical() {
        assert_uninjected_cosim_stays_identical(
            nestsim_models::ComponentKind::Mcu,
            "fft",
            500,
            500,
            1_000,
        );
    }

    #[test]
    fn ccx_uninjected_cosim_stays_identical() {
        assert_uninjected_cosim_stays_identical(
            nestsim_models::ComponentKind::Ccx,
            "lu-c",
            500,
            500,
            1_000,
        );
    }

    #[test]
    fn pcie_uninjected_cosim_stays_identical() {
        // PCIe attaches while its DMA is active.
        assert_uninjected_cosim_stays_identical(
            nestsim_models::ComponentKind::Pcie,
            "p-lr",
            200,
            200,
            2_000,
        );
    }

    /// One scalar run of `component` on `bench` with `bit` of `field`
    /// flipped, whose golden never retires: the warm-up stays on the
    /// fault-free model, every cycle after the flip runs on flops beside
    /// a live golden, and the run converts to flops once. (A crossbar run
    /// whose outputs differed goes back to packets once it checks
    /// `Identical`: `a_retired_golden_changes_nothing_the_run_puts_out`.)
    /// Every identity suite passes whichever model a target runs on, so
    /// only this notices when one of those stops holding.
    fn assert_on_flops_only_while_the_golden_lives(
        component: nestsim_models::ComponentKind,
        bench: &str,
        (field, bit): (&str, usize),
    ) {
        use crate::campaign::{component_flops, golden_reference, CampaignSpec};
        use crate::inject::{finish, warm, InjectionSpec};
        use std::cell::Cell;

        let profile = by_name(bench).unwrap();
        let (base, golden) = golden_reference(profile, &CampaignSpec::quick(component, 1));
        let spec = InjectionSpec {
            component,
            instance: 0,
            bit: component_flops(component).named_bit(field, bit),
            inject_cycle: 2_000,
            warmup: 1_000,
            cosim_cap: 4_000,
            check_interval: 16,
        };
        let before = CONVERSIONS.with(Cell::get);
        let (record, stepped) = on_component!(component, C => {
            let w = warm::<C>(&base, &golden, &spec, None);
            assert!(w.driver.holds_warm(), "{component}: the warm-up ran on flops");
            assert_eq!(CONVERSIONS.with(Cell::get), before, "{component}");
            let stepped = steps();
            let post = &mut crate::inject::PostFlipStats::default();
            (finish(w, &golden, &spec, &mut Recorder::null(), post).0, stepped)
        });
        let conversions = CONVERSIONS.with(Cell::get) - before;
        // Only the cycles after the flip.
        let [[flops_none, flops_live], [warm_none, warm_live]] =
            std::array::from_fn(|w| std::array::from_fn(|l| steps()[w][l] - stepped[w][l]));
        println!(
            "{component} {record:?}: live golden {flops_live} on flops, {warm_live} warm; \
             no golden {warm_none} warm, {flops_none} on flops"
        );
        assert_eq!(
            conversions, 1,
            "{component}: the run converted to flops {conversions} times"
        );
        assert!(
            flops_live > 0,
            "{component}: no cycle ran beside a live golden"
        );
        assert_eq!(
            (warm_live, warm_none + flops_none),
            (0, 0),
            "{component}: cycles after the flip ran on the fault-free model or without a golden"
        );
    }

    /// A crossbar run whose outputs differed from its golden's, and whose
    /// target then checked `Identical`, goes back to packets and ticks
    /// alone ([`Driver::retire_golden`]). From there on it puts out, and
    /// leaves its system with, what the same run that kept ticking its
    /// golden on flops does, every cycle to the program's end.
    #[test]
    fn a_retired_golden_changes_nothing_the_run_puts_out() {
        use crate::campaign::{draw_samples, golden_reference, CampaignSpec};
        use crate::inject::warm;
        use nestsim_models::ComponentKind;

        let ended = |d: &CcxDriver| d.sys.all_halted() && d.drained() || d.sys.trap().is_some();
        let observe = |d: &CcxDriver| {
            let sys = &d.sys;
            let threads = sys.thread_state_summary();
            (
                sys.cycle(),
                sys.output_digest(),
                threads,
                sys.waiting_on_uncore(),
            )
        };
        let mut retired = 0;
        for bench in ["flui", "stre"] {
            let profile = by_name(bench).unwrap();
            let spec = CampaignSpec::quick(ComponentKind::Ccx, 96);
            let (base, golden) = golden_reference(profile, &spec);
            for sample in draw_samples(profile, &spec, &golden) {
                let mut kept = warm::<CcxPort>(&base, &golden, &sample, None).driver;
                kept.snapshot(None);
                kept.inject(sample.bit);
                // On to the first `Identical` compare after an output
                // differed, where a campaign's run retires its golden.
                let mut k = 0;
                let gone = loop {
                    if k == sample.cosim_cap || ended(&kept) {
                        break None;
                    }
                    step_out(&mut kept);
                    k += 1;
                    let at_check = k % sample.check_interval == 0;
                    if at_check && kept.check() == CosimCheck::Identical {
                        if kept.outputs_matched() {
                            break None;
                        }
                        let mut gone = kept.clone();
                        gone.retire_golden();
                        break Some(gone);
                    }
                };
                let Some(mut gone) = gone else { continue };
                assert!(
                    gone.golden_retired && gone.holds_warm(),
                    "{bench} {sample:?}"
                );
                retired += 1;
                while k < sample.cosim_cap && !ended(&kept) {
                    let want = step_out(&mut kept);
                    assert_eq!(step_out(&mut gone), want, "{bench} {sample:?}: cycle {k}");
                    k += 1;
                }
                assert_eq!(observe(&gone), observe(&kept), "{bench} {sample:?}");
                assert_eq!(gone.drained(), kept.drained(), "{bench} {sample:?}");
            }
        }
        println!("{retired} runs retired their golden");
        assert!(retired >= 2, "only {retired} runs retired their golden");
    }

    #[test]
    fn ccx_runs_on_flops_only_while_the_golden_lives() {
        assert_on_flops_only_while_the_golden_lives(
            nestsim_models::ComponentKind::Ccx,
            "stre",
            ("pcx0[0].addr", 6),
        );
    }

    #[test]
    fn mcu_runs_on_flops_only_while_the_golden_lives() {
        assert_on_flops_only_while_the_golden_lives(
            nestsim_models::ComponentKind::Mcu,
            "fft",
            ("bank[3].timer", 1),
        );
    }

    #[test]
    fn dram_port_tags_skip_live_ones_and_wrap() {
        let mut sys = sys_at("fft", 0);
        let mut port = DramPort::default();
        assert!(port.idle());
        let ack = |tag: u32, is_writeback_ack: bool| DramResp {
            tag,
            bank: BankId::new(0),
            line: LineAddr::new(8),
            data: [7; 8],
            is_writeback_ack,
        };
        // Tags count up from 0 and every one is taken.
        let fill = TagRoute::Fill(BankId::new(0), LineAddr::new(8));
        for want in 0..DRAM_TAGS as u32 {
            let route = if want == 5 { fill } else { TagRoute::Writeback };
            assert_eq!(port.issue(route), want);
        }
        assert_eq!(port.in_flight, DRAM_TAGS);
        // Acks free tags 5 and 9; the count wraps to 0 and skips the live
        // tags up to the first free one.
        port.complete(&mut sys, ack(9, true));
        port.complete(&mut sys, ack(5, false));
        assert_eq!(port.in_flight, DRAM_TAGS - 2);
        assert_eq!(port.issue(TagRoute::Writeback), 5);
        assert_eq!(port.issue(TagRoute::Writeback), 9);
        // Tag 5 acks once; acking it again, or a tag wider than the
        // flops, is a no-op.
        port.complete(&mut sys, ack(5, true));
        port.complete(&mut sys, ack(5, true));
        assert_eq!(port.in_flight, DRAM_TAGS - 1);
        assert_eq!(port.routes[5], TagRoute::Free);
        port.complete(&mut sys, ack(DRAM_TAGS as u32 + 1, true));
        assert_eq!(port.in_flight, DRAM_TAGS - 1);
        // The port is idle exactly when nothing is in flight.
        for tag in 0..DRAM_TAGS as u32 {
            assert!(!port.idle());
            port.complete(&mut sys, ack(tag, true));
        }
        assert!(port.idle() && port.in_flight == 0);
        assert_eq!(port.issue(TagRoute::Writeback), 10, "counting goes on");
    }

    #[test]
    fn l2c_warm_up_runs_on_images_and_the_run_on_flops() {
        // The scalar run, as for the crossbar. Then the lanes: only this
        // notices if a
        // lane batch converts more than its carrier, or its carrier stops
        // warming up on slot images. A lane that leaves for the scalar
        // path forks off the carrier, which holds flops by then.
        assert_on_flops_only_while_the_golden_lives(
            nestsim_models::ComponentKind::L2c,
            "stre",
            ("oq[3].data", 9),
        );

        use crate::campaign::{golden_reference, CampaignSpec};
        use crate::inject::InjectionSpec;
        use crate::lanes::{run_batch, LaneBatchStats};
        use nestsim_models::ComponentKind;

        let profile = by_name("stre").unwrap();
        let (base, golden) = golden_reference(profile, &CampaignSpec::quick(ComponentKind::L2c, 1));
        let named =
            |name: &str, bit: usize| L2cBank::new(BankId::new(0)).flops().named_bit(name, bit);
        let spec = InjectionSpec {
            component: ComponentKind::L2c,
            instance: 0,
            bit: named("iq[0].addr", 6),
            inject_cycle: 2_000,
            warmup: 1_000,
            cosim_cap: 4_000,
            check_interval: 16,
        };
        let samples: Vec<InjectionSpec> = [
            named("iq[0].addr", 6),
            named("bist.chain[0]", 0),
            named("oq[3].data", 9),
            named("iq.count", 1),
            named("mb[0].valid", 0),
            named("perf.hits", 2),
        ]
        .map(|bit| InjectionSpec { bit, ..spec })
        .into();
        let group: Vec<usize> = (0..samples.len()).collect();
        let before = CONVERSIONS.with(std::cell::Cell::get);
        let mut stats = LaneBatchStats::default();
        let mut kept = Kept::default();
        let warmed = crate::inject::warm::<L2cPort>(&base, &golden, &spec, None);
        let post = &mut crate::inject::PostFlipStats::default();
        let (runs, _) = run_batch(
            warmed,
            &golden,
            &samples,
            &group,
            None,
            (&mut stats, post),
            &mut kept,
        );
        let conversions = CONVERSIONS.with(std::cell::Cell::get) - before;
        assert_eq!(runs.len(), samples.len());
        assert!(
            stats.retired_early > 0 && stats.scalar_fallbacks > 0,
            "{stats:?}"
        );
        assert_eq!(
            conversions, 1,
            "{conversions} conversions for one carrier and {} leavers",
            stats.scalar_fallbacks
        );
    }

    /// One piece of the state an L2C `check` compares (DESIGN.md *What
    /// `check()` compares*), and the verdict a difference in it alone
    /// must give.
    #[derive(Debug, Clone, Copy)]
    enum Piece {
        /// A flop outside every benign payload: `Microarch`.
        Flop,
        /// One `L2BankArch` slot: `ArchMappable`.
        Slot,
        /// One overlay line: `ArchMappable`.
        Overlay,
        /// One DRAM-queue entry: `Microarch`.
        Queue,
    }

    impl Piece {
        const ALL: [Piece; 4] = [Piece::Flop, Piece::Slot, Piece::Overlay, Piece::Queue];

        fn verdict(self) -> CosimCheck {
            match self {
                Piece::Flop | Piece::Queue => CosimCheck::Microarch,
                Piece::Slot | Piece::Overlay => CosimCheck::ArchMappable,
            }
        }

        /// Changes this piece, and only it, on one side of a compare.
        fn perturb(self, side: &mut BankSide, base: &DramContents) {
            let bank = side.flops();
            match self {
                Piece::Flop => {
                    let bit = bank.flops().named_bit("iq.count", 0);
                    bank.flops_mut().flip(bit);
                }
                Piece::Slot => {
                    let mut arch = bank.arch().clone();
                    let addr = nestsim_proto::addr::PAddr::new(0);
                    arch.write_word_at(0, addr, !arch.read_word_at(0, addr));
                    bank.load_arch(arch);
                }
                Piece::Overlay => {
                    let line = LineAddr::new(0);
                    let mut data = side.ov.read_line(base, line);
                    data[0] = !data[0];
                    side.ov.write_line(line, data);
                }
                Piece::Queue => {
                    let cmd = DramCmd::fill(0, BankId::new(0), LineAddr::new(0));
                    side.dram.push(0, cmd);
                }
            }
        }
    }

    #[test]
    fn l2c_check_gives_each_compared_piece_its_verdict_for_driver_and_lane() {
        // The early Vanished exit is as sound as this table: a
        // difference in any one compared piece must keep the run out of
        // `Identical`. Both callers of the one L2C compare are held to
        // it: the scalar driver (the target differs from its golden twin)
        // and a batch (a lane differs from its carrier).
        let mut warmed = L2cDriver::attach(sys_at("radi", 500), BankId::new(0));
        for _ in 0..1_000 {
            warmed.step();
        }
        let mut scalar = warmed.clone();
        scalar.snapshot_golden();
        assert_eq!(scalar.check(), CosimCheck::Identical);
        let mut carrier = warmed;
        let lane = carrier.twin(None);
        assert_eq!(carrier.check_lane(&lane), CosimCheck::Identical);

        for piece in Piece::ALL {
            let mut drv = scalar.clone();
            piece.perturb(&mut drv.target, drv.sys.dram());
            assert_eq!(drv.check(), piece.verdict(), "driver, {piece:?}");

            let mut lane = carrier.twin(None);
            piece.perturb(&mut lane, carrier.sys.dram());
            let got = carrier.check_lane(&lane);
            assert_eq!(got, piece.verdict(), "lane, {piece:?}");
        }
    }

    /// What a run can leave in a port or a side that an attach starts
    /// without: queued traffic, tags in flight, lines in an overlay.
    trait Leftover {
        fn leftover(&self) -> usize;
    }

    impl Leftover for L2cPort {
        fn leftover(&self) -> usize {
            self.inbox.len()
        }
    }

    impl Leftover for DramPort {
        fn leftover(&self) -> usize {
            self.inbox.len() + self.in_flight
        }
    }

    impl Leftover for CcxPort {
        fn leftover(&self) -> usize {
            let queued = self.core_q.iter().map(VecDeque::len);
            queued
                .chain(self.bank_q.as_flattened().iter().map(VecDeque::len))
                .sum()
        }
    }

    impl Leftover for PciePort {
        fn leftover(&self) -> usize {
            self.corrupted.len()
        }
    }

    impl Leftover for BankSide {
        fn leftover(&self) -> usize {
            self.ov.written_lines() + self.dram.queue.len()
        }
    }

    impl Leftover for McuSide {
        fn leftover(&self) -> usize {
            self.ov.written_lines()
        }
    }

    /// The crossbar reaches no memory.
    impl Leftover for CcxSide {
        fn leftover(&self) -> usize {
            0
        }
    }

    impl Leftover for PcieSide {
        fn leftover(&self) -> usize {
            self.ov.written_lines()
        }
    }

    /// One cycle of `drv`, returning the target's outputs.
    fn step_out<C: Component>(drv: &mut Driver<C>) -> C::Outputs {
        let cyc = drv.run_system();
        drv.finish_cycle(cyc)
    }

    /// A base system, its golden reference and its profile.
    type Setup = (
        System,
        crate::inject::GoldenRef,
        &'static nestsim_hlsim::workload::BenchProfile,
    );

    /// A spec of `component` drawn on `setup`'s injection window.
    fn draw_spec(
        src: &mut nestsim_harness::Source,
        component: nestsim_models::ComponentKind,
        (_, golden, profile): &Setup,
        bits: &[usize],
    ) -> crate::inject::InjectionSpec {
        use crate::campaign::{injection_window, instances_of};
        let (lo, hi) = injection_window(component, profile, golden);
        crate::inject::InjectionSpec {
            component,
            instance: src.index(instances_of(component)),
            bit: bits[src.index(bits.len())],
            inject_cycle: src.range_u64(lo, hi),
            warmup: crate::inject::MIN_WARMUP + src.below(1_000),
            cosim_cap: [2_000, 2_000, 300][src.index(3)],
            check_interval: [16, 7][src.index(2)],
        }
    }

    /// How much of what a refill must clear the used drivers held.
    #[derive(Default)]
    struct Used {
        queued: std::cell::Cell<u64>,
        dirty: std::cell::Cell<u64>,
    }

    /// A driver as a run leaves it on `setup`: at its end, or stopped
    /// in co-simulation.
    fn used<C: Component + Leftover>(
        src: &mut nestsim_harness::Source,
        component: nestsim_models::ComponentKind,
        setup: &Setup,
        bits: &[usize],
        tally: &Used,
    ) -> Driver<C>
    where
        C::Side: Leftover,
    {
        use crate::inject::{finish, warm};
        let spec = draw_spec(src, component, setup, bits);
        let (base, golden, _) = setup;
        let warmed = warm::<C>(base, golden, &spec, None);
        let drv = if src.below(3) == 0 {
            let post = &mut crate::inject::PostFlipStats::default();
            finish(warmed, golden, &spec, &mut Recorder::null(), post).1
        } else {
            let mut drv = warmed.driver;
            drv.snapshot_golden();
            drv.inject(spec.bit);
            for _ in 0..src.below(400) {
                drv.step();
            }
            drv
        };
        let bump = |c: &std::cell::Cell<u64>, on: bool| c.set(c.get() + u64::from(on));
        bump(&tally.queued, drv.port.leftover() > 0);
        let dirty =
            drv.target.leftover() + drv.golden.iter().map(Leftover::leftover).sum::<usize>();
        bump(&tally.dirty, dirty > 0);
        drv
    }

    /// `used`, refilled from `setup` as a shard's next run refills it,
    /// against a fresh attach there: the same outputs, check, drain
    /// state and divergence record at every cycle of the warm-up, the
    /// flip and co-simulation, then the same corrupted lines and the same
    /// detached system.
    fn refill_matches_a_fresh_attach<C: Component>(
        src: &mut nestsim_harness::Source,
        component: nestsim_models::ComponentKind,
        mut used: Driver<C>,
        setup: &Setup,
        bits: &[usize],
    ) where
        C::Outputs: PartialEq + std::fmt::Debug,
    {
        let spec = draw_spec(src, component, setup, bits);
        let (base, golden, _) = setup;
        let entry = crate::campaign::entry_cycle(&spec);
        let to_entry = |sys: &mut System| {
            sys.set_watchdog(golden.watchdog());
            sys.run_until(entry);
        };
        let mut want = {
            let mut sys = base.clone();
            to_entry(&mut sys);
            C::attach_instance(sys, spec.instance)
        };
        used.sys.clone_from(base);
        to_entry(&mut used.sys);
        let spare = used.reattach(spec.instance);
        let mut got = used;

        let at = |what: &str, k: u64| format!("{component} {spec:?}: {what} cycle {k}");
        let same = |want: &mut Driver<C>, got: &mut Driver<C>, what: &str, k: u64| {
            assert_eq!(step_out(want), step_out(got), "{}: outputs", at(what, k));
            assert_eq!(want.cycle(), got.cycle(), "{}", at(what, k));
            assert_eq!(want.drained(), got.drained(), "{}: drained", at(what, k));
            let err = (want.erroneous_output(), got.erroneous_output());
            assert_eq!(err.0, err.1, "{}: erroneous output", at(what, k));
        };
        for k in 0..spec.warmup.max(crate::inject::MIN_WARMUP) {
            same(&mut want, &mut got, "warm-up", k);
        }
        want.snapshot_golden();
        got.snapshot(spare);
        for drv in [&mut want, &mut got] {
            drv.inject(spec.bit);
        }
        for k in 1..=spec.cosim_cap {
            same(&mut want, &mut got, "co-simulation", k);
            if want.sys.trap().is_some() || !k.is_multiple_of(spec.check_interval) {
                continue;
            }
            let check = want.check();
            assert_eq!(check, got.check(), "{}: check", at("co-simulation", k));
            if crate::inject::converged(check, want.outputs_matched(), || want.drained()) {
                break;
            }
        }
        let (want, got) = (want.detach(), got.detach());
        assert_eq!(want.corrupted_lines, got.corrupted_lines, "{component}");
        let (mut want, mut got) = (want.sys, got.sys);
        let observe = |sys: &System| {
            let banks = (0..NUM_L2_BANKS).map(|b| sys.bank_arch(BankId::new(b)).clone());
            (
                (sys.cycle(), sys.trap(), sys.waiting_on_uncore()),
                (
                    sys.output_digest(),
                    sys.first_taint_read(),
                    sys.dma_progress(),
                ),
                sys.thread_state_summary(),
                banks.collect::<Vec<_>>(),
            )
        };
        assert_eq!(
            observe(&want),
            observe(&got),
            "{component}: detached system"
        );
        assert!(want.dram() == got.dram(), "{component}: detached memory");
        assert_eq!(
            want.run_to_end(),
            got.run_to_end(),
            "{component}: run to end"
        );
    }

    #[test]
    fn refilled_driver_matches_a_fresh_attach() {
        // Every identity suite passes a refill that leaves a stale queue
        // behind whenever the runs it follows end drained; this starts
        // from drivers that did not: stopped in co-simulation, port and
        // overlays full, on another benchmark and instance than the
        // refill's.
        use crate::campaign::{golden_reference, injection_target_bits, CampaignSpec};
        use nestsim_harness::{check_with, Config};
        use nestsim_models::ComponentKind;

        let setup = |component: ComponentKind, bench: &str| -> Setup {
            let profile = by_name(bench).unwrap();
            let (base, golden) = golden_reference(profile, &CampaignSpec::quick(component, 1));
            (base, golden, profile)
        };
        let benches = [
            ["radi", "lu-c", "flui"],
            ["fft", "flui", "radi"],
            ["lu-c", "stre", "radi"],
            ["p-lr", "blsc", "p-sm"],
        ];
        let setups = ComponentKind::ALL.map(|c| benches[c as usize].map(|b| setup(c, b)));
        let bits = ComponentKind::ALL.map(injection_target_bits);
        let tallies: [Used; 4] = Default::default();
        let config = Config {
            max_shrink_iters: 16,
            ..Config::with_cases(16)
        };
        check_with(config, "refilled_driver_matches_a_fresh_attach", |src| {
            for (k, component) in ComponentKind::ALL.into_iter().enumerate() {
                let (setups, bits) = (&setups[k], &bits[k]);
                on_component!(component, C => {
                    let from = &setups[src.index(3)];
                    let used = used::<C>(src, component, from, bits, &tallies[k]);
                    let to = &setups[src.index(3)];
                    refill_matches_a_fresh_attach::<C>(src, component, used, to, bits);
                });
            }
        });
        for (component, t) in ComponentKind::ALL.into_iter().zip(&tallies) {
            let [queued, dirty] = [&t.queued, &t.dirty].map(std::cell::Cell::get);
            eprintln!(
                "{component}: refilled drivers with port queues full {queued}; \
                 overlays or queues dirty {dirty}"
            );
            // The PCIe engine takes no traffic from its port, and the
            // crossbar reaches no memory.
            if component != ComponentKind::Pcie {
                assert!(queued > 0, "{component}: no used port held traffic");
            }
            if component != ComponentKind::Ccx {
                assert!(dirty > 0, "{component}: no used side held memory");
            }
        }
    }

    #[test]
    fn pcie_golden_reads_memory_as_the_cycle_began() {
        // The target writes system memory coherently and the golden
        // reads it under its overlay, so the golden ticks first: it must
        // not read what the target writes in the same cycle. Here the
        // target drains a frame into the doorbell line in the cycle the
        // golden reads that line to ring the doorbell.
        use nestsim_proto::pcie::doorbell_addr;
        let mut drv = PcieDriver::attach(sys_at("p-lr", 200));
        let line = doorbell_addr().line();
        let before = drv.sys.dram().read_line(line);
        let arch = drv.target.engine.arch();
        let len = arch.len - arch.len % 64;
        let mut bufs = nestsim_arch::PcieBuffers::new();
        for i in 0..8 {
            bufs.rx_write(i, 0xdead_0000 + i as u64);
        }
        drv.target.engine = Pcie::new();
        drv.target.engine.load_arch(PcieArchState {
            bufs,
            dst: doorbell_addr().raw(),
            drain_pos: 0,
            occ: 1,
            rd_ptr: 0,
            active: false,
            ..arch.clone()
        });
        let mut golden = Pcie::new();
        golden.load_arch(PcieArchState {
            len,
            pos: len,
            occ: 0,
            active: true,
            ..arch
        });
        drv.golden = Some(PcieSide {
            engine: golden,
            ov: DramOverlay::new(),
        });
        drv.step();
        let written = drv.sys.dram().read_line(line);
        assert_eq!(
            written[2], 0xdead_0002,
            "the target drained nowhere near the doorbell"
        );
        let rung = drv
            .golden
            .as_ref()
            .unwrap()
            .ov
            .read_line(drv.sys.dram(), line);
        assert_eq!(rung[..2], [1, len], "the golden did not ring the doorbell");
        assert_eq!(
            rung[2..],
            before[2..],
            "the golden read the target's write of this cycle"
        );
    }

    #[test]
    fn l2c_address_flip_produces_arch_divergence() {
        use nestsim_models::UncoreRtl;
        let mut drv = L2cDriver::attach(sys_at("radi", 500), BankId::new(0));
        for _ in 0..1_500 {
            drv.step();
        }
        drv.snapshot_golden();
        // Corrupt a *resident cache line* via the golden-visible arch:
        // flip a data bit in a store sitting in the miss buffer if any;
        // fall back to an address bit of IQ entry 0.
        let target = drv
            .target()
            .expect("the golden snapshot converted the bank");
        let bit = target
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "iq[0].addr")
            .map(|f| f.offset + 8)
            .unwrap();
        drv.inject(bit);
        let mut saw_non_identical = false;
        for _ in 0..4_000 {
            drv.step();
            if drv.check() != CosimCheck::Identical {
                saw_non_identical = true;
                break;
            }
        }
        // The flip either mattered (divergence observed) or the entry
        // was idle (benign) — it must never be silently identical AND
        // flagged clean while bits differ.
        if !saw_non_identical {
            assert_eq!(
                drv.mismatch_fraction(),
                0.0,
                "identical check with differing bits"
            );
        }
    }

    #[test]
    fn mcu_detach_serves_stranded_fills_functionally() {
        let mut drv = McuDriver::attach(sys_at("fft", 500), McuId::new(0));
        // Accumulate some traffic, then detach mid-flight (forced).
        for _ in 0..300 {
            drv.step();
        }
        let waiting_before = drv.sys().waiting_on_uncore();
        let detach = drv.detach();
        let mut sys = detach.sys;
        // The stranded fills were completed functionally at detach (or
        // there were none).
        assert!(sys.waiting_on_uncore() <= waiting_before);
        sys.run_until(sys.cycle() + 5_000);
        assert!(sys.trap().is_none());
    }

    #[test]
    fn cosim_check_exitability_matrix() {
        assert!(CosimCheck::Identical.exitable());
        assert!(CosimCheck::BenignOnly.exitable());
        assert!(CosimCheck::ArchMappable.exitable());
        assert!(!CosimCheck::Microarch.exitable());
    }
}
