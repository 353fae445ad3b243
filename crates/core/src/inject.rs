//! One error-injection run: the Fig. 2 flow.

use nestsim_hlsim::{RunResult, SnapshotCost, System};
use nestsim_models::ComponentKind;
use nestsim_telemetry::{names, EventKind, ExitReason, Recorder, TelemetryConfig};

use crate::cosim::{on_component, Component, CosimCheck, CosimDriver, Driver};
use crate::outcome::Outcome;

/// Minimum warm-up length before injection (Sec. 2.2 / Sec. 4.1: at
/// least 1,000 cycles reconstructs the microarchitectural state).
pub const MIN_WARMUP: u64 = 1_000;
/// Default co-simulation cycle cap (Sec. 4.2).
pub const DEFAULT_COSIM_CAP: u64 = 100_000;
/// Default golden-comparison interval in cycles.
pub const DEFAULT_CHECK_INTERVAL: u64 = 16;
/// Watchdog margin added on top of 2× the error-free length.
pub const WATCHDOG_MARGIN: u64 = 50_000;

/// Reference data from the one-time error-free execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenRef {
    /// Error-free output digest.
    pub digest: u64,
    /// Error-free execution length in cycles.
    pub cycles: u64,
}

impl GoldenRef {
    /// The watchdog every faulty run is armed with: twice the error-free
    /// length plus [`WATCHDOG_MARGIN`].
    pub fn watchdog(&self) -> u64 {
        2 * self.cycles + WATCHDOG_MARGIN
    }

    /// The run-end verdict on a faulty run's application result (Fig. 2
    /// step 12): a trap is `Ut`, the watchdog `Hang`, the error-free
    /// output digest `Vanished` and any other output `Omm`.
    pub fn verdict(&self, result: &RunResult) -> Outcome {
        match *result {
            RunResult::Trapped { .. } => Outcome::Ut,
            RunResult::Hang { .. } => Outcome::Hang,
            RunResult::Completed { digest, .. } if digest == self.digest => Outcome::Vanished,
            RunResult::Completed { .. } => Outcome::Omm,
        }
    }
}

/// Parameters of one injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionSpec {
    /// Component under test.
    pub component: ComponentKind,
    /// Instance index (bank 0–7 for L2C, controller 0–3 for MCU;
    /// ignored for the single-instance CCX and PCIe).
    pub instance: usize,
    /// Global flop bit to flip.
    pub bit: usize,
    /// Cycle (accelerated time) at which the flip is injected.
    pub inject_cycle: u64,
    /// Warm-up cycles before injection (Sec. 2.2: at least
    /// [`MIN_WARMUP`], or from cycle 0 when the injection cycle is
    /// earlier). A campaign starts every warm-up on the
    /// [`grid`](crate::campaign::grid_entry).
    pub warmup: u64,
    /// Co-simulation cycle cap.
    pub cosim_cap: u64,
    /// Golden-comparison interval.
    pub check_interval: u64,
}

/// What one injection run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Application-level outcome.
    pub outcome: Outcome,
    /// The flipped bit.
    pub bit: usize,
    /// Injection cycle.
    pub inject_cycle: u64,
    /// Co-simulation cycles spent after injection.
    pub cosim_cycles: u64,
    /// First cycle a target output diverged from golden, if any.
    pub erroneous_output_cycle: Option<u64>,
    /// Cycles from injection until the error reached a processor core
    /// (erroneous return packet, or a later load of corrupted memory) —
    /// the Fig. 8 error-propagation latency.
    pub propagation_latency: Option<u64>,
    /// Number of memory/cache lines left corrupted at detach.
    pub corrupted_line_count: usize,
    /// Required rollback distance to recover every corrupted line
    /// (Fig. 9): `inject_cycle − last core store` maximised over the
    /// corrupted lines (lines never stored by a core date from the
    /// program image at cycle 0).
    pub rollback_distance: Option<u64>,
}

/// Why a co-simulation loop ended (Sec. 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exit {
    /// A golden compare found the state `Identical` with no erroneous
    /// output, or exitable with the target drained; the check it gave.
    Converged(CosimCheck),
    /// Every thread had halted and the target was drained.
    Ended,
    /// The system trapped or passed its watchdog.
    Aborted,
    /// The co-simulation cap.
    Cap,
}

/// Where and why a co-simulation loop ended.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CosimEnd {
    pub(crate) exit: Exit,
    /// The cycle it ended on.
    pub(crate) cycle: u64,
    /// The co-simulation cycles run since the flip.
    pub(crate) cosim_cycles: u64,
}

/// How a run's co-simulation after the flip ended, in the row order of
/// [`POSTFLIP_RUNS`] and [`POSTFLIP_CYCLES`]: a golden compare found it
/// identical, or differing only where no tick reads (invalid slots'
/// payloads, dead fields), or only in state the accelerated model
/// holds; the program ended; the system trapped or passed its
/// watchdog; the co-simulation cap.
pub const POSTFLIP_EXITS: [&str; 6] = ["identical", "benign", "arch", "ended", "aborted", "cap"];

/// The `postflip.*` run counters by exit ([`POSTFLIP_EXITS`]), then by
/// whether the run's output was clean or erroneous when it ended.
pub const POSTFLIP_RUNS: [[&str; 2]; 6] = [
    [
        names::POSTFLIP_RUNS_IDENTICAL_CLEAN,
        names::POSTFLIP_RUNS_IDENTICAL_ERRONEOUS,
    ],
    [
        names::POSTFLIP_RUNS_BENIGN_CLEAN,
        names::POSTFLIP_RUNS_BENIGN_ERRONEOUS,
    ],
    [
        names::POSTFLIP_RUNS_ARCH_CLEAN,
        names::POSTFLIP_RUNS_ARCH_ERRONEOUS,
    ],
    [
        names::POSTFLIP_RUNS_ENDED_CLEAN,
        names::POSTFLIP_RUNS_ENDED_ERRONEOUS,
    ],
    [
        names::POSTFLIP_RUNS_ABORTED_CLEAN,
        names::POSTFLIP_RUNS_ABORTED_ERRONEOUS,
    ],
    [
        names::POSTFLIP_RUNS_CAP_CLEAN,
        names::POSTFLIP_RUNS_CAP_ERRONEOUS,
    ],
];

/// The `postflip.*` cycle counters, split as [`POSTFLIP_RUNS`]: they sum
/// to the records' `cosim_cycles`.
pub const POSTFLIP_CYCLES: [[&str; 2]; 6] = [
    [
        names::POSTFLIP_CYCLES_IDENTICAL_CLEAN,
        names::POSTFLIP_CYCLES_IDENTICAL_ERRONEOUS,
    ],
    [
        names::POSTFLIP_CYCLES_BENIGN_CLEAN,
        names::POSTFLIP_CYCLES_BENIGN_ERRONEOUS,
    ],
    [
        names::POSTFLIP_CYCLES_ARCH_CLEAN,
        names::POSTFLIP_CYCLES_ARCH_ERRONEOUS,
    ],
    [
        names::POSTFLIP_CYCLES_ENDED_CLEAN,
        names::POSTFLIP_CYCLES_ENDED_ERRONEOUS,
    ],
    [
        names::POSTFLIP_CYCLES_ABORTED_CLEAN,
        names::POSTFLIP_CYCLES_ABORTED_ERRONEOUS,
    ],
    [
        names::POSTFLIP_CYCLES_CAP_CLEAN,
        names::POSTFLIP_CYCLES_CAP_ERRONEOUS,
    ],
];

impl Exit {
    /// The row of [`POSTFLIP_EXITS`] this exit counts in.
    fn row(self) -> usize {
        match self {
            Exit::Converged(CosimCheck::Identical) => 0,
            Exit::Converged(CosimCheck::BenignOnly) => 1,
            Exit::Converged(CosimCheck::ArchMappable | CosimCheck::Microarch) => 2,
            Exit::Ended => 3,
            Exit::Aborted => 4,
            Exit::Cap => 5,
        }
    }
}

/// Engine-side counters of the co-simulation after the flip, by how it
/// ended and whether the output was clean (`postflip.*`, beside `warm.*`
/// and `dram.*`, outside the merged per-run recorder: they describe how
/// the engine ran, never what it computed).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PostFlipStats {
    /// Runs, by exit row ([`POSTFLIP_EXITS`]), then clean (0) or
    /// erroneous (1) output.
    pub runs: [[u64; 2]; 6],
    /// Post-flip co-simulation cycles, split the same way.
    pub cycles: [[u64; 2]; 6],
    /// Accelerated cycles phase 3 ran to the program's end.
    pub run_to_end_cycles: u64,
}

impl PostFlipStats {
    /// Counts a run whose co-simulation ended at `end`.
    fn add(&mut self, end: &CosimEnd, erroneous_output: Option<u64>) {
        let (row, col) = (end.exit.row(), erroneous_output.is_some() as usize);
        self.runs[row][col] += 1;
        self.cycles[row][col] += end.cosim_cycles;
    }

    /// Adds these counters to the engine-side recorder.
    pub(crate) fn publish(&self, engine: &mut Recorder) {
        for (row, (runs, cycles)) in self.runs.iter().zip(&self.cycles).enumerate() {
            for col in 0..2 {
                engine.count(POSTFLIP_RUNS[row][col], runs[col]);
                engine.count(POSTFLIP_CYCLES[row][col], cycles[col]);
            }
        }
        engine.count(names::POSTFLIP_RUN_TO_END_CYCLES, self.run_to_end_cycles);
    }
}

/// The system trapped or passed its watchdog: co-simulation aborts.
pub(crate) fn aborted<C: Component>(driver: &Driver<C>) -> bool {
    driver.sys().trap().is_some() || driver.cycle() > driver.sys().watchdog()
}

/// Whether a golden compare that gave `check` ends co-simulation (Fig. 2
/// step 7), for a run whose outputs so far all `matched` the golden's
/// ([`CosimDriver::outputs_matched`]) or not, and whose side is
/// `drained` or not.
///
/// A compare that finds no difference a tick can read — `Identical`, or
/// `BenignOnly`: payloads of invalid guarded slots and fields no tick
/// reads — with only fault-free outputs so far ends the run as Vanished
/// on that cycle, without waiting for a drain. Fault-free means every
/// output the system received, not only what the monitor flags: a
/// crossbar's differing packet to a bank is served, and can write
/// memory, with nothing flagged. Equal readable state and
/// equal inputs from here on give an equal future: every model writes a
/// slot's whole payload whenever it sets the slot's valid bit, so an
/// invalid slot's payload is overwritten before a tick reads it, and a
/// dead field reaches nothing. (No erroneous output, because PCIe's
/// check does not compare memory: there, agreement is every write so
/// far having matched.) An `ArchMappable` state, or any exitable state
/// after an erroneous output, waits for the drain.
pub(crate) fn converged(check: CosimCheck, matched: bool, drained: impl FnOnce() -> bool) -> bool {
    let unreadable = matches!(check, CosimCheck::Identical | CosimCheck::BenignOnly);
    unreadable && matched || check.exitable() && drained()
}

/// Drives one complete injection run (Fig. 2 phases 1–3) starting from
/// `base`, a system snapshot at a cycle ≤ `inject_cycle − warmup`.
///
/// # Panics
///
/// Panics if `base` has already passed the co-simulation entry point.
pub fn run_injection(base: &System, golden: &GoldenRef, spec: &InjectionSpec) -> InjectionRecord {
    run_injection_with(base, golden, spec, &mut Recorder::null())
}

/// [`run_injection`] with telemetry: every phase boundary of the Fig. 2
/// flow is recorded into `rec` (a [`Recorder::null`] recorder makes
/// every hook a no-op). Each run emits exactly one `SnapshotGolden`,
/// one `BitFlip` and one `CosimExit` event.
///
/// A run is [`warm`] followed by [`finish`] — a same-trajectory group
/// of one — on a fresh clone of `base`, with the driver `spec.component`
/// names.
pub fn run_injection_with(
    base: &System,
    golden: &GoldenRef,
    spec: &InjectionSpec,
    rec: &mut Recorder,
) -> InjectionRecord {
    on_component!(spec.component, C => {
        let post = &mut PostFlipStats::default();
        finish(warm::<C>(base, golden, spec, None), golden, spec, rec, post).0
    })
}

#[cfg(test)]
thread_local! {
    /// Samples on this thread whose driver refilled the one a shard kept
    /// instead of copying a new one off their window's carrier.
    pub(crate) static REFILLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Window carriers on this thread that refilled the one a shard kept
    /// instead of attaching a new one.
    pub(crate) static CARRIER_REFILLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Forks on this thread that refilled the driver the previous fork
    /// ended with.
    pub(crate) static FORK_REFILLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Lane sides on this thread that a batch refilled from the shard's
    /// pool instead of copying a new one.
    pub(crate) static LANE_REFILLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Adds one to a counter above.
#[cfg(test)]
pub(crate) fn count(counter: &'static std::thread::LocalKey<std::cell::Cell<u64>>) {
    counter.with(|n| n.set(n.get() + 1));
}

/// A driver attached at its window's co-simulation entry point and
/// warmed up (Fig. 2 steps 1–4), with nothing flipped. Up to the cycle
/// it reached it is a function of the window alone — base snapshot,
/// instance, entry point — never of a bit or a later injection cycle,
/// so every sample of the window injected at that cycle may start from
/// it: one run ([`finish`]), or a lane batch that it carries
/// (`crate::lanes`). A campaign keeps one per window as the window's
/// carrier and forks each sample off it ([`Warmed::fork`]).
#[derive(Debug, Clone)]
pub(crate) struct Warmed<C: Component> {
    pub(crate) driver: Driver<C>,
    /// The golden side the refilled driver's last run ended with, for
    /// the golden snapshot to refill.
    pub(crate) golden: Option<C::Side>,
    entry: u64,
    snapshot: SnapshotCost,
    warmup_done: u64,
    /// The system trapped during the warm-up, which ends it there.
    trapped: bool,
}

/// Fig. 2 steps 1–4: [`enter`], then the warm-up to `spec`'s injection
/// cycle.
///
/// # Panics
///
/// As [`enter`].
pub(crate) fn warm<C: Component>(
    base: &System,
    golden: &GoldenRef,
    spec: &InjectionSpec,
    spare: Option<Driver<C>>,
) -> Warmed<C> {
    let mut warmed = enter(base, golden, spec, spare);
    warmed.warm_to(spec.inject_cycle);
    warmed
}

/// Fig. 2 steps 1–3: restores `base`, runs to `spec`'s entry point in
/// accelerated mode — its injection cycle less its warm-up, or cycle 0
/// — and attaches `C`'s driver to instance `spec.instance`. When there is
/// a `spare`, a driver an earlier run or window ended with, the restore
/// refills its system and the attach its port and sides
/// (`Driver::reattach`); otherwise `base` is copied into parked storage
/// (`cosim::parked_copy`) and a driver attached.
///
/// # Panics
///
/// Panics if `base` has already passed the co-simulation entry point,
/// or if the spec's check interval or co-simulation cap is zero.
pub(crate) fn enter<C: Component>(
    base: &System,
    golden: &GoldenRef,
    spec: &InjectionSpec,
    spare: Option<Driver<C>>,
) -> Warmed<C> {
    // A zero interval would make `cycles % interval` never hit, so no
    // golden compare would ever fire: the run would silently burn the
    // whole co-simulation cap and misclassify as Persist. Fail loudly
    // instead (the campaign layer validates the same bounds upstream).
    assert!(
        spec.check_interval >= 1,
        "check_interval must be >= 1: an interval of 0 disables every golden compare"
    );
    assert!(
        spec.cosim_cap >= 1,
        "cosim_cap must be >= 1: a zero cap leaves no co-simulation window"
    );
    let entry = crate::campaign::entry_cycle(spec);
    assert!(
        base.cycle() <= entry,
        "base snapshot ({}) is past the co-simulation entry point ({})",
        base.cycle(),
        entry
    );
    // Phase 1 (steps 1–2): restore the snapshot and run to the entry
    // point in accelerated mode; step 3: attach.
    let to_entry = |sys: &mut System| {
        sys.set_watchdog(golden.watchdog());
        sys.run_until(entry);
    };
    let (driver, golden) = match spare {
        Some(mut driver) => {
            #[cfg(test)]
            count(&CARRIER_REFILLS);
            let sys = driver.sys_mut();
            sys.clone_from(base);
            to_entry(sys);
            let golden = driver.reattach(spec.instance);
            (driver, golden)
        }
        None => {
            crate::cosim::driver_built();
            let mut sys = crate::cosim::parked_copy(base);
            to_entry(&mut sys);
            (C::attach_instance(sys, spec.instance), None)
        }
    };
    Warmed {
        driver,
        golden,
        entry,
        snapshot: base.snapshot_cost(),
        warmup_done: 0,
        trapped: false,
    }
}

impl<C: Component> Warmed<C> {
    /// Fig. 2 step 3 on a system the caller owns and has run to `spec`'s
    /// entry point: `C`'s driver attached to instance `spec.instance`,
    /// nothing warmed up yet.
    ///
    /// # Panics
    ///
    /// Panics if `sys` is not at the entry point.
    pub(crate) fn attach(sys: System, spec: &InjectionSpec) -> Self {
        let entry = crate::campaign::entry_cycle(spec);
        assert_eq!(sys.cycle(), entry, "a driver attaches at the entry point");
        Warmed {
            snapshot: sys.snapshot_cost(),
            driver: C::attach_instance(sys, spec.instance),
            golden: None,
            entry,
            warmup_done: 0,
            trapped: false,
        }
    }

    /// Phase 1, step 4: the warm-up with live traffic, on to `cycle`, to
    /// reconstruct the microarchitectural state not carried by the
    /// high-level model. A trap ends the warm-up for good: the run flips
    /// its bit where the clock stopped.
    pub(crate) fn warm_to(&mut self, cycle: u64) {
        while !self.trapped && self.entry + self.warmup_done < cycle {
            self.driver.step();
            self.warmup_done += 1;
            self.trapped = self.driver.sys().trap().is_some();
        }
    }

    /// The warm-up cycles run since the entry point.
    pub(crate) fn warmup_done(&self) -> u64 {
        self.warmup_done
    }

    /// A copy of this uninjected warm-up as it stands, for a sample to
    /// flip (`Driver::fork_sample`): equal to the sample's lone run warmed
    /// up from the same entry point to this cycle. It refills `spare`
    /// when there is one.
    pub(crate) fn fork(&mut self, spare: Option<Driver<C>>) -> Warmed<C> {
        let (driver, golden) = self.driver.fork_sample(spare);
        Warmed {
            driver,
            golden,
            entry: self.entry,
            snapshot: self.snapshot,
            warmup_done: self.warmup_done,
            trapped: self.trapped,
        }
    }

    /// Everything a run on this trajectory records before its
    /// co-simulation loop starts, through the flip of `spec.bit` — the
    /// same for the scalar run and for a lane of a batch.
    pub(crate) fn record_preamble(&self, spec: &InjectionSpec, rec: &mut Recorder) {
        let comp = spec.component.name();
        if rec.is_active() {
            rec.count(names::SNAPSHOT_CLONES, 1);
            rec.record_hist(
                names::H_SNAPSHOT_DRAM_LINES,
                self.snapshot.dram_lines as u64,
            );
            rec.record_hist(
                names::H_SNAPSHOT_RESIDENT_LINES,
                self.snapshot.resident_l2_lines as u64,
            );
        }
        rec.count(names::STATE_TRANSFER_TO_RTL, 1);
        rec.count(names::COSIM_ENTER, 1);
        rec.event(self.entry, comp, EventKind::StateTransfer, 0);
        rec.event(self.entry, comp, EventKind::CosimEnter, 0);
        rec.record_hist(names::H_WARMUP, self.warmup_done);
        // Phase 2, step 5: golden snapshot, then the bit flip.
        let cycle = self.driver.cycle();
        rec.event(cycle, comp, EventKind::SnapshotGolden, 0);
        rec.event(cycle, comp, EventKind::BitFlip, spec.bit as u64);
    }
}

/// A recorder that is active under `telemetry` and null without.
pub fn recorder_for(telemetry: Option<&TelemetryConfig>) -> Recorder {
    match telemetry {
        Some(cfg) => Recorder::active(cfg),
        None => Recorder::null(),
    }
}

/// Fig. 2 step 5 through phase 3 from a warmed driver: golden snapshot,
/// the flip of `spec.bit`, co-simulation, state transfer back and
/// outcome determination, counted into `post`. Also returns the driver
/// the run ended with, on every exit, so that the next run can refill
/// it.
pub(crate) fn finish<C: Component>(
    warmed: Warmed<C>,
    golden: &GoldenRef,
    spec: &InjectionSpec,
    rec: &mut Recorder,
    post: &mut PostFlipStats,
) -> (InjectionRecord, Driver<C>) {
    let run = Flipped {
        golden,
        spec,
        inject_cycle: warmed.driver.cycle(),
        converges: true,
    };
    run.finish(warmed, rec, post)
}

/// Where a run past its flip picks up.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Resume {
    /// Inside the co-simulation loop with this many cycles stepped, the
    /// last of them whole but for its abort test and golden compare.
    Cosim(u64),
    /// Past the loop and its exit taxonomy, after this many cycles of
    /// co-simulation: the run transfers state back (phase 3).
    Detach(u64),
}

/// A run past its flip: what it needs besides its driver and recorder.
pub(crate) struct Flipped<'a> {
    pub(crate) golden: &'a GoldenRef,
    pub(crate) spec: &'a InjectionSpec,
    /// The cycle of the flip.
    pub(crate) inject_cycle: u64,
    /// Whether a golden compare may end the run (Fig. 2 step 7). Only an
    /// RTL-only run (`crate::rtl_only`) clears it: the ground truth ends
    /// at a trap, the watchdog or the program's end.
    pub(crate) converges: bool,
}

impl Flipped<'_> {
    /// [`finish`] of `warmed`, a driver warmed up to `inject_cycle`.
    pub(crate) fn finish<C: Component>(
        &self,
        warmed: Warmed<C>,
        rec: &mut Recorder,
        post: &mut PostFlipStats,
    ) -> (InjectionRecord, Driver<C>) {
        warmed.record_preamble(self.spec, rec);
        let mut driver = warmed.driver;
        driver.snapshot(warmed.golden);
        driver.inject(self.spec.bit);
        self.resume(driver, rec, post, Resume::Cosim(0))
    }

    /// Runs the rest of the run from `at` and returns its record and the
    /// driver it ended with. The scalar run enters at `Cosim(0)`; a lane
    /// that leaves its batch enters where it left, on a driver equal to
    /// the one its scalar run would hold there.
    pub(crate) fn resume<C: Component>(
        &self,
        mut driver: Driver<C>,
        rec: &mut Recorder,
        post: &mut PostFlipStats,
        at: Resume,
    ) -> (InjectionRecord, Driver<C>) {
        let cosim_cycles = match at {
            Resume::Cosim(stepped) => {
                let end = self.cosimulate(&mut driver, rec, stepped);
                let monitor = (driver.erroneous_output(), driver.outputs_matched());
                match self.end_cosim(rec, post, end, monitor, || driver.check()) {
                    Some(record) => return (record, driver),
                    None => end.cosim_cycles,
                }
            }
            Resume::Detach(cosim_cycles) => cosim_cycles,
        };
        self.transfer_back(driver, rec, post, cosim_cycles)
    }

    /// Sec. 4.2 exit taxonomy, for the scalar run and for every lane of
    /// a batch: records the run's one CosimExit at `end` (and counts it
    /// into `post`), then ends the run inside co-simulation (Fig. 2
    /// steps 8–9) when nothing ever diverged — Vanished on an Identical
    /// or BenignOnly convergence, Persist when the cap strikes with the
    /// state still Microarch-dirty, as the one more golden compare
    /// `check` tells. The run's monitor holds its first `erroneous_output`
    /// and whether every output so far `matched` the golden's
    /// ([`CosimDriver::outputs_matched`]). `None` leaves the run to
    /// phase 3.
    pub(crate) fn end_cosim(
        &self,
        rec: &mut Recorder,
        post: &mut PostFlipStats,
        end: CosimEnd,
        (erroneous_output, matched): (Option<u64>, bool),
        check: impl FnOnce() -> CosimCheck,
    ) -> Option<InjectionRecord> {
        post.add(&end, erroneous_output);
        let spec = self.spec;
        let comp = spec.component.name();
        let (reason, counter) = match end.exit {
            Exit::Converged(_) | Exit::Ended => {
                (ExitReason::Converged, names::COSIM_EXIT_CONVERGED)
            }
            Exit::Aborted => (ExitReason::Mismatch, names::COSIM_EXIT_MISMATCH),
            Exit::Cap => (ExitReason::Cap, names::COSIM_EXIT_CAP),
        };
        rec.count(counter, 1);
        rec.event(end.cycle, comp, EventKind::CosimExit, reason.payload());
        rec.record_hist(names::H_COSIM_RESIDENCY, end.cosim_cycles);

        let cap = spec.cosim_cap.max(spec.check_interval);
        let (outcome, counter, payload) = match end.exit {
            _ if !matched => return None,
            // The program's output decides (phase 3).
            Exit::Aborted | Exit::Ended => return None,
            // Nothing ever diverged and no tick can read what differs,
            // so the run's outcome equals the error-free run — stop
            // early as Vanished.
            Exit::Converged(CosimCheck::Identical | CosimCheck::BenignOnly) => {
                (Outcome::Vanished, names::EARLY_TERM_VANISHED, 0)
            }
            // Cap reached with the error still confined to unmapped
            // microarch state and no divergence observed: the Sec. 4.2
            // "persists" bucket.
            _ if end.cosim_cycles >= cap => {
                rec.count(names::GOLDEN_COMPARES, 1);
                if check().exitable() {
                    return None;
                }
                (Outcome::Persist, names::EARLY_TERM_PERSIST, 1)
            }
            Exit::Converged(_) | Exit::Cap => return None,
        };
        rec.count(counter, 1);
        rec.count(names::INJECT_RUNS, 1);
        rec.event(end.cycle, comp, EventKind::EarlyTermination, payload);
        // Nothing propagated and nothing was corrupted.
        Some(InjectionRecord {
            outcome,
            bit: spec.bit,
            inject_cycle: self.inject_cycle,
            cosim_cycles: end.cosim_cycles,
            erroneous_output_cycle: None,
            propagation_latency: None,
            corrupted_line_count: 0,
            rollback_distance: None,
        })
    }

    /// Phase 2, steps 6–9: co-simulates from `stepped` cycles done until
    /// the error vanishes, maps to high-level state, the program ends, or
    /// the cap is reached. The program's end is tested at each golden
    /// compare's cycle and at the cap; a run that does not converge
    /// makes no compare.
    fn cosimulate<C: Component>(
        &self,
        driver: &mut Driver<C>,
        rec: &mut Recorder,
        stepped: u64,
    ) -> CosimEnd {
        let spec = self.spec;
        let cap = spec.cosim_cap.max(spec.check_interval);
        let ended = |d: &Driver<C>| d.sys().all_halted() && d.drained();
        let mut cosim_cycles = stepped;
        let exit = loop {
            if cosim_cycles > 0 {
                if aborted(driver) {
                    break Exit::Aborted;
                }
                let at_check = cosim_cycles.is_multiple_of(spec.check_interval);
                if at_check && self.converges {
                    rec.count(names::GOLDEN_COMPARES, 1);
                    if rec.is_active() {
                        driver.sample_telemetry(rec);
                    }
                    let c = driver.check();
                    if converged(c, driver.outputs_matched(), || driver.drained()) {
                        break Exit::Converged(c);
                    }
                    if c == CosimCheck::Identical {
                        driver.retire_golden();
                    }
                }
                if (at_check || cosim_cycles >= cap) && ended(driver) {
                    break Exit::Ended;
                }
            }
            if cosim_cycles >= cap {
                debug_assert!(
                    !ended(driver),
                    "a run reached the cap after the program ended"
                );
                break Exit::Cap;
            }
            driver.step();
            cosim_cycles += 1;
        };
        CosimEnd {
            exit,
            cycle: driver.cycle(),
            cosim_cycles,
        }
    }

    /// Phase 3 (steps 10–12): transfers the (possibly erroneous) state
    /// back, finishes the application in accelerated mode and classifies
    /// it.
    fn transfer_back<C: Component>(
        &self,
        mut driver: Driver<C>,
        rec: &mut Recorder,
        post: &mut PostFlipStats,
        cosim_cycles: u64,
    ) -> (InjectionRecord, Driver<C>) {
        let (spec, inject_cycle) = (self.spec, self.inject_cycle);
        rec.count(names::STATE_TRANSFER_TO_HIGH, 1);
        rec.event(
            driver.cycle(),
            spec.component.name(),
            EventKind::StateTransfer,
            1,
        );
        let erroneous_output_cycle = driver.erroneous_output();
        let corrupted = driver.detach_in_place();
        rec.record_hist(names::H_CORRUPTED_LINES, corrupted.len() as u64);
        let sys = driver.sys_mut();
        let rollback_distance = corrupted
            .iter()
            .map(|&l| inject_cycle.saturating_sub(sys.last_store_cycle(l).unwrap_or(0)))
            .max();
        // Nothing reads a last store past this point.
        sys.untrack_stores();

        // A matching output after an observed error is ONA (Sec. 3.2).
        let error_observed = erroneous_output_cycle.is_some();
        let from = sys.cycle();
        let result = sys.run_to_end();
        post.run_to_end_cycles += sys.cycle() - from;
        let outcome = match self.golden.verdict(&result) {
            Outcome::Vanished if error_observed || !corrupted.is_empty() => Outcome::Ona,
            outcome => outcome,
        };

        // Fig. 8 propagation latency: first erroneous packet to the cores,
        // or the first core load of a corrupted memory line during phase 3.
        let propagation_latency = erroneous_output_cycle
            .or(sys.first_taint_read())
            .map(|c| c.saturating_sub(inject_cycle));
        if let Some(p) = propagation_latency {
            rec.record_hist(names::H_PROPAGATION, p);
        }
        rec.count(names::INJECT_RUNS, 1);

        let record = InjectionRecord {
            outcome,
            bit: spec.bit,
            inject_cycle,
            cosim_cycles,
            erroneous_output_cycle,
            propagation_latency,
            corrupted_line_count: corrupted.len(),
            rollback_distance,
        };
        (record, driver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_harness::{check_with, Config, Source};
    use nestsim_hlsim::workload::{by_name, BenchProfile};
    use nestsim_hlsim::SystemConfig;
    use nestsim_models::{inventory, UncoreRtl};
    use nestsim_rtl::FlopClass;
    use std::cell::Cell;

    fn golden_for(sys: &System) -> (System, GoldenRef) {
        let base = sys.clone();
        let mut run = sys.clone();
        let r = run.run_to_end();
        let (digest, cycles) = match r {
            RunResult::Completed { digest, cycles } => (digest, cycles),
            other => panic!("error-free run must complete, got {other:?}"),
        };
        (base, GoldenRef { digest, cycles })
    }

    fn spec(component: ComponentKind, bit: usize, cycle: u64) -> InjectionSpec {
        InjectionSpec {
            component,
            instance: 0,
            bit,
            inject_cycle: cycle,
            warmup: MIN_WARMUP,
            cosim_cap: 20_000,
            check_interval: DEFAULT_CHECK_INTERVAL,
        }
    }

    #[test]
    fn l2c_injection_produces_a_classified_outcome() {
        let sys = System::new(SystemConfig::smoke_test(by_name("radi").unwrap()));
        let (base, golden) = golden_for(&sys);
        // Inject into an inactive BIST flop: guaranteed Vanished.
        let bank = nestsim_models::L2cBank::new(nestsim_proto::addr::BankId::new(0));
        let bist_bit = bank
            .flops()
            .fields()
            .iter()
            .find(|f| f.class == FlopClass::Inactive)
            .map(|f| f.offset)
            .unwrap();
        let r = run_injection(&base, &golden, &spec(ComponentKind::L2c, bist_bit, 2_000));
        assert_eq!(r.outcome, Outcome::Vanished);
        assert!(r.cosim_cycles > 0);
    }

    #[test]
    fn idle_entry_payload_flip_is_benign_and_vanishes() {
        // The Fig. 2 step-7 "no functional difference" condition: a
        // payload flip in a queue entry whose valid bit is clear must
        // classify as benign and the run as Vanished.
        use crate::cosim::{CosimCheck, CosimDriver, L2cDriver};
        let sys = System::new(SystemConfig::smoke_test(by_name("lu-c").unwrap()));
        let (base, _golden) = golden_for(&sys);
        let mut sys = base.clone();
        sys.run_until(500);
        let mut drv = L2cDriver::attach(sys, nestsim_proto::addr::BankId::new(0));
        for _ in 0..MIN_WARMUP {
            drv.step();
        }
        drv.snapshot_golden();
        // Find an IQ entry that is *actually* idle right now and flip a
        // payload bit inside it.
        let (valid_bit, data_bit) = {
            use nestsim_models::UncoreRtl;
            let flops = (drv.target())
                .expect("the golden snapshot converted the bank")
                .flops();
            let mut found = None;
            // Scan every guarded queue structure for an idle entry.
            let prefixes: Vec<String> = (0..nestsim_models::l2c::OQ_DEPTH)
                .rev()
                .map(|i| format!("oq[{i}]"))
                .chain(
                    (0..nestsim_models::l2c::IQ_DEPTH)
                        .rev()
                        .map(|i| format!("iq[{i}]")),
                )
                .chain(
                    (0..nestsim_models::l2c::MB_DEPTH)
                        .rev()
                        .map(|i| format!("mb[{i}]")),
                )
                .collect();
            for p in prefixes {
                let v = flops
                    .fields()
                    .iter()
                    .find(|f| f.name == format!("{p}.valid"))
                    .unwrap();
                if !flops.get_bit(v.offset) {
                    let d = flops
                        .fields()
                        .iter()
                        .find(|f| f.name == format!("{p}.data"))
                        .unwrap();
                    found = Some((v.offset, d.offset + 30));
                    break;
                }
            }
            found.expect("some queue entry is idle")
        };
        drv.inject(data_bit);
        // The very next check must see the diff as benign (or already
        // overwritten) — never as a microarchitectural error.
        let check = drv.check();
        assert!(
            matches!(check, CosimCheck::BenignOnly | CosimCheck::Identical),
            "idle payload diff must be benign, got {check:?} (valid bit {valid_bit})"
        );
        assert!(drv.erroneous_output().is_none());
    }

    #[test]
    fn mcu_injection_runs() {
        let sys = System::new(SystemConfig::smoke_test(by_name("fft").unwrap()));
        let (base, golden) = golden_for(&sys);
        let mcu = nestsim_models::Mcu::new(nestsim_proto::addr::McuId::new(0));
        let bit = mcu
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "rq[0].line")
            .map(|f| f.offset)
            .unwrap();
        let r = run_injection(&base, &golden, &spec(ComponentKind::Mcu, bit, 2_000));
        assert!(Outcome::ALL.contains(&r.outcome));
    }

    #[test]
    fn ccx_injection_runs() {
        let sys = System::new(SystemConfig::smoke_test(by_name("stre").unwrap()));
        let (base, golden) = golden_for(&sys);
        let ccx = nestsim_models::Ccx::new();
        let bit = ccx
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "pcx0[0].addr")
            .map(|f| f.offset + 6)
            .unwrap();
        let r = run_injection(&base, &golden, &spec(ComponentKind::Ccx, bit, 2_000));
        assert!(Outcome::ALL.contains(&r.outcome));
    }

    #[test]
    fn pcie_staging_flip_during_dma_corrupts_output() {
        // Use a benchmark with a big enough input file that the DMA is
        // still active at the injection point.
        let sys = System::new(SystemConfig::smoke_test(by_name("p-lr").unwrap()));
        let (base, golden) = golden_for(&sys);
        let pcie = nestsim_models::Pcie::new();
        let bit = pcie
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "staging.w0")
            .map(|f| f.offset + 11)
            .unwrap();
        let r = run_injection(&base, &golden, &spec(ComponentKind::Pcie, bit, 1_200));
        assert!(
            Outcome::ALL.contains(&r.outcome),
            "unclassified outcome {r:?}"
        );
    }

    /// The co-simulation cycles at which a reference run first met one
    /// of the two conditions that end a run today but did not end it
    /// then.
    #[derive(Debug, Default)]
    struct Seen {
        /// A golden compare found no difference a tick can read
        /// (`Identical` or `BenignOnly`) with no erroneous output.
        retired: Option<u64>,
        /// Every thread had halted and the target was drained, at a
        /// golden compare that did not end the run or at the cap.
        ended: Option<u64>,
    }

    /// The run as it was before warm-up sharing existed and while a run
    /// waited for the drain, verbatim: one attach and one warm-up per
    /// run, a golden twin ticked and compared until the target drains,
    /// and co-simulation on after the program ended. Everything [`warm`]
    /// and [`finish`] produce is held against this; `seen` notes where
    /// today's rules part from it.
    fn run_injection_reference<D: CosimDriver>(
        base: &System,
        golden: &GoldenRef,
        spec: &InjectionSpec,
        rec: &mut Recorder,
        attach: impl FnOnce(System) -> D,
        seen: &mut Seen,
    ) -> InjectionRecord {
        let entry = spec
            .inject_cycle
            .saturating_sub(spec.warmup.max(MIN_WARMUP));
        assert!(base.cycle() <= entry);
        let mut sys = base.clone();
        if rec.is_active() {
            let cost = base.snapshot_cost();
            rec.count(names::SNAPSHOT_CLONES, 1);
            rec.record_hist(names::H_SNAPSHOT_DRAM_LINES, cost.dram_lines as u64);
            rec.record_hist(
                names::H_SNAPSHOT_RESIDENT_LINES,
                cost.resident_l2_lines as u64,
            );
        }
        sys.set_watchdog(golden.watchdog());
        sys.run_until(entry);
        let comp = spec.component.name();
        rec.count(names::STATE_TRANSFER_TO_RTL, 1);
        rec.count(names::COSIM_ENTER, 1);
        rec.event(entry, comp, EventKind::StateTransfer, 0);
        rec.event(entry, comp, EventKind::CosimEnter, 0);
        drive_reference(attach(sys), golden, spec, rec, seen)
    }

    fn drive_reference<D: CosimDriver>(
        mut driver: D,
        golden: &GoldenRef,
        spec: &InjectionSpec,
        rec: &mut Recorder,
        seen: &mut Seen,
    ) -> InjectionRecord {
        let comp = spec.component.name();
        // To the injection cycle: a warm-up cut short by cycle 0 flips
        // at the cycle drawn.
        let warmup = spec.inject_cycle - driver.cycle();
        let mut warmup_done = 0u64;
        for _ in 0..warmup {
            driver.step();
            warmup_done += 1;
            if driver.sys().trap().is_some() {
                break;
            }
        }
        rec.record_hist(names::H_WARMUP, warmup_done);

        driver.snapshot_golden();
        rec.event(driver.cycle(), comp, EventKind::SnapshotGolden, 0);
        driver.inject(spec.bit);
        let inject_cycle = driver.cycle();
        rec.event(inject_cycle, comp, EventKind::BitFlip, spec.bit as u64);

        let cap = spec.cosim_cap.max(spec.check_interval);
        let mut cosim_cycles = 0u64;
        let mut exit_check = CosimCheck::Microarch;
        let mut aborted = false;
        let mut exited_early = false;
        while cosim_cycles < cap {
            driver.step();
            cosim_cycles += 1;
            if driver.sys().trap().is_some() || driver.cycle() > driver.sys().watchdog() {
                aborted = true;
                break;
            }
            if cosim_cycles.is_multiple_of(spec.check_interval) {
                rec.count(names::GOLDEN_COMPARES, 1);
                if rec.is_active() {
                    driver.sample_telemetry(rec);
                }
                let c = driver.check();
                let unreadable = matches!(c, CosimCheck::Identical | CosimCheck::BenignOnly);
                if unreadable && driver.outputs_matched() {
                    seen.retired.get_or_insert(cosim_cycles);
                }
                if c.exitable() && driver.drained() {
                    exit_check = c;
                    exited_early = true;
                    break;
                }
            }
            if (cosim_cycles.is_multiple_of(spec.check_interval) || cosim_cycles >= cap)
                && driver.sys().all_halted()
                && driver.drained()
            {
                seen.ended.get_or_insert(cosim_cycles);
            }
        }

        let exit_reason = if exited_early {
            ExitReason::Converged
        } else if aborted {
            ExitReason::Mismatch
        } else {
            ExitReason::Cap
        };
        rec.count(
            match exit_reason {
                ExitReason::Converged => names::COSIM_EXIT_CONVERGED,
                ExitReason::Cap => names::COSIM_EXIT_CAP,
                ExitReason::Mismatch => names::COSIM_EXIT_MISMATCH,
            },
            1,
        );
        rec.event(
            driver.cycle(),
            comp,
            EventKind::CosimExit,
            exit_reason.payload(),
        );
        rec.record_hist(names::H_COSIM_RESIDENCY, cosim_cycles);

        let erroneous_output_cycle = driver.erroneous_output();
        let error_observed = erroneous_output_cycle.is_some();

        if !aborted
            && !error_observed
            && matches!(exit_check, CosimCheck::Identical | CosimCheck::BenignOnly)
        {
            rec.count(names::EARLY_TERM_VANISHED, 1);
            rec.count(names::INJECT_RUNS, 1);
            rec.event(driver.cycle(), comp, EventKind::EarlyTermination, 0);
            return InjectionRecord {
                outcome: Outcome::Vanished,
                bit: spec.bit,
                inject_cycle,
                cosim_cycles,
                erroneous_output_cycle: None,
                propagation_latency: None,
                corrupted_line_count: 0,
                rollback_distance: None,
            };
        }

        if !aborted && cosim_cycles >= cap && !error_observed {
            rec.count(names::GOLDEN_COMPARES, 1);
            if !driver.check().exitable() {
                rec.count(names::EARLY_TERM_PERSIST, 1);
                rec.count(names::INJECT_RUNS, 1);
                rec.event(driver.cycle(), comp, EventKind::EarlyTermination, 1);
                return InjectionRecord {
                    outcome: Outcome::Persist,
                    bit: spec.bit,
                    inject_cycle,
                    cosim_cycles,
                    erroneous_output_cycle: None,
                    propagation_latency: None,
                    corrupted_line_count: 0,
                    rollback_distance: None,
                };
            }
        }

        rec.count(names::STATE_TRANSFER_TO_HIGH, 1);
        rec.event(driver.cycle(), comp, EventKind::StateTransfer, 1);
        let detach = driver.detach();
        let corrupted = detach.corrupted_lines;
        rec.record_hist(names::H_CORRUPTED_LINES, corrupted.len() as u64);
        let mut sys = detach.sys;
        let rollback_distance = corrupted
            .iter()
            .map(|&l| inject_cycle.saturating_sub(sys.last_store_cycle(l).unwrap_or(0)))
            .max();

        let result = sys.run_to_end();
        let outcome = match result {
            RunResult::Trapped { .. } => Outcome::Ut,
            RunResult::Hang { .. } => Outcome::Hang,
            RunResult::Completed { digest, .. } => {
                if digest == golden.digest {
                    if error_observed || !corrupted.is_empty() {
                        Outcome::Ona
                    } else {
                        Outcome::Vanished
                    }
                } else {
                    Outcome::Omm
                }
            }
        };

        let propagation_latency = erroneous_output_cycle
            .or(sys.first_taint_read())
            .map(|c| c.saturating_sub(inject_cycle));
        if let Some(p) = propagation_latency {
            rec.record_hist(names::H_PROPAGATION, p);
        }
        rec.count(names::INJECT_RUNS, 1);

        InjectionRecord {
            outcome,
            bit: spec.bit,
            inject_cycle,
            cosim_cycles,
            erroneous_output_cycle,
            propagation_latency,
            corrupted_line_count: corrupted.len(),
            rollback_distance,
        }
    }

    /// How one component's runs compared with the reference, by class.
    #[derive(Default)]
    struct Tally {
        runs: Cell<u64>,
        /// Runs drawn as a campaign draws them: a target bit inside the
        /// injection window.
        drawn: Cell<u64>,
        /// Of those, the ones whose reference's golden would have
        /// retired.
        retired: Cell<u64>,
        /// The reference's program ended inside co-simulation.
        ended: Cell<u64>,
        /// Runs by [`classify`]'s class.
        classes: std::cell::RefCell<std::collections::BTreeMap<&'static str, u64>>,
    }

    fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    /// Holds `got`, the run under today's rules, against `want`, the
    /// reference's run of the same sample, which `seen` watched. They are
    /// equal, or today's run ended at the cycle the reference first met
    /// one of today's two exits — a retired golden (always Vanished) or
    /// the program's end (classified by its output) — and differs from it
    /// in `outcome` and a shorter `cosim_cycles` alone. After a
    /// retirement the reference's outcome is Vanished too, or its Ut or
    /// Hang became Vanished, or its Omm from a detach forced at the cap
    /// `cap`; after the program's end it is the same, or its Persist
    /// became what the output says. Returns the class, or the reason it
    /// is none.
    fn classify(
        got: &InjectionRecord,
        want: &InjectionRecord,
        seen: &Seen,
        cap: u64,
    ) -> Result<&'static str, String> {
        if got == want {
            return Ok("equal");
        }
        let rest = InjectionRecord {
            outcome: want.outcome,
            cosim_cycles: want.cosim_cycles,
            ..got.clone()
        };
        if rest != *want || got.cosim_cycles > want.cosim_cycles {
            return Err("records differ beyond outcome and a shorter co-simulation".into());
        }
        let at = Some(got.cosim_cycles);
        match (want.outcome, got.outcome) {
            (Outcome::Vanished, Outcome::Vanished) if at == seen.retired => Ok("Vanished sooner"),
            (Outcome::Ut | Outcome::Hang, Outcome::Vanished) if at == seen.retired => {
                Ok("retired then aborted")
            }
            (Outcome::Omm, Outcome::Vanished) if at == seen.retired && want.cosim_cycles == cap => {
                Ok("retired then capped")
            }
            (w, g) if at == seen.ended && seen.retired.is_none() => match w {
                Outcome::Persist => Ok("Persist ended by the program"),
                _ if w == g => Ok("other outcome ended sooner by the program"),
                _ => Err(format!("{w:?} became {g:?} at the program's end")),
            },
            (w, g) => Err(format!(
                "{w:?} became {g:?} at cycle {}; {seen:?}",
                got.cosim_cycles
            )),
        }
    }

    /// Two bits on one random trajectory: each finished from the shared
    /// warmed driver — one from a clone, one by move — and each held
    /// against a reference run of its own ([`classify`]).
    fn two_bits_match_the_reference<C: Component>(
        src: &mut Source,
        component: ComponentKind,
        (base, golden, profile): &(System, GoldenRef, &'static BenchProfile),
        [targets, occupancy]: &[Vec<usize>; 2],
        tally: &Tally,
    ) {
        let (lo, hi) = crate::campaign::injection_window(component, profile, golden);
        // One trajectory in three starts close enough to the program's
        // end for co-simulation to outlive it, and one in three flips an
        // occupancy count or valid bit, which can leave the component
        // busy with nothing to serve once the program ends.
        let late = src.below(3) == 0;
        let (lo, hi) = if late {
            (golden.cycles.saturating_sub(2_000).max(lo), golden.cycles)
        } else {
            (lo, hi)
        };
        let bits = if src.below(3) == 0 {
            occupancy
        } else {
            targets
        };
        let drawn = !late && std::ptr::eq(bits, targets);
        let check_interval = [16, 16, 7, 1][src.index(4)];
        let first = InjectionSpec {
            component,
            instance: src.index(crate::campaign::instances_of(component)),
            bit: bits[src.index(bits.len())],
            inject_cycle: src.range_u64(lo, hi),
            warmup: MIN_WARMUP + src.below(1_000),
            // Mostly roomy; sometimes tight enough that the cap cuts
            // a run short.
            cosim_cap: [4_000, 4_000, 4_000, 4_000, 600, 90][src.index(6)],
            check_interval,
        };
        let second = InjectionSpec {
            bit: bits[src.index(bits.len())],
            ..first
        };
        let attach = |sys| C::attach_instance(sys, first.instance);
        let warmed = warm::<C>(base, golden, &first, None);
        for (spec, warmed) in [(first, warmed.clone()), (second, warmed)] {
            let post = &mut PostFlipStats::default();
            let (got, _) = finish(warmed, golden, &spec, &mut Recorder::null(), post);
            let mut seen = Seen::default();
            let want = run_injection_reference(
                base,
                golden,
                &spec,
                &mut Recorder::null(),
                attach,
                &mut seen,
            );
            let cap = spec.cosim_cap.max(spec.check_interval);
            let class = classify(&got, &want, &seen, cap)
                .unwrap_or_else(|why| panic!("{spec:?}: {why}\n got {got:?}\nwant {want:?}"));
            bump(&tally.runs);
            if drawn {
                bump(&tally.drawn);
                if seen.retired.is_some() {
                    bump(&tally.retired);
                }
            }
            if let Some(at) = seen.retired {
                // Golden compares after the retirement: none, as the run
                // ends at it, or sooner for another reason.
                let tail = got.cosim_cycles.saturating_sub(at) / spec.check_interval;
                assert_eq!(tail, 0, "{spec:?}: compared on after retiring at {at}");
            }
            if seen.ended.is_some() {
                bump(&tally.ended);
            }
            *tally.classes.borrow_mut().entry(class).or_default() += 1;
        }
    }

    #[test]
    fn warm_then_finish_matches_the_never_retire_reference() {
        let setup = |bench: &str| {
            let profile = by_name(bench).unwrap();
            let sys = System::new(SystemConfig::smoke_test(profile));
            let (base, golden) = golden_for(&sys);
            (base, golden, profile)
        };
        let setups = [
            ["radi", "lu-c", "flui"].map(setup),
            ["fft", "flui", "radi"].map(setup),
            ["lu-c", "stre", "radi"].map(setup),
            ["p-lr", "blsc", "p-sm"].map(setup),
        ];
        let bits = ComponentKind::ALL.map(|component| {
            let flops = crate::campaign::component_flops(component);
            let occupancy = (flops.fields().iter())
                .filter(|f| f.name.ends_with("count") || f.name.ends_with(".valid"))
                .flat_map(|f| f.offset..f.offset + f.width)
                .collect();
            [
                crate::campaign::injection_target_bits(component).to_vec(),
                occupancy,
            ]
        });
        let tallies: [Tally; 4] = Default::default();

        let config = Config {
            max_shrink_iters: 24,
            ..Config::with_cases(32)
        };
        check_with(config, "warm_then_finish_matches_reference", |src| {
            for (k, component) in ComponentKind::ALL.into_iter().enumerate() {
                let (bits, tally) = (&bits[k], &tallies[k]);
                let setup = &setups[k][src.index(3)];
                on_component!(component, C => {
                    two_bits_match_the_reference::<C>(src, component, setup, bits, tally)
                });
            }
        });

        for (component, t) in ComponentKind::ALL.into_iter().zip(&tallies) {
            let [runs, drawn, retired, ended] =
                [&t.runs, &t.drawn, &t.retired, &t.ended].map(Cell::get);
            eprintln!(
                "{component}: {runs} runs ({retired} of {drawn} drawn in the window retired), \
                 {ended} outlived the program; by class {:?}",
                t.classes.borrow()
            );
        }
        // The property proves nothing about retirement unless runs
        // retire. Uniformly drawn target bits retire in most runs: a
        // flipped idle-slot payload retires at its first compare, which on
        // the crossbar is almost every flip, and so on L2C does at least
        // half.
        let share = |t: &Tally| (t.retired.get(), t.drawn.get());
        let (retired, runs) = tallies
            .iter()
            .map(share)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        assert!(
            retired * 3 >= runs * 2,
            "golden retired in only {retired} of {runs} runs"
        );
        let (retired, runs) = share(&tallies[0]);
        assert!(
            retired * 2 >= runs,
            "L2C: golden retired in only {retired} of {runs} runs"
        );
        for (component, tally) in ComponentKind::ALL.into_iter().zip(&tallies) {
            assert!(tally.retired.get() > 0, "{component}: no run retired");
            // `PcieDriver::drained` is constant `true`: the check that
            // retires the golden ended the reference's run as well.
            if component != ComponentKind::Pcie {
                let sooner = tally.classes.borrow().get("Vanished sooner").copied();
                assert!(sooner > Some(0), "{component}: no run ended sooner");
            }
        }
    }

    #[test]
    fn a_flip_in_a_field_no_tick_reads_vanishes_on_every_component() {
        // A dead field's flip can never reach an output or memory, so the
        // divergence monitor must never flag it and no line may come out
        // corrupted: the run is Vanished at its first golden compare.
        // Every field the layout marks dead, and those named here, which
        // must be among them.
        let table: [(ComponentKind, &str, &[&str]); 4] = [
            (
                ComponentKind::L2c,
                "radi",
                &["cfg.throttle", "cfg.bank_id", "perf.hits", "bist.chain[3]"],
            ),
            (ComponentKind::Mcu, "fft", &["bist.chain[5]"]),
            (ComponentKind::Ccx, "stre", &["bist.chain[1]"]),
            (ComponentKind::Pcie, "p-lr", &["cfg.bar", "cfg.link_width"]),
        ];
        for (component, bench, named) in table {
            let profile = by_name(bench).unwrap();
            let (base, golden) = golden_for(&System::new(SystemConfig::smoke_test(profile)));
            let (lo, hi) = crate::campaign::injection_window(component, profile, &golden);
            let flops = crate::campaign::component_flops(component);
            let instances = crate::campaign::instances_of(component);
            let dead: Vec<_> = (flops.fields().iter())
                .filter(|f| f.role == nestsim_rtl::FieldRole::Dead)
                .collect();
            for name in named {
                assert!(
                    dead.iter().any(|f| f.name == *name),
                    "{component}: {name} is live"
                );
            }
            for field in dead {
                for k in 0..4u64 {
                    let spec = InjectionSpec {
                        instance: k as usize % instances,
                        cosim_cap: DEFAULT_COSIM_CAP,
                        ..spec(
                            component,
                            field.offset + (k as usize * 5) % field.width,
                            lo + (hi - lo) * k / 4,
                        )
                    };
                    let r = run_injection(&base, &golden, &spec);
                    let seen = (r.outcome, r.erroneous_output_cycle, r.corrupted_line_count);
                    let want = (Outcome::Vanished, None, 0);
                    assert_eq!(seen, want, "{}: {spec:?}", field.name);
                    assert_eq!(
                        r.cosim_cycles, spec.check_interval,
                        "{}: {spec:?}",
                        field.name
                    );
                }
            }
        }
    }

    /// After a warm-up on a random trajectory of `C`, flips what no tick
    /// may read — a random half of the payload bits of the invalid
    /// guarded slots, or one random bit of every field the layout marks
    /// dead — and co-simulates 1,500 cycles of the workload's traffic
    /// with no compare ending the run. At no cycle may the monitor flag
    /// an output, and no compare may find state a tick can read. Returns
    /// how many flipped payload bits traffic overwrote by the end.
    fn unreadable_flips_stay_unread<C: Component>(
        src: &mut Source,
        component: ComponentKind,
        (base, golden, profile): &(System, GoldenRef, &'static BenchProfile),
    ) -> u64 {
        let (lo, hi) = crate::campaign::injection_window(component, profile, golden);
        let spec = InjectionSpec {
            instance: src.index(crate::campaign::instances_of(component)),
            ..spec(component, 0, src.range_u64(lo, hi))
        };
        let mut driver = warm::<C>(base, golden, &spec, None).driver;
        driver.snapshot(None);
        let target = driver.target().expect("the snapshot converted the target");
        let flops = target.flops();
        let payloads = src.bool();
        let bits: Vec<usize> = if payloads {
            (0..flops.num_flops())
                .filter(|&bit| target.is_benign_diff(target, bit))
                .filter(|_| src.bool())
                .collect()
        } else {
            (flops.fields().iter())
                .filter(|f| f.role == nestsim_rtl::FieldRole::Dead)
                .map(|f| f.offset + src.index(f.width))
                .collect()
        };
        let why = if payloads { "payload" } else { "dead field" };
        for &bit in &bits {
            driver.inject(bit);
        }
        for cycle in 1..=1_500u64 {
            driver.step();
            if aborted(&driver) || driver.sys().all_halted() {
                break;
            }
            let out = driver.erroneous_output();
            assert_eq!(out, None, "{spec:?}: a {why} flip reached an output");
            if cycle.is_multiple_of(spec.check_interval) {
                let c = driver.check();
                assert!(
                    matches!(c, CosimCheck::Identical | CosimCheck::BenignOnly),
                    "{spec:?}: {why} flips read {c:?} at cycle {cycle}"
                );
            }
        }
        // The compare Fig. 6 reads still sees a dead field's flip.
        if !payloads {
            assert_eq!(
                driver.check_every_field(),
                CosimCheck::Microarch,
                "{spec:?}"
            );
            return 0;
        }
        let target = driver.target().expect("still on flops");
        let golden = driver.golden().expect("snapshot taken");
        let left = target.flops().diff_count(golden.flops());
        (bits.len() - left) as u64
    }

    #[test]
    fn no_tick_reads_a_difference_the_compare_ignores() {
        // The exactness argument of the compare's early exit, as an
        // oracle: every model writes a slot's whole payload whenever it
        // sets the slot's valid bit, so an invalid slot's payload never
        // reaches an output; and a field marked dead reaches nothing.
        // PCIe's staging registers are benign only while the engine is
        // idle, which no later transfer in these workloads revisits; the
        // models' `garbage_an_idle_engine_holds_never_reaches_an_output`
        // covers re-programming it.
        let setup = |bench: &str| {
            let profile = by_name(bench).unwrap();
            let (base, golden) = golden_for(&System::new(SystemConfig::smoke_test(profile)));
            (base, golden, profile)
        };
        let setups = [
            ["radi", "lu-c", "flui"].map(setup),
            ["fft", "flui", "radi"].map(setup),
            ["lu-c", "stre", "radi"].map(setup),
            ["p-lr", "blsc", "p-sm"].map(setup),
        ];
        let overwritten: [Cell<u64>; 4] = Default::default();
        let add = |c: &Cell<u64>, n| c.set(c.get() + n);
        let config = Config {
            max_shrink_iters: 24,
            ..Config::with_cases(24)
        };
        check_with(
            config,
            "no_tick_reads_a_difference_the_compare_ignores",
            |src| {
                for (k, component) in ComponentKind::ALL.into_iter().enumerate() {
                    let setup = &setups[k][src.index(3)];
                    let cleared = on_component!(component, C => {
                        unreadable_flips_stay_unread::<C>(src, component, setup)
                    });
                    add(&overwritten[k], cleared);
                }
            },
        );
        // Traffic must have rewritten some flipped payloads: a slot that
        // is filled again, whole.
        for (component, n) in ComponentKind::ALL.into_iter().zip(&overwritten) {
            eprintln!("{component}: {} flipped payload bits overwritten", n.get());
            if component != ComponentKind::Pcie {
                assert!(
                    n.get() > 0,
                    "{component}: no flipped payload was overwritten"
                );
            }
        }
    }

    #[test]
    fn inventory_census_is_consistent_with_models() {
        // Sanity link between the inventory module and the live models
        // used for injection.
        for kind in ComponentKind::ALL {
            let c = inventory::model_census(kind);
            assert!(c.target > 100, "{kind} census too small");
        }
    }
}
