//! One error-injection run: the Fig. 2 flow.

use nestsim_hlsim::{RunResult, SnapshotCost, System};
use nestsim_models::ComponentKind;
use nestsim_proto::addr::{BankId, McuId};
use nestsim_telemetry::{names, EventKind, ExitReason, Recorder, TelemetryConfig};

use crate::campaign::IndexedRuns;
use crate::cosim::{CcxDriver, CosimCheck, CosimDriver, L2cDriver, McuDriver, PcieDriver};
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
    /// Warm-up cycles before injection (≥ [`MIN_WARMUP`]; the actual
    /// value is randomised per run, Sec. 2.2).
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
    /// A golden compare found the state exitable with the target
    /// drained; the check it gave.
    Converged(CosimCheck),
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

/// The system trapped or passed its watchdog: co-simulation aborts.
pub(crate) fn aborted(driver: &impl CosimDriver) -> bool {
    driver.sys().trap().is_some() || driver.cycle() > driver.sys().watchdog()
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
/// A run is [`warm_component`] followed by [`WarmedDriver::finish`] — a
/// same-trajectory group of one — on a fresh clone of `base`.
pub fn run_injection_with(
    base: &System,
    golden: &GoldenRef,
    spec: &InjectionSpec,
    rec: &mut Recorder,
) -> InjectionRecord {
    warm_component(base, golden, spec, None)
        .finish(golden, spec, rec)
        .0
}

#[cfg(test)]
thread_local! {
    /// Restores on this thread that refilled a spare system instead of
    /// cloning a new one.
    pub(crate) static REFILLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A driver attached at its trajectory's co-simulation entry point and
/// warmed up to the injection cycle (Fig. 2 steps 1–4), with nothing
/// flipped yet. It is a function of the trajectory alone — base
/// snapshot, instance, injection cycle, warm-up length — never of the
/// bit, so every sample on that trajectory may resume from a clone of
/// it ([`finish`]) instead of attaching and warming up again.
#[derive(Debug, Clone)]
pub(crate) struct Warmed<D> {
    pub(crate) driver: D,
    entry: u64,
    snapshot: SnapshotCost,
    warmup_done: u64,
}

/// Fig. 2 steps 1–4: restores `base`, runs to the entry point in
/// accelerated mode, attaches the component driver and warms it up with
/// live traffic. The restore refills `spare`, a system a finished run
/// handed back, when there is one, and clones `base` otherwise.
///
/// # Panics
///
/// Panics if `base` has already passed the co-simulation entry point,
/// or if the spec's check interval or co-simulation cap is zero.
pub(crate) fn warm<D: CosimDriver>(
    base: &System,
    golden: &GoldenRef,
    spec: &InjectionSpec,
    spare: Option<System>,
    attach: impl FnOnce(System) -> D,
) -> Warmed<D> {
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
    let warmup = spec.warmup.max(MIN_WARMUP);
    let entry = spec.inject_cycle.saturating_sub(warmup);
    assert!(
        base.cycle() <= entry,
        "base snapshot ({}) is past the co-simulation entry point ({})",
        base.cycle(),
        entry
    );
    // Phase 1 (steps 1–2): restore the snapshot and run to the entry
    // point in accelerated mode.
    let mut sys = match spare {
        Some(mut sys) => {
            sys.clone_from(base);
            #[cfg(test)]
            REFILLS.with(|n| n.set(n.get() + 1));
            sys
        }
        None => base.clone(),
    };
    sys.set_watchdog(golden.watchdog());
    sys.run_until(entry);
    let mut driver = attach(sys);
    // Phase 1, step 4: warm-up with live traffic to reconstruct the
    // microarchitectural state not carried by the high-level model.
    let mut warmup_done = 0u64;
    for _ in 0..warmup {
        driver.step();
        warmup_done += 1;
        if driver.sys().trap().is_some() {
            break;
        }
    }
    Warmed {
        driver,
        entry,
        snapshot: base.snapshot_cost(),
        warmup_done,
    }
}

/// [`warm`] for an L2 bank (shared with the lane engine, whose carrier
/// is this driver).
pub(crate) fn warm_l2c(
    base: &System,
    golden: &GoldenRef,
    spec: &InjectionSpec,
    spare: Option<System>,
) -> Warmed<L2cDriver> {
    warm(base, golden, spec, spare, |sys| {
        L2cDriver::attach(sys, BankId::new(spec.instance % 8))
    })
}

impl<D: CosimDriver> Warmed<D> {
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

#[cfg(test)]
impl<D> Warmed<D> {
    /// The same warmed trajectory, its driver wrapped by `f`.
    pub(crate) fn map<E>(self, f: impl FnOnce(D) -> E) -> Warmed<E> {
        Warmed {
            driver: f(self.driver),
            entry: self.entry,
            snapshot: self.snapshot,
            warmup_done: self.warmup_done,
        }
    }
}

/// A [`Warmed`] driver of whichever component the trajectory targets.
// Every variant holds a whole `System` inline and is moved a handful of
// times per run; a box would buy an allocation per run, not a saving.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum WarmedDriver {
    L2c(Warmed<L2cDriver>),
    Mcu(Warmed<McuDriver>),
    Ccx(Warmed<CcxDriver>),
    Pcie(Warmed<PcieDriver>),
}

/// [`warm`] with the driver `spec.component` names.
pub(crate) fn warm_component(
    base: &System,
    golden: &GoldenRef,
    spec: &InjectionSpec,
    spare: Option<System>,
) -> WarmedDriver {
    match spec.component {
        ComponentKind::L2c => WarmedDriver::L2c(warm_l2c(base, golden, spec, spare)),
        ComponentKind::Mcu => WarmedDriver::Mcu(warm(base, golden, spec, spare, |sys| {
            McuDriver::attach(sys, McuId::new(spec.instance % 4))
        })),
        ComponentKind::Ccx => WarmedDriver::Ccx(warm(base, golden, spec, spare, CcxDriver::attach)),
        ComponentKind::Pcie => {
            WarmedDriver::Pcie(warm(base, golden, spec, spare, PcieDriver::attach))
        }
    }
}

impl WarmedDriver {
    /// [`finish`] on the driver inside.
    pub(crate) fn finish(
        self,
        golden: &GoldenRef,
        spec: &InjectionSpec,
        rec: &mut Recorder,
    ) -> (InjectionRecord, System) {
        match self {
            WarmedDriver::L2c(w) => finish(w, golden, spec, rec),
            WarmedDriver::Mcu(w) => finish(w, golden, spec, rec),
            WarmedDriver::Ccx(w) => finish(w, golden, spec, rec),
            WarmedDriver::Pcie(w) => finish(w, golden, spec, rec),
        }
    }
}

/// A recorder that is active under `telemetry` and null without.
pub fn recorder_for(telemetry: Option<&TelemetryConfig>) -> Recorder {
    match telemetry {
        Some(cfg) => Recorder::active(cfg),
        None => Recorder::null(),
    }
}

/// Finishes the samples `group` (indices into `samples`, all on
/// `warmed`'s trajectory) and appends their runs to `out` in group
/// order. Every run but the last resumes from a clone; the last takes
/// the warmed driver by move, and an empty group drops it unused.
/// Returns the system the last run ended with, for the next restore.
pub(crate) fn finish_group(
    warmed: WarmedDriver,
    golden: &GoldenRef,
    samples: &[InjectionSpec],
    group: &[usize],
    telemetry: Option<&TelemetryConfig>,
    out: &mut IndexedRuns,
) -> Option<System> {
    let (&last, rest) = group.split_last()?;
    let mut run = |warmed: WarmedDriver, i: usize| {
        let mut rec = recorder_for(telemetry);
        let (r, sys) = warmed.finish(golden, &samples[i], &mut rec);
        out.push((i, r, rec));
        sys
    };
    for &i in rest {
        run(warmed.clone(), i);
    }
    Some(run(warmed, last))
}

/// Fig. 2 step 5 through phase 3 from a warmed driver: golden snapshot,
/// the flip of `spec.bit`, co-simulation, state transfer back and
/// outcome determination. Also returns the system the run ended with,
/// on every exit, so that the next restore can refill it.
pub(crate) fn finish<D: CosimDriver>(
    warmed: Warmed<D>,
    golden: &GoldenRef,
    spec: &InjectionSpec,
    rec: &mut Recorder,
) -> (InjectionRecord, System) {
    warmed.record_preamble(spec, rec);
    let mut driver = warmed.driver;
    driver.snapshot_golden();
    driver.inject(spec.bit);
    let inject_cycle = driver.cycle();
    let run = Flipped {
        golden,
        spec,
        inject_cycle,
    };
    run.resume(driver, rec, Resume::Cosim(0))
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
}

impl Flipped<'_> {
    /// Runs the rest of the run from `at` and returns its record and the
    /// system it ended with. The scalar run enters at `Cosim(0)`; a lane
    /// that leaves its batch enters where it left, on a driver equal to
    /// the one its scalar run would hold there.
    pub(crate) fn resume<D: CosimDriver>(
        &self,
        mut driver: D,
        rec: &mut Recorder,
        at: Resume,
    ) -> (InjectionRecord, System) {
        let cosim_cycles = match at {
            Resume::Cosim(stepped) => {
                let end = self.cosimulate(&mut driver, rec, stepped);
                let erroneous = driver.erroneous_output();
                match self.end_cosim(rec, end, erroneous, || driver.check()) {
                    Some(record) => return (record, driver.into_sys()),
                    None => end.cosim_cycles,
                }
            }
            Resume::Detach(cosim_cycles) => cosim_cycles,
        };
        self.transfer_back(driver, rec, cosim_cycles)
    }

    /// Sec. 4.2 exit taxonomy, for the scalar run and for every lane of
    /// a batch: records the run's one CosimExit at `end`, then ends the
    /// run inside co-simulation (Fig. 2 steps 8–9) when nothing ever
    /// diverged — Vanished on an Identical or BenignOnly convergence,
    /// Persist when the cap strikes with the state still Microarch-dirty,
    /// as the one more golden compare `check` tells. `None` leaves the
    /// run to phase 3.
    pub(crate) fn end_cosim(
        &self,
        rec: &mut Recorder,
        end: CosimEnd,
        erroneous_output: Option<u64>,
        check: impl FnOnce() -> CosimCheck,
    ) -> Option<InjectionRecord> {
        let spec = self.spec;
        let comp = spec.component.name();
        let (reason, counter) = match end.exit {
            Exit::Converged(_) => (ExitReason::Converged, names::COSIM_EXIT_CONVERGED),
            Exit::Aborted => (ExitReason::Mismatch, names::COSIM_EXIT_MISMATCH),
            Exit::Cap => (ExitReason::Cap, names::COSIM_EXIT_CAP),
        };
        rec.count(counter, 1);
        rec.event(end.cycle, comp, EventKind::CosimExit, reason.payload());
        rec.record_hist(names::H_COSIM_RESIDENCY, end.cosim_cycles);

        let cap = spec.cosim_cap.max(spec.check_interval);
        let (outcome, counter, payload) = match end.exit {
            _ if erroneous_output.is_some() => return None,
            Exit::Aborted => return None,
            // Nothing ever diverged and the states are identical (or
            // differ only in dont-care bits), so the run's outcome
            // equals the error-free run — stop early as Vanished.
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
    /// the error vanishes, maps to high-level state, or the cap is
    /// reached.
    fn cosimulate<D: CosimDriver>(
        &self,
        driver: &mut D,
        rec: &mut Recorder,
        stepped: u64,
    ) -> CosimEnd {
        let spec = self.spec;
        let cap = spec.cosim_cap.max(spec.check_interval);
        let mut cosim_cycles = stepped;
        let exit = loop {
            if cosim_cycles > 0 {
                if aborted(driver) {
                    break Exit::Aborted;
                }
                if cosim_cycles.is_multiple_of(spec.check_interval) {
                    rec.count(names::GOLDEN_COMPARES, 1);
                    if rec.is_active() {
                        driver.sample_telemetry(rec);
                    }
                    let c = driver.check();
                    if c == CosimCheck::Identical && driver.erroneous_output().is_none() {
                        // Equal state, equal inputs from here on: the
                        // twin's future is the target's, and what is left
                        // of the run only waits for the target to drain.
                        // No erroneous output, because PCIe's check does
                        // not compare memory: there, agreement is every
                        // write so far having matched.
                        driver.retire_golden();
                    }
                    if c.exitable() && driver.drained() {
                        break Exit::Converged(c);
                    }
                }
            }
            if cosim_cycles >= cap {
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
    fn transfer_back<D: CosimDriver>(
        &self,
        driver: D,
        rec: &mut Recorder,
        cosim_cycles: u64,
    ) -> (InjectionRecord, System) {
        let (spec, inject_cycle) = (self.spec, self.inject_cycle);
        rec.count(names::STATE_TRANSFER_TO_HIGH, 1);
        rec.event(
            driver.cycle(),
            spec.component.name(),
            EventKind::StateTransfer,
            1,
        );
        let erroneous_output_cycle = driver.erroneous_output();
        let detach = driver.detach();
        let corrupted = detach.corrupted_lines;
        rec.record_hist(names::H_CORRUPTED_LINES, corrupted.len() as u64);
        let mut sys = detach.sys;
        let rollback_distance = corrupted
            .iter()
            .map(|&l| inject_cycle.saturating_sub(sys.last_store_cycle(l).unwrap_or(0)))
            .max();

        // A matching output after an observed error is ONA (Sec. 3.2).
        let error_observed = erroneous_output_cycle.is_some();
        let outcome = match self.golden.verdict(&sys.run_to_end()) {
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
        (record, sys)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cosim::Detach;
    use nestsim_harness::{check_with, Config, Source};
    use nestsim_hlsim::workload::{by_name, BenchProfile};
    use nestsim_hlsim::SystemConfig;
    use nestsim_models::{inventory, UncoreRtl};
    use nestsim_rtl::FlopClass;
    use std::cell::Cell;
    use std::rc::Rc;

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

    /// The run as it was before warm-up sharing and golden retirement
    /// existed, verbatim: one attach and one warm-up per run, and a
    /// golden twin ticked and compared until the run ends. Everything
    /// [`warm`] + [`finish`] produce is held against this.
    pub(crate) fn run_injection_reference<D: CosimDriver>(
        base: &System,
        golden: &GoldenRef,
        spec: &InjectionSpec,
        rec: &mut Recorder,
        attach: impl FnOnce(System) -> D,
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
        drive_reference(attach(sys), golden, spec, rec)
    }

    fn drive_reference<D: CosimDriver>(
        mut driver: D,
        golden: &GoldenRef,
        spec: &InjectionSpec,
        rec: &mut Recorder,
    ) -> InjectionRecord {
        let comp = spec.component.name();
        let warmup = spec.warmup.max(MIN_WARMUP);
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
                if c.exitable() && driver.drained() {
                    exit_check = c;
                    exited_early = true;
                    break;
                }
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

    /// What [`finish`] did to its driver, seen from outside: the golden
    /// compares it made, and how many it had made when it first retired
    /// the golden.
    #[derive(Default)]
    struct SpyLog {
        checks: Cell<u64>,
        retired_after: Cell<Option<u64>>,
    }

    /// A driver that forwards everything and logs the two calls above.
    struct Spy<D> {
        inner: D,
        log: Rc<SpyLog>,
    }

    impl<D: CosimDriver> CosimDriver for Spy<D> {
        fn step(&mut self) {
            self.inner.step();
        }
        fn cycle(&self) -> u64 {
            self.inner.cycle()
        }
        fn sys(&self) -> &System {
            self.inner.sys()
        }
        fn snapshot_golden(&mut self) {
            self.inner.snapshot_golden();
        }
        fn snapshot_golden_cold(&mut self) {
            self.inner.snapshot_golden_cold();
        }
        fn mismatch_fraction(&self) -> f64 {
            self.inner.mismatch_fraction()
        }
        fn inject(&mut self, bit: usize) {
            self.inner.inject(bit);
        }
        fn check(&self) -> CosimCheck {
            self.log.checks.set(self.log.checks.get() + 1);
            self.inner.check()
        }
        fn retire_golden(&mut self) {
            // The documented precondition, which no record can show
            // broken: with equal states the twin adds nothing either way.
            assert_eq!(self.inner.check(), CosimCheck::Identical);
            assert_eq!(self.inner.erroneous_output(), None);
            if self.log.retired_after.get().is_none() {
                self.log.retired_after.set(Some(self.log.checks.get()));
            }
            self.inner.retire_golden();
        }
        fn drained(&self) -> bool {
            self.inner.drained()
        }
        fn erroneous_output(&self) -> Option<u64> {
            self.inner.erroneous_output()
        }
        fn detach(self) -> Detach {
            self.inner.detach()
        }
        fn into_sys(self) -> System {
            self.inner.into_sys()
        }
        fn sample_telemetry(&self, rec: &mut Recorder) {
            self.inner.sample_telemetry(rec);
        }
    }

    /// Coverage of one component's differential runs.
    #[derive(Default)]
    struct Tally {
        runs: Cell<u64>,
        retired: Cell<u64>,
        /// A run retired its golden and then made this many more
        /// golden compares, at most.
        longest_tail: Cell<u64>,
    }

    /// Two bits on one random trajectory: each finished from the shared
    /// warmed driver — one from a clone, one by move — and each held,
    /// record and recorder, against a reference run of its own.
    fn two_bits_match_the_reference<D: CosimDriver + Clone>(
        src: &mut Source,
        component: ComponentKind,
        (base, golden, profile): &(System, GoldenRef, &'static BenchProfile),
        bits: &[usize],
        attach: impl Fn(System, usize) -> D,
        tally: &Tally,
    ) {
        let (lo, hi) = crate::campaign::injection_window(component, profile, golden);
        let check_interval = [16, 16, 7, 1][src.index(4)];
        let first = InjectionSpec {
            component,
            instance: src.index(crate::campaign::instances_of(component)),
            bit: bits[src.index(bits.len())],
            inject_cycle: src.range_u64(lo, hi),
            warmup: MIN_WARMUP + src.below(1_000),
            // Mostly roomy; sometimes tight enough that the cap cuts
            // a run short, retired golden or not.
            cosim_cap: [4_000, 4_000, 4_000, 4_000, 600, 90][src.index(6)],
            check_interval,
        };
        let second = InjectionSpec {
            bit: bits[src.index(bits.len())],
            ..first
        };
        let attach = |sys| attach(sys, first.instance);
        let cfg = TelemetryConfig {
            trace_capacity: 1024,
        };
        let warmed = warm(base, golden, &first, None, attach);
        for (spec, warmed) in [(first, warmed.clone()), (second, warmed)] {
            let log = Rc::new(SpyLog::default());
            let spied = warmed.map(|inner| Spy {
                inner,
                log: Rc::clone(&log),
            });
            let mut rec = Recorder::active(&cfg);
            let (got, _) = finish(spied, golden, &spec, &mut rec);
            let mut want_rec = Recorder::active(&cfg);
            let want = run_injection_reference(base, golden, &spec, &mut want_rec, attach);
            assert_eq!(got, want, "{spec:?}: record");
            assert_eq!(rec, want_rec, "{spec:?}: recorder");

            tally.runs.set(tally.runs.get() + 1);
            if let Some(at) = log.retired_after.get() {
                tally.retired.set(tally.retired.get() + 1);
                let tail = log.checks.get() - at;
                tally.longest_tail.set(tally.longest_tail.get().max(tail));
            }
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
        let l2c = ["radi", "lu-c", "flui"].map(setup);
        let mcu = ["fft", "flui", "radi"].map(setup);
        let ccx = ["lu-c", "stre", "radi"].map(setup);
        let pcie = ["p-lr", "blsc", "p-sm"].map(setup);
        let bits = ComponentKind::ALL.map(crate::campaign::injection_target_bits);
        let tallies: [Tally; 4] = Default::default();

        let config = Config {
            max_shrink_iters: 24,
            ..Config::with_cases(24)
        };
        check_with(config, "warm_then_finish_matches_reference", |src| {
            for (k, component) in ComponentKind::ALL.into_iter().enumerate() {
                let (bits, tally) = (&bits[k], &tallies[k]);
                let bench = src.index(3);
                match component {
                    ComponentKind::L2c => two_bits_match_the_reference(
                        src,
                        component,
                        &l2c[bench],
                        bits,
                        |sys, i| L2cDriver::attach(sys, BankId::new(i % 8)),
                        tally,
                    ),
                    ComponentKind::Mcu => two_bits_match_the_reference(
                        src,
                        component,
                        &mcu[bench],
                        bits,
                        |sys, i| McuDriver::attach(sys, McuId::new(i % 4)),
                        tally,
                    ),
                    ComponentKind::Ccx => two_bits_match_the_reference(
                        src,
                        component,
                        &ccx[bench],
                        bits,
                        |sys, _| CcxDriver::attach(sys),
                        tally,
                    ),
                    ComponentKind::Pcie => two_bits_match_the_reference(
                        src,
                        component,
                        &pcie[bench],
                        bits,
                        |sys, _| PcieDriver::attach(sys),
                        tally,
                    ),
                }
            }
        });

        // The property proves nothing about retirement unless runs
        // retire, and nothing about a retired golden's *later* checks
        // unless some run goes on checking after it. Uniformly drawn
        // target bits retire in a little under half of all runs (a
        // flipped idle-slot payload stays BenignOnly until traffic
        // overwrites it, which on the crossbar is most flips), and in
        // more than half on L2C, the path retirement was sized on.
        let share = |t: &Tally| (t.retired.get(), t.runs.get());
        let (retired, runs) = tallies
            .iter()
            .map(share)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        assert!(
            retired * 5 >= runs * 2,
            "golden retired in only {retired} of {runs} runs"
        );
        let (retired, runs) = share(&tallies[0]);
        assert!(
            retired * 2 >= runs,
            "L2C: golden retired in only {retired} of {runs} runs"
        );
        for (component, tally) in ComponentKind::ALL.into_iter().zip(&tallies) {
            assert!(tally.retired.get() > 0, "{component}: no run retired");
            let tail = tally.longest_tail.get();
            if component == ComponentKind::Pcie {
                // `PcieDriver::drained` is constant `true`: the check
                // that retires the golden is exitable, so it also ends
                // the run. Ask for a tail here once that changes.
                assert_eq!(tail, 0, "PCIe runs now outlive their retirement");
                continue;
            }
            assert!(
                tail >= 5,
                "{component}: no run made 5 golden compares after retiring its golden \
                 (longest tail {tail}, {} of {} runs retired)",
                tally.retired.get(),
                tally.runs.get(),
            );
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
