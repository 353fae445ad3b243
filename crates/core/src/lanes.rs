//! Lane-batched L2C fault simulation.
//!
//! The classic bit-parallel fault-simulation trick, adapted to the
//! mixed-mode platform: up to [`MAX_LANES`](nestsim_rtl::MAX_LANES)
//! faulty universes ("lanes") that share one injection trajectory —
//! same instance, injection cycle and warm-up, differing only in the
//! flipped bit (the product of `CampaignSpec::lane_cluster` sampling) —
//! advance together against **one** shared system and **one** golden
//! universe, instead of each paying its own system clone, warm-up and
//! golden tick.
//!
//! The shared *carrier* is an uninjected `L2cDriver`: because it is
//! never injected, its target **is** the golden copy of every lane, so
//! the carrier saves the golden tick too. Per shared cycle the carrier
//! advances the system and pops at most one request packet; every live
//! lane then ticks on the *same* inputs. A lane is a [`BankSide`] — bank,
//! memory overlay and DRAM queue — the very type of the scalar driver's
//! golden twin, so it ticks, compares (`L2cDriver::check_lane`) and
//! drain-tests (`L2cDriver::drained_with`) by the driver's own code, with
//! the roles swapped: the lane is the target and the carrier's target
//! side its golden. Lanes retire independently:
//!
//! * **In-batch retirement** — a lane that is drained, divergence-free
//!   and Identical/BenignOnly retires as Vanished (and a lane still
//!   Microarch-dirty at the cap retires as Persist), through the same
//!   exit taxonomy as [`finish`](crate::inject::finish)
//!   ([`Flipped::end_cosim`]).
//! * **Parking** — a divergence-free lane whose check returns
//!   Identical equals the carrier in everything a tick reads (flops,
//!   bank arrays, overlay, DRAM queue), so from there on it *is* the
//!   carrier: its state is dropped, it is no longer ticked or compared,
//!   it keeps recording what the carrier's bank shows at each check,
//!   and it retires as Vanished at the first check where the carrier is
//!   drained.
//! * **Scalar finish** — anything else (input-readiness mismatch,
//!   output divergence, ArchMappable or erroneous exit, trap/watchdog
//!   abort, the cap) leaves the batch: the lane becomes a scalar
//!   `L2cDriver` forked off the carrier at the cycle it leaves on
//!   ([`L2cDriver::fork`]) — the carrier's system and inbox, the lane's
//!   bank as target, the carrier's as its golden twin (none for a parked
//!   lane) — and its run goes on from there ([`Flipped::resume`]) with
//!   the recorder it had in the batch. Up to that cycle the lane's
//!   scalar run would have seen exactly the carrier's inputs, so the
//!   fork is that run's driver, and no cycle is co-simulated twice.
//!
//! The scalar engine remains the oracle; the campaign equivalence tests
//! lock byte-identity of records, counts, and merged telemetry across
//! lane widths and worker counts.

use nestsim_hlsim::System;
use nestsim_models::{ComponentKind, UncoreRtl};
use nestsim_proto::CpxPacket;
use nestsim_rtl::{LaneMask, MAX_LANES};
use nestsim_telemetry::{names, Recorder, TelemetryConfig};

use crate::campaign::{same_trajectory, IndexedRuns};
use crate::cosim::{BankSide, CosimCheck, CosimDriver, L2cDriver, L2cPort, Side};
use crate::inject::{
    aborted, recorder_for, warm, CosimEnd, Exit, Flipped, GoldenRef, InjectionSpec, Resume,
};

/// Engine-side counters of the lane-batched execution (reported as
/// `lanes.*` telemetry, outside the merged per-run recorder — like the
/// ladder's restore/forward counters, they describe *how* the engine
/// ran, never *what* it computed).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneBatchStats {
    /// Lane batches formed (shared carrier universes driven).
    pub batches: u64,
    /// Lanes retired inside a batch (Vanished or Persist) without
    /// touching the scalar path.
    pub retired_early: u64,
    /// Lanes that finished on the scalar path: batch leavers, each on a
    /// driver forked off the carrier where it left (readiness or
    /// return-packet divergence, ArchMappable or erroneous exit, abort,
    /// cap), plus clustered samples that could not batch (non-L2C
    /// components).
    pub scalar_fallbacks: u64,
    /// Lanes parked: proved identical to the carrier and no longer
    /// ticked or compared.
    pub parked: u64,
    /// Same-trajectory groups of two or more non-L2C samples that ran
    /// off one shared attach + warm-up.
    pub shared_warmups: u64,
}

impl LaneBatchStats {
    /// Adds these counters to the engine-side recorder.
    pub(crate) fn publish(&self, engine: &mut Recorder) {
        engine.count(names::LANES_BATCHES, self.batches);
        engine.count(names::LANES_RETIRED_EARLY, self.retired_early);
        engine.count(names::LANES_SCALAR_FALLBACKS, self.scalar_fallbacks);
        engine.count(names::LANES_PARKED, self.parked);
        engine.count(names::LANES_SHARED_WARMUPS, self.shared_warmups);
    }
}

/// One faulty universe inside a batch.
struct Lane {
    /// Campaign sample index.
    sample: usize,
    /// The lane's own bank, overlay and DRAM queue; `None` once the
    /// lane is parked and the carrier's stand in for them.
    state: Option<BankSide>,
    first_err_out: Option<u64>,
    rec: Recorder,
}

/// Where in a shared cycle a lane leaves its batch for a scalar run.
#[derive(Debug, Clone, Copy)]
enum Leave {
    /// Cycle `cyc`, before any bank ticked: the lane's readiness
    /// disagreed with the carrier's while a request waited, so it would
    /// pop another request stream. Its run ticks on its own from here.
    ReadyParity { cyc: u64 },
    /// Cycle `cyc`, after the banks ticked and before the carrier's
    /// return packet reached the system: the lane returned `cpx`
    /// instead, which its run's system receives.
    ReturnPacket { cyc: u64, cpx: Option<CpxPacket> },
    /// Its co-simulation ended without an early termination: phase 3
    /// is its run's own.
    Detach,
}

/// The runs a batch finished, and what finishing one takes.
struct Runs<'a> {
    golden: &'a GoldenRef,
    samples: &'a [InjectionSpec],
    /// The batch's flip cycle.
    inject_cycle: u64,
    stats: &'a mut LaneBatchStats,
    out: IndexedRuns,
    /// The system the last fork ended with, which the next refills.
    spare: Option<System>,
}

impl<'a> Runs<'a> {
    /// Sample `i`'s run past the batch's flip.
    fn run(&self, i: usize) -> Flipped<'a> {
        Flipped {
            golden: self.golden,
            spec: &self.samples[i],
            inject_cycle: self.inject_cycle,
        }
    }

    /// `lane`'s co-simulation ended for `exit` after `cosim_cycles`:
    /// the exit taxonomy either retires it in the batch (Vanished or
    /// Persist) or sends it to phase 3 on a fork.
    fn end(&mut self, carrier: &mut L2cDriver, lane: &mut Lane, exit: Exit, cosim_cycles: u64) {
        let end = CosimEnd {
            exit,
            cycle: carrier.cycle(),
            cosim_cycles,
        };
        // A parked lane is the carrier, so it checks Identical.
        let check =
            || (lane.state.as_ref()).map_or(CosimCheck::Identical, |st| carrier.check_lane(st));
        let run = self.run(lane.sample);
        match run.end_cosim(&mut lane.rec, end, lane.first_err_out, check) {
            Some(record) => {
                let rec = std::mem::replace(&mut lane.rec, Recorder::null());
                self.out.push((lane.sample, record, rec));
                self.stats.retired_early += 1;
            }
            None => {
                #[cfg(test)]
                tests::forked(lane.sample, tests::ended(exit, &lane.state), cosim_cycles);
                self.fork(carrier, lane, Leave::Detach, cosim_cycles);
            }
        }
    }

    /// Turns `lane`, leaving the batch at `leave` after `cosim_cycles`,
    /// into the scalar run it stands for: a driver forked off `carrier`,
    /// finishing the cycle it left on, then run to its end. The lane's
    /// recorder carries on as it is.
    fn fork(&mut self, carrier: &mut L2cDriver, lane: &mut Lane, leave: Leave, cosim_cycles: u64) {
        let first_err_out = match leave {
            // The divergence monitor of the lane's run saw the packets
            // differ.
            Leave::ReturnPacket { cyc, .. } => lane.first_err_out.or(Some(cyc)),
            _ => lane.first_err_out,
        };
        let mut driver = carrier.fork(lane.state.take(), first_err_out, self.spare.take());
        let at = match leave {
            Leave::ReadyParity { cyc } => {
                #[cfg(test)]
                tests::forked(lane.sample, "ready parity", cosim_cycles);
                driver.finish_cycle(cyc);
                Resume::Cosim(cosim_cycles)
            }
            Leave::ReturnPacket { cpx, .. } => {
                #[cfg(test)]
                tests::forked(lane.sample, "return packet", cosim_cycles);
                driver.deliver(cpx);
                Resume::Cosim(cosim_cycles)
            }
            Leave::Detach => Resume::Detach(cosim_cycles),
        };
        let (record, mut sys) = self.run(lane.sample).resume(driver, &mut lane.rec, at);
        // Parked until the next fork refills it, it must not pin the
        // pages the carrier shared for this fork.
        sys.release_pages();
        self.spare = Some(sys);
        let rec = std::mem::replace(&mut lane.rec, Recorder::null());
        self.out.push((lane.sample, record, rec));
        self.stats.scalar_fallbacks += 1;
    }
}

/// Runs one lane batch: `group` indexes `samples` whose specs are equal
/// except for the flipped bit. Returns one `(sample index, record,
/// recorder)` per group member, byte-identical to running each through
/// [`run_injection_with`](crate::inject::run_injection_with) from
/// `base`, and the system the batch ended with for the next restore:
/// the last fork's when lanes left for scalar runs, the carrier's
/// otherwise. `base` is restored into `spare` when there is one.
///
/// A lane that leaves runs to its end on the spot, on a driver forked
/// off the carrier, before the carrier moves on; each fork refills the
/// system the one before it ended with. So at most the carrier, one
/// fork and their systems are alive at a time.
///
/// # Panics
///
/// Panics if the group is empty, exceeds [`MAX_LANES`], targets a
/// non-L2C component, or `base` is past the group's entry point.
pub(crate) fn run_l2c_batch(
    base: &System,
    golden: &GoldenRef,
    samples: &[InjectionSpec],
    group: &[usize],
    telemetry: Option<&TelemetryConfig>,
    stats: &mut LaneBatchStats,
    spare: Option<System>,
) -> (IndexedRuns, System) {
    assert!(!group.is_empty() && group.len() <= MAX_LANES, "bad group");
    let spec0 = &samples[group[0]];
    assert_eq!(spec0.component, ComponentKind::L2c, "only L2C batches");
    debug_assert!(group.iter().all(|&i| same_trajectory(&samples[i], spec0)));
    stats.batches += 1;

    // Shared phase: one attach + warm-up for the whole batch.
    let mut warmed = warm::<L2cPort>(base, golden, spec0, spare);

    // Each lane is the warmed driver's twin (≡ the scalar run's target
    // at snapshot_golden) with its bit flipped. The warm-up ran on slot
    // images, so the first twin turns the driver into flops, once for
    // every lane.
    let inject_cycle = warmed.driver.cycle();
    let mut lanes: Vec<Lane> = group
        .iter()
        .map(|&i| {
            let s = &samples[i];
            let mut state = warmed.driver.twin();
            state.flops().flops_mut().flip(s.bit);
            let mut rec = recorder_for(telemetry);
            warmed.record_preamble(s, &mut rec);
            Lane {
                sample: i,
                state: Some(state),
                first_err_out: None,
                rec,
            }
        })
        .collect();

    // The warmed driver carries the batch on, and plays every lane's
    // golden from here.
    let mut carrier = warmed.driver;
    let mut runs = Runs {
        golden,
        samples,
        inject_cycle,
        stats,
        out: Vec::with_capacity(group.len()),
        spare: None,
    };
    let check_interval = spec0.check_interval;
    let cap = spec0.cosim_cap.max(check_interval);
    // Lanes still in the batch, parked ones included.
    let mut live = LaneMask::full(lanes.len());
    let mut cosim_cycles = 0u64;

    while cosim_cycles < cap && live.any() {
        let cyc = carrier.run_system();
        cosim_cycles += 1;
        // Input parity: a lane whose readiness disagrees with the
        // carrier's while a request waits would consume a different
        // request stream from here on — and in the scalar run its
        // outputs, not the carrier's, drive the system.
        if let Some(ready) = carrier.ready_at_stake() {
            for li in live.iter() {
                let lane = &mut lanes[li];
                if lane.state.as_ref().is_some_and(|st| st.ready() != ready) {
                    live.clear(li);
                    runs.fork(&mut carrier, lane, Leave::ReadyParity { cyc }, cosim_cycles);
                }
            }
        }
        let (pcx, out) = carrier.tick_target(cyc);
        for li in live.iter() {
            let lane = &mut lanes[li];
            let Some(st) = &mut lane.state else {
                continue; // parked: the carrier's tick was this lane's
            };
            let l_out = st.tick(cyc, pcx, carrier.sys().dram());
            if l_out.cpx != out.cpx {
                // Return-packet divergence: the scalar run's system
                // receives the lane's packet, not the carrier's — the
                // trajectories fork, so the lane leaves the batch.
                live.clear(li);
                let leave = Leave::ReturnPacket {
                    cyc,
                    cpx: l_out.cpx,
                };
                runs.fork(&mut carrier, lane, leave, cosim_cycles);
                continue;
            }
            if l_out.dram_cmd != out.dram_cmd && lane.first_err_out.is_none() {
                // DRAM-side divergence is private to the lane (its own
                // latency queue): record it and keep co-simulating,
                // exactly as the scalar divergence monitor does.
                lane.first_err_out = Some(cyc);
            }
        }
        carrier.deliver(out.cpx);
        if aborted(&carrier) {
            // Every lane still in the batch shares the carrier's system.
            for li in live.iter() {
                runs.end(&mut carrier, &mut lanes[li], Exit::Aborted, cosim_cycles);
            }
            live = LaneMask::EMPTY;
            break;
        }
        if cosim_cycles.is_multiple_of(check_interval) {
            for li in live.iter() {
                let lane = &mut lanes[li];
                lane.rec.count(names::GOLDEN_COMPARES, 1);
                if lane.rec.is_active() {
                    match &lane.state {
                        Some(st) => st.sample_telemetry(&mut lane.rec),
                        // Parked: the carrier's bank is the lane's.
                        None => carrier.sample_telemetry(&mut lane.rec),
                    }
                }
                let (c, drained) = match &lane.state {
                    Some(st) => (carrier.check_lane(st), carrier.drained_with(st)),
                    None => (CosimCheck::Identical, carrier.drained()),
                };
                if c.exitable() && drained {
                    // The scalar run's early-Vanished exit in the batch;
                    // ArchMappable state or an observed erroneous output
                    // leaves for the scalar detach/phase-3 flow.
                    live.clear(li);
                    runs.end(&mut carrier, lane, Exit::Converged(c), cosim_cycles);
                    continue;
                }
                // Equal state, equal inputs from here on: the lane's
                // future is the carrier's. Only an Identical lane
                // qualifies — a benign diff is still a diff, and what
                // it reads as next cycle is the lane's own business.
                let clean = lane.first_err_out.is_none();
                let park = clean && c == CosimCheck::Identical && lane.state.is_some();
                #[cfg(test)]
                let park = park && tests::parking();
                if park {
                    lane.state = None;
                    runs.stats.parked += 1;
                }
            }
        }
    }

    // Cap reached. A run that never diverged and is still Microarch-dirty
    // retires in the batch as Persist; every other lane, parked ones
    // too, detaches on a fork.
    for li in live.iter() {
        runs.end(&mut carrier, &mut lanes[li], Exit::Cap, cosim_cycles);
    }
    let sys = runs.spare.unwrap_or_else(|| carrier.into_sys());
    (runs.out, sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::tests::steps as steps_by_model;
    use crate::cosim::Component;
    use crate::inject::{run_injection_with, MIN_WARMUP};
    use nestsim_hlsim::workload::by_name;
    use nestsim_hlsim::{RunResult, SystemConfig};
    use nestsim_models::{L2cBank, UncoreRtl};
    use nestsim_proto::addr::BankId;
    use nestsim_rtl::FlopClass;
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Test-only switch: `false` makes `run_l2c_batch` on this
        /// thread tick and compare every lane to the end, as it did
        /// before parking existed.
        static PARKING: Cell<bool> = const { Cell::new(true) };
        /// Every lane that left a batch on this thread.
        static FORKS: RefCell<Vec<Fork>> = const { RefCell::new(Vec::new()) };
    }

    /// A lane that left its batch: its sample, why, and the
    /// co-simulation cycle it left on.
    type Fork = (usize, &'static str, u64);

    pub(super) fn parking() -> bool {
        PARKING.with(Cell::get)
    }

    pub(super) fn forked(sample: usize, why: &'static str, at: u64) {
        FORKS.with(|f| f.borrow_mut().push((sample, why, at)));
    }

    /// Why a lane whose co-simulation ended for `exit` left, parked
    /// (`state` empty) or not.
    pub(super) fn ended(exit: Exit, state: &Option<BankSide>) -> &'static str {
        match exit {
            Exit::Converged(_) => "exit",
            Exit::Aborted => "abort",
            Exit::Cap if state.is_none() => "parked at cap",
            Exit::Cap => "cap",
        }
    }

    /// The forks logged since the last call.
    fn take_forks() -> Vec<Fork> {
        FORKS.with(|f| std::mem::take(&mut *f.borrow_mut()))
    }

    fn setup(bench: &str) -> (System, GoldenRef) {
        let sys = System::new(SystemConfig::smoke_test(by_name(bench).unwrap()));
        let base = sys.clone();
        let mut run = sys;
        match run.run_to_end() {
            RunResult::Completed { digest, cycles } => (base, GoldenRef { digest, cycles }),
            other => panic!("error-free run must complete, got {other:?}"),
        }
    }

    fn l2c_spec(bit: usize, cosim_cap: u64, check_interval: u64) -> InjectionSpec {
        InjectionSpec {
            component: ComponentKind::L2c,
            instance: 0,
            bit,
            inject_cycle: 2_000,
            warmup: MIN_WARMUP,
            cosim_cap,
            check_interval,
        }
    }

    fn bits_where(pred: impl Fn(&FlopClass) -> bool) -> Vec<usize> {
        let bank = L2cBank::new(BankId::new(0));
        let bits: Vec<usize> = bank
            .flops()
            .fields()
            .iter()
            .filter(|f| pred(&f.class))
            .flat_map(|f| f.offset..f.offset + f.width)
            .collect();
        assert!(!bits.is_empty());
        bits
    }

    /// Runs the batch over all of `samples` and checks that no universe
    /// co-simulated a cycle twice: the system under the batch ran the
    /// warm-up, the carrier's cycles up to where its last lane left or
    /// retired, and each fork's cycles after the one it left on — and
    /// nothing more. Returns the runs in sample order, the counters and
    /// the forks.
    fn run_batch(
        base: &System,
        golden: &GoldenRef,
        samples: &[InjectionSpec],
        telemetry: Option<&TelemetryConfig>,
    ) -> (IndexedRuns, LaneBatchStats, Vec<Fork>) {
        let steps = || steps_by_model().iter().flatten().sum::<u64>();
        let before = steps();
        drop(warm::<L2cPort>(base, golden, &samples[0], None));
        let warm_up = steps() - before;

        let group: Vec<usize> = (0..samples.len()).collect();
        let mut stats = LaneBatchStats::default();
        take_forks();
        let before = steps();
        let (mut runs, _) =
            run_l2c_batch(base, golden, samples, &group, telemetry, &mut stats, None);
        let stepped = steps() - before;
        let forks = take_forks();
        runs.sort_by_key(|(i, _, _)| *i);
        assert_eq!(runs.len(), samples.len(), "one result per lane");
        assert_eq!(forks.len() as u64, stats.scalar_fallbacks, "{forks:?}");

        let left_at = |i: usize| forks.iter().find(|f| f.0 == i).map(|f| f.2);
        let carrier = (runs.iter())
            .map(|(i, r, _)| left_at(*i).unwrap_or(r.cosim_cycles))
            .max()
            .expect("a batch has a lane");
        let after: u64 = forks
            .iter()
            .map(|&(i, _, at)| runs[i].1.cosim_cycles - at)
            .sum();
        assert_eq!(
            stepped,
            warm_up + carrier + after,
            "{warm_up} warm-up and {carrier} carrier cycles, {after} after the forks {forks:?}"
        );
        (runs, stats, forks)
    }

    /// Runs the batch over all of `samples` and asserts every lane's
    /// record AND recorder are byte-identical to the scalar oracle.
    fn assert_batch_matches_scalar(
        base: &System,
        golden: &GoldenRef,
        samples: &[InjectionSpec],
    ) -> (LaneBatchStats, Vec<Fork>) {
        let cfg = TelemetryConfig {
            trace_capacity: 1024,
        };
        let (got, stats, forks) = run_batch(base, golden, samples, Some(&cfg));
        for (i, r, rec) in got {
            let mut srec = Recorder::active(&cfg);
            let sr = run_injection_with(base, golden, &samples[i], &mut srec);
            assert_eq!(r, sr, "record of sample {i} diverges from scalar");
            assert_eq!(rec, srec, "recorder of sample {i} diverges from scalar");
        }
        assert_eq!(
            stats.retired_early + stats.scalar_fallbacks,
            samples.len() as u64,
            "every lane either retires in-batch or falls back"
        );
        (stats, forks)
    }

    #[test]
    fn parked_batch_matches_the_unparked_batch_and_the_reference() {
        use crate::inject::tests::run_injection_reference;
        use nestsim_harness::{check_with, Config};

        let systems = ["radi", "lu-c", "flui"].map(setup);
        let targets = bits_where(|c| c.is_injection_target());
        let inactive = bits_where(|c| *c == FlopClass::Inactive);
        // The input-queue count gates a bank's readiness: its flips are
        // the ones that make a lane refuse a request the carrier takes.
        let bank = L2cBank::new(BankId::new(0));
        let readiness: Vec<usize> = (0..4)
            .map(|b| bank.flops().named_bit("iq.count", b))
            .collect();
        let cfg = TelemetryConfig {
            trace_capacity: 1024,
        };
        // Coverage, counted across cases: forks by why they left, and
        // batches that end with no leaver (the carrier's system is the
        // one handed back) and with several (each fork refills the
        // system the one before it ended with).
        let reasons = RefCell::new(std::collections::BTreeMap::<&str, u64>::new());
        let (no_leaver, many_leavers) = (Cell::new(0u64), Cell::new(0u64));

        let config = Config {
            max_shrink_iters: 24,
            ..Config::with_cases(48)
        };
        check_with(config, "parked_batch_matches_unparked", |src| {
            let (base, golden) = &systems[src.index(3)];
            // A tight cap leaves parked lanes waiting when it strikes;
            // an all-inactive batch is the one sure to have no leaver.
            let tight = src.below(3) == 0;
            let pool = match src.below(8) {
                0 | 1 => &inactive,
                2 => &readiness,
                _ => &targets,
            };
            let lo = MIN_WARMUP + 64;
            let trajectory = InjectionSpec {
                inject_cycle: src.range_u64(lo, (golden.cycles * 9 / 10).max(lo + 64)),
                warmup: MIN_WARMUP + src.below(1_000),
                ..l2c_spec(
                    0,
                    if tight { 32 + src.below(96) } else { 4_000 },
                    [16, 16, 7][src.index(3)],
                )
            };
            let samples: Vec<InjectionSpec> = (0..src.range_usize(1, 10))
                .map(|_| InjectionSpec {
                    bit: pool[src.index(pool.len())],
                    ..trajectory
                })
                .collect();
            let run = |parking: bool| {
                PARKING.with(|p| p.set(parking));
                let batch = run_batch(base, golden, &samples, Some(&cfg));
                PARKING.with(|p| p.set(true));
                batch
            };
            let (parked, stats, forks) = run(true);
            let (unparked, plain, _) = run(false);
            assert_eq!(parked, unparked, "parking changed a lane's run");
            assert_eq!(plain.parked, 0);
            assert_eq!(
                (stats.batches, stats.retired_early, stats.scalar_fallbacks),
                (plain.batches, plain.retired_early, plain.scalar_fallbacks),
                "parking moved a lane between retirement and fallback"
            );
            for (i, r, rec) in &parked {
                let mut want_rec = Recorder::active(&cfg);
                let want =
                    run_injection_reference(base, golden, &samples[*i], &mut want_rec, |sys| {
                        L2cPort::attach_instance(sys, samples[*i].instance)
                    });
                assert_eq!(*r, want, "sample {i}: record");
                assert_eq!(*rec, want_rec, "sample {i}: recorder");
            }

            for (_, why, _) in forks {
                *reasons.borrow_mut().entry(why).or_default() += 1;
            }
            match stats.scalar_fallbacks {
                0 => no_leaver.set(no_leaver.get() + 1),
                1 => {}
                _ => many_leavers.set(many_leavers.get() + 1),
            }
        });
        let reasons = reasons.into_inner();
        eprintln!("forks by reason: {reasons:?}");
        // An abort needs the fault-free carrier to trap or hang, which
        // no drawn case does: `trapped_system_aborts_the_batch_and_forks_every_lane`
        // covers it.
        for why in [
            "ready parity",
            "return packet",
            "exit",
            "cap",
            "parked at cap",
        ] {
            assert!(
                reasons.get(why).is_some_and(|&n| n > 0),
                "no lane left at {why}: {reasons:?}"
            );
        }
        assert!(no_leaver.get() > 0, "no batch ended without a leaver");
        assert!(
            many_leavers.get() > 0,
            "no batch ended with several leavers"
        );
    }

    #[test]
    fn trapped_system_aborts_the_batch_and_forks_every_lane() {
        use nestsim_proto::addr::ThreadId;
        use nestsim_proto::{CpxKind, ReqId};
        // A return packet no thread waits for traps the system, so the
        // warm-up stops at its first cycle and the carrier aborts on its
        // first: every lane leaves there, and its run is the scalar
        // run's Ut.
        let (mut base, golden) = setup("radi");
        base.deliver_cpx(CpxPacket {
            id: ReqId(u64::MAX),
            thread: ThreadId::new(0),
            kind: CpxKind::Error,
            data: 0,
        });
        assert!(base.trap().is_some());
        let bits = bits_where(|c| c.is_injection_target());
        let samples: Vec<InjectionSpec> = (bits.iter().step_by(97).take(5))
            .map(|&b| l2c_spec(b, 4_000, 16))
            .collect();
        let (stats, forks) = assert_batch_matches_scalar(&base, &golden, &samples);
        assert_eq!(stats.scalar_fallbacks, 5, "{stats:?}");
        assert!(
            forks.iter().all(|&(_, why, at)| why == "abort" && at == 1),
            "{forks:?}"
        );
    }

    #[test]
    fn batch_of_one_matches_scalar() {
        let (base, golden) = setup("radi");
        let bit = bits_where(|c| c.is_injection_target())[0];
        let (stats, _) = assert_batch_matches_scalar(&base, &golden, &[l2c_spec(bit, 20_000, 16)]);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn lane_diverging_on_first_ticks_falls_back_byte_identically() {
        let (base, golden) = setup("radi");
        // Probe the scalar oracle for a bit whose flip observably
        // diverges (erroneous output or corrupted state) — that lane
        // must leave the batch, and still be byte-identical.
        let targets = bits_where(|c| c.is_injection_target());
        let diverging = targets
            .iter()
            .step_by(61)
            .copied()
            .find(|&b| {
                let r = crate::inject::run_injection(&base, &golden, &l2c_spec(b, 20_000, 16));
                r.erroneous_output_cycle.is_some() || r.corrupted_line_count > 0
            })
            .expect("some target bit diverges observably");
        let quiet = bits_where(|c| *c == FlopClass::Inactive)[0];
        let (stats, _) = assert_batch_matches_scalar(
            &base,
            &golden,
            &[l2c_spec(diverging, 20_000, 16), l2c_spec(quiet, 20_000, 16)],
        );
        assert!(
            stats.scalar_fallbacks >= 1,
            "an observably diverging lane must leave the batch: {stats:?}"
        );
        assert!(
            stats.retired_early >= 1,
            "the inactive-bit lane must retire in-batch: {stats:?}"
        );
    }

    #[test]
    fn full_width_batch_of_inactive_bits_all_retires_in_batch() {
        let (base, golden) = setup("radi");
        // BIST/redundancy flops never feed live logic: all 64 lanes
        // vanish at the first golden compare, on the same tick.
        let pool = bits_where(|c| *c == FlopClass::Inactive);
        let samples: Vec<InjectionSpec> = (0..MAX_LANES)
            .map(|i| l2c_spec(pool[i % pool.len()], 20_000, 16))
            .collect();
        let (stats, _) = assert_batch_matches_scalar(&base, &golden, &samples);
        assert_eq!(stats.batches, 1);
        assert_eq!(
            stats.retired_early, MAX_LANES as u64,
            "inactive flips must all retire in-batch: {stats:?}"
        );
    }

    #[test]
    fn one_cycle_cosim_window_matches_scalar() {
        let (base, golden) = setup("lu-c");
        // cosim_cap = check_interval = 1: the co-simulation window is a
        // single tick — the check fires once, then every surviving lane
        // takes the cap path.
        let targets = bits_where(|c| c.is_injection_target());
        let samples: Vec<InjectionSpec> = targets
            .iter()
            .step_by(targets.len() / 4)
            .take(4)
            .map(|&b| l2c_spec(b, 1, 1))
            .collect();
        assert_batch_matches_scalar(&base, &golden, &samples);
    }
}
