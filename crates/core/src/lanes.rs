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
//!   exit writers as [`finish`](crate::inject::finish)
//!   ([`record_cosim_exit`], [`terminate_early`]).
//! * **Parking** — a divergence-free lane whose check returns
//!   Identical equals the carrier in everything a tick reads (flops,
//!   bank arrays, overlay, DRAM queue), so from there on it *is* the
//!   carrier: its state is dropped, it is no longer ticked or compared,
//!   it keeps recording what the carrier's bank shows at each check,
//!   and it retires as Vanished at the first check where the carrier is
//!   drained.
//! * **Scalar finish** — anything else (input-readiness mismatch,
//!   output divergence, ArchMappable exit, trap/watchdog abort, a
//!   parked lane still waiting at the cap) leaves the batch: the lane's
//!   partial state is discarded and the sample resumes on the scalar
//!   path ([`finish`](crate::inject::finish)) from a clone of the
//!   batch's own warmed driver as it stood at the golden-snapshot
//!   point, which is byte-identical to a scalar run by construction —
//!   the warmed driver is a function of the trajectory, not of the bit.
//!
//! The scalar engine remains the oracle; the campaign equivalence tests
//! lock byte-identity of records, counts, and merged telemetry across
//! lane widths and worker counts.

use nestsim_hlsim::System;
use nestsim_models::ComponentKind;
use nestsim_rtl::{LaneMask, MAX_LANES};
use nestsim_telemetry::{names, ExitReason, Recorder, TelemetryConfig};

use crate::campaign::{same_trajectory, IndexedRuns};
use crate::cosim::{BankSide, CosimCheck, CosimDriver};
use crate::inject::{
    finish_group, record_cosim_exit, recorder_for, terminate_early, warm_l2c, GoldenRef,
    InjectionSpec, WarmedDriver,
};
use crate::outcome::Outcome;

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
    /// Lanes that finished on the scalar path: batch leavers
    /// (divergence, ArchMappable exit, abort, cap) plus clustered
    /// samples that could not batch (non-L2C components).
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

/// Runs one lane batch: `group` indexes `samples` whose specs are equal
/// except for the flipped bit. Returns one `(sample index, record,
/// recorder)` per group member, byte-identical to running each through
/// [`run_injection_with`](crate::inject::run_injection_with) from
/// `base`, and the system the batch ended with for the next restore:
/// its carrier's, or the last leaver's when lanes left for the scalar
/// path (the carrier is dropped before they run). `base` is restored
/// into `spare` when there is one.
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
    let mut out = Vec::with_capacity(group.len());
    stats.batches += 1;

    // Shared phase: one attach + warm-up for the whole batch. `warmed`
    // stays as it stands here, at the golden-snapshot point, for the
    // lanes that leave; a clone of its driver carries the batch on.
    let warmed = warm_l2c(base, golden, spec0, spare);
    let mut carrier = warmed.driver.clone();

    // Each lane is the carrier's twin (≡ the scalar run's target at
    // snapshot_golden) with its bit flipped; the carrier itself plays
    // every lane's golden from here. The warm-up ran on slot images, so
    // the first twin turns the carrier into flops, once for every lane.
    let c_snap = carrier.cycle();
    let mut lanes: Vec<Lane> = group
        .iter()
        .map(|&i| {
            let s = &samples[i];
            let mut state = carrier.twin();
            state.flip(s.bit);
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

    let cap = spec0.cosim_cap.max(spec0.check_interval);
    // Lanes still in the batch, parked ones included.
    let mut live = LaneMask::full(lanes.len());
    let mut fallback = LaneMask::EMPTY;
    let mut cosim_cycles = 0u64;
    let mut aborted = false;

    while cosim_cycles < cap && live.any() {
        let tick = carrier.step_carrier();
        cosim_cycles += 1;
        if carrier.sys().trap().is_some() || carrier.cycle() > carrier.sys().watchdog() {
            aborted = true;
            break;
        }
        for li in live.iter() {
            let lane = &mut lanes[li];
            let Some(st) = &mut lane.state else {
                continue; // parked: the carrier's tick was this lane's
            };
            // Input parity: a lane whose readiness disagrees with the
            // carrier's while a packet was at stake would consume a
            // different request stream from here on — and in the scalar
            // run its outputs, not the carrier's, drive the system.
            let at_stake = tick.pcx.is_some() || tick.inbox_nonempty;
            if st.ready() != tick.ready && at_stake {
                live.clear(li);
                fallback.set(li);
                continue;
            }
            let l_out = st.tick(tick.cyc, tick.pcx, carrier.sys().dram());
            if l_out.cpx != tick.out.cpx {
                // Return-packet divergence: the scalar run's system
                // would receive the lane's packet, not the carrier's —
                // the trajectories fork, so the lane leaves the batch.
                live.clear(li);
                fallback.set(li);
                continue;
            }
            if l_out.dram_cmd != tick.out.dram_cmd && lane.first_err_out.is_none() {
                // DRAM-side divergence is private to the lane (its own
                // latency queue): record it and keep co-simulating,
                // exactly as the scalar divergence monitor does.
                lane.first_err_out = Some(tick.cyc);
            }
        }
        if cosim_cycles.is_multiple_of(spec0.check_interval) {
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
                let clean = lane.first_err_out.is_none();
                if c.exitable() && drained {
                    live.clear(li);
                    if clean && matches!(c, CosimCheck::Identical | CosimCheck::BenignOnly) {
                        // The scalar run's early-Vanished exit.
                        let (spec, cyc) = (&samples[lane.sample], carrier.cycle());
                        let rec = &mut lane.rec;
                        record_cosim_exit(rec, spec, cyc, ExitReason::Converged, cosim_cycles);
                        let r = terminate_early(
                            rec,
                            spec,
                            cyc,
                            Outcome::Vanished,
                            c_snap,
                            cosim_cycles,
                        );
                        out.push((lane.sample, r, std::mem::replace(rec, Recorder::null())));
                        stats.retired_early += 1;
                    } else {
                        // ArchMappable state or an observed erroneous
                        // output: the scalar detach/phase-3 flow owns
                        // the rest of this run.
                        fallback.set(li);
                    }
                    continue;
                }
                // Equal state, equal inputs from here on: the lane's
                // future is the carrier's. Only an Identical lane
                // qualifies — a benign diff is still a diff, and what
                // it reads as next cycle is the lane's own business.
                let park = clean && c == CosimCheck::Identical && lane.state.is_some();
                #[cfg(test)]
                let park = park && tests::parking();
                if park {
                    lane.state = None;
                    stats.parked += 1;
                }
            }
        }
    }

    for li in live.iter() {
        let lane = &mut lanes[li];
        // An aborted batch, and a parked lane the carrier never drained
        // for (exitable but undrained at the cap), detach — which only
        // the scalar path models.
        let Some(st) = lane.state.as_ref().filter(|_| !aborted) else {
            fallback.set(li);
            continue;
        };
        // Cap reached. Mirror the scalar cap exit: if no divergence was
        // observed and the state is still Microarch-dirty, the run
        // retires in-batch as Persist; everything else detaches too.
        let (spec, cyc) = (&samples[lane.sample], carrier.cycle());
        let rec = &mut lane.rec;
        record_cosim_exit(rec, spec, cyc, ExitReason::Cap, cosim_cycles);
        if lane.first_err_out.is_none() {
            rec.count(names::GOLDEN_COMPARES, 1);
            if !carrier.check_lane(st).exitable() {
                let r = terminate_early(rec, spec, cyc, Outcome::Persist, c_snap, cosim_cycles);
                out.push((lane.sample, r, std::mem::replace(rec, Recorder::null())));
                stats.retired_early += 1;
                continue;
            }
        }
        fallback.set(li);
    }

    // Batch leavers finish on the scalar path from the warmed driver;
    // their partial in-batch recorder is discarded, so the merged
    // telemetry carries exactly one run's worth per sample. The batch's
    // own state goes first: every leaver holds a whole system.
    let leavers: Vec<usize> = fallback.iter().map(|li| lanes[li].sample).collect();
    stats.scalar_fallbacks += leavers.len() as u64;
    drop(lanes);
    let sys = if leavers.is_empty() {
        carrier.into_sys()
    } else {
        drop(carrier);
        let warmed = WarmedDriver::L2c(warmed);
        finish_group(warmed, golden, samples, &leavers, telemetry, &mut out)
            .expect("a group of leavers ran its last")
    };
    (out, sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::L2cDriver;
    use crate::inject::{run_injection_with, MIN_WARMUP};
    use nestsim_hlsim::workload::by_name;
    use nestsim_hlsim::{RunResult, SystemConfig};
    use nestsim_models::{L2cBank, UncoreRtl};
    use nestsim_proto::addr::BankId;
    use nestsim_rtl::FlopClass;
    use std::cell::Cell;

    thread_local! {
        /// Test-only switch: `false` makes `run_l2c_batch` on this
        /// thread tick and compare every lane to the end, as it did
        /// before parking existed.
        static PARKING: Cell<bool> = const { Cell::new(true) };
    }

    pub(super) fn parking() -> bool {
        PARKING.with(Cell::get)
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

    /// Runs the batch over all of `samples` and asserts every lane's
    /// record AND recorder are byte-identical to the scalar oracle.
    fn assert_batch_matches_scalar(
        base: &System,
        golden: &GoldenRef,
        samples: &[InjectionSpec],
    ) -> LaneBatchStats {
        let cfg = TelemetryConfig {
            trace_capacity: 1024,
        };
        let group: Vec<usize> = (0..samples.len()).collect();
        let mut stats = LaneBatchStats::default();
        let (mut got, _) =
            run_l2c_batch(base, golden, samples, &group, Some(&cfg), &mut stats, None);
        got.sort_by_key(|(i, _, _)| *i);
        assert_eq!(got.len(), samples.len(), "one result per lane");
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
        stats
    }

    #[test]
    fn parked_batch_matches_the_unparked_batch_and_the_reference() {
        use crate::inject::tests::run_injection_reference;
        use nestsim_harness::{check_with, Config};

        let systems = ["radi", "lu-c", "flui"].map(setup);
        let targets = bits_where(|c| c.is_injection_target());
        let inactive = bits_where(|c| *c == FlopClass::Inactive);
        let cfg = TelemetryConfig {
            trace_capacity: 1024,
        };
        // Coverage, counted across cases: a parked lane that the cap
        // cut off, and batches that end with no leaver (the warmed
        // driver is dropped unused) and with several (it is cloned for
        // all but the last, who takes it by move).
        let parked_hit_cap = Cell::new(0u64);
        let (no_leaver, many_leavers) = (Cell::new(0u64), Cell::new(0u64));

        let config = Config {
            max_shrink_iters: 24,
            ..Config::with_cases(16)
        };
        check_with(config, "parked_batch_matches_unparked", |src| {
            let (base, golden) = &systems[src.index(3)];
            // A tight cap leaves parked lanes waiting when it strikes;
            // an all-inactive batch is the one sure to have no leaver.
            let tight = src.below(3) == 0;
            let pool = if src.below(4) == 0 {
                &inactive
            } else {
                &targets
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
            let group: Vec<usize> = (0..samples.len()).collect();
            let run = |parking: bool| {
                PARKING.with(|p| p.set(parking));
                let mut stats = LaneBatchStats::default();
                let (mut runs, _) =
                    run_l2c_batch(base, golden, &samples, &group, Some(&cfg), &mut stats, None);
                PARKING.with(|p| p.set(true));
                runs.sort_by_key(|(i, _, _)| *i);
                (runs, stats)
            };
            let (parked, stats) = run(true);
            let (unparked, plain) = run(false);
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
                        L2cDriver::attach(sys, BankId::new(samples[*i].instance % 8))
                    });
                assert_eq!(*r, want, "sample {i}: record");
                assert_eq!(*rec, want_rec, "sample {i}: recorder");
            }

            // A parked lane leaves as an in-batch Vanished or as a
            // leaver; with more parked than retired, some were leavers,
            // and in an unaborted batch only the cap makes them one.
            if tight {
                parked_hit_cap
                    .set(parked_hit_cap.get() + stats.parked.saturating_sub(stats.retired_early));
            }
            match stats.scalar_fallbacks {
                0 => no_leaver.set(no_leaver.get() + 1),
                1 => {}
                _ => many_leavers.set(many_leavers.get() + 1),
            }
        });
        assert!(
            parked_hit_cap.get() > 0,
            "no parked lane was cut off by the cap"
        );
        assert!(no_leaver.get() > 0, "no batch ended without a leaver");
        assert!(
            many_leavers.get() > 0,
            "no batch ended with several leavers"
        );
    }

    #[test]
    fn batch_of_one_matches_scalar() {
        let (base, golden) = setup("radi");
        let bit = bits_where(|c| c.is_injection_target())[0];
        let stats = assert_batch_matches_scalar(&base, &golden, &[l2c_spec(bit, 20_000, 16)]);
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
        let stats = assert_batch_matches_scalar(
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
        let stats = assert_batch_matches_scalar(&base, &golden, &samples);
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
