//! Lane-batched fault simulation, one engine for every component.
//!
//! The bit-parallel fault-simulation trick on the mixed-mode platform:
//! up to [`MAX_LANES`](nestsim_rtl::MAX_LANES) faulty universes
//! ("lanes") on one injection trajectory — the same spec but for the
//! flipped bit, as `CampaignSpec::lane_cluster` draws them — advance
//! together against **one** system and **one** golden, instead of each
//! paying its own system clone, warm-up and golden tick.
//!
//! The *carrier* is an uninjected [`Driver`], so its target **is** every
//! lane's golden. A lane is a [`Component::Side`], the type of the
//! scalar driver's golden twin, and a shared cycle has the scalar
//! cycle's phases: the carrier runs the system and takes the inputs its
//! target's readiness admits, its target and every live lane tick on
//! them, and the carrier's outputs reach the system. A lane compares
//! and drain-tests by the driver's own code with the roles swapped: the
//! lane is the target, the carrier's target its golden. Lanes retire
//! independently:
//!
//! * **In-batch retirement** — a divergence-free lane whose compare
//!   finds no difference a tick can read (Identical or BenignOnly)
//!   retires as Vanished, and one still Microarch-dirty at the cap as
//!   Persist, through the scalar exit taxonomy ([`Flipped::end_cosim`]).
//! * **Scalar finish** — a lane whose readiness would admit other inputs
//!   than the carrier's (for the crossbar port by port, for a DRAM
//!   controller by command kind), whose outputs the system would see
//!   differ (the L2C return packet, the crossbar's packets, the MCU
//!   response, a PCIe write or completion), or whose run leaves
//!   co-simulation otherwise (ArchMappable or erroneous exit, the
//!   program's end, abort, cap) forks a scalar driver off the carrier at
//!   that cycle ([`Driver::fork`]) and runs on from there
//!   ([`Flipped::resume`]).
//!   Up to that cycle its scalar run saw exactly the carrier's inputs,
//!   so no cycle is co-simulated twice. An output only the lane's side
//!   sees (the L2C DRAM command) only marks its divergence monitor.
//!
//! The scalar engine remains the oracle; the campaign identity property
//! (`tests/reference_identity.rs`) locks byte-identity of records,
//! counts, and merged telemetry across lane widths and worker counts.

use nestsim_models::UncoreRtl;
use nestsim_rtl::{LaneMask, MAX_LANES};
use nestsim_telemetry::{names, Recorder, TelemetryConfig};

use crate::campaign::{same_trajectory, IndexedRuns};
use crate::cosim::{Component, CosimDriver, Driver, Kept, Side};
use crate::inject::{
    aborted, converged, recorder_for, CosimEnd, Exit, Flipped, GoldenRef, InjectionSpec,
    PostFlipStats, Resume, Warmed,
};

/// Engine-side counters of the lane-batched execution (reported as
/// `lanes.*` telemetry, outside the merged per-run recorder — like the
/// ladder's restore/forward counters, they describe *how* the engine
/// ran, never *what* it computed).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneBatchStats {
    /// Lane batches formed (shared carrier universes driven).
    pub batches: u64,
    /// Lanes retired inside a batch, as Vanished or Persist.
    pub retired_early: u64,
    /// Lanes that left a batch to finish on a driver forked off its
    /// carrier where they left.
    pub scalar_fallbacks: u64,
}

impl LaneBatchStats {
    /// Adds these counters to the engine-side recorder.
    pub(crate) fn publish(&self, engine: &mut Recorder) {
        engine.count(names::LANES_BATCHES, self.batches);
        engine.count(names::LANES_RETIRED_EARLY, self.retired_early);
        engine.count(names::LANES_SCALAR_FALLBACKS, self.scalar_fallbacks);
    }
}

/// One faulty universe inside a batch.
struct Lane<S> {
    /// Campaign sample index.
    sample: usize,
    /// The lane's own side; `None` once the lane left the batch.
    state: Option<S>,
    first_err_out: Option<u64>,
    rec: Recorder,
}

/// A lane's own side, while the lane is in the batch.
fn side<S>(state: &Option<S>) -> &S {
    state.as_ref().expect("a lane in the batch holds its side")
}

/// The runs a batch finished, and what finishing one takes.
struct Runs<'a, C: Component> {
    golden: &'a GoldenRef,
    samples: &'a [InjectionSpec],
    /// The batch's flip cycle.
    inject_cycle: u64,
    stats: &'a mut LaneBatchStats,
    post: &'a mut PostFlipStats,
    out: IndexedRuns,
    /// The driver the last fork ended with, which the next refills, and
    /// the sides no lane holds.
    kept: &'a mut Kept<C>,
}

impl<'a, C: Component> Runs<'a, C> {
    /// Sample `i`'s run past the batch's flip.
    fn run(&self, i: usize) -> Flipped<'a> {
        Flipped {
            golden: self.golden,
            spec: &self.samples[i],
            inject_cycle: self.inject_cycle,
            converges: true,
        }
    }

    /// `lane`'s co-simulation ended for `exit` after `cosim_cycles`:
    /// the exit taxonomy either retires it in the batch (Vanished or
    /// Persist) or sends it to phase 3 on a fork.
    fn end(
        &mut self,
        carrier: &mut Driver<C>,
        lane: &mut Lane<C::Side>,
        exit: Exit,
        cosim_cycles: u64,
    ) {
        let end = CosimEnd {
            exit,
            cycle: carrier.cycle(),
            cosim_cycles,
        };
        let check = || carrier.check_lane(side(&lane.state));
        let run = self.run(lane.sample);
        // A lane in the batch has seen nothing its carrier did not.
        let monitor = (lane.first_err_out, lane.first_err_out.is_none());
        match run.end_cosim(&mut lane.rec, self.post, end, monitor, check) {
            Some(record) => {
                let rec = std::mem::replace(&mut lane.rec, Recorder::null());
                self.out.push((lane.sample, record, rec));
                self.stats.retired_early += 1;
                self.kept.lanes.extend(lane.state.take());
            }
            None => {
                #[cfg(test)]
                tests::ended(lane.sample, exit, cosim_cycles);
                self.leave(carrier, lane, Resume::Detach(cosim_cycles), |_| {});
            }
        }
    }

    /// Turns `lane` into the scalar run it stands for: a driver forked
    /// off `carrier`, which `catch_up` brings to where the lane left,
    /// run on from `at` to its end. The lane's recorder carries on as it
    /// is.
    fn leave(
        &mut self,
        carrier: &mut Driver<C>,
        lane: &mut Lane<C::Side>,
        at: Resume,
        catch_up: impl FnOnce(&mut Driver<C>),
    ) {
        let kept = &mut *self.kept;
        let spare = kept.fork.take();
        let state = lane
            .state
            .take()
            .expect("a lane in the batch holds its side");
        let mut driver = carrier.fork(state, lane.first_err_out, spare, &mut kept.lanes);
        catch_up(&mut driver);
        let run = self.run(lane.sample);
        let (record, mut driver) = run.resume(driver, &mut lane.rec, self.post, at);
        // Kept until the next fork refills it, it must not pin the pages
        // the carrier shared for this fork.
        driver.sys_mut().release_pages();
        self.kept.fork = Some(driver);
        let rec = std::mem::replace(&mut lane.rec, Recorder::null());
        self.out.push((lane.sample, record, rec));
        self.stats.scalar_fallbacks += 1;
    }
}

/// Runs one lane batch of component `C` on `warmed`, a driver warmed up
/// to the group's injection cycle: `group` indexes `samples` whose specs
/// are equal except for the flipped bit. Returns one `(sample index,
/// record, recorder)` per group member, byte-identical to running each
/// through [`run_injection_with`](crate::inject::run_injection_with) from
/// the snapshot `warmed` entered from, and the carrier, `warmed`'s
/// driver, as the batch ends with it. The rest goes back into `kept` for
/// the next group: the last fork's driver, and every lane side. A lane
/// that leaves runs to its end before the carrier moves on, and each fork
/// refills the driver the one before it ended with: at most the carrier,
/// one fork and the lanes' sides are alive at a time, and each lane takes
/// its side from `kept.lanes` while there is one. The batch counts into
/// the walk's lane and post-flip `stats`.
///
/// # Panics
///
/// Panics if the group is empty or exceeds [`MAX_LANES`].
pub(crate) fn run_batch<C: Component>(
    mut warmed: Warmed<C>,
    golden: &GoldenRef,
    samples: &[InjectionSpec],
    group: &[usize],
    telemetry: Option<&TelemetryConfig>,
    (stats, post): (&mut LaneBatchStats, &mut PostFlipStats),
    kept: &mut Kept<C>,
) -> (IndexedRuns, Driver<C>) {
    assert!(!group.is_empty() && group.len() <= MAX_LANES, "bad group");
    let spec0 = &samples[group[0]];
    debug_assert!(group.iter().all(|&i| same_trajectory(&samples[i], spec0)));
    stats.batches += 1;

    // A carrier has no golden of its own: one the refilled driver kept
    // joins the pool.
    kept.lanes.extend(warmed.golden.take());

    // Each lane is the warmed driver's twin (≡ the scalar run's target
    // at snapshot_golden) with its bit flipped. A warm-up on the
    // fault-free model ends at the first twin, which turns the driver
    // into flops, once for every lane.
    let inject_cycle = warmed.driver.cycle();
    let mut lanes: Vec<Lane<C::Side>> = group
        .iter()
        .map(|&i| {
            let s = &samples[i];
            let spare = kept.lanes.pop();
            #[cfg(test)]
            if spare.is_some() {
                crate::inject::count(&crate::inject::LANE_REFILLS);
            }
            let mut state = warmed.driver.twin(spare);
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
        post,
        out: Vec::with_capacity(group.len()),
        kept,
    };
    let check_interval = spec0.check_interval;
    let cap = spec0.cosim_cap.max(check_interval);
    // Lanes still in the batch.
    let mut live = LaneMask::full(lanes.len());
    let mut cosim_cycles = 0u64;

    while cosim_cycles < cap && live.any() {
        let cyc = carrier.run_system();
        cosim_cycles += 1;
        // Input parity: a lane whose readiness would admit other inputs
        // than the carrier's consumes another input stream from here on.
        let gate = carrier.admits(None, cyc);
        for li in live.iter() {
            let lane = &mut lanes[li];
            if carrier.admits(Some(side(&lane.state)), cyc) != gate {
                live.clear(li);
                #[cfg(test)]
                tests::forked(lane.sample, "ready parity", cosim_cycles);
                let at = Resume::Cosim(cosim_cycles);
                runs.leave(&mut carrier, lane, at, |f| {
                    f.finish_cycle(cyc);
                });
            }
        }
        let inp = carrier.take(&gate);
        let out = carrier.tick_target(&inp, cyc);
        for li in live.iter() {
            let lane = &mut lanes[li];
            let st = lane
                .state
                .as_mut()
                .expect("a lane in the batch holds its side");
            let l_out = C::tick(st, &inp, carrier.sys().dram(), cyc);
            if C::seen(&l_out, &out) {
                // The lane's run's system receives the lane's outputs.
                live.clear(li);
                #[cfg(test)]
                tests::forked(lane.sample, "outputs", cosim_cycles);
                let at = Resume::Cosim(cosim_cycles);
                runs.leave(&mut carrier, lane, at, |f| {
                    f.settle(cyc, &l_out, Some(&out))
                });
            } else if C::flags(&l_out, &out) {
                // Only the lane's own side sees it: the scalar
                // divergence monitor records it and co-simulates on.
                lane.first_err_out.get_or_insert(cyc);
            }
        }
        carrier.settle(cyc, &out, None);
        if aborted(&carrier) {
            // Every lane still in the batch shares the carrier's system.
            for li in live.iter() {
                runs.end(&mut carrier, &mut lanes[li], Exit::Aborted, cosim_cycles);
            }
            live = LaneMask::EMPTY;
            break;
        }
        // Golden compares, and the program's end at each and at the cap.
        let at_check = cosim_cycles.is_multiple_of(check_interval);
        if !at_check && cosim_cycles < cap {
            continue;
        }
        let halted = carrier.sys().all_halted();
        for li in live.iter() {
            let lane = &mut lanes[li];
            let mut exit = None;
            if at_check {
                lane.rec.count(names::GOLDEN_COMPARES, 1);
                if lane.rec.is_active() {
                    side(&lane.state).sample_telemetry(&mut lane.rec);
                }
                // The scalar run's early exits, in the batch: Vanished
                // retires here, and ArchMappable state or an observed
                // erroneous output leaves for the scalar detach/phase-3
                // flow.
                let c = carrier.check_lane(side(&lane.state));
                let drained = || carrier.drained_with(side(&lane.state));
                if converged(c, lane.first_err_out.is_none(), drained) {
                    exit = Some(Exit::Converged(c));
                }
            }
            if exit.is_none() && halted && carrier.drained_with(side(&lane.state)) {
                exit = Some(Exit::Ended);
            }
            if let Some(exit) = exit {
                live.clear(li);
                runs.end(&mut carrier, lane, exit, cosim_cycles);
            }
        }
    }

    // Cap reached. A run that never diverged and is still Microarch-dirty
    // retires in the batch as Persist; every other lane detaches on a
    // fork.
    for li in live.iter() {
        debug_assert!(
            !(carrier.sys().all_halted() && carrier.drained_with(side(&lanes[li].state))),
            "a lane reached the cap after the program ended"
        );
        runs.end(&mut carrier, &mut lanes[li], Exit::Cap, cosim_cycles);
    }
    (runs.out, carrier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{component_flops, injection_target_bits, injection_window};
    use crate::cosim::tests::steps as steps_by_model;
    use crate::cosim::{on_component, L2cPort};
    use crate::inject::{run_injection_with, warm, MIN_WARMUP};
    use nestsim_hlsim::workload::{by_name, BenchProfile};
    use nestsim_hlsim::{RunResult, System, SystemConfig};
    use nestsim_models::ComponentKind;
    use nestsim_proto::CpxPacket;
    use nestsim_rtl::FlopClass;
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Every lane that left a batch on this thread.
        static FORKS: RefCell<Vec<Fork>> = const { RefCell::new(Vec::new()) };
    }

    /// A lane that left its batch: its sample, why, and the
    /// co-simulation cycle it left on.
    type Fork = (usize, &'static str, u64);

    pub(super) fn forked(sample: usize, why: &'static str, at: u64) {
        FORKS.with(|f| f.borrow_mut().push((sample, why, at)));
    }

    /// Logs the fork of a lane whose co-simulation ended for `exit` at
    /// `at`.
    pub(super) fn ended(sample: usize, exit: Exit, at: u64) {
        let why = match exit {
            Exit::Converged(_) => "exit",
            Exit::Ended => "program end",
            Exit::Aborted => "abort",
            Exit::Cap => "cap",
        };
        forked(sample, why, at);
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

    fn bits_where(component: ComponentKind, pred: impl Fn(FlopClass) -> bool) -> Vec<usize> {
        let bits = component_flops(component).bits_where(pred);
        assert!(!bits.is_empty());
        bits
    }

    /// The bits of the flops a component's readiness reads: their flips
    /// make a lane refuse an input the carrier takes. The PCIe engine
    /// takes no inputs.
    fn readiness_bits(component: ComponentKind) -> Vec<usize> {
        let flops = component_flops(component);
        let fields: Vec<String> = match component {
            ComponentKind::L2c => vec!["iq.count".into()],
            ComponentKind::Mcu => {
                let wdb = (0..4).map(|i| format!("wdb[{i}].valid"));
                std::iter::once("rq.count".into()).chain(wdb).collect()
            }
            ComponentKind::Ccx => (0..8)
                .flat_map(|p| [format!("pcx{p}.count"), format!("cpx{p}.count")])
                .collect(),
            ComponentKind::Pcie => Vec::new(),
        };
        (flops.fields().iter())
            .filter(|f| fields.contains(&f.name.to_string()))
            .flat_map(|f| f.offset..f.offset + f.width)
            .collect()
    }

    /// Runs the batch over all of `samples` and checks that no universe
    /// co-simulated a cycle twice: the system under the batch ran the
    /// warm-up, the carrier's cycles up to where its last lane left or
    /// retired, and each fork's cycles after the one it left on — and
    /// nothing more. Returns the runs in sample order, the counters and
    /// the forks.
    fn batch<C: Component>(
        base: &System,
        golden: &GoldenRef,
        samples: &[InjectionSpec],
        telemetry: Option<&TelemetryConfig>,
    ) -> (IndexedRuns, LaneBatchStats, Vec<Fork>) {
        let steps = || steps_by_model().iter().flatten().sum::<u64>();
        let before = steps();
        drop(warm::<C>(base, golden, &samples[0], None));
        let warm_up = steps() - before;

        let group: Vec<usize> = (0..samples.len()).collect();
        let mut stats = LaneBatchStats::default();
        let mut post = PostFlipStats::default();
        take_forks();
        let before = steps();
        let (mut runs, _) = run_batch::<C>(
            warm::<C>(base, golden, &samples[0], None),
            golden,
            samples,
            &group,
            telemetry,
            (&mut stats, &mut post),
            &mut Kept::default(),
        );
        let stepped = steps() - before;
        let forks = take_forks();
        runs.sort_by_key(|(i, _, _)| *i);
        assert_eq!(runs.len(), samples.len(), "one result per lane");
        let cycles: u64 = runs.iter().map(|(_, r, _)| r.cosim_cycles).sum();
        assert_eq!(post.cycles.as_flattened().iter().sum::<u64>(), cycles);
        assert_eq!(
            post.runs.as_flattened().iter().sum::<u64>(),
            runs.len() as u64
        );
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

    /// Runs the L2C batch over all of `samples` and asserts every lane's
    /// record AND recorder are byte-identical to the scalar oracle.
    fn assert_batch_matches_scalar(
        base: &System,
        golden: &GoldenRef,
        samples: &[InjectionSpec],
    ) -> (LaneBatchStats, Vec<Fork>) {
        let cfg = TelemetryConfig {
            trace_capacity: 1024,
        };
        let (got, stats, forks) = batch::<L2cPort>(base, golden, samples, Some(&cfg));
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

    /// Coverage of one component's batches, counted across cases: forks
    /// by why they left, and batches that end with no leaver (the
    /// carrier's system is the one handed back) and with several (each
    /// fork refills the system the one before it ended with).
    #[derive(Default)]
    struct Coverage {
        reasons: RefCell<std::collections::BTreeMap<&'static str, u64>>,
        no_leaver: Cell<u64>,
        many_leavers: Cell<u64>,
    }

    /// One random batch of `C`, of a random width, on one of `setups`:
    /// every lane's record and recorder equal its sample's scalar run.
    fn lanes_match_their_scalar_runs<C: Component>(
        src: &mut nestsim_harness::Source,
        component: ComponentKind,
        (base, golden, profile): &(System, GoldenRef, &'static BenchProfile),
        pools: &[Vec<usize>; 3],
        coverage: &Coverage,
    ) {
        let cfg = TelemetryConfig {
            trace_capacity: 1024,
        };
        // A tight cap strikes while lanes are still in the batch; an
        // all-inactive batch is the one sure to have no leaver.
        let tight = src.below(3) == 0;
        let [targets, inactive, readiness] = pools;
        let pool = match src.below(8) {
            0 | 1 if !inactive.is_empty() => inactive,
            2 if !readiness.is_empty() => readiness,
            _ => targets,
        };
        let (lo, hi) = injection_window(component, profile, golden);
        let trajectory = InjectionSpec {
            component,
            instance: src.index(crate::campaign::instances_of(component)),
            bit: 0,
            inject_cycle: src.range_u64(lo, hi),
            warmup: MIN_WARMUP + src.below(1_000),
            cosim_cap: if tight { 32 + src.below(96) } else { 4_000 },
            check_interval: [16, 16, 7][src.index(3)],
        };
        let width = if src.below(16) == 0 {
            MAX_LANES
        } else {
            src.range_usize(1, 17)
        };
        let samples: Vec<InjectionSpec> = (0..width)
            .map(|_| InjectionSpec {
                bit: pool[src.index(pool.len())],
                ..trajectory
            })
            .collect();
        let (runs, stats, forks) = batch::<C>(base, golden, &samples, Some(&cfg));
        assert_eq!(
            stats.retired_early + stats.scalar_fallbacks,
            width as u64,
            "{component}: every lane either retires in its batch or leaves it"
        );
        for (i, r, rec) in &runs {
            let mut want_rec = Recorder::active(&cfg);
            let want = run_injection_with(base, golden, &samples[*i], &mut want_rec);
            assert_eq!(*r, want, "{component} sample {i} of {width}: record");
            assert_eq!(
                *rec, want_rec,
                "{component} sample {i} of {width}: recorder"
            );
        }

        for (_, why, _) in forks {
            *coverage.reasons.borrow_mut().entry(why).or_default() += 1;
        }
        match stats.scalar_fallbacks {
            0 => coverage.no_leaver.set(coverage.no_leaver.get() + 1),
            1 => {}
            _ => coverage.many_leavers.set(coverage.many_leavers.get() + 1),
        }
    }

    #[test]
    fn every_lane_of_a_batch_of_any_width_matches_its_scalar_run() {
        use nestsim_harness::{check_with, Config};

        let setup = |bench: &str| {
            let profile = by_name(bench).unwrap();
            let (base, golden) = setup(bench);
            (base, golden, profile)
        };
        let setups = [
            ["radi", "lu-c", "flui"].map(setup),
            ["fft", "flui", "radi"].map(setup),
            ["lu-c", "stre", "radi"].map(setup),
            ["p-lr", "blsc", "p-sm"].map(setup),
        ];
        let pools = ComponentKind::ALL.map(|component| {
            [
                injection_target_bits(component).to_vec(),
                component_flops(component).bits_where(|c| c == FlopClass::Inactive),
                readiness_bits(component),
            ]
        });
        let coverage: [Coverage; 4] = Default::default();

        let config = Config {
            max_shrink_iters: 24,
            ..Config::with_cases(48)
        };
        check_with(config, "lanes_match_their_scalar_runs", |src| {
            for (k, component) in ComponentKind::ALL.into_iter().enumerate() {
                let setup = &setups[k][src.index(3)];
                on_component!(component, C => lanes_match_their_scalar_runs::<C>(
                    src, component, setup, &pools[k], &coverage[k]
                ));
            }
        });
        // An abort needs the fault-free carrier to trap or hang, which
        // no drawn case does: `trapped_system_aborts_the_batch_and_forks_every_lane`
        // covers it. The PCIe engine takes no inputs, so its lanes never
        // disagree on readiness. A lane leaves at the cap only if it is
        // exitable there but undrained, or erroneous but unseen: a lane no
        // tick can tell from its golden retires at its first compare, so
        // MCU and CCX lanes do not reach it (none in 200 tight-cap cases),
        // while L2C's, whose DRAM command only its own side sees, do. Nor
        // does a CCX lane stay in its batch to the program's end: a flip
        // the crossbar does not put out re-converges within a few
        // compares, thousands of cycles before the end (MCU's lanes take
        // that exit).
        let wanted: [&[&str]; 4] = [
            &["ready parity", "outputs", "exit", "cap"],
            &["ready parity", "outputs", "program end"],
            &["ready parity", "outputs"],
            &["outputs"],
        ];
        for (component, coverage) in ComponentKind::ALL.into_iter().zip(&coverage) {
            let reasons = coverage.reasons.borrow();
            let (none, many) = (coverage.no_leaver.get(), coverage.many_leavers.get());
            eprintln!(
                "{component}: forks by reason {reasons:?}; {none} batches without a leaver, {many} with several"
            );
        }
        for (k, component) in ComponentKind::ALL.into_iter().enumerate() {
            let coverage = &coverage[k];
            let reasons = coverage.reasons.borrow();
            let (none, many) = (coverage.no_leaver.get(), coverage.many_leavers.get());
            for why in wanted[k] {
                assert!(
                    reasons.get(why).is_some_and(|&n| n > 0),
                    "{component}: no lane left at {why}: {reasons:?}"
                );
            }
            assert!(none > 0, "{component}: no batch ended without a leaver");
            assert!(many > 0, "{component}: no batch ended with several leavers");
        }
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
        let bits = injection_target_bits(ComponentKind::L2c);
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

    /// L2C's monitor flags a DRAM command the system does not see, so a
    /// lane that issues one stays in its batch. Here a later compare
    /// finds no difference a tick can read before the lane's side has
    /// drained: the lane must not retire there, since not every output
    /// matched (`converged`'s `matched`). Like its lone run it waits for
    /// the drain and leaves for phase 3, with that run's record.
    #[test]
    fn a_lane_past_an_unseen_erroneous_output_waits_for_the_drain() {
        use crate::cosim::CosimCheck;
        let (base, golden) = setup("radi");
        let spec = InjectionSpec {
            instance: 3,
            inject_cycle: 3_168,
            ..l2c_spec(605, 4_000, 16)
        };
        // The lone run: flagged, then unreadable before the drain.
        let warmed = warm::<L2cPort>(&base, &golden, &spec, None);
        let mut driver = warmed.driver;
        driver.snapshot(warmed.golden);
        driver.inject(spec.bit);
        let early = (1..=spec.cosim_cap).find(|cycle| {
            driver.step();
            let unreadable = matches!(
                driver.check(),
                CosimCheck::Identical | CosimCheck::BenignOnly
            );
            cycle % 16 == 0 && unreadable && !driver.drained()
        });
        let flagged = driver.erroneous_output().expect("a flagged DRAM command");
        let early = early.expect("a compare finds nothing a tick can read before the drain");
        assert!(flagged < spec.inject_cycle + early, "{flagged} {early}");

        let quiet = bits_where(ComponentKind::L2c, |c| c == FlopClass::Inactive)[0];
        let samples = [spec, InjectionSpec { bit: quiet, ..spec }];
        let (stats, forks) = assert_batch_matches_scalar(&base, &golden, &samples);
        assert_eq!(stats.retired_early, 1, "{stats:?}");
        assert_eq!(
            forks,
            [(0, "exit", 1_168)],
            "left for phase 3 after the drain"
        );
        assert!(early < 1_168, "{early}");
    }

    #[test]
    fn batch_of_one_matches_scalar() {
        let (base, golden) = setup("radi");
        let bit = injection_target_bits(ComponentKind::L2c)[0];
        let (stats, _) = assert_batch_matches_scalar(&base, &golden, &[l2c_spec(bit, 20_000, 16)]);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn lane_diverging_on_first_ticks_falls_back_byte_identically() {
        let (base, golden) = setup("radi");
        // Probe the scalar oracle for a bit whose flip observably
        // diverges (erroneous output or corrupted state) — that lane
        // must leave the batch, and still be byte-identical.
        let targets = injection_target_bits(ComponentKind::L2c);
        let diverging = targets
            .iter()
            .step_by(61)
            .copied()
            .find(|&b| {
                let r = crate::inject::run_injection(&base, &golden, &l2c_spec(b, 20_000, 16));
                r.erroneous_output_cycle.is_some() || r.corrupted_line_count > 0
            })
            .expect("some target bit diverges observably");
        let quiet = bits_where(ComponentKind::L2c, |c| c == FlopClass::Inactive)[0];
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
        let pool = bits_where(ComponentKind::L2c, |c| c == FlopClass::Inactive);
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
        let targets = injection_target_bits(ComponentKind::L2c);
        let samples: Vec<InjectionSpec> = targets
            .iter()
            .step_by(targets.len() / 4)
            .take(4)
            .map(|&b| l2c_spec(b, 1, 1))
            .collect();
        assert_batch_matches_scalar(&base, &golden, &samples);
    }
}
