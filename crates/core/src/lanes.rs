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
//! The shared *carrier* is an uninjected [`L2cDriver`]: because it is
//! never injected, its target **is** the golden copy of every lane, so
//! the carrier saves the golden tick too. Per shared cycle the carrier
//! advances the system and pops at most one request packet; every live
//! lane then ticks its own bank clone on the *same* inputs, with its
//! own private DRAM queue and memory overlay (mirroring the scalar
//! driver's target/golden split). At every `check_interval` boundary
//! the lane-wise XOR golden compare ([`nestsim_rtl::lanes_differing`])
//! decides which lanes need the per-bit benign scan, and lanes retire
//! independently:
//!
//! * **In-batch retirement** — a lane that is drained, divergence-free
//!   and Identical/BenignOnly retires as Vanished (and a lane still
//!   Microarch-dirty at the cap retires as Persist), emitting exactly
//!   the record and telemetry sequence the scalar engine would.
//! * **Scalar fallback** — anything else (input-readiness mismatch,
//!   output divergence, ArchMappable exit, trap/watchdog abort) leaves
//!   the batch: the lane's partial state is discarded and the sample
//!   replays on the untouched scalar path
//!   ([`run_injection_with`]) from the same base snapshot, which is
//!   byte-identical by construction.
//!
//! The scalar engine remains the oracle; the campaign equivalence tests
//! lock byte-identity of records, counts, and merged telemetry across
//! lane widths and worker counts.

use nestsim_arch::DramOverlay;
use nestsim_hlsim::System;
use nestsim_models::l2c::L2cInputs;
use nestsim_models::{ComponentKind, L2cBank, UncoreRtl};
use nestsim_proto::addr::BankId;
use nestsim_rtl::{lanes_differing, BitBuf, LaneMask, MAX_LANES};
use nestsim_telemetry::{names, EventKind, ExitReason, Recorder, TelemetryConfig};

use crate::cosim::{CosimCheck, CosimDriver, L2cDriver};
use crate::inject::{
    run_injection_with, GoldenRef, InjectionRecord, InjectionSpec, MIN_WARMUP, WATCHDOG_MARGIN,
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
    /// Lanes that ran the scalar path: batch leavers (divergence,
    /// ArchMappable exit, abort) plus clustered samples that could not
    /// batch (non-L2C components).
    pub scalar_fallbacks: u64,
}

/// One faulty universe inside a batch.
struct Lane {
    /// Campaign sample index.
    sample: usize,
    bit: usize,
    bank: L2cBank,
    ov: DramOverlay,
    dram: crate::cosim::LatencyDram,
    first_err_out: Option<u64>,
    rec: Recorder,
}

/// Runs one lane batch: `group` indexes `samples` whose specs are equal
/// except for the flipped bit. Returns one `(sample index, record,
/// recorder)` per group member, byte-identical to running each through
/// [`run_injection_with`] from `base`.
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
) -> Vec<(usize, InjectionRecord, Recorder)> {
    assert!(!group.is_empty() && group.len() <= MAX_LANES, "bad group");
    let spec0 = &samples[group[0]];
    assert_eq!(spec0.component, ComponentKind::L2c, "only L2C batches");
    debug_assert!(group.iter().all(|&i| {
        let s = &samples[i];
        (
            s.instance,
            s.inject_cycle,
            s.warmup,
            s.cosim_cap,
            s.check_interval,
        ) == (
            spec0.instance,
            spec0.inject_cycle,
            spec0.warmup,
            spec0.cosim_cap,
            spec0.check_interval,
        )
    }));
    let mk_rec = || match telemetry {
        Some(cfg) => Recorder::active(cfg),
        None => Recorder::null(),
    };
    let mut out = Vec::with_capacity(group.len());
    stats.batches += 1;

    // Shared phase — mirrors run_injection_with up to the bit flip.
    let entry = spec0
        .inject_cycle
        .saturating_sub(spec0.warmup.max(MIN_WARMUP));
    assert!(
        base.cycle() <= entry,
        "base snapshot ({}) is past the co-simulation entry point ({entry})",
        base.cycle(),
    );
    let snap_cost = base.snapshot_cost();
    let mut sys = base.clone();
    sys.set_watchdog(2 * golden.cycles + WATCHDOG_MARGIN);
    sys.run_until(entry);
    let comp = spec0.component.name();
    let mut carrier = L2cDriver::attach(sys, BankId::new(spec0.instance % 8));

    let warmup = spec0.warmup.max(MIN_WARMUP);
    let mut warmup_done = 0u64;
    for _ in 0..warmup {
        carrier.step();
        warmup_done += 1;
        if carrier.sys().trap().is_some() {
            break;
        }
    }
    if carrier.sys().trap().is_some() {
        // Warm-up trapped: the scalar abort machinery owns this corner;
        // replay every lane rather than replicate it.
        stats.scalar_fallbacks += group.len() as u64;
        for &i in group {
            let mut rec = mk_rec();
            let r = run_injection_with(base, golden, &samples[i], &mut rec);
            out.push((i, r, rec));
        }
        return out;
    }

    // The golden-snapshot point: each lane is a clone of the carrier
    // (≡ the scalar run's target at snapshot_golden) with its bit
    // flipped; the carrier itself plays every lane's golden from here.
    let c_snap = carrier.cycle();
    let mut lanes: Vec<Lane> = group
        .iter()
        .map(|&i| {
            let s = &samples[i];
            let mut bank = carrier.target.clone();
            bank.flops_mut().flip(s.bit);
            // Replicate the scalar run's pre-loop recorder sequence.
            let mut rec = mk_rec();
            if rec.is_active() {
                rec.count(names::SNAPSHOT_CLONES, 1);
                rec.record_hist(names::H_SNAPSHOT_DRAM_LINES, snap_cost.dram_lines as u64);
                rec.record_hist(
                    names::H_SNAPSHOT_RESIDENT_LINES,
                    snap_cost.resident_l2_lines as u64,
                );
            }
            rec.count(names::STATE_TRANSFER_TO_RTL, 1);
            rec.count(names::COSIM_ENTER, 1);
            rec.event(entry, comp, EventKind::StateTransfer, 0);
            rec.event(entry, comp, EventKind::CosimEnter, 0);
            rec.record_hist(names::H_WARMUP, warmup_done);
            rec.event(c_snap, comp, EventKind::SnapshotGolden, 0);
            rec.event(c_snap, comp, EventKind::BitFlip, s.bit as u64);
            Lane {
                sample: i,
                bit: s.bit,
                bank,
                ov: carrier.t_ov.clone(),
                dram: carrier.t_dram.clone(),
                first_err_out: None,
                rec,
            }
        })
        .collect();

    let cap = spec0.cosim_cap.max(spec0.check_interval);
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
            // Input parity: a lane whose readiness disagrees with the
            // carrier's while a packet was at stake would consume a
            // different request stream from here on — and in the scalar
            // run its outputs, not the carrier's, drive the system.
            let at_stake = tick.pcx.is_some() || tick.inbox_nonempty;
            if lane.bank.ready() != tick.ready && at_stake {
                live.clear(li);
                fallback.set(li);
                continue;
            }
            let resp = lane
                .dram
                .pop_ready(tick.cyc, carrier.sys().dram(), &mut lane.ov);
            let l_out = lane.bank.tick(&L2cInputs {
                pcx: tick.pcx,
                dram_resp: resp,
            });
            if let Some(cmd) = &l_out.dram_cmd {
                lane.dram.push(tick.cyc, cmd.clone());
            }
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
        if cosim_cycles.is_multiple_of(spec0.check_interval) && live.any() {
            // The lane-wise XOR golden compare: one word-parallel scan
            // per live lane decides who needs the per-bit benign scan.
            let differing = {
                let bufs: Vec<&BitBuf> = lanes.iter().map(|l| l.bank.flops().raw_bits()).collect();
                lanes_differing(carrier.target.flops().raw_bits(), &bufs, live)
            };
            for li in live.iter() {
                let lane = &mut lanes[li];
                lane.rec.count(names::GOLDEN_COMPARES, 1);
                if lane.rec.is_active() {
                    lane.rec
                        .record_hist(names::H_Q_L2C_IQ, lane.bank.iq_occupancy() as u64);
                    lane.rec
                        .record_hist(names::H_Q_L2C_OQ, lane.bank.oq_occupancy() as u64);
                    lane.rec
                        .record_hist(names::H_Q_L2C_MB, lane.bank.mb_occupancy() as u64);
                }
                let c = lane_check(lane, &carrier, differing.contains(li));
                if c.exitable() && lane_drained(lane, &carrier) {
                    live.clear(li);
                    if lane.first_err_out.is_none()
                        && matches!(c, CosimCheck::Identical | CosimCheck::BenignOnly)
                    {
                        // Scalar early-Vanished exit sequence.
                        let cyc_now = carrier.cycle();
                        lane.rec.count(names::COSIM_EXIT_CONVERGED, 1);
                        lane.rec.event(
                            cyc_now,
                            comp,
                            EventKind::CosimExit,
                            ExitReason::Converged.payload(),
                        );
                        lane.rec.record_hist(names::H_COSIM_RESIDENCY, cosim_cycles);
                        lane.rec.count(names::EARLY_TERM_VANISHED, 1);
                        lane.rec.count(names::INJECT_RUNS, 1);
                        lane.rec
                            .event(cyc_now, comp, EventKind::EarlyTermination, 0);
                        let rec = std::mem::replace(&mut lane.rec, Recorder::null());
                        out.push((
                            lane.sample,
                            vanish_record(lane.bit, c_snap, cosim_cycles, Outcome::Vanished),
                            rec,
                        ));
                        stats.retired_early += 1;
                    } else {
                        // ArchMappable state or an observed erroneous
                        // output: the scalar detach/phase-3 flow owns
                        // the rest of this run.
                        fallback.set(li);
                    }
                }
            }
        }
    }

    for li in live.iter() {
        if aborted {
            fallback.set(li);
            continue;
        }
        // Cap reached. Mirror the scalar cap exit: if no divergence was
        // observed and the state is still Microarch-dirty, the run
        // retires in-batch as Persist; everything else detaches, which
        // only the scalar path models.
        let lane = &mut lanes[li];
        lane.rec.count(names::COSIM_EXIT_CAP, 1);
        lane.rec.event(
            carrier.cycle(),
            comp,
            EventKind::CosimExit,
            ExitReason::Cap.payload(),
        );
        lane.rec.record_hist(names::H_COSIM_RESIDENCY, cosim_cycles);
        if lane.first_err_out.is_none() {
            lane.rec.count(names::GOLDEN_COMPARES, 1);
            if !lane_check(lane, &carrier, true).exitable() {
                lane.rec.count(names::EARLY_TERM_PERSIST, 1);
                lane.rec.count(names::INJECT_RUNS, 1);
                lane.rec
                    .event(carrier.cycle(), comp, EventKind::EarlyTermination, 1);
                let rec = std::mem::replace(&mut lane.rec, Recorder::null());
                out.push((
                    lane.sample,
                    vanish_record(lane.bit, c_snap, cosim_cycles, Outcome::Persist),
                    rec,
                ));
                stats.retired_early += 1;
                continue;
            }
        }
        fallback.set(li);
    }

    // Batch leavers replay on the scalar oracle from the same base
    // snapshot; their partial in-batch recorder is discarded, so the
    // merged telemetry carries exactly one run's worth per sample.
    for li in fallback.iter() {
        let i = lanes[li].sample;
        let mut rec = mk_rec();
        let r = run_injection_with(base, golden, &samples[i], &mut rec);
        out.push((i, r, rec));
        stats.scalar_fallbacks += 1;
    }
    out
}

/// A divergence-free record (Vanished in-batch, or Persist at the cap):
/// nothing propagated, nothing was corrupted.
fn vanish_record(
    bit: usize,
    inject_cycle: u64,
    cosim_cycles: u64,
    outcome: Outcome,
) -> InjectionRecord {
    InjectionRecord {
        outcome,
        bit,
        inject_cycle,
        cosim_cycles,
        erroneous_output_cycle: None,
        propagation_latency: None,
        corrupted_line_count: 0,
        rollback_distance: None,
    }
}

/// The scalar driver's `check()` with the roles remapped: the lane is
/// the target, the carrier's target/overlay/DRAM-queue are the golden.
/// `flops_differ` short-circuits the per-bit benign scan for lanes the
/// XOR kernel already proved flop-identical.
fn lane_check(lane: &Lane, carrier: &L2cDriver, flops_differ: bool) -> CosimCheck {
    if lane.dram.queue != carrier.t_dram.queue {
        return CosimCheck::Microarch;
    }
    let golden = &carrier.target;
    let mut benign_seen = false;
    if flops_differ {
        for bit in lane.bank.flops().diff_bits(golden.flops()) {
            if lane.bank.is_benign_diff(golden, bit) {
                benign_seen = true;
            } else {
                return CosimCheck::Microarch;
            }
        }
    }
    let arch_dirty = !lane.bank.arch().diff_slots(golden.arch()).is_empty()
        || lane.ov.differs(&carrier.t_ov, carrier.sys().dram());
    if arch_dirty {
        CosimCheck::ArchMappable
    } else if benign_seen {
        CosimCheck::BenignOnly
    } else {
        CosimCheck::Identical
    }
}

/// The scalar driver's `drained()` for one lane: the inbox and the
/// system wait-state are shared with the carrier; the bank and DRAM
/// queue are the lane's own.
fn lane_drained(lane: &Lane, carrier: &L2cDriver) -> bool {
    carrier.inbox.is_empty()
        && lane.bank.idle()
        && lane.dram.queue.is_empty()
        && carrier.sys().waiting_on_uncore() == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_hlsim::workload::by_name;
    use nestsim_hlsim::{RunResult, SystemConfig};
    use nestsim_rtl::FlopClass;

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
        let mut got = run_l2c_batch(base, golden, samples, &group, Some(&cfg), &mut stats);
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
