//! Cross-crate integration tests: the full Fig. 2 injection flow on
//! every component, platform invariants, and determinism.

use nestsim::core::campaign::{
    golden_reference, run_campaign_replay, run_campaign_with, run_rounds, CampaignSpec,
    LadderExecutor, Plan,
};
use nestsim::core::cosim::{CosimDriver, L2cDriver};
use nestsim::core::inject::{run_injection, InjectionSpec, MIN_WARMUP};
use nestsim::core::Outcome;
use nestsim::hlsim::workload::{by_name, BENCHMARKS};
use nestsim::hlsim::{RunResult, System, SystemConfig};
use nestsim::models::ComponentKind;
use nestsim::proto::addr::BankId;
use nestsim::telemetry::{names, TelemetryConfig};

mod common;
use common::{hex, pinned, result_digest, DIGESTS};

fn quick_spec(component: ComponentKind, samples: u64) -> CampaignSpec {
    CampaignSpec {
        workers: 2,
        ..CampaignSpec::quick(component, samples)
    }
}

#[test]
fn every_component_campaign_classifies_all_runs() {
    for component in ComponentKind::ALL {
        let profile = if component == ComponentKind::Pcie {
            by_name("p-lr").unwrap()
        } else {
            by_name("radi").unwrap()
        };
        let r = run_campaign_with(profile, &quick_spec(component, 10), None);
        assert_eq!(r.counts.total(), 10, "{component}: all runs classified");
        assert_eq!(r.records.len(), 10);
    }
}

#[test]
fn vanished_dominates_for_every_component() {
    // The paper's headline: >97% of injections vanish at full scale.
    // At smoke scale the share is lower but must still dominate.
    for component in ComponentKind::ALL {
        let profile = if component == ComponentKind::Pcie {
            by_name("p-sm").unwrap()
        } else {
            by_name("lu-c").unwrap()
        };
        let r = run_campaign_with(profile, &quick_spec(component, 24), None);
        let vanished = r.counts.count(Outcome::Vanished);
        assert!(
            vanished * 2 > r.counts.total(),
            "{component}: vanished {vanished}/{}",
            r.counts.total()
        );
    }
}

#[test]
fn campaigns_are_bit_reproducible() {
    let profile = by_name("flui").unwrap();
    let a = run_campaign_with(profile, &quick_spec(ComponentKind::Mcu, 8), None);
    let b = run_campaign_with(profile, &quick_spec(ComponentKind::Mcu, 8), None);
    assert_eq!(a.records, b.records);
    assert_eq!(a.golden, b.golden);
}

#[test]
fn error_free_cosim_window_preserves_the_outcome() {
    // The platform premise (Sec. 2.1): splicing the RTL component into
    // the system without injecting anything must not change the
    // application's output.
    let profile = by_name("radi").unwrap();
    let spec = CampaignSpec::quick(ComponentKind::L2c, 1);
    let (base, golden) = golden_reference(profile, &spec);

    let mut sys = base.clone();
    sys.run_until(1_000);
    let mut drv = L2cDriver::attach(sys, BankId::new(3));
    for _ in 0..3_000 {
        drv.step();
    }
    // Detaching mid-flight would strand outstanding requests; wait for
    // an idle point, exactly as the injection flow does.
    let mut guard = 0;
    while !drv.drained() {
        drv.step();
        guard += 1;
        assert!(guard < 10_000, "bank never drained");
    }
    let detach = drv.detach();
    assert!(detach.corrupted_lines.is_empty());
    let mut sys = detach.sys;
    match sys.run_to_end() {
        RunResult::Completed { digest, .. } => assert_eq!(digest, golden.digest),
        other => panic!("error-free window changed the outcome: {other:?}"),
    }
}

#[test]
fn golden_digest_is_stable_across_topologies_of_same_seed() {
    // Same seed and benchmark, different length scales → different
    // digests (the workload really is length-dependent).
    let mk = |scale| {
        let cfg = SystemConfig {
            length_scale: scale,
            ..SystemConfig::new(by_name("fft").unwrap())
        };
        System::new(cfg).run_to_end().digest().unwrap()
    };
    assert_ne!(mk(100), mk(200));
    assert_eq!(mk(150), mk(150));
}

#[test]
fn all_benchmarks_complete_error_free() {
    // Table 5's full sweep at heavy scale-down: every workload must
    // run to completion deterministically.
    for b in &BENCHMARKS {
        let cfg = SystemConfig {
            length_scale: 400,
            ..SystemConfig::new(b)
        };
        let r = System::new(cfg).run_to_end();
        assert!(r.is_completed(), "{}: {r:?}", b.name);
    }
}

#[test]
fn injection_into_idle_component_vanishes() {
    // PCIe after DMA completion is idle: flips in its staging path
    // cannot matter.
    let profile = by_name("blsc").unwrap(); // tiny input file
    let spec = CampaignSpec::quick(ComponentKind::L2c, 1);
    let (base, golden) = golden_reference(profile, &spec);
    let r = run_injection(
        &base,
        &golden,
        &InjectionSpec {
            component: ComponentKind::Pcie,
            instance: 0,
            bit: 40,                         // desc.len field area
            inject_cycle: golden.cycles / 2, // long after the DMA finished
            warmup: MIN_WARMUP,
            cosim_cap: 30_000,
            check_interval: 16,
        },
    );
    assert!(
        matches!(r.outcome, Outcome::Vanished | Outcome::Persist),
        "idle-engine flip must not matter: {r:?}"
    );
}

#[test]
fn telemetry_is_worker_count_invariant() {
    // The observability layer must not leak the sharding: the merged
    // telemetry (counters, histograms, trace) and the outcome counts
    // must be byte-identical for workers = 1, 4 and 0 (= auto).
    let profile = by_name("flui").unwrap();
    let cfg = TelemetryConfig::default();
    let run = |workers: usize| {
        let spec = CampaignSpec {
            workers,
            ..CampaignSpec::quick(ComponentKind::L2c, 12)
        };
        run_campaign_with(profile, &spec, Some(&cfg))
    };
    let one = run(1);
    let four = run(4);
    let auto = run(0);
    assert_eq!(one.counts, four.counts);
    assert_eq!(one.counts, auto.counts);
    assert_eq!(one.records, four.records);
    let jsonl = one.telemetry.to_jsonl();
    assert_eq!(jsonl, four.telemetry.to_jsonl());
    assert_eq!(jsonl, auto.telemetry.to_jsonl());
    // The only worker-dependent data lives outside the merged export.
    assert_eq!(one.telemetry.worker_samples, vec![12]);
    assert_eq!(four.telemetry.worker_samples, vec![3, 3, 3, 3]);
    // And the export is non-trivial: it carries the campaign's runs.
    assert!(jsonl.contains("\"name\":\"inject.runs\",\"value\":12"));
}

#[test]
fn empty_campaign_returns_valid_all_zero_telemetry() {
    // samples = 0 with explicit workers used to spawn idle workers
    // through the `order.len().max(1)` path; it must short-circuit.
    let profile = by_name("fft").unwrap();
    for workers in [0, 1, 4] {
        let spec = CampaignSpec {
            workers,
            ..CampaignSpec::quick(ComponentKind::Mcu, 0)
        };
        let r = run_campaign_with(profile, &spec, Some(&TelemetryConfig::default()));
        assert_eq!(r.counts.total(), 0);
        assert!(r.records.is_empty());
        assert!(r.telemetry.is_active());
        assert!(r.telemetry.worker_samples.is_empty());
        assert_eq!(r.telemetry.merged.counter("inject.runs"), 0);
        // Without telemetry the recorder is the null one.
        let plain = run_campaign_with(profile, &spec, None);
        assert!(!plain.telemetry.is_active());
        assert_eq!(
            plain.telemetry.to_jsonl(),
            "{\"type\":\"meta\",\"schema\":1,\"enabled\":false}\n"
        );
    }
}

#[test]
fn ladder_engine_is_byte_identical_to_replay_for_any_interval_and_workers() {
    // The snapshot-ladder hard constraint, exhaustively over the spec's
    // domain: for every snapshot interval (including ∞ = base rung
    // only) and every worker count — which sets the fixed-count rung
    // budget, one rung per shard, so 1 worker runs from the base alone
    // — records, counts, golden reference and the merged telemetry
    // export must be *byte*-identical to the pre-ladder replay engine —
    // on two distinct (component, benchmark) cells.
    let cfg = TelemetryConfig::default();
    for (component, bench) in [(ComponentKind::L2c, "radi"), (ComponentKind::Mcu, "flui")] {
        let profile = by_name(bench).unwrap();
        let reference =
            run_campaign_replay(profile, &CampaignSpec::quick(component, 10), Some(&cfg));
        let ref_jsonl = reference.telemetry.to_jsonl();
        for interval in [512, 2_000, 8_192, u64::MAX] {
            for workers in [1usize, 2, 4] {
                let spec = CampaignSpec {
                    snapshot_interval: interval,
                    workers,
                    ..CampaignSpec::quick(component, 10)
                };
                let r = run_campaign_with(profile, &spec, Some(&cfg));
                let tag = format!("{component}/{bench} interval={interval} workers={workers}");
                assert_eq!(r.records, reference.records, "{tag}: records");
                assert_eq!(r.counts, reference.counts, "{tag}: counts");
                assert_eq!(r.golden, reference.golden, "{tag}: golden");
                assert_eq!(r.telemetry.to_jsonl(), ref_jsonl, "{tag}: merged telemetry");
            }
        }
    }
}

#[test]
fn lane_batched_engine_is_byte_identical_to_replay_for_any_width_and_workers() {
    // The lane-batching hard constraint: lane width is execution-only.
    // For every width in {1, 8, 64} and workers in {1, 4}, records,
    // counts, golden reference and the merged telemetry export must be
    // *byte*-identical to the unbatched replay oracle — on every
    // component, with lane clustering active so batches actually form
    // (and, at width 8, clusters of 16 split into two batches).
    let cfg = TelemetryConfig::default();
    let cells: [(ComponentKind, &str, u64, u64); 5] = [
        (ComponentKind::L2c, "radi", 64, 64),
        (ComponentKind::L2c, "lu-c", 16, 8),
        (ComponentKind::Mcu, "flui", 16, 16),
        (ComponentKind::Ccx, "lu-c", 16, 16),
        (ComponentKind::Pcie, "p-lr", 16, 16),
    ];
    for (component, bench, samples, lane_cluster) in cells {
        let profile = by_name(bench).unwrap();
        let base = CampaignSpec {
            lane_cluster,
            ..CampaignSpec::quick(component, samples)
        };
        let reference = run_campaign_replay(profile, &base, Some(&cfg));
        let ref_jsonl = reference.telemetry.to_jsonl();
        for lane_width in [1, 8, 64] {
            for workers in [1usize, 4] {
                let spec = CampaignSpec {
                    lane_width,
                    workers,
                    ..base
                };
                let r = run_campaign_with(profile, &spec, Some(&cfg));
                let tag = format!("{component}/{bench} width={lane_width} workers={workers}");
                assert_eq!(r.records, reference.records, "{tag}: records");
                assert_eq!(r.counts, reference.counts, "{tag}: counts");
                assert_eq!(r.golden, reference.golden, "{tag}: golden");
                assert_eq!(r.telemetry.to_jsonl(), ref_jsonl, "{tag}: merged telemetry");
            }
        }
        // Every cell must actually exercise in-batch retirement at full
        // width, or the identity above proves less than it claims.
        let spec = CampaignSpec { workers: 1, ..base };
        let r = run_campaign_with(profile, &spec, Some(&cfg));
        assert!(
            r.telemetry.engine.counter(names::LANES_RETIRED_EARLY) > 0,
            "{component}/{bench}: no lane ever retired in-batch"
        );
    }
}

#[test]
fn ladder_engine_cuts_forward_simulation_at_least_2x_at_4_workers() {
    // The point of the ladder: the replay engine forward-simulates
    // roughly workers × benchmark-length, the ladder engine roughly one
    // benchmark length total (rung capture rides the golden pass, which
    // the campaign runs anyway, at the price of one clone per rung —
    // one rung per shard here). The engines publish their forward-sim
    // cycle counts, so the win is a deterministic assertion, not a
    // wall-clock flake.
    let profile = by_name("radi").unwrap();
    let cfg = TelemetryConfig::default();
    let spec = CampaignSpec {
        workers: 4,
        ..CampaignSpec::quick(ComponentKind::L2c, 16)
    };
    let ladder = run_campaign_with(profile, &spec, Some(&cfg));
    let replay = run_campaign_replay(profile, &spec, Some(&cfg));
    let ladder_fwd = ladder.telemetry.engine.counter(names::FORWARD_CYCLES);
    let replay_fwd = replay.telemetry.engine.counter(names::FORWARD_CYCLES);
    assert!(
        ladder.telemetry.engine.counter(names::LADDER_RUNGS) >= 2,
        "the quick campaign must actually build a ladder"
    );
    assert!(
        replay_fwd >= 2 * ladder_fwd,
        "expected >= 2x fewer forward-sim cycles: ladder {ladder_fwd}, replay {replay_fwd}"
    );
    assert_eq!(ladder.records, replay.records);
}

#[test]
fn records_carry_consistent_analysis_fields() {
    let profile = by_name("lu-c").unwrap();
    let r = run_campaign_with(profile, &quick_spec(ComponentKind::L2c, 20), None);
    for rec in &r.records {
        if rec.outcome == Outcome::Vanished && rec.erroneous_output_cycle.is_none() {
            assert_eq!(rec.corrupted_line_count, 0, "vanished runs corrupt nothing");
        }
        if rec.rollback_distance.is_some() {
            assert!(rec.corrupted_line_count > 0);
        }
        if let Some(c) = rec.erroneous_output_cycle {
            assert!(c >= rec.inject_cycle, "divergence precedes injection");
        }
    }
}

/// Checks `got` against the entry `name` of `GOLDEN_digests.txt` (`ctx`
/// says which run produced it). Under `NESTSIM_BLESS=1` it writes `got`
/// there instead; every run that blesses one entry must agree.
fn assert_pinned(name: &str, ctx: &str, got: u64) {
    static BLESSED: std::sync::Mutex<Vec<(String, u64)>> = std::sync::Mutex::new(Vec::new());
    if std::env::var("NESTSIM_BLESS").as_deref() == Ok("1") {
        let mut blessed = BLESSED.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, first)) = blessed.iter().find(|(n, _)| n == name) {
            assert_eq!(
                *first,
                got,
                "{ctx}: entry `{name}` blessed as {} and then {}",
                hex(*first),
                hex(got)
            );
            return;
        }
        blessed.push((name.to_string(), got));
        let text = std::fs::read_to_string(DIGESTS).unwrap_or_default();
        let line = format!("{name} {}", hex(got));
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        match (lines.iter_mut()).find(|l| l.split_once(' ').is_some_and(|(n, _)| n == name)) {
            Some(l) => *l = line,
            None => lines.push(line),
        }
        std::fs::write(DIGESTS, lines.join("\n") + "\n").expect("write GOLDEN_digests.txt");
        return;
    }
    let want = pinned(name, ctx);
    assert!(
        want == got,
        "{ctx}: entry `{name}` of GOLDEN_digests.txt is {}, the run got {}",
        hex(want),
        hex(got)
    );
}

#[test]
fn ccx_campaign_bytes_are_pinned() {
    // Every other identity test compares two runs of the *same* build,
    // so a crossbar tick that changed outcomes consistently in target
    // and golden would pass them all. These digests were computed
    // with the pre-route-once tick (the clone-per-scan 8×8 arbiter) and
    // must never be re-blessed by a change that claims to be
    // result-neutral.
    let cfg = TelemetryConfig::default();
    for bench in ["radi", "lu-c"] {
        let profile = by_name(bench).unwrap();
        for workers in [1usize, 4] {
            let spec = CampaignSpec {
                cosim_cap: 4_000,
                workers,
                ..CampaignSpec::quick(ComponentKind::Ccx, 64)
            };
            let r = run_campaign_with(profile, &spec, Some(&cfg));
            assert_eq!(r.records.len(), 64);
            assert_pinned(
                &format!("ccx.{bench}.64"),
                &format!("workers={workers}"),
                result_digest(&r),
            );
        }
    }
}

#[test]
fn campaign_bytes_are_pinned_for_every_component_clustered_and_not() {
    // `run_campaign_replay` shares the per-run `finish` with the ladder
    // engine, so an engine-vs-engine identity test cannot see a change
    // that moves a record the same way in both (golden retirement, a
    // parked lane, a shared warm-up). These digests were computed at
    // the commit *before* warm-once / park / retire landed — with the
    // golden twin ticked and compared to the end of every run — and
    // must never be re-blessed by a change that claims result-neutrality.
    let cfg = TelemetryConfig::default();
    let cells: [(ComponentKind, &str, u64, u64); 7] = [
        (ComponentKind::L2c, "radi", 96, 1),
        (ComponentKind::L2c, "radi", 128, 16),
        (ComponentKind::Mcu, "flui", 64, 1),
        (ComponentKind::Mcu, "fft", 64, 8),
        (ComponentKind::Ccx, "lu-c", 48, 8),
        (ComponentKind::Pcie, "blsc", 64, 1),
        (ComponentKind::Pcie, "p-lr", 64, 8),
    ];
    for (component, bench, samples, lane_cluster) in cells {
        let cell = format!("cell.{}.{bench}.{samples}", component.name().to_lowercase());
        let name = match lane_cluster {
            1 => cell,
            k => format!("{cell}.cluster{k}"),
        };
        let profile = by_name(bench).unwrap();
        for workers in [1usize, 4] {
            let spec = CampaignSpec {
                seed: 2015,
                length_scale: 100,
                cosim_cap: 4_000,
                workers,
                lane_cluster,
                ..CampaignSpec::new(component, samples)
            };
            let r = run_campaign_with(profile, &spec, Some(&cfg));
            assert_eq!(r.records.len() as u64, samples);
            assert_pinned(&name, &format!("workers={workers}"), result_digest(&r));
        }
    }
}

/// FNV-1a over `words`, each as its little-endian bytes.
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    (words.into_iter())
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn warmup_and_persistence_bytes_are_pinned() {
    // Fig. 5 and Fig. 6 drive the co-simulation drivers outside any
    // campaign: one takes its cold golden after 4,000 cycles of history,
    // the other its golden after a fixed 1,000-cycle warm-up. Each row
    // was computed before its component warmed up on a fault-free model
    // (CCX packets, the L2C's slot images, the MCU's plain fields); a
    // change that claims to be result-neutral must never re-bless them. CCX `radi` has finished by
    // the time Fig. 5 snapshots (a flat curve: only the arbiter pointers
    // differ from a cold crossbar); `stre` still has packets in flight.
    // PCIe runs on the benchmarks `repro` gives it (`p-lr` for Fig. 5,
    // `p-sm` for Fig. 6): they have an input DMA in flight to co-simulate.
    let lower = |c: ComponentKind| c.name().to_lowercase();
    let curves: [(ComponentKind, &str); 6] = [
        (ComponentKind::Ccx, "radi"),
        (ComponentKind::Ccx, "stre"),
        (ComponentKind::L2c, "radi"),
        (ComponentKind::L2c, "stre"),
        (ComponentKind::Mcu, "radi"),
        (ComponentKind::Pcie, "p-lr"),
    ];
    for (component, bench) in curves {
        let profile = by_name(bench).unwrap();
        let curve = nestsim::core::warmup::warmup_experiment(component, profile, 4, 1_000, 7, 100);
        assert_eq!(curve.points.len(), 1_001);
        if component == ComponentKind::Pcie {
            // The cold engine starts apart from the warm one and converges.
            assert!(
                curve.points[0] > curve.residual(),
                "PCIe curve {} -> {}",
                curve.points[0],
                curve.residual()
            );
        }
        assert_pinned(
            &format!("fig5.{}.{bench}", lower(component)),
            "Fig. 5 warm-up curve",
            fnv_words(curve.points.iter().map(|p| p.to_bits())),
        );
    }

    let sweeps: [(ComponentKind, &str); 4] = [
        (ComponentKind::Ccx, "radi"),
        (ComponentKind::L2c, "radi"),
        (ComponentKind::Mcu, "radi"),
        (ComponentKind::Pcie, "p-sm"),
    ];
    for (component, bench) in sweeps {
        let sweep = nestsim::core::persistence::persistence_sweep(
            component,
            by_name(bench).unwrap(),
            40,
            3_000,
            &CampaignSpec::quick(component, 1),
        );
        assert_eq!(sweep.flops.len(), 40);
        let words =
            (sweep.flops.iter()).flat_map(|f| [f.bit as u64, f.cycles, u64::from(f.censored)]);
        assert_pinned(
            &format!("fig6.{}", lower(component)),
            "Fig. 6 persistence records",
            fnv_words(words),
        );
    }
}

/// `o`'s position in [`Outcome::ALL`].
fn outcome_word(o: Outcome) -> u64 {
    Outcome::ALL
        .iter()
        .position(|&x| x == o)
        .expect("known outcome") as u64
}

/// The words of QRR records, in order.
fn qrr_words(records: &[nestsim::qrr::QrrRecord]) -> Vec<u64> {
    (records.iter())
        .flat_map(|r| {
            [
                outcome_word(r.outcome),
                r.bit as u64,
                u64::from(r.detected),
                u64::from(r.recovered),
                r.recovery_cycles,
            ]
        })
        .collect()
}

#[test]
fn qrr_core_and_fig7_bytes_are_pinned() {
    // The Sec. 6.4 recovery runs, the Fig. 4 core baseline and the Fig. 7
    // comparison each end their runs outside the campaign engine. The
    // sample sizes are those of the crates' own unit tests.
    use nestsim::core::core_inject::core_campaign;
    use nestsim::core::rtl_only::{
        draw_fig7_samples, rtl_only_golden, run_mixed_injection_reduced, run_rtl_only_injection,
        RtlOnlyConfig,
    };
    use nestsim::qrr::qrr_mcu_campaign;
    use nestsim::qrr::recovery::{burst_campaign, qrr_campaign};

    // L2C: the records, then the per-run QRR telemetry they recorded.
    let mut rec = nestsim::telemetry::Recorder::active(&TelemetryConfig::default());
    let (_, records) = qrr_campaign(by_name("radi").unwrap(), 10, 77, 100, &mut rec);
    let telemetry = rec.to_jsonl().into_bytes();
    let words = qrr_words(&records).into_iter();
    assert_pinned(
        "qrr.l2c.radi",
        "QRR L2C records and telemetry",
        fnv_words(words.chain(telemetry.into_iter().map(u64::from))),
    );

    let (_, records) = qrr_mcu_campaign(by_name("fft").unwrap(), 8, 31, 100);
    assert_pinned(
        "qrr.mcu.fft",
        "QRR MCU records",
        fnv_words(qrr_words(&records)),
    );

    for (layout, interleaved) in [("blocked", false), ("interleaved", true)] {
        let e = burst_campaign(by_name("radi").unwrap(), 6, 2, interleaved, 5, 200);
        assert_eq!(e.runs, 6);
        assert_pinned(
            &format!("qrr.burst.radi.{layout}"),
            "burst tallies",
            fnv_words([
                e.runs,
                e.detected,
                e.recovered,
                e.escaped_benign,
                e.silent_failures,
            ]),
        );
    }

    let counts = core_campaign(
        by_name("lu-c").unwrap(),
        &CampaignSpec::quick(ComponentKind::L2c, 64),
    );
    assert_eq!(counts.total(), 64);
    assert_pinned(
        "fig4.core.lu-c",
        "core-campaign counts",
        fnv_words(Outcome::ALL.map(|o| counts.count(o))),
    );

    for component in ComponentKind::ALL {
        let cfg = RtlOnlyConfig {
            length_scale: 400,
            seed: 3,
            component,
            ..RtlOnlyConfig::paper_like(by_name("fft").unwrap())
        };
        let golden = rtl_only_golden(&cfg);
        let samples = draw_fig7_samples(&cfg, &golden, 2);
        for (mode, run) in [
            ("rtl", run_rtl_only_injection as fn(&_, &_, _, _) -> _),
            ("mixed", run_mixed_injection_reduced),
        ] {
            let words = (samples.iter()).flat_map(|&(bit, at)| {
                let r = run(&cfg, &golden, bit, at);
                [
                    outcome_word(r.outcome),
                    r.inject_cycle,
                    r.cosim_cycles,
                    r.erroneous_output_cycle.unwrap_or(u64::MAX),
                    r.corrupted_line_count as u64,
                ]
            });
            assert_pinned(
                &format!("fig7.fft.{}.{mode}", component.name().to_lowercase()),
                "Fig. 7 records",
                fnv_words(words),
            );
        }
    }
}

/// The pinned L2C `radi` cell of the table above (96 independent
/// samples, entry `cell.l2c.radi.96`).
fn pinned_l2c_cell(workers: usize) -> CampaignSpec {
    CampaignSpec {
        seed: 2015,
        length_scale: 100,
        cosim_cap: 4_000,
        workers,
        ..CampaignSpec::new(ComponentKind::L2c, 96)
    }
}

/// Runs `spec` on `bench` through a two-thread cluster and through the
/// service, and checks both results against the entry `name`: the table
/// above pins the in-process engine, this the other two ways a
/// fixed-count cell is reached.
fn assert_pinned_through_cluster_and_service(name: &str, bench: &str, spec: &CampaignSpec) {
    let cfg = TelemetryConfig::default();
    let profile = by_name(bench).unwrap();

    let clustered = nestsim::cluster::run_campaign_cluster(
        profile,
        spec,
        Some(&cfg),
        &nestsim::cluster::ClusterConfig::threads(2),
    );
    assert_pinned(name, "cluster threads(2)", result_digest(&clustered));

    let handle = nestsim::svc::serve(nestsim::svc::ServiceConfig::default()).expect("serve");
    let job = nestsim::cluster::JobWire::from_spec(profile, spec, Some(&cfg));
    let mut client =
        nestsim::svc::SvcClient::connect(&handle.addr().to_string(), "pin").expect("connect");
    let served = match client.run_job(&job, 1).expect("service I/O") {
        nestsim::svc::JobOutcome::Done(result) => *result,
        _ => panic!("the service did not complete the pinned cell"),
    };
    drop(client);
    handle.shutdown().expect("shutdown");
    assert_pinned(name, "service", result_digest(&served));
}

#[test]
fn pinned_l2c_cell_has_the_same_bytes_through_cluster_and_service() {
    assert_pinned_through_cluster_and_service("served.l2c.radi.96", "radi", &pinned_l2c_cell(2));
}

#[test]
fn pinned_ccx_cell_has_the_same_bytes_through_cluster_and_service() {
    // The CCX `lu-c` row of the table above: 48 samples in trajectory
    // clusters of 8.
    let spec = CampaignSpec {
        seed: 2015,
        length_scale: 100,
        cosim_cap: 4_000,
        workers: 2,
        lane_cluster: 8,
        ..CampaignSpec::new(ComponentKind::Ccx, 48)
    };
    assert_pinned_through_cluster_and_service("served.ccx.lu-c.48.cluster8", "lu-c", &spec);
}

#[test]
fn adaptive_campaign_bytes_are_pinned_in_process_and_clustered() {
    // Computed on the engine as it stood before the four entry points
    // became plans and executors of one round loop (it had two
    // hand-written round loops then); a change that claims to be
    // result-neutral must never re-bless it.
    const PINNED: &str = "adaptive.l2c.radi";
    let cfg = TelemetryConfig::default();
    let profile = by_name("radi").unwrap();
    let mut policy = nestsim::stats::stop::StopPolicy::new(0.12, 0.90);
    policy.min_samples = 8;
    policy.initial_round = 8;
    policy.max_round = 32;
    policy.max_samples = 96;
    // Records and merged telemetry, then the round trace byte by byte.
    let digest = |r: &nestsim::core::CampaignResult| {
        let summary = r.adaptive.as_ref().expect("adaptive summary");
        assert!(summary.rounds.len() >= 3, "the pinned cell takes 3+ rounds");
        let mut bytes = Vec::new();
        for t in &summary.rounds {
            bytes.extend_from_slice(&t.round.to_le_bytes());
            for a in t.alloc {
                bytes.extend_from_slice(&a.to_le_bytes());
            }
            bytes.extend_from_slice(&t.samples_run.to_le_bytes());
            bytes.extend_from_slice(&t.reported.to_le_bytes());
            bytes.extend_from_slice(&t.worst_half_width.to_bits().to_le_bytes());
        }
        bytes.iter().fold(result_digest(r), |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let plan = Plan::Adaptive(policy);
    for workers in [1usize, 4] {
        let spec = CampaignSpec {
            samples: 0,
            ..pinned_l2c_cell(workers)
        };
        let executor = LadderExecutor::new(profile, &spec, &plan, Some(&cfg));
        let r = run_rounds(profile, &spec, &plan, Some(&cfg), executor);
        assert_pinned(PINNED, &format!("in-process workers={workers}"), digest(&r));
    }
    let spec = CampaignSpec {
        samples: 0,
        ..pinned_l2c_cell(2)
    };
    let r = nestsim::cluster::run_cluster(
        profile,
        &spec,
        &plan,
        Some(&cfg),
        &nestsim::cluster::ClusterConfig::threads(2),
    );
    assert_pinned(PINNED, "cluster threads(2)", digest(&r));
    let handle = nestsim::svc::serve(nestsim::svc::ServiceConfig::default()).expect("serve");
    let addr = handle.addr().to_string();
    let executor = nestsim::cluster::RemoteExecutor::connect(&addr, profile, &spec, Some(&cfg))
        .expect("connect");
    let r = run_rounds(profile, &spec, &plan, Some(&cfg), executor);
    handle.shutdown().expect("shutdown");
    assert_pinned(PINNED, "service", digest(&r));
}
