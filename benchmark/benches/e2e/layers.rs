//! The traced run: per-layer metrics, outside in.
//!
//! Every round runs, per cell, an untraced rep (the comparison base), a
//! golden-pass probe, a traced rep, and the same cell with engine
//! telemetry on (to harvest its counters). Then come unit-cost probes
//! of each layer's public functions and a transport probe (cluster
//! cell, wire codec, service). Unlike the untraced half this file
//! drives engine phases itself, so an engine refactor may break it.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use nestsim_arch::DramContents;
use nestsim_cluster::frame::{read_frame, write_frame};
use nestsim_cluster::proto::{RunWire, SubmitWire};
use nestsim_cluster::{run_campaign_cluster, ClusterConfig, JobWire, Message};
use nestsim_core::campaign::{
    assemble_result, check_campaign, draw_samples, entry_cycle, entry_order,
    laddered_golden_reference, run_campaign_with, CampaignSpec, ShardRunner,
};
use nestsim_core::cosim::{CcxDriver, CosimDriver, L2cDriver, McuDriver, PcieDriver};
use nestsim_core::inject::{GoldenRef, MIN_WARMUP};
use nestsim_core::{Outcome, OutcomeCounts};
use nestsim_hlsim::workload::by_name;
use nestsim_hlsim::{System, SystemConfig};
use nestsim_models::ccx::CcxInputs;
use nestsim_models::l2c::L2cInputs;
use nestsim_models::mcu::McuInputs;
use nestsim_models::{Ccx, L2cBank, Mcu, Pcie, UncoreRtl};
use nestsim_proto::addr::{BankId, McuId, PAddr, ThreadId};
use nestsim_proto::{PcxKind, PcxPacket, ReqId};
use nestsim_rtl::{lanes_differing, BitBuf, LaneMask, MAX_LANES};
use nestsim_svc::{serve, SvcClient};
use nestsim_telemetry::{names as tm, Recorder, TelemetryConfig};

use crate::alloc::Heap;
use crate::contract::PER_LAYER;
use crate::stats::{cpu_jiffies, floor, metric, percentile, Metric};
use crate::trace::Tracer;
use crate::untraced::{checked, floor_mean, timed_rep, walls, warm_up, Timings};
use crate::workloads::{
    done, served_specs, service_config, workload, Cell, Delivered, Path, Plan, Workload,
};
use crate::Report;

/// Cells of a traced run: with two rounds, 20 traced reps.
const TRACE_CELLS: usize = 10;
/// Batches a unit-cost probe takes its floor over.
const PROBE_BATCHES: usize = 15;
/// Co-simulated cycles per `cosim_step_ns` window.
const COSIM_WINDOW: u64 = 4_000;

/// How much work the probes do: everything, or one pass for `--smoke`.
#[derive(Debug, Clone, Copy)]
struct Effort {
    plan: Plan,
    batches: usize,
}

/// The per-layer values gathered so far, by name.
#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        // The traced run may only report what BENCHMARK.json lists.
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not a per-layer metric of BENCHMARK.json"
        );
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "{name} reported twice"
        );
        self.0.push((name, value));
    }

    /// The values in `BENCHMARK.json` order; every listed metric must
    /// have been set.
    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let value = self
                    .0
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was never measured"))
                    .1;
                metric(name, value, unit)
            })
            .collect()
    }
}

// ───────────────────────── traced reps ─────────────────────────

/// One traced rep of `cell`: the work of `Cell::run_full` under spans.
fn traced_rep(w: &Workload, cell: &Cell, t: &mut Tracer) -> Result<Delivered, String> {
    match w.path {
        Path::InProcess => Ok(traced_in_process(cell, t)),
        Path::Served => cell.served(t),
    }
}

/// `run_campaign_with(profile, spec, None)` taken apart into its phases
/// (one worker, so one shard: the whole entry order).
fn traced_in_process(cell: &Cell, t: &mut Tracer) -> Delivered {
    let (profile, spec) = (cell.profile, &cell.spec);
    check_campaign(profile, spec);
    let (mut ladder, golden) = t.span("hlsim.golden_ladder", || {
        laddered_golden_reference(profile, spec)
    });
    let (samples, order) = t.span("core.draw_samples", || {
        let samples = draw_samples(profile, spec, &golden);
        let order = entry_order(&samples);
        let max_entry = order.last().map_or(0, |&i| entry_cycle(&samples[i]));
        ladder.truncate_above(max_entry);
        (samples, order)
    });
    let runs = t.span("core.run_span", || {
        ShardRunner::new(&ladder, &samples, &golden, None, spec.lane_width as usize)
            .run_span(&order)
    });
    let r = t.span("core.assemble_result", || {
        assemble_result(
            profile,
            spec,
            None,
            golden,
            runs,
            Vec::new(),
            Recorder::null(),
        )
    });
    // Freeing the rungs is part of what a cell costs.
    t.span("hlsim.drop_ladder", || drop(ladder));
    Delivered {
        parts: vec![(r.records, r.counts)],
    }
}

/// Engine counters of one cell, from a run with telemetry on.
#[derive(Default)]
struct EngineCounters {
    cells: f64,
    injections: f64,
    rungs: f64,
    forward_cycles: f64,
    restores: f64,
    cosim_cycles: f64,
    golden_compares: f64,
    lanes_batches: f64,
    lanes_retired_early: f64,
    lanes_scalar_fallbacks: f64,
}

impl EngineCounters {
    fn add(&mut self, r: &nestsim_core::CampaignResult) {
        let (engine, merged) = (&r.telemetry.engine, &r.telemetry.merged);
        let hist_sum = |name| merged.histogram(name).map_or(0.0, |h| h.sum() as f64);
        self.cells += 1.0;
        self.injections += r.records.len() as f64;
        self.rungs += engine.counter(tm::LADDER_RUNGS) as f64;
        self.forward_cycles += engine.counter(tm::FORWARD_CYCLES) as f64;
        self.restores += engine.counter(tm::LADDER_RESTORES) as f64;
        self.cosim_cycles += hist_sum(tm::H_WARMUP) + hist_sum(tm::H_COSIM_RESIDENCY);
        self.golden_compares += merged.counter(tm::GOLDEN_COMPARES) as f64;
        self.lanes_batches += engine.counter(tm::LANES_BATCHES) as f64;
        self.lanes_retired_early += engine.counter(tm::LANES_RETIRED_EARLY) as f64;
        self.lanes_scalar_fallbacks += engine.counter(tm::LANES_SCALAR_FALLBACKS) as f64;
    }

    fn report(&self, v: &mut Values) {
        // Per cell, except the two per-injection rates.
        v.set("hlsim.ladder_rungs", self.rungs / self.cells);
        v.set("hlsim.forward_cycles", self.forward_cycles / self.cells);
        v.set("hlsim.restores", self.restores / self.cells);
        v.set(
            "core.cosim_cycles_per_inj",
            self.cosim_cycles / self.injections,
        );
        v.set(
            "core.golden_compares_per_inj",
            self.golden_compares / self.injections,
        );
        v.set("core.lanes_batches", self.lanes_batches / self.cells);
        v.set(
            "core.lanes_retired_early",
            self.lanes_retired_early / self.cells,
        );
        v.set(
            "core.lanes_scalar_fallbacks",
            self.lanes_scalar_fallbacks / self.cells,
        );
    }
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

// ───────────────────────── unit-cost probes ─────────────────────────

/// Nanoseconds per call of `f`: the floor over `batches` batches of
/// `iters` calls each.
fn ns_per_call(batches: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    floor(&per)
}

/// `(ns per tick, allocations per tick)` of one component model.
fn tick_probe(batches: usize, mut tick: impl FnMut()) -> (f64, f64) {
    const TICKS: u32 = 2_000;
    let ns = ns_per_call(batches, TICKS, &mut tick);
    let before = Heap::now();
    for _ in 0..TICKS {
        tick();
    }
    (ns, Heap::since(before).calls as f64 / f64::from(TICKS))
}

fn pcx(i: u64) -> PcxPacket {
    PcxPacket {
        id: ReqId(i + 1),
        thread: ThreadId::new((i % 64) as usize),
        kind: if i.is_multiple_of(3) {
            PcxKind::Store
        } else {
            PcxKind::Load
        },
        addr: PAddr::new(0x1000_0000 + (i % 512) * 8 * 64),
        data: i,
    }
}

/// `models.tick_ns.*` / `models.tick_allocs.*`: each component model
/// ticked alone under the stimulus of `crates/bench`'s `kernel/tick`.
fn model_ticks(e: Effort, v: &mut Values) {
    let mut bank = L2cBank::new(BankId::new(0));
    let mut i = 0u64;
    let (ns, allocs) = tick_probe(e.batches, || {
        let inp = L2cInputs {
            pcx: bank.ready().then(|| pcx(i)),
            dram_resp: None,
        };
        i += 1;
        black_box(bank.tick(&inp));
    });
    v.set("models.tick_ns.l2c", ns);
    v.set("models.tick_allocs.l2c", allocs);

    let mut mcu = Mcu::new(McuId::new(0));
    let mut mem = DramContents::new();
    let mut j = 0u64;
    let (ns, allocs) = tick_probe(e.batches, || {
        let inp = McuInputs {
            cmd: mcu.ready(false).then(|| {
                nestsim_proto::DramCmd::fill(
                    (j % 200) as u32,
                    BankId::new(0),
                    nestsim_proto::LineAddr::new((j % 512) * 8),
                )
            }),
        };
        j += 1;
        black_box(mcu.tick(&inp, &mut mem));
    });
    v.set("models.tick_ns.mcu", ns);
    v.set("models.tick_allocs.mcu", allocs);

    let mut ccx = Ccx::new();
    let ready = [true; 8];
    let mut k = 0u64;
    let (ns, allocs) = tick_probe(e.batches, || {
        let mut inp = CcxInputs::default();
        let core = (k % 8) as usize;
        if ccx.core_ready(core) {
            inp.from_cores[core] = Some(pcx(k));
        }
        k += 1;
        black_box(ccx.tick(&inp, &ready));
    });
    v.set("models.tick_ns.ccx", ns);
    v.set("models.tick_allocs.ccx", allocs);

    let mut pcie = Pcie::new();
    pcie.program(nestsim_proto::pcie::DmaDescriptor {
        dst: nestsim_proto::addr::region::INPUT_BASE,
        len: 1 << 26,
        stream_seed: 7,
    });
    let (ns, allocs) = tick_probe(e.batches, || {
        black_box(pcie.tick(&mut mem));
    });
    v.set("models.tick_ns.pcie", ns);
    v.set("models.tick_allocs.pcie", allocs);
}

/// `rtl.*`: the golden-compare kernels on 32 Kbit of flop state.
fn rtl_kernels(e: Effort, v: &mut Values) {
    let bank = L2cBank::new(BankId::new(0));
    let golden_bank = bank.clone();
    v.set(
        "rtl.flop_diff_ns",
        ns_per_call(e.batches, 200, || {
            black_box(bank.flops().diff_count(golden_bank.flops()));
        }),
    );

    const BITS: usize = 32 * 1024;
    let golden = BitBuf::zeroed(BITS);
    let lane_bufs: Vec<BitBuf> = (0..MAX_LANES)
        .map(|i| {
            let mut b = BitBuf::zeroed(BITS);
            // Half the lanes diverge, and only in their last word, so
            // every lane is scanned end to end. (`crates/bench`'s row of
            // this name flips bit `i * 97`, i.e. bit 0 of lane 0 and an
            // early word of every other lane, and measures the early-out.)
            if i % 2 == 0 {
                b.write_bits(BITS - 1 - i, 1, 1);
            }
            b
        })
        .collect();
    let lanes: Vec<&BitBuf> = lane_bufs.iter().collect();
    let live = LaneMask::full(MAX_LANES);
    assert_eq!(
        lanes_differing(&golden, &lanes, live).count(),
        MAX_LANES / 2,
        "the probe's diverging lanes are found"
    );
    v.set(
        "rtl.lanes_differing_64x32k_ns",
        ns_per_call(e.batches, 50, || {
            black_box(lanes_differing(&golden, black_box(&lanes), live));
        }),
    );
}

/// `(attach µs, ns per co-simulated cycle)` of one driver attached to a
/// clone of `at`: state transfer, golden snapshot, then a
/// [`COSIM_WINDOW`]-cycle window of target + golden in lockstep.
fn driver_probe<D: CosimDriver>(
    e: Effort,
    at: &System,
    attach: impl Fn(System) -> D,
) -> (f64, f64) {
    let (mut attach_us, mut step_ns) = (Vec::new(), Vec::new());
    for _ in 0..e.batches.min(7) {
        let sys = at.clone();
        let t0 = Instant::now();
        let mut drv = attach(sys);
        attach_us.push(t0.elapsed().as_secs_f64() * 1e6);
        drv.snapshot_golden();
        let t1 = Instant::now();
        for _ in 0..COSIM_WINDOW {
            drv.step();
        }
        step_ns.push(t1.elapsed().as_nanos() as f64 / COSIM_WINDOW as f64);
        black_box(drv.cycle());
    }
    (floor(&attach_us), floor(&step_ns))
}

/// `hlsim.snapshot_clone_us`, `core.attach_us.*`, `core.cosim_step_ns.*`
/// on one fixed probe system — `flui` (it has an input file, so the
/// PCIe engine has a DMA to run) at `length_scale 100`, seeded from
/// `--seed` — so the rows compare across workloads.
fn driver_probes(e: Effort, seed: u64, v: &mut Values) {
    let mut sys = System::new(SystemConfig {
        seed,
        length_scale: 100,
        ..SystemConfig::new(by_name("flui").expect("flui is a known benchmark"))
    });
    // PCIe injections land while the input DMA is in flight, right
    // after start; the other components anywhere after the minimum
    // warm-up.
    sys.run_until(16);
    let early = sys.clone();
    sys.run_until(MIN_WARMUP + 64);

    v.set(
        "hlsim.snapshot_clone_us",
        ns_per_call(e.batches, 4, || {
            black_box(sys.clone());
        }) / 1e3,
    );
    let (a, s) = driver_probe(e, &sys, |s| L2cDriver::attach(s, BankId::new(0)));
    v.set("core.attach_us.l2c", a);
    v.set("core.cosim_step_ns.l2c", s);
    let (a, s) = driver_probe(e, &sys, |s| McuDriver::attach(s, McuId::new(0)));
    v.set("core.attach_us.mcu", a);
    v.set("core.cosim_step_ns.mcu", s);
    let (a, s) = driver_probe(e, &sys, CcxDriver::attach);
    v.set("core.attach_us.ccx", a);
    v.set("core.cosim_step_ns.ccx", s);
    let (a, s) = driver_probe(e, &early, PcieDriver::attach);
    v.set("core.attach_us.pcie", a);
    v.set("core.cosim_step_ns.pcie", s);
}

/// `core.lanes_speedup`: the `l2c_lanes` cell (first cell for `--seed`)
/// forced scalar (`lane_width 1`) ÷ batched (`lane_width 64`).
fn lanes_speedup(e: Effort, seed: u64, v: &mut Values) {
    let cell = workload("l2c_lanes")
        .expect("l2c_lanes is a workload")
        .cells(seed, 1)[0];
    let (mut scalar, mut batched) = (Vec::new(), Vec::new());
    for _ in 0..e.batches.min(3) {
        for (width, out) in [(1, &mut scalar), (64, &mut batched)] {
            let spec = CampaignSpec {
                lane_width: width,
                ..cell.spec
            };
            out.push(secs(|| {
                black_box(run_campaign_with(cell.profile, &spec, None));
            }));
        }
    }
    let (scalar, batched) = (floor(&scalar), floor(&batched));
    println!(
        "# core.lanes_speedup base: lane_width 1 {:.3} ms / lane_width 64 {:.3} ms per 128-sample cell",
        scalar * 1e3,
        batched * 1e3
    );
    v.set("core.lanes_speedup", scalar / batched);
}

// ───────────────────────── transport probes ─────────────────────────

/// `cluster.cell_ms` / `cluster.tax_pct`: the cell's 16-sample cluster
/// spec through coordinator + one worker thread against the same spec
/// in process, alternating.
fn cluster_tax(e: Effort, cell: &Cell, t: &mut Tracer, v: &mut Values) {
    let [spec, ..] = served_specs(cell);
    let (mut local, mut clustered) = (Vec::new(), Vec::new());
    for _ in 0..e.batches.min(3) {
        local.push(secs(|| {
            t.span("core.run_campaign", || {
                black_box(run_campaign_with(cell.profile, &spec, None))
            });
        }));
        clustered.push(secs(|| {
            t.span("cluster.run_campaign", || {
                black_box(run_campaign_cluster(
                    cell.profile,
                    &spec,
                    None,
                    &ClusterConfig::threads(1),
                ))
            });
        }));
    }
    let (local, clustered) = (floor(&local), floor(&clustered));
    println!(
        "# cluster.tax_pct base: the same {}-sample cell in process, {:.3} ms",
        spec.samples,
        local * 1e3
    );
    v.set("cluster.cell_ms", clustered * 1e3);
    v.set("cluster.tax_pct", (clustered / local - 1.0) * 100.0);
}

/// `cluster.{encode,decode,frame}_us`, `cluster.bytes_per_inj`: one
/// `Submit` message carrying the cell's records through the wire codec
/// and an in-memory frame.
fn codec_probe(e: Effort, delivered: &Delivered, golden: GoldenRef, v: &mut Values) {
    let records = &delivered.parts[0].0;
    let msg = Message::Submit(SubmitWire {
        worker: 1,
        shard: 0,
        golden,
        forward: 0,
        restores: 0,
        runs: records
            .iter()
            .enumerate()
            .map(|(i, record)| RunWire {
                sample: i as u64,
                record: record.clone(),
                recorder: Recorder::null(),
            })
            .collect(),
    });
    let payload = msg.encode().expect("a Submit of engine records encodes");
    assert_eq!(
        Message::decode(&payload).expect("and decodes"),
        msg,
        "the codec round-trips"
    );
    v.set(
        "cluster.encode_us",
        ns_per_call(e.batches, 50, || {
            black_box(msg.encode().expect("encodes"));
        }) / 1e3,
    );
    v.set(
        "cluster.decode_us",
        ns_per_call(e.batches, 50, || {
            black_box(Message::decode(&payload).expect("decodes"));
        }) / 1e3,
    );
    let mut wire = Vec::with_capacity(payload.len() + 8);
    v.set(
        "cluster.frame_us",
        ns_per_call(e.batches, 50, || {
            wire.clear();
            write_frame(&mut wire, &payload).expect("in-memory write");
            black_box(read_frame(&mut Cursor::new(&wire)).expect("in-memory read"));
        }) / 1e3,
    );
    v.set(
        "cluster.bytes_per_inj",
        payload.len() as f64 / records.len() as f64,
    );
}

/// `svc.*`: a fresh service per pass; the `served` rep's three jobs
/// (seeds `{s, s+1, s}`: two executions, one dedup fan-out), then the
/// first job again, now answered from the result store.
fn service_probe(e: Effort, cell: &Cell, t: &mut Tracer, v: &mut Values) -> Result<(), String> {
    let [_, jobs @ ..] = served_specs(cell);
    let jobs = jobs.map(|spec| (JobWire::from_spec(cell.profile, &spec, None), 1));
    let (mut start, mut miss, mut hit, mut stop) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut execs_per_submit = 0.0;
    for _ in 0..e.batches.min(3) {
        let t0 = Instant::now();
        let handle = t
            .span("svc.serve", || serve(service_config()))
            .map_err(|e| format!("serve failed: {e}"))?;
        start.push(t0.elapsed().as_secs_f64());
        let addr = handle.addr().to_string();
        let client_side = (|| {
            let mut client = SvcClient::connect(&addr, "e2e-probe")?;
            let t1 = Instant::now();
            let outcomes = t.span("svc.run_jobs", || client.run_jobs(&jobs))?;
            // Two of the three submissions execute.
            miss.push(t1.elapsed().as_secs_f64() / 2.0);
            let parts: Vec<_> = outcomes.into_iter().map(done).collect::<Result<_, _>>()?;
            if parts[0] != parts[2] {
                return Err("the duplicate job's records differ from its twin's".to_string());
            }
            let stats = client.stats()?;
            execs_per_submit = stats.counter(tm::SVC_EXECS_STARTED) as f64
                / stats.counter(tm::SVC_JOBS_SUBMITTED) as f64;
            let t2 = Instant::now();
            let again = t.span("svc.store_hit", || client.run_job(&jobs[0].0, 1))?;
            hit.push(t2.elapsed().as_secs_f64());
            if done(again)? != parts[0] {
                return Err("the stored result differs from the executed one".to_string());
            }
            Ok(())
        })();
        // Stop the service whether or not the client side succeeded.
        let t3 = Instant::now();
        t.span("svc.shutdown", || handle.shutdown())
            .map_err(|e| format!("service shutdown failed: {e}"))?;
        stop.push(t3.elapsed().as_secs_f64());
        client_side?;
    }
    v.set("svc.start_us", floor(&start) * 1e6);
    v.set("svc.miss_ms", floor(&miss) * 1e3);
    v.set("svc.hit_us", floor(&hit) * 1e6);
    v.set("svc.shutdown_us", floor(&stop) * 1e6);
    v.set("svc.execs_per_submit", execs_per_submit);
    Ok(())
}

// ───────────────────────── the run ─────────────────────────

/// Where the span file goes: `<target dir>/e2e/trace-<workload>.jsonl`,
/// the target dir being two levels above the running executable.
fn trace_path(w: &Workload) -> std::path::PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| "target".into());
    target.join("e2e").join(format!("trace-{}.jsonl", w.name))
}

/// Per-layer self time per traced rep and what share of the rep its
/// phases cover, from the spans under each `e2e.rep` root.
fn span_metrics(t: &Tracer, cells: usize, v: &mut Values) -> f64 {
    const LAYERS: [(&str, &str); 5] = [
        ("e2e", "self_ms.e2e"),
        ("hlsim", "self_ms.hlsim"),
        ("core", "self_ms.core"),
        ("cluster", "self_ms.cluster"),
        ("svc", "self_ms.svc"),
    ];
    let spans = t.spans();
    let selfs = t.self_times_ns();
    // The rep root above each span, if it has one.
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        (spans[i].name == "e2e.rep").then_some(i)
    };
    // [layer][cell][round] self seconds, and [cell][round] rep seconds.
    let mut layer_self = vec![vec![Vec::<f64>::new(); cells]; LAYERS.len()];
    let mut rep_s = vec![Vec::<f64>::new(); cells];
    let mut rep_ms = Vec::new();
    for (root, s) in spans.iter().enumerate() {
        if s.name != "e2e.rep" || s.parent.is_some() {
            continue;
        }
        let cell = s.rep as usize % cells;
        rep_s[cell].push(s.duration_ns() as f64 / 1e9);
        rep_ms.push(s.duration_ns() as f64 / 1e6);
        for (l, (layer, _)) in LAYERS.iter().enumerate() {
            let total: u64 = (0..spans.len())
                .filter(|&i| spans[i].layer() == *layer && root_of(i) == Some(root))
                .map(|i| selfs[i])
                .sum();
            layer_self[l][cell].push(total as f64 / 1e9);
        }
    }
    for (l, (_, name)) in LAYERS.iter().enumerate() {
        v.set(name, floor_mean(&layer_self[l]) * 1e3);
    }
    let rep = floor_mean(&rep_s);
    v.set(
        "trace.coverage_pct",
        (1.0 - floor_mean(&layer_self[0]) / rep) * 100.0,
    );
    v.set("rep_ms.p50", percentile(&rep_ms, 50.0));
    v.set("rep_ms.p90", percentile(&rep_ms, 90.0));
    v.set("rep_ms.n", rep_ms.len() as f64);
    rep
}

/// The traced run of one workload. `Err` when a probe could not run at
/// all (then there is no per-layer result to report).
pub fn run(w: &Workload, seed: u64, smoke: bool) -> Result<Report, String> {
    let e = if smoke {
        Effort {
            plan: Plan::SMOKE,
            batches: 1,
        }
    } else {
        Effort {
            plan: Plan::measured(TRACE_CELLS),
            batches: PROBE_BATCHES,
        }
    };
    let jiffies0 = cpu_jiffies();
    let cells = w.cells(seed, e.plan.cells);
    warm_up(w, &cells[0], e.plan.warmup_reps);
    let mut references = vec![None; cells.len()];

    let mut v = Values::default();
    let mut t = Tracer::new();
    let mut timings = Timings::new(cells.len());
    let mut golden_pass = vec![Vec::new(); cells.len()];
    let (mut plain, mut with_telemetry) =
        (vec![Vec::new(); cells.len()], vec![Vec::new(); cells.len()]);
    let mut counters = EngineCounters::default();
    let mut outcomes = OutcomeCounts::new();
    let mut golden = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let telemetry = TelemetryConfig::default();

    for round in 0..e.plan.rounds {
        for (k, cell) in cells.iter().enumerate() {
            // The comparison base and the cell's reference: the untraced
            // rep.
            let (base, _) = timed_rep(w, cell, k, &mut timings);
            let base_ok = checked(w, cell, k, &mut references, &base);

            // The golden pass alone: no intermediate rungs, no samples.
            t.set_rep((round * cells.len() + k) as u32);
            let bare = CampaignSpec {
                samples: 0,
                snapshot_interval: u64::MAX,
                ..cell.spec
            };
            let open = t.enter("hlsim.golden_pass");
            let t0 = Instant::now();
            let (_, g) = laddered_golden_reference(cell.profile, &bare);
            golden_pass[k].push(t0.elapsed().as_secs_f64());
            t.exit(open);
            golden = Some(g);

            let open = t.enter("e2e.rep");
            let got = traced_rep(w, cell, &mut t);
            t.exit(open);
            attempted += w.samples;
            if !(base_ok && checked(w, cell, k, &mut references, &got)) {
                failed += w.samples;
            } else if round == 0 {
                outcomes.merge(&got.expect("a checked rep delivered").counts());
            }

            // The in-process engine on this cell with telemetry off and
            // on: the overhead of telemetry, and the engine's counters.
            plain[k].push(match w.path {
                Path::InProcess => {
                    timings.full[k]
                        .last()
                        .expect("the rep above was timed")
                        .wall_s
                }
                Path::Served => secs(|| {
                    black_box(run_campaign_with(cell.profile, &cell.spec, None));
                }),
            });
            let t0 = Instant::now();
            let r = run_campaign_with(cell.profile, &cell.spec, Some(&telemetry));
            with_telemetry[k].push(t0.elapsed().as_secs_f64());
            if round == 0 {
                counters.add(&r);
            }
        }
    }

    // End-to-end consequences of the above, per layer.
    let golden = golden.expect("at least one cell ran");
    let pass = floor_mean(&golden_pass);
    let (setup, full) = (
        floor_mean(&walls(&timings.setup)),
        floor_mean(&walls(&timings.full)),
    );
    let kernel_ms: Vec<f64> = timings
        .full
        .iter()
        .flatten()
        .map(|t| t.kernel_s * 1e3)
        .collect();
    v.set("host.calibration_ms", percentile(&kernel_ms, 50.0));
    v.set("hlsim.golden_pass_ms", pass * 1e3);
    v.set("hlsim.ladder_capture_ms", (setup - pass) * 1e3);
    v.set("hlsim.accel_cycles_per_s", golden.cycles as f64 / pass);
    v.set("core.inject_ms", (full - setup) * 1e3);
    v.set(
        "core.telemetry_overhead_pct",
        (floor_mean(&with_telemetry) / floor_mean(&plain) - 1.0) * 100.0,
    );
    counters.report(&mut v);
    for (outcome, name) in [
        (Outcome::Vanished, "core.outcome.vanished"),
        (Outcome::Ona, "core.outcome.ona"),
        (Outcome::Omm, "core.outcome.omm"),
        (Outcome::Ut, "core.outcome.ut"),
        (Outcome::Hang, "core.outcome.hang"),
        (Outcome::Persist, "core.outcome.persist"),
    ] {
        v.set(name, outcomes.count(outcome) as f64);
    }

    let traced = span_metrics(&t, cells.len(), &mut v);
    println!(
        "# trace.overhead_pct base: untraced {:.3} us/inj, traced {:.3} us/inj",
        full / w.samples as f64 * 1e6,
        traced / w.samples as f64 * 1e6
    );
    v.set("trace.overhead_pct", (traced / full - 1.0) * 100.0);

    // Unit costs of each layer's public functions.
    model_ticks(e, &mut v);
    rtl_kernels(e, &mut v);
    driver_probes(e, seed, &mut v);
    lanes_speedup(e, seed, &mut v);

    // The transport layers on this workload's first cell.
    t.set_rep(0);
    let open = t.enter("e2e.transport_probe");
    cluster_tax(e, &cells[0], &mut t, &mut v);
    let first = references[0].as_ref().expect("cell 0 ran");
    codec_probe(e, first, golden, &mut v);
    service_probe(e, &cells[0], &mut t, &mut v)?;
    t.exit(open);

    v.set("trace.spans", t.spans().len() as f64);
    v.set("trace.dropped", t.dropped() as f64);
    let steal = match (jiffies0, cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0,
        _ => 0.0,
    };
    v.set("host.steal_pct", steal);

    let path = trace_path(w);
    match t.write_jsonl(&path) {
        Ok(()) => println!("# {} spans written to {}", t.spans().len(), path.display()),
        Err(err) => eprintln!("e2e: could not write {}: {err}", path.display()),
    }

    Ok(Report {
        attempted,
        failed,
        metrics: v.into_metrics(),
    })
}
