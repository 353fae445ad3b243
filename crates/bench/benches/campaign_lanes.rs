//! Lane-batching benchmark: the struct-of-lanes campaign engine
//! against the same engine forced scalar (`lane_width = 1`), on one
//! clustered L2C cell where every sample shares a trajectory — the
//! shape lane batching exists for.
//!
//! Both widths produce byte-identical campaigns (locked by the
//! end-to-end equivalence tests); this bench measures the per-injection
//! µs the batch saves by advancing up to 64 faulty universes against
//! one shared carrier. A kernel group times the lane-wise golden
//! compare primitives themselves.
//!
//! Writes `BENCH_campaign_lanes.json` via the in-repo harness runner.

use std::hint::black_box;

use nestsim_core::campaign::{
    draw_samples, entry_cycle, entry_order, laddered_golden_reference, run_campaign_with,
    CampaignSpec, ShardRunner,
};
use nestsim_harness::bench::Suite;
use nestsim_hlsim::workload::by_name;
use nestsim_models::ComponentKind;
use nestsim_rtl::{lanes_differing, BitBuf, LaneMask, MAX_LANES};
use nestsim_telemetry::{names, TelemetryConfig};

const SAMPLES: u64 = 64;

fn spec(lane_width: u64) -> CampaignSpec {
    CampaignSpec {
        seed: 99,
        length_scale: 100,
        cosim_cap: 20_000,
        workers: 1,
        lane_cluster: SAMPLES,
        lane_width,
        ..CampaignSpec::new(ComponentKind::L2c, SAMPLES)
    }
}

fn lane_kernels(suite: &mut Suite) {
    let golden = BitBuf::zeroed(32 * 1024);
    let lane_bufs: Vec<BitBuf> = (0..MAX_LANES)
        .map(|i| {
            let mut b = BitBuf::zeroed(32 * 1024);
            // Half the lanes diverge, and only in their last word, so
            // every lane is scanned end to end (a flip in an early word
            // would time the kernel's early-out instead).
            if i % 2 == 0 {
                b.write_bits(32 * 1024 - 1 - i, 1, 1);
            }
            b
        })
        .collect();
    let lanes: Vec<&BitBuf> = lane_bufs.iter().collect();
    let live = LaneMask::full(MAX_LANES);
    suite.bench("campaign_lanes/kernel", "lanes_differing_64x32k", || {
        black_box(lanes_differing(&golden, black_box(&lanes), live))
    });
    let one = [&lane_bufs[0]];
    suite.bench("campaign_lanes/kernel", "lanes_differing_1x32k", || {
        black_box(lanes_differing(&golden, black_box(&one), LaneMask::full(1)))
    });
}

fn main() {
    let mut suite = Suite::new("campaign_lanes");
    lane_kernels(&mut suite);

    // Bench the injection engine itself: the golden pass, sample draw
    // and ladder build are shared fixed cost paid once out here, so the
    // rows below are the marginal µs per injection lane batching is
    // claimed to cut.
    let profile = by_name("radi").unwrap();
    let base = spec(64);
    let (mut ladder, golden) = laddered_golden_reference(profile, &base);
    let samples = draw_samples(profile, &base, &golden);
    let order = entry_order(&samples);
    let max_entry = order.last().map_or(0, |&i| entry_cycle(&samples[i]));
    ladder.truncate_above(max_entry);
    for (name, width) in [("batched_width64", 64usize), ("scalar_width1", 1)] {
        suite.bench("campaign_lanes/engine", name, || {
            let mut runner = ShardRunner::new(&ladder, &samples, &golden, None, width);
            black_box(runner.run_span(&order))
        });
    }

    // The deterministic half of the story: the batched run must
    // actually retire lanes in-batch, or the timing above compares
    // nothing.
    let cfg = TelemetryConfig::default();
    let batched = run_campaign_with(profile, &spec(64), Some(&cfg));
    let retired = batched.telemetry.engine.counter(names::LANES_RETIRED_EARLY);
    let fallbacks = batched
        .telemetry
        .engine
        .counter(names::LANES_SCALAR_FALLBACKS);
    eprintln!(
        "campaign_lanes: {} batches, {retired} lanes retired in-batch, {fallbacks} scalar fallbacks of {SAMPLES} samples",
        batched.telemetry.engine.counter(names::LANES_BATCHES),
    );
    assert!(retired > 0, "clustered cell never retired a lane in-batch");

    let records = suite.records();
    let per_injection = |name: &str| {
        records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns / SAMPLES as f64)
            .expect("bench row exists")
    };
    let batched_us = per_injection("batched_width64") / 1e3;
    let scalar_us = per_injection("scalar_width1") / 1e3;
    // Advisory only: wall-clock ratios flake under background load, so
    // the regression protection is the bench_gate comparing each row
    // to its committed baseline (where a silent de-batching shows up
    // as a ~5x regression of batched_width64), not an assert here.
    let ratio = scalar_us / batched_us.max(1e-9);
    eprintln!(
        "campaign_lanes: {batched_us:.1} µs/injection batched vs {scalar_us:.1} µs/injection scalar ({ratio:.1}x)"
    );

    suite.finish();
}
