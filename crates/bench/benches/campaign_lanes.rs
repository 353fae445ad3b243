//! Lane-batching benchmark: the struct-of-lanes campaign engine
//! against the same engine forced scalar (`lane_width = 1`), on one
//! clustered L2C cell where every sample shares a trajectory — the
//! shape lane batching exists for — and, for MCU, CCX and PCIe, a cell
//! of 8-sample clusters where width 64 runs each cluster as one lane
//! batch and width 1 runs every sample on its own.
//!
//! Both widths produce byte-identical campaigns (locked by the
//! end-to-end equivalence tests); this bench measures the per-injection
//! µs a batch saves by advancing up to 64 faulty universes against one
//! shared carrier, which pays one attach, one warm-up and one golden
//! tick for all of them. A kernel group times the lane-wise golden
//! compare primitives themselves.
//!
//! Writes `BENCH_campaign_lanes.json` via the in-repo harness runner.

use std::hint::black_box;

use nestsim_core::campaign::{run_campaign_with, CampaignSpec, CellBase, Round, ShardRunner};
use nestsim_harness::bench::Suite;
use nestsim_hlsim::ladder::DEFAULT_MAX_RUNGS;
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

/// A cell of 8-sample trajectory clusters: at width 64, one lane batch
/// per cluster.
fn cluster8_spec(component: ComponentKind) -> CampaignSpec {
    CampaignSpec {
        component,
        cosim_cap: 4_000,
        lane_cluster: 8,
        ..spec(64)
    }
}

/// Benches the injection engine itself on one cell at widths 64 and 1:
/// the golden pass, sample draw and ladder build are shared fixed cost
/// paid once out here, so the rows are the marginal µs per injection
/// lane batching is claimed to cut. The ladder is
/// the full one: built outside the timed region, dense rungs keep the
/// runner's forward simulation out of the rows.
fn engine_pair(suite: &mut Suite, bench: &str, base: &CampaignSpec, rows: [&str; 2]) {
    let profile = by_name(bench).unwrap();
    let mut cell = CellBase::capture(profile, base, DEFAULT_MAX_RUNGS);
    let Round { samples, order } = cell.draw(profile, base, None);
    let CellBase { ladder, golden, .. } = cell;
    for (name, width) in rows.into_iter().zip([64usize, 1]) {
        suite.bench("campaign_lanes/engine", name, || {
            let mut runner = ShardRunner::new(&ladder, &samples, &golden, None, width);
            black_box(runner.run_span(&order))
        });
    }
}

const CLUSTERED: [(ComponentKind, &str, [&str; 2]); 3] = [
    (
        ComponentKind::Mcu,
        "fft",
        ["mcu_cluster8_width64", "mcu_cluster8_width1"],
    ),
    (
        ComponentKind::Ccx,
        "lu-c",
        ["ccx_cluster8_width64", "ccx_cluster8_width1"],
    ),
    (
        ComponentKind::Pcie,
        "p-lr",
        ["pcie_cluster8_width64", "pcie_cluster8_width1"],
    ),
];

fn main() {
    let mut suite = Suite::new("campaign_lanes");
    lane_kernels(&mut suite);

    engine_pair(
        &mut suite,
        "radi",
        &spec(64),
        ["batched_width64", "scalar_width1"],
    );
    for (component, bench, rows) in CLUSTERED {
        engine_pair(&mut suite, bench, &cluster8_spec(component), rows);
    }

    // The deterministic half of the story: the batched runs must
    // actually batch and retire lanes in-batch, or the timings above
    // compare nothing.
    let cfg = TelemetryConfig::default();
    let batched = run_campaign_with(by_name("radi").unwrap(), &spec(64), Some(&cfg));
    let engine = &batched.telemetry.engine;
    let retired = engine.counter(names::LANES_RETIRED_EARLY);
    eprintln!(
        "campaign_lanes: {} batches, {retired} lanes retired in-batch, {} scalar fallbacks of {SAMPLES} samples",
        engine.counter(names::LANES_BATCHES),
        engine.counter(names::LANES_SCALAR_FALLBACKS),
    );
    assert!(retired > 0, "clustered cell never retired a lane in-batch");
    for (component, bench, _) in CLUSTERED {
        let clustered = run_campaign_with(
            by_name(bench).unwrap(),
            &cluster8_spec(component),
            Some(&cfg),
        );
        let engine = &clustered.telemetry.engine;
        assert_eq!(
            engine.counter(names::LANES_BATCHES),
            SAMPLES / 8,
            "{component}: every 8-sample cluster runs as one batch"
        );
        assert!(
            engine.counter(names::LANES_RETIRED_EARLY) > 0,
            "{component}: no lane ever retired in-batch"
        );
    }

    let records = suite.records();
    let per_injection_us = |name: &str| {
        records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns / SAMPLES as f64 / 1e3)
            .expect("bench row exists")
    };
    // Advisory only: wall-clock ratios flake under background load, so
    // the regression protection is the bench_gate comparing each row
    // to its committed baseline (where a silent de-batching shows up
    // as a ~5x regression of batched_width64), not an assert here.
    let pairs = [["batched_width64", "scalar_width1"]]
        .into_iter()
        .chain(CLUSTERED.map(|(_, _, rows)| rows));
    for [wide, scalar] in pairs {
        let (wide_us, scalar_us) = (per_injection_us(wide), per_injection_us(scalar));
        let ratio = scalar_us / wide_us.max(1e-9);
        eprintln!(
            "campaign_lanes: {wide} {wide_us:.1} µs/injection vs {scalar} {scalar_us:.1} µs/injection ({ratio:.1}x)"
        );
    }

    suite.finish();
}
