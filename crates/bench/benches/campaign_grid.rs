//! Campaign-engine benchmark: the snapshot-ladder engine at 4 workers
//! over a small multi-cell (component × benchmark) grid — the shape
//! `repro`'s figure pipelines actually run.
//!
//! It also prints the deterministic forward-sim cycle counts from the
//! engine telemetry, which is where the ladder's win comes from: the
//! one-thread reference (`run_campaign_replay`) runs every sample from
//! cycle 0, the sum of the samples' entry cycles, while the ladder
//! engine runs each shard's cursor forward once — and the ladder's rung
//! captures and live rungs, its price: a fixed-count cell keeps at most
//! one rung per shard (`rung_budget`).
//!
//! The `fig3` group times one `repro fig3` cell per component whose
//! runs co-simulate long after the program ends unless the program's
//! end ends them: MCU on `fft` and PCIe on `p-lr`, 64 samples at
//! `repro`'s default seed, scale and co-simulation cap, one worker.
//!
//! Writes `BENCH_campaign_grid.json` via the in-repo harness runner.

use std::hint::black_box;

use nestsim_core::campaign::{run_campaign_replay, run_campaign_with, CampaignSpec};
use nestsim_harness::bench::Suite;
use nestsim_hlsim::workload::by_name;
use nestsim_models::ComponentKind;
use nestsim_telemetry::{names, TelemetryConfig};

const WORKERS: usize = 4;

const CELLS: [(ComponentKind, &str); 3] = [
    (ComponentKind::L2c, "radi"),
    (ComponentKind::L2c, "lu-c"),
    (ComponentKind::Mcu, "flui"),
];

fn spec(component: ComponentKind) -> CampaignSpec {
    CampaignSpec {
        seed: 99,
        length_scale: 100,
        cosim_cap: 20_000,
        workers: WORKERS,
        ..CampaignSpec::new(component, 6)
    }
}

/// `repro fig3`'s cells this bench times: row name, component and
/// benchmark.
const FIG3: [(&str, ComponentKind, &str); 2] = [
    ("fig3_mcu", ComponentKind::Mcu, "fft"),
    ("fig3_pcie", ComponentKind::Pcie, "p-lr"),
];

fn fig3_spec(component: ComponentKind) -> CampaignSpec {
    CampaignSpec {
        length_scale: 20,
        workers: 1,
        ..CampaignSpec::new(component, 64)
    }
}

fn main() {
    let mut suite = Suite::new("campaign_grid");
    for (row, kind, bench) in FIG3 {
        suite.bench("campaign_grid/fig3", row, || {
            black_box(run_campaign_with(
                by_name(bench).unwrap(),
                &fig3_spec(kind),
                None,
            ));
        });
    }
    suite.bench("campaign_grid/workers4", "ladder_engine", || {
        for (kind, bench) in CELLS {
            black_box(run_campaign_with(
                by_name(bench).unwrap(),
                &spec(kind),
                None,
            ));
        }
    });

    // The deterministic half of the story: total forward-sim cycles of
    // the ladder engine and of the reference, and the ladder's rungs,
    // summed over the grid, straight from the engine telemetry.
    let cfg = TelemetryConfig::default();
    let (mut ladder_fwd, mut reference_fwd) = (0u64, 0u64);
    let (mut captures, mut rungs) = (0u64, 0u64);
    for (kind, bench) in CELLS {
        let profile = by_name(bench).unwrap();
        let engine = run_campaign_with(profile, &spec(kind), Some(&cfg))
            .telemetry
            .engine;
        let cell_rungs = engine.counter(names::LADDER_RUNGS);
        assert!(
            cell_rungs <= WORKERS as u64,
            "{bench}: the fixed ladder engine holds {cell_rungs} rungs for {WORKERS} shards"
        );
        ladder_fwd += engine.counter(names::FORWARD_CYCLES);
        captures += engine.counter(names::LADDER_CAPTURES);
        rungs += cell_rungs;
        reference_fwd += run_campaign_replay(profile, &spec(kind), Some(&cfg))
            .telemetry
            .engine
            .counter(names::FORWARD_CYCLES);
    }
    eprintln!(
        "campaign_grid: forward-sim cycles — ladder {ladder_fwd}, reference {reference_fwd} ({:.1}x); \
         ladder.captures {captures}, ladder.rungs {rungs}",
        reference_fwd as f64 / ladder_fwd.max(1) as f64
    );
    assert!(
        reference_fwd >= 2 * ladder_fwd,
        "ladder engine must forward-simulate >= 2x fewer cycles at {WORKERS} workers"
    );

    suite.finish();
}
