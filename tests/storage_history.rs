//! A campaign's systems outlive it: a walk and a cell park theirs when
//! they end, process-wide, and the next campaign — of any component,
//! profile or length — refills them (DESIGN.md *Recycling the
//! injection's driver*). This file is a process of its own, so its one
//! test sees every system it parks and nothing another test left.

use nestsim::core::campaign::{golden_reference, run_campaign_with, CampaignSpec};
use nestsim::hlsim::workload::by_name;
use nestsim::models::ComponentKind;
use nestsim::telemetry::{names, TelemetryConfig};

mod common;
use common::{hex, pinned, result_digest};

/// One cell of the history: its benchmark, its spec and the entry of
/// `GOLDEN_digests.txt` that pins it, if one does.
struct Cell {
    bench: &'static str,
    spec: CampaignSpec,
    pin: Option<&'static str>,
}

/// The pinned cells' specs, as `tests/end_to_end.rs` runs them.
fn pinned_cell(component: ComponentKind, samples: u64, lane_cluster: u64) -> CampaignSpec {
    CampaignSpec {
        seed: 2015,
        length_scale: 100,
        cosim_cap: 4_000,
        workers: 1,
        lane_cluster,
        ..CampaignSpec::new(component, samples)
    }
}

/// Cells of every kind the storage can come from: different components,
/// profiles and lengths, scalar and lane-clustered.
fn cells() -> [Cell; 5] {
    [
        Cell {
            bench: "flui",
            spec: pinned_cell(ComponentKind::L2c, 32, 1),
            pin: None,
        },
        Cell {
            bench: "radi",
            spec: CampaignSpec {
                cosim_cap: 4_000,
                workers: 1,
                ..CampaignSpec::quick(ComponentKind::Ccx, 64)
            },
            pin: Some("ccx.radi.64"),
        },
        Cell {
            bench: "flui",
            spec: CampaignSpec {
                length_scale: 20,
                ..pinned_cell(ComponentKind::Mcu, 8, 1)
            },
            pin: None,
        },
        // Four walks at once: they park more systems than one, in another
        // order, so the roles the next cells hand them out to change.
        Cell {
            bench: "radi",
            spec: CampaignSpec {
                workers: 4,
                ..pinned_cell(ComponentKind::L2c, 96, 1)
            },
            pin: Some("cell.l2c.radi.96"),
        },
        Cell {
            bench: "lu-c",
            spec: pinned_cell(ComponentKind::Ccx, 48, 8),
            pin: Some("cell.ccx.lu-c.48.cluster8"),
        },
    ]
}

#[test]
fn storage_history_changes_no_byte() {
    // Forward, then backward: every cell runs after two different
    // histories, each on what the cells before it parked. A pinned cell
    // must give its pin every time, an unpinned one the bytes of its
    // first run in this process — which the forward pass made on
    // storage of other cells too, and the backward pass on yet others.
    let cfg = TelemetryConfig::default();
    let cells = cells();
    let mut first: Vec<Option<u64>> = vec![None; cells.len()];
    let forward: Vec<usize> = (0..cells.len()).collect();
    let order = forward.iter().chain(forward.iter().rev());
    for (run, &k) in order.enumerate() {
        let cell = &cells[k];
        let profile = by_name(cell.bench).unwrap();
        if run % 2 == 1 {
            // A caller that keeps the base it asked for takes it out of
            // the pool, so this cell's base renews a system that ran.
            drop(golden_reference(profile, &cell.spec));
        }
        let r = run_campaign_with(profile, &cell.spec, Some(&cfg));
        assert_eq!(r.records.len() as u64, cell.spec.samples);
        let got = result_digest(&r);
        let at = format!("run {run}: {} {:?}", cell.bench, cell.spec);
        let want = match cell.pin {
            Some(name) => pinned(name, &at),
            None => *first[k].get_or_insert(got),
        };
        assert!(want == got, "{at}: {} after {}", hex(got), hex(want));
        // Every campaign after the first starts on parked storage.
        let taken = r.telemetry.engine.counter(names::STORAGE_SYSTEMS_TAKEN);
        assert_eq!(taken > 0, run > 0, "{at}: {taken} systems taken");
    }
}
