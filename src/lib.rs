//! # nestsim
//!
//! A mixed-mode soft-error injection platform for uncore components —
//! a from-scratch Rust reproduction of *Understanding Soft Errors in
//! Uncore Components* (Cho, Cher, Shepherd, Mitra — DAC 2015).
//!
//! The paper studies how single-bit flips in the flip-flops of a large
//! SoC's *uncore* (L2 cache controllers, DRAM controllers, crossbar,
//! PCIe) affect applications, using a platform that couples a fast
//! functional full-system simulator with flip-flop-accurate component
//! models, and proposes Quick Replay Recovery (QRR) to make the memory
//! subsystem resilient. This crate re-exports the whole stack:
//!
//! | Layer | Crate | Paper role |
//! |---|---|---|
//! | [`proto`] | `nestsim-proto` | on-chip packet formats, address map |
//! | [`rtl`] | `nestsim-rtl` | flip-flop-level simulation kernel |
//! | [`arch`] | `nestsim-arch` | Table 1 "high-level uncore state" |
//! | [`models`] | `nestsim-models` | the four uncore components in RTL detail |
//! | [`hlsim`] | `nestsim-hlsim` | the Simics-role full-system simulator |
//! | [`core`] | `nestsim-core` | the mixed-mode platform, campaigns, Sec. 5 checkpoint analyses |
//! | [`cluster`] | `nestsim-cluster` | distributed campaign execution (coordinator/worker over TCP) |
//! | [`svc`] | `nestsim-svc` | multi-tenant campaign service (fair-share queue, dedup store) |
//! | [`qrr`] | `nestsim-qrr` | Quick Replay Recovery and its Table 6 area/power model |
//! | [`stats`] | `nestsim-stats` | confidence intervals, CDFs, seeding |
//! | [`telemetry`] | `nestsim-telemetry` | campaign observability (counters, traces) |
//! | [`report`] | this crate | table/figure rendering for `repro` and the examples |
//!
//! # Quick start
//!
//! ```
//! use nestsim::core::campaign::{run_campaign_with, CampaignSpec};
//! use nestsim::hlsim::workload::by_name;
//! use nestsim::models::ComponentKind;
//!
//! // A tiny L2C injection campaign on the Radix workload.
//! let spec = CampaignSpec::quick(ComponentKind::L2c, 8);
//! let result = run_campaign_with(by_name("radi").unwrap(), &spec, None);
//! assert_eq!(result.counts.total(), 8);
//! println!("erroneous rate: {}", result.counts.erroneous_rate());
//! ```
//!
//! The `repro` binary (`cargo run --release -p nestsim-repro -- all`)
//! regenerates every table and figure; see `EXPERIMENTS.md` for the
//! paper-vs-measured record and `DESIGN.md` for the architecture and
//! the substitutions made for hardware we do not have.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nestsim_arch as arch;
pub use nestsim_cluster as cluster;
pub use nestsim_core as core;
pub use nestsim_hlsim as hlsim;
pub use nestsim_models as models;
pub use nestsim_proto as proto;
pub use nestsim_qrr as qrr;
pub mod report;
pub use nestsim_rtl as rtl;
pub use nestsim_stats as stats;
pub use nestsim_svc as svc;
pub use nestsim_telemetry as telemetry;

#[cfg(test)]
mod tests {
    //! The [`report`](crate::report) module's unit tests, the facade
    //! crate's only ones.

    use crate::report::*;
    use nestsim_stats::Cdf;
    use nestsim_telemetry::{names, Recorder};

    #[test]
    fn engine_stats_footer_reports_ladder_and_cache() {
        use nestsim_telemetry::TelemetryConfig;
        let mut e = Recorder::active(&TelemetryConfig::default());
        e.count(names::LADDER_CAPTURES, 9);
        e.count(names::LADDER_RUNGS, 7);
        e.count(names::LADDER_RESTORES, 3);
        e.count(names::FORWARD_CYCLES, 12_000);
        e.count(names::CELL_CACHE_HITS, 2);
        e.count(names::CELL_CACHE_MISSES, 5);
        let s = render_engine_stats(&e);
        assert!(s.contains("9 captures, 7 rungs, 3 restores, 12000 forward-sim cycles"));
        assert!(s.contains("cell cache: 2 hits / 5 misses"));
        assert!(!s.contains("lanes:"), "no batch, no lane line");
        for (name, n) in [
            (names::WARM_CARRIERS, 4),
            (names::WARM_CYCLES, 900),
            (names::LANES_BATCHES, 6),
            (names::LANES_RETIRED_EARLY, 30),
            (names::LANES_SCALAR_FALLBACKS, 8),
            (names::STORAGE_SYSTEMS_TAKEN, 5),
            (names::STORAGE_SYSTEMS_BUILT, 1),
            (names::STORAGE_DRIVERS_TAKEN, 2),
            (names::STORAGE_DRIVERS_BUILT, 1),
            (names::DRAM_CHUNKS_ALLOCATED, 3),
            (names::DRAM_PAGES_COPIED, 70),
            (names::POSTFLIP_RUNS_ENDED_CLEAN, 2),
            (names::POSTFLIP_CYCLES_ENDED_CLEAN, 40),
            (names::POSTFLIP_RUN_TO_END_CYCLES, 6_500),
        ] {
            e.count(name, n);
        }
        let s = render_engine_stats(&e);
        assert!(s.contains("warm-up carriers: 4 windows, 900 cycles"));
        assert!(s.contains("lanes: 6 batches, 30 retired in them, 8 left on a fork"));
        assert!(s.contains(
            "storage: 5 systems taken from parked storage, 1 built; \
             2 drivers taken, 1 built; DRAM 3 arena chunks allocated, 70 pages copied"
        ));
        assert!(s.contains("post-flip co-simulation: 2 runs, 40 cycles (20 per run)"));
        assert!(s.contains("phase 3 ran 6500 accelerated cycles to the program's end"));
        assert_eq!(render_engine_stats(&Recorder::null()), "");
    }

    #[test]
    fn table_alignment_pads_columns() {
        let mut t = Table::new(["a", "long-header"]);
        t.row(["xxxxxx", "1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // The second column starts at the same offset in every line.
        let off = lines[0].find("long-header").unwrap();
        assert!(lines[2].len() >= off);
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.0123, 2), "1.23%");
        assert_eq!(pct(1.0, 0), "100%");
    }

    #[test]
    fn cdf_rendering_contains_all_decades() {
        let mut c: Cdf = [5u64, 50, 500].into_iter().collect();
        let s = render_cdf("test", &mut c, 3);
        assert!(s.contains("10^0"));
        assert!(s.contains("10^3"));
        assert!(s.contains("100.0%"));
    }

    #[test]
    fn curve_rendering_samples_points() {
        let pts: Vec<f64> = (0..100).map(|i| 0.04 * (1.0 - i as f64 / 100.0)).collect();
        let s = render_curve("warmup", &pts, 10);
        assert!(s.lines().count() >= 10);
    }

    #[test]
    fn pct_ci_formats_interval() {
        let s = pct_ci(0.0134, 0.0121, 0.0147);
        assert!(s.contains("1.34%"));
        assert!(s.contains("[1.21, 1.47]"));
    }

    #[test]
    fn provenance_renders_counters_and_trace() {
        use nestsim_telemetry::{names, EventKind, Recorder, TelemetryConfig};
        let mut r = Recorder::active(&TelemetryConfig::default());
        r.count(names::INJECT_RUNS, 3);
        r.count(names::COSIM_EXIT_CONVERGED, 2);
        r.count(names::COSIM_EXIT_CAP, 1);
        r.record_hist(names::H_COSIM_RESIDENCY, 128);
        r.event(1, "l2c", EventKind::BitFlip, 0);
        let s = render_provenance(&r);
        assert!(s.contains("runs 3"));
        assert!(s.contains("converged 2 / cap 1 / mismatch 0"));
        assert!(s.contains("1 events retained"));
        assert_eq!(render_provenance(&Recorder::null()), "");
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only-one"]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }
}
