//! The benchmark's metric names: the contract `BENCHMARK.json` states
//! and later performance claims are judged by. A unit test regenerates
//! `BENCHMARK.json` from these tables and compares.

/// Which way is better, as `BENCHMARK.json` spells it.
const LOWER: &str = "lower";
/// See [`LOWER`].
const HIGHER: &str = "higher";

/// End-to-end metrics — `(name, unit, better, bound)`; `bound` is the
/// share of the parent's median by which the metric may worsen.
///
/// Each bound is about twice the widest spread ten seeds showed on this
/// sandbox (README, "Measured noise"): calibrated host time up to 13 %
/// (`l2c_lanes`, with the host visibly busy), so it takes the contract's
/// maximum and `setup_s` none smaller; the allocation counts up to 8 %
/// (`ccx_indep`, the seed's traffic) although they repeat exactly for
/// one seed; `VmHWM` an occasional 4.5 MB step.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("us_per_inj", "us", LOWER, 0.25),
    ("setup_s", "s", LOWER, 0.25),
    ("allocs_per_inj", "count", LOWER, 0.15),
    ("alloc_kb_per_inj", "KiB", LOWER, 0.15),
    ("peak_rss_mb", "MB", LOWER, 0.15),
];

/// Per-layer metrics of the traced run — `(name, unit, better)`.
/// Simulated statistics (`core.outcome.*` and the other counts) have no
/// better direction: a simulator-speed change must leave them identical.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    // hlsim: golden pass, ladder, snapshots, forward simulation.
    ("hlsim.golden_pass_ms", "ms", LOWER),
    ("hlsim.ladder_capture_ms", "ms", LOWER),
    ("hlsim.ladder_rungs", "count", LOWER),
    ("hlsim.accel_cycles_per_s", "1/s", HIGHER),
    ("hlsim.snapshot_clone_us", "us", LOWER),
    ("hlsim.forward_cycles", "count", LOWER),
    ("hlsim.restores", "count", LOWER),
    // core: the injection engine and its co-simulation drivers.
    ("core.inject_ms", "ms", LOWER),
    ("core.attach_us.l2c", "us", LOWER),
    ("core.attach_us.mcu", "us", LOWER),
    ("core.attach_us.ccx", "us", LOWER),
    ("core.attach_us.pcie", "us", LOWER),
    ("core.cosim_step_ns.l2c", "ns", LOWER),
    ("core.cosim_step_ns.mcu", "ns", LOWER),
    ("core.cosim_step_ns.ccx", "ns", LOWER),
    ("core.cosim_step_ns.pcie", "ns", LOWER),
    ("core.cosim_cycles_per_inj", "count", LOWER),
    ("core.golden_compares_per_inj", "count", LOWER),
    ("core.telemetry_overhead_pct", "%", LOWER),
    ("core.lanes_batches", "count", LOWER),
    ("core.lanes_retired_early", "count", HIGHER),
    ("core.lanes_scalar_fallbacks", "count", LOWER),
    ("core.lanes_speedup", "x", HIGHER),
    ("core.outcome.vanished", "count", HIGHER),
    ("core.outcome.ona", "count", LOWER),
    ("core.outcome.omm", "count", LOWER),
    ("core.outcome.ut", "count", LOWER),
    ("core.outcome.hang", "count", LOWER),
    ("core.outcome.persist", "count", LOWER),
    // models: one tick of each flip-flop-level component.
    ("models.tick_ns.l2c", "ns", LOWER),
    ("models.tick_ns.mcu", "ns", LOWER),
    ("models.tick_ns.ccx", "ns", LOWER),
    ("models.tick_ns.pcie", "ns", LOWER),
    ("models.tick_allocs.l2c", "count", LOWER),
    ("models.tick_allocs.mcu", "count", LOWER),
    ("models.tick_allocs.ccx", "count", LOWER),
    ("models.tick_allocs.pcie", "count", LOWER),
    // rtl: golden-compare kernels.
    ("rtl.flop_diff_ns", "ns", LOWER),
    ("rtl.lanes_differing_64x32k_ns", "ns", LOWER),
    // cluster: coordinator + one worker over loopback, and its codec.
    ("cluster.cell_ms", "ms", LOWER),
    ("cluster.tax_pct", "%", LOWER),
    ("cluster.encode_us", "us", LOWER),
    ("cluster.decode_us", "us", LOWER),
    ("cluster.frame_us", "us", LOWER),
    ("cluster.bytes_per_inj", "bytes", LOWER),
    // svc: the campaign service.
    ("svc.start_us", "us", LOWER),
    ("svc.miss_ms", "ms", LOWER),
    ("svc.hit_us", "us", LOWER),
    ("svc.shutdown_us", "us", LOWER),
    ("svc.execs_per_submit", "count", LOWER),
    // Self time per layer in one traced rep, from the span file.
    ("self_ms.e2e", "ms", LOWER),
    ("self_ms.hlsim", "ms", LOWER),
    ("self_ms.core", "ms", LOWER),
    ("self_ms.cluster", "ms", LOWER),
    ("self_ms.svc", "ms", LOWER),
    // Run diagnostics.
    ("rep_ms.p50", "ms", LOWER),
    ("rep_ms.p90", "ms", LOWER),
    ("rep_ms.n", "count", HIGHER),
    ("host.steal_pct", "%", LOWER),
    ("host.calibration_ms", "ms", LOWER),
    ("trace.spans", "count", LOWER),
    ("trace.dropped", "count", LOWER),
    ("trace.coverage_pct", "%", HIGHER),
    ("trace.overhead_pct", "%", LOWER),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{DEFAULT_SECONDS, WORKLOADS};

    fn well_formed(s: &str, extra: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(well_formed(n, "") && n.len() <= 64, "bad name {n:?}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");

        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for u in units {
            assert!(well_formed(u, "/%") && u.len() <= 16, "bad unit {u:?}");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (name, _, _, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
        }
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", LOWER));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3), "largest bound");
    }

    /// `BENCHMARK.json` as these tables state it.
    fn benchmark_json() -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
        s.push_str("  \"paths\": [\"benchmark\"],\n");
        s.push_str(&format!("  \"run_seconds\": {DEFAULT_SECONDS},\n"));
        s.push_str("  \"workloads\": [\n");
        let rows: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ],\n  \"end_to_end\": [\n");
        let rows: Vec<String> = END_TO_END
            .iter()
            .map(|(n, u, b, bound)| {
                format!(
                    "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\", \"bound\": {bound}}}",
                    b
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ],\n  \"per_layer\": [\n");
        let rows: Vec<String> = PER_LAYER
            .iter()
            .map(|(n, u, b)| {
                format!(
                    "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\"}}",
                    b
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }

    #[test]
    fn benchmark_json_at_the_repo_root_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap_or_default();
        let expected = benchmark_json();
        assert!(
            on_disk == expected,
            "{path} is stale; it should read:\n{expected}"
        );
    }
}
