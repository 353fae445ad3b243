//! Figure reproductions (Figs. 3–9 of the paper).

use nestsim::report::{
    pct, pct_ci, render_cdf, render_curve, render_engine_stats, render_provenance, Table,
};
use nestsim_core::campaign::CampaignSpec;
use nestsim_core::checkpoint::{propagation_cdf, rollback_cdf};
use nestsim_core::rtl_only::{
    draw_fig7_samples, fig7_outcome, rtl_only_golden, run_mixed_injection_reduced,
    run_rtl_only_injection, RtlOnlyConfig,
};
use nestsim_core::warmup::warmup_experiment;
use nestsim_core::{persistence, CampaignResult, Outcome};
use nestsim_hlsim::workload::{by_name, with_input_files, BenchProfile, BENCHMARKS};
use nestsim_models::ComponentKind;
use nestsim_stats::Proportion;
use nestsim_telemetry::{Recorder, TelemetryConfig};

use crate::cache::{cache_stats, run_grid};
use crate::Opts;

/// Column header of the per-run records CSV. One name per row field,
/// comma-separated, no padding — downstream parsers key on the exact
/// names.
const CSV_HEADER: &str = "outcome,bit,inject_cycle,cosim_cycles,erroneous_output_cycle,\
                          propagation_latency,corrupted_lines,rollback_distance";

/// Writes a campaign's raw per-run records as CSV (one row per
/// injection) for downstream analysis.
pub fn write_records_csv(dir: &str, result: &CampaignResult) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let path = format!(
        "{dir}/{}_{}.csv",
        result.component.name().to_lowercase(),
        result.benchmark
    );
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{CSV_HEADER}")?;
    for r in &result.records {
        writeln!(
            f,
            "{},{},{},{},{},{},{},{}",
            r.outcome,
            r.bit,
            r.inject_cycle,
            r.cosim_cycles,
            r.erroneous_output_cycle
                .map_or(String::new(), |v| v.to_string()),
            r.propagation_latency
                .map_or(String::new(), |v| v.to_string()),
            r.corrupted_line_count,
            r.rollback_distance.map_or(String::new(), |v| v.to_string()),
        )?;
    }
    eprintln!("wrote {path}");
    Ok(())
}

/// Approximate processor-core OMM rates digitised from the paper's
/// Fig. 4 (per instance, single injected soft error): LEON3 SPARC and
/// IVM Alpha from [Cho 13], IBM POWER6 from [Sanda 08], OpenRISC from
/// [Meixner 07].
pub const PAPER_CORE_OMM: [(&str, f64); 4] = [
    ("LEON", 0.004),
    ("IVM", 0.012),
    ("Power", 0.008),
    ("OR", 0.030),
];

/// Paper Fig. 3 headline numbers for reference: average non-Vanished
/// (erroneous) rate per component.
pub const PAPER_ERRONEOUS_RATE: [(ComponentKind, f64); 4] = [
    (ComponentKind::L2c, 0.014),
    (ComponentKind::Mcu, 0.017),
    (ComponentKind::Ccx, 0.022),
    (ComponentKind::Pcie, 0.017),
];

pub(crate) fn pick_benchmarks(opts: &Opts, component: ComponentKind) -> Vec<&'static BenchProfile> {
    let all: Vec<&'static BenchProfile> = if component == ComponentKind::Pcie {
        with_input_files().collect()
    } else {
        BENCHMARKS.iter().collect()
    };
    match &opts.benchmarks {
        Some(names) => names
            .iter()
            .map(|n| {
                by_name(n).unwrap_or_else(|| {
                    panic!(
                        "unknown benchmark {n:?}; valid names: {}",
                        BENCHMARKS
                            .iter()
                            .map(|b| b.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })
            })
            .filter(|b| component != ComponentKind::Pcie || b.has_input_file())
            .collect(),
        // Default: a representative subset to keep runtime friendly;
        // pass --benchmarks with all 18 names for the full figure.
        None => all
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(_, b)| b)
            .collect(),
    }
}

/// The min/max cells of a per-benchmark rate row; `-` when the figure
/// has no benchmark cells at all (a bare fold over the empty list
/// would render `inf%`).
fn min_max_cells(rates: &[f64]) -> (String, String) {
    let bounds = rates.iter().fold(None, |acc: Option<(f64, f64)>, &r| {
        Some(acc.map_or((r, r), |(lo, hi)| (lo.min(r), hi.max(r))))
    });
    match bounds {
        Some((lo, hi)) => (pct(lo, 2), pct(hi, 2)),
        None => ("-".to_string(), "-".to_string()),
    }
}

/// Writes the merged telemetry of a figure's campaign cells as
/// JSON-lines and prints the provenance and engine footers. The merged
/// export is sharding-/engine-independent; the engine footer (ladder
/// rungs, restores, forward-sim cycles, cell-cache hits) is not, and
/// stays out of the export.
fn export_telemetry(opts: &Opts, results: &[CampaignResult]) {
    print_adaptive_footer(results);
    let Some(path) = &opts.telemetry else {
        return;
    };
    let mut merged = Recorder::active(&TelemetryConfig::default());
    let mut engine = Recorder::active(&TelemetryConfig::default());
    for r in results {
        merged.merge(&r.telemetry.merged);
        engine.merge(&r.telemetry.engine);
    }
    engine.merge(&cache_stats());
    match std::fs::write(path, merged.to_jsonl()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("telemetry export failed: {e}"),
    }
    print!("\n{}", render_provenance(&merged));
    print!("{}", render_engine_stats(&engine));
}

/// Prints the sequential-stopping footer under a figure whose cells
/// ran adaptively (`--adaptive`): rounds run, samples spent vs the
/// fixed-count budget the stop policy replaced, and the per-stratum
/// allocation trace.
fn print_adaptive_footer(results: &[CampaignResult]) {
    let adaptive: Vec<&CampaignResult> = results.iter().filter(|r| r.adaptive.is_some()).collect();
    if adaptive.is_empty() {
        return;
    }
    println!("\nadaptive sampling (CI-driven sequential stopping):");
    for r in adaptive {
        let a = r.adaptive.as_ref().expect("filtered on adaptive");
        let saved = a.fixed_budget.saturating_sub(a.samples_run);
        println!(
            "  {}: {} rounds, {} samples ({} saved of the {}-sample fixed budget{}), \
             strata addr/ctl/data = {}/{}/{}",
            r.benchmark,
            a.rounds.len(),
            a.samples_run,
            saved,
            a.fixed_budget,
            if a.budget_exhausted {
                "; budget exhausted before target"
            } else {
                ""
            },
            a.per_stratum[0],
            a.per_stratum[1],
            a.per_stratum[2],
        );
        for t in &a.rounds {
            println!(
                "    round {}: +{}/{}/{} -> {} run, worst half-width {:.4}",
                t.round, t.alloc[0], t.alloc[1], t.alloc[2], t.samples_run, t.worst_half_width,
            );
        }
    }
}

/// Fig. 3: application-level outcome rates per benchmark.
pub fn fig3(opts: &Opts) {
    let component = opts.component;
    println!(
        "== Fig. 3 ({component}): outcome rates, {} injections/benchmark ==\n",
        opts.samples
    );
    let mut t = Table::new(["bench", "ONA", "OMM", "UT", "Hang", "Vanished", "erroneous"]);
    let mut totals = nestsim_core::OutcomeCounts::new();
    let benches = pick_benchmarks(opts, component);
    let cells: Vec<(ComponentKind, &'static BenchProfile)> =
        benches.iter().map(|&b| (component, b)).collect();
    let results = run_grid(&cells, opts);
    for (b, r) in benches.iter().zip(&results) {
        if let Some(dir) = &opts.csv {
            if let Err(e) = write_records_csv(dir, r) {
                eprintln!("csv export failed: {e}");
            }
        }
        let c = &r.counts;
        t.row([
            b.name.to_string(),
            pct(c.rate(Outcome::Ona).rate(), 2),
            pct(c.rate(Outcome::Omm).rate(), 2),
            pct(c.rate(Outcome::Ut).rate(), 2),
            pct(c.rate(Outcome::Hang).rate(), 2),
            pct(c.rate(Outcome::Vanished).rate(), 2),
            pct(c.erroneous_rate().rate(), 2),
        ]);
        totals.merge(c);
    }
    let c = &totals;
    t.row([
        "avg.".to_string(),
        pct(c.rate(Outcome::Ona).rate(), 2),
        pct(c.rate(Outcome::Omm).rate(), 2),
        pct(c.rate(Outcome::Ut).rate(), 2),
        pct(c.rate(Outcome::Hang).rate(), 2),
        pct(c.rate(Outcome::Vanished).rate(), 2),
        pct(c.erroneous_rate().rate(), 2),
    ]);
    print!("{}", t.render());
    let paper = PAPER_ERRONEOUS_RATE
        .iter()
        .find(|(k, _)| *k == component)
        .map(|(_, r)| *r)
        .unwrap_or(0.0);
    let (lo, hi) = c.erroneous_rate().wilson_interval(0.95);
    println!(
        "\nAverage erroneous (non-Vanished) rate: {}; paper: {}.",
        pct_ci(c.erroneous_rate().rate(), lo, hi),
        pct(paper, 1),
    );
    println!(
        "Persist (excluded, Sec. 4.2): {} of {} runs.",
        c.count(Outcome::Persist),
        c.total()
    );
    let runs = results.iter().flat_map(|r| &r.records);
    let (n, post_flip) = runs.fold((0u64, 0u64), |(n, s), r| (n + 1, s + r.cosim_cycles));
    println!(
        "Co-simulated cycles after the flip: {:.0} per injection.",
        post_flip as f64 / n.max(1) as f64
    );
    export_telemetry(opts, &results);
}

/// Fig. 4: OMM rates of uncore components vs. processor cores.
pub fn fig4(opts: &Opts) {
    println!("== Fig. 4: OMM rate per instance (min/avg/max across benchmarks) ==\n");
    let mut t = Table::new(["component", "min", "avg", "max", "paper avg (approx)"]);
    let paper_avg = [
        (ComponentKind::L2c, 0.0012),
        (ComponentKind::Mcu, 0.0030),
        (ComponentKind::Ccx, 0.0015),
        (ComponentKind::Pcie, 0.0089),
    ];
    // One flat grid over every (component, benchmark) cell: cells run
    // concurrently, and any cell fig3 already computed is a cache hit.
    let mut cells: Vec<(ComponentKind, &'static BenchProfile)> = Vec::new();
    let mut spans = Vec::new();
    for kind in ComponentKind::ALL {
        let start = cells.len();
        cells.extend(pick_benchmarks(opts, kind).into_iter().map(|b| (kind, b)));
        spans.push((kind, start..cells.len()));
    }
    let results = run_grid(&cells, opts);
    for (kind, span) in spans {
        let mut rates = Vec::new();
        let mut agg = Proportion::default();
        for r in &results[span] {
            let p = r.counts.rate(Outcome::Omm);
            rates.push(p.rate());
            agg.merge(p);
        }
        let (min, max) = min_max_cells(&rates);
        let paper = paper_avg.iter().find(|(k, _)| *k == kind).unwrap().1;
        t.row([
            kind.to_string(),
            min,
            pct(agg.rate(), 2),
            max,
            pct(paper, 2),
        ]);
    }
    for (name, rate) in PAPER_CORE_OMM {
        t.row([
            format!("{name} (core, paper)"),
            "-".into(),
            pct(rate, 2),
            "-".into(),
            pct(rate, 2),
        ]);
    }
    // Apples-to-apples extension: inject into *this* substrate's core
    // registers with the same methodology and sample budget.
    {
        use nestsim_core::core_inject::core_campaign;
        let mut agg = Proportion::default();
        let mut rates = Vec::new();
        for b in pick_benchmarks(opts, ComponentKind::L2c) {
            let spec = CampaignSpec {
                samples: opts.samples,
                seed: opts.seed,
                length_scale: opts.scale.max(1),
                ..CampaignSpec::new(ComponentKind::L2c, opts.samples)
            };
            let counts = core_campaign(b, &spec);
            let p = counts.rate(Outcome::Omm);
            rates.push(p.rate());
            agg.merge(p);
        }
        let (min, max) = min_max_cells(&rates);
        t.row([
            "nestsim core (measured)".to_string(),
            min,
            pct(agg.rate(), 2),
            max,
            "-".to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("\nPaper finding: uncore OMM rates are comparable to processor cores'.");
    export_telemetry(opts, &results);
}

/// Fig. 5: microarchitectural state difference during warm-up.
pub fn fig5(opts: &Opts) {
    println!(
        "== Fig. 5: warm-up convergence ({} runs, {}-cycle window) ==\n",
        opts.runs, opts.window
    );
    for kind in ComponentKind::ALL {
        let profile = if kind == ComponentKind::Pcie {
            by_name("p-lr").unwrap()
        } else {
            by_name("radi").unwrap()
        };
        let curve = warmup_experiment(
            kind,
            profile,
            opts.runs,
            opts.window,
            opts.seed,
            opts.scale.max(1),
        );
        print!(
            "{}",
            render_curve(
                &format!(
                    "{kind}: mismatch {} -> {} (paper: <0.2% after 1,000 cycles)",
                    pct(curve.points.first().copied().unwrap_or(0.0), 2),
                    pct(curve.residual(), 2)
                ),
                &curve.points,
                10,
            )
        );
        println!();
    }
}

/// Fig. 6: fraction of flops whose errors persist beyond N cycles.
pub fn fig6(opts: &Opts) {
    println!(
        "== Fig. 6: error persistence in unmapped microarch state ({} flops sampled/component) ==\n",
        opts.flops
    );
    let limit = 100_000u64;
    let mut t = Table::new([
        "component",
        ">10^2",
        ">10^3",
        ">10^4",
        ">10^5 (cap)",
        "paper @cap",
    ]);
    let paper_cap = [
        (ComponentKind::L2c, 0.037),
        (ComponentKind::Mcu, 0.020),
        (ComponentKind::Ccx, 0.034),
        (ComponentKind::Pcie, 0.033),
    ];
    for kind in ComponentKind::ALL {
        let profile = if kind == ComponentKind::Pcie {
            by_name("p-sm").unwrap()
        } else {
            by_name("lu-c").unwrap()
        };
        let spec = CampaignSpec {
            seed: opts.seed,
            length_scale: opts.scale.max(1),
            ..CampaignSpec::new(kind, 1)
        };
        let sweep = persistence::persistence_sweep(kind, profile, opts.flops, limit, &spec);
        let paper = paper_cap.iter().find(|(k, _)| *k == kind).unwrap().1;
        t.row([
            kind.to_string(),
            pct(sweep.fraction_beyond(100), 1),
            pct(sweep.fraction_beyond(1_000), 1),
            pct(sweep.fraction_beyond(10_000), 1),
            pct(sweep.fraction_beyond(limit - 1), 1),
            pct(paper, 1),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nPaper: 3.7% / 2.0% / 3.4% / 3.3% of L2C/MCU/CCX/PCIe flops persist past 100K cycles."
    );
}

/// Fig. 7: RTL-only vs mixed-mode outcome rates.
pub fn fig7(opts: &Opts) {
    println!(
        "== Fig. 7: RTL-only vs mixed-mode ({}, FFT, 4 threads, {} samples each) ==\n",
        opts.component, opts.samples
    );
    let cfg = RtlOnlyConfig {
        seed: opts.seed,
        component: opts.component,
        ..RtlOnlyConfig::paper_like(by_name("fft").unwrap())
    };
    let golden = rtl_only_golden(&cfg);
    let samples = draw_fig7_samples(&cfg, &golden, opts.samples);
    let mut rtl = nestsim_core::OutcomeCounts::new();
    let mut mixed = nestsim_core::OutcomeCounts::new();
    for &(bit, cycle) in &samples {
        rtl.record(fig7_outcome(&run_rtl_only_injection(
            &cfg, &golden, bit, cycle,
        )));
        mixed.record(fig7_outcome(&run_mixed_injection_reduced(
            &cfg, &golden, bit, cycle,
        )));
    }
    let mut t = Table::new([
        "outcome",
        "RTL-only",
        "95% CI",
        "mixed-mode",
        "95% CI",
        "ratio",
    ]);
    for (label, outs) in [
        ("ONA+OMM", vec![Outcome::Ona, Outcome::Omm]),
        ("UT", vec![Outcome::Ut]),
        ("Hang", vec![Outcome::Hang]),
    ] {
        let sum = |c: &nestsim_core::OutcomeCounts| {
            Proportion::new(
                outs.iter().map(|&o| c.count(o)).sum(),
                c.reported_total().max(1),
            )
        };
        let (r, m) = (sum(&rtl), sum(&mixed));
        let (rl, rh) = r.wilson_interval(0.95);
        let (ml, mh) = m.wilson_interval(0.95);
        let ratio = if r.rate() > 0.0 {
            m.rate() / r.rate()
        } else {
            f64::NAN
        };
        t.row([
            label.to_string(),
            pct(r.rate(), 2),
            format!("[{:.2}, {:.2}]", rl * 100.0, rh * 100.0),
            pct(m.rate(), 2),
            format!("[{:.2}, {:.2}]", ml * 100.0, mh * 100.0),
            format!("{ratio:.2}"),
        ]);
    }
    print!("{}", t.render());
    println!("\nPaper: mixed-mode rates within 0.9-1.1x of RTL-only.");
}

/// Fig. 8: CDF of error-propagation latency to processor cores.
pub fn fig8(opts: &Opts) {
    println!(
        "== Fig. 8: error-propagation latency to cores ({} injections/component) ==\n",
        opts.samples
    );
    let mut all_results = Vec::new();
    for kind in [ComponentKind::L2c, ComponentKind::Mcu, ComponentKind::Ccx] {
        let cells: Vec<(ComponentKind, &'static BenchProfile)> = pick_benchmarks(opts, kind)
            .into_iter()
            .take(3)
            .map(|b| (kind, b))
            .collect();
        let results = run_grid(&cells, opts);
        let records: Vec<_> = results.iter().flat_map(|r| r.records.clone()).collect();
        all_results.extend(results);
        let mut cdf = propagation_cdf(&records);
        let n = cdf.len();
        print!(
            "{}",
            render_cdf(
                &format!(
                    "{kind}: {n} propagating errors, mean {:.0} cycles",
                    cdf.mean()
                ),
                &mut cdf,
                7,
            )
        );
        println!();
    }
    println!("Paper (full scale): L2C errors take 36M cycles on average to reach cores.");
    export_telemetry(opts, &all_results);
}

/// Fig. 9: CDF of required rollback distance.
pub fn fig9(opts: &Opts) {
    println!(
        "== Fig. 9: required rollback distance ({} injections/component) ==\n",
        opts.samples
    );
    let mut all_results = Vec::new();
    for kind in [ComponentKind::L2c, ComponentKind::Mcu] {
        let cells: Vec<(ComponentKind, &'static BenchProfile)> = pick_benchmarks(opts, kind)
            .into_iter()
            .take(3)
            .map(|b| (kind, b))
            .collect();
        let results = run_grid(&cells, opts);
        let records: Vec<_> = results.iter().flat_map(|r| r.records.clone()).collect();
        all_results.extend(results);
        let mut cdf = rollback_cdf(&records);
        let n = cdf.len();
        let q99 = if n > 0 { cdf.quantile(0.99) } else { 0 };
        print!(
            "{}",
            render_cdf(
                &format!("{kind}: {n} memory-corrupting errors, 99th pct {q99} cycles"),
                &mut cdf,
                7,
            )
        );
        println!();
    }
    println!(
        "Paper (full scale): covering >99% of memory-corrupting errors requires\n\
         rollback distances beyond 400M cycles — far outside incremental-checkpoint reach."
    );
    export_telemetry(opts, &all_results);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_header_is_clean_and_matches_row_arity() {
        let spec = CampaignSpec {
            samples: 2,
            length_scale: 400,
            ..CampaignSpec::new(ComponentKind::L2c, 2)
        };
        let result =
            nestsim_core::campaign::run_campaign_with(by_name("radi").unwrap(), &spec, None);
        let dir = std::env::temp_dir().join(format!("nestsim_csv_test_{}", std::process::id()));
        let dir = dir.to_str().unwrap().to_string();
        write_records_csv(&dir, &result).unwrap();
        let path = format!("{dir}/l2c_radi.csv");
        let csv = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header, CSV_HEADER);
        assert!(
            !header.contains(' '),
            "header must not contain padding: {header:?}"
        );
        let cols = header.split(',').count();
        assert_eq!(cols, 8);
        let mut rows = 0;
        for row in lines {
            assert_eq!(
                row.split(',').count(),
                cols,
                "row arity must match the header: {row:?}"
            );
            rows += 1;
        }
        assert_eq!(rows, result.records.len());
    }

    #[test]
    fn min_max_of_empty_rate_list_renders_dashes_not_inf() {
        assert_eq!(min_max_cells(&[]), ("-".to_string(), "-".to_string()));
        assert_eq!(
            min_max_cells(&[0.02, 0.01, 0.03]),
            ("1.00%".to_string(), "3.00%".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "unknown benchmark \"not-a-bench\"")]
    fn unknown_benchmark_names_are_a_hard_error() {
        let opts = Opts {
            benchmarks: Some(vec!["radi".to_string(), "not-a-bench".to_string()]),
            ..Opts::default()
        };
        pick_benchmarks(&opts, ComponentKind::L2c);
    }
}
