//! Plain-text table and figure rendering for the reproduction harness.
//!
//! The `repro` binary prints every table and figure of the paper as
//! aligned ASCII tables, percentage series, and log-x CDF plots. This
//! module holds the formatting machinery, for `repro` and the examples.
//!
//! # Examples
//!
//! ```
//! use nestsim::report::Table;
//!
//! let mut t = Table::new(["bench", "OMM", "UT"]);
//! t.row(["barn", "0.02%", "1.34%"]);
//! t.row(["fft", "0.05%", "0.71%"]);
//! let s = t.render();
//! assert!(s.contains("barn"));
//! assert!(s.lines().count() >= 4);
//! ```

use nestsim_core::inject::{POSTFLIP_CYCLES, POSTFLIP_EXITS, POSTFLIP_RUNS};
use nestsim_stats::Cdf;
use nestsim_telemetry::{names, Recorder};

/// An aligned plain-text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table with a header underline.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for r in &self.rows {
            for (i, c) in r.iter().take(cols).enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            #[allow(clippy::needless_range_loop, reason = "i indexes cells and widths")]
            for i in 0..cols {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = width[i] - cell.chars().count();
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
                if i + 1 < cols {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with `digits` decimals.
pub fn pct(x: f64, digits: usize) -> String {
    format!("{:.*}%", digits, x * 100.0)
}

/// Formats a fraction with its confidence interval, e.g.
/// `"1.34% [1.21, 1.47]"`.
pub fn pct_ci(rate: f64, lo: f64, hi: f64) -> String {
    format!("{} [{:.2}, {:.2}]", pct(rate, 2), lo * 100.0, hi * 100.0)
}

/// Renders a CDF as `(decade boundary, cumulative %)` rows plus a
/// small horizontal bar chart — the format used for the paper's
/// Figs. 6, 8 and 9.
pub fn render_cdf(title: &str, cdf: &mut Cdf, max_decade: u32) -> String {
    let mut out = format!("{title}\n");
    if cdf.is_empty() {
        out.push_str("  (no samples)\n");
        return out;
    }
    for (bound, frac) in cdf.decade_series(max_decade) {
        let bar = "#".repeat((frac * 40.0).round() as usize);
        out.push_str(&format!(
            "  <= 10^{:<2} {:>7}  |{bar}\n",
            bound.ilog10(),
            pct(frac, 1)
        ));
    }
    out
}

/// Renders a campaign-telemetry provenance footer: how the numbers
/// above were produced (runs, co-simulation exits, state transfers,
/// golden compares, mean residency/warm-up), so every figure carries
/// its own methodological audit trail. Empty string when telemetry was
/// disabled.
pub fn render_provenance(rec: &Recorder) -> String {
    if !rec.is_active() {
        return String::new();
    }
    let runs = rec.counter(names::INJECT_RUNS);
    let conv = rec.counter(names::COSIM_EXIT_CONVERGED);
    let cap = rec.counter(names::COSIM_EXIT_CAP);
    let mism = rec.counter(names::COSIM_EXIT_MISMATCH);
    let mut out = String::from("provenance:\n");
    out.push_str(&format!(
        "  runs {runs}  cosim exits: converged {conv} / cap {cap} / mismatch {mism}\n"
    ));
    out.push_str(&format!(
        "  early terminations: vanished {} / persist {}  state transfers: {}→RTL, {}→high\n",
        rec.counter(names::EARLY_TERM_VANISHED),
        rec.counter(names::EARLY_TERM_PERSIST),
        rec.counter(names::STATE_TRANSFER_TO_RTL),
        rec.counter(names::STATE_TRANSFER_TO_HIGH),
    ));
    out.push_str(&format!(
        "  golden compares {}  snapshot clones {}\n",
        rec.counter(names::GOLDEN_COMPARES),
        rec.counter(names::SNAPSHOT_CLONES),
    ));
    let mean = |name: &str| {
        rec.histogram(name)
            .map_or("n/a".to_string(), |h| format!("{:.0}", h.mean()))
    };
    out.push_str(&format!(
        "  mean cycles: warm-up {}, cosim residency {}, propagation latency {}\n",
        mean(names::H_WARMUP),
        mean(names::H_COSIM_RESIDENCY),
        mean(names::H_PROPAGATION),
    ));
    if let Some(t) = rec.trace() {
        out.push_str(&format!(
            "  trace: {} events retained (capacity {}, {} dropped)\n",
            t.len(),
            t.capacity(),
            t.dropped()
        ));
    }
    out
}

/// Renders the campaign-engine footer: how the snapshot-ladder engine
/// scheduled the forward simulation (rungs captured and kept, rung
/// footprint, rung restores, forward-simulated cycles), the windows'
/// warm-up carriers, lane batches, the DRAM storage the walks' systems
/// allocated and copied, where those systems came from (parked storage
/// or built), how the cross-figure cell cache performed, and where
/// post-flip co-simulation went (`render_post_flip`). This data is
/// engine- and sharding-dependent by design, so it lives in its own
/// footer rather than the merged provenance. Empty string when the
/// recorder is disabled.
pub fn render_engine_stats(engine: &Recorder) -> String {
    if !engine.is_active() {
        return String::new();
    }
    let mut out = String::from("engine:\n");
    out.push_str(&format!(
        "  snapshot ladder: {} captures, {} rungs, {} restores, {} forward-sim cycles\n",
        engine.counter(names::LADDER_CAPTURES),
        engine.counter(names::LADDER_RUNGS),
        engine.counter(names::LADDER_RESTORES),
        engine.counter(names::FORWARD_CYCLES),
    ));
    if let Some(h) = engine.histogram(names::H_LADDER_RUNG_DRAM_LINES) {
        out.push_str(&format!(
            "  rung footprint: mean {:.0} DRAM lines, {:.0} resident L2 lines\n",
            h.mean(),
            engine
                .histogram(names::H_LADDER_RUNG_RESIDENT_LINES)
                .map_or(0.0, |h| h.mean()),
        ));
    }
    let c = |name| engine.counter(name);
    out.push_str(&format!(
        "  warm-up carriers: {} windows, {} cycles\n",
        c(names::WARM_CARRIERS),
        c(names::WARM_CYCLES),
    ));
    if c(names::LANES_BATCHES) > 0 {
        out.push_str(&format!(
            "  lanes: {} batches, {} retired in them, {} left on a fork\n",
            c(names::LANES_BATCHES),
            c(names::LANES_RETIRED_EARLY),
            c(names::LANES_SCALAR_FALLBACKS),
        ));
    }
    out.push_str(&format!(
        "  storage: {} systems taken from parked storage, {} built; \
         {} drivers taken, {} built; DRAM {} arena chunks allocated, {} pages copied\n",
        c(names::STORAGE_SYSTEMS_TAKEN),
        c(names::STORAGE_SYSTEMS_BUILT),
        c(names::STORAGE_DRIVERS_TAKEN),
        c(names::STORAGE_DRIVERS_BUILT),
        c(names::DRAM_CHUNKS_ALLOCATED),
        c(names::DRAM_PAGES_COPIED),
    ));
    let hits = engine.counter(names::CELL_CACHE_HITS);
    let misses = engine.counter(names::CELL_CACHE_MISSES);
    if hits + misses > 0 {
        out.push_str(&format!("  cell cache: {hits} hits / {misses} misses\n"));
    }
    out.push_str(&render_post_flip(engine));
    out
}

/// The engine footer's post-flip split: runs and co-simulation cycles
/// after the flip by how co-simulation ended and whether the output was
/// clean or erroneous by then, and the accelerated cycles phase 3 ran to
/// the program's end. Empty when no run was counted.
fn render_post_flip(engine: &Recorder) -> String {
    let sum =
        |table: &[[&str; 2]; 6]| -> u64 { table.iter().flatten().map(|n| engine.counter(n)).sum() };
    let (runs, cycles) = (sum(&POSTFLIP_RUNS), sum(&POSTFLIP_CYCLES));
    if runs == 0 {
        return String::new();
    }
    let mut out = format!(
        "  post-flip co-simulation: {runs} runs, {cycles} cycles ({:.0} per run)\n    \
         {:<10} {:>15} {:>23} {:>8}\n",
        cycles as f64 / runs as f64,
        "exit",
        "runs clean/err",
        "cycles clean/err",
        "cycles"
    );
    for (e, exit) in POSTFLIP_EXITS.iter().enumerate() {
        let [r, c] =
            [POSTFLIP_RUNS[e], POSTFLIP_CYCLES[e]].map(|pair| pair.map(|n| engine.counter(n)));
        let share = 100.0 * (c[0] + c[1]) as f64 / cycles.max(1) as f64;
        out.push_str(&format!(
            "    {exit:<10} {:>15} {:>23} {:>7.1}%\n",
            format!("{}/{}", r[0], r[1]),
            format!("{}/{}", c[0], c[1]),
            share
        ));
    }
    out.push_str(&format!(
        "    phase 3 ran {} accelerated cycles to the program's end\n",
        engine.counter(names::POSTFLIP_RUN_TO_END_CYCLES)
    ));
    out
}

/// Renders a convergence curve (the Fig. 5 format): sampled points of
/// a per-cycle series.
pub fn render_curve(title: &str, points: &[f64], samples: usize) -> String {
    let mut out = format!("{title}\n");
    if points.is_empty() {
        out.push_str("  (no data)\n");
        return out;
    }
    let step = (points.len() / samples.max(1)).max(1);
    let peak = points.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    for (i, v) in points.iter().enumerate().step_by(step) {
        let bar = "#".repeat((v / peak * 40.0).round() as usize);
        out.push_str(&format!("  cycle {i:>5} {:>8}  |{bar}\n", pct(*v, 2)));
    }
    out
}
