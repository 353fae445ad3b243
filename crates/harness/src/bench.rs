//! The wall-clock bench runner: warm-up, median-of-N with MAD spread,
//! JSON-lines output.
//!
//! Each bench binary builds a [`Suite`], registers closures with
//! [`Suite::bench`], and calls [`Suite::finish`], which prints a summary
//! table and writes one JSON object per bench to
//! `BENCH_<suite>.json` at the workspace root (override the directory
//! with `NESTSIM_BENCH_OUT`).

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// One measured bench, as serialized to the JSON-lines file.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Suite name (the `BENCH_<suite>.json` stem).
    pub suite: String,
    /// Bench group, e.g. `kernel/bitbuf`.
    pub group: String,
    /// Bench name within the group.
    pub name: String,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: u64,
    /// Median per-iteration time, nanoseconds.
    pub median_ns: f64,
    /// Median absolute deviation of the per-iteration times, ns.
    pub mad_ns: f64,
    /// Fastest sample's per-iteration time, ns.
    pub min_ns: f64,
    /// Slowest sample's per-iteration time, ns.
    pub max_ns: f64,
}

impl Record {
    /// Serializes to one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(192);
        s.push('{');
        json_str(&mut s, "suite", &self.suite);
        s.push(',');
        json_str(&mut s, "group", &self.group);
        s.push(',');
        json_str(&mut s, "name", &self.name);
        s.push(',');
        let _ = write!(s, "\"iters_per_sample\":{}", self.iters_per_sample);
        s.push(',');
        let _ = write!(s, "\"samples\":{}", self.samples);
        s.push(',');
        json_f64(&mut s, "median_ns", self.median_ns);
        s.push(',');
        json_f64(&mut s, "mad_ns", self.mad_ns);
        s.push(',');
        json_f64(&mut s, "min_ns", self.min_ns);
        s.push(',');
        json_f64(&mut s, "max_ns", self.max_ns);
        s.push('}');
        s
    }

    /// Parses a [`Record`] back from its [`Record::to_json`] form.
    ///
    /// This is a schema check, not a general JSON parser: it accepts
    /// exactly the flat string/number objects this module writes.
    pub fn from_json(line: &str) -> Option<Record> {
        let fields = parse_flat_object(line)?;
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let string = |k: &str| match get(k)? {
            JsonValue::Str(s) => Some(s.clone()),
            JsonValue::Num(_) => None,
        };
        let num = |k: &str| match get(k)? {
            JsonValue::Num(n) => Some(*n),
            JsonValue::Str(_) => None,
        };
        Some(Record {
            suite: string("suite")?,
            group: string("group")?,
            name: string("name")?,
            iters_per_sample: num("iters_per_sample")? as u64,
            samples: num("samples")? as u64,
            median_ns: num("median_ns")?,
            mad_ns: num("mad_ns")?,
            min_ns: num("min_ns")?,
            max_ns: num("max_ns")?,
        })
    }
}

fn json_str(out: &mut String, key: &str, val: &str) {
    let _ = write!(out, "\"{key}\":\"");
    for c in val.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_f64(out: &mut String, key: &str, val: f64) {
    // Finite-only schema; benches cannot produce NaN/inf timings.
    let _ = write!(out, "\"{key}\":{val:.3}");
}

enum JsonValue {
    Str(String),
    Num(f64),
}

/// Parses `{"k":"v","k2":1.5,...}` into key/value pairs.
fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let line = line.trim();
    let inner = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        // Key.
        if chars.peek().is_none() {
            break;
        }
        if chars.next()? != '"' {
            return None;
        }
        let key = parse_string_body(&mut chars)?;
        if chars.next()? != ':' {
            return None;
        }
        // Value.
        let val = match chars.peek()? {
            '"' => {
                chars.next();
                JsonValue::Str(parse_string_body(&mut chars)?)
            }
            _ => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c == ',' {
                        break;
                    }
                    num.push(c);
                    chars.next();
                }
                JsonValue::Num(num.trim().parse().ok()?)
            }
        };
        fields.push((key, val));
        match chars.next() {
            None => break,
            Some(',') => continue,
            Some(_) => return None,
        }
    }
    Some(fields)
}

fn parse_string_body(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
    let mut s = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(s),
            '\\' => match chars.next()? {
                '"' => s.push('"'),
                '\\' => s.push('\\'),
                'n' => s.push('\n'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    s.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => s.push(c),
        }
    }
}

/// How hard to measure.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Warm-up iterations before any timing.
    pub warmup_iters: u64,
    /// Timed samples per bench (odd keeps the median a real sample).
    pub samples: u64,
    /// Target wall-clock per sample, used to calibrate iterations.
    pub target_sample_ns: f64,
    /// Cap on iterations per sample (bounds cheap-op bench time).
    pub max_iters_per_sample: u64,
}

impl BenchConfig {
    /// The normal measurement configuration.
    pub fn standard() -> Self {
        BenchConfig {
            warmup_iters: 3,
            samples: 9,
            target_sample_ns: 10_000_000.0,
            max_iters_per_sample: 100_000,
        }
    }

    /// One warm-up-free iteration per bench, which only proves every
    /// bench path still executes: the harness's own tests use it.
    pub fn smoke() -> Self {
        BenchConfig {
            warmup_iters: 0,
            samples: 1,
            target_sample_ns: 0.0,
            max_iters_per_sample: 1,
        }
    }
}

/// A named collection of benches producing one `BENCH_<suite>.json`.
pub struct Suite {
    name: String,
    config: BenchConfig,
    records: Vec<Record>,
}

impl Suite {
    /// Creates a suite with the [standard](BenchConfig::standard)
    /// configuration.
    pub fn new(name: &str) -> Self {
        Suite {
            name: name.to_string(),
            config: BenchConfig::standard(),
            records: Vec::new(),
        }
    }

    /// Creates a suite with an explicit configuration.
    pub fn with_config(name: &str, config: BenchConfig) -> Self {
        Suite {
            name: name.to_string(),
            config,
            records: Vec::new(),
        }
    }

    /// Measures `f`, recording per-iteration wall time under
    /// `group`/`name`. The closure's return value is black-boxed so the
    /// optimizer cannot delete the measured work.
    pub fn bench<R>(&mut self, group: &str, name: &str, mut f: impl FnMut() -> R) {
        let cfg = self.config;
        for _ in 0..cfg.warmup_iters {
            black_box(f());
        }
        // Calibrate iterations per sample from one timed run.
        let iters = if cfg.max_iters_per_sample <= 1 {
            1
        } else {
            let t0 = Instant::now();
            black_box(f());
            let one = t0.elapsed().as_nanos().max(1) as f64;
            ((cfg.target_sample_ns / one) as u64).clamp(1, cfg.max_iters_per_sample)
        };
        let mut per_iter: Vec<f64> = Vec::with_capacity(cfg.samples as usize);
        for _ in 0..cfg.samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        let med = median(&mut per_iter.clone());
        let mut devs: Vec<f64> = per_iter.iter().map(|x| (x - med).abs()).collect();
        let mad = median(&mut devs);
        let min = per_iter.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_iter.iter().copied().fold(0.0f64, f64::max);
        let rec = Record {
            suite: self.name.clone(),
            group: group.to_string(),
            name: name.to_string(),
            iters_per_sample: iters,
            samples: cfg.samples,
            median_ns: med,
            mad_ns: mad,
            min_ns: min,
            max_ns: max,
        };
        println!(
            "{:<28} {:<28} {:>14} ±{:>12}  ({} iters × {} samples)",
            rec.group,
            rec.name,
            fmt_ns(rec.median_ns),
            fmt_ns(rec.mad_ns),
            rec.iters_per_sample,
            rec.samples,
        );
        self.records.push(rec);
    }

    /// The records measured so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Writes `BENCH_<suite>.json` (one JSON object per line) and
    /// returns the path written.
    ///
    /// # Panics
    ///
    /// Panics if the output file cannot be written — a bench run whose
    /// results vanish silently is worse than a failed one.
    pub fn finish(self) -> PathBuf {
        let path = out_dir().join(format!("BENCH_{}.json", self.name));
        let mut body = String::new();
        for r in &self.records {
            body.push_str(&r.to_json());
            body.push('\n');
        }
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote {} ({} benches)", path.display(), self.records.len());
        path
    }
}

/// Output directory: `NESTSIM_BENCH_OUT`, else the nearest enclosing
/// cargo workspace root, else the current directory.
fn out_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("NESTSIM_BENCH_OUT") {
        return PathBuf::from(dir);
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> Record {
        Record {
            suite: "kernel".into(),
            group: "kernel/bitbuf".into(),
            name: "read_bits_64".into(),
            iters_per_sample: 1000,
            samples: 9,
            median_ns: 12.345,
            mad_ns: 0.5,
            min_ns: 11.0,
            max_ns: 20.25,
        }
    }

    #[test]
    fn json_round_trips() {
        let r = sample_record();
        let parsed = Record::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn json_round_trips_with_escapes() {
        let mut r = sample_record();
        r.name = "odd \"name\"\\with\nescapes\u{1}".into();
        let parsed = Record::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Record::from_json("not json").is_none());
        assert!(Record::from_json("{\"suite\":\"x\"}").is_none());
        assert!(Record::from_json("{\"suite\":1,\"group\":\"g\"}").is_none());
    }

    #[test]
    fn smoke_suite_measures_and_counts() {
        let mut suite = Suite::with_config("selftest", BenchConfig::smoke());
        let mut n = 0u64;
        suite.bench("g", "count", || {
            n += 1;
            n
        });
        assert_eq!(suite.records().len(), 1);
        let r = &suite.records()[0];
        assert_eq!(r.iters_per_sample, 1);
        assert_eq!(r.samples, 1);
        assert!(r.median_ns >= 0.0);
        // Smoke mode ran the closure exactly once (no warm-up, no
        // calibration run).
        assert_eq!(n, 1);
    }

    #[test]
    fn standard_mode_collects_odd_samples() {
        let cfg = BenchConfig {
            warmup_iters: 1,
            samples: 3,
            target_sample_ns: 1_000.0,
            max_iters_per_sample: 10,
        };
        let mut suite = Suite::with_config("selftest", cfg);
        suite.bench("g", "spin", || std::hint::black_box(3u64.pow(7)));
        let r = &suite.records()[0];
        assert_eq!(r.samples, 3);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
    }
}
