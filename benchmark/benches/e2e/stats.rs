//! Percentiles, host readings from `/proc`, and the metric list the
//! binary prints.

use std::fmt::Write as _;

/// The `p`-th percentile (0–100) of `xs`, linearly interpolated between
/// order statistics; `NaN` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The quiet-machine floor of repeated timings of one piece of work:
/// their 10th percentile. This sandbox alternates between a quiet and a
/// ≈1.35× slow mode in bursts, so a mean or median is bimodal between
/// runs of the same code while the floor repeats.
pub fn floor(xs: &[f64]) -> f64 {
    percentile(xs, 10.0)
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, all digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line the driver reads: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // Names and units are `[A-Za-z0-9_./%-]+` (unit-tested), so no
        // JSON escaping is needed; a non-finite value would not be JSON.
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Reads the metric values back out of a [`result_line`]; `None` if the
/// line is not one.
pub fn parse_result_line(line: &str) -> Option<Vec<(String, f64)>> {
    let metrics = line
        .strip_prefix("{\"correct\": ")?
        .split_once("\"metrics\": {")?
        .1;
    let mut out = Vec::new();
    for entry in metrics.split("\"}").filter(|e| e.contains("\"value\": ")) {
        let name = entry.split('"').nth(1)?;
        let value = entry
            .split_once("\"value\": ")?
            .1
            .split(',')
            .next()?
            .parse()
            .ok()?;
        out.push((name.to_string(), value));
    }
    Some(out)
}

/// A field of `/proc/self/status` in kB (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// This process's CPU time so far, `(user, system)` seconds, all threads
/// (`utime` and `stime` of `/proc/self/stat`, at the usual 100 Hz tick).
pub fn process_cpu_s() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line.
    let rest = stat.rsplit_once(") ")?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / 100.0, stime / 100.0))
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let xs = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), 30.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
        assert_eq!(percentile(&xs, 25.0), 20.0);
        assert!((percentile(&xs, 10.0) - 14.0).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 10.0), 7.0);
        assert!(percentile(&[], 10.0).is_nan());
    }

    #[test]
    fn floor_ignores_a_slow_burst() {
        // 11 reps, 5 of them in the 1.35× slow mode.
        let mut xs = vec![1.0; 6];
        xs.extend([1.35; 5]);
        assert_eq!(floor(&xs), 1.0);
        assert!(percentile(&xs, 50.0) <= 1.0);
        xs.extend([1.35; 2]);
        assert!(percentile(&xs, 50.0) > 1.3, "the median flips modes");
        assert_eq!(floor(&xs), 1.0, "the floor does not");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            40,
            0,
            &[metric("a.b", 1.5, "ms"), metric("c", 2.0, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 40, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!(result_line(40, 8, &[]).starts_with("{\"correct\": false"));
        assert_eq!(
            parse_result_line(&line),
            Some(vec![("a.b".to_string(), 1.5), ("c".to_string(), 2.0)])
        );
        assert_eq!(parse_result_line("# a comment line"), None);
    }
}
