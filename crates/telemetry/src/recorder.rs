//! The per-worker recorder and its merged campaign summary.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::trace::{EventKind, Trace, TraceEvent};

/// How much telemetry to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Ring capacity of the event trace (counters and histograms are
    /// unbounded — they are fixed-size aggregates).
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_capacity: 4096,
        }
    }
}

/// The live half of a recorder; absent entirely when recording is
/// disabled, so every hook reduces to one branch on `Option::is_none`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    trace: Trace,
}

/// A structured-telemetry sink: counters + histograms + event trace.
///
/// Recorders merge associatively ([`Recorder::merge`]): counters and
/// histograms add element-wise, traces concatenate under the ring
/// bound. The campaign layer merges per-run recorders *in sample
/// order*, which makes the merged result independent of how runs were
/// sharded across workers.
///
/// A [`Recorder::null`] recorder ignores every hook at the cost of a
/// single branch — the zero-observability-tax guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recorder {
    inner: Option<Box<Inner>>,
}

impl Recorder {
    /// A disabled recorder: every hook is a no-op.
    pub fn null() -> Self {
        Recorder { inner: None }
    }

    /// An enabled, empty recorder.
    pub fn active(cfg: &TelemetryConfig) -> Self {
        Recorder {
            inner: Some(Box::new(Inner {
                counters: BTreeMap::new(),
                hists: BTreeMap::new(),
                trace: Trace::new(cfg.trace_capacity),
            })),
        }
    }

    /// Reassembles an active recorder from its observable parts (the
    /// inverse of `counters`/`histograms`/`trace`), used by
    /// deserializers that move recorders across process boundaries.
    /// Names must already be interned (`names::resolve`) so the
    /// round-tripped recorder compares equal to the original.
    pub fn from_parts(
        counters: BTreeMap<&'static str, u64>,
        hists: BTreeMap<&'static str, Histogram>,
        trace: Trace,
    ) -> Self {
        Recorder {
            inner: Some(Box::new(Inner {
                counters,
                hists,
                trace,
            })),
        }
    }

    /// True when this recorder actually records.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to the named monotonic counter.
    #[inline]
    pub fn count(&mut self, name: &'static str, n: u64) {
        if let Some(inner) = &mut self.inner {
            *inner.counters.entry(name).or_insert(0) += n;
        }
    }

    /// Records one sample into the named histogram.
    #[inline]
    pub fn record_hist(&mut self, name: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner.hists.entry(name).or_default().record(value);
        }
    }

    /// Appends one event to the trace.
    #[inline]
    pub fn event(&mut self, cycle: u64, component: &'static str, kind: EventKind, payload: u64) {
        if let Some(inner) = &mut self.inner {
            inner.trace.push(TraceEvent {
                cycle,
                component,
                kind,
                payload,
            });
        }
    }

    /// Folds `other` into `self`. Merging is associative; a null
    /// operand on either side contributes nothing (and a null `self`
    /// stays null — disabled means disabled).
    pub fn merge(&mut self, other: &Recorder) {
        let (Some(inner), Some(o)) = (&mut self.inner, &other.inner) else {
            return;
        };
        for (name, v) in &o.counters {
            *inner.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &o.hists {
            inner.hists.entry(name).or_default().merge(h);
        }
        inner.trace.merge(&o.trace);
    }

    /// Current value of a counter (0 if never touched or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| i.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner
            .as_ref()
            .map(|i| i.counters.iter().map(|(k, v)| (*k, *v)).collect())
            .unwrap_or_default()
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.inner.as_ref().and_then(|i| i.hists.get(name))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(&'static str, &Histogram)> {
        self.inner
            .as_ref()
            .map(|i| i.hists.iter().map(|(k, v)| (*k, v)).collect())
            .unwrap_or_default()
    }

    /// The event trace (`None` when disabled).
    pub fn trace(&self) -> Option<&Trace> {
        self.inner.as_ref().map(|i| &i.trace)
    }

    /// Retained trace events, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map(|i| i.trace.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Serializes the recorder as JSON-lines: one `meta` line, then one
    /// line per counter, histogram, and retained trace event. The
    /// output is byte-deterministic (sorted maps, insertion-ordered
    /// trace), so equal recorders serialize identically — the property
    /// the campaign determinism test pins down.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let Some(inner) = &self.inner else {
            out.push_str("{\"type\":\"meta\",\"schema\":1,\"enabled\":false}\n");
            return out;
        };
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"schema\":1,\"enabled\":true,\
             \"trace_capacity\":{},\"trace_len\":{},\"trace_dropped\":{}}}",
            inner.trace.capacity(),
            inner.trace.len(),
            inner.trace.dropped(),
        );
        for (name, v) in &inner.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
                escape(name)
            );
        }
        for (name, h) in &inner.hists {
            let _ = write!(
                out,
                "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[",
                escape(name),
                h.count(),
                h.sum()
            );
            let mut first = true;
            for (i, &c) in h.bucket_counts().iter().enumerate() {
                if c > 0 {
                    if !first {
                        out.push(',');
                    }
                    let _ = write!(out, "[{i},{c}]");
                    first = false;
                }
            }
            out.push_str("]}\n");
        }
        for e in inner.trace.iter() {
            let _ = writeln!(
                out,
                "{{\"type\":\"event\",\"cycle\":{},\"component\":\"{}\",\
                 \"kind\":\"{}\",\"payload\":{}}}",
                e.cycle,
                escape(e.component),
                e.kind.name(),
                e.payload
            );
        }
        out
    }
}

/// Escapes a string for embedding in a JSON string literal. Names are
/// static identifiers today; the escape keeps the export well-formed
/// if that ever changes.
fn escape(s: &str) -> String {
    if s.chars()
        .all(|c| c != '"' && c != '\\' && (c as u32) >= 0x20)
    {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Merged telemetry of one campaign cell, attached to `CampaignResult`.
///
/// `merged` aggregates the per-run recorders in sample order and is
/// therefore identical whatever the worker count; `worker_samples`
/// (how runs were sharded) and `engine` (how the campaign engine
/// scheduled the forward simulation: ladder rungs, rung restores,
/// forward-simulated cycles) are deliberately kept *outside* the
/// merged recorder so the byte-identical export guarantee survives
/// across worker counts, snapshot intervals, and engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignTelemetry {
    /// Per-run telemetry merged in sample order.
    pub merged: Recorder,
    /// Samples executed by each in-process worker thread, in shard
    /// order (empty when telemetry is disabled, and for a campaign run
    /// on a campaign server, whose shards its client never sees).
    pub worker_samples: Vec<usize>,
    /// Engine-level telemetry: ladder rung counts/sizes, rung
    /// restores and forward-simulated cycles in process; lease, frame
    /// and shard counters for a cluster campaign. Null when telemetry
    /// is disabled. Engine- and sharding-dependent by design.
    pub engine: Recorder,
}

impl CampaignTelemetry {
    /// Telemetry of a campaign run with recording disabled.
    pub fn disabled() -> Self {
        CampaignTelemetry {
            merged: Recorder::null(),
            worker_samples: Vec::new(),
            engine: Recorder::null(),
        }
    }

    /// True when the campaign recorded anything.
    pub fn is_active(&self) -> bool {
        self.merged.is_active()
    }

    /// The merged recorder's JSON-lines export.
    pub fn to_jsonl(&self) -> String {
        self.merged.to_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn null_recorder_ignores_everything() {
        let mut r = Recorder::null();
        r.count(names::INJECT_RUNS, 5);
        r.record_hist(names::H_WARMUP, 100);
        r.event(1, "l2c", EventKind::BitFlip, 3);
        assert!(!r.is_active());
        assert_eq!(r.counter(names::INJECT_RUNS), 0);
        assert!(r.histogram(names::H_WARMUP).is_none());
        assert!(r.events().is_empty());
        assert_eq!(
            r.to_jsonl(),
            "{\"type\":\"meta\",\"schema\":1,\"enabled\":false}\n"
        );
    }

    #[test]
    fn merge_adds_counters_and_hists() {
        let cfg = TelemetryConfig::default();
        let mut a = Recorder::active(&cfg);
        let mut b = Recorder::active(&cfg);
        a.count("x", 2);
        b.count("x", 3);
        b.count("y", 1);
        a.record_hist("h", 4);
        b.record_hist("h", 5);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h").unwrap().sum(), 9);
    }

    #[test]
    fn merge_with_null_is_identity_and_null_stays_null() {
        let cfg = TelemetryConfig::default();
        let mut a = Recorder::active(&cfg);
        a.count("x", 7);
        let before = a.clone();
        a.merge(&Recorder::null());
        assert_eq!(a, before);

        let mut n = Recorder::null();
        n.merge(&before);
        assert!(!n.is_active());
    }

    #[test]
    fn jsonl_is_deterministic_and_sorted() {
        let cfg = TelemetryConfig { trace_capacity: 16 };
        let mk = || {
            let mut r = Recorder::active(&cfg);
            r.count("zeta", 1);
            r.count("alpha", 2);
            r.record_hist("h", 10);
            r.event(5, "mcu", EventKind::CosimEnter, 0);
            r
        };
        let a = mk().to_jsonl();
        let b = mk().to_jsonl();
        assert_eq!(a, b);
        let alpha = a.find("\"alpha\"").unwrap();
        let zeta = a.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "counters must serialize sorted");
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn escape_handles_special_chars() {
        assert_eq!(escape("plain.name"), "plain.name");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn disabled_campaign_telemetry_is_inactive() {
        let t = CampaignTelemetry::disabled();
        assert!(!t.is_active());
        assert!(t.to_jsonl().contains("\"enabled\":false"));
    }
}
