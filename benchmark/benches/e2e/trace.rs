//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from this package only, around its calls into
//! each layer's public functions (the engine crates carry no spans of
//! their own yet). A span has a name `<layer>.<what>`, a start, an end,
//! the span that caused it and the rep it belongs to; they stay in
//! memory and are written as JSON lines when the run ends. A span's
//! self time is its duration minus the part its children cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; more are counted in `dropped`, not recorded, so
/// the recorder never reallocates inside a timed window.
pub const CAPACITY: usize = 1 << 16;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`; the layer is a crate name (`hlsim`, `core`,
    /// `cluster`, `svc`) or `e2e` for the benchmark's own glue.
    pub name: &'static str,
    /// Nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was made; `>= start_ns`.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The rep (cell × round) the span belongs to.
    pub rep: u32,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` inside when the span was
/// dropped for lack of room.
#[derive(Debug)]
#[must_use = "pass the handle back to Tracer::exit"]
pub struct Open(Option<usize>);

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
    dropped: u64,
}

impl Tracer {
    /// An empty recorder with all its room allocated up front.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(CAPACITY),
            stack: Vec::with_capacity(16),
            rep: 0,
            dropped: 0,
        }
    }

    /// A recorder that records nothing and never reads the clock: what
    /// the untraced run hands to code that is written once for both.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
            dropped: 0,
        }
    }

    /// Sets the rep id stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return Open(None);
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span; spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time of every span, index-aligned with [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Writes the spans as JSON lines, creating the directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"rep\": {}, \"layer\": \"{}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.rep,
                s.layer(),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span: duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "core.x",
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(0, 100, None),    // children cover 10..40 and 50..70
            span(10, 40, Some(0)), // its child covers 20..30
            span(20, 30, Some(1)), // leaf
            span(50, 70, Some(0)), // leaf
            span(200, 260, None),  // a second root, no children
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20, 60]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_covered_once() {
        let spans = [
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(140, 180, Some(0)), // overlaps the previous child
            span(190, 250, Some(0)), // overhangs the parent's end
            span(120, 130, Some(0)), // inside an already covered stretch
        ];
        // Cover: 110..180 (70) + 190..200 (10).
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_stamps_reps_and_names_layers() {
        let mut t = Tracer::new();
        t.set_rep(3);
        let root = t.enter("e2e.rep");
        let got = t.span("hlsim.golden_ladder", || 7);
        t.exit(root);
        assert_eq!(got, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[0].rep, s[1].rep), (3, 3));
        assert_eq!((s[0].layer(), s[1].layer()), ("e2e", "hlsim"));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = t.self_times_ns();
        assert_eq!(selfs[0] + selfs[1], s[0].duration_ns());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn a_disabled_recorder_records_and_drops_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("svc.serve", || 5), 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn a_full_recorder_counts_what_it_drops() {
        let mut t = Tracer::new();
        for _ in 0..CAPACITY {
            t.span("core.x", || ());
        }
        let outer = t.enter("core.y");
        t.span("core.z", || ());
        t.exit(outer);
        assert_eq!(t.spans().len(), CAPACITY);
        assert_eq!(t.dropped(), 2);
    }
}
