//! The whole-program analyses: panic-reachability (R8) and determinism
//! taint (R9).
//!
//! Where the token rule in [`crate::rules`] looks at one file at a
//! time, these two walk the call graph ([`crate::graph`]) built over
//! every non-test source in the workspace:
//!
//! * **R8 `panic-reachability`** — from the wire *entry points* (any
//!   `decode`, `get_*`, `read_frame`, or `next_frame` defined in a
//!   file the policy table marks `no-panic-on-wire`), every
//!   transitively reachable function is scanned for panicking
//!   constructs: `.unwrap()` / `.expect(…)`, the panicking macro
//!   family, index expressions, and *unchecked binary arithmetic*
//!   (`+ - * / %` between expressions — overflow aborts in debug and
//!   wraps silently in release, both wrong for untrusted lengths).
//!   Shifts are deliberately not flagged: at the token level `a << b`
//!   is indistinguishable from nested generics (`Vec<Vec<u8>>`).
//! * **R9 `determinism-taint`** — the *result-affecting* set is the
//!   closure of every fn in a file the policy table marks
//!   `determinism-taint`, every function that constructs a
//!   `CampaignResult`, every telemetry `merge`, and
//!   `ServiceMachine::step`. Inside that set, taint sources are
//!   flagged: iteration over a hash-ordered value (a `HashMap`/`HashSet`
//!   or an alias that resolves to one — `.iter()`, `.keys()`,
//!   `.drain()`, a `for … in` loop), wall clocks,
//!   `RandomState`/`DefaultHasher`, and `thread::current()`. Declaring
//!   a hash-typed alias or doing point lookups is fine; only
//!   order-dependent consumption fires.
//!
//! Both inherit the graph's documented over-approximations: a
//! spurious edge can only produce a finding a human then suppresses
//! with a justification; a missing edge would silently hide one.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{Graph, Model};
use crate::lexer::{keyword_before_bracket, Tok, Token};
use crate::policy;
use crate::rules::{Finding, Rule, R2_MACROS};

/// What the whole-program rules treat as wire input and telemetry —
/// injectable so fixtures can exercise the rules on a single file.
pub struct WholeConfig {
    /// Files whose `decode`/`get_*`/`read_frame`/`next_frame` fns are
    /// wire entry points (path prefixes).
    pub wire_files: Vec<String>,
    /// Path prefix under which every `merge` is a result sink.
    pub telemetry_prefix: Option<String>,
}

impl WholeConfig {
    /// The real workspace configuration: wire files are the policy
    /// rows carrying `no-panic-on-wire`, telemetry is the telemetry
    /// crate.
    pub fn workspace() -> WholeConfig {
        WholeConfig {
            wire_files: policy::TABLE
                .iter()
                .filter(|r| r.rules.contains(&Rule::NoPanicOnWire))
                .map(|r| r.prefix.to_string())
                .collect(),
            telemetry_prefix: Some("crates/telemetry/".to_string()),
        }
    }

    /// A one-file configuration for fixtures: the file is its own wire
    /// surface.
    pub fn single(path: &str) -> WholeConfig {
        WholeConfig {
            wire_files: vec![path.to_string()],
            telemetry_prefix: None,
        }
    }
}

/// Runs both whole-program rules over one source file — the fixture
/// entry point of the self-test. The path picks the file's policy row.
pub fn analyze_single(path: &str, src: &str) -> Vec<Finding> {
    let model = Model::build(vec![(path.to_string(), src.to_string())]);
    let cfg = WholeConfig::single(path);
    let g = Graph::build(&model);
    let mut out = check_panic_reachability(&g, &cfg);
    out.extend(check_determinism_taint(&g, &cfg));
    out.sort();
    out.dedup();
    out
}

fn is_wire_entry(name: &str) -> bool {
    name == "decode" || name == "read_frame" || name == "next_frame" || name.starts_with("get_")
}

fn trace(g: &Graph<'_>, cl: &crate::graph::Closure, id: usize) -> String {
    cl.path_to(id)
        .into_iter()
        .map(|n| g.label(n))
        .collect::<Vec<_>>()
        .join(" → ")
}

// ---------------------------------------------------------------- R8

/// R8: panicking constructs in anything reachable from a wire entry.
pub fn check_panic_reachability(g: &Graph<'_>, cfg: &WholeConfig) -> Vec<Finding> {
    let roots = g.nodes_where(
        |p| cfg.wire_files.iter().any(|w| p.starts_with(w.as_str())),
        |d| is_wire_entry(&d.name),
    );
    let cl = g.closure(&roots);
    let mut out = Vec::new();
    for id in cl.members() {
        let d = g.def(id);
        let Some(body) = d.body else { continue };
        let f = g.file(id);
        let via = trace(g, &cl, id);
        for (line, what) in panic_features(&f.lexed.tokens, body) {
            out.push(Finding {
                file: f.path.clone(),
                line,
                rule: Rule::PanicReachability,
                msg: format!(
                    "{what} reachable from wire input ({via}): malformed bytes must become an error, not a panic"
                ),
            });
        }
    }
    out
}

/// The panicking constructs in a body token range, as `(line, what)`.
fn panic_features(toks: &[Token], range: (usize, usize)) -> Vec<(u32, String)> {
    let (start, end) = range;
    let end = end.min(toks.len());
    let mut out = Vec::new();
    for i in start..end {
        let line = toks[i].line;
        match &toks[i].tok {
            Tok::Ident(name)
                if (name == "unwrap" || name == "expect")
                    && i > 0
                    && matches!(toks[i - 1].tok, Tok::Punct('.'))
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) =>
            {
                out.push((line, format!("`.{name}()`")));
            }
            Tok::Ident(name) if R2_MACROS.contains(&name.as_str()) => {
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!'))) {
                    out.push((line, format!("`{name}!`")));
                }
            }
            Tok::Punct('[') if i > 0 => {
                let indexes = match &toks[i - 1].tok {
                    Tok::Ident(id) => !keyword_before_bracket(id),
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
                    _ => false,
                };
                if indexes {
                    out.push((line, "index expression".to_string()));
                }
            }
            Tok::Punct(op @ ('+' | '-' | '*' | '/' | '%')) if is_unchecked_arith(toks, i, *op) => {
                out.push((line, format!("unchecked `{op}` arithmetic")));
            }
            _ => {}
        }
    }
    out
}

/// Is the operator at `i` a binary arithmetic expression between two
/// runtime expressions? Compound assignments (`+=`), `->` arrows,
/// unary minus/deref/reference positions, and const `Num op Num`
/// folds are excluded.
fn is_unchecked_arith(toks: &[Token], i: usize, op: char) -> bool {
    let next = toks.get(i + 1).map(|t| &t.tok);
    if matches!(next, Some(Tok::Punct('='))) {
        return false; // `+=` and friends: wrapping is a deliberate choice there too, but they never appear on wire paths
    }
    if op == '-' && matches!(next, Some(Tok::Punct('>'))) {
        return false; // `->`
    }
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return false;
    };
    let tail = match &prev.tok {
        Tok::Num => true,
        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
        Tok::Ident(id) => !keyword_before_bracket(id),
        _ => false,
    };
    if !tail {
        return false;
    }
    let starts_expr = matches!(
        next,
        Some(Tok::Num) | Some(Tok::Ident(_)) | Some(Tok::Punct('('))
    );
    if !starts_expr {
        return false;
    }
    // `8 * 1024`-style const folds never overflow at runtime.
    !(matches!(prev.tok, Tok::Num) && matches!(next, Some(Tok::Num)))
}

// ---------------------------------------------------------------- R9

/// Hard taint sources: hashers and wall clocks, with why each one is.
const TAINT_SOURCES: &[(&str, &str)] = &[
    (
        "RandomState",
        "randomized hasher state is nondeterministic across processes",
    ),
    (
        "DefaultHasher",
        "hasher output is not a stable function across Rust releases",
    ),
    (
        "Instant",
        "wall-clock reads diverge across runs and machines",
    ),
    (
        "SystemTime",
        "wall-clock reads diverge across runs and machines",
    ),
    (
        "UNIX_EPOCH",
        "wall-clock reads diverge across runs and machines",
    ),
];

/// Order-dependent consumption of a hash container.
const ITER_METHODS: &[&str] = &[
    "drain",
    "into_iter",
    "iter",
    "iter_mut",
    "keys",
    "retain",
    "values",
    "values_mut",
];

/// R9: nondeterminism sources inside the result-affecting closure.
pub fn check_determinism_taint(g: &Graph<'_>, cfg: &WholeConfig) -> Vec<Finding> {
    let roots: Vec<usize> = (0..g.nodes.len())
        .filter(|&id| {
            let d = g.def(id);
            let f = g.file(id);
            let builds_result = d
                .body
                .map(|(s, e)| {
                    f.lexed.tokens[s..e.min(f.lexed.tokens.len())]
                        .iter()
                        .any(|t| matches!(&t.tok, Tok::Ident(n) if n == "CampaignResult"))
                })
                .unwrap_or(false);
            builds_result
                || policy::rules_for(&f.path).contains(&Rule::DeterminismTaint)
                || (cfg
                    .telemetry_prefix
                    .as_deref()
                    .is_some_and(|p| f.path.starts_with(p))
                    && d.name == "merge")
                || (d.self_type.as_deref() == Some("ServiceMachine") && d.name == "step")
        })
        .collect();
    let cl = g.closure(&roots);
    let names = hash_typed_names(g.model);
    let is_hash_ty = |name: &str| {
        name == "HashMap"
            || name == "HashSet"
            || g.model
                .hash_aliases
                .binary_search(&name.to_string())
                .is_ok()
    };
    let mut out = Vec::new();
    for id in cl.members() {
        let d = g.def(id);
        let Some((start, end)) = d.body else { continue };
        let f = g.file(id);
        let toks = &f.lexed.tokens;
        let end = end.min(toks.len());
        let via = trace(g, &cl, id);
        let hashy = |s: &str| names.visible_in(&g.nodes[id], s);
        // One iteration finding per line: a `for x in m.iter()` loop is
        // both a method iteration and a for-loop over a hash value.
        let mut iter_lines: BTreeSet<u32> = BTreeSet::new();
        let push = |out: &mut Vec<Finding>, line: u32, msg: String| {
            out.push(Finding {
                file: f.path.clone(),
                line,
                rule: Rule::DeterminismTaint,
                msg,
            });
        };
        for i in start..end {
            let line = toks[i].line;
            let Tok::Ident(name) = &toks[i].tok else {
                continue;
            };
            // Hard sources: clocks, hashers, thread identity.
            if let Some((src, why)) = TAINT_SOURCES.iter().find(|(n, _)| n == name) {
                push(
                    &mut out,
                    line,
                    format!("`{src}` taints campaign results ({via}): {why}"),
                );
                continue;
            }
            if name == "thread"
                && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':')))
                && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "current")
            {
                push(
                    &mut out,
                    line,
                    format!(
                        "`thread::current()` taints campaign results ({via}): thread identity leaks scheduling into results"
                    ),
                );
                continue;
            }
            // Method iteration over a hash-typed receiver.
            if ITER_METHODS.contains(&name.as_str())
                && i >= 2
                && matches!(toks[i - 1].tok, Tok::Punct('.'))
                && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
            {
                if let Some(Tok::Ident(recv)) = toks.get(i - 2).map(|t| &t.tok) {
                    if (hashy(recv) || is_hash_ty(recv)) && iter_lines.insert(line) {
                        push(
                            &mut out,
                            line,
                            format!(
                                "`.{name}()` over hash-ordered `{recv}` taints campaign results ({via}): iteration order depends on the hasher"
                            ),
                        );
                    }
                }
                continue;
            }
            // `for … in <expr mentioning a hash value> {`.
            if name == "for" && !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('<'))) {
                let horizon = (i + 40).min(end);
                let Some(in_at) =
                    (i + 1..horizon).find(|&j| matches!(&toks[j].tok, Tok::Ident(s) if s == "in"))
                else {
                    continue;
                };
                for t in &toks[in_at + 1..horizon] {
                    match &t.tok {
                        Tok::Punct('{') => break,
                        Tok::Ident(s) if hashy(s) || is_hash_ty(s) => {
                            if iter_lines.insert(line) {
                                push(
                                    &mut out,
                                    line,
                                    format!(
                                        "`for` loop over hash-ordered `{s}` taints campaign results ({via}): iteration order depends on the hasher"
                                    ),
                                );
                            }
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    out
}

/// Names declared with a hash-ordered type: `tags: HashMap<…>`,
/// `counts: &TagMap`, `let m = HashMap::new()`.
#[derive(Debug, Default)]
struct HashNames {
    /// Names declared outside every fn (struct fields), which any fn
    /// may reach through a value: a same-named deterministic variable
    /// elsewhere inherits the suspicion, the conservative direction.
    fields: BTreeSet<String>,
    /// Each fn's params and `let`s, by its (file, fn) index: they name
    /// nothing outside it.
    locals: BTreeMap<(usize, usize), BTreeSet<String>>,
}

impl HashNames {
    /// Whether `name` is hash-typed as the body of `node` sees it.
    fn visible_in(&self, node: &crate::graph::Node, name: &str) -> bool {
        self.fields.contains(name)
            || (self.locals.get(&(node.file, node.fun))).is_some_and(|l| l.contains(name))
    }
}

/// [`HashNames`] of the whole workspace. A binder inside a fn's
/// signature or body belongs to the innermost such fn.
fn hash_typed_names(model: &Model) -> HashNames {
    let mut hashy = HashNames::default();
    for (fi, f) in model.files.iter().enumerate() {
        let owner = |i: usize| {
            let fns = f.parsed.fns.iter().enumerate();
            fns.filter(|(_, d)| d.sig_start <= i && d.body.is_some_and(|(_, end)| i < end))
                .max_by_key(|(_, d)| d.sig_start)
                .map(|(k, _)| k)
        };
        let toks = &f.lexed.tokens;
        let in_skip = |i: usize| f.skip.iter().any(|&(a, b)| i >= a && i < b);
        for i in 0..toks.len() {
            if in_skip(i) {
                continue;
            }
            let Tok::Ident(name) = &toks[i].tok else {
                continue;
            };
            let is_hash = name == "HashMap"
                || name == "HashSet"
                || model.hash_aliases.binary_search(name).is_ok();
            if !is_hash {
                continue;
            }
            // Walk left over the `seg::seg::` path prefix.
            let mut j = i;
            while j >= 3
                && matches!(toks[j - 1].tok, Tok::Punct(':'))
                && matches!(toks[j - 2].tok, Tok::Punct(':'))
                && matches!(toks[j - 3].tok, Tok::Ident(_))
            {
                j -= 3;
            }
            // Skip `&`, `mut`, and lifetimes between the binder and type.
            let mut k = j;
            while k >= 1
                && matches!(
                    &toks[k - 1].tok,
                    Tok::Punct('&') | Tok::Lifetime | Tok::Ident(_)
                )
            {
                match &toks[k - 1].tok {
                    Tok::Punct('&') | Tok::Lifetime => k -= 1,
                    Tok::Ident(s) if s == "mut" => k -= 1,
                    _ => break,
                }
            }
            if k < 2 {
                continue;
            }
            let binder = match &toks[k - 1].tok {
                // `name: HashMap<…>` — but not the `::` of a path.
                Tok::Punct(':')
                    if !matches!(
                        toks.get(k.wrapping_sub(2)).map(|t| &t.tok),
                        Some(Tok::Punct(':'))
                    ) =>
                {
                    toks.get(k - 2)
                }
                // `let name = HashMap::new()`.
                Tok::Punct('=') => toks.get(k - 2),
                _ => None,
            };
            if let Some(Tok::Ident(v)) = binder.map(|t| &t.tok) {
                let names = match owner(i) {
                    Some(k) => hashy.locals.entry((fi, k)).or_default(),
                    None => &mut hashy.fields,
                };
                names.insert(v.clone());
            }
        }
    }
    hashy
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(src: &str) -> Vec<Finding> {
        analyze_single("fix.rs", src)
    }

    fn ids(f: &[Finding]) -> Vec<(u32, &'static str)> {
        f.iter().map(|f| (f.line, f.rule.id())).collect()
    }

    #[test]
    fn panic_reachability_follows_calls_and_spares_unreachable() {
        let src = "\
pub fn get_frame(r: &mut Reader) -> Result<u64, E> {
    widen(r.take(8)?)
}
fn widen(buf: &[u8]) -> Result<u64, E> {
    Ok(buf[0] as u64)
}
fn offline(xs: &[u64]) -> u64 {
    xs[0] + xs[1]
}
";
        let f = single(src);
        assert_eq!(ids(&f), vec![(5, "panic-reachability")], "{f:?}");
        assert!(
            f[0].msg.contains("fix::get_frame → fix::widen"),
            "{}",
            f[0].msg
        );
    }

    #[test]
    fn arithmetic_is_flagged_but_not_const_folds_arrows_or_compounds() {
        let src = "\
pub fn decode(r: &mut Reader) -> Result<u64, E> {
    helper(r)
}
fn helper(r: &mut Reader) -> Result<u64, E> {
    let n = 8 * 1024;
    let mut acc = 0u64;
    acc += 1;
    let end = r.pos() + n;
    Ok(end)
}
";
        let f = single(src);
        assert_eq!(ids(&f), vec![(8, "panic-reachability")], "{f:?}");
        assert!(f[0].msg.contains("unchecked `+`"));
    }

    #[test]
    fn taint_flags_iteration_and_clocks_in_result_closure_only() {
        let src = "\
type TagMap = std::collections::HashMap<u32, u64>;
pub fn finalize(counts: &TagMap) -> CampaignResult {
    CampaignResult { total: total_of(counts), at: stampless() }
}
fn total_of(counts: &TagMap) -> u64 {
    let mut t = 0;
    for (_k, v) in counts.iter() {
        t += v;
    }
    t
}
fn stampless() -> u64 { 0 }
fn unreachable_clock() -> u64 {
    let _t = Instant::now();
    0
}
";
        let f = single(src);
        assert_eq!(ids(&f), vec![(7, "determinism-taint")], "{f:?}");
    }

    #[test]
    fn taint_spares_point_lookups() {
        let src = "\
type TagMap = std::collections::HashMap<u32, u64>;
pub fn finalize(counts: &TagMap) -> CampaignResult {
    CampaignResult { total: counts.get(&1).copied().unwrap_or(0) }
}
";
        assert!(single(src).is_empty());
    }

    #[test]
    fn workspace_config_covers_the_wire_policy_rows() {
        let cfg = WholeConfig::workspace();
        for p in [
            "crates/cluster/src/wire.rs",
            "crates/cluster/src/frame.rs",
            "crates/cluster/src/proto.rs",
            "crates/cluster/src/conn.rs",
        ] {
            assert!(cfg.wire_files.iter().any(|w| w == p), "{p} missing");
        }
    }

    #[test]
    fn hash_typed_names_see_fields_params_and_lets() {
        let m = Model::build(vec![(
            "a.rs".to_string(),
            "type TagMap = HashMap<u32, u64>;\n\
             struct S { tags: TagMap }\n\
             fn f(counts: &TagMap) { let m = HashMap::new(); }\n"
                .to_string(),
        )]);
        let h = hash_typed_names(&m);
        assert!(h.fields.contains("tags"), "{h:?}");
        for n in ["counts", "m"] {
            assert!(h.locals[&(0, 0)].contains(n), "{n} missing from {h:?}");
        }
    }

    #[test]
    fn a_hash_typed_param_names_nothing_outside_its_fn() {
        // A `HashMap` parameter named `table` in one file does not make
        // a `VecDeque` named `table` in another file's fn hash-ordered;
        // a hash-typed struct field of that name would.
        let callee = "\
use std::collections::VecDeque;
pub fn drain_all(table: &mut VecDeque<u64>) -> u64 {
    let mut t = 0;
    for v in table.iter() {
        t += v;
    }
    t
}
";
        let params = "\
fn rebuild(table: &HashMap<u64, u64>) -> usize { table.len() }
";
        let fields = "\
struct Index { table: HashMap<u64, u64> }
";
        let root = "\
pub fn finalize(q: &mut VecDeque<u64>) -> CampaignResult {
    CampaignResult { total: drain_all(q) }
}
";
        let run = |other: &str| {
            let m = Model::build(vec![
                ("a.rs".to_string(), root.to_string()),
                ("b.rs".to_string(), callee.to_string()),
                ("c.rs".to_string(), other.to_string()),
            ]);
            let g = Graph::build(&m);
            check_determinism_taint(&g, &WholeConfig::single("a.rs"))
        };
        assert!(run(params).is_empty(), "{:?}", run(params));
        let f = run(fields);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].file.as_str(), f[0].line), ("b.rs", 4), "{f:?}");
    }
}
