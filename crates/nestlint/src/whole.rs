//! The whole-program analyses: panic-reachability (R8), determinism
//! taint (R9), and wire-codec symmetry (R10).
//!
//! Where the token rules in [`crate::rules`] look at one file at a
//! time, these three walk the call graph ([`crate::graph`]) built over
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
//!   closure of every function that constructs a `CampaignResult`,
//!   every telemetry `merge`, and `ServiceMachine::step`. Inside that set,
//!   taint sources are flagged: iteration over a hash-ordered value
//!   (a `HashMap`/`HashSet` or an alias that resolves to one —
//!   `.iter()`, `.keys()`, `.drain()`, a `for … in` loop), wall
//!   clocks, `RandomState`/`DefaultHasher`, and `thread::current()`.
//!   Declaring a hash-typed alias or doing point lookups is fine;
//!   only order-dependent consumption fires.
//! * **R10 `wire-codec-symmetry`** — in the codec files, each
//!   `put_X`/`get_X` pair and each `encode`/`decode` tag arm is
//!   reduced to its field *shape* — the ordered list of primitive
//!   reads/writes (`u8`, `u64`, `str`, …) and nested codec calls —
//!   and the two sides are diffed. A shape is truncated at the first
//!   control-flow keyword; truncated sides compare by common prefix
//!   only, so a pair whose fields hide entirely behind loops (e.g. the
//!   recorder codecs) compares vacuously — a documented limitation,
//!   not a license: the fixed header fields of every real codec here
//!   sit before any loop. A `put_X` with no `get_X` is flagged; a lone
//!   `get_X` is allowed (read-side helpers like `get_name` are
//!   legitimate).
//!
//! All three inherit the graph's documented over-approximations: a
//! spurious edge can only produce a finding a human then suppresses
//! with a justification; a missing edge would silently hide one.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{Graph, Model};
use crate::lexer::{keyword_before_bracket, Tok, Token};
use crate::policy;
use crate::rules::{Finding, Rule, R1_IDENTS, R2_MACROS};

/// What the whole-program rules treat as wire input, codec files, and
/// telemetry — injectable so fixtures can exercise the rules on a
/// single file.
pub struct WholeConfig {
    /// Files whose `decode`/`get_*`/`read_frame`/`next_frame` fns are
    /// wire entry points (path prefixes).
    pub wire_files: Vec<String>,
    /// Files whose codecs are paired and diffed (exact paths).
    pub codec_files: Vec<String>,
    /// Path prefix under which every `merge` is a result sink.
    pub telemetry_prefix: Option<String>,
}

impl WholeConfig {
    /// The real workspace configuration: wire files are the policy
    /// rows carrying `no-panic-on-wire`, codec files are the two
    /// protocol modules, telemetry is the telemetry crate.
    pub fn workspace() -> WholeConfig {
        WholeConfig {
            wire_files: policy::TABLE
                .iter()
                .filter(|r| r.rules.contains(&Rule::NoPanicOnWire))
                .map(|r| r.prefix.to_string())
                .collect(),
            codec_files: vec![
                "crates/cluster/src/wire.rs".to_string(),
                "crates/cluster/src/proto.rs".to_string(),
            ],
            telemetry_prefix: Some("crates/telemetry/".to_string()),
        }
    }

    /// A one-file configuration for fixtures: the file is its own wire
    /// surface and codec module.
    pub fn single(path: &str) -> WholeConfig {
        WholeConfig {
            wire_files: vec![path.to_string()],
            codec_files: vec![path.to_string()],
            telemetry_prefix: None,
        }
    }
}

/// Runs all three whole-program rules over one source file — the
/// fixture entry point of the self-test.
pub fn analyze_single(path: &str, src: &str) -> Vec<Finding> {
    let model = Model::build(vec![(path.to_string(), src.to_string())]);
    let cfg = WholeConfig::single(path);
    let g = Graph::build(&model);
    let mut out = check_panic_reachability(&g, &cfg);
    out.extend(check_determinism_taint(&g, &cfg));
    out.extend(check_codec_symmetry(&model, &cfg));
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
                || (cfg
                    .telemetry_prefix
                    .as_deref()
                    .is_some_and(|p| f.path.starts_with(p))
                    && d.name == "merge")
                || (d.self_type.as_deref() == Some("ServiceMachine") && d.name == "step")
        })
        .collect();
    let cl = g.closure(&roots);
    let hashy = hash_typed_names(g.model);
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
            if let Some((src, why)) = R1_IDENTS
                .iter()
                .find(|(n, _)| n == name && *n != "HashMap" && *n != "HashSet")
            {
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
                    if (hashy.contains(recv) || is_hash_ty(recv)) && iter_lines.insert(line) {
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
                        Tok::Ident(s) if hashy.contains(s) || is_hash_ty(s) => {
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

/// Names (locals, params, struct fields) declared with a hash-ordered
/// type anywhere in the workspace: `counts: &TagMap`, `tags: HashMap<…>`,
/// `let m = HashMap::new()`. Name-based and therefore global — a
/// same-named deterministic variable elsewhere inherits the suspicion,
/// which is the conservative direction.
fn hash_typed_names(model: &Model) -> BTreeSet<String> {
    let mut hashy = BTreeSet::new();
    for f in &model.files {
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
                hashy.insert(v.clone());
            }
        }
    }
    hashy
}

// --------------------------------------------------------------- R10

/// Primitive reader/writer method vocabulary (same names both sides).
const PRIMS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "bool", "opt_u64", "str",
];

/// Keywords that end the statically comparable prefix of a codec body.
const CONTROL: &[&str] = &["if", "match", "for", "while", "loop"];

/// One field operation in a codec body.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Op {
    /// `u8` … `str`, or `codec:<suffix>` for a nested `put_X`/`get_X`.
    what: String,
    /// 1-based source line.
    line: u32,
}

/// A codec body reduced to its field operations; `complete` is false
/// when the scan stopped at control flow (the ops are a prefix).
#[derive(Debug, Clone)]
struct Shape {
    ops: Vec<Op>,
    complete: bool,
}

/// R10: every `put_X`/`get_X` pair and every `encode`/`decode` tag arm
/// in the codec files must agree on field order and width.
pub fn check_codec_symmetry(model: &Model, cfg: &WholeConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &model.files {
        if !cfg.codec_files.contains(&f.path) {
            continue;
        }
        let toks = &f.lexed.tokens;
        let in_skip = |i: usize| f.skip.iter().any(|&(a, b)| i >= a && i < b);

        // put_X / get_X free-fn pairs.
        let mut puts: BTreeMap<&str, (&crate::parser::FnDef, Shape)> = BTreeMap::new();
        let mut gets: BTreeMap<&str, (&crate::parser::FnDef, Shape)> = BTreeMap::new();
        // encode/decode arm maps, keyed by impl type.
        let mut encodes: BTreeMap<String, BTreeMap<String, Shape>> = BTreeMap::new();
        let mut decodes: BTreeMap<String, BTreeMap<String, Shape>> = BTreeMap::new();
        for d in &f.parsed.fns {
            let Some(body) = d.body else { continue };
            if in_skip(d.sig_start) {
                continue;
            }
            if d.self_type.is_none() {
                if let Some(sfx) = d.name.strip_prefix("put_") {
                    puts.insert(sfx, (d, shape(toks, body)));
                    continue;
                }
                if let Some(sfx) = d.name.strip_prefix("get_") {
                    gets.insert(sfx, (d, shape(toks, body)));
                    continue;
                }
            }
            if d.name == "encode" || d.name == "decode" {
                let ty = d.self_type.clone().unwrap_or_default();
                let side = if d.name == "encode" {
                    &mut encodes
                } else {
                    &mut decodes
                };
                side.insert(ty, arms(toks, body));
            }
        }

        for (sfx, (pd, pshape)) in &puts {
            match gets.get(sfx) {
                None => out.push(Finding {
                    file: f.path.clone(),
                    line: pd.line,
                    rule: Rule::CodecSymmetry,
                    msg: format!(
                        "`put_{sfx}` has no matching `get_{sfx}` decoder in this file: every encoder needs a decoder to diff against"
                    ),
                }),
                Some((_, gshape)) => out.extend(diff_shapes(
                    &f.path,
                    &format!("put_{sfx}"),
                    &format!("get_{sfx}"),
                    pshape,
                    gshape,
                )),
            }
        }

        for (ty, enc_arms) in &encodes {
            let Some(dec_arms) = decodes.get(ty) else {
                continue;
            };
            let tags: BTreeSet<&String> = enc_arms.keys().chain(dec_arms.keys()).collect();
            for tag in tags {
                match (enc_arms.get(tag), dec_arms.get(tag)) {
                    (Some(e), Some(d)) => out.extend(diff_shapes(
                        &f.path,
                        &format!("encode[{tag}]"),
                        &format!("decode[{tag}]"),
                        e,
                        d,
                    )),
                    (Some(e), None) => out.push(arm_missing(&f.path, e, tag, "decode")),
                    (None, Some(d)) => out.push(arm_missing(&f.path, d, tag, "encode")),
                    (None, None) => {}
                }
            }
        }
    }
    out
}

fn arm_missing(file: &str, present: &Shape, tag: &str, missing_side: &str) -> Finding {
    Finding {
        file: file.to_string(),
        line: present.ops.first().map(|o| o.line).unwrap_or(1),
        rule: Rule::CodecSymmetry,
        msg: format!("`{tag}` has no arm on the {missing_side} side: the two codecs no longer speak the same protocol"),
    }
}

/// Diffs an encode-side shape against its decode-side counterpart.
/// Truncated shapes compare by common prefix; a mismatch is reported
/// once, at the first divergent field.
fn diff_shapes(file: &str, put: &str, get: &str, p: &Shape, g: &Shape) -> Vec<Finding> {
    let n = p.ops.len().min(g.ops.len());
    for k in 0..n {
        if p.ops[k].what != g.ops[k].what {
            return vec![Finding {
                file: file.to_string(),
                line: g.ops[k].line,
                rule: Rule::CodecSymmetry,
                msg: format!(
                    "field {k} of `{get}` reads `{}` where `{put}` writes `{}`: codec drift",
                    g.ops[k].what, p.ops[k].what
                ),
            }];
        }
    }
    // Prefix agrees. A count mismatch is provable when the longer side
    // is fully scanned, or when the shorter side is fully scanned and
    // the (truncated) longer side already shows extra fields.
    if p.ops.len() != g.ops.len() {
        let (longer, longer_name, shorter_name, shorter_complete) = if p.ops.len() > g.ops.len() {
            (p, put, get, g.complete)
        } else {
            (g, get, put, p.complete)
        };
        if longer.complete || shorter_complete {
            let extra = &longer.ops[n];
            return vec![Finding {
                file: file.to_string(),
                line: extra.line,
                rule: Rule::CodecSymmetry,
                msg: format!(
                    "`{longer_name}` has a field `{}` at position {n} that `{shorter_name}` never touches: codec drift",
                    extra.what
                ),
            }];
        }
    }
    Vec::new()
}

/// Reduces a codec body to its field-operation prefix.
fn shape(toks: &[Token], range: (usize, usize)) -> Shape {
    let (start, end) = range;
    let end = end.min(toks.len());
    let mut ops = Vec::new();
    let mut i = start;
    while i < end {
        if let Tok::Ident(name) = &toks[i].tok {
            if CONTROL.contains(&name.as_str()) {
                return Shape {
                    ops,
                    complete: false,
                };
            }
            if let Some(op) = op_at(toks, i) {
                ops.push(op);
            }
        }
        i += 1;
    }
    Shape {
        ops,
        complete: true,
    }
}

/// The field operation at token `i`, if any: `.u64(` / `.str(` …, or a
/// non-method `put_X(` / `get_X(` call.
fn op_at(toks: &[Token], i: usize) -> Option<Op> {
    let Tok::Ident(name) = &toks[i].tok else {
        return None;
    };
    if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
        return None;
    }
    let after_dot = i > 0 && matches!(toks[i - 1].tok, Tok::Punct('.'));
    if PRIMS.contains(&name.as_str()) && after_dot {
        return Some(Op {
            what: name.clone(),
            line: toks[i].line,
        });
    }
    if !after_dot {
        if let Some(sfx) = name
            .strip_prefix("put_")
            .or_else(|| name.strip_prefix("get_"))
        {
            return Some(Op {
                what: format!("codec:{sfx}"),
                line: toks[i].line,
            });
        }
    }
    None
}

/// Splits an `encode`/`decode` body into per-tag arm shapes. Arms are
/// delimited by `TAG_*` identifiers (the match arm pattern on the
/// decode side, the tag write on the encode side); tokens before the
/// first tag are the shared preamble and carry no fields. The tag
/// write itself (`w.u8(TAG_X)`) is popped from the preceding arm so it
/// never counts as a field.
fn arms(toks: &[Token], range: (usize, usize)) -> BTreeMap<String, Shape> {
    let (start, end) = range;
    let end = end.min(toks.len());
    let mut out: BTreeMap<String, Shape> = BTreeMap::new();
    let mut cur: Option<(String, Vec<Op>, bool)> = None;
    let mut last_push: Option<usize> = None;
    for i in start..end {
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        if name.starts_with("TAG_") {
            if let Some((_, ops, _)) = cur.as_mut() {
                // `w.u8(TAG_X)`: the u8 two tokens back is the tag
                // write for the *next* arm, not a field of this one.
                if last_push == Some(i.wrapping_sub(2)) {
                    ops.pop();
                }
            }
            if let Some((tag, ops, stopped)) = cur.take() {
                out.entry(tag).or_insert(Shape {
                    ops,
                    complete: !stopped,
                });
            }
            cur = Some((name.clone(), Vec::new(), false));
            continue;
        }
        let Some((_, ops, stopped)) = cur.as_mut() else {
            continue; // preamble
        };
        if CONTROL.contains(&name.as_str()) {
            *stopped = true;
        }
        if !*stopped {
            if let Some(op) = op_at(toks, i) {
                ops.push(op);
                last_push = Some(i);
            }
        }
    }
    if let Some((tag, ops, stopped)) = cur.take() {
        out.entry(tag).or_insert(Shape {
            ops,
            complete: !stopped,
        });
    }
    out
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
    fn codec_pairs_diff_field_order_and_count() {
        let src = "\
pub fn put_point(w: &mut Writer, p: &Point) {
    w.u32(p.x);
    w.u64(p.y);
}
pub fn get_point(r: &mut Reader) -> Result<Point, E> {
    Ok(Point { x: r.u32()?, y: r.u32()? })
}
pub fn put_orphan(w: &mut Writer, v: u64) {
    w.u64(v);
}
";
        let f = single(src);
        assert_eq!(
            ids(&f),
            vec![(6, "wire-codec-symmetry"), (8, "wire-codec-symmetry")],
            "{f:?}"
        );
    }

    #[test]
    fn codec_arms_pair_by_tag_and_pop_the_tag_write() {
        let src = "\
impl Msg {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Msg::Ping { seq } => {
                w.u8(TAG_PING);
                w.u64(*seq);
            }
            Msg::Data { body } => {
                w.u8(TAG_DATA);
                w.str(body);
                w.bool(true);
            }
        }
        w.into_bytes()
    }
    pub fn decode(r: &mut Reader) -> Result<Msg, E> {
        Ok(match r.u8()? {
            TAG_PING => Msg::Ping { seq: r.u64()? },
            TAG_DATA => Msg::Data { body: r.str()? },
            _ => return Err(bad()),
        })
    }
}
";
        let f = single(src);
        // TAG_PING matches; TAG_DATA's encode writes a trailing bool
        // the decode never reads.
        assert_eq!(ids(&f), vec![(12, "wire-codec-symmetry")], "{f:?}");
        assert!(f[0].msg.contains("bool"), "{}", f[0].msg);
    }

    #[test]
    fn codec_shapes_truncate_at_control_flow_and_compare_prefixes() {
        let src = "\
pub fn put_list(w: &mut Writer, xs: &[u64]) {
    w.u32(xs.len() as u32);
    for x in xs {
        w.u64(*x);
    }
}
pub fn get_list(r: &mut Reader) -> Result<Vec<u64>, E> {
    let n = r.u32()?;
    let mut out = Vec::new();
    while out.len() < n as usize {
        out.push(r.u64()?);
    }
    Ok(out)
}
";
        // Both sides truncate after the length prefix: prefixes agree.
        let f = single(src);
        let codec: Vec<_> = f.iter().filter(|f| f.rule == Rule::CodecSymmetry).collect();
        assert!(codec.is_empty(), "{codec:?}");
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
        assert_eq!(cfg.codec_files.len(), 2);
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
        for n in ["tags", "counts", "m"] {
            assert!(h.contains(n), "{n} missing from {h:?}");
        }
    }
}
