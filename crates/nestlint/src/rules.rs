//! The rule engine: findings, suppressions, test-code masking, and the
//! one token-level rule, `no-panic-on-wire`.
//!
//! A rule never sees raw text — only the token stream and comment list
//! from [`crate::lexer`] — so string literals and comments can't trip
//! findings. Suppression is line-scoped and *loud*: a directive without
//! a justification is itself a finding, because "I turned the lint off"
//! is exactly the kind of decision the next reader needs explained.

use crate::lexer::{keyword_before_bracket, Lexed, Tok, Token};

/// Every rule nestlint knows, by stable kebab-case id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R2: panicking constructs in untrusted-input wire paths.
    NoPanicOnWire,
    /// R3: telemetry name registry coherence.
    TelemetryNames,
    /// R8: panicking constructs in any fn transitively reachable from
    /// a wire decode entry point (whole-program; see [`crate::whole`]).
    PanicReachability,
    /// R9: nondeterminism sources reachable from result-affecting
    /// sinks along the call graph (whole-program; see [`crate::whole`]).
    DeterminismTaint,
    /// Meta: malformed / unjustified nestlint suppression directives.
    Suppression,
}

impl Rule {
    /// The stable id used in reports and suppression directives.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoPanicOnWire => "no-panic-on-wire",
            Rule::TelemetryNames => "telemetry-names",
            Rule::PanicReachability => "panic-reachability",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::Suppression => "suppression",
        }
    }

    /// Parses a suppression-directive rule id.
    pub fn from_id(id: &str) -> Option<Rule> {
        Some(match id {
            "no-panic-on-wire" => Rule::NoPanicOnWire,
            "telemetry-names" => Rule::TelemetryNames,
            "panic-reachability" => Rule::PanicReachability,
            "determinism-taint" => Rule::DeterminismTaint,
            "suppression" => Rule::Suppression,
            _ => return None,
        })
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub msg: String,
}

/// A parsed suppression directive (the `allow(<rule>) -- why` comment
/// form; see [`parse_suppressions`]).
#[derive(Debug, Clone)]
pub struct Directive {
    /// Line the directive comment starts on.
    pub line: u32,
    /// The suppressed rule.
    pub rule: Rule,
    /// Lines the suppression covers (its own line + the next code
    /// line, so a multi-line justification block above a declaration
    /// works).
    pub covers: (u32, u32),
}

/// Directives plus the findings malformed ones produced.
pub struct Suppressions {
    directives: Vec<Directive>,
    /// Findings raised *by* directive parsing (unjustified, unknown
    /// rule, malformed).
    pub findings: Vec<Finding>,
}

impl Suppressions {
    /// True when `rule` is suppressed on `line`.
    pub fn covers(&self, rule: Rule, line: u32) -> bool {
        self.directives
            .iter()
            .any(|d| d.rule == rule && line >= d.covers.0 && line <= d.covers.1)
    }
}

/// Scans comments for suppression directives. A directive must name a
/// known rule and carry a justification — free text after the closing
/// parenthesis introduced by `--`, `—`, or `:` — of at least a few
/// words' worth of characters.
pub fn parse_suppressions(file: &str, lexed: &Lexed) -> Suppressions {
    const MARKER: &str = "nestlint:";
    let mut directives = Vec::new();
    let mut findings = Vec::new();
    for c in &lexed.comments {
        let Some(at) = c.text.find(MARKER) else {
            continue;
        };
        let rest = c.text[at + MARKER.len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            findings.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: Rule::Suppression,
                msg: format!("malformed nestlint directive (expected `nestlint: allow(<rule>) -- <justification>`): `{}`", c.text.trim()),
            });
            continue;
        };
        let rest = rest.trim_start();
        let (inner, after) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
            Some(parts) => parts,
            None => {
                findings.push(Finding {
                    file: file.to_string(),
                    line: c.line,
                    rule: Rule::Suppression,
                    msg: "malformed nestlint directive: missing `(<rule>)`".to_string(),
                });
                continue;
            }
        };
        let Some(rule) = Rule::from_id(inner.trim()) else {
            findings.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: Rule::Suppression,
                msg: format!("nestlint directive names unknown rule `{}`", inner.trim()),
            });
            continue;
        };
        let justification = after
            .trim_start()
            .trim_start_matches(['-', '—', ':', ' '])
            .trim();
        if justification.len() < 10 {
            findings.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: Rule::Suppression,
                msg: format!(
                    "suppression of `{}` lacks a justification (write `-- <why this is sound>`)",
                    rule.id()
                ),
            });
            continue;
        }
        // A trailing directive covers its own line(s). A standalone
        // comment block additionally covers the next line holding a
        // token, so a justification block directly above a declaration
        // covers that declaration.
        let standalone = !lexed.tokens.iter().any(|t| t.line == c.line);
        let end = if standalone {
            lexed
                .tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > c.end_line)
                .unwrap_or(c.end_line)
        } else {
            c.end_line
        };
        directives.push(Directive {
            line: c.line,
            rule,
            covers: (c.line, end.max(c.end_line)),
        });
    }
    Suppressions {
        directives,
        findings,
    }
}

/// Computes the token-index ranges that are test code: any item
/// annotated `#[cfg(test)]` (typically `mod tests { … }`) plus
/// `#[test]` functions. Files under `tests/` or `benches/` directories
/// are excluded wholesale by the driver and never reach this point.
pub fn test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_test_attr(tokens, i) {
            // Skip over any further attributes, then the item.
            let mut j = i;
            while let Some(end) = attr_end(tokens, j) {
                j = end;
            }
            let item_end = item_end(tokens, j);
            ranges.push((i, item_end));
            i = item_end;
        } else {
            i += 1;
        }
    }
    ranges
}

/// Is the token at `i` the `#` of `#[cfg(test)]` or `#[test]`?
fn is_test_attr(tokens: &[Token], i: usize) -> bool {
    if tokens.get(i).map(|t| &t.tok) != Some(&Tok::Punct('#')) {
        return false;
    }
    let mut j = i + 1;
    if tokens.get(j).map(|t| &t.tok) == Some(&Tok::Punct('!')) {
        return false; // inner attribute: scopes the whole file; never cfg(test) here
    }
    if tokens.get(j).map(|t| &t.tok) != Some(&Tok::Punct('[')) {
        return false;
    }
    j += 1;
    match tokens.get(j).map(|t| &t.tok) {
        Some(Tok::Ident(s)) if s == "test" => true,
        Some(Tok::Ident(s)) if s == "cfg" => {
            // cfg(test) or cfg(any(test, …)) — treat any cfg mentioning
            // `test` as test code.
            let Some(end) = attr_end(tokens, i) else {
                return false;
            };
            tokens[j..end]
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "test"))
        }
        _ => false,
    }
}

/// If `i` is the `#` of an attribute, the token index one past its
/// closing `]`.
fn attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i).map(|t| &t.tok) != Some(&Tok::Punct('#')) {
        return None;
    }
    let mut j = i + 1;
    if tokens.get(j).map(|t| &t.tok) == Some(&Tok::Punct('!')) {
        j += 1;
    }
    if tokens.get(j).map(|t| &t.tok) != Some(&Tok::Punct('[')) {
        return None;
    }
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(j) {
        match t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// One past the end of the item starting at `i` (first `;` at brace
/// depth zero, or the matching `}` of the first `{`).
fn item_end(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(i) {
        match t.tok {
            Tok::Punct(';') if depth == 0 => return k + 1,
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| i >= a && i < b)
}

/// R2 — macros that abort instead of returning an error. Shared with
/// the panic-reachability rule.
pub(crate) const R2_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// R2: untrusted-input wire paths must return `WireError`, never
/// panic. Flags `.unwrap()` / `.expect(…)`, the panicking macro
/// family, and index expressions (`buf[i]`, `slice[a..b]` — use
/// `.get(…)` and write the failure into the error).
pub fn check_no_panic_on_wire(file: &str, lexed: &Lexed, skip: &[(usize, usize)]) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if in_ranges(skip, i) {
            continue;
        }
        match &t.tok {
            Tok::Ident(name) if name == "unwrap" || name == "expect" => {
                let after_dot = matches!(
                    toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                    Some(Tok::Punct('.'))
                );
                let called = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
                if after_dot && called {
                    out.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: Rule::NoPanicOnWire,
                        msg: format!(
                            "`.{name}()` on a wire path: malformed input must become a WireError, not a panic"
                        ),
                    });
                }
            }
            Tok::Ident(name) if R2_MACROS.contains(&name.as_str()) => {
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!'))) {
                    out.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: Rule::NoPanicOnWire,
                        msg: format!(
                            "`{name}!` on a wire path: malformed input must become a WireError, not a panic"
                        ),
                    });
                }
            }
            Tok::Punct('[') if i > 0 => {
                // An index expression: `[` directly after an expression
                // tail (identifier, `)`, `]`, or `?`). Array literals,
                // attributes, slice types, and slice patterns follow
                // other tokens and don't fire.
                let indexes = match &toks[i - 1].tok {
                    Tok::Ident(id) => !keyword_before_bracket(id),
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
                    _ => false,
                };
                if indexes {
                    out.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: Rule::NoPanicOnWire,
                        msg: "index expression on a wire path: use `.get(…)` and return a WireError on miss".to_string(),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lines(findings: &[Finding]) -> Vec<u32> {
        findings.iter().map(|f| f.line).collect()
    }

    #[test]
    fn r2_flags_unwrap_expect_macros_and_indexing() {
        let src = "\
let a = x.unwrap();
let b = y.expect(\"msg\");
panic!(\"boom\");
let c = buf[0];
let d = take(1)?[0];
";
        let lexed = lex(src);
        let f = check_no_panic_on_wire("f.rs", &lexed, &[]);
        assert_eq!(lines(&f), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn r2_spares_declarations_patterns_and_types() {
        let src = "\
let mut header = [0u8; 8];
let [a, b] = pair;
fn f(x: &[u8]) -> [u64; 4] { g() }
let v: Vec<[u8; 2]> = Vec::new();
#[allow(dead_code)] // why: fixture
let ok = map.get(i);
let w = Wrapping(3);
";
        let lexed = lex(src);
        let f = check_no_panic_on_wire("f.rs", &lexed, &[]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r2_unwrap_without_call_is_not_flagged() {
        // A field or path named unwrap without `()` isn't the method.
        let src = "let f = Foo { unwrap: 1 };";
        let lexed = lex(src);
        assert!(check_no_panic_on_wire("f.rs", &lexed, &[]).is_empty());
    }

    #[test]
    fn suppressions_require_justification_and_known_rules() {
        let src = "\
let a = 1; // nestlint: allow(determinism-taint) -- audited: point lookups only
let b = 2; // nestlint: allow(determinism-taint)
let c = 3; // nestlint: allow(not-a-rule) -- whatever text here
let d = 4; // nestlint: disable(determinism-taint)
";
        let lexed = lex(src);
        let s = parse_suppressions("f.rs", &lexed);
        assert!(s.covers(Rule::DeterminismTaint, 1));
        assert!(!s.covers(Rule::DeterminismTaint, 2));
        assert_eq!(lines(&s.findings), vec![2, 3, 4]);
    }

    #[test]
    fn suppression_block_above_covers_next_code_line() {
        let src = "\
// nestlint: allow(no-panic-on-wire) -- the length was checked by the
// caller; a documented invariant, not input-dependent.
let first = buf[0];
let late = buf[1];
";
        let lexed = lex(src);
        let s = parse_suppressions("f.rs", &lexed);
        assert!(s.covers(Rule::NoPanicOnWire, 3));
        assert!(!s.covers(Rule::NoPanicOnWire, 4));
        let f = check_no_panic_on_wire("f.rs", &lexed, &[]);
        let unsuppressed: Vec<_> = f
            .into_iter()
            .filter(|f| !s.covers(f.rule, f.line))
            .collect();
        assert_eq!(lines(&unsuppressed), vec![4]);
    }

    #[test]
    fn test_ranges_cover_attribute_chains() {
        let src = "\
#[cfg(test)]
#[rustfmt::skip]
mod tests {
    fn inner() { let m = buf[0]; }
}
fn outer() {}
";
        let lexed = lex(src);
        let skip = test_ranges(&lexed.tokens);
        assert!(check_no_panic_on_wire("f.rs", &lexed, &skip).is_empty());
    }
}
