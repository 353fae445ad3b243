//! R3 — telemetry-name coherence.
//!
//! The telemetry schema lives in one place (`telemetry`'s `names`
//! module): string constants plus an `ALL` registry that wire decoders
//! re-intern through `names::resolve`. Three things can silently rot:
//!
//! * a constant gets added but not registered (**unregistered**): the
//!   first recorder that counts it will fail to cross the cluster wire,
//!   but only at runtime, in a test that happens to exercise TCP;
//! * a constant stays registered but nothing counts it any more
//!   (**orphan**): dead schema that readers of the export keep
//!   grepping for;
//! * a registration is duplicated, or two constants share one string
//!   (**collision**): merges silently fold two meanings together.
//!
//! This check makes all three a lint failure with a file:line, using
//! only the lexer — no compilation, no runtime registry. What rustc
//! already rejects — a `names::X` that is not declared, or a constant
//! declared twice — it leaves to rustc.

use std::collections::BTreeMap;

use crate::lexer::{Lexed, Tok};
use crate::rules::{Finding, Rule};

/// The parsed `names` module.
#[derive(Debug, Default)]
pub struct NamesDecl {
    /// `pub const IDENT: &str = "value";` declarations, in order:
    /// (ident, value, line).
    pub consts: Vec<(String, String, u32)>,
    /// Identifiers listed in `ALL`, in order: (ident, line).
    pub all: Vec<(String, u32)>,
}

/// Extracts string constants and the `ALL` registry from the lexed
/// telemetry `names` module source. Table-typed constants (`ALL`,
/// `COMPONENTS`) are recognized by having no string initializer.
pub fn parse_names(lexed: &Lexed) -> NamesDecl {
    let toks = &lexed.tokens;
    let mut decl = NamesDecl::default();
    let mut i = 0;
    while i < toks.len() {
        let Tok::Ident(kw) = &toks[i].tok else {
            i += 1;
            continue;
        };
        if kw != "const" {
            i += 1;
            continue;
        }
        let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) else {
            i += 1;
            continue;
        };
        let name = name.clone();
        let line = toks[i + 1].line;
        // Scan this item to its `;`, collecting what the initializer
        // holds: a single string → a name constant; a bracketed ident
        // list for `ALL` → the registry.
        let mut j = i + 2;
        let mut saw_eq = false;
        let mut in_brackets = 0i32;
        let mut strings = Vec::new();
        let mut list_idents = Vec::new();
        while let Some(t) = toks.get(j) {
            match &t.tok {
                Tok::Punct(';') if in_brackets == 0 => break,
                Tok::Punct('=') => saw_eq = true,
                Tok::Punct('[') => in_brackets += 1,
                Tok::Punct(']') => in_brackets -= 1,
                Tok::Str(s) if saw_eq => strings.push(s.clone()),
                Tok::Ident(id) if saw_eq && in_brackets > 0 => {
                    list_idents.push((id.clone(), t.line));
                }
                _ => {}
            }
            j += 1;
        }
        if name == "ALL" {
            decl.all = list_idents;
        } else if name != "COMPONENTS" && strings.len() == 1 && list_idents.is_empty() {
            decl.consts.push((name, strings.remove(0), line));
        }
        i = j;
    }
    decl
}

/// `names::IDENT` references found in one lexed file (uppercase idents
/// only — `names::resolve` is a function, not a schema entry).
pub fn collect_uses(lexed: &Lexed) -> Vec<(String, u32)> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let Tok::Ident(ns) = &toks[i].tok else {
            continue;
        };
        if ns != "names" {
            continue;
        }
        if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
            || !matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':')))
        {
            continue;
        }
        if let Some(Tok::Ident(name)) = toks.get(i + 3).map(|t| &t.tok) {
            if name
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
            {
                out.push((name.clone(), toks[i + 3].line));
            }
        }
    }
    out
}

/// Runs the coherence check. `names_file` is the workspace-relative
/// path of the schema source (for findings), `uses` the collected
/// `names::X` references from every *other* file: (file, ident, line).
pub fn check_names(
    names_file: &str,
    decl: &NamesDecl,
    uses: &[(String, String, u32)],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut finding = |file: &str, line: u32, msg: String| {
        out.push(Finding {
            file: file.to_string(),
            line,
            rule: Rule::TelemetryNames,
            msg,
        });
    };

    let mut by_ident: BTreeMap<&str, (&str, u32)> = BTreeMap::new();
    let mut by_value: BTreeMap<&str, &str> = BTreeMap::new();
    for (ident, value, line) in &decl.consts {
        by_ident.insert(ident, (value, *line));
        if let Some(prev) = by_value.insert(value, ident) {
            finding(
                names_file,
                *line,
                format!("name constants `{prev}` and `{ident}` share the string {value:?}"),
            );
        }
    }

    // Registration: exactly once, and only of declared constants.
    let mut registered: BTreeMap<&str, u32> = BTreeMap::new();
    for (ident, line) in &decl.all {
        if registered.insert(ident, *line).is_some() {
            finding(
                names_file,
                *line,
                format!("`{ident}` registered twice in names::ALL"),
            );
        }
        if !by_ident.contains_key(ident.as_str()) {
            finding(
                names_file,
                *line,
                format!("names::ALL registers `{ident}`, which is not a declared name constant"),
            );
        }
    }
    for (ident, (_, line)) in &by_ident {
        if !registered.contains_key(ident) {
            finding(
                names_file,
                *line,
                format!(
                    "name constant `{ident}` is not registered in names::ALL — \
                     it cannot cross the cluster wire (names::resolve returns None)"
                ),
            );
        }
    }

    // Usage: every registered name counted somewhere; every counted
    // name registered.
    let used: BTreeMap<&str, (&str, u32)> = uses
        .iter()
        .map(|(file, ident, line)| (ident.as_str(), (file.as_str(), *line)))
        .collect();
    for (ident, line) in &decl.all {
        if by_ident.contains_key(ident.as_str()) && !used.contains_key(ident.as_str()) {
            finding(
                names_file,
                *line,
                format!("orphan: `{ident}` is registered but nothing ever counts it"),
            );
        }
    }
    for (file, ident, line) in uses {
        if by_ident.contains_key(ident.as_str()) && !registered.contains_key(ident.as_str()) {
            // Declared but unregistered *and* used — report at the use
            // site too, so the counting crate sees it in its own diff.
            finding(
                file,
                *line,
                format!("`names::{ident}` is counted but unregistered — decode across the wire will fail"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const SCHEMA: &str = r#"
pub mod names {
    /// Counter: completed runs.
    pub const RUNS: &str = "inject.runs";
    pub const ORPHANED: &str = "dead.counter";
    pub const UNREGISTERED: &str = "ghost.counter";
    pub const ALL: &[&str] = &[RUNS, ORPHANED];
    pub const COMPONENTS: &[&str] = &["l2c", "mcu"];
    pub fn resolve(name: &str) -> Option<&'static str> { None }
}
"#;

    #[test]
    fn parses_consts_and_registry() {
        let decl = parse_names(&lex(SCHEMA));
        let idents: Vec<&str> = decl.consts.iter().map(|(i, _, _)| i.as_str()).collect();
        assert_eq!(idents, vec!["RUNS", "ORPHANED", "UNREGISTERED"]);
        let all: Vec<&str> = decl.all.iter().map(|(i, _)| i.as_str()).collect();
        assert_eq!(all, vec!["RUNS", "ORPHANED"]);
    }

    #[test]
    fn finds_orphans_and_unregistered() {
        let decl = parse_names(&lex(SCHEMA));
        let user = lex("rec.count(names::RUNS, 1);\nrec.count(names::UNREGISTERED, 1);\nrec.count(names::MISSING, 1);\n");
        let uses: Vec<(String, String, u32)> = collect_uses(&user)
            .into_iter()
            .map(|(ident, line)| ("user.rs".to_string(), ident, line))
            .collect();
        let f = check_names("schema.rs", &decl, &uses);
        let msgs: Vec<&str> = f.iter().map(|f| f.msg.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("orphan: `ORPHANED`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("`UNREGISTERED` is not registered")),
            "{msgs:?}"
        );
        assert!(!msgs.iter().any(|m| m.contains("MISSING")), "{msgs:?}");
        assert!(
            msgs.iter()
                .any(|m| m.contains("`names::UNREGISTERED` is counted but unregistered")),
            "{msgs:?}"
        );
    }

    #[test]
    fn duplicate_registration_and_value_collisions_are_findings() {
        let schema = r#"
pub const A: &str = "same.value";
pub const B: &str = "same.value";
pub const ALL: &[&str] = &[A, A, B, GHOST];
"#;
        let decl = parse_names(&lex(schema));
        let uses = vec![
            ("u.rs".to_string(), "A".to_string(), 1),
            ("u.rs".to_string(), "B".to_string(), 2),
        ];
        let f = check_names("schema.rs", &decl, &uses);
        let msgs: Vec<&str> = f.iter().map(|f| f.msg.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("share the string")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("registered twice")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("`GHOST`, which is not")),
            "{msgs:?}"
        );
    }

    #[test]
    fn coherent_schema_is_clean() {
        let schema = r#"
pub const A: &str = "a.counter";
pub const B: &str = "b.hist";
pub const ALL: &[&str] = &[A, B];
"#;
        let decl = parse_names(&lex(schema));
        let uses = vec![
            ("u.rs".to_string(), "A".to_string(), 1),
            ("v.rs".to_string(), "B".to_string(), 9),
        ];
        assert!(check_names("schema.rs", &decl, &uses).is_empty());
    }
}
