//! Telemetry-name coherence, checked against the source text.
//!
//! The schema lives in one place (the [`names`](crate::names) module):
//! string constants plus an `ALL` registry that wire decoders re-intern
//! through `names::resolve`. Three things can silently rot:
//!
//! * a constant gets added but not registered (**unregistered**): the
//!   first recorder that counts it fails to cross the cluster wire, but
//!   only at run time, in a test that happens to exercise TCP;
//! * a constant stays registered but nothing counts it any more
//!   (**orphan**): dead schema that readers of the export keep
//!   grepping for;
//! * a registration is duplicated, or two constants share one string
//!   (**collision**): merges silently fold two meanings together.
//!
//! [`check_names`] reports all three with a file:line. What rustc
//! already rejects — a `names::X` that is not declared, or a constant
//! declared twice — it leaves to rustc. The text is read line by line
//! with `//` comments cut off, which the schema's doc comments need and
//! its string values (no `//` in any of them) allow.

use std::collections::BTreeMap;

/// The parsed `names` module.
#[derive(Debug, Default)]
pub struct NamesDecl {
    /// `pub const IDENT: &str = "value";` declarations, in order:
    /// (ident, value, line).
    pub consts: Vec<(String, String, u32)>,
    /// Identifiers listed in `ALL`, in order: (ident, line).
    pub all: Vec<(String, u32)>,
}

/// `src` with every `//` comment blanked out, line structure kept.
fn strip_comments(src: &str) -> String {
    src.lines()
        .map(|line| line.find("//").map_or(line, |at| &line[..at]))
        .collect::<Vec<_>>()
        .join("\n")
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// 1-based line of byte offset `at` in `text`.
fn line_of(text: &str, at: usize) -> u32 {
    1 + text[..at].matches('\n').count() as u32
}

/// Extracts string constants and the `ALL` registry from the `names`
/// module's source. Table-typed constants (`ALL`, `COMPONENTS`) are
/// recognized by having no single string initializer.
pub fn parse_names(src: &str) -> NamesDecl {
    let text = strip_comments(src);
    let mut decl = NamesDecl::default();
    for (at, _) in text.match_indices("const ") {
        if text[..at].chars().next_back().is_some_and(is_ident) {
            continue;
        }
        let rest = &text[at + "const ".len()..];
        let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
        if name.is_empty() || name == "fn" {
            continue;
        }
        let item = &rest[..rest.find(';').unwrap_or(rest.len())];
        let Some((_, init)) = item.split_once('=') else {
            continue;
        };
        let init_at = at + "const ".len() + item.len() - init.len();
        if name == "ALL" {
            let Some(open) = init.find('[') else {
                continue;
            };
            let mut word_at = None;
            for (i, c) in init[open..]
                .char_indices()
                .chain([(init.len() - open, ' ')])
            {
                match (is_ident(c), word_at) {
                    (true, None) => word_at = Some(open + i),
                    (false, Some(from)) => {
                        let line = line_of(&text, init_at + from);
                        decl.all.push((init[from..open + i].to_string(), line));
                        word_at = None;
                    }
                    _ => {}
                }
            }
        } else if name != "COMPONENTS" && !init.contains('[') {
            let strings: Vec<&str> = init.split('"').skip(1).step_by(2).collect();
            if let [value] = strings[..] {
                let line = line_of(&text, at);
                decl.consts.push((name, value.to_string(), line));
            }
        }
    }
    decl
}

/// `names::IDENT` references in one file's source (uppercase idents
/// only — `names::resolve` is a function, not a schema entry).
pub fn collect_uses(src: &str) -> Vec<(String, u32)> {
    let text = strip_comments(src);
    let mut out = Vec::new();
    for (at, m) in text.match_indices("names::") {
        if text[..at].chars().next_back().is_some_and(is_ident) {
            continue;
        }
        let name: String = text[at + m.len()..]
            .chars()
            .take_while(|&c| is_ident(c))
            .collect();
        if !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        {
            out.push((name, line_of(&text, at)));
        }
    }
    out
}

/// Runs the coherence check and returns its findings as
/// `file:line: message`. `names_file` names the schema source, `uses`
/// the collected `names::X` references from every *other* file:
/// (file, ident, line).
pub fn check_names(
    names_file: &str,
    decl: &NamesDecl,
    uses: &[(String, String, u32)],
) -> Vec<String> {
    let mut out = Vec::new();
    let mut finding = |file: &str, line: u32, msg: String| {
        out.push(format!("{file}:{line}: {msg}"));
    };

    let mut by_ident: BTreeMap<&str, u32> = BTreeMap::new();
    let mut by_value: BTreeMap<&str, &str> = BTreeMap::new();
    for (ident, value, line) in &decl.consts {
        by_ident.insert(ident, *line);
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
    for (ident, line) in &by_ident {
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
            // Declared but unregistered *and* used — reported at the use
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
        let decl = parse_names(SCHEMA);
        let idents: Vec<&str> = decl.consts.iter().map(|(i, _, _)| i.as_str()).collect();
        assert_eq!(idents, vec!["RUNS", "ORPHANED", "UNREGISTERED"]);
        assert_eq!(
            decl.consts[1],
            ("ORPHANED".into(), "dead.counter".into(), 5)
        );
        let all: Vec<&str> = decl.all.iter().map(|(i, _)| i.as_str()).collect();
        assert_eq!(all, vec!["RUNS", "ORPHANED"]);
        assert!(
            decl.all.iter().all(|&(_, line)| line == 7),
            "{:?}",
            decl.all
        );
    }

    #[test]
    fn finds_orphans_and_unregistered() {
        let decl = parse_names(SCHEMA);
        let user = "rec.count(names::RUNS, 1);\nrec.count(names::UNREGISTERED, 1);\n\
                    rec.count(names::MISSING, 1); // names::ORPHANED\n";
        let uses: Vec<(String, String, u32)> = collect_uses(user)
            .into_iter()
            .map(|(ident, line)| ("user.rs".to_string(), ident, line))
            .collect();
        let msgs = check_names("schema.rs", &decl, &uses);
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
            msgs.iter().any(|m| m.starts_with("user.rs:2: ")
                && m.contains("`names::UNREGISTERED` is counted but unregistered")),
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
        let decl = parse_names(schema);
        let uses = vec![
            ("u.rs".to_string(), "A".to_string(), 1),
            ("u.rs".to_string(), "B".to_string(), 2),
        ];
        let msgs = check_names("schema.rs", &decl, &uses);
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
        let decl = parse_names(schema);
        let uses = vec![
            ("u.rs".to_string(), "A".to_string(), 1),
            ("v.rs".to_string(), "B".to_string(), 9),
        ];
        assert!(check_names("schema.rs", &decl, &uses).is_empty());
    }
}
