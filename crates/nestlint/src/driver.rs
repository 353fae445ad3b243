//! The workspace walker: finds sources, applies the policy table,
//! filters through suppressions, and aggregates the final finding list.
//!
//! Scope — what gets which checks:
//!
//! * `.rs` files outside `tests/` / `benches/` / `examples/`
//!   directories: the token rule where [`crate::policy`] enables it,
//!   suppression hygiene everywhere, and the graph rules over all of
//!   them, with `#[cfg(test)]` / `#[test]` items masked out;
//! * every `.rs` file (including tests and benches): `names::X`
//!   reference collection for the R3 coherence check — a name counted
//!   only from a test still counts as used;
//! * the telemetry schema file is additionally parsed as the R3
//!   registry.
//!
//! `target/`, `.git/`, and fixture directories are skipped.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::graph::{Graph, Model};
use crate::lexer::lex;
use crate::names_check::{check_names, collect_uses, parse_names};
use crate::policy::rules_for;
use crate::rules::{
    check_no_panic_on_wire, parse_suppressions, test_ranges, Finding, Rule, Suppressions,
};
use crate::whole::{check_determinism_taint, check_panic_reachability, WholeConfig};

/// Where the telemetry name registry lives, workspace-relative.
pub const NAMES_FILE: &str = "crates/telemetry/src/lib.rs";

/// Aggregate result of one workspace scan.
pub struct ScanResult {
    /// Surviving findings, sorted for stable output.
    pub findings: Vec<Finding>,
    /// Findings waved through by justified suppressions.
    pub suppressed: usize,
    /// Number of source files examined.
    pub files: usize,
    /// Wall time per scan stage, for the CI budget gate.
    pub timings: Vec<(&'static str, Duration)>,
}

/// The `(path, source)` pairs a whole-program pass runs over: every
/// `.rs` file outside test/bench/example/fixture directories. Public
/// so the corpus test parses exactly what the scan analyzes.
pub fn workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut sources = Vec::new();
    walk(root, root, &mut sources)?;
    sources.sort();
    let mut out = Vec::new();
    for rel in sources {
        if is_test_like(&rel) {
            continue;
        }
        let text = fs::read_to_string(root.join(&rel)).map_err(|e| format!("{rel}: {e}"))?;
        out.push((rel, text));
    }
    Ok(out)
}

/// Scans the workspace rooted at `root`.
pub fn scan(root: &Path) -> Result<ScanResult, String> {
    crate::policy::check_table()?;
    let mut sources = Vec::new();
    walk(root, root, &mut sources)?;
    sources.sort();

    let mut findings = Vec::new();
    let mut files = 0usize;
    let mut uses: Vec<(String, String, u32)> = Vec::new();
    let mut names_decl = None;
    let mut sups: BTreeMap<String, Suppressions> = BTreeMap::new();
    let mut kept: Vec<(String, String)> = Vec::new();
    let mut timings: Vec<(&'static str, Duration)> = Vec::new();

    let t0 = Instant::now();
    for rel in &sources {
        let text = fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        files += 1;
        let lexed = lex(&text);
        for (ident, line) in collect_uses(&lexed) {
            uses.push((rel.clone(), ident, line));
        }
        if rel == NAMES_FILE {
            names_decl = Some(parse_names(&lexed));
        }
        if is_test_like(rel) {
            continue;
        }
        let s = parse_suppressions(rel, &lexed);
        findings.extend(s.findings.iter().cloned());
        if rules_for(rel).contains(&Rule::NoPanicOnWire) {
            let skip = test_ranges(&lexed.tokens);
            findings.extend(check_no_panic_on_wire(rel, &lexed, &skip));
        }
        sups.insert(rel.clone(), s);
        kept.push((rel.clone(), text));
    }
    timings.push(("token-rules", t0.elapsed()));

    if let Some(decl) = &names_decl {
        findings.extend(check_names(NAMES_FILE, decl, &uses));
    }

    // Whole-program rules: build the model and call graph once, then
    // run the two graph analyses. Their findings flow through the
    // same suppression filter as everything else.
    let t0 = Instant::now();
    let model = Model::build(kept);
    let graph = Graph::build(&model);
    timings.push(("graph-build", t0.elapsed()));
    let cfg = WholeConfig::workspace();
    let t0 = Instant::now();
    findings.extend(check_panic_reachability(&graph, &cfg));
    timings.push(("panic-reachability", t0.elapsed()));
    let t0 = Instant::now();
    findings.extend(check_determinism_taint(&graph, &cfg));
    timings.push(("determinism-taint", t0.elapsed()));

    let before = findings.len();
    findings.retain(|f| {
        !sups
            .get(&f.file)
            .map(|s| s.covers(f.rule, f.line))
            .unwrap_or(false)
    });
    let suppressed = before - findings.len();
    findings.sort();
    findings.dedup();
    Ok(ScanResult {
        findings,
        suppressed,
        files,
        timings,
    })
}

/// Directories whose contents never get path-scoped rules.
fn is_test_like(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

fn walk(root: &Path, dir: &Path, sources: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | ".github" | "fixtures") {
                continue;
            }
            walk(root, &path, sources)?;
        } else if name.ends_with(".rs") {
            sources.push(rel_path(root, &path));
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_like_paths_are_classified() {
        assert!(is_test_like("tests/end_to_end.rs"));
        assert!(is_test_like("crates/cluster/tests/chaos.rs"));
        assert!(is_test_like("crates/bench/benches/kernel.rs"));
        assert!(is_test_like("examples/sweep.rs"));
        assert!(!is_test_like("crates/cluster/src/wire.rs"));
        assert!(!is_test_like("src/main.rs"));
    }
}
