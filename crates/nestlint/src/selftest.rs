//! The fixture self-test, run by `cargo test`: every rule against the
//! committed fixtures, its findings compared against inline
//! expectation markers — compiletest-style, so the lint's own behavior
//! is pinned by files in the repo.
//!
//! Markers are trailing comments: `//~ <rule-id> [<rule-id> …]`. Each
//! marker means "this line must produce exactly these findings". Lines
//! without a marker must be clean. Markers are stripped from the
//! source before lexing so they can't themselves satisfy (or trip) a
//! rule — e.g. a trailing marker would otherwise read as a suppression
//! comment.

use std::fs;
use std::path::Path;

use crate::lexer::lex;
use crate::names_check::{check_names, collect_uses, parse_names};
use crate::rules::{check_no_panic_on_wire, parse_suppressions, test_ranges, Finding, Rule};
use crate::whole::analyze_single;

/// Self-test outcome: files checked and human-readable failures.
pub struct SelfTest {
    pub checked: usize,
    pub failures: Vec<String>,
}

/// Extracts `(line, rule-id)` expectations and returns the source with
/// markers removed (newlines preserved, so line numbers are stable).
fn extract_markers(src: &str) -> (String, Vec<(u32, String)>) {
    const MARKER: &str = "//~";
    let mut stripped = String::with_capacity(src.len());
    let mut expected = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let line_no = idx as u32 + 1;
        match line.find(MARKER) {
            Some(at) => {
                for id in line[at + MARKER.len()..].split_whitespace() {
                    expected.push((line_no, id.to_string()));
                }
                stripped.push_str(line[..at].trim_end());
            }
            None => stripped.push_str(line),
        }
        stripped.push('\n');
    }
    (stripped, expected)
}

fn compare(
    file: &str,
    expected: &mut Vec<(u32, String)>,
    findings: &[Finding],
    failures: &mut Vec<String>,
) {
    let mut got: Vec<(u32, String)> = findings
        .iter()
        .filter(|f| f.file == file)
        .map(|f| (f.line, f.rule.id().to_string()))
        .collect();
    expected.sort();
    got.sort();
    if *expected != got {
        for e in expected.iter() {
            if !got.contains(e) {
                failures.push(format!("{file}:{}: expected `{}`, not produced", e.0, e.1));
            }
        }
        for g in &got {
            if !expected.contains(g) {
                let msg = findings
                    .iter()
                    .find(|f| f.file == file && f.line == g.0 && f.rule.id() == g.1)
                    .map(|f| f.msg.as_str())
                    .unwrap_or("");
                failures.push(format!("{file}:{}: unexpected `{}`: {msg}", g.0, g.1));
            }
        }
    }
}

/// Runs one fixture through the token rule with suppression
/// filtering, mirroring the driver's pipeline for a single file.
fn run_token_fixture(dir: &Path, file: &str, checked: &mut usize, failures: &mut Vec<String>) {
    let path = dir.join(file);
    let src = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("{file}: unreadable: {e}"));
            return;
        }
    };
    *checked += 1;
    let (stripped, mut expected) = extract_markers(&src);
    let lexed = lex(&stripped);
    let sups = parse_suppressions(file, &lexed);
    let skip = test_ranges(&lexed.tokens);
    let mut findings = check_no_panic_on_wire(file, &lexed, &skip);
    findings.extend(sups.findings.iter().cloned());
    findings.retain(|f| !sups.covers(f.rule, f.line));
    compare(file, &mut expected, &findings, failures);
}

/// Runs one whole-program fixture through both graph rules with
/// suppression filtering, mirroring the driver's pipeline with the
/// file as its own wire surface. The fixture is analyzed as the
/// workspace file `path`, whose policy row applies.
fn run_whole_fixture(
    dir: &Path,
    file: &str,
    path: &str,
    checked: &mut usize,
    failures: &mut Vec<String>,
) {
    let src = match fs::read_to_string(dir.join(file)) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("{file}: unreadable: {e}"));
            return;
        }
    };
    *checked += 1;
    let (stripped, mut expected) = extract_markers(&src);
    let sups = parse_suppressions(path, &lex(&stripped));
    let mut findings = analyze_single(path, &stripped);
    findings.extend(sups.findings.iter().cloned());
    findings.retain(|f| !sups.covers(f.rule, f.line));
    compare(path, &mut expected, &findings, failures);
}

/// Negative test: mutate a fixture the way real wire drift happens and
/// assert the whole-program rule catches it. A rule whose fixture
/// passes but whose mutation goes unflagged is decorative.
fn run_mutation_negative(dir: &Path, failures: &mut Vec<String>) {
    // Adding an unchecked index to a fn reachable from a wire entry
    // must be a finding.
    if let Ok(src) = fs::read_to_string(dir.join("r8.rs")) {
        let (stripped, _) = extract_markers(&src);
        let anchor = "let _ok = buf.first();";
        if !stripped.contains(anchor) {
            failures.push("r8.rs: mutation anchor `buf.first()` missing".to_string());
        } else {
            let mutated = stripped.replacen(anchor, "let _ok = buf[0];", 1);
            let count = |src: &str| {
                analyze_single("r8.rs", src)
                    .into_iter()
                    .filter(|f| f.rule == Rule::PanicReachability)
                    .count()
            };
            if count(&mutated) != count(&stripped) + 1 {
                failures.push(
                    "r8.rs: adding an index to `read_word` (reachable from `get_header`) \
                     produced no new panic-reachability finding"
                        .to_string(),
                );
            }
        }
    } else {
        failures.push("r8.rs: unreadable for mutation test".to_string());
    }
}

/// Runs the full fixture suite under `dir`.
pub fn run(dir: &Path) -> SelfTest {
    let mut checked = 0usize;
    let mut failures = Vec::new();

    run_token_fixture(dir, "r2.rs", &mut checked, &mut failures);
    run_token_fixture(dir, "r7.rs", &mut checked, &mut failures);
    run_whole_fixture(dir, "r8.rs", "r8.rs", &mut checked, &mut failures);
    run_whole_fixture(dir, "r9.rs", "r9.rs", &mut checked, &mut failures);
    // Analyzed where the policy table pins a whole crate to
    // determinism-taint, so every fn in it is a root.
    run_whole_fixture(
        dir,
        "r9_roots.rs",
        "crates/arch/src/r9_roots.rs",
        &mut checked,
        &mut failures,
    );
    run_mutation_negative(dir, &mut failures);

    // Not a fixture but a classification pin: the lane modules must
    // stay policy-classified as result-affecting. A policy-table edit
    // that drops them fails the self-test.
    for path in ["crates/core/src/lanes.rs", "crates/rtl/src/lanes.rs"] {
        if !crate::policy::rules_for(path).contains(&crate::rules::Rule::DeterminismTaint) {
            failures.push(format!(
                "{path}: policy no longer classifies the lane module as \
                 determinism-taint (result-affecting)"
            ));
        }
    }

    // Same pin for the service wire path: the frame accumulator and
    // message codecs parse untrusted multi-tenant input inside one
    // shared server loop, so they must stay no-panic-on-wire.
    for path in ["crates/cluster/src/proto.rs", "crates/cluster/src/conn.rs"] {
        if !crate::policy::rules_for(path).contains(&crate::rules::Rule::NoPanicOnWire) {
            failures.push(format!(
                "{path}: policy no longer classifies the service wire path as \
                 no-panic-on-wire (untrusted multi-tenant input)"
            ));
        }
    }

    // R3 needs the schema/use pair processed together.
    let names_src = fs::read_to_string(dir.join("r3_names.rs"));
    let use_src = fs::read_to_string(dir.join("r3_use.rs"));
    match (names_src, use_src) {
        (Ok(names_src), Ok(use_src)) => {
            checked += 2;
            let (names_stripped, mut exp_names) = extract_markers(&names_src);
            let (use_stripped, mut exp_use) = extract_markers(&use_src);
            let decl = parse_names(&lex(&names_stripped));
            let uses: Vec<(String, String, u32)> = collect_uses(&lex(&use_stripped))
                .into_iter()
                .map(|(ident, line)| ("r3_use.rs".to_string(), ident, line))
                .collect();
            let findings = check_names("r3_names.rs", &decl, &uses);
            compare("r3_names.rs", &mut exp_names, &findings, &mut failures);
            compare("r3_use.rs", &mut exp_use, &findings, &mut failures);
        }
        (names, uses) => {
            for (f, r) in [("r3_names.rs", names), ("r3_use.rs", uses)] {
                if let Err(e) = r {
                    failures.push(format!("{f}: unreadable: {e}"));
                }
            }
        }
    }

    SelfTest { checked, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_extraction_strips_and_collects() {
        let (stripped, expected) =
            extract_markers("let a = x.unwrap(); //~ no-panic-on-wire\nlet b = 1;\n");
        assert_eq!(stripped, "let a = x.unwrap();\nlet b = 1;\n");
        assert_eq!(expected, vec![(1, "no-panic-on-wire".to_string())]);
    }

    #[test]
    fn multiple_ids_per_marker() {
        let (_, expected) =
            extract_markers("buf[i].unwrap(); //~ no-panic-on-wire no-panic-on-wire\n");
        assert_eq!(expected.len(), 2);
    }

    #[test]
    fn committed_fixtures_pass() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let st = run(&dir);
        assert_eq!(st.checked, 7, "fixture files missing");
        assert!(st.failures.is_empty(), "{:#?}", st.failures);
    }
}
