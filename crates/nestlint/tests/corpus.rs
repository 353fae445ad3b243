//! Corpus and robustness tests for the nestlint parser and call graph.
//!
//! Three layers:
//!
//! 1. **Corpus**: every non-test `.rs` file in the workspace must lex
//!    and parse without panicking, and the workspace must keep looking
//!    like a workspace (a floor on file and function counts guards
//!    against the walker silently skipping everything).
//! 2. **Snapshot**: the call graph's node and edge counts are pinned in
//!    `tests/graph_snapshot.txt`. A resolution change (new denylist
//!    entry, narrowing tweak) shows up as a diff a reviewer must bless,
//!    not as silent coverage loss. Regenerate with
//!    `NESTLINT_BLESS=1 cargo test -p nestlint --test corpus`.
//! 3. **Property**: harness-driven truncation and byte mutation of real
//!    workspace sources — the parser must survive arbitrarily broken
//!    input, because it runs on code mid-edit.

use std::path::{Path, PathBuf};

use nestlint::driver::workspace_sources;
use nestlint::graph::{Graph, Model};
use nestlint::lexer::lex;
use nestlint::parser::parse;
use nestsim_harness::{check, Source};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn corpus() -> Vec<(String, String)> {
    workspace_sources(&workspace_root()).expect("workspace sources readable")
}

#[test]
fn every_workspace_file_parses() {
    let sources = corpus();
    assert!(
        sources.len() >= 100,
        "workspace walk found only {} files — walker broken?",
        sources.len()
    );
    let mut fns = 0usize;
    for (path, text) in &sources {
        let parsed = parse(&lex(text));
        fns += parsed.fns.len();
        assert!(
            !path.contains("/tests/"),
            "test-like file {path} leaked into the corpus"
        );
    }
    assert!(
        fns >= 500,
        "only {fns} function definitions parsed across the workspace — parser broken?"
    );
}

#[test]
fn graph_counts_match_committed_snapshot() {
    let model = Model::build(corpus());
    let graph = Graph::build(&model);
    let edges: usize = graph.edges.iter().map(Vec::len).sum();
    let got = format!("nodes {}\nedges {}\n", graph.nodes.len(), edges);

    let snap = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/graph_snapshot.txt");
    if std::env::var("NESTLINT_BLESS").is_ok() {
        std::fs::write(&snap, &got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&snap).expect(
        "tests/graph_snapshot.txt missing — run NESTLINT_BLESS=1 cargo test -p nestlint --test corpus",
    );
    assert_eq!(
        want, got,
        "call-graph size drifted from the committed snapshot; if the change is \
         intentional (new code, resolution tweak), re-bless with \
         NESTLINT_BLESS=1 cargo test -p nestlint --test corpus"
    );
}

/// A small pool of real sources to mutate: the lint's own fixtures plus
/// a few workspace files with interesting syntax.
fn mutation_pool() -> Vec<String> {
    corpus()
        .into_iter()
        .filter(|(p, _)| {
            p.ends_with("cluster/src/wire.rs")
                || p.ends_with("cluster/src/proto.rs")
                || p.ends_with("nestlint/src/parser.rs")
                || p.ends_with("telemetry/src/recorder.rs")
        })
        .map(|(_, text)| text)
        .collect()
}

fn truncate_at_char_boundary(text: &str, at: usize) -> &str {
    let mut cut = at.min(text.len());
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    &text[..cut]
}

#[test]
fn parser_survives_truncated_sources() {
    let pool = mutation_pool();
    assert!(!pool.is_empty(), "mutation pool is empty");
    check("parser_survives_truncated_sources", |src: &mut Source| {
        let text = &pool[src.index(pool.len())];
        let cut = truncate_at_char_boundary(text, src.below(text.len() as u64 + 1) as usize);
        // Must not panic; counts are irrelevant.
        let _ = parse(&lex(cut));
    });
}

#[test]
fn parser_survives_mutated_sources() {
    let pool = mutation_pool();
    assert!(!pool.is_empty(), "mutation pool is empty");
    let replacements = [
        "{", "}", "(", ")", "[", "]", "::", "->", "=>", "fn ", "impl ", "match ", "\"", "'", "#",
        "!", "",
    ];
    check("parser_survives_mutated_sources", |src: &mut Source| {
        let text = &pool[src.index(pool.len())];
        let mut bytes = text.as_bytes().to_vec();
        // Splice a syntax-significant fragment over a random span.
        let at = src.index(bytes.len());
        let span = src.range_usize(0, 16.min(bytes.len() - at));
        let frag = replacements[src.index(replacements.len())];
        bytes.splice(at..at + span, frag.bytes());
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse(&lex(&mutated));
    });
}

/// The whole-file analysis entry point (used by the fixture self-test
/// and its mutation negatives) must also be panic-free on broken input, since
/// it builds a model and graph over whatever the parser salvaged.
#[test]
fn single_file_analysis_survives_truncation() {
    let pool = mutation_pool();
    check(
        "single_file_analysis_survives_truncation",
        |src: &mut Source| {
            let text = &pool[src.index(pool.len())];
            let cut = truncate_at_char_boundary(text, src.below(text.len() as u64 + 1) as usize);
            let _ = nestlint::whole::analyze_single("mutated.rs", cut);
        },
    );
}
