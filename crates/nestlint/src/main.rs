//! The nestlint binary. See the library docs for what gets checked.
//!
//! Usage:
//!
//! ```text
//! cargo run -p nestlint --offline                  # scan the workspace
//! cargo run -p nestlint --offline -- --jsonl out.jsonl
//! cargo run -p nestlint --offline -- --policy      # print the policy table
//! cargo run -p nestlint --offline -- --graph       # dump the call graph as DOT
//! cargo run -p nestlint --offline -- --budget-ms 5000   # fail a slow scan
//! ```
//!
//! Exit code 0 means clean; 1 means findings or a blown time budget; 2
//! means the tool itself could not run. The rules are pinned against
//! `fixtures/` by the crate's unit tests (`cargo test -p nestlint`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use nestlint::graph::{Graph, Model};
use nestlint::report::{render_jsonl, render_text};
use nestlint::{driver, policy};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut jsonl: Option<PathBuf> = None;
    let mut show_policy = false;
    let mut show_graph = false;
    let mut budget_ms: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--policy" => show_policy = true,
            "--graph" => show_graph = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root needs a path"),
            },
            "--jsonl" => match args.next() {
                Some(p) => jsonl = Some(PathBuf::from(p)),
                None => return usage("--jsonl needs a path"),
            },
            "--budget-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => budget_ms = Some(ms),
                None => return usage("--budget-ms needs a millisecond count"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if show_policy {
        print!("{}", policy::render_policy());
        return ExitCode::SUCCESS;
    }
    if show_graph {
        return run_graph(&root);
    }
    run_scan(&root, jsonl.as_deref(), budget_ms)
}

fn usage(err: &str) -> ExitCode {
    eprintln!("nestlint: {err}");
    eprintln!(
        "usage: nestlint [--root <dir>] [--jsonl <file>] [--budget-ms <n>] \
         [--policy] [--graph]"
    );
    ExitCode::from(2)
}

/// `--graph`: the whole-workspace call graph as Graphviz DOT, for
/// debugging resolution decisions (`nestlint --graph | dot -Tsvg …`).
fn run_graph(root: &Path) -> ExitCode {
    let sources = match driver::workspace_sources(root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nestlint: {e}");
            return ExitCode::from(2);
        }
    };
    let model = Model::build(sources);
    let graph = Graph::build(&model);
    print!("{}", graph.to_dot());
    ExitCode::SUCCESS
}

fn run_scan(root: &Path, jsonl: Option<&Path>, budget_ms: Option<u64>) -> ExitCode {
    let started = Instant::now();
    let res = match driver::scan(root) {
        Ok(res) => res,
        Err(e) => {
            eprintln!("nestlint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();
    if let Some(path) = jsonl {
        if let Err(e) = std::fs::write(path, render_jsonl(&res.findings)) {
            eprintln!("nestlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", render_text(&res.findings));
    for (stage, took) in &res.timings {
        println!("nestlint: {stage:<20} {:>6.1}ms", took.as_secs_f64() * 1e3);
    }
    let mut code = if res.findings.is_empty() {
        println!(
            "nestlint: clean — {} files, {} suppressed finding(s)",
            res.files, res.suppressed
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "nestlint: {} finding(s) across {} files ({} suppressed)",
            res.findings.len(),
            res.files,
            res.suppressed
        );
        ExitCode::FAILURE
    };
    if let Some(budget) = budget_ms {
        let took = elapsed.as_millis() as u64;
        if took > budget {
            eprintln!("nestlint: scan took {took}ms, over the {budget}ms budget");
            code = ExitCode::FAILURE;
        } else {
            println!("nestlint: scan took {took}ms (budget {budget}ms)");
        }
    }
    code
}
