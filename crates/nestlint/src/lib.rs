//! nestlint — workspace-local static analysis for nestsim.
//!
//! A zero-dependency lint pass that enforces the repo invariants the
//! compiler can't. The token rules check one file at a time:
//! determinism in result-affecting crates (R1, `no-nondeterminism`),
//! error-returning wire decode paths (R2, `no-panic-on-wire`),
//! telemetry name-registry coherence (R3, `telemetry-names`), hermetic
//! manifests (R4, `hermeticity`), and justified `#[allow]`s (R5,
//! `allow-justification`). On top of those, three whole-program rules
//! walk a conservative call graph over the entire workspace:
//! panic-reachability (R8, `panic-reachability`), determinism taint
//! (R9, `determinism-taint`), and wire-codec symmetry (R10,
//! `wire-codec-symmetry`) — see [`whole`] for the analyses and
//! [`graph`] for the name-resolution rules they ride on.
//!
//! Everything works off a hand-rolled Rust lexer ([`lexer`]) — tokens
//! and comments, never raw text — so identifiers inside strings or
//! comments can't produce findings; the item parser ([`parser`])
//! extracts just enough structure (functions, impls, aliases, call
//! sites) for the graph. Which rules apply where is decided by the
//! policy table in [`policy`]; individual lines opt out via a
//! justified suppression comment (see [`rules::parse_suppressions`]).
//! The binary (`cargo run -p nestlint --offline`) scans the workspace
//! and exits non-zero on any unsuppressed finding; `--graph` dumps the
//! call graph as Graphviz DOT. The `selftest` unit tests pin rule
//! behavior against the committed `fixtures/`.

pub mod driver;
pub mod graph;
pub mod lexer;
pub mod manifest;
pub mod names_check;
pub mod parser;
pub mod policy;
pub mod report;
pub mod rules;
#[cfg(test)]
mod selftest;
pub mod whole;

pub use driver::{scan, ScanResult};
pub use rules::{Finding, Rule};
