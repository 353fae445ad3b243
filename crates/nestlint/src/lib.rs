//! nestlint — workspace-local static analysis for nestsim.
//!
//! A zero-dependency lint pass for the repo invariants no other check
//! makes; rustc, clippy (`allow_attributes_without_reason`), ci.sh's
//! `cargo metadata` stage and the wire round-trip property cover the
//! rest.
//! One token rule checks a file at a time: error-returning wire decode
//! paths (R2, `no-panic-on-wire`). The telemetry name registry is
//! checked against its uses (R3, `telemetry-names`). Two whole-program
//! rules walk a conservative call graph over the entire workspace:
//! panic-reachability (R8, `panic-reachability`) and determinism taint
//! (R9, `determinism-taint`) — see [`whole`] for the analyses and
//! [`graph`] for the name-resolution rules they ride on.
//!
//! Everything works off a hand-rolled Rust lexer ([`lexer`]) — tokens
//! and comments, never raw text — so identifiers inside strings or
//! comments can't produce findings; the item parser ([`parser`])
//! extracts just enough structure (functions, impls, aliases, call
//! sites) for the graph. Where each rule applies is decided by the
//! policy table in [`policy`]; individual lines opt out via a
//! justified suppression comment (see [`rules::parse_suppressions`]).
//! The binary (`cargo run -p nestlint --offline`) scans the workspace
//! and exits non-zero on any unsuppressed finding; `--graph` dumps the
//! call graph as Graphviz DOT. The `selftest` unit tests pin rule
//! behavior against the committed `fixtures/`.

pub mod driver;
pub mod graph;
pub mod lexer;
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
