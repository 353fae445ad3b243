//! # nestsim-harness
//!
//! The in-repo replacement for the external `proptest` and `criterion`
//! dependencies, so the whole workspace builds and tests from a bare
//! `rustc`/`cargo` toolchain with **zero registry access**.
//!
//! Two halves:
//!
//! * **Property testing** ([`check`], [`Source`], the [`properties!`]
//!   macro) — deterministic splitmix/xoshiro case generation, a logged
//!   choice sequence per case, choice-sequence shrinking on failure, and
//!   a replayable failure seed (`NESTSIM_PROP_SEED=<seed>` reruns the
//!   exact failing case).
//! * **Benchmarking** ([`bench::Suite`]) — wall-clock warm-up +
//!   median-of-N with MAD spread, emitting `BENCH_<suite>.json`
//!   JSON-lines at the workspace root so successive PRs accumulate a
//!   perf trajectory.
//!
//! Environment knobs: `NESTSIM_PROP_SEED`, `NESTSIM_PROP_CASES`,
//! `NESTSIM_BENCH_OUT`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod check;
pub mod rng;
pub mod source;

pub use check::{check, check_with, Config};
pub use source::Source;
