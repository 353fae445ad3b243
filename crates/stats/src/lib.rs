//! Statistics utilities for fault-injection campaigns.
//!
//! Reproduces the statistical machinery of the paper:
//!
//! * binomial proportion confidence intervals (normal approximation as in
//!   the paper's footnote 2, citing [Choi 90], plus the more robust
//!   Wilson interval) — [`ci`],
//! * the sample-size calculation behind the paper's "more than 40,000
//!   samples for ±0.1% at 95% confidence when the observed rate is 1%"
//!   claim — [`ci::required_samples`],
//! * empirical distributions with log-scale bucketing for the paper's
//!   CDF figures (Figs. 6, 8, 9) — [`cdf`], and
//! * deterministic seed derivation so that campaigns are reproducible and
//!   parallelizable — [`seed`].
//!
//! # Examples
//!
//! ```
//! use nestsim_stats::ci::{required_samples, Proportion};
//!
//! // Paper, footnote 2: observing a 1% rate to ±0.1% at 95% confidence.
//! // The computation gives ~38,032; the paper rounds up to ">40,000".
//! let n = required_samples(0.01, 0.001, 0.95);
//! assert!(n > 38_000 && n < 39_000);
//!
//! let p = Proportion::new(120, 10_000);
//! let (lo, hi) = p.wilson_interval(0.95);
//! assert!(lo < 0.012 && 0.012 < hi);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod ci;
pub mod seed;
pub mod stop;

pub use cdf::Cdf;
pub use ci::{required_samples, Proportion};
pub use seed::SeedSeq;
pub use stop::{StopDecision, StopPolicy};
