//! Experiment harness shared by the figure/table binaries and benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§5): it prints the same x/y series the paper plots
//! and writes a CSV copy under `target/experiments/` so EXPERIMENTS.md
//! can reference stable artefacts.
//!
//! * [`report`] — aligned text tables + CSV emission;
//! * [`twitter`] — the shared synthetic "Twitter" dataset for the §5.2
//!   experiments (Figures 3(g)–3(i)), built once per size through the
//!   full parse → rank → normalise pipeline;
//! * [`timing`] — wall-clock measurement helpers for the efficiency
//!   figures;
//! * [`history`] — commit and core-count stamps that turn a
//!   `BENCH_service.json` section into a history of measurements.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod history;
pub mod report;
pub mod timing;
pub mod twitter;

pub use report::Report;
pub use timing::time_it;
