//! # airphant-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§V and the appendices). Every binary prints the same
//! rows/series the paper reports and writes machine-readable JSON under
//! `bench_results/`.
//!
//! Run one via `cargo run -p airphant-bench --release --bin <name>`; the
//! binaries are the files under `src/bin/`. Corpora are *scaled-down*
//! look-alikes of the paper's datasets (scale factors and substitutions
//! in EXPERIMENTS.md); bin budgets scale with vocabulary so the
//! structural regimes match.
//!
//! Binaries with a headline metric additionally publish it as a
//! [`Headline`] record (`bench_results/BENCH_<name>.json`), which the
//! `perf_gate` binary diffs against the committed baseline in CI — see
//! `docs/adr/004-sharded-serving.md`.

#![warn(missing_docs)]

pub mod cost;
pub mod datasets;
pub mod engines;
pub mod measure;
pub mod report;

pub use cost::{airphant_monthly_cost, elastic_monthly_cost, relative_cost, CostParams};
pub use datasets::{build_dataset, paper_datasets, DatasetKind, DatasetSpec};
pub use engines::{build_all_engines, BenchEnv, EngineKind};
pub use measure::{
    lookup_latencies, mean_false_positives, mean_round_trips, percentile, search_latencies,
    summarize, wait_download_pairs, LatencyStats,
};
pub use report::{Comparison, Headline, Report};
