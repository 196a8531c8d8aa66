//! # airphant-suite
//!
//! Umbrella crate for the Airphant reproduction: re-exports the workspace
//! crates and hosts the runnable examples (`examples/`) and cross-crate
//! integration tests (`tests/`).
//!
//! See the repository README for the architecture overview and
//! EXPERIMENTS.md for the experiments and their scale.

pub use airphant;
pub use airphant_baselines;
pub use airphant_corpus;
pub use airphant_storage;
pub use iou_sketch;
