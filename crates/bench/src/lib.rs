//! Benchmark harness for the ChipAlign reproduction.
//!
//! This crate hosts the **experiment binaries** (`src/bin/`) — one per
//! paper table and figure, each printing the same rows/series the paper
//! reports. Run e.g.
//! `cargo run --release -p chipalign-bench --bin table1_openroad_qa`.
//! All binaries accept the zoo cache under `artifacts/zoo/` and train the
//! model zoo on first use. Performance is measured by `benchmark/run.sh`,
//! not here.
//!
//! Four diagnostic binaries document how the reproduction was calibrated
//! (see DESIGN.md §6): `calibrate` (the capability-split grid for one
//! backbone), `probe_copy` (does induction/copying form at a given
//! width/depth?), `probe_base` (does extraction generalise to chip
//! vocabulary?), and `probe_zoo` (spot-check any cached zoo model).
//!
//! The [`harness`] module carries the tiny amount of shared setup the
//! binaries need.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
