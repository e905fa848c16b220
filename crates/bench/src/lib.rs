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
//! The [`harness`] module carries the tiny amount of shared setup the
//! binaries need.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod harness;
