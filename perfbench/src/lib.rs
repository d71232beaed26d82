//! The repository benchmark: one command runs one workload against an
//! in-process `gvdb-server` through `gvdb-client` over real sockets,
//! checks the answers, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload navigate --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 1` runs half the time untraced and half traced, and prints
//! the per-layer metrics instead of the end-to-end ones.

pub mod deploy;
pub mod openloop;
pub mod probe;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workload;
