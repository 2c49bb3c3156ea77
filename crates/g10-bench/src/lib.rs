//! Shared helpers for the G10 benchmark harness: the `experiments` command
//! line, experiment drivers used by both the `experiments` binary and the
//! criterion benches, the persistent on-disk run-cache store, the
//! perf-trajectory snapshot harness, and simple table / CSV / JSON output.

pub mod cli;
pub mod experiments;
pub mod json;
pub mod output;
pub mod serve;
pub mod store;
pub mod trajectory;

pub use output::{write_csv, Table};
pub use store::{RunKey, RunStore};
