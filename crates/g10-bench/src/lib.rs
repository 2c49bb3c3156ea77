//! Shared helpers for the G10 benchmark harness: the `experiments` command
//! line, the experiment drivers, the [`Lab`] that owns their caches, the
//! persistent on-disk run-cache store, the experiment service, the
//! perf-trajectory snapshot harness, and simple table / CSV / JSON output.

pub mod cli;
pub mod experiments;
pub mod json;
pub mod lab;
pub mod output;
pub mod serve;
pub mod store;
pub mod trajectory;

pub use lab::Lab;
pub use output::{write_csv, Table};
pub use store::{RunKey, RunStore};
