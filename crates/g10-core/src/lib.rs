//! G10 core: compile-time smart tensor migration planning.
//!
//! This crate implements the paper's primary contribution — the tensor
//! vitality analyzer and the smart tensor migration scheduler (§4.2–§4.4 of
//! the paper) — as a library that takes a DNN training dataflow graph plus a
//! profiled kernel trace and produces a [`plan::MigrationPlan`]: the
//! `g10_pre_evict` / `g10_prefetch` instructions that the runtime (or, here,
//! the replay simulator in `g10-sim`) executes.
//!
//! * [`config`] — the system configuration of Table 2 (GPU / host / SSD
//!   capacities, bandwidths and latencies), with helpers for every
//!   sensitivity sweep in §7.
//! * [`vitality`] — the tensor vitality analyzer: births, deaths, global vs
//!   intermediate classification and inactive periods.
//! * [`pressure`] — the GPU memory-pressure timeline (and the host-memory
//!   occupancy timeline) the eviction algorithm maintains, backed by a
//!   bottom-up range-add/range-max tree (O(log n) range queries and
//!   updates),
//!   and eviction selection's index of the kernels above GPU capacity,
//!   which scores candidates.
//! * [`bandwidth`] — binned bandwidth-reservation timelines for the GPU–SSD
//!   and GPU–host channels ("is the SSD traffic full during [t, t+s]?"),
//!   stored as runs of saturated bins plus the partly-filled bins.  The
//!   flat-`Vec` references that both index structures are tested against
//!   live outside the library, in `tests/support/naive.rs`.
//! * [`eviction`] — Algorithm 1: iterative benefit/cost candidate selection
//!   (memoised per graph, trace, GPU capacity and SSD cost) followed by
//!   destination choice.
//! * [`prefetch`] — latest-safe prefetch times plus the eager prefetch
//!   rescheduling of §4.4.
//! * [`plan`] — the migration plan: one CSR table of each kernel's
//!   prefetches and pre-evictions.
//! * [`instrument`] — the instrumented GPU program of Figure 9: the plan
//!   plus the `g10_alloc` / `g10_free` lines derived from the graph, and
//!   its pseudo-CUDA rendering.
//! * [`scheduler`] — [`scheduler::G10Scheduler`], the top-level API tying
//!   everything together, with the G10 / G10-GDS / G10-Host variants.
//!
//! # Example
//!
//! ```
//! use g10_core::config::SystemConfig;
//! use g10_core::scheduler::{G10Scheduler, SchedulerVariant};
//! use g10_dnn::cost::GpuCostModel;
//! use g10_dnn::models::{build_model, ModelKind};
//! use g10_dnn::trace::KernelTrace;
//!
//! let graph = build_model(ModelKind::TinyCnn, 64);
//! let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
//! // A deliberately small GPU so that planning has work to do.
//! let config = SystemConfig::table2().with_gpu_memory(64 << 20);
//! let scheduler = G10Scheduler::new(config, SchedulerVariant::Full);
//! let plan = scheduler.plan(&graph, &trace);
//! assert!(plan.eviction_count() > 0);
//! ```

pub mod bandwidth;
pub mod config;
pub mod eviction;
pub mod instrument;
pub mod plan;
pub mod prefetch;
pub mod pressure;
pub mod scheduler;
pub mod vitality;

pub use config::SystemConfig;
pub use plan::{Instruction, MigrationPlan};
pub use scheduler::{G10Scheduler, SchedulerVariant};
pub use vitality::{InactivePeriod, VitalityAnalysis};
