//! Event-driven execution simulator for the G10 reproduction.
//!
//! The paper evaluates G10 by replaying kernel traces collected on a real
//! A100 through a simulator that models UVM page faults, page-granular
//! migrations, PCIe and SSD bandwidth, and the runtime behaviour of the
//! compared designs.  This crate rebuilds that evaluation substrate:
//!
//! * [`engine`] — the trace-replay engine: kernels execute back to back,
//!   gated on the residency of their working set; migrations run
//!   asynchronously on the modelled channels; stalls, faults and traffic are
//!   accounted per kernel.
//! * [`cancel`] — cooperative cancellation: the [`cancel::CancelToken`]
//!   observed at every engine step boundary, carrying per-request
//!   deadlines (`--deadline-ms`, the serve daemon) and explicit
//!   cancellation into the replay loop.
//! * [`fault`] / [`guard`] — the hardening layer around untrusted policy
//!   code: the per-step invariant audit ([`guard::InvariantGuard`]), typed
//!   policy faults ([`fault::PolicyFaultKind`]), panic containment,
//!   fallback degradation ([`fault::OnPolicyFault`]) and deterministic
//!   fault injection ([`fault::FaultPlan`]).
//! * [`policy`] — the [`policy::MemoryPolicy`] trait through which a memory
//!   management design plugs into the engine.
//! * [`policies`] — the designs compared in the paper: Ideal (infinite GPU
//!   memory), Base UVM (on-demand paging + LRU), DeepUM+ (correlation
//!   prefetching), FlashNeuron (compile-time tensor offloading over
//!   GPUDirect Storage), and G10 with its G10-GDS / G10-Host ablations.
//! * [`metrics`] — the [`metrics::SimReport`] produced by every run: total
//!   and ideal time, stall breakdown, per-kernel slowdowns, migration
//!   traffic, fault counts and SSD-lifetime inputs.
//! * [`session`] — the programmable run API: the fluent
//!   [`session::Experiment`] builder over the open
//!   [`session::PolicyProvider`] registry, through which the built-in
//!   designs and any registered custom design run alike.
//! * [`tenancy`] — multi-tenant replay: several jobs (arrival time,
//!   priority, byte quota) sharing one simulated GPU, with per-job engines
//!   stride-scheduled onto one device timeline, a shared cross-job
//!   accounting ledger, and a TENSILE-style cross-job-aware policy.  Runs
//!   through [`session::Experiment::jobs`] / `run_multi()`.
//! * [`runner`] — the workload builder ([`runner::Workload`]), the
//!   [`runner::PolicyKind`] enumeration of the paper's designs, the
//!   [`runner::parallel_map`] sweep helper.
//!
//! # Example
//!
//! ```
//! use g10_core::config::SystemConfig;
//! use g10_dnn::models::ModelKind;
//! use g10_sim::{Experiment, PolicyKind, Workload};
//!
//! // A deliberately small GPU so the tiny model actually needs migrations.
//! let config = SystemConfig::table2().with_gpu_memory(64 << 20);
//! let workload = Workload::new(ModelKind::TinyCnn, 32);
//! let g10 = Experiment::new(&workload).config(config).run()?;
//! let base = Experiment::new(&workload)
//!     .policy(PolicyKind::BaseUvm)
//!     .config(config)
//!     .run()?;
//! assert!(g10.total_time <= base.total_time);
//! # Ok::<(), g10_sim::SimError>(())
//! ```

#![warn(clippy::unwrap_used)]

pub mod cancel;
pub mod engine;
pub mod fault;
pub mod guard;
pub mod metrics;
pub mod naive;
pub mod policies;
pub mod policy;
pub mod runner;
pub mod session;
pub mod tenancy;
pub mod victim;

pub use cancel::{CancelKind, CancelRecord, CancelToken};
pub use engine::{EngineError, Location, ReplayEngine, RuntimeOptions, StepOutcome};
pub use fault::{FaultPlan, FaultRecord, InjectedFault, OnPolicyFault, PolicyFaultKind, Validate};
pub use metrics::{ReportFingerprint, SimReport};
pub use policy::MemoryPolicy;
pub use runner::{parallel_map, try_parallel_map, PolicyKind, Workload};
pub use session::{
    register_policy, registered_policy_names, Experiment, MultiExperiment, PolicyContext,
    PolicyProvider, PolicyRegistry, PolicySpec, SimError,
};
pub use tenancy::{
    register_tensile, DeviceLedger, JobReport, JobSpec, MultiReport, TenantId, TenantScheduler,
    TenantUsage, TensilePolicy, TensileProvider,
};
