//! The programmable experiment session: a fluent [`Experiment`] builder over
//! an open [`PolicyProvider`] registry.
//!
//! The paper evaluates G10 as *one* memory-management design among many over
//! the same unified memory/storage substrate (§7 compares six designs plus
//! ablations).  This module makes that comparison open-ended: instead of a
//! closed ladder of free functions ending in a hardcoded `match` over
//! [`PolicyKind`], a run is described by an [`Experiment`] — workload,
//! policy, hardware, planning trace, runtime options — and the policy slot
//! accepts *any* [`PolicyProvider`], looked up by name through a
//! [`PolicyRegistry`].  The seven built-in designs answer to their
//! [`PolicyKind::names`] in every registry, which holds only custom
//! registrations; a new design is a downstream `impl` plus one
//! [`register_policy`] call, after which it parses from CLI strings exactly
//! like a built-in.  Registrations live in the process-wide `static`
//! `GLOBAL`, because a name registered once must parse at every entry
//! point — CLI flags, wire requests, sweeps — without threading a registry.
//!
//! # Running a built-in design
//!
//! ```
//! use g10_core::config::SystemConfig;
//! use g10_dnn::models::ModelKind;
//! use g10_sim::runner::{PolicyKind, Workload};
//! use g10_sim::session::Experiment;
//!
//! let workload = Workload::new(ModelKind::TinyCnn, 32);
//! let config = SystemConfig::table2().with_gpu_memory(64 << 20);
//! let g10 = Experiment::new(&workload).config(config).run()?; // defaults to G10
//! let base = Experiment::new(&workload)
//!     .policy(PolicyKind::BaseUvm)
//!     .config(config)
//!     .run()?;
//! assert!(g10.total_time <= base.total_time);
//! # Ok::<(), g10_sim::session::SimError>(())
//! ```
//!
//! # Registering an out-of-tree design
//!
//! A custom policy lives entirely outside this crate: implement
//! [`MemoryPolicy`] for the runtime behaviour, [`PolicyProvider`] for its
//! construction, register it under a name, and every entry point that parses
//! policy names — [`PolicySpec`], [`Experiment`], the `experiments` binary's
//! `--policy` flag — can reach it.
//!
//! ```
//! use g10_core::config::SystemConfig;
//! use g10_dnn::models::ModelKind;
//! use g10_sim::engine::EngineState;
//! use g10_sim::policy::MemoryPolicy;
//! use g10_sim::runner::Workload;
//! use g10_sim::session::{
//!     register_policy, Experiment, PolicyContext, PolicyProvider, PolicySpec,
//! };
//! use std::sync::Arc;
//!
//! /// A deliberately naive design: evict whatever is largest, straight to
//! /// the SSD, and never plan anything ahead of time.
//! struct LargestFirst;
//!
//! impl MemoryPolicy for LargestFirst {
//!     fn name(&self) -> String {
//!         "LargestFirst".to_string()
//!     }
//!     fn before_kernel(&mut self, _: usize, _: &mut EngineState) {}
//!     fn after_kernel(&mut self, _: usize, _: &mut EngineState) {}
//!     fn select_victim(
//!         &mut self,
//!         state: &EngineState,
//!     ) -> Option<(g10_dnn::tensor::TensorId, g10_sim::Location)> {
//!         g10_sim::policy::largest_victim_to_ssd(state)
//!     }
//! }
//!
//! struct LargestFirstProvider;
//!
//! impl PolicyProvider for LargestFirstProvider {
//!     fn build(&self, _ctx: &PolicyContext<'_>) -> Box<dyn MemoryPolicy> {
//!         Box::new(LargestFirst)
//!     }
//! }
//!
//! register_policy("largest-first-demo", Arc::new(LargestFirstProvider));
//!
//! // The custom name now parses like any built-in...
//! let spec: PolicySpec = "largest-first-demo".parse()?;
//! // ...and runs through the same session path.
//! let workload = Workload::new(ModelKind::TinyCnn, 8);
//! let report = Experiment::new(&workload)
//!     .policy(spec)
//!     .config(SystemConfig::table2().with_gpu_memory(16 << 20))
//!     .run()?;
//! assert_eq!(report.policy, "LargestFirst");
//! # Ok::<(), g10_sim::session::SimError>(())
//! ```

use crate::cancel::{CancelKind, CancelRecord};
use crate::engine::{EngineError, ReplayEngine, RuntimeOptions};
use crate::fault::{catch_policy_panic, FaultRecord, Misbehaving, OnPolicyFault, PolicyFaultKind};
use crate::metrics::SimReport;
use crate::policies::{BaseUvmPolicy, DeepUmPolicy, FlashNeuronPolicy, G10Policy, IdealPolicy};
use crate::policy::MemoryPolicy;
use crate::runner::{parallel_map, PolicyKind, Workload, CLASSIC_UVM_BATCH_OVERHEAD};
use crate::tenancy::{
    DeviceLedger, JobReport, JobSpec, MultiReport, TenantFault, TenantId, TenantScheduler,
};
use g10_core::config::SystemConfig;
use g10_core::scheduler::{G10Scheduler, SchedulerVariant};
use g10_dnn::trace::KernelTrace;
use g10_time::Nanos;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, RwLock};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors produced by the session API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A policy name did not resolve against the registry.  `known` lists
    /// every registered policy name — built-ins and custom registrations —
    /// so the error message doubles as discovery.
    UnknownPolicy {
        /// The name that failed to resolve, as given by the caller.
        name: String,
        /// Every registered policy name at the time of the failure.
        known: Vec<String>,
    },
    /// The policy violated an engine invariant (or panicked) mid-run and
    /// the session was configured to fail the cell
    /// ([`OnPolicyFault::Fail`]) — or the fallback design faulted too.
    PolicyFault {
        /// The faulting policy, as the caller specified it.
        policy: String,
        /// The kernel step at which the fault was detected (0 for faults
        /// during provider build or engine construction).
        step: usize,
        /// What went wrong.
        kind: PolicyFaultKind,
    },
    /// The run's [`crate::CancelToken`] deadline (wall-clock or
    /// deterministic step limit) expired mid-run.  Cancellation never
    /// triggers fallback degradation — the budget that would pay for a
    /// re-run is exactly what ran out.
    DeadlineExceeded {
        /// The policy that was running, as the caller specified it.
        policy: String,
        /// The kernel step at which the expired deadline was observed (0
        /// when it expired before the run started).
        step: usize,
    },
    /// The run's [`crate::CancelToken`] was explicitly cancelled
    /// ([`crate::CancelToken::cancel`] — e.g. a serve daemon draining its
    /// in-flight work past the drain deadline).
    Cancelled {
        /// The policy that was running, as the caller specified it.
        policy: String,
        /// The kernel step at which the cancellation was observed.
        step: usize,
    },
    /// [`MultiExperiment::run_multi`] was called with an empty job list.
    EmptyJobs,
}

impl SimError {
    /// An [`SimError::UnknownPolicy`] listing the globally registered names.
    fn unknown_policy(name: &str) -> Self {
        SimError::UnknownPolicy {
            name: name.to_string(),
            known: registered_policy_names(),
        }
    }
}

impl From<FaultRecord> for SimError {
    fn from(fault: FaultRecord) -> Self {
        SimError::PolicyFault {
            policy: fault.policy,
            step: fault.step,
            kind: fault.kind,
        }
    }
}

impl From<CancelRecord> for SimError {
    fn from(record: CancelRecord) -> Self {
        match record.kind {
            CancelKind::DeadlineExceeded => SimError::DeadlineExceeded {
                policy: record.policy,
                step: record.step,
            },
            CancelKind::Cancelled => SimError::Cancelled {
                policy: record.policy,
                step: record.step,
            },
        }
    }
}

impl From<EngineError> for SimError {
    fn from(error: EngineError) -> Self {
        match error {
            EngineError::Fault(fault) => fault.into(),
            EngineError::Cancelled(record) => record.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownPolicy { name, known } => {
                // Sorted so the listing is deterministic even when custom
                // registrations raced this error on other threads.
                let mut known = known.clone();
                known.sort();
                write!(
                    f,
                    "unknown policy `{name}`; registered policies: {}",
                    known.join(", ")
                )
            }
            SimError::PolicyFault { policy, step, kind } => {
                write!(f, "policy fault in `{policy}` at step {step}: {kind}")
            }
            SimError::DeadlineExceeded { policy, step } => {
                write!(f, "deadline exceeded in `{policy}` at step {step}")
            }
            SimError::Cancelled { policy, step } => {
                write!(f, "run cancelled in `{policy}` at step {step}")
            }
            SimError::EmptyJobs => {
                write!(f, "multi-tenant run requires at least one job")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Canonical form shared by every name-based lookup: ASCII-lowercased, with
/// spaces and underscores mapped to dashes (so `"Base UVM"`, `"base_uvm"`
/// and `"base-uvm"` all resolve alike).
fn normalize(name: &str) -> String {
    name.trim().to_ascii_lowercase().replace([' ', '_'], "-")
}

/// Resolves a normalized name against the built-in alias table.
fn builtin_for(normalized: &str) -> Option<PolicyKind> {
    PolicyKind::ALL
        .into_iter()
        .find(|kind| kind.names().contains(&normalized))
}

/// Parses a built-in policy name (the implementation behind
/// `FromStr for PolicyKind`): accepts every alias in
/// [`PolicyKind::names`], rejects everything else — including registered
/// custom names, which are [`PolicySpec`]s, not `PolicyKind`s — with an
/// [`SimError::UnknownPolicy`] listing the full registry.
pub(crate) fn parse_builtin(s: &str) -> Result<PolicyKind, SimError> {
    builtin_for(&normalize(s)).ok_or_else(|| SimError::unknown_policy(s))
}

// ---------------------------------------------------------------------------
// Providers
// ---------------------------------------------------------------------------

/// Everything a [`PolicyProvider`] may consult while constructing its
/// policy: the workload being replayed, the hardware configuration, and the
/// trace to *plan* against (usually the workload's own profiled trace; the
/// §7.6 robustness study plans against a noise-perturbed copy).
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext<'a> {
    /// The workload the experiment replays.
    pub workload: &'a Workload,
    /// The hardware configuration of the run.
    pub config: &'a SystemConfig,
    /// The trace compile-time planners should plan against.
    pub planning_trace: &'a KernelTrace,
}

impl PolicyContext<'_> {
    /// A [`G10Scheduler`] for this context's hardware — the compile-time
    /// planner custom providers can reuse (or ablate) for their own designs.
    pub fn scheduler(&self, variant: SchedulerVariant) -> G10Scheduler {
        G10Scheduler::new(*self.config, variant)
    }

    /// Plans smart tensor migrations for this context's workload under the
    /// given scheduler variant (a convenience over
    /// [`PolicyContext::scheduler`]).
    pub fn plan(&self, variant: SchedulerVariant) -> g10_core::plan::MigrationPlan {
        self.scheduler(variant)
            .plan(&self.workload.graph, self.planning_trace)
    }
}

/// A factory for one memory-management design.
///
/// The provider is the compile-time half of a design: it builds the
/// [`MemoryPolicy`] that will run inside the replay engine (planning
/// migrations first, if the design plans) and adjusts the engine's
/// [`RuntimeOptions`] for any special runtime treatment the design needs —
/// the Ideal baseline's unbounded GPU, the classic-UVM software overhead of
/// the G10 ablations.  Implementations must be `Send + Sync` so sweeps can
/// fan out across threads.
///
/// Note that `build()` does not necessarily run on the thread that
/// registered the provider: `parallel_map` sweeps call it from scoped
/// worker threads, and the `experiments serve` daemon calls it from
/// long-lived worker-pool threads handling untrusted network requests.
/// Providers must not rely on thread-local state, and a slow `build()`
/// delays cancellation — the run's
/// [`CancelToken`](crate::CancelToken) is checked before the build and
/// then only at engine step boundaries.
///
/// # Invariant contract (untrusted policies)
///
/// The engine treats providers and the policies they build as untrusted.
/// The policy interacts with the simulation only through the public
/// [`EngineState`](crate::engine::EngineState) API, and the engine defends
/// its own invariants rather than trusting the policy's bookkeeping:
///
/// - The graceful request calls tolerate redundant or impossible requests
///   by returning `false`; the strict variants
///   ([`request_prefetch_strict`](crate::engine::EngineState::request_prefetch_strict),
///   [`request_evict_strict`](crate::engine::EngineState::request_evict_strict))
///   flag illegal requests as typed faults instead.
/// - Out-of-range tensor ids are always a
///   [`PolicyFaultKind::TensorOutOfRange`] fault.
/// - Panics in [`PolicyProvider::build`] or in any per-kernel hook are
///   contained and surface as [`PolicyFaultKind::BuildPanic`] /
///   [`PolicyFaultKind::StepPanic`] — they never cross the engine
///   boundary.
/// - A per-step [`InvariantGuard`](crate::guard::InvariantGuard) audit
///   (always on in debug builds, opt-in via
///   [`Validate::Always`](crate::fault::Validate)) re-derives the engine's
///   memory accounting each kernel, so bookkeeping corruption is reported
///   as a fault rather than a wrong result.
///
/// A fault fails the cell with [`SimError::PolicyFault`] by default;
/// [`OnPolicyFault::FallbackTo`] instead quarantines the faulting design,
/// re-runs the cell under the fallback, and records the fault on
/// [`SimReport::policy_fault`](crate::metrics::SimReport::policy_fault).
/// The adversarial fuzz harness (`tests/policy_fuzz.rs`) holds the engine
/// to this contract.
///
/// See the [module documentation](self) for an end-to-end out-of-tree
/// registration example.
pub trait PolicyProvider: Send + Sync {
    /// Builds the runtime policy for one experiment.
    fn build(&self, ctx: &PolicyContext<'_>) -> Box<dyn MemoryPolicy>;

    /// Adjusts the engine options for this design.  The default leaves them
    /// untouched.  Called before [`PolicyProvider::build`], on top of
    /// whatever options the caller supplied via [`Experiment::options`].
    fn adjust_options(&self, options: &mut RuntimeOptions) {
        let _ = options;
    }
}

/// Provider of the Ideal baseline: a GPU with effectively infinite on-board
/// memory ([`RuntimeOptions::UNBOUNDED_GPU`]), so nothing ever migrates.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealProvider;

impl PolicyProvider for IdealProvider {
    fn build(&self, _ctx: &PolicyContext<'_>) -> Box<dyn MemoryPolicy> {
        Box::new(IdealPolicy::new())
    }

    fn adjust_options(&self, options: &mut RuntimeOptions) {
        options.gpu_capacity_override = Some(RuntimeOptions::UNBOUNDED_GPU);
    }
}

/// Provider of Base UVM: on-demand paging with LRU eviction.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaseUvmProvider;

impl PolicyProvider for BaseUvmProvider {
    fn build(&self, _ctx: &PolicyContext<'_>) -> Box<dyn MemoryPolicy> {
        Box::new(BaseUvmPolicy::new())
    }
}

/// Provider of DeepUM+: correlation prefetching over UVM.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeepUmPlusProvider;

impl PolicyProvider for DeepUmPlusProvider {
    fn build(&self, ctx: &PolicyContext<'_>) -> Box<dyn MemoryPolicy> {
        Box::new(DeepUmPolicy::new(&ctx.workload.graph))
    }
}

/// Provider of FlashNeuron: compile-time tensor offloading over GPUDirect
/// Storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlashNeuronProvider;

impl PolicyProvider for FlashNeuronProvider {
    fn build(&self, ctx: &PolicyContext<'_>) -> Box<dyn MemoryPolicy> {
        Box::new(FlashNeuronPolicy::new(
            &ctx.workload.graph,
            ctx.planning_trace,
            ctx.config,
        ))
    }
}

/// Provider of G10 and its ablations: plans smart tensor migrations with the
/// [`G10Scheduler`] and executes the plan at replay time.  The classic-UVM
/// ablations (G10-GDS, G10-Host) additionally charge
/// [`CLASSIC_UVM_BATCH_OVERHEAD`] per planned migration batch.
#[derive(Debug, Clone, Copy)]
pub struct G10Provider {
    variant: SchedulerVariant,
}

impl G10Provider {
    /// Creates the provider for one scheduler variant.
    pub fn new(variant: SchedulerVariant) -> Self {
        G10Provider { variant }
    }

    /// The scheduler variant this provider plans with.
    pub fn variant(&self) -> SchedulerVariant {
        self.variant
    }
}

impl PolicyProvider for G10Provider {
    fn build(&self, ctx: &PolicyContext<'_>) -> Box<dyn MemoryPolicy> {
        Box::new(G10Policy::new(ctx.plan(self.variant), self.variant))
    }

    fn adjust_options(&self, options: &mut RuntimeOptions) {
        if !self.variant.extended_uvm() {
            options.software_overhead_per_batch = CLASSIC_UVM_BATCH_OVERHEAD;
        }
    }
}

static IDEAL_PROVIDER: IdealProvider = IdealProvider;
static BASE_UVM_PROVIDER: BaseUvmProvider = BaseUvmProvider;
static DEEPUM_PROVIDER: DeepUmPlusProvider = DeepUmPlusProvider;
static FLASHNEURON_PROVIDER: FlashNeuronProvider = FlashNeuronProvider;
static G10_GDS_PROVIDER: G10Provider = G10Provider {
    variant: SchedulerVariant::Gds,
};
static G10_HOST_PROVIDER: G10Provider = G10Provider {
    variant: SchedulerVariant::Host,
};
static G10_FULL_PROVIDER: G10Provider = G10Provider {
    variant: SchedulerVariant::Full,
};

impl PolicyKind {
    /// The built-in [`PolicyProvider`] behind this design.
    pub fn provider(self) -> &'static dyn PolicyProvider {
        match self {
            PolicyKind::Ideal => &IDEAL_PROVIDER,
            PolicyKind::BaseUvm => &BASE_UVM_PROVIDER,
            PolicyKind::DeepUmPlus => &DEEPUM_PROVIDER,
            PolicyKind::FlashNeuron => &FLASHNEURON_PROVIDER,
            PolicyKind::G10Gds => &G10_GDS_PROVIDER,
            PolicyKind::G10Host => &G10_HOST_PROVIDER,
            PolicyKind::G10Full => &G10_FULL_PROVIDER,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A provider handle as resolved out of a registry: the built-ins are
/// `'static`, custom registrations are shared `Arc`s.
#[derive(Clone)]
enum ProviderHandle {
    Builtin(&'static dyn PolicyProvider),
    Custom(Arc<dyn PolicyProvider>),
}

impl ProviderHandle {
    fn as_dyn(&self) -> &dyn PolicyProvider {
        match self {
            ProviderHandle::Builtin(provider) => *provider,
            ProviderHandle::Custom(provider) => provider.as_ref(),
        }
    }
}

/// A name→provider map over memory-management designs.
///
/// A registry holds only custom registrations: the seven §7 designs answer
/// to their [`PolicyKind::names`] in every registry, and
/// [`PolicyRegistry::register`] adds custom providers.  Most code uses the
/// process-global registry implicitly (through [`register_policy`],
/// [`PolicySpec`] parsing and [`Experiment::run`]); an explicit registry
/// handed to [`Experiment::registry`] scopes custom policies to one
/// session — useful for tests that must not leak registrations.
///
/// ```
/// use g10_sim::session::{PolicyRegistry, IdealProvider};
/// use std::sync::Arc;
///
/// let mut registry = PolicyRegistry::default();
/// assert!(registry.contains("base-uvm"));
/// registry.register("my-ideal-twin", Arc::new(IdealProvider));
/// assert!(registry.contains("my-ideal-twin"));
/// assert_eq!(registry.names().len(), 8);
/// ```
#[derive(Default)]
pub struct PolicyRegistry {
    custom: Vec<(String, Arc<dyn PolicyProvider>)>,
}

impl PolicyRegistry {
    /// Registers `provider` under `name` (normalized like every lookup:
    /// lowercase, spaces/underscores → dashes).
    ///
    /// Re-registering a custom name replaces the previous provider (so test
    /// processes can re-register idempotently).
    ///
    /// # Panics
    ///
    /// Panics, before changing anything, if `name` is a built-in name or
    /// alias — the built-in designs are pinned by the paper's figures and
    /// cannot be shadowed.
    pub fn register(&mut self, name: &str, provider: Arc<dyn PolicyProvider>) -> &mut Self {
        let name = normalize(name);
        if let Some(kind) = builtin_for(&name) {
            panic!(
                "cannot shadow the built-in policy `{}` with `{name}`",
                kind.names()[0]
            );
        }
        self.custom.retain(|(custom, _)| *custom != name);
        self.custom.push((name, provider));
        self
    }

    /// Whether `name` (any alias) resolves in this registry.
    pub fn contains(&self, name: &str) -> bool {
        self.resolve(&normalize(name)).is_some()
    }

    /// Every policy name this registry resolves, canonical names only:
    /// built-ins in [`PolicyKind::ALL`] order, then custom registrations in
    /// registration order.
    pub fn names(&self) -> Vec<String> {
        let builtins = PolicyKind::ALL.map(|kind| kind.names()[0].to_string());
        let custom = self.custom.iter().map(|(name, _)| name.clone());
        builtins.into_iter().chain(custom).collect()
    }

    fn resolve(&self, normalized: &str) -> Option<ProviderHandle> {
        if let Some(kind) = builtin_for(normalized) {
            return Some(ProviderHandle::Builtin(kind.provider()));
        }
        self.custom
            .iter()
            .find(|(name, _)| name == normalized)
            .map(|(_, provider)| ProviderHandle::Custom(Arc::clone(provider)))
    }
}

impl fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("names", &self.names())
            .finish()
    }
}

static GLOBAL: RwLock<PolicyRegistry> = RwLock::new(PolicyRegistry { custom: Vec::new() });

/// Lock accessor that shrugs off poisoning: [`PolicyRegistry::register`]
/// panics on name collisions *before* mutating anything, so a poisoned
/// global registry is always still in a valid state — one caller's bad
/// registration must not brick policy resolution for the whole process.
fn read_global() -> std::sync::RwLockReadGuard<'static, PolicyRegistry> {
    GLOBAL
        .read()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn write_global() -> std::sync::RwLockWriteGuard<'static, PolicyRegistry> {
    GLOBAL
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Registers a custom [`PolicyProvider`] in the process-global registry,
/// making it reachable by name from [`PolicySpec`] parsing,
/// [`Experiment::run`] and the `experiments --policy <name>` CLI flag.  See
/// the [module documentation](self) for an end-to-end example.
pub fn register_policy(name: &str, provider: Arc<dyn PolicyProvider>) {
    write_global().register(name, provider);
}

/// Every policy name registered in the process-global registry (built-ins
/// plus custom registrations).
pub fn registered_policy_names() -> Vec<String> {
    read_global().names()
}

// ---------------------------------------------------------------------------
// Policy specification
// ---------------------------------------------------------------------------

/// Which design an [`Experiment`] runs: one of the seven built-ins, or a
/// registered custom policy by name.  Custom policies parse from CLI
/// strings exactly like built-ins:
///
/// ```
/// use g10_sim::runner::PolicyKind;
/// use g10_sim::session::PolicySpec;
///
/// let spec: PolicySpec = "Base UVM".parse()?;
/// assert_eq!(spec, PolicySpec::Builtin(PolicyKind::BaseUvm));
/// assert!("no-such-policy".parse::<PolicySpec>().is_err());
/// # Ok::<(), g10_sim::session::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PolicySpec {
    /// One of the seven designs compared in §7.
    Builtin(PolicyKind),
    /// A custom design registered under this (normalized) name.
    Named(String),
}

impl PolicySpec {
    /// A spec naming a policy by string: a registered custom policy, or a
    /// built-in through any of its [`PolicyKind::names`].  The name is
    /// normalized but *not* validated here; resolution happens at
    /// [`Experiment::run`] time, so specs may be constructed before the
    /// provider is registered.
    pub fn named(name: impl AsRef<str>) -> Self {
        PolicySpec::Named(normalize(name.as_ref()))
    }
}

impl From<PolicyKind> for PolicySpec {
    fn from(kind: PolicyKind) -> Self {
        PolicySpec::Builtin(kind)
    }
}

impl From<&PolicySpec> for PolicySpec {
    fn from(spec: &PolicySpec) -> Self {
        spec.clone()
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::Builtin(kind) => f.write_str(kind.label()),
            PolicySpec::Named(name) => f.write_str(name),
        }
    }
}

impl FromStr for PolicySpec {
    type Err = SimError;

    /// Parses against the process-global registry: built-in aliases resolve
    /// to [`PolicySpec::Builtin`], registered custom names to
    /// [`PolicySpec::Named`], anything else is
    /// [`SimError::UnknownPolicy`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = normalize(s);
        if let Some(kind) = builtin_for(&normalized) {
            return Ok(PolicySpec::Builtin(kind));
        }
        if read_global().contains(&normalized) {
            return Ok(PolicySpec::Named(normalized));
        }
        Err(SimError::unknown_policy(s))
    }
}

// ---------------------------------------------------------------------------
// The experiment session builder
// ---------------------------------------------------------------------------

/// The knobs both session builders share, and the one run path behind them:
/// policy resolution, contained engine construction and fault fallback.
/// [`Experiment`] and [`MultiExperiment`] each embed one, so a solo cell
/// and a tenant go through the same code up to the point the engine runs.
#[derive(Debug, Clone)]
struct Setup<'a> {
    policy: PolicySpec,
    config: SystemConfig,
    options: RuntimeOptions,
    registry: Option<&'a PolicyRegistry>,
}

/// Where a faulted run degrades to: the fallback design, its provider, and
/// the fault to record on the fallback's report.
struct Fallback {
    spec: PolicySpec,
    provider: ProviderHandle,
    fault: FaultRecord,
}

/// A fault at step 0 of `spec`: a panic in provider `build()` or in engine
/// construction.
fn build_panic(spec: &PolicySpec, message: String) -> EngineError {
    EngineError::Fault(FaultRecord {
        policy: spec.to_string(),
        step: 0,
        kind: PolicyFaultKind::BuildPanic { message },
    })
}

/// Attributes a fault or cancellation to the caller's spec string rather
/// than the policy's self-reported name.
fn attribute(mut error: EngineError, spec: &PolicySpec) -> EngineError {
    match &mut error {
        EngineError::Fault(fault) => fault.policy = spec.to_string(),
        EngineError::Cancelled(record) => record.policy = spec.to_string(),
    }
    error
}

impl<'a> Setup<'a> {
    /// Every knob at its default: the full G10, the Table 2 hardware,
    /// default options, the process-global registry.
    fn new() -> Self {
        Setup {
            policy: PolicySpec::Builtin(PolicyKind::G10Full),
            config: SystemConfig::table2(),
            options: RuntimeOptions::default(),
            registry: None,
        }
    }

    fn resolve(&self, spec: &PolicySpec) -> Result<ProviderHandle, SimError> {
        match spec {
            PolicySpec::Builtin(kind) => Ok(ProviderHandle::Builtin(kind.provider())),
            PolicySpec::Named(name) => {
                let normalized = normalize(name);
                let found = match self.registry {
                    Some(registry) => registry.resolve(&normalized),
                    None => read_global().resolve(&normalized),
                };
                found.ok_or_else(|| match self.registry {
                    Some(registry) => SimError::UnknownPolicy {
                        name: name.clone(),
                        known: registry.names(),
                    },
                    None => SimError::unknown_policy(name),
                })
            }
        }
    }

    /// The engine options for a run under `provider`: the caller's options
    /// with the provider's adjustments on top.  A fallback run also has
    /// fault injection disabled and no second level of fallback.
    fn options_for(&self, provider: &dyn PolicyProvider, fallback: bool) -> RuntimeOptions {
        let mut options = self.options.clone();
        if fallback {
            options.fault_plan = None;
            options.on_policy_fault = OnPolicyFault::Fail;
        }
        provider.adjust_options(&mut options);
        options
    }

    /// The fallback decision for a faulted run of `spec`: the configured
    /// fallback design, or the fault (attributed to `spec`) as the final
    /// error when the session fails on faults or the run already is a
    /// fallback (`already_fell_back`) — there is no second level of
    /// degradation.
    fn fallback(
        &self,
        mut fault: FaultRecord,
        spec: &PolicySpec,
        already_fell_back: bool,
    ) -> Result<Fallback, SimError> {
        fault.policy = spec.to_string();
        let spec = match &self.options.on_policy_fault {
            OnPolicyFault::FallbackTo(spec) if !already_fell_back => spec.clone(),
            _ => return Err(fault.into()),
        };
        let provider = self.resolve(&spec)?;
        Ok(Fallback {
            spec,
            provider,
            fault,
        })
    }

    /// Builds one engine and hands it to `then`, under panic containment:
    /// an already-fired cancel token short-circuits *before* the provider
    /// build, so an expired deadline never pays for planning; a panic in
    /// provider `build()`, in engine construction (the policy's
    /// `initial_location` runs there) or in `then` becomes
    /// [`PolicyFaultKind::BuildPanic`].  Errors carry the caller's spec.
    /// An installed [`RuntimeOptions::fault_plan`] wraps `provider` in
    /// [`Misbehaving`], so injected faults take the hostile-policy path.
    fn build_engine<'e, R>(
        &'e self,
        workload: &'e Workload,
        spec: &PolicySpec,
        provider: &dyn PolicyProvider,
        planning_trace: &KernelTrace,
        options: RuntimeOptions,
        then: impl FnOnce(ReplayEngine<'e>) -> R,
    ) -> Result<R, EngineError> {
        if let Some(kind) = options.cancel.as_ref().and_then(|token| token.fired(0)) {
            return Err(EngineError::Cancelled(CancelRecord {
                policy: spec.to_string(),
                step: 0,
                kind,
            }));
        }
        let misbehaving = options.fault_plan.map(|plan| Misbehaving {
            inner: provider,
            plan,
        });
        let provider = misbehaving
            .as_ref()
            .map_or(provider, |m| m as &dyn PolicyProvider);
        let ctx = PolicyContext {
            workload,
            config: &self.config,
            planning_trace,
        };
        let policy = catch_policy_panic(|| provider.build(&ctx))
            .map_err(|message| build_panic(spec, message))?;
        catch_policy_panic(|| {
            then(ReplayEngine::new(
                &workload.graph,
                &workload.trace,
                &self.config,
                policy,
                options,
            ))
        })
        .map_err(|message| build_panic(spec, message))
    }

    /// One contained solo run: [`Setup::build_engine`], then a replay whose
    /// faults and cancellations carry the caller's spec.
    fn run_once(
        &self,
        workload: &Workload,
        spec: &PolicySpec,
        provider: &dyn PolicyProvider,
        planning_trace: &KernelTrace,
        fallback: bool,
    ) -> Result<SimReport, EngineError> {
        let options = self.options_for(provider, fallback);
        // `try_run` contains each step's panics itself, so one escaping it
        // can only have come from engine construction.
        self.build_engine(
            workload,
            spec,
            provider,
            planning_trace,
            options,
            ReplayEngine::try_run,
        )?
        .map_err(|error| attribute(error, spec))
    }

    /// Runs one solo cell, degrading to the configured fallback design if
    /// the policy faults.  The fallback re-runs the cell from scratch
    /// (faulted engine state is poisoned and discarded); its report
    /// records the quarantined policy.  A fault in the fallback itself
    /// fails the cell, and cancellation never falls back: the caller's
    /// budget is spent, so re-running the cell under another design is
    /// exactly the work it asked us not to do.
    fn execute(
        &self,
        workload: &Workload,
        spec: &PolicySpec,
        provider: &dyn PolicyProvider,
        planning_trace: &KernelTrace,
    ) -> Result<SimReport, SimError> {
        let fault = match self.run_once(workload, spec, provider, planning_trace, false) {
            Ok(report) => return Ok(report),
            Err(EngineError::Cancelled(record)) => return Err(record.into()),
            Err(EngineError::Fault(fault)) => fault,
        };
        let fallback = self.fallback(fault, spec, false)?;
        let mut report = self.run_once(
            workload,
            &fallback.spec,
            fallback.provider.as_dyn(),
            planning_trace,
            true,
        )?;
        report.policy_fault = Some(fallback.fault);
        Ok(report)
    }
}

/// A fluent description of one simulation run (or a sweep of runs): a
/// workload replayed under a policy on some hardware.
///
/// Unset knobs take the obvious defaults — the full G10 design, the Table 2
/// hardware, the workload's own profiled trace for planning, default
/// [`RuntimeOptions`], the process-global policy registry.  See the
/// [module documentation](self) for examples, and
/// [`Experiment::policies`] for parallel sweeps.
#[derive(Debug, Clone)]
pub struct Experiment<'a> {
    workload: &'a Workload,
    planning_trace: Option<&'a KernelTrace>,
    setup: Setup<'a>,
}

impl<'a> Experiment<'a> {
    /// Starts a session over `workload` with every knob at its default.
    pub fn new(workload: &'a Workload) -> Self {
        Experiment {
            workload,
            planning_trace: None,
            setup: Setup::new(),
        }
    }

    /// Starts a multi-tenant session over `jobs` — several workloads
    /// sharing one simulated GPU, each with its own arrival time, priority
    /// and byte quota.  See [`crate::tenancy`] for the job model and
    /// [`MultiExperiment::run_multi`] for the result shape.
    pub fn jobs(jobs: impl IntoIterator<Item = JobSpec>) -> MultiExperiment<'a> {
        MultiExperiment {
            jobs: jobs.into_iter().collect(),
            setup: Setup::new(),
        }
    }

    /// Selects the design to run (default: the full G10).  Accepts a
    /// [`PolicyKind`] or a [`PolicySpec`].
    #[must_use]
    pub fn policy(mut self, spec: impl Into<PolicySpec>) -> Self {
        self.setup.policy = spec.into();
        self
    }

    /// Selects the hardware configuration (default:
    /// [`SystemConfig::table2`]).
    #[must_use]
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.setup.config = config;
        self
    }

    /// Plans against `trace` instead of the workload's own profiled trace —
    /// the §7.6 profiling-error study.
    #[must_use]
    pub fn planning_trace(mut self, trace: &'a KernelTrace) -> Self {
        self.planning_trace = Some(trace);
        self
    }

    /// Starts from caller-chosen engine options (e.g. a fault plan, a
    /// cancellation token or a forced invariant audit).  The provider's
    /// [`PolicyProvider::adjust_options`] is applied on top.
    #[must_use]
    pub fn options(mut self, options: RuntimeOptions) -> Self {
        self.setup.options = options;
        self
    }

    /// Resolves [`PolicySpec::Named`] against this registry instead of the
    /// process-global one (built-ins always resolve).
    #[must_use]
    pub fn registry(mut self, registry: &'a PolicyRegistry) -> Self {
        self.setup.registry = Some(registry);
        self
    }

    /// Runs the experiment: resolve the provider, let it adjust the runtime
    /// options and build its policy (planning happens here for designs that
    /// plan), then replay the workload.
    ///
    /// Provider `build()` and every per-step policy call run under panic
    /// containment, and the engine validates policy-issued actions as it
    /// replays — a faulting policy yields [`SimError::PolicyFault`], or,
    /// under [`RuntimeOptions::on_policy_fault`] =
    /// [`OnPolicyFault::FallbackTo`], a fallback re-run whose report records
    /// the quarantined policy in [`SimReport::policy_fault`].
    pub fn run(&self) -> Result<SimReport, SimError> {
        let provider = self.setup.resolve(&self.setup.policy)?;
        let planning = self.planning_trace.unwrap_or(&self.workload.trace);
        self.setup.execute(
            self.workload,
            &self.setup.policy,
            provider.as_dyn(),
            planning,
        )
    }

    /// Runs the same workload under each design in `specs`, in parallel
    /// (via [`parallel_map`]), preserving input order.  All specs are
    /// resolved up front, so an unknown name fails the whole sweep before
    /// any replay starts; a policy fault in one cell fails the sweep with
    /// that cell's error.
    pub fn policies<S: Into<PolicySpec>>(
        &self,
        specs: impl IntoIterator<Item = S>,
    ) -> Result<Vec<SimReport>, SimError> {
        let cells: Vec<(PolicySpec, ProviderHandle)> = specs
            .into_iter()
            .map(|spec| {
                let spec = spec.into();
                let provider = self.setup.resolve(&spec)?;
                Ok((spec, provider))
            })
            .collect::<Result<_, SimError>>()?;
        let planning = self.planning_trace.unwrap_or(&self.workload.trace);
        parallel_map(cells, |(spec, provider)| {
            self.setup
                .execute(self.workload, spec, provider.as_dyn(), planning)
        })
        .into_iter()
        .collect()
    }
}

// ---------------------------------------------------------------------------
// The multi-tenant session builder
// ---------------------------------------------------------------------------

/// A fluent description of one multi-tenant run: several [`JobSpec`]s
/// replayed concurrently under one policy on one shared device.  Built by
/// [`Experiment::jobs`]; see [`crate::tenancy`] for the scheduling model
/// and two runnable examples.
///
/// Every job first runs *solo* (alone on the full device, same policy and
/// options) to establish the slowdown baseline, then the mix replays with
/// per-job engines stride-scheduled onto one device timeline and a shared
/// [`DeviceLedger`] giving policies the cross-job view.
#[derive(Debug, Clone)]
pub struct MultiExperiment<'a> {
    jobs: Vec<JobSpec>,
    setup: Setup<'a>,
}

impl<'a> MultiExperiment<'a> {
    /// Selects the design every job runs under (default: the full G10).
    #[must_use]
    pub fn policy(mut self, spec: impl Into<PolicySpec>) -> Self {
        self.setup.policy = spec.into();
        self
    }

    /// Selects the shared hardware configuration (default:
    /// [`SystemConfig::table2`]).
    #[must_use]
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.setup.config = config;
        self
    }

    /// Starts from caller-chosen engine options.  The provider's
    /// [`PolicyProvider::adjust_options`] is applied on top, and the
    /// tenancy layer then tags each job's options with its tenant id,
    /// the shared ledger, and its quota-capped GPU capacity.
    #[must_use]
    pub fn options(mut self, options: RuntimeOptions) -> Self {
        self.setup.options = options;
        self
    }

    /// Resolves [`PolicySpec::Named`] against this registry instead of the
    /// process-global one.
    #[must_use]
    pub fn registry(mut self, registry: &'a PolicyRegistry) -> Self {
        self.setup.registry = Some(registry);
        self
    }

    /// Builds one job's engine through [`Setup::build_engine`], the same
    /// contained construction a solo run uses.  On top of the
    /// provider-adjusted options the tenancy layer sets the tenant tag, the
    /// shared ledger, and — when the job has a quota — caps the engine's
    /// GPU capacity at `min(capacity, quota_bytes)`.  A job without a quota
    /// sees exactly the options a solo run would, which is what makes the
    /// single-job path byte-identical to the solo one.
    fn build_tenant_engine<'j>(
        &'j self,
        job: &'j JobSpec,
        tenant: TenantId,
        spec: &PolicySpec,
        provider: &dyn PolicyProvider,
        ledger: &Arc<DeviceLedger>,
        fallback: bool,
    ) -> Result<ReplayEngine<'j>, EngineError> {
        let mut options = self.setup.options_for(provider, fallback);
        options.tenant = tenant;
        options.device_ledger = Some(Arc::clone(ledger));
        if let Some(quota) = job.quota_bytes {
            let capacity = options
                .gpu_capacity_override
                .unwrap_or(self.setup.config.gpu_memory_bytes);
            options.gpu_capacity_override = Some(capacity.min(quota));
        }
        self.setup.build_engine(
            &job.workload,
            spec,
            provider,
            &job.workload.trace,
            options,
            |engine| engine,
        )
    }

    /// Puts `tenant` on its fallback design after a fault: the same
    /// decision as a solo run's, then a replacement engine built on the
    /// shared ledger.
    fn fallback_engine<'j>(
        &'j self,
        tenant: TenantId,
        fault: FaultRecord,
        ledger: &Arc<DeviceLedger>,
        already_fell_back: bool,
    ) -> Result<(ReplayEngine<'j>, FaultRecord), SimError> {
        let fallback = self
            .setup
            .fallback(fault, &self.setup.policy, already_fell_back)?;
        // Zero the quarantined tenant's residency *before* the replacement
        // engine posts its initial placement, or the ledger double-counts
        // it.  (Construction posts last, so after a failed build this is a
        // no-op.)
        ledger.reset_residency(tenant);
        let job = &self.jobs[usize::from(tenant.0)];
        let engine = self.build_tenant_engine(
            job,
            tenant,
            &fallback.spec,
            fallback.provider.as_dyn(),
            ledger,
            true,
        )?;
        Ok((engine, fallback.fault))
    }

    /// Runs the mix: solo baselines first, then the shared-device replay.
    ///
    /// Per-job engines run under the same containment as
    /// [`Experiment::run`]: a faulting policy fails the run
    /// ([`OnPolicyFault::Fail`]) or restarts that one job on the fallback
    /// design ([`OnPolicyFault::FallbackTo`]) with its fault recorded in
    /// the job's [`SimReport::policy_fault`] — the other tenants keep
    /// their progress.  Cancellation fails the whole run without fallback.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyJobs`] for an empty mix; otherwise exactly the
    /// errors [`Experiment::run`] can produce.
    pub fn run_multi(&self) -> Result<MultiReport, SimError> {
        if self.jobs.is_empty() {
            return Err(SimError::EmptyJobs);
        }
        let policy = &self.setup.policy;
        let provider = self.setup.resolve(policy)?;
        // Solo baselines: each job alone on the full device under the same
        // policy, config and options — the denominator of every slowdown.
        let solo_reports = self
            .jobs
            .iter()
            .map(|job| {
                self.setup.execute(
                    &job.workload,
                    policy,
                    provider.as_dyn(),
                    &job.workload.trace,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let ledger = Arc::new(DeviceLedger::new(self.setup.config.gpu_memory_bytes));
        for (i, job) in self.jobs.iter().enumerate() {
            ledger.register(TenantId(i as u16), job.priority, job.quota_bytes);
        }
        let mut faults: BTreeMap<TenantId, FaultRecord> = BTreeMap::new();
        let mut scheduler = TenantScheduler::new(Arc::clone(&ledger));
        for (i, job) in self.jobs.iter().enumerate() {
            let tenant = TenantId(i as u16);
            match self.build_tenant_engine(job, tenant, policy, provider.as_dyn(), &ledger, false) {
                Ok(engine) => scheduler.admit(tenant, job, engine),
                Err(EngineError::Cancelled(record)) => return Err(record.into()),
                Err(EngineError::Fault(fault)) => {
                    let (engine, fault) = self.fallback_engine(tenant, fault, &ledger, false)?;
                    scheduler.admit(tenant, job, engine);
                    faults.insert(tenant, fault);
                }
            }
        }
        while let Err(TenantFault { tenant, error }) = scheduler.run() {
            let fault = match attribute(error, policy) {
                // Cancellation bypasses fallback: the budget is spent.
                EngineError::Cancelled(record) => return Err(record.into()),
                EngineError::Fault(fault) => fault,
            };
            let already_fell_back = faults.contains_key(&tenant);
            let (engine, fault) =
                self.fallback_engine(tenant, fault, &ledger, already_fell_back)?;
            scheduler.replace_engine(tenant, engine);
            faults.insert(tenant, fault);
        }
        let outcomes = scheduler.finish();
        let mut makespan = Nanos::ZERO;
        let mut jobs = Vec::with_capacity(outcomes.len());
        for (outcome, solo) in outcomes.into_iter().zip(&solo_reports) {
            makespan = makespan.max(outcome.finished);
            let multi_time = outcome.finished.saturating_sub(outcome.arrival);
            let slowdown = if solo.total_time.is_zero() {
                1.0
            } else {
                multi_time.as_secs_f64() / solo.total_time.as_secs_f64()
            };
            let mut report = outcome.report;
            report.policy_fault = faults.remove(&outcome.tenant);
            jobs.push(JobReport {
                name: outcome.name,
                tenant: outcome.tenant,
                priority: outcome.priority,
                quota_bytes: outcome.quota_bytes,
                arrival: outcome.arrival,
                started: outcome.started,
                finished: outcome.finished,
                solo_time: solo.total_time,
                slowdown,
                audited_steps: outcome.audited_steps,
                restarts: outcome.restarts,
                usage: ledger.usage(outcome.tenant),
                report,
            });
        }
        Ok(MultiReport {
            policy: policy.to_string(),
            device_capacity_bytes: self.setup.config.gpu_memory_bytes,
            makespan,
            jobs,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::engine::{EngineState, Location};
    use g10_dnn::models::ModelKind;
    use g10_dnn::tensor::TensorId;

    fn tiny_config() -> SystemConfig {
        SystemConfig::table2().with_gpu_memory(64 << 20)
    }

    #[test]
    fn policies_sweep_preserves_order_and_labels() {
        let workload = Workload::new(ModelKind::TinyCnn, 32);
        let reports = Experiment::new(&workload)
            .config(tiny_config())
            .policies(PolicyKind::FIGURE11)
            .expect("built-ins resolve");
        let labels: Vec<&str> = reports.iter().map(|r| r.policy.as_str()).collect();
        let expected: Vec<&str> = PolicyKind::FIGURE11.iter().map(|k| k.label()).collect();
        assert_eq!(labels, expected);
    }

    #[test]
    fn unknown_policy_error_lists_the_builtins() {
        let workload = Workload::new(ModelKind::TinyCnn, 8);
        let err = Experiment::new(&workload)
            .policy(PolicySpec::named("definitely-not-registered"))
            .run()
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("definitely-not-registered"), "{message}");
        for name in ["ideal", "base-uvm", "deepum+", "flashneuron", "g10"] {
            assert!(message.contains(name), "{message} should list {name}");
        }
    }

    #[test]
    fn spec_parsing_accepts_aliases_and_rejects_unknowns() {
        assert_eq!(
            "G10".parse::<PolicySpec>().unwrap(),
            PolicySpec::Builtin(PolicyKind::G10Full)
        );
        assert_eq!(
            "base_uvm".parse::<PolicySpec>().unwrap(),
            PolicySpec::Builtin(PolicyKind::BaseUvm)
        );
        assert_eq!(
            "DeepUM+".parse::<PolicySpec>().unwrap(),
            PolicySpec::Builtin(PolicyKind::DeepUmPlus)
        );
        assert!(matches!(
            "nope".parse::<PolicySpec>(),
            Err(SimError::UnknownPolicy { .. })
        ));
    }

    /// A minimal custom policy for registry tests: never evicts anything.
    struct NeverEvict;

    impl MemoryPolicy for NeverEvict {
        fn name(&self) -> String {
            "NeverEvict".to_string()
        }
        fn before_kernel(&mut self, _: usize, _: &mut EngineState) {}
        fn after_kernel(&mut self, _: usize, _: &mut EngineState) {}
        fn select_victim(&mut self, _: &EngineState) -> Option<(TensorId, Location)> {
            None
        }
    }

    struct NeverEvictProvider;

    impl PolicyProvider for NeverEvictProvider {
        fn build(&self, _ctx: &PolicyContext<'_>) -> Box<dyn MemoryPolicy> {
            Box::new(NeverEvict)
        }
    }

    #[test]
    fn explicit_registry_scopes_custom_policies() {
        let mut registry = PolicyRegistry::default();
        registry.register("Never Evict", Arc::new(NeverEvictProvider));
        assert!(registry.contains("never-evict"));
        assert!(registry.contains("never_evict"));

        let workload = Workload::new(ModelKind::TinyCnn, 16);
        let report = Experiment::new(&workload)
            .policy(PolicySpec::named("never-evict"))
            .config(tiny_config())
            .registry(&registry)
            .run()
            .expect("registered policy resolves");
        assert_eq!(report.policy, "NeverEvict");

        // The global registry never saw this registration.
        assert!(!registered_policy_names().contains(&"never-evict".to_string()));
    }

    #[test]
    fn global_registration_reaches_string_parsing() {
        register_policy("session-test-policy", Arc::new(NeverEvictProvider));
        let spec = "session-test-policy"
            .parse::<PolicySpec>()
            .expect("globally registered name parses");
        assert_eq!(spec, PolicySpec::named("session-test-policy"));
        assert!(registered_policy_names().contains(&"session-test-policy".to_string()));

        // PolicyKind parsing stays builtin-only, but its error now lists the
        // custom registration.
        let err = "session-test-policy".parse::<PolicyKind>().unwrap_err();
        assert!(err.to_string().contains("session-test-policy"));
    }

    #[test]
    fn builtin_names_cannot_be_shadowed() {
        let mut registry = PolicyRegistry::default();
        registry.register("toy", Arc::new(NeverEvictProvider));
        for kind in PolicyKind::ALL {
            for alias in kind.names() {
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    registry.register(alias, Arc::new(NeverEvictProvider));
                }));
                let message = *attempt
                    .expect_err("shadowing a built-in must panic")
                    .downcast::<String>()
                    .unwrap();
                assert_eq!(
                    message,
                    format!(
                        "cannot shadow the built-in policy `{}` with `{alias}`",
                        kind.names()[0]
                    )
                );
                // The alias still resolves to the built-in, and the custom
                // registration survives.
                assert_eq!(registry.names().len(), PolicyKind::ALL.len() + 1);
                assert!(matches!(
                    registry.resolve(alias),
                    Some(ProviderHandle::Builtin(_))
                ));
            }
        }
    }

    #[test]
    fn named_builtin_aliases_run_the_builtin() {
        let workload = Workload::new(ModelKind::TinyCnn, 16);
        let expected = Experiment::new(&workload)
            .policy(PolicyKind::BaseUvm)
            .config(tiny_config())
            .run()
            .unwrap();
        let registry = PolicyRegistry::default();
        for alias in ["Base UVM", "base_uvm", "baseuvm", "uvm"] {
            let spec = PolicySpec::named(alias);
            let session = Experiment::new(&workload)
                .policy(spec)
                .config(tiny_config());
            for report in [
                session.clone().registry(&registry).run().unwrap(),
                session.run().unwrap(),
            ] {
                assert_eq!(report.fingerprint(), expected.fingerprint(), "{alias}");
            }
        }
    }

    #[test]
    fn failed_global_registration_does_not_brick_the_registry() {
        // Shadowing a built-in panics while the global write lock is held;
        // the poisoned lock must be recovered (the registry is untouched —
        // collision checks run before any mutation), so resolution keeps
        // working process-wide afterwards.
        let attempt = std::panic::catch_unwind(|| {
            register_policy("base-uvm", Arc::new(NeverEvictProvider));
        });
        assert!(attempt.is_err(), "shadowing a built-in must panic");
        assert!(registered_policy_names().contains(&"base-uvm".to_string()));
        assert_eq!(
            "base-uvm".parse::<PolicySpec>().unwrap(),
            PolicySpec::Builtin(PolicyKind::BaseUvm)
        );
    }

    #[test]
    fn reregistering_a_custom_name_replaces_it() {
        let mut registry = PolicyRegistry::default();
        registry.register("toy", Arc::new(NeverEvictProvider));
        registry.register("other", Arc::new(NeverEvictProvider));
        registry.register("toy", Arc::new(NeverEvictProvider));
        let names = registry.names();
        let builtins: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.names()[0]).collect();
        assert_eq!(names[..PolicyKind::ALL.len()], builtins[..]);
        assert_eq!(names[PolicyKind::ALL.len()..], ["other", "toy"]);
    }
}
