//! Typed fault paths for untrusted policies.
//!
//! The open [`crate::session::PolicyRegistry`] means the replay engine runs
//! arbitrary third-party [`crate::policy::MemoryPolicy`] code.  This module
//! is the vocabulary of the hardening layer built around that trust
//! boundary:
//!
//! * [`PolicyFaultKind`] — every way a policy (or a corrupted engine
//!   bookkeeping structure) can violate the engine's invariants, reported
//!   through [`crate::session::SimError::PolicyFault`] instead of a panic
//!   or a silently wrong report.
//! * [`FaultRecord`] — the fault as recorded on a
//!   [`crate::metrics::SimReport`] after a successful fallback re-run.
//! * [`Validate`] — when the per-step [`crate::guard::InvariantGuard`]
//!   bookkeeping audit runs (debug-only by default, so the golden-pinned
//!   release fast path keeps its wall times).
//! * [`OnPolicyFault`] — what a session does when a policy faults: fail the
//!   cell, or quarantine the policy and re-run under a fallback design.
//! * [`FaultPlan`] / [`InjectedFault`] — deterministic fault injection for
//!   the five policy-shaped faults.  The session wraps the chosen design in
//!   a policy that misbehaves at the planned step through the same public
//!   [`crate::engine::EngineState`] API a hostile policy would use, so the
//!   engine has no injection path of its own.  The five bookkeeping kinds
//!   no policy can cause are covered by the guard's and the engine's unit
//!   tests instead.
//! * [`catch_policy_panic`] — `catch_unwind` containment with a silenced
//!   panic hook, so one panicking policy becomes a typed per-cell error
//!   instead of a backtrace and a dead `parallel_map` sweep.  The panic
//!   hook is process-wide, so its once-guard `INSTALL` is a `static`, and
//!   the per-thread `QUIET_PANICS` flag tells it which panics are contained.

use crate::engine::{EngineState, Location, RuntimeOptions};
use crate::policy::MemoryPolicy;
use crate::session::{PolicyContext, PolicyProvider};
use g10_dnn::tensor::{TensorId, TensorInfo};
use g10_time::Nanos;
use std::cell::Cell;
use std::fmt;
use std::panic;
use std::str::FromStr;
use std::sync::Once;

/// Every invariant violation the engine detects and attributes to the
/// running policy (or, for the bookkeeping kinds, to whatever corrupted the
/// engine state — the guard cannot always tell a hostile policy from an
/// engine bug, and deliberately treats both as faults rather than truth).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PolicyFaultKind {
    /// The provider's `build()` panicked before the engine ever ran.
    BuildPanic {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The policy panicked inside a per-step hook (`before_kernel`,
    /// `select_victim`, `after_kernel`) or anywhere else mid-replay.
    StepPanic {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// An action named a tensor id outside the graph's tensor universe.
    TensorOutOfRange {
        /// The offending tensor id.
        tensor: u32,
        /// Number of tensors in the graph.
        universe: usize,
    },
    /// A strict-mode eviction request named a tensor that is not an
    /// evictable GPU resident (not resident, in flight, or protected).
    EvictNonResident {
        /// The offending tensor id.
        tensor: u32,
    },
    /// A strict-mode prefetch request named a tensor that is already
    /// resident in GPU memory or already on its way there.
    PrefetchResident {
        /// The offending tensor id.
        tensor: u32,
    },
    /// GPU memory was overcommitted beyond the configured capacity plus
    /// the in-flight eviction frees, without the engine acknowledging the
    /// oversubscription in its report.
    CapacityExceeded {
        /// Allocated GPU bytes at the end of the step.
        used_bytes: u64,
        /// Configured GPU capacity plus pending eviction frees.
        allowed_bytes: u64,
    },
    /// The pending-free ledger lost its time order or its running byte
    /// prefix diverged from the per-completion entries.
    LedgerCorrupt {
        /// Sum of the per-completion byte counts in the ledger.
        ledger_bytes: u64,
        /// The running prefix counter the fast paths trust.
        prefix_bytes: u64,
    },
    /// Simulated time moved backwards across a step.
    TimeRegression {
        /// Time when the step started.
        from: Nanos,
        /// Time when the step ended.
        to: Nanos,
    },
    /// A per-kernel slowdown was NaN, infinite, or below 1.0 — the step
    /// accounting no longer describes a causal replay.
    NonFiniteSlowdown {
        /// The kernel whose slowdown is malformed.
        kernel: usize,
    },
    /// The residency bookkeeping desynchronised: the bytes the tensor table
    /// says live on the GPU (residents + in-flight arrivals + pending
    /// eviction frees) no longer match the allocator.
    ResidencyDesync {
        /// Bytes the tensor table accounts for.
        tracked_bytes: u64,
        /// Bytes the GPU allocator reports in use.
        allocated_bytes: u64,
    },
}

impl PolicyFaultKind {
    /// Stable kebab-case tag naming the kind — used by
    /// [`InjectedFault`] parsing, the on-disk run store, and tests that
    /// must enumerate kinds without matching on payloads.
    pub fn tag(&self) -> &'static str {
        match self {
            PolicyFaultKind::BuildPanic { .. } => "build-panic",
            PolicyFaultKind::StepPanic { .. } => "step-panic",
            PolicyFaultKind::TensorOutOfRange { .. } => "tensor-out-of-range",
            PolicyFaultKind::EvictNonResident { .. } => "evict-non-resident",
            PolicyFaultKind::PrefetchResident { .. } => "prefetch-resident",
            PolicyFaultKind::CapacityExceeded { .. } => "capacity-exceeded",
            PolicyFaultKind::LedgerCorrupt { .. } => "ledger-corrupt",
            PolicyFaultKind::TimeRegression { .. } => "time-regression",
            PolicyFaultKind::NonFiniteSlowdown { .. } => "non-finite-slowdown",
            PolicyFaultKind::ResidencyDesync { .. } => "residency-desync",
        }
    }
}

impl fmt::Display for PolicyFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyFaultKind::BuildPanic { message } => {
                write!(f, "provider build panicked: {message}")
            }
            PolicyFaultKind::StepPanic { message } => {
                write!(f, "policy panicked: {message}")
            }
            PolicyFaultKind::TensorOutOfRange { tensor, universe } => {
                write!(
                    f,
                    "tensor id {tensor} is outside the graph's universe of {universe} tensors"
                )
            }
            PolicyFaultKind::EvictNonResident { tensor } => {
                write!(
                    f,
                    "eviction of tensor {tensor}, which is not an evictable GPU resident"
                )
            }
            PolicyFaultKind::PrefetchResident { tensor } => {
                write!(
                    f,
                    "prefetch of tensor {tensor}, which is already resident or inbound"
                )
            }
            PolicyFaultKind::CapacityExceeded {
                used_bytes,
                allowed_bytes,
            } => {
                write!(
                    f,
                    "GPU memory silently overcommitted: {used_bytes} bytes allocated, \
                     {allowed_bytes} allowed (capacity + pending frees)"
                )
            }
            PolicyFaultKind::LedgerCorrupt {
                ledger_bytes,
                prefix_bytes,
            } => {
                write!(
                    f,
                    "pending-free ledger corrupt: entries sum to {ledger_bytes} bytes \
                     but the running prefix says {prefix_bytes}"
                )
            }
            PolicyFaultKind::TimeRegression { from, to } => {
                write!(
                    f,
                    "simulated time moved backwards: {} -> {} ns",
                    from.as_nanos(),
                    to.as_nanos()
                )
            }
            PolicyFaultKind::NonFiniteSlowdown { kernel } => {
                write!(
                    f,
                    "kernel {kernel} recorded a non-finite or sub-unity slowdown"
                )
            }
            PolicyFaultKind::ResidencyDesync {
                tracked_bytes,
                allocated_bytes,
            } => {
                write!(
                    f,
                    "residency bookkeeping desynchronised: tensor table tracks \
                     {tracked_bytes} GPU bytes, allocator holds {allocated_bytes}"
                )
            }
        }
    }
}

/// A policy fault as recorded on a [`crate::metrics::SimReport`] produced by
/// a fallback re-run: which policy faulted, at which step, and how.  The
/// same triple rides on [`crate::session::SimError::PolicyFault`] when the
/// session is configured to fail instead of degrade.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FaultRecord {
    /// The faulting policy, as the caller named it (spec string).
    pub policy: String,
    /// The kernel step at which the fault was detected (0 for faults during
    /// provider build / engine construction).
    pub step: usize,
    /// What went wrong.
    pub kind: PolicyFaultKind,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "policy fault in `{}` at step {}: {}",
            self.policy, self.step, self.kind
        )
    }
}

/// When the [`crate::guard::InvariantGuard`]'s per-step bookkeeping audit
/// runs.  The audit walks the tensor table and the pending-free ledger, so
/// it is O(tensors) per kernel — debug-only by default to keep the
/// golden-pinned release fast path at its measured wall times.
///
/// Cheap per-action checks (tensor-id range, strict-mode action legality)
/// are always on regardless of this setting, so every injectable
/// [`FaultPlan`] is caught without the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Validate {
    /// Audit every step in every build profile (the fuzz harness and any
    /// caller running untrusted policy code should use this).
    Always,
    /// Audit only in debug builds (`cfg(debug_assertions)`).  The default:
    /// `cargo test` exercises the guard on every engine test while release
    /// replays stay allocation- and scan-free.
    #[default]
    DebugOnly,
}

impl Validate {
    /// Whether the audit runs in this build.
    pub fn is_active(self) -> bool {
        match self {
            Validate::Always => true,
            Validate::DebugOnly => cfg!(debug_assertions),
        }
    }
}

/// What a session does with a cell whose policy faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum OnPolicyFault {
    /// Fail the cell with [`crate::session::SimError::PolicyFault`].  The
    /// default.
    #[default]
    Fail,
    /// Quarantine the faulting policy and re-run the cell from scratch
    /// under this fallback design (typically Base UVM), recording the
    /// original fault on the resulting report
    /// ([`crate::metrics::SimReport::policy_fault`]).  A fault in the
    /// fallback itself fails the cell — degradation is one level deep.
    FallbackTo(crate::session::PolicySpec),
}

/// A deterministic fault to inject at a fixed kernel step, used to exercise
/// every policy-shaped fault path without writing a hostile policy per
/// kind.  Installed via [`crate::engine::RuntimeOptions::fault_plan`]
/// (tests) or the hidden `experiments run --inject-fault <step>:<kind>`
/// flag; the session then runs the chosen design wrapped in a policy that
/// misbehaves through the public API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The kernel step at which the fault fires ([`InjectedFault::BuildPanic`]
    /// fires during provider build and ignores the step).
    pub step: usize,
    /// Which fault to inject.
    pub fault: InjectedFault,
}

impl FromStr for FaultPlan {
    type Err = String;

    /// Parses `"<step>:<kind>"`, e.g. `"3:step-panic"`.  Kinds are the
    /// [`InjectedFault::tag`] names.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (step, kind) = s
            .split_once(':')
            .ok_or_else(|| format!("fault plan `{s}` is not of the form <step>:<kind>"))?;
        let step: usize = step
            .trim()
            .parse()
            .map_err(|_| format!("fault-plan step `{step}` is not an integer"))?;
        let fault = InjectedFault::from_tag(kind.trim()).ok_or_else(|| {
            format!(
                "unknown fault kind `{kind}`; known kinds: {}",
                InjectedFault::ALL
                    .iter()
                    .map(|f| f.tag())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        Ok(FaultPlan { step, fault })
    }
}

/// The injectable faults: the policy-shaped [`PolicyFaultKind`]s, the ones
/// a hostile policy can cause through the public API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic inside the provider's `build()`.
    BuildPanic,
    /// Panic inside the policy's `before_kernel` hook.
    StepPanic,
    /// Prefetch a tensor id just outside the graph's universe.
    TensorOutOfRange,
    /// Strictly request eviction of a tensor that is not on the GPU.
    EvictNonResident,
    /// Strictly request a prefetch of a tensor already on the GPU.
    PrefetchResident,
}

impl InjectedFault {
    /// Every injectable fault, in [`PolicyFaultKind`] declaration order.
    pub const ALL: [InjectedFault; 5] = [
        InjectedFault::BuildPanic,
        InjectedFault::StepPanic,
        InjectedFault::TensorOutOfRange,
        InjectedFault::EvictNonResident,
        InjectedFault::PrefetchResident,
    ];

    /// The kebab-case tag (matches [`PolicyFaultKind::tag`] of the fault
    /// this injection produces).
    pub const fn tag(self) -> &'static str {
        match self {
            InjectedFault::BuildPanic => "build-panic",
            InjectedFault::StepPanic => "step-panic",
            InjectedFault::TensorOutOfRange => "tensor-out-of-range",
            InjectedFault::EvictNonResident => "evict-non-resident",
            InjectedFault::PrefetchResident => "prefetch-resident",
        }
    }

    /// Resolves a tag back to the fault, for [`FaultPlan`] parsing.
    pub fn from_tag(tag: &str) -> Option<InjectedFault> {
        InjectedFault::ALL.into_iter().find(|f| f.tag() == tag)
    }
}

/// A provider that builds `inner`'s design and makes it misbehave as
/// `plan` says.  Every method forwards to `inner`, so a plan that never
/// fires leaves the run byte-identical to the unwrapped one.
pub(crate) struct Misbehaving<'a> {
    pub(crate) inner: &'a dyn PolicyProvider,
    pub(crate) plan: FaultPlan,
}

impl PolicyProvider for Misbehaving<'_> {
    fn build(&self, ctx: &PolicyContext<'_>) -> Box<dyn MemoryPolicy> {
        if self.plan.fault == InjectedFault::BuildPanic {
            panic!("injected provider build panic");
        }
        Box::new(MisbehavingPolicy {
            inner: self.inner.build(ctx),
            plan: self.plan,
            num_tensors: ctx.workload.graph.num_tensors(),
        })
    }

    fn adjust_options(&self, options: &mut RuntimeOptions) {
        self.inner.adjust_options(options);
    }
}

/// The policy [`Misbehaving`] builds: the wrapped design, plus one illegal
/// action in `before_kernel` at the first step at or past `plan.step`
/// where the action is possible.  The fault aborts the run, so it fires
/// once.
struct MisbehavingPolicy {
    inner: Box<dyn MemoryPolicy>,
    plan: FaultPlan,
    num_tensors: usize,
}

impl MemoryPolicy for MisbehavingPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn initial_location(&self, tensor: &TensorInfo) -> Location {
        self.inner.initial_location(tensor)
    }

    fn before_kernel(&mut self, kernel: usize, state: &mut EngineState) {
        let first = |state: &EngineState, on_gpu: bool| {
            (0..self.num_tensors as u32)
                .map(TensorId::new)
                .find(|&tensor| (state.location(tensor) == Location::Gpu) == on_gpu)
        };
        match self.plan.fault {
            _ if kernel < self.plan.step => {}
            InjectedFault::BuildPanic => {}
            InjectedFault::StepPanic => panic!("injected policy panic at step {kernel}"),
            InjectedFault::TensorOutOfRange => {
                state.request_prefetch(TensorId::new(self.num_tensors as u32));
            }
            InjectedFault::EvictNonResident => {
                if let Some(tensor) = first(state, false) {
                    state.request_evict_strict(tensor, Location::Ssd);
                }
            }
            InjectedFault::PrefetchResident => {
                if let Some(tensor) = first(state, true) {
                    state.request_prefetch_strict(tensor);
                }
            }
        }
        self.inner.before_kernel(kernel, state);
    }

    fn after_kernel(&mut self, kernel: usize, state: &mut EngineState) {
        self.inner.after_kernel(kernel, state);
    }

    fn select_victim(&mut self, state: &EngineState) -> Option<(TensorId, Location)> {
        self.inner.select_victim(state)
    }

    fn pays_fault_overhead(&self) -> bool {
        self.inner.pays_fault_overhead()
    }
}

// ---------------------------------------------------------------------------
// Panic containment
// ---------------------------------------------------------------------------

thread_local! {
    /// Set while [`catch_policy_panic`] is on the stack of this thread, so
    /// the forwarding panic hook stays silent for contained panics only.
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a forwarding panic hook that suppresses
/// output for panics currently being contained by [`catch_policy_panic`] on
/// this thread, and defers to the previously installed hook otherwise.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|quiet| quiet.get()) {
                previous(info);
            }
        }));
    });
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, containing any panic as an `Err` with its message, without
/// printing a backtrace for the contained panic.  Used around provider
/// `build()` calls and every engine step, so one hostile (or merely buggy)
/// policy turns into a typed per-cell error instead of killing a whole
/// `parallel_map` sweep.
///
/// The closure is not required to be [`UnwindSafe`](std::panic::UnwindSafe):
/// any engine state `f` mutated is considered poisoned after an `Err` and
/// must be discarded — degradation re-runs the cell from scratch.
pub fn catch_policy_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    QUIET_PANICS.with(|quiet| quiet.set(true));
    let outcome = panic::catch_unwind(panic::AssertUnwindSafe(f));
    QUIET_PANICS.with(|quiet| quiet.set(false));
    outcome.map_err(panic_message)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn catch_policy_panic_contains_and_reports() {
        assert_eq!(catch_policy_panic(|| 41 + 1), Ok(42));
        let err = catch_policy_panic(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(err, "boom 7");
        let err = catch_policy_panic(|| std::panic::panic_any(13u32)).unwrap_err();
        assert_eq!(err, "non-string panic payload");
        // The hook keeps working for subsequent contained panics.
        assert!(catch_policy_panic(|| panic!("again")).is_err());
    }

    #[test]
    fn validate_gates_on_build_profile() {
        assert!(Validate::Always.is_active());
        assert_eq!(Validate::DebugOnly.is_active(), cfg!(debug_assertions));
        assert_eq!(Validate::default(), Validate::DebugOnly);
    }
}
