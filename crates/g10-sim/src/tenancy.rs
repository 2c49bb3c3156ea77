//! Multi-tenant replay: several jobs sharing one simulated GPU.
//!
//! The paper evaluates one workload per device, but a serving node runs
//! many: TENSILE schedules tensors across *multiple dynamic workloads*
//! contending for the same GPU.  This module reproduces that regime as a
//! layer over the existing [`ReplayEngine`] —
//! never a fork of it:
//!
//! * [`JobSpec`] — one tenant's workload plus its arrival time, priority
//!   (stride-scheduling weight) and optional GPU byte quota.
//! * [`TenantScheduler`] — merges per-job virtual kernel timelines onto one
//!   device timeline with stride scheduling: each job keeps its own engine
//!   and clock, the device interleaves whole kernels (non-preemptive)
//!   proportionally to priority as jobs arrive and finish.
//! * [`DeviceLedger`] — the shared cross-job view.  Every per-job engine
//!   posts tenant-tagged accounting (resident bytes, pending frees,
//!   migration traffic) into it; policies read it back through
//!   [`EngineState::device_ledger`](crate::engine::EngineState::device_ledger)
//!   to make cross-tenant decisions.
//! * [`TensilePolicy`] — a TENSILE-style cross-job-aware design registered
//!   as an ordinary [`PolicyProvider`]
//!   (name `tensile`): when the device is over-committed, the
//!   lowest-priority tenant holding more than its weighted fair share
//!   yields its coldest tensors first.
//!
//! Single-job replay through this path is byte-identical to the legacy
//! engine: the ledger is pure accounting, quotas default to the full
//! device, and the scheduler degenerates to the engine's own loop (pinned
//! by `tests/tenancy_equivalence.rs` against the golden-report models).
//!
//! # Example
//!
//! Two tenants share a 64 MiB device; the high-priority job arrives late
//! but overtakes the background job:
//!
//! ```
//! use std::sync::Arc;
//! use g10_core::config::SystemConfig;
//! use g10_dnn::models::ModelKind;
//! use g10_sim::tenancy::JobSpec;
//! use g10_sim::{Experiment, Workload};
//! use g10_time::Nanos;
//!
//! g10_sim::tenancy::register_tensile();
//! let big = Arc::new(Workload::new(ModelKind::TinyCnn, 32));
//! let small = Arc::new(Workload::new(ModelKind::TinyTransformer, 16));
//! let report = Experiment::jobs([
//!     JobSpec::new("background", Arc::clone(&big)).priority(1),
//!     JobSpec::new("latency", Arc::clone(&small))
//!         .priority(8)
//!         .arrival(Nanos::from_micros(50))
//!         .quota_bytes(16 << 20),
//! ])
//! .policy("tensile".parse::<g10_sim::PolicySpec>()?)
//! .config(SystemConfig::table2().with_gpu_memory(64 << 20))
//! .run_multi()?;
//!
//! assert_eq!(report.jobs.len(), 2);
//! // Per-job slowdown is measured against an unconstrained solo run on
//! // the full device, so contention can only slow a job down.
//! for job in &report.jobs {
//!     assert!(job.slowdown >= 1.0);
//! }
//! assert!(report.aggregate_throughput() > 0.0);
//! # Ok::<(), g10_sim::SimError>(())
//! ```
//!
//! A solo job through the multi path reproduces the classic engine result
//! exactly:
//!
//! ```
//! use std::sync::Arc;
//! use g10_core::config::SystemConfig;
//! use g10_dnn::models::ModelKind;
//! use g10_sim::tenancy::JobSpec;
//! use g10_sim::{Experiment, PolicyKind, Workload};
//!
//! let workload = Arc::new(Workload::new(ModelKind::TinyCnn, 16));
//! let config = SystemConfig::table2().with_gpu_memory(64 << 20);
//! let multi = Experiment::jobs([JobSpec::new("solo", Arc::clone(&workload))])
//!     .policy(PolicyKind::BaseUvm)
//!     .config(config)
//!     .run_multi()?;
//! let solo = Experiment::new(&workload)
//!     .policy(PolicyKind::BaseUvm)
//!     .config(config)
//!     .run()?;
//! assert_eq!(multi.jobs[0].report.fingerprint(), solo.fingerprint());
//! assert_eq!(multi.jobs[0].slowdown, 1.0);
//! # Ok::<(), g10_sim::SimError>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::engine::{EngineError, EngineState, Location, ReplayEngine};
use crate::metrics::{ReportFingerprint, SimReport};
use crate::policy::MemoryPolicy;
use crate::runner::Workload;
use crate::session::{PolicyContext, PolicyProvider};
use g10_time::Nanos;

/// Identifies one tenant (one job) within a multi-tenant run.  Tenant 0 is
/// the solo default: engines built outside the tenancy layer run as
/// [`TenantId::SOLO`] and post no ledger traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The default tenant of a single-job engine.
    pub const SOLO: TenantId = TenantId(0);
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// One job in a multi-tenant mix: a workload plus its tenancy contract.
///
/// `priority` is the stride-scheduling weight (clamped to at least 1): a
/// priority-8 job receives 8× the device time of a priority-1 job while
/// both are runnable.  `quota_bytes` caps the job's GPU allocation; `None`
/// grants the full device (and makes a solo run byte-identical to the
/// legacy engine).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display name used in reports and CSVs.
    pub name: String,
    /// The replayed workload (shared, since solo baselines replay it too).
    pub workload: Arc<Workload>,
    /// Device-clock instant at which the job becomes runnable.
    pub arrival: Nanos,
    /// Stride-scheduling weight; clamped to at least 1.
    pub priority: u8,
    /// Optional GPU byte quota; `None` means the full device.
    pub quota_bytes: Option<u64>,
}

impl JobSpec {
    /// A job arriving at time zero with priority 1 and no quota.
    pub fn new(name: impl Into<String>, workload: Arc<Workload>) -> JobSpec {
        JobSpec {
            name: name.into(),
            workload,
            arrival: Nanos::ZERO,
            priority: 1,
            quota_bytes: None,
        }
    }

    /// Sets the arrival time on the shared device clock.
    #[must_use]
    pub fn arrival(mut self, arrival: Nanos) -> JobSpec {
        self.arrival = arrival;
        self
    }

    /// Sets the stride-scheduling weight (clamped to at least 1).
    #[must_use]
    pub fn priority(mut self, priority: u8) -> JobSpec {
        self.priority = priority.max(1);
        self
    }

    /// Caps the job's GPU allocation at `quota` bytes.
    #[must_use]
    pub fn quota_bytes(mut self, quota: u64) -> JobSpec {
        self.quota_bytes = Some(quota);
        self
    }

    /// The scheduling weight: `priority`, never below 1.
    pub fn weight(&self) -> u64 {
        u64::from(self.priority.max(1))
    }
}

/// Per-tenant accounting maintained by the [`DeviceLedger`]: residency,
/// pending frees and tenant-fair bandwidth tallies.  Cumulative counters
/// (`evictions`, `migrations_*`, `bytes_*`) survive a fallback restart;
/// residency is re-seeded when a quarantined job's engine is rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Stride weight as registered.
    pub priority: u8,
    /// Registered GPU byte quota, if any.
    pub quota_bytes: Option<u64>,
    /// Bytes currently resident in GPU memory.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub resident_high_water: u64,
    /// Bytes freed by in-flight evictions not yet matured.
    pub pending_free_bytes: u64,
    /// Evictions issued (each is one outbound migration).
    pub evictions: u64,
    /// Inbound migrations (prefetches + demand fetches).
    pub migrations_in: u64,
    /// Outbound migrations (evictions).
    pub migrations_out: u64,
    /// Inbound migrated bytes.
    pub bytes_in: u64,
    /// Outbound migrated bytes.
    pub bytes_out: u64,
}

/// The shared cross-job view of one device: every per-job engine posts
/// tenant-tagged accounting here, and cross-job-aware policies (see
/// [`TensilePolicy`]) read it back to decide who should yield memory.
///
/// The ledger is *pure accounting*: the engine never changes behaviour
/// based on it, so attaching one to a solo run is byte-neutral.
#[derive(Debug)]
pub struct DeviceLedger {
    device_capacity: u64,
    tenants: Mutex<BTreeMap<TenantId, TenantUsage>>,
}

impl DeviceLedger {
    /// A ledger for a device with `device_capacity` bytes of GPU memory.
    pub fn new(device_capacity: u64) -> DeviceLedger {
        DeviceLedger {
            device_capacity,
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// GPU bytes of the device this ledger describes.
    pub fn device_capacity(&self) -> u64 {
        self.device_capacity
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<TenantId, TenantUsage>> {
        // Updates are plain field arithmetic and cannot panic mid-write, so
        // a poisoned lock still guards consistent data.
        self.tenants.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Declares a tenant with its scheduling weight and quota.
    pub fn register(&self, tenant: TenantId, priority: u8, quota_bytes: Option<u64>) {
        let mut tenants = self.lock();
        let usage = tenants.entry(tenant).or_default();
        usage.priority = priority.max(1);
        usage.quota_bytes = quota_bytes;
    }

    /// Applies one accounting update; auto-registers unknown tenants.
    pub(crate) fn note(&self, tenant: TenantId, update: impl FnOnce(&mut TenantUsage)) {
        let mut tenants = self.lock();
        update(tenants.entry(tenant).or_default());
    }

    /// Zeroes a tenant's residency and pending-free accounting, keeping the
    /// cumulative traffic tallies.  Called when a quarantined job's engine
    /// is rebuilt for fallback: the replacement engine re-posts its initial
    /// placement from scratch.
    pub fn reset_residency(&self, tenant: TenantId) {
        self.note(tenant, |usage| {
            usage.resident_bytes = 0;
            usage.pending_free_bytes = 0;
        });
    }

    /// A point-in-time copy of one tenant's accounting.
    pub fn usage(&self, tenant: TenantId) -> TenantUsage {
        self.lock().get(&tenant).copied().unwrap_or_default()
    }

    /// A point-in-time copy of every tenant's accounting.
    pub fn snapshot(&self) -> BTreeMap<TenantId, TenantUsage> {
        self.lock().clone()
    }

    /// Sum of all tenants' GPU-resident bytes.
    pub fn total_resident_bytes(&self) -> u64 {
        self.lock().values().map(|u| u.resident_bytes).sum()
    }

    /// Whether `tenant` currently holds more GPU bytes than its quota.
    pub fn over_quota(&self, tenant: TenantId) -> bool {
        let tenants = self.lock();
        match tenants.get(&tenant) {
            Some(usage) => usage
                .quota_bytes
                .is_some_and(|quota| usage.resident_bytes > quota),
            None => false,
        }
    }

    /// Tenants in eviction-preference order: ascending priority, then id —
    /// the order in which a cross-job-aware policy asks tenants to give
    /// memory back.
    pub fn eviction_preference(&self) -> Vec<TenantId> {
        let tenants = self.lock();
        let mut order: Vec<(u8, TenantId)> = tenants
            .iter()
            .map(|(id, usage)| (usage.priority.max(1), *id))
            .collect();
        order.sort();
        order.into_iter().map(|(_, id)| id).collect()
    }

    /// TENSILE's cross-job yield rule: `tenant` should proactively evict
    /// its coldest tensors when it is over its own quota, or when the
    /// device is over-committed and `tenant` is the *lowest-priority*
    /// tenant still holding more than its priority-weighted fair share —
    /// low-priority tenants' cold tensors go first.
    pub fn should_yield(&self, tenant: TenantId) -> bool {
        let tenants = self.lock();
        let Some(me) = tenants.get(&tenant) else {
            return false;
        };
        if me
            .quota_bytes
            .is_some_and(|quota| me.resident_bytes > quota)
        {
            return true;
        }
        let total: u64 = tenants.values().map(|u| u.resident_bytes).sum();
        if total <= self.device_capacity {
            return false;
        }
        let total_weight: u64 = tenants
            .values()
            .map(|u| u64::from(u.priority.max(1)))
            .sum::<u64>()
            .max(1);
        let yielder = tenants
            .iter()
            .filter(|(_, usage)| {
                let share = (u128::from(self.device_capacity) * u128::from(usage.priority.max(1))
                    / u128::from(total_weight)) as u64;
                usage.resident_bytes > share
            })
            .min_by_key(|(id, usage)| (usage.priority.max(1), **id))
            .map(|(id, _)| *id);
        yielder == Some(tenant)
    }
}

/// A fault surfaced by one lane of a multi-tenant run: which tenant's
/// engine raised it, and the underlying typed error.
#[derive(Debug)]
pub struct TenantFault {
    /// The tenant whose engine faulted.
    pub tenant: TenantId,
    /// The contained engine error (policy fault or cancellation).
    pub error: EngineError,
}

/// Fixed-point scale for stride passes: pass advances by
/// `busy_nanos * PASS_SCALE / weight` per kernel, so integer division
/// loses less than one 2^-16 ns-equivalent per step.
const PASS_SCALE: u128 = 1 << 16;

struct Lane<'a> {
    tenant: TenantId,
    name: String,
    arrival: Nanos,
    priority: u8,
    quota_bytes: Option<u64>,
    engine: ReplayEngine<'a>,
    /// Stride pass value; the runnable lane with the smallest pass runs next.
    pass: u128,
    /// Whether the lane has been considered runnable at least once (its
    /// pass has been aligned with the incumbents').
    launched: bool,
    started: Option<Nanos>,
    finished: Option<Nanos>,
    executed_kernels: u64,
    restarts: u32,
}

/// Completion record of one lane, produced by [`TenantScheduler::finish`].
#[derive(Debug)]
pub struct LaneOutcome {
    /// The lane's tenant id.
    pub tenant: TenantId,
    /// Job display name.
    pub name: String,
    /// Arrival instant on the device clock.
    pub arrival: Nanos,
    /// Stride weight.
    pub priority: u8,
    /// Registered quota, if any.
    pub quota_bytes: Option<u64>,
    /// Device instant at which the job first ran.
    pub started: Nanos,
    /// Device instant at which the job's last kernel completed.
    pub finished: Nanos,
    /// Kernels executed by the final (possibly fallback) engine.
    pub executed_kernels: u64,
    /// Invariant-guard audits the final engine ran.
    pub audited_steps: u64,
    /// Times the lane's engine was replaced after a contained fault.
    pub restarts: u32,
    /// The job's own replay report (its private virtual clock).
    pub report: SimReport,
}

/// Merges per-job virtual kernel timelines onto one device timeline.
///
/// Scheduling is *stride scheduling* over whole kernels: each runnable
/// lane carries a pass value that advances by `busy / weight` whenever one
/// of its kernels (including its stalls) occupies the device; the lane
/// with the smallest pass runs next, ties broken by admission order.  A
/// newly arrived lane starts at the incumbents' minimum pass, so it
/// competes fairly without starving jobs that already made progress.
///
/// The scheduler is resumable across faults: [`TenantScheduler::run`]
/// returns the offending [`TenantFault`] with all other lanes intact, the
/// caller swaps in a replacement engine via
/// [`TenantScheduler::replace_engine`], and `run` continues.
pub struct TenantScheduler<'a> {
    lanes: Vec<Lane<'a>>,
    device_now: Nanos,
    ledger: Arc<DeviceLedger>,
}

impl<'a> TenantScheduler<'a> {
    /// An empty scheduler over the given shared ledger.
    pub fn new(ledger: Arc<DeviceLedger>) -> TenantScheduler<'a> {
        TenantScheduler {
            lanes: Vec::new(),
            device_now: Nanos::ZERO,
            ledger,
        }
    }

    /// The shared cross-job ledger.
    pub fn ledger(&self) -> &Arc<DeviceLedger> {
        &self.ledger
    }

    /// The device clock: total busy time consumed so far plus any idle
    /// gaps waiting for arrivals.
    pub fn device_now(&self) -> Nanos {
        self.device_now
    }

    /// Admits one job with its already-built engine.  Lanes are scheduled
    /// in admission order on pass ties.
    pub fn admit(&mut self, tenant: TenantId, job: &JobSpec, engine: ReplayEngine<'a>) {
        self.lanes.push(Lane {
            tenant,
            name: job.name.clone(),
            arrival: job.arrival,
            priority: job.priority.max(1),
            quota_bytes: job.quota_bytes,
            engine,
            pass: 0,
            launched: false,
            started: None,
            finished: None,
            executed_kernels: 0,
            restarts: 0,
        });
    }

    /// Replaces a faulted lane's engine (fallback degradation): the job
    /// restarts from kernel 0 on the replacement, keeping its accumulated
    /// pass and consumed device time — the fault's cost stays on the bill.
    /// The caller must [`DeviceLedger::reset_residency`] *before* building
    /// the replacement engine so residency is not double-counted.
    ///
    /// # Panics
    ///
    /// If no lane with this tenant id was admitted.
    pub fn replace_engine(&mut self, tenant: TenantId, engine: ReplayEngine<'a>) {
        let lane = self
            .lanes
            .iter_mut()
            .find(|lane| lane.tenant == tenant)
            .expect("replace_engine: unknown tenant");
        lane.engine = engine;
        lane.executed_kernels = 0;
        lane.finished = None;
        lane.restarts += 1;
    }

    /// Drives all lanes to completion, or stops at the first fault.
    ///
    /// # Errors
    ///
    /// Returns the faulting tenant and its typed [`EngineError`]; every
    /// other lane keeps its progress and the scheduler stays resumable.
    pub fn run(&mut self) -> Result<(), TenantFault> {
        loop {
            // Phase 1: next arrival and the incumbents' minimum pass.
            let mut next_arrival: Option<Nanos> = None;
            let mut min_running_pass: Option<u128> = None;
            for lane in &self.lanes {
                if lane.finished.is_some() {
                    continue;
                }
                if lane.arrival > self.device_now {
                    next_arrival = Some(next_arrival.map_or(lane.arrival, |t| t.min(lane.arrival)));
                    continue;
                }
                if lane.launched {
                    min_running_pass =
                        Some(min_running_pass.map_or(lane.pass, |p| p.min(lane.pass)));
                }
            }
            // Phase 2: align newly runnable lanes with the incumbents.
            let baseline = min_running_pass.unwrap_or(0);
            for lane in &mut self.lanes {
                if lane.finished.is_none() && lane.arrival <= self.device_now && !lane.launched {
                    lane.launched = true;
                    lane.pass = baseline;
                    lane.started = Some(self.device_now);
                }
            }
            // Phase 3: smallest (pass, admission index) runs one kernel.
            let mut best: Option<usize> = None;
            for (i, lane) in self.lanes.iter().enumerate() {
                if lane.finished.is_some() || lane.arrival > self.device_now {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => lane.pass < self.lanes[b].pass,
                };
                if better {
                    best = Some(i);
                }
            }
            let Some(i) = best else {
                match next_arrival {
                    // Idle until the next job arrives.
                    Some(arrival) => {
                        self.device_now = arrival;
                        continue;
                    }
                    None => return Ok(()),
                }
            };
            let lane = &mut self.lanes[i];
            let outcome = match lane.engine.advance() {
                Ok(outcome) => outcome,
                Err(error) => {
                    return Err(TenantFault {
                        tenant: lane.tenant,
                        error,
                    })
                }
            };
            lane.executed_kernels += 1;
            lane.pass = lane.pass.saturating_add(
                u128::from(outcome.busy.as_nanos()) * PASS_SCALE / u128::from(lane.priority.max(1)),
            );
            self.device_now = self.device_now.saturating_add(outcome.busy);
            if lane.engine.is_done() {
                lane.finished = Some(self.device_now);
            }
        }
    }

    /// Consumes the scheduler, returning every lane's completion record.
    ///
    /// # Panics
    ///
    /// If any lane has not finished ([`TenantScheduler::run`] returned a
    /// fault that was never resolved).
    pub fn finish(self) -> Vec<LaneOutcome> {
        self.lanes
            .into_iter()
            .map(|lane| {
                let finished = lane
                    .finished
                    .expect("finish() called before every lane completed");
                LaneOutcome {
                    tenant: lane.tenant,
                    name: lane.name,
                    arrival: lane.arrival,
                    priority: lane.priority,
                    quota_bytes: lane.quota_bytes,
                    started: lane.started.unwrap_or(lane.arrival),
                    finished,
                    executed_kernels: lane.executed_kernels,
                    audited_steps: lane.engine.audits_run(),
                    restarts: lane.restarts,
                    report: lane.engine.into_report(),
                }
            })
            .collect()
    }
}

/// One job's completion record inside a [`MultiReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job display name.
    pub name: String,
    /// Tenant id (admission order).
    pub tenant: TenantId,
    /// Stride weight.
    pub priority: u8,
    /// GPU byte quota, if one was set.
    pub quota_bytes: Option<u64>,
    /// Arrival instant on the device clock.
    pub arrival: Nanos,
    /// Device instant of the job's first kernel.
    pub started: Nanos,
    /// Device instant of the job's last kernel.
    pub finished: Nanos,
    /// Total time of the unconstrained solo baseline run (full device, no
    /// contention) — the denominator of `slowdown`.
    pub solo_time: Nanos,
    /// `(finished - arrival) / solo_time`: queueing + contention + quota
    /// pressure, ≥ 1.0 up to float rounding.
    pub slowdown: f64,
    /// Invariant-guard audits the job's engine ran (hardening telemetry:
    /// a hostile policy must not starve the guard).
    pub audited_steps: u64,
    /// Times the job was restarted on a fallback engine.
    pub restarts: u32,
    /// Per-tenant ledger tallies (residency high water, migration and
    /// bandwidth accounting).
    pub usage: TenantUsage,
    /// The job's own replay report on its private virtual clock.
    pub report: SimReport,
}

impl JobReport {
    /// Wall time the job spent in the system: `finished - arrival`.
    pub fn multi_time(&self) -> Nanos {
        self.finished.saturating_sub(self.arrival)
    }

    /// Samples per second over the job's time in the system.
    pub fn throughput(&self) -> f64 {
        let secs = self.multi_time().as_secs_f64();
        if secs > 0.0 {
            self.report.batch as f64 / secs
        } else {
            0.0
        }
    }
}

/// The result of [`run_multi`](crate::session::MultiExperiment::run_multi):
/// aggregate throughput, per-job slowdown vs the solo baseline, and
/// per-tenant migration/eviction tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiReport {
    /// The policy spec the mix ran under, as the caller wrote it.
    pub policy: String,
    /// GPU bytes of the shared device.
    pub device_capacity_bytes: u64,
    /// Device instant at which the last job finished.
    pub makespan: Nanos,
    /// Per-job completion records, in admission (tenant-id) order.
    pub jobs: Vec<JobReport>,
}

impl MultiReport {
    /// Total samples per second: sum of job batches over the makespan.
    pub fn aggregate_throughput(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs > 0.0 {
            self.jobs.iter().map(|j| j.report.batch as f64).sum::<f64>() / secs
        } else {
            0.0
        }
    }

    /// The largest per-job slowdown in the mix.
    pub fn max_slowdown(&self) -> f64 {
        self.jobs.iter().map(|j| j.slowdown).fold(0.0, f64::max)
    }

    /// Deterministic FNV-1a digest over every job's report fingerprint and
    /// completion times; two runs of the same mix must agree exactly.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = ReportFingerprint::new();
        fp.push(self.device_capacity_bytes);
        fp.push(self.makespan.as_nanos());
        fp.push(self.jobs.len() as u64);
        for job in &self.jobs {
            fp.push(u64::from(job.tenant.0));
            fp.push(job.arrival.as_nanos());
            fp.push(job.started.as_nanos());
            fp.push(job.finished.as_nanos());
            fp.push(job.slowdown.to_bits());
            fp.push(job.report.fingerprint());
        }
        fp.finish()
    }
}

/// Per-hook cap on proactive evictions, bounding the work a single
/// `before_kernel`/`after_kernel` call can do.
const TENSILE_EVICTIONS_PER_HOOK: u32 = 32;

/// A TENSILE-style cross-job-aware memory policy.
///
/// Before and after every kernel the policy consults the shared
/// [`DeviceLedger`]: if its tenant should yield (over quota, or the
/// lowest-priority over-fair-share tenant on an over-committed device) it
/// evicts its own least-recently-used tensors toward host memory until the
/// pressure clears.  Demand paging and victim selection otherwise match
/// Base UVM, so without a ledger the policy degrades to plain LRU paging.
#[derive(Debug, Default)]
pub struct TensilePolicy;

impl TensilePolicy {
    /// A fresh policy instance (stateless between kernels).
    pub fn new() -> TensilePolicy {
        TensilePolicy
    }

    fn yield_cold_tensors(state: &mut EngineState) {
        let Some(ledger) = state.device_ledger().cloned() else {
            return;
        };
        let tenant = state.tenant();
        for _ in 0..TENSILE_EVICTIONS_PER_HOOK {
            if !ledger.should_yield(tenant) {
                break;
            }
            let Some(victim) = state.lru_victim_candidate() else {
                break;
            };
            let bytes = state.bytes_of(victim);
            let destination = if state.host_free_bytes() >= bytes {
                Location::Host
            } else {
                Location::Ssd
            };
            if !state.request_evict(victim, destination) {
                break;
            }
        }
    }
}

impl MemoryPolicy for TensilePolicy {
    fn name(&self) -> String {
        "TENSILE".to_string()
    }

    fn before_kernel(&mut self, _kernel: usize, state: &mut EngineState) {
        TensilePolicy::yield_cold_tensors(state);
    }

    fn after_kernel(&mut self, _kernel: usize, state: &mut EngineState) {
        TensilePolicy::yield_cold_tensors(state);
    }
}

/// [`PolicyProvider`] for [`TensilePolicy`]; register with
/// [`register_tensile`] and the name `tensile` works everywhere a built-in
/// does (CLI, serve daemon, session string parsing).
#[derive(Debug, Default)]
pub struct TensileProvider;

impl PolicyProvider for TensileProvider {
    fn build(&self, _context: &PolicyContext<'_>) -> Box<dyn MemoryPolicy> {
        Box::new(TensilePolicy::new())
    }
}

/// Registers the TENSILE-style policy in the global registry under
/// `tensile`.  Idempotent: repeated calls replace the previous
/// registration with an identical one.
pub fn register_tensile() {
    crate::session::register_policy("tensile", Arc::new(TensileProvider));
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::engine::RuntimeOptions;
    use g10_core::config::SystemConfig;
    use g10_dnn::models::ModelKind;

    fn tiny_config() -> SystemConfig {
        SystemConfig::table2().with_gpu_memory(64 << 20)
    }

    fn engine_for<'a>(
        workload: &'a Workload,
        config: &'a SystemConfig,
        tenant: TenantId,
        ledger: &Arc<DeviceLedger>,
    ) -> ReplayEngine<'a> {
        let options = RuntimeOptions {
            tenant,
            device_ledger: Some(Arc::clone(ledger)),
            ..RuntimeOptions::default()
        };
        ReplayEngine::new(
            &workload.graph,
            &workload.trace,
            config,
            Box::new(TensilePolicy::new()),
            options,
        )
    }

    #[test]
    fn job_spec_builders_and_weight_clamp() {
        let workload = Arc::new(Workload::new(ModelKind::TinyCnn, 8));
        let job = JobSpec::new("j", Arc::clone(&workload))
            .priority(0)
            .arrival(Nanos::from_micros(3))
            .quota_bytes(1 << 20);
        assert_eq!(job.priority, 1, "priority clamps to at least 1");
        assert_eq!(job.weight(), 1);
        assert_eq!(job.arrival, Nanos::from_micros(3));
        assert_eq!(job.quota_bytes, Some(1 << 20));
    }

    #[test]
    fn ledger_accounting_reset_and_quota() {
        let ledger = DeviceLedger::new(100);
        let (a, b) = (TenantId(1), TenantId(2));
        ledger.register(a, 0, Some(40));
        ledger.register(b, 3, None);
        assert_eq!(ledger.usage(a).priority, 1, "register clamps priority");
        ledger.note(a, |u| {
            u.resident_bytes += 60;
            u.resident_high_water = u.resident_high_water.max(u.resident_bytes);
            u.evictions += 2;
            u.pending_free_bytes += 5;
        });
        ledger.note(b, |u| u.resident_bytes += 30);
        assert!(ledger.over_quota(a));
        assert!(!ledger.over_quota(b), "no quota means never over quota");
        assert_eq!(ledger.total_resident_bytes(), 90);
        assert_eq!(ledger.snapshot().len(), 2);
        ledger.reset_residency(a);
        let usage = ledger.usage(a);
        assert_eq!(usage.resident_bytes, 0);
        assert_eq!(usage.pending_free_bytes, 0);
        assert_eq!(usage.evictions, 2, "cumulative tallies survive a reset");
        assert_eq!(usage.resident_high_water, 60);
        // Preference order: ascending priority, ties by id.
        assert_eq!(ledger.eviction_preference(), vec![a, b]);
    }

    #[test]
    fn should_yield_picks_lowest_priority_over_fair_share() {
        let ledger = DeviceLedger::new(100);
        let (lo, hi) = (TenantId(1), TenantId(2));
        ledger.register(lo, 1, None);
        ledger.register(hi, 3, None);
        ledger.note(lo, |u| u.resident_bytes = 60);
        ledger.note(hi, |u| u.resident_bytes = 30);
        // Total 90 <= 100: nobody yields.
        assert!(!ledger.should_yield(lo));
        assert!(!ledger.should_yield(hi));
        // Over-commit the device: fair shares are 25 / 75; only the
        // low-priority tenant is over its share.
        ledger.note(hi, |u| u.resident_bytes = 60);
        assert!(ledger.should_yield(lo));
        assert!(!ledger.should_yield(hi));
        // A tenant over its own quota yields even with the device idle.
        ledger.register(hi, 3, Some(10));
        assert!(ledger.should_yield(hi));
        // Unknown tenants never yield.
        assert!(!ledger.should_yield(TenantId(9)));
    }

    #[test]
    fn scheduler_idle_jumps_to_late_arrival() {
        let workload = Workload::new(ModelKind::TinyCnn, 8);
        let config = tiny_config();
        let ledger = Arc::new(DeviceLedger::new(config.gpu_memory_bytes));
        let arrival = Nanos::from_micros(10);
        let job = JobSpec::new("late", Arc::new(workload.clone())).arrival(arrival);
        let mut scheduler = TenantScheduler::new(Arc::clone(&ledger));
        scheduler.admit(
            TenantId(0),
            &job,
            engine_for(&workload, &config, TenantId(0), &ledger),
        );
        scheduler.run().unwrap();
        let outcomes = scheduler.finish();
        assert_eq!(outcomes.len(), 1);
        let outcome = &outcomes[0];
        assert_eq!(
            outcome.started, arrival,
            "device idles until the job arrives"
        );
        assert_eq!(
            outcome.finished,
            arrival.saturating_add(outcome.report.total_time),
            "a solo lane's device time is exactly its own replay time"
        );
        assert_eq!(outcome.restarts, 0);
        assert!(outcome.executed_kernels > 0);
    }

    #[test]
    fn stride_scheduling_finishes_high_priority_first() {
        let workload = Workload::new(ModelKind::TinyCnn, 8);
        let config = tiny_config();
        let ledger = Arc::new(DeviceLedger::new(config.gpu_memory_bytes));
        let shared = Arc::new(workload.clone());
        let lo = JobSpec::new("lo", Arc::clone(&shared)).priority(1);
        let hi = JobSpec::new("hi", Arc::clone(&shared)).priority(4);
        ledger.register(TenantId(0), lo.priority, None);
        ledger.register(TenantId(1), hi.priority, None);
        let mut scheduler = TenantScheduler::new(Arc::clone(&ledger));
        scheduler.admit(
            TenantId(0),
            &lo,
            engine_for(&workload, &config, TenantId(0), &ledger),
        );
        scheduler.admit(
            TenantId(1),
            &hi,
            engine_for(&workload, &config, TenantId(1), &ledger),
        );
        scheduler.run().unwrap();
        let device_now = scheduler.device_now();
        let outcomes = scheduler.finish();
        let lo_done = outcomes[0].finished;
        let hi_done = outcomes[1].finished;
        assert!(
            hi_done < lo_done,
            "the weight-4 job must finish first on an identical workload \
             (hi={hi_done:?} lo={lo_done:?})"
        );
        // Both arrive at zero, so the device never idles: the makespan is
        // exactly the two replays laid end to end.
        let total = outcomes[0]
            .report
            .total_time
            .saturating_add(outcomes[1].report.total_time);
        assert_eq!(device_now, total);
        assert_eq!(lo_done.max(hi_done), total);
    }
}
