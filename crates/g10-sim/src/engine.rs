//! The trace-replay engine.
//!
//! Kernels execute in trace order.  Before a kernel may start, every tensor
//! it reads or writes must be resident in GPU memory (newly produced tensors
//! just need space).  Policies issue asynchronous migrations around kernels;
//! anything that is still missing when the kernel is about to launch is
//! brought in on demand — through the UVM far-fault path for UVM-based
//! designs — and the kernel stalls until the data (and the space for it) is
//! available.  Time advances kernel by kernel; the modelled PCIe / SSD
//! channels and the fault handler serialise concurrent migrations, so
//! bandwidth contention shows up as later completion times and therefore as
//! kernel stalls.
//!
//! # Bookkeeping structures
//!
//! * **Resident set**: a bitset over tensor ids, iterated in id order by
//!   [`EngineState::evictable_tensors`].
//! * **Pending-free ledger**: the GPU bytes that in-flight evictions free,
//!   one `(completion time, bytes)` entry per distinct completion time in a
//!   deque sorted by time.  An eviction inserts by binary search (almost
//!   always at the back, since completions mostly grow with issue time);
//!   equal times merge.  Expiry pops from the front, and the free-space
//!   projections walk it in time order, keeping a running byte total
//!   beside it.
//! * **Victim index**: the [`VictimIndex`] behind the LRU and
//!   largest-victim helpers, built from the resident set on the first
//!   victim query and maintained from then on.  A replay that never asks
//!   for a victim never builds it.
//!
//! | operation | cost |
//! |---|---|
//! | eviction into the ledger | O(log E) search, O(1) at the back (E = distinct pending completions) |
//! | `apply_pending` | O(1) per expired entry |
//! | `space_available_at`, `ensure_gpu_space` walk | O(entries walked) |
//! | residency change, touch | O(1) before the first victim query; the [`VictimIndex`] costs after |

use crate::cancel::{CancelRecord, CancelToken};
use crate::fault::{catch_policy_panic, FaultRecord, OnPolicyFault, PolicyFaultKind, Validate};
use crate::guard::{AuditView, InvariantGuard};
use crate::metrics::SimReport;
use crate::policy::MemoryPolicy;
use crate::tenancy::{DeviceLedger, TenantId, TenantUsage};
use crate::victim::VictimIndex;
use g10_core::config::SystemConfig;
use g10_dnn::graph::{DnnGraph, KernelId};
use g10_dnn::tensor::TensorId;
use g10_dnn::trace::KernelTrace;
use g10_time::Nanos;
use g10_uvm::{MemKind, UnifiedMemory, UnifiedMemoryConfig};
use std::cell::{OnceCell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

/// A fixed-universe bitset over tensor indices: O(1) insert/remove and
/// dense in-order iteration, used as the GPU resident-set index.
#[derive(Debug, Clone)]
struct ResidentSet {
    words: Vec<u64>,
}

impl ResidentSet {
    fn new(universe: usize) -> Self {
        ResidentSet {
            words: vec![0; universe.div_ceil(64)],
        }
    }

    fn insert(&mut self, idx: usize) {
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    fn remove(&mut self, idx: usize) {
        self.words[idx / 64] &= !(1u64 << (idx % 64));
    }

    fn contains(&self, idx: usize) -> bool {
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Iterates set indices in increasing order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + tz)
            })
        })
    }
}

/// Where a tensor currently lives in the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// Not allocated anywhere (not yet born, or already dead).
    Unallocated,
    /// Resident in GPU memory.
    Gpu,
    /// Staged in host DRAM.
    Host,
    /// Stored on the SSD.
    Ssd,
}

/// Extra runtime knobs that differ between the compared designs.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Override the GPU capacity (the Ideal baseline uses an effectively
    /// infinite capacity).
    pub gpu_capacity_override: Option<u64>,
    /// Host software overhead charged per migration batch on *planned*
    /// migrations (non-zero for designs running on the classic UVM driver:
    /// G10-GDS and G10-Host).
    pub software_overhead_per_batch: Nanos,
    /// When the per-step [`crate::guard::InvariantGuard`] bookkeeping audit
    /// runs (debug-only by default; cheap per-action checks are always on).
    pub validate: Validate,
    /// What a session does with a cell whose policy faults: fail it with
    /// [`crate::session::SimError::PolicyFault`] (the default), or re-run
    /// it under a fallback design with the fault recorded on the report.
    pub on_policy_fault: OnPolicyFault,
    /// Deterministic fault injection for exercising the degradation paths.
    /// Like `on_policy_fault`, a session-level knob the engine never reads:
    /// the session wraps the chosen design in a policy that misbehaves at
    /// the planned step through the public [`EngineState`] API.
    pub fault_plan: Option<crate::fault::FaultPlan>,
    /// Cooperative cancellation: the engine observes the token at every
    /// kernel step boundary and aborts with
    /// [`EngineError::Cancelled`] once it fires (a per-request deadline in
    /// the serve daemon, `--deadline-ms` on the CLI, or an explicit
    /// [`CancelToken::cancel`]).  `None` (the default) costs nothing.
    pub cancel: Option<CancelToken>,
    /// The tenant this engine runs as in a multi-tenant mix
    /// ([`crate::tenancy`]).  [`TenantId::SOLO`] (the default) for
    /// single-job runs; purely a tag — it never changes engine behaviour.
    pub tenant: TenantId,
    /// Shared cross-job accounting ledger for multi-tenant runs.  The
    /// engine only ever *writes* tenant-tagged tallies into it (residency,
    /// pending frees, migration traffic); policies may read it back via
    /// [`EngineState::device_ledger`].  `None` (the default) costs nothing
    /// and an attached ledger never changes engine behaviour.
    pub device_ledger: Option<Arc<DeviceLedger>>,
}

impl RuntimeOptions {
    /// An effectively infinite GPU capacity, used (via
    /// [`RuntimeOptions::gpu_capacity_override`]) by the Ideal baseline's
    /// provider and by tests that mimic it.  A quarter of `u64::MAX` rather
    /// than the full range so the engine's projected-free-space arithmetic
    /// (free bytes plus pending eviction bytes) stays comfortably clear of
    /// overflow.
    pub const UNBOUNDED_GPU: u64 = u64::MAX / 4;
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            gpu_capacity_override: None,
            software_overhead_per_batch: Nanos::ZERO,
            validate: Validate::DebugOnly,
            on_policy_fault: OnPolicyFault::Fail,
            fault_plan: None,
            cancel: None,
            tenant: TenantId::SOLO,
            device_ledger: None,
        }
    }
}

/// Why a replay run stopped short of its report: a typed policy fault, or
/// cooperative cancellation.  Produced by [`ReplayEngine::try_run`];
/// sessions map both variants onto [`crate::session::SimError`] —
/// importantly, cancellation never enters the fallback-degradation path
/// (the caller gave up on the cell; re-running it under another design
/// would spend exactly the budget that just ran out).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The policy (or corrupted bookkeeping) violated an engine invariant.
    Fault(FaultRecord),
    /// The run's [`CancelToken`] fired between steps.
    Cancelled(CancelRecord),
}

impl From<FaultRecord> for EngineError {
    fn from(fault: FaultRecord) -> Self {
        EngineError::Fault(fault)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Fault(fault) => fault.fmt(f),
            EngineError::Cancelled(record) => record.fmt(f),
        }
    }
}

impl std::error::Error for EngineError {}

#[derive(Debug, Clone, Copy)]
struct TensorRuntime {
    bytes: u64,
    is_global: bool,
    last_use: usize,
    location: Location,
    /// Completion time of an in-flight transfer into GPU memory, if any.
    inbound_ready: Option<Nanos>,
    last_touch: usize,
}

/// The mutable simulation state shared with policies.
#[derive(Debug)]
pub struct EngineState {
    now: Nanos,
    uvm: UnifiedMemory,
    tensors: Vec<TensorRuntime>,
    /// GPU bytes that will be freed when outbound evictions complete:
    /// `(completion time, bytes)`, one entry per distinct time, sorted by
    /// time, so [`EngineState::space_available_at`] walks completions in
    /// order and `apply_pending` pops expired ones from the front.
    pending_gpu_free: VecDeque<(Nanos, u64)>,
    /// Running prefix of the `pending_gpu_free` byte counts, so the
    /// projected free-space checks do not re-sum the ledger per victim
    /// candidate.
    pending_gpu_free_bytes: u64,
    /// Index of GPU-resident tensors (ordered, so victim scans iterate in
    /// tensor-id order exactly like the former full-table scan).
    resident_gpu: ResidentSet,
    /// Ordered victim index over the evictable residents: built from the
    /// resident set by the first victim query, then maintained on every
    /// location / last-touch change.
    victims: OnceCell<VictimIndex>,
    protected: Vec<bool>,
    pays_fault_overhead: bool,
    prefetches_issued: u64,
    prefetches_dropped: u64,
    evictions_issued: u64,
    oversubscribed: bool,
    /// Per-kernel slowdowns recorded so far, in execution order.
    kernel_slowdowns: Vec<f64>,
    /// Kernel index of the step in progress, for fault attribution.
    current_kernel: usize,
    /// First policy fault flagged this run, `(step, kind)`.  Interior
    /// mutability so the `&self` accessors can flag out-of-range tensor
    /// ids too.
    fault: RefCell<Option<(usize, PolicyFaultKind)>>,
    /// The tenant this engine runs as ([`TenantId::SOLO`] outside
    /// multi-tenant mixes).
    tenant: TenantId,
    /// Shared cross-job accounting ledger, if this engine is one lane of a
    /// multi-tenant run.  Written by the engine, readable by policies.
    ledger: Option<Arc<DeviceLedger>>,
}

impl EngineState {
    /// The current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The tenant this engine runs as ([`RuntimeOptions::tenant`]).
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The shared cross-job ledger, if one is attached
    /// ([`RuntimeOptions::device_ledger`]).  Cross-job-aware policies read
    /// per-tenant residency, quota and bandwidth tallies from it.
    pub fn device_ledger(&self) -> Option<&Arc<DeviceLedger>> {
        self.ledger.as_ref()
    }

    /// Posts one tenant-tagged accounting update to the attached ledger.
    /// A no-op without a ledger, so solo runs pay nothing.
    fn ledger_note(&self, update: impl FnOnce(&mut TenantUsage)) {
        if let Some(ledger) = &self.ledger {
            ledger.note(self.tenant, update);
        }
    }

    /// Records a policy fault at the current kernel step.  The first fault
    /// wins; later ones are dropped (the run aborts at the step boundary).
    fn flag_fault(&self, kind: PolicyFaultKind) {
        let mut fault = self.fault.borrow_mut();
        if fault.is_none() {
            *fault = Some((self.current_kernel, kind));
        }
    }

    /// Range-checks a policy-supplied tensor id, flagging
    /// [`PolicyFaultKind::TensorOutOfRange`] when it falls outside the
    /// graph's tensor universe.
    fn tensor_in_range(&self, tensor: TensorId) -> bool {
        let idx = tensor.index();
        if idx < self.tensors.len() {
            true
        } else {
            self.flag_fault(PolicyFaultKind::TensorOutOfRange {
                tensor: idx as u32,
                universe: self.tensors.len(),
            });
            false
        }
    }

    /// Size of a tensor in bytes.  An out-of-range id is flagged as a
    /// policy fault and reads as zero bytes.
    pub fn bytes_of(&self, tensor: TensorId) -> u64 {
        if !self.tensor_in_range(tensor) {
            return 0;
        }
        self.tensors[tensor.index()].bytes
    }

    /// Where the tensor currently lives.  An out-of-range id is flagged as
    /// a policy fault and reads as [`Location::Unallocated`].
    pub fn location(&self, tensor: TensorId) -> Location {
        if !self.tensor_in_range(tensor) {
            return Location::Unallocated;
        }
        self.tensors[tensor.index()].location
    }

    /// Returns `true` if the tensor is resident in GPU memory or already on
    /// its way there.  An out-of-range id is flagged as a policy fault and
    /// reads as non-resident.
    pub fn is_resident_or_inbound(&self, tensor: TensorId) -> bool {
        if !self.tensor_in_range(tensor) {
            return false;
        }
        let t = &self.tensors[tensor.index()];
        t.location == Location::Gpu || t.inbound_ready.is_some()
    }

    /// Free host staging bytes right now.
    pub fn host_free_bytes(&self) -> u64 {
        self.uvm.host().free_bytes()
    }

    /// Iterator over tensors that could be evicted right now: resident in
    /// GPU memory, not used by the current kernel, and not in flight.
    /// Yields `(tensor, last_touch_kernel, bytes)`.
    ///
    /// Backed by the resident-set index, so victim selection scans only the
    /// tensors actually in GPU memory instead of the whole tensor table.
    /// Iteration stays in tensor-id order (the order of the former full
    /// scan), so tie-breaking in the policies is unchanged.
    pub fn evictable_tensors(&self) -> impl Iterator<Item = (TensorId, usize, u64)> + '_ {
        self.resident_gpu.iter().filter_map(move |idx| {
            let t = &self.tensors[idx];
            debug_assert!(t.location == Location::Gpu && t.inbound_ready.is_none());
            if !self.protected[idx] {
                Some((TensorId::new(idx as u32), t.last_touch, t.bytes))
            } else {
                None
            }
        })
    }

    /// Moves a tensor between locations, keeping the resident-set and the
    /// victim indexes in sync with its GPU membership.
    fn set_location(&mut self, idx: usize, location: Location) {
        let t = self.tensors[idx];
        if t.location == Location::Gpu && location != Location::Gpu {
            self.resident_gpu.remove(idx);
            if let Some(victims) = self.victims.get_mut() {
                victims.remove(idx as u32);
            }
            self.ledger_note(|usage| {
                usage.resident_bytes = usage.resident_bytes.saturating_sub(t.bytes);
            });
        } else if t.location != Location::Gpu && location == Location::Gpu {
            self.resident_gpu.insert(idx);
            if let Some(victims) = self.victims.get_mut() {
                victims.insert(idx as u32, t.last_touch);
            }
            self.ledger_note(|usage| {
                usage.resident_bytes = usage.resident_bytes.saturating_add(t.bytes);
                usage.resident_high_water = usage.resident_high_water.max(usage.resident_bytes);
            });
        }
        self.tensors[idx].location = location;
    }

    /// Records that `kernel` uses the tensor, re-keying the victim index
    /// if it exists and the tensor is an evictable resident.
    fn touch(&mut self, idx: usize, kernel: usize) {
        if self.tensors[idx].last_touch != kernel {
            self.tensors[idx].last_touch = kernel;
            if let Some(victims) = self.victims.get_mut() {
                victims.touch(idx as u32, kernel);
            }
        }
    }

    /// The victim index, built from the resident set on first use.
    fn victims(&self) -> &VictimIndex {
        self.victims.get_or_init(|| {
            VictimIndex::from_residents(
                self.tensors.iter().map(|t| t.bytes),
                self.resident_gpu
                    .iter()
                    .map(|idx| (idx as u32, self.tensors[idx].last_touch)),
            )
        })
    }

    /// The tensor the LRU selection helper would evict right now: the first
    /// unprotected evictable resident by `(last_touch, tensor_id)`.
    ///
    /// Answered by the victim index's recency list in O(1 + protected);
    /// debug builds cross-check every answer against the linear scan in
    /// [`crate::naive`].
    pub fn lru_victim_candidate(&self) -> Option<TensorId> {
        let picked = self
            .victims()
            .lru(|idx| self.protected[idx as usize])
            .map(TensorId::new);
        debug_assert_eq!(
            picked,
            crate::naive::lru_scan(self),
            "victim index diverged from the LRU linear scan"
        );
        picked
    }

    /// The tensor the largest-victim selection helper would evict right
    /// now: the last unprotected evictable resident by `(bytes, tensor_id)`.
    ///
    /// Answered by the victim index's size ranks, built on the first call;
    /// debug builds cross-check every answer against the linear scan in
    /// [`crate::naive`].
    pub fn largest_victim_candidate(&self) -> Option<TensorId> {
        let picked = self
            .victims()
            .largest(|idx| self.protected[idx as usize])
            .map(TensorId::new);
        debug_assert_eq!(
            picked,
            crate::naive::largest_scan(self),
            "victim index diverged from the largest-victim linear scan"
        );
        picked
    }

    /// Starts an asynchronous prefetch of `tensor` into GPU memory.  Returns
    /// `false` (and does nothing) if the tensor is already resident or in
    /// flight, is not allocated anywhere, or GPU memory has no room for it.
    pub fn request_prefetch(&mut self, tensor: TensorId) -> bool {
        if !self.tensor_in_range(tensor) {
            return false;
        }
        let idx = tensor.index();
        let (bytes, location) = (self.tensors[idx].bytes, self.tensors[idx].location);
        if self.tensors[idx].inbound_ready.is_some() {
            return false;
        }
        let source = match location {
            Location::Host => MemKind::Host,
            Location::Ssd => MemKind::Flash,
            Location::Gpu | Location::Unallocated => return false,
        };
        self.apply_pending(self.now);
        if !self.uvm.gpu_mut().try_allocate(bytes) {
            self.prefetches_dropped += 1;
            return false;
        }
        let now = self.now;
        let completion = self.uvm.transfer_to_gpu(bytes, source, now);
        if source == MemKind::Host {
            self.uvm.host_mut().free(bytes);
        }
        self.tensors[idx].inbound_ready = Some(completion);
        self.prefetches_issued += 1;
        self.ledger_note(|usage| {
            usage.migrations_in += 1;
            usage.bytes_in = usage.bytes_in.saturating_add(bytes);
        });
        true
    }

    /// Starts an asynchronous eviction of `tensor` out of GPU memory to the
    /// given destination (host DRAM or SSD).  The GPU space is reclaimed when
    /// the transfer completes.  Returns `false` if the tensor is not an
    /// evictable resident, or the destination is invalid.
    pub fn request_evict(&mut self, tensor: TensorId, destination: Location) -> bool {
        if !self.tensor_in_range(tensor) {
            return false;
        }
        let idx = tensor.index();
        if self.tensors[idx].location != Location::Gpu
            || self.tensors[idx].inbound_ready.is_some()
            || self.protected[idx]
        {
            return false;
        }
        let bytes = self.tensors[idx].bytes;
        let destination = match destination {
            Location::Host if self.uvm.host_mut().try_allocate(bytes) => Location::Host,
            // Host requested but full, or SSD requested: go to flash.
            Location::Host | Location::Ssd => Location::Ssd,
            Location::Gpu | Location::Unallocated => return false,
        };
        // `destination` can only be Host or Ssd at this point.
        let kind = match destination {
            Location::Host => MemKind::Host,
            _ => MemKind::Flash,
        };
        let now = self.now;
        let completion = self.uvm.transfer_from_gpu(bytes, kind, now);
        self.add_pending_free(completion, bytes);
        self.set_location(idx, destination);
        self.evictions_issued += 1;
        self.ledger_note(|usage| {
            usage.evictions += 1;
            usage.migrations_out += 1;
            usage.bytes_out = usage.bytes_out.saturating_add(bytes);
            usage.pending_free_bytes = usage.pending_free_bytes.saturating_add(bytes);
        });
        true
    }

    /// Starts an asynchronous prefetch like [`EngineState::request_prefetch`],
    /// but when GPU memory is full it first asks `select_victim` for tensors
    /// to evict and delays the transfer until their space frees up.  Returns
    /// `false` if the tensor is ineligible or no room can be made.
    pub fn request_prefetch_evicting(
        &mut self,
        tensor: TensorId,
        mut select_victim: impl FnMut(&EngineState) -> Option<(TensorId, Location)>,
    ) -> bool {
        if !self.tensor_in_range(tensor) {
            return false;
        }
        let idx = tensor.index();
        if self.tensors[idx].inbound_ready.is_some() {
            return false;
        }
        let source = match self.tensors[idx].location {
            Location::Host => MemKind::Host,
            Location::Ssd => MemKind::Flash,
            Location::Gpu | Location::Unallocated => return false,
        };
        let bytes = self.tensors[idx].bytes;
        self.apply_pending(self.now);
        if self.uvm.gpu().free_bytes() < bytes {
            loop {
                let projected: u64 = self.uvm.gpu().free_bytes() + self.pending_gpu_free_bytes;
                if projected >= bytes {
                    break;
                }
                match select_victim(self) {
                    Some((victim, destination)) => {
                        if !self.request_evict(victim, destination) {
                            self.prefetches_dropped += 1;
                            return false;
                        }
                    }
                    None => {
                        self.prefetches_dropped += 1;
                        return false;
                    }
                }
            }
        }
        let start = self.now.max(self.space_available_at(bytes));
        if !self.uvm.gpu_mut().try_allocate(bytes) {
            self.uvm.gpu_mut().force_allocate(bytes);
        }
        let completion = self.uvm.transfer_to_gpu(bytes, source, start);
        if source == MemKind::Host {
            self.uvm.host_mut().free(bytes);
        }
        self.tensors[idx].inbound_ready = Some(completion);
        self.prefetches_issued += 1;
        self.ledger_note(|usage| {
            usage.migrations_in += 1;
            usage.bytes_in = usage.bytes_in.saturating_add(bytes);
        });
        true
    }

    /// Like [`EngineState::request_prefetch`], but an illegal request —
    /// prefetching a tensor that is already resident or inbound — is
    /// flagged as a [`PolicyFaultKind::PrefetchResident`] policy fault
    /// instead of being tolerated.  Built-in designs use the graceful API
    /// (re-requesting a maybe-resident tensor is part of their contract);
    /// hardened custom policies and injected faults use this one.
    pub fn request_prefetch_strict(&mut self, tensor: TensorId) -> bool {
        if !self.tensor_in_range(tensor) {
            return false;
        }
        let t = &self.tensors[tensor.index()];
        if t.location == Location::Gpu || t.inbound_ready.is_some() {
            self.flag_fault(PolicyFaultKind::PrefetchResident {
                tensor: tensor.index() as u32,
            });
            return false;
        }
        self.request_prefetch(tensor)
    }

    /// Like [`EngineState::request_evict`], but an illegal request —
    /// evicting a tensor that is not an evictable GPU resident (not
    /// resident, in flight, or protected by the running kernel) — is
    /// flagged as an [`PolicyFaultKind::EvictNonResident`] policy fault
    /// instead of being tolerated.
    pub fn request_evict_strict(&mut self, tensor: TensorId, destination: Location) -> bool {
        if !self.tensor_in_range(tensor) {
            return false;
        }
        let idx = tensor.index();
        if self.tensors[idx].location != Location::Gpu
            || self.tensors[idx].inbound_ready.is_some()
            || self.protected[idx]
        {
            self.flag_fault(PolicyFaultKind::EvictNonResident { tensor: idx as u32 });
            return false;
        }
        self.request_evict(tensor, destination)
    }

    /// Assembles the bookkeeping snapshot the [`InvariantGuard`] audits:
    /// one walk over the tensor table reconciling per-tensor locations, the
    /// resident-set index, the pending-free ledger and the GPU allocator.
    fn audit_view(&self) -> AuditView {
        let mut tracked = 0u64;
        let mut residents_by_location = 0usize;
        let mut diverged = false;
        for (idx, t) in self.tensors.iter().enumerate() {
            if t.location == Location::Gpu {
                tracked += t.bytes;
                residents_by_location += 1;
                if !self.resident_gpu.contains(idx) {
                    diverged = true;
                }
            } else if t.inbound_ready.is_some() {
                // In-flight arrival: the GPU space is already allocated.
                tracked += t.bytes;
            }
        }
        if self.resident_gpu.iter().count() != residents_by_location {
            diverged = true;
        }
        AuditView {
            now: self.now,
            used_bytes: self.uvm.gpu().used_bytes(),
            capacity_bytes: self.uvm.gpu().capacity_bytes(),
            pending_ledger_bytes: self.pending_gpu_free.iter().map(|&(_, bytes)| bytes).sum(),
            pending_prefix_bytes: self.pending_gpu_free_bytes,
            earliest_pending_due: self.pending_gpu_free.front().map(|&(time, _)| time),
            tracked_bytes: tracked + self.pending_gpu_free_bytes,
            resident_index_diverged: diverged,
            oversubscribed: self.oversubscribed,
        }
    }

    /// Earliest time at which `needed` bytes of GPU memory will be free,
    /// given the evictions already in flight.  The ledger is kept ordered by
    /// completion time, so this is a single in-order walk — no clone, no
    /// sort.
    fn space_available_at(&self, needed: u64) -> Nanos {
        let mut free = self.uvm.gpu().free_bytes();
        if free >= needed {
            return self.now;
        }
        for &(time, bytes) in &self.pending_gpu_free {
            free += bytes;
            if free >= needed {
                return time.max(self.now);
            }
        }
        self.now
    }

    /// Records `bytes` of GPU memory freed when an eviction completes at
    /// `completion`, merging with an entry of the same time.
    fn add_pending_free(&mut self, completion: Nanos, bytes: u64) {
        let ledger = &mut self.pending_gpu_free;
        let at = ledger.partition_point(|&(time, _)| time < completion);
        match ledger.get_mut(at) {
            Some((time, pending)) if *time == completion => *pending += bytes,
            _ => ledger.insert(at, (completion, bytes)),
        }
        self.pending_gpu_free_bytes += bytes;
    }

    /// Frees the GPU bytes of every eviction completed by `now`.
    fn apply_pending(&mut self, now: Nanos) {
        let mut freed = 0u64;
        while let Some(&(time, bytes)) = self.pending_gpu_free.front() {
            if time > now {
                break;
            }
            freed += bytes;
            self.pending_gpu_free.pop_front();
        }
        if freed > 0 {
            self.pending_gpu_free_bytes -= freed;
            self.uvm.gpu_mut().free(freed);
            self.ledger_note(|usage| {
                usage.pending_free_bytes = usage.pending_free_bytes.saturating_sub(freed);
            });
        }
    }

    fn settle(&mut self, tensor: TensorId) {
        let idx = tensor.index();
        if let Some(ready) = self.tensors[idx].inbound_ready {
            if ready <= self.now {
                self.tensors[idx].inbound_ready = None;
                self.set_location(idx, Location::Gpu);
            }
        }
    }

    /// Time at which enough GPU space for `needed` extra bytes will exist,
    /// asking `select_victim` for evictions as necessary.  Marks the state
    /// oversubscribed if space cannot be found.
    fn ensure_gpu_space(
        &mut self,
        needed: u64,
        mut select_victim: impl FnMut(&EngineState) -> Option<(TensorId, Location)>,
    ) -> Nanos {
        self.apply_pending(self.now);
        if self.uvm.gpu().free_bytes() >= needed {
            return self.now;
        }
        // Keep evicting until currently-free plus in-flight frees cover the
        // request, or the policy gives up.
        loop {
            let projected: u64 = self.uvm.gpu().free_bytes() + self.pending_gpu_free_bytes;
            if projected >= needed {
                break;
            }
            match select_victim(self) {
                Some((victim, destination)) => {
                    if !self.request_evict(victim, destination) {
                        // The policy picked something unusable; treat as give-up.
                        self.oversubscribed = true;
                        return self.now;
                    }
                }
                None => {
                    self.oversubscribed = true;
                    return self.now;
                }
            }
        }
        if self.uvm.gpu().free_bytes() >= needed {
            return self.now;
        }
        // Find the earliest completion time at which enough space is free.
        let mut free = self.uvm.gpu().free_bytes();
        for &(time, bytes) in &self.pending_gpu_free {
            free += bytes;
            if free >= needed {
                return time;
            }
        }
        self.oversubscribed = true;
        self.now
    }
}

/// The replay engine: one training iteration, one policy.
pub struct ReplayEngine<'a> {
    graph: &'a DnnGraph,
    trace: &'a KernelTrace,
    policy: Box<dyn MemoryPolicy>,
    state: EngineState,
    /// Per-kernel unique working sets, borrowed straight from the graph's
    /// shared [`g10_dnn::index::GraphIndex`] CSR arena (kernel `k`'s tensors
    /// are `required_flat[required_offsets[k]..required_offsets[k + 1]]`),
    /// so constructing an engine derives nothing and the step loop borrows
    /// slices instead of cloning a `Vec` per kernel.
    required_flat: &'a [TensorId],
    required_offsets: &'a [usize],
    stall_time: Nanos,
    working_set_exceeds_gpu: bool,
    /// Whether the per-step invariant audit runs (from
    /// [`RuntimeOptions::validate`]).
    validate_active: bool,
    /// Cooperative cancellation handle, if any.
    cancel: Option<CancelToken>,
    /// Next kernel to execute; `try_run` is `advance` to the end.
    cursor: usize,
    /// Per-run invariant-audit state, owned by the engine so stepping is
    /// resumable ([`ReplayEngine::advance`]) with the audit chain intact.
    guard: InvariantGuard,
    /// Invariant audits actually run (hardening telemetry: a hostile policy
    /// must not be able to starve the guard).
    audits_run: u64,
}

/// What one [`ReplayEngine::advance`] call executed: which kernel, how much
/// device time it consumed (stall + compute, i.e. the wall-clock slice a
/// shared device lends this engine), and the engine's clock afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The kernel index that just executed.
    pub kernel: usize,
    /// Device time the step consumed (`now` delta, saturating).
    pub busy: Nanos,
    /// The engine's virtual clock after the step.
    pub now: Nanos,
}

impl<'a> ReplayEngine<'a> {
    /// Creates an engine for one iteration of `graph` under `trace`, managed
    /// by `policy` on the hardware described by `config`.
    pub fn new(
        graph: &'a DnnGraph,
        trace: &'a KernelTrace,
        config: &SystemConfig,
        policy: Box<dyn MemoryPolicy>,
        options: RuntimeOptions,
    ) -> Self {
        assert_eq!(
            trace.len(),
            graph.num_kernels(),
            "trace must match the graph"
        );
        let gpu_capacity = options
            .gpu_capacity_override
            .unwrap_or(config.gpu_memory_bytes);
        let uvm_config = UnifiedMemoryConfig {
            gpu_capacity_bytes: gpu_capacity,
            host_capacity_bytes: config.host_memory_bytes,
            pcie_bytes_per_sec: config.pcie_bytes_per_sec,
            ssd_read_bytes_per_sec: config.ssd_read_bytes_per_sec,
            ssd_write_bytes_per_sec: config.ssd_write_bytes_per_sec,
            ssd_read_latency: config.ssd_read_latency,
            ssd_write_latency: config.ssd_write_latency,
            host_latency: config.host_latency,
            fault: g10_uvm::FaultModel {
                fault_latency: config.fault_latency,
                batch_bytes: config.fault_batch_bytes,
            },
            migration_batch_bytes: config.migration_batch_bytes,
            software_overhead_per_batch: options.software_overhead_per_batch,
        };
        let mut uvm = UnifiedMemory::new(uvm_config);

        // Per-tensor runtime state and initial placement; lifetimes come
        // from the graph's shared index instead of a fresh adjacency pass.
        let index = graph.index();
        let mut tensors = Vec::with_capacity(graph.num_tensors());
        for info in graph.tensors() {
            let last_use = index.last_use(info.id()).map(|k| k.index()).unwrap_or(0);
            let mut location = if index.use_count(info.id()) == 0 {
                Location::Unallocated
            } else {
                policy.initial_location(info)
            };
            match location {
                Location::Gpu => {
                    if !uvm.gpu_mut().try_allocate(info.bytes()) {
                        // Weights that do not fit initially spill to host.
                        location = if uvm.host_mut().try_allocate(info.bytes()) {
                            Location::Host
                        } else {
                            Location::Ssd
                        };
                    }
                }
                Location::Host => {
                    if !uvm.host_mut().try_allocate(info.bytes()) {
                        location = Location::Ssd;
                    }
                }
                Location::Ssd | Location::Unallocated => {}
            }
            tensors.push(TensorRuntime {
                bytes: info.bytes(),
                is_global: info.is_global(),
                last_use,
                location,
                inbound_ready: None,
                last_touch: 0,
            });
        }

        // Per-kernel unique working sets, borrowed from the index's arena.
        let num_tensors = graph.num_tensors();
        let num_kernels = graph.num_kernels();
        let (required_flat, required_offsets) = index.working_sets();
        let working_set_exceeds_gpu = index.max_kernel_working_set_bytes() > gpu_capacity;

        let mut resident_gpu = ResidentSet::new(num_tensors);
        let mut initial_resident_bytes = 0u64;
        for (idx, t) in tensors.iter().enumerate() {
            if t.location == Location::Gpu {
                resident_gpu.insert(idx);
                initial_resident_bytes += t.bytes;
            }
        }
        // Post the initial placement to the shared ledger (the loop above
        // bypasses `set_location`, which does this incrementally later).
        if let Some(ledger) = &options.device_ledger {
            ledger.note(options.tenant, |usage| {
                usage.resident_bytes = usage.resident_bytes.saturating_add(initial_resident_bytes);
                usage.resident_high_water = usage.resident_high_water.max(usage.resident_bytes);
            });
        }
        let validate_active = options.validate.is_active();
        ReplayEngine {
            graph,
            trace,
            state: EngineState {
                now: Nanos::ZERO,
                uvm,
                tensors,
                pending_gpu_free: VecDeque::new(),
                pending_gpu_free_bytes: 0,
                resident_gpu,
                victims: OnceCell::new(),
                protected: vec![false; num_tensors],
                pays_fault_overhead: policy.pays_fault_overhead(),
                prefetches_issued: 0,
                prefetches_dropped: 0,
                evictions_issued: 0,
                oversubscribed: false,
                kernel_slowdowns: Vec::with_capacity(num_kernels),
                current_kernel: 0,
                fault: RefCell::new(None),
                tenant: options.tenant,
                ledger: options.device_ledger,
            },
            policy,
            required_flat,
            required_offsets,
            stall_time: Nanos::ZERO,
            working_set_exceeds_gpu,
            validate_active,
            cancel: options.cancel,
            cursor: 0,
            guard: InvariantGuard::new(),
            audits_run: 0,
        }
    }

    /// Replays the iteration, validating every policy-issued action (and,
    /// when the audit is active, the engine's own bookkeeping) each step.
    /// Each step's policy hooks run under panic containment, so a hostile
    /// or buggy policy yields a typed [`EngineError::Fault`] instead of
    /// unwinding through the caller.  The run aborts at the first fault;
    /// the fault's `policy` field carries the policy's self-reported name
    /// (sessions rewrite it to the caller's spec string).  An installed
    /// [`RuntimeOptions::cancel`] token is observed at every step boundary
    /// and aborts the run with [`EngineError::Cancelled`] — before the
    /// step runs, so a cancelled run never tears a step in progress.
    pub fn try_run(mut self) -> Result<SimReport, EngineError> {
        while !self.is_done() {
            self.advance()?;
        }
        Ok(self.into_report())
    }

    /// Number of kernels in the replayed trace.
    pub fn num_kernels(&self) -> usize {
        self.graph.num_kernels()
    }

    /// Whether every kernel has executed.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.graph.num_kernels()
    }

    /// Invariant audits run so far (see [`RuntimeOptions::validate`]).
    pub fn audits_run(&self) -> u64 {
        self.audits_run
    }

    /// Executes exactly one kernel step — the body of [`ReplayEngine::try_run`],
    /// exposed so a [`crate::tenancy::TenantScheduler`] can interleave whole
    /// kernels from several engines on one device timeline.  Containment is
    /// identical to a full run: the cancel token is observed first, policy
    /// hooks run under panic containment, and the invariant audit (when
    /// active) closes the step.
    ///
    /// # Errors
    ///
    /// A typed [`EngineError`], exactly as `try_run` would return it.  The
    /// engine is poisoned afterwards (the failed step must not be retried);
    /// callers replace it, as the session's fallback path does.
    ///
    /// # Panics
    ///
    /// If called after the last kernel ([`ReplayEngine::is_done`]).
    pub fn advance(&mut self) -> Result<StepOutcome, EngineError> {
        let k = self.cursor;
        assert!(
            k < self.graph.num_kernels(),
            "advance() past the end of the trace"
        );
        let before = self.state.now;
        if let Some(kind) = self.cancel.as_ref().and_then(|token| token.fired(k)) {
            return Err(EngineError::Cancelled(CancelRecord {
                policy: self.policy.name(),
                step: k,
                kind,
            }));
        }
        self.state.current_kernel = k;
        if let Err(message) = catch_policy_panic(|| self.step(k)) {
            return Err(self
                .fault_record(k, PolicyFaultKind::StepPanic { message })
                .into());
        }
        if self.validate_active {
            let view = self.state.audit_view();
            let last_slowdown = self.state.kernel_slowdowns.last().copied();
            self.audits_run += 1;
            if let Some(kind) = self.guard.check_step(&view, last_slowdown, k) {
                self.state.flag_fault(kind);
            }
        }
        if let Some((step, kind)) = self.state.fault.borrow_mut().take() {
            return Err(self.fault_record(step, kind).into());
        }
        self.cursor += 1;
        Ok(StepOutcome {
            kernel: k,
            busy: self.state.now.saturating_sub(before),
            now: self.state.now,
        })
    }

    fn fault_record(&self, step: usize, kind: PolicyFaultKind) -> FaultRecord {
        FaultRecord {
            policy: self.policy.name(),
            step,
            kind,
        }
    }

    /// Assembles the final report; meaningful once [`ReplayEngine::is_done`]
    /// (the tenancy scheduler consumes finished lanes through this).
    pub(crate) fn into_report(self) -> SimReport {
        let state = self.state;
        SimReport {
            model: self.graph.name().to_string(),
            batch: self.graph.batch_size(),
            policy: self.policy.name(),
            total_time: state.now,
            ideal_time: self.trace.total_duration(),
            stall_time: self.stall_time,
            kernel_slowdowns: state.kernel_slowdowns,
            traffic: state.uvm.traffic(),
            fault_count: state.uvm.fault_count(),
            prefetches_issued: state.prefetches_issued,
            prefetches_dropped: state.prefetches_dropped,
            evictions_issued: state.evictions_issued,
            oversubscribed: state.oversubscribed,
            working_set_exceeds_gpu: self.working_set_exceeds_gpu,
            policy_fault: None,
        }
    }

    fn step(&mut self, k: usize) {
        let kernel_id = KernelId::new(k as u32);
        self.policy.before_kernel(k, &mut self.state);

        // The kernel's working set, borrowed from the flattened arena.  The
        // loops below index into it directly so the engine state can be
        // mutated concurrently without cloning the list per kernel.
        let (lo, hi) = (self.required_offsets[k], self.required_offsets[k + 1]);

        // Protect the working set of this kernel from eviction and stamp it
        // as used by this kernel.  Stamping before anything below makes a
        // tensor resident means every tensor entering the victim index
        // during this step (birth, settled prefetch, demand fetch) carries
        // the newest stamp, so linking it walks only past this kernel's
        // entries.  No selection can see the new stamps early: protected
        // tensors are invisible to every victim query, and `before_kernel`
        // above saw the old ones.
        for i in lo..hi {
            let idx = self.required_flat[i].index();
            self.state.protected[idx] = true;
            self.state.touch(idx, k);
        }

        // Make every required tensor resident (or allocated, for new
        // outputs), collecting the time at which the kernel may start.
        let mut ready = self.state.now;
        for i in lo..hi {
            let t = self.required_flat[i];
            let idx = t.index();
            self.state.settle(t);
            match self.state.tensors[idx].location {
                Location::Gpu => {}
                Location::Unallocated => {
                    // A tensor being born: it only needs space.
                    let bytes = self.state.tensors[idx].bytes;
                    let space_at = self.ensure_space(bytes);
                    ready = ready.max(space_at);
                    self.state.apply_pending(self.state.now);
                    if !self.state.uvm.gpu_mut().try_allocate(bytes) {
                        self.state.uvm.gpu_mut().force_allocate(bytes);
                        self.state.oversubscribed = true;
                    }
                    self.state.set_location(idx, Location::Gpu);
                }
                Location::Host | Location::Ssd => {
                    if let Some(arrival) = self.state.tensors[idx].inbound_ready {
                        // A prefetch is already on the way.
                        ready = ready.max(arrival);
                    } else {
                        // Unplanned access: bring it in on demand.
                        let arrival = self.demand_fetch(t);
                        ready = ready.max(arrival);
                    }
                }
            }
        }

        // Launch the kernel once everything is ready.
        let start = ready.max(self.state.now);
        let stall = start.saturating_sub(self.state.now);
        let duration = self.trace.duration(kernel_id);
        let end = start + duration;
        self.stall_time += stall;
        let slowdown = if duration.is_zero() {
            1.0
        } else {
            (stall + duration).as_secs_f64() / duration.as_secs_f64()
        };
        self.state.kernel_slowdowns.push(slowdown);
        self.state.now = end;

        // The kernel has consumed its inputs and produced its outputs.
        for i in lo..hi {
            let t = self.required_flat[i];
            self.state.settle(t);
            self.state.protected[t.index()] = false;
        }
        self.state.apply_pending(self.state.now);

        // Free intermediates that just died.
        for i in lo..hi {
            let t = self.required_flat[i];
            let idx = t.index();
            if !self.state.tensors[idx].is_global && self.state.tensors[idx].last_use == k {
                self.release(t);
            }
        }

        self.policy.after_kernel(k, &mut self.state);
    }

    /// Unplanned fetch of a tensor that the current kernel needs.
    fn demand_fetch(&mut self, tensor: TensorId) -> Nanos {
        let idx = tensor.index();
        let bytes = self.state.tensors[idx].bytes;
        let source = match self.state.tensors[idx].location {
            Location::Host => MemKind::Host,
            Location::Ssd => MemKind::Flash,
            _ => return self.state.now,
        };
        let space_at = self.ensure_space(bytes);
        self.state.apply_pending(self.state.now);
        if !self.state.uvm.gpu_mut().try_allocate(bytes) {
            self.state.uvm.gpu_mut().force_allocate(bytes);
            self.state.oversubscribed = true;
        }
        let start = self.state.now.max(space_at);
        let arrival = if self.state.pays_fault_overhead {
            self.state.uvm.fault_in(bytes, source, start)
        } else {
            self.state.uvm.transfer_to_gpu(bytes, source, start)
        };
        if source == MemKind::Host {
            self.state.uvm.host_mut().free(bytes);
        }
        self.state.tensors[idx].inbound_ready = Some(arrival);
        self.state.ledger_note(|usage| {
            usage.migrations_in += 1;
            usage.bytes_in = usage.bytes_in.saturating_add(bytes);
        });
        arrival
    }

    fn ensure_space(&mut self, bytes: u64) -> Nanos {
        let policy = &mut self.policy;
        self.state
            .ensure_gpu_space(bytes, |state| policy.select_victim(state))
    }

    /// Releases a dead intermediate tensor from wherever it lives.
    fn release(&mut self, tensor: TensorId) {
        let idx = tensor.index();
        // A dead tensor cannot still be in flight: it was just settled as
        // part of the kernel that used it last.
        match self.state.tensors[idx].location {
            Location::Gpu => self.state.uvm.gpu_mut().free(self.state.tensors[idx].bytes),
            Location::Host => self
                .state
                .uvm
                .host_mut()
                .free(self.state.tensors[idx].bytes),
            Location::Ssd | Location::Unallocated => {}
        }
        self.state.set_location(idx, Location::Unallocated);
        self.state.tensors[idx].inbound_ready = None;
    }
}

#[cfg(test)]
mod ledger_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{BaseUvmPolicy, IdealPolicy};
    use g10_dnn::cost::GpuCostModel;
    use g10_dnn::models::{build_model, ModelKind};

    fn workload() -> (DnnGraph, KernelTrace) {
        let graph = build_model(ModelKind::TinyCnn, 32);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        (graph, trace)
    }

    #[test]
    fn ideal_run_has_no_stalls() {
        let (graph, trace) = workload();
        let config = SystemConfig::table2();
        let engine = ReplayEngine::new(
            &graph,
            &trace,
            &config,
            Box::new(IdealPolicy::new()),
            RuntimeOptions {
                gpu_capacity_override: Some(RuntimeOptions::UNBOUNDED_GPU),
                ..RuntimeOptions::default()
            },
        );
        let report = engine.try_run().expect("built-in policies never fault");
        assert_eq!(report.total_time, report.ideal_time);
        assert_eq!(report.stall_time, Nanos::ZERO);
        assert_eq!(report.fault_count, 0);
        assert!(report
            .kernel_slowdowns
            .iter()
            .all(|s| (*s - 1.0).abs() < 1e-12));
    }

    #[test]
    fn plentiful_memory_matches_ideal_even_for_base_uvm() {
        let (graph, trace) = workload();
        let config = SystemConfig::table2();
        let report = ReplayEngine::new(
            &graph,
            &trace,
            &config,
            Box::new(BaseUvmPolicy::new()),
            RuntimeOptions::default(),
        )
        .try_run()
        .expect("built-in policies never fault");
        assert_eq!(report.total_time, report.ideal_time);
        assert_eq!(report.traffic.total(), 0);
    }

    #[test]
    fn scarce_memory_causes_stalls_and_traffic_for_base_uvm() {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let config = SystemConfig::table2().with_gpu_memory(32 << 20);
        let report = ReplayEngine::new(
            &graph,
            &trace,
            &config,
            Box::new(BaseUvmPolicy::new()),
            RuntimeOptions::default(),
        )
        .try_run()
        .expect("built-in policies never fault");
        assert!(report.total_time > report.ideal_time);
        assert!(report.stall_time > Nanos::ZERO);
        assert!(report.traffic.total() > 0);
        assert!(report.fault_count > 0);
        assert!(report.evictions_issued > 0);
        // Stall plus ideal compute equals the total simulated time.
        assert_eq!(report.ideal_time + report.stall_time, report.total_time);
    }

    #[test]
    fn slowdowns_are_at_least_one() {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let config = SystemConfig::table2().with_gpu_memory(32 << 20);
        let report = ReplayEngine::new(
            &graph,
            &trace,
            &config,
            Box::new(BaseUvmPolicy::new()),
            RuntimeOptions::default(),
        )
        .try_run()
        .expect("built-in policies never fault");
        assert_eq!(report.kernel_slowdowns.len(), graph.num_kernels());
        assert!(report.kernel_slowdowns.iter().all(|s| *s >= 1.0));
    }

    /// The step whose `after_kernel` hook [`Corrupting`] corrupts in.
    const CORRUPT_AT: usize = 2;

    /// Base UVM, except that its `after_kernel` hook at [`CORRUPT_AT`]
    /// corrupts private engine bookkeeping, exactly as no policy can
    /// through the public API: only an engine bug could.
    struct Corrupting(fn(&mut EngineState));

    impl MemoryPolicy for Corrupting {
        fn name(&self) -> String {
            "Corrupting".to_string()
        }
        fn before_kernel(&mut self, _: usize, _: &mut EngineState) {}
        fn after_kernel(&mut self, kernel: usize, state: &mut EngineState) {
            if kernel == CORRUPT_AT {
                (self.0)(state);
            }
        }
    }

    /// Replays under [`Validate::Always`] and returns the tag of the fault
    /// `advance` reports, which must be at [`CORRUPT_AT`]: the audit closing
    /// that step sees the corruption, and every earlier step passes.
    fn caught(corrupt: fn(&mut EngineState)) -> &'static str {
        let graph = build_model(ModelKind::TinyCnn, 4);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let config = SystemConfig::table2().with_gpu_memory(32 << 20);
        let options = RuntimeOptions {
            validate: Validate::Always,
            ..RuntimeOptions::default()
        };
        let policy = Box::new(Corrupting(corrupt));
        let mut engine = ReplayEngine::new(&graph, &trace, &config, policy, options);
        for k in 0..CORRUPT_AT {
            assert_eq!(engine.advance().map(|step| step.kernel), Ok(k));
        }
        match engine.advance() {
            Err(EngineError::Fault(fault)) if fault.step == CORRUPT_AT => fault.kind.tag(),
            other => panic!("corruption at step {CORRUPT_AT} must fault, got {other:?}"),
        }
    }

    #[test]
    fn audit_catches_capacity_overcommit() {
        // Overcommit past capacity plus in-flight frees, unacknowledged.
        let tag = caught(|state| {
            let over = state.uvm.gpu().free_bytes() + state.pending_gpu_free_bytes;
            state.uvm.gpu_mut().force_allocate(over + 1);
        });
        assert_eq!(tag, "capacity-exceeded");
    }

    #[test]
    fn audit_catches_ledger_corruption() {
        let tag = caught(|state| state.pending_gpu_free_bytes += 12_345);
        assert_eq!(tag, "ledger-corrupt");
    }

    #[test]
    fn audit_catches_time_regression() {
        let tag = caught(|state| {
            assert!(state.now > Nanos::ZERO, "nothing to rewind");
            state.now = Nanos::ZERO;
        });
        assert_eq!(tag, "time-regression");
    }

    #[test]
    fn audit_catches_non_finite_slowdown() {
        let tag = caught(|state| state.kernel_slowdowns[CORRUPT_AT] = f64::NAN);
        assert_eq!(tag, "non-finite-slowdown");
    }

    #[test]
    fn audit_catches_residency_desync() {
        let tag = caught(|state| state.uvm.gpu_mut().free(1));
        assert_eq!(tag, "residency-desync");
    }
}
