//! The memory-policy interface through which a design plugs into the replay
//! engine.
//!
//! The engine owns all the simulation state ([`crate::engine::EngineState`]);
//! a policy is notified before and after every kernel so it can issue
//! asynchronous prefetches and pre-evictions, decides where tensors live at
//! the start of the iteration, and is consulted whenever the engine must
//! reclaim GPU space for a kernel's working set.

use crate::engine::{EngineState, Location};
use g10_dnn::tensor::{TensorId, TensorInfo};

/// A GPU memory management design.
pub trait MemoryPolicy {
    /// The display name used in reports (matching the paper's figures).
    fn name(&self) -> String;

    /// Where a tensor lives at time zero.  The default places global tensors
    /// (weights, optimizer state) in GPU memory and leaves intermediates
    /// unallocated; designs with steady-state placements (G10 wrap-around
    /// evictions) override this.
    fn initial_location(&self, tensor: &TensorInfo) -> Location {
        if tensor.is_global() {
            Location::Gpu
        } else {
            Location::Unallocated
        }
    }

    /// Hook invoked before a kernel launches; issue prefetches here.
    fn before_kernel(&mut self, kernel: usize, state: &mut EngineState);

    /// Hook invoked after a kernel completes; issue pre-evictions here.
    fn after_kernel(&mut self, kernel: usize, state: &mut EngineState);

    /// Chooses one tensor to evict (and where to put it) when the engine
    /// needs GPU space.  Returning `None` means nothing can be evicted and
    /// the engine will oversubscribe.  The default is least-recently-used
    /// among evictable residents, preferring host memory while it has room.
    fn select_victim(&mut self, state: &EngineState) -> Option<(TensorId, Location)> {
        lru_victim(state)
    }

    /// Whether unplanned accesses go through the UVM far-fault path (45 µs
    /// per batch).  Designs that manage memory explicitly outside UVM
    /// (FlashNeuron) return `false`: they never fault, they just wait for
    /// their own transfers.
    fn pays_fault_overhead(&self) -> bool {
        true
    }
}

/// Least-recently-used victim selection with host-then-SSD placement: the
/// shared default used by Base UVM, DeepUM+ and as G10's fallback.
///
/// Selection goes through [`EngineState::lru_victim_candidate`]: O(1 +
/// protected) against the engine's incremental victim index.
pub fn lru_victim(state: &EngineState) -> Option<(TensorId, Location)> {
    let victim = state.lru_victim_candidate()?;
    let bytes = state.bytes_of(victim);
    let destination = if state.host_free_bytes() >= bytes {
        Location::Host
    } else {
        Location::Ssd
    };
    Some((victim, destination))
}

/// Largest-resident victim selection with SSD-only placement, used by
/// FlashNeuron's explicit memory manager.
///
/// Selection goes through [`EngineState::largest_victim_candidate`], also
/// answered by the victim index.
pub fn largest_victim_to_ssd(state: &EngineState) -> Option<(TensorId, Location)> {
    state
        .largest_victim_candidate()
        .map(|id| (id, Location::Ssd))
}

#[cfg(test)]
mod tests {
    // The victim-selection helpers are exercised end-to-end through the
    // engine tests and the policy tests in `policies/`; the unit tests here
    // only cover the trait's defaults with a minimal dummy policy.
    use super::*;
    use g10_dnn::tensor::{TensorInfo, TensorKind};

    struct Dummy;
    impl MemoryPolicy for Dummy {
        fn name(&self) -> String {
            "dummy".to_string()
        }
        fn before_kernel(&mut self, _: usize, _: &mut EngineState) {}
        fn after_kernel(&mut self, _: usize, _: &mut EngineState) {}
    }

    #[test]
    fn default_initial_location_depends_on_globality() {
        let policy = Dummy;
        let weight = TensorInfo::new(TensorId::new(0), TensorKind::Weight, 16);
        let act = TensorInfo::new(TensorId::new(1), TensorKind::Activation, 16);
        assert_eq!(policy.initial_location(&weight), Location::Gpu);
        assert_eq!(policy.initial_location(&act), Location::Unallocated);
        assert!(policy.pays_fault_overhead());
        assert_eq!(policy.name(), "dummy");
    }
}
