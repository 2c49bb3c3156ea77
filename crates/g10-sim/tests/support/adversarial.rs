//! Deterministic hostile policies for fuzzing the engine's hardening layer.
//!
//! Test support, not a design: [`AdversarialPolicy`] draws a seeded stream
//! of actions — legal prefetches and evictions, out-of-range tensor ids,
//! strict-API misuse, mid-hook panics — and throws them at the engine
//! through the same [`MemoryPolicy`] interface every real design uses.  The
//! fuzz harness (`tests/policy_fuzz.rs`) asserts that whatever this policy
//! does, the engine never panics, never corrupts its bookkeeping, and
//! reports misbehaviour only as typed
//! [`PolicyFault`](g10_sim::SimError::PolicyFault)s.  The same
//! specs also drive the multi-tenant path ([`g10_sim::tenancy`]): hostile
//! policies steering concurrent quota'd jobs must never panic the
//! scheduler, breach a tenant's quota without a forced oversubscription,
//! or starve the invariant guard.
//!
//! Everything here is deterministic in [`AdversarialSpec`]: the same spec
//! replays the same hostile action sequence, so fuzz failures reproduce
//! from the printed spec alone.

use g10_dnn::tensor::{TensorId, TensorInfo};
use g10_sim::engine::{EngineState, Location};
use g10_sim::policy::{lru_victim, MemoryPolicy};
use g10_sim::session::{PolicyContext, PolicyProvider};

/// Everything that parameterises one adversarial run.  `Copy` and built
/// from plain integers so property tests can generate and print it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarialSpec {
    /// Seed of the action stream; every draw derives from it.
    pub seed: u64,
    /// Probability (out of 255) that a drawn action is hostile rather than
    /// a legal request or a no-op.
    pub hostility: u8,
    /// How many actions each `before_kernel`/`after_kernel` hook issues.
    pub actions_per_hook: u8,
    /// Panic unconditionally once this many hook invocations have run
    /// (`None` panics only via the randomly drawn panic action).
    pub panic_after_hooks: Option<u32>,
    /// Panic inside [`PolicyProvider::build`] instead of building at all.
    pub panic_in_build: bool,
}

impl AdversarialSpec {
    /// A mildly hostile baseline: mostly legal traffic, occasional abuse,
    /// no scripted panics.
    pub fn from_seed(seed: u64) -> Self {
        AdversarialSpec {
            seed,
            hostility: 64,
            actions_per_hook: 3,
            panic_after_hooks: None,
            panic_in_build: false,
        }
    }
}

/// The moves in the adversary's repertoire.  Legal actions exercise the
/// graceful request API exactly like a real design; hostile ones aim at
/// every action-level fault path the engine defends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostileAction {
    /// Do nothing this draw.
    Idle,
    /// Legal: graceful prefetch of an in-range tensor.
    Prefetch,
    /// Legal: graceful eviction of an in-range tensor to a random
    /// destination (including illegal destinations the API tolerates).
    Evict,
    /// Legal: combined prefetch-with-eviction using a random victim chooser.
    PrefetchEvicting,
    /// Hostile: graceful request with an out-of-range tensor id.
    OutOfRangeRequest,
    /// Hostile: out-of-range id through the read-only accessors.
    OutOfRangeQuery,
    /// Hostile: strict prefetch aimed at an already-resident tensor.
    StrictPrefetchResident,
    /// Hostile: strict eviction aimed at a non-resident tensor.
    StrictEvictNonResident,
    /// Hostile: panic in the middle of the hook.
    Panic,
}

/// A tiny splitmix64 generator: deterministic, dependency-free, and good
/// enough to decorrelate action draws from a single seed.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The hostile policy itself.  See the [module docs](self).
#[derive(Debug)]
pub struct AdversarialPolicy {
    spec: AdversarialSpec,
    rng: SplitMix64,
    universe: u32,
    hooks_run: u32,
}

impl AdversarialPolicy {
    /// Builds the policy for a graph of `universe` tensors.
    pub fn new(spec: AdversarialSpec, universe: usize) -> Self {
        AdversarialPolicy {
            spec,
            rng: SplitMix64(spec.seed),
            universe: universe as u32,
            hooks_run: 0,
        }
    }

    fn draw_action(&mut self) -> HostileAction {
        let hostile = self.rng.below(256) < u64::from(self.spec.hostility);
        if hostile {
            match self.rng.below(5) {
                0 => HostileAction::OutOfRangeRequest,
                1 => HostileAction::OutOfRangeQuery,
                2 => HostileAction::StrictPrefetchResident,
                3 => HostileAction::StrictEvictNonResident,
                _ => HostileAction::Panic,
            }
        } else {
            match self.rng.below(4) {
                0 => HostileAction::Idle,
                1 => HostileAction::Prefetch,
                2 => HostileAction::Evict,
                _ => HostileAction::PrefetchEvicting,
            }
        }
    }

    fn random_id(&mut self) -> TensorId {
        TensorId::new(self.rng.below(u64::from(self.universe.max(1))) as u32)
    }

    /// An id at or past the end of the tensor table, possibly far past.
    fn out_of_range_id(&mut self) -> TensorId {
        let slack = self.rng.below(1 << 16) as u32;
        TensorId::new(self.universe.saturating_add(slack))
    }

    fn random_destination(&mut self) -> Location {
        match self.rng.below(4) {
            0 => Location::Host,
            1 => Location::Ssd,
            2 => Location::Gpu,
            _ => Location::Unallocated,
        }
    }

    /// A tensor currently resident on the GPU, if any (strict-prefetch bait).
    fn resident_tensor(state: &EngineState, universe: u32) -> Option<TensorId> {
        (0..universe)
            .map(TensorId::new)
            .find(|&t| state.location(t) == Location::Gpu)
    }

    /// A tensor currently *not* on the GPU, if any (strict-evict bait).
    fn non_resident_tensor(state: &EngineState, universe: u32) -> Option<TensorId> {
        (0..universe)
            .map(TensorId::new)
            .find(|&t| state.location(t) != Location::Gpu)
    }

    fn hook(&mut self, state: &mut EngineState) {
        self.hooks_run += 1;
        if let Some(limit) = self.spec.panic_after_hooks {
            if self.hooks_run > limit {
                panic!("adversarial policy: scripted panic after {limit} hooks");
            }
        }
        for _ in 0..self.spec.actions_per_hook {
            match self.draw_action() {
                HostileAction::Idle => {}
                HostileAction::Prefetch => {
                    let t = self.random_id();
                    state.request_prefetch(t);
                }
                HostileAction::Evict => {
                    let t = self.random_id();
                    let dest = self.random_destination();
                    state.request_evict(t, dest);
                }
                HostileAction::PrefetchEvicting => {
                    let t = self.random_id();
                    let pick_lru = self.rng.below(2) == 0;
                    state.request_prefetch_evicting(
                        t,
                        |s| {
                            if pick_lru {
                                lru_victim(s)
                            } else {
                                None
                            }
                        },
                    );
                }
                HostileAction::OutOfRangeRequest => {
                    let t = self.out_of_range_id();
                    if self.rng.below(2) == 0 {
                        state.request_prefetch(t);
                    } else {
                        state.request_evict(t, Location::Ssd);
                    }
                }
                HostileAction::OutOfRangeQuery => {
                    let t = self.out_of_range_id();
                    // The checked accessors return inert defaults but still
                    // flag the out-of-range id as a fault.
                    let _ = state.bytes_of(t);
                    let _ = state.location(t);
                    let _ = state.is_resident_or_inbound(t);
                }
                HostileAction::StrictPrefetchResident => {
                    let bait = Self::resident_tensor(state, self.universe)
                        .unwrap_or_else(|| TensorId::new(0));
                    state.request_prefetch_strict(bait);
                }
                HostileAction::StrictEvictNonResident => {
                    let bait = Self::non_resident_tensor(state, self.universe)
                        .unwrap_or_else(|| TensorId::new(0));
                    state.request_evict_strict(bait, Location::Ssd);
                }
                HostileAction::Panic => {
                    panic!("adversarial policy: random panic");
                }
            }
        }
    }
}

impl MemoryPolicy for AdversarialPolicy {
    fn name(&self) -> String {
        "Adversary".to_string()
    }

    fn initial_location(&self, tensor: &TensorInfo) -> Location {
        // Deterministic per-tensor placement lies: some globals start off
        // the GPU, some intermediates claim residency from time zero.
        let mut rng = SplitMix64(self.spec.seed ^ tensor.id().index() as u64);
        match rng.below(4) {
            0 => Location::Gpu,
            1 => Location::Host,
            2 => Location::Ssd,
            _ => Location::Unallocated,
        }
    }

    fn before_kernel(&mut self, _kernel: usize, state: &mut EngineState) {
        self.hook(state);
    }

    fn after_kernel(&mut self, _kernel: usize, state: &mut EngineState) {
        self.hook(state);
    }

    fn select_victim(&mut self, state: &EngineState) -> Option<(TensorId, Location)> {
        match self.rng.below(3) {
            0 => None,
            1 => lru_victim(state),
            _ => {
                let t = self.random_id();
                let dest = self.random_destination();
                Some((t, dest))
            }
        }
    }

    fn pays_fault_overhead(&self) -> bool {
        self.spec.seed.is_multiple_of(2)
    }
}

/// Provider wrapping [`AdversarialPolicy`] so fuzz tests can register it
/// like any out-of-tree design.
#[derive(Debug, Clone, Copy)]
pub struct AdversarialProvider {
    /// The spec every built policy replays.
    pub spec: AdversarialSpec,
}

impl PolicyProvider for AdversarialProvider {
    fn build(&self, ctx: &PolicyContext<'_>) -> Box<dyn MemoryPolicy> {
        if self.spec.panic_in_build {
            panic!("adversarial provider: scripted build panic");
        }
        Box::new(AdversarialPolicy::new(
            self.spec,
            ctx.workload.graph.num_tensors(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_stream_is_deterministic() {
        let spec = AdversarialSpec::from_seed(42);
        let mut a = AdversarialPolicy::new(spec, 10);
        let mut b = AdversarialPolicy::new(spec, 10);
        for _ in 0..100 {
            assert_eq!(a.draw_action(), b.draw_action());
        }
    }

    #[test]
    fn hostility_extremes_shape_the_stream() {
        let mut tame = AdversarialPolicy::new(
            AdversarialSpec {
                hostility: 0,
                ..AdversarialSpec::from_seed(7)
            },
            10,
        );
        let mut vicious = AdversarialPolicy::new(
            AdversarialSpec {
                hostility: 255,
                ..AdversarialSpec::from_seed(7)
            },
            10,
        );
        for _ in 0..50 {
            assert!(matches!(
                tame.draw_action(),
                HostileAction::Idle
                    | HostileAction::Prefetch
                    | HostileAction::Evict
                    | HostileAction::PrefetchEvicting
            ));
            assert!(matches!(
                vicious.draw_action(),
                HostileAction::OutOfRangeRequest
                    | HostileAction::OutOfRangeQuery
                    | HostileAction::StrictPrefetchResident
                    | HostileAction::StrictEvictNonResident
                    | HostileAction::Panic
            ));
        }
    }

    #[test]
    fn out_of_range_ids_start_at_the_universe_edge() {
        let mut policy = AdversarialPolicy::new(AdversarialSpec::from_seed(3), 12);
        for _ in 0..50 {
            assert!(policy.out_of_range_id().index() >= 12);
            assert!(policy.random_id().index() < 12);
        }
    }
}
