//! The pending-free ledger against an ordered-map reference: the
//! `BTreeMap<Nanos, u64>` keyed by completion time that the deque replaced.

use super::*;
use crate::policies::BaseUvmPolicy;
use g10_dnn::cost::GpuCostModel;
use g10_dnn::models::{build_model, ModelKind};
use std::collections::BTreeMap;

/// The reference's answer to [`EngineState::space_available_at`].
fn space_available_at(reference: &BTreeMap<Nanos, u64>, state: &EngineState, needed: u64) -> Nanos {
    let mut free = state.uvm.gpu().free_bytes();
    if free >= needed {
        return state.now;
    }
    for (&time, &bytes) in reference {
        free += bytes;
        if free >= needed {
            return time.max(state.now);
        }
    }
    state.now
}

/// The reference's `apply_pending`: removes every entry due by `now` and
/// returns the bytes it frees.
fn apply_pending(reference: &mut BTreeMap<Nanos, u64>, now: Nanos) -> u64 {
    let later = reference.split_off(&(now + Nanos::from_nanos(1)));
    std::mem::replace(reference, later).into_values().sum()
}

fn assert_agrees(reference: &BTreeMap<Nanos, u64>, state: &EngineState) {
    let entries: Vec<(Nanos, u64)> = reference.iter().map(|(&t, &b)| (t, b)).collect();
    assert_eq!(state.pending_gpu_free, entries);
    assert_eq!(
        state.pending_gpu_free_bytes,
        reference.values().sum::<u64>()
    );
    let total = state.pending_gpu_free_bytes;
    let free = state.uvm.gpu().free_bytes();
    for needed in [
        0,
        free,
        free + 1,
        free + total / 3,
        free + total,
        free + total + 1,
    ] {
        assert_eq!(
            state.space_available_at(needed),
            space_available_at(reference, state, needed),
            "needed {needed}"
        );
    }
}

#[test]
fn ledger_matches_an_ordered_map_under_out_of_order_completions() {
    let graph = build_model(ModelKind::TinyCnn, 32);
    let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
    let config = SystemConfig::table2();
    let policy = Box::new(BaseUvmPolicy::new());
    let engine = ReplayEngine::new(&graph, &trace, &config, policy, RuntimeOptions::default());
    let mut state = engine.state;
    // The weights start resident; evict them alternately to host and SSD.
    let residents: Vec<TensorId> = state.evictable_tensors().map(|(t, _, _)| t).collect();
    assert!(
        residents.len() >= 8,
        "too few residents: {}",
        residents.len()
    );

    let mut reference = BTreeMap::new();
    let mut out_of_order = 0;
    for (i, &tensor) in residents.iter().enumerate() {
        let destination = if i % 2 == 0 {
            Location::Ssd
        } else {
            Location::Host
        };
        let kind = match destination {
            Location::Host => MemKind::Host,
            _ => MemKind::Flash,
        };
        // The engine's channels are deterministic: a clone predicts the
        // completion time the eviction is about to get.
        let completion =
            state
                .uvm
                .clone()
                .transfer_from_gpu(state.bytes_of(tensor), kind, state.now);
        if reference
            .keys()
            .next_back()
            .is_some_and(|&last| completion < last)
        {
            out_of_order += 1;
        }
        assert!(state.request_evict(tensor, destination));
        *reference.entry(completion).or_insert(0) += state.bytes_of(tensor);
        assert_agrees(&reference, &state);
        // Every third eviction, move the clock to just past the earliest
        // completion and expire what is due.
        if i % 3 == 2 {
            let due = *reference.keys().next().expect("an eviction is pending");
            state.now = due;
            let free_before = state.uvm.gpu().free_bytes();
            state.apply_pending(state.now);
            let freed = state.uvm.gpu().free_bytes() - free_before;
            assert_eq!(freed, apply_pending(&mut reference, state.now));
            assert_agrees(&reference, &state);
        }
    }
    assert!(out_of_order > 0, "no completion arrived out of order");

    // Equal completion times merge into one entry, wherever they land.
    let times: Vec<Nanos> = reference.keys().copied().collect();
    state.uvm.gpu_mut().force_allocate(3 * 64);
    for time in [times[0], times[times.len() / 2], times[times.len() - 1]] {
        state.add_pending_free(time, 64);
        *reference.entry(time).or_insert(0) += 64;
        assert_agrees(&reference, &state);
    }

    // Draining at the end frees everything in one pass.
    let end = times[times.len() - 1];
    let free_before = state.uvm.gpu().free_bytes();
    state.apply_pending(end);
    assert_eq!(
        state.uvm.gpu().free_bytes() - free_before,
        apply_pending(&mut reference, end)
    );
    assert!(state.pending_gpu_free.is_empty() && reference.is_empty());
    assert_eq!(state.pending_gpu_free_bytes, 0);
}
