//! Linear-scan reference implementations of eviction-victim selection.
//!
//! These are O(R)-per-victim scans over
//! [`EngineState::evictable_tensors`], kept — like `g10_core::naive` for the
//! planner — only as the correctness oracle for the incremental
//! [`crate::victim::VictimIndex`], which is the engine's one selection path:
//!
//! * the property tests (`crates/g10-sim/tests/victim_props.rs`) assert that
//!   the index agrees with these scans on randomized touch/evict sequences,
//!   and
//! * a debug assertion in the engine cross-checks every indexed selection
//!   against the scan result, so every replay in the debug test suite
//!   validates the equivalence end to end.
//!
//! Tie-breaking is inherited from id-ordered iteration: `min_by_key` keeps
//! the *first* minimum (smallest tensor id) and `max_by_key` keeps the
//! *last* maximum (largest tensor id), exactly what the index reproduces.

use crate::engine::EngineState;
use g10_dnn::tensor::TensorId;

/// Least-recently-used victim by full linear scan: the first evictable
/// resident with the minimal `last_touch`, in tensor-id order.
pub fn lru_scan(state: &EngineState) -> Option<TensorId> {
    state
        .evictable_tensors()
        .min_by_key(|&(_, last_touch, _)| last_touch)
        .map(|(id, _, _)| id)
}

/// Largest victim by full linear scan: the last evictable resident with the
/// maximal size, in tensor-id order.
pub fn largest_scan(state: &EngineState) -> Option<TensorId> {
    state
        .evictable_tensors()
        .max_by_key(|&(_, _, bytes)| bytes)
        .map(|(id, _, _)| id)
}
