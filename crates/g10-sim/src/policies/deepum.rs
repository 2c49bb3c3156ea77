//! DeepUM+: correlation-based prefetching on top of UVM.
//!
//! DeepUM records the sequence of unified-memory blocks kernels touch and,
//! because DNN training repeats the same kernel sequence every iteration,
//! its correlation prefetcher effectively knows which data the next few
//! kernels will need and pulls it in while the current kernel runs.  The
//! paper extends the original CPU-GPU design with SSD support ("DeepUM+"):
//! when a page must be evicted and the CPU memory is full, it goes to the
//! SSD.  That is exactly what this policy does at tensor granularity: a
//! fixed look-ahead window of upcoming kernels is prefetched, and evictions
//! are least-recently-used with host-then-SSD placement.

use crate::engine::{EngineState, Location};
use crate::policy::{lru_victim, MemoryPolicy};
use g10_dnn::graph::DnnGraph;
use g10_dnn::index::GraphIndex;
use std::sync::Arc;

/// Default number of upcoming kernels whose working sets are prefetched.
pub const DEFAULT_LOOKAHEAD: usize = 4;

/// The DeepUM+ baseline.
///
/// The per-kernel working sets come from the graph's shared
/// [`GraphIndex`] CSR arena (deduplicated once per graph with an
/// epoch-stamped scratch array, not a per-kernel hash set); the correlation
/// prefetcher's look-ahead window is then a *sliding contiguous slice* of
/// that arena.  Advancing from kernel `k` to `k + 1` reuses the overlap of
/// the two windows — only the window's two arena bounds move, nothing is
/// rebuilt or allocated per kernel.
#[derive(Debug, Clone)]
pub struct DeepUmPolicy {
    /// The shared per-graph analysis index holding the flattened working
    /// sets: kernel `k` owns `flat[offsets[k]..offsets[k + 1]]`.
    index: Arc<GraphIndex>,
    lookahead: usize,
}

impl DeepUmPolicy {
    /// Creates the policy for one training-iteration graph with the default
    /// look-ahead window.
    pub fn new(graph: &DnnGraph) -> Self {
        Self::with_lookahead(graph, DEFAULT_LOOKAHEAD)
    }

    /// Creates the policy with an explicit look-ahead window (in kernels).
    fn with_lookahead(graph: &DnnGraph, lookahead: usize) -> Self {
        DeepUmPolicy {
            index: graph.shared_index(),
            lookahead: lookahead.max(1),
        }
    }

    /// The look-ahead window in kernels.
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// Number of kernels the policy tracks.
    fn num_kernels(&self) -> usize {
        self.index.num_kernels()
    }
}

impl MemoryPolicy for DeepUmPolicy {
    fn name(&self) -> String {
        "DeepUM+".to_string()
    }

    fn before_kernel(&mut self, kernel: usize, state: &mut EngineState) {
        // The look-ahead window over kernels `kernel + 1 .. end` is one
        // contiguous arena slice; consecutive kernels share its overlap.
        let end = (kernel + 1 + self.lookahead).min(self.num_kernels());
        if kernel + 1 >= end {
            return;
        }
        let (flat, offsets) = self.index.working_sets();
        let window = offsets[kernel + 1]..offsets[end];
        for idx in window {
            let tensor = flat[idx];
            if state.is_resident_or_inbound(tensor)
                || state.location(tensor) == Location::Unallocated
            {
                continue;
            }
            state.request_prefetch_evicting(tensor, lru_victim);
        }
    }

    fn after_kernel(&mut self, _kernel: usize, _state: &mut EngineState) {}
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use g10_dnn::models::{build_model, ModelKind};

    #[test]
    fn lookahead_is_clamped_to_at_least_one() {
        let graph = build_model(ModelKind::TinyCnn, 4);
        let p = DeepUmPolicy::with_lookahead(&graph, 0);
        assert_eq!(p.lookahead(), 1);
        let p = DeepUmPolicy::new(&graph);
        assert_eq!(p.lookahead(), DEFAULT_LOOKAHEAD);
        assert_eq!(p.name(), "DeepUM+");
    }

    #[test]
    fn required_sets_cover_every_kernel() {
        let graph = build_model(ModelKind::TinyCnn, 4);
        let p = DeepUmPolicy::new(&graph);
        assert_eq!(p.num_kernels(), graph.num_kernels());
        // Every kernel's arena slice is non-empty (offsets strictly
        // increase) and the arena is exactly covered.
        let (flat, offsets) = p.index.working_sets();
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*offsets.last().unwrap(), flat.len());
    }
}
