//! Naive reference derivations of the facts `g10_dnn::index::GraphIndex`
//! computes: a fresh `HashSet` per kernel, a `Vec` per tensor, a linear
//! operand scan and a liveness-delta sweep.  They are the pre-index
//! implementations, kept only as the correctness oracle for the index:
//!
//! * `crates/g10-dnn/tests/graph_index_props.rs` pins the index against
//!   them on random graphs, and
//! * `tests/workload_scaling.rs` re-derives every analysis fact from them
//!   on a mid-size stress graph and on tiny paper models.

use g10_dnn::graph::{DnnGraph, KernelId};
use std::collections::HashSet;

/// For every tensor, the kernels (in execution order, deduplicated) that
/// use it.
pub fn tensor_use_sites(graph: &DnnGraph) -> Vec<Vec<KernelId>> {
    let mut uses = vec![Vec::new(); graph.num_tensors()];
    for kernel in graph.kernels() {
        let mut seen = HashSet::new();
        for &t in graph.operands(kernel.id()) {
            if seen.insert(t) {
                uses[t.index()].push(kernel.id());
            }
        }
    }
    uses
}

/// Live bytes per kernel assuming nothing is evicted: globals for the whole
/// iteration, intermediates from first to last use, accumulated via deltas.
pub fn live_bytes(graph: &DnnGraph, uses: &[Vec<KernelId>]) -> Vec<u64> {
    let n_kernels = graph.num_kernels();
    let mut delta = vec![0i64; n_kernels + 1];
    for tensor in graph.tensors() {
        let sites = &uses[tensor.id().index()];
        if sites.is_empty() {
            continue;
        }
        let (birth, death) = if tensor.is_global() {
            (0usize, n_kernels - 1)
        } else {
            (sites[0].index(), sites[sites.len() - 1].index())
        };
        delta[birth] += tensor.bytes() as i64;
        delta[death + 1] -= tensor.bytes() as i64;
    }
    let mut running = 0i64;
    delta
        .iter()
        .take(n_kernels)
        .map(|d| {
            running += d;
            running.max(0) as u64
        })
        .collect()
}
