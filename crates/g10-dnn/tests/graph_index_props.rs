//! Property tests: the shared [`g10_dnn::index::GraphIndex`] must agree
//! with the naive reference derivations on random graphs.
//!
//! The references are the pre-index implementations of
//! `tests/support/naive.rs` (a fresh `HashSet` per kernel, a `Vec` per
//! tensor, a linear operand scan and the liveness-delta sweep) plus a
//! per-kernel `HashSet` working-set deduplication.

#[path = "support/naive.rs"]
mod naive;

use g10_dnn::graph::{DnnGraph, KernelId};
use g10_dnn::op::{KernelClass, OpCost};
use g10_dnn::tensor::{TensorId, TensorKind};
use proptest::prelude::*;
use std::collections::HashSet;

/// Assembles a random (not necessarily valid) graph: every tensor exists,
/// but some may be unused and kernels may touch the same tensor repeatedly
/// — exactly the shapes the index must handle without assuming builder
/// output.
fn assemble(sizes: &[u64], kernels: &[(Vec<usize>, Vec<usize>)]) -> DnnGraph {
    let mut graph = DnnGraph::with_batch_size("random", 1);
    let n = sizes.len();
    for (i, &bytes) in sizes.iter().enumerate() {
        let kind = match i % 5 {
            0 => TensorKind::Weight,
            1 => TensorKind::Activation,
            2 => TensorKind::ActivationGradient,
            3 => TensorKind::OptimizerState,
            _ => TensorKind::Workspace,
        };
        graph.add_tensor(kind, bytes, &format!("t{i}"));
    }
    for (k, (inputs, outputs)) in kernels.iter().enumerate() {
        let inputs: Vec<TensorId> = inputs
            .iter()
            .map(|&i| TensorId::new((i % n) as u32))
            .collect();
        let outputs: Vec<TensorId> = outputs
            .iter()
            .map(|&i| TensorId::new((i % n) as u32))
            .collect();
        graph.add_kernel(
            &format!("k{k}"),
            KernelClass::Elementwise,
            OpCost::default(),
            &inputs,
            &outputs,
        );
    }
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_matches_naive_references_on_random_graphs(
        sizes in proptest::collection::vec(1u64..100, 1..32),
        kernels in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..64, 1..6),
                proptest::collection::vec(0usize..64, 1..4),
            ),
            1..48,
        ),
    ) {
        let graph = assemble(&sizes, &kernels);
        let index = graph.index();
        let naive = naive::tensor_use_sites(&graph);

        prop_assert_eq!(index.num_tensors(), graph.num_tensors());
        prop_assert_eq!(index.num_kernels(), graph.num_kernels());

        // Tensor → use-site adjacency and lifetimes.
        for tensor in graph.tensors() {
            let sites = index.use_sites(tensor.id());
            prop_assert_eq!(sites, naive[tensor.id().index()].as_slice());
            prop_assert_eq!(index.use_count(tensor.id()), sites.len());
            prop_assert_eq!(index.first_use(tensor.id()), sites.first().copied());
            prop_assert_eq!(index.last_use(tensor.id()), sites.last().copied());
        }

        // Kernel → working sets: first-occurrence order, deduplicated bytes.
        let mut max_ws = 0u64;
        let (flat, offsets) = index.working_sets();
        for kernel in graph.kernels() {
            let mut seen = HashSet::new();
            let mut reference = Vec::new();
            let mut bytes = 0u64;
            for &t in graph.operands(kernel.id()) {
                if seen.insert(t) {
                    reference.push(t);
                    bytes += graph.tensor(t).bytes();
                }
            }
            let k = kernel.id().index();
            prop_assert_eq!(&flat[offsets[k]..offsets[k + 1]], reference.as_slice());
            prop_assert_eq!(index.active_bytes()[kernel.id().index()], bytes);
            max_ws = max_ws.max(bytes);
        }
        prop_assert_eq!(index.max_kernel_working_set_bytes(), max_ws);

        // Liveness curve and cached footprint totals.
        prop_assert_eq!(index.live_bytes(), naive::live_bytes(&graph, &naive).as_slice());
        // A kernel's active set is live while it runs, and every used
        // global stays live all iteration (an unused one never becomes
        // live), so both bound the live curve from below.
        for (k, (active, live)) in index.active_bytes().iter().zip(index.live_bytes()).enumerate() {
            prop_assert!(active <= live, "kernel {}: active {} exceeds live {}", k, active, live);
        }
        let used_global_bytes: u64 = graph
            .tensors()
            .iter()
            .filter(|t| t.is_global() && !naive[t.id().index()].is_empty())
            .map(|t| t.bytes())
            .sum();
        prop_assert!(index.peak_live_bytes() >= used_global_bytes);
        prop_assert_eq!(
            index.total_tensor_bytes(),
            graph.tensors().iter().map(|t| t.bytes()).sum::<u64>()
        );
        prop_assert_eq!(
            index.global_tensor_bytes(),
            graph
                .tensors()
                .iter()
                .filter(|t| t.is_global())
                .map(|t| t.bytes())
                .sum::<u64>()
        );
    }

    #[test]
    fn index_is_rebuilt_after_mutation(
        sizes in proptest::collection::vec(1u64..50, 2..12),
        kernels in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..16, 1..4),
                proptest::collection::vec(0usize..16, 1..3),
            ),
            1..8,
        ),
        extra in proptest::collection::vec(0usize..16, 1..4),
    ) {
        let mut graph = assemble(&sizes, &kernels);
        // Materialise the index, then mutate: the next access must reflect
        // the appended kernel, not the stale cache.
        let kernels_before = graph.index().num_kernels();
        let inputs: Vec<TensorId> = extra
            .iter()
            .map(|&i| TensorId::new((i % sizes.len()) as u32))
            .collect();
        let first = inputs[0];
        graph.add_kernel(
            "appended",
            KernelClass::Elementwise,
            OpCost::default(),
            &inputs,
            &[],
        );
        let index = graph.index();
        prop_assert_eq!(index.num_kernels(), kernels_before + 1);
        let appended = KernelId::new(kernels_before as u32);
        prop_assert_eq!(index.use_sites(first).last().copied(), Some(appended));
    }
}
