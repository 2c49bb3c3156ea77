//! The shared graph-analysis index.
//!
//! Every downstream consumer of a [`DnnGraph`] — the Figure 2
//! characterisation, the tensor vitality analyzer in `g10-core` (and the
//! Figure 3–4 inactive periods it derives), the G10 and FlashNeuron
//! planners, the replay engine and the DeepUM+ prefetcher in `g10-sim` —
//! needs the
//! same handful of derived facts: which kernels use each tensor, each
//! tensor's first and last use, each kernel's deduplicated working set, and
//! the no-eviction liveness curve.  Before this module each consumer
//! re-derived them with its own O(E) pass over the graph, allocating a
//! fresh `HashSet` per kernel and a `Vec` per tensor; a seven-policy
//! experiment cell paid for the same adjacency roughly nine times.
//!
//! [`GraphIndex`] derives everything once, in two linear passes with an
//! epoch-stamped scratch array (no hashing, no per-tensor or per-kernel
//! allocation), and stores the results in CSR (compressed sparse row) form
//! so consumers borrow slices instead of owning nested `Vec`s.  The index
//! is built at [`crate::builder::GraphBuilder::finish`] (or lazily on first
//! use for hand-assembled graphs), cached inside the graph, and invalidated
//! whenever the graph is mutated.  It is the only home of these facts:
//! the graph itself keeps no per-tensor or per-kernel derivations.
//!
//! The pre-index derivations live on as naive references in the test
//! crate (`crates/g10-dnn/tests/support/naive.rs`); property tests pin the
//! index against them on random graphs
//! (`crates/g10-dnn/tests/graph_index_props.rs`).

use crate::graph::{DnnGraph, KernelId};
use crate::tensor::TensorId;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Immutable analysis facts derived from one [`DnnGraph`].
///
/// All per-tensor and per-kernel collections are stored CSR-flattened: one
/// arena `Vec` plus an offsets `Vec`, so lookups return borrowed slices.
///
/// # Example
///
/// ```
/// use g10_dnn::models::{build_model, ModelKind};
///
/// let graph = build_model(ModelKind::TinyCnn, 4);
/// let index = graph.index();
/// // Every tensor of a built model has use sites, in execution order.
/// for tensor in graph.tensors() {
///     let sites = index.use_sites(tensor.id());
///     assert!(sites.windows(2).all(|pair| pair[0] < pair[1]));
///     assert_eq!(index.first_use(tensor.id()), sites.first().copied());
/// }
/// // Weights stay live all iteration, so they bound the peak from below.
/// assert!(index.peak_live_bytes() >= index.global_tensor_bytes());
/// assert_eq!(index.total_tensor_bytes(), graph.total_tensor_bytes());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphIndex {
    /// Tensor → use-site adjacency, CSR-flattened: tensor `t`'s use sites
    /// (kernels, in execution order, deduplicated) are
    /// `use_flat[use_offsets[t.index()]..use_offsets[t.index() + 1]]`.
    use_flat: Vec<KernelId>,
    use_offsets: Vec<usize>,
    /// Kernel → unique working set, CSR-flattened in first-occurrence order
    /// (inputs then outputs): kernel `k`'s tensors are
    /// `ws_flat[ws_offsets[k.index()]..ws_offsets[k.index() + 1]]`.
    ws_flat: Vec<TensorId>,
    ws_offsets: Vec<usize>,
    /// Per-kernel deduplicated working-set bytes (also the *active* bytes of
    /// the paper's Figure 2).
    ws_bytes: Vec<u64>,
    max_ws_bytes: u64,
    /// Per-kernel live bytes assuming nothing is ever evicted: globals from
    /// kernel 0 to the end, intermediates from first to last use.
    live_bytes: Vec<u64>,
    total_tensor_bytes: u64,
    global_tensor_bytes: u64,
}

impl GraphIndex {
    /// Derives the index from a graph in two linear passes.
    ///
    /// # Panics
    ///
    /// Panics if a kernel references a tensor id outside the graph's tensor
    /// table ([`DnnGraph::validate`] reports that case as an error instead).
    pub fn build(graph: &DnnGraph) -> Self {
        let n_tensors = graph.num_tensors();
        let n_kernels = graph.num_kernels();
        let total_refs: usize = graph
            .kernels()
            .iter()
            .map(|k| graph.operands(k.id()).len())
            .sum();

        // Pass 1: per-kernel working sets (epoch-deduplicated), per-tensor
        // use counts and first/last use, and the working-set byte sums.
        let mut ws_flat = Vec::with_capacity(total_refs);
        let mut ws_offsets = Vec::with_capacity(n_kernels + 1);
        ws_offsets.push(0);
        let mut ws_bytes = Vec::with_capacity(n_kernels);
        let mut seen_epoch = vec![u32::MAX; n_tensors];
        let mut use_counts = vec![0usize; n_tensors];
        let mut first_use = vec![u32::MAX; n_tensors];
        let mut last_use = vec![0u32; n_tensors];
        let mut max_ws_bytes = 0u64;
        for (k, kernel) in graph.kernels().iter().enumerate() {
            let stamp = k as u32;
            let mut bytes = 0u64;
            for &t in graph.operands(kernel.id()) {
                let idx = t.index();
                if seen_epoch[idx] != stamp {
                    seen_epoch[idx] = stamp;
                    ws_flat.push(t);
                    bytes += graph.tensor(t).bytes();
                    use_counts[idx] += 1;
                    if first_use[idx] == u32::MAX {
                        first_use[idx] = stamp;
                    }
                    last_use[idx] = stamp;
                }
            }
            ws_offsets.push(ws_flat.len());
            ws_bytes.push(bytes);
            max_ws_bytes = max_ws_bytes.max(bytes);
        }

        // Pass 2: transpose the working sets into the tensor → use-site CSR.
        // `ws_flat` visits kernels in execution order, so each tensor's
        // sites come out sorted without any comparison or hashing.
        let mut use_offsets = Vec::with_capacity(n_tensors + 1);
        let mut running = 0usize;
        use_offsets.push(0);
        for &count in &use_counts {
            running += count;
            use_offsets.push(running);
        }
        let mut cursor: Vec<usize> = use_offsets[..n_tensors].to_vec();
        let mut use_flat = vec![KernelId::new(0); running];
        for k in 0..n_kernels {
            let id = KernelId::new(k as u32);
            for &t in &ws_flat[ws_offsets[k]..ws_offsets[k + 1]] {
                use_flat[cursor[t.index()]] = id;
                cursor[t.index()] += 1;
            }
        }

        // Liveness deltas → the no-eviction live-bytes curve, plus the
        // cached footprint totals.
        let mut live_delta = vec![0i64; n_kernels + 1];
        let mut total_tensor_bytes = 0u64;
        let mut global_tensor_bytes = 0u64;
        for tensor in graph.tensors() {
            let idx = tensor.id().index();
            total_tensor_bytes += tensor.bytes();
            if tensor.is_global() {
                global_tensor_bytes += tensor.bytes();
            }
            if use_counts[idx] == 0 {
                continue;
            }
            let (birth, death) = if tensor.is_global() {
                (0usize, n_kernels - 1)
            } else {
                (first_use[idx] as usize, last_use[idx] as usize)
            };
            live_delta[birth] += tensor.bytes() as i64;
            live_delta[death + 1] -= tensor.bytes() as i64;
        }
        let mut live_bytes = Vec::with_capacity(n_kernels);
        let mut running = 0i64;
        for delta in live_delta.iter().take(n_kernels) {
            running += delta;
            live_bytes.push(running.max(0) as u64);
        }

        GraphIndex {
            use_flat,
            use_offsets,
            ws_flat,
            ws_offsets,
            ws_bytes,
            max_ws_bytes,
            live_bytes,
            total_tensor_bytes,
            global_tensor_bytes,
        }
    }

    /// Number of kernels the index covers.
    pub fn num_kernels(&self) -> usize {
        self.ws_bytes.len()
    }

    /// Number of tensors the index covers.
    pub fn num_tensors(&self) -> usize {
        self.use_offsets.len() - 1
    }

    /// The kernels (in execution order, deduplicated) that use the tensor.
    pub fn use_sites(&self, tensor: TensorId) -> &[KernelId] {
        &self.use_flat[self.use_offsets[tensor.index()]..self.use_offsets[tensor.index() + 1]]
    }

    /// Number of kernels that use the tensor (0 for unused tensors).
    pub fn use_count(&self, tensor: TensorId) -> usize {
        self.use_offsets[tensor.index() + 1] - self.use_offsets[tensor.index()]
    }

    /// Total number of (tensor, kernel) use pairs across the graph — an
    /// upper bound on the inactive-period count, used to pre-size period
    /// collections.
    pub fn total_use_sites(&self) -> usize {
        self.use_flat.len()
    }

    /// First kernel that uses the tensor, if it is used at all.
    pub fn first_use(&self, tensor: TensorId) -> Option<KernelId> {
        self.use_sites(tensor).first().copied()
    }

    /// Last kernel that uses the tensor, if it is used at all.
    pub fn last_use(&self, tensor: TensorId) -> Option<KernelId> {
        self.use_sites(tensor).last().copied()
    }

    /// The whole working-set arena: `(flat, offsets)` with kernel `k`'s
    /// tensors at `flat[offsets[k]..offsets[k + 1]]`.  The replay engine and
    /// the DeepUM+ look-ahead window consume this form directly.
    pub fn working_sets(&self) -> (&[TensorId], &[usize]) {
        (&self.ws_flat, &self.ws_offsets)
    }

    /// Per-kernel working-set bytes, indexed by kernel execution order (the
    /// *active* bytes of the paper's Figure 2).
    pub fn active_bytes(&self) -> &[u64] {
        &self.ws_bytes
    }

    /// The largest per-kernel working set in the graph.  The paper notes the
    /// largest kernel in its studied models occupies 5.7 GB — far below the
    /// 40 GB A100 capacity — which is what makes swapping viable at all.
    pub fn max_kernel_working_set_bytes(&self) -> u64 {
        self.max_ws_bytes
    }

    /// Per-kernel live bytes assuming nothing is ever evicted (globals are
    /// always live, intermediates from first to last use).
    pub fn live_bytes(&self) -> &[u64] {
        &self.live_bytes
    }

    /// Peak of the no-eviction live-bytes curve.
    pub fn peak_live_bytes(&self) -> u64 {
        self.live_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Sum of the sizes of all tensors, in bytes.
    pub fn total_tensor_bytes(&self) -> u64 {
        self.total_tensor_bytes
    }

    /// Sum of the sizes of global (weight / optimizer-state) tensors.
    pub fn global_tensor_bytes(&self) -> u64 {
        self.global_tensor_bytes
    }
}

/// Cache slot for a graph's lazily built [`GraphIndex`].
///
/// The cell is invisible to the graph's value semantics: clones carry the
/// already-built index (it is immutable and shared via `Arc`), mutation
/// clears it, and equality ignores it entirely.
#[derive(Default)]
pub(crate) struct IndexCell(OnceLock<Arc<GraphIndex>>);

impl IndexCell {
    /// The cached index, building it on first use.
    pub(crate) fn get_or_build(&self, graph: &DnnGraph) -> &Arc<GraphIndex> {
        self.0.get_or_init(|| Arc::new(GraphIndex::build(graph)))
    }

    /// Drops the cached index (the graph is about to change).
    pub(crate) fn invalidate(&mut self) {
        self.0.take();
    }
}

impl Clone for IndexCell {
    fn clone(&self) -> Self {
        let cell = OnceLock::new();
        if let Some(index) = self.0.get() {
            let _ = cell.set(index.clone());
        }
        IndexCell(cell)
    }
}

impl fmt::Debug for IndexCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "IndexCell(built)"
        } else {
            "IndexCell(empty)"
        })
    }
}

impl PartialEq for IndexCell {
    fn eq(&self, _other: &Self) -> bool {
        // A cache over derived data: two graphs with equal content are equal
        // regardless of whether either has materialised its index yet.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{build_model, ModelKind};
    use crate::op::{KernelClass, OpCost};
    use crate::tensor::TensorKind;
    use std::collections::HashSet;

    fn model_graph() -> DnnGraph {
        build_model(ModelKind::TinyTransformer, 4)
    }

    #[test]
    fn working_sets_are_deduplicated_in_first_occurrence_order() {
        let graph = model_graph();
        let index = graph.index();
        let (flat, offsets) = index.working_sets();
        for kernel in graph.kernels() {
            let k = kernel.id().index();
            let ws = &flat[offsets[k]..offsets[k + 1]];
            let mut seen = HashSet::new();
            let mut reference = Vec::new();
            let mut bytes = 0u64;
            for &t in graph.operands(kernel.id()) {
                if seen.insert(t) {
                    reference.push(t);
                    bytes += graph.tensor(t).bytes();
                }
            }
            assert_eq!(ws, reference.as_slice());
            assert_eq!(index.active_bytes()[k], bytes);
        }
        assert_eq!(offsets.len(), graph.num_kernels() + 1);
        assert_eq!(*offsets.last().unwrap(), flat.len());
        assert_eq!(
            index.max_kernel_working_set_bytes(),
            index.active_bytes().iter().copied().max().unwrap_or(0)
        );
    }

    #[test]
    fn footprint_totals_match_direct_sums() {
        let graph = model_graph();
        let index = graph.index();
        assert_eq!(
            index.total_tensor_bytes(),
            graph.tensors().iter().map(|t| t.bytes()).sum::<u64>()
        );
        assert_eq!(
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
    fn mutation_invalidates_the_cached_index() {
        let mut graph = DnnGraph::new("mutable");
        let x = graph.add_tensor(TensorKind::Input, 16, "x");
        graph.add_kernel(
            "k0",
            KernelClass::Elementwise,
            OpCost::default(),
            &[x],
            &[x],
        );
        assert_eq!(graph.index().num_kernels(), 1);
        let y = graph.add_tensor(TensorKind::Activation, 32, "y");
        graph.add_kernel(
            "k1",
            KernelClass::Elementwise,
            OpCost::default(),
            &[x],
            &[y],
        );
        let index = graph.index();
        assert_eq!(index.num_kernels(), 2);
        assert_eq!(index.use_sites(x), &[KernelId::new(0), KernelId::new(1)]);
        assert_eq!(index.total_tensor_bytes(), 48);
    }

    #[test]
    fn clones_share_the_built_index() {
        let graph = model_graph();
        let before = graph.shared_index();
        let clone = graph.clone();
        assert!(Arc::ptr_eq(&before, &clone.shared_index()));
        assert_eq!(graph, clone);
    }
}
