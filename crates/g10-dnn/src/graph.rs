//! The DNN dataflow graph consumed by the G10 scheduler.
//!
//! A [`DnnGraph`] is a list of kernels *in execution order* (the order the
//! framework launches them during one training iteration) plus the registry
//! of all tensors those kernels read and write.  This is exactly the
//! information the paper's tensor vitality analyzer extracts from the deep
//! learning compiler (§4.2): the graph fixes, for every tensor, when it is
//! born, when it dies, and during which kernels it is *active*.

use crate::error::GraphError;
use crate::index::{GraphIndex, IndexCell};
use crate::op::{KernelClass, OpCost};
use crate::tensor::{TensorId, TensorInfo, TensorKind};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a kernel inside one [`DnnGraph`].
///
/// Kernel ids are dense indices equal to the kernel's position in execution
/// order, so `KernelId(3)` is always the fourth kernel launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct KernelId(u32);

impl KernelId {
    /// Creates a kernel id from a raw execution-order index.
    pub const fn new(raw: u32) -> Self {
        KernelId(raw)
    }

    /// Returns the execution-order index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// One GPU kernel launch: its operator class, analytic cost, and the tensors
/// it reads and writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    id: KernelId,
    name: String,
    class: KernelClass,
    cost: OpCost,
    inputs: Vec<TensorId>,
    outputs: Vec<TensorId>,
}

impl Kernel {
    /// The kernel's id (== execution order index).
    pub fn id(&self) -> KernelId {
        self.id
    }

    /// Human-readable name, e.g. `"layer3.12.conv2.forward"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operator class.
    pub fn class(&self) -> KernelClass {
        self.class
    }

    /// Analytic FLOP / byte cost used by the GPU cost model.
    pub fn cost(&self) -> OpCost {
        self.cost
    }

    /// Tensors read by the kernel.
    pub fn inputs(&self) -> &[TensorId] {
        &self.inputs
    }

    /// Tensors written by the kernel.
    pub fn outputs(&self) -> &[TensorId] {
        &self.outputs
    }

    /// Iterator over every tensor the kernel touches (inputs then outputs,
    /// duplicates possible if a tensor is updated in place).
    pub fn tensors(&self) -> impl Iterator<Item = TensorId> + '_ {
        self.inputs
            .iter()
            .copied()
            .chain(self.outputs.iter().copied())
    }
}

/// A complete dataflow graph for one training iteration of a DNN model.
///
/// # Example
///
/// ```
/// use g10_dnn::graph::DnnGraph;
/// use g10_dnn::op::{KernelClass, OpCost};
/// use g10_dnn::tensor::TensorKind;
///
/// let mut g = DnnGraph::new("tiny");
/// let w = g.add_tensor(TensorKind::Weight, 1024, "fc.weight");
/// let x = g.add_tensor(TensorKind::Input, 4096, "input");
/// let y = g.add_tensor(TensorKind::Activation, 4096, "fc.out");
/// g.add_kernel("fc.forward", KernelClass::Gemm, OpCost::new(1e6, 1e4), vec![x, w], vec![y]);
/// assert_eq!(g.num_kernels(), 1);
/// assert!(g.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnnGraph {
    name: String,
    batch_size: u64,
    tensors: Vec<TensorInfo>,
    kernels: Vec<Kernel>,
    /// Lazily built analysis index; cleared on every mutation, ignored by
    /// equality, and shared (via `Arc`) by clones.
    index: IndexCell,
}

impl DnnGraph {
    /// Creates an empty graph with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        DnnGraph {
            name: name.into(),
            batch_size: 1,
            tensors: Vec::new(),
            kernels: Vec::new(),
            index: IndexCell::default(),
        }
    }

    /// Creates an empty graph annotated with the batch size it was built for.
    pub fn with_batch_size(name: impl Into<String>, batch_size: u64) -> Self {
        DnnGraph {
            name: name.into(),
            batch_size,
            tensors: Vec::new(),
            kernels: Vec::new(),
            index: IndexCell::default(),
        }
    }

    /// The model name (e.g. `"ResNet152"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The batch size this graph was generated for.
    pub fn batch_size(&self) -> u64 {
        self.batch_size
    }

    /// Reserves capacity for at least `tensors` more tensors and `kernels`
    /// more kernels (builders know the final counts up front).
    pub fn reserve(&mut self, tensors: usize, kernels: usize) {
        self.tensors.reserve(tensors);
        self.kernels.reserve(kernels);
    }

    /// Registers a tensor and returns its id.
    pub fn add_tensor(
        &mut self,
        kind: TensorKind,
        bytes: u64,
        name: impl Into<String>,
    ) -> TensorId {
        self.index.invalidate();
        let id = TensorId::new(self.tensors.len() as u32);
        self.tensors.push(TensorInfo::new(id, kind, bytes, name));
        id
    }

    /// Appends a kernel at the end of the execution order and returns its id.
    pub fn add_kernel(
        &mut self,
        name: impl Into<String>,
        class: KernelClass,
        cost: OpCost,
        inputs: Vec<TensorId>,
        outputs: Vec<TensorId>,
    ) -> KernelId {
        self.index.invalidate();
        let id = KernelId::new(self.kernels.len() as u32);
        self.kernels.push(Kernel {
            id,
            name: name.into(),
            class,
            cost,
            inputs,
            outputs,
        });
        id
    }

    /// The shared analysis index of this graph, built on first use and
    /// cached until the graph is mutated.
    ///
    /// # Panics
    ///
    /// Building the index panics if a kernel references an unknown tensor
    /// id; run [`DnnGraph::validate`] first on untrusted graphs.
    pub fn index(&self) -> &GraphIndex {
        self.index.get_or_build(self)
    }

    /// Like [`DnnGraph::index`], but returns the shared `Arc` so consumers
    /// that outlive the graph borrow (e.g. boxed policies) can keep the
    /// index without copying it.
    pub fn shared_index(&self) -> Arc<GraphIndex> {
        self.index.get_or_build(self).clone()
    }

    /// All tensors, indexable by [`TensorId::index`].
    pub fn tensors(&self) -> &[TensorInfo] {
        &self.tensors
    }

    /// All kernels in execution order, indexable by [`KernelId::index`].
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Looks up one tensor.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn tensor(&self, id: TensorId) -> &TensorInfo {
        &self.tensors[id.index()]
    }

    /// Looks up one kernel.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn kernel(&self, id: KernelId) -> &Kernel {
        &self.kernels[id.index()]
    }

    /// Number of kernels in the iteration.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Number of distinct tensors.
    pub fn num_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// Sum of the sizes of all tensors, in bytes.  This is the "total memory
    /// consumption of the DNN" that Figure 11 of the paper reports relative
    /// to the GPU capacity.  Cached in the shared [`GraphIndex`].
    pub fn total_tensor_bytes(&self) -> u64 {
        self.index().total_tensor_bytes()
    }

    /// Checks structural invariants: every referenced tensor exists, every
    /// kernel touches at least one tensor, every tensor is used at least
    /// once, no tensor is zero-sized, and the graph is non-empty.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`GraphError`].
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.kernels.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        for t in &self.tensors {
            if t.bytes() == 0 {
                return Err(GraphError::ZeroSizedTensor { tensor: t.id() });
            }
        }
        for kernel in &self.kernels {
            if kernel.inputs.is_empty() && kernel.outputs.is_empty() {
                return Err(GraphError::EmptyKernel {
                    kernel: kernel.id(),
                });
            }
            for t in kernel.tensors() {
                if t.index() >= self.tensors.len() {
                    return Err(GraphError::UnknownTensor {
                        kernel: kernel.id(),
                        tensor: t,
                    });
                }
            }
        }
        // Every id is now known to be in range, so the shared index can be
        // (lazily) built; the use-count column doubles as the used-tensor
        // check, and the index stays cached for the consumers that follow.
        let index = self.index();
        if let Some(idx) =
            (0..self.tensors.len()).find(|&i| index.use_count(TensorId::new(i as u32)) == 0)
        {
            return Err(GraphError::UnusedTensor {
                tensor: TensorId::new(idx as u32),
            });
        }
        Ok(())
    }

    /// Summary line used in reports: name, batch, kernel and tensor counts,
    /// and total footprint in GiB.
    pub fn summary(&self) -> String {
        format!(
            "{} (batch {}): {} kernels, {} tensors, {:.2} GiB total",
            self.name,
            self.batch_size,
            self.num_kernels(),
            self.num_tensors(),
            self.total_tensor_bytes() as f64 / (1u64 << 30) as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{KernelClass, OpCost};

    fn tiny_graph() -> DnnGraph {
        let mut g = DnnGraph::with_batch_size("tiny", 8);
        let x = g.add_tensor(TensorKind::Input, 4096, "x");
        let w = g.add_tensor(TensorKind::Weight, 1024, "w");
        let y = g.add_tensor(TensorKind::Activation, 4096, "y");
        let dy = g.add_tensor(TensorKind::ActivationGradient, 4096, "dy");
        let dw = g.add_tensor(TensorKind::WeightGradient, 1024, "dw");
        g.add_kernel(
            "fwd",
            KernelClass::Gemm,
            OpCost::new(1e6, 1e4),
            vec![x, w],
            vec![y],
        );
        g.add_kernel(
            "loss",
            KernelClass::Reduction,
            OpCost::new(1e3, 1e3),
            vec![y],
            vec![dy],
        );
        g.add_kernel(
            "bwd",
            KernelClass::Gemm,
            OpCost::new(2e6, 2e4),
            vec![dy, x, w],
            vec![dw],
        );
        g.add_kernel(
            "opt",
            KernelClass::Optimizer,
            OpCost::new(1e3, 1e3),
            vec![w, dw],
            vec![w],
        );
        g
    }

    #[test]
    fn construction_and_lookup() {
        let g = tiny_graph();
        assert_eq!(g.name(), "tiny");
        assert_eq!(g.batch_size(), 8);
        assert_eq!(g.num_kernels(), 4);
        assert_eq!(g.num_tensors(), 5);
        assert_eq!(g.kernel(KernelId::new(0)).name(), "fwd");
        let index = g.index();
        assert!(index
            .kernel_working_set(KernelId::new(0))
            .contains(&TensorId::new(0)));
        assert!(!index
            .kernel_working_set(KernelId::new(1))
            .contains(&TensorId::new(0)));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn byte_accounting() {
        let g = tiny_graph();
        let index = g.index();
        assert_eq!(g.total_tensor_bytes(), 4096 * 3 + 1024 * 2);
        assert_eq!(index.global_tensor_bytes(), 1024);
        // fwd touches x (4096) + w (1024) + y (4096).
        assert_eq!(index.active_bytes()[0], 4096 + 1024 + 4096);
        assert!(index.max_kernel_working_set_bytes() >= 4096 + 1024 + 4096);
    }

    #[test]
    fn use_sites_in_execution_order() {
        let g = tiny_graph();
        let index = g.index();
        // Weight w (t1) is used by kernels 0, 2, 3.
        assert_eq!(
            index.use_sites(TensorId::new(1)),
            [KernelId::new(0), KernelId::new(2), KernelId::new(3)]
        );
        // In-place optimizer update counts the weight once.
        assert_eq!(
            index.use_sites(TensorId::new(4)),
            [KernelId::new(2), KernelId::new(3)]
        );
    }

    #[test]
    fn validation_catches_empty_graph() {
        let g = DnnGraph::new("empty");
        assert_eq!(g.validate(), Err(GraphError::EmptyGraph));
    }

    #[test]
    fn validation_catches_unused_tensor() {
        let mut g = DnnGraph::new("bad");
        let x = g.add_tensor(TensorKind::Input, 16, "x");
        let _unused = g.add_tensor(TensorKind::Activation, 16, "unused");
        g.add_kernel(
            "k",
            KernelClass::Elementwise,
            OpCost::default(),
            vec![x],
            vec![x],
        );
        assert!(matches!(g.validate(), Err(GraphError::UnusedTensor { .. })));
    }

    #[test]
    fn validation_catches_zero_sized_tensor() {
        let mut g = DnnGraph::new("bad");
        let x = g.add_tensor(TensorKind::Input, 0, "x");
        g.add_kernel(
            "k",
            KernelClass::Elementwise,
            OpCost::default(),
            vec![x],
            vec![x],
        );
        assert!(matches!(
            g.validate(),
            Err(GraphError::ZeroSizedTensor { .. })
        ));
    }

    #[test]
    fn validation_catches_empty_kernel() {
        let mut g = DnnGraph::new("bad");
        let x = g.add_tensor(TensorKind::Input, 16, "x");
        g.add_kernel(
            "ok",
            KernelClass::Elementwise,
            OpCost::default(),
            vec![x],
            vec![x],
        );
        g.add_kernel(
            "empty",
            KernelClass::Elementwise,
            OpCost::default(),
            vec![],
            vec![],
        );
        assert!(matches!(g.validate(), Err(GraphError::EmptyKernel { .. })));
    }

    #[test]
    fn summary_mentions_name_and_counts() {
        let g = tiny_graph();
        let s = g.summary();
        assert!(s.contains("tiny"));
        assert!(s.contains("4 kernels"));
    }
}
