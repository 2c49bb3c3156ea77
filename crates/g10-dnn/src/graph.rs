//! The DNN dataflow graph consumed by the G10 scheduler.
//!
//! A [`DnnGraph`] is a list of kernels *in execution order* (the order the
//! framework launches them during one training iteration) plus the registry
//! of all tensors those kernels read and write.  This is exactly the
//! information the paper's tensor vitality analyzer extracts from the deep
//! learning compiler (§4.2): the graph fixes, for every tensor, when it is
//! born, when it dies, and during which kernels it is *active*.
//!
//! The graph stores its variable-length data in two arenas: one `String`
//! of every tensor and kernel name, and one operand table of every
//! kernel's inputs then outputs, one row per kernel (CSR form).
//! [`Kernel`] and [`TensorInfo`] are `Copy` records holding ranges into
//! them, so readers ask the graph for names and operands
//! ([`DnnGraph::kernel_name`], [`DnnGraph::tensor_name`],
//! [`DnnGraph::inputs`], [`DnnGraph::outputs`], [`DnnGraph::operands`]).

use crate::error::GraphError;
use crate::index::{GraphIndex, IndexCell};
use crate::op::{KernelClass, OpCost};
use crate::tensor::{TensorId, TensorInfo, TensorKind};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;
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

/// A `[start, end)` range of one of a [`DnnGraph`]'s arenas.
///
/// Kernels and tensors keep spans instead of owned `String`s and `Vec`s, so
/// neither owns heap memory and a whole graph is a handful of allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// # Panics
    ///
    /// Panics if an arena outgrows `u32` offsets.
    pub(crate) fn new(start: usize, end: usize) -> Span {
        let offset = |at: usize| u32::try_from(at).expect("graph arena exceeds u32 offsets");
        Span {
            start: offset(start),
            end: offset(end),
        }
    }

    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    /// From this span's start to `later`'s end (`later` follows it).
    pub(crate) fn through(self, later: Span) -> Range<usize> {
        self.start as usize..later.end as usize
    }

    pub(crate) fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    pub(crate) fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// One GPU kernel launch: its operator class and analytic cost.  Its name
/// and the tensors it reads and writes live in the owning [`DnnGraph`]'s
/// arenas: see [`DnnGraph::kernel_name`], [`DnnGraph::inputs`],
/// [`DnnGraph::outputs`] and [`DnnGraph::operands`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    id: KernelId,
    class: KernelClass,
    cost: OpCost,
    name: Span,
    /// The kernel's row of the operand table: `inputs` then, adjacent,
    /// `outputs`.
    inputs: Span,
    outputs: Span,
}

impl Kernel {
    /// The kernel's id (== execution order index).
    pub fn id(&self) -> KernelId {
        self.id
    }

    /// Operator class.
    pub fn class(&self) -> KernelClass {
        self.class
    }

    /// Analytic FLOP / byte cost used by the GPU cost model.
    pub fn cost(&self) -> OpCost {
        self.cost
    }
}

/// A complete dataflow graph for one training iteration of a DNN model.
///
/// Variable-length data lives in two per-graph arenas: one `String` holds
/// every tensor and kernel name back to back, and one operand table holds
/// every kernel's inputs and then its outputs, row after row in execution
/// order (CSR form).  [`Kernel`] and [`TensorInfo`] keep ranges into them
/// and own no heap memory, so building a graph costs a few amortised
/// allocations rather than several per kernel.
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
/// let k = g.add_kernel("fc.forward", KernelClass::Gemm, OpCost::new(1e6, 1e4), &[x, w], &[y]);
/// assert_eq!(g.num_kernels(), 1);
/// assert_eq!(g.kernel_name(k), "fc.forward");
/// assert_eq!(g.operands(k), [x, w, y]);
/// assert_eq!(g.tensor_name(w), "fc.weight");
/// assert!(g.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnnGraph {
    name: String,
    batch_size: u64,
    tensors: Vec<TensorInfo>,
    kernels: Vec<Kernel>,
    /// Every tensor and kernel name, back to back.
    names: String,
    /// Every kernel's inputs then outputs, one row per kernel.
    operands: Vec<TensorId>,
    /// Lazily built analysis index; cleared on every mutation, ignored by
    /// equality, and shared (via `Arc`) by clones.
    index: IndexCell,
}

impl DnnGraph {
    /// Creates an empty graph with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_batch_size(name, 1)
    }

    /// Creates an empty graph annotated with the batch size it was built for.
    pub fn with_batch_size(name: impl Into<String>, batch_size: u64) -> Self {
        DnnGraph {
            name: name.into(),
            batch_size,
            tensors: Vec::new(),
            kernels: Vec::new(),
            names: String::new(),
            operands: Vec::new(),
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
    pub fn add_tensor(&mut self, kind: TensorKind, bytes: u64, name: &str) -> TensorId {
        self.add_tensor_named(kind, bytes, &[name])
    }

    /// Registers a tensor whose name is the concatenation of `name_parts`,
    /// written straight into the name arena.
    pub(crate) fn add_tensor_named(
        &mut self,
        kind: TensorKind,
        bytes: u64,
        name_parts: &[&str],
    ) -> TensorId {
        let name = self.push_name(name_parts);
        self.push_tensor(kind, bytes, name)
    }

    /// Registers the gradient of `of`: same size, named `<of's name>.grad`.
    pub(crate) fn add_gradient(&mut self, kind: TensorKind, of: TensorId) -> TensorId {
        let source = self.tensors[of.index()];
        let start = self.names.len();
        self.names.extend_from_within(source.name_span().range());
        self.names.push_str(".grad");
        let name = Span::new(start, self.names.len());
        self.push_tensor(kind, source.bytes(), name)
    }

    /// Appends a kernel at the end of the execution order and returns its id.
    pub fn add_kernel(
        &mut self,
        name: &str,
        class: KernelClass,
        cost: OpCost,
        inputs: &[TensorId],
        outputs: &[TensorId],
    ) -> KernelId {
        self.add_kernel_named(&[name], class, cost, inputs, outputs)
    }

    /// [`DnnGraph::add_kernel`] with the name given as parts to concatenate.
    pub(crate) fn add_kernel_named(
        &mut self,
        name_parts: &[&str],
        class: KernelClass,
        cost: OpCost,
        inputs: &[TensorId],
        outputs: &[TensorId],
    ) -> KernelId {
        self.index.invalidate();
        let name = self.push_name(name_parts);
        let start = self.operands.len();
        self.operands.extend_from_slice(inputs);
        let split = self.operands.len();
        self.operands.extend_from_slice(outputs);
        let id = KernelId::new(self.kernels.len() as u32);
        self.kernels.push(Kernel {
            id,
            class,
            cost,
            name,
            inputs: Span::new(start, split),
            outputs: Span::new(split, self.operands.len()),
        });
        id
    }

    fn push_name(&mut self, parts: &[&str]) -> Span {
        let start = self.names.len();
        for part in parts {
            self.names.push_str(part);
        }
        Span::new(start, self.names.len())
    }

    fn push_tensor(&mut self, kind: TensorKind, bytes: u64, name: Span) -> TensorId {
        self.index.invalidate();
        let id = TensorId::new(self.tensors.len() as u32);
        self.tensors
            .push(TensorInfo::in_graph(id, kind, bytes, name));
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

    /// The kernel's name, e.g. `"layer3.12.conv2.forward"`.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn kernel_name(&self, id: KernelId) -> &str {
        &self.names[self.kernels[id.index()].name.range()]
    }

    /// The tensor's layer-derived name, e.g. `"layer3.conv2.weight"`.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn tensor_name(&self, id: TensorId) -> &str {
        &self.names[self.tensors[id.index()].name_span().range()]
    }

    /// Tensors read by the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn inputs(&self, id: KernelId) -> &[TensorId] {
        &self.operands[self.kernels[id.index()].inputs.range()]
    }

    /// Tensors written by the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn outputs(&self, id: KernelId) -> &[TensorId] {
        &self.operands[self.kernels[id.index()].outputs.range()]
    }

    /// Every tensor the kernel touches: its inputs then its outputs
    /// (duplicates possible if a tensor is updated in place).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn operands(&self, id: KernelId) -> &[TensorId] {
        let kernel = &self.kernels[id.index()];
        &self.operands[kernel.inputs.through(kernel.outputs)]
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
            let operands = self.operands(kernel.id());
            if operands.is_empty() {
                return Err(GraphError::EmptyKernel {
                    kernel: kernel.id(),
                });
            }
            for &t in operands {
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
            &[x, w],
            &[y],
        );
        g.add_kernel(
            "loss",
            KernelClass::Reduction,
            OpCost::new(1e3, 1e3),
            &[y],
            &[dy],
        );
        g.add_kernel(
            "bwd",
            KernelClass::Gemm,
            OpCost::new(2e6, 2e4),
            &[dy, x, w],
            &[dw],
        );
        g.add_kernel(
            "opt",
            KernelClass::Optimizer,
            OpCost::new(1e3, 1e3),
            &[w, dw],
            &[w],
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
        let bwd = KernelId::new(2);
        assert_eq!(g.kernel_name(KernelId::new(0)), "fwd");
        assert_eq!(g.kernel(bwd).class(), KernelClass::Gemm);
        assert_eq!(g.tensor_name(TensorId::new(3)), "dy");
        let [dy, x, w, dw] = [3, 0, 1, 4].map(TensorId::new);
        assert_eq!(g.inputs(bwd), [dy, x, w]);
        assert_eq!(g.outputs(bwd), [dw]);
        assert_eq!(g.operands(bwd), [dy, x, w, dw]);
        let (flat, offsets) = g.index().working_sets();
        assert!(flat[offsets[0]..offsets[1]].contains(&x));
        assert!(!flat[offsets[1]..offsets[2]].contains(&x));
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
        g.add_kernel("k", KernelClass::Elementwise, OpCost::default(), &[x], &[x]);
        assert!(matches!(g.validate(), Err(GraphError::UnusedTensor { .. })));
    }

    #[test]
    fn validation_catches_zero_sized_tensor() {
        let mut g = DnnGraph::new("bad");
        let x = g.add_tensor(TensorKind::Input, 0, "x");
        g.add_kernel("k", KernelClass::Elementwise, OpCost::default(), &[x], &[x]);
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
            &[x],
            &[x],
        );
        g.add_kernel(
            "empty",
            KernelClass::Elementwise,
            OpCost::default(),
            &[],
            &[],
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
