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
//! of base names, and one operand table of every kernel's inputs then
//! outputs, one row per kernel (CSR form).  A tensor or kernel name is a
//! base plus one suffix from a small closed table (`.out`, `.weight`,
//! `.forward`, `.backward.wgrad`, `.out.grad`, `.momentum`, …), so a layer
//! name is stored once however many names derive from it.  [`Kernel`] and
//! [`TensorInfo`] are `Copy` records holding a range and a one-byte suffix
//! tag, so readers ask the graph for names and operands
//! ([`DnnGraph::kernel_name`] and [`DnnGraph::tensor_name`] return a
//! borrowed [`Name`]; [`DnnGraph::inputs`], [`DnnGraph::outputs`],
//! [`DnnGraph::operands`]).  No table keeps spare capacity once a
//! builder has finished the graph.

use crate::error::GraphError;
use crate::index::{GraphIndex, IndexCell};
use crate::op::{KernelClass, OpCost};
use crate::tensor::{TensorId, TensorInfo, TensorKind};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Identifier of a kernel inside one [`DnnGraph`].
///
/// Kernel ids are dense indices equal to the kernel's position in execution
/// order, so `KernelId(3)` is always the fourth kernel launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// Converts an arena position to the `u32` offsets that spans and the
/// index's CSR tables store.
///
/// # Panics
///
/// Panics if an arena outgrows `u32` offsets.
pub(crate) fn arena_offset(at: usize) -> u32 {
    u32::try_from(at).expect("graph arena exceeds u32 offsets")
}

/// A `[start, end)` range of one of a [`DnnGraph`]'s arenas.
///
/// Kernels and tensors keep spans instead of owned `String`s and `Vec`s, so
/// neither owns heap memory and a whole graph is a handful of allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// # Panics
    ///
    /// Panics if an arena outgrows `u32` offsets.
    pub(crate) fn new(start: usize, end: usize) -> Span {
        Span {
            start: arena_offset(start),
            end: arena_offset(end),
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

/// The closed table of suffixes a name may carry after its base.  The
/// builder derives every tensor and kernel name from a layer name and one
/// of these; a name given whole to [`DnnGraph::add_tensor`] or
/// [`DnnGraph::add_kernel`] is a base with [`Suffix::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub(crate) enum Suffix {
    #[default]
    None,
    Out,
    Weight,
    Ids,
    OutGrad,
    WeightGrad,
    Forward,
    Backward,
    BackwardWgrad,
    FwdWorkspace,
    BwdWorkspace,
    Momentum,
    Optimizer,
}

impl Suffix {
    const fn text(self) -> &'static str {
        match self {
            Suffix::None => "",
            Suffix::Out => ".out",
            Suffix::Weight => ".weight",
            Suffix::Ids => ".ids",
            Suffix::OutGrad => ".out.grad",
            Suffix::WeightGrad => ".weight.grad",
            Suffix::Forward => ".forward",
            Suffix::Backward => ".backward",
            Suffix::BackwardWgrad => ".backward.wgrad",
            Suffix::FwdWorkspace => ".fwd.workspace",
            Suffix::BwdWorkspace => ".bwd.workspace",
            Suffix::Momentum => ".momentum",
            Suffix::Optimizer => ".optimizer",
        }
    }

    /// The suffix of the gradient of a tensor named `<base><self>`, i.e.
    /// `<base><self>.grad`, if the table has it.
    const fn grad(self) -> Option<Suffix> {
        match self {
            Suffix::Out => Some(Suffix::OutGrad),
            Suffix::Weight => Some(Suffix::WeightGrad),
            _ => None,
        }
    }
}

/// A tensor or kernel name borrowed from a [`DnnGraph`]: a base from the
/// graph's name arena followed by a fixed suffix.  It renders with
/// `Display` and compares by content, so `"fc.out"` given whole and the
/// builder's `fc` + `.out` are the same name.
///
/// # Example
///
/// ```
/// use g10_dnn::builder::GraphBuilder;
///
/// let mut b = GraphBuilder::new("toy", 2);
/// let x = b.input_image(3, 8, 8);
/// let y = b.conv2d("conv1", &x, 4, 3, 1, 1);
/// let graph = b.finish(&y);
/// let name = graph.tensor_name(y.tensor());
/// assert_eq!(name, "conv1.out");
/// assert_eq!(name.to_string(), "conv1.out");
/// ```
#[derive(Clone, Copy)]
pub struct Name<'a> {
    base: &'a str,
    suffix: &'static str,
}

impl<'a> Name<'a> {
    fn len(&self) -> usize {
        self.base.len() + self.suffix.len()
    }

    /// The whole name's characters, base then suffix.
    pub fn chars(&self) -> impl Iterator<Item = char> + 'a {
        self.base.chars().chain(self.suffix.chars())
    }
}

impl fmt::Display for Name<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.base)?;
        f.write_str(self.suffix)
    }
}

impl fmt::Debug for Name<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

impl PartialEq<str> for Name<'_> {
    fn eq(&self, other: &str) -> bool {
        other.len() == self.len()
            && other.starts_with(self.base)
            && &other[self.base.len()..] == self.suffix
    }
}

impl PartialEq<&str> for Name<'_> {
    fn eq(&self, other: &&str) -> bool {
        *self == **other
    }
}

impl PartialEq for Name<'_> {
    fn eq(&self, other: &Name<'_>) -> bool {
        self.len() == other.len() && self.chars().eq(other.chars())
    }
}

impl Eq for Name<'_> {}

/// One GPU kernel launch: its operator class and analytic cost.  Its name
/// and the tensors it reads and writes live in the owning [`DnnGraph`]'s
/// arenas: see [`DnnGraph::kernel_name`], [`DnnGraph::inputs`],
/// [`DnnGraph::outputs`] and [`DnnGraph::operands`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    id: KernelId,
    class: KernelClass,
    cost: OpCost,
    name: Span,
    suffix: Suffix,
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
/// every base name back to back, and one operand table holds every
/// kernel's inputs and then its outputs, row after row in execution order
/// (CSR form).  [`Kernel`] and [`TensorInfo`] keep ranges into them and a
/// suffix tag, and own no heap memory, so building a graph costs a few
/// amortised allocations rather than several per kernel.  Equality
/// compares names by content, not by where the arena keeps them.
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
#[derive(Debug, Clone)]
pub struct DnnGraph {
    name: String,
    batch_size: u64,
    tensors: Vec<TensorInfo>,
    kernels: Vec<Kernel>,
    /// Every base name, back to back: the builder's layer names and the
    /// names given whole to `add_tensor` / `add_kernel`.
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

    /// Drops every table's spare capacity (the builder calls it once the
    /// graph is complete, so a finished graph holds no growth slack).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.tensors.shrink_to_fit();
        self.kernels.shrink_to_fit();
        self.names.shrink_to_fit();
        self.operands.shrink_to_fit();
    }

    /// `(table, len, capacity)` for every table of the graph and its index.
    #[cfg(test)]
    pub(crate) fn table_sizes(&self) -> Vec<(&'static str, usize, usize)> {
        let mut sizes = vec![
            ("tensors", self.tensors.len(), self.tensors.capacity()),
            ("kernels", self.kernels.len(), self.kernels.capacity()),
            ("names", self.names.len(), self.names.capacity()),
            ("operands", self.operands.len(), self.operands.capacity()),
        ];
        sizes.extend(self.index().table_sizes());
        sizes
    }

    /// Registers a tensor and returns its id.  The name is stored whole.
    pub fn add_tensor(&mut self, kind: TensorKind, bytes: u64, name: &str) -> TensorId {
        let base = self.push_base(name);
        self.add_tensor_named(kind, bytes, base, Suffix::None)
    }

    /// Writes `base` into the name arena once; any number of tensor and
    /// kernel names can then share it with different suffixes.
    pub(crate) fn push_base(&mut self, base: &str) -> Span {
        let start = self.names.len();
        self.names.push_str(base);
        Span::new(start, self.names.len())
    }

    /// Registers a tensor named `<base><suffix>`, `base` being a span
    /// returned by [`DnnGraph::push_base`].
    pub(crate) fn add_tensor_named(
        &mut self,
        kind: TensorKind,
        bytes: u64,
        base: Span,
        suffix: Suffix,
    ) -> TensorId {
        self.index.invalidate();
        let id = TensorId::new(self.tensors.len() as u32);
        self.tensors
            .push(TensorInfo::in_graph(id, kind, bytes, base, suffix));
        id
    }

    /// Registers the gradient of `of`: same size, named `<of's name>.grad`.
    ///
    /// # Panics
    ///
    /// Panics unless `of` is a layer's `.out` or `.weight` tensor, the only
    /// tensors the builder takes gradients of.
    pub(crate) fn add_gradient(&mut self, kind: TensorKind, of: TensorId) -> TensorId {
        let source = self.tensors[of.index()];
        let (base, suffix) = source.name_parts();
        let grad = suffix
            .grad()
            .expect("gradients are taken of layer outputs and weights only");
        self.add_tensor_named(kind, source.bytes(), base, grad)
    }

    /// Appends a kernel at the end of the execution order and returns its
    /// id.  The name is stored whole.
    pub fn add_kernel(
        &mut self,
        name: &str,
        class: KernelClass,
        cost: OpCost,
        inputs: &[TensorId],
        outputs: &[TensorId],
    ) -> KernelId {
        let base = self.push_base(name);
        self.add_kernel_named(base, Suffix::None, class, cost, inputs, outputs)
    }

    /// [`DnnGraph::add_kernel`] for a kernel named `<base><suffix>`.
    pub(crate) fn add_kernel_named(
        &mut self,
        base: Span,
        suffix: Suffix,
        class: KernelClass,
        cost: OpCost,
        inputs: &[TensorId],
        outputs: &[TensorId],
    ) -> KernelId {
        self.index.invalidate();
        let start = self.operands.len();
        self.operands.extend_from_slice(inputs);
        let split = self.operands.len();
        self.operands.extend_from_slice(outputs);
        let id = KernelId::new(self.kernels.len() as u32);
        self.kernels.push(Kernel {
            id,
            class,
            cost,
            name: base,
            suffix,
            inputs: Span::new(start, split),
            outputs: Span::new(split, self.operands.len()),
        });
        id
    }

    fn name_of(&self, base: Span, suffix: Suffix) -> Name<'_> {
        Name {
            base: &self.names[base.range()],
            suffix: suffix.text(),
        }
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
    pub fn kernel_name(&self, id: KernelId) -> Name<'_> {
        let kernel = &self.kernels[id.index()];
        self.name_of(kernel.name, kernel.suffix)
    }

    /// The tensor's layer-derived name, e.g. `"layer3.conv2.weight"`.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn tensor_name(&self, id: TensorId) -> Name<'_> {
        let (base, suffix) = self.tensors[id.index()].name_parts();
        self.name_of(base, suffix)
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

impl PartialEq for DnnGraph {
    /// Compares content: names by their text (one graph may store
    /// `"fc.out"` whole where another stores `fc` and the `.out` suffix),
    /// operands by their lists.  The cached index is ignored.
    fn eq(&self, other: &Self) -> bool {
        let same_tensor = |(a, b): (&TensorInfo, &TensorInfo)| {
            a.id() == b.id()
                && a.kind() == b.kind()
                && a.bytes() == b.bytes()
                && self.tensor_name(a.id()) == other.tensor_name(b.id())
        };
        let same_kernel = |(a, b): (&Kernel, &Kernel)| {
            a.id == b.id
                && a.class == b.class
                && a.cost == b.cost
                && self.kernel_name(a.id) == other.kernel_name(b.id)
                && self.inputs(a.id) == other.inputs(b.id)
                && self.outputs(a.id) == other.outputs(b.id)
        };
        self.name == other.name
            && self.batch_size == other.batch_size
            && self.tensors.len() == other.tensors.len()
            && self.kernels.len() == other.kernels.len()
            && self.tensors.iter().zip(&other.tensors).all(same_tensor)
            && self.kernels.iter().zip(&other.kernels).all(same_kernel)
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
        let set = |k: usize| &flat[offsets[k] as usize..offsets[k + 1] as usize];
        assert!(set(0).contains(&x));
        assert!(!set(1).contains(&x));
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

    /// The builder's graph re-assembled through the public API, every name
    /// given whole.
    fn reassembled(built: &DnnGraph) -> DnnGraph {
        let mut g = DnnGraph::with_batch_size(built.name(), built.batch_size());
        for t in built.tensors() {
            g.add_tensor(t.kind(), t.bytes(), &built.tensor_name(t.id()).to_string());
        }
        for k in built.kernels() {
            let id = k.id();
            g.add_kernel(
                &built.kernel_name(id).to_string(),
                k.class(),
                k.cost(),
                built.inputs(id),
                built.outputs(id),
            );
        }
        g
    }

    #[test]
    fn a_name_given_whole_equals_the_builders_base_and_suffix() {
        let mut b = crate::builder::GraphBuilder::new("toy", 2);
        let x = b.input_image(3, 8, 8);
        let fc = b.linear("fc", &x, 10);
        let built = b.finish(&fc);
        let whole = reassembled(&built);

        let derived = built.tensor_name(fc.tensor());
        let given = whole.tensor_name(fc.tensor());
        assert_eq!((derived.base, derived.suffix), ("fc", ".out"));
        assert_eq!((given.base, given.suffix), ("fc.out", ""));
        // Render, compare and digest the same.
        assert_eq!(derived.to_string(), "fc.out");
        assert_eq!(given.to_string(), "fc.out");
        assert_eq!(derived, given);
        assert_eq!(derived, "fc.out");
        assert_eq!(format!("{derived:?}"), format!("{given:?}"));
        let digest = |name: Name<'_>| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            name.to_string().hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(derived), digest(given));
        assert_ne!(derived, "fc.ou");
        assert_ne!(derived, "fc.outt");
        assert_ne!(derived, "fcx.out");

        // Graph equality reads names by content, not by arena layout.
        assert_ne!(built.names, whole.names);
        assert_eq!(built, whole);
        let mut renamed = reassembled(&built);
        renamed.names.replace_range(0..1, "g");
        assert_ne!(built, renamed);
    }

    #[test]
    fn name_tags_fit_in_record_padding() {
        assert_eq!(std::mem::size_of::<TensorInfo>(), 24);
        assert_eq!(std::mem::size_of::<Kernel>(), 48);
    }

    #[test]
    fn summary_mentions_name_and_counts() {
        let g = tiny_graph();
        let s = g.summary();
        assert!(s.contains("tiny"));
        assert!(s.contains("4 kernels"));
    }
}
