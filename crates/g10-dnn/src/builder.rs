//! Layer-level graph builder.
//!
//! Model descriptions in [`crate::models`] are written as *forward passes*:
//! a sequence of layer calls (`conv2d`, `batch_norm`, `linear`, …) very much
//! like a PyTorch `forward()` method.  The [`GraphBuilder`] records each
//! layer, and [`GraphBuilder::finish`] then materialises the full training
//! iteration the way a framework would:
//!
//! 1. the forward kernels in call order,
//! 2. a loss / gradient-seed kernel,
//! 3. the backward kernels in reverse order (with separate data-gradient and
//!    weight-gradient kernels for convolutions and GEMMs, the way cuDNN /
//!    cuBLAS split them),
//! 4. one optimizer (SGD-with-momentum) kernel per parameterised layer.
//!
//! The resulting [`DnnGraph`] exhibits the tensor-lifetime structure that the
//! G10 paper's characterisation study (§3) relies on: forward activations are
//! used once early and once again much later in the backward pass, weights
//! are used in forward, backward and optimizer, and workspaces live for a
//! single kernel.
//!
//! Like the graph, the builder keeps no per-layer heap data: each layer name
//! is written once, straight into the graph's name arena, and each layer's
//! activation inputs and weights go into one operand arena.  Tensor names
//! (`conv1.weight`, `conv1.out`) and the derived names of
//! [`GraphBuilder::finish`] (`conv1.forward`, `conv1.out.grad`,
//! `conv1.momentum`) are that layer name plus a suffix tag, so no derived
//! name copies it.  `finish` assembles each kernel's operand lists in
//! scratch buffers it reuses across kernels and leaves no table of the
//! graph with spare capacity.

use crate::graph::{DnnGraph, Span, Suffix};
use crate::op::{
    conv2d_cost, elementwise_cost, embedding_cost, gemm_cost, normalization_cost, optimizer_cost,
    pooling_cost, softmax_cost, KernelClass, OpCost,
};
use crate::shape::{product, FeatureMap, SeqShape};
use crate::tensor::{fp32_bytes, TensorId, TensorKind};

/// Maximum size of a single cuDNN-style convolution workspace.  The paper's
/// instrumented-program example (Fig. 9) shows a ~4.1 GB workspace tensor;
/// we cap ours at 2 GiB which keeps the same order of magnitude without
/// letting synthetic workspaces dominate peak memory.
const MAX_WORKSPACE_BYTES: u64 = 2 << 30;

/// Shape attached to an activation handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActShape {
    /// A 4-D feature map (CNNs).
    Map(FeatureMap),
    /// A token sequence (transformers).
    Seq(SeqShape),
    /// A flat 2-D matrix `n × features` (classifier heads, SE blocks).
    Flat {
        /// Batch size.
        n: u64,
        /// Feature count per sample.
        features: u64,
    },
}

impl ActShape {
    /// Total number of elements.
    pub fn elements(&self) -> u64 {
        match *self {
            ActShape::Map(m) => m.elements(),
            ActShape::Seq(s) => s.elements(),
            ActShape::Flat { n, features } => product(&[n, features]),
        }
    }

    /// Size in bytes at FP32 precision.
    pub fn bytes(&self) -> u64 {
        fp32_bytes(self.elements())
    }

    /// Batch dimension.
    pub fn batch(&self) -> u64 {
        match *self {
            ActShape::Map(m) => m.n,
            ActShape::Seq(s) => s.n,
            ActShape::Flat { n, .. } => n,
        }
    }
}

/// Handle to an activation produced by a layer call.
///
/// The handle is cheap to copy and is how model code wires layers together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Act {
    tensor: TensorId,
    shape: ActShape,
}

impl Act {
    /// The underlying tensor id in the graph being built.
    pub fn tensor(&self) -> TensorId {
        self.tensor
    }

    /// The activation's shape.
    pub fn shape(&self) -> ActShape {
        self.shape
    }

    /// The feature-map shape.
    ///
    /// # Panics
    ///
    /// Panics if the activation is not a feature map.
    pub fn map(&self) -> FeatureMap {
        match self.shape {
            ActShape::Map(m) => m,
            other => panic!("expected feature-map activation, found {other:?}"),
        }
    }

    /// The sequence shape.
    ///
    /// # Panics
    ///
    /// Panics if the activation is not a token sequence.
    pub fn seq(&self) -> SeqShape {
        match self.shape {
            ActShape::Seq(s) => s,
            other => panic!("expected sequence activation, found {other:?}"),
        }
    }
}

/// One recorded forward layer, with everything needed to derive its backward
/// kernels later.  Its name is a span of the graph's name arena and its
/// operand lists are spans of the builder's operand arena; `act_inputs` and
/// `weights` are adjacent, so together they are the forward kernel's inputs.
#[derive(Debug, Clone, Copy)]
struct LayerRecord {
    name: Span,
    class: KernelClass,
    act_inputs: Span,
    weights: Span,
    output: TensorId,
    output_bytes: u64,
    fwd_cost: OpCost,
    bwd_data_cost: OpCost,
    bwd_weight_cost: Option<OpCost>,
    /// Backward reads the saved forward inputs.
    saves_input: bool,
    /// Backward reads the saved forward output (e.g. ReLU, softmax).
    saves_output: bool,
    /// Whether gradients flow to the activation inputs of this layer.
    produces_input_grads: bool,
    /// Per-kernel scratch space (forward and backward each allocate one).
    workspace_bytes: u64,
}

/// Builds a [`DnnGraph`] for a full training iteration from a forward-pass
/// description.
///
/// # Example
///
/// ```
/// use g10_dnn::builder::GraphBuilder;
///
/// let mut b = GraphBuilder::new("toy-cnn", 8);
/// let x = b.input_image(3, 32, 32);
/// let c = b.conv2d("conv1", &x, 16, 3, 1, 1);
/// let r = b.relu("relu1", &c);
/// let p = b.global_avg_pool("pool", &r);
/// let y = b.linear("fc", &p, 10);
/// let graph = b.finish(&y);
/// assert!(graph.validate().is_ok());
/// // forward + loss + backward + optimizer kernels all present
/// assert!(graph.num_kernels() > 8);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    graph: DnnGraph,
    batch: u64,
    records: Vec<LayerRecord>,
    /// Every recorded layer's activation inputs then weights.
    operands: Vec<TensorId>,
}

impl GraphBuilder {
    /// Creates a builder for a model with the given name and batch size.
    pub fn new(name: impl Into<String>, batch: u64) -> Self {
        GraphBuilder {
            graph: DnnGraph::with_batch_size(name, batch),
            batch,
            records: Vec::new(),
            operands: Vec::new(),
        }
    }

    /// The batch size this builder was created with.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Registers layer `layer`'s output activation, `<layer>.out`.
    fn add_activation(&mut self, layer: Span, shape: ActShape) -> Act {
        let tensor =
            self.graph
                .add_tensor_named(TensorKind::Activation, shape.bytes(), layer, Suffix::Out);
        Act { tensor, shape }
    }

    /// Registers layer `layer`'s parameters, `<layer>.weight`.
    fn add_weight(&mut self, layer: Span, bytes: u64) -> TensorId {
        self.graph
            .add_tensor_named(TensorKind::Weight, bytes, layer, Suffix::Weight)
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        name: Span,
        class: KernelClass,
        weights: impl IntoIterator<Item = TensorId>,
        act_inputs: impl IntoIterator<Item = TensorId>,
        output: Act,
        fwd_cost: OpCost,
        bwd_data_cost: OpCost,
        bwd_weight_cost: Option<OpCost>,
        saves_input: bool,
        saves_output: bool,
        produces_input_grads: bool,
        workspace_bytes: u64,
    ) -> Act {
        let start = self.operands.len();
        self.operands.extend(act_inputs);
        let split = self.operands.len();
        self.operands.extend(weights);
        self.records.push(LayerRecord {
            name,
            class,
            act_inputs: Span::new(start, split),
            weights: Span::new(split, self.operands.len()),
            output: output.tensor,
            output_bytes: output.shape.bytes(),
            fwd_cost,
            bwd_data_cost,
            bwd_weight_cost,
            saves_input,
            saves_output,
            produces_input_grads,
            workspace_bytes,
        });
        output
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Registers the input image batch `batch × c × h × w`.
    pub fn input_image(&mut self, c: u64, h: u64, w: u64) -> Act {
        let shape = ActShape::Map(FeatureMap::new(self.batch, c, h, w));
        let tensor = self
            .graph
            .add_tensor(TensorKind::Input, shape.bytes(), "input");
        Act { tensor, shape }
    }

    /// Registers a token-id input batch and an embedding lookup producing a
    /// `batch × seq × hidden` sequence.
    pub fn embedding(&mut self, name: &str, seq: u64, hidden: u64, vocab: u64) -> Act {
        let ids_bytes = product(&[self.batch, seq, 4]);
        let name = self.graph.push_base(name);
        let ids = self
            .graph
            .add_tensor_named(TensorKind::Input, ids_bytes, name, Suffix::Ids);
        let table = self.add_weight(name, fp32_bytes(vocab * hidden));
        let out_shape = ActShape::Seq(SeqShape::new(self.batch, seq, hidden));
        let out = self.add_activation(name, out_shape);
        let cost = embedding_cost(out_shape.elements());
        self.record(
            name,
            KernelClass::Embedding,
            [table],
            [ids],
            out,
            cost,
            cost,
            Some(cost),
            true,
            false,
            false, // no gradient flows back into token ids
            0,
        )
    }

    // ------------------------------------------------------------------
    // Convolutional layers
    // ------------------------------------------------------------------

    /// 2-D convolution with square kernel `k`, stride and group count.
    pub fn conv2d(
        &mut self,
        name: &str,
        input: &Act,
        out_c: u64,
        k: u64,
        stride: u64,
        groups: u64,
    ) -> Act {
        let name = self.graph.push_base(name);
        let in_map = input.map();
        let out_map = in_map.conv_output(out_c, stride);
        let weight_bytes = fp32_bytes(out_c * (in_map.c / groups.max(1)) * k * k);
        let weight = self.add_weight(name, weight_bytes);
        let out = self.add_activation(name, ActShape::Map(out_map));
        let fwd = conv2d_cost(
            in_map.n, in_map.c, out_c, out_map.h, out_map.w, k, groups, in_map.h, in_map.w,
        );
        // Backward data and filter gradients each cost about as much as the
        // forward pass.
        let workspace = (out_map.bytes() + weight_bytes).min(MAX_WORKSPACE_BYTES);
        self.record(
            name,
            KernelClass::Conv2d,
            [weight],
            [input.tensor],
            out,
            fwd,
            fwd,
            Some(fwd),
            true,
            false,
            true,
            workspace,
        )
    }

    /// Batch normalisation over a feature map.
    pub fn batch_norm(&mut self, name: &str, input: &Act) -> Act {
        let name = self.graph.push_base(name);
        let map = input.map();
        let scale = self.add_weight(name, fp32_bytes(map.c * 2));
        let out = self.add_activation(name, input.shape);
        let cost = normalization_cost(map.elements());
        self.record(
            name,
            KernelClass::BatchNorm,
            [scale],
            [input.tensor],
            out,
            cost,
            cost,
            None,
            true,
            false,
            true,
            0,
        )
    }

    /// Max pooling with window `k` and the given stride.
    pub fn max_pool(&mut self, name: &str, input: &Act, k: u64, stride: u64) -> Act {
        let name = self.graph.push_base(name);
        let map = input.map();
        let out_map = map.conv_output(map.c, stride);
        let out = self.add_activation(name, ActShape::Map(out_map));
        let cost = pooling_cost(out_map.elements(), k);
        self.record(
            name,
            KernelClass::Pooling,
            [],
            [input.tensor],
            out,
            cost,
            cost,
            None,
            true,
            false,
            true,
            0,
        )
    }

    /// Average pooling with window `k` and the given stride.
    pub fn avg_pool(&mut self, name: &str, input: &Act, k: u64, stride: u64) -> Act {
        self.max_pool(name, input, k, stride)
    }

    /// Global average pooling collapsing the spatial dimensions; the result
    /// is a flat `n × c` matrix ready for a classifier or SE block.
    pub fn global_avg_pool(&mut self, name: &str, input: &Act) -> Act {
        let name = self.graph.push_base(name);
        let map = input.map();
        let out_shape = ActShape::Flat {
            n: map.n,
            features: map.c,
        };
        let out = self.add_activation(name, out_shape);
        let cost = pooling_cost(out_shape.elements(), map.h.clamp(1, 16));
        self.record(
            name,
            KernelClass::Pooling,
            [],
            [input.tensor],
            out,
            cost,
            cost,
            None,
            true,
            false,
            true,
            0,
        )
    }

    // ------------------------------------------------------------------
    // Element-wise layers
    // ------------------------------------------------------------------

    fn activation_layer(&mut self, name: &str, input: &Act, class: KernelClass) -> Act {
        let name = self.graph.push_base(name);
        let out = self.add_activation(name, input.shape);
        let cost = elementwise_cost(input.shape.elements(), 1);
        self.record(
            name,
            class,
            [],
            [input.tensor],
            out,
            cost,
            cost,
            None,
            false,
            true,
            true,
            0,
        )
    }

    /// ReLU activation.
    pub fn relu(&mut self, name: &str, input: &Act) -> Act {
        self.activation_layer(name, input, KernelClass::Elementwise)
    }

    /// GELU activation.
    pub fn gelu(&mut self, name: &str, input: &Act) -> Act {
        self.activation_layer(name, input, KernelClass::Elementwise)
    }

    /// Sigmoid activation (used by SE blocks).
    pub fn sigmoid(&mut self, name: &str, input: &Act) -> Act {
        self.activation_layer(name, input, KernelClass::Elementwise)
    }

    /// Element-wise residual addition of two activations with equal shape.
    pub fn add(&mut self, name: &str, a: &Act, b: &Act) -> Act {
        let name = self.graph.push_base(name);
        debug_assert_eq!(
            a.shape.bytes(),
            b.shape.bytes(),
            "residual add of mismatched shapes"
        );
        let out = self.add_activation(name, a.shape);
        let cost = elementwise_cost(a.shape.elements(), 2);
        self.record(
            name,
            KernelClass::Elementwise,
            [],
            [a.tensor, b.tensor],
            out,
            cost,
            cost,
            None,
            false,
            false,
            true,
            0,
        )
    }

    /// Channel-wise scaling of a feature map by a per-channel vector
    /// (squeeze-and-excitation "excite" step).
    pub fn scale(&mut self, name: &str, map_input: &Act, vector_input: &Act) -> Act {
        let name = self.graph.push_base(name);
        let out = self.add_activation(name, map_input.shape);
        let cost = elementwise_cost(map_input.shape.elements(), 2);
        self.record(
            name,
            KernelClass::Elementwise,
            [],
            [map_input.tensor, vector_input.tensor],
            out,
            cost,
            cost,
            None,
            true,
            false,
            true,
            0,
        )
    }

    /// Channel concatenation of several feature maps (Inception branches).
    pub fn concat(&mut self, name: &str, inputs: &[Act]) -> Act {
        let name = self.graph.push_base(name);
        assert!(!inputs.is_empty(), "concat requires at least one input");
        let first = inputs[0].map();
        let total_c: u64 = inputs.iter().map(|a| a.map().c).sum();
        let out_map = FeatureMap::new(first.n, total_c, first.h, first.w);
        let out = self.add_activation(name, ActShape::Map(out_map));
        let cost = elementwise_cost(out_map.elements(), 1);
        self.record(
            name,
            KernelClass::Elementwise,
            [],
            inputs.iter().map(|a| a.tensor),
            out,
            cost,
            cost,
            None,
            false,
            false,
            true,
            0,
        )
    }

    /// Dropout producing a new activation (mask generation folded in).
    pub fn dropout(&mut self, name: &str, input: &Act) -> Act {
        self.activation_layer(name, input, KernelClass::Elementwise)
    }

    // ------------------------------------------------------------------
    // Dense / transformer layers
    // ------------------------------------------------------------------

    /// Fully connected layer.  Works on flat activations (`n × features`) and
    /// on sequences (`n × l × d`, applied to the last dimension).
    pub fn linear(&mut self, name: &str, input: &Act, out_features: u64) -> Act {
        let name = self.graph.push_base(name);
        let (rows, in_features, out_shape) = match input.shape {
            ActShape::Flat { n, features } => (
                n,
                features,
                ActShape::Flat {
                    n,
                    features: out_features,
                },
            ),
            ActShape::Seq(s) => (
                product(&[s.n, s.l]),
                s.d,
                ActShape::Seq(s.with_hidden(out_features)),
            ),
            ActShape::Map(m) => (
                m.n,
                m.c * m.h * m.w,
                ActShape::Flat {
                    n: m.n,
                    features: out_features,
                },
            ),
        };
        let weight = self.add_weight(name, fp32_bytes(in_features * out_features + out_features));
        let out = self.add_activation(name, out_shape);
        let fwd = gemm_cost(rows, out_features, in_features);
        self.record(
            name,
            KernelClass::Gemm,
            [weight],
            [input.tensor],
            out,
            fwd,
            fwd,
            Some(fwd),
            true,
            false,
            true,
            0,
        )
    }

    /// Layer normalisation over the last dimension of a sequence.
    pub fn layer_norm(&mut self, name: &str, input: &Act) -> Act {
        let name = self.graph.push_base(name);
        let seq = input.seq();
        let scale = self.add_weight(name, fp32_bytes(seq.d * 2));
        let out = self.add_activation(name, input.shape);
        let cost = normalization_cost(seq.elements());
        self.record(
            name,
            KernelClass::LayerNorm,
            [scale],
            [input.tensor],
            out,
            cost,
            cost,
            None,
            true,
            false,
            true,
            0,
        )
    }

    /// Residual addition of two sequence activations.
    pub fn add_seq(&mut self, name: &str, a: &Act, b: &Act) -> Act {
        let name = self.graph.push_base(name);
        debug_assert_eq!(a.shape.bytes(), b.shape.bytes());
        let out = self.add_activation(name, a.shape);
        let cost = elementwise_cost(a.shape.elements(), 2);
        self.record(
            name,
            KernelClass::Elementwise,
            [],
            [a.tensor, b.tensor],
            out,
            cost,
            cost,
            None,
            false,
            false,
            true,
            0,
        )
    }

    /// Batched attention-score matmul `Q·Kᵀ`, producing an `n × heads × l × l`
    /// tensor.
    pub fn attention_scores(&mut self, name: &str, q: &Act, k: &Act, heads: u64) -> Act {
        let name = self.graph.push_base(name);
        let seq = q.seq();
        let score_elems = seq.attention_score_elements(heads);
        let out_shape = ActShape::Flat {
            n: seq.n,
            features: product(&[heads, seq.l, seq.l]),
        };
        let out = self.add_activation(name, out_shape);
        // Each head multiplies (l × d/heads) by (d/heads × l).
        let per_head = gemm_cost(seq.l, seq.l, seq.d / heads.max(1));
        let fwd = per_head.scale(product(&[seq.n, heads]) as f64);
        debug_assert_eq!(out_shape.elements(), score_elems);
        self.record(
            name,
            KernelClass::Gemm,
            [],
            [q.tensor, k.tensor],
            out,
            fwd,
            fwd.scale(2.0),
            None,
            true,
            false,
            true,
            0,
        )
    }

    /// Batched attention-context matmul `softmax(S)·V`, producing a sequence
    /// with the hidden size of `v`.
    pub fn attention_context(&mut self, name: &str, scores: &Act, v: &Act, heads: u64) -> Act {
        let name = self.graph.push_base(name);
        let seq = v.seq();
        let out = self.add_activation(name, ActShape::Seq(seq));
        let per_head = gemm_cost(seq.l, seq.d / heads.max(1), seq.l);
        let fwd = per_head.scale(product(&[seq.n, heads]) as f64);
        self.record(
            name,
            KernelClass::Gemm,
            [],
            [scores.tensor, v.tensor],
            out,
            fwd,
            fwd.scale(2.0),
            None,
            true,
            false,
            true,
            0,
        )
    }

    /// Reinterprets a feature map as a token sequence via an explicit copy
    /// kernel (flatten + transpose + class-token concatenation as emitted by
    /// vision-transformer frameworks).
    pub fn to_sequence(&mut self, name: &str, input: &Act, tokens: u64, hidden: u64) -> Act {
        let name = self.graph.push_base(name);
        let n = input.shape().batch();
        let out_shape = ActShape::Seq(SeqShape::new(n, tokens, hidden));
        let out = self.add_activation(name, out_shape);
        let cost = elementwise_cost(out_shape.elements(), 1);
        self.record(
            name,
            KernelClass::Elementwise,
            [],
            [input.tensor],
            out,
            cost,
            cost,
            None,
            false,
            false,
            true,
            0,
        )
    }

    /// Softmax over the last dimension of the given activation.
    pub fn softmax(&mut self, name: &str, input: &Act) -> Act {
        let name = self.graph.push_base(name);
        let out = self.add_activation(name, input.shape);
        let cost = softmax_cost(input.shape.elements());
        self.record(
            name,
            KernelClass::Softmax,
            [],
            [input.tensor],
            out,
            cost,
            cost,
            None,
            false,
            true,
            true,
            0,
        )
    }

    // ------------------------------------------------------------------
    // Finishing: backward pass + optimizer
    // ------------------------------------------------------------------

    /// Finalises the graph: emits the forward kernels, a loss kernel seeded
    /// from `final_output`, the backward pass and the optimizer step, and
    /// returns the complete [`DnnGraph`].
    ///
    /// Derived names (`conv1.forward`, `conv1.weight.grad`, …) are the
    /// layer's name in the graph's arena plus a suffix tag, and each
    /// kernel's operand lists are assembled in scratch buffers reused across
    /// kernels, so finishing allocates only as the graph's tables grow.  The
    /// tables are then trimmed to their final lengths.
    pub fn finish(self, final_output: &Act) -> DnnGraph {
        let GraphBuilder {
            mut graph,
            records,
            operands,
            ..
        } = self;
        let act_inputs = |rec: &LayerRecord| &operands[rec.act_inputs.range()];
        let weights = |rec: &LayerRecord| &operands[rec.weights.range()];

        // Reserve the graph's tables up front: per record one forward and up
        // to two backward kernels plus (fwd, bwd) workspaces, one gradient
        // per activation output and per weight, and one optimizer kernel +
        // momentum tensor per weight, plus the loss kernel and its seed.
        let n_weights: usize = records.iter().map(|r| r.weights.len()).sum();
        let n_workspaces = records.iter().filter(|r| r.workspace_bytes > 0).count();
        graph.reserve(
            2 * n_workspaces + records.len() + 2 * n_weights + 1,
            2 * records.len() + n_weights + 1,
        );

        // --- Forward kernels -------------------------------------------------
        let mut outputs: Vec<TensorId> = Vec::with_capacity(2);
        for rec in &records {
            outputs.clear();
            outputs.push(rec.output);
            if rec.workspace_bytes > 0 {
                outputs.push(graph.add_tensor_named(
                    TensorKind::Workspace,
                    rec.workspace_bytes,
                    rec.name,
                    Suffix::FwdWorkspace,
                ));
            }
            graph.add_kernel_named(
                rec.name,
                Suffix::Forward,
                rec.class,
                rec.fwd_cost,
                &operands[rec.act_inputs.through(rec.weights)],
                &outputs,
            );
        }

        // --- Loss kernel ------------------------------------------------------
        // Produces the gradient of the final output (the gradient "seed").
        // Gradients are looked up by forward tensor, so `grad_of` covers the
        // tensors that exist before the backward pass.
        let mut grad_of: Vec<Option<TensorId>> = vec![None; graph.num_tensors()];
        let final_bytes = final_output.shape.bytes();
        let loss_grad = graph.add_tensor(TensorKind::ActivationGradient, final_bytes, "loss.grad");
        grad_of[final_output.tensor.index()] = Some(loss_grad);
        graph.add_kernel(
            "loss",
            KernelClass::Reduction,
            elementwise_cost(final_output.shape.elements(), 1),
            &[final_output.tensor],
            &[loss_grad],
        );

        // --- Backward kernels -------------------------------------------------
        let mut weight_grads: Vec<(TensorId, TensorId, &LayerRecord)> =
            Vec::with_capacity(n_weights);
        let mut data_inputs: Vec<TensorId> = Vec::new();
        let mut data_outputs: Vec<TensorId> = Vec::new();
        let mut wgrad_inputs: Vec<TensorId> = Vec::new();
        let mut wgrad_outputs: Vec<TensorId> = Vec::new();
        for rec in records.iter().rev() {
            let out_grad = match grad_of[rec.output.index()] {
                Some(g) => g,
                // An activation nobody consumed (should not happen in the
                // model zoo); give it a zero-seeded gradient so the backward
                // pass stays well formed.
                None => {
                    let g = graph.add_tensor_named(
                        TensorKind::ActivationGradient,
                        rec.output_bytes,
                        rec.name,
                        Suffix::OutGrad,
                    );
                    grad_of[rec.output.index()] = Some(g);
                    g
                }
            };

            // Data-gradient kernel: reads the output gradient (plus saved
            // activations / weights) and produces gradients for the
            // activation inputs.
            data_inputs.clear();
            data_inputs.push(out_grad);
            if rec.saves_input {
                data_inputs.extend_from_slice(act_inputs(rec));
            }
            if rec.saves_output {
                data_inputs.push(rec.output);
            }
            data_inputs.extend_from_slice(weights(rec));

            data_outputs.clear();
            if rec.produces_input_grads {
                for &input in act_inputs(rec) {
                    if graph.tensor(input).kind() == TensorKind::Input {
                        continue; // no gradient for raw model inputs
                    }
                    match grad_of[input.index()] {
                        Some(g) => {
                            // Gradient accumulation: read-modify-write.
                            data_inputs.push(g);
                            data_outputs.push(g);
                        }
                        None => {
                            let g = graph.add_gradient(TensorKind::ActivationGradient, input);
                            grad_of[input.index()] = Some(g);
                            data_outputs.push(g);
                        }
                    }
                }
            }

            // Normalisation layers fold their (tiny) parameter gradients into
            // the same backward kernel; convolutions and GEMMs get a separate
            // weight-gradient kernel, matching how cuDNN/cuBLAS emit them.
            let split_wgrad = rec.bwd_weight_cost.is_some() && !rec.weights.is_empty();
            if !split_wgrad {
                for &w in weights(rec) {
                    let g = graph.add_gradient(TensorKind::WeightGradient, w);
                    weight_grads.push((w, g, rec));
                    data_outputs.push(g);
                }
            }

            if rec.workspace_bytes > 0 {
                data_outputs.push(graph.add_tensor_named(
                    TensorKind::Workspace,
                    rec.workspace_bytes,
                    rec.name,
                    Suffix::BwdWorkspace,
                ));
            }

            if data_outputs.is_empty() {
                // Layers at the graph boundary (e.g. embeddings with
                // split weight gradients) may have nothing to emit here.
                if !split_wgrad {
                    continue;
                }
            } else {
                graph.add_kernel_named(
                    rec.name,
                    Suffix::Backward,
                    rec.class,
                    rec.bwd_data_cost,
                    &data_inputs,
                    &data_outputs,
                );
            }

            if split_wgrad {
                wgrad_inputs.clear();
                wgrad_inputs.push(out_grad);
                wgrad_inputs.extend_from_slice(act_inputs(rec));
                wgrad_outputs.clear();
                for &w in weights(rec) {
                    let g = graph.add_gradient(TensorKind::WeightGradient, w);
                    weight_grads.push((w, g, rec));
                    wgrad_outputs.push(g);
                }
                graph.add_kernel_named(
                    rec.name,
                    Suffix::BackwardWgrad,
                    rec.class,
                    rec.bwd_weight_cost.unwrap_or(rec.bwd_data_cost),
                    &wgrad_inputs,
                    &wgrad_outputs,
                );
            }
        }

        // --- Optimizer step ---------------------------------------------------
        // One SGD-with-momentum kernel per parameterised layer, in parameter
        // registration order (the order optimizers iterate their param groups).
        for (weight, grad, rec) in weight_grads.into_iter().rev() {
            let bytes = graph.tensor(weight).bytes();
            let momentum = graph.add_tensor_named(
                TensorKind::OptimizerState,
                bytes,
                rec.name,
                Suffix::Momentum,
            );
            graph.add_kernel_named(
                rec.name,
                Suffix::Optimizer,
                KernelClass::Optimizer,
                optimizer_cost(bytes / 4),
                &[weight, grad, momentum],
                &[weight, momentum],
            );
        }

        // No table keeps growth slack: many graphs stay alive at once (a
        // grid, a replay sweep, a serving daemon's cache).
        graph.shrink_to_fit();
        // Build the shared analysis index here, once, so every downstream
        // consumer (Figure 2, vitality, the replay engine) starts from the
        // cached CSR adjacency instead of deriving it on first use.
        let _ = graph.index();
        debug_assert!(
            graph.validate().is_ok(),
            "builder produced an invalid graph"
        );
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::KernelId;

    fn toy_cnn(batch: u64) -> DnnGraph {
        let mut b = GraphBuilder::new("toy", batch);
        let x = b.input_image(3, 32, 32);
        let c1 = b.conv2d("conv1", &x, 16, 3, 1, 1);
        let n1 = b.batch_norm("bn1", &c1);
        let r1 = b.relu("relu1", &n1);
        let c2 = b.conv2d("conv2", &r1, 16, 3, 1, 1);
        let n2 = b.batch_norm("bn2", &c2);
        let s = b.add("res", &n2, &r1);
        let r2 = b.relu("relu2", &s);
        let p = b.global_avg_pool("pool", &r2);
        let y = b.linear("fc", &p, 10);
        b.finish(&y)
    }

    #[test]
    fn toy_cnn_is_valid_and_has_all_phases() {
        let g = toy_cnn(4);
        g.validate().expect("graph must validate");
        let names: Vec<String> = g
            .kernels()
            .iter()
            .map(|k| g.kernel_name(k.id()).to_string())
            .collect();
        assert!(names.iter().any(|n| n.ends_with(".forward")));
        assert!(names.iter().any(|n| n == "loss"));
        assert!(names.iter().any(|n| n.ends_with(".backward")));
        assert!(names.iter().any(|n| n.ends_with(".backward.wgrad")));
        assert!(names.iter().any(|n| n.ends_with(".optimizer")));
    }

    #[test]
    fn forward_precedes_backward_precedes_optimizer() {
        let g = toy_cnn(4);
        let first_backward = g
            .kernels()
            .iter()
            .position(|k| g.kernel_name(k.id()).to_string().contains(".backward"))
            .unwrap();
        let last_forward = g
            .kernels()
            .iter()
            .rposition(|k| g.kernel_name(k.id()).to_string().ends_with(".forward"))
            .unwrap();
        let first_optimizer = g
            .kernels()
            .iter()
            .position(|k| g.kernel_name(k.id()).to_string().ends_with(".optimizer"))
            .unwrap();
        let last_backward = g
            .kernels()
            .iter()
            .rposition(|k| g.kernel_name(k.id()).to_string().contains(".backward"))
            .unwrap();
        assert!(last_forward < first_backward);
        assert!(last_backward < first_optimizer);
    }

    #[test]
    fn weights_are_used_in_forward_backward_and_optimizer() {
        let g = toy_cnn(4);
        let conv1_weight = g
            .tensors()
            .iter()
            .find(|t| g.tensor_name(t.id()) == "conv1.weight")
            .unwrap()
            .id();
        let uses: &[KernelId] = g.index().use_sites(conv1_weight);
        assert!(
            uses.len() >= 3,
            "weight should be used in fwd, bwd and optimizer"
        );
        let names: Vec<String> = uses.iter().map(|k| g.kernel_name(*k).to_string()).collect();
        assert!(names.iter().any(|n| n.ends_with(".forward")));
        assert!(names.iter().any(|n| n.contains(".backward")));
        assert!(names.iter().any(|n| n.ends_with(".optimizer")));
    }

    #[test]
    fn activation_memory_scales_with_batch() {
        let small = toy_cnn(4);
        let large = toy_cnn(8);
        assert!(large.total_tensor_bytes() > small.total_tensor_bytes());
        // Weights do not scale with batch, so it is less than 2x overall but
        // activation bytes specifically should double.
        let act_bytes = |g: &DnnGraph| {
            g.tensors()
                .iter()
                .filter(|t| t.kind() == TensorKind::Activation)
                .map(|t| t.bytes())
                .sum::<u64>()
        };
        assert_eq!(act_bytes(&large), 2 * act_bytes(&small));
    }

    #[test]
    fn transformer_layers_build() {
        let mut b = GraphBuilder::new("toy-transformer", 2);
        let x = b.embedding("embed", 16, 64, 1000);
        let ln = b.layer_norm("ln", &x);
        let q = b.linear("q", &ln, 64);
        let k = b.linear("k", &ln, 64);
        let v = b.linear("v", &ln, 64);
        let s = b.attention_scores("scores", &q, &k, 4);
        let p = b.softmax("softmax", &s);
        let ctx = b.attention_context("context", &p, &v, 4);
        let o = b.linear("proj", &ctx, 64);
        let res = b.add_seq("residual", &o, &x);
        let g = b.finish(&res);
        g.validate().expect("transformer graph must validate");
        assert!(g.num_kernels() > 20);
    }

    #[test]
    fn residual_inputs_get_accumulated_gradients() {
        // The residual `r1` activation feeds both conv2 and the add, so its
        // gradient must be produced once and then accumulated (read+write).
        let g = toy_cnn(4);
        let r1_grad = g
            .tensors()
            .iter()
            .find(|t| g.tensor_name(t.id()) == "relu1.out.grad")
            .map(|t| t.id());
        let r1_grad = r1_grad.expect("gradient for relu1.out should exist");
        let writers = g
            .kernels()
            .iter()
            .filter(|k| g.outputs(k.id()).contains(&r1_grad))
            .count();
        assert!(
            writers >= 2,
            "residual gradient should be written by at least two kernels"
        );
    }
}
