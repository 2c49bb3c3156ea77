//! Tensor identities, kinds and sizes.
//!
//! The G10 tensor vitality analyzer (§4.2 of the paper) distinguishes
//! *global* tensors — model weights and other state that lives across
//! training iterations — from *intermediate* tensors such as activations and
//! gradients, which are born and die within one iteration and can be freed
//! after their death.  This module provides the vocabulary types that the
//! rest of the workspace builds on.

use crate::graph::{Span, Suffix};
use std::fmt;

/// Size in bytes of a single FP32 element, the representation used by the
/// paper's evaluation ("We use FP32 format for the tensor representation").
pub const FP32_BYTES: u64 = 4;

/// Identifier of a tensor inside one [`crate::graph::DnnGraph`].
///
/// Tensor ids are dense indices assigned in registration order, so they can
/// be used to index side tables (`Vec<T>`) without hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TensorId(u32);

impl TensorId {
    /// Creates a tensor id from a raw index.
    pub const fn new(raw: u32) -> Self {
        TensorId(raw)
    }

    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The semantic role a tensor plays in a training iteration.
///
/// The role determines whether a tensor is *global* (allocated once, lives
/// across iterations) or *intermediate* (born at first use inside an
/// iteration, dead after its last use), which is exactly the classification
/// the vitality analyzer performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// Model parameters (convolution filters, linear weights, biases,
    /// normalisation scales).  Global: used in the forward pass, the backward
    /// pass and the optimizer step, and again in the next iteration.
    Weight,
    /// Optimizer state (momentum, variance).  Global, touched only by the
    /// optimizer step at the end of an iteration.
    OptimizerState,
    /// Forward activations (layer outputs).  Intermediate: produced in the
    /// forward pass and usually consumed once more in the backward pass.
    Activation,
    /// Gradients with respect to activations.  Intermediate, short-lived.
    ActivationGradient,
    /// Gradients with respect to weights.  Intermediate: produced in the
    /// backward pass and consumed by the optimizer step.
    WeightGradient,
    /// Scratch space required by a kernel (e.g. cuDNN convolution
    /// workspaces).  Intermediate and extremely short-lived.
    Workspace,
    /// The input batch itself (images / token ids).  Intermediate from the
    /// point of view of GPU memory management.
    Input,
}

impl TensorKind {
    /// Returns `true` if tensors of this kind live across training
    /// iterations (the paper's "global tensors").
    pub const fn is_global(self) -> bool {
        matches!(self, TensorKind::Weight | TensorKind::OptimizerState)
    }

    /// A short human-readable label, used by the instrumented-program
    /// renderer and by the characterisation reports.
    pub const fn label(self) -> &'static str {
        match self {
            TensorKind::Weight => "weight",
            TensorKind::OptimizerState => "opt_state",
            TensorKind::Activation => "activation",
            TensorKind::ActivationGradient => "act_grad",
            TensorKind::WeightGradient => "weight_grad",
            TensorKind::Workspace => "workspace",
            TensorKind::Input => "input",
        }
    }

    /// All kinds, useful for exhaustive reporting.
    pub const ALL: [TensorKind; 7] = [
        TensorKind::Weight,
        TensorKind::OptimizerState,
        TensorKind::Activation,
        TensorKind::ActivationGradient,
        TensorKind::WeightGradient,
        TensorKind::Workspace,
        TensorKind::Input,
    ];
}

impl fmt::Display for TensorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Full description of one tensor in a dataflow graph.  Its name is a base
/// in the owning graph's name arena plus a suffix tag: see
/// [`crate::graph::DnnGraph::tensor_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorInfo {
    id: TensorId,
    kind: TensorKind,
    bytes: u64,
    name: Span,
    suffix: Suffix,
}

impl TensorInfo {
    /// Creates a tensor description outside any graph (it has no name).
    /// Graph tensors are made by [`crate::graph::DnnGraph::add_tensor`],
    /// which assigns the id and records the name.
    pub fn new(id: TensorId, kind: TensorKind, bytes: u64) -> Self {
        Self::in_graph(id, kind, bytes, Span::default(), Suffix::None)
    }

    /// A graph tensor named `<name><suffix>`, `name` being a span of the
    /// graph's name arena.
    pub(crate) fn in_graph(
        id: TensorId,
        kind: TensorKind,
        bytes: u64,
        name: Span,
        suffix: Suffix,
    ) -> Self {
        TensorInfo {
            id,
            kind,
            bytes,
            name,
            suffix,
        }
    }

    pub(crate) fn name_parts(&self) -> (Span, Suffix) {
        (self.name, self.suffix)
    }

    /// The tensor's id within its graph.
    pub fn id(&self) -> TensorId {
        self.id
    }

    /// The semantic role of the tensor.
    pub fn kind(&self) -> TensorKind {
        self.kind
    }

    /// Size of the tensor in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Returns `true` if the tensor is global (lives across iterations).
    pub fn is_global(&self) -> bool {
        self.kind.is_global()
    }

    /// Number of 4 KiB pages needed to back this tensor, rounding up.
    pub fn pages(&self, page_bytes: u64) -> u64 {
        debug_assert!(page_bytes > 0);
        self.bytes.div_ceil(page_bytes)
    }
}

impl fmt::Display for TensorInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] ({} bytes)", self.id, self.kind, self.bytes)
    }
}

/// Computes the byte size of an FP32 tensor with the given number of elements.
///
/// # Panics
///
/// Panics if the byte size overflows `u64`.
pub fn fp32_bytes(elements: u64) -> u64 {
    elements
        .checked_mul(FP32_BYTES)
        .unwrap_or_else(|| panic!("{elements} FP32 elements overflow u64 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_globality() {
        assert!(TensorKind::Weight.is_global());
        assert!(TensorKind::OptimizerState.is_global());
        for kind in [
            TensorKind::Activation,
            TensorKind::ActivationGradient,
            TensorKind::WeightGradient,
            TensorKind::Workspace,
            TensorKind::Input,
        ] {
            assert!(!kind.is_global());
        }
    }

    #[test]
    fn pages_round_up() {
        let t = TensorInfo::new(TensorId::new(0), TensorKind::Activation, 4097);
        assert_eq!(t.pages(4096), 2);
        let t = TensorInfo::new(TensorId::new(1), TensorKind::Activation, 4096);
        assert_eq!(t.pages(4096), 1);
        let t = TensorInfo::new(TensorId::new(2), TensorKind::Activation, 1);
        assert_eq!(t.pages(4096), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TensorId::new(5).to_string(), "t5");
        let t = TensorInfo::new(TensorId::new(3), TensorKind::Weight, 16);
        let s = t.to_string();
        assert!(s.contains("t3"));
        assert!(s.contains("weight"));
        assert!(s.contains("16"));
    }

    #[test]
    fn fp32_sizing() {
        assert_eq!(fp32_bytes(0), 0);
        assert_eq!(fp32_bytes(10), 40);
    }
}
