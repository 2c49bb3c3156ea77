//! Operator descriptors with analytic FLOP and byte counts.
//!
//! A "kernel" in the trace the G10 scheduler consumes corresponds to one GPU
//! operator invocation (a cuDNN convolution, a cuBLAS GEMM, an element-wise
//! kernel, …).  The cost model needs two numbers per kernel — floating-point
//! work and bytes moved through HBM — to estimate its duration with a
//! roofline model.  This module defines the operator vocabulary and computes
//! those numbers from layer dimensions.

use std::fmt;

/// Broad operator classes.
///
/// The class drives the cost model's efficiency factors (dense GEMM-like ops
/// get close to peak FLOPs; element-wise ops are memory-bound) and is used by
/// the characterisation reports to break kernels down by type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Dense convolution (forward or data/filter gradient).
    Conv2d,
    /// Dense matrix multiplication (linear layers, attention projections).
    Gemm,
    /// Batch normalisation (forward or backward).
    BatchNorm,
    /// Layer normalisation (forward or backward).
    LayerNorm,
    /// Element-wise activation / arithmetic (ReLU, GELU, sigmoid, add, scale).
    Elementwise,
    /// Pooling (max / average / global).
    Pooling,
    /// Softmax (attention scores, classifier).
    Softmax,
    /// Embedding lookup / gather.
    Embedding,
    /// Reduction (loss, global statistics).
    Reduction,
    /// Optimizer step (SGD / Adam update).
    Optimizer,
}

impl KernelClass {
    /// Short label used in reports and instrumented programs.
    pub const fn label(self) -> &'static str {
        match self {
            KernelClass::Conv2d => "conv2d",
            KernelClass::Gemm => "gemm",
            KernelClass::BatchNorm => "batchnorm",
            KernelClass::LayerNorm => "layernorm",
            KernelClass::Elementwise => "elementwise",
            KernelClass::Pooling => "pooling",
            KernelClass::Softmax => "softmax",
            KernelClass::Embedding => "embedding",
            KernelClass::Reduction => "reduction",
            KernelClass::Optimizer => "optimizer",
        }
    }

    /// Returns `true` for operator classes whose arithmetic maps onto the
    /// GPU's dense matrix pipelines and therefore achieves high FLOP
    /// efficiency (convolutions and GEMMs).
    pub const fn is_compute_dense(self) -> bool {
        matches!(self, KernelClass::Conv2d | KernelClass::Gemm)
    }

    /// All classes, useful for exhaustive reporting.
    pub const ALL: [KernelClass; 10] = [
        KernelClass::Conv2d,
        KernelClass::Gemm,
        KernelClass::BatchNorm,
        KernelClass::LayerNorm,
        KernelClass::Elementwise,
        KernelClass::Pooling,
        KernelClass::Softmax,
        KernelClass::Embedding,
        KernelClass::Reduction,
        KernelClass::Optimizer,
    ];
}

impl fmt::Display for KernelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Work estimate for one kernel: floating-point operations and bytes that
/// must cross the GPU memory hierarchy (reads + writes of operands).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCost {
    /// Floating-point operations performed by the kernel.
    pub flops: f64,
    /// Bytes of operand traffic (inputs read + outputs written).
    pub bytes: f64,
}

impl OpCost {
    /// Creates a cost from explicit FLOP and byte counts.
    pub const fn new(flops: f64, bytes: f64) -> Self {
        OpCost { flops, bytes }
    }

    /// Adds two costs together (e.g. to fuse two logical steps into one
    /// kernel).
    pub fn combine(self, other: OpCost) -> OpCost {
        OpCost {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
        }
    }

    /// Scales the cost by a constant factor (e.g. backward ≈ 2× forward for
    /// convolutions).
    pub fn scale(self, factor: f64) -> OpCost {
        OpCost {
            flops: self.flops * factor,
            bytes: self.bytes * factor,
        }
    }
}

/// Cost of a 2-D convolution forward pass.
///
/// `n` is the batch, `c_in`/`c_out` the channel counts, `h_out`/`w_out` the
/// *output* spatial dimensions, `k` the kernel size and `groups` the group
/// count (1 for dense convolutions, `c_in` for depthwise).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_cost(
    n: u64,
    c_in: u64,
    c_out: u64,
    h_out: u64,
    w_out: u64,
    k: u64,
    groups: u64,
    h_in: u64,
    w_in: u64,
) -> OpCost {
    let groups = groups.max(1);
    // 2 FLOPs per multiply-accumulate.
    let flops = 2.0 * (n * c_out * h_out * w_out) as f64 * ((c_in / groups) * k * k) as f64;
    let input_bytes = (n * c_in * h_in * w_in * 4) as f64;
    let output_bytes = (n * c_out * h_out * w_out * 4) as f64;
    let weight_bytes = (c_out * (c_in / groups) * k * k * 4) as f64;
    OpCost::new(flops, input_bytes + output_bytes + weight_bytes)
}

/// Cost of a dense GEMM computing an `m × n` output from an `m × k` by
/// `k × n` product.
pub fn gemm_cost(m: u64, n: u64, k: u64) -> OpCost {
    let flops = 2.0 * (m as f64) * (n as f64) * (k as f64);
    let bytes = ((m * k + k * n + m * n) * 4) as f64;
    OpCost::new(flops, bytes)
}

/// Cost of an element-wise kernel over `elements` values reading `reads`
/// operands and writing one output.
pub fn elementwise_cost(elements: u64, reads: u64) -> OpCost {
    let flops = elements as f64; // ~1 FLOP per element.
    let bytes = (elements * (reads + 1) * 4) as f64;
    OpCost::new(flops, bytes)
}

/// Cost of a normalisation kernel (batch-norm / layer-norm style: two passes
/// over the data).
pub fn normalization_cost(elements: u64) -> OpCost {
    let flops = (elements * 5) as f64;
    let bytes = (elements * 3 * 4) as f64;
    OpCost::new(flops, bytes)
}

/// Cost of a pooling kernel with the given window size over `out_elements`
/// outputs.
pub fn pooling_cost(out_elements: u64, window: u64) -> OpCost {
    let flops = (out_elements * window * window) as f64;
    let bytes = (out_elements * (window * window + 1) * 4) as f64;
    OpCost::new(flops, bytes)
}

/// Cost of a softmax over `elements` values (exp + sum + divide ≈ 5 FLOPs /
/// element, ~3 passes over the data).
pub fn softmax_cost(elements: u64) -> OpCost {
    let flops = (elements * 5) as f64;
    let bytes = (elements * 3 * 4) as f64;
    OpCost::new(flops, bytes)
}

/// Cost of an embedding lookup writing `out_elements` values.
pub fn embedding_cost(out_elements: u64) -> OpCost {
    OpCost::new(out_elements as f64, (out_elements * 2 * 4) as f64)
}

/// Cost of an SGD-with-momentum optimizer step over `params` parameters.
pub fn optimizer_cost(params: u64) -> OpCost {
    let flops = (params * 4) as f64;
    let bytes = (params * 4 * 4) as f64; // read w, g, m; write w (and m).
    OpCost::new(flops, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_cost_is_2mnk() {
        let c = gemm_cost(128, 256, 512);
        assert_eq!(c.flops, 2.0 * 128.0 * 256.0 * 512.0);
        assert!(c.bytes > 0.0);
    }

    #[test]
    fn conv_cost_scales_with_groups() {
        let dense = conv2d_cost(1, 64, 64, 56, 56, 3, 1, 56, 56);
        let grouped = conv2d_cost(1, 64, 64, 56, 56, 3, 64, 56, 56);
        assert!(dense.flops > grouped.flops);
        assert!((dense.flops / grouped.flops - 64.0).abs() < 1e-9);
    }

    #[test]
    fn elementwise_is_memory_bound() {
        let c = elementwise_cost(1 << 20, 2);
        assert!(c.flops < c.bytes);
    }

    #[test]
    fn dense_classes_flagged() {
        assert!(KernelClass::Conv2d.is_compute_dense());
        assert!(KernelClass::Gemm.is_compute_dense());
        assert!(!KernelClass::Softmax.is_compute_dense());
        for class in KernelClass::ALL {
            assert!(!class.label().is_empty());
        }
    }

    #[test]
    fn cost_combine_and_scale() {
        let a = OpCost::new(10.0, 100.0);
        let b = OpCost::new(5.0, 50.0);
        let c = a.combine(b);
        assert_eq!(c.flops, 15.0);
        assert_eq!(c.bytes, 150.0);
        let d = c.scale(2.0);
        assert_eq!(d.flops, 30.0);
        assert_eq!(d.bytes, 300.0);
    }

    #[test]
    fn optimizer_and_misc_costs_positive() {
        assert!(optimizer_cost(1000).flops > 0.0);
        assert!(embedding_cost(1000).bytes > 0.0);
        assert!(pooling_cost(1000, 3).flops > 0.0);
        assert!(softmax_cost(1000).bytes > 0.0);
        assert!(normalization_cost(1000).flops > 0.0);
    }
}
