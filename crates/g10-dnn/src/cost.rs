//! GPU kernel cost model.
//!
//! The paper profiles kernel execution times on a real NVIDIA A100 and feeds
//! them to the scheduler and the replay simulator.  Without that hardware we
//! estimate durations with a roofline model: a kernel takes as long as the
//! slower of its compute time (FLOPs ÷ achievable FLOP rate) and its memory
//! time (bytes ÷ achievable HBM bandwidth), plus a fixed launch overhead.
//! The scheduler never looks at absolute durations in isolation — what
//! matters is the *ratio* between compute time and migration time, which the
//! roofline preserves.

use crate::graph::Kernel;
use crate::op::OpCost;
use crate::time::Nanos;

/// Roofline cost model for a data-centre GPU.
///
/// # Example
///
/// ```
/// use g10_dnn::cost::GpuCostModel;
/// use g10_dnn::op::gemm_cost;
///
/// let model = GpuCostModel::a100();
/// let big = model.duration_of(gemm_cost(4096, 4096, 4096), true);
/// let small = model.duration_of(gemm_cost(64, 64, 64), true);
/// assert!(big > small);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuCostModel {
    /// Peak floating-point throughput in FLOP/s for dense (GEMM-like) work.
    pub peak_flops: f64,
    /// Sustained HBM bandwidth in bytes/s.
    pub memory_bandwidth: f64,
    /// Fraction of peak FLOPs that dense kernels achieve.
    pub dense_efficiency: f64,
    /// Fraction of peak FLOPs that irregular kernels achieve.
    pub sparse_efficiency: f64,
    /// Fraction of peak memory bandwidth that kernels achieve.
    pub memory_efficiency: f64,
    /// Fixed per-kernel launch overhead.
    pub launch_overhead: Nanos,
}

impl GpuCostModel {
    /// An NVIDIA A100-40GB-like configuration (FP32 training, TF32 tensor
    /// cores for the dense pipelines, 1.5 TB/s HBM2e).
    pub fn a100() -> Self {
        GpuCostModel {
            // TF32 tensor-core peak is 156 TFLOP/s; dense training kernels
            // typically reach a fraction of it.
            peak_flops: 156e12,
            memory_bandwidth: 1.555e12,
            dense_efficiency: 0.45,
            sparse_efficiency: 0.08,
            memory_efficiency: 0.75,
            launch_overhead: Nanos::from_micros(5),
        }
    }

    /// A copy of this model slowed down uniformly by `factor` (both the
    /// compute and the memory roofs, plus the launch overhead).
    pub fn slowed(&self, factor: f64) -> Self {
        let factor = factor.max(1e-6);
        GpuCostModel {
            peak_flops: self.peak_flops / factor,
            memory_bandwidth: self.memory_bandwidth / factor,
            launch_overhead: self.launch_overhead.scale(factor),
            ..*self
        }
    }

    /// Estimated duration for a kernel with the given analytic cost.
    /// `dense` selects the dense-pipeline efficiency (convolutions, GEMMs).
    pub fn duration_of(&self, cost: OpCost, dense: bool) -> Nanos {
        let flop_eff = if dense {
            self.dense_efficiency
        } else {
            self.sparse_efficiency
        };
        let compute_secs = if self.peak_flops > 0.0 {
            cost.flops / (self.peak_flops * flop_eff.max(1e-6))
        } else {
            0.0
        };
        let memory_secs = if self.memory_bandwidth > 0.0 {
            cost.bytes / (self.memory_bandwidth * self.memory_efficiency.max(1e-6))
        } else {
            0.0
        };
        self.launch_overhead + Nanos::from_secs_f64(compute_secs.max(memory_secs))
    }

    /// Estimated duration of a concrete kernel from a dataflow graph.
    pub fn kernel_duration(&self, kernel: &Kernel) -> Nanos {
        self.duration_of(kernel.cost(), kernel.class().is_compute_dense())
    }
}

impl Default for GpuCostModel {
    fn default() -> Self {
        GpuCostModel::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{elementwise_cost, gemm_cost};

    #[test]
    fn dense_kernels_are_compute_bound_memory_bound_otherwise() {
        let model = GpuCostModel::a100();
        // A huge square GEMM is compute bound: doubling FLOPs roughly doubles
        // duration.
        let d1 = model.duration_of(gemm_cost(8192, 8192, 8192), true);
        let d2 = model.duration_of(gemm_cost(8192, 8192, 2 * 8192), true);
        let ratio = d2.as_secs_f64() / d1.as_secs_f64();
        assert!(ratio > 1.8 && ratio < 2.2, "ratio was {ratio}");

        // An element-wise kernel is memory bound: duration tracks bytes.
        let e1 = model.duration_of(elementwise_cost(1 << 24, 1), false);
        let e2 = model.duration_of(elementwise_cost(1 << 25, 1), false);
        assert!(e2 > e1);
    }

    #[test]
    fn launch_overhead_is_floor() {
        let model = GpuCostModel::a100();
        let d = model.duration_of(OpCost::new(1.0, 1.0), false);
        assert!(d >= model.launch_overhead);
    }

    #[test]
    fn zero_rates_do_not_panic() {
        let model = GpuCostModel {
            peak_flops: 0.0,
            memory_bandwidth: 0.0,
            ..GpuCostModel::a100()
        };
        let d = model.duration_of(OpCost::new(1e9, 1e9), true);
        assert_eq!(d, model.launch_overhead);
    }

    #[test]
    fn default_is_a100() {
        assert_eq!(GpuCostModel::default(), GpuCostModel::a100());
    }

    #[test]
    fn slowed_model_scales_durations() {
        let fast = GpuCostModel::a100();
        let slow = fast.slowed(8.0);
        let cost = gemm_cost(4096, 4096, 4096);
        let ratio =
            slow.duration_of(cost, true).as_secs_f64() / fast.duration_of(cost, true).as_secs_f64();
        assert!((6.0..10.0).contains(&ratio), "ratio was {ratio}");
    }
}
