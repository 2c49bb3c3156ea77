//! Workload characterisation queries (paper §3, Figures 2–4).
//!
//! These functions reproduce the memory-usage study that motivates G10:
//!
//! * [`memory_consumption`] — per-kernel *active* vs *live* footprint
//!   (Figure 2): active tensors are the ones used by the currently executing
//!   kernel; live tensors are all tensors that have been born and not yet
//!   died (plus global tensors, which are always live).
//! * [`inactive_periods`] — the lengths of every tensor inactive period
//!   (Figure 3) and the (size, length) pairs behind the scatter plot of
//!   Figure 4.

use crate::graph::{DnnGraph, KernelId};
use crate::tensor::TensorId;
use crate::time::Nanos;
use crate::trace::KernelTrace;
use serde::{Deserialize, Serialize};

/// Per-kernel memory footprint, in bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryConsumption {
    /// Bytes of tensors used by each kernel (the *active* set), indexed by
    /// kernel execution order.
    pub active_bytes: Vec<u64>,
    /// Bytes of all tensors alive at each kernel (born, not yet dead, plus
    /// global tensors), indexed by kernel execution order.
    pub live_bytes: Vec<u64>,
}

impl MemoryConsumption {
    /// Peak live footprint over the iteration — the paper's "total memory
    /// consumption of the DNN" used for the M ratio in Figure 11.
    pub fn peak_live_bytes(&self) -> u64 {
        self.live_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Peak active footprint (the largest single-kernel working set).
    pub fn peak_active_bytes(&self) -> u64 {
        self.active_bytes.iter().copied().max().unwrap_or(0)
    }
}

/// Computes the per-kernel active and live footprint of a graph (Figure 2).
///
/// Both curves are precomputed by the shared [`DnnGraph::index`]: the active
/// bytes are the per-kernel deduplicated working-set sums and the live bytes
/// are the no-eviction liveness curve, so this is two `Vec` copies rather
/// than a fresh O(E) adjacency derivation.
pub fn memory_consumption(graph: &DnnGraph) -> MemoryConsumption {
    let index = graph.index();
    MemoryConsumption {
        active_bytes: index.active_bytes().to_vec(),
        live_bytes: index.live_bytes().to_vec(),
    }
}

/// One tensor inactive period: the interval between two consecutive uses of
/// the tensor during which it could safely live off-GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InactivePeriod {
    /// The tensor this period belongs to.
    pub tensor: TensorId,
    /// Size of the tensor in bytes.
    pub bytes: u64,
    /// Kernel after which the tensor becomes inactive.
    pub after_kernel: KernelId,
    /// Kernel at which the tensor is needed again.
    pub before_kernel: KernelId,
    /// Length of the period in the ideal (stall-free) schedule.
    pub length: Nanos,
}

/// Computes every tensor inactive period of the graph under the given trace
/// (Figures 3 and 4).  Global tensors also get their cross-iteration
/// wrap-around period (last use of this iteration → first use of the next).
pub fn inactive_periods(graph: &DnnGraph, trace: &KernelTrace) -> Vec<InactivePeriod> {
    let index = graph.index();
    let mut periods = Vec::with_capacity(index.total_use_sites());
    let total = trace.total_duration();

    for tensor in graph.tensors() {
        let sites = index.use_sites(tensor.id());
        if sites.is_empty() {
            continue;
        }
        for window in sites.windows(2) {
            let (prev, next) = (window[0], window[1]);
            if next.index() <= prev.index() + 1 {
                continue; // consecutive kernels: never inactive
            }
            let start = trace.end_time(prev);
            let end = trace.start_time(next);
            if end <= start {
                continue;
            }
            periods.push(InactivePeriod {
                tensor: tensor.id(),
                bytes: tensor.bytes(),
                after_kernel: prev,
                before_kernel: next,
                length: end - start,
            });
        }
        if tensor.is_global() {
            // Wrap-around: from the last use of this iteration to the first
            // use in the next iteration.
            let last = sites[sites.len() - 1];
            let first = sites[0];
            let start = trace.end_time(last);
            let end = total + trace.start_time(first);
            if end > start {
                periods.push(InactivePeriod {
                    tensor: tensor.id(),
                    bytes: tensor.bytes(),
                    after_kernel: last,
                    before_kernel: first,
                    length: end - start,
                });
            }
        }
    }
    periods
}

/// Fraction of inactive periods longer than the given threshold — e.g. how
/// many could hide a 20 µs SSD access (the paper reports 60–80 %).
pub fn fraction_longer_than(periods: &[InactivePeriod], threshold: Nanos) -> f64 {
    if periods.is_empty() {
        return 0.0;
    }
    let longer = periods.iter().filter(|p| p.length > threshold).count();
    longer as f64 / periods.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::cost::GpuCostModel;

    fn toy() -> (DnnGraph, KernelTrace) {
        let mut b = GraphBuilder::new("toy", 4);
        let x = b.input_image(3, 32, 32);
        let c1 = b.conv2d("conv1", &x, 16, 3, 1, 1);
        let r1 = b.relu("relu1", &c1);
        let c2 = b.conv2d("conv2", &r1, 16, 3, 2, 1);
        let r2 = b.relu("relu2", &c2);
        let p = b.global_avg_pool("pool", &r2);
        let y = b.linear("fc", &p, 10);
        let g = b.finish(&y);
        let t = KernelTrace::profile(&g, &GpuCostModel::a100());
        (g, t)
    }

    #[test]
    fn active_is_never_more_than_live() {
        let (g, _) = toy();
        let mc = memory_consumption(&g);
        assert_eq!(mc.active_bytes.len(), g.num_kernels());
        for (a, l) in mc.active_bytes.iter().zip(&mc.live_bytes) {
            assert!(a <= l, "active {a} exceeded live {l}");
        }
        assert!(mc.peak_live_bytes() >= mc.peak_active_bytes());
    }

    #[test]
    fn peak_live_is_at_least_sum_of_global_tensors() {
        let (g, _) = toy();
        let mc = memory_consumption(&g);
        assert!(mc.peak_live_bytes() >= g.global_tensor_bytes());
    }

    #[test]
    fn forward_activations_have_long_inactive_periods() {
        let (g, t) = toy();
        let periods = inactive_periods(&g, &t);
        assert!(!periods.is_empty());
        // relu1.out is consumed by conv2 in the forward pass and again by
        // conv2's backward kernels, so it must own at least one inactive
        // period spanning most of the iteration.
        let relu1_out = g
            .tensors()
            .iter()
            .find(|x| x.name() == "relu1.out")
            .unwrap()
            .id();
        assert!(periods.iter().any(|p| p.tensor == relu1_out));
        for p in &periods {
            assert!(p.length > Nanos::ZERO);
            assert!(
                p.before_kernel.index() > p.after_kernel.index() + 1 || {
                    // wrap-around periods of global tensors may "go backwards"
                    g.tensor(p.tensor).is_global()
                }
            );
        }
    }

    #[test]
    fn global_tensors_get_wraparound_periods() {
        let (g, t) = toy();
        let periods = inactive_periods(&g, &t);
        let weight = g
            .tensors()
            .iter()
            .find(|x| x.name() == "conv1.weight")
            .unwrap()
            .id();
        let wrap = periods
            .iter()
            .filter(|p| p.tensor == weight && p.before_kernel.index() <= p.after_kernel.index())
            .count();
        assert!(
            wrap >= 1,
            "weights should have a cross-iteration inactive period"
        );
    }

    #[test]
    fn fraction_is_consistent() {
        let (g, t) = toy();
        let periods = inactive_periods(&g, &t);
        assert_eq!(fraction_longer_than(&periods, Nanos::ZERO), 1.0);
        assert_eq!(fraction_longer_than(&periods, Nanos::MAX), 0.0);
        assert_eq!(fraction_longer_than(&[], Nanos::ZERO), 0.0);
    }
}
