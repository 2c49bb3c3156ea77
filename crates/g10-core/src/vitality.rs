//! Tensor vitality analysis (§4.2 of the paper).
//!
//! The analyzer walks every tensor's use sites once and derives every
//! *inactive period* — an interval between two consecutive uses during
//! which the tensor could safely live in host memory or on the SSD.  Global
//! tensors additionally get a wrap-around period spanning from their last
//! use in one iteration to their first use in the next.
//!
//! This module is the one place that decides what an inactive period is:
//! the planners schedule against these periods, and Figures 3–4 of the
//! paper measure the same ones.  Per-tensor facts (use sites, first and
//! last use) and the no-eviction liveness curve stay in the graph's shared
//! [`g10_dnn::index::GraphIndex`], which the analysis keeps a handle to.

use g10_dnn::graph::{DnnGraph, KernelId};
use g10_dnn::tensor::TensorId;
use g10_dnn::trace::KernelTrace;
use g10_time::Nanos;
use serde::{Deserialize, Serialize};

/// Identifier of one inactive period inside a [`VitalityAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PeriodId(pub usize);

impl PeriodId {
    /// Raw index into [`VitalityAnalysis::periods`].
    pub const fn index(self) -> usize {
        self.0
    }
}

/// One tensor inactive period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InactivePeriod {
    /// This period's id.
    pub id: PeriodId,
    /// The tensor that is inactive.
    pub tensor: TensorId,
    /// Size of the tensor in bytes.
    pub bytes: u64,
    /// The kernel after which the tensor becomes inactive.
    pub start_kernel: KernelId,
    /// The kernel at which the tensor must be back in GPU memory.
    pub end_kernel: KernelId,
    /// Time at which the period starts (end of `start_kernel` in the ideal
    /// schedule).
    pub start_time: Nanos,
    /// Time at which the period ends (start of `end_kernel`).  For
    /// wrap-around periods this is expressed in the *next* iteration, i.e.
    /// it exceeds the iteration length.
    pub end_time: Nanos,
    /// `true` for the cross-iteration period of a global tensor.
    pub wraps_iteration: bool,
}

/// The kernel-index ranges of one inactive period, stored inline.
///
/// A period yields at most two half-open ranges (wrap-around periods cover
/// the tail of this iteration and the head of the next), so the planner
/// keeps them in a fixed `[(usize, usize); 2]` instead of allocating a `Vec`
/// per candidate per rescoring round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PeriodRanges {
    ranges: [(usize, usize); 2],
    len: u8,
}

impl PeriodRanges {
    fn push(&mut self, range: (usize, usize)) {
        self.ranges[self.len as usize] = range;
        self.len += 1;
    }

    /// The ranges as a slice (0, 1 or 2 entries).
    pub fn as_slice(&self) -> &[(usize, usize)] {
        &self.ranges[..self.len as usize]
    }

    /// Returns `true` if the period covers no interior kernels.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl AsRef<[(usize, usize)]> for PeriodRanges {
    fn as_ref(&self) -> &[(usize, usize)] {
        self.as_slice()
    }
}

impl InactivePeriod {
    /// Length of the period in the ideal schedule.
    pub fn length(&self) -> Nanos {
        self.end_time.saturating_sub(self.start_time)
    }

    /// The kernel-index ranges (half-open, in execution order) during which
    /// the tensor does not need to be resident, without heap allocation.
    /// Ordinary periods yield one range; wrap-around periods yield up to two
    /// (tail of this iteration and head of the next).
    pub fn ranges(&self, num_kernels: usize) -> PeriodRanges {
        let mut ranges = PeriodRanges::default();
        if self.wraps_iteration {
            let tail = (self.start_kernel.index() + 1, num_kernels);
            if tail.0 < tail.1 {
                ranges.push(tail);
            }
            let head = (0, self.end_kernel.index());
            if head.0 < head.1 {
                ranges.push(head);
            }
        } else {
            let range = (self.start_kernel.index() + 1, self.end_kernel.index());
            if range.0 < range.1 {
                ranges.push(range);
            }
        }
        ranges
    }
}

/// The result of analysing one training-iteration graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VitalityAnalysis {
    /// The graph's shared analysis index, kept so use-site and liveness
    /// queries borrow it instead of owning copies.
    index: std::sync::Arc<g10_dnn::index::GraphIndex>,
    periods: Vec<InactivePeriod>,
    iteration_time: Nanos,
}

impl VitalityAnalysis {
    /// Analyses a graph under the given kernel trace.
    ///
    /// The tensor→use-site adjacency comes from the graph's shared
    /// [`g10_dnn::index::GraphIndex`] instead of a private O(E)
    /// re-derivation, so repeated analyses of one graph (the three G10
    /// scheduler variants plus FlashNeuron all analyze per experiment cell)
    /// share one adjacency build.
    ///
    /// # Panics
    ///
    /// Panics if the trace length does not match the graph's kernel count.
    pub fn analyze(graph: &DnnGraph, trace: &KernelTrace) -> Self {
        assert_eq!(
            trace.len(),
            graph.num_kernels(),
            "trace must cover every kernel of the graph"
        );
        let index = graph.index();

        // Every period sits between two consecutive uses (plus one
        // wrap-around per global), so the total use-site count bounds the
        // period count: one allocation, no growth doublings.
        let mut periods = Vec::with_capacity(index.total_use_sites());

        for tensor in graph.tensors() {
            let sites = index.use_sites(tensor.id());
            if sites.is_empty() {
                continue;
            }
            // Inactive periods between consecutive uses.
            for window in sites.windows(2) {
                let (prev, next) = (window[0], window[1]);
                if next.index() <= prev.index() + 1 {
                    continue;
                }
                let start_time = trace.end_time(prev);
                let end_time = trace.start_time(next);
                if end_time <= start_time {
                    continue;
                }
                periods.push(InactivePeriod {
                    id: PeriodId(periods.len()),
                    tensor: tensor.id(),
                    bytes: tensor.bytes(),
                    start_kernel: prev,
                    end_kernel: next,
                    start_time,
                    end_time,
                    wraps_iteration: false,
                });
            }

            // Wrap-around period for global tensors.
            if tensor.is_global() {
                let (first_use, last_use) = (sites[0], sites[sites.len() - 1]);
                let start_time = trace.end_time(last_use);
                let end_time = trace.total_duration() + trace.start_time(first_use);
                if end_time > start_time {
                    periods.push(InactivePeriod {
                        id: PeriodId(periods.len()),
                        tensor: tensor.id(),
                        bytes: tensor.bytes(),
                        start_kernel: last_use,
                        end_kernel: first_use,
                        start_time,
                        end_time,
                        wraps_iteration: true,
                    });
                }
            }
        }

        VitalityAnalysis {
            periods,
            iteration_time: trace.total_duration(),
            index: graph.shared_index(),
        }
    }

    /// The shared index of the graph this analysis was built from; its
    /// identity names the graph in the eviction scheduler's selection memo.
    pub(crate) fn graph_index(&self) -> &std::sync::Arc<g10_dnn::index::GraphIndex> {
        &self.index
    }

    /// Every inactive period, indexable by [`PeriodId`].
    pub fn periods(&self) -> &[InactivePeriod] {
        &self.periods
    }

    /// One period by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this analysis.
    pub fn period(&self, id: PeriodId) -> &InactivePeriod {
        &self.periods[id.index()]
    }

    /// Precomputed interior ranges for every period, indexable by
    /// [`PeriodId`] — the arena the eviction scheduler consults instead of
    /// re-deriving (and re-allocating) ranges per candidate evaluation.
    pub fn period_ranges(&self, num_kernels: usize) -> Vec<PeriodRanges> {
        self.periods.iter().map(|p| p.ranges(num_kernels)).collect()
    }

    /// Per-kernel live bytes assuming nothing is ever evicted (the initial
    /// GPU memory-pressure curve), read from the graph's index.
    pub fn live_bytes(&self) -> &[u64] {
        self.index.live_bytes()
    }

    /// Peak of the no-eviction pressure curve.
    pub fn peak_live_bytes(&self) -> u64 {
        self.index.peak_live_bytes()
    }

    /// Length of one iteration in the ideal schedule.
    pub fn iteration_time(&self) -> Nanos {
        self.iteration_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g10_dnn::cost::GpuCostModel;
    use g10_dnn::models::{build_model, ModelKind};

    fn analysis() -> (DnnGraph, KernelTrace, VitalityAnalysis) {
        let graph = build_model(ModelKind::TinyCnn, 8);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let a = VitalityAnalysis::analyze(&graph, &trace);
        (graph, trace, a)
    }

    #[test]
    fn periods_are_consistent() {
        let (graph, trace, a) = analysis();
        assert!(!a.periods().is_empty());
        for (idx, p) in a.periods().iter().enumerate() {
            assert_eq!(p.id.index(), idx);
            assert!(p.length() > Nanos::ZERO);
            if !p.wraps_iteration {
                assert!(p.end_kernel.index() > p.start_kernel.index() + 1);
                assert!(p.end_time <= trace.total_duration());
            } else {
                assert!(graph.tensor(p.tensor).is_global());
                assert!(p.end_time >= trace.total_duration());
            }
            for &(lo, hi) in p.ranges(graph.num_kernels()).as_slice() {
                assert!(lo < hi && hi <= graph.num_kernels());
            }
        }
    }

    #[test]
    fn forward_activations_have_long_periods() {
        let (graph, _, a) = analysis();
        // An early-layer activation must stay inactive for most of the
        // iteration (forward use, then backward use near the end).
        let early_act = graph
            .tensors()
            .iter()
            .find(|t| t.name() == "stem.relu.out")
            .expect("stem relu output exists")
            .id();
        let period = a
            .periods()
            .iter()
            .filter(|p| p.tensor == early_act)
            .max_by_key(|p| p.length())
            .expect("activation must have an inactive period");
        assert!(period.length().as_secs_f64() > 0.3 * a.iteration_time().as_secs_f64());
    }

    #[test]
    fn weights_have_wraparound_periods() {
        let (graph, _, a) = analysis();
        let n_weights = graph.tensors().iter().filter(|t| t.is_global()).count();
        let n_wraps = a.periods().iter().filter(|p| p.wraps_iteration).count();
        assert!(n_wraps > 0);
        assert!(n_wraps <= n_weights);
    }

    #[test]
    fn a_larger_model_produces_more_periods() {
        let small = {
            let g = build_model(ModelKind::TinyCnn, 8);
            let t = KernelTrace::profile(&g, &GpuCostModel::a100());
            VitalityAnalysis::analyze(&g, &t).periods().len()
        };
        let large = {
            let g = build_model(ModelKind::TinyTransformer, 8);
            let t = KernelTrace::profile(&g, &GpuCostModel::a100());
            VitalityAnalysis::analyze(&g, &t).periods().len()
        };
        assert!(small > 0 && large > 0);
    }
}
