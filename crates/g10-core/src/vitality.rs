//! Tensor vitality analysis (§4.2 of the paper).
//!
//! The analyzer walks the dataflow graph once and derives, for every tensor:
//! its classification (global vs intermediate), its birth and death kernels,
//! the complete list of kernels that use it, and every *inactive period* —
//! an interval between two consecutive uses during which the tensor could
//! safely live in host memory or on the SSD.  Global tensors additionally
//! get a wrap-around period spanning from their last use in one iteration to
//! their first use in the next.

use g10_dnn::graph::{DnnGraph, KernelId};
use g10_dnn::tensor::{TensorId, TensorKind};
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

/// Lifetime facts about one tensor.
///
/// The full use-site list lives in the graph's shared
/// [`g10_dnn::index::GraphIndex`]; [`VitalityAnalysis::uses`] borrows it
/// from there, so the analysis does not clone a `Vec` per tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorLifetime {
    /// The tensor.
    pub tensor: TensorId,
    /// Size in bytes.
    pub bytes: u64,
    /// Its semantic kind.
    pub kind: TensorKind,
    /// `true` for weights / optimizer state (live across iterations).
    pub is_global: bool,
    /// First kernel that uses the tensor (its birth for intermediates).
    pub first_use: KernelId,
    /// Last kernel that uses the tensor (its death for intermediates).
    pub last_use: KernelId,
    /// Number of kernels that use the tensor.
    use_count: usize,
}

impl TensorLifetime {
    /// Number of kernels that touch the tensor.
    pub fn use_count(&self) -> usize {
        self.use_count
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

    /// [`InactivePeriod::ranges`] as an owned `Vec` (compatibility helper).
    pub fn interior_ranges(&self, num_kernels: usize) -> Vec<(usize, usize)> {
        self.ranges(num_kernels).as_slice().to_vec()
    }
}

/// The result of analysing one training-iteration graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VitalityAnalysis {
    /// The graph's shared analysis index, kept so use-site queries borrow
    /// the CSR adjacency instead of owning per-tensor copies.
    index: std::sync::Arc<g10_dnn::index::GraphIndex>,
    lifetimes: Vec<TensorLifetime>,
    periods: Vec<InactivePeriod>,
    live_bytes: Vec<u64>,
    iteration_time: Nanos,
}

impl VitalityAnalysis {
    /// Analyses a graph under the given kernel trace.
    ///
    /// The tensor→use-site adjacency and the no-eviction liveness curve come
    /// from the graph's shared [`g10_dnn::index::GraphIndex`] instead of a
    /// private O(E) re-derivation, so repeated analyses of one graph (the
    /// three G10 scheduler variants plus FlashNeuron all analyze per
    /// experiment cell) share one adjacency build.
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

        let mut lifetimes = Vec::with_capacity(graph.num_tensors());
        // Every period sits between two consecutive uses (plus one
        // wrap-around per global), so the total use-site count bounds the
        // period count: one allocation, no growth doublings.
        let mut periods = Vec::with_capacity(index.total_use_sites());

        for tensor in graph.tensors() {
            let sites = index.use_sites(tensor.id());
            if sites.is_empty() {
                continue;
            }
            let is_global = tensor.is_global();
            let first_use = sites[0];
            let last_use = sites[sites.len() - 1];
            lifetimes.push(TensorLifetime {
                tensor: tensor.id(),
                bytes: tensor.bytes(),
                kind: tensor.kind(),
                is_global,
                first_use,
                last_use,
                use_count: sites.len(),
            });

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
            if is_global {
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
            lifetimes,
            periods,
            live_bytes: index.live_bytes().to_vec(),
            iteration_time: trace.total_duration(),
            index: graph.shared_index(),
        }
    }

    /// The shared index of the graph this analysis was built from; its
    /// identity names the graph in the eviction scheduler's selection memo.
    pub(crate) fn graph_index(&self) -> &std::sync::Arc<g10_dnn::index::GraphIndex> {
        &self.index
    }

    /// Lifetime facts for every used tensor.
    pub fn lifetimes(&self) -> &[TensorLifetime] {
        &self.lifetimes
    }

    /// Every kernel that uses the tensor, in execution order (borrowed from
    /// the graph's shared index; empty for unused tensors).
    pub fn uses(&self, tensor: TensorId) -> &[KernelId] {
        self.index.use_sites(tensor)
    }

    /// Lifetime facts for one tensor, if it is used at all.
    pub fn lifetime(&self, tensor: TensorId) -> Option<&TensorLifetime> {
        self.lifetimes.iter().find(|l| l.tensor == tensor)
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
    /// GPU memory-pressure curve).
    pub fn live_bytes(&self) -> &[u64] {
        &self.live_bytes
    }

    /// Peak of the no-eviction pressure curve.
    pub fn peak_live_bytes(&self) -> u64 {
        self.live_bytes.iter().copied().max().unwrap_or(0)
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
    fn every_used_tensor_has_a_lifetime() {
        let (graph, _, a) = analysis();
        assert_eq!(a.lifetimes().len(), graph.num_tensors());
        for lt in a.lifetimes() {
            let uses = a.uses(lt.tensor);
            assert!(!uses.is_empty());
            assert_eq!(lt.use_count(), uses.len());
            assert!(lt.first_use <= lt.last_use);
            assert_eq!(uses[0], lt.first_use);
            assert_eq!(*uses.last().unwrap(), lt.last_use);
        }
    }

    #[test]
    fn live_bytes_match_the_characterisation_module() {
        let (graph, _, a) = analysis();
        let mc = g10_dnn::stats::memory_consumption(&graph);
        assert_eq!(a.live_bytes(), mc.live_bytes.as_slice());
        assert_eq!(a.peak_live_bytes(), mc.peak_live_bytes());
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
            for (lo, hi) in p.interior_ranges(graph.num_kernels()) {
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
