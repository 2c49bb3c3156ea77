//! FlashNeuron: compile-time tensor offloading over GPUDirect Storage.
//!
//! FlashNeuron (FAST '21) selects intermediate tensors at compile time and
//! offloads them to the SSD right after their forward-pass use, prefetching
//! them back shortly before their backward-pass use.  It manages GPU memory
//! explicitly (outside UVM), so it never pays page-fault overhead — but it
//! only uses the direct GPU–SSD path (never host memory), only offloads
//! activation tensors (never weights), and selects tensors with a simple
//! linear policy rather than a benefit/cost analysis, which is where G10's
//! advantage comes from.

use crate::engine::{EngineState, Location};
use crate::policy::{largest_victim_to_ssd, MemoryPolicy};
use g10_core::config::SystemConfig;
use g10_core::vitality::{InactivePeriod, VitalityAnalysis};
use g10_dnn::graph::DnnGraph;
use g10_dnn::tensor::{TensorId, TensorKind};
use g10_dnn::trace::KernelTrace;
use g10_time::Nanos;

/// Fraction of GPU memory FlashNeuron budgets for resident data; the rest is
/// head-room for the tensors of the currently executing kernels.
const MEMORY_BUDGET_FRACTION: f64 = 0.9;

/// The FlashNeuron baseline.
#[derive(Debug, Clone)]
pub struct FlashNeuronPolicy {
    /// Tensors to evict right after the given kernel completes.
    evict_after: Vec<Vec<TensorId>>,
    /// Tensors to prefetch right before the given kernel starts.
    prefetch_before: Vec<Vec<TensorId>>,
    offloaded: usize,
}

impl FlashNeuronPolicy {
    /// Plans FlashNeuron's offload set for one training iteration.
    pub fn new(graph: &DnnGraph, trace: &KernelTrace, config: &SystemConfig) -> Self {
        let analysis = VitalityAnalysis::analyze(graph, trace);
        let n_kernels = graph.num_kernels();
        let budget = (config.gpu_memory_bytes as f64 * MEMORY_BUDGET_FRACTION) as u64;
        let peak = analysis.peak_live_bytes();

        // Each tensor's longest non-wrapping period, indexed in one pass.
        // On equal lengths the later period wins, as `max_by_key` picks.
        let mut longest: Vec<Option<&InactivePeriod>> = vec![None; graph.num_tensors()];
        for period in analysis.periods().iter().filter(|p| !p.wraps_iteration) {
            let slot = &mut longest[period.tensor.index()];
            if slot.is_none_or(|kept| period.length() >= kept.length()) {
                *slot = Some(period);
            }
        }

        // Linear tensor selection: walk activation tensors in the order they
        // are produced and offload them until the projected peak fits the
        // budget.  Weights and gradients are never offloaded.  The offload
        // set keeps that deterministic first-use order (ties in tensor id
        // order): iterating a hash set here made the planned
        // eviction/prefetch instruction order — and therefore the replayed
        // migration interleaving — vary run to run.  Each selected tensor is
        // kept with the longest period found above.
        let index = graph.index();
        let mut selected: Vec<&InactivePeriod> = Vec::new();
        let mut projected = peak;
        let mut candidates: Vec<_> = graph
            .tensors()
            .iter()
            .filter(|t| t.kind() == TensorKind::Activation)
            .filter_map(|t| Some((index.first_use(t.id())?, t)))
            .collect();
        candidates.sort_by_key(|&(first_use, _)| first_use);
        for (_, tensor) in candidates {
            if projected <= budget {
                break;
            }
            // FlashNeuron's linear selection only requires that the tensor
            // is unused for some window between forward and backward; unlike
            // G10 it does not weigh the migration cost against the period
            // length, which is exactly the behaviour the paper contrasts.
            let Some(period) = longest[tensor.id().index()] else {
                continue;
            };
            selected.push(period);
            projected = projected.saturating_sub(tensor.bytes());
        }

        // Attach evictions and prefetches to kernels.
        let mut evict_after = vec![Vec::new(); n_kernels];
        let mut prefetch_before = vec![Vec::new(); n_kernels];
        for period in &selected {
            let tensor = period.tensor;
            evict_after[period.start_kernel.index()].push(tensor);
            // Prefetch early enough to cover the SSD read at the trace's
            // kernel granularity.
            let transfer = config.prefetch_time(period.bytes, g10_core::config::Destination::Ssd);
            let mut kernel = period.end_kernel.index();
            let mut lead = Nanos::ZERO;
            while kernel > period.start_kernel.index() + 1 && lead < transfer {
                kernel -= 1;
                lead += trace.duration(g10_dnn::graph::KernelId::new(kernel as u32));
            }
            prefetch_before[kernel].push(tensor);
        }

        FlashNeuronPolicy {
            evict_after,
            prefetch_before,
            offloaded: selected.len(),
        }
    }

    /// Number of tensors in the offload set.
    pub fn offloaded_tensor_count(&self) -> usize {
        self.offloaded
    }
}

impl MemoryPolicy for FlashNeuronPolicy {
    fn name(&self) -> String {
        "FlashNeuron".to_string()
    }

    fn before_kernel(&mut self, kernel: usize, state: &mut EngineState) {
        for &tensor in &self.prefetch_before[kernel] {
            if state.is_resident_or_inbound(tensor)
                || state.location(tensor) == Location::Unallocated
            {
                continue;
            }
            state.request_prefetch_evicting(tensor, largest_victim_to_ssd);
        }
    }

    fn after_kernel(&mut self, kernel: usize, state: &mut EngineState) {
        for &tensor in &self.evict_after[kernel] {
            if state.location(tensor) == Location::Gpu {
                state.request_evict(tensor, Location::Ssd);
            }
        }
    }

    fn select_victim(&mut self, state: &EngineState) -> Option<(TensorId, Location)> {
        // FlashNeuron never spills to host memory.
        largest_victim_to_ssd(state)
    }

    fn pays_fault_overhead(&self) -> bool {
        // Explicit memory management outside UVM: transfers are awaited, not
        // faulted.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g10_dnn::cost::GpuCostModel;
    use g10_dnn::models::{build_model, ModelKind};

    fn policy(gpu_bytes: u64) -> FlashNeuronPolicy {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let config = SystemConfig::table2().with_gpu_memory(gpu_bytes);
        FlashNeuronPolicy::new(&graph, &trace, &config)
    }

    #[test]
    fn tight_memory_selects_tensors_to_offload() {
        let p = policy(64 << 20);
        assert!(p.offloaded_tensor_count() > 0);
        let evictions: usize = p.evict_after.iter().map(|v| v.len()).sum();
        let prefetches: usize = p.prefetch_before.iter().map(|v| v.len()).sum();
        assert_eq!(evictions, p.offloaded_tensor_count());
        assert_eq!(prefetches, p.offloaded_tensor_count());
    }

    #[test]
    fn plentiful_memory_offloads_nothing() {
        let p = policy(1 << 40);
        assert_eq!(p.offloaded_tensor_count(), 0);
    }

    #[test]
    fn flashneuron_never_faults() {
        let p = policy(64 << 20);
        assert!(!p.pays_fault_overhead());
        assert_eq!(p.name(), "FlashNeuron");
    }
}
