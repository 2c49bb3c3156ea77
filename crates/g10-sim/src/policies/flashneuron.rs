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
use g10_core::config::{Destination, SystemConfig};
use g10_core::plan::Instruction::{PreEvict, Prefetch};
use g10_core::plan::MigrationPlan;
use g10_core::vitality::{InactivePeriod, VitalityAnalysis};
use g10_dnn::graph::{DnnGraph, KernelId};
use g10_dnn::tensor::{TensorId, TensorKind};
use g10_dnn::trace::KernelTrace;
use g10_time::Nanos;

/// Fraction of GPU memory FlashNeuron budgets for resident data; the rest is
/// head-room for the tensors of the currently executing kernels.
const MEMORY_BUDGET_FRACTION: f64 = 0.9;

/// The FlashNeuron baseline.
#[derive(Debug, Clone)]
pub struct FlashNeuronPolicy {
    /// Each offload as a pre-eviction to the SSD and a prefetch from it,
    /// both slots in selection order.
    plan: MigrationPlan,
}

impl FlashNeuronPolicy {
    /// Plans FlashNeuron's offload set for one training iteration.
    pub fn new(graph: &DnnGraph, trace: &KernelTrace, config: &SystemConfig) -> Self {
        FlashNeuronPolicy {
            plan: plan(graph, trace, config),
        }
    }
}

/// FlashNeuron's offload set for one training iteration.
fn plan(graph: &DnnGraph, trace: &KernelTrace, config: &SystemConfig) -> MigrationPlan {
    let analysis = VitalityAnalysis::analyze(graph, trace);
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
    // kept with the longest period found above: pre-evicted after the
    // kernel that starts it and prefetched before the kernel that covers
    // the SSD read.
    let index = graph.index();
    let mut offloads = Vec::new();
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
        // Prefetch early enough to cover the SSD read at the trace's
        // kernel granularity.
        let transfer = config.prefetch_time(period.bytes, Destination::Ssd);
        let mut kernel = period.end_kernel.index();
        let mut lead = Nanos::ZERO;
        while kernel > period.start_kernel.index() + 1 && lead < transfer {
            kernel -= 1;
            lead += trace.duration(KernelId::new(kernel as u32));
        }
        let prefetch = KernelId::new(kernel as u32);
        offloads.push((tensor.id(), tensor.bytes(), period.start_kernel, prefetch));
        projected = projected.saturating_sub(tensor.bytes());
    }
    let (destination, source) = (Destination::Ssd, Destination::Ssd);
    let evictions = offloads.iter().map(|&(tensor, bytes, evict, _)| {
        let instruction = PreEvict {
            tensor,
            bytes,
            destination,
        };
        (evict, instruction)
    });
    let prefetches = offloads.iter().map(|&(tensor, bytes, _, prefetch)| {
        let instruction = Prefetch {
            tensor,
            bytes,
            source,
        };
        (prefetch, instruction)
    });
    MigrationPlan::new(graph.num_kernels(), evictions, prefetches)
}

impl MemoryPolicy for FlashNeuronPolicy {
    fn name(&self) -> String {
        "FlashNeuron".to_string()
    }

    fn before_kernel(&mut self, kernel: usize, state: &mut EngineState) {
        for instruction in self.plan.before(KernelId::new(kernel as u32)) {
            let tensor = instruction.tensor();
            if state.is_resident_or_inbound(tensor)
                || state.location(tensor) == Location::Unallocated
            {
                continue;
            }
            state.request_prefetch_evicting(tensor, largest_victim_to_ssd);
        }
    }

    fn after_kernel(&mut self, kernel: usize, state: &mut EngineState) {
        for instruction in self.plan.after(KernelId::new(kernel as u32)) {
            let tensor = instruction.tensor();
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

    /// `(evictions, prefetches)` the plan attaches to kernels.
    fn planned(p: &FlashNeuronPolicy) -> (usize, usize) {
        (p.plan.eviction_count(), p.plan.prefetch_count())
    }

    #[test]
    fn tight_memory_selects_tensors_to_offload() {
        let (evictions, prefetches) = planned(&policy(64 << 20));
        assert!(evictions > 0);
        assert_eq!(evictions, prefetches);
    }

    #[test]
    fn plentiful_memory_offloads_nothing() {
        assert_eq!(planned(&policy(1 << 40)), (0, 0));
    }

    #[test]
    fn flashneuron_never_faults() {
        let p = policy(64 << 20);
        assert!(!p.pays_fault_overhead());
        assert_eq!(p.name(), "FlashNeuron");
    }
}
