//! The G10 policy: executes the migration plan produced by the compile-time
//! scheduler, for the full design and the G10-GDS / G10-Host ablations.

use crate::engine::{EngineState, Location};
use crate::policy::{lru_victim, MemoryPolicy};
use g10_core::config::Destination;
use g10_core::plan::{Instruction, MigrationPlan};
use g10_core::scheduler::SchedulerVariant;
use g10_dnn::graph::KernelId;
use g10_dnn::tensor::{TensorId, TensorInfo};

fn destination_to_location(destination: Destination) -> Location {
    match destination {
        Destination::Host => Location::Host,
        Destination::Ssd => Location::Ssd,
    }
}

/// Executes a [`MigrationPlan`] at runtime: before and after each kernel it
/// issues that kernel's slice of the plan's table.
#[derive(Debug, Clone)]
pub struct G10Policy {
    plan: MigrationPlan,
    variant: SchedulerVariant,
    /// The plan's initial placements sorted by tensor, one per tensor.
    initial: Vec<(TensorId, Location)>,
}

impl G10Policy {
    /// Creates the runtime policy for a plan produced by the matching
    /// scheduler variant.
    pub fn new(plan: MigrationPlan, variant: SchedulerVariant) -> Self {
        // Reversed, so that the stable sort and `dedup` keep a tensor's
        // last placement, as inserting them into a map in order would.
        let mut initial: Vec<_> = plan
            .initial_placements()
            .iter()
            .rev()
            .map(|p| (p.tensor, destination_to_location(p.location)))
            .collect();
        initial.sort_by_key(|&(tensor, _)| tensor);
        initial.dedup_by_key(|&mut (tensor, _)| tensor);
        G10Policy {
            plan,
            variant,
            initial,
        }
    }

    /// The design variant being executed.
    pub fn variant(&self) -> SchedulerVariant {
        self.variant
    }

    /// The plan being executed.
    pub fn plan(&self) -> &MigrationPlan {
        &self.plan
    }
}

impl MemoryPolicy for G10Policy {
    fn name(&self) -> String {
        self.variant.label().to_string()
    }

    fn initial_location(&self, tensor: &TensorInfo) -> Location {
        if let Ok(at) = self
            .initial
            .binary_search_by_key(&tensor.id(), |&(tensor, _)| tensor)
        {
            self.initial[at].1
        } else if tensor.is_global() {
            Location::Gpu
        } else {
            Location::Unallocated
        }
    }

    fn before_kernel(&mut self, kernel: usize, state: &mut EngineState) {
        if kernel >= self.plan.len() {
            return;
        }
        // Borrowed slice: `state` is disjoint from `self.plan`, so the
        // instruction stream does not need to be cloned per kernel.
        for instruction in self.plan.before(KernelId::new(kernel as u32)) {
            if let Instruction::Prefetch { tensor, .. } = *instruction {
                if state.is_resident_or_inbound(tensor)
                    || state.location(tensor) == Location::Unallocated
                {
                    continue;
                }
                state.request_prefetch(tensor);
            }
        }
    }

    fn after_kernel(&mut self, kernel: usize, state: &mut EngineState) {
        if kernel >= self.plan.len() {
            return;
        }
        for instruction in self.plan.after(KernelId::new(kernel as u32)) {
            if let Instruction::PreEvict {
                tensor,
                destination,
                ..
            } = *instruction
            {
                if state.location(tensor) != Location::Gpu {
                    continue;
                }
                state.request_evict(tensor, destination_to_location(destination));
            }
        }
    }

    fn select_victim(&mut self, state: &EngineState) -> Option<(TensorId, Location)> {
        if self.variant.allows_host() {
            lru_victim(state)
        } else {
            // G10-GDS never stages data in host memory.
            lru_victim(state).map(|(t, _)| (t, Location::Ssd))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g10_core::config::SystemConfig;
    use g10_core::scheduler::G10Scheduler;
    use g10_dnn::cost::GpuCostModel;
    use g10_dnn::models::{build_model, ModelKind};
    use g10_dnn::trace::KernelTrace;

    fn plan(variant: SchedulerVariant) -> MigrationPlan {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let config = SystemConfig::table2().with_gpu_memory(64 << 20);
        G10Scheduler::new(config, variant).plan(&graph, &trace)
    }

    #[test]
    fn policy_names_match_the_paper_labels() {
        for variant in SchedulerVariant::ALL {
            let p = G10Policy::new(plan(variant), variant);
            assert_eq!(p.name(), variant.label());
            assert_eq!(p.variant(), variant);
        }
    }

    #[test]
    fn wrap_around_placements_are_respected() {
        let variant = SchedulerVariant::Full;
        let plan = plan(variant);
        let has_initial = !plan.initial_placements().is_empty();
        let policy = G10Policy::new(plan, variant);
        if has_initial {
            let placement = policy.plan().initial_placements()[0];
            let graph = build_model(ModelKind::TinyCnn, 64);
            let info = graph.tensor(placement.tensor);
            assert_ne!(policy.initial_location(info), Location::Gpu);
        }
    }

    #[test]
    fn initial_locations_read_the_last_placement_of_each_tensor() {
        let graph = build_model(ModelKind::TinyCnn, 8);
        let mut plan =
            MigrationPlan::new(graph.num_kernels(), std::iter::empty(), std::iter::empty());
        let weight = graph
            .tensors()
            .iter()
            .find(|t| t.is_global())
            .expect("a weight");
        let activation = graph
            .tensors()
            .iter()
            .find(|t| !t.is_global())
            .expect("an intermediate");
        plan.add_initial_placement(weight.id(), Destination::Ssd);
        plan.add_initial_placement(activation.id(), Destination::Host);
        plan.add_initial_placement(weight.id(), Destination::Host);
        let policy = G10Policy::new(plan, SchedulerVariant::Full);
        assert_eq!(policy.initial_location(weight), Location::Host);
        assert_eq!(policy.initial_location(activation), Location::Host);
        for tensor in graph.tensors() {
            if tensor.id() != weight.id() && tensor.id() != activation.id() {
                let expected = if tensor.is_global() {
                    Location::Gpu
                } else {
                    Location::Unallocated
                };
                assert_eq!(policy.initial_location(tensor), expected);
            }
        }
    }
}
