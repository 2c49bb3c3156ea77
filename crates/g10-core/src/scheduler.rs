//! The top-level G10 scheduler: vitality analysis → eviction scheduling →
//! prefetch scheduling → migration plan.

use crate::config::SystemConfig;
use crate::eviction::{schedule_evictions, EvictionOptions};
use crate::plan::{Instruction, MigrationPlan};
use crate::prefetch::schedule_prefetches;
use crate::vitality::VitalityAnalysis;
use g10_dnn::graph::DnnGraph;
use g10_dnn::trace::KernelTrace;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three G10 design points evaluated in Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerVariant {
    /// G10-GDS: smart migrations, but only between the GPU and the SSD.
    Gds,
    /// G10-Host: smart migrations to both SSD and host memory, executed over
    /// the classic UVM driver (planned migrations pay per-batch software
    /// overhead at runtime).
    Host,
    /// G10: the full design with the extended UVM.
    Full,
}

impl SchedulerVariant {
    /// Whether the planner may target host memory.
    pub const fn allows_host(self) -> bool {
        !matches!(self, SchedulerVariant::Gds)
    }

    /// Whether the runtime benefits from the extended UVM (no software
    /// overhead on planned migrations, no faults on planned accesses).
    pub const fn extended_uvm(self) -> bool {
        matches!(self, SchedulerVariant::Full)
    }

    /// Display label matching the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            SchedulerVariant::Gds => "G10-GDS",
            SchedulerVariant::Host => "G10-Host",
            SchedulerVariant::Full => "G10",
        }
    }

    /// All variants in the order Figure 11 presents them.
    pub const ALL: [SchedulerVariant; 3] = [
        SchedulerVariant::Gds,
        SchedulerVariant::Host,
        SchedulerVariant::Full,
    ];
}

impl fmt::Display for SchedulerVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The smart tensor migration scheduler.
///
/// # Example
///
/// ```
/// use g10_core::config::SystemConfig;
/// use g10_core::scheduler::{G10Scheduler, SchedulerVariant};
/// use g10_dnn::cost::GpuCostModel;
/// use g10_dnn::models::{build_model, ModelKind};
/// use g10_dnn::trace::KernelTrace;
///
/// let graph = build_model(ModelKind::TinyCnn, 32);
/// let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
/// let config = SystemConfig::table2().with_gpu_memory(64 << 20);
/// let plan = G10Scheduler::new(config, SchedulerVariant::Full).plan(&graph, &trace);
/// assert_eq!(plan.eviction_count(), plan.prefetch_count());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct G10Scheduler {
    config: SystemConfig,
    variant: SchedulerVariant,
}

impl G10Scheduler {
    /// Creates a scheduler for the given hardware configuration and design
    /// variant.
    pub fn new(config: SystemConfig, variant: SchedulerVariant) -> Self {
        G10Scheduler { config, variant }
    }

    /// The hardware configuration the scheduler plans against.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The design variant.
    pub fn variant(&self) -> SchedulerVariant {
        self.variant
    }

    /// Runs the full pipeline — vitality analysis, eviction scheduling,
    /// prefetch scheduling — and assembles the migration plan.
    pub fn plan(&self, graph: &DnnGraph, trace: &KernelTrace) -> MigrationPlan {
        let analysis = VitalityAnalysis::analyze(graph, trace);
        self.plan_with_analysis(graph, trace, &analysis)
    }

    /// Like [`G10Scheduler::plan`] but reuses an existing vitality analysis
    /// (useful when several variants are planned for the same model).
    pub fn plan_with_analysis(
        &self,
        graph: &DnnGraph,
        trace: &KernelTrace,
        analysis: &VitalityAnalysis,
    ) -> MigrationPlan {
        let options = EvictionOptions {
            allow_ssd: true,
            allow_host: self.variant.allows_host(),
        };
        let mut schedule = schedule_evictions(analysis, trace, &self.config, options);
        let prefetches = schedule_prefetches(
            analysis,
            trace,
            &self.config,
            &schedule.decisions,
            &mut schedule.pressure,
        );

        // Pre-evictions after the kernel that ends each exploited period,
        // in selection order; prefetches before the kernel chosen by the
        // eager rescheduler, in prefetch order.  The `g10_alloc` /
        // `g10_free` lines of the instrumented program are not part of the
        // plan: the runtime never executes them, and `instrument::Program`
        // derives them from the graph.
        let pre_evictions = schedule.decisions.iter().map(|decision| {
            let instruction = Instruction::PreEvict {
                tensor: decision.tensor,
                bytes: decision.bytes,
                destination: decision.destination,
            };
            (decision.evict_kernel, instruction)
        });
        let prefetch_instructions = prefetches.iter().map(|prefetch| {
            let instruction = Instruction::Prefetch {
                tensor: prefetch.tensor,
                bytes: prefetch.bytes,
                source: prefetch.source,
            };
            (prefetch.prefetch_kernel, instruction)
        });
        let mut plan =
            MigrationPlan::new(graph.num_kernels(), pre_evictions, prefetch_instructions);
        plan.set_planned_peak_pressure(schedule.pressure.max_value());
        plan.set_planned_ideal_time(trace.total_duration());

        // Initial placements for wrap-around evictions (steady state).
        for prefetch in &prefetches {
            if analysis.period(prefetch.period).wraps_iteration {
                plan.add_initial_placement(prefetch.tensor, prefetch.source);
            }
        }

        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::Program;
    use g10_dnn::cost::GpuCostModel;
    use g10_dnn::graph::KernelId;
    use g10_dnn::models::{build_model, ModelKind};

    fn plan_for(variant: SchedulerVariant, gpu_bytes: u64) -> MigrationPlan {
        let graph = build_model(ModelKind::TinyCnn, 64);
        plan_on(&graph, variant, gpu_bytes)
    }

    fn plan_on(graph: &DnnGraph, variant: SchedulerVariant, gpu_bytes: u64) -> MigrationPlan {
        let trace = KernelTrace::profile(graph, &GpuCostModel::a100());
        let config = SystemConfig::table2().with_gpu_memory(gpu_bytes);
        G10Scheduler::new(config, variant).plan(graph, &trace)
    }

    #[test]
    fn evictions_and_prefetches_are_paired() {
        let plan = plan_for(SchedulerVariant::Full, 64 << 20);
        assert!(plan.eviction_count() > 0);
        assert_eq!(plan.eviction_count(), plan.prefetch_count());
    }

    #[test]
    fn plenty_of_memory_means_no_migrations() {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let plan = plan_on(&graph, SchedulerVariant::Full, 1 << 40);
        assert_eq!(plan.eviction_count(), 0);
        assert_eq!(plan.prefetch_count(), 0);
        assert_eq!(plan.instructions().count(), 0);
        // The instrumented program still allocates and frees the
        // intermediates.
        let program = Program::new(&graph, &plan);
        let kernels = (0..plan.len()).map(|k| KernelId::new(k as u32));
        let lines: usize = kernels
            .map(|k| program.before(k).count() + program.after(k).count())
            .sum();
        assert_eq!(
            lines,
            2 * graph.tensors().iter().filter(|t| !t.is_global()).count()
        );
    }

    #[test]
    fn gds_variant_never_plans_host_evictions() {
        let plan = plan_for(SchedulerVariant::Gds, 64 << 20);
        assert!(plan.eviction_count() > 0);
        assert_eq!(plan.planned_host_evict_bytes(), 0);
    }

    #[test]
    fn planned_pressure_shrinks_when_memory_is_scarce() {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let analysis = VitalityAnalysis::analyze(&graph, &trace);
        let config = SystemConfig::table2().with_gpu_memory(64 << 20);
        let plan = G10Scheduler::new(config, SchedulerVariant::Full)
            .plan_with_analysis(&graph, &trace, &analysis);
        assert!(plan.planned_peak_pressure() < analysis.peak_live_bytes());
        assert_eq!(plan.planned_ideal_time(), trace.total_duration());
    }

    #[test]
    fn variant_flags() {
        assert!(SchedulerVariant::Full.extended_uvm());
        assert!(!SchedulerVariant::Host.extended_uvm());
        assert!(!SchedulerVariant::Gds.allows_host());
    }
}
