//! The instrumented GPU program (Figure 9 of the paper).
//!
//! The deep-learning compiler inserts `g10_alloc` / `g10_free` /
//! `g10_pre_evict` / `g10_prefetch` calls around the kernel launches.  A
//! [`MigrationPlan`] holds only the migrations; [`Program`] is the whole
//! instruction stream.  It derives a `g10_alloc` before the first use and
//! a `g10_free` after the last use of every intermediate (non-global)
//! tensor from the graph's `GraphIndex`, in tensor-id order, and puts
//! them ahead of the plan's instructions at each kernel.  That is the
//! stream the scheduler once stored in the plan itself, and
//! `tests/golden_plans.rs` fingerprints it.  [`render_window`] prints it
//! in pseudo-CUDA form: useful for debugging schedules and for
//! documentation, and exercised by the `quickstart` example.

use crate::config::Destination;
use crate::plan::{Instruction, KernelSlots, MigrationPlan};
use g10_dnn::graph::{DnnGraph, KernelId};
use std::fmt::Write as _;

/// A plan's instrumented program: per kernel, the `g10_alloc`s and then the
/// prefetches before its launch, and the `g10_free`s and then the
/// pre-evictions after it.
#[derive(Debug)]
pub struct Program<'a> {
    plan: &'a MigrationPlan,
    /// The `g10_alloc`s before and the `g10_free`s after each kernel.
    lifetimes: KernelSlots,
}

impl<'a> Program<'a> {
    /// The program that runs `plan` over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover exactly the graph's kernels.
    pub fn new(graph: &DnnGraph, plan: &'a MigrationPlan) -> Self {
        assert_eq!(
            plan.len(),
            graph.num_kernels(),
            "the plan must cover the graph's kernels"
        );
        let index = graph.index();
        let intermediates = graph.tensors().iter().filter(|t| !t.is_global());
        let lifetimes = intermediates
            .filter_map(|t| Some((t, index.first_use(t.id())?, index.last_use(t.id())?)));
        let allocs = lifetimes.clone().map(|(t, first_use, _)| {
            let alloc = Instruction::Alloc {
                tensor: t.id(),
                bytes: t.bytes(),
            };
            (first_use, alloc)
        });
        let frees =
            lifetimes.map(|(t, _, last_use)| (last_use, Instruction::Free { tensor: t.id() }));
        Program {
            plan,
            lifetimes: KernelSlots::new(graph.num_kernels(), allocs, frees),
        }
    }

    /// The instructions issued before the given kernel launches.
    ///
    /// # Panics
    ///
    /// Panics if the kernel id is out of range.
    pub fn before(&self, kernel: KernelId) -> impl Iterator<Item = &Instruction> + '_ {
        let allocs = self.lifetimes.before(kernel);
        allocs.iter().chain(self.plan.before(kernel))
    }

    /// The instructions issued after the given kernel completes.
    ///
    /// # Panics
    ///
    /// Panics if the kernel id is out of range.
    pub fn after(&self, kernel: KernelId) -> impl Iterator<Item = &Instruction> + '_ {
        let frees = self.lifetimes.after(kernel);
        frees.iter().chain(self.plan.after(kernel))
    }
}

/// Renders the instrumented program for kernels `[start, end)` only, which
/// keeps the output readable for large models.
///
/// # Panics
///
/// Panics if the plan does not cover exactly the graph's kernels.
pub fn render_window(graph: &DnnGraph, plan: &MigrationPlan, start: usize, end: usize) -> String {
    let program = Program::new(graph, plan);
    let mut out = String::new();
    let end = end.min(graph.num_kernels());
    let _ = writeln!(out, "// {} — instrumented by G10", graph.summary());
    for k in start..end {
        let kernel_id = KernelId::new(k as u32);
        let kernel = graph.kernel(kernel_id);
        let name = graph.kernel_name(kernel_id);
        for instr in program.before(kernel_id) {
            let _ = writeln!(out, "  {}", render_instruction(instr));
        }
        let args: Vec<String> = graph
            .operands(kernel_id)
            .iter()
            .map(|t| format!("tensor{}", t.index()))
            .collect();
        let _ = writeln!(out, "  // Kernel {k} [{}] {name}", kernel.class());
        let _ = writeln!(out, "  {}({});", sanitize(name.chars()), args.join(", "));
        for instr in program.after(kernel_id) {
            let _ = writeln!(out, "  {}", render_instruction(instr));
        }
    }
    out
}

fn sanitize(name: impl Iterator<Item = char>) -> String {
    name.map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn render_instruction(instruction: &Instruction) -> String {
    match *instruction {
        Instruction::Alloc { tensor, bytes } => {
            format!("g10_alloc(&tensor{}, {bytes});", tensor.index())
        }
        Instruction::Free { tensor } => format!("g10_free(tensor{});", tensor.index()),
        Instruction::PreEvict {
            tensor,
            bytes,
            destination,
        } => format!(
            "g10_pre_evict(tensor{}, {bytes}, {});",
            tensor.index(),
            match destination {
                Destination::Ssd => "SSD",
                Destination::Host => "HOST",
            }
        ),
        Instruction::Prefetch { tensor, bytes, .. } => {
            format!("g10_prefetch(tensor{}, {bytes});", tensor.index())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::eviction::{schedule_evictions, EvictionOptions};
    use crate::prefetch::schedule_prefetches;
    use crate::scheduler::{G10Scheduler, SchedulerVariant};
    use crate::vitality::VitalityAnalysis;
    use g10_dnn::cost::GpuCostModel;
    use g10_dnn::models::{build_model, ModelKind};
    use g10_dnn::trace::KernelTrace;

    #[test]
    fn rendered_program_contains_every_api_call_kind() {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let config = SystemConfig::table2().with_gpu_memory(64 << 20);
        let plan = G10Scheduler::new(config, SchedulerVariant::Full).plan(&graph, &trace);
        let program = render_window(&graph, &plan, 0, graph.num_kernels());
        assert!(program.contains("g10_alloc("));
        assert!(program.contains("g10_free("));
        assert!(program.contains("g10_pre_evict("));
        assert!(program.contains("g10_prefetch("));
        assert!(program.contains("// Kernel 0"));
        // One launch line per kernel.
        let launches = program.matches("  // Kernel ").count();
        assert_eq!(launches, graph.num_kernels());
    }

    /// The per-kernel `before` / `after` streams as the scheduler once
    /// stored them in the plan: `g10_alloc` / `g10_free` for every
    /// intermediate at its first and last use in tensor-id order, then the
    /// pre-evictions in selection order and the prefetches in prefetch
    /// order, each pushed onto its kernel's list.
    fn stored_streams(
        graph: &DnnGraph,
        trace: &KernelTrace,
        config: &SystemConfig,
    ) -> Vec<(Vec<Instruction>, Vec<Instruction>)> {
        let analysis = VitalityAnalysis::analyze(graph, trace);
        let mut schedule = schedule_evictions(&analysis, trace, config, EvictionOptions::both());
        let prefetches = schedule_prefetches(
            &analysis,
            trace,
            config,
            &schedule.decisions,
            &mut schedule.pressure,
        );
        let mut kernels = vec![(Vec::new(), Vec::new()); graph.num_kernels()];
        let index = graph.index();
        for tensor in graph.tensors().iter().filter(|t| !t.is_global()) {
            let id = tensor.id();
            let (Some(first_use), Some(last_use)) = (index.first_use(id), index.last_use(id))
            else {
                continue;
            };
            kernels[first_use.index()].0.push(Instruction::Alloc {
                tensor: id,
                bytes: tensor.bytes(),
            });
            kernels[last_use.index()]
                .1
                .push(Instruction::Free { tensor: id });
        }
        for d in &schedule.decisions {
            kernels[d.evict_kernel.index()]
                .1
                .push(Instruction::PreEvict {
                    tensor: d.tensor,
                    bytes: d.bytes,
                    destination: d.destination,
                });
        }
        for p in &prefetches {
            kernels[p.prefetch_kernel.index()]
                .0
                .push(Instruction::Prefetch {
                    tensor: p.tensor,
                    bytes: p.bytes,
                    source: p.source,
                });
        }
        kernels
    }

    #[test]
    fn program_matches_the_streams_the_plan_once_stored() {
        for (batch, gpu_bytes) in [(64, 64 << 20), (64, 32 << 20), (8, 1 << 40)] {
            let graph = build_model(ModelKind::TinyCnn, batch);
            let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
            let config = SystemConfig::table2().with_gpu_memory(gpu_bytes);
            let plan = G10Scheduler::new(config, SchedulerVariant::Full).plan(&graph, &trace);
            let program = Program::new(&graph, &plan);
            let expected = stored_streams(&graph, &trace, &config);
            assert_eq!(plan.len(), expected.len());
            for (k, (before, after)) in expected.iter().enumerate() {
                let kernel = KernelId::new(k as u32);
                assert_eq!(&program.before(kernel).copied().collect::<Vec<_>>(), before);
                assert_eq!(&program.after(kernel).copied().collect::<Vec<_>>(), after);
            }
            if gpu_bytes == 64 << 20 {
                assert!(
                    plan.eviction_count() > 0,
                    "the small GPU must force migrations"
                );
            }
        }
    }

    #[test]
    fn window_rendering_clips_to_the_requested_kernels() {
        let graph = build_model(ModelKind::TinyCnn, 8);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let plan =
            G10Scheduler::new(SystemConfig::table2(), SchedulerVariant::Full).plan(&graph, &trace);
        let window = render_window(&graph, &plan, 0, 5);
        assert_eq!(window.matches("  // Kernel ").count(), 5);
        // Out-of-range windows are clipped, not panicking.
        let clipped = render_window(&graph, &plan, 0, 10_000);
        assert_eq!(clipped.matches("  // Kernel ").count(), graph.num_kernels());
    }

    #[test]
    fn kernel_names_are_sanitised_into_identifiers() {
        assert_eq!(
            sanitize("layer3.12.conv2.forward".chars()),
            "layer3_12_conv2_forward"
        );
    }
}
