//! Rendering of the instrumented GPU program (Figure 9 of the paper).
//!
//! The deep-learning compiler inserts `g10_alloc` / `g10_free` /
//! `g10_pre_evict` / `g10_prefetch` calls around the kernel launches.  This
//! module renders the migration plan plus the dataflow graph into that
//! pseudo-CUDA form — useful for debugging schedules and for documentation,
//! and exercised by the `quickstart` example.

use crate::config::Destination;
use crate::plan::{Instruction, MigrationPlan};
use g10_dnn::graph::{DnnGraph, KernelId};
use std::fmt::Write as _;

/// Renders the instrumented program for kernels `[start, end)` only, which
/// keeps the output readable for large models.
pub fn render_window(graph: &DnnGraph, plan: &MigrationPlan, start: usize, end: usize) -> String {
    let mut out = String::new();
    let end = end.min(graph.num_kernels());
    let _ = writeln!(out, "// {} — instrumented by G10", graph.summary());
    for k in start..end {
        let kernel_id = KernelId::new(k as u32);
        let kernel = graph.kernel(kernel_id);
        let at = plan.at(kernel_id);
        for instr in &at.before {
            let _ = writeln!(out, "  {}", render_instruction(instr));
        }
        let args: Vec<String> = kernel
            .inputs()
            .iter()
            .chain(kernel.outputs().iter())
            .map(|t| format!("tensor{}", t.index()))
            .collect();
        let _ = writeln!(
            out,
            "  // Kernel {k} [{}] {}",
            kernel.class(),
            kernel.name()
        );
        let _ = writeln!(out, "  {}({});", sanitize(kernel.name()), args.join(", "));
        for instr in &at.after {
            let _ = writeln!(out, "  {}", render_instruction(instr));
        }
    }
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
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
    use crate::scheduler::{G10Scheduler, SchedulerVariant};
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
            sanitize("layer3.12.conv2.forward"),
            "layer3_12_conv2_forward"
        );
    }
}
