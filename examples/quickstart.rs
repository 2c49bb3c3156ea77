//! Quickstart: plan and replay one training iteration with G10.
//!
//! Builds a small CNN, runs the tensor vitality analyzer and the smart
//! tensor migration scheduler against a deliberately small GPU, prints a
//! window of the instrumented program (the paper's Figure 9) and compares
//! the replayed performance of G10 against the Base UVM and Ideal baselines.
//!
//! Run with: `cargo run --release --example quickstart`

use g10::core::instrument::render_window;
use g10::core::scheduler::{G10Scheduler, SchedulerVariant};
use g10::core::vitality::VitalityAnalysis;
use g10::dnn::cost::GpuCostModel;
use g10::prelude::*;

fn main() -> Result<(), SimError> {
    // A small workload and a small GPU so migrations are actually needed.
    // The GPU roofline is slowed down (as the paper-calibrated workloads
    // are) so kernels are long enough to overlap migrations with.
    let cost_model = GpuCostModel::a100().slowed(32.0);
    let workload = Workload::with_cost_model(ModelKind::TinyCnn, 64, &cost_model);
    let config = SystemConfig::table2().with_gpu_memory(64 << 20);

    println!("workload: {}", workload.graph.summary());

    // 1. Tensor vitality analysis (§4.2).
    let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
    println!(
        "vitality: {} tensors, {} inactive periods, peak live footprint {:.1} MiB (GPU capacity {:.1} MiB)",
        workload.graph.num_tensors(),
        analysis.periods().len(),
        analysis.peak_live_bytes() as f64 / (1 << 20) as f64,
        config.gpu_memory_bytes as f64 / (1 << 20) as f64,
    );

    // 2. Smart tensor migration scheduling (§4.3-4.4).
    let scheduler = G10Scheduler::new(config, SchedulerVariant::Full);
    let plan = scheduler.plan_with_analysis(&workload.graph, &workload.trace, &analysis);
    println!(
        "plan: {} pre-evictions ({:.1} MiB to SSD, {:.1} MiB to host), {} prefetches, planned peak {:.1} MiB",
        plan.eviction_count(),
        plan.planned_ssd_evict_bytes() as f64 / (1 << 20) as f64,
        plan.planned_host_evict_bytes() as f64 / (1 << 20) as f64,
        plan.prefetch_count(),
        plan.planned_peak_pressure() as f64 / (1 << 20) as f64,
    );

    // 3. The instrumented program of Figure 9 (first few kernels).
    println!("\n--- instrumented program (first 6 kernels) ---");
    print!("{}", render_window(&workload.graph, &plan, 0, 6));

    // 4. Replay under three designs (one parallel session sweep).
    println!("\n--- replay ---");
    let reports = Experiment::new(&workload).config(config).policies([
        PolicyKind::Ideal,
        PolicyKind::BaseUvm,
        PolicyKind::G10Full,
    ])?;
    for report in reports {
        println!("{}", report.summary());
    }
    Ok(())
}
