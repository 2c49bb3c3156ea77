//! Criterion bench: migration-planner cost at scale — eviction scheduling
//! plus eager prefetch rescheduling on the indexed (range-max tree pressure,
//! run-length bandwidth) timelines, over the synthetic deep GPT stress
//! workload (`g10_dnn::models::stress`).  It goes through
//! `schedule_evictions_with`, which bypasses the eviction-order memo, so
//! every iteration plans from scratch.  Set `G10_BENCH_SMOKE=1` to run a
//! reduced size (used by the scheduled CI job).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use g10_core::bandwidth::BandwidthTimeline;
use g10_core::config::SystemConfig;
use g10_core::eviction::{schedule_evictions_with, EvictionOptions};
use g10_core::prefetch::schedule_prefetches;
use g10_core::pressure::MemoryTimeline;
use g10_core::vitality::VitalityAnalysis;
use g10_dnn::cost::GpuCostModel;
use g10_dnn::models::stress::{build, StressGptConfig};
use g10_dnn::trace::KernelTrace;
use g10_sim::parallel_map;

struct StressCase {
    label: String,
    trace: KernelTrace,
    analysis: VitalityAnalysis,
    config: SystemConfig,
}

fn stress_case(target_kernels: usize) -> StressCase {
    let cfg = StressGptConfig::with_target_kernels(target_kernels);
    let graph = build(8, &cfg);
    let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
    let analysis = VitalityAnalysis::analyze(&graph, &trace);
    // Half the peak pressure: deep oversubscription, so the planner has a
    // full eviction + prefetch workload at every size.
    let config = SystemConfig::table2().with_gpu_memory(analysis.peak_live_bytes() / 2);
    StressCase {
        label: format!("{}_kernels", graph.num_kernels()),
        trace,
        analysis,
        config,
    }
}

fn plan(case: &StressCase) -> usize {
    let mut schedule = schedule_evictions_with::<MemoryTimeline, BandwidthTimeline>(
        &case.analysis,
        &case.trace,
        &case.config,
        EvictionOptions::both(),
    );
    let prefetches = schedule_prefetches(
        &case.analysis,
        &case.trace,
        &case.config,
        &schedule.decisions,
        &mut schedule.pressure,
    );
    schedule.decisions.len() + prefetches.len()
}

fn bench_planner(c: &mut Criterion) {
    let smoke = std::env::var("G10_BENCH_SMOKE").is_ok();
    let sizes: &[usize] = if smoke { &[1_000] } else { &[2_000, 10_000] };
    let cases = parallel_map(sizes.to_vec(), |target| stress_case(*target));

    let mut group = c.benchmark_group("planner");
    group.sample_size(if smoke { 3 } else { 5 });
    for case in &cases {
        group.bench_function(case.label.clone(), |b| b.iter(|| black_box(plan(case))));
    }
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
