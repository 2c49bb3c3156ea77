//! Criterion bench: migration-planner scaling — naive flat-`Vec` timelines
//! vs the indexed (segment-tree + skip-pointer) timelines, on the synthetic
//! deep GPT stress workload (`g10_dnn::models::stress`).
//!
//! The planning pipeline (eviction scheduling + eager prefetch rescheduling)
//! is run end-to-end on both timeline families over identical vitality
//! analyses, so the printed means are directly comparable; the `speedup`
//! lines summarise the ratio.  It goes through `schedule_evictions_with`,
//! which bypasses the eviction-order memo, so every iteration plans from
//! scratch.  Set `G10_BENCH_SMOKE=1` to run a reduced
//! size (used by the scheduled CI job to keep planner wall-time visible
//! without paying for the full 10k-kernel naive baseline).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use g10_core::bandwidth::BandwidthTimeline;
use g10_core::config::SystemConfig;
use g10_core::eviction::{schedule_evictions_with, EvictionOptions};
use g10_core::naive::{NaiveBandwidthTimeline, NaiveMemoryTimeline};
use g10_core::prefetch::schedule_prefetches_with;
use g10_core::pressure::{MemoryTimeline, PressureTimeline};
use g10_core::vitality::VitalityAnalysis;
use g10_dnn::cost::GpuCostModel;
use g10_dnn::models::stress::{build, StressGptConfig};
use g10_dnn::trace::KernelTrace;
use g10_sim::parallel_map;
use std::time::Instant;

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

fn plan<P, B>(case: &StressCase) -> usize
where
    P: PressureTimeline,
    B: g10_core::bandwidth::BandwidthReservation,
{
    let mut schedule = schedule_evictions_with::<P, B>(
        &case.analysis,
        &case.trace,
        &case.config,
        EvictionOptions::both(),
    );
    let prefetches = schedule_prefetches_with(
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

    let mut group = c.benchmark_group("planner_indexed");
    group.sample_size(if smoke { 3 } else { 5 });
    for case in &cases {
        group.bench_function(case.label.clone(), |b| {
            b.iter(|| black_box(plan::<MemoryTimeline, BandwidthTimeline>(case)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("planner_naive");
    group.sample_size(if smoke { 3 } else { 2 });
    for case in &cases {
        group.bench_function(case.label.clone(), |b| {
            b.iter(|| black_box(plan::<NaiveMemoryTimeline, NaiveBandwidthTimeline>(case)))
        });
    }
    group.finish();

    // One timed head-to-head run per size so the ratio is printed directly.
    for case in &cases {
        let start = Instant::now();
        let indexed = plan::<MemoryTimeline, BandwidthTimeline>(case);
        let indexed_time = start.elapsed();
        let start = Instant::now();
        let naive = plan::<NaiveMemoryTimeline, NaiveBandwidthTimeline>(case);
        let naive_time = start.elapsed();
        assert_eq!(indexed, naive, "naive and indexed planners diverged");
        println!(
            "bench planner_speedup/{}: naive {:>10.3} ms, indexed {:>9.3} ms, speedup {:>6.1}x \
             ({} decisions)",
            case.label,
            naive_time.as_secs_f64() * 1e3,
            indexed_time.as_secs_f64() * 1e3,
            naive_time.as_secs_f64() / indexed_time.as_secs_f64().max(1e-12),
            indexed / 2,
        );
    }
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
