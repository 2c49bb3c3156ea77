//! Planner agreement test on the synthetic deep-GPT stress workload: the
//! indexed timelines and the `g10_core::naive` reference pair must plan
//! decision-for-decision identically on a mid-size stress graph.  The
//! planner's current cost is measured by `bench_planner` and `perfbench/`.

use g10::core::bandwidth::{BandwidthReservation, BandwidthTimeline};
use g10::core::config::SystemConfig;
use g10::core::eviction::{schedule_evictions_with, EvictionDecision, EvictionOptions};
use g10::core::naive::{NaiveBandwidthTimeline, NaiveMemoryTimeline};
use g10::core::prefetch::{schedule_prefetches_with, PrefetchDecision};
use g10::core::pressure::{MemoryTimeline, PressureTimeline};
use g10::core::vitality::VitalityAnalysis;
use g10::dnn::cost::GpuCostModel;
use g10::dnn::models::stress::{build, StressGptConfig};
use g10::dnn::trace::KernelTrace;

struct Case {
    trace: KernelTrace,
    analysis: VitalityAnalysis,
    config: SystemConfig,
}

fn stress_case(target_kernels: usize) -> Case {
    let cfg = StressGptConfig::with_target_kernels(target_kernels);
    let graph = build(8, &cfg);
    let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
    let analysis = VitalityAnalysis::analyze(&graph, &trace);
    let config = SystemConfig::table2().with_gpu_memory(analysis.peak_live_bytes() / 2);
    Case {
        trace,
        analysis,
        config,
    }
}

fn plan<P: PressureTimeline, B: BandwidthReservation>(
    case: &Case,
) -> (Vec<EvictionDecision>, Vec<PrefetchDecision>) {
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
    (schedule.decisions, prefetches)
}

/// Exact plan identity between the timeline families.  Integer-valued
/// pressure queries, per-bin reservation arithmetic and the sequential
/// free-byte scans are bit-identical by construction, so a failure here
/// means a real behavioural divergence.  `schedule_evictions_with` is the
/// un-memoised entry, so every call here plans from scratch.
fn assert_identical_plans(case: &Case) -> usize {
    let (ev_indexed, pf_indexed) = plan::<MemoryTimeline, BandwidthTimeline>(case);
    let (ev_naive, pf_naive) = plan::<NaiveMemoryTimeline, NaiveBandwidthTimeline>(case);
    assert_eq!(ev_indexed, ev_naive, "eviction schedules diverged");
    assert_eq!(pf_indexed, pf_naive, "prefetch schedules diverged");
    assert!(!ev_indexed.is_empty(), "stress case must force evictions");
    ev_indexed.len()
}

#[test]
fn indexed_and_naive_planners_agree_at_mid_scale() {
    let case = stress_case(700);
    let decisions = assert_identical_plans(&case);
    assert!(decisions > 50, "only {decisions} decisions planned");
}
