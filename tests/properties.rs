//! Property-based tests spanning the workspace: random workloads and random
//! system configurations must always produce internally consistent analyses,
//! plans and replays.

use g10::core::config::SystemConfig;
use g10::core::eviction::{schedule_evictions, EvictionOptions};
use g10::core::pressure::MemoryTimeline;
use g10::core::scheduler::{G10Scheduler, SchedulerVariant};
use g10::core::vitality::VitalityAnalysis;
use g10::dnn::builder::GraphBuilder;
use g10::dnn::cost::GpuCostModel;
use g10::dnn::graph::DnnGraph;
use g10::dnn::trace::KernelTrace;
use g10::sim::{Experiment, PolicyKind, Workload};
use g10::time::Nanos;
use proptest::prelude::*;

/// Builds a random small residual CNN: a strategy over (batch, channel
/// widths, strides).
fn random_cnn() -> impl Strategy<Value = DnnGraph> {
    (
        1u64..=8,
        proptest::collection::vec((8u64..=32, 1u64..=2), 1..4),
    )
        .prop_map(|(batch, blocks)| {
            let mut b = GraphBuilder::new("prop-cnn", batch);
            let x = b.input_image(3, 32, 32);
            let mut cur = b.conv2d("stem", &x, 8, 3, 1, 1);
            for (i, (channels, stride)) in blocks.into_iter().enumerate() {
                let c = b.conv2d(&format!("b{i}.conv"), &cur, channels, 3, stride, 1);
                let n = b.batch_norm(&format!("b{i}.bn"), &c);
                cur = b.relu(&format!("b{i}.relu"), &n);
            }
            let p = b.global_avg_pool("pool", &cur);
            let y = b.linear("fc", &p, 10);
            b.finish(&y)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_graphs_validate_and_analyze(graph in random_cnn()) {
        prop_assert!(graph.validate().is_ok());
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let analysis = VitalityAnalysis::analyze(&graph, &trace);
        // Live bytes never exceed the total footprint and the peak covers
        // at least the global tensors.
        let total = graph.total_tensor_bytes();
        prop_assert!(analysis.live_bytes().iter().all(|b| *b <= total));
        prop_assert!(analysis.peak_live_bytes() >= graph.index().global_tensor_bytes());
        // Every inactive period ends strictly after it starts and belongs to
        // a real tensor.
        for p in analysis.periods() {
            prop_assert!(p.length() > Nanos::ZERO);
            prop_assert!(p.tensor.index() < graph.num_tensors());
        }
    }

    #[test]
    fn eviction_scheduling_never_increases_pressure(
        graph in random_cnn(),
        gpu_mib in 4u64..64,
    ) {
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let analysis = VitalityAnalysis::analyze(&graph, &trace);
        let config = SystemConfig::table2().with_gpu_memory(gpu_mib << 20);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        prop_assert!(schedule.planned_peak_pressure() <= analysis.peak_live_bytes());
        // Host occupancy never exceeds the configured host capacity.
        prop_assert!(schedule.host_occupancy.max_value() <= config.host_memory_bytes);
        // No period is used twice.
        let mut seen = std::collections::HashSet::new();
        for d in &schedule.decisions {
            prop_assert!(seen.insert(d.period));
        }
    }

    #[test]
    fn plans_pair_evictions_with_prefetches(graph in random_cnn(), gpu_mib in 4u64..64) {
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let config = SystemConfig::table2().with_gpu_memory(gpu_mib << 20);
        let plan = G10Scheduler::new(config, SchedulerVariant::Full).plan(&graph, &trace);
        prop_assert_eq!(plan.eviction_count(), plan.prefetch_count());
    }

    #[test]
    fn replay_is_never_faster_than_ideal(
        graph_batch in 2u64..8,
        gpu_mib in 8u64..128,
        policy_idx in 0usize..4,
    ) {
        let policies = [
            PolicyKind::BaseUvm,
            PolicyKind::DeepUmPlus,
            PolicyKind::FlashNeuron,
            PolicyKind::G10Full,
        ];
        let workload = Workload::new(g10::dnn::models::ModelKind::TinyCnn, graph_batch * 8);
        let config = SystemConfig::table2().with_gpu_memory(gpu_mib << 20);
        let report = Experiment::new(&workload)
            .policy(policies[policy_idx])
            .config(config)
            .run()
            .expect("built-in policies resolve");
        prop_assert!(report.total_time >= report.ideal_time);
        prop_assert!(report.kernel_slowdowns.iter().all(|s| s >= 1.0 - 1e-9));
        prop_assert!(report.normalized_performance() <= 1.0 + 1e-9);
    }

    #[test]
    fn memory_timeline_add_is_reversible(
        values in proptest::collection::vec(0u64..1_000_000, 4..64),
        lo in 0usize..32,
        len in 1usize..32,
        delta in 1i64..1_000_000,
    ) {
        let mut timeline = MemoryTimeline::new(&values);
        let before = timeline.values();
        let hi = (lo + len).min(values.len());
        let lo = lo.min(values.len());
        timeline.add(&[(lo, hi)], delta);
        timeline.add(&[(lo, hi)], -delta);
        prop_assert_eq!(timeline.values(), before);
    }

}
