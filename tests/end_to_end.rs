//! Cross-crate integration tests: workload → vitality analysis → migration
//! plan → replay, checking the invariants that tie the crates together.

use g10::core::plan::Instruction;
use g10::core::scheduler::{G10Scheduler, SchedulerVariant};
use g10::core::vitality::VitalityAnalysis;
use g10::prelude::*;
use g10::time::Nanos;

fn constrained_config() -> SystemConfig {
    SystemConfig::table2().with_gpu_memory(64 << 20)
}

fn run_policy(workload: &Workload, policy: PolicyKind, config: &SystemConfig) -> SimReport {
    Experiment::new(workload)
        .policy(policy)
        .config(*config)
        .run()
        .expect("built-in policies resolve")
}

#[test]
fn plan_prefetches_every_evicted_tensor_before_its_next_use() {
    let workload = Workload::new(ModelKind::TinyCnn, 64);
    let config = constrained_config();
    let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
    let plan = G10Scheduler::new(config, SchedulerVariant::Full).plan_with_analysis(
        &workload.graph,
        &workload.trace,
        &analysis,
    );
    assert!(
        plan.eviction_count() > 0,
        "the constrained GPU must force evictions"
    );
    assert_eq!(plan.eviction_count(), plan.prefetch_count());

    // For every pre-eviction of a tensor after kernel E, there must be a
    // matching prefetch of that tensor attached to a kernel after E (or an
    // initial placement for wrap-around periods).
    for kernel_idx in 0..plan.len() {
        let kernel = g10::dnn::graph::KernelId::new(kernel_idx as u32);
        for instruction in plan.after(kernel) {
            if let Instruction::PreEvict { tensor, .. } = instruction {
                let wrap = plan
                    .initial_placements()
                    .iter()
                    .any(|p| p.tensor == *tensor);
                let prefetched_later = (kernel_idx..plan.len()).any(|k| {
                    plan.before(g10::dnn::graph::KernelId::new(k as u32))
                        .iter()
                        .any(
                            |i| matches!(i, Instruction::Prefetch { tensor: t, .. } if t == tensor),
                        )
                });
                let prefetched_anywhere = (0..plan.len()).any(|k| {
                    plan.before(g10::dnn::graph::KernelId::new(k as u32))
                        .iter()
                        .any(
                            |i| matches!(i, Instruction::Prefetch { tensor: t, .. } if t == tensor),
                        )
                });
                assert!(
                    prefetched_later || (wrap && prefetched_anywhere),
                    "evicted tensor {tensor} is never prefetched back"
                );
            }
        }
    }
}

#[test]
fn g10_outperforms_heuristic_baselines_under_memory_pressure() {
    // Slow the GPU down (as the paper-calibrated workloads do) so that there
    // is compute to overlap migrations with; at native A100 speed the tiny
    // workload is purely bandwidth-bound for every design.
    let cost_model = g10::dnn::cost::GpuCostModel::a100().slowed(8.0);
    let workload = Workload::with_cost_model(ModelKind::TinyCnn, 64, &cost_model);
    let config = constrained_config();
    let ideal = run_policy(&workload, PolicyKind::Ideal, &config);
    let base = run_policy(&workload, PolicyKind::BaseUvm, &config);
    let g10 = run_policy(&workload, PolicyKind::G10Full, &config);

    assert_eq!(ideal.total_time, ideal.ideal_time);
    assert!(base.total_time > ideal.total_time);
    assert!(g10.total_time < base.total_time);
    assert!(g10.normalized_performance() > 1.2 * base.normalized_performance());
    assert!(g10.normalized_performance() > 0.5);
}

#[test]
fn every_policy_conserves_traffic_directionality() {
    let workload = Workload::new(ModelKind::TinyTransformer, 64);
    let config = constrained_config();
    for policy in [
        PolicyKind::BaseUvm,
        PolicyKind::DeepUmPlus,
        PolicyKind::FlashNeuron,
        PolicyKind::G10Gds,
        PolicyKind::G10Full,
    ] {
        let report = run_policy(&workload, policy, &config);
        // Nothing can be read back from the SSD or host that was never
        // written there (weights start on the GPU in these runs).
        assert!(
            report.traffic.ssd_to_gpu_bytes <= report.traffic.gpu_to_ssd_bytes,
            "{policy:?}: read more from SSD than was ever written"
        );
        assert!(
            report.traffic.host_to_gpu_bytes <= report.traffic.gpu_to_host_bytes,
            "{policy:?}: read more from host than was ever written"
        );
        // Total time is never below the ideal compute time.
        assert!(report.total_time >= report.ideal_time);
    }
}

#[test]
fn gds_variant_uses_no_host_memory_at_runtime() {
    let workload = Workload::new(ModelKind::TinyCnn, 64);
    let config = constrained_config();
    let report = run_policy(&workload, PolicyKind::G10Gds, &config);
    assert_eq!(report.traffic.host_total(), 0);
    assert!(report.traffic.ssd_total() > 0);
}

#[test]
fn profiling_noise_barely_affects_g10() {
    let workload = Workload::new(ModelKind::TinyCnn, 64);
    let config = constrained_config();
    let exact = run_policy(&workload, PolicyKind::G10Full, &config);
    let noisy_trace = workload.trace.with_noise(0.20, 7);
    let noisy = Experiment::new(&workload)
        .config(config)
        .planning_trace(&noisy_trace)
        .run()
        .expect("built-in policies resolve");
    let ratio = noisy.total_time.as_secs_f64() / exact.total_time.as_secs_f64();
    assert!(
        ratio < 1.15,
        "a 20% profiling error should not cost more than ~15% at this scale (got {ratio:.3})"
    );
}

#[test]
fn more_host_memory_never_hurts_g10() {
    let workload = Workload::new(ModelKind::TinyCnn, 64);
    let small_host = SystemConfig::table2()
        .with_gpu_memory(64 << 20)
        .with_host_memory(0);
    let big_host = SystemConfig::table2()
        .with_gpu_memory(64 << 20)
        .with_host_memory(8 << 30);
    let constrained = run_policy(&workload, PolicyKind::G10Full, &small_host);
    let comfortable = run_policy(&workload, PolicyKind::G10Full, &big_host);
    assert!(comfortable.total_time <= constrained.total_time.scale(1.02));
}

/// The tiny workloads the metamorphic tests sweep: both tiny models at
/// their default batch and at a batch that oversubscribes a small GPU.
fn tiny_workloads() -> Vec<Workload> {
    [ModelKind::TinyCnn, ModelKind::TinyTransformer]
        .into_iter()
        .flat_map(|model| [32, 64].map(|batch| Workload::new(model, batch)))
        .collect()
}

/// GPU capacities from far below a tiny working set to far above it.
const GPU_MIB: [u64; 9] = [4, 8, 16, 32, 48, 64, 128, 512, 4096];

#[test]
fn ideal_report_does_not_depend_on_gpu_capacity() {
    for workload in tiny_workloads() {
        let reference = run_policy(
            &workload,
            PolicyKind::Ideal,
            &SystemConfig::table2().with_gpu_memory(GPU_MIB[0] << 20),
        );
        assert_eq!(reference.total_time, reference.ideal_time);
        for gpu_mib in &GPU_MIB[1..] {
            let config = SystemConfig::table2().with_gpu_memory(gpu_mib << 20);
            let report = run_policy(&workload, PolicyKind::Ideal, &config);
            assert_eq!(
                report, reference,
                "{} batch {}: Ideal changed at {gpu_mib} MiB of GPU memory",
                workload.model, workload.batch
            );
        }
    }
}

#[test]
fn more_ssd_bandwidth_never_slows_flashneuron() {
    const SSD_GBPS: [f64; 7] = [0.5, 1.0, 2.0, 3.2, 6.4, 12.8, 25.6];
    let mut speedups = 0;
    for workload in tiny_workloads() {
        for gpu_mib in GPU_MIB {
            let mut slower: Option<(f64, Nanos)> = None;
            for gbps in SSD_GBPS {
                let config = SystemConfig::table2()
                    .with_gpu_memory(gpu_mib << 20)
                    .with_ssd_bandwidth(gbps * 1e9);
                let total = run_policy(&workload, PolicyKind::FlashNeuron, &config).total_time;
                if let Some((slow_gbps, slow_total)) = slower {
                    assert!(
                        total <= slow_total,
                        "{} batch {} at {gpu_mib} MiB: FlashNeuron took {total} at \
                         {gbps} GB/s but {slow_total} at {slow_gbps} GB/s",
                        workload.model,
                        workload.batch
                    );
                    speedups += usize::from(total < slow_total);
                }
                slower = Some((gbps, total));
            }
        }
    }
    // The sweep must reach capacities where FlashNeuron moves data at all.
    assert!(speedups > 0, "no GPU capacity made FlashNeuron SSD-bound");
}
