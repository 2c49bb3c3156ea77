//! Equivalence of the memoised eviction scheduler with the un-memoised one.
//!
//! `schedule_evictions` reuses one selected eviction order across every
//! config that shares the graph, planning trace, GPU capacity and SSD/PCIe
//! costs, and only re-runs destination choice per config.  On the tiny
//! models, every variant × host capacity × GPU capacity (plus a slow SSD,
//! so host destinations are in play) must produce exactly the schedule
//! `schedule_evictions_with` plans from scratch.

use g10::core::bandwidth::BandwidthTimeline;
use g10::core::config::SystemConfig;
use g10::core::eviction::{schedule_evictions, schedule_evictions_with, EvictionOptions};
use g10::core::pressure::MemoryTimeline;
use g10::core::scheduler::SchedulerVariant;
use g10::core::vitality::VitalityAnalysis;
use g10::dnn::models::ModelKind;
use g10::sim::runner::Workload;

#[test]
fn memoised_schedules_match_planning_from_scratch() {
    let cases = [
        (ModelKind::TinyCnn, 64, [64u64 << 20, 48 << 20]),
        (ModelKind::TinyTransformer, 32, [4 << 20, 3 << 20]),
    ];
    let mut host_decisions = 0;
    for (model, batch, gpu_sizes) in cases {
        let workload = Workload::new(model, batch);
        let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
        for gpu_bytes in gpu_sizes {
            let table2 = SystemConfig::table2().with_gpu_memory(gpu_bytes);
            for base in [table2, table2.with_ssd_bandwidth(50e6)] {
                for host_bytes in [0, 1 << 20, table2.host_memory_bytes] {
                    let config = base.with_host_memory(host_bytes);
                    for variant in SchedulerVariant::ALL {
                        let options = EvictionOptions {
                            allow_ssd: true,
                            allow_host: variant.allows_host(),
                        };
                        let memoised =
                            schedule_evictions(&analysis, &workload.trace, &config, options);
                        let direct = schedule_evictions_with::<MemoryTimeline, BandwidthTimeline>(
                            &analysis,
                            &workload.trace,
                            &config,
                            options,
                        );
                        let cell = format!(
                            "{} gpu={gpu_bytes} host={host_bytes} {variant}",
                            model.name()
                        );
                        assert_eq!(memoised.decisions, direct.decisions, "{cell}: decisions");
                        assert_eq!(
                            memoised.pressure.values(),
                            direct.pressure.values(),
                            "{cell}"
                        );
                        assert_eq!(
                            memoised.host_occupancy.values(),
                            direct.host_occupancy.values(),
                            "{cell}"
                        );
                        assert_eq!(memoised.to_ssd, direct.to_ssd, "{cell}: SSD ledger");
                        assert_eq!(memoised.to_host, direct.to_host, "{cell}: host ledger");
                        host_decisions += memoised.host_bytes().min(1);
                    }
                }
            }
        }
    }
    assert!(host_decisions > 0, "no cell exercised host destinations");
}
