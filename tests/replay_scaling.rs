//! Replay-engine test at mid scale on the synthetic deep-GPT stress
//! workload.
//!
//! Replays the eviction-heavy designs on a 700-kernel stress case with a
//! GPU of half the peak live bytes, through the engine's one victim
//! selection path (the incremental `VictimIndex`).  In debug builds — the
//! tier-1 test profile — the engine's `debug_assert_eq!` cross-checks every
//! LRU and largest-victim selection against the linear scans in
//! `g10_sim::naive`, so this test exercises the index against its oracle
//! across thousands of real selections; `crates/g10-sim/tests/victim_props.rs`
//! pins the same equivalence on randomized touch/evict sequences.

use g10::core::config::SystemConfig;
use g10::core::vitality::VitalityAnalysis;
use g10::dnn::models::stress::StressGptConfig;
use g10::sim::{Experiment, PolicyKind, Workload};

#[test]
fn naive_and_indexed_replays_agree_at_mid_scale() {
    // Batch 2 keeps individual activations small, so the constrained GPU
    // holds many resident tensors to choose victims from.
    let workload = Workload::stress(2, &StressGptConfig::with_target_kernels(700));
    // Half the peak live bytes: deep oversubscription, so the replay faults
    // and evicts continuously.
    let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
    let config = SystemConfig::table2().with_gpu_memory(analysis.peak_live_bytes() / 2);
    for policy in [
        PolicyKind::BaseUvm,
        PolicyKind::DeepUmPlus,
        PolicyKind::FlashNeuron,
        PolicyKind::G10Full,
    ] {
        let report = Experiment::new(&workload)
            .policy(policy)
            .config(config)
            .run()
            .expect("built-in policies resolve");
        assert!(
            report.evictions_issued > 0,
            "{policy}: stress case must force evictions"
        );
    }
}
