//! Criterion bench: replay-engine cost at scale — the synthetic deep GPT
//! stress workload (`g10_dnn::models::stress`) replayed under the four
//! non-planning designs on a GPU sized to half the workload's peak live
//! bytes.  Base UVM and DeepUM+ ask the engine's incremental victim index
//! for an LRU victim on nearly every step, FlashNeuron asks for the largest
//! victim (so its lazily built size order is timed), and Ideal never asks
//! (so only the index upkeep per kernel is timed).  A second group
//! keeps the Figure-11 end-to-end G10 replays (plan + replay per paper
//! model) visible.  Set `G10_BENCH_SMOKE=1` to run a reduced size (used by
//! the scheduled CI job).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use g10_core::config::SystemConfig;
use g10_core::vitality::VitalityAnalysis;
use g10_dnn::models::stress::StressGptConfig;
use g10_dnn::models::ModelKind;
use g10_sim::{parallel_map, Experiment, PolicyKind, Workload};

struct StressCase {
    label: String,
    workload: Workload,
    config: SystemConfig,
}

fn stress_case(target_kernels: usize) -> StressCase {
    // Batch 2: small activations, so the constrained GPU holds many
    // resident tensors to choose victims from.
    let workload = Workload::stress(2, &StressGptConfig::with_target_kernels(target_kernels));
    let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
    // Half the peak live bytes: deep oversubscription, so the replay faults
    // and evicts continuously at every size.
    let config = SystemConfig::table2().with_gpu_memory(analysis.peak_live_bytes() / 2);
    StressCase {
        label: format!("{}_kernels", workload.graph.num_kernels()),
        workload,
        config,
    }
}

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Ideal,
    PolicyKind::BaseUvm,
    PolicyKind::DeepUmPlus,
    PolicyKind::FlashNeuron,
];

fn bench_replay(c: &mut Criterion) {
    let smoke = std::env::var("G10_BENCH_SMOKE").is_ok();
    let sizes: &[usize] = if smoke { &[1_000] } else { &[2_000, 10_000] };
    let cases = parallel_map(sizes.to_vec(), |target| stress_case(*target));

    let mut group = c.benchmark_group("replay_stress");
    group.sample_size(if smoke { 3 } else { 5 });
    for case in &cases {
        for policy in POLICIES {
            let experiment = Experiment::new(&case.workload)
                .policy(policy)
                .config(case.config);
            group.bench_function(format!("{}/{}", case.label, policy), |b| {
                b.iter(|| black_box(experiment.run().expect("built-in policies resolve")))
            });
        }
    }
    group.finish();

    // The Figure-11 end-to-end G10 replays (plan + replay), one per paper
    // model.
    if !smoke {
        let config = SystemConfig::table2();
        let mut group = c.benchmark_group("fig11_replay_g10");
        group.sample_size(10);
        for model in ModelKind::PAPER_MODELS {
            let workload = Workload::new(model, model.eval_batch());
            let experiment = Experiment::new(&workload).config(config);
            group.bench_function(model.name(), |b| {
                b.iter(|| experiment.run().expect("built-in policies resolve"))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
