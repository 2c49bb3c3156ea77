//! Criterion bench: replay cost of every compared design (Ideal, Base UVM,
//! DeepUM+, FlashNeuron, G10 variants) on one representative workload
//! (BERT at its evaluation batch size), and of the three non-planning
//! baselines on SENet154 at its evaluation batch, where FlashNeuron's
//! largest-victim selection makes the slowest replays of the paper's
//! comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use g10_core::config::SystemConfig;
use g10_dnn::models::ModelKind;
use g10_sim::{Experiment, PolicyKind, Workload};

fn bench_group(c: &mut Criterion, name: &str, model: ModelKind, policies: &[PolicyKind]) {
    let config = SystemConfig::table2();
    let workload = Workload::new(model, model.eval_batch());
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    for &policy in policies {
        let experiment = Experiment::new(&workload).policy(policy).config(config);
        group.bench_function(policy.label(), |b| {
            b.iter(|| experiment.run().expect("built-in policies resolve"))
        });
    }
    group.finish();
}

fn bench_policies(c: &mut Criterion) {
    bench_group(c, "policy_replay_bert", ModelKind::Bert, &PolicyKind::ALL);
    let baselines = [
        PolicyKind::BaseUvm,
        PolicyKind::DeepUmPlus,
        PolicyKind::FlashNeuron,
    ];
    bench_group(c, "policy_replay_senet154", ModelKind::SENet154, &baselines);
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
