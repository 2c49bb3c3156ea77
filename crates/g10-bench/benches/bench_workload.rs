//! Criterion bench: building each paper model's workload at its evaluation
//! batch (`Workload::new`: the layer-level graph build, the shared
//! `GraphIndex` and the profiled kernel trace).  This is the graph-build
//! layer of the pipeline, and for a cell that does not plan it costs more
//! than the replay.  Set `G10_BENCH_SMOKE=1` for fewer iterations.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use g10_dnn::models::ModelKind;
use g10_sim::Workload;

fn bench_workload(c: &mut Criterion) {
    let smoke = std::env::var("G10_BENCH_SMOKE").is_ok();
    let mut group = c.benchmark_group("workload_build");
    group.sample_size(if smoke { 5 } else { 50 });
    for model in ModelKind::PAPER_MODELS {
        let batch = model.eval_batch();
        group.bench_function(format!("{}/b{batch}", model.name()), |b| {
            b.iter(|| black_box(Workload::new(model, batch)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_workload);
criterion_main!(benches);
