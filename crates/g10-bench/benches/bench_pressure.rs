//! Criterion bench: the memory-pressure operations the eviction algorithm
//! performs in its inner loop (benefit scoring on selection's
//! above-capacity index, and pressure updates).

use criterion::{criterion_group, criterion_main, Criterion};
use g10_core::pressure::{AboveCapacity, MemoryTimeline};
use g10_time::Nanos;

fn bench_pressure(c: &mut Criterion) {
    let kernels = 2048usize;
    let durations = vec![Nanos::from_micros(500); kernels];
    let values: Vec<u64> = (0..kernels)
        .map(|k| ((k % 700) as u64 + 1) * (1 << 20))
        .collect();
    let capacity = 256 << 20;

    let mut group = c.benchmark_group("pressure_timeline");
    group.bench_function("reduction_above_full_range", |b| {
        let index = AboveCapacity::new(&values, &durations, capacity);
        b.iter(|| index.reduction(&[(0, kernels)], 64 << 20))
    });
    group.bench_function("add_and_max", |b| {
        let mut timeline = MemoryTimeline::new(&values);
        b.iter(|| {
            timeline.add(&[(100, 1800)], -(32 << 20));
            let max = timeline.max_value();
            timeline.add(&[(100, 1800)], 32 << 20);
            max
        })
    });
    group.bench_function("fits_extra", |b| {
        let timeline = MemoryTimeline::new(&values);
        b.iter(|| timeline.fits_extra(&[(256, 1024)], 16 << 20, capacity))
    });
    group.finish();
}

criterion_group!(benches, bench_pressure);
criterion_main!(benches);
