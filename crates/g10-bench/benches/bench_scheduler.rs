//! Criterion bench: the smart tensor migration scheduler (vitality analysis,
//! Algorithm 1 + prefetch scheduling) on every Figure-11 workload.
//!
//! The planning happens once per model at compile time in the real system;
//! this bench shows it stays in the sub-second range even for the largest
//! (SENet-154) graph.  `G10Scheduler::plan` memoises the selected eviction
//! order, so timing it in a loop would time memo hits after the first
//! iteration; the bench runs the same stages through the un-memoised
//! `schedule_evictions_with` instead.
//!
//! `g10_scheduler_assign` times exactly those memo hits: it warms
//! `schedule_evictions` once per model, then times repeat calls, which skip
//! selection and run only the assign step (destination choice and the
//! channel-ledger reservations).
//!
//! `g10_plan_memo_hit` times what a G10 cell costs once selection is
//! memoised: `G10Scheduler::plan_with_analysis` (assign, prefetch and plan
//! assembly) plus `G10Policy::new` over the plan, per paper model.

use criterion::{criterion_group, criterion_main, Criterion};
use g10_core::bandwidth::BandwidthTimeline;
use g10_core::config::SystemConfig;
use g10_core::eviction::{schedule_evictions, schedule_evictions_with, EvictionOptions};
use g10_core::prefetch::schedule_prefetches;
use g10_core::pressure::MemoryTimeline;
use g10_core::scheduler::{G10Scheduler, SchedulerVariant};
use g10_core::vitality::VitalityAnalysis;
use g10_dnn::models::ModelKind;
use g10_sim::policies::G10Policy;
use g10_sim::Workload;

fn bench_scheduler(c: &mut Criterion) {
    let config = SystemConfig::table2();
    let mut group = c.benchmark_group("g10_scheduler_plan");
    group.sample_size(10);
    for model in ModelKind::PAPER_MODELS {
        let workload = Workload::new(model, model.eval_batch());
        group.bench_function(model.name(), |b| {
            b.iter(|| {
                let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
                let mut schedule = schedule_evictions_with::<MemoryTimeline, BandwidthTimeline>(
                    &analysis,
                    &workload.trace,
                    &config,
                    EvictionOptions::both(),
                );
                schedule_prefetches(
                    &analysis,
                    &workload.trace,
                    &config,
                    &schedule.decisions,
                    &mut schedule.pressure,
                )
            })
        });
    }
    group.finish();
}

fn bench_assign(c: &mut Criterion) {
    let config = SystemConfig::table2();
    let mut group = c.benchmark_group("g10_scheduler_assign");
    group.sample_size(20);
    for model in ModelKind::PAPER_MODELS {
        let workload = Workload::new(model, model.eval_batch());
        let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
        let plan =
            || schedule_evictions(&analysis, &workload.trace, &config, EvictionOptions::both());
        // The first call selects and memoises the eviction order.
        plan();
        group.bench_function(model.name(), |b| b.iter(plan));
    }
    group.finish();
}

fn bench_plan_memo_hit(c: &mut Criterion) {
    let config = SystemConfig::table2();
    let variant = SchedulerVariant::Full;
    let mut group = c.benchmark_group("g10_plan_memo_hit");
    group.sample_size(20);
    for model in ModelKind::PAPER_MODELS {
        let workload = Workload::new(model, model.eval_batch());
        let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
        let cell = || {
            let plan = G10Scheduler::new(config, variant).plan_with_analysis(
                &workload.graph,
                &workload.trace,
                &analysis,
            );
            G10Policy::new(plan, variant)
        };
        // The first call selects and memoises the eviction order.
        cell();
        group.bench_function(model.name(), |b| b.iter(cell));
    }
    group.finish();
}

criterion_group!(benches, bench_scheduler, bench_assign, bench_plan_memo_hit);
criterion_main!(benches);
