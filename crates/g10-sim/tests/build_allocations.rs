//! Building a workload and running a G10 cell stay allocation-lean.
//!
//! A counting global allocator tallies heap allocation calls (reallocs
//! included) and the net bytes left live, both made on the calling thread
//! while the counter is armed, so tests running in parallel on other
//! threads do not disturb the count.  `Workload::new` on each paper model
//! at its evaluation batch must make fewer allocation calls than the graph
//! has kernels: names and operands live in per-graph arenas, so no kernel
//! or tensor pays for its own.  It must also retain at most two thirds of
//! the bytes it did when every derived name was a copy of its layer name
//! and the tables kept growth slack: many workloads stay alive at once in
//! the grid, a replay sweep and a serving daemon.  A
//! G10 cell whose eviction order is already memoised (plan, policy build
//! and replay) must make fewer than a quarter as many calls as the graph
//! has kernels: the plan is one CSR table, not two lists per kernel.  A
//! replayed report's per-kernel slowdowns retain one bitmap bit per kernel
//! and one value per kernel that stalled, with no growth slack: the grid
//! and a serving daemon keep every report they produce.

use g10_core::config::SystemConfig;
use g10_core::scheduler::{G10Scheduler, SchedulerVariant};
use g10_core::vitality::VitalityAnalysis;
use g10_dnn::models::ModelKind;
use g10_sim::policies::G10Policy;
use g10_sim::{Experiment, PolicyKind, ReplayEngine, RuntimeOptions, SimReport, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation call that grows live bytes by `grown` (negative
/// for a shrink).
fn note_call(grown: i64) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
        note_live(grown);
    }
}

fn note_live(grown: i64) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = LIVE.try_with(|live| live.set(live.get() + grown));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`.  Counting
// only reads and writes const-initialised thread-local `Cell`s, which never
// allocate, and `try_with` tolerates a thread whose locals are torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_call(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocation calls it made on
/// this thread and the net bytes it left live there (what the result
/// retains, if `f` frees all its scratch).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    CALLS.with(|calls| calls.set(0));
    LIVE.with(|live| live.set(0));
    ARMED.with(|armed| armed.set(true));
    let value = f();
    ARMED.with(|armed| armed.set(false));
    (value, CALLS.with(Cell::get), LIVE.with(Cell::get))
}

#[test]
fn workload_build_makes_fewer_allocations_than_kernels() {
    for model in ModelKind::PAPER_MODELS {
        let batch = model.eval_batch();
        let (workload, calls, _) = counted(|| Workload::new(model, batch));
        let kernels = workload.graph.num_kernels() as u64;
        println!(
            "{model} b{batch}: {calls} allocation calls, {kernels} kernels, {} tensors",
            workload.graph.num_tensors()
        );
        assert!(
            calls < kernels,
            "{model} at batch {batch}: {calls} allocation calls for {kernels} kernels"
        );
    }
}

/// Bytes `Workload::new` retained per paper model at its evaluation batch
/// when each derived name copied its layer name and the graph's tables and
/// index kept growth slack.
const RETAINED_BEFORE: [(ModelKind, i64); 5] = [
    (ModelKind::Bert, 401_876),
    (ModelKind::Vit, 315_667),
    (ModelKind::InceptionV3, 282_407),
    (ModelKind::ResNet152, 468_817),
    (ModelKind::SENet154, 675_344),
];

#[test]
fn workload_build_retains_at_most_two_thirds_of_the_slack_footprint() {
    let models: Vec<ModelKind> = RETAINED_BEFORE.iter().map(|&(m, _)| m).collect();
    assert_eq!(
        models,
        ModelKind::PAPER_MODELS,
        "every paper model is pinned"
    );
    for (model, before) in RETAINED_BEFORE {
        let batch = model.eval_batch();
        let (workload, _, retained) = counted(|| Workload::new(model, batch));
        println!(
            "{model} b{batch}: retains {retained} B ({:.3} MiB), {before} B before",
            retained as f64 / f64::from(1 << 20)
        );
        assert!(
            3 * retained <= 2 * before,
            "{model} at batch {batch}: retains {retained} B, more than two thirds of {before} B"
        );
        drop(workload);
    }
}

/// Plans `workload` with the full G10 scheduler, builds its policy and
/// replays it.
fn g10_cell(workload: &Workload, analysis: &VitalityAnalysis, config: &SystemConfig) -> SimReport {
    let variant = SchedulerVariant::Full;
    let plan = G10Scheduler::new(*config, variant).plan_with_analysis(
        &workload.graph,
        &workload.trace,
        analysis,
    );
    let policy = Box::new(G10Policy::new(plan, variant));
    ReplayEngine::new(
        &workload.graph,
        &workload.trace,
        config,
        policy,
        RuntimeOptions::default(),
    )
    .try_run()
    .expect("G10 replays without a fault")
}

#[test]
fn memo_hit_g10_cell_makes_fewer_allocations_than_a_quarter_of_its_kernels() {
    let config = SystemConfig::table2();
    for model in ModelKind::PAPER_MODELS {
        let batch = model.eval_batch();
        let workload = Workload::new(model, batch);
        let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
        // The first run selects and memoises the eviction order.
        let cold = g10_cell(&workload, &analysis, &config);
        let (hot, calls, _) = counted(|| g10_cell(&workload, &analysis, &config));
        assert_eq!(hot.fingerprint(), cold.fingerprint());
        assert!(
            hot.evictions_issued > 0,
            "{model} must migrate at batch {batch}"
        );
        let kernels = workload.graph.num_kernels() as u64;
        println!("{model} b{batch}: memo-hit G10 cell {calls} allocation calls, {kernels} kernels");
        assert!(
            calls < kernels / 4,
            "{model} at batch {batch}: {calls} allocation calls for {kernels} kernels"
        );
    }
}

#[test]
fn replayed_slowdowns_retain_a_bitmap_and_the_stalled_values() {
    let config = SystemConfig::table2();
    for model in ModelKind::PAPER_MODELS {
        let batch = model.eval_batch();
        let workload = Workload::new(model, batch);
        for kind in [PolicyKind::Ideal, PolicyKind::BaseUvm, PolicyKind::G10Full] {
            let report = Experiment::new(&workload)
                .policy(kind)
                .config(config)
                .run()
                .expect("built-in policies replay without a fault");
            let slowdowns = report.kernel_slowdowns;
            let kernels = slowdowns.len();
            assert_eq!(kernels, workload.graph.num_kernels());
            let stalled = slowdowns
                .iter()
                .filter(|s| s.to_bits() != 1f64.to_bits())
                .count();
            if kind == PolicyKind::Ideal {
                assert_eq!(stalled, 0, "{model}: Ideal stalls no kernel");
            }
            // Dropping the slowdowns frees exactly what they retained.
            let ((), _, live) = counted(|| drop(slowdowns));
            let expected = 8 * kernels.div_ceil(64) + 8 * stalled;
            println!(
                "{model} b{batch} {kind:?}: {stalled} of {kernels} kernels stalled, {} B",
                -live
            );
            assert_eq!(
                -live, expected as i64,
                "{model} at batch {batch} under {kind:?}: {stalled} of {kernels} kernels stalled"
            );
        }
    }
}
