//! Building a workload and running a G10 cell stay allocation-lean.
//!
//! A counting global allocator tallies heap allocation calls (reallocs
//! included) made on the calling thread while the counter is armed, so
//! tests running in parallel on other threads do not disturb the count.
//! `Workload::new` on each paper model at its evaluation batch must make
//! fewer allocation calls than the graph has kernels: names and operands
//! live in per-graph arenas, so no kernel or tensor pays for its own.  A
//! G10 cell whose eviction order is already memoised (plan, policy build
//! and replay) must make fewer than a quarter as many calls as the graph
//! has kernels: the plan is one CSR table, not two lists per kernel.

use g10_core::config::SystemConfig;
use g10_core::scheduler::{G10Scheduler, SchedulerVariant};
use g10_core::vitality::VitalityAnalysis;
use g10_dnn::models::ModelKind;
use g10_sim::policies::G10Policy;
use g10_sim::{ReplayEngine, RuntimeOptions, SimReport, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note_call() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`.  Counting
// only reads and writes const-initialised thread-local `Cell`s, which never
// allocate, and `try_with` tolerates a thread whose locals are torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocation calls it made on
/// this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    CALLS.with(|calls| calls.set(0));
    ARMED.with(|armed| armed.set(true));
    let value = f();
    ARMED.with(|armed| armed.set(false));
    (value, CALLS.with(Cell::get))
}

#[test]
fn workload_build_makes_fewer_allocations_than_kernels() {
    for model in ModelKind::PAPER_MODELS {
        let batch = model.eval_batch();
        let (workload, calls) = counted(|| Workload::new(model, batch));
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
        let (hot, calls) = counted(|| g10_cell(&workload, &analysis, &config));
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
