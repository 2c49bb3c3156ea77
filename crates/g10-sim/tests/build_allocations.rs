//! Building a workload stays allocation-lean.
//!
//! A counting global allocator tallies heap allocation calls (reallocs
//! included) made on the calling thread while the counter is armed, so
//! tests running in parallel on other threads do not disturb the count.
//! `Workload::new` on each paper model at its evaluation batch must make
//! fewer allocation calls than the graph has kernels: names and operands
//! live in per-graph arenas, so no kernel or tensor pays for its own.

use g10_dnn::models::ModelKind;
use g10_sim::Workload;
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
