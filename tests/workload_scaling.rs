//! Workload analysis agreement test: the indexed pipeline (the graph's
//! shared `GraphIndex` feeding the Figure 2 curves, vitality and the
//! engines' working-set arenas) and a naive reference pipeline (each
//! consumer re-derives the tensor→use-site adjacency with the reference of
//! `crates/g10-dnn/tests/support/naive.rs` and deduplicates working sets
//! with per-kernel `HashSet`s, as the pre-index consumers did) must compute
//! *identical* analysis facts on a mid-size stress cell and on tiny paper
//! models.  Both sides fold their facts into one FNV-1a fingerprint.

// The reference derivations, shared with `g10-dnn`'s own property tests.
#[allow(dead_code)]
#[path = "../crates/g10-dnn/tests/support/naive.rs"]
mod naive;

use g10::core::config::SystemConfig;
use g10::core::vitality::VitalityAnalysis;
use g10::dnn::graph::{DnnGraph, KernelId};
use g10::dnn::models::stress::StressGptConfig;
use g10::dnn::models::ModelKind;
use g10::dnn::trace::KernelTrace;
use g10::sim::{ReportFingerprint, Workload};
use std::collections::HashSet;

/// The facts every analysis consumer contributes, expressed identically by
/// both derivation families.
struct AnalysisFacts {
    peak_active: u64,
    peak_live: u64,
    period_count: u64,
    period_total_ns: u64,
    used_tensor_count: u64,
    vitality_peak: u64,
    engine_arena_len: u64,
    engine_last_use_sum: u64,
    max_working_set: u64,
    working_set_exceeds_gpu: bool,
}

impl AnalysisFacts {
    fn fingerprint(&self) -> u64 {
        let mut fp = ReportFingerprint::new();
        for word in [
            self.peak_active,
            self.peak_live,
            self.period_count,
            self.period_total_ns,
            self.used_tensor_count,
            self.vitality_peak,
            self.engine_arena_len,
            self.engine_last_use_sum,
            self.max_working_set,
            self.working_set_exceeds_gpu as u64,
        ] {
            fp.push(word);
        }
        fp.finish()
    }
}

/// The indexed pipeline: everything reads the graph's shared `GraphIndex`
/// through the real public entry points.
fn indexed_analysis_fingerprint(graph: &DnnGraph, trace: &KernelTrace) -> u64 {
    let gpu_capacity = SystemConfig::table2().gpu_memory_bytes;
    let analysis = VitalityAnalysis::analyze(graph, trace);
    let periods = analysis.periods();
    let index = graph.index();
    let (flat, _offsets) = index.working_sets();
    let engine_last_use_sum = graph
        .tensors()
        .iter()
        .filter_map(|info| index.last_use(info.id()))
        .map(|last| last.index() as u64)
        .sum();
    AnalysisFacts {
        peak_active: index.active_bytes().iter().copied().max().unwrap_or(0),
        peak_live: index.peak_live_bytes(),
        period_count: periods.len() as u64,
        period_total_ns: periods.iter().map(|p| p.length().as_nanos()).sum(),
        used_tensor_count: graph
            .tensors()
            .iter()
            .filter(|info| index.use_count(info.id()) > 0)
            .count() as u64,
        vitality_peak: analysis.peak_live_bytes(),
        engine_arena_len: flat.len() as u64,
        engine_last_use_sum,
        max_working_set: index.max_kernel_working_set_bytes(),
        working_set_exceeds_gpu: index.max_kernel_working_set_bytes() > gpu_capacity,
    }
    .fingerprint()
}

/// Counts the inactive periods and their total length under `trace`,
/// including each global tensor's wrap-around period.
fn naive_periods(graph: &DnnGraph, trace: &KernelTrace, uses: &[Vec<KernelId>]) -> (u64, u64) {
    let total = trace.total_duration();
    let mut count = 0u64;
    let mut length_ns = 0u64;
    for tensor in graph.tensors() {
        let sites = &uses[tensor.id().index()];
        if sites.is_empty() {
            continue;
        }
        for window in sites.windows(2) {
            let (prev, next) = (window[0], window[1]);
            if next.index() <= prev.index() + 1 {
                continue;
            }
            let start = trace.end_time(prev);
            let end = trace.start_time(next);
            if end > start {
                count += 1;
                length_ns += (end - start).as_nanos();
            }
        }
        if tensor.is_global() {
            let start = trace.end_time(sites[sites.len() - 1]);
            let end = total + trace.start_time(sites[0]);
            if end > start {
                count += 1;
                length_ns += (end - start).as_nanos();
            }
        }
    }
    (count, length_ns)
}

/// The naive pipeline: the adjacency comes from the reference
/// `tensor_use_sites` and every fact is re-derived from it.
fn naive_analysis_fingerprint(graph: &DnnGraph, trace: &KernelTrace) -> u64 {
    let gpu_capacity = SystemConfig::table2().gpu_memory_bytes;
    let uses = naive::tensor_use_sites(graph);

    let mut active = vec![0u64; graph.num_kernels()];
    for tensor in graph.tensors() {
        for site in &uses[tensor.id().index()] {
            active[site.index()] += tensor.bytes();
        }
    }
    let peak_live = naive::live_bytes(graph, &uses)
        .into_iter()
        .max()
        .unwrap_or(0);
    let (period_count, period_total_ns) = naive_periods(graph, trace, &uses);

    // The engines' epoch-deduplicated working-set arena.
    let mut flat = Vec::new();
    let mut offsets = vec![0];
    let mut seen_epoch = vec![u32::MAX; graph.num_tensors()];
    for (k, kernel) in graph.kernels().iter().enumerate() {
        for t in kernel.tensors() {
            let stamp = &mut seen_epoch[t.index()];
            if *stamp != k as u32 {
                *stamp = k as u32;
                flat.push(t);
            }
        }
        offsets.push(flat.len());
    }
    let working_set_exceeds_gpu = offsets.windows(2).any(|w| {
        let ws: u64 = flat[w[0]..w[1]]
            .iter()
            .map(|&t| graph.tensor(t).bytes())
            .sum();
        ws > gpu_capacity
    });

    // The max-working-set scan with a per-kernel `HashSet`.
    let max_working_set = graph
        .kernels()
        .iter()
        .map(|kernel| {
            let mut seen = HashSet::new();
            kernel
                .tensors()
                .filter(|&t| seen.insert(t))
                .map(|t| graph.tensor(t).bytes())
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);

    AnalysisFacts {
        peak_active: active.into_iter().max().unwrap_or(0),
        peak_live,
        period_count,
        period_total_ns,
        used_tensor_count: uses.iter().filter(|sites| !sites.is_empty()).count() as u64,
        vitality_peak: peak_live,
        engine_arena_len: flat.len() as u64,
        engine_last_use_sum: uses
            .iter()
            .filter_map(|sites| sites.last())
            .map(|last| last.index() as u64)
            .sum(),
        max_working_set,
        working_set_exceeds_gpu,
    }
    .fingerprint()
}

#[test]
fn naive_and_indexed_analyses_agree_at_mid_scale() {
    let stress = Workload::stress(2, &StressGptConfig::with_target_kernels(700));
    let kernels = stress.graph.num_kernels();
    assert!(
        (600..=760).contains(&kernels),
        "stress graph missed its target: {kernels}"
    );
    for (label, workload) in [
        ("stress_700", stress),
        (
            "TinyTransformer_8",
            Workload::new(ModelKind::TinyTransformer, 8),
        ),
        ("TinyCNN_8", Workload::new(ModelKind::TinyCnn, 8)),
    ] {
        assert_eq!(
            indexed_analysis_fingerprint(&workload.graph, &workload.trace),
            naive_analysis_fingerprint(&workload.graph, &workload.trace),
            "{label}: analysis pipelines diverged"
        );
    }
}
