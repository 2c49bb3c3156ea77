//! Golden-plan equivalence tests.
//!
//! The planner refactors (segment-tree pressure timelines, run-length
//! bandwidth reservations, the memoised eviction order) must leave the emitted `MigrationPlan` byte-for-byte
//! identical to the pre-refactor flat-`Vec` implementation.  These tests pin
//! that: every decision field of the eviction and prefetch schedules plus the
//! full plan instruction stream is folded into an FNV-1a fingerprint and
//! compared against a committed snapshot captured from the pre-refactor
//! planner.
//!
//! To regenerate the snapshots (only when a *deliberate* planner behaviour
//! change is made), run with `G10_BLESS=1`:
//!
//! ```text
//! G10_BLESS=1 cargo test --release --test golden_plans -- --include-ignored
//! ```

use g10::core::bandwidth::BandwidthTimeline;
use g10::core::config::{Destination, SystemConfig};
use g10::core::eviction::{
    schedule_evictions, schedule_evictions_with, EvictionDecision, EvictionOptions,
};
use g10::core::instrument::Program;
use g10::core::prefetch::schedule_prefetches;
use g10::core::pressure::MemoryTimeline;
use g10::core::scheduler::{G10Scheduler, SchedulerVariant};
use g10::core::vitality::VitalityAnalysis;
use g10::core::Instruction;
use g10::dnn::models::{build_model, ModelKind};
use g10::dnn::trace::KernelTrace;
use g10::sim::runner::Workload;
use g10::sim::ReportFingerprint;
use g10::time::Nanos;

fn destination_code(d: g10::core::config::Destination) -> u64 {
    match d {
        g10::core::config::Destination::Host => 0,
        g10::core::config::Destination::Ssd => 1,
    }
}

/// Plans one (model, variant) cell exactly the way `G10Scheduler::plan`
/// does, and folds every decision field and the final instruction stream
/// into one fingerprint line.
fn fingerprint_plan(
    graph: &g10::dnn::graph::DnnGraph,
    trace: &KernelTrace,
    analysis: &VitalityAnalysis,
    config: &SystemConfig,
    variant: SchedulerVariant,
) -> (usize, usize, u64) {
    let options = EvictionOptions {
        allow_ssd: true,
        allow_host: variant.allows_host(),
    };
    let mut schedule = schedule_evictions(analysis, trace, config, options);
    let prefetches = schedule_prefetches(analysis, trace, config, &schedule.decisions, {
        // schedule_prefetches mutates the pressure timeline in place.
        &mut schedule.pressure
    });

    let mut fp = ReportFingerprint::new();
    for d in &schedule.decisions {
        fp.push(d.period.index() as u64);
        fp.push(d.tensor.index() as u64);
        fp.push(d.bytes);
        fp.push(destination_code(d.destination));
        fp.push(d.evict_kernel.index() as u64);
        fp.push(d.evict_start.as_nanos());
        fp.push(d.evict_complete.as_nanos());
    }
    for p in &prefetches {
        fp.push(p.period.index() as u64);
        fp.push(p.tensor.index() as u64);
        fp.push(p.bytes);
        fp.push(destination_code(p.source));
        fp.push(p.prefetch_kernel.index() as u64);
        fp.push(p.prefetch_time.as_nanos());
        fp.push(p.latest_safe_time.as_nanos());
    }

    // The assembled plan, exactly as the simulator consumes it, in its
    // instrumented program: the `g10_alloc` / `g10_free` lines the plan
    // once stored, then the plan's own instructions, at every kernel.
    let plan = G10Scheduler::new(*config, variant).plan_with_analysis(graph, trace, analysis);
    fp.push(plan.planned_peak_pressure());
    fp.push(plan.planned_ssd_evict_bytes());
    fp.push(plan.planned_host_evict_bytes());
    fp.push(plan.planned_ideal_time().as_nanos());
    let program = Program::new(graph, &plan);
    for k in 0..plan.len() {
        let kernel = g10::dnn::graph::KernelId::new(k as u32);
        for instr in program.before(kernel).chain(program.after(kernel)) {
            let (code, tensor, bytes, loc) = match *instr {
                Instruction::Alloc { tensor, bytes } => (0, tensor, bytes, 0),
                Instruction::Free { tensor } => (1, tensor, 0, 0),
                Instruction::PreEvict {
                    tensor,
                    bytes,
                    destination,
                } => (2, tensor, bytes, destination_code(destination)),
                Instruction::Prefetch {
                    tensor,
                    bytes,
                    source,
                } => (3, tensor, bytes, destination_code(source)),
            };
            fp.push(k as u64);
            fp.push(code);
            fp.push(tensor.index() as u64);
            fp.push(bytes);
            fp.push(loc);
        }
    }
    for ip in plan.initial_placements() {
        fp.push(ip.tensor.index() as u64);
        fp.push(destination_code(ip.location));
    }

    (plan.eviction_count(), plan.prefetch_count(), fp.finish())
}

/// One snapshot line: `model batch variant gpu_bytes evictions prefetches hash`.
fn snapshot_lines(cells: &[(ModelKind, u64, u64)]) -> Vec<String> {
    let mut lines = Vec::new();
    for &(model, batch, gpu_bytes) in cells {
        let workload = Workload::new(model, batch);
        let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
        let config = SystemConfig::table2().with_gpu_memory(gpu_bytes);
        for variant in SchedulerVariant::ALL {
            let (ev, pf, hash) = fingerprint_plan(
                &workload.graph,
                &workload.trace,
                &analysis,
                &config,
                variant,
            );
            lines.push(format!(
                "{} {} {} {} {} {} {:016x}",
                model.name(),
                batch,
                variant.label(),
                gpu_bytes,
                ev,
                pf,
                hash
            ));
        }
    }
    lines
}

fn check_against_snapshot(path: &str, lines: Vec<String>) {
    let full_path = format!("{}/tests/golden/{}", env!("CARGO_MANIFEST_DIR"), path);
    let rendered = lines.join("\n") + "\n";
    if std::env::var("G10_BLESS").is_ok() {
        std::fs::write(&full_path, &rendered).expect("write snapshot");
        eprintln!("blessed {full_path}");
        return;
    }
    let expected = std::fs::read_to_string(&full_path)
        .unwrap_or_else(|e| panic!("missing snapshot {full_path}: {e}; run with G10_BLESS=1"));
    assert_eq!(
        expected, rendered,
        "planner output diverged from the committed golden snapshot \
         ({full_path}); if the change is deliberate, regenerate with G10_BLESS=1"
    );
}

/// The tiny golden cells: `(model, batch, gpu_bytes)`.
const TINY_CELLS: [(ModelKind, u64, u64); 3] = [
    (ModelKind::TinyCnn, 64, 64 << 20),
    (ModelKind::TinyCnn, 64, 48 << 20),
    (ModelKind::TinyTransformer, 32, 4 << 20),
];

/// Fast pin on the tiny models: runs on every push in the tier-1 suite.
#[test]
fn golden_plans_tiny_models() {
    check_against_snapshot("plans_tiny.txt", snapshot_lines(&TINY_CELLS));
}

/// The invariant the eviction-order memo relies on: host capacity and the
/// variant only pick destinations, never which periods are evicted or in
/// what order.  Planned through the un-memoised entry, so the memo cannot
/// make this true by construction.  The slow-SSD config makes the SSD
/// channel saturate, so host destinations really are in play.
#[test]
fn eviction_order_ignores_host_capacity_and_variant() {
    // Every decision field except the two the destination decides.
    let masked = |decisions: Vec<EvictionDecision>| -> Vec<EvictionDecision> {
        decisions
            .into_iter()
            .map(|d| EvictionDecision {
                destination: Destination::Ssd,
                evict_complete: Nanos::ZERO,
                ..d
            })
            .collect()
    };
    for &(model, batch, gpu_bytes) in &TINY_CELLS {
        let workload = Workload::new(model, batch);
        let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
        let table2 = SystemConfig::table2().with_gpu_memory(gpu_bytes);
        for base in [table2, table2.with_ssd_bandwidth(50e6)] {
            let mut reference: Option<Vec<EvictionDecision>> = None;
            for host_bytes in [0, 1 << 20, table2.host_memory_bytes] {
                let config = base.with_host_memory(host_bytes);
                for variant in SchedulerVariant::ALL {
                    let options = EvictionOptions {
                        allow_ssd: true,
                        allow_host: variant.allows_host(),
                    };
                    let order = masked(
                        schedule_evictions_with::<MemoryTimeline, BandwidthTimeline>(
                            &analysis,
                            &workload.trace,
                            &config,
                            options,
                        )
                        .decisions,
                    );
                    let reference = reference.get_or_insert_with(|| order.clone());
                    assert_eq!(
                        &order,
                        reference,
                        "{} gpu={gpu_bytes} host={host_bytes} {variant}: order diverged",
                        model.name()
                    );
                }
            }
        }
    }
}

/// Full pin: every paper model at its evaluation batch size, all three
/// scheduler variants, under the Table 2 GPU capacity.
#[test]
#[ignore = "full-size models; run with --release --ignored"]
fn golden_plans_paper_models() {
    let cells: Vec<(ModelKind, u64, u64)> = ModelKind::PAPER_MODELS
        .iter()
        .map(|m| (*m, m.eval_batch(), SystemConfig::table2().gpu_memory_bytes))
        .collect();
    check_against_snapshot("plans_full.txt", snapshot_lines(&cells));
}

/// The plan must also be deterministic run-to-run (guards against iteration
/// order leaking in from hash maps or threading).
#[test]
fn planning_is_deterministic() {
    let graph = build_model(ModelKind::TinyCnn, 64);
    let trace = KernelTrace::profile(&graph, &g10::dnn::cost::GpuCostModel::a100());
    let analysis = VitalityAnalysis::analyze(&graph, &trace);
    let config = SystemConfig::table2().with_gpu_memory(64 << 20);
    let a = fingerprint_plan(&graph, &trace, &analysis, &config, SchedulerVariant::Full);
    let b = fingerprint_plan(&graph, &trace, &analysis, &config, SchedulerVariant::Full);
    assert_eq!(a, b);
}
