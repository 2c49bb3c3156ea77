//! Golden replay-report equivalence tests.
//!
//! The replay-engine refactor (incremental victim index, time-ordered
//! pending-free ledger, allocation-free step loop) must leave the
//! [`g10::sim::SimReport`] of every (model, policy) cell byte-for-byte
//! identical to the pre-refactor engine.  These tests pin that: every field
//! of the report — times, per-kernel slowdown bits, traffic, fault and
//! migration counters, oversubscription flags — is folded into an FNV-1a
//! fingerprint and compared against a committed snapshot captured from the
//! pre-refactor engine.
//!
//! One deliberate carve-out: the pre-refactor `FlashNeuronPolicy` attached
//! its planned migrations by iterating a `HashSet`, so FlashNeuron cells
//! varied run to run and could not be pinned at all.  The snapshots were
//! therefore blessed from the pre-refactor *engine* with only that
//! determinism fix (insertion-ordered offload set, see
//! `crates/g10-sim/src/policies/flashneuron.rs`) applied.
//!
//! To regenerate the snapshots (only when a *deliberate* engine behaviour
//! change is made), run with `G10_BLESS=1`:
//!
//! ```text
//! G10_BLESS=1 cargo test --release --test golden_reports -- --include-ignored
//! ```

//! The fingerprint is [`SimReport::fingerprint`] — the one canonical digest
//! shared with the session/tenancy equivalence pins and the serve wire
//! format (`g10::sim::ReportFingerprint` is the underlying FNV-1a helper).

use g10::core::config::SystemConfig;
use g10::dnn::models::ModelKind;
use g10::sim::{Experiment, PolicyKind, SimReport, Workload};

/// All seven designs of §7, in a fixed snapshot order.
const ALL_POLICIES: [PolicyKind; 7] = [
    PolicyKind::Ideal,
    PolicyKind::BaseUvm,
    PolicyKind::DeepUmPlus,
    PolicyKind::FlashNeuron,
    PolicyKind::G10Gds,
    PolicyKind::G10Host,
    PolicyKind::G10Full,
];

fn run_cell(workload: &Workload, policy: PolicyKind, config: &SystemConfig) -> SimReport {
    Experiment::new(workload)
        .policy(policy)
        .config(*config)
        .run()
        .expect("built-in policies resolve")
}

/// One snapshot line per (model, batch, gpu capacity, policy) cell:
/// `model batch policy gpu_bytes stall_ns faults evictions hash`.
///
/// Every cell also checks the replay's time identity: the engine only ever
/// adds stall time on top of the kernels' ideal run time, so
/// `total_time == ideal_time + stall_time` holds exactly.
fn snapshot_lines(cells: &[(ModelKind, u64, u64)]) -> Vec<String> {
    let mut lines = Vec::new();
    for &(model, batch, gpu_bytes) in cells {
        let workload = Workload::new(model, batch);
        let config = SystemConfig::table2().with_gpu_memory(gpu_bytes);
        for policy in ALL_POLICIES {
            let report = run_cell(&workload, policy, &config);
            assert_eq!(
                report.total_time,
                report.ideal_time + report.stall_time,
                "{model} batch {batch} under {policy}: total time is not ideal plus stall"
            );
            lines.push(format!(
                "{} {} {} {} {} {} {} {:016x}",
                model.name(),
                batch,
                policy.label().replace(' ', "_"),
                gpu_bytes,
                report.stall_time.as_nanos(),
                report.fault_count,
                report.evictions_issued,
                report.fingerprint()
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
        "replay-engine output diverged from the committed golden snapshot \
         ({full_path}); if the change is deliberate, regenerate with G10_BLESS=1"
    );
}

/// Fast pin on the tiny models: runs on every push in the tier-1 suite.
/// The capacities are chosen so the eviction, fault and prefetch paths are
/// all exercised (TinyCNN at batch 64 does not fit in 32 MB).
#[test]
fn golden_reports_tiny_models() {
    let cells = [
        (ModelKind::TinyCnn, 64, 64 << 20),
        (ModelKind::TinyCnn, 64, 32 << 20),
        (ModelKind::TinyTransformer, 32, 4 << 20),
    ];
    check_against_snapshot("reports_tiny.txt", snapshot_lines(&cells));
}

/// Full pin: every paper model at its evaluation batch size, all seven
/// designs, under the Table 2 GPU capacity (the Figure 11 configuration).
#[test]
#[ignore = "full-size models; run with --release --ignored"]
fn golden_reports_paper_models() {
    let cells: Vec<(ModelKind, u64, u64)> = ModelKind::PAPER_MODELS
        .iter()
        .map(|m| (*m, m.eval_batch(), SystemConfig::table2().gpu_memory_bytes))
        .collect();
    check_against_snapshot("reports_full.txt", snapshot_lines(&cells));
}

/// Replay must be deterministic run-to-run (guards against iteration order
/// leaking in from hash maps or threading).
#[test]
fn replay_is_deterministic() {
    let workload = Workload::new(ModelKind::TinyCnn, 64);
    let config = SystemConfig::table2().with_gpu_memory(48 << 20);
    for policy in [
        PolicyKind::BaseUvm,
        PolicyKind::DeepUmPlus,
        PolicyKind::G10Full,
    ] {
        let a = run_cell(&workload, policy, &config);
        let b = run_cell(&workload, policy, &config);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }
}
