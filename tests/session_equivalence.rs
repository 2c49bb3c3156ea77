//! Session equivalence: runs that take different routes through the
//! [`Experiment`] / `PolicyProvider` API must agree with each other.
//!
//! A policy sweep must match one-policy-at-a-time runs, a planning trace
//! set on the session must be the trace the G10 planner plans against, and
//! a degraded cell must match a direct run of its fallback.  Reports are
//! compared through the same FNV fingerprint scheme
//! `tests/golden_reports.rs` pins against its committed snapshots.
//!
//! The second half exercises the open half of the redesign: a custom policy
//! defined entirely in this test (outside `g10-sim`) is registered under a
//! name, round-tripped through the CLI string-parse path
//! ([`PolicySpec::from_str`] and the `experiments run --policy <name>`
//! driver), and run through the session.

use g10::core::scheduler::{G10Scheduler, SchedulerVariant};
use g10::prelude::*;
use g10::sim::engine::EngineState;
use g10::sim::policies::G10Policy;
use g10::sim::policy::{largest_victim_to_ssd, MemoryPolicy};
use g10::sim::{Location, ReplayEngine};
use std::sync::Arc;

/// The canonical report digest shared with `tests/golden_reports.rs`
/// (see [`g10::sim::ReportFingerprint`]).
fn fingerprint_report(report: &SimReport) -> u64 {
    report.fingerprint()
}

#[test]
fn session_sweep_matches_per_policy_runs() {
    let workload = Workload::new(ModelKind::TinyCnn, 64);
    let config = SystemConfig::table2().with_gpu_memory(48 << 20);
    let swept = Experiment::new(&workload)
        .config(config)
        .policies(PolicyKind::ALL)
        .expect("built-in policies resolve");
    for (policy, report) in PolicyKind::ALL.iter().zip(&swept) {
        let single = Experiment::new(&workload)
            .policy(*policy)
            .config(config)
            .run()
            .expect("built-in policies resolve");
        assert_eq!(fingerprint_report(&single), fingerprint_report(report));
    }
}

/// The session hands its planning trace to the G10 planner: the report is
/// the replay of a plan built directly from the noisy trace, and differs
/// from the report planned against the replayed trace itself.
#[test]
fn planning_trace_reaches_the_g10_planner() {
    let workload = Workload::new(ModelKind::TinyCnn, 64);
    let config = SystemConfig::table2().with_gpu_memory(64 << 20);
    let noisy = workload.trace.with_noise(0.15, 42);
    let session = Experiment::new(&workload)
        .policy(PolicyKind::G10Full)
        .config(config)
        .planning_trace(&noisy)
        .run()
        .expect("built-in policies resolve");
    let plan = G10Scheduler::new(config, SchedulerVariant::Full).plan(&workload.graph, &noisy);
    let direct = ReplayEngine::new(
        &workload.graph,
        &workload.trace,
        &config,
        Box::new(G10Policy::new(plan, SchedulerVariant::Full)),
        RuntimeOptions::default(),
    )
    .try_run()
    .expect("built-in policies never fault");
    assert_eq!(fingerprint_report(&session), fingerprint_report(&direct));
    assert_eq!(session, direct);

    let exact = Experiment::new(&workload)
        .policy(PolicyKind::G10Full)
        .config(config)
        .run()
        .expect("built-in policies resolve");
    assert_ne!(fingerprint_report(&session), fingerprint_report(&exact));
}

/// Fallback degradation is a pure re-run: a cell whose policy faults under
/// `FallbackTo(Base UVM)` must produce a report byte-identical to running
/// Base UVM directly, except for the attached fault record.
#[test]
fn degraded_cell_is_byte_identical_to_direct_fallback_run() {
    let workload = Workload::new(ModelKind::TinyCnn, 64);
    let config = SystemConfig::table2().with_gpu_memory(32 << 20);
    let direct = Experiment::new(&workload)
        .policy(PolicyKind::BaseUvm)
        .config(config)
        .run()
        .expect("built-in policies resolve");
    // DeepUM+ with an injected mid-run panic, quarantined to Base UVM.
    let mut degraded = Experiment::new(&workload)
        .policy(PolicyKind::DeepUmPlus)
        .config(config)
        .options(RuntimeOptions {
            fault_plan: Some(FaultPlan {
                step: 1,
                fault: InjectedFault::StepPanic,
            }),
            on_policy_fault: OnPolicyFault::FallbackTo(PolicySpec::from(PolicyKind::BaseUvm)),
            ..RuntimeOptions::default()
        })
        .run()
        .expect("fallback must absorb the injected fault");
    let record = degraded
        .policy_fault
        .take()
        .expect("degraded report must carry the fault record");
    assert_eq!(record.policy, "DeepUM+");
    assert_eq!(record.step, 1);
    assert_eq!(record.kind.tag(), "step-panic");
    // With the record detached, the re-run is indistinguishable from a
    // first-class Base UVM cell — fingerprint and full struct equality.
    assert_eq!(fingerprint_report(&direct), fingerprint_report(&degraded));
    assert_eq!(direct, degraded);
}

// ---------------------------------------------------------------------------
// The open half: a custom policy defined outside g10-sim
// ---------------------------------------------------------------------------

/// A toy design defined entirely in this test: largest-resident-first
/// eviction straight to the SSD, no planning, no prefetching.
struct LargestFirstPolicy;

impl MemoryPolicy for LargestFirstPolicy {
    fn name(&self) -> String {
        "LargestFirst".to_string()
    }
    fn before_kernel(&mut self, _: usize, _: &mut EngineState) {}
    fn after_kernel(&mut self, _: usize, _: &mut EngineState) {}
    fn select_victim(
        &mut self,
        state: &EngineState,
    ) -> Option<(g10::dnn::tensor::TensorId, Location)> {
        largest_victim_to_ssd(state)
    }
}

struct LargestFirstProvider;

impl PolicyProvider for LargestFirstProvider {
    fn build(&self, _ctx: &PolicyContext<'_>) -> Box<dyn MemoryPolicy> {
        Box::new(LargestFirstPolicy)
    }
}

#[test]
fn custom_policy_round_trips_through_the_cli_string_parse_path() {
    register_policy("largest-first", Arc::new(LargestFirstProvider));

    // The registered name parses exactly like a built-in...
    let spec: PolicySpec = "largest-first".parse().expect("registered name parses");
    assert_eq!(spec, PolicySpec::named("largest-first"));
    // ...and is listed by the typed unknown-policy error.
    let err = "not-a-policy".parse::<PolicySpec>().unwrap_err();
    let message = err.to_string();
    assert!(message.contains("largest-first"), "{message}");
    assert!(message.contains("g10"), "{message}");

    // PolicySpec::Named runs through Experiment::run.
    let workload = Workload::new(ModelKind::TinyCnn, 64);
    let config = SystemConfig::table2().with_gpu_memory(32 << 20);
    let report = Experiment::new(&workload)
        .policy(spec)
        .config(config)
        .run()
        .expect("registered policy resolves");
    assert_eq!(report.policy, "LargestFirst");
    assert!(report.evictions_issued > 0, "constrained GPU must evict");
    assert!(report.total_time >= report.ideal_time);

    // And through the driver behind `experiments run --policy <name>`:
    // built-in and custom names side by side in one CLI-shaped invocation.
    let table = g10_bench::experiments::custom_run_with_options(
        ModelKind::TinyCnn,
        64,
        &["base-uvm".to_string(), "largest-first".to_string()],
        &config,
        &RuntimeOptions::default(),
    )
    .expect("CLI path resolves the custom policy");
    let rendered = table.render();
    assert!(rendered.contains("LargestFirst"), "{rendered}");
    assert!(rendered.contains("Base UVM"), "{rendered}");

    // An unknown name fails the CLI path with the typed error.
    let err = g10_bench::experiments::custom_run_with_options(
        ModelKind::TinyCnn,
        64,
        &["no-such-design".to_string()],
        &config,
        &RuntimeOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, SimError::UnknownPolicy { .. }));
}
