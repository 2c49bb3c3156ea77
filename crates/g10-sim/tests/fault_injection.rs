//! Deterministic fault injection: every [`InjectedFault`] kind, installed
//! via [`FaultPlan`], must surface as the matching typed
//! [`SimError::PolicyFault`] under fail-fast handling and as a recorded
//! [`SimReport::policy_fault`](g10_sim::SimReport) under fallback
//! degradation — and the typed paths must render readable diagnostics.
//! An installed plan wraps the design in a policy that misbehaves through
//! the public API, so a plan that never fires must change nothing.

use g10_core::config::SystemConfig;
use g10_dnn::models::ModelKind;
use g10_sim::{
    Experiment, FaultPlan, InjectedFault, JobSpec, OnPolicyFault, PolicyFaultKind, PolicyKind,
    PolicySpec, RuntimeOptions, SimError, Workload,
};
use std::sync::{Arc, OnceLock};

fn workload() -> &'static Arc<Workload> {
    static WORKLOAD: OnceLock<Arc<Workload>> = OnceLock::new();
    WORKLOAD.get_or_init(|| Arc::new(Workload::new(ModelKind::TinyCnn, 4)))
}

fn config() -> SystemConfig {
    SystemConfig::table2().with_gpu_memory(32 << 20)
}

/// A workload too large for [`config`]'s GPU, so every design migrates and
/// G10 starts some tensors off the GPU: each forwarded policy method moves
/// the report.
fn pressured() -> &'static Arc<Workload> {
    static WORKLOAD: OnceLock<Arc<Workload>> = OnceLock::new();
    WORKLOAD.get_or_init(|| Arc::new(Workload::new(ModelKind::TinyCnn, 64)))
}

/// The step each injection fires at.  Build panics are a construction-time
/// event; everything else fires mid-run, once the engine has residents and
/// unborn tensors to misuse.
fn inject_step(fault: InjectedFault) -> usize {
    match fault {
        InjectedFault::BuildPanic => 0,
        _ => 2,
    }
}

fn with_plan(plan: FaultPlan) -> RuntimeOptions {
    RuntimeOptions {
        fault_plan: Some(plan),
        ..RuntimeOptions::default()
    }
}

/// Every injectable fault produces a typed `PolicyFault` whose kind tag
/// and step match the plan, whichever design it wraps — in release builds
/// too, because the engine's per-action checks catch every kind without
/// the invariant audit.
#[test]
fn every_injected_fault_surfaces_typed() {
    for policy in PolicyKind::ALL {
        for fault in InjectedFault::ALL {
            let step = inject_step(fault);
            let result = Experiment::new(workload())
                .policy(policy)
                .config(config())
                .options(with_plan(FaultPlan { step, fault }))
                .run();
            match result {
                Err(SimError::PolicyFault {
                    policy: named,
                    step: at,
                    kind,
                }) => {
                    assert_eq!(
                        kind.tag(),
                        fault.tag(),
                        "{policy:?}: wrong kind for {fault:?}"
                    );
                    assert_eq!(at, step, "{policy:?}: wrong step for {fault:?}");
                    assert_eq!(
                        named,
                        PolicySpec::from(policy).to_string(),
                        "fault must name the faulting spec"
                    );
                }
                other => panic!("{policy:?}: injected {fault:?} must fault, got {other:?}"),
            }
        }
    }
}

/// A plan whose step is at or past the kernel count never fires, and the
/// wrapper forwards every policy method: each built-in design gives the
/// report it gives unwrapped, solo and as a one-job multi-tenant run.
#[test]
fn a_plan_that_never_fires_changes_no_report() {
    let kernels = pressured().graph.num_kernels();
    for policy in PolicyKind::ALL {
        let unwrapped = Experiment::new(pressured())
            .policy(policy)
            .config(config())
            .run()
            .unwrap_or_else(|err| panic!("{policy:?} must run, got {err}"));
        if policy != PolicyKind::Ideal {
            assert!(unwrapped.traffic.total() > 0, "{policy:?} must migrate");
        }
        for (i, &fault) in InjectedFault::ALL[1..].iter().enumerate() {
            let step = if i % 2 == 0 { kernels } else { usize::MAX };
            let options = with_plan(FaultPlan { step, fault });
            let solo = Experiment::new(pressured())
                .policy(policy)
                .config(config())
                .options(options.clone())
                .run()
                .unwrap_or_else(|err| panic!("{policy:?} under {fault:?}@{step}: {err}"));
            assert_eq!(solo, unwrapped, "{policy:?} under {fault:?}@{step}");
            assert_eq!(solo.fingerprint(), unwrapped.fingerprint());
            let multi = Experiment::jobs([JobSpec::new("solo", Arc::clone(pressured()))])
                .policy(policy)
                .config(config())
                .options(options)
                .run_multi()
                .unwrap_or_else(|err| panic!("{policy:?} multi under {fault:?}@{step}: {err}"));
            assert_eq!(
                multi.jobs[0].report.fingerprint(),
                unwrapped.fingerprint(),
                "{policy:?} multi under {fault:?}@{step}"
            );
        }
    }
}

/// Under `FallbackTo(Base UVM)` every injected fault is quarantined: the
/// cell completes under the fallback with the fault on the report.  A
/// one-job multi-tenant run takes the same fallback path and must end with
/// the same report, after one restart (none for a build panic, where the
/// job is admitted straight onto the fallback engine).
#[test]
fn every_injected_fault_degrades_to_fallback() {
    for fault in InjectedFault::ALL {
        let step = inject_step(fault);
        let options = RuntimeOptions {
            on_policy_fault: OnPolicyFault::FallbackTo(PolicySpec::from(PolicyKind::BaseUvm)),
            ..with_plan(FaultPlan { step, fault })
        };
        let report = Experiment::new(workload())
            .policy(PolicyKind::DeepUmPlus)
            .config(config())
            .options(options.clone())
            .run()
            .unwrap_or_else(|err| panic!("fallback must absorb {fault:?}, got {err}"));
        let multi = Experiment::jobs([JobSpec::new("solo", Arc::clone(workload()))])
            .policy(PolicyKind::DeepUmPlus)
            .config(config())
            .options(options)
            .run_multi()
            .unwrap_or_else(|err| panic!("tenant fallback must absorb {fault:?}, got {err}"));
        let job = &multi.jobs[0];
        assert_eq!(job.report, report, "tenant fallback report for {fault:?}");
        assert_eq!(job.report.fingerprint(), report.fingerprint());
        let restarts = if fault == InjectedFault::BuildPanic {
            0
        } else {
            1
        };
        assert_eq!(job.restarts, restarts, "restarts after {fault:?}");
        let record = report
            .policy_fault
            .as_ref()
            .unwrap_or_else(|| panic!("fallback report must record {fault:?}"));
        assert_eq!(record.kind.tag(), fault.tag());
        assert_eq!(record.step, step);
        assert_eq!(record.policy, "DeepUM+");
        assert_eq!(
            report.policy, "Base UVM",
            "degraded cell must carry the fallback design's report"
        );
    }
}

/// `FaultPlan` parses from `<step>:<kind>` for every (unique) kind tag and
/// rejects malformed plans — the contract behind the CLI's
/// `--inject-fault` flag.  The bookkeeping kinds, which no policy can
/// cause, are unknown kinds, and the error lists the injectable ones.
#[test]
fn fault_plan_round_trips_every_tag() {
    let mut seen = std::collections::HashSet::new();
    for fault in InjectedFault::ALL {
        assert!(seen.insert(fault.tag()), "duplicate tag {}", fault.tag());
        let text = format!("7:{}", fault.tag());
        let plan: FaultPlan = text.parse().unwrap_or_else(|err| {
            panic!("plan {text:?} must parse, got {err}");
        });
        assert_eq!(plan.step, 7);
        assert_eq!(plan.fault, fault);
        assert_eq!(InjectedFault::from_tag(fault.tag()), Some(fault));
    }
    assert_eq!(InjectedFault::from_tag("no-such"), None);
    for bad in ["", "7", "x:step-panic", "3:not-a-kind", ":step-panic"] {
        assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?} must not parse");
    }
    for retired in [
        "capacity-exceeded",
        "ledger-corrupt",
        "time-regression",
        "non-finite-slowdown",
        "residency-desync",
    ] {
        let err = format!("2:{retired}")
            .parse::<FaultPlan>()
            .expect_err(retired);
        let known = err
            .strip_prefix(&format!("unknown fault kind `{retired}`; known kinds: "))
            .unwrap_or_else(|| panic!("untyped error for {retired}: {err}"));
        let listed: Vec<&str> = InjectedFault::ALL.iter().map(|f| f.tag()).collect();
        assert_eq!(known, listed.join(", "));
    }
}

/// Display of the typed error path is stable and self-describing: every
/// kind renders its tag's human wording, and the session error carries the
/// policy name and step.
#[test]
fn fault_displays_are_self_describing() {
    let cases: [(PolicyFaultKind, &str); 10] = [
        (
            PolicyFaultKind::BuildPanic {
                message: "boom".to_string(),
            },
            "provider build panicked",
        ),
        (
            PolicyFaultKind::StepPanic {
                message: "boom".to_string(),
            },
            "policy panicked",
        ),
        (
            PolicyFaultKind::TensorOutOfRange {
                tensor: 9,
                universe: 5,
            },
            "outside the graph's universe",
        ),
        (
            PolicyFaultKind::EvictNonResident { tensor: 3 },
            "not an evictable GPU resident",
        ),
        (
            PolicyFaultKind::PrefetchResident { tensor: 4 },
            "already resident or inbound",
        ),
        (
            PolicyFaultKind::CapacityExceeded {
                used_bytes: 10,
                allowed_bytes: 9,
            },
            "overcommitted",
        ),
        (
            PolicyFaultKind::LedgerCorrupt {
                ledger_bytes: 1,
                prefix_bytes: 2,
            },
            "pending-free ledger corrupt",
        ),
        (
            PolicyFaultKind::TimeRegression {
                from: g10_time::Nanos::from_nanos(5),
                to: g10_time::Nanos::ZERO,
            },
            "time moved backwards",
        ),
        (
            PolicyFaultKind::NonFiniteSlowdown { kernel: 2 },
            "non-finite or sub-unity slowdown",
        ),
        (
            PolicyFaultKind::ResidencyDesync {
                tracked_bytes: 1,
                allocated_bytes: 2,
            },
            "bookkeeping desynchronised",
        ),
    ];
    for (kind, needle) in cases {
        let rendered = kind.to_string();
        assert!(
            rendered.contains(needle),
            "{} must mention {needle:?}, got {rendered:?}",
            kind.tag()
        );
        let error = SimError::PolicyFault {
            policy: "adversary".to_string(),
            step: 3,
            kind: kind.clone(),
        };
        let rendered = error.to_string();
        assert!(rendered.contains("`adversary`"), "got {rendered:?}");
        assert!(rendered.contains("step 3"), "got {rendered:?}");
        assert!(
            rendered.contains(&kind.to_string()),
            "error display must embed the kind: {rendered:?}"
        );
    }
}

/// The unknown-policy error lists the registry sorted, so the message is
/// stable regardless of registration order.
#[test]
fn unknown_policy_error_lists_sorted_names() {
    let err = Experiment::new(workload())
        .policy(PolicySpec::named("no-such-design"))
        .config(config())
        .run()
        .expect_err("unknown policy must fail");
    let rendered = err.to_string();
    let names: Vec<&str> = rendered
        .split("registered policies: ")
        .nth(1)
        .unwrap_or_else(|| panic!("message must list registered policies, got {rendered:?}"))
        .split(", ")
        .collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "policy list must be sorted: {rendered:?}");
    assert!(names.len() >= 5, "all built-ins listed: {rendered:?}");
}
