//! Adversarial policy fuzzing: whatever a hostile policy does through the
//! public [`EngineState`](g10_sim::engine::EngineState) API, the engine
//! must never panic, never corrupt its own bookkeeping, always terminate,
//! and report misbehaviour only as typed
//! [`SimError::PolicyFault`](g10_sim::SimError)s.
//!
//! The adversary (`support/adversarial.rs`) draws a seeded stream
//! of legal requests, out-of-range ids, strict-API misuse, and mid-hook
//! panics.  Each fuzz case runs the same hostile spec twice: once with the
//! default fail-fast handling (the result must be `Ok` or a typed fault)
//! and once under `FallbackTo(Base UVM)` (the result must always be `Ok`,
//! carrying the quarantined fault on the report iff the fail-fast run
//! faulted).
//!
//! A fault from the *bookkeeping* audit (capacity, ledger, clock,
//! residency) would mean the engine itself — not the policy — broke an
//! invariant: the harness treats those as test failures, which is exactly
//! the "never violates capacity" property.

mod support;

use g10_core::config::SystemConfig;
use g10_dnn::models::ModelKind;
use g10_sim::{
    Experiment, JobSpec, OnPolicyFault, PolicyFaultKind, PolicyRegistry, PolicySpec,
    RuntimeOptions, SimError, Validate, Workload,
};
use g10_time::Nanos;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use support::adversarial::{AdversarialProvider, AdversarialSpec};

/// The fuzz workload, built once: small enough for hundreds of runs,
/// large enough (dozens of kernels, both globals and intermediates) that
/// every hostile action finds targets.
fn workload() -> &'static Workload {
    static WORKLOAD: OnceLock<Workload> = OnceLock::new();
    WORKLOAD.get_or_init(|| Workload::new(ModelKind::TinyCnn, 4))
}

/// Runs one hostile spec through both degradation modes and asserts every
/// hardening property.  Returns the fail-fast outcome for callers that
/// want to assert on the distribution.
fn check_case(spec: AdversarialSpec, gpu_mib: u64) -> Result<(), PolicyFaultKind> {
    let workload = workload();
    let config = SystemConfig::table2().with_gpu_memory(gpu_mib << 20);
    let mut registry = PolicyRegistry::default();
    registry.register("adversary", Arc::new(AdversarialProvider { spec }));

    // Fail-fast: Ok or a typed policy fault — anything else (a panic, a
    // different error) fails the test by unwinding out of here.
    let strict = Experiment::new(workload)
        .policy(PolicySpec::named("adversary"))
        .config(config)
        .options(RuntimeOptions {
            validate: Validate::Always,
            on_policy_fault: OnPolicyFault::Fail,
            ..RuntimeOptions::default()
        })
        .registry(&registry)
        .run();
    let outcome = match strict {
        Ok(report) => {
            assert!(
                report
                    .kernel_slowdowns
                    .iter()
                    .all(|s| s.is_finite() && s >= 1.0),
                "clean run produced non-physical slowdowns: {spec:?}"
            );
            assert!(
                report.total_time >= report.ideal_time,
                "clean run finished faster than ideal: {spec:?}"
            );
            Ok(())
        }
        Err(SimError::PolicyFault { policy, kind, .. }) => {
            assert_eq!(policy, "adversary", "fault must name the hostile spec");
            // Action-level faults are the policy's fault; a bookkeeping
            // fault would mean the engine corrupted itself under fire.
            assert!(
                matches!(
                    kind,
                    PolicyFaultKind::BuildPanic { .. }
                        | PolicyFaultKind::StepPanic { .. }
                        | PolicyFaultKind::TensorOutOfRange { .. }
                        | PolicyFaultKind::PrefetchResident { .. }
                        | PolicyFaultKind::EvictNonResident { .. }
                ),
                "engine bookkeeping fault under adversarial policy \
                 (engine bug, not policy abuse): {kind:?} from {spec:?}"
            );
            Err(kind)
        }
        Err(other) => panic!("adversarial run must fail typed, got {other:?} from {spec:?}"),
    };

    // Degraded: the cell must always produce a Base-UVM report, with the
    // quarantined fault attached exactly when the fail-fast run faulted.
    let degraded = Experiment::new(workload)
        .policy(PolicySpec::named("adversary"))
        .config(config)
        .options(RuntimeOptions {
            validate: Validate::Always,
            on_policy_fault: OnPolicyFault::FallbackTo(PolicySpec::named("Base UVM")),
            ..RuntimeOptions::default()
        })
        .registry(&registry)
        .run()
        .unwrap_or_else(|err| panic!("fallback must absorb the fault, got {err:?} from {spec:?}"));
    assert_eq!(
        degraded.policy_fault.is_some(),
        outcome.is_err(),
        "fallback fault record must mirror the fail-fast outcome: {spec:?}"
    );
    if let Some(record) = &degraded.policy_fault {
        assert_eq!(record.policy, "adversary");
        assert_eq!(
            Some(record.kind.tag()),
            outcome.as_ref().err().map(|k| k.tag()),
            "quarantined fault must match the fail-fast fault: {spec:?}"
        );
        assert_eq!(
            degraded.policy, "Base UVM",
            "degraded cell must re-run under the fallback design"
        );
    }
    assert!(degraded.kernel_slowdowns.iter().all(|s| s.is_finite()));
    outcome
}

/// The two-job mix of the multi-tenant fuzz cases, shared like
/// [`workload`].
fn multi_workloads() -> &'static [Arc<Workload>; 2] {
    static WORKLOADS: OnceLock<[Arc<Workload>; 2]> = OnceLock::new();
    WORKLOADS.get_or_init(|| {
        [
            Arc::new(Workload::new(ModelKind::TinyCnn, 4)),
            Arc::new(Workload::new(ModelKind::TinyTransformer, 8)),
        ]
    })
}

/// Runs one hostile spec through the multi-tenant path: two concurrent
/// jobs under the adversary on one shared device, with quotas and the
/// invariant audit forced on.  The properties mirror [`check_case`] plus
/// the tenancy contract: no panic escapes, faults stay typed, the audit
/// is never starved, and a clean (never-oversubscribed, never-restarted)
/// job never drives its residency high-water past its quota.
fn check_multi_case(spec: AdversarialSpec, gpu_mib: u64) -> Result<(), PolicyFaultKind> {
    let [first, second] = multi_workloads();
    let config = SystemConfig::table2().with_gpu_memory(gpu_mib << 20);
    let mut registry = PolicyRegistry::default();
    registry.register("adversary", Arc::new(AdversarialProvider { spec }));
    let jobs = || {
        [
            JobSpec::new("adv-a", Arc::clone(first))
                .priority(3)
                .quota_bytes((gpu_mib << 20) / 2),
            JobSpec::new("adv-b", Arc::clone(second))
                .priority(1)
                .arrival(Nanos::from_micros(5))
                .quota_bytes((gpu_mib << 20) / 4),
        ]
    };

    // Fail-fast: Ok or a typed action-level policy fault.
    let strict = Experiment::jobs(jobs())
        .policy(PolicySpec::named("adversary"))
        .config(config)
        .options(RuntimeOptions {
            validate: Validate::Always,
            on_policy_fault: OnPolicyFault::Fail,
            ..RuntimeOptions::default()
        })
        .registry(&registry)
        .run_multi();
    let outcome = match strict {
        Ok(report) => {
            assert_eq!(report.jobs.len(), 2);
            for job in &report.jobs {
                assert!(
                    job.slowdown.is_finite(),
                    "{}: non-finite slowdown under {spec:?}",
                    job.name
                );
                assert!(
                    job.audited_steps > 0,
                    "{}: adversary starved the invariant guard: {spec:?}",
                    job.name
                );
                // Quota containment: only a forced (oversubscribed)
                // allocation may breach, and a restart re-posts placement.
                if job.restarts == 0 && !job.report.oversubscribed {
                    if let Some(quota) = job.quota_bytes {
                        assert!(
                            job.usage.resident_high_water <= quota,
                            "{}: high water {} breached quota {quota} under {spec:?}",
                            job.name,
                            job.usage.resident_high_water
                        );
                    }
                }
            }
            let last = report.jobs.iter().map(|j| j.finished).max().unwrap();
            assert_eq!(report.makespan, last, "makespan drifted: {spec:?}");
            Ok(())
        }
        Err(SimError::PolicyFault { policy, kind, .. }) => {
            assert_eq!(policy, "adversary", "fault must name the hostile spec");
            assert!(
                matches!(
                    kind,
                    PolicyFaultKind::BuildPanic { .. }
                        | PolicyFaultKind::StepPanic { .. }
                        | PolicyFaultKind::TensorOutOfRange { .. }
                        | PolicyFaultKind::PrefetchResident { .. }
                        | PolicyFaultKind::EvictNonResident { .. }
                ),
                "engine bookkeeping fault under concurrent adversaries \
                 (engine bug, not policy abuse): {kind:?} from {spec:?}"
            );
            Err(kind)
        }
        Err(other) => panic!("multi adversarial run must fail typed, got {other:?} from {spec:?}"),
    };

    // Degraded: the mix must always complete, quarantining each faulting
    // tenant onto the fallback design while the others keep their engines.
    let degraded = Experiment::jobs(jobs())
        .policy(PolicySpec::named("adversary"))
        .config(config)
        .options(RuntimeOptions {
            validate: Validate::Always,
            on_policy_fault: OnPolicyFault::FallbackTo(PolicySpec::named("Base UVM")),
            ..RuntimeOptions::default()
        })
        .registry(&registry)
        .run_multi()
        .unwrap_or_else(|err| {
            panic!("multi fallback must absorb the fault, got {err:?} from {spec:?}")
        });
    assert_eq!(degraded.jobs.len(), 2);
    for job in &degraded.jobs {
        assert!(job.slowdown.is_finite());
        assert!(
            job.audited_steps > 0,
            "{}: fallback engine must keep auditing: {spec:?}",
            job.name
        );
        if let Some(record) = &job.report.policy_fault {
            assert_eq!(record.policy, "adversary");
            // A build-time fault is quarantined during admission — the
            // lane starts life on the fallback engine, so only mid-run
            // faults bill a restart.
            if !matches!(record.kind, PolicyFaultKind::BuildPanic { .. }) {
                assert!(
                    job.restarts >= 1,
                    "{}: mid-run quarantine must record its restart: {spec:?}",
                    job.name
                );
            }
            assert_eq!(
                job.report.policy, "Base UVM",
                "{}: quarantined job must re-run under the fallback design",
                job.name
            );
        }
    }
    if outcome.is_err() {
        assert!(
            degraded
                .jobs
                .iter()
                .any(|job| job.report.policy_fault.is_some()),
            "fail-fast saw a fault the fallback mix never recorded: {spec:?}"
        );
    }
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ≥256 hostile specs per CI run, spanning tame to maximally vicious,
    /// with and without scripted panics, over varying GPU pressure.
    #[test]
    fn engine_survives_adversarial_policies(
        seed in 0u64..u64::MAX,
        hostility in 0u8..=255u8,
        actions_per_hook in 1u8..6u8,
        panic_select in 0u32..80u32,
        build_select in 0u32..16u32,
        gpu_mib in 8u64..48u64,
    ) {
        let spec = AdversarialSpec {
            seed,
            hostility,
            actions_per_hook,
            // Roughly a third of cases panic mid-run on a schedule; one in
            // sixteen panics in the provider's build.
            panic_after_hooks: (panic_select < 30).then_some(panic_select),
            panic_in_build: build_select == 0,
        };
        let _ = check_case(spec, gpu_mib);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The multi-tenant sweep: the same hostile spec family as the solo
    /// fuzz, but driving two concurrent quota'd jobs through the tenant
    /// scheduler.  Fewer cases than the solo sweep because every case runs
    /// four engines (two jobs × two degradation modes).
    #[test]
    fn scheduler_survives_adversarial_policies(
        seed in 0u64..u64::MAX,
        hostility in 0u8..=255u8,
        actions_per_hook in 1u8..6u8,
        panic_select in 0u32..80u32,
        build_select in 0u32..16u32,
        gpu_mib in 8u64..48u64,
    ) {
        let spec = AdversarialSpec {
            seed,
            hostility,
            actions_per_hook,
            panic_after_hooks: (panic_select < 30).then_some(panic_select),
            panic_in_build: build_select == 0,
        };
        let _ = check_multi_case(spec, gpu_mib);
    }
}

/// The scripted extremes are not left to chance: a build panic, a
/// first-hook panic, and a fully hostile stream must each produce their
/// typed fault, and a fully tame stream must succeed.
#[test]
fn scripted_extremes_hit_their_fault_paths() {
    let build = check_case(
        AdversarialSpec {
            panic_in_build: true,
            ..AdversarialSpec::from_seed(1)
        },
        32,
    );
    assert!(matches!(build, Err(PolicyFaultKind::BuildPanic { .. })));

    let early_panic = check_case(
        AdversarialSpec {
            hostility: 0,
            panic_after_hooks: Some(0),
            ..AdversarialSpec::from_seed(2)
        },
        32,
    );
    assert!(matches!(
        early_panic,
        Err(PolicyFaultKind::StepPanic { .. })
    ));

    let vicious = check_case(
        AdversarialSpec {
            hostility: 255,
            ..AdversarialSpec::from_seed(3)
        },
        32,
    );
    assert!(vicious.is_err(), "a fully hostile stream must fault");

    let tame = check_case(
        AdversarialSpec {
            hostility: 0,
            ..AdversarialSpec::from_seed(4)
        },
        32,
    );
    assert!(tame.is_ok(), "a fully legal stream must complete cleanly");
}

/// The same scripted extremes under the tenant scheduler: concurrency
/// must not change which fault class each extreme produces, and a tame
/// mix must complete with every tenant inside its quota.
#[test]
fn scripted_multi_extremes_hit_their_fault_paths() {
    let build = check_multi_case(
        AdversarialSpec {
            panic_in_build: true,
            ..AdversarialSpec::from_seed(11)
        },
        32,
    );
    assert!(matches!(build, Err(PolicyFaultKind::BuildPanic { .. })));

    let early_panic = check_multi_case(
        AdversarialSpec {
            hostility: 0,
            panic_after_hooks: Some(0),
            ..AdversarialSpec::from_seed(12)
        },
        32,
    );
    assert!(matches!(
        early_panic,
        Err(PolicyFaultKind::StepPanic { .. })
    ));

    let vicious = check_multi_case(
        AdversarialSpec {
            hostility: 255,
            ..AdversarialSpec::from_seed(13)
        },
        32,
    );
    assert!(vicious.is_err(), "a fully hostile mix must fault");

    let tame = check_multi_case(
        AdversarialSpec {
            hostility: 0,
            ..AdversarialSpec::from_seed(14)
        },
        32,
    );
    assert!(tame.is_ok(), "a fully legal mix must complete cleanly");
}

/// Longer sweep for the full-size workflow (`--ignored`): 1024 additional
/// deterministic specs derived by hashing the case index.
#[test]
#[ignore = "long fuzz pass; run explicitly with --ignored"]
fn engine_survives_adversarial_policies_long() {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut faults = 0u32;
    for case in 0u64..1024 {
        let h = mix(case.wrapping_add(0x5EED));
        let spec = AdversarialSpec {
            seed: mix(h),
            hostility: (h >> 8) as u8,
            actions_per_hook: 1 + ((h >> 16) % 5) as u8,
            panic_after_hooks: (h >> 24)
                .is_multiple_of(3)
                .then_some(((h >> 32) % 60) as u32),
            panic_in_build: (h >> 40).is_multiple_of(16),
        };
        if check_case(spec, 8 + (h >> 48) % 40).is_err() {
            faults += 1;
        }
    }
    // Sanity on the distribution: the sweep must exercise both clean runs
    // and fault paths, not collapse to one side.
    assert!(faults > 0, "long sweep never faulted — adversary too tame");
    assert!(
        faults < 1024,
        "long sweep always faulted — no clean coverage"
    );
}
