//! Experiment helpers: build a workload, name a design, sweep parameters.
//!
//! Runs themselves go through the [`crate::session::Experiment`] builder;
//! this module holds what the builder is fed with ([`Workload`],
//! [`PolicyKind`]) and the [`parallel_map`] sweep helper the experiment
//! drivers fan cells out with.

use crate::session::SimError;
use g10_core::config::SystemConfig;
use g10_core::scheduler::SchedulerVariant;
use g10_dnn::cost::GpuCostModel;
use g10_dnn::graph::DnnGraph;
use g10_dnn::models::stress::StressGptConfig;
use g10_dnn::models::{build_model, ModelKind};
use g10_dnn::trace::KernelTrace;
use g10_time::Nanos;
use std::fmt;
use std::str::FromStr;

/// Per-batch host software overhead paid by designs that execute planned
/// migrations through the classic UVM driver (G10-GDS and G10-Host) rather
/// than G10's extended UVM.
pub const CLASSIC_UVM_BATCH_OVERHEAD: Nanos = Nanos::from_micros(10);

/// The designs compared throughout §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Infinite GPU memory.
    Ideal,
    /// On-demand UVM paging with LRU eviction.
    BaseUvm,
    /// DeepUM+ correlation prefetching.
    DeepUmPlus,
    /// FlashNeuron compile-time offloading over GPUDirect Storage.
    FlashNeuron,
    /// G10 restricted to GPU↔SSD migrations.
    G10Gds,
    /// G10 with host+SSD migrations over classic UVM.
    G10Host,
    /// The full G10 design.
    G10Full,
}

impl PolicyKind {
    /// All seven designs, in the order the golden snapshots and Figure 11's
    /// Ideal-normalised runs enumerate them.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Ideal,
        PolicyKind::BaseUvm,
        PolicyKind::DeepUmPlus,
        PolicyKind::FlashNeuron,
        PolicyKind::G10Gds,
        PolicyKind::G10Host,
        PolicyKind::G10Full,
    ];

    /// The designs shown in Figure 11, in presentation order.
    pub const FIGURE11: [PolicyKind; 6] = [
        PolicyKind::BaseUvm,
        PolicyKind::FlashNeuron,
        PolicyKind::DeepUmPlus,
        PolicyKind::G10Gds,
        PolicyKind::G10Host,
        PolicyKind::G10Full,
    ];

    /// The designs shown in Figures 12–15 and 18 (Base UVM, FlashNeuron,
    /// DeepUM+ and the full G10).
    pub const COMPARED: [PolicyKind; 4] = [
        PolicyKind::BaseUvm,
        PolicyKind::FlashNeuron,
        PolicyKind::DeepUmPlus,
        PolicyKind::G10Full,
    ];

    /// Display label matching the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            PolicyKind::Ideal => "Ideal",
            PolicyKind::BaseUvm => "Base UVM",
            PolicyKind::DeepUmPlus => "DeepUM+",
            PolicyKind::FlashNeuron => "FlashNeuron",
            PolicyKind::G10Gds => "G10-GDS",
            PolicyKind::G10Host => "G10-Host",
            PolicyKind::G10Full => "G10",
        }
    }

    /// The scheduler variant behind the G10 policies, if any.
    pub const fn scheduler_variant(self) -> Option<SchedulerVariant> {
        match self {
            PolicyKind::G10Gds => Some(SchedulerVariant::Gds),
            PolicyKind::G10Host => Some(SchedulerVariant::Host),
            PolicyKind::G10Full => Some(SchedulerVariant::Full),
            _ => None,
        }
    }

    /// Every name this design answers to in the policy registry and the
    /// string parsers, canonical name first.  Lookups are normalized
    /// (lowercase, spaces/underscores → dashes), so `"Base UVM"` and
    /// `"base_uvm"` both hit `"base-uvm"`.
    pub const fn names(self) -> &'static [&'static str] {
        match self {
            PolicyKind::Ideal => &["ideal"],
            PolicyKind::BaseUvm => &["base-uvm", "baseuvm", "uvm"],
            PolicyKind::DeepUmPlus => &["deepum+", "deepum", "deepum-plus"],
            PolicyKind::FlashNeuron => &["flashneuron"],
            PolicyKind::G10Gds => &["g10-gds"],
            PolicyKind::G10Host => &["g10-host"],
            PolicyKind::G10Full => &["g10", "g10-full"],
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for PolicyKind {
    type Err = SimError;

    /// Parses a built-in design name (any alias in [`PolicyKind::names`]).
    /// Unknown names — including registered *custom* policies, which parse
    /// as [`crate::session::PolicySpec`]s, not `PolicyKind`s — fail with
    /// [`SimError::UnknownPolicy`] listing every registered policy name.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::session::parse_builtin(s)
    }
}

/// A model + batch-size workload: the dataflow graph and its profiled trace.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which model this is.
    pub model: ModelKind,
    /// The batch size the graph was built for.
    pub batch: u64,
    /// The training-iteration dataflow graph.
    pub graph: DnnGraph,
    /// The profiled (modelled) kernel trace replayed by the simulator.
    pub trace: KernelTrace,
}

impl Workload {
    /// Builds the workload with the paper-calibrated cost model: the native
    /// A100 roofline slowed by [`ModelKind::calibration_factor`] so the
    /// ideal iteration time lands where the paper's Figure 15 puts it.
    pub fn new(model: ModelKind, batch: u64) -> Self {
        let cost_model = GpuCostModel::a100().slowed(model.calibration_factor());
        Self::with_cost_model(model, batch, &cost_model)
    }

    /// Builds the workload with an explicit GPU cost model.
    pub fn with_cost_model(model: ModelKind, batch: u64, cost_model: &GpuCostModel) -> Self {
        let graph = build_model(model, batch);
        let trace = KernelTrace::profile(&graph, cost_model);
        Workload {
            model,
            batch,
            graph,
            trace,
        }
    }

    /// Builds the synthetic StressGPT workload at an explicit depth (the
    /// replay/planner scaling studies size it via
    /// [`StressGptConfig::with_target_kernels`]); profiled with the native
    /// A100 roofline like the other uncalibrated models.
    pub fn stress(batch: u64, cfg: &StressGptConfig) -> Self {
        let graph = g10_dnn::models::stress::build(batch, cfg);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        Workload {
            model: ModelKind::StressGpt,
            batch,
            graph,
            trace,
        }
    }

    /// Total memory consumption of the workload relative to the GPU capacity
    /// (the "M" annotation of Figure 11).
    pub fn memory_ratio(&self, config: &SystemConfig) -> f64 {
        self.graph.total_tensor_bytes() as f64 / config.gpu_memory_bytes as f64
    }
}

/// Runs `f` over `items` on multiple threads, preserving input order.
/// Used by the experiment harness to sweep models / batch sizes / hardware
/// configurations in parallel.
///
/// A panicking closure no longer unwinds through the thread scope and
/// aborts the whole sweep: each item runs under
/// [`crate::fault::catch_policy_panic`] (via [`try_parallel_map`]), every
/// remaining item still completes, and the first panic *by input order* —
/// deterministic regardless of worker scheduling — is then re-raised on
/// the calling thread with the item index and original message.  Callers
/// that want the per-item outcomes instead should use
/// [`try_parallel_map`].
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    for (idx, outcome) in try_parallel_map(items, f).into_iter().enumerate() {
        match outcome {
            Ok(result) => results.push(result),
            Err(message) => panic!("parallel_map: item {idx} panicked: {message}"),
        }
    }
    results
}

/// [`parallel_map`] with per-item panic containment: each closure call runs
/// under [`crate::fault::catch_policy_panic`], so a panicking item yields
/// `Err(panic message)` in its input-order slot while every other item
/// still runs to completion on its worker.  This is the scheduling kernel
/// behind both the figure sweeps and the `experiments serve` worker pool,
/// where one poisoned cell must become a typed per-request error rather
/// than a dead daemon.
///
/// Workers claim items dynamically off a shared atomic counter (so skewed
/// sweeps — e.g. batch grids in increasing-cost order — stay balanced), but
/// every result gets its own slot lock: each mutex is taken exactly once,
/// by the worker that computed that item, so there is no shared lock for
/// the sweep to serialise on.
pub fn try_parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let results: Vec<std::sync::Mutex<Option<Result<R, String>>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let result = crate::fault::catch_policy_panic(|| f(&items[idx]));
                *results[idx].lock().expect("result slot lock") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every item processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::metrics::SimReport;
    use crate::session::Experiment;

    fn tiny_config() -> SystemConfig {
        SystemConfig::table2().with_gpu_memory(64 << 20)
    }

    fn run(workload: &Workload, policy: PolicyKind, config: &SystemConfig) -> SimReport {
        Experiment::new(workload)
            .policy(policy)
            .config(*config)
            .run()
            .unwrap()
    }

    #[test]
    fn policy_names_parse_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(p.label().parse::<PolicyKind>().unwrap(), p);
            for alias in p.names() {
                assert_eq!(alias.parse::<PolicyKind>().unwrap(), p);
            }
        }
        assert!("nope".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn g10_beats_base_uvm_on_a_constrained_gpu() {
        let config = tiny_config();
        let workload = Workload::new(ModelKind::TinyCnn, 64);
        let ideal = run(&workload, PolicyKind::Ideal, &config);
        let base = run(&workload, PolicyKind::BaseUvm, &config);
        let g10 = run(&workload, PolicyKind::G10Full, &config);
        assert!(base.total_time > ideal.total_time);
        assert!(g10.total_time <= base.total_time);
        assert!(g10.normalized_performance() > base.normalized_performance());
    }

    #[test]
    fn every_policy_produces_a_well_formed_report() {
        let config = tiny_config();
        let workload = Workload::new(ModelKind::TinyCnn, 32);
        for policy in PolicyKind::ALL {
            let report = run(&workload, policy, &config);
            assert_eq!(report.policy, policy.label());
            assert_eq!(report.kernel_slowdowns.len(), workload.graph.num_kernels());
            assert!(report.total_time >= report.ideal_time);
            assert!(report.normalized_performance() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let doubled = parallel_map(items.clone(), |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(empty, |x| *x).is_empty());
    }

    #[test]
    fn try_parallel_map_contains_panics_and_finishes_the_sweep() {
        let items: Vec<u64> = (0..41).collect();
        let outcomes = try_parallel_map(items, |&x| {
            if x % 10 == 3 {
                panic!("poisoned item {x}");
            }
            x * 2
        });
        assert_eq!(outcomes.len(), 41);
        for (idx, outcome) in outcomes.iter().enumerate() {
            if idx % 10 == 3 {
                assert_eq!(*outcome, Err(format!("poisoned item {idx}")));
            } else {
                assert_eq!(*outcome, Ok(idx as u64 * 2), "item {idx} must still run");
            }
        }
    }

    #[test]
    fn parallel_map_repanics_with_the_first_failure_by_input_order() {
        let items: Vec<u64> = (0..16).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(items, |&x| {
                if x == 5 || x == 11 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = caught.expect_err("the sweep must re-raise the contained panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("panic payload is the formatted message");
        assert_eq!(message, "parallel_map: item 5 panicked: boom at 5");
    }

    #[test]
    fn memory_ratio_reflects_footprint() {
        let workload = Workload::new(ModelKind::TinyCnn, 64);
        let config = tiny_config();
        assert!(workload.memory_ratio(&config) > 1.0);
        assert!(workload.memory_ratio(&SystemConfig::table2()) < 1.0);
    }
}
