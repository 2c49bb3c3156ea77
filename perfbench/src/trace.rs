//! The traced run: spans recorded around calls into each layer's public
//! functions, plus the counters taken at the same boundaries.
//!
//! Spans stay in memory and are written once, at the end, as Chrome
//! trace-event JSON (open it in <https://ui.perfetto.dev> or
//! `chrome://tracing`).  Each event carries its span index, its parent's
//! index and the id of the cell or request it belongs to; `run.py` derives
//! per-layer self time from them.

use crate::cells::Cell;
use g10_bench::json::{obj, Json};
use g10_core::eviction::{schedule_evictions, EvictionOptions};
use g10_core::prefetch::schedule_prefetches;
use g10_core::{G10Scheduler, MigrationPlan, VitalityAnalysis};
use g10_dnn::models::{build_model, ModelKind};
use g10_dnn::{GpuCostModel, KernelTrace};
use g10_sim::policies::G10Policy;
use g10_sim::{MemoryPolicy, PolicyContext, ReplayEngine, RuntimeOptions, SimReport, Workload};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    id: String,
    args: Vec<(&'static str, String)>,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.push(name, id, parent, start_ns, start_ns)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn push(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: id.to_string(),
            args: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn annotate(&mut self, span: usize, key: &'static str, value: impl Into<String>) {
        self.spans[span].args.push((key, value.into()));
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, id, parent);
        let result = std::hint::black_box(f());
        self.close(span);
        result
    }

    /// Chrome trace-event JSON of every span (complete `X` events, µs).
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                let mut args = vec![
                    ("span", Json::Num(index as f64)),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("id", Json::Str(span.id.clone())),
                ];
                args.extend(span.args.iter().map(|(k, v)| (*k, Json::Str(v.clone()))));
                obj(vec![
                    ("name", Json::Str(span.name.to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    (
                        "dur",
                        Json::Num(span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3),
                    ),
                    ("args", obj(args)),
                ])
            })
            .collect();
        obj(vec![
            ("displayTimeUnit", Json::Str("ms".to_string())),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

/// Counts taken at the layer boundaries of decomposed cells.
#[derive(Default)]
pub struct Counters {
    pub kernels: u64,
    pub migrations: u64,
    pub evict_decisions: u64,
    pub prefetch_decisions: u64,
    pub plans: u64,
    /// Distinct plans per (model, batch); identical plans count once.
    unique_plans: HashMap<(ModelKind, u64), Vec<MigrationPlan>>,
}

impl Counters {
    pub fn plans_unique(&self) -> u64 {
        self.unique_plans
            .values()
            .map(|plans| plans.len() as u64)
            .sum()
    }

    fn note_plan(&mut self, model: ModelKind, batch: u64, plan: &MigrationPlan) {
        self.plans += 1;
        let seen = self.unique_plans.entry((model, batch)).or_default();
        if !seen.contains(plan) {
            seen.push(plan.clone());
        }
    }

    pub fn to_json(&self, workloads: &Workloads) -> Json {
        obj(vec![
            ("kernels_built", Json::Num(workloads.kernels_built as f64)),
            ("kernels", Json::Num(self.kernels as f64)),
            ("migrations", Json::Num(self.migrations as f64)),
            ("evict_decisions", Json::Num(self.evict_decisions as f64)),
            (
                "prefetch_decisions",
                Json::Num(self.prefetch_decisions as f64),
            ),
            ("plans", Json::Num(self.plans as f64)),
            ("plans_unique", Json::Num(self.plans_unique() as f64)),
        ])
    }
}

/// Workloads built inside `dnn.build` / `dnn.profile` spans, once per
/// (model, batch), as the grid's workload cache builds them.
#[derive(Default)]
pub struct Workloads {
    built: HashMap<(ModelKind, u64), Arc<Workload>>,
    pub kernels_built: u64,
}

impl Workloads {
    pub fn get(
        &mut self,
        tracer: &mut Tracer,
        model: ModelKind,
        batch: u64,
        parent: Option<usize>,
        id: &str,
    ) -> Arc<Workload> {
        if let Some(workload) = self.built.get(&(model, batch)) {
            return Arc::clone(workload);
        }
        let cost_model = GpuCostModel::a100().slowed(model.calibration_factor());
        let graph = tracer.time("dnn.build", id, parent, || build_model(model, batch));
        let trace = tracer.time("dnn.profile", id, parent, || {
            KernelTrace::profile(&graph, &cost_model)
        });
        self.kernels_built += graph.num_kernels() as u64;
        let workload = Arc::new(Workload {
            model,
            batch,
            graph,
            trace,
        });
        self.built.insert((model, batch), Arc::clone(&workload));
        workload
    }
}

/// Runs one cell decomposed into the public calls of each layer, each in
/// its own span under a `cell` span:
///
/// 1. `build_model` and `KernelTrace::profile` (first use of the workload);
/// 2. for G10 designs, `VitalityAnalysis::analyze`, then
///    `schedule_evictions` and `schedule_prefetches` in a pass of their
///    own, then `G10Scheduler::plan_with_analysis` (which repeats both
///    schedulers; `run.py` subtracts them to get the plan's own time);
/// 3. the design's policy build (`PolicyProvider::build`, or
///    `G10Policy::new` over the plan just made);
/// 4. `ReplayEngine::new(..).try_run()`.
///
/// `planning_noise` plans against a perturbed trace, as Figure 19 does.
pub fn run_cell(
    tracer: &mut Tracer,
    counters: &mut Counters,
    workloads: &mut Workloads,
    cell: &Cell,
    planning_noise: Option<f64>,
    group: &str,
) -> SimReport {
    let id = match planning_noise {
        Some(error) => format!("{}~noise={error}", cell.id()),
        None => cell.id(),
    };
    let span = tracer.open("cell", &id, None);
    tracer.annotate(span, "group", group);
    let workload = workloads.get(tracer, cell.model, cell.batch, Some(span), &id);
    let noisy;
    let planning = match planning_noise {
        Some(error) => {
            noisy = workload.trace.with_noise(error, FIG19_NOISE_SEED);
            &noisy
        }
        None => &workload.trace,
    };
    let config = cell.hw.config();
    let provider = cell.policy.provider();
    let mut options = RuntimeOptions::default();
    provider.adjust_options(&mut options);
    let policy: Box<dyn MemoryPolicy> = match cell.policy.scheduler_variant() {
        Some(variant) => {
            let analysis = tracer.time("core.vitality", &id, Some(span), || {
                VitalityAnalysis::analyze(&workload.graph, planning)
            });
            let eviction_options = EvictionOptions {
                allow_ssd: true,
                allow_host: variant.allows_host(),
            };
            let mut schedule = tracer.time("core.evict", &id, Some(span), || {
                schedule_evictions(&analysis, planning, &config, eviction_options)
            });
            let prefetches = tracer.time("core.prefetch", &id, Some(span), || {
                schedule_prefetches(
                    &analysis,
                    planning,
                    &config,
                    &schedule.decisions,
                    &mut schedule.pressure,
                )
            });
            counters.evict_decisions += schedule.decisions.len() as u64;
            counters.prefetch_decisions += prefetches.len() as u64;
            let plan = tracer.time("core.plan", &id, Some(span), || {
                G10Scheduler::new(config, variant).plan_with_analysis(
                    &workload.graph,
                    planning,
                    &analysis,
                )
            });
            counters.note_plan(cell.model, cell.batch, &plan);
            tracer.time("sim.policy_build", &id, Some(span), || {
                Box::new(G10Policy::new(plan, variant)) as Box<dyn MemoryPolicy>
            })
        }
        None => {
            let ctx = PolicyContext {
                workload: &workload,
                config: &config,
                planning_trace: planning,
            };
            tracer.time("sim.policy_build", &id, Some(span), || provider.build(&ctx))
        }
    };
    let report = tracer
        .time("sim.replay", &id, Some(span), || {
            ReplayEngine::new(&workload.graph, &workload.trace, &config, policy, options).try_run()
        })
        .unwrap_or_else(|err| panic!("built-in design faulted on {id}: {err:?}"));
    tracer.close(span);
    counters.kernels += workload.graph.num_kernels() as u64;
    counters.migrations += report.evictions_issued + report.prefetches_issued + report.fault_count;
    report
}

/// The seed `experiments::fig19` perturbs kernel timings with.
pub const FIG19_NOISE_SEED: u64 = 0xC0FFEE;
