//! Experiment drivers: one function per table / figure of the paper.
//!
//! [`FIGURES`] declares the evaluation grid: each [`Figure`] lists the
//! [`Cell`]s it reads and builds its [`Table`]s from their reports, and
//! [`run_figures`] runs any set of them as one job list.  Functions that
//! build workloads or replay cells take the [`Lab`] that owns those caches.

use crate::lab::{default_lab, Lab, RunCacheStats};
use crate::output::Table;
use g10_core::config::SystemConfig;
use g10_core::vitality::VitalityAnalysis;
use g10_dnn::models::stress::StressGptConfig;
use g10_dnn::models::ModelKind;
use g10_sim::metrics::SimReport;
use g10_sim::{
    parallel_map, register_tensile, Experiment, JobSpec, PolicyKind, PolicySpec, RuntimeOptions,
    SimError, Workload,
};
use g10_ssd::EnduranceModel;
use g10_time::Nanos;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const GIB: f64 = (1u64 << 30) as f64;
const GB: f64 = 1e9;

/// perfbench's entry point: [`Lab::workload`] on the process-default
/// `Lab`.  Goes with ROADMAP item 4b.
pub fn workload(model: ModelKind, batch: u64) -> Arc<Workload> {
    default_lab().workload(model, batch)
}

/// perfbench's entry point: [`Lab::run`] on the process-default `Lab`.
/// Goes with ROADMAP item 4b.
pub fn cached_run(
    model: ModelKind,
    batch: u64,
    policy: PolicyKind,
    config: &SystemConfig,
) -> Arc<SimReport> {
    default_lab().run(model, batch, policy, config)
}

/// perfbench's entry point: [`Lab::stats`] of the process-default `Lab`.
/// Goes with ROADMAP item 4b.
pub fn run_cache_stats() -> RunCacheStats {
    default_lab().stats()
}

/// perfbench's entry point: [`run_figures`] over [`FIGURES`] on the
/// process-default `Lab`.  Goes with ROADMAP item 4b.
pub fn figure_set() -> Vec<(&'static str, FigureDriver<'static>)> {
    let figures = run_figures(default_lab(), &FIGURES).into_iter();
    figures
        .map(|(name, tables)| (name, Box::new(move || tables) as FigureDriver))
        .collect()
}

/// One figure's tables from [`figure_set`].
pub type FigureDriver<'a> = Box<dyn FnOnce() -> Vec<Table> + 'a>;

fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

// ---------------------------------------------------------------------------
// The figure grid
// ---------------------------------------------------------------------------

/// One table or figure of the evaluation: its `experiments` command (and
/// CSV name), the cells it reads, and its tables, built from those cells'
/// reports.  Figures that read only workloads list no cells.
#[derive(Clone, Copy)]
pub struct Figure {
    pub name: &'static str,
    cells: fn() -> Vec<Cell>,
    tables: fn(&Grid) -> Vec<Table>,
}

/// The evaluation grid in presentation order, shared by `experiments all`
/// and the perf-trajectory snapshot so "the grid" means the same cells
/// everywhere.  Figures 2 and 4 give one table per model.
#[rustfmt::skip]
pub const FIGURES: [Figure; 15] = [
    Figure { name: "table1", cells: Vec::new, tables: |grid| vec![table1(grid.lab)] },
    Figure { name: "table2", cells: Vec::new, tables: |_| vec![table2()] },
    Figure { name: "fig2", cells: Vec::new, tables: |grid| fig2(grid.lab) },
    Figure { name: "fig3", cells: Vec::new, tables: |grid| vec![fig3(grid.lab)] },
    Figure { name: "fig4", cells: Vec::new, tables: |grid| fig4(grid.lab) },
    Figure { name: "fig11", cells: end_to_end_cells, tables: |grid| vec![fig11(grid)] },
    Figure { name: "fig12", cells: end_to_end_cells, tables: |grid| vec![fig12(grid)] },
    Figure { name: "fig13", cells: end_to_end_cells, tables: |grid| vec![fig13(grid)] },
    Figure { name: "fig14", cells: end_to_end_cells, tables: |grid| vec![fig14(grid)] },
    Figure { name: "lifetime", cells: end_to_end_cells, tables: |grid| vec![lifetime(grid)] },
    Figure { name: "fig15", cells: fig15_cells, tables: |grid| vec![fig15(grid)] },
    Figure { name: "fig16", cells: fig16_cells, tables: |grid| vec![fig16(grid)] },
    Figure { name: "fig17", cells: fig17_cells, tables: |grid| vec![fig17(grid)] },
    Figure { name: "fig18", cells: fig18_cells, tables: |grid| vec![fig18(grid)] },
    Figure { name: "fig19", cells: fig19_cells, tables: |grid| vec![fig19(grid)] },
];

/// One simulation cell: the built-in `policy` on `model` at `batch` on
/// `config` hardware, planned against the profiled kernel timings perturbed
/// by up to `planning_error` (Figure 19).  An error-free cell is canonical,
/// and the [`Lab`] caches its report.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    model: ModelKind,
    batch: u64,
    policy: PolicyKind,
    config: SystemConfig,
    planning_error: f64,
}

/// A [`Cell`] as a hashable key.
type CellKey = (ModelKind, u64, PolicyKind, [u64; 12], u64);

impl Cell {
    fn key(&self) -> CellKey {
        let (config, error) = (self.config.cache_key(), self.planning_error.to_bits());
        (self.model, self.batch, self.policy, config, error)
    }

    /// The G10 eviction selection this cell plans with, if it plans:
    /// selection reads every hardware field but host memory.
    fn selection(&self) -> Option<(ModelKind, u64, [u64; 12], u64)> {
        self.policy.scheduler_variant()?;
        let (config, error) = (self.config.with_host_memory(0), self.planning_error);
        Some((self.model, self.batch, config.cache_key(), error.to_bits()))
    }

    fn run(&self, lab: &Lab) -> Arc<SimReport> {
        if self.planning_error == 0.0 {
            return lab.run(self.model, self.batch, self.policy, &self.config);
        }
        let workload = lab.workload(self.model, self.batch);
        let noisy = workload.trace.with_noise(self.planning_error, 0xC0FFEE);
        let experiment = Experiment::new(&workload)
            .policy(self.policy)
            .config(self.config);
        let report = experiment.planning_trace(&noisy).run();
        Arc::new(report.expect("built-in policies always resolve"))
    }
}

/// The cells of `figures` as one job list: each distinct cell once.
/// Planning cells come first, each ranked by how many earlier ones share
/// its G10 selection: concurrent lookups of one selection wait for each
/// other, so each round of the list plans distinct selections.
fn job_list(figures: &[Figure]) -> Vec<Cell> {
    let mut seen = HashSet::new();
    let mut sharing = HashMap::new();
    let mut jobs: Vec<(usize, Cell)> = figures
        .iter()
        .flat_map(|figure| (figure.cells)())
        .filter(|cell| seen.insert(cell.key()))
        .map(|cell| match cell.selection() {
            Some(selection) => {
                let earlier: &mut usize = sharing.entry(selection).or_default();
                *earlier += 1;
                (*earlier - 1, cell)
            }
            None => (usize::MAX, cell),
        })
        .collect();
    jobs.sort_by_key(|&(rank, _)| rank);
    jobs.into_iter().map(|(_, cell)| cell).collect()
}

/// The reports of a figure set's cells, and the [`Lab`] whose workloads
/// its tables read.
pub struct Grid<'a> {
    lab: &'a Lab,
    reports: HashMap<CellKey, Arc<SimReport>>,
}

impl Grid<'_> {
    /// The report of `cell`, which a figure of the grid must list.
    fn report(&self, cell: &Cell) -> &SimReport {
        &self.reports[&cell.key()]
    }
}

/// Runs `figures`: each distinct cell they list once, all on one
/// [`parallel_map`], then each figure's tables, in the order given.
pub fn run_figures(lab: &Lab, figures: &[Figure]) -> Vec<(&'static str, Vec<Table>)> {
    let reports = parallel_map(job_list(figures), |cell| (cell.key(), cell.run(lab)));
    let reports = reports.into_iter().collect();
    let grid = Grid { lab, reports };
    figures
        .iter()
        .map(|figure| (figure.name, (figure.tables)(&grid)))
        .collect()
}

// ---------------------------------------------------------------------------
// Free-form runs: the `experiments run --policy <name>` command
// ---------------------------------------------------------------------------

/// The Table 2 hardware, with the GPU capacity overridden to `gpu_mib` MiB
/// when given: the hardware of every `experiments run` / `multi` cell and
/// every served request.  Callers bound `gpu_mib` by
/// [`crate::serve::protocol::MAX_MIB`] first (the wire parser, and the
/// `--gpu-mib` row of [`crate::cli::FLAGS`]).
pub fn gpu_config(gpu_mib: Option<u64>) -> SystemConfig {
    let config = SystemConfig::table2();
    match gpu_mib {
        Some(mib) => config.with_gpu_memory(mib << 20),
        None => config,
    }
}

/// One free-form experiment cell: a model at a batch size under a list of
/// policies named by string — built-ins and registered custom policies
/// alike.  This is the driver behind the `experiments run` command, so
/// whatever a downstream crate registers via [`g10_sim::register_policy`]
/// is reachable from the CLI with `--policy <name>`.
///
/// Policy names resolve through [`PolicySpec`] parsing; an unknown name
/// fails the whole run with a [`SimError::UnknownPolicy`] that lists every
/// registered policy.  Each cell goes through [`Lab::cell`], as a served
/// request does: built-in policies populate — and are served by — the
/// same in-memory and persistent caches as the figure grid, while custom
/// registered policies and hardened runs replay directly.
///
/// `options` carry the CLI's hardening flags (`--inject-fault`,
/// `--on-fault`) and its `--deadline-ms` cancellation budget.
pub fn custom_run_with_options(
    lab: &Lab,
    model: ModelKind,
    batch: u64,
    policy_names: &[String],
    config: &SystemConfig,
    options: &RuntimeOptions,
) -> Result<Table, SimError> {
    let specs: Vec<PolicySpec> = policy_names
        .iter()
        .map(|name| name.parse())
        .collect::<Result<_, _>>()?;
    let reports: Vec<Arc<SimReport>> = parallel_map(specs, |spec| {
        lab.cell(model, batch, spec, config, options)
            .map(|(report, _)| report)
    })
    .into_iter()
    .collect::<Result<_, SimError>>()?;
    let mut table = Table::new(
        format!("Custom run: {}-{batch}", model.name()),
        &[
            "model",
            "batch",
            "policy",
            "normalized_perf",
            "total_time_s",
            "stall_pct",
            "ssd_gb",
            "host_gb",
            "faults",
            "policy_fault",
        ],
    );
    for report in &reports {
        table.push_row(vec![
            model.name().to_string(),
            batch.to_string(),
            report.policy.clone(),
            format!("{:.3}", report.normalized_performance()),
            format!("{:.3}", report.total_time.as_secs_f64()),
            pct(report.stall_fraction()),
            format!("{:.1}", report.traffic.ssd_total() as f64 / GB),
            format!("{:.1}", report.traffic.host_total() as f64 / GB),
            report.fault_count.to_string(),
            match &report.policy_fault {
                Some(record) => format!(
                    "{}@{} in `{}`",
                    record.kind.tag(),
                    record.step,
                    record.policy
                ),
                None => "-".to_string(),
            },
        ]);
    }
    Ok(table)
}

// ---------------------------------------------------------------------------
// Multi-tenant replay
// ---------------------------------------------------------------------------

/// The repeating (model, batch, priority, quota) pattern behind
/// [`default_tenant_mix`]: a high-priority well-provisioned job, a
/// mid-priority job at half its footprint, and a low-priority job squeezed
/// into a small quota.  Tiny models keep the mix cheap enough for CI.
const TENANT_MIX_PATTERN: [(ModelKind, u64, u8, u64); 3] = [
    (ModelKind::TinyCnn, 64, 4, 40 << 20),
    (ModelKind::TinyCnn, 32, 2, 24 << 20),
    (ModelKind::TinyTransformer, 32, 1, 8 << 20),
];

/// Deterministic display name of the `i`-th tenant: `tenant-a` … `tenant-z`,
/// then `tenant-a1` and so on.
fn tenant_name(i: usize) -> String {
    let letter = (b'a' + (i % 26) as u8) as char;
    if i < 26 {
        format!("tenant-{letter}")
    } else {
        format!("tenant-{letter}{}", i / 26)
    }
}

/// The canonical tenant mix behind `experiments multi`: `tenants` jobs
/// cycling through a fixed (model, batch, priority, quota) pattern, with
/// arrivals staggered 20 µs
/// apart so later tenants queue behind the incumbents.  Workloads come from
/// `lab`, so the solo baselines inside
/// [`g10_sim::MultiExperiment::run_multi`] reuse the profiled graphs.
pub fn default_tenant_mix(lab: &Lab, tenants: usize) -> Vec<JobSpec> {
    (0..tenants)
        .map(|i| {
            let (model, batch, priority, quota) = TENANT_MIX_PATTERN[i % TENANT_MIX_PATTERN.len()];
            JobSpec::new(tenant_name(i), lab.workload(model, batch))
                .arrival(Nanos::from_micros(20 * i as u64))
                .priority(priority)
                .quota_bytes(quota)
        })
        .collect()
}

/// A heavier mix for stress runs (`experiments multi --stress`): synthetic
/// GPT-style training jobs of staggered depths sharing the device, with the
/// same cycling priorities and quotas as [`default_tenant_mix`].  Stress
/// workloads are built fresh (they are not part of the figure grid's
/// memoized cells).
pub fn stress_tenant_mix(tenants: usize) -> Vec<JobSpec> {
    (0..tenants)
        .map(|i| {
            let (_, _, priority, quota) = TENANT_MIX_PATTERN[i % TENANT_MIX_PATTERN.len()];
            let layers = 3 + 2 * (i % 3) as u64;
            let workload = Arc::new(Workload::stress(8, &StressGptConfig::with_layers(layers)));
            JobSpec::new(tenant_name(i), workload)
                .arrival(Nanos::from_micros(50 * i as u64))
                .priority(priority)
                .quota_bytes(quota)
        })
        .collect()
}

/// The driver behind `experiments multi`: one tenant mix replayed under a
/// list of policy names, reduced to two Figure-style tables — aggregate
/// throughput per policy, and per-job slowdown vs the solo baseline.
///
/// Policy names resolve through [`PolicySpec`] parsing after the
/// cross-job-aware `tensile` design is registered, so `base-uvm,g10,tensile`
/// (the CLI default) and anything registered via
/// [`g10_sim::register_policy`] all work.  Multi-tenant runs never touch the
/// run caches: a job's report depends on the whole mix, not just its own
/// cell key.
pub fn multi_tenant_tables(
    jobs: &[JobSpec],
    policy_names: &[String],
    config: &SystemConfig,
) -> Result<Vec<Table>, SimError> {
    register_tensile();
    let specs: Vec<PolicySpec> = policy_names
        .iter()
        .map(|name| name.parse())
        .collect::<Result<_, _>>()?;
    let mut throughput = Table::new(
        "Multi-tenant throughput",
        &[
            "policy",
            "tenants",
            "makespan_s",
            "aggregate_throughput",
            "max_slowdown",
        ],
    );
    let mut slowdown = Table::new(
        "Multi-tenant per-job slowdown",
        &[
            "policy",
            "job",
            "model",
            "batch",
            "priority",
            "quota_mib",
            "arrival_us",
            "solo_s",
            "multi_s",
            "slowdown",
            "evictions",
            "migrated_out_gb",
            "restarts",
        ],
    );
    for (name, spec) in policy_names.iter().zip(specs) {
        let report = Experiment::jobs(jobs.iter().cloned())
            .policy(spec)
            .config(*config)
            .run_multi()?;
        throughput.push_row(vec![
            name.clone(),
            report.jobs.len().to_string(),
            format!("{:.6}", report.makespan.as_secs_f64()),
            format!("{:.3}", report.aggregate_throughput()),
            format!("{:.3}", report.max_slowdown()),
        ]);
        for job in &report.jobs {
            slowdown.push_row(vec![
                name.clone(),
                job.name.clone(),
                job.report.model.clone(),
                job.report.batch.to_string(),
                job.priority.to_string(),
                match job.quota_bytes {
                    Some(quota) => (quota >> 20).to_string(),
                    None => "-".to_string(),
                },
                (job.arrival.as_nanos() / 1_000).to_string(),
                format!("{:.6}", job.solo_time.as_secs_f64()),
                format!("{:.6}", job.multi_time().as_secs_f64()),
                format!("{:.3}", job.slowdown),
                job.usage.evictions.to_string(),
                format!("{:.2}", job.usage.bytes_out as f64 / GB),
                job.restarts.to_string(),
            ]);
        }
    }
    Ok(vec![throughput, slowdown])
}

// ---------------------------------------------------------------------------
// Tables 1 and 2
// ---------------------------------------------------------------------------

/// Table 1: evaluated DNN models, kernel counts and memory footprints.
pub fn table1(lab: &Lab) -> Table {
    let mut table = Table::new(
        "Table 1: evaluated DNN models",
        &[
            "model",
            "eval_batch",
            "kernels",
            "tensors",
            "total_gib",
            "memory_vs_gpu_pct",
        ],
    );
    let config = SystemConfig::table2();
    let rows = parallel_map(ModelKind::PAPER_MODELS.to_vec(), |model| {
        let workload = lab.workload(*model, model.eval_batch());
        let graph = &workload.graph;
        vec![
            model.name().to_string(),
            model.eval_batch().to_string(),
            graph.num_kernels().to_string(),
            graph.num_tensors().to_string(),
            format!("{:.1}", graph.total_tensor_bytes() as f64 / GIB),
            format!("{:.1}", workload.memory_ratio(&config) * 100.0),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Table 2: system configuration.
pub fn table2() -> Table {
    let c = SystemConfig::table2();
    let mut table = Table::new("Table 2: system configuration", &["parameter", "value"]);
    let rows: Vec<(&str, String)> = vec![
        (
            "CPU main memory",
            format!("{} GiB DDR4", c.host_memory_bytes >> 30),
        ),
        (
            "GPU memory",
            format!("{} GiB HBM2e", c.gpu_memory_bytes >> 30),
        ),
        ("Page size", format!("{} B", c.page_bytes)),
        (
            "SSD read/write bandwidth",
            format!(
                "{:.1}/{:.1} GB/s",
                c.ssd_read_bytes_per_sec / GB,
                c.ssd_write_bytes_per_sec / GB
            ),
        ),
        (
            "SSD read/write latency",
            format!(
                "{:.0}/{:.0} us",
                c.ssd_read_latency.as_micros_f64(),
                c.ssd_write_latency.as_micros_f64()
            ),
        ),
        (
            "Interconnect",
            format!(
                "PCIe Gen3 x16 ({:.3} GB/s per direction)",
                c.pcie_bytes_per_sec / GB
            ),
        ),
        (
            "GPU page fault handling latency",
            format!("{:.0} us", c.fault_latency.as_micros_f64()),
        ),
    ];
    for (k, v) in rows {
        table.push_row(vec![k.to_string(), v]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figures 2-4: workload characterisation
// ---------------------------------------------------------------------------

/// The four models used in the characterisation study (§3).
pub fn characterization_models() -> Vec<ModelKind> {
    vec![
        ModelKind::Bert,
        ModelKind::Vit,
        ModelKind::ResNet152,
        ModelKind::InceptionV3,
    ]
}

/// Figure 2: per-kernel active vs total (live) memory consumption, as a
/// fraction of the peak, sampled along the kernel index axis.
pub fn fig2(lab: &Lab) -> Vec<Table> {
    parallel_map(characterization_models(), |model| {
        let batch = model.characterization_batch();
        let workload = lab.workload(*model, batch);
        let index = workload.graph.index();
        let (active, live) = (index.active_bytes(), index.live_bytes());
        let peak = index.peak_live_bytes().max(1) as f64;
        let mut table = Table::new(
            format!("Figure 2: memory consumption, {}-{}", model.name(), batch),
            &["kernel_index", "active_pct_of_peak", "all_pct_of_peak"],
        );
        let step = (active.len() / 200).max(1);
        for k in (0..active.len()).step_by(step) {
            table.push_row(vec![
                k.to_string(),
                format!("{:.3}", active[k] as f64 / peak * 100.0),
                format!("{:.3}", live[k] as f64 / peak * 100.0),
            ]);
        }
        table
    })
}

/// Figure 3: distribution (CDF) of tensor inactive-period lengths.
pub fn fig3(lab: &Lab) -> Table {
    let mut table = Table::new(
        "Figure 3: inactive period length distribution",
        &[
            "model",
            "batch",
            "periods",
            "p10_us",
            "p25_us",
            "p50_us",
            "p75_us",
            "p90_us",
            "max_us",
            "frac_longer_than_ssd_latency_pct",
        ],
    );
    let rows = parallel_map(characterization_models(), |model| {
        let batch = model.characterization_batch();
        let workload = lab.workload(*model, batch);
        let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
        let periods = analysis.periods();
        let mut lengths: Vec<f64> = periods.iter().map(|p| p.length().as_micros_f64()).collect();
        lengths.sort_by(|a, b| a.total_cmp(b));
        let q = |p: f64| -> f64 {
            if lengths.is_empty() {
                return 0.0;
            }
            lengths[((lengths.len() - 1) as f64 * p) as usize]
        };
        // How many periods could hide a 20 µs SSD access (the paper reports
        // 60–80 %); 0 when there are none.
        let ssd_latency = Nanos::from_micros(20);
        let hide = match periods.len() {
            0 => 0.0,
            n => periods.iter().filter(|p| p.length() > ssd_latency).count() as f64 / n as f64,
        };
        vec![
            model.name().to_string(),
            batch.to_string(),
            periods.len().to_string(),
            format!("{:.1}", q(0.10)),
            format!("{:.1}", q(0.25)),
            format!("{:.1}", q(0.50)),
            format!("{:.1}", q(0.75)),
            format!("{:.1}", q(0.90)),
            format!("{:.1}", q(1.0)),
            pct(hide),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Figure 4: inactive-period length vs tensor size (bucketed scatter).
pub fn fig4(lab: &Lab) -> Vec<Table> {
    parallel_map(characterization_models(), |model| {
        let batch = model.characterization_batch();
        let workload = lab.workload(*model, batch);
        let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
        let periods = analysis.periods();
        let mut table = Table::new(
            format!(
                "Figure 4: period length vs size, {}-{}",
                model.name(),
                batch
            ),
            &["tensor_bytes", "inactive_period_us"],
        );
        let step = (periods.len() / 2000).max(1);
        for p in periods.iter().step_by(step) {
            table.push_row(vec![
                p.bytes.to_string(),
                format!("{:.1}", p.length().as_micros_f64()),
            ]);
        }
        table
    })
}

// ---------------------------------------------------------------------------
// Figures 11-14 + §7.7: the end-to-end comparison at the evaluation batches
// ---------------------------------------------------------------------------

/// The cells of every policy on every (model, batch) point on every
/// hardware config, points outermost and policies innermost.
fn sweep(
    points: &[(ModelKind, u64)],
    configs: &[SystemConfig],
    policies: &[PolicyKind],
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &(model, batch) in points {
        for &config in configs {
            for &policy in policies {
                let planning_error = 0.0;
                cells.push(Cell {
                    model,
                    batch,
                    policy,
                    config,
                    planning_error,
                });
            }
        }
    }
    cells
}

/// Every paper model at its evaluation batch.
fn eval_batches() -> [(ModelKind, u64); 5] {
    ModelKind::PAPER_MODELS.map(|model| (model, model.eval_batch()))
}

/// Every paper model at its evaluation batch on Table 2 hardware, under
/// each of `policies`.
fn eval_cells(policies: &[PolicyKind]) -> Vec<Cell> {
    sweep(&eval_batches(), &[SystemConfig::table2()], policies)
}

/// The cells behind Figures 11–14 and the §7.7 lifetime analysis: Ideal
/// and then every Figure 11 design.  Figures 12–14 read a subset.
fn end_to_end_cells() -> Vec<Cell> {
    eval_cells(&[&[PolicyKind::Ideal][..], &PolicyKind::FIGURE11].concat())
}

/// Figure 11: end-to-end training throughput normalised to Ideal.
pub fn fig11(grid: &Grid) -> Table {
    let cells = end_to_end_cells();
    let per_model: Vec<&[Cell]> = cells.chunk_by(|a, b| a.model == b.model).collect();
    let mut header = vec![
        "model".to_string(),
        "batch".to_string(),
        "memory_pct".to_string(),
    ];
    header.extend(
        per_model[0]
            .iter()
            .map(|cell| grid.report(cell).policy.clone()),
    );
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Figure 11: normalized training performance (1.0 = ideal)",
        &header_refs,
    );
    for cells in per_model {
        let (model, batch) = (cells[0].model, cells[0].batch);
        let memory_ratio = grid
            .lab
            .workload(model, batch)
            .memory_ratio(&cells[0].config);
        let mut row = vec![
            model.name().to_string(),
            batch.to_string(),
            format!("{:.1}", memory_ratio * 100.0),
        ];
        for cell in cells {
            row.push(format!("{:.3}", grid.report(cell).normalized_performance()));
        }
        table.push_row(row);
    }
    table
}

/// Figure 12: execution-time breakdown (overlapped compute vs stall).
pub fn fig12(grid: &Grid) -> Table {
    let mut table = Table::new(
        "Figure 12: execution time breakdown",
        &["model", "policy", "compute_and_transfer_pct", "stall_pct"],
    );
    for cell in eval_cells(&PolicyKind::COMPARED) {
        let report = grid.report(&cell);
        table.push_row(vec![
            cell.model.name().to_string(),
            report.policy.clone(),
            pct(report.overlap_fraction()),
            pct(report.stall_fraction()),
        ]);
    }
    table
}

/// Figure 13: distribution of per-kernel slowdowns.
pub fn fig13(grid: &Grid) -> Table {
    let mut table = Table::new(
        "Figure 13: kernel slowdown distribution (normalized to ideal)",
        &[
            "model",
            "policy",
            "frac_kernels_slowed_pct",
            "p50",
            "p90",
            "p99",
            "max",
        ],
    );
    for cell in eval_cells(&PolicyKind::COMPARED) {
        let report = grid.report(&cell);
        table.push_row(vec![
            cell.model.name().to_string(),
            report.policy.clone(),
            pct(report.fraction_of_kernels_slower_than(1.001)),
            format!("{:.2}", report.slowdown_quantile(0.50)),
            format!("{:.2}", report.slowdown_quantile(0.90)),
            format!("{:.2}", report.slowdown_quantile(0.99)),
            format!("{:.2}", report.slowdown_quantile(1.0)),
        ]);
    }
    table
}

/// Figure 14: tensor migration traffic breakdown.
pub fn fig14(grid: &Grid) -> Table {
    let mut table = Table::new(
        "Figure 14: migration traffic (GB)",
        &[
            "model",
            "policy",
            "gpu_ssd_gb",
            "gpu_host_gb",
            "ssd_writes_gb",
            "ssd_reads_gb",
        ],
    );
    for cell in eval_cells(&PolicyKind::FIGURE11) {
        let report = grid.report(&cell);
        table.push_row(vec![
            cell.model.name().to_string(),
            report.policy.clone(),
            format!("{:.1}", report.traffic.ssd_total() as f64 / GB),
            format!("{:.1}", report.traffic.host_total() as f64 / GB),
            format!("{:.1}", report.traffic.gpu_to_ssd_bytes as f64 / GB),
            format!("{:.1}", report.traffic.ssd_to_gpu_bytes as f64 / GB),
        ]);
    }
    table
}

/// §7.7: SSD write traffic and projected device lifetime.
pub fn lifetime(grid: &Grid) -> Table {
    let mut table = Table::new(
        "Section 7.7: SSD lifetime under continuous training",
        &[
            "model",
            "policy",
            "ssd_write_gb_per_iter",
            "write_rate_gb_per_s",
            "lifetime_years",
            "writes_vs_g10",
        ],
    );
    let endurance = EnduranceModel::samsung_z_ssd();
    let policies = [
        PolicyKind::FlashNeuron,
        PolicyKind::DeepUmPlus,
        PolicyKind::G10Full,
    ];
    for cell in eval_cells(&policies) {
        let (report, policy) = (grid.report(&cell), PolicyKind::G10Full);
        let g10_writes = grid.report(&Cell { policy, ..cell }).ssd_write_bytes();
        let write_rate = report.ssd_write_bytes() as f64 / report.total_time.as_secs_f64();
        table.push_row(vec![
            cell.model.name().to_string(),
            report.policy.clone(),
            format!("{:.1}", report.ssd_write_bytes() as f64 / GB),
            format!("{:.2}", write_rate / GB),
            format!("{:.1}", endurance.lifetime_years(write_rate)),
            format!(
                "{:.2}",
                report.ssd_write_bytes() as f64 / g10_writes.max(1) as f64
            ),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 15: varying batch size
// ---------------------------------------------------------------------------

/// Figure 15's cells: each model's batch sweep under Ideal and every
/// compared design.
fn fig15_cells() -> Vec<Cell> {
    let sweeps = ModelKind::PAPER_MODELS.map(|model| (model, model.batch_sweep()));
    let points: Vec<_> = sweeps
        .iter()
        .flat_map(|(model, batches)| batches.iter().map(|&batch| (*model, batch)))
        .collect();
    let policies = [&[PolicyKind::Ideal][..], &PolicyKind::COMPARED].concat();
    sweep(&points, &[SystemConfig::table2()], &policies)
}

/// Figure 15: training throughput as the batch size varies.
pub fn fig15(grid: &Grid) -> Table {
    let mut table = Table::new(
        "Figure 15: training throughput vs batch size",
        &["model", "batch", "unit", "policy", "throughput"],
    );
    for cell in fig15_cells() {
        let report = grid.report(&cell);
        table.push_row(vec![
            cell.model.name().to_string(),
            cell.batch.to_string(),
            cell.model.throughput_unit().to_string(),
            report.policy.clone(),
            format!("{:.2}", report.throughput()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figures 16 and 17: varying host memory capacity
// ---------------------------------------------------------------------------

/// The host-memory capacities swept in §7.4, in GiB.
pub const HOST_SWEEP_GIB: [u64; 6] = [0, 16, 32, 64, 128, 256];

/// Table 2 hardware with each of `host_gib` GiB of host memory.
fn host_configs(host_gib: &[u64]) -> Vec<SystemConfig> {
    let config = |gib: &u64| SystemConfig::table2().with_host_memory(gib << 30);
    host_gib.iter().map(config).collect()
}

/// Figure 16's cells: G10 over every host capacity, at four batches per model.
fn fig16_cells() -> Vec<Cell> {
    let batches = [
        (ModelKind::Bert, [256, 384, 512, 640]),
        (ModelKind::Vit, [768, 1024, 1280, 1536]),
        (ModelKind::InceptionV3, [512, 1024, 1280, 1536]),
        (ModelKind::ResNet152, [768, 1024, 1280, 1536]),
        (ModelKind::SENet154, [256, 512, 768, 1024]),
    ];
    let points: Vec<_> = batches
        .iter()
        .flat_map(|&(model, list)| list.map(|batch| (model, batch)))
        .collect();
    let configs = host_configs(&HOST_SWEEP_GIB);
    sweep(&points, &configs, &[PolicyKind::G10Full])
}

/// Figure 16: G10 execution time as the host memory capacity varies.
pub fn fig16(grid: &Grid) -> Table {
    let mut table = Table::new(
        "Figure 16: G10 execution time vs host memory capacity",
        &["model", "batch", "host_gib", "execution_time_s"],
    );
    for cell in fig16_cells() {
        table.push_row(vec![
            cell.model.name().to_string(),
            cell.batch.to_string(),
            (cell.config.host_memory_bytes >> 30).to_string(),
            format!("{:.2}", grid.report(&cell).total_time.as_secs_f64()),
        ]);
    }
    table
}

/// Figure 17's cells: DeepUM+, FlashNeuron and G10 over five host
/// capacities, on two (model, batch) points.
fn fig17_cells() -> Vec<Cell> {
    let points = [(ModelKind::Vit, 1024), (ModelKind::InceptionV3, 1280)];
    let policies = [
        PolicyKind::DeepUmPlus,
        PolicyKind::FlashNeuron,
        PolicyKind::G10Full,
    ];
    sweep(&points, &host_configs(&[0, 16, 32, 64, 256]), &policies)
}

/// Figure 17: G10 vs DeepUM+ vs FlashNeuron across host memory capacities.
pub fn fig17(grid: &Grid) -> Table {
    let mut table = Table::new(
        "Figure 17: execution time vs host memory capacity (comparison)",
        &["model", "batch", "host_gib", "policy", "execution_time_s"],
    );
    for cell in fig17_cells() {
        let report = grid.report(&cell);
        table.push_row(vec![
            cell.model.name().to_string(),
            cell.batch.to_string(),
            (cell.config.host_memory_bytes >> 30).to_string(),
            report.policy.clone(),
            format!("{:.2}", report.total_time.as_secs_f64()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 18: varying SSD bandwidth
// ---------------------------------------------------------------------------

/// The SSD bandwidths swept in §7.5, in GB/s (1, 2, 3, 4, 5 stacked SSDs).
pub const SSD_BANDWIDTH_SWEEP_GBPS: [f64; 5] = [6.4, 12.8, 19.2, 25.6, 32.0];

/// Figure 18's cells: every compared design at each SSD bandwidth, with a
/// PCIe 4.0 x16 interconnect.
fn fig18_cells() -> Vec<Cell> {
    let config = SystemConfig::table2().with_pcie_bandwidth(32e9);
    let configs = SSD_BANDWIDTH_SWEEP_GBPS.map(|gbps| config.with_ssd_bandwidth(gbps * 1e9));
    sweep(&eval_batches(), &configs, &PolicyKind::COMPARED)
}

/// Figure 18: performance (normalised to ideal) as the SSD bandwidth grows,
/// with a PCIe 4.0 x16 interconnect.
pub fn fig18(grid: &Grid) -> Table {
    let mut table = Table::new(
        "Figure 18: normalized performance vs SSD bandwidth (PCIe 4.0)",
        &["model", "ssd_gbps", "policy", "normalized_performance"],
    );
    for cell in fig18_cells() {
        let report = grid.report(&cell);
        table.push_row(vec![
            cell.model.name().to_string(),
            format!("{:.1}", cell.config.ssd_read_bytes_per_sec / 1e9),
            report.policy.clone(),
            format!("{:.3}", report.normalized_performance()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 19: profiling error robustness
// ---------------------------------------------------------------------------

/// The kernel-timing error levels of §7.6.
pub const PROFILING_ERRORS: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];

/// Figure 19's cells: G10 on every model, planned at each error level; the
/// 0% cell is the error-free baseline that Figures 11 and 15 read too.
fn fig19_cells() -> Vec<Cell> {
    let baselines = eval_cells(&[PolicyKind::G10Full]);
    let errors = |cell| {
        PROFILING_ERRORS.map(|planning_error| Cell {
            planning_error,
            ..cell
        })
    };
    baselines.into_iter().flat_map(errors).collect()
}

/// Figure 19: G10 performance when the scheduler plans against kernel timings
/// perturbed by random error, normalised to the error-free plan.
pub fn fig19(grid: &Grid) -> Table {
    let mut table = Table::new(
        "Figure 19: G10 performance under kernel timing prediction errors",
        &["model", "error_pct", "normalized_to_no_error"],
    );
    for cell in fig19_cells() {
        let baseline = grid.report(&Cell {
            planning_error: 0.0,
            ..cell
        });
        table.push_row(vec![
            cell.model.name().to_string(),
            format!("{:.0}", cell.planning_error * 100.0),
            format!(
                "{:.4}",
                baseline.total_time.as_secs_f64() / grid.report(&cell).total_time.as_secs_f64()
            ),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full-scale drivers are exercised by the `experiments` binary and
    // the integration tests; here we only check the cheap static tables.

    #[test]
    fn table2_lists_the_hardware() {
        let t = table2();
        assert!(t.len() >= 6);
        let rendered = t.render();
        assert!(rendered.contains("GPU memory"));
        assert!(rendered.contains("PCIe"));
    }

    #[test]
    fn cached_run_deduplicates_identical_cells() {
        let lab = Lab::default();
        let config = SystemConfig::table2().with_gpu_memory(48 << 20);
        let first = lab.run(ModelKind::TinyCnn, 16, PolicyKind::BaseUvm, &config);
        let second = lab.run(ModelKind::TinyCnn, 16, PolicyKind::BaseUvm, &config);
        assert_eq!(first, second, "cache must replay the identical report");
        let stats = lab.stats();
        assert_eq!(
            (stats.replayed, stats.memory_hits, stats.disk_hits),
            (1, 1, 0),
            "one replay, then a memory hit; a store-less Lab never hits disk"
        );
        // A different hardware fingerprint is a different cell.
        let other = lab.run(
            ModelKind::TinyCnn,
            16,
            PolicyKind::BaseUvm,
            &config.with_gpu_memory(47 << 20),
        );
        assert!(other.total_time >= first.total_time);
        assert_eq!(lab.stats().replayed, 2);
    }

    /// The grid's job list holds every cell its figures list, each once:
    /// 359 canonical cells and Figure 19's 20 perturbed ones, planning
    /// cells first.
    #[test]
    fn the_grid_runs_each_cell_once() {
        let jobs = job_list(&FIGURES);
        let keys: HashSet<CellKey> = jobs.iter().map(Cell::key).collect();
        let mut listed = FIGURES.iter().flat_map(|figure| (figure.cells)());
        assert!(keys.len() == jobs.len() && listed.all(|cell| keys.contains(&cell.key())));
        let perturbed = jobs.iter().filter(|cell| cell.planning_error != 0.0);
        assert_eq!((jobs.len(), perturbed.count()), (359 + 20, 20));
        let planning = jobs.iter().take_while(|cell| cell.selection().is_some());
        let rest = &jobs[planning.count()..];
        assert!(rest.iter().all(|cell| cell.selection().is_none()));
    }

    #[test]
    fn every_figure_parses_as_a_figure_command() {
        for figure in FIGURES {
            let args = crate::cli::parse(&[figure.name.to_string()]).expect("a figure parses");
            let command = args.map(|args| args.command);
            assert_eq!(command, Some(crate::cli::Command::Figure));
        }
    }

    #[test]
    fn multi_tables_cover_every_policy_and_job_deterministically() {
        let jobs = default_tenant_mix(&Lab::default(), 2);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "tenant-a");
        assert!(jobs[1].arrival > jobs[0].arrival);
        let policies = vec!["base-uvm".to_string(), "tensile".to_string()];
        let config = SystemConfig::table2().with_gpu_memory(64 << 20);
        let tables = multi_tenant_tables(&jobs, &policies, &config).expect("mix runs");
        assert_eq!(tables.len(), 2);
        let (throughput, slowdown) = (&tables[0], &tables[1]);
        assert_eq!(throughput.len(), policies.len());
        assert_eq!(slowdown.len(), policies.len() * jobs.len());
        // The CSVs the CLI writes must be byte-identical run to run.
        let again = multi_tenant_tables(&jobs, &policies, &config).expect("mix runs");
        assert_eq!(throughput.to_csv(), again[0].to_csv());
        assert_eq!(slowdown.to_csv(), again[1].to_csv());
        // An unknown policy fails the whole run with the typed error.
        let err = multi_tenant_tables(&jobs, &["no-such-design".to_string()], &config).unwrap_err();
        assert!(matches!(err, SimError::UnknownPolicy { .. }));
    }

    #[test]
    fn stress_mix_cycles_priorities_and_staggers_arrivals() {
        let jobs = stress_tenant_mix(4);
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].priority, 4);
        assert_eq!(jobs[3].priority, 4, "pattern cycles past its length");
        assert!(jobs.windows(2).all(|w| w[0].arrival < w[1].arrival));
        assert!(jobs.iter().all(|job| job.quota_bytes.is_some()));
    }

    #[test]
    fn sweep_constants_are_ordered() {
        assert!(SSD_BANDWIDTH_SWEEP_GBPS.windows(2).all(|w| w[0] < w[1]));
        assert!(PROFILING_ERRORS.windows(2).all(|w| w[0] < w[1]));
        assert!(HOST_SWEEP_GIB.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(characterization_models().len(), 4);
    }

    /// The planner's channel ledgers hold whole bytes per 250 µs bin.  On
    /// every rate the figures plan with, `rate × bin width` is already a
    /// whole number, so the ledgers' rounding never changes a plan.
    #[test]
    fn planning_rates_give_whole_bytes_per_bin() {
        use g10_core::bandwidth::BandwidthTimeline;
        use g10_core::config::Destination;

        let bin = BandwidthTimeline::default_bin_width().as_secs_f64();
        let mut configs = vec![SystemConfig::table2()];
        configs.extend(SSD_BANDWIDTH_SWEEP_GBPS.map(|gbps| {
            SystemConfig::table2()
                .with_ssd_bandwidth(gbps * 1e9)
                .with_pcie_bandwidth(32e9)
        }));
        for config in configs {
            for dest in [Destination::Ssd, Destination::Host] {
                let per_bin = config.evict_bytes_per_sec(dest) * bin;
                assert_eq!(per_bin.fract(), 0.0, "{dest:?}: {per_bin} bytes per bin");
            }
        }
    }
}
