//! Experiment drivers: one function per table / figure of the paper.
//!
//! Every driver returns a [`Table`] (or a set of tables) containing the same
//! rows / series the paper reports, so the `experiments` binary can print
//! them and write CSV files under `results/`.  A driver that builds
//! workloads or replays cells takes the [`Lab`] that owns those caches.

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
use std::sync::{Arc, OnceLock};

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

/// perfbench's entry point: [`figure_drivers`] on the process-default
/// `Lab`.  Goes with ROADMAP item 4b.
pub fn figure_set() -> Vec<(&'static str, FigureDriver<'static>)> {
    figure_drivers(default_lab())
}

fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// One lazy figure driver from [`figure_drivers`]: call it (once) to
/// replay the figure's cells and get its tables.
pub type FigureDriver<'a> = Box<dyn FnOnce() -> Vec<Table> + 'a>;

/// The names of [`figure_drivers`], in presentation order.
pub(crate) const FIGURES: [&str; 15] = [
    "table1", "table2", "fig2", "fig3", "fig4", "fig11", "fig12", "fig13", "fig14", "lifetime",
    "fig15", "fig16", "fig17", "fig18", "fig19",
];

/// The full evaluation grid as named lazy drivers on `lab`, in
/// presentation order.
///
/// Shared by the `experiments all` command and the perf-trajectory
/// snapshot so "the grid" means the same cell set everywhere.  Multi-table
/// figures (2 and 4) yield one table per model; the Figure 11–14 +
/// lifetime drivers share one [`EndToEndRuns::collect`] through a lazy
/// slot, exactly as the binary always ran them.
pub fn figure_drivers(lab: &Lab) -> Vec<(&'static str, FigureDriver<'_>)> {
    let shared: Arc<OnceLock<EndToEndRuns>> = Arc::new(OnceLock::new());
    let end_to_end = |f: fn(&EndToEndRuns) -> Table| -> FigureDriver<'_> {
        let shared = Arc::clone(&shared);
        Box::new(move || vec![f(shared.get_or_init(|| EndToEndRuns::collect(lab)))])
    };
    vec![
        ("table1", Box::new(move || vec![table1(lab)])),
        ("table2", Box::new(|| vec![table2()])),
        ("fig2", Box::new(move || fig2(lab))),
        ("fig3", Box::new(move || vec![fig3(lab)])),
        ("fig4", Box::new(move || fig4(lab))),
        ("fig11", end_to_end(fig11)),
        ("fig12", end_to_end(fig12)),
        ("fig13", end_to_end(fig13)),
        ("fig14", end_to_end(fig14)),
        ("lifetime", end_to_end(lifetime)),
        ("fig15", Box::new(move || vec![fig15(lab)])),
        ("fig16", Box::new(move || vec![fig16(lab)])),
        ("fig17", Box::new(move || vec![fig17(lab)])),
        ("fig18", Box::new(move || vec![fig18(lab)])),
        ("fig19", Box::new(move || vec![fig19(lab)])),
    ]
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
        (
            model.name().to_string(),
            model.eval_batch(),
            workload.graph.num_kernels(),
            workload.graph.num_tensors(),
            workload.graph.total_tensor_bytes() as f64 / GIB,
            workload.memory_ratio(&config) * 100.0,
        )
    });
    for (name, batch, kernels, tensors, gib, ratio) in rows {
        table.push_row(vec![
            name,
            batch.to_string(),
            kernels.to_string(),
            tensors.to_string(),
            format!("{gib:.1}"),
            format!("{ratio:.1}"),
        ]);
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

/// All end-to-end runs behind Figures 11–14 and the §7.7 lifetime analysis.
pub struct EndToEndRuns {
    /// Per model: its footprint over the Table 2 GPU capacity, and the
    /// reports of every Figure-11 policy plus the Ideal run (`Arc`-shared
    /// with the run cache).
    pub runs: Vec<(ModelKind, f64, Vec<Arc<SimReport>>)>,
}

impl EndToEndRuns {
    /// Runs every model at its evaluation batch size under every design.
    ///
    /// The grid is flattened to one (model × policy) cell list before the
    /// parallel sweep — 35 independently scheduled cells instead of five
    /// serial seven-policy loops — so wall-clock follows the slowest *cell*
    /// rather than the slowest *model*.  Cells route through [`Lab::run`], so
    /// any cell another figure already replayed is free.
    ///
    /// The list is policy-major with the G10 variants first.  A model's
    /// G10-GDS, G10-Host and G10 plans share one eviction selection, so
    /// model-major order would hand two workers the same model's G10 cells
    /// and leave one waiting on the other's selection; this order hands
    /// them different models, and the cheap non-G10 cells fill the tail.
    /// The reports are regrouped per model in presentation order.
    pub fn collect(lab: &Lab) -> Self {
        let config = SystemConfig::table2();
        let mut policies = vec![PolicyKind::Ideal];
        policies.extend(PolicyKind::FIGURE11);
        let mut order = policies.clone();
        order.sort_by_key(|policy| policy.scheduler_variant().is_none());
        let models = ModelKind::PAPER_MODELS;
        let cells: Vec<(ModelKind, PolicyKind)> = order
            .iter()
            .flat_map(|&policy| models.iter().map(move |&model| (model, policy)))
            .collect();
        let reports = parallel_map(cells, |(model, policy)| {
            lab.run(*model, model.eval_batch(), *policy, &config)
        });
        let report = |m: usize, policy: &PolicyKind| {
            let p = order
                .iter()
                .position(|o| o == policy)
                .expect("every policy is run");
            Arc::clone(&reports[p * models.len() + m])
        };
        let runs = models
            .iter()
            .enumerate()
            .map(|(m, model)| {
                (
                    *model,
                    lab.workload(*model, model.eval_batch())
                        .memory_ratio(&config),
                    policies.iter().map(|policy| report(m, policy)).collect(),
                )
            })
            .collect();
        EndToEndRuns { runs }
    }

    fn policies(&self) -> Vec<String> {
        self.runs
            .first()
            .map(|(_, _, reports)| reports.iter().map(|r| r.policy.clone()).collect())
            .unwrap_or_default()
    }
}

/// Figure 11: end-to-end training throughput normalised to Ideal.
pub fn fig11(data: &EndToEndRuns) -> Table {
    let mut header = vec![
        "model".to_string(),
        "batch".to_string(),
        "memory_pct".to_string(),
    ];
    header.extend(data.policies());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Figure 11: normalized training performance (1.0 = ideal)",
        &header_refs,
    );
    for (model, memory_ratio, reports) in &data.runs {
        let mut row = vec![
            model.name().to_string(),
            model.eval_batch().to_string(),
            format!("{:.1}", memory_ratio * 100.0),
        ];
        for report in reports {
            row.push(format!("{:.3}", report.normalized_performance()));
        }
        table.push_row(row);
    }
    table
}

/// Figure 12: execution-time breakdown (overlapped compute vs stall).
pub fn fig12(data: &EndToEndRuns) -> Table {
    let mut table = Table::new(
        "Figure 12: execution time breakdown",
        &["model", "policy", "compute_and_transfer_pct", "stall_pct"],
    );
    for (model, _, reports) in &data.runs {
        for report in reports {
            if report.policy == "Ideal" || report.policy == "G10-GDS" || report.policy == "G10-Host"
            {
                continue;
            }
            table.push_row(vec![
                model.name().to_string(),
                report.policy.clone(),
                pct(report.overlap_fraction()),
                pct(report.stall_fraction()),
            ]);
        }
    }
    table
}

/// Figure 13: distribution of per-kernel slowdowns.
pub fn fig13(data: &EndToEndRuns) -> Table {
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
    for (model, _, reports) in &data.runs {
        for report in reports {
            if report.policy == "Ideal" || report.policy == "G10-GDS" || report.policy == "G10-Host"
            {
                continue;
            }
            table.push_row(vec![
                model.name().to_string(),
                report.policy.clone(),
                pct(report.fraction_of_kernels_slower_than(1.001)),
                format!("{:.2}", report.slowdown_quantile(0.50)),
                format!("{:.2}", report.slowdown_quantile(0.90)),
                format!("{:.2}", report.slowdown_quantile(0.99)),
                format!("{:.2}", report.slowdown_quantile(1.0)),
            ]);
        }
    }
    table
}

/// Figure 14: tensor migration traffic breakdown.
pub fn fig14(data: &EndToEndRuns) -> Table {
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
    for (model, _, reports) in &data.runs {
        for report in reports {
            if report.policy == "Ideal" {
                continue;
            }
            table.push_row(vec![
                model.name().to_string(),
                report.policy.clone(),
                format!("{:.1}", report.traffic.ssd_total() as f64 / GB),
                format!("{:.1}", report.traffic.host_total() as f64 / GB),
                format!("{:.1}", report.traffic.gpu_to_ssd_bytes as f64 / GB),
                format!("{:.1}", report.traffic.ssd_to_gpu_bytes as f64 / GB),
            ]);
        }
    }
    table
}

/// §7.7: SSD write traffic and projected device lifetime.
pub fn lifetime(data: &EndToEndRuns) -> Table {
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
    for (model, _, reports) in &data.runs {
        let g10_writes = reports
            .iter()
            .find(|r| r.policy == "G10")
            .map(|r| r.ssd_write_bytes())
            .unwrap_or(0)
            .max(1);
        for report in reports {
            if !matches!(report.policy.as_str(), "G10" | "DeepUM+" | "FlashNeuron") {
                continue;
            }
            let write_rate = report.ssd_write_bytes() as f64 / report.total_time.as_secs_f64();
            table.push_row(vec![
                model.name().to_string(),
                report.policy.clone(),
                format!("{:.1}", report.ssd_write_bytes() as f64 / GB),
                format!("{:.2}", write_rate / GB),
                format!("{:.1}", endurance.lifetime_years(write_rate)),
                format!("{:.2}", report.ssd_write_bytes() as f64 / g10_writes as f64),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 15: varying batch size
// ---------------------------------------------------------------------------

/// Figure 15: training throughput as the batch size varies.
pub fn fig15(lab: &Lab) -> Table {
    let mut table = Table::new(
        "Figure 15: training throughput vs batch size",
        &["model", "batch", "unit", "policy", "throughput"],
    );
    let config = SystemConfig::table2();
    let mut specs = Vec::new();
    for model in ModelKind::PAPER_MODELS {
        for batch in model.batch_sweep() {
            specs.push((model, batch));
        }
    }
    let rows = parallel_map(specs, |(model, batch)| {
        let mut rows = Vec::new();
        for policy in [
            PolicyKind::Ideal,
            PolicyKind::BaseUvm,
            PolicyKind::FlashNeuron,
            PolicyKind::DeepUmPlus,
            PolicyKind::G10Full,
        ] {
            let report = lab.run(*model, *batch, policy, &config);
            rows.push(vec![
                model.name().to_string(),
                batch.to_string(),
                model.throughput_unit().to_string(),
                report.policy.clone(),
                format!("{:.2}", report.throughput()),
            ]);
        }
        rows
    });
    for group in rows {
        for row in group {
            table.push_row(row);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Figures 16 and 17: varying host memory capacity
// ---------------------------------------------------------------------------

/// The host-memory capacities swept in §7.4, in GiB.
pub const HOST_SWEEP_GIB: [u64; 6] = [0, 16, 32, 64, 128, 256];

/// Figure 16: G10 execution time as the host memory capacity varies.
pub fn fig16(lab: &Lab) -> Table {
    let mut table = Table::new(
        "Figure 16: G10 execution time vs host memory capacity",
        &["model", "batch", "host_gib", "execution_time_s"],
    );
    let batches: Vec<(ModelKind, Vec<u64>)> = vec![
        (ModelKind::Bert, vec![256, 384, 512, 640]),
        (ModelKind::Vit, vec![768, 1024, 1280, 1536]),
        (ModelKind::InceptionV3, vec![512, 1024, 1280, 1536]),
        (ModelKind::ResNet152, vec![768, 1024, 1280, 1536]),
        (ModelKind::SENet154, vec![256, 512, 768, 1024]),
    ];
    let mut specs = Vec::new();
    for (model, list) in &batches {
        for &batch in list {
            specs.push((*model, batch));
        }
    }
    let rows = parallel_map(specs, |(model, batch)| {
        let mut rows = Vec::new();
        for host_gib in HOST_SWEEP_GIB {
            let config = SystemConfig::table2().with_host_memory(host_gib << 30);
            let report = lab.run(*model, *batch, PolicyKind::G10Full, &config);
            rows.push(vec![
                model.name().to_string(),
                batch.to_string(),
                host_gib.to_string(),
                format!("{:.2}", report.total_time.as_secs_f64()),
            ]);
        }
        rows
    });
    for group in rows {
        for row in group {
            table.push_row(row);
        }
    }
    table
}

/// Figure 17: G10 vs DeepUM+ vs FlashNeuron across host memory capacities.
pub fn fig17(lab: &Lab) -> Table {
    let mut table = Table::new(
        "Figure 17: execution time vs host memory capacity (comparison)",
        &["model", "batch", "host_gib", "policy", "execution_time_s"],
    );
    let specs: Vec<(ModelKind, u64)> = vec![(ModelKind::Vit, 1024), (ModelKind::InceptionV3, 1280)];
    let rows = parallel_map(specs, |(model, batch)| {
        let mut rows = Vec::new();
        for host_gib in [0u64, 16, 32, 64, 256] {
            let config = SystemConfig::table2().with_host_memory(host_gib << 30);
            for policy in [
                PolicyKind::DeepUmPlus,
                PolicyKind::FlashNeuron,
                PolicyKind::G10Full,
            ] {
                let report = lab.run(*model, *batch, policy, &config);
                rows.push(vec![
                    model.name().to_string(),
                    batch.to_string(),
                    host_gib.to_string(),
                    report.policy.clone(),
                    format!("{:.2}", report.total_time.as_secs_f64()),
                ]);
            }
        }
        rows
    });
    for group in rows {
        for row in group {
            table.push_row(row);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 18: varying SSD bandwidth
// ---------------------------------------------------------------------------

/// The SSD bandwidths swept in §7.5, in GB/s (1, 2, 3, 4, 5 stacked SSDs).
pub const SSD_BANDWIDTH_SWEEP_GBPS: [f64; 5] = [6.4, 12.8, 19.2, 25.6, 32.0];

/// Figure 18: performance (normalised to ideal) as the SSD bandwidth grows,
/// with a PCIe 4.0 x16 interconnect.
///
/// Each (model, SSD rate) point is one parallel item: every point plans G10
/// afresh, and 25 items keep two workers busy where five per-model items
/// left one idle behind the slowest model.  Rows keep model-major order.
pub fn fig18(lab: &Lab) -> Table {
    let mut table = Table::new(
        "Figure 18: normalized performance vs SSD bandwidth (PCIe 4.0)",
        &["model", "ssd_gbps", "policy", "normalized_performance"],
    );
    let points: Vec<(ModelKind, f64)> = ModelKind::PAPER_MODELS
        .iter()
        .flat_map(|&model| SSD_BANDWIDTH_SWEEP_GBPS.map(|gbps| (model, gbps)))
        .collect();
    let rows = parallel_map(points, |&(model, gbps)| {
        let config = SystemConfig::table2()
            .with_ssd_bandwidth(gbps * 1e9)
            .with_pcie_bandwidth(32e9);
        PolicyKind::COMPARED.map(|policy| {
            let report = lab.run(model, model.eval_batch(), policy, &config);
            vec![
                model.name().to_string(),
                format!("{gbps:.1}"),
                report.policy.clone(),
                format!("{:.3}", report.normalized_performance()),
            ]
        })
    });
    for row in rows.into_iter().flatten() {
        table.push_row(row);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 19: profiling error robustness
// ---------------------------------------------------------------------------

/// The kernel-timing error levels of §7.6.
pub const PROFILING_ERRORS: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];

/// Figure 19: G10 performance when the scheduler plans against kernel timings
/// perturbed by random error, normalised to the error-free plan.
///
/// Each (model, error) point is one parallel item, 25 in all, for the same
/// reason as [`fig18`]: every perturbed trace plans G10 from scratch.  The
/// error-free baselines are fetched first, one per model.  Rows keep
/// model-major order.
pub fn fig19(lab: &Lab) -> Table {
    let mut table = Table::new(
        "Figure 19: G10 performance under kernel timing prediction errors",
        &["model", "error_pct", "normalized_to_no_error"],
    );
    let config = SystemConfig::table2();
    let models = ModelKind::PAPER_MODELS;
    // The error-free baseline is the same cell Figure 11 and Figure 15
    // already replay; the perturbed-trace runs below plan against noisy
    // timings and are not cacheable by the grid key.
    let baselines = parallel_map(models.to_vec(), |model| {
        lab.run(*model, model.eval_batch(), PolicyKind::G10Full, &config)
    });
    let points: Vec<(usize, f64)> = (0..models.len())
        .flat_map(|m| PROFILING_ERRORS.map(|error| (m, error)))
        .collect();
    let rows = parallel_map(points, |&(m, error)| {
        let model = models[m];
        let workload = lab.workload(model, model.eval_batch());
        let noisy = workload.trace.with_noise(error, 0xC0FFEE);
        let report = Experiment::new(&workload)
            .policy(PolicyKind::G10Full)
            .config(config)
            .planning_trace(&noisy)
            .run()
            .expect("built-in policies always resolve");
        vec![
            model.name().to_string(),
            format!("{:.0}", error * 100.0),
            format!(
                "{:.4}",
                baselines[m].total_time.as_secs_f64() / report.total_time.as_secs_f64()
            ),
        ]
    });
    for row in rows {
        table.push_row(row);
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

    #[test]
    fn figure_names_follow_the_drivers() {
        let lab = Lab::default();
        assert!(figure_drivers(&lab)
            .into_iter()
            .map(|(name, _)| name)
            .eq(FIGURES));
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
