//! Perf-trajectory snapshots: `BENCH_*.json` emission and comparison.
//!
//! `experiments bench snapshot` reruns the repo's three sub-linear
//! head-to-heads (planner, replay engine, workload pipeline — the pillars
//! of PRs 2–4) plus the full `experiments all` grid, and writes one
//! structured `BENCH_<n>.json` recording per-phase wall times, the
//! naive/indexed speedup ratios, and the grid's cell and cache counters.
//! `experiments bench compare` (wrapped by `scripts/bench-compare.sh`)
//! checks a fresh snapshot against the committed baseline and fails on
//! regression beyond a noise threshold, so "did the grid get slower?" is a
//! CI question, not an archaeology project.
//!
//! What is compared, and how strictly:
//!
//! * **Cell and CSV counts** — machine-independent; must match exactly.
//!   A dropped figure or a silently shrunken sweep fails loudly.
//! * **Naive/indexed speedup ratios** — mostly machine-independent; the
//!   fresh ratio must stay above `min_speedup_ratio` (default 0.4) of the
//!   baseline's.
//! * **Grid wall time** — machine-dependent; the fresh time must stay
//!   under `max_wall_ratio` (default 4.0) times the baseline's, a deliberately
//!   generous bound that still catches order-of-magnitude regressions.
//!   Per-phase times are recorded for trend browsing but not gated.

use crate::experiments::{self, run_cache_stats};
use crate::json::{obj, Json};
use crate::output::write_csv;
use crate::workload_pipeline::{
    build_workload, indexed_analysis_fingerprint, naive_analysis_fingerprint, WorkloadCase,
};
use g10_core::bandwidth::{BandwidthReservation, BandwidthTimeline};
use g10_core::config::SystemConfig;
use g10_core::eviction::{schedule_evictions_with, EvictionOptions};
use g10_core::naive::{NaiveBandwidthTimeline, NaiveMemoryTimeline};
use g10_core::prefetch::schedule_prefetches_with;
use g10_core::pressure::{MemoryTimeline, PressureTimeline};
use g10_core::vitality::VitalityAnalysis;
use g10_dnn::models::stress::StressGptConfig;
use g10_sim::{Experiment, PolicyKind, RuntimeOptions, VictimSelection, Workload};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema version of the `BENCH_*.json` document.
pub const SNAPSHOT_SCHEMA: u64 = 1;

/// Snapshot scale: `Default` is the per-push CI size; `Full` grows the
/// head-to-head stress workloads for the scheduled full-size run.  The
/// grid phase is the real, full `experiments all` grid in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotMode {
    /// ~2k-kernel head-to-heads; what `ci.yml` compares every push.
    Default,
    /// ~4k-kernel head-to-heads for the scheduled full-size workflow.
    Full,
}

impl SnapshotMode {
    fn label(self) -> &'static str {
        match self {
            SnapshotMode::Default => "default",
            SnapshotMode::Full => "full",
        }
    }

    fn stress_kernels(self) -> usize {
        match self {
            SnapshotMode::Default => 2_000,
            SnapshotMode::Full => 4_000,
        }
    }
}

/// One timed phase of the snapshot.
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    /// Phase name (`"planner/naive"`, `"grid"`, …).
    pub name: String,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
}

/// The grid phase's outcome counters.
#[derive(Debug, Clone, Default)]
pub struct GridStats {
    /// Simulation cells actually replayed.
    pub cells_replayed: u64,
    /// Lookups served by the in-memory run cache (grid deduplication).
    pub memory_hits: u64,
    /// First touches served from the persistent on-disk store.
    pub disk_hits: u64,
    /// Grid wall time in milliseconds.
    pub wall_ms: f64,
    /// CSV files written.
    pub csv_files: u64,
}

/// One perf-trajectory snapshot, ready to serialise as `BENCH_<n>.json`.
#[derive(Debug, Clone)]
pub struct BenchSnapshot {
    /// Commit hash (from `GITHUB_SHA` or `git rev-parse HEAD`).
    pub commit: String,
    /// Snapshot mode label (`"default"` / `"full"`).
    pub mode: String,
    /// Every timed phase, in execution order.
    pub phases: Vec<PhaseTiming>,
    /// Naive/indexed wall-time ratios per pillar.
    pub speedups: Vec<(String, f64)>,
    /// The `experiments all` grid counters.
    pub grid: GridStats,
}

impl BenchSnapshot {
    /// Serialises to the `BENCH_*.json` document.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("schema", Json::Num(SNAPSHOT_SCHEMA as f64)),
            ("commit", Json::Str(self.commit.clone())),
            ("mode", Json::Str(self.mode.clone())),
            (
                "grid",
                obj(vec![
                    ("cells_replayed", Json::Num(self.grid.cells_replayed as f64)),
                    ("memory_hits", Json::Num(self.grid.memory_hits as f64)),
                    ("disk_hits", Json::Num(self.grid.disk_hits as f64)),
                    ("csv_files", Json::Num(self.grid.csv_files as f64)),
                    ("wall_ms", Json::Num(round_ms(self.grid.wall_ms))),
                ]),
            ),
            (
                "speedups",
                Json::Obj(
                    self.speedups
                        .iter()
                        .map(|(name, ratio)| {
                            (name.clone(), Json::Num((ratio * 100.0).round() / 100.0))
                        })
                        .collect(),
                ),
            ),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("name", Json::Str(p.name.clone())),
                                ("wall_ms", Json::Num(round_ms(p.wall_ms))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn round_ms(ms: f64) -> f64 {
    (ms * 1000.0).round() / 1000.0
}

fn commit_hash() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64() * 1e3)
}

/// Min-of-3 wall time: the head-to-head ratios feed a CI gate, so each
/// side takes its best of three runs to shed scheduler noise (the same
/// min-of-N discipline the scaling tests use).
fn best_of_3_ms<T>(f: impl Fn() -> T) -> (T, f64) {
    let (mut value, mut best) = time_ms(&f);
    for _ in 0..2 {
        let (v, ms) = time_ms(&f);
        if ms < best {
            best = ms;
            value = v;
        }
    }
    (value, best)
}

/// The planner pipeline on one timeline family (the `bench_planner`
/// head-to-head, sized for the snapshot).  `schedule_evictions_with` skips
/// the eviction-order memo, so each of the best-of-3 runs plans from
/// scratch.
fn plan<P: PressureTimeline, B: BandwidthReservation>(
    analysis: &VitalityAnalysis,
    trace: &g10_dnn::trace::KernelTrace,
    config: &SystemConfig,
) -> usize {
    let mut schedule =
        schedule_evictions_with::<P, B>(analysis, trace, config, EvictionOptions::both());
    let prefetches = schedule_prefetches_with(
        analysis,
        trace,
        config,
        &schedule.decisions,
        &mut schedule.pressure,
    );
    schedule.decisions.len() + prefetches.len()
}

/// Collects one snapshot: the three naive-vs-indexed head-to-heads plus
/// the full grid, writing the grid's CSVs under `<out_dir>/results/`.
///
/// Every head-to-head asserts the two families still agree before timing
/// is trusted, so a snapshot can never trade correctness for speed
/// silently.
pub fn collect(mode: SnapshotMode, out_dir: &Path) -> BenchSnapshot {
    let mut phases = Vec::new();
    let mut speedups = Vec::new();
    let mut head_to_head = |pillar: &str, naive: f64, indexed: f64| {
        phases.push(PhaseTiming {
            name: format!("{pillar}/naive"),
            wall_ms: naive,
        });
        phases.push(PhaseTiming {
            name: format!("{pillar}/indexed"),
            wall_ms: indexed,
        });
        speedups.push((pillar.to_string(), naive / indexed.max(1e-9)));
    };

    // Shared stress workload for the planner and replay pillars, on a GPU
    // sized to half the peak live bytes (deep oversubscription) as in the
    // criterion benches.
    let stress_cfg = StressGptConfig::with_target_kernels(mode.stress_kernels());
    let workload = Workload::stress(2, &stress_cfg);
    let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
    let config = SystemConfig::table2().with_gpu_memory(analysis.peak_live_bytes() / 2);

    // Pillar 1 (PR 2): the migration planner.
    let (indexed_plan, indexed_ms) = best_of_3_ms(|| {
        plan::<MemoryTimeline, BandwidthTimeline>(&analysis, &workload.trace, &config)
    });
    let (naive_plan, naive_ms) = best_of_3_ms(|| {
        plan::<NaiveMemoryTimeline, NaiveBandwidthTimeline>(&analysis, &workload.trace, &config)
    });
    assert_eq!(indexed_plan, naive_plan, "planner families diverged");
    head_to_head("planner", naive_ms, indexed_ms);

    // Pillar 2 (PR 3): the replay engine's victim selection.
    let replay = |selection: VictimSelection| {
        Experiment::new(&workload)
            .policy(PolicyKind::BaseUvm)
            .config(config)
            .options(RuntimeOptions {
                victim_selection: selection,
                ..RuntimeOptions::default()
            })
            .run()
            .expect("built-in policies resolve")
    };
    let (indexed_report, indexed_ms) = best_of_3_ms(|| replay(VictimSelection::Indexed));
    let (naive_report, naive_ms) = best_of_3_ms(|| replay(VictimSelection::NaiveScan));
    assert_eq!(indexed_report, naive_report, "replay families diverged");
    head_to_head("replay", naive_ms, indexed_ms);

    // Pillar 3 (PR 4): the workload build + analysis pipeline.
    let case = WorkloadCase::stress(mode.stress_kernels());
    let (graph, trace) = build_workload(&case);
    let (indexed_fp, indexed_ms) = best_of_3_ms(|| indexed_analysis_fingerprint(&graph, &trace));
    let (naive_fp, naive_ms) = best_of_3_ms(|| naive_analysis_fingerprint(&graph, &trace));
    assert_eq!(indexed_fp, naive_fp, "workload pipelines diverged");
    head_to_head("workload", naive_ms, indexed_ms);

    // The grid: the full `experiments all` driver set, CSVs included.
    let results_dir = out_dir.join("results");
    let before = run_cache_stats();
    let mut csv_files = 0u64;
    let ((), grid_ms) = time_ms(|| {
        for (name, driver) in experiments::figure_set() {
            let tables = driver();
            let single = tables.len() == 1;
            for (i, table) in tables.iter().enumerate() {
                let file = if single {
                    name.to_string()
                } else {
                    format!("{name}_{i}")
                };
                if let Err(err) = write_csv(table, &results_dir, &file) {
                    eprintln!("warning: could not write {file}.csv: {err}");
                } else {
                    csv_files += 1;
                }
            }
        }
    });
    let grid_delta = run_cache_stats().since(&before);
    phases.push(PhaseTiming {
        name: "grid".to_string(),
        wall_ms: grid_ms,
    });

    BenchSnapshot {
        commit: commit_hash(),
        mode: mode.label().to_string(),
        phases,
        speedups,
        grid: GridStats {
            cells_replayed: grid_delta.replayed,
            memory_hits: grid_delta.memory_hits,
            disk_hits: grid_delta.disk_hits,
            wall_ms: grid_ms,
            csv_files,
        },
    }
}

/// The next free `BENCH_<n>.json` index in `dir` (0 for a fresh directory).
pub fn next_snapshot_index(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let index = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            index.parse::<u64>().ok()
        })
        .max()
        .map_or(0, |max| max + 1)
}

/// Writes the snapshot as the next `BENCH_<n>.json` under `out_dir` and
/// returns the path.
///
/// # Errors
///
/// Returns the I/O error if the directory or file cannot be written.
pub fn write_snapshot(snapshot: &BenchSnapshot, out_dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("BENCH_{}.json", next_snapshot_index(out_dir)));
    std::fs::write(&path, snapshot.to_json().render())?;
    Ok(path)
}

/// Comparison thresholds; see the module docs for what each gate means.
#[derive(Debug, Clone, Copy)]
pub struct CompareOptions {
    /// Minimum fresh/baseline ratio each naive-vs-indexed speedup must keep.
    pub min_speedup_ratio: f64,
    /// Maximum fresh/baseline ratio the grid wall time may reach.
    pub max_wall_ratio: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            min_speedup_ratio: 0.4,
            max_wall_ratio: 4.0,
        }
    }
}

/// The verdict of one snapshot comparison.
#[derive(Debug, Clone, Default)]
pub struct CompareOutcome {
    /// Human-readable lines for checks that passed.
    pub passes: Vec<String>,
    /// Human-readable lines for checks that failed (empty = regression-free).
    pub failures: Vec<String>,
}

impl CompareOutcome {
    /// `true` if no check failed.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn num_at(doc: &Json, path: &str, failures: &mut Vec<String>, which: &str) -> Option<f64> {
    let value = doc.path(path).and_then(Json::as_f64);
    if value.is_none() {
        failures.push(format!(
            "{which} snapshot is missing numeric field '{path}'"
        ));
    }
    value
}

/// Compares a fresh snapshot against the committed baseline.
pub fn compare(baseline: &Json, fresh: &Json, opts: &CompareOptions) -> CompareOutcome {
    let mut outcome = CompareOutcome::default();

    // Structural gates: schema and mode must match exactly, else the
    // numbers are not comparable at all.
    for (field, label) in [("schema", "schema version"), ("mode", "snapshot mode")] {
        let base = baseline.get(field);
        let fresh_value = fresh.get(field);
        if base.is_none() || fresh_value.is_none() || base != fresh_value {
            outcome.failures.push(format!(
                "{label} mismatch: baseline {base:?} vs fresh {fresh_value:?}"
            ));
        }
    }

    // Count gates: exact equality.
    for path in ["grid.cells_replayed", "grid.csv_files"] {
        let (base, fresh_value) = (
            num_at(baseline, path, &mut outcome.failures, "baseline"),
            num_at(fresh, path, &mut outcome.failures, "fresh"),
        );
        if let (Some(base), Some(fresh_value)) = (base, fresh_value) {
            if base == fresh_value {
                outcome
                    .passes
                    .push(format!("{path}: {fresh_value} (unchanged)"));
            } else {
                outcome.failures.push(format!(
                    "{path} changed: baseline {base} vs fresh {fresh_value} \
                     (a dropped figure or shrunken sweep?)"
                ));
            }
        }
    }

    // Speedup gates: every pillar in the baseline must still be present
    // and within the noise threshold.
    if let Some(entries) = baseline.get("speedups").and_then(Json::as_obj) {
        for (pillar, base_value) in entries {
            let Some(base) = base_value.as_f64() else {
                outcome
                    .failures
                    .push(format!("baseline speedup '{pillar}' is not a number"));
                continue;
            };
            let path = format!("speedups.{pillar}");
            let Some(fresh_value) = fresh.path(&path).and_then(Json::as_f64) else {
                outcome
                    .failures
                    .push(format!("fresh snapshot is missing speedup '{pillar}'"));
                continue;
            };
            let floor = base * opts.min_speedup_ratio;
            if fresh_value >= floor {
                outcome.passes.push(format!(
                    "{path}: {fresh_value:.2}x (baseline {base:.2}x, floor {floor:.2}x)"
                ));
            } else {
                outcome.failures.push(format!(
                    "{path} regressed: {fresh_value:.2}x vs baseline {base:.2}x \
                     (floor {floor:.2}x at ratio {})",
                    opts.min_speedup_ratio
                ));
            }
        }
    } else {
        outcome
            .failures
            .push("baseline snapshot has no 'speedups' object".to_string());
    }

    // Wall-time gate: generous, machine-variance-tolerant ceiling.
    let (base, fresh_value) = (
        num_at(baseline, "grid.wall_ms", &mut outcome.failures, "baseline"),
        num_at(fresh, "grid.wall_ms", &mut outcome.failures, "fresh"),
    );
    if let (Some(base), Some(fresh_value)) = (base, fresh_value) {
        let ceiling = base * opts.max_wall_ratio;
        if fresh_value <= ceiling {
            outcome.passes.push(format!(
                "grid.wall_ms: {fresh_value:.0} (baseline {base:.0}, ceiling {ceiling:.0})"
            ));
        } else {
            outcome.failures.push(format!(
                "grid wall time regressed: {fresh_value:.0} ms vs baseline {base:.0} ms \
                 (ceiling {ceiling:.0} ms at ratio {})",
                opts.max_wall_ratio
            ));
        }
    }

    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_json(cells: u64, csvs: u64, planner: f64, wall: f64) -> Json {
        obj(vec![
            ("schema", Json::Num(SNAPSHOT_SCHEMA as f64)),
            ("commit", Json::Str("test".to_string())),
            ("mode", Json::Str("default".to_string())),
            (
                "grid",
                obj(vec![
                    ("cells_replayed", Json::Num(cells as f64)),
                    ("memory_hits", Json::Num(56.0)),
                    ("disk_hits", Json::Num(0.0)),
                    ("csv_files", Json::Num(csvs as f64)),
                    ("wall_ms", Json::Num(wall)),
                ]),
            ),
            (
                "speedups",
                obj(vec![
                    ("planner", Json::Num(planner)),
                    ("replay", Json::Num(5.0)),
                    ("workload", Json::Num(5.0)),
                ]),
            ),
            ("phases", Json::Arr(vec![])),
        ])
    }

    #[test]
    fn identical_snapshots_compare_clean() {
        let base = snapshot_json(359, 24, 20.0, 3000.0);
        let outcome = compare(&base, &base, &CompareOptions::default());
        assert!(outcome.is_ok(), "failures: {:?}", outcome.failures);
        assert!(!outcome.passes.is_empty());
    }

    #[test]
    fn noise_within_thresholds_passes() {
        let base = snapshot_json(359, 24, 20.0, 3000.0);
        let fresh = snapshot_json(359, 24, 9.0, 11_000.0);
        assert!(compare(&base, &fresh, &CompareOptions::default()).is_ok());
    }

    #[test]
    fn regressions_fail_each_gate() {
        let base = snapshot_json(359, 24, 20.0, 3000.0);
        for (fresh, expect) in [
            (snapshot_json(358, 24, 20.0, 3000.0), "cells_replayed"),
            (snapshot_json(359, 23, 20.0, 3000.0), "csv_files"),
            (snapshot_json(359, 24, 2.0, 3000.0), "speedups.planner"),
            (snapshot_json(359, 24, 20.0, 50_000.0), "wall time"),
        ] {
            let outcome = compare(&base, &fresh, &CompareOptions::default());
            assert!(
                outcome.failures.iter().any(|f| f.contains(expect)),
                "expected a '{expect}' failure, got {:?}",
                outcome.failures
            );
        }
    }

    #[test]
    fn mode_and_schema_mismatches_fail() {
        let base = snapshot_json(359, 24, 20.0, 3000.0);
        let mut fresh = snapshot_json(359, 24, 20.0, 3000.0);
        if let Json::Obj(entries) = &mut fresh {
            entries[2].1 = Json::Str("full".to_string());
        }
        let outcome = compare(&base, &fresh, &CompareOptions::default());
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.contains("snapshot mode mismatch")));
    }

    #[test]
    fn missing_fields_are_reported_not_panicked() {
        let base = snapshot_json(359, 24, 20.0, 3000.0);
        let outcome = compare(&base, &Json::Obj(vec![]), &CompareOptions::default());
        assert!(!outcome.is_ok());
    }

    #[test]
    fn snapshot_indices_increment_past_the_maximum() {
        let dir = std::env::temp_dir().join("g10_bench_trajectory_index_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_snapshot_index(&dir), 0);
        std::fs::write(dir.join("BENCH_0.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_7.json"), "{}").unwrap();
        std::fs::write(dir.join("not-a-snapshot.json"), "{}").unwrap();
        assert_eq!(next_snapshot_index(&dir), 8);
    }
}
