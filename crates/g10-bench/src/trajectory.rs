//! Perf-trajectory snapshots: `BENCH_*.json` emission and comparison.
//!
//! `experiments bench snapshot` reruns the full `experiments all` grid and
//! writes one structured `BENCH_<n>.json` recording the grid's wall time
//! and its cell, cache and CSV counters.  `experiments bench compare`
//! (wrapped by `scripts/bench-compare.sh`) checks a fresh snapshot against
//! the committed baseline and fails on regression beyond a noise
//! threshold, so "did the grid get slower?" is a CI question, not an
//! archaeology project.  Layer-by-layer costs of the current grid, replay
//! and serve paths are measured by `perfbench/`, not here.
//!
//! What is compared, and how strictly:
//!
//! * **Schema** — must match exactly, else the numbers are not comparable.
//! * **Cell and CSV counts** — machine-independent; must match exactly.
//!   A dropped figure or a silently shrunken sweep fails loudly.
//! * **Grid wall time** — machine-dependent; the fresh time must stay
//!   under `max_wall_ratio` (default 4.0) times the baseline's, a deliberately
//!   generous bound that still catches order-of-magnitude regressions.

use crate::experiments::{run_figures, FIGURES};
use crate::json::{obj, Json};
use crate::lab::Lab;
use crate::output::write_figure_csvs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema version of the `BENCH_*.json` document.  Schema 1 also carried
/// the naive-vs-indexed head-to-heads (`mode`, `speedups`, `phases`);
/// schema 2 holds the grid only.
pub const SNAPSHOT_SCHEMA: u64 = 2;

/// The grid phase's outcome counters.
#[derive(Debug, Clone, Default)]
pub struct GridStats {
    /// Simulation cells actually replayed.
    pub cells_replayed: u64,
    /// Lookups served by the in-memory run cache.  The grid deduplicates
    /// its cells before it runs them, so this reads 0; schema 2 keeps it.
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
    /// The `experiments all` grid counters.
    pub grid: GridStats,
}

impl BenchSnapshot {
    /// Serialises to the `BENCH_*.json` document.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("schema", Json::Num(SNAPSHOT_SCHEMA as f64)),
            ("commit", Json::Str(self.commit.clone())),
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

/// Collects one snapshot: the full grid on `lab`, writing its CSVs under
/// `<out_dir>/results/`.  The snapshot records `lab`'s counters, so `lab`
/// must be fresh: on a `Lab` that already holds cells, the grid's replays
/// would read as memory hits.
pub fn collect(lab: &Lab, out_dir: &Path) -> BenchSnapshot {
    // The full `experiments all` grid, CSVs included.
    let results_dir = out_dir.join("results");
    let mut csv_files = 0u64;
    let started = Instant::now();
    for (name, tables) in run_figures(lab, &FIGURES) {
        csv_files += write_figure_csvs(&tables, &results_dir, name);
    }
    let grid_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = lab.stats();

    BenchSnapshot {
        commit: commit_hash(),
        grid: GridStats {
            cells_replayed: stats.replayed,
            memory_hits: stats.memory_hits,
            disk_hits: stats.disk_hits,
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
    /// Maximum fresh/baseline ratio the grid wall time may reach.
    pub max_wall_ratio: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
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

    // Structural gate: the schema must match exactly, else the numbers are
    // not comparable at all.
    let (base, fresh_value) = (baseline.get("schema"), fresh.get("schema"));
    if base.is_none() || fresh_value.is_none() || base != fresh_value {
        outcome.failures.push(format!(
            "schema version mismatch: baseline {base:?} vs fresh {fresh_value:?}"
        ));
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

    fn snapshot_json(cells: u64, csvs: u64, wall: f64) -> Json {
        obj(vec![
            ("schema", Json::Num(SNAPSHOT_SCHEMA as f64)),
            ("commit", Json::Str("test".to_string())),
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
        ])
    }

    #[test]
    fn identical_snapshots_compare_clean() {
        let base = snapshot_json(359, 24, 3000.0);
        let outcome = compare(&base, &base, &CompareOptions::default());
        assert!(outcome.is_ok(), "failures: {:?}", outcome.failures);
        assert_eq!(outcome.passes.len(), 3, "passes: {:?}", outcome.passes);
    }

    #[test]
    fn noise_within_thresholds_passes() {
        let base = snapshot_json(359, 24, 3000.0);
        let fresh = snapshot_json(359, 24, 11_000.0);
        assert!(compare(&base, &fresh, &CompareOptions::default()).is_ok());
    }

    #[test]
    fn regressions_fail_each_gate() {
        let base = snapshot_json(359, 24, 3000.0);
        for (fresh, expect) in [
            (snapshot_json(358, 24, 3000.0), "cells_replayed"),
            (snapshot_json(360, 24, 3000.0), "cells_replayed"),
            (snapshot_json(359, 23, 3000.0), "csv_files"),
            (snapshot_json(359, 24, 12_001.0), "wall time"),
        ] {
            let outcome = compare(&base, &fresh, &CompareOptions::default());
            assert_eq!(
                outcome.failures.len(),
                1,
                "expected exactly one '{expect}' failure, got {:?}",
                outcome.failures
            );
            assert!(
                outcome.failures[0].contains(expect),
                "expected a '{expect}' failure, got {:?}",
                outcome.failures
            );
        }
        // The wall ceiling is inclusive: exactly 4x the baseline passes.
        let at_ceiling = snapshot_json(359, 24, 12_000.0);
        assert!(compare(&base, &at_ceiling, &CompareOptions::default()).is_ok());
    }

    #[test]
    fn schema_1_baseline_with_speedups_is_refused() {
        let mut base = snapshot_json(359, 24, 3000.0);
        if let Json::Obj(entries) = &mut base {
            entries[0].1 = Json::Num(1.0);
            entries.push(("mode".to_string(), Json::Str("default".to_string())));
            entries.push((
                "speedups".to_string(),
                obj(vec![
                    ("planner", Json::Num(20.0)),
                    ("replay", Json::Num(5.0)),
                    ("workload", Json::Num(5.0)),
                ]),
            ));
        }
        let fresh = snapshot_json(359, 24, 3000.0);
        let outcome = compare(&base, &fresh, &CompareOptions::default());
        assert!(
            outcome
                .failures
                .iter()
                .any(|f| f.contains("schema version mismatch")),
            "failures: {:?}",
            outcome.failures
        );
        assert!(
            !outcome.failures.iter().any(|f| f.contains("speedups")),
            "no speedup gate remains: {:?}",
            outcome.failures
        );
    }

    #[test]
    fn snapshot_round_trips_through_the_schema_2_document() {
        let snapshot = BenchSnapshot {
            commit: "abc".to_string(),
            grid: GridStats {
                cells_replayed: 359,
                memory_hits: 56,
                disk_hits: 0,
                wall_ms: 3491.719,
                csv_files: 24,
            },
        };
        let doc = Json::parse(&snapshot.to_json().render()).expect("rendered JSON parses");
        assert_eq!(doc.get("schema").and_then(Json::as_f64), Some(2.0));
        for gone in ["mode", "speedups", "phases"] {
            assert!(doc.get(gone).is_none(), "schema 2 has no '{gone}'");
        }
        assert_eq!(
            doc.path("grid.wall_ms").and_then(Json::as_f64),
            Some(3491.719)
        );
        assert!(compare(&doc, &doc, &CompareOptions::default()).is_ok());
    }

    #[test]
    fn missing_fields_are_reported_not_panicked() {
        let base = snapshot_json(359, 24, 3000.0);
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
