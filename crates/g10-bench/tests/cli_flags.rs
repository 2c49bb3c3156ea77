//! CLI coverage for flag values the `experiments` binary must refuse: a
//! valued flag with its value missing, and a wall-time ratio that would
//! make `bench compare`'s gate pass or fail whatever the snapshots say.
//! Each case runs the real binary as a subprocess, so the exit code and
//! the one-line error are pinned, not just the parsing logic.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("g10_cli_flags_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the `experiments` binary with `args` from `cwd`, returning
/// (exit-ok, stdout, stderr).
fn experiments(cwd: &Path, args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(cwd)
        .env_remove("G10_CACHE_DIR")
        .output()
        .expect("spawn experiments binary");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Writes a schema-2 snapshot with the given grid wall time.
fn snapshot(dir: &Path, name: &str, wall_ms: f64) -> String {
    let path = dir.join(name);
    let text = format!(
        "{{\"schema\": 2, \"commit\": \"test\", \"grid\": {{\"cells_replayed\": 359, \
         \"memory_hits\": 56, \"disk_hits\": 0, \"csv_files\": 21, \"wall_ms\": {wall_ms}}}}}"
    );
    std::fs::write(&path, text).expect("write snapshot");
    path.display().to_string()
}

#[test]
fn out_without_a_directory_is_an_error() {
    let cwd = fresh_dir("out");
    let (ok, stdout, stderr) = experiments(&cwd, &["table2", "--no-cache", "--out"]);
    assert!(!ok, "a trailing --out must fail:\n{stdout}\n{stderr}");
    assert_eq!(stderr.trim(), "error: --out needs a directory argument");
    assert!(
        !cwd.join("results").exists(),
        "nothing may be written to the default output directory"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn an_infinite_wall_ratio_is_rejected() {
    let dir = fresh_dir("inf");
    let baseline = snapshot(&dir, "baseline.json", 1_000.0);
    // A thousandfold regression, which an infinite ceiling would wave through.
    let fresh = snapshot(&dir, "fresh.json", 1_000_000.0);
    for ratio in ["inf", "infinity", "+inf"] {
        let args = [
            "bench",
            "compare",
            &baseline,
            &fresh,
            "--max-wall-ratio",
            ratio,
        ];
        let (ok, stdout, stderr) = experiments(&dir, &args);
        assert!(
            !ok,
            "--max-wall-ratio {ratio} must fail:\n{stdout}\n{stderr}"
        );
        assert_eq!(
            stderr.trim(),
            "error: --max-wall-ratio needs a finite positive number argument",
            "--max-wall-ratio {ratio}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_nan_or_non_positive_wall_ratio_is_rejected() {
    let dir = fresh_dir("nonpositive");
    // Identical snapshots, which any usable ceiling lets through.
    let baseline = snapshot(&dir, "baseline.json", 1_000.0);
    let fresh = snapshot(&dir, "fresh.json", 1_000.0);
    for ratio in ["nan", "NaN", "-inf", "0", "-0", "-1.5"] {
        let args = [
            "bench",
            "compare",
            &baseline,
            &fresh,
            "--max-wall-ratio",
            ratio,
        ];
        let (ok, stdout, stderr) = experiments(&dir, &args);
        assert!(
            !ok,
            "--max-wall-ratio {ratio} must fail:\n{stdout}\n{stderr}"
        );
        assert_eq!(
            stderr.trim(),
            "error: --max-wall-ratio needs a finite positive number argument",
            "--max-wall-ratio {ratio}"
        );
    }
    // A usable ratio still parses and gates.
    let args = [
        "bench",
        "compare",
        &baseline,
        &fresh,
        "--max-wall-ratio",
        "1.5",
    ];
    let (ok, stdout, stderr) = experiments(&dir, &args);
    assert!(ok, "a finite positive ratio must pass:\n{stdout}\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
