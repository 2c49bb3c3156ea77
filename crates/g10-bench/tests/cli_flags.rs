//! CLI coverage for command lines the `experiments` binary must refuse: a
//! valued flag with its value missing, a wall-time ratio that would make
//! `bench compare`'s gate pass or fail whatever the snapshots say, a flag
//! it does not know, a flag the chosen command does not read, and words
//! after a complete command.  Each case runs
//! the real binary as a subprocess, so the exit code and the one-line
//! error are pinned, not just the parsing logic.

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

/// Runs a command line that must fail before any work starts: non-zero
/// exit, exactly `expected` on stderr, nothing on stdout, and nothing
/// written to the default output directory.
fn refused(name: &str, args: &[&str], expected: &str) {
    let cwd = fresh_dir(name);
    let (ok, stdout, stderr) = experiments(&cwd, args);
    assert!(!ok, "{args:?} must fail:\n{stdout}\n{stderr}");
    assert_eq!(stderr.trim(), expected, "{args:?}");
    assert_eq!(stdout, "", "{args:?}");
    assert!(!cwd.join("results").exists(), "{args:?} wrote results");
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn out_without_a_directory_is_an_error() {
    refused(
        "out",
        &["table2", "--no-cache", "--out"],
        "error: --out needs a directory argument",
    );
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

#[test]
fn an_unknown_flag_is_an_error() {
    refused(
        "misspelled",
        &["table2", "--no-cahce", "--gpu_mib", "64"],
        "error: unknown flag: --no-cahce (try --help)",
    );
    refused(
        "short",
        &["-x", "table2"],
        "error: unknown flag: -x (try --help)",
    );
}

#[test]
fn words_after_a_command_are_an_error() {
    refused(
        "two_figures",
        &["fig3", "table2", "--no-cache"],
        "error: fig3 takes no arguments, got: table2",
    );
    refused(
        "cache_gc",
        &["cache", "gc", "now", "--max-mib", "1"],
        "error: cache gc takes no arguments, got: now",
    );
}

#[test]
fn a_flag_the_command_does_not_read_is_an_error() {
    // Accepting these would run the mix with neither a deadline nor a
    // fault, and write Table 2 under no policy at all.
    refused(
        "multi_deadline",
        &[
            "multi",
            "--deadline-ms",
            "0",
            "--inject-fault",
            "0:build-panic",
            "--no-cache",
        ],
        "error: multi does not take --deadline-ms",
    );
    refused(
        "table2_policy",
        &["table2", "--policy", "g10"],
        "error: table2 does not take --policy",
    );
    refused(
        "compare_out",
        &["bench", "compare", "a.json", "b.json", "--out", "x"],
        "error: bench compare does not take --out",
    );
}
