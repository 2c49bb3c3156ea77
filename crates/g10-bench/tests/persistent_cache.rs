//! Cross-process behaviour of the persistent run cache.
//!
//! The in-memory cell map cannot be evicted within a process, so the disk
//! path is exercised the way users hit it: by spawning the `experiments`
//! binary as fresh processes against a shared `--cache-dir` and asserting
//! on its printed run-cache tally and its CSV bytes.

use g10_bench::lab::Lab;
use g10_bench::store::{RunKey, RunStore};
use g10_core::config::SystemConfig;
use g10_dnn::models::ModelKind;
use g10_sim::PolicyKind;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("g10_persistent_cache_{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs the `experiments` binary with `args`, insulated from any ambient
/// `G10_CACHE_DIR`, and returns its output (panicking on a non-zero exit).
fn experiments(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env_remove("G10_CACHE_DIR")
        .output()
        .expect("experiments binary should spawn");
    assert!(
        out.status.success(),
        "experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Extracts `(replayed, memory_hits, disk_hits)` from the binary's
/// `[experiments] simulation cells: …` tally line.
fn cache_tally(output: &Output) -> (u64, u64, u64) {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find(|line| line.contains("simulation cells:"))
        .unwrap_or_else(|| panic!("no run-cache tally line in:\n{stdout}"));
    let numbers: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|part| !part.is_empty())
        .map(|part| part.parse().unwrap())
        .collect();
    assert_eq!(numbers.len(), 3, "unexpected tally line: {line}");
    (numbers[0], numbers[1], numbers[2])
}

const RUN_ARGS: &[&str] = &[
    "run",
    "--model",
    "tinycnn",
    "--batch",
    "16",
    "--policy",
    "base-uvm,deepum+,g10",
];

const RUN_CSV: &str = "run_TinyCNN_16.csv";

fn run_with(cache: &Path, out: &Path) -> Output {
    experiments(
        &[
            RUN_ARGS,
            &[
                "--cache-dir",
                cache.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ],
        ]
        .concat(),
    )
}

#[test]
fn warm_process_serves_every_cell_from_disk_byte_identically() {
    let cache = fresh_dir("warm_cache");
    let out1 = fresh_dir("warm_out1");
    let out2 = fresh_dir("warm_out2");

    let cold = run_with(&cache, &out1);
    let (replayed, _, disk) = cache_tally(&cold);
    assert!(replayed > 0, "cold run must replay its cells");
    assert_eq!(disk, 0, "cold run has nothing on disk yet");

    let warm = run_with(&cache, &out2);
    let (replayed, memory, disk) = cache_tally(&warm);
    assert_eq!(replayed, 0, "warm fresh process must not replay anything");
    assert_eq!(
        memory, 0,
        "first touches in a fresh process are not memory hits"
    );
    assert!(disk > 0, "warm run must hit the on-disk store");

    let cold_csv = fs::read(out1.join(RUN_CSV)).unwrap();
    let warm_csv = fs::read(out2.join(RUN_CSV)).unwrap();
    assert_eq!(cold_csv, warm_csv, "disk-served CSV must be byte-identical");
}

#[test]
fn no_cache_flag_keeps_the_store_untouched() {
    let cache = fresh_dir("nocache_cache");
    let out = fresh_dir("nocache_out");
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(RUN_ARGS)
        .args(["--no-cache", "--out", out.to_str().unwrap()])
        // --no-cache must win even when the environment opts in.
        .env("G10_CACHE_DIR", &cache)
        .output()
        .expect("experiments binary should spawn");
    assert!(output.status.success());
    let (replayed, _, disk) = cache_tally(&output);
    assert!(replayed > 0);
    assert_eq!(disk, 0);
    assert!(
        !cache.exists() || fs::read_dir(&cache).unwrap().next().is_none(),
        "--no-cache must not populate the store"
    );
}

#[test]
fn env_var_enables_the_store_like_the_flag() {
    let cache = fresh_dir("env_cache");
    let out = fresh_dir("env_out");
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(RUN_ARGS)
        .args(["--out", out.to_str().unwrap()])
        .env("G10_CACHE_DIR", &cache)
        .output()
        .expect("experiments binary should spawn");
    assert!(output.status.success());
    let store = RunStore::open(&cache).unwrap();
    assert!(
        store.entry_count() > 0,
        "G10_CACHE_DIR must populate the store"
    );
}

#[test]
fn corrupted_entries_degrade_to_a_clean_replay() {
    let cache = fresh_dir("corrupt_cache");
    let out1 = fresh_dir("corrupt_out1");
    let out2 = fresh_dir("corrupt_out2");

    run_with(&cache, &out1);
    // Truncate every entry in place: the warm run must fall back to replay
    // (and overwrite the damaged entries) without failing or mis-serving.
    let mut damaged = 0;
    for entry in fs::read_dir(&cache).unwrap().filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "g10run") {
            let bytes = fs::read(&path).unwrap();
            fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            damaged += 1;
        }
    }
    assert!(damaged > 0, "cold run must have written entries");

    let warm = run_with(&cache, &out2);
    let (replayed, _, disk) = cache_tally(&warm);
    assert!(replayed > 0, "corrupt entries must be replayed, not served");
    assert_eq!(disk, 0);
    let cold_csv = fs::read(out1.join(RUN_CSV)).unwrap();
    let warm_csv = fs::read(out2.join(RUN_CSV)).unwrap();
    assert_eq!(cold_csv, warm_csv, "replayed output must be unchanged");
}

#[test]
fn cached_run_persists_entries_the_store_can_load_back() {
    // In-process check that a cell lookup both writes through to the
    // `Lab`'s store and produces an entry equal to its own return value.
    let cache = fresh_dir("inprocess_cache");
    let lab = Lab::new(Some(RunStore::open(&cache).unwrap()));
    let config = SystemConfig::table2();
    let report = lab.run(ModelKind::TinyCnn, 16, PolicyKind::Ideal, &config);
    assert_eq!(lab.stats().replayed, 1);
    let key = RunKey {
        model: ModelKind::TinyCnn.name().to_string(),
        batch: 16,
        policy: PolicyKind::Ideal.label().to_string(),
        config: config.cache_key(),
    };
    let store = lab.store().expect("the Lab has a store");
    let loaded = store.load(&key).expect("the lookup must write through");
    assert_eq!(loaded, *report);
}
