//! Regenerates every table and figure of the paper's evaluation, runs
//! free-form policy comparisons and tenant mixes, serves them over HTTP,
//! and drives the perf-trajectory harness.  `experiments --help` lists each
//! command with the flags it reads; [`g10_bench::cli`] checks the whole
//! command line before any work starts and refuses every flag the chosen
//! command does not read, so this binary only dispatches.
//!
//! A figure command (`table1` … `fig19`, `lifetime`, or `all` of them)
//! prints the rows the paper reports and writes CSVs into `--out` (default
//! `results/`).  Every command that replays simulation cells prints the
//! run-cache tally (replayed / memory hits / disk hits) on exit; with
//! `--cache-dir DIR` (or `G10_CACHE_DIR`) replayed cells persist in an
//! on-disk store that later processes serve with byte-identical CSVs.
//! `run` replays one (model, batch) cell under any list of registered
//! policies, `multi` a tenant mix sharing one simulated GPU; `serve` and
//! `submit` are the experiment daemon and its client, `cache gc` prunes
//! the store, and `bench snapshot` / `bench compare` write and gate a
//! `BENCH_<n>.json` perf-trajectory snapshot (`scripts/bench-compare.sh`).

use g10_bench::cli::{self, Args, Command, MAX_TENANTS};
use g10_bench::experiments;
use g10_bench::json::Json;
use g10_bench::lab::{Lab, RunCacheStats};
use g10_bench::output::{write_figure_csvs, Table};
use g10_bench::serve::protocol::{parse_job, split_list, MAX_MIB};
use g10_bench::serve::{self, JobRequest, RunRequest, ServeOptions};
use g10_bench::store::RunStore;
use g10_bench::trajectory::{self, CompareOptions};
use g10_dnn::models::ModelKind;
use g10_sim::{CancelToken, OnPolicyFault, RuntimeOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Prints `tables` and writes them as `<name>.csv`, or `<name>_<i>.csv`
/// when there are several.
fn emit(name: &str, tables: &[Table], out_dir: &Path) {
    for table in tables {
        println!("{}", table.render());
    }
    write_figure_csvs(tables, out_dir, name);
}

/// A figure command: its driver from [`experiments::figure_drivers`], or
/// for `all` every driver, each with its wall time so per-figure grid
/// costs are visible run to run.
fn figures(lab: &Lab, command: &str, out_dir: &Path) -> Result<(), String> {
    for (name, driver) in experiments::figure_drivers(lab) {
        if command == "all" {
            let started = Instant::now();
            emit(name, &driver(), out_dir);
            println!(
                "[experiments] {name} took {:.1}s",
                started.elapsed().as_secs_f64()
            );
        } else if command == name {
            emit(name, &driver(), out_dir);
        }
    }
    Ok(())
}

/// The `--policy` names, or `default` when the flag is absent.
fn policy_names(args: &Args, default: &str) -> Result<Vec<String>, String> {
    let list = args.text("--policy").unwrap_or(default);
    let policies: Vec<String> = split_list(list).map(str::to_string).collect();
    if policies.is_empty() {
        return Err("--policy needs at least one policy name".to_string());
    }
    Ok(policies)
}

/// The `--jobs` entries, empty when the flag is absent; at most
/// [`MAX_TENANTS`], as the daemon accepts.
fn job_requests(args: &Args) -> Result<Vec<JobRequest>, String> {
    let jobs: Vec<JobRequest> = split_list(args.text("--jobs").unwrap_or_default())
        .map(parse_job)
        .collect::<Result<_, _>>()?;
    if jobs.len() as u64 > MAX_TENANTS {
        return Err(format!("--jobs names more than {MAX_TENANTS} jobs"));
    }
    Ok(jobs)
}

/// The `run` command: one (model, batch) cell under any list of policy
/// names, resolved through the open policy registry.
fn custom_run(lab: &Lab, args: &Args, out_dir: &Path) -> Result<(), String> {
    let model: ModelKind = args
        .text("--model")
        .ok_or_else(|| "run requires --model <name> (try --help)".to_string())?
        .parse()?;
    let batch = args.get("--batch").unwrap_or_else(|| model.eval_batch());
    let policies = policy_names(args, "g10")?;
    let config = experiments::gpu_config(args.get("--gpu-mib"));
    // Same plumbing as the daemon: a wall-clock token threaded into the
    // engine's step loop, so expiry is the identical typed error.
    let deadline = |ms| CancelToken::with_deadline(Duration::from_millis(ms));
    let mut options = RuntimeOptions {
        fault_plan: args.get("--inject-fault"),
        cancel: args.get("--deadline-ms").map(deadline),
        ..RuntimeOptions::default()
    };
    if let Some(fallback) = args.text("--on-fault").filter(|mode| *mode != "fail") {
        let spec = fallback.parse().map_err(|err| format!("--on-fault: {err}"));
        options.on_policy_fault = OnPolicyFault::FallbackTo(spec?);
    }
    let table =
        experiments::custom_run_with_options(lab, model, batch, &policies, &config, &options)
            .map_err(|err| err.to_string())?;
    emit(&format!("run_{}_{batch}", model.name()), &[table], out_dir);
    Ok(())
}

/// The `multi` command: a tenant mix replayed under each named policy,
/// reduced to throughput and per-job-slowdown CSVs.
fn multi_cmd(lab: &Lab, args: &Args, out_dir: &Path) -> Result<(), String> {
    let tenants = args.get::<usize>("--tenants");
    let stress = args.switch("--stress");
    let policies = policy_names(args, "base-uvm,g10,tensile")?;
    let config = experiments::gpu_config(args.get("--gpu-mib"));
    let jobs = if args.text("--jobs").is_some() {
        if stress || tenants.is_some() {
            return Err("--jobs is an explicit mix; drop --tenants/--stress".to_string());
        }
        let requests = job_requests(args)?;
        if requests.is_empty() {
            return Err("--jobs needs at least one model[:batch:...] entry".to_string());
        }
        requests
            .iter()
            .enumerate()
            .map(|(i, job)| job.to_spec(lab, i))
            .collect()
    } else {
        let tenants = tenants.unwrap_or(3);
        match stress {
            true => experiments::stress_tenant_mix(tenants),
            false => experiments::default_tenant_mix(lab, tenants),
        }
    };
    let tables = experiments::multi_tenant_tables(&jobs, &policies, &config)
        .map_err(|err| err.to_string())?;
    emit("multi_throughput", &tables[..1], out_dir);
    emit("multi_slowdown", &tables[1..], out_dir);
    Ok(())
}

/// The `serve` command: run the experiment daemon on `lab` until shutdown.
fn serve_cmd(lab: Arc<Lab>, args: &Args) -> Result<(), String> {
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        addr: args.text("--addr").unwrap_or(&defaults.addr).to_string(),
        workers: args.get("--workers").unwrap_or(defaults.workers),
        queue_depth: args.get("--queue-depth").unwrap_or(defaults.queue_depth),
        queue_bytes: args
            .get::<u64>("--queue-mib")
            .map_or(defaults.queue_bytes, |mib| mib << 20),
        drain_ms: args.get("--drain-ms").unwrap_or(defaults.drain_ms),
    };
    serve::serve(&options, lab)
}

/// The `submit` command: one exchange against a running daemon.  Shares
/// the wire client with the integration tests and kick-tires, so every
/// consumer of the service exercises the same code path.
fn submit(args: &Args) -> Result<(), String> {
    let addr = args
        .text("--addr")
        .ok_or_else(|| "submit requires --addr HOST:PORT".to_string())?;
    let timeout = Duration::from_secs(60);
    let probe = |method: &str, path: &str| -> Result<(), String> {
        let (status, body) = serve::exchange(addr, method, path, None, timeout)?;
        print!("{}", body.render());
        if status == 200 {
            Ok(())
        } else {
            Err(format!("{path} answered {status}"))
        }
    };
    let probes = [
        ("--health", "GET", "/healthz"),
        ("--stats", "GET", "/stats"),
        ("--shutdown", "POST", "/shutdown"),
    ];
    for (flag, method, path) in probes {
        if args.switch(flag) {
            return probe(method, path);
        }
    }
    let jobs = job_requests(args)?;
    let model: ModelKind = match (args.text("--model"), jobs.first()) {
        (Some(name), _) => name.parse()?,
        (None, Some(job)) => job.model,
        (None, None) => {
            return Err(
                "submit requires --model <name> or --jobs (or --health/--stats/--shutdown)"
                    .to_string(),
            )
        }
    };
    let batch = args
        .get::<u64>("--batch")
        .or_else(|| jobs.first().map(|job| job.batch))
        .unwrap_or_else(|| model.eval_batch());
    let request = RunRequest {
        model,
        batch,
        policy: args.text("--policy").unwrap_or("g10").to_string(),
        gpu_mib: args.get("--gpu-mib"),
        deadline_ms: args.get("--deadline-ms"),
        inject_fault: args.get("--inject-fault"),
        jobs,
    };
    let (status, body) = serve::exchange(addr, "POST", "/run", Some(&request.to_json()), timeout)?;
    let summary = serve::summarize(status, &body);
    if status == 200 {
        println!("[submit] {summary}");
        Ok(())
    } else {
        Err(summary)
    }
}

/// `cache gc`: prune `lab`'s persistent store to `--max-mib`.
fn cache_gc(lab: &Lab, args: &Args) -> Result<(), String> {
    let store = lab.store().ok_or_else(|| {
        "cache gc needs a store: pass --cache-dir DIR or set G10_CACHE_DIR".to_string()
    })?;
    let max_mib = args
        .get::<u64>("--max-mib")
        .ok_or_else(|| "cache gc requires --max-mib <N>".to_string())?;
    if max_mib > MAX_MIB {
        return Err("--max-mib out of range".to_string());
    }
    let outcome = store
        .gc(max_mib << 20)
        .map_err(|err| format!("gc of {} failed: {err}", store.root().display()))?;
    println!("{}", outcome.summary());
    Ok(())
}

/// `bench snapshot`: emit the next `BENCH_<n>.json` under the out dir.
fn bench_snapshot(lab: &Lab, out_dir: &Path) -> Result<(), String> {
    let snapshot = trajectory::collect(lab, out_dir);
    println!(
        "[bench] grid: {:.1} ms, {} cells replayed, {} memory hits, {} disk hits, {} CSV files",
        snapshot.grid.wall_ms,
        snapshot.grid.cells_replayed,
        snapshot.grid.memory_hits,
        snapshot.grid.disk_hits,
        snapshot.grid.csv_files
    );
    let path = trajectory::write_snapshot(&snapshot, out_dir).map_err(|err| err.to_string())?;
    println!("[bench] snapshot written to {}", path.display());
    Ok(())
}

/// `bench compare`: gate a fresh snapshot against the committed baseline.
fn bench_compare(args: &Args, baseline_path: &str, fresh_path: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("could not read snapshot {path}: {err}"))?;
        Json::parse(&text).map_err(|err| format!("could not parse snapshot {path}: {err}"))
    };
    let baseline = load(baseline_path)?;
    let fresh = load(fresh_path)?;
    let mut opts = CompareOptions::default();
    if let Some(ratio) = args.get::<f64>("--max-wall-ratio") {
        opts.max_wall_ratio = ratio;
    }
    let outcome = trajectory::compare(&baseline, &fresh, &opts);
    for pass in &outcome.passes {
        println!("[bench] ok: {pass}");
    }
    for failure in &outcome.failures {
        eprintln!("[bench] REGRESSION: {failure}");
    }
    if outcome.is_ok() {
        println!(
            "[bench] no perf regression vs {baseline_path} (wall ceiling ratio {})",
            opts.max_wall_ratio
        );
        Ok(())
    } else {
        Err(format!(
            "{} perf-trajectory check(s) failed vs {baseline_path}",
            outcome.failures.len()
        ))
    }
}

/// Restores the default `SIGPIPE` disposition (Rust ignores the signal by
/// default) so piping output into `head`-style consumers that exit early
/// terminates this process quietly instead of panicking on a closed
/// stdout.  The daemon re-ignores `SIGPIPE` when it starts — a client
/// hanging up mid-response must never kill the server.
#[cfg(unix)]
fn reset_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}

fn main() -> ExitCode {
    reset_sigpipe();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", cli::usage());
            return ExitCode::SUCCESS;
        }
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };

    // The process's one `Lab`, with the persistent run-cache store if one
    // is requested.  An explicit flag always wins; the environment
    // variable is the CI/dev default.
    let env_dir = || std::env::var_os("G10_CACHE_DIR").map(PathBuf::from);
    let cache_dir = args.text("--cache-dir").map(PathBuf::from).or_else(env_dir);
    let mut store = None;
    if let Some(dir) = cache_dir.filter(|_| !args.switch("--no-cache")) {
        match RunStore::open(&dir) {
            Ok(opened) => store = Some(opened),
            Err(err) => {
                eprintln!("error: could not open cache dir {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let lab = Arc::new(Lab::new(store));

    let started = Instant::now();
    let out_dir = PathBuf::from(args.text("--out").unwrap_or("results"));
    let words = &args.words;
    let result = match args.command {
        Command::Figure => figures(&lab, &words[0], &out_dir),
        Command::Run => custom_run(&lab, &args, &out_dir),
        Command::Multi => multi_cmd(&lab, &args, &out_dir),
        Command::Serve => serve_cmd(Arc::clone(&lab), &args),
        Command::Submit => submit(&args),
        Command::CacheGc => cache_gc(&lab, &args),
        Command::BenchSnapshot => bench_snapshot(&lab, &out_dir),
        Command::BenchCompare => bench_compare(&args, &words[2], &words[3]),
    };
    if let Err(err) = result {
        eprintln!("error: {err}");
        return ExitCode::FAILURE;
    }
    let stats = lab.stats();
    if stats != RunCacheStats::default() {
        println!("[experiments] {}", stats.summary());
    }
    let written = match args.command.takes("--out") {
        true => format!("; output written to {}", out_dir.display()),
        false => String::new(),
    };
    let (command, elapsed) = (words.join(" "), started.elapsed().as_secs_f64());
    println!("[experiments] {command} finished in {elapsed:.1}s{written}");
    ExitCode::SUCCESS
}
