//! Regenerates every table and figure of the paper's evaluation, runs
//! free-form policy comparisons, and drives the perf-trajectory harness.
//!
//! ```text
//! experiments <command> [--out results] [--cache-dir DIR | --no-cache]
//!
//! commands:
//!   table1 table2 fig2 fig3 fig4 fig11 fig12 fig13 fig14 fig15 fig16
//!   fig17 fig18 fig19 lifetime all
//!   run --model <name> [--batch N] [--policy <name>[,<name>...]]
//!       [--gpu-mib N]
//!   multi [--tenants N] [--stress] [--policy <name>[,<name>...]]
//!       [--gpu-mib N]
//!   bench snapshot
//!   bench compare <baseline.json> <fresh.json> [--max-wall-ratio X]
//! ```
//!
//! Each figure command prints the rows the paper reports and writes a CSV
//! file into the output directory (default `results/`).  The `all` run
//! additionally prints per-figure wall time; every command that replays
//! simulation cells prints the three-way run-cache tally (replayed /
//! memory hits / disk hits) on exit.
//!
//! With `--cache-dir DIR` (or `G10_CACHE_DIR=DIR` in the environment),
//! replayed cells are persisted to a content-addressed on-disk store and
//! later invocations — including fresh processes — serve them as *disk
//! hits* with byte-identical CSVs.  `--no-cache` disables the store even
//! when the environment variable is set.
//!
//! The `run` command is not tied to any figure: it replays one (model,
//! batch) cell under any comma-separated list of policy names — the seven
//! built-ins or anything registered through
//! [`g10_sim::register_policy`] — so new designs are reachable from the
//! CLI without touching this binary.  `--batch` defaults to the model's
//! evaluation batch and `--gpu-mib` overrides the Table 2 GPU capacity.
//!
//! The `multi` command replays a tenant mix — `--tenants N` concurrent
//! jobs with staggered arrivals, priorities and GPU quotas sharing one
//! simulated device — under each named policy, and writes two CSVs:
//! `multi_throughput.csv` (aggregate samples/s and worst slowdown per
//! policy) and `multi_slowdown.csv` (per-job slowdown vs the solo
//! baseline).  `--stress` swaps the tiny-model mix for synthetic GPT
//! training jobs.
//!
//! `bench snapshot` emits a `BENCH_<n>.json` perf-trajectory snapshot
//! (the full grid's wall time and counters) under the output directory,
//! and `bench compare` gates a fresh snapshot against a committed
//! baseline — see `scripts/bench-compare.sh` and the README's
//! perf-trajectory section.

use g10_bench::experiments::{self, run_cache_stats, set_run_store, EndToEndRuns};
use g10_bench::json::Json;
use g10_bench::output::{write_csv, Table};
use g10_bench::serve::protocol::{parse_job, split_list, MAX_MIB};
use g10_bench::serve::{self, JobRequest, RunRequest, ServeOptions};
use g10_bench::store::RunStore;
use g10_bench::trajectory::{self, CompareOptions};
use g10_core::config::SystemConfig;
use g10_dnn::models::ModelKind;
use g10_sim::{CancelToken, FaultPlan, OnPolicyFault, PolicySpec, RuntimeOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn emit(table: &Table, out_dir: &Path, name: &str) {
    println!("{}", table.render());
    if let Err(err) = write_csv(table, out_dir, name) {
        eprintln!("warning: could not write {name}.csv: {err}");
    }
}

fn emit_all(tables: &[Table], out_dir: &Path, prefix: &str) {
    for (i, table) in tables.iter().enumerate() {
        emit(table, out_dir, &format!("{prefix}_{i}"));
    }
}

/// Runs one figure driver, printing its wall time (the `all` command uses
/// this so per-figure grid costs are visible run to run).
fn figure(label: &str, f: impl FnOnce()) {
    let started = Instant::now();
    f();
    println!(
        "[experiments] {label} took {:.1}s",
        started.elapsed().as_secs_f64()
    );
}

/// Flags consumed by the subcommands.
#[derive(Default)]
struct Flags {
    model: Option<String>,
    batch: Option<u64>,
    policies: Option<String>,
    gpu_mib: Option<u64>,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    max_wall_ratio: Option<f64>,
    /// Deterministic fault injection (`--inject-fault <step>:<kind>`):
    /// exercises the typed fault and degradation paths from the CLI.
    inject_fault: Option<FaultPlan>,
    /// Fault handling (`--on-fault <fail|policy-name>`): fail the run
    /// (default) or quarantine the faulting policy and re-run the cell
    /// under the named fallback design.
    on_fault: Option<String>,
    /// Per-run deadline in milliseconds (`--deadline-ms`): expiry yields
    /// the same typed `deadline exceeded` error the serve daemon reports.
    deadline_ms: Option<u64>,
    /// Daemon address, `serve --addr` (bind) / `submit --addr` (connect).
    addr: Option<String>,
    /// `serve --workers`: worker-pool size.
    workers: Option<usize>,
    /// `serve --queue-depth`: admission cap in queued requests.
    queue_depth: Option<usize>,
    /// `serve --queue-mib`: admission cap in estimated queued MiB.
    queue_mib: Option<u64>,
    /// `serve --drain-ms`: graceful-shutdown grace period.
    drain_ms: Option<u64>,
    /// `cache gc --max-mib`: target store size.
    max_mib: Option<u64>,
    /// `multi --tenants`: number of concurrent jobs in the mix.
    tenants: Option<usize>,
    /// `submit --jobs`: comma-separated multi-job mix, each job written
    /// `model[:batch[:priority[:quota_mib[:arrival_us]]]]`.
    jobs: Option<String>,
    /// `multi --stress`: synthetic GPT training jobs instead of the tiny
    /// default mix.
    stress_mix: bool,
    /// `submit --health`: probe `GET /healthz` instead of running.
    health: bool,
    /// `submit --stats`: fetch `GET /stats` instead of running.
    stats: bool,
    /// `submit --shutdown`: post `POST /shutdown` instead of running.
    shutdown: bool,
}

/// The `--policy` names, or `default` when the flag is absent.
fn policy_names(flags: &Flags, default: &str) -> Result<Vec<String>, String> {
    let policies: Vec<String> = split_list(flags.policies.as_deref().unwrap_or(default))
        .map(str::to_string)
        .collect();
    if policies.is_empty() {
        return Err("--policy needs at least one policy name".to_string());
    }
    Ok(policies)
}

/// The `--jobs` entries, empty when the flag is absent.
fn job_requests(flags: &Flags) -> Result<Vec<JobRequest>, String> {
    flags.jobs.as_deref().map_or(Ok(Vec::new()), |list| {
        split_list(list).map(parse_job).collect()
    })
}

/// The hardware of `run` and `multi`: Table 2 with the `--gpu-mib`
/// capacity, if given.
fn hardware(flags: &Flags) -> Result<SystemConfig, String> {
    // `mib << 20` must not overflow the byte count.
    if flags
        .gpu_mib
        .is_some_and(|mib| !(1..=MAX_MIB).contains(&mib))
    {
        return Err(format!("--gpu-mib must be between 1 and {MAX_MIB} MiB"));
    }
    Ok(experiments::gpu_config(flags.gpu_mib))
}

/// The `run` command: one (model, batch) cell under any list of policy
/// names, resolved through the open policy registry.
fn custom_run(flags: &Flags, out_dir: &Path) -> Result<(), String> {
    let model: ModelKind = flags
        .model
        .as_deref()
        .ok_or_else(|| "run requires --model <name> (try --help)".to_string())?
        .parse()?;
    let batch = flags.batch.unwrap_or_else(|| model.eval_batch());
    let policies = policy_names(flags, "g10")?;
    if batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    let config = hardware(flags)?;
    let mut options = RuntimeOptions::default();
    if let Some(plan) = flags.inject_fault {
        options.fault_plan = Some(plan);
    }
    if let Some(ms) = flags.deadline_ms {
        // Same plumbing as the daemon: a wall-clock token threaded into the
        // engine's step loop, so expiry is the identical typed error.
        options.cancel = Some(CancelToken::with_deadline(Duration::from_millis(ms)));
    }
    match flags.on_fault.as_deref() {
        None | Some("fail") => {}
        Some(fallback) => {
            let spec: PolicySpec = fallback
                .parse()
                .map_err(|err| format!("--on-fault: {err}"))?;
            options.on_policy_fault = OnPolicyFault::FallbackTo(spec);
        }
    }
    let table = experiments::custom_run_with_options(model, batch, &policies, &config, &options)
        .map_err(|err| err.to_string())?;
    emit(&table, out_dir, &format!("run_{}_{batch}", model.name()));
    Ok(())
}

/// The `multi` command: a tenant mix replayed under each named policy,
/// reduced to throughput and per-job-slowdown CSVs.
fn multi_cmd(flags: &Flags, out_dir: &Path) -> Result<(), String> {
    let tenants = flags.tenants.unwrap_or(3);
    if tenants == 0 {
        return Err("--tenants must be at least 1".to_string());
    }
    let policies = policy_names(flags, "base-uvm,g10,tensile")?;
    let config = hardware(flags)?;
    let jobs = if flags.jobs.is_some() {
        if flags.stress_mix || flags.tenants.is_some() {
            return Err("--jobs is an explicit mix; drop --tenants/--stress".to_string());
        }
        let requests = job_requests(flags)?;
        if requests.is_empty() {
            return Err("--jobs needs at least one model[:batch:...] entry".to_string());
        }
        requests
            .iter()
            .enumerate()
            .map(|(i, job)| job.to_spec(i))
            .collect()
    } else if flags.stress_mix {
        experiments::stress_tenant_mix(tenants)
    } else {
        experiments::default_tenant_mix(tenants)
    };
    let tables = experiments::multi_tenant_tables(&jobs, &policies, &config)
        .map_err(|err| err.to_string())?;
    emit(&tables[0], out_dir, "multi_throughput");
    emit(&tables[1], out_dir, "multi_slowdown");
    Ok(())
}

/// The `serve` command: run the experiment daemon until shutdown.
fn serve_cmd(flags: &Flags) -> Result<(), String> {
    let mut options = ServeOptions::default();
    if let Some(addr) = &flags.addr {
        options.addr = addr.clone();
    }
    if let Some(workers) = flags.workers {
        options.workers = workers;
    }
    if let Some(depth) = flags.queue_depth {
        options.queue_depth = depth;
    }
    if let Some(mib) = flags.queue_mib {
        if mib == 0 || mib > MAX_MIB {
            return Err("--queue-mib out of range".to_string());
        }
        options.queue_bytes = mib << 20;
    }
    if let Some(ms) = flags.drain_ms {
        options.drain_ms = ms;
    }
    serve::serve(&options)
}

/// The `submit` command: one exchange against a running daemon.  Shares
/// the wire client with the integration tests and kick-tires, so every
/// consumer of the service exercises the same code path.
fn submit(flags: &Flags) -> Result<(), String> {
    let addr = flags
        .addr
        .as_deref()
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
    if flags.health {
        return probe("GET", "/healthz");
    }
    if flags.stats {
        return probe("GET", "/stats");
    }
    if flags.shutdown {
        return probe("POST", "/shutdown");
    }
    let jobs = job_requests(flags)?;
    let model: ModelKind = match (&flags.model, jobs.first()) {
        (Some(name), _) => name.parse()?,
        (None, Some(job)) => job.model,
        (None, None) => {
            return Err(
                "submit requires --model <name> or --jobs (or --health/--stats/--shutdown)"
                    .to_string(),
            )
        }
    };
    let batch = flags
        .batch
        .or_else(|| jobs.first().map(|job| job.batch))
        .unwrap_or_else(|| model.eval_batch());
    let request = RunRequest {
        model,
        batch,
        policy: flags.policies.clone().unwrap_or_else(|| "g10".to_string()),
        gpu_mib: flags.gpu_mib,
        deadline_ms: flags.deadline_ms,
        inject_fault: flags.inject_fault,
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

/// `cache gc`: prune the persistent store to `--max-mib`.
fn cache_gc(flags: &Flags) -> Result<(), String> {
    let store = experiments::run_store().ok_or_else(|| {
        "cache gc needs a store: pass --cache-dir DIR or set G10_CACHE_DIR".to_string()
    })?;
    let max_mib = flags
        .max_mib
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
fn bench_snapshot(out_dir: &Path) -> Result<(), String> {
    let snapshot = trajectory::collect(out_dir);
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
fn bench_compare(flags: &Flags, baseline_path: &str, fresh_path: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("could not read snapshot {path}: {err}"))?;
        Json::parse(&text).map_err(|err| format!("could not parse snapshot {path}: {err}"))
    };
    let baseline = load(baseline_path)?;
    let fresh = load(fresh_path)?;
    let mut opts = CompareOptions::default();
    if let Some(ratio) = flags.max_wall_ratio {
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

/// The error for words after the `command` words of a command that takes
/// no arguments.
fn extra_words(words: &[&str], command: usize) -> Result<(), String> {
    Err(format!(
        "{} takes no arguments, got: {}",
        words[..command].join(" "),
        words[command..].join(" ")
    ))
}

fn run(command: &str, flags: &Flags, out_dir: &Path) -> Result<(), String> {
    match command {
        "run" => custom_run(flags, out_dir)?,
        "multi" => multi_cmd(flags, out_dir)?,
        "table1" => emit(&experiments::table1(), out_dir, "table1"),
        "table2" => emit(&experiments::table2(), out_dir, "table2"),
        "fig2" => emit_all(&experiments::fig2(), out_dir, "fig2"),
        "fig3" => emit(&experiments::fig3(), out_dir, "fig3"),
        "fig4" => emit_all(&experiments::fig4(), out_dir, "fig4"),
        "fig11" | "fig12" | "fig13" | "fig14" | "lifetime" => {
            let data = EndToEndRuns::collect();
            match command {
                "fig11" => emit(&experiments::fig11(&data), out_dir, "fig11"),
                "fig12" => emit(&experiments::fig12(&data), out_dir, "fig12"),
                "fig13" => emit(&experiments::fig13(&data), out_dir, "fig13"),
                "fig14" => emit(&experiments::fig14(&data), out_dir, "fig14"),
                _ => emit(&experiments::lifetime(&data), out_dir, "lifetime"),
            }
        }
        "fig15" => emit(&experiments::fig15(), out_dir, "fig15"),
        "fig16" => emit(&experiments::fig16(), out_dir, "fig16"),
        "fig17" => emit(&experiments::fig17(), out_dir, "fig17"),
        "fig18" => emit(&experiments::fig18(), out_dir, "fig18"),
        "fig19" => emit(&experiments::fig19(), out_dir, "fig19"),
        "all" => {
            for (name, driver) in experiments::figure_set() {
                figure(name, || {
                    let tables = driver();
                    if tables.len() == 1 {
                        emit(&tables[0], out_dir, name);
                    } else {
                        emit_all(&tables, out_dir, name);
                    }
                });
            }
        }
        other => return Err(format!("unknown command: {other}")),
    }
    Ok(())
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positionals: Vec<String> = Vec::new();
    let mut out_dir = PathBuf::from("results");
    let mut flags = Flags::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("error: --out needs a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--model" => match iter.next() {
                Some(model) => flags.model = Some(model.clone()),
                None => {
                    eprintln!("error: --model needs a model name argument");
                    return ExitCode::FAILURE;
                }
            },
            "--batch" => match iter.next().map(|b| b.parse::<u64>()) {
                Some(Ok(batch)) => flags.batch = Some(batch),
                _ => {
                    eprintln!("error: --batch needs an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--policy" => match iter.next() {
                Some(policies) => flags.policies = Some(policies.clone()),
                None => {
                    eprintln!("error: --policy needs a policy-name argument");
                    return ExitCode::FAILURE;
                }
            },
            "--gpu-mib" => match iter.next().map(|b| b.parse::<u64>()) {
                Some(Ok(mib)) => flags.gpu_mib = Some(mib),
                _ => {
                    eprintln!("error: --gpu-mib needs an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--cache-dir" => match iter.next() {
                Some(dir) => flags.cache_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --cache-dir needs a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--no-cache" => flags.no_cache = true,
            "--inject-fault" => match iter.next().map(|plan| plan.parse::<FaultPlan>()) {
                Some(Ok(plan)) => flags.inject_fault = Some(plan),
                Some(Err(err)) => {
                    eprintln!("error: --inject-fault: {err}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("error: --inject-fault needs a <step>:<kind> argument");
                    return ExitCode::FAILURE;
                }
            },
            "--on-fault" => match iter.next() {
                Some(mode) => flags.on_fault = Some(mode.clone()),
                None => {
                    eprintln!("error: --on-fault needs `fail` or a fallback policy name");
                    return ExitCode::FAILURE;
                }
            },
            "--deadline-ms" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) => flags.deadline_ms = Some(ms),
                _ => {
                    eprintln!("error: --deadline-ms needs an integer millisecond argument");
                    return ExitCode::FAILURE;
                }
            },
            "--addr" => match iter.next() {
                Some(addr) => flags.addr = Some(addr.clone()),
                None => {
                    eprintln!("error: --addr needs a HOST:PORT argument");
                    return ExitCode::FAILURE;
                }
            },
            "--workers" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(workers)) if workers > 0 => flags.workers = Some(workers),
                _ => {
                    eprintln!("error: --workers needs a positive integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--queue-depth" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(depth)) if depth > 0 => flags.queue_depth = Some(depth),
                _ => {
                    eprintln!("error: --queue-depth needs a positive integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--queue-mib" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(mib)) => flags.queue_mib = Some(mib),
                _ => {
                    eprintln!("error: --queue-mib needs an integer MiB argument");
                    return ExitCode::FAILURE;
                }
            },
            "--drain-ms" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) => flags.drain_ms = Some(ms),
                _ => {
                    eprintln!("error: --drain-ms needs an integer millisecond argument");
                    return ExitCode::FAILURE;
                }
            },
            "--max-mib" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(mib)) => flags.max_mib = Some(mib),
                _ => {
                    eprintln!("error: --max-mib needs an integer MiB argument");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match iter.next() {
                Some(jobs) => flags.jobs = Some(jobs.clone()),
                None => {
                    eprintln!(
                        "error: --jobs needs a comma-separated list of \
                         model[:batch[:priority[:quota_mib[:arrival_us]]]] entries"
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--tenants" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(tenants)) if tenants > 0 => flags.tenants = Some(tenants),
                _ => {
                    eprintln!("error: --tenants needs a positive integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--stress" => flags.stress_mix = true,
            "--health" => flags.health = true,
            "--stats" => flags.stats = true,
            "--shutdown" => flags.shutdown = true,
            "--max-wall-ratio" => match iter.next().map(|v| v.parse::<f64>()) {
                Some(Ok(ratio)) if ratio.is_finite() && ratio > 0.0 => {
                    flags.max_wall_ratio = Some(ratio)
                }
                _ => {
                    eprintln!("error: --max-wall-ratio needs a finite positive number argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: experiments <table1|table2|fig2|fig3|fig4|fig11|fig12|fig13|fig14|\
                     fig15|fig16|fig17|fig18|fig19|lifetime|all> [--out DIR]\n\
                     \x20                  [--cache-dir DIR | --no-cache]\n\
                     \n\
                     free-form runs over the open policy registry:\n\
                     \x20      experiments run --model <name> [--batch N] [--gpu-mib N]\n\
                     \x20                  [--policy <name>[,<name>...]] [--deadline-ms N]\n\
                     \n\
                     multi-tenant replay (concurrent jobs, one simulated GPU):\n\
                     \x20      experiments multi [--tenants N] [--stress] [--gpu-mib N]\n\
                     \x20                  [--policy <name>[,<name>...]]\n\
                     \n\
                     experiment service (see README \"Experiment service\"):\n\
                     \x20      experiments serve [--addr HOST:PORT] [--workers N]\n\
                     \x20                  [--queue-depth N] [--queue-mib N] [--drain-ms N]\n\
                     \x20      experiments submit --addr HOST:PORT --model <name> [--batch N]\n\
                     \x20                  [--policy <name>] [--gpu-mib N] [--deadline-ms N]\n\
                     \x20                  [--inject-fault STEP:KIND]\n\
                     \x20      experiments submit --addr HOST:PORT --jobs \
                     model[:batch[:prio[:quota_mib[:arrival_us]]]],...\n\
                     \x20                  [--policy <name>] [--gpu-mib N] [--deadline-ms N]\n\
                     \x20      experiments submit --addr HOST:PORT --health|--stats|--shutdown\n\
                     \n\
                     persistent store maintenance:\n\
                     \x20      experiments cache gc --max-mib N [--cache-dir DIR]\n\
                     \n\
                     perf-trajectory harness (see scripts/bench-compare.sh):\n\
                     \x20      experiments bench snapshot [--out DIR]\n\
                     \x20      experiments bench compare <baseline.json> <fresh.json>\n\
                     \x20                  [--max-wall-ratio X]\n\
                     \n\
                     --policy accepts the built-in designs (ideal, base-uvm, deepum+,\n\
                     flashneuron, g10-gds, g10-host, g10) and any policy registered via\n\
                     g10_sim::register_policy; --batch defaults to the model's evaluation\n\
                     batch size.  --cache-dir DIR (or G10_CACHE_DIR=DIR) persists replayed\n\
                     cells to an on-disk store shared across processes; --no-cache\n\
                     disables it"
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag: {other} (try --help)");
                return ExitCode::FAILURE;
            }
            other => positionals.push(other.to_string()),
        }
    }
    if positionals.is_empty() {
        eprintln!("error: no command given (try --help)");
        return ExitCode::FAILURE;
    }

    // Install the persistent run-cache store, if requested.  An explicit
    // flag always wins; the environment variable is the CI/dev default.
    let cache_dir = if flags.no_cache {
        None
    } else {
        flags
            .cache_dir
            .clone()
            .or_else(|| std::env::var_os("G10_CACHE_DIR").map(PathBuf::from))
    };
    if let Some(dir) = cache_dir {
        match RunStore::open(&dir) {
            Ok(store) => set_run_store(Some(store)),
            Err(err) => {
                eprintln!("error: could not open cache dir {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let started = std::time::Instant::now();
    let words: Vec<&str> = positionals.iter().map(String::as_str).collect();
    let result = match words[..] {
        ["bench", "compare", baseline, fresh] => bench_compare(&flags, baseline, fresh),
        ["bench", "compare", ..] => {
            Err("bench compare needs exactly <baseline.json> <fresh.json>".to_string())
        }
        ["bench", "snapshot"] => bench_snapshot(&out_dir),
        ["cache", "gc"] => cache_gc(&flags),
        ["bench", "snapshot", ..] | ["cache", "gc", ..] => extra_words(&words, 2),
        ["bench", ..] => Err("bench needs a subcommand: snapshot | compare".to_string()),
        ["cache", ..] => Err("cache needs a subcommand: gc".to_string()),
        ["serve"] => serve_cmd(&flags),
        ["submit"] => submit(&flags),
        [command] => run(command, &flags, &out_dir),
        [_, _, ..] => extra_words(&words, 1),
        [] => unreachable!("an empty command line exits above"),
    };
    let command = positionals.join(" ");
    match result {
        Ok(()) => {
            let stats = run_cache_stats();
            if stats.total() > 0 {
                println!("[experiments] {}", stats.summary());
            }
            println!(
                "[experiments] {command} finished in {:.1}s; output written to {}",
                started.elapsed().as_secs_f64(),
                out_dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
