//! Worker process of the repository benchmark.  `run.py` starts one worker
//! per round; the worker does the round's work, measures it, and prints one
//! JSON object as its last line of output.
//!
//! ```text
//! perfbench grid --out DIR [--trace-file FILE]
//! perfbench replay --cells FILE [--trace-file FILE]
//! perfbench serve --experiments BIN --cache-dir DIR --requests FILE [--trace-file FILE]
//! perfbench replay-space            # cell<TAB>fingerprint, one per distinct report
//! perfbench expect --requests FILE  # id<TAB>status<TAB>kind<TAB>fingerprint
//! ```

mod cells;
mod serve;
mod trace;

use cells::{grid_cells, replay_candidates, Cell};
use g10_bench::experiments::{cached_run, figure_set, run_cache_stats, workload};
use g10_bench::json::{obj, Json};
use g10_bench::output::write_csv;
use g10_dnn::models::ModelKind;
use g10_sim::{parallel_map, Experiment, PolicyKind, Workload};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{run_cell, Counters, Tracer, Workloads, FIG19_NOISE_SEED};

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, in KiB.
pub(crate) fn vm_hwm_kib(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// User plus system CPU seconds of this process so far.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of them, in clock ticks (100 per second on Linux).
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

pub(crate) fn write_trace(tracer: &Tracer, path: &Path) -> Result<(), String> {
    std::fs::write(path, tracer.to_chrome_json().render())
        .map_err(|err| format!("could not write {}: {err}", path.display()))
}

fn hex(fingerprint: u64) -> Json {
    Json::Str(format!("{fingerprint:016x}"))
}

// ---------------------------------------------------------------------------
// grid
// ---------------------------------------------------------------------------

/// Simulated Figure 11 headline figures over the cells the grid just
/// replayed: the geomean of G10's normalised performance, and G10's best
/// speed-up over the strongest of Base UVM, FlashNeuron and DeepUM+.
fn simulated_headline() -> (f64, f64, String) {
    let config = cells::Hardware::Table2.config();
    let time = |model: ModelKind, policy| {
        cached_run(model, model.eval_batch(), policy, &config)
            .total_time
            .as_secs_f64()
    };
    let mut log_sum = 0.0;
    let mut best = (0.0, String::new());
    for model in ModelKind::PAPER_MODELS {
        let g10 = cached_run(model, model.eval_batch(), PolicyKind::G10Full, &config);
        log_sum += g10.normalized_performance().ln();
        let baseline = [
            PolicyKind::BaseUvm,
            PolicyKind::FlashNeuron,
            PolicyKind::DeepUmPlus,
        ]
        .map(|policy| time(model, policy))
        .into_iter()
        .fold(f64::INFINITY, f64::min);
        let speedup = baseline / g10.total_time.as_secs_f64();
        if speedup > best.0 {
            best = (speedup, model.name().to_string());
        }
    }
    let geomean = (log_sum / ModelKind::PAPER_MODELS.len() as f64).exp();
    (geomean, best.0, best.1)
}

fn grid(out: &Path, trace_file: Option<&Path>) -> Result<Json, String> {
    println!("ready");
    std::io::stdout().flush().map_err(|err| err.to_string())?;
    let started = Instant::now();
    let mut figures = Vec::new();
    let mut csv_s = 0.0;
    for (name, driver) in figure_set() {
        let figure_started = Instant::now();
        let tables = driver();
        let csv_started = Instant::now();
        for (i, table) in tables.iter().enumerate() {
            let file = if tables.len() == 1 {
                name.to_string()
            } else {
                format!("{name}_{i}")
            };
            write_csv(table, out, &file).map_err(|err| format!("{file}.csv: {err}"))?;
        }
        csv_s += csv_started.elapsed().as_secs_f64();
        figures.push((name, Json::Num(figure_started.elapsed().as_secs_f64())));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds();
    let stats = run_cache_stats();
    let peak_rss_kib = vm_hwm_kib("/proc/self/status");
    let (norm_perf, best_speedup, best_model) = simulated_headline();
    let mut result = vec![
        ("wall_s", Json::Num(wall_s)),
        ("cpu_s", Json::Num(cpu_s)),
        ("csv_s", Json::Num(csv_s)),
        ("peak_rss_kib", Json::Num(peak_rss_kib)),
        ("figures", obj(figures)),
        ("cache_replayed", Json::Num(stats.replayed as f64)),
        ("cache_memory_hits", Json::Num(stats.memory_hits as f64)),
        ("cache_disk_hits", Json::Num(stats.disk_hits as f64)),
        ("sim_g10_norm_perf", Json::Num(norm_perf)),
        ("sim_g10_best_speedup", Json::Num(best_speedup)),
        ("sim_g10_best_model", Json::Str(best_model)),
    ];
    if let Some(path) = trace_file {
        result.extend(traced_grid(path)?);
    }
    Ok(obj(result))
}

/// The grid decomposed: every cell the grid replayed, in first-touch order,
/// plus Figure 19's uncached perturbed-trace runs, each checked against the
/// untraced report.  `grid_cells()` copies the figure drivers' constants, so
/// every cell it lists must already be in the grid's run cache: a cell the
/// grid never ran would be replayed here and counted in `decomposed_uncached`.
fn traced_grid(path: &Path) -> Result<Vec<(&'static str, Json)>, String> {
    let cells = grid_cells();
    let table2 = cells::Hardware::Table2.config();
    let replayed_before = run_cache_stats().replayed;
    let mut expected: Vec<u64> = cells
        .iter()
        .map(|(_, cell)| {
            cached_run(cell.model, cell.batch, cell.policy, &cell.hw.config()).fingerprint()
        })
        .collect();
    let uncached = run_cache_stats().replayed - replayed_before;
    let mut perturbed = Vec::new();
    for model in ModelKind::PAPER_MODELS {
        let workload = workload(model, model.eval_batch());
        for error in g10_bench::experiments::PROFILING_ERRORS {
            let noisy = workload.trace.with_noise(error, FIG19_NOISE_SEED);
            let report = Experiment::new(&workload)
                .policy(PolicyKind::G10Full)
                .config(table2)
                .planning_trace(&noisy)
                .run()
                .map_err(|err| err.to_string())?;
            expected.push(report.fingerprint());
            perturbed.push((model, error));
        }
    }

    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let mut workloads = Workloads::default();
    let traced_started = Instant::now();
    let mut fingerprints = Vec::new();
    for (figure, cell) in &cells {
        let report = run_cell(
            &mut tracer,
            &mut counters,
            &mut workloads,
            cell,
            None,
            figure,
        );
        fingerprints.push(report.fingerprint());
    }
    for (model, error) in &perturbed {
        let cell = Cell::new(
            *model,
            model.eval_batch(),
            PolicyKind::G10Full,
            cells::Hardware::Table2,
        );
        let report = run_cell(
            &mut tracer,
            &mut counters,
            &mut workloads,
            &cell,
            Some(*error),
            "fig19",
        );
        fingerprints.push(report.fingerprint());
    }
    let traced_wall_s = traced_started.elapsed().as_secs_f64();
    let mismatched = fingerprints
        .iter()
        .zip(&expected)
        .filter(|(got, want)| got != want)
        .count();
    write_trace(&tracer, path)?;
    Ok(vec![
        ("traced_wall_s", Json::Num(traced_wall_s)),
        ("decomposed_cells", Json::Num(cells.len() as f64)),
        ("decomposed_perturbed", Json::Num(perturbed.len() as f64)),
        ("decomposed_uncached", Json::Num(uncached as f64)),
        ("decomposed_mismatched", Json::Num(mismatched as f64)),
        ("counters", counters.to_json(&workloads)),
    ])
}

// ---------------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------------

fn replay(cells_file: &Path, trace_file: Option<&Path>) -> Result<Json, String> {
    let text = std::fs::read_to_string(cells_file)
        .map_err(|err| format!("{}: {err}", cells_file.display()))?;
    let cells: Vec<Cell> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(Cell::parse)
        .collect::<Result<_, _>>()?;

    let setup_started = Instant::now();
    let mut built: HashMap<(ModelKind, u64), Workload> = HashMap::new();
    for cell in &cells {
        built
            .entry((cell.model, cell.batch))
            .or_insert_with(|| Workload::new(cell.model, cell.batch));
    }
    let setup_s = setup_started.elapsed().as_secs_f64();

    let measured = Instant::now();
    let mut rows = Vec::with_capacity(cells.len());
    for cell in &cells {
        let started = Instant::now();
        let report = Experiment::new(&built[&(cell.model, cell.batch)])
            .policy(cell.policy)
            .config(cell.hw.config())
            .run()
            .map_err(|err| format!("{}: {err}", cell.id()))?;
        let ns = started.elapsed().as_nanos() as f64;
        rows.push(obj(vec![
            ("id", Json::Str(cell.id())),
            ("ns", Json::Num(ns)),
            ("fingerprint", hex(report.fingerprint())),
        ]));
    }
    let wall_s = measured.elapsed().as_secs_f64();
    let peak_rss_kib = vm_hwm_kib("/proc/self/status");
    drop(built);

    let mut result = vec![
        ("setup_s", Json::Num(setup_s)),
        ("wall_s", Json::Num(wall_s)),
        ("peak_rss_kib", Json::Num(peak_rss_kib)),
        ("cells", Json::Arr(rows)),
    ];
    if let Some(path) = trace_file {
        let mut tracer = Tracer::new();
        let mut counters = Counters::default();
        let mut workloads = Workloads::default();
        let traced_started = Instant::now();
        let decomposed: Vec<Json> = cells
            .iter()
            .map(|cell| {
                let report = run_cell(
                    &mut tracer,
                    &mut counters,
                    &mut workloads,
                    cell,
                    None,
                    "replay",
                );
                obj(vec![
                    ("id", Json::Str(cell.id())),
                    ("fingerprint", hex(report.fingerprint())),
                ])
            })
            .collect();
        result.push((
            "traced_wall_s",
            Json::Num(traced_started.elapsed().as_secs_f64()),
        ));
        result.push(("decomposed", Json::Arr(decomposed)));
        result.push(("counters", counters.to_json(&workloads)));
        write_trace(&tracer, path)?;
    }
    Ok(obj(result))
}

/// The `replay` cell space with the committed fingerprints: every candidate
/// replayed once, keeping the first cell of each distinct report.
fn replay_space() -> String {
    let candidates = replay_candidates();
    let fingerprints = parallel_map(candidates.clone(), |cell| {
        Experiment::new(&workload(cell.model, cell.batch))
            .policy(cell.policy)
            .config(cell.hw.config())
            .run()
            .expect("built-in designs resolve")
            .fingerprint()
    });
    let mut seen = std::collections::HashSet::new();
    let mut out = String::new();
    for (cell, fingerprint) in candidates.iter().zip(fingerprints) {
        if seen.insert(fingerprint) {
            out.push_str(&format!("{}\t{fingerprint:016x}\n", cell.id()));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

fn read_requests(path: &Path) -> Result<Vec<serve::Request>, String> {
    std::fs::read_to_string(path)
        .map_err(|err| format!("{}: {err}", path.display()))?
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(serve::Request::parse)
        .collect()
}

fn expect(path: &Path) -> Result<String, String> {
    let mut out = String::new();
    for request in read_requests(path)? {
        let (status, kind, fingerprint) = serve::expected_answer(&request.body);
        out.push_str(&format!(
            "{}\t{status}\t{kind}\t{fingerprint}\n",
            request.id
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// command line
// ---------------------------------------------------------------------------

fn run(args: &[String]) -> Result<(), String> {
    let mut flags: HashMap<&str, PathBuf> = HashMap::new();
    let mut iter = args.iter().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            flag @ ("--out" | "--cells" | "--trace-file" | "--experiments" | "--cache-dir"
            | "--requests") => {
                let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
                flags.insert(flag, PathBuf::from(value));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let need = |flag: &str| {
        flags
            .get(flag)
            .map(PathBuf::as_path)
            .ok_or_else(|| format!("{} needs {flag}", args[0]))
    };
    let trace_file = flags.get("--trace-file").map(PathBuf::as_path);
    let result = match args.first().map(String::as_str) {
        Some("grid") => grid(need("--out")?, trace_file)?,
        Some("replay") => replay(need("--cells")?, trace_file)?,
        Some("serve") => {
            let requests = read_requests(need("--requests")?)?;
            serve::round(
                need("--experiments")?,
                need("--cache-dir")?,
                &requests,
                trace_file,
            )?
        }
        Some("replay-space") => {
            print!("{}", replay_space());
            return Ok(());
        }
        Some("expect") => {
            print!("{}", expect(need("--requests")?)?);
            return Ok(());
        }
        _ => return Err("usage: perfbench grid|replay|serve|replay-space|expect ...".into()),
    };
    println!("{}", result.render());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
