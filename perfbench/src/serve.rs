//! One `serve` round: a fresh `experiments serve` daemon over a fresh store,
//! driven by two closed-loop client connections.

use crate::cells::{Cell, Hardware};
use crate::trace::{run_cell, Counters, Tracer, Workloads};
use g10_bench::experiments::workload;
use g10_bench::json::{obj, Json};
use g10_bench::serve::worker::{run_multi_request, run_request};
use g10_bench::serve::{exchange, RunRequest};
use g10_bench::store::{RunKey, RunStore};
use g10_sim::{CancelToken, PolicySpec};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One line of the request file: `class<TAB>id<TAB>body`.  The classes
/// `setup-store` (written to the store before the daemon answers) and
/// `setup-warm` (sent once during set-up) are not part of the measured
/// stream.
pub struct Request {
    pub class: String,
    pub id: String,
    pub body: Json,
}

impl Request {
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut fields = line.splitn(3, '\t');
        let (Some(class), Some(id), Some(body)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(format!(
                "request line {line:?} is not class<TAB>id<TAB>body"
            ));
        };
        Ok(Request {
            class: class.to_string(),
            id: id.to_string(),
            body: Json::parse(body)?,
        })
    }

    fn is_setup(&self) -> bool {
        self.class.starts_with("setup-")
    }

    /// The single cell a non-multi request names, if it is a built-in one.
    fn cell(&self) -> Option<Cell> {
        let request = RunRequest::from_json(&self.body).ok()?;
        let PolicySpec::Builtin(policy) = request.policy.parse().ok()? else {
            return None;
        };
        if !request.jobs.is_empty() || request.inject_fault.is_some() {
            return None;
        }
        let hw = request.gpu_mib.map_or(Hardware::Table2, Hardware::GpuMib);
        Some(Cell::new(request.model, request.batch, policy, hw))
    }
}

const TIMEOUT: Duration = Duration::from_secs(60);

/// One measured exchange: stream index, start and end (trace clock, ns)
/// and the daemon's answer.
type Answer = (usize, u64, u64, Result<(u16, Json), String>);

/// Admission byte cap.  The daemon estimates a request at 1 MiB per batch
/// sample, so its default 256 MiB cap sheds every paper model at its
/// evaluation batch even when idle; two in-flight requests of the largest
/// evaluation batch (1536) stay under this cap.
const QUEUE_MIB: &str = "4096";

/// What the daemon answered, in the form `run.py` checks against the
/// committed expectations.
fn outcome(response: &Result<(u16, Json), String>) -> Vec<(&'static str, Json)> {
    match response {
        Err(err) => vec![("error", Json::Str(err.clone()))],
        Ok((status, body)) => {
            let text = |path: &str| {
                body.path(path)
                    .and_then(Json::as_str)
                    .map_or(Json::Null, |s| Json::Str(s.to_string()))
            };
            vec![
                ("status", Json::Num(f64::from(*status))),
                ("kind", text("error.kind")),
                ("source", text("source")),
                ("fingerprint", text("report.fingerprint")),
            ]
        }
    }
}

/// The answer the daemon gives `request`, computed in-process with the
/// daemon's own handlers: `(status, kind, fingerprint)`.
pub fn expected_answer(body: &Json) -> (u16, String, String) {
    let request = match RunRequest::from_json(body) {
        Ok(request) => request,
        Err(_) => return (400, "bad-request".to_string(), "-".to_string()),
    };
    let cancel = match request.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    let answer = if request.jobs.is_empty() {
        run_request(&request, cancel).map(|(report, _)| report.fingerprint())
    } else {
        run_multi_request(&request, cancel).map(|report| report.fingerprint())
    };
    match answer {
        Ok(fingerprint) => (200, "-".to_string(), format!("{fingerprint:016x}")),
        Err(err) => {
            let (status, kind) = g10_bench::serve::protocol::sim_error_status(&err);
            (status, kind.to_string(), "-".to_string())
        }
    }
}

/// Stops the daemon through `POST /shutdown`, reads its remaining output
/// and waits for it; kills it if it has not exited within ten seconds.
fn stop(addr: &str, mut child: Child, mut stdout: BufReader<std::process::ChildStdout>) {
    let _ = exchange(addr, "POST", "/shutdown", None, TIMEOUT);
    let mut rest = String::new();
    while stdout.read_line(&mut rest).unwrap_or(0) > 0 {
        rest.clear();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    if matches!(child.try_wait(), Ok(None)) {
        let _ = child.kill();
    }
    let _ = child.wait();
}

pub fn round(
    experiments: &Path,
    cache_dir: &Path,
    requests: &[Request],
    trace_file: Option<&Path>,
) -> Result<Json, String> {
    let setup_started = Instant::now();
    let mut child = Command::new(experiments)
        .args(["serve", "--workers", "2", "--addr", "127.0.0.1:0"])
        .args(["--queue-mib", QUEUE_MIB, "--cache-dir"])
        .arg(cache_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|err| format!("could not start {}: {err}", experiments.display()))?;
    let pid = child.id();
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut banner = String::new();
    let _ = stdout.read_line(&mut banner);
    let Some(addr) = banner
        .strip_prefix("serve: listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .map(str::to_string)
    else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("daemon did not report its address: {banner:?}"));
    };
    let result = drive(&addr, pid, cache_dir, requests, trace_file, setup_started);
    stop(&addr, child, stdout);
    result
}

fn drive(
    addr: &str,
    pid: u32,
    cache_dir: &Path,
    requests: &[Request],
    trace_file: Option<&Path>,
    setup_started: Instant,
) -> Result<Json, String> {
    let store = RunStore::open(cache_dir).map_err(|err| format!("store: {err}"))?;
    for request in requests.iter().filter(|r| r.class == "setup-store") {
        let parsed = RunRequest::from_json(&request.body)?;
        let cell = request
            .cell()
            .ok_or_else(|| format!("{} is not a built-in cell", request.id))?;
        let (report, _) =
            run_request(&parsed, CancelToken::new()).map_err(|err| err.to_string())?;
        store
            .save(&store_key(&cell), &report)
            .map_err(|err| format!("store write: {err}"))?;
    }
    let healthy_by = Instant::now() + TIMEOUT;
    while !matches!(
        exchange(addr, "GET", "/healthz", None, TIMEOUT),
        Ok((200, _))
    ) {
        if Instant::now() > healthy_by {
            return Err("daemon never answered /healthz".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut setup_failures = 0;
    for request in requests.iter().filter(|r| r.class == "setup-warm") {
        if !matches!(
            exchange(addr, "POST", "/run", Some(&request.body), TIMEOUT),
            Ok((200, _))
        ) {
            setup_failures += 1;
        }
    }
    let setup_s = setup_started.elapsed().as_secs_f64();

    // The measured stream: two closed-loop connections, each sending its
    // next request only after the previous answer is parsed.
    let stream: Vec<&Request> = requests.iter().filter(|r| !r.is_setup()).collect();
    let next = AtomicUsize::new(0);
    let answers: Mutex<Vec<Answer>> = Mutex::new(Vec::new());
    let mut tracer = Tracer::new();
    let measured = tracer.now_ns();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(request) = stream.get(i) else { break };
                let start = tracer.now_ns();
                let response = exchange(addr, "POST", "/run", Some(&request.body), TIMEOUT);
                let end = tracer.now_ns();
                answers
                    .lock()
                    .expect("answer list poisoned")
                    .push((i, start, end, response));
            });
        }
    });
    let wall_s = (tracer.now_ns() - measured) as f64 / 1e9;
    let mut answers = answers.into_inner().expect("answer list poisoned");
    answers.sort_by_key(|(i, ..)| *i);
    let stats = exchange(addr, "GET", "/stats", None, TIMEOUT)
        .map(|(_, body)| body)
        .unwrap_or(Json::Null);
    let peak_rss_kib = crate::vm_hwm_kib(&format!("/proc/{pid}/status"));

    let rows: Vec<Json> = answers
        .iter()
        .map(|(i, start, end, response)| {
            let request = stream[*i];
            let mut fields = vec![
                ("class", Json::Str(request.class.clone())),
                ("id", Json::Str(request.id.clone())),
                ("ns", Json::Num((end - start) as f64)),
            ];
            fields.extend(outcome(response));
            if trace_file.is_some() {
                let span = tracer.push("serve.request", &request.id, None, *start, *end);
                tracer.annotate(span, "class", request.class.clone());
                if let Ok((_, body)) = response {
                    let source = body.get("source").and_then(Json::as_str).unwrap_or("-");
                    tracer.annotate(span, "source", source);
                }
            }
            obj(fields)
        })
        .collect();

    let mut result = vec![
        ("setup_s", Json::Num(setup_s)),
        ("setup_failures", Json::Num(f64::from(setup_failures))),
        ("wall_s", Json::Num(wall_s)),
        ("peak_rss_kib", Json::Num(peak_rss_kib)),
        ("requests", Json::Arr(rows)),
        ("stats", stats),
    ];
    if let Some(path) = trace_file {
        let in_process = Instant::now();
        result.extend(traced_layers(&mut tracer, &store, requests));
        let traced_wall_s = wall_s + in_process.elapsed().as_secs_f64();
        result.push(("traced_wall_s", Json::Num(traced_wall_s)));
        crate::write_trace(&tracer, path)?;
    }
    Ok(obj(result))
}

/// The store key the daemon files `cell` under.
fn store_key(cell: &Cell) -> RunKey {
    RunKey {
        model: cell.model.name().to_string(),
        batch: cell.batch,
        policy: cell.policy.label().to_string(),
        config: cell.hw.config().cache_key(),
    }
}

/// The in-process half of a traced round: `RunStore::load` and
/// `RunStore::save` on the entries the round wrote, then the round's
/// `cold` cells decomposed by layer and its `multi` mixes through
/// `g10_sim::tenancy`.
fn traced_layers(
    tracer: &mut Tracer,
    store: &RunStore,
    requests: &[Request],
) -> Vec<(&'static str, Json)> {
    let mut stored = Vec::new();
    for request in requests {
        let Some(cell) = request.cell() else { continue };
        let key = store_key(&cell);
        if stored.contains(&key) {
            continue;
        }
        let loaded = tracer.time("bench.store_load", &request.id, None, || store.load(&key));
        if let Some(report) = loaded {
            let _ = tracer.time("bench.store_save", &request.id, None, || {
                store.save(&key, &report)
            });
        }
        stored.push(key);
    }
    let mut counters = Counters::default();
    let mut workloads = Workloads::default();
    let mut decomposed = Vec::new();
    let mut multi_jobs = 0u64;
    for request in requests {
        if request.class == "cold" {
            let cell = request.cell().expect("cold requests name built-in cells");
            let report = run_cell(tracer, &mut counters, &mut workloads, &cell, None, "cold");
            decomposed.push(obj(vec![
                ("id", Json::Str(request.id.clone())),
                (
                    "fingerprint",
                    Json::Str(format!("{:016x}", report.fingerprint())),
                ),
            ]));
        } else if request.class == "multi" {
            let parsed = RunRequest::from_json(&request.body).expect("multi bodies parse");
            for job in &parsed.jobs {
                workload(job.model, job.batch);
            }
            let report = tracer
                .time("sim.multi", &request.id, None, || {
                    run_multi_request(&parsed, CancelToken::new())
                })
                .expect("multi mixes run");
            multi_jobs += parsed.jobs.len() as u64;
            decomposed.push(obj(vec![
                ("id", Json::Str(request.id.clone())),
                (
                    "fingerprint",
                    Json::Str(format!("{:016x}", report.fingerprint())),
                ),
            ]));
        }
    }
    vec![
        ("decomposed", Json::Arr(decomposed)),
        ("counters", counters.to_json(&workloads)),
        ("multi_jobs", Json::Num(multi_jobs as f64)),
    ]
}
