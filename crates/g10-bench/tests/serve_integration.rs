//! Integration and chaos tests for the experiment service.
//!
//! Daemons run as real subprocesses of the `experiments` binary (the
//! persistent-cache suite's idiom): cold restarts are genuine — a fresh
//! process has an empty in-memory cell cache, so cross-restart hits must
//! come from the on-disk store — and one test's daemon cannot leak
//! in-process state into another's.  Clients go through
//! [`g10_bench::serve::exchange`], the same wire client `experiments
//! submit` and kick-tires use.

use g10_bench::cli::MAX_TENANTS;
use g10_bench::json::Json;
use g10_bench::serve::{exchange, exchange_raw};
use g10_dnn::models::MAX_BATCH;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);

/// A `POST /run` body of 65,000 `[` bytes: under the body-size cap, and
/// deep enough to overflow the stack of a parser with no nesting limit.
fn deep_nesting_body() -> String {
    "[".repeat(65_000)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "g10_serve_integration_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Daemon {
    child: Child,
    addr: String,
    /// The daemon's stdout, line by line, after the startup line.  Locked
    /// so client threads can share a `&Daemon`.
    stdout: Mutex<mpsc::Receiver<String>>,
}

impl Daemon {
    /// Spawns `experiments serve` with `extra` flags and waits for the
    /// startup line, which carries the ephemeral port.
    fn spawn(store: &std::path::Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(["--cache-dir", &store.display().to_string()])
            .args(extra)
            .env_remove("G10_CACHE_DIR")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("could not spawn daemon");
        let stdout = child.stdout.take().expect("daemon stdout piped");
        let (send, recv) = mpsc::channel();
        std::thread::spawn(move || {
            // Forward every line, and keep draining after the receiver is
            // gone so the daemon never blocks on a full pipe.
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = send.send(line);
            }
        });
        let line = loop {
            let line = recv
                .recv_timeout(TIMEOUT)
                .expect("daemon did not print its listening address");
            if line.contains("listening on ") {
                break line;
            }
        };
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .expect("malformed listening line")
            .to_string();
        Daemon {
            child,
            addr,
            stdout: Mutex::new(recv),
        }
    }

    /// Posts `/shutdown` and asserts the daemon drains and exits cleanly.
    fn shutdown(mut self) {
        let (status, _) =
            exchange(&self.addr, "POST", "/shutdown", None, TIMEOUT).expect("shutdown exchange");
        assert_eq!(status, 200, "shutdown must be acknowledged");
        let deadline = Instant::now() + TIMEOUT;
        loop {
            if let Some(exit) = self.child.try_wait().expect("wait on daemon") {
                assert!(exit.success(), "daemon must exit cleanly, got {exit:?}");
                return;
            }
            assert!(Instant::now() < deadline, "daemon did not exit after drain");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn submit(&self, body: &Json) -> (u16, Json) {
        exchange(&self.addr, "POST", "/run", Some(body), TIMEOUT).expect("run exchange")
    }

    fn submit_raw(&self, payload: &str) -> (u16, Json) {
        exchange_raw(&self.addr, "POST", "/run", payload, TIMEOUT).expect("run exchange")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn run_body(model: &str, batch: u64, policy: &str, extra: Vec<(&str, Json)>) -> Json {
    let mut entries = vec![
        ("model", Json::Str(model.to_string())),
        ("batch", Json::Num(batch as f64)),
        ("policy", Json::Str(policy.to_string())),
        ("gpu_mib", Json::Num(64.0)),
    ];
    entries.extend(extra);
    g10_bench::json::obj(entries)
}

fn response_tag(status: u16, body: &Json) -> String {
    if body.get("status").and_then(Json::as_str) == Some("ok") {
        assert_eq!(status, 200, "ok bodies must ride a 200");
        format!(
            "ok:{}",
            body.get("source").and_then(Json::as_str).unwrap_or("?")
        )
    } else {
        let kind = body
            .path("error.kind")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("error body without kind: {body:?}"));
        assert!(
            body.path("error.message").and_then(Json::as_str).is_some(),
            "error body without message: {body:?}"
        );
        format!("{status}:{kind}")
    }
}

/// The acceptance chaos run: concurrent clients mixing valid, duplicate,
/// unknown-policy, fault-injected, short-deadline, oversized and
/// deeply nested requests against a deliberately tiny daemon.  Every response must be typed, the
/// byte cap must shed at least once with a 503, `/healthz` must stay OK
/// throughout, and graceful shutdown must drain the last in-flight
/// request rather than dropping it.
#[test]
fn chaos_mixed_clients_all_get_typed_responses() {
    let store = fresh_dir("chaos");
    // queue-mib 8: a batch-4 request (~4 MiB estimate) fits, a batch-32
    // request (~32 MiB) is deterministically over the byte cap.
    let daemon = Daemon::spawn(
        &store,
        &["--workers", "1", "--queue-depth", "2", "--queue-mib", "8"],
    );

    let kinds: Vec<String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for round in 0u64..3 {
            // Valid + duplicate (same cell every round and thread).
            for _ in 0..2 {
                let daemon = &daemon;
                handles.push(scope.spawn(move || {
                    let (status, body) = daemon.submit(&run_body("tinycnn", 4, "g10", vec![]));
                    response_tag(status, &body)
                }));
            }
            // Unknown policy.
            let daemon_ref = &daemon;
            handles.push(scope.spawn(move || {
                let (status, body) =
                    daemon_ref.submit(&run_body("tinycnn", 4, "no-such-policy", vec![]));
                response_tag(status, &body)
            }));
            // Fault-injected.
            handles.push(scope.spawn(move || {
                let (status, body) = daemon_ref.submit(&run_body(
                    "tinycnn",
                    4,
                    "base-uvm",
                    vec![("inject_fault", Json::Str("2:step-panic".to_string()))],
                ));
                response_tag(status, &body)
            }));
            // Short deadline: expired before admission even queues it.
            handles.push(scope.spawn(move || {
                let (status, body) = daemon_ref.submit(&run_body(
                    "tinycnn",
                    4,
                    "g10",
                    vec![("deadline_ms", Json::Num(0.0))],
                ));
                response_tag(status, &body)
            }));
            // Over the byte cap: deterministic shed.
            handles.push(scope.spawn(move || {
                let (status, body) =
                    daemon_ref.submit(&run_body("tinycnn", 32 + round, "g10", vec![]));
                response_tag(status, &body)
            }));
            // Deeply nested body: a typed 400, never a dead daemon.
            handles.push(scope.spawn(move || {
                let (status, body) = daemon_ref.submit_raw(&deep_nesting_body());
                response_tag(status, &body)
            }));
            // Health probe interleaved with the storm.
            handles.push(scope.spawn(move || {
                let (status, body) =
                    exchange(&daemon_ref.addr, "GET", "/healthz", None, TIMEOUT).expect("healthz");
                assert_eq!(status, 200, "healthz must stay OK under chaos: {body:?}");
                assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));
                "health:ok".to_string()
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Under contention any run request may legitimately be shed instead of
    // reaching its own outcome, so the storm asserts the global contract —
    // every response typed, the byte cap observed shedding — and exact
    // per-category outcomes are pinned by the sequential pass below.
    let allowed = [
        "ok:replayed",
        "ok:memory",
        "ok:disk",
        "health:ok",
        "400:unknown-policy",
        "400:bad-request",
        "500:policy-fault",
        "504:deadline-exceeded",
        "504:cancelled",
        "503:overloaded",
    ];
    for tag in &kinds {
        assert!(allowed.contains(&tag.as_str()), "untyped response: {tag}");
    }
    let count = |prefix: &str| kinds.iter().filter(|t| t.starts_with(prefix)).count();
    assert!(
        count("503:overloaded") >= 3,
        "the over-cap request of each round must shed: {kinds:?}"
    );
    assert_eq!(count("health:ok"), 3, "{kinds:?}");
    assert_eq!(
        count("400:bad-request"),
        3,
        "every deeply nested body must be rejected as a bad request: {kinds:?}"
    );

    // Sequential pass against the now-idle daemon: with an empty queue
    // nothing sheds, so each request class must reach its exact outcome.
    let sequential = [
        (run_body("tinycnn", 4, "g10", vec![]), "ok:"),
        (
            run_body("tinycnn", 4, "no-such-policy", vec![]),
            "400:unknown-policy",
        ),
        (
            run_body(
                "tinycnn",
                4,
                "base-uvm",
                vec![("inject_fault", Json::Str("2:step-panic".to_string()))],
            ),
            "500:policy-fault",
        ),
        (
            run_body("tinycnn", 4, "g10", vec![("deadline_ms", Json::Num(0.0))]),
            "504:deadline-exceeded",
        ),
        (run_body("tinycnn", 32, "g10", vec![]), "503:overloaded"),
        (
            run_body("tinycnn", MAX_BATCH + 1, "g10", vec![]),
            "400:bad-request",
        ),
    ];
    for (body, expected) in sequential {
        let (status, response) = daemon.submit(&body);
        let tag = response_tag(status, &response);
        assert!(tag.starts_with(expected), "expected {expected}, got {tag}");
    }
    let (status, response) = daemon.submit_raw(&deep_nesting_body());
    assert_eq!(response_tag(status, &response), "400:bad-request");
    let (status, body) = exchange(&daemon.addr, "GET", "/healthz", None, TIMEOUT).expect("healthz");
    assert_eq!(
        status, 200,
        "healthz must stay OK after a deep body: {body:?}"
    );
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));

    // Graceful shutdown drains in-flight work: race a fresh (uncached)
    // request against the shutdown; it must still get its full typed
    // response, and the daemon must still exit cleanly.
    let straggler = {
        let daemon_ref = &daemon;
        std::thread::spawn({
            let addr = daemon_ref.addr.clone();
            move || {
                let body = run_body("tinycnn", 7, "base-uvm", vec![]);
                exchange(&addr, "POST", "/run", Some(&body), TIMEOUT).expect("straggler exchange")
            }
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    daemon.shutdown();
    let (status, body) = straggler.join().expect("straggler thread");
    let tag = response_tag(status, &body);
    assert!(
        tag == "ok:replayed" || tag == "503:shutting-down" || tag == "504:cancelled",
        "in-flight request neither answered nor shed: {tag}"
    );

    let _ = std::fs::remove_dir_all(&store);
}

/// Median wall time of `samples` runs of `exchange`, each asserted to
/// answer 200.
fn median_exchange_ms(samples: usize, mut exchange: impl FnMut() -> (u16, Json)) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let (status, body) = exchange();
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(status, 200, "{body:?}");
            elapsed
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[samples / 2]
}

/// The acceptor waits on socket readiness, so a request that needs no
/// replay is answered in well under a millisecond.  An accept loop that
/// sleeps 5 ms whenever no connection is waiting puts both medians near
/// 5 ms.
#[test]
fn hot_requests_are_answered_without_an_accept_delay() {
    const SAMPLES: usize = 50;
    const MEDIAN_CEILING_MS: f64 = 2.5;
    let store = fresh_dir("latency");
    let daemon = Daemon::spawn(&store, &[]);

    let health = median_exchange_ms(SAMPLES, || {
        exchange(&daemon.addr, "GET", "/healthz", None, TIMEOUT).expect("healthz")
    });
    assert!(
        health < MEDIAN_CEILING_MS,
        "median /healthz exchange took {health:.3} ms"
    );

    let body = run_body("tinycnn", 5, "g10", vec![]);
    let (status, first) = daemon.submit(&body);
    assert_eq!(status, 200, "warm-up run must succeed: {first:?}");
    let hot = median_exchange_ms(SAMPLES, || {
        let (status, response) = daemon.submit(&body);
        assert_eq!(
            response.get("source").and_then(Json::as_str),
            Some("memory"),
            "a repeated cell must be a memory hit"
        );
        (status, response)
    });
    assert!(
        hot < MEDIAN_CEILING_MS,
        "median cached-cell exchange took {hot:.3} ms"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

/// SIGTERM drains like `POST /shutdown`: a request in flight when the
/// signal lands still gets a typed answer, and the daemon exits 0 promptly
/// with its drain recorded.
#[cfg(unix)]
#[test]
fn sigterm_drains_in_flight_work_and_exits_cleanly() {
    let store = fresh_dir("sigterm");
    let mut daemon = Daemon::spawn(&store, &[]);
    // An uncached G10 cell under memory pressure: it plans before it
    // replays, so it is usually still running when the signal lands.
    let straggler = std::thread::spawn({
        let addr = daemon.addr.clone();
        move || {
            let body = run_body("senet154", 8, "g10", vec![]);
            exchange(&addr, "POST", "/run", Some(&body), TIMEOUT).expect("straggler exchange")
        }
    });
    let admitted = Instant::now() + TIMEOUT;
    loop {
        let (_, stats) =
            exchange(&daemon.addr, "GET", "/stats", None, TIMEOUT).expect("stats exchange");
        if stats.get("admitted").and_then(Json::as_u64) == Some(1) {
            break;
        }
        assert!(Instant::now() < admitted, "straggler was never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }

    let killed = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("could not run kill");
    assert!(killed.success(), "kill -TERM failed: {killed:?}");
    let deadline = Instant::now() + Duration::from_secs(2);
    let exit = loop {
        if let Some(exit) = daemon.child.try_wait().expect("wait on daemon") {
            break exit;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not exit within 2 s of SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        exit.success(),
        "daemon must exit 0 on SIGTERM, got {exit:?}"
    );
    let stdout = daemon.stdout.lock().expect("stdout lock");
    let log: Vec<String> = std::iter::from_fn(|| stdout.recv_timeout(TIMEOUT).ok()).collect();
    assert!(
        log.iter().any(|line| line == "serve: drained and stopped"),
        "daemon must log the completed drain: {log:?}"
    );

    let (status, body) = straggler.join().expect("straggler thread");
    let tag = response_tag(status, &body);
    assert!(
        tag == "ok:replayed" || tag == "503:shutting-down" || tag == "504:cancelled",
        "in-flight request neither answered nor shed: {tag}"
    );
    let _ = std::fs::remove_dir_all(&store);
}

/// Cold restart: a cell replayed by one daemon process is served by the
/// next one as a disk hit with a bit-identical report fingerprint.
#[test]
fn cold_restart_serves_prior_cells_byte_identically() {
    let store = fresh_dir("restart");
    let body = run_body("tinycnn", 6, "g10", vec![]);

    let first = Daemon::spawn(&store, &[]);
    let (status, response) = first.submit(&body);
    assert_eq!(status, 200, "first run must succeed: {response:?}");
    assert_eq!(
        response.get("source").and_then(Json::as_str),
        Some("replayed"),
        "a fresh store must be a miss"
    );
    let fingerprint = response
        .path("report.fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint present")
        .to_string();
    first.shutdown();

    let second = Daemon::spawn(&store, &[]);
    let (status, response) = second.submit(&body);
    assert_eq!(status, 200, "replayed cell must load after restart");
    assert_eq!(
        response.get("source").and_then(Json::as_str),
        Some("disk"),
        "a cold process must hit the persistent store: {response:?}"
    );
    assert_eq!(
        response.path("report.fingerprint").and_then(Json::as_str),
        Some(fingerprint.as_str()),
        "restart must serve the prior cell bit-identically"
    );
    second.shutdown();

    let _ = std::fs::remove_dir_all(&store);
}

/// Multi-job requests: a `jobs: [...]` body replays the mix through the
/// tenancy subsystem, answers with per-tenant summaries and a
/// deterministic mix fingerprint, and `/stats` tallies tenants served and
/// shed per job, not per request.
#[test]
fn multi_job_requests_run_the_mix_and_count_tenants() {
    let store = fresh_dir("multi");
    let daemon = Daemon::spawn(&store, &[]);
    let job = |model: &str, batch: u64, priority: u64, quota_mib: u64, arrival_us: u64| {
        g10_bench::json::obj(vec![
            ("model", Json::Str(model.to_string())),
            ("batch", Json::Num(batch as f64)),
            ("priority", Json::Num(priority as f64)),
            ("quota_mib", Json::Num(quota_mib as f64)),
            ("arrival_us", Json::Num(arrival_us as f64)),
        ])
    };
    let body = g10_bench::json::obj(vec![
        ("policy", Json::Str("tensile".to_string())),
        ("gpu_mib", Json::Num(64.0)),
        (
            "jobs",
            Json::Arr(vec![
                job("tinycnn", 64, 4, 40, 0),
                job("tinytransformer", 32, 1, 8, 20),
            ]),
        ),
    ]);

    let (status, response) = daemon.submit(&body);
    assert_eq!(status, 200, "multi run must succeed: {response:?}");
    assert_eq!(response.get("source").and_then(Json::as_str), Some("multi"));
    assert_eq!(
        response.path("report.tenants").and_then(Json::as_u64),
        Some(2)
    );
    let jobs = response
        .path("report.jobs")
        .and_then(Json::as_arr)
        .expect("per-tenant summaries present");
    assert_eq!(jobs.len(), 2);
    for job in jobs {
        assert!(job.get("name").and_then(Json::as_str).is_some());
        assert!(job.get("fingerprint").and_then(Json::as_str).is_some());
    }
    let fingerprint = response
        .path("report.fingerprint")
        .and_then(Json::as_str)
        .expect("mix fingerprint present")
        .to_string();

    // The same mix again: bit-identical, and four tenants served in total.
    let (status, again) = daemon.submit(&body);
    assert_eq!(status, 200);
    assert_eq!(
        again.path("report.fingerprint").and_then(Json::as_str),
        Some(fingerprint.as_str()),
        "multi replay must be deterministic across requests"
    );

    // A failing mix (unknown policy) sheds both its tenants.
    let bad = g10_bench::json::obj(vec![
        ("policy", Json::Str("no-such-design".to_string())),
        (
            "jobs",
            Json::Arr(vec![
                job("tinycnn", 8, 1, 16, 0),
                job("tinycnn", 8, 1, 16, 5),
            ]),
        ),
    ]);
    let (status, response) = daemon.submit(&bad);
    assert_eq!(status, 400, "unknown policy is the client's fault");
    assert_eq!(
        response.path("error.kind").and_then(Json::as_str),
        Some("unknown-policy")
    );

    // A mix one job over the bound is refused before it is queued.
    let over = vec![r#"{"model":"tinycnn","batch":8}"#; MAX_TENANTS as usize + 1];
    let (status, response) = daemon.submit_raw(&format!(r#"{{"jobs":[{}]}}"#, over.join(",")));
    assert_eq!(response_tag(status, &response), "400:bad-request");
    let message = response.path("error.message").and_then(Json::as_str);
    let expected = format!("jobs must name at most {MAX_TENANTS} jobs");
    assert!(
        message.is_some_and(|m| m.contains(&expected)),
        "{response:?}"
    );

    let (status, stats) =
        exchange(&daemon.addr, "GET", "/stats", None, TIMEOUT).expect("stats exchange");
    assert_eq!(status, 200);
    assert_eq!(stats.get("multi_requests").and_then(Json::as_u64), Some(3));
    assert_eq!(stats.get("tenants_served").and_then(Json::as_u64), Some(4));
    assert_eq!(stats.get("tenants_shed").and_then(Json::as_u64), Some(2));

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

/// A cancelled replay writes nothing to either cache layer: no store
/// entry, no memoised cell — and the cell is not poisoned, a later
/// uncancelled run replays and persists normally.
#[test]
fn cancelled_run_leaves_no_partial_store_write() {
    use g10_bench::lab::{CacheOutcome, Lab, RunCacheStats};
    use g10_bench::store::RunStore;
    use g10_core::config::SystemConfig;
    use g10_dnn::models::ModelKind;
    use g10_sim::{CancelToken, PolicyKind, PolicySpec, RuntimeOptions, SimError};

    let dir = fresh_dir("no_partial_write");
    let lab = Lab::new(Some(RunStore::open(&dir).expect("open store")));
    let store = lab.store().expect("the Lab has a store");
    let config = SystemConfig::table2().with_gpu_memory(48 << 20);
    let spec = PolicySpec::Builtin(PolicyKind::BaseUvm);
    let with_token = |cancel| RuntimeOptions {
        cancel: Some(cancel),
        ..RuntimeOptions::default()
    };

    // Mid-replay cancellation: typed error, empty store, nothing memoised.
    let cancelled = lab.cell(
        ModelKind::TinyCnn,
        9,
        &spec,
        &config,
        &with_token(CancelToken::at_step(1)),
    );
    match cancelled {
        Err(SimError::DeadlineExceeded { step, .. }) => assert_eq!(step, 1),
        other => panic!("expected a typed deadline error, got {other:?}"),
    }
    assert_eq!(store.entry_count(), 0, "cancelled run must not persist");
    assert_eq!(lab.stats(), RunCacheStats::default(), "nor count");

    // The cell is not poisoned: a fresh token replays and persists.
    let (report, outcome) = lab
        .cell(
            ModelKind::TinyCnn,
            9,
            &spec,
            &config,
            &with_token(CancelToken::new()),
        )
        .expect("uncancelled run succeeds");
    assert_eq!(outcome, Some(CacheOutcome::Replayed));
    assert_eq!(report.batch, 9);
    assert_eq!(store.entry_count(), 1, "completed run must persist");

    let _ = std::fs::remove_dir_all(&dir);
}
