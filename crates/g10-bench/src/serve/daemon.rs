//! The experiment daemon: accept loop, endpoint routing, worker pool and
//! the graceful-shutdown state machine.
//!
//! Lifecycle:
//!
//! 1. **Serving** — `POST /run` requests are parsed, given a
//!    [`CancelToken`] (deadline measured from admission), and offered to
//!    the bounded queue; over-cap requests get `503` + `Retry-After`.
//! 2. **Draining** — entered on `POST /shutdown` or `SIGTERM`.  Admission
//!    closes (`/run` answers a typed 503 `shutting-down`), but `/healthz`
//!    and `/stats` keep answering and queued + in-flight work continues.
//! 3. **Drain deadline** — if the backlog has not emptied within
//!    `drain_ms`, every queued and in-flight token is cancelled; workers
//!    answer those requests with the typed 504 rather than dropping them.
//!    No admitted request is ever left without a response.
//! 4. **Stopped** — workers joined, listener closed.  Store writes happen
//!    synchronously inside the workers (atomic rename per entry), so there
//!    is nothing left to flush by construction.

use g10_sim::CancelToken;
use std::io::ErrorKind;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::protocol::{self, HttpRequest, RunRequest};
use super::queue::{Admission, AdmissionError, Job};
use super::worker::{worker_loop, RunningTokens, ServeStats};
use crate::json::{obj, Json};

/// Knobs of one daemon instance, all settable from `experiments serve`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks an ephemeral port (printed on startup).
    pub addr: String,
    /// Worker threads executing admitted requests.
    pub workers: usize,
    /// Admission cap: queued requests.
    pub queue_depth: usize,
    /// Admission cap: estimated queued bytes.
    pub queue_bytes: u64,
    /// Grace period between entering drain and cancelling stragglers.
    pub drain_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 32,
            queue_bytes: 256 << 20,
            drain_ms: 5_000,
        }
    }
}

/// Process-wide SIGTERM/SIGINT latch.  Registered handlers may only set
/// this flag; the accept loop checks it each time it wakes.
static TERMINATE: AtomicBool = AtomicBool::new(false);

/// Installs minimal SIGTERM/SIGINT handlers (unix only; elsewhere
/// `POST /shutdown` is the only trigger).  No `libc` crate is vendored, so
/// the two symbols used are declared by hand.
#[cfg(unix)]
fn install_signal_handlers() {
    // The handler argument is declared as a plain address so the same
    // symbol covers both a real handler and the SIG_IGN sentinel.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_terminate(_signum: i32) {
        // Async-signal-safe: one relaxed store, nothing else.
        TERMINATE.store(true, Ordering::Relaxed);
    }
    const SIGINT: i32 = 2;
    const SIGPIPE: i32 = 13;
    const SIGTERM: i32 = 15;
    const SIG_IGN: usize = 1;
    unsafe {
        signal(SIGTERM, on_terminate as extern "C" fn(i32) as usize);
        signal(SIGINT, on_terminate as extern "C" fn(i32) as usize);
        // A client hanging up mid-response must never kill the daemon:
        // re-ignore SIGPIPE even if the launching process (e.g. the CLI,
        // which restores the default disposition for pipe-friendly output)
        // changed it.  Failed socket writes surface as io::Error instead.
        signal(SIGPIPE, SIG_IGN);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Blocks until `listener` has a connection to accept or `timeout`
/// passes.  A signal landing on this thread ends the wait early with
/// `EINTR`; readiness, timeout and interruption all send the caller back
/// around the accept loop, so the result is not inspected.  `poll(2)` is
/// declared by hand for the same reason as `signal` above.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::AsRawFd;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::os::raw::c_uint;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }
    const POLLIN: c_short = 0x1;

    let mut fds = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fds` is one valid, exclusively borrowed `pollfd` for the
    // duration of the call, and `nfds` says exactly one.
    unsafe {
        poll(&mut fds, 1, timeout_ms);
    }
}

#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

/// Runs the daemon until shutdown completes.  Blocks the calling thread.
///
/// # Errors
///
/// Only on startup failures (bad bind address); once listening, every
/// per-connection problem is answered or dropped without stopping the
/// daemon.
pub fn serve(options: &ServeOptions) -> Result<(), String> {
    let listener = TcpListener::bind(&options.addr)
        .map_err(|err| format!("could not bind {}: {err}", options.addr))?;
    let local = listener
        .local_addr()
        .map_err(|err| format!("could not read bound address: {err}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|err| format!("could not set nonblocking: {err}"))?;
    install_signal_handlers();
    TERMINATE.store(false, Ordering::Relaxed);

    let workers = options.workers.max(1);
    let admission = Arc::new(Admission::new(options.queue_depth, options.queue_bytes));
    let stats = Arc::new(ServeStats::default());
    let running = Arc::new(RunningTokens::new(workers));
    let handles: Vec<_> = (0..workers)
        .map(|i| {
            let admission = Arc::clone(&admission);
            let stats = Arc::clone(&stats);
            let running = Arc::clone(&running);
            std::thread::Builder::new()
                .name(format!("g10-serve-worker-{i}"))
                .spawn(move || worker_loop(i, &admission, &stats, &running))
                .expect("could not spawn worker thread")
        })
        .collect();

    // The startup line is the daemon's contract with scripts and tests:
    // they parse the port out of it.
    println!(
        "serve: listening on {local} ({workers} workers, queue depth {}, {} MiB)",
        options.queue_depth,
        options.queue_bytes >> 20
    );

    let mut draining = false;
    let mut drain_deadline: Option<Instant> = None;
    let mut cancelled_stragglers = false;
    loop {
        if !draining && TERMINATE.load(Ordering::Relaxed) {
            draining = true;
        }
        if draining && drain_deadline.is_none() {
            println!("serve: draining ({} queued)", admission.depth());
            admission.close();
            drain_deadline = Some(Instant::now() + Duration::from_millis(options.drain_ms));
        }
        if let Some(deadline) = drain_deadline {
            let idle = admission.depth() == 0 && stats.in_flight.load(Ordering::Relaxed) == 0;
            if idle {
                break;
            }
            if !cancelled_stragglers && Instant::now() >= deadline {
                println!(
                    "serve: drain deadline expired, cancelling {} in-flight",
                    stats.in_flight.load(Ordering::Relaxed)
                );
                admission.cancel_queued();
                running.cancel_all();
                cancelled_stragglers = true;
            }
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                // Bound how long one slow client can hold the acceptor.
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                stats.received.fetch_add(1, Ordering::Relaxed);
                match protocol::read_request(&mut stream) {
                    Ok(request) => route(request, stream, &admission, &stats, &mut draining),
                    Err(message) => {
                        let _ = protocol::write_response(
                            &mut stream,
                            400,
                            None,
                            &protocol::error_body("bad-request", &message),
                        );
                    }
                }
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => {
                // Serving, the timeout only bounds how late a SIGTERM
                // caught by a worker thread is noticed.  Draining, it keeps
                // the idle check and the drain deadline on a 5 ms cadence.
                let timeout_ms = if draining { 5 } else { 100 };
                wait_for_connection(&listener, Duration::from_millis(timeout_ms));
            }
            Err(err) => {
                // Transient accept errors (aborted handshakes) are not
                // fatal; keep serving.
                eprintln!("serve: accept error: {err}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    for handle in handles {
        let _ = handle.join();
    }
    println!("serve: drained and stopped");
    Ok(())
}

/// Routes one parsed request.  `POST /shutdown` flips `draining`; the
/// accept loop owns the rest of the drain transition.
fn route(
    request: HttpRequest,
    mut stream: std::net::TcpStream,
    admission: &Arc<Admission>,
    stats: &Arc<ServeStats>,
    draining: &mut bool,
) {
    let respond = |stream: &mut std::net::TcpStream, status, retry_after, body: &Json| {
        let _ = protocol::write_response(stream, status, retry_after, body);
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            // Health stays OK while draining: in-flight work is still being
            // served; orchestrators use readiness (`draining`) to stop
            // routing new work here.
            respond(
                &mut stream,
                200,
                None,
                &obj(vec![
                    ("status", Json::Str("ok".to_string())),
                    ("draining", Json::Bool(*draining)),
                ]),
            );
        }
        ("GET", "/stats") => {
            respond(
                &mut stream,
                200,
                None,
                &stats.to_json(admission.depth(), *draining),
            );
        }
        ("POST", "/shutdown") => {
            respond(
                &mut stream,
                200,
                None,
                &obj(vec![
                    ("status", Json::Str("ok".to_string())),
                    ("message", Json::Str("draining".to_string())),
                ]),
            );
            *draining = true;
        }
        ("POST", "/run") => {
            if *draining {
                stats.shed.fetch_add(1, Ordering::Relaxed);
                respond(
                    &mut stream,
                    503,
                    Some(5),
                    &protocol::error_body("shutting-down", "daemon is draining"),
                );
                return;
            }
            let parsed = Json::parse(&request.body)
                .map_err(|err| format!("body is not valid JSON: {err}"))
                .and_then(|body| RunRequest::from_json(&body));
            let run = match parsed {
                Ok(run) => run,
                Err(message) => {
                    stats.failed.fetch_add(1, Ordering::Relaxed);
                    respond(
                        &mut stream,
                        400,
                        None,
                        &protocol::error_body("bad-request", &message),
                    );
                    return;
                }
            };
            // The token starts ticking here, at admission — queue time is
            // part of the request's budget.
            let cancel = match run.deadline_ms {
                Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
                None => CancelToken::new(),
            };
            let cost = run.estimated_cost();
            match admission.offer(Job {
                stream,
                request: run,
                cancel,
                cost,
            }) {
                Ok(()) => {
                    stats.admitted.fetch_add(1, Ordering::Relaxed);
                }
                Err((
                    job,
                    AdmissionError::Overloaded {
                        depth,
                        queued_bytes,
                        retry_after_s,
                    },
                )) => {
                    stats.shed.fetch_add(1, Ordering::Relaxed);
                    stats
                        .tenants_shed
                        .fetch_add(job.request.jobs.len() as u64, Ordering::Relaxed);
                    let mut stream = job.stream;
                    respond(
                        &mut stream,
                        503,
                        Some(retry_after_s),
                        &protocol::error_body(
                            "overloaded",
                            &format!(
                                "admission queue full ({depth} queued, ~{} MiB); retry shortly",
                                queued_bytes >> 20
                            ),
                        ),
                    );
                }
                Err((job, AdmissionError::Closed)) => {
                    stats.shed.fetch_add(1, Ordering::Relaxed);
                    stats
                        .tenants_shed
                        .fetch_add(job.request.jobs.len() as u64, Ordering::Relaxed);
                    let mut stream = job.stream;
                    respond(
                        &mut stream,
                        503,
                        Some(5),
                        &protocol::error_body("shutting-down", "daemon is draining"),
                    );
                }
            }
        }
        (_, path) => {
            respond(
                &mut stream,
                404,
                None,
                &protocol::error_body("not-found", &format!("no such endpoint: {path}")),
            );
        }
    }
}
