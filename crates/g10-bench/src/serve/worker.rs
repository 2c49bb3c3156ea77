//! The worker side of the experiment service: one admitted [`Job`] in, one
//! typed HTTP response out, no matter what the policy code does.
//!
//! Workers are long-lived threads looping on [`Admission::take`].  Each
//! job runs under the request's own [`CancelToken`] and inside
//! [`catch_policy_panic`], so the three failure families stay separate and
//! typed: client mistakes (400), policy faults and contained panics (500),
//! expired deadlines and drain cancellations (504).  A worker thread
//! itself never dies with a request — panic containment turns the panic
//! into the 500 body and the loop continues.

use g10_sim::fault::catch_policy_panic;
use g10_sim::{
    register_tensile, CancelToken, Experiment, MultiReport, PolicySpec, RuntimeOptions, SimError,
    SimReport,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::protocol::{self, RunRequest};
use super::queue::{Admission, Job};
use crate::experiments::{gpu_config, run_cell, CacheOutcome};
use crate::json::Json;

/// Monotonic counters behind `GET /stats`, shared by acceptor and workers.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests read off the wire (any endpoint).
    pub received: AtomicU64,
    /// Run requests admitted to the queue.
    pub admitted: AtomicU64,
    /// Run requests shed with 503.
    pub shed: AtomicU64,
    /// Run responses with status ok.
    pub ok: AtomicU64,
    /// Run responses with a typed error body.
    pub failed: AtomicU64,
    /// Jobs currently being executed by workers.
    pub in_flight: AtomicU64,
    /// Ok responses served by fresh replay.
    pub replayed: AtomicU64,
    /// Ok responses served from the in-memory cell cache.
    pub memory_hits: AtomicU64,
    /// Ok responses served from the persistent store.
    pub disk_hits: AtomicU64,
    /// Multi-job requests executed (ok or failed).
    pub multi_requests: AtomicU64,
    /// Tenants of multi-job requests that completed (per-job tally).
    pub tenants_served: AtomicU64,
    /// Tenants of multi-job requests that were shed or failed (per-job
    /// tally: admission shedding and run errors both count every tenant
    /// the request carried).
    pub tenants_shed: AtomicU64,
}

impl ServeStats {
    /// The `GET /stats` body.
    pub fn to_json(&self, queue_depth: usize, draining: bool) -> Json {
        let get = |counter: &AtomicU64| Json::Num(counter.load(Ordering::Relaxed) as f64);
        crate::json::obj(vec![
            ("received", get(&self.received)),
            ("admitted", get(&self.admitted)),
            ("shed", get(&self.shed)),
            ("ok", get(&self.ok)),
            ("failed", get(&self.failed)),
            ("in_flight", get(&self.in_flight)),
            ("queue_depth", Json::Num(queue_depth as f64)),
            ("replayed", get(&self.replayed)),
            ("memory_hits", get(&self.memory_hits)),
            ("disk_hits", get(&self.disk_hits)),
            ("multi_requests", get(&self.multi_requests)),
            ("tenants_served", get(&self.tenants_served)),
            ("tenants_shed", get(&self.tenants_shed)),
            ("draining", Json::Bool(draining)),
        ])
    }
}

/// Cancel-token slots for in-flight jobs, one per worker, so the drain
/// deadline can cancel whatever is still running without tracking job
/// identity.
#[derive(Debug)]
pub struct RunningTokens {
    slots: Vec<std::sync::Mutex<Option<CancelToken>>>,
}

impl RunningTokens {
    /// One empty slot per worker.
    pub fn new(workers: usize) -> RunningTokens {
        RunningTokens {
            slots: (0..workers).map(|_| std::sync::Mutex::new(None)).collect(),
        }
    }

    fn set(&self, worker: usize, token: Option<CancelToken>) {
        *self.slots[worker].lock().expect("token slot poisoned") = token;
    }

    /// Fires every in-flight job's token (drain-deadline expiry).
    pub fn cancel_all(&self) {
        for slot in &self.slots {
            if let Some(token) = slot.lock().expect("token slot poisoned").as_ref() {
                token.cancel();
            }
        }
    }
}

/// The engine options of a request: its token and fault plan.
fn request_options(request: &RunRequest, cancel: CancelToken) -> RuntimeOptions {
    RuntimeOptions {
        cancel: Some(cancel),
        fault_plan: request.inject_fault,
        ..RuntimeOptions::default()
    }
}

/// Executes one run request under its token, through the same cell
/// dispatch as `experiments run`: built-in policies without a fault plan,
/// at any `gpu_mib`, are served from (and populate) the run caches like
/// the figure drivers' cells and report `replayed` / `memory` / `disk`;
/// custom registry policies and fault-injected runs execute directly and
/// report `source: "direct"`.
///
/// # Errors
///
/// Any [`SimError`]: unknown policy, typed policy fault, expired deadline,
/// cancellation.
pub fn run_request(
    request: &RunRequest,
    cancel: CancelToken,
) -> Result<(Arc<SimReport>, &'static str), SimError> {
    let spec: PolicySpec = request.policy.parse()?;
    let (report, outcome) = run_cell(
        request.model,
        request.batch,
        &spec,
        &gpu_config(request.gpu_mib),
        &request_options(request, cancel),
    )?;
    Ok((report, outcome.map_or("direct", CacheOutcome::label)))
}

/// Executes one multi-job request: each `jobs: [...]` tenant becomes a
/// [`JobSpec`](g10_sim::JobSpec) through
/// [`JobRequest::to_spec`](protocol::JobRequest::to_spec), as the
/// `experiments multi --jobs` tenants do, and the mix replays
/// concurrently on one simulated device through the tenancy subsystem.  Multi runs never touch the run caches —
/// a job's report depends on the whole mix, not just its own cell key —
/// and the cross-job-aware `tensile` design is registered first so clients
/// can name it like any built-in.
///
/// # Errors
///
/// Any [`SimError`]: unknown policy, typed policy fault, expired deadline,
/// cancellation.
pub fn run_multi_request(
    request: &RunRequest,
    cancel: CancelToken,
) -> Result<MultiReport, SimError> {
    register_tensile();
    let spec: PolicySpec = request.policy.parse()?;
    Experiment::jobs(
        request
            .jobs
            .iter()
            .enumerate()
            .map(|(i, job)| job.to_spec(i)),
    )
    .policy(spec)
    .config(gpu_config(request.gpu_mib))
    .options(request_options(request, cancel))
    .run_multi()
}

/// The worker loop: take jobs until the queue closes, answer every one.
pub fn worker_loop(
    worker: usize,
    admission: &Admission,
    stats: &ServeStats,
    running: &RunningTokens,
) {
    while let Some(job) = admission.take() {
        let Job {
            mut stream,
            request,
            cancel,
            cost: _,
        } = job;
        stats.in_flight.fetch_add(1, Ordering::Relaxed);
        running.set(worker, Some(cancel.clone()));
        // Containment boundary: a panic anywhere below — policy code, the
        // engine, response assembly — becomes this request's 500, and the
        // worker thread lives on for the next job.
        let multi_tenants = request.jobs.len() as u64;
        let outcome = if multi_tenants > 0 {
            stats.multi_requests.fetch_add(1, Ordering::Relaxed);
            catch_policy_panic(|| {
                run_multi_request(&request, cancel)
                    .map(|report| (protocol::ok_multi_body(&report), "multi"))
            })
        } else {
            catch_policy_panic(|| {
                run_request(&request, cancel)
                    .map(|(report, source)| (protocol::ok_body(source, &report), source))
            })
        };
        let (status, retry_after, body) = match outcome {
            Ok(Ok((body, source))) => {
                stats.ok.fetch_add(1, Ordering::Relaxed);
                match source {
                    "memory" => stats.memory_hits.fetch_add(1, Ordering::Relaxed),
                    "disk" => stats.disk_hits.fetch_add(1, Ordering::Relaxed),
                    "multi" => stats
                        .tenants_served
                        .fetch_add(multi_tenants, Ordering::Relaxed),
                    _ => stats.replayed.fetch_add(1, Ordering::Relaxed),
                };
                (200, None, body)
            }
            Ok(Err(err)) => {
                stats.failed.fetch_add(1, Ordering::Relaxed);
                stats
                    .tenants_shed
                    .fetch_add(multi_tenants, Ordering::Relaxed);
                let (status, kind) = protocol::sim_error_status(&err);
                (status, None, protocol::error_body(kind, &err.to_string()))
            }
            Err(panic_message) => {
                stats.failed.fetch_add(1, Ordering::Relaxed);
                stats
                    .tenants_shed
                    .fetch_add(multi_tenants, Ordering::Relaxed);
                (
                    500,
                    None,
                    protocol::error_body("internal", &format!("worker panicked: {panic_message}")),
                )
            }
        };
        // A client that hung up before its answer is not our problem.
        let _ = protocol::write_response(&mut stream, status, retry_after, &body);
        running.set(worker, None);
        stats.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}
