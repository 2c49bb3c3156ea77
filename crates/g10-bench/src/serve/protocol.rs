//! Wire format of the experiment service: a deliberately small HTTP/1.1
//! subset over the harness's own [`Json`] tree.
//!
//! The daemon speaks exactly what its clients need and nothing more: one
//! request per connection (`Connection: close` semantics), `Content-Length`
//! bodies only (no chunked encoding), and hard caps on header and body
//! size so an adversarial client cannot balloon memory before admission
//! control even sees the request.  Everything the daemon sends — success,
//! every error class, load shedding — is a JSON body with a stable
//! `status` / `kind` shape, so clients never have to scrape prose.

use crate::cli::MAX_TENANTS;
use crate::json::{obj, Json};
use crate::lab::Lab;
use g10_dnn::models::{ModelKind, MAX_BATCH};
use g10_sim::{FaultPlan, JobSpec, SimError};
use g10_time::Nanos;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Hard cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Hard cap on a request body; run requests are a few hundred bytes.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The method verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, query string and all.
    pub path: String,
    /// The body (empty when there was none).
    pub body: String,
}

/// Reads one request from `stream`, honouring the head/body caps.
///
/// The head and the body come through one buffered reader, so a request
/// the client sent in one write is usually read in one syscall.  Bytes
/// after the body are dropped: one request per connection.
///
/// # Errors
///
/// Returns a message suitable for a 400 response: malformed request line,
/// oversized head or body, bad `Content-Length`, or connection errors.
pub fn read_request<R: Read>(stream: &mut R) -> Result<HttpRequest, String> {
    const TERMINATOR: &[u8] = b"\r\n\r\n";
    let mut reader = BufReader::with_capacity(MAX_HEAD_BYTES, stream);
    let mut head = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return Err("connection closed mid-request".to_string()),
            Ok(chunk) => chunk,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(format!("read error: {err}")),
        };
        // The terminator may straddle the previous chunk, so the scan
        // restarts three bytes before the new data.
        let scan_from = head.len().saturating_sub(TERMINATOR.len() - 1);
        let before = head.len();
        head.extend_from_slice(chunk);
        let end = head[scan_from..]
            .windows(TERMINATOR.len())
            .position(|window| window == TERMINATOR)
            .map(|at| scan_from + at + TERMINATOR.len());
        let head_len = end.unwrap_or(head.len());
        // Only the head's bytes are consumed; the rest is body.
        reader.consume(head_len - before);
        if head_len > MAX_HEAD_BYTES {
            return Err(format!("request head exceeds {MAX_HEAD_BYTES} bytes"));
        }
        if end.is_some() {
            head.truncate(head_len);
            break;
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(format!("malformed request line: {request_line:?}"));
    };
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length: {:?}", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!("request body exceeds {MAX_BODY_BYTES} bytes"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|err| format!("short body: {err}"))?;
    Ok(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// Writes one HTTP response with a JSON body and closes the exchange.
/// `retry_after` adds the `Retry-After` header 503 shedding responses
/// carry.  Head and body go out in one write.  Write failures are
/// returned so callers can count them, but a client that hung up early is
/// not an error worth more than a tally.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    retry_after: Option<u64>,
    body: &Json,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    };
    let body = body.render();
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    if let Some(seconds) = retry_after {
        response.push_str(&format!("retry-after: {seconds}\r\n"));
    }
    response.push_str("\r\n");
    response.push_str(&body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// Run requests
// ---------------------------------------------------------------------------

/// The largest MiB count whose byte size (`mib << 20`) fits a `u64`: the
/// upper bound of every MiB-sized field and flag.
pub const MAX_MIB: u64 = u64::MAX >> 20;

/// The largest integer a JSON number carries exactly (2^53).  A `--jobs`
/// field above it would not survive the trip to the daemon unchanged.
const MAX_EXACT: u64 = 1 << 53;

/// One tenant of a multi-job request: an entry of the `jobs: [...]` array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Model name (any [`ModelKind`] alias).
    pub model: ModelKind,
    /// Batch size; defaults to the model's evaluation batch.
    pub batch: u64,
    /// Stride-scheduling priority (defaults to 1).
    pub priority: u8,
    /// Optional per-tenant GPU quota in MiB.
    pub quota_mib: Option<u64>,
    /// Arrival offset on the device clock, in microseconds (defaults to 0).
    pub arrival_us: u64,
}

/// One experiment request, as posted to `POST /run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Model name (any [`ModelKind`] alias).  For multi-job requests this
    /// mirrors the first job's model (the wire body may omit it).
    pub model: ModelKind,
    /// Batch size; defaults to the model's evaluation batch.
    pub batch: u64,
    /// Policy name, resolved through the open registry at run time.
    pub policy: String,
    /// Optional GPU-capacity override in MiB (Table 2 capacity otherwise).
    pub gpu_mib: Option<u64>,
    /// Per-request deadline in **milliseconds**, measured from admission —
    /// time spent queued counts against it.
    pub deadline_ms: Option<u64>,
    /// Deterministic fault injection, `"<step>:<kind>"` as accepted by
    /// `--inject-fault`.
    pub inject_fault: Option<FaultPlan>,
    /// Multi-tenant mix: when non-empty the request replays these jobs
    /// concurrently on one simulated device via the tenancy subsystem
    /// (`g10_sim::MultiExperiment`) instead of one solo cell.
    pub jobs: Vec<JobRequest>,
}

impl RunRequest {
    /// Parses a request body.
    ///
    /// # Errors
    ///
    /// Returns a 400-ready message naming the offending field: unknown
    /// model, a batch outside 1 to [`MAX_BATCH`], out-of-range `gpu_mib`,
    /// malformed `inject_fault`, an empty `jobs` array or one of more than
    /// [`MAX_TENANTS`] jobs.  Unknown *policies* are deliberately **not** a parse
    /// error — the registry is consulted at run time so the error carries
    /// the live list of known names.
    pub fn from_json(value: &Json) -> Result<RunRequest, String> {
        let jobs = match value.get("jobs") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(entries)) => {
                if entries.is_empty() {
                    return Err("jobs must name at least one job".to_string());
                }
                if entries.len() as u64 > MAX_TENANTS {
                    return Err(format!("jobs must name at most {MAX_TENANTS} jobs"));
                }
                entries
                    .iter()
                    .enumerate()
                    .map(|(i, entry)| {
                        JobRequest::from_json(entry).map_err(|err| format!("jobs[{i}]: {err}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
            Some(_) => return Err("jobs must be an array".to_string()),
        };
        // Multi-job bodies may omit the top-level model; the first job
        // stands in so single-job invariants (and `estimated_cost`) hold.
        let model: ModelKind = match value.get("model").and_then(Json::as_str) {
            Some(name) => name.parse()?,
            None => match jobs.first() {
                Some(job) => job.model,
                None => return Err("missing field: model".to_string()),
            },
        };
        let default_batch = jobs.first().map_or(model.eval_batch(), |job| job.batch);
        let batch = batch_field(value, default_batch)?;
        let policy = value
            .get("policy")
            .and_then(Json::as_str)
            .unwrap_or("g10")
            .to_string();
        let gpu_mib = match value.get("gpu_mib") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|mib| (1..=MAX_MIB).contains(mib))
                    .ok_or_else(|| "gpu_mib out of range".to_string())?,
            ),
        };
        let deadline_ms = match value.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| "deadline_ms must be a non-negative integer".to_string())?,
            ),
        };
        let inject_fault = match value.get("inject_fault") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| "inject_fault must be a string".to_string())?
                    .parse::<FaultPlan>()
                    .map_err(|err| format!("inject_fault: {err}"))?,
            ),
        };
        Ok(RunRequest {
            model,
            batch,
            policy,
            gpu_mib,
            deadline_ms,
            inject_fault,
            jobs,
        })
    }

    /// Renders the request body `experiments submit` posts.
    pub fn to_json(&self) -> Json {
        let mut entries = vec![
            ("model", Json::Str(self.model.name().to_string())),
            ("batch", Json::Num(self.batch as f64)),
            ("policy", Json::Str(self.policy.clone())),
        ];
        if let Some(mib) = self.gpu_mib {
            entries.push(("gpu_mib", Json::Num(mib as f64)));
        }
        if let Some(ms) = self.deadline_ms {
            entries.push(("deadline_ms", Json::Num(ms as f64)));
        }
        if let Some(plan) = self.inject_fault {
            entries.push((
                "inject_fault",
                Json::Str(format!("{}:{}", plan.step, plan.fault.tag())),
            ));
        }
        let jobs = Json::Arr(self.jobs.iter().map(JobRequest::to_json).collect());
        if !self.jobs.is_empty() {
            entries.push(("jobs", jobs));
        }
        obj(entries)
    }

    /// Coarse in-flight cost estimate in bytes, used by the admission
    /// queue's byte cap.  The dominant memory of a queued-then-running
    /// request scales with the workload's tensor footprint, which scales
    /// with batch; the constant is deliberately generous so the cap sheds
    /// early rather than precisely.  A multi-job request costs the sum of
    /// its tenants (each holds a workload plus a solo baseline replay).
    pub fn estimated_cost(&self) -> u64 {
        if self.jobs.is_empty() {
            self.batch.saturating_mul(1 << 20).max(1 << 20)
        } else {
            self.jobs
                .iter()
                .map(|job| job.batch.saturating_mul(1 << 20).max(1 << 20))
                .fold(0u64, u64::saturating_add)
        }
    }
}

/// A body's `batch` field: `default` when absent or null, otherwise an
/// integer from 1 to [`MAX_BATCH`].
fn batch_field(body: &Json, default: u64) -> Result<u64, String> {
    match body.get("batch") {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .filter(|batch| (1..=MAX_BATCH).contains(batch))
            .ok_or_else(|| format!("batch must be an integer from 1 to {MAX_BATCH}")),
    }
}

impl JobRequest {
    /// Parses one `jobs: [...]` entry; same field conventions as the
    /// top-level request (`model` required, everything else defaulted).
    ///
    /// # Errors
    ///
    /// Returns a 400-ready message naming the offending field.
    pub fn from_json(value: &Json) -> Result<JobRequest, String> {
        let model: ModelKind = value
            .get("model")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing field: model".to_string())?
            .parse()?;
        let batch = batch_field(value, model.eval_batch())?;
        let priority = match value.get("priority") {
            None | Some(Json::Null) => 1,
            Some(v) => v
                .as_u64()
                .filter(|&p| (1..=u64::from(u8::MAX)).contains(&p))
                .ok_or_else(|| "priority must be between 1 and 255".to_string())?
                as u8,
        };
        let quota_mib = match value.get("quota_mib") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|mib| (1..=MAX_MIB).contains(mib))
                    .ok_or_else(|| "quota_mib out of range".to_string())?,
            ),
        };
        let arrival_us = match value.get("arrival_us") {
            None | Some(Json::Null) => 0,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| "arrival_us must be a non-negative integer".to_string())?,
        };
        Ok(JobRequest {
            model,
            batch,
            priority,
            quota_mib,
            arrival_us,
        })
    }

    /// The tenant this entry describes, named `job-<index>-<model>`, on
    /// `lab`'s workload.
    pub fn to_spec(&self, lab: &Lab, index: usize) -> JobSpec {
        let spec = JobSpec::new(
            format!("job-{index}-{}", self.model.name()),
            lab.workload(self.model, self.batch),
        )
        .priority(self.priority)
        .arrival(Nanos::from_micros(self.arrival_us));
        match self.quota_mib {
            Some(mib) => spec.quota_bytes(mib << 20),
            None => spec,
        }
    }

    /// Renders one `jobs: [...]` entry.
    pub fn to_json(&self) -> Json {
        let mut entries = vec![
            ("model", Json::Str(self.model.name().to_string())),
            ("batch", Json::Num(self.batch as f64)),
            ("priority", Json::Num(f64::from(self.priority))),
        ];
        if let Some(mib) = self.quota_mib {
            entries.push(("quota_mib", Json::Num(mib as f64)));
        }
        if self.arrival_us > 0 {
            entries.push(("arrival_us", Json::Num(self.arrival_us as f64)));
        }
        obj(entries)
    }
}

/// Splits a comma-separated CLI list (`--policy`, `--jobs`), trimming each
/// entry and dropping empty ones.
pub fn split_list(list: &str) -> impl Iterator<Item = &str> {
    list.split(',')
        .map(str::trim)
        .filter(|entry| !entry.is_empty())
}

/// Parses one `--jobs` entry, `model[:batch[:priority[:quota_mib[:arrival_us]]]]`,
/// into the `jobs: [...]` object it stands for and hands that to
/// [`JobRequest::from_json`], so the CLI and the daemon share one set of
/// field checks and defaults.  An empty or `-` field takes its default.
/// Numeric fields must be decimal integers of at most 2^53, which a JSON
/// number carries exactly, so every accepted entry survives
/// [`JobRequest::to_json`] unchanged.
///
/// # Errors
///
/// A one-line message naming the entry and the offending field.
pub fn parse_job(entry: &str) -> Result<JobRequest, String> {
    const FIELDS: [&str; 4] = ["batch", "priority", "quota_mib", "arrival_us"];
    // `from_json` echoes an unknown model name verbatim; escaping keeps
    // the message on one line.
    let invalid = |err: &str| format!("--jobs entry {entry:?}: {}", err.escape_debug());
    let mut parts = entry.split(':');
    let model = parts
        .next()
        .filter(|name| !name.is_empty())
        .ok_or_else(|| invalid("missing a model name"))?;
    let mut fields = vec![("model", Json::Str(model.to_string()))];
    for (i, text) in parts.enumerate() {
        let name = *FIELDS.get(i).ok_or_else(|| invalid("too many fields"))?;
        if text.is_empty() || text == "-" {
            continue;
        }
        let value = text
            .parse::<u64>()
            .ok()
            .filter(|&n| n <= MAX_EXACT)
            .ok_or_else(|| invalid(&format!("{name} must be an integer up to 2^53")))?;
        fields.push((name, Json::Num(value as f64)));
    }
    JobRequest::from_json(&obj(fields)).map_err(|err| invalid(&err))
}

// ---------------------------------------------------------------------------
// Response bodies
// ---------------------------------------------------------------------------

/// Builds the error body every non-200 response carries:
/// `{"status":"error","error":{"kind":..., "message":...}}`.
pub fn error_body(kind: &str, message: &str) -> Json {
    obj(vec![
        ("status", Json::Str("error".to_string())),
        (
            "error",
            obj(vec![
                ("kind", Json::Str(kind.to_string())),
                ("message", Json::Str(message.to_string())),
            ]),
        ),
    ])
}

/// Maps a [`SimError`] to its HTTP status and stable `kind` tag.  The
/// `message` a client sees is `SimError`'s own `Display` — character for
/// character what `experiments run` prints after `error:`, so the CLI and
/// the service have one error surface.
pub fn sim_error_status(err: &SimError) -> (u16, &'static str) {
    match err {
        SimError::UnknownPolicy { .. } => (400, "unknown-policy"),
        SimError::PolicyFault { .. } => (500, "policy-fault"),
        SimError::DeadlineExceeded { .. } => (504, "deadline-exceeded"),
        SimError::Cancelled { .. } => (504, "cancelled"),
        // `SimError` is non_exhaustive; anything future-typed is still a
        // server-side failure, not the client's fault.
        _ => (500, "internal"),
    }
}

/// Builds the success body: the outcome `source` (`replayed` / `memory` /
/// `disk` / `direct`) plus a compact report summary and a content
/// fingerprint over the full per-kernel slowdown vector, so clients can
/// assert bit-identical replay across processes without shipping the whole
/// report.
pub fn ok_body(source: &str, report: &g10_sim::SimReport) -> Json {
    obj(vec![
        ("status", Json::Str("ok".to_string())),
        ("source", Json::Str(source.to_string())),
        (
            "report",
            obj(vec![
                ("model", Json::Str(report.model.clone())),
                ("batch", Json::Num(report.batch as f64)),
                ("policy", Json::Str(report.policy.clone())),
                (
                    "total_time_ns",
                    Json::Num(u64::from(report.total_time) as f64),
                ),
                (
                    "ideal_time_ns",
                    Json::Num(u64::from(report.ideal_time) as f64),
                ),
                (
                    "stall_time_ns",
                    Json::Num(u64::from(report.stall_time) as f64),
                ),
                ("fault_count", Json::Num(report.fault_count as f64)),
                (
                    "normalized_performance",
                    Json::Num(report.normalized_performance()),
                ),
                (
                    "fingerprint",
                    Json::Str(format!("{:016x}", report.fingerprint())),
                ),
            ]),
        ),
    ])
}

/// Builds the success body of a multi-job request: mix-level aggregates
/// plus one compact summary per tenant, each carrying the same canonical
/// per-report fingerprint single-job responses expose (the mix-level
/// `fingerprint` is [`g10_sim::MultiReport::fingerprint`], which folds the
/// job digests with their scheduling instants).
pub fn ok_multi_body(report: &g10_sim::MultiReport) -> Json {
    let jobs = report
        .jobs
        .iter()
        .map(|job| {
            obj(vec![
                ("name", Json::Str(job.name.clone())),
                ("model", Json::Str(job.report.model.clone())),
                ("batch", Json::Num(job.report.batch as f64)),
                ("priority", Json::Num(f64::from(job.priority))),
                ("slowdown", Json::Num(job.slowdown)),
                ("finished_ns", Json::Num(u64::from(job.finished) as f64)),
                ("restarts", Json::Num(f64::from(job.restarts))),
                (
                    "fingerprint",
                    Json::Str(format!("{:016x}", job.report.fingerprint())),
                ),
            ])
        })
        .collect();
    obj(vec![
        ("status", Json::Str("ok".to_string())),
        ("source", Json::Str("multi".to_string())),
        (
            "report",
            obj(vec![
                ("policy", Json::Str(report.policy.clone())),
                ("tenants", Json::Num(report.jobs.len() as f64)),
                ("makespan_ns", Json::Num(u64::from(report.makespan) as f64)),
                (
                    "aggregate_throughput",
                    Json::Num(report.aggregate_throughput()),
                ),
                ("max_slowdown", Json::Num(report.max_slowdown())),
                (
                    "fingerprint",
                    Json::Str(format!("{:016x}", report.fingerprint())),
                ),
                ("jobs", Json::Arr(jobs)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_roundtrips_through_json() {
        let request = RunRequest {
            model: ModelKind::TinyCnn,
            batch: 16,
            policy: "g10".to_string(),
            gpu_mib: Some(64),
            deadline_ms: Some(2500),
            inject_fault: Some("3:step-panic".parse().unwrap()),
            jobs: Vec::new(),
        };
        let parsed = RunRequest::from_json(&request.to_json()).unwrap();
        assert_eq!(parsed, request);
    }

    #[test]
    fn multi_job_request_roundtrips_and_defaults_its_header() {
        let request = RunRequest {
            model: ModelKind::TinyCnn,
            batch: 64,
            policy: "tensile".to_string(),
            gpu_mib: Some(64),
            deadline_ms: None,
            inject_fault: None,
            jobs: vec![
                JobRequest {
                    model: ModelKind::TinyCnn,
                    batch: 64,
                    priority: 4,
                    quota_mib: Some(40),
                    arrival_us: 0,
                },
                JobRequest {
                    model: ModelKind::TinyTransformer,
                    batch: 32,
                    priority: 1,
                    quota_mib: None,
                    arrival_us: 20,
                },
            ],
        };
        let parsed = RunRequest::from_json(&request.to_json()).unwrap();
        assert_eq!(parsed, request);
        // The cost is the sum over tenants, not the header cell.
        assert_eq!(request.estimated_cost(), (64 + 32) << 20);

        // A body with only the jobs array parses too: the first job stands
        // in for the top-level model/batch.
        let body = obj(vec![(
            "jobs",
            Json::Arr(vec![obj(vec![
                ("model", Json::Str("tinycnn".to_string())),
                ("batch", Json::Num(16.0)),
            ])]),
        )]);
        let parsed = RunRequest::from_json(&body).unwrap();
        assert_eq!(parsed.model, ModelKind::TinyCnn);
        assert_eq!(parsed.batch, 16);
        assert_eq!(parsed.jobs.len(), 1);
        assert_eq!(parsed.jobs[0].priority, 1);

        // Bad mixes are named errors, not panics.
        for (label, body) in [
            ("empty", obj(vec![("jobs", Json::Arr(vec![]))])),
            ("scalar", obj(vec![("jobs", Json::Num(3.0))])),
            (
                "bad-priority",
                obj(vec![(
                    "jobs",
                    Json::Arr(vec![obj(vec![
                        ("model", Json::Str("tinycnn".to_string())),
                        ("priority", Json::Num(0.0)),
                    ])]),
                )]),
            ),
        ] {
            assert!(RunRequest::from_json(&body).is_err(), "accepted {label}");
        }
    }

    #[test]
    fn run_request_defaults_batch_and_policy() {
        let body = obj(vec![("model", Json::Str("tinycnn".to_string()))]);
        let parsed = RunRequest::from_json(&body).unwrap();
        assert_eq!(parsed.batch, ModelKind::TinyCnn.eval_batch());
        assert_eq!(parsed.policy, "g10");
        assert_eq!(parsed.gpu_mib, None);
    }

    #[test]
    fn run_request_rejects_bad_fields() {
        for (field, value) in [
            ("batch", Json::Num(0.0)),
            ("gpu_mib", Json::Num(-1.0)),
            ("deadline_ms", Json::Str("soon".to_string())),
            ("inject_fault", Json::Str("nonsense".to_string())),
        ] {
            let body = obj(vec![
                ("model", Json::Str("tinycnn".to_string())),
                (field, value),
            ]);
            assert!(
                RunRequest::from_json(&body).is_err(),
                "accepted bad {field}"
            );
        }
        assert!(
            RunRequest::from_json(&obj(vec![])).is_err(),
            "accepted empty body"
        );
    }

    #[test]
    fn response_goes_out_in_one_write() {
        struct Recorder(Vec<Vec<u8>>);
        impl Write for Recorder {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut recorder = Recorder(Vec::new());
        let body = error_body("overloaded", "retry shortly");
        write_response(&mut recorder, 503, Some(1), &body).unwrap();
        assert_eq!(recorder.0.len(), 1, "head and body must share one write");
        let rendered = body.render();
        let expected = format!(
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\nretry-after: 1\r\n\r\n{rendered}",
            rendered.len()
        );
        assert_eq!(String::from_utf8_lossy(&recorder.0[0]), expected);
    }

    #[test]
    fn sim_errors_map_to_typed_statuses() {
        let unknown = SimError::UnknownPolicy {
            name: "nope".to_string(),
            known: vec![],
        };
        assert_eq!(sim_error_status(&unknown), (400, "unknown-policy"));
        let expired = SimError::DeadlineExceeded {
            policy: "g10".to_string(),
            step: 7,
        };
        assert_eq!(sim_error_status(&expired), (504, "deadline-exceeded"));
    }

    #[test]
    fn fingerprint_is_deterministic_and_distinguishes_reports() {
        use g10_core::config::SystemConfig;
        use g10_sim::{Experiment, PolicyKind, Workload};

        let workload = Workload::new(ModelKind::TinyCnn, 16);
        let config = SystemConfig::table2().with_gpu_memory(16 << 20);
        let run = |kind: PolicyKind| {
            Experiment::new(&workload)
                .policy(kind)
                .config(config)
                .run()
                .unwrap()
        };
        let ideal = run(PolicyKind::Ideal);
        let uvm = run(PolicyKind::BaseUvm);
        assert_eq!(ideal.fingerprint(), ideal.fingerprint());
        assert_ne!(ideal.fingerprint(), uvm.fingerprint());
    }
}
