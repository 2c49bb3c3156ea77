//! The client half of the experiment service: one blocking HTTP exchange
//! over a fresh connection, returning the parsed status and JSON body.
//!
//! `experiments submit`, the integration tests and `scripts/kick-tires.sh`
//! all go through [`exchange`] (or [`exchange_raw`] for bodies that are
//! not JSON), so there is exactly one implementation of
//! the wire format on each side of the socket.

use crate::json::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Performs one request against a daemon at `addr` (`host:port`).
/// `body` is rendered as the JSON payload when present.
///
/// Returns `(http_status, parsed_body)`.
///
/// # Errors
///
/// Connection failures, timeouts, malformed response heads, or a body
/// that does not parse as JSON — all as ready-to-print messages.
pub fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&Json>,
    timeout: Duration,
) -> Result<(u16, Json), String> {
    let payload = body.map(Json::render).unwrap_or_default();
    exchange_raw(addr, method, path, &payload, timeout)
}

/// [`exchange`] with the request payload sent byte for byte, so callers
/// can probe the daemon with bodies that are not valid JSON.
///
/// # Errors
///
/// As for [`exchange`].
pub fn exchange_raw(
    addr: &str,
    method: &str,
    path: &str,
    payload: &str,
    timeout: Duration,
) -> Result<(u16, Json), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|err| format!("could not connect to {addr}: {err}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|err| format!("could not set socket timeout: {err}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|err| format!("could not send request: {err}"))?;

    // The daemon closes after one response, so read to EOF and split.
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|err| format!("could not read response: {err}"))?;
    let raw = String::from_utf8_lossy(&raw);
    let (head, response_body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response (no header terminator): {raw:?}"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("malformed status line: {status_line:?}"))?;
    let parsed = Json::parse(response_body)
        .map_err(|err| format!("response body is not valid JSON ({err}): {response_body:?}"))?;
    Ok((status, parsed))
}

/// Renders the one-line human summary `experiments submit` prints for a
/// response body (`kind=... message=...` for errors, `source=...` plus the
/// report headline for successes).
pub fn summarize(status: u16, body: &Json) -> String {
    if body.get("status").and_then(Json::as_str) == Some("ok") {
        if let Some(report) = body.get("report") {
            let field = |key: &str| {
                report
                    .get(key)
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            let num = |key: &str| report.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            return format!(
                "ok source={} model={} batch={} policy={:?} total_time_ms={:.3} fingerprint={}",
                body.get("source").and_then(Json::as_str).unwrap_or("?"),
                field("model"),
                num("batch"),
                field("policy"),
                num("total_time_ns") / 1e6,
                field("fingerprint"),
            );
        }
        return format!("ok ({status})");
    }
    let kind = body
        .path("error.kind")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let message = body
        .path("error.message")
        .and_then(Json::as_str)
        .unwrap_or("(no message)");
    format!("{kind} ({status}): {message}")
}
