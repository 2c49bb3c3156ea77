//! The experiment service: `experiments serve` exposes the same simulation
//! cells the figure drivers replay — and the same persistent run store —
//! over a tiny TCP/HTTP endpoint, with the robustness surface a shared
//! daemon needs and a single-shot CLI does not.
//!
//! The daemon is std-only: a hand-rolled HTTP/1.1 subset
//! ([`protocol`]) over [`crate::json`], a bounded load-shedding admission
//! queue ([`queue`]), a panic-contained worker pool ([`worker`]) and a
//! graceful-shutdown accept loop ([`daemon`]).  The [`client`] half backs
//! `experiments submit`, the integration tests and kick-tires, so both
//! sides of the wire live in this module tree.
//!
//! Endpoints:
//!
//! | Endpoint         | Semantics                                          |
//! |------------------|----------------------------------------------------|
//! | `POST /run`      | Run (or serve from cache) one experiment cell      |
//! | `GET /healthz`   | Liveness: `{"status":"ok","draining":...}`         |
//! | `GET /stats`     | Monotonic counters + queue depth                   |
//! | `POST /shutdown` | Enter the drain state machine                      |
//!
//! Every response is JSON with a stable shape; see the README's
//! "Experiment service" section for the request/response contract.

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod queue;
pub mod worker;

pub use client::{exchange, exchange_raw, summarize};
pub use daemon::{serve, ServeOptions};
pub use protocol::{JobRequest, RunRequest};
