//! Bounded admission control for the experiment service.
//!
//! The daemon sheds load instead of buffering it: a request is admitted
//! only while the queue is below both its *depth* cap and its *estimated
//! byte* cap ([`super::protocol::RunRequest::estimated_cost`]).  Rejected
//! requests get a typed `503` with `Retry-After` — the caller is told to
//! come back, not silently stalled behind an unbounded backlog.  The queue
//! also carries the drain handshake: once [`Admission::close`] is called
//! no new work is accepted, and workers blocked in [`Admission::take`]
//! wake with `None` as soon as the backlog is empty.

use g10_sim::CancelToken;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};

use super::protocol::RunRequest;

/// One admitted request, waiting for (or owned by) a worker.
#[derive(Debug)]
pub struct Job {
    /// The connection the response must be written to.
    pub stream: TcpStream,
    /// The parsed request.
    pub request: RunRequest,
    /// The request's cancel token, built **at admission** so time spent
    /// queued counts against the deadline.
    pub cancel: CancelToken,
    /// The byte estimate this job holds against the queue cap.
    pub cost: u64,
}

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at its depth or byte cap; retry after `retry_after_s`.
    Overloaded {
        /// Queued jobs at rejection time.
        depth: usize,
        /// Estimated queued bytes at rejection time.
        queued_bytes: u64,
        /// The `Retry-After` hint, in seconds.
        retry_after_s: u64,
    },
    /// The daemon is draining; no new work is accepted.
    Closed,
}

#[derive(Debug, Default)]
struct QueueState {
    queue: VecDeque<Job>,
    queued_bytes: u64,
    closed: bool,
}

/// The bounded admission queue shared by the acceptor and the worker pool.
#[derive(Debug)]
pub struct Admission {
    state: Mutex<QueueState>,
    available: Condvar,
    max_depth: usize,
    max_bytes: u64,
}

impl Admission {
    /// A queue admitting at most `max_depth` jobs and `max_bytes` of
    /// estimated in-flight cost at once.
    pub fn new(max_depth: usize, max_bytes: u64) -> Admission {
        Admission {
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            max_depth: max_depth.max(1),
            max_bytes: max_bytes.max(1),
        }
    }

    /// Admits `job` or sheds it, handing the job (and with it the client
    /// connection) back boxed so the acceptor can write the typed 503.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Overloaded`] when either cap would be exceeded,
    /// [`AdmissionError::Closed`] once the daemon is draining.
    pub fn offer(&self, job: Job) -> Result<(), (Box<Job>, AdmissionError)> {
        let mut state = self.state.lock().expect("admission lock poisoned");
        if state.closed {
            drop(state);
            return Err((Box::new(job), AdmissionError::Closed));
        }
        if state.queue.len() >= self.max_depth
            || state.queued_bytes.saturating_add(job.cost) > self.max_bytes
        {
            let error = AdmissionError::Overloaded {
                depth: state.queue.len(),
                queued_bytes: state.queued_bytes,
                retry_after_s: 1,
            };
            drop(state);
            return Err((Box::new(job), error));
        }
        state.queued_bytes += job.cost;
        state.queue.push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a job is available, returning `None` once the queue is
    /// closed **and** drained — the worker-pool shutdown signal.
    pub fn take(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("admission lock poisoned");
        loop {
            if let Some(job) = state.queue.pop_front() {
                state.queued_bytes = state.queued_bytes.saturating_sub(job.cost);
                return Some(job);
            }
            if state.closed {
                return None;
            }
            // No wakeup can be lost: the queue is re-checked under the
            // lock, and `offer` and `close` notify after changing it.
            state = self.available.wait(state).expect("admission lock poisoned");
        }
    }

    /// Stops admission.  Already-queued jobs still drain; blocked workers
    /// wake with `None` once the backlog is empty.
    pub fn close(&self) {
        self.state.lock().expect("admission lock poisoned").closed = true;
        self.available.notify_all();
    }

    /// Jobs currently queued (not counting ones already taken by workers).
    pub fn depth(&self) -> usize {
        self.state
            .lock()
            .expect("admission lock poisoned")
            .queue
            .len()
    }

    /// Estimated bytes currently queued.
    pub fn queued_bytes(&self) -> u64 {
        self.state
            .lock()
            .expect("admission lock poisoned")
            .queued_bytes
    }

    /// Cancels every queued job's token (drain-deadline expiry): workers
    /// that pick them up observe the cancellation at step 0 and answer
    /// with the typed 504 instead of running the replay.
    pub fn cancel_queued(&self) {
        let state = self.state.lock().expect("admission lock poisoned");
        for job in &state.queue {
            job.cancel.cancel();
        }
    }
}
