//! The per-step invariant guard.
//!
//! [`InvariantGuard`] audits the engine's bookkeeping after every kernel
//! step: simulated time must not run backwards, recorded slowdowns must be
//! finite and at least 1.0, the pending-free ledger's running byte prefix
//! must match its entries with nothing left overdue, GPU memory must not be
//! silently overcommitted, and the residency bookkeeping (tensor table,
//! resident-set index, allocator) must agree with itself.
//!
//! The audit walks the tensor table, so it is O(tensors) per kernel and is
//! gated by [`crate::engine::RuntimeOptions::validate`] (debug-only by
//! default).  Violations surface as [`crate::fault::PolicyFaultKind`]
//! values, which the engine converts into typed errors instead of
//! corrupted reports.  No policy can cause these bookkeeping faults through
//! the public API, so none is injectable: this module's tests check each
//! one on a corrupted `AuditView`, and the engine's tests corrupt a live
//! engine and check that `advance` reports it.

use crate::fault::PolicyFaultKind;
use g10_time::Nanos;

/// Snapshot of the bookkeeping quantities the guard audits, assembled by
/// the engine state in one walk over the tensor table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AuditView {
    /// Current simulated time.
    pub now: Nanos,
    /// Bytes the GPU allocator reports in use.
    pub used_bytes: u64,
    /// Configured GPU capacity.
    pub capacity_bytes: u64,
    /// Sum of the per-completion byte counts in the pending-free ledger.
    pub pending_ledger_bytes: u64,
    /// The running prefix counter the projected-free-space fast paths trust.
    pub pending_prefix_bytes: u64,
    /// Earliest completion time still in the ledger, if any.  Entries due
    /// at or before `now` should already have been applied.
    pub earliest_pending_due: Option<Nanos>,
    /// Bytes the tensor table accounts for on the GPU: residents, in-flight
    /// arrivals, and not-yet-applied eviction frees.
    pub tracked_bytes: u64,
    /// `true` if the resident-set index disagrees with the tensor table's
    /// per-tensor locations.
    pub resident_index_diverged: bool,
    /// The engine's [`crate::SimReport::oversubscribed`] flag, which
    /// legitimises overcommit for the rest of the run.  Any kernel claim that
    /// over-commits raises it, even one that only waits for in-flight
    /// evictions, so under memory pressure the capacity check is usually off.
    pub oversubscribed: bool,
}

/// Validates the engine bookkeeping after each step, returning the first
/// violated invariant as a [`PolicyFaultKind`].
///
/// Owned and driven by [`crate::engine::ReplayEngine::try_run`]; the only
/// state it keeps between steps is the previous step's clock, for the
/// time-monotonicity check.
#[derive(Debug)]
pub struct InvariantGuard {
    prev_now: Nanos,
}

impl InvariantGuard {
    pub(crate) fn new() -> Self {
        InvariantGuard {
            prev_now: Nanos::ZERO,
        }
    }

    /// Audits one completed step.  `last_slowdown` is the slowdown the step
    /// just recorded; `kernel` is its index.
    pub(crate) fn check_step(
        &mut self,
        view: &AuditView,
        last_slowdown: Option<f64>,
        kernel: usize,
    ) -> Option<PolicyFaultKind> {
        let prev = self.prev_now;
        self.prev_now = view.now;
        if view.now < prev {
            return Some(PolicyFaultKind::TimeRegression {
                from: prev,
                to: view.now,
            });
        }
        if let Some(slowdown) = last_slowdown {
            if !slowdown.is_finite() || slowdown < 1.0 {
                return Some(PolicyFaultKind::NonFiniteSlowdown { kernel });
            }
        }
        let overdue = view.earliest_pending_due.is_some_and(|due| due <= view.now);
        if view.pending_ledger_bytes != view.pending_prefix_bytes || overdue {
            return Some(PolicyFaultKind::LedgerCorrupt {
                ledger_bytes: view.pending_ledger_bytes,
                prefix_bytes: view.pending_prefix_bytes,
            });
        }
        // Transient overcommit up to the in-flight eviction frees is a legal
        // engine behaviour (delayed prefetch-evicting transfers); anything
        // beyond that must have been acknowledged as oversubscription.
        let allowed = view
            .capacity_bytes
            .saturating_add(view.pending_prefix_bytes);
        if !view.oversubscribed && view.used_bytes > allowed {
            return Some(PolicyFaultKind::CapacityExceeded {
                used_bytes: view.used_bytes,
                allowed_bytes: allowed,
            });
        }
        if view.resident_index_diverged || view.tracked_bytes != view.used_bytes {
            return Some(PolicyFaultKind::ResidencyDesync {
                tracked_bytes: view.tracked_bytes,
                allocated_bytes: view.used_bytes,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_view() -> AuditView {
        AuditView {
            now: Nanos::from_micros(5),
            used_bytes: 1000,
            capacity_bytes: 4096,
            pending_ledger_bytes: 64,
            pending_prefix_bytes: 64,
            earliest_pending_due: Some(Nanos::from_micros(9)),
            tracked_bytes: 1000,
            resident_index_diverged: false,
            oversubscribed: false,
        }
    }

    #[test]
    fn clean_view_passes() {
        let mut guard = InvariantGuard::new();
        assert_eq!(guard.check_step(&clean_view(), Some(1.25), 0), None);
    }

    #[test]
    fn detects_each_violation() {
        let mut guard = InvariantGuard::new();
        assert_eq!(guard.check_step(&clean_view(), Some(1.0), 0), None);
        // Time regression relative to the previous step.
        let mut view = clean_view();
        view.now = Nanos::from_micros(1);
        assert!(matches!(
            guard.check_step(&view, Some(1.0), 1),
            Some(PolicyFaultKind::TimeRegression { .. })
        ));

        let mut guard = InvariantGuard::new();
        assert!(matches!(
            guard.check_step(&clean_view(), Some(f64::NAN), 2),
            Some(PolicyFaultKind::NonFiniteSlowdown { kernel: 2 })
        ));
        assert!(matches!(
            guard.check_step(&clean_view(), Some(0.5), 3),
            Some(PolicyFaultKind::NonFiniteSlowdown { kernel: 3 })
        ));

        let mut view = clean_view();
        view.pending_prefix_bytes += 1;
        assert!(matches!(
            guard.check_step(&view, Some(1.0), 4),
            Some(PolicyFaultKind::LedgerCorrupt { .. })
        ));
        let mut view = clean_view();
        view.earliest_pending_due = Some(view.now);
        assert!(matches!(
            guard.check_step(&view, Some(1.0), 4),
            Some(PolicyFaultKind::LedgerCorrupt { .. })
        ));

        let mut view = clean_view();
        view.used_bytes = view.capacity_bytes + view.pending_prefix_bytes + 1;
        view.tracked_bytes = view.used_bytes;
        assert!(matches!(
            guard.check_step(&view, Some(1.0), 5),
            Some(PolicyFaultKind::CapacityExceeded { .. })
        ));
        // ... but acknowledged oversubscription legitimises the overcommit
        // (tracked bytes still match, so no desync either).
        view.oversubscribed = true;
        assert_eq!(guard.check_step(&view, Some(1.0), 5), None);

        let mut view = clean_view();
        view.tracked_bytes -= 1;
        assert!(matches!(
            guard.check_step(&view, Some(1.0), 6),
            Some(PolicyFaultKind::ResidencyDesync { .. })
        ));
        let mut view = clean_view();
        view.resident_index_diverged = true;
        assert!(matches!(
            guard.check_step(&view, Some(1.0), 7),
            Some(PolicyFaultKind::ResidencyDesync { .. })
        ));
    }

    #[test]
    fn first_violation_wins_in_declared_order() {
        let mut guard = InvariantGuard::new();
        let mut view = clean_view();
        view.pending_prefix_bytes += 7;
        view.tracked_bytes += 99;
        assert!(matches!(
            guard.check_step(&view, Some(f64::INFINITY), 0),
            Some(PolicyFaultKind::NonFiniteSlowdown { .. })
        ));
    }
}
