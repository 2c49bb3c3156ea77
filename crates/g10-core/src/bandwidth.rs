//! Bandwidth-reservation timelines used during planning.
//!
//! While building the migration plan, the scheduler must know whether the
//! GPU–SSD or GPU–host channel still has room for another migration at a
//! given point in time ("if to_ssd_traffic is full during t_r to t_r + t_s",
//! Algorithm 1).  A [`BandwidthTimeline`] divides the iteration into
//! fixed-width bins, gives each bin `rate × bin_width` bytes of capacity and
//! lets the planner reserve bytes greedily from a start time forward.
//!
//! # Complexity
//!
//! [`BandwidthTimeline`] keeps two zero-initialised per-bin arrays: the bytes
//! reserved in each bin, and a path-compressed skip pointer past saturated
//! bins.  With `b` bins and `w` the bins a window or transfer spans:
//!
//! | operation                                  | flat `Vec` | [`BandwidthTimeline`] |
//! |--------------------------------------------|------------|-----------------------|
//! | [`BandwidthTimeline::new`]                 | O(1) ¹     | O(1) ¹                |
//! | [`BandwidthTimeline::free_bytes_between`]  | O(w)       | O(w)                  |
//! | [`BandwidthTimeline::is_saturated`]        | O(w)       | O(w)                  |
//! | [`BandwidthTimeline::reserve`]             | O(w)       | O(t) amortised ²      |
//!
//! ¹ Both arrays are all-zero, so they come from a zeroed allocation whose
//!   pages the OS maps on first touch; a plan pays only for the bins its
//!   evictions reach, not for the whole horizon (about 208k bins on BERT).
//!
//! ² `t` is the number of bins the transfer actually *touches* (writes bytes
//!   into); fully saturated runs between them are skipped through the
//!   next-free pointers instead of being re-scanned.
//!
//! The planner asks "is the channel full?" once per *accepted* eviction, so
//! an O(w) window scan costs far less than building and maintaining an
//! O(b) prefix-sum index per plan.  The scan also sums bins in the same
//! order as [`crate::naive::NaiveBandwidthTimeline`], so free-byte sums and
//! saturation verdicts are bit-identical to the reference, not merely close.

use g10_time::Nanos;
use serde::{Deserialize, Serialize};

/// The operations the eviction scheduler needs from a channel-reservation
/// ledger.  Implemented by the skip-pointer [`BandwidthTimeline`] (the
/// default) and the flat-`Vec` [`crate::naive::NaiveBandwidthTimeline`]
/// reference.
pub trait BandwidthReservation {
    /// Creates a timeline covering `[0, horizon]` for a channel of
    /// `bytes_per_sec`, using bins of `bin_width`.
    fn with_rate(bytes_per_sec: f64, horizon: Nanos, bin_width: Nanos) -> Self;

    /// Number of bins in the timeline.
    fn bins(&self) -> usize;

    /// Total bytes reserved so far.
    fn total_reserved_bytes(&self) -> f64;

    /// Free capacity (bytes) between `start` and `end`.
    fn free_bytes_between(&self, start: Nanos, end: Nanos) -> f64;

    /// Returns `true` if a transfer of `bytes` starting at `start` cannot
    /// fit inside the window `[start, start + nominal_duration]`.
    fn is_saturated(&self, bytes: u64, start: Nanos, nominal_duration: Nanos) -> bool;

    /// Reserves `bytes` starting at `start`, filling bins greedily forward,
    /// and returns the time at which the last byte is transferred.
    fn reserve(&mut self, bytes: u64, start: Nanos) -> Nanos;

    /// Average utilisation of the channel over its whole horizon.
    fn utilization(&self) -> f64;
}

/// A binned bandwidth-reservation timeline for one channel direction, with
/// path-compressed skip pointers over saturated bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthTimeline {
    bin_width: Nanos,
    bytes_per_bin: f64,
    /// Bytes reserved in each bin.
    used: Vec<f64>,
    /// `0` while bin `b` may still have capacity; once it saturates, a later
    /// bin to resume the search from (path-compressed).  A saturated bin
    /// always points past itself, so `0` is never a real pointer.
    next_free: Vec<u32>,
    total_reserved: f64,
}

impl BandwidthTimeline {
    /// Creates a timeline covering `[0, horizon]` for a channel of
    /// `bytes_per_sec`, using bins of `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics if the bin width is zero.
    pub fn new(bytes_per_sec: f64, horizon: Nanos, bin_width: Nanos) -> Self {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        let bins = (horizon.as_nanos() / bin_width.as_nanos() + 2) as usize;
        BandwidthTimeline {
            bin_width,
            bytes_per_bin: bytes_per_sec * bin_width.as_secs_f64(),
            used: vec![0.0; bins],
            next_free: vec![0; bins],
            total_reserved: 0.0,
        }
    }

    /// Default bin width used by the planner (250 µs keeps even a
    /// multi-minute iteration under a million bins).
    pub fn default_bin_width() -> Nanos {
        Nanos::from_micros(250)
    }

    /// Number of bins in the timeline.
    pub fn bins(&self) -> usize {
        self.used.len()
    }

    /// Total bytes reserved so far.
    pub fn total_reserved_bytes(&self) -> f64 {
        self.total_reserved
    }

    fn bin_of(&self, time: Nanos) -> usize {
        ((time.as_nanos() / self.bin_width.as_nanos()) as usize).min(self.used.len() - 1)
    }

    fn clamped_free(&self, bin: usize) -> f64 {
        (self.bytes_per_bin - self.used[bin]).max(0.0)
    }

    /// Adds `take` bytes of usage to `bin`, marking it saturated once full.
    fn add_used(&mut self, bin: usize, take: f64) {
        self.used[bin] += take;
        if self.clamped_free(bin) <= 0.0 {
            self.next_free[bin] = bin as u32 + 1;
        }
    }

    /// First bin at or after `bin` that may still have free capacity
    /// (`bins()` if none), compressing the skip path on the way.
    fn find_free(&mut self, bin: usize) -> usize {
        let bins = self.used.len();
        let mut root = bin;
        while root < bins && self.next_free[root] != 0 {
            root = self.next_free[root] as usize;
        }
        // Path compression: point every visited bin at the found root.
        let mut b = bin;
        while b < root {
            let next = self.next_free[b] as usize;
            self.next_free[b] = root as u32;
            b = next;
        }
        root
    }

    /// Free capacity (bytes) between `start` and `end`: a sequential scan in
    /// the same order as the naive reference, so the sum is bit-identical.
    pub fn free_bytes_between(&self, start: Nanos, end: Nanos) -> f64 {
        if end <= start {
            return 0.0;
        }
        let lo = self.bin_of(start);
        let hi = self.bin_of(end);
        (lo..=hi).map(|b| self.clamped_free(b)).sum()
    }

    /// Returns `true` if a transfer of `bytes` starting at `start` cannot fit
    /// inside the window `[start, start + nominal_duration]` — the paper's
    /// "traffic is full" test.
    pub fn is_saturated(&self, bytes: u64, start: Nanos, nominal_duration: Nanos) -> bool {
        let end = start.saturating_add(nominal_duration);
        self.free_bytes_between(start, end) < bytes as f64
    }

    /// Reserves `bytes` starting at `start`, filling bins greedily forward,
    /// and returns the time at which the last byte is transferred.
    pub fn reserve(&mut self, bytes: u64, start: Nanos) -> Nanos {
        let mut remaining = bytes as f64;
        self.total_reserved += bytes as f64;
        let mut bin = self.bin_of(start);
        if remaining <= 0.0 {
            return self.end_of_bin(bin);
        }
        loop {
            let b = self.find_free(bin);
            if b >= self.used.len() {
                // Past the planning horizon: everything fits notionally at
                // the very end.
                let last = self.used.len() - 1;
                self.add_used(last, remaining);
                return self.end_of_bin(last);
            }
            let free = self.clamped_free(b);
            let take = free.min(remaining);
            self.add_used(b, take);
            remaining -= take;
            if remaining <= 0.0 {
                return self.end_of_bin(b);
            }
            bin = b + 1;
        }
    }

    fn end_of_bin(&self, bin: usize) -> Nanos {
        Nanos::from_nanos((bin as u64 + 1) * self.bin_width.as_nanos())
    }

    /// Average utilisation of the channel over its whole horizon.
    pub fn utilization(&self) -> f64 {
        if self.used.is_empty() || self.bytes_per_bin <= 0.0 {
            return 0.0;
        }
        let capacity = self.bytes_per_bin * self.used.len() as f64;
        (self.total_reserved / capacity).min(1.0)
    }
}

impl BandwidthReservation for BandwidthTimeline {
    fn with_rate(bytes_per_sec: f64, horizon: Nanos, bin_width: Nanos) -> Self {
        BandwidthTimeline::new(bytes_per_sec, horizon, bin_width)
    }
    fn bins(&self) -> usize {
        BandwidthTimeline::bins(self)
    }
    fn total_reserved_bytes(&self) -> f64 {
        BandwidthTimeline::total_reserved_bytes(self)
    }
    fn free_bytes_between(&self, start: Nanos, end: Nanos) -> f64 {
        BandwidthTimeline::free_bytes_between(self, start, end)
    }
    fn is_saturated(&self, bytes: u64, start: Nanos, nominal_duration: Nanos) -> bool {
        BandwidthTimeline::is_saturated(self, bytes, start, nominal_duration)
    }
    fn reserve(&mut self, bytes: u64, start: Nanos) -> Nanos {
        BandwidthTimeline::reserve(self, bytes, start)
    }
    fn utilization(&self) -> f64 {
        BandwidthTimeline::utilization(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline() -> BandwidthTimeline {
        // 1 GB/s over 10 ms with 1 ms bins → 1 MB per bin, 12 bins.
        BandwidthTimeline::new(1e9, Nanos::from_millis(10), Nanos::from_millis(1))
    }

    #[test]
    fn reserve_fills_forward() {
        let mut t = timeline();
        let done = t.reserve(2_000_000, Nanos::ZERO);
        // 2 MB at 1 MB/bin → finishes at the end of the second bin.
        assert_eq!(done, Nanos::from_millis(2));
        let done2 = t.reserve(1_000_000, Nanos::ZERO);
        // The first two bins are full, so the next MB lands in bin 3.
        assert_eq!(done2, Nanos::from_millis(3));
    }

    #[test]
    fn saturation_test_matches_free_capacity() {
        let mut t = timeline();
        assert!(!t.is_saturated(1_000_000, Nanos::ZERO, Nanos::from_millis(1)));
        t.reserve(2_000_000, Nanos::ZERO);
        assert!(t.is_saturated(1_000_000, Nanos::ZERO, Nanos::from_millis(1)));
        assert!(!t.is_saturated(1_000_000, Nanos::from_millis(3), Nanos::from_millis(1)));
    }

    #[test]
    fn free_bytes_between_is_window_limited() {
        let t = timeline();
        let one_bin = t.free_bytes_between(Nanos::ZERO, Nanos::from_micros(500));
        assert!((one_bin - 1_000_000.0).abs() < 1.0);
        assert_eq!(
            t.free_bytes_between(Nanos::from_millis(5), Nanos::from_millis(5)),
            0.0
        );
    }

    #[test]
    fn overflow_past_horizon_still_completes() {
        let mut t = timeline();
        let done = t.reserve(1_000_000_000, Nanos::ZERO);
        assert_eq!(done, Nanos::from_millis(12));
        assert!(t.utilization() <= 1.0);
    }

    #[test]
    fn utilization_tracks_reservations() {
        let mut t = timeline();
        assert_eq!(t.utilization(), 0.0);
        t.reserve(6_000_000, Nanos::ZERO);
        assert!(t.utilization() > 0.4 && t.utilization() <= 1.0);
        assert!(t.total_reserved_bytes() > 0.0);
        assert_eq!(t.bins(), 12);
    }

    #[test]
    fn saturated_prefix_is_skipped_not_rescanned() {
        let mut t = timeline();
        // Saturate the first 10 bins.
        t.reserve(10_000_000, Nanos::ZERO);
        // A reservation starting at zero must land in bin 11.
        let done = t.reserve(1_000_000, Nanos::ZERO);
        assert_eq!(done, Nanos::from_millis(11));
        // The skip pointers now jump over the saturated prefix.
        assert!(t.find_free(0) >= 10);
    }

    #[test]
    fn free_bytes_shrink_as_reservations_land() {
        let mut t = timeline();
        let before = t.free_bytes_between(Nanos::ZERO, Nanos::from_millis(10));
        t.reserve(3_000_000, Nanos::ZERO);
        let after = t.free_bytes_between(Nanos::ZERO, Nanos::from_millis(10));
        assert!((before - after - 3_000_000.0).abs() < 1.0);
    }
}
