//! Bandwidth-reservation timelines used during planning.
//!
//! While building the migration plan, the scheduler must know whether the
//! GPU–SSD or GPU–host channel still has room for another migration at a
//! given point in time ("if to_ssd_traffic is full during t_r to t_r + t_s",
//! Algorithm 1).  A [`BandwidthTimeline`] divides the iteration into
//! fixed-width bins, gives each bin `rate × bin_width` bytes of capacity and
//! lets the planner reserve bytes greedily from a start time forward.
//!
//! # Memory
//!
//! A ledger spans the whole iteration (about 580k bins of 250 µs on
//! SENet154), but a plan reserves into only a fraction of them.  Per bin it
//! keeps the bytes reserved and a path-compressed skip pointer past
//! saturated bins, each in its own table of fixed-size pages.  A page is
//! allocated on the first write into it: a `used` page on the first
//! reservation that lands in it, a skip page only once one of its bins
//! saturates.  An unwritten bin reads as empty.  So [`BandwidthTimeline::new`]
//! allocates one null pointer per page per table, and a plan's memory
//! follows the bins its evictions write, not the iteration length.
//!
//! # Complexity
//!
//! With `b` bins and `w` the bins a window or transfer spans:
//!
//! | operation                                  | flat `Vec` | [`BandwidthTimeline`] |
//! |--------------------------------------------|------------|-----------------------|
//! | [`BandwidthTimeline::new`]                 | O(b)       | O(b / 64)             |
//! | [`BandwidthTimeline::free_bytes_between`]  | O(w)       | O(w)                  |
//! | [`BandwidthTimeline::is_saturated`]        | O(w)       | O(w), stops early ¹   |
//! | [`BandwidthTimeline::reserve`]             | O(w)       | O(t) amortised ²      |
//!
//! ¹ The scan stops once the free bytes seen cover the transfer.  Every term
//!   is non-negative, so the rounded partial sum never decreases and the
//!   verdict equals that of the full sum.
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

/// Bins per page of a [`BandwidthTimeline`]'s page tables.
const PAGE: usize = 64;

/// A binned bandwidth-reservation timeline for one channel direction, with
/// path-compressed skip pointers over saturated bins, stored in lazily
/// allocated pages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthTimeline {
    bin_width: Nanos,
    bytes_per_bin: f64,
    bins: usize,
    /// Bytes reserved in each bin; a missing page reads as all zero.
    used: Vec<Option<Box<[f64; PAGE]>>>,
    /// `0` while bin `b` may still have capacity; once it saturates, a later
    /// bin to resume the search from (path-compressed).  A saturated bin
    /// always points past itself, so `0` is never a real pointer.  A missing
    /// page reads as all zero.
    next_free: Vec<Option<Box<[u32; PAGE]>>>,
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
        let pages = bins.div_ceil(PAGE);
        BandwidthTimeline {
            bin_width,
            bytes_per_bin: bytes_per_sec * bin_width.as_secs_f64(),
            bins,
            used: vec![None; pages],
            next_free: vec![None; pages],
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
        self.bins
    }

    /// Total bytes reserved so far.
    pub fn total_reserved_bytes(&self) -> f64 {
        self.total_reserved
    }

    fn bin_of(&self, time: Nanos) -> usize {
        ((time.as_nanos() / self.bin_width.as_nanos()) as usize).min(self.bins - 1)
    }

    fn used(&self, bin: usize) -> f64 {
        self.used[bin / PAGE]
            .as_ref()
            .map_or(0.0, |page| page[bin % PAGE])
    }

    fn next_free(&self, bin: usize) -> u32 {
        self.next_free[bin / PAGE]
            .as_ref()
            .map_or(0, |page| page[bin % PAGE])
    }

    fn set_next_free(&mut self, bin: usize, next: u32) {
        let page = self.next_free[bin / PAGE].get_or_insert_with(|| Box::new([0; PAGE]));
        page[bin % PAGE] = next;
    }

    fn clamped_free(&self, bin: usize) -> f64 {
        (self.bytes_per_bin - self.used(bin)).max(0.0)
    }

    /// Adds `take` bytes of usage to `bin`, marking it saturated once full.
    fn add_used(&mut self, bin: usize, take: f64) {
        let page = self.used[bin / PAGE].get_or_insert_with(|| Box::new([0.0; PAGE]));
        page[bin % PAGE] += take;
        if self.clamped_free(bin) <= 0.0 {
            self.set_next_free(bin, bin as u32 + 1);
        }
    }

    /// First bin at or after `bin` that may still have free capacity
    /// (`bins()` if none), compressing the skip path on the way.
    fn find_free(&mut self, bin: usize) -> usize {
        let mut root = bin;
        while root < self.bins && self.next_free(root) != 0 {
            root = self.next_free(root) as usize;
        }
        // Path compression: point every visited bin at the found root.  Each
        // visited bin is saturated, so its skip page already exists.
        let mut b = bin;
        while b < root {
            let next = self.next_free(b) as usize;
            self.set_next_free(b, root as u32);
            b = next;
        }
        root
    }

    /// Free capacity of each bin from `start`'s through `end`'s, in order;
    /// empty when `end <= start`.
    fn free_bins(&self, start: Nanos, end: Nanos) -> impl Iterator<Item = f64> + '_ {
        let lo = self.bin_of(start);
        let hi = if end <= start {
            lo
        } else {
            self.bin_of(end) + 1
        };
        (lo..hi).map(|b| self.clamped_free(b))
    }

    /// Free capacity (bytes) between `start` and `end`: a sequential scan in
    /// the same order as the naive reference, so the sum is bit-identical.
    pub fn free_bytes_between(&self, start: Nanos, end: Nanos) -> f64 {
        self.free_bins(start, end).sum()
    }

    /// Returns `true` if a transfer of `bytes` starting at `start` cannot fit
    /// inside the window `[start, start + nominal_duration]` — the paper's
    /// "traffic is full" test.
    ///
    /// Equal to `free_bytes_between(start, end) < bytes`, but the scan stops
    /// as soon as the partial sum covers `bytes`: every term is `>= 0`, so
    /// the rounded sum cannot fall back below it.
    pub fn is_saturated(&self, bytes: u64, start: Nanos, nominal_duration: Nanos) -> bool {
        let bytes = bytes as f64;
        let end = start.saturating_add(nominal_duration);
        let mut free = 0.0;
        for bin_free in self.free_bins(start, end) {
            if free >= bytes {
                return false;
            }
            free += bin_free;
        }
        free < bytes
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
            if b >= self.bins {
                // Past the planning horizon: everything fits notionally at
                // the very end.
                let last = self.bins - 1;
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
        if self.bins == 0 || self.bytes_per_bin <= 0.0 {
            return 0.0;
        }
        let capacity = self.bytes_per_bin * self.bins as f64;
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

    fn pages_held(t: &BandwidthTimeline) -> (usize, usize) {
        (
            t.used.iter().filter(|p| p.is_some()).count(),
            t.next_free.iter().filter(|p| p.is_some()).count(),
        )
    }

    #[test]
    fn pages_are_allocated_only_where_reservations_land() {
        // 146 s at the planner's 250 µs bins: 584,002 bins, 9,126 pages.
        let bin = BandwidthTimeline::default_bin_width();
        let mut t = BandwidthTimeline::new(1e9, Nanos::from_secs(146), bin);
        assert_eq!(t.bins(), 584_002);
        assert_eq!(t.used.len(), 584_002usize.div_ceil(PAGE));
        assert_eq!(pages_held(&t), (0, 0));

        // Queries read unwritten bins as empty and allocate nothing.
        let window = Nanos::from_millis(100);
        let per_bin = 1e9 * bin.as_secs_f64();
        let free = t.free_bytes_between(Nanos::ZERO, window);
        assert_eq!(free, (0..=400).map(|_| per_bin).sum::<f64>());
        assert!(!t.is_saturated(1_000_000, Nanos::ZERO, window));
        assert_eq!(pages_held(&t), (0, 0));

        // Three and a half bins from the last bin of page 7: the transfer
        // saturates bins 511..=513 and half-fills 514, so it writes pages 7
        // and 8 of both tables.
        let start = bin * (8 * PAGE as u64 - 1);
        let done = t.reserve((3.5 * per_bin) as u64, start);
        assert_eq!(done, bin * (8 * PAGE as u64 + 3));
        assert_eq!(pages_held(&t), (2, 2));
        assert!(t.used[7].is_some() && t.used[8].is_some());

        // A partial fill allocates a `used` page but no skip page.
        t.reserve(1_000, bin * 100 * PAGE as u64);
        assert_eq!(pages_held(&t), (3, 2));

        // A transfer that spills past the horizon writes only the last page.
        let mut t = BandwidthTimeline::new(1e9, Nanos::from_secs(146), bin);
        let end = t.reserve((2.0 * per_bin) as u64, Nanos::from_secs(200));
        assert_eq!(end, bin * 584_002);
        assert_eq!(pages_held(&t), (1, 1));
        assert!(t.used.last().unwrap().is_some());
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
