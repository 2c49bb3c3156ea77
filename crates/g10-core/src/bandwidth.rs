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
//! SENet154), but a reservation leaves behind a simple shape: every bin it
//! reaches is full except possibly the last.  So the ledger stores only
//! coalesced runs of saturated bins (`start → end`) and the bins that hold
//! a reservation but still have room (`bin → bytes used`); any other bin is
//! empty.  A reservation adds at most one run and one partly-filled bin, and
//! the runs it crosses merge into one, so a plan's memory follows its
//! reservations, not the iteration length or the bins they cover.
//!
//! # Complexity
//!
//! With `b` bins, `w` the bins a window or transfer spans, `r` the runs and
//! partly-filled bins held, `s` the runs and partly-filled bins inside a
//! window and `e` the empty bins it crosses:
//!
//! | operation                                  | flat `Vec` | [`BandwidthTimeline`]       |
//! |--------------------------------------------|------------|-----------------------------|
//! | [`BandwidthTimeline::new`]                 | O(b)       | O(1)                        |
//! | [`BandwidthTimeline::free_bytes_between`]  | O(w)       | O((1 + s) log r + e)        |
//! | [`BandwidthTimeline::is_saturated`]        | O(w)       | as above, stops early ¹     |
//! | [`BandwidthTimeline::reserve`]             | O(w)       | O(log r) amortised + e ²    |
//!
//! ¹ The scan stops once the free bytes seen cover the transfer.  Every term
//!   is non-negative, so the rounded partial sum never decreases and the
//!   verdict equals that of the full sum.
//!
//! ² Each saturated run a reservation jumps over merges into the one it
//!   leaves behind, and each partly-filled bin it reaches fills up, so
//!   lookups are amortised over the entries that reservations create.  The
//!   `e` term is one float subtraction per empty bin filled.
//!
//! Empty bins are summed and filled one at a time, in a tight loop with no
//! lookups, because float arithmetic over a non-integer `bytes_per_bin` has
//! no exact closed form.  The scans add and subtract bin by bin in the same
//! order as [`crate::naive::NaiveBandwidthTimeline`], and a skipped
//! saturated bin would add exactly `+0.0`, so free-byte sums, saturation
//! verdicts and completion times are bit-identical to the reference, not
//! merely close.

use std::collections::BTreeMap;

use g10_time::Nanos;
use serde::{Deserialize, Serialize};

/// The operations the eviction scheduler needs from a channel-reservation
/// ledger.  Implemented by the run-length [`BandwidthTimeline`] (the
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

/// A binned bandwidth-reservation timeline for one channel direction, stored
/// as runs of saturated bins plus the partly-filled bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthTimeline {
    bin_width: Nanos,
    bytes_per_bin: f64,
    bins: usize,
    /// Coalesced runs of saturated bins, `start → end` (exclusive).  No two
    /// runs touch.
    saturated: BTreeMap<usize, usize>,
    /// Bytes reserved in each bin that holds a reservation but still has
    /// room.  A bin in neither map is empty.
    partial: BTreeMap<usize, f64>,
    total_reserved: f64,
}

/// What the ledger holds at a bin, and how far that extends.
enum Segment {
    /// The bins up to `end` (exclusive) are saturated.
    Saturated { end: usize },
    /// The bin holds `used` bytes and still has room.
    Partial { used: f64 },
    /// The bins up to `end` (exclusive) are empty.
    Empty { end: usize },
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
            bins,
            saturated: BTreeMap::new(),
            partial: BTreeMap::new(),
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

    /// Free capacity of a bin holding `used` bytes.
    fn clamped_free(&self, used: f64) -> f64 {
        (self.bytes_per_bin - used).max(0.0)
    }

    /// The segment that `bin` starts in.
    fn segment(&self, bin: usize) -> Segment {
        let run = self.saturated.range(..=bin).next_back();
        if let Some((_, &end)) = run.filter(|(_, &end)| end > bin) {
            return Segment::Saturated { end };
        }
        let next_partial = self.partial.range(bin..).next();
        if let Some((_, &used)) = next_partial.filter(|(&b, _)| b == bin) {
            return Segment::Partial { used };
        }
        let next_run = self
            .saturated
            .range(bin..)
            .next()
            .map_or(self.bins, |(&s, _)| s);
        let next_partial = next_partial.map_or(self.bins, |(&b, _)| b);
        Segment::Empty {
            end: next_run.min(next_partial),
        }
    }

    /// Marks the unsaturated bins `lo..hi` saturated, merging with the runs
    /// on either side.
    fn saturate(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let lo = match self.saturated.range(..lo).next_back() {
            Some((&start, &end)) if end == lo => start,
            _ => lo,
        };
        let hi = self.saturated.remove(&hi).unwrap_or(hi);
        self.saturated.insert(lo, hi);
    }

    /// Records that the unsaturated `bin` now holds `used` bytes.
    fn fill(&mut self, bin: usize, used: f64) {
        if self.clamped_free(used) <= 0.0 {
            self.partial.remove(&bin);
            self.saturate(bin, bin + 1);
        } else {
            self.partial.insert(bin, used);
        }
    }

    /// Free bytes of the bins from `start`'s through `end`'s, summed in
    /// order; the scan may stop once the sum reaches `enough`.  `+0.0` when
    /// `end <= start`, as in the reference.
    fn free_up_to(&self, start: Nanos, end: Nanos, enough: f64) -> f64 {
        if end <= start {
            return 0.0;
        }
        let hi = self.bin_of(end) + 1;
        let empty_free = self.clamped_free(0.0);
        let mut free = 0.0;
        let mut bin = self.bin_of(start);
        while bin < hi && free < enough {
            match self.segment(bin) {
                // A saturated bin adds `+0.0`, which leaves the sum as is.
                Segment::Saturated { end } => bin = end,
                Segment::Partial { used } => {
                    free += self.clamped_free(used);
                    bin += 1;
                }
                Segment::Empty { end } => {
                    let end = end.min(hi);
                    if empty_free > 0.0 {
                        for _ in bin..end {
                            free += empty_free;
                            if free >= enough {
                                return free;
                            }
                        }
                    }
                    bin = end;
                }
            }
        }
        free
    }

    /// Free capacity (bytes) between `start` and `end`: a sequential sum in
    /// the same order as the naive reference, so it is bit-identical.
    pub fn free_bytes_between(&self, start: Nanos, end: Nanos) -> f64 {
        self.free_up_to(start, end, f64::INFINITY)
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
        self.free_up_to(start, end, bytes) < bytes
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
        let empty_free = self.clamped_free(0.0);
        while bin < self.bins {
            match self.segment(bin) {
                Segment::Saturated { end } => bin = end,
                Segment::Partial { used } => {
                    let take = self.clamped_free(used).min(remaining);
                    remaining -= take;
                    self.fill(bin, used + take);
                    if remaining <= 0.0 {
                        return self.end_of_bin(bin);
                    }
                    bin += 1;
                }
                Segment::Empty { end } if empty_free > 0.0 => {
                    // Each bin takes all of its capacity, and so saturates,
                    // until the one that takes the last byte.
                    for last in bin..end {
                        let take = empty_free.min(remaining);
                        remaining -= take;
                        if remaining <= 0.0 {
                            self.saturate(bin, last);
                            self.fill(last, take);
                            return self.end_of_bin(last);
                        }
                    }
                    self.saturate(bin, end);
                    bin = end;
                }
                // A zero-rate channel: nothing fits in an empty bin.
                Segment::Empty { end } => bin = end,
            }
        }
        // Past the planning horizon: everything fits notionally at the very
        // end.
        let last = self.bins - 1;
        match self.segment(last) {
            Segment::Saturated { .. } => {}
            Segment::Partial { used } => self.fill(last, used + remaining),
            Segment::Empty { .. } => self.fill(last, remaining),
        }
        self.end_of_bin(last)
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
        let empty = t.free_bytes_between(Nanos::from_millis(5), Nanos::from_millis(5));
        assert_eq!(empty.to_bits(), 0.0f64.to_bits());
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
        // The saturated prefix is held as one run.
        assert_eq!(t.saturated.iter().next(), Some((&0, &11)));
    }

    /// Runs plus partly-filled bins held, after checking that the runs are
    /// coalesced and the partly-filled bins lie between them with room left.
    fn entries(t: &BandwidthTimeline) -> usize {
        let mut prev_end = None;
        for (&start, &end) in &t.saturated {
            assert!(start < end && end <= t.bins, "run {start}..{end}");
            assert!(
                prev_end.is_none_or(|prev| prev < start),
                "runs touch at {start}"
            );
            prev_end = Some(end);
        }
        for (&bin, &used) in &t.partial {
            assert!(matches!(t.segment(bin), Segment::Partial { .. }));
            assert!(
                used > 0.0 && t.clamped_free(used) > 0.0,
                "bin {bin} holds {used}"
            );
        }
        t.saturated.len() + t.partial.len()
    }

    #[test]
    fn entries_follow_reservations_not_the_horizon() {
        // 146 s at the planner's 250 µs bins: 584,002 bins.
        let bin = BandwidthTimeline::default_bin_width();
        let mut t = BandwidthTimeline::new(1e9, Nanos::from_secs(146), bin);
        assert_eq!(t.bins(), 584_002);
        assert_eq!(entries(&t), 0);

        // Queries read the empty ledger as free and store nothing.
        let window = Nanos::from_millis(100);
        let per_bin = 1e9 * bin.as_secs_f64();
        let free = t.free_bytes_between(Nanos::ZERO, window);
        assert_eq!(free, (0..=400).map(|_| per_bin).sum::<f64>());
        assert!(!t.is_saturated(1_000_000, Nanos::ZERO, window));
        assert_eq!(entries(&t), 0);

        // Three and a half bins: one run of three bins and one partly-filled
        // bin, however many bins the transfer covers.
        let done = t.reserve((3.5 * per_bin) as u64, bin * 511);
        assert_eq!(done, bin * 515);
        assert_eq!(t.saturated.iter().next(), Some((&511, &514)));
        assert_eq!(t.partial.keys().next(), Some(&514));
        assert_eq!(entries(&t), 2);

        // A minute-long transfer is still one run and one partial bin.
        let mut long = BandwidthTimeline::new(1e9, Nanos::from_secs(146), bin);
        long.reserve(60_000_000_000 + 1_000, Nanos::from_secs(10));
        assert_eq!(entries(&long), 2);

        // Reservations of every size from everywhere, overlapping, spilling
        // past the horizon and closing gaps between runs: after `k` of them
        // the ledger holds at most `2k + 1` entries.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for k in 1..=2_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let start = bin * (state % 600_000) + Nanos::from_nanos(state % 250_000);
            let bytes = (state >> 20) % (1 << (state % 34));
            t.reserve(bytes, start);
            assert!(
                entries(&t) as u64 <= 2 * (k + 1) + 1,
                "{} entries",
                entries(&t)
            );
        }
        assert!(t.saturated.len() > 1);
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
