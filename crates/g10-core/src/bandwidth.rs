//! Bandwidth-reservation timelines used during planning.
//!
//! While building the migration plan, the scheduler must know whether the
//! GPU–SSD or GPU–host channel still has room for another migration at a
//! given point in time ("if to_ssd_traffic is full during t_r to t_r + t_s",
//! Algorithm 1).  A [`BandwidthTimeline`] divides the iteration into
//! fixed-width bins, gives each bin `rate × bin_width` bytes of capacity
//! (rounded to a whole byte) and lets the planner reserve bytes greedily
//! from a start time forward.
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
//! partly-filled bins held and `s` the runs and partly-filled bins inside a
//! window:
//!
//! | operation                                  | flat `Vec` | [`BandwidthTimeline`]       |
//! |--------------------------------------------|------------|-----------------------------|
//! | [`BandwidthTimeline::new`]                 | O(b)       | O(1)                        |
//! | [`BandwidthTimeline::free_bytes_between`]  | O(w)       | O((1 + s) log r)            |
//! | [`BandwidthTimeline::is_saturated`]        | O(w)       | as above, stops early ¹     |
//! | [`BandwidthTimeline::reserve`]             | O(w)       | O(log r) amortised ²        |
//!
//! ¹ The scan stops once the free bytes seen cover the transfer.
//!
//! ² Each saturated run a reservation jumps over merges into the one it
//!   leaves behind, and each partly-filled bin it reaches fills up, so
//!   lookups are amortised over the entries that reservations create.
//!
//! Bytes are whole numbers, so a run of `n` empty bins of capacity `c`
//! holds exactly `n · c` free bytes, and a transfer of `remaining` bytes
//! into it fills `k = ⌈remaining / c⌉` bins, the last with
//! `remaining − (k − 1) · c`.  Both are one step however many bins the run
//! covers, and both equal what the bin-by-bin reference
//! (`NaiveBandwidthTimeline` in `crates/g10-core/tests/support/naive.rs`)
//! computes.

use std::collections::BTreeMap;

use g10_time::Nanos;
use serde::{Deserialize, Serialize};

/// The operations the eviction scheduler needs from a channel-reservation
/// ledger.  Implemented by the run-length [`BandwidthTimeline`] (the
/// default) and by the flat-`Vec` reference in
/// `crates/g10-core/tests/support/naive.rs`, which the planner-equivalence
/// tests substitute through this trait.
pub trait BandwidthReservation {
    /// Creates a timeline covering `[0, horizon]` for a channel of
    /// `bytes_per_sec`, using bins of `bin_width`.
    fn with_rate(bytes_per_sec: f64, horizon: Nanos, bin_width: Nanos) -> Self;

    /// Returns `true` if a transfer of `bytes` starting at `start` cannot
    /// fit inside the window `[start, start + nominal_duration]`.
    fn is_saturated(&self, bytes: u64, start: Nanos, nominal_duration: Nanos) -> bool;

    /// Reserves `bytes` starting at `start`, filling bins greedily forward,
    /// and returns the time at which the last byte is transferred.
    fn reserve(&mut self, bytes: u64, start: Nanos) -> Nanos;
}

/// Whole bytes a bin of `bin_width` carries on a channel of `bytes_per_sec`:
/// the product rounded to the nearest byte, so a product one ulp under a
/// whole number keeps that number.
pub(crate) fn bin_capacity(bytes_per_sec: f64, bin_width: Nanos) -> u64 {
    (bytes_per_sec * bin_width.as_secs_f64()).round() as u64
}

/// A binned bandwidth-reservation timeline for one channel direction, stored
/// as runs of saturated bins plus the partly-filled bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthTimeline {
    bin_width: Nanos,
    bytes_per_bin: u64,
    bins: usize,
    /// Coalesced runs of saturated bins, `start → end` (exclusive).  No two
    /// runs touch.
    saturated: BTreeMap<usize, usize>,
    /// Bytes reserved in each bin that holds a reservation but still has
    /// room.  A bin in neither map is empty.
    partial: BTreeMap<usize, u64>,
}

/// What the ledger holds at a bin, and how far that extends.
enum Segment {
    /// The bins up to `end` (exclusive) are saturated.
    Saturated { end: usize },
    /// The bin holds `used` bytes and still has room.
    Partial { used: u64 },
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
            bytes_per_bin: bin_capacity(bytes_per_sec, bin_width),
            bins,
            saturated: BTreeMap::new(),
            partial: BTreeMap::new(),
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

    fn bin_of(&self, time: Nanos) -> usize {
        ((time.as_nanos() / self.bin_width.as_nanos()) as usize).min(self.bins - 1)
    }

    /// Free capacity of a bin holding `used` bytes.
    fn clamped_free(&self, used: u64) -> u64 {
        self.bytes_per_bin.saturating_sub(used)
    }

    /// Free capacity of the empty bins `lo..hi` (saturating, for channels
    /// far faster than any planner uses).
    fn empty_free(&self, lo: usize, hi: usize) -> u64 {
        ((hi - lo) as u64).saturating_mul(self.bytes_per_bin)
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
    fn fill(&mut self, bin: usize, used: u64) {
        if self.clamped_free(used) == 0 {
            self.partial.remove(&bin);
            self.saturate(bin, bin + 1);
        } else {
            self.partial.insert(bin, used);
        }
    }

    /// Free bytes of the bins from `start`'s through `end`'s; the scan may
    /// stop once the sum reaches `enough`.  Zero when `end <= start`.
    fn free_up_to(&self, start: Nanos, end: Nanos, enough: u64) -> u64 {
        if end <= start {
            return 0;
        }
        let hi = self.bin_of(end) + 1;
        let mut free = 0;
        let mut bin = self.bin_of(start);
        while bin < hi && free < enough {
            match self.segment(bin) {
                Segment::Saturated { end } => bin = end,
                Segment::Partial { used } => {
                    free += self.clamped_free(used);
                    bin += 1;
                }
                Segment::Empty { end } => {
                    let end = end.min(hi);
                    free = free.saturating_add(self.empty_free(bin, end));
                    bin = end;
                }
            }
        }
        free
    }

    /// Free capacity (bytes) between `start` and `end`: every bin from
    /// `start`'s through `end`'s, zero for an empty or reversed window.
    pub fn free_bytes_between(&self, start: Nanos, end: Nanos) -> u64 {
        self.free_up_to(start, end, u64::MAX)
    }

    /// Returns `true` if a transfer of `bytes` starting at `start` cannot fit
    /// inside the window `[start, start + nominal_duration]` — the paper's
    /// "traffic is full" test.
    ///
    /// Equal to `free_bytes_between(start, end) < bytes`, but the scan stops
    /// as soon as the free bytes seen cover `bytes`.
    pub fn is_saturated(&self, bytes: u64, start: Nanos, nominal_duration: Nanos) -> bool {
        let end = start.saturating_add(nominal_duration);
        self.free_up_to(start, end, bytes) < bytes
    }

    /// Reserves `bytes` starting at `start`, filling bins greedily forward,
    /// and returns the time at which the last byte is transferred.
    pub fn reserve(&mut self, bytes: u64, start: Nanos) -> Nanos {
        let mut remaining = bytes;
        let mut bin = self.bin_of(start);
        if remaining == 0 {
            return self.end_of_bin(bin);
        }
        let c = self.bytes_per_bin;
        while bin < self.bins {
            match self.segment(bin) {
                Segment::Saturated { end } => bin = end,
                Segment::Partial { used } => {
                    let take = self.clamped_free(used).min(remaining);
                    remaining -= take;
                    self.fill(bin, used + take);
                    if remaining == 0 {
                        return self.end_of_bin(bin);
                    }
                    bin += 1;
                }
                Segment::Empty { end } => {
                    let room = self.empty_free(bin, end);
                    if remaining <= room {
                        // Every bin takes all of its capacity, and so
                        // saturates, until the `k`-th takes the last byte.
                        let k = remaining.div_ceil(c);
                        let last = bin + k as usize - 1;
                        self.saturate(bin, last);
                        self.fill(last, remaining - (k - 1) * c);
                        return self.end_of_bin(last);
                    }
                    // The whole run fills, as does a zero-rate channel's
                    // run, which has no room.
                    remaining -= room;
                    self.saturate(bin, end);
                    bin = end;
                }
            }
        }
        // Past the planning horizon, every bin from the start on is
        // saturated: the rest fits notionally at the very end.
        self.end_of_bin(self.bins - 1)
    }

    fn end_of_bin(&self, bin: usize) -> Nanos {
        Nanos::from_nanos((bin as u64 + 1) * self.bin_width.as_nanos())
    }
}

impl BandwidthReservation for BandwidthTimeline {
    fn with_rate(bytes_per_sec: f64, horizon: Nanos, bin_width: Nanos) -> Self {
        BandwidthTimeline::new(bytes_per_sec, horizon, bin_width)
    }
    fn is_saturated(&self, bytes: u64, start: Nanos, nominal_duration: Nanos) -> bool {
        BandwidthTimeline::is_saturated(self, bytes, start, nominal_duration)
    }
    fn reserve(&mut self, bytes: u64, start: Nanos) -> Nanos {
        BandwidthTimeline::reserve(self, bytes, start)
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
        assert_eq!(t.bins(), 12);
        let one_bin = t.free_bytes_between(Nanos::ZERO, Nanos::from_micros(500));
        assert_eq!(one_bin, 1_000_000);
        assert_eq!(
            t.free_bytes_between(Nanos::from_millis(5), Nanos::from_millis(5)),
            0
        );
        assert_eq!(
            t.free_bytes_between(Nanos::from_millis(5), Nanos::from_millis(4)),
            0
        );
    }

    /// Bin capacity in [`timeline`].
    const C: u64 = 1_000_000;

    #[test]
    fn transfers_of_whole_bins_and_one_byte_either_side() {
        for k in 1..=4u64 {
            let bins = k as usize;
            // Exactly `k` bins: all saturated, no partly-filled bin.
            let mut t = timeline();
            assert_eq!(t.reserve(k * C, Nanos::ZERO), Nanos::from_millis(k));
            assert_eq!(t.saturated.iter().next(), Some((&0, &bins)));
            assert!(t.partial.is_empty());
            assert_eq!(
                t.free_bytes_between(Nanos::ZERO, Nanos::from_millis(11)),
                (12 - k) * C
            );

            // One byte short: the `k`-th bin keeps one byte of room.
            let mut t = timeline();
            assert_eq!(t.reserve(k * C - 1, Nanos::ZERO), Nanos::from_millis(k));
            assert_eq!(t.partial.iter().next(), Some((&(bins - 1), &(C - 1))));
            assert_eq!(
                t.saturated.iter().next().map(|(_, &e)| e),
                (k > 1).then_some(bins - 1)
            );
            assert_eq!(
                t.free_bytes_between(Nanos::ZERO, Nanos::from_millis(11)),
                (12 - k) * C + 1
            );

            // One byte over: the next bin holds that byte.
            let mut t = timeline();
            assert_eq!(t.reserve(k * C + 1, Nanos::ZERO), Nanos::from_millis(k + 1));
            assert_eq!(t.saturated.iter().next(), Some((&0, &bins)));
            assert_eq!(t.partial.iter().next(), Some((&bins, &1)));
        }
    }

    #[test]
    fn a_start_inside_a_partly_filled_bin_tops_it_up_first() {
        let mut t = timeline();
        assert_eq!(t.reserve(C / 4, Nanos::ZERO), Nanos::from_millis(1));
        // Starting mid-bin still draws on the bin's remaining room.
        let done = t.reserve(C, Nanos::from_micros(600));
        assert_eq!(done, Nanos::from_millis(2));
        assert_eq!(t.saturated.iter().next(), Some((&0, &1)));
        assert_eq!(t.partial.iter().next(), Some((&1, &(C / 4))));
        assert_eq!(
            t.free_bytes_between(Nanos::from_micros(600), Nanos::from_micros(1_500)),
            C * 3 / 4
        );
        // Topping the bin up exactly saturates it and merges the run.
        assert_eq!(
            t.reserve(C * 3 / 4, Nanos::from_micros(1_999)),
            Nanos::from_millis(2)
        );
        assert_eq!(t.saturated.iter().next(), Some((&0, &2)));
        assert!(t.partial.is_empty());
    }

    #[test]
    fn a_zero_rate_channel_has_no_room_anywhere() {
        let mut t = BandwidthTimeline::new(0.0, Nanos::from_millis(10), Nanos::from_millis(1));
        let horizon = Nanos::from_millis(12);
        assert_eq!(t.free_bytes_between(Nanos::ZERO, horizon), 0);
        assert!(t.is_saturated(1, Nanos::ZERO, horizon));
        assert!(!t.is_saturated(0, Nanos::ZERO, horizon));
        // Every transfer completes, notionally, at the end of the last bin,
        // and the bins it crossed are held as one saturated run.
        assert_eq!(t.reserve(1, Nanos::ZERO), horizon);
        assert_eq!(t.saturated.iter().next(), Some((&0, &12)));
        assert_eq!(t.reserve(5 * C, Nanos::from_millis(3)), horizon);
        assert_eq!(t.reserve(0, Nanos::from_millis(3)), Nanos::from_millis(4));
        assert_eq!(t.free_bytes_between(Nanos::ZERO, horizon), 0);
    }

    #[test]
    fn overflow_past_horizon_still_completes() {
        let mut t = timeline();
        // From bin 4, 1 GB is far more than the 8 bins left can carry.
        let done = t.reserve(1_000_000_000, Nanos::from_millis(4));
        assert_eq!(done, Nanos::from_millis(12));
        assert_eq!(t.saturated.iter().next(), Some((&4, &12)));
        assert!(t.partial.is_empty());
        // Only the bins before the start keep room, and a later transfer
        // lands there or spills too.
        assert_eq!(
            t.free_bytes_between(Nanos::ZERO, Nanos::from_millis(11)),
            4 * C
        );
        assert_eq!(t.reserve(1, Nanos::from_millis(5)), Nanos::from_millis(12));
        assert_eq!(t.reserve(4 * C, Nanos::ZERO), Nanos::from_millis(4));
        assert_eq!(t.saturated.iter().next(), Some((&0, &12)));
    }

    #[test]
    fn a_transfer_of_exactly_the_free_bytes_fits() {
        let mut t = timeline();
        t.reserve(C / 2, Nanos::ZERO);
        t.reserve(C, Nanos::from_millis(2));
        // Bins 0..=3: half of bin 0, all of bin 1, none of bin 2, bin 3.
        let window = Nanos::from_micros(3_500);
        let free = t.free_bytes_between(Nanos::ZERO, window);
        assert_eq!(free, C / 2 + 2 * C);
        assert!(!t.is_saturated(free, Nanos::ZERO, window));
        assert!(t.is_saturated(free + 1, Nanos::ZERO, window));
        assert!(!t.is_saturated(free - 1, Nanos::ZERO, window));
    }

    #[test]
    fn bin_capacity_rounds_to_the_nearest_byte() {
        let bin = Nanos::from_micros(250);
        assert_eq!(bin_capacity(1e9, bin), 250_000);
        // A product one ulp under a whole number keeps that number.
        let rate = f64::from_bits(4e9f64.to_bits() - 1);
        assert!(rate * bin.as_secs_f64() < 1e6);
        assert_eq!(bin_capacity(rate, bin), 1_000_000);
        // A fractional capacity rounds either way.
        assert_eq!(bin_capacity(50e6 * (3.0 / 3.2), bin), 11_719);
        assert_eq!(bin_capacity(1_001.0, Nanos::from_millis(1)), 1);
        assert_eq!(bin_capacity(0.0, bin), 0);
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
                used > 0 && t.clamped_free(used) > 0,
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
        let per_bin = 250_000;
        let free = t.free_bytes_between(Nanos::ZERO, window);
        assert_eq!(free, 401 * per_bin);
        assert!(!t.is_saturated(1_000_000, Nanos::ZERO, window));
        assert_eq!(entries(&t), 0);

        // Three and a half bins: one run of three bins and one partly-filled
        // bin, however many bins the transfer covers.
        let done = t.reserve(3 * per_bin + per_bin / 2, bin * 511);
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
        assert_eq!(before - after, 3_000_000);
    }
}
