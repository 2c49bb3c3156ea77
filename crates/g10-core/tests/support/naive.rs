//! Flat-`Vec` reference implementations of the planning timelines.
//!
//! These are the pre-refactor O(range)-per-operation data structures, kept
//! only as the correctness oracle for the index structures in
//! `g10_core::pressure` and `g10_core::bandwidth`:
//!
//! * the property tests (`crates/g10-core/tests/timeline_props.rs`) assert
//!   that the range-max tree `MemoryTimeline` and the run-length
//!   `BandwidthTimeline` agree with these on random operation sequences,
//!   and
//! * `tests/planner_scaling.rs` runs the whole eviction + prefetch pipeline
//!   on both families, through the `PressureTimeline` and
//!   `BandwidthReservation` traits, and requires identical plans at mid
//!   scale.
//!
//! [`NaiveMemoryTimeline::reduction_above`] is the reference for eviction
//! selection's benefit index, `AboveCapacity`.  Both accumulate in integer
//! byte·nanoseconds, so benefits are bit-identical regardless of traversal
//! order.  Likewise both bandwidth ledgers count whole bytes per bin, so
//! free bytes and completion times agree exactly.

use g10_core::bandwidth::BandwidthReservation;
use g10_core::pressure::PressureTimeline;
use g10_time::Nanos;

/// The flat-`Vec` memory-pressure timeline (one value per kernel).
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveMemoryTimeline {
    values: Vec<i64>,
}

impl NaiveMemoryTimeline {
    /// Creates a timeline from initial per-kernel occupancy.
    pub fn new(values: &[u64]) -> Self {
        NaiveMemoryTimeline {
            values: values.iter().map(|v| *v as i64).collect(),
        }
    }

    /// Number of kernels covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Occupancy at one kernel, clamped at zero.
    pub fn value(&self, kernel: usize) -> u64 {
        self.values[kernel].max(0) as u64
    }

    /// All per-kernel occupancies, clamped at zero.
    pub fn values(&self) -> Vec<u64> {
        self.values.iter().map(|v| (*v).max(0) as u64).collect()
    }

    /// The peak occupancy inside the given half-open kernel ranges.
    pub fn max_in(&self, ranges: &[(usize, usize)]) -> u64 {
        let mut max = 0i64;
        for &(lo, hi) in ranges {
            for k in lo..hi.min(self.values.len()) {
                max = max.max(self.values[k]);
            }
        }
        max.max(0) as u64
    }

    /// The benefit (in byte·seconds) of removing `bytes` over the given
    /// ranges, counting only occupancy above `capacity` and weighting each
    /// kernel by its entry in `durations`: the reference for
    /// `AboveCapacity::reduction`.
    pub fn reduction_above(
        &self,
        ranges: &[(usize, usize)],
        bytes: u64,
        capacity: u64,
        durations: &[Nanos],
    ) -> f64 {
        let cap = capacity as i64;
        let bytes = bytes as i64;
        let mut byte_ns: u128 = 0;
        for &(lo, hi) in ranges {
            let hi = hi.min(self.values.len());
            if lo >= hi {
                continue;
            }
            for (v, d) in self.values[lo..hi].iter().zip(&durations[lo..hi]) {
                let over = (v - cap).max(0);
                let removed = over.min(bytes);
                if removed > 0 {
                    byte_ns += removed as u128 * d.as_nanos() as u128;
                }
            }
        }
        byte_ns as f64 / 1e9
    }
}

impl PressureTimeline for NaiveMemoryTimeline {
    fn from_values(values: &[u64]) -> Self {
        NaiveMemoryTimeline::new(values)
    }

    fn zeroed(kernels: usize) -> Self {
        NaiveMemoryTimeline {
            values: vec![0; kernels],
        }
    }

    fn max_value(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0).max(0) as u64
    }

    fn add(&mut self, ranges: &[(usize, usize)], delta: i64) {
        for &(lo, hi) in ranges {
            for k in lo..hi.min(self.values.len()) {
                self.values[k] += delta;
            }
        }
    }

    fn fits_extra(&self, ranges: &[(usize, usize)], bytes: u64, capacity: u64) -> bool {
        for &(lo, hi) in ranges {
            for k in lo..hi.min(self.values.len()) {
                if self.values[k] as i128 + bytes as i128 > capacity as i128 {
                    return false;
                }
            }
        }
        true
    }

    fn latest_fit(&self, floor: usize, end: usize, bytes: u64, capacity: u64) -> usize {
        // The original eager-prefetch backward walk, verbatim: step the
        // window start down while the whole suffix still fits.
        let mut j = end;
        while j > floor {
            let candidate = j - 1;
            if self.fits_extra(&[(candidate, end)], bytes, capacity) {
                j = candidate;
            } else {
                break;
            }
        }
        j
    }
}

/// The flat-`Vec` bandwidth-reservation timeline (linear bin scans).
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBandwidthTimeline {
    bin_width: Nanos,
    bytes_per_bin: u64,
    used: Vec<u64>,
}

impl NaiveBandwidthTimeline {
    /// Creates a timeline covering `[0, horizon]` for a channel of
    /// `bytes_per_sec`, using bins of `bin_width`, each carrying
    /// `rate × bin_width` rounded to the nearest whole byte.
    ///
    /// # Panics
    ///
    /// Panics if the bin width is zero.
    pub fn new(bytes_per_sec: f64, horizon: Nanos, bin_width: Nanos) -> Self {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        let bins = (horizon.as_nanos() / bin_width.as_nanos() + 2) as usize;
        NaiveBandwidthTimeline {
            bin_width,
            bytes_per_bin: (bytes_per_sec * bin_width.as_secs_f64()).round() as u64,
            used: vec![0; bins],
        }
    }

    /// Number of bins in the timeline.
    pub fn bins(&self) -> usize {
        self.used.len()
    }

    /// Free capacity (bytes) of every bin from `start`'s through `end`'s,
    /// zero for an empty or reversed window.
    pub fn free_bytes_between(&self, start: Nanos, end: Nanos) -> u64 {
        if end <= start {
            return 0;
        }
        let lo = self.bin_of(start);
        let hi = self.bin_of(end);
        (lo..=hi)
            .map(|b| self.bytes_per_bin.saturating_sub(self.used[b]))
            .sum()
    }

    fn bin_of(&self, time: Nanos) -> usize {
        ((time.as_nanos() / self.bin_width.as_nanos()) as usize).min(self.used.len() - 1)
    }

    fn end_of_bin(&self, bin: usize) -> Nanos {
        Nanos::from_nanos((bin as u64 + 1) * self.bin_width.as_nanos())
    }
}

impl BandwidthReservation for NaiveBandwidthTimeline {
    fn with_rate(bytes_per_sec: f64, horizon: Nanos, bin_width: Nanos) -> Self {
        NaiveBandwidthTimeline::new(bytes_per_sec, horizon, bin_width)
    }

    fn is_saturated(&self, bytes: u64, start: Nanos, nominal_duration: Nanos) -> bool {
        let end = start.saturating_add(nominal_duration);
        self.free_bytes_between(start, end) < bytes
    }

    fn reserve(&mut self, bytes: u64, start: Nanos) -> Nanos {
        let mut remaining = bytes;
        let mut bin = self.bin_of(start);
        while remaining > 0 {
            if bin >= self.used.len() {
                let last = self.used.len() - 1;
                self.used[last] = self.used[last].saturating_add(remaining);
                return self.end_of_bin(last);
            }
            let take = self
                .bytes_per_bin
                .saturating_sub(self.used[bin])
                .min(remaining);
            self.used[bin] += take;
            remaining -= take;
            if remaining == 0 {
                return self.end_of_bin(bin);
            }
            bin += 1;
        }
        self.end_of_bin(bin)
    }
}
