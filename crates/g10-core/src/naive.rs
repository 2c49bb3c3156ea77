//! Flat-`Vec` reference implementations of the planning timelines.
//!
//! These are the pre-refactor O(range)-per-operation data structures, kept
//! only as the correctness oracle for the index structures in
//! [`crate::pressure`] and [`crate::bandwidth`]:
//!
//! * the property tests (`crates/g10-core/tests/timeline_props.rs`) assert
//!   that the segment-tree
//!   [`MemoryTimeline`](crate::pressure::MemoryTimeline) and
//!   [`BandwidthTimeline`](crate::bandwidth::BandwidthTimeline) agree with
//!   these on random operation sequences, and
//! * `tests/planner_scaling.rs` runs the whole eviction + prefetch pipeline
//!   on both families and requires identical plans at mid scale.
//!
//! [`NaiveMemoryTimeline::reduction_above`] accumulates in integer
//! byte·nanoseconds exactly like the segment tree, so benefits are
//! bit-identical between the two regardless of traversal order.

use crate::bandwidth::BandwidthReservation;
use crate::pressure::PressureTimeline;
use g10_time::Nanos;

/// The flat-`Vec` memory-pressure timeline (one value per kernel).
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveMemoryTimeline {
    values: Vec<i64>,
    durations: Vec<Nanos>,
}

impl NaiveMemoryTimeline {
    /// Creates a timeline from initial per-kernel occupancy and durations.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths.
    pub fn new(values: &[u64], durations: &[Nanos]) -> Self {
        assert_eq!(
            values.len(),
            durations.len(),
            "one value per kernel required"
        );
        NaiveMemoryTimeline {
            values: values.iter().map(|v| *v as i64).collect(),
            durations: durations.to_vec(),
        }
    }
}

impl PressureTimeline for NaiveMemoryTimeline {
    fn from_values(values: &[u64], durations: &[Nanos]) -> Self {
        NaiveMemoryTimeline::new(values, durations)
    }

    fn zeroed(durations: &[Nanos]) -> Self {
        NaiveMemoryTimeline {
            values: vec![0; durations.len()],
            durations: durations.to_vec(),
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn value(&self, kernel: usize) -> u64 {
        self.values[kernel].max(0) as u64
    }

    fn values(&self) -> Vec<u64> {
        self.values.iter().map(|v| (*v).max(0) as u64).collect()
    }

    fn max_value(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0).max(0) as u64
    }

    fn max_in(&self, ranges: &[(usize, usize)]) -> u64 {
        let mut max = 0i64;
        for &(lo, hi) in ranges {
            for k in lo..hi.min(self.values.len()) {
                max = max.max(self.values[k]);
            }
        }
        max.max(0) as u64
    }

    fn add(&mut self, ranges: &[(usize, usize)], delta: i64) {
        for &(lo, hi) in ranges {
            for k in lo..hi.min(self.values.len()) {
                self.values[k] += delta;
            }
        }
    }

    fn area_above(&self, capacity: u64) -> f64 {
        let cap = capacity as i64;
        self.values
            .iter()
            .zip(&self.durations)
            .map(|(v, d)| ((v - cap).max(0) as f64) * d.as_secs_f64())
            .sum()
    }

    fn reduction_above(&self, ranges: &[(usize, usize)], bytes: u64, capacity: u64) -> f64 {
        let cap = capacity as i64;
        let bytes = bytes as i64;
        let mut byte_ns: u128 = 0;
        for &(lo, hi) in ranges {
            for k in lo..hi.min(self.values.len()) {
                let over = (self.values[k] - cap).max(0);
                let removed = over.min(bytes);
                if removed > 0 {
                    byte_ns += removed as u128 * self.durations[k].as_nanos() as u128;
                }
            }
        }
        byte_ns as f64 / 1e9
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

    fn durations(&self) -> &[Nanos] {
        &self.durations
    }
}

/// The flat-`Vec` bandwidth-reservation timeline (linear bin scans).
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBandwidthTimeline {
    bin_width: Nanos,
    bytes_per_bin: f64,
    used: Vec<f64>,
    total_reserved: f64,
}

impl NaiveBandwidthTimeline {
    /// Creates a timeline covering `[0, horizon]` for a channel of
    /// `bytes_per_sec`, using bins of `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics if the bin width is zero.
    pub fn new(bytes_per_sec: f64, horizon: Nanos, bin_width: Nanos) -> Self {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        let bins = (horizon.as_nanos() / bin_width.as_nanos() + 2) as usize;
        NaiveBandwidthTimeline {
            bin_width,
            bytes_per_bin: bytes_per_sec * bin_width.as_secs_f64(),
            used: vec![0.0; bins],
            total_reserved: 0.0,
        }
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

    fn bins(&self) -> usize {
        self.used.len()
    }

    fn total_reserved_bytes(&self) -> f64 {
        self.total_reserved
    }

    fn free_bytes_between(&self, start: Nanos, end: Nanos) -> f64 {
        if end <= start {
            return 0.0;
        }
        let lo = self.bin_of(start);
        let hi = self.bin_of(end);
        (lo..=hi)
            .map(|b| (self.bytes_per_bin - self.used[b]).max(0.0))
            .sum()
    }

    fn is_saturated(&self, bytes: u64, start: Nanos, nominal_duration: Nanos) -> bool {
        let end = start.saturating_add(nominal_duration);
        self.free_bytes_between(start, end) < bytes as f64
    }

    fn reserve(&mut self, bytes: u64, start: Nanos) -> Nanos {
        let mut remaining = bytes as f64;
        self.total_reserved += bytes as f64;
        let mut bin = self.bin_of(start);
        while remaining > 0.0 {
            if bin >= self.used.len() {
                let last = self.used.len() - 1;
                self.used[last] += remaining;
                return self.end_of_bin(last);
            }
            let free = (self.bytes_per_bin - self.used[bin]).max(0.0);
            if free > 0.0 {
                let take = free.min(remaining);
                self.used[bin] += take;
                remaining -= take;
                if remaining <= 0.0 {
                    return self.end_of_bin(bin);
                }
            }
            bin += 1;
        }
        self.end_of_bin(bin.min(self.used.len() - 1))
    }

    fn utilization(&self) -> f64 {
        if self.used.is_empty() || self.bytes_per_bin <= 0.0 {
            return 0.0;
        }
        let capacity = self.bytes_per_bin * self.used.len() as f64;
        (self.total_reserved / capacity).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_pressure_matches_documented_semantics() {
        let durations = vec![Nanos::from_micros(10); 6];
        let mut t = NaiveMemoryTimeline::new(&[10, 50, 90, 90, 40, 10], &durations);
        assert_eq!(t.len(), 6);
        assert_eq!(t.max_value(), 90);
        assert_eq!(t.max_in(&[(0, 2)]), 50);
        assert!(t.fits_extra(&[(0, 2)], 40, 90));
        assert!(!t.fits_extra(&[(0, 3)], 40, 90));
        assert_eq!(t.latest_fit(0, 6, 40, 90), 4);
        t.add(&[(1, 4)], -60);
        assert_eq!(t.value(1), 0);
        assert_eq!(t.value(2), 30);
        let r = t.reduction_above(&[(0, 6)], 100, 20);
        assert!(r > 0.0);
    }

    #[test]
    fn naive_bandwidth_matches_documented_semantics() {
        let mut t = NaiveBandwidthTimeline::new(1e9, Nanos::from_millis(10), Nanos::from_millis(1));
        assert_eq!(t.bins(), 12);
        let done = t.reserve(2_000_000, Nanos::ZERO);
        assert_eq!(done, Nanos::from_millis(2));
        assert!(t.is_saturated(1_000_000, Nanos::ZERO, Nanos::from_millis(1)));
        assert!(t.utilization() > 0.0);
        assert!(t.total_reserved_bytes() > 0.0);
    }
}
