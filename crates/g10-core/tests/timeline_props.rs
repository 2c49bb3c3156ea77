//! Property tests: the planning timelines (range-max tree [`MemoryTimeline`],
//! selection's [`AboveCapacity`] index, run-length [`BandwidthTimeline`])
//! must agree with the flat-`Vec` reference implementations in
//! `support/naive.rs` on random operation sequences, and the pressure tree
//! also on every operation at the lengths and ranges where its shape
//! changes (powers of two, ranges from 0 and to the end, empty ranges).
//!
//! Every query must match *exactly*: the integer-valued ones (`max_value`,
//! `fits_extra`, `latest_fit`, `values`), the integer-accumulated benefit
//! above capacity, and the ledgers' whole-byte free-byte sums, completion
//! times and saturation verdicts.
//!
//! The one-pass post-eviction curve, [`pressure_after`], must equal the
//! reference lowered by one `add` per evicted range.

mod support;

use g10_core::bandwidth::{BandwidthReservation, BandwidthTimeline};
use g10_core::pressure::{pressure_after, AboveCapacity, MemoryTimeline, PressureTimeline};
use g10_time::Nanos;
use proptest::prelude::*;
use support::naive::{NaiveBandwidthTimeline, NaiveMemoryTimeline};

// The references' own semantics, on a hand-worked example.

#[test]
fn naive_pressure_matches_documented_semantics() {
    let durations = vec![Nanos::from_micros(10); 6];
    let mut t = NaiveMemoryTimeline::new(&[10, 50, 90, 90, 40, 10]);
    assert_eq!(t.len(), 6);
    assert_eq!(t.max_value(), 90);
    assert_eq!(t.max_in(&[(0, 2)]), 50);
    assert!(t.fits_extra(&[(0, 2)], 40, 90));
    assert!(!t.fits_extra(&[(0, 3)], 40, 90));
    assert_eq!(t.latest_fit(0, 6, 40, 90), 4);
    t.add(&[(1, 4)], -60);
    assert_eq!(t.value(1), 0);
    assert_eq!(t.value(2), 30);
    let r = t.reduction_above(&[(0, 6)], 100, 20, &durations);
    assert!(r > 0.0);
}

#[test]
fn naive_bandwidth_matches_documented_semantics() {
    let mut t = NaiveBandwidthTimeline::new(1e9, Nanos::from_millis(10), Nanos::from_millis(1));
    assert_eq!(t.bins(), 12);
    let done = t.reserve(2_000_000, Nanos::ZERO);
    assert_eq!(done, Nanos::from_millis(2));
    assert!(t.is_saturated(1_000_000, Nanos::ZERO, Nanos::from_millis(1)));
    assert_eq!(
        t.free_bytes_between(Nanos::ZERO, Nanos::from_millis(3)),
        2_000_000
    );
}

/// Lengths at which the tree's shape changes: empty, one and two kernels,
/// and one short of, exactly at and one past every power of two up to
/// 2^11 (the tree pads to the next power of two).
fn edge_lengths() -> Vec<usize> {
    let mut lengths = vec![0, 1, 2];
    for k in 2..=11 {
        lengths.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
    }
    lengths.dedup();
    lengths
}

/// Half-open ranges over an `n`-kernel timeline from a few boundary
/// points: ranges from 0, ranges to `n` and past it, one-kernel ranges at
/// both ends, empty ranges (`lo == hi`) and reversed ones (`lo > hi`).
fn edge_ranges(n: usize) -> Vec<(usize, usize)> {
    let points = [0, 1, n / 2, n.saturating_sub(1), n, n + 1];
    let mut ranges = Vec::new();
    for lo in points {
        for hi in points {
            ranges.push((lo, hi));
        }
    }
    ranges.sort_unstable();
    ranges.dedup();
    ranges
}

/// Every query of both timelines over every edge range must agree.
/// `fits_extra` is asked at the slack of the range (the largest extra that
/// fits) and one byte over it; `latest_fit` only when `with_latest_fit`,
/// as the reference's backward walk is quadratic in the range length.
fn assert_edge_queries_agree(
    tree: &MemoryTimeline,
    flat: &NaiveMemoryTimeline,
    ranges: &[(usize, usize)],
    capacity: u64,
    with_latest_fit: bool,
) {
    assert_eq!(tree.len(), flat.len());
    assert_eq!(tree.values(), flat.values());
    assert_eq!(tree.max_value(), flat.max_value());
    for &(lo, hi) in ranges {
        let slack = capacity.saturating_sub(flat.max_in(&[(lo, hi)]));
        for bytes in [0, slack, slack + 1, u64::MAX >> 2] {
            assert_eq!(
                tree.fits_extra(&[(lo, hi)], bytes, capacity),
                flat.fits_extra(&[(lo, hi)], bytes, capacity),
                "fits_extra({lo}..{hi}, {bytes}) over {} kernels",
                flat.len()
            );
            if with_latest_fit {
                assert_eq!(
                    tree.latest_fit(lo, hi, bytes, capacity),
                    flat.latest_fit(lo, hi, bytes, capacity),
                    "latest_fit({lo}, {hi}, {bytes}) over {} kernels",
                    flat.len()
                );
            }
        }
    }
}

/// The tree against the reference at every [`edge_lengths`] length, under
/// range-adds of both signs over every [`edge_ranges`] range, so pending
/// adds sit on the boundary paths of ranges that start at 0 and that end
/// at a power of two.  Some values fall below zero, where `values` and
/// `max_value` clamp.
#[test]
fn memory_timeline_matches_the_reference_at_tree_shape_edges() {
    const MIB: u64 = 1 << 20;
    let capacity = 700 * MIB;
    for n in edge_lengths() {
        let values: Vec<u64> = (0..n as u64).map(|i| (i * 7_919 % 997) * MIB).collect();
        let ranges = edge_ranges(n);
        let mut tree = MemoryTimeline::new(&values);
        let mut flat = NaiveMemoryTimeline::new(&values);
        assert_edge_queries_agree(&tree, &flat, &ranges, capacity, true);
        for (step, &(lo, hi)) in ranges.iter().enumerate() {
            let delta = (step as i64 % 7 - 3) * 97 * MIB as i64;
            tree.add(&[(lo, hi)], delta);
            flat.add(&[(lo, hi)], delta);
            assert_edge_queries_agree(&tree, &flat, &ranges, capacity, false);
            let slack = capacity.saturating_sub(flat.max_in(&[(lo, hi)]));
            for bytes in [slack, slack + 1] {
                assert_eq!(
                    tree.latest_fit(lo, hi, bytes, capacity),
                    flat.latest_fit(lo, hi, bytes, capacity),
                    "latest_fit({lo}, {hi}, {bytes}) over {n} kernels after {step} adds"
                );
            }
        }
        assert_edge_queries_agree(&tree, &flat, &ranges, capacity, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memory_timelines_agree_on_random_operations(
        values in proptest::collection::vec(0u64..(1u64 << 38), 1..80),
        ops in proptest::collection::vec(
            (0u8..5, 0usize..96, 1usize..96, 0u64..(1u64 << 36)),
            1..48,
        ),
        capacity in 0u64..(1u64 << 38),
    ) {
        let n = values.len();
        let mut tree = MemoryTimeline::new(&values);
        let mut flat = NaiveMemoryTimeline::new(&values);

        for (op, a, b, amount) in ops {
            let lo = a % (n + 1);
            let hi = lo + b; // may exceed n: both implementations clip
            match op {
                0 => {
                    tree.add(&[(lo, hi)], amount as i64);
                    flat.add(&[(lo, hi)], amount as i64);
                }
                1 => {
                    tree.add(&[(lo, hi)], -(amount as i64));
                    flat.add(&[(lo, hi)], -(amount as i64));
                }
                2 => prop_assert_eq!(
                    tree.fits_extra(&[(lo, hi)], amount, capacity),
                    flat.fits_extra(&[(lo, hi)], amount, capacity)
                ),
                3 => {
                    prop_assert_eq!(tree.values(), flat.values());
                    prop_assert_eq!(tree.max_value(), flat.max_value());
                }
                4 => {
                    let floor = lo.min(n);
                    let end = (lo + b).min(n + 2);
                    prop_assert_eq!(
                        tree.latest_fit(floor, end, amount, capacity),
                        flat.latest_fit(floor, end, amount, capacity)
                    );
                }
                _ => unreachable!(),
            }
        }

        // Terminal state must agree everywhere, exactly.
        prop_assert_eq!(tree.len(), flat.len());
        prop_assert_eq!(tree.max_value(), flat.max_value());
        prop_assert_eq!(tree.values(), flat.values());
    }

    /// Selection's benefit index under what selection does to it: random
    /// decreasing updates at one fixed capacity, from 0 to above the peak.
    /// Pressures, the capacity and update sizes are small multiples of one
    /// quantum plus 0–2 bytes, so excesses keep landing exactly on, one
    /// byte under and one byte over an update's size.  Ranges include empty
    /// ones, ones past the end, wrap-style split pairs and the whole
    /// iteration, which drives every kernel down to capacity in many cases;
    /// one kernel in 2–7 takes no time.
    #[test]
    fn above_capacity_index_matches_the_flat_benefit(
        quantum_log2 in 0u32..36,
        kernels in proptest::collection::vec((0u64..48, 0u64..3, 0u64..2_000), 1..120),
        zero_every in 2usize..8,
        capacity in (0u64..52, 0u64..3),
        ops in proptest::collection::vec(
            (0u8..4, 0usize..130, 0usize..130, (0u64..12, 0u64..3)),
            1..64,
        ),
    ) {
        let quantum = 1u64 << quantum_log2;
        let at = |(steps, bytes): (u64, u64)| steps * quantum + bytes;
        let n = kernels.len();
        let values: Vec<u64> = kernels.iter().map(|&(steps, bytes, _)| at((steps, bytes))).collect();
        let durations: Vec<Nanos> = kernels
            .iter()
            .enumerate()
            .map(|(k, &(_, _, us))| if k % zero_every == 0 { Nanos::ZERO } else { Nanos::from_micros(us) })
            .collect();
        let capacity = at(capacity);

        let mut index = AboveCapacity::new(&values, &durations, capacity);
        let mut flat = NaiveMemoryTimeline::new(&values);
        prop_assert_eq!(index.any_above(), flat.max_value() > capacity);

        for (op, a, b, size) in ops {
            let bytes = at(size);
            // About one start in eight lies past the end; b % 40 == 0 gives
            // an empty range.
            let lo = a % (n + n / 8 + 1);
            let hi = lo + b % 40;
            let ranges: Vec<(usize, usize)> = match op {
                0 => vec![(lo, hi)],
                // A wrap-style pair: the tail of the iteration and its head.
                1 => vec![(lo.min(n), n), (0, b % (n + 1))],
                2 => vec![(lo, hi), (hi, hi + b % 7)],
                _ => vec![(0, n)],
            };
            prop_assert_eq!(
                index.reduction(&ranges, bytes).to_bits(),
                flat.reduction_above(&ranges, bytes, capacity, &durations).to_bits()
            );
            index.sub(&ranges, bytes);
            flat.add(&ranges, -(bytes as i64));
            prop_assert_eq!(index.any_above(), flat.max_value() > capacity);
        }

        // Every kernel, one at a time, and the whole iteration.
        for k in 0..n {
            for bytes in [0, 1, quantum - 1, quantum, quantum + 1, 3 * quantum, u64::MAX >> 2] {
                prop_assert_eq!(
                    index.reduction(&[(k, k + 1)], bytes).to_bits(),
                    flat.reduction_above(&[(k, k + 1)], bytes, capacity, &durations).to_bits()
                );
            }
        }
        prop_assert_eq!(
            index.reduction(&[(0, n + 5)], quantum).to_bits(),
            flat.reduction_above(&[(0, n + 5)], quantum, capacity, &durations).to_bits()
        );

        // Lowering everything by the largest excess leaves the peak kernel
        // exactly at capacity, so nothing is above it any more.
        let excess = flat.max_value().saturating_sub(capacity);
        index.sub(&[(0, n)], excess);
        flat.add(&[(0, n)], -(excess as i64));
        prop_assert!(!index.any_above());
        prop_assert!(flat.max_value() <= capacity);
        prop_assert_eq!(index.reduction(&[(0, n)], quantum), 0.0);
    }

    /// Periods as the planner sees them: one range, or a wrap-style pair
    /// (the iteration's tail and its head), some reaching past the end.
    /// Each period's bytes are live over its ranges on top of a random
    /// base, as a tensor is live over its inactive periods, and a random
    /// subset of the periods is evicted.
    #[test]
    fn one_pass_pressure_matches_one_add_per_eviction(
        base in proptest::collection::vec(0u64..(1u64 << 36), 1..120),
        periods in proptest::collection::vec(
            (0u8..2, 0usize..140, 0usize..60, 1u64..(1u64 << 34), 0u8..2),
            0..40,
        ),
    ) {
        let n = base.len();
        let periods: Vec<_> = periods
            .into_iter()
            .map(|(wraps, a, b, bytes, placed)| {
                let ranges = if wraps == 1 {
                    vec![(a.min(n), n), (0, b.min(a.min(n)))]
                } else {
                    vec![(a, a + b)]
                };
                (ranges, bytes, placed == 1)
            })
            .collect();

        let mut live = NaiveMemoryTimeline::new(&base);
        for (ranges, bytes, _) in &periods {
            live.add(ranges, *bytes as i64);
        }
        let values = live.values();
        let placed: Vec<(&[(usize, usize)], u64)> = periods
            .iter()
            .filter(|(_, _, placed)| *placed)
            .map(|(ranges, bytes, _)| (ranges.as_slice(), *bytes))
            .collect();

        let mut expected = NaiveMemoryTimeline::new(&values);
        for &(ranges, bytes) in &placed {
            expected.add(ranges, -(bytes as i64));
        }
        let tree: MemoryTimeline = pressure_after(&values, placed.iter().copied());
        let flat: NaiveMemoryTimeline = pressure_after(&values, placed.iter().copied());
        prop_assert_eq!(tree.values(), expected.values());
        prop_assert_eq!(&flat, &expected);
        prop_assert_eq!(tree.max_value(), expected.max_value());
    }
}

/// One drawn ledger operation: `((kind, stride log2, nudge), anchor,
/// (window bins, sub-bin ns), (size log2, raw size))`.
type LedgerOp = ((u8, u32, u64), u64, (u64, u64), (u32, u64));

/// The ledger and the reference after the same operations.
struct Ledgers {
    bin: Nanos,
    ledger: BandwidthTimeline,
    flat: NaiveBandwidthTimeline,
}

impl Ledgers {
    fn reserve(&mut self, bytes: u64, start: Nanos) -> Nanos {
        let done = self.flat.reserve(bytes, start);
        assert_eq!(self.ledger.reserve(bytes, start), done);
        done
    }

    fn free_bytes_between(&self, start: Nanos, end: Nanos) -> u64 {
        let free = self.flat.free_bytes_between(start, end);
        assert_eq!(self.ledger.free_bytes_between(start, end), free);
        free
    }

    fn is_saturated(&self, bytes: u64, start: Nanos, window: Nanos) {
        assert_eq!(
            self.ledger.is_saturated(bytes, start, window),
            self.flat.is_saturated(bytes, start, window)
        );
    }

    /// Reserves exactly the free bytes of bins `lo..=hi` from `lo`'s start,
    /// which saturates every one of those bins and nothing else.
    fn fill_bins(&mut self, lo: u64, hi: u64) -> Nanos {
        let start = self.bin * lo;
        let bytes = self.free_bytes_between(start, self.bin * hi + Nanos::from_nanos(1));
        self.reserve(bytes, start)
    }
}

/// Ledgers of up to 30,000 bins; one channel in five has zero rate, so every
/// bin is full from the start, and two in five have a rate drawn to the
/// byte per second, so `rate × bin width` is mostly fractional and both
/// ledgers round it to whole bytes.  Each operation starts within four bins
/// of a multiple of 16–512 bins, so starts, windows and transfers keep
/// landing on the same bins, and about one start in nine lies past the
/// horizon.
/// Transfer sizes are log-uniform up to 16 GiB, from a fraction of a bin to
/// far more than the whole ledger holds, so reservations also spill into the
/// last bin; about one in 35 is zero bytes.  Operations besides single
/// reserves and queries: empty and reversed windows, zero-byte reserves,
/// gaps between two saturated runs closed exactly, and starts and windows
/// inside the last reservation, which are saturated.
fn bandwidth_ops_agree(rate: f64, horizon_ms: u64, bin_us: u64, ops: &[LedgerOp]) {
    let horizon = Nanos::from_millis(horizon_ms);
    let bin = Nanos::from_micros(bin_us);
    let mut both = Ledgers {
        bin,
        ledger: BandwidthTimeline::new(rate, horizon, bin),
        flat: NaiveBandwidthTimeline::new(rate, horizon, bin),
    };
    assert_eq!(both.ledger.bins(), both.flat.bins());
    let bins = both.flat.bins() as u64;
    // The start and completion time of the last reservation.
    let mut last = (Nanos::ZERO, Nanos::ZERO);

    for &((op, shift, nudge), anchor, (dur_bins, sub_ns), (log2, raw)) in ops {
        let stride = 1u64 << shift;
        let anchors = (bins + bins / 8) / stride + 1;
        let start_bin = ((anchor % anchors) * stride + nudge).saturating_sub(3);
        let start = bin * start_bin + Nanos::from_nanos(sub_ns % bin.as_nanos());
        let window = bin * dur_bins + Nanos::from_nanos(raw % bin.as_nanos());
        let end = start.saturating_add(window);
        let bytes = raw >> (34 - log2);
        match op {
            0 => last = (start, both.reserve(bytes, start)),
            1 => {
                both.free_bytes_between(start, end);
            }
            2 => both.is_saturated(bytes, start, window),
            3 => {
                // The knife edge: a transfer of exactly the free bytes.
                let edge = both.free_bytes_between(start, end);
                for bytes in [edge.saturating_sub(1), edge, edge + 1] {
                    both.is_saturated(bytes, start, window);
                }
            }
            4 => {
                // Empty and reversed windows hold no free bytes, and a
                // zero-byte transfer reserves nothing.
                both.free_bytes_between(start, start);
                both.free_bytes_between(end, start);
                both.is_saturated(bytes, start, Nanos::ZERO);
                both.is_saturated(0, start, window);
                last = (start, both.reserve(0, start));
            }
            5 => {
                // Saturate up to eight bins on either side of the window,
                // then fill the window itself: the gap between the two runs
                // closes and they must merge.
                let end_bin = end.as_nanos() / bin.as_nanos();
                both.fill_bins(end_bin + 1, end_bin + 1 + nudge);
                if let Some(before) = start_bin.checked_sub(1) {
                    both.fill_bins(before.saturating_sub(nudge), before);
                }
                last = (bin * start_bin, both.fill_bins(start_bin, end_bin));
                both.free_bytes_between(bin * start_bin.saturating_sub(9), end + bin * 9);
            }
            6 => {
                // Every bin strictly inside the last reservation's span is
                // saturated: query windows there and start new transfers
                // from inside it.
                let (from, done) = last;
                let span = done.saturating_sub(from).as_nanos();
                let inside = from + Nanos::from_nanos(anchor % span.max(1));
                let full = done.saturating_sub(bin + Nanos::from_nanos(1));
                both.free_bytes_between(inside, full);
                both.is_saturated(bytes, inside, full.saturating_sub(inside));
                last = (inside, both.reserve(bytes, inside));
            }
            _ => unreachable!(),
        }
    }

    both.free_bytes_between(Nanos::ZERO, horizon);
    // Every bin, read one at a time, holds the same free bytes.
    for b in 0..bins {
        let start = bin * b;
        both.free_bytes_between(start, start + Nanos::from_nanos(1));
    }
}

/// Draws for [`bandwidth_ops_agree`]: `(rate die, bytes/s)`, horizon ms,
/// bin µs and the operations.
fn ledger_case() -> impl Strategy<Value = ((u8, u64), u64, u64, Vec<LedgerOp>)> {
    (
        (0u8..5, 1u64..4_000_000_000),
        1u64..3_000,
        100u64..2_000,
        proptest::collection::vec(
            (
                (0u8..7, 4u32..10, 0u64..8),
                0u64..(1 << 20),
                (0u64..600, 0u64..(1 << 20)),
                (0u32..35, 0u64..(1 << 34)),
            ),
            1..96,
        ),
    )
}

fn check_ledger_case(
    ((die, bytes_per_sec), horizon_ms, bin_us, ops): ((u8, u64), u64, u64, Vec<LedgerOp>),
) {
    let rate = match die {
        0 => 0.0,
        // To the byte per second: a fractional capacity per bin.
        1 | 2 => bytes_per_sec as f64,
        // Whole MB/s: a whole number of bytes per bin.
        _ => (bytes_per_sec / 1_000_000).max(1) as f64 * 1e6,
    };
    bandwidth_ops_agree(rate, horizon_ms, bin_us, &ops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// See [`bandwidth_ops_agree`].
    #[test]
    fn bandwidth_timelines_agree_on_random_operations(case in ledger_case()) {
        check_ledger_case(case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The same oracle on 20,000 cases (run with `--ignored`, in release).
    #[test]
    #[ignore = "long oracle pass; run with --ignored in release"]
    fn bandwidth_timelines_agree_on_random_operations_20k(case in ledger_case()) {
        check_ledger_case(case);
    }
}
