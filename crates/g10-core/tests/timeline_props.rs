//! Property tests: the planning timelines (segment-tree [`MemoryTimeline`],
//! selection's [`AboveCapacity`] index, skip-pointer [`BandwidthTimeline`])
//! must agree with the flat-`Vec` reference implementations in
//! `g10_core::naive` on random operation sequences.
//!
//! Every query must match *exactly*: the integer-valued ones (`max_value`,
//! `max_in`, `fits_extra`, `latest_fit`, `value`, `values`), the
//! integer-accumulated benefit above capacity, and the `f64` free-byte sums,
//! which both ledgers add up bin by bin in the same order, so they are
//! compared bit for bit along with every saturation verdict.

use g10_core::bandwidth::{BandwidthReservation, BandwidthTimeline};
use g10_core::naive::{NaiveBandwidthTimeline, NaiveMemoryTimeline};
use g10_core::pressure::{AboveCapacity, MemoryTimeline, PressureTimeline};
use g10_time::Nanos;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memory_timelines_agree_on_random_operations(
        values in proptest::collection::vec(0u64..(1u64 << 38), 1..80),
        dur_us in proptest::collection::vec(1u64..2_000, 1..80),
        ops in proptest::collection::vec(
            (0u8..5, 0usize..96, 1usize..96, 0u64..(1u64 << 36)),
            1..48,
        ),
        capacity in 0u64..(1u64 << 38),
    ) {
        let n = values.len().min(dur_us.len());
        let values = &values[..n];
        let durations: Vec<Nanos> = dur_us[..n].iter().map(|us| Nanos::from_micros(*us)).collect();

        let mut tree = MemoryTimeline::new(values, &durations);
        let mut flat = NaiveMemoryTimeline::new(values, &durations);

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
                3 => prop_assert_eq!(tree.max_in(&[(lo, hi)]), flat.max_in(&[(lo, hi)])),
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
        for k in 0..n {
            prop_assert_eq!(tree.value(k), flat.value(k));
        }
        // Both compute the area with the same sequential loop over
        // materialised values, so even this f64 sum matches exactly.
        prop_assert_eq!(tree.area_above(capacity), flat.area_above(capacity));
        // Wrap-around-style split ranges agree too.
        let split = [(0, n / 2), (n / 2 + 1, n)];
        prop_assert_eq!(tree.max_in(&split), flat.max_in(&split));
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
        let mut flat = NaiveMemoryTimeline::new(&values, &durations);
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
                flat.reduction_above(&ranges, bytes, capacity).to_bits()
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
                    flat.reduction_above(&[(k, k + 1)], bytes, capacity).to_bits()
                );
            }
        }
        prop_assert_eq!(
            index.reduction(&[(0, n + 5)], quantum).to_bits(),
            flat.reduction_above(&[(0, n + 5)], quantum, capacity).to_bits()
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

    /// Ledgers of up to 30,000 bins.  Each operation starts within three bins
    /// of a multiple of 16–512 bins, so starts, windows and transfers keep
    /// crossing the ledger's internal page boundaries, and about one start
    /// in nine lies past the horizon.  Transfer sizes are log-uniform up to
    /// 16 GiB, from a fraction of a bin to far more than the whole ledger
    /// holds, so reservations also spill into the last bin.
    #[test]
    fn bandwidth_timelines_agree_on_random_operations(
        rate_mb in 1u64..4_000,
        horizon_ms in 1u64..3_000,
        bin_us in 100u64..2_000,
        ops in proptest::collection::vec(
            (
                (0u8..4, 4u32..10, 0u64..7),
                0u64..(1 << 20),
                (0u64..600, 0u64..(1 << 20)),
                (0u32..35, 0u64..(1 << 34)),
            ),
            1..96,
        ),
    ) {
        let rate = rate_mb as f64 * 1e6;
        let horizon = Nanos::from_millis(horizon_ms);
        let bin = Nanos::from_micros(bin_us);
        let mut ledger = BandwidthTimeline::new(rate, horizon, bin);
        let mut flat = NaiveBandwidthTimeline::new(rate, horizon, bin);
        prop_assert_eq!(ledger.bins(), flat.bins());
        let bins = flat.bins() as u64;

        for ((op, shift, nudge), anchor, (dur_bins, sub_ns), (log2, raw)) in ops {
            let stride = 1u64 << shift;
            let anchors = (bins + bins / 8) / stride + 1;
            let start_bin = ((anchor % anchors) * stride + nudge).saturating_sub(3);
            let start = bin * start_bin + Nanos::from_nanos(sub_ns % bin.as_nanos());
            let window = bin * dur_bins + Nanos::from_nanos(raw % bin.as_nanos());
            let end = start.saturating_add(window);
            let bytes = raw >> (34 - log2);
            match op {
                0 => prop_assert_eq!(ledger.reserve(bytes, start), flat.reserve(bytes, start)),
                1 => prop_assert_eq!(
                    ledger.free_bytes_between(start, end).to_bits(),
                    flat.free_bytes_between(start, end).to_bits()
                ),
                2 => prop_assert_eq!(
                    ledger.is_saturated(bytes, start, window),
                    flat.is_saturated(bytes, start, window)
                ),
                3 => {
                    // The knife edge: a transfer of exactly the free bytes.
                    let edge = flat.free_bytes_between(start, end) as u64;
                    for bytes in [edge.saturating_sub(1), edge, edge + 1] {
                        prop_assert_eq!(
                            ledger.is_saturated(bytes, start, window),
                            flat.is_saturated(bytes, start, window)
                        );
                    }
                }
                _ => unreachable!(),
            }
        }

        prop_assert_eq!(ledger.total_reserved_bytes(), flat.total_reserved_bytes());
        prop_assert_eq!(ledger.utilization(), flat.utilization());
        prop_assert_eq!(
            ledger.free_bytes_between(Nanos::ZERO, horizon).to_bits(),
            flat.free_bytes_between(Nanos::ZERO, horizon).to_bits()
        );
        // Every bin, read one at a time, holds the same free bytes.
        for b in 0..bins {
            let start = bin * b;
            let end = start + Nanos::from_nanos(1);
            prop_assert_eq!(
                ledger.free_bytes_between(start, end).to_bits(),
                flat.free_bytes_between(start, end).to_bits()
            );
        }
    }
}
