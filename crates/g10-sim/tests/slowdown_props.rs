//! Property tests: [`KernelSlowdowns`] stores only the slowdowns that are
//! not bit-for-bit 1.0, yet every reader must see exactly what a dense
//! `Vec<f64>` of the same sequence shows.
//!
//! Sequences are drawn as runs of one kind each: 1.0, stalled values above
//! 1.0, values below 1.0 (which no replay records, but the type must not
//! care), NaNs of either sign, signed zeros and the infinities with the
//! neighbours of 1.0.  The reference is the dense vector, read the way the
//! report's readers read it before the sparse form.

use g10_sim::{KernelSlowdowns, SimReport};
use g10_time::Nanos;
use g10_uvm::TrafficStats;
use proptest::prelude::*;

/// One run of `len` values of kind `kind`, varied by `p`.
fn run(kind: u8, len: usize, p: u64) -> impl Iterator<Item = f64> {
    (0..len as u64).map(move |i| match kind {
        0 => 1.0,
        1 => 1.0 + (p + i + 1) as f64 / 64.0,
        2 => (p + i) as f64 / 4096.0,
        3 => match i % 2 {
            0 => f64::from_bits(0x7FF8_0000_0000_0000 | (p + i)),
            _ => -f64::NAN,
        },
        4 => [0.0, -0.0][i as usize % 2],
        _ => [
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0 + f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
        ][(p + i) as usize % 4],
    })
}

fn report(slowdowns: KernelSlowdowns) -> SimReport {
    SimReport {
        model: "Props".to_string(),
        batch: 1,
        policy: "Props".to_string(),
        total_time: Nanos::ZERO,
        ideal_time: Nanos::ZERO,
        stall_time: Nanos::ZERO,
        kernel_slowdowns: slowdowns,
        traffic: TrafficStats::default(),
        fault_count: 0,
        prefetches_issued: 0,
        prefetches_dropped: 0,
        evictions_issued: 0,
        oversubscribed: false,
        working_set_exceeds_gpu: false,
        policy_fault: None,
    }
}

/// The reference quantile: sort the whole dense vector.
fn dense_quantile(dense: &[f64], q: f64) -> f64 {
    let mut cdf = dense.to_vec();
    cdf.sort_by(|a, b| a.total_cmp(b));
    if cdf.is_empty() {
        return 1.0;
    }
    cdf[((cdf.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

/// The reference fraction: count over the whole dense vector.
fn dense_fraction(dense: &[f64], threshold: f64) -> f64 {
    if dense.is_empty() {
        return 0.0;
    }
    dense.iter().filter(|s| **s > threshold).count() as f64 / dense.len() as f64
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// Checks every reader of `dense` collected into [`KernelSlowdowns`]
/// against the dense vector itself.
fn check(dense: &[f64], extra_q: f64) {
    let sparse: KernelSlowdowns = dense.iter().copied().collect();
    assert_eq!(bits(sparse.iter()), bits(dense.iter().copied()));
    assert_eq!(sparse.iter().len(), dense.len());
    assert_eq!(sparse.len(), dense.len());
    assert_eq!(sparse.is_empty(), dense.is_empty());
    assert_eq!(
        sparse.last().map(f64::to_bits),
        dense.last().map(|s| s.to_bits())
    );

    // Equality is the dense vector's: element-wise `==`, so a sequence
    // holding a NaN equals nothing, itself included.
    let again: KernelSlowdowns = dense.iter().copied().collect();
    assert_eq!(sparse == again, !dense.iter().any(|s| s.is_nan()));

    let r = report(sparse);
    for threshold in [1.0, 1.001, 0.5, 0.0, 10.0, f64::NEG_INFINITY, f64::NAN] {
        assert_eq!(
            r.fraction_of_kernels_slower_than(threshold).to_bits(),
            dense_fraction(dense, threshold).to_bits(),
            "fraction above {threshold} of {dense:?}"
        );
    }
    for q in [0.0, 0.5, 0.9, 0.99, 1.0, -1.0, 2.0, extra_q] {
        assert_eq!(
            r.slowdown_quantile(q).to_bits(),
            dense_quantile(dense, q).to_bits(),
            "quantile {q} of {dense:?}"
        );
    }
}

#[test]
fn edge_sequences_match_the_dense_vector() {
    let all_stalled: Vec<f64> = (0..130).map(|k| 1.5 + f64::from(k)).collect();
    for dense in [
        vec![],
        vec![1.0],
        vec![2.0],
        vec![f64::NAN],
        vec![-0.0, 0.0],
        vec![1.0; 64],
        vec![1.0; 65],
        all_stalled.clone(),
        all_stalled[..64].to_vec(),
    ] {
        check(&dense, 0.25);
    }
}

#[test]
fn stalled_and_unstalled_kernels_are_stored_apart() {
    let mixed: KernelSlowdowns = [1.0, 2.0, 1.0, 3.0].into_iter().collect();
    let same: KernelSlowdowns = [1.0, 2.0, 1.0, 3.0].into_iter().collect();
    let moved: KernelSlowdowns = [2.0, 1.0, 1.0, 3.0].into_iter().collect();
    assert_eq!(mixed, same);
    assert_ne!(mixed, moved, "the bitmap places each stored value");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sparse_slowdowns_read_like_the_dense_vector(
        runs in proptest::collection::vec((0u8..6, 1usize..90, 0u64..1000), 0..12),
        q in 0u32..=1000,
    ) {
        let dense: Vec<f64> = runs
            .iter()
            .flat_map(|&(kind, len, p)| run(kind, len, p))
            .collect();
        check(&dense, f64::from(q) / 1000.0);
    }
}
