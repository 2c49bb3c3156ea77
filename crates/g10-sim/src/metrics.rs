//! Simulation results.
//!
//! A [`SimReport`] captures everything the paper's figures are drawn from:
//! end-to-end execution time vs the ideal, the stall/overlap breakdown
//! (Fig. 12), per-kernel slowdowns (Fig. 13), migration traffic by channel
//! (Fig. 14), fault counts, and the write traffic feeding the SSD-lifetime
//! analysis (§7.7).
//!
//! Most kernels never stall, and a kernel that did not stall has a slowdown
//! of exactly 1.0, so [`KernelSlowdowns`] stores one bit per kernel and the
//! values of the kernels that stalled.  Every reader sees the dense
//! sequence, bit for bit.

use crate::fault::FaultRecord;
use g10_time::Nanos;
use g10_uvm::TrafficStats;

/// Incremental FNV-1a digest over `u64` words: the one shared fingerprint
/// helper behind [`SimReport::fingerprint`],
/// [`MultiReport::fingerprint`](crate::tenancy::MultiReport::fingerprint)
/// and the serve wire format (previously re-implemented per call site).
///
/// Words are folded in little-endian byte order, so the digest is stable
/// across platforms.
#[derive(Debug, Clone, Copy)]
pub struct ReportFingerprint(u64);

impl ReportFingerprint {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A digest primed with the FNV-1a offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> ReportFingerprint {
        ReportFingerprint(Self::FNV_OFFSET)
    }

    /// Folds one word into the digest.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::FNV_PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-kernel slowdowns (actual / ideal duration) in execution order, stored
/// sparsely: one bit per kernel, set where the slowdown is not bit-for-bit
/// 1.0, and the values of the set bits in kernel order.  A slowdown of 1.0
/// is implicit.
///
/// The representation is canonical (a value is stored exactly when it is
/// not 1.0, and the tables hold no bits past `len`), so the derived
/// equality compares the dense sequences element by element, as a
/// `Vec<f64>` would.  Storage is `8·⌈len/64⌉` bytes of bitmap plus 8 bytes
/// per stored value, never more than 1/64 above the dense vector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelSlowdowns {
    len: usize,
    stalled: Vec<u64>,
    values: Vec<f64>,
}

impl KernelSlowdowns {
    /// Number of kernels recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no kernel is recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slowdown of the last kernel recorded.
    pub fn last(&self) -> Option<f64> {
        let k = self.len.checked_sub(1)?;
        Some(if self.is_stored(k) {
            self.values[self.values.len() - 1]
        } else {
            1.0
        })
    }

    /// Every slowdown in kernel order, the implicit 1.0s included.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        let mut values = self.values.iter();
        (0..self.len).map(move |k| match self.is_stored(k) {
            true => *values.next().expect("one stored value per set bit"),
            false => 1.0,
        })
    }

    /// Records the next kernel's slowdown.
    pub(crate) fn push(&mut self, slowdown: f64) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if bit == 0 {
            self.stalled.push(0);
        }
        if slowdown.to_bits() != 1.0f64.to_bits() {
            self.stalled[word] |= 1 << bit;
            self.values.push(slowdown);
        }
        self.len += 1;
    }

    /// Drops the tables' growth slack once recording is done.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.stalled.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    fn is_stored(&self, k: usize) -> bool {
        self.stalled[k / 64] & (1 << (k % 64)) != 0
    }

    /// Number of implicit 1.0s.
    fn ones(&self) -> usize {
        self.len - self.values.len()
    }
}

impl FromIterator<f64> for KernelSlowdowns {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> KernelSlowdowns {
        let mut slowdowns = KernelSlowdowns::default();
        for slowdown in iter {
            slowdowns.push(slowdown);
        }
        slowdowns.shrink_to_fit();
        slowdowns
    }
}

/// The outcome of replaying one training iteration under one memory policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// The model name (e.g. `"ResNet152"`).
    pub model: String,
    /// The batch size.
    pub batch: u64,
    /// The policy name (e.g. `"G10"`, `"Base UVM"`).
    pub policy: String,
    /// Total simulated time of the iteration.
    pub total_time: Nanos,
    /// The ideal (infinite-GPU-memory) iteration time.
    pub ideal_time: Nanos,
    /// Total time kernels spent stalled waiting for data or space.
    pub stall_time: Nanos,
    /// Per-kernel slowdowns (actual / ideal duration), in execution order;
    /// only the kernels that stalled store a value.
    pub kernel_slowdowns: KernelSlowdowns,
    /// Migration traffic by channel and direction.
    pub traffic: TrafficStats,
    /// Number of far faults serviced.
    pub fault_count: u64,
    /// Planned prefetches issued.
    pub prefetches_issued: u64,
    /// Planned prefetches dropped because GPU memory had no room.
    pub prefetches_dropped: u64,
    /// Evictions issued (planned or capacity-driven).
    pub evictions_issued: u64,
    /// `true` once a birth or demand fetch was allocated past GPU capacity:
    /// the policy named too few victims, or the room it made was still being
    /// freed by in-flight evictions.  The latter is routine under pressure
    /// (every non-Ideal paper cell at Table 2 sets it), so this is no
    /// feasibility verdict; see `working_set_exceeds_gpu`.
    pub oversubscribed: bool,
    /// `true` if some kernel's working set exceeds the GPU capacity, which
    /// makes the workload infeasible for designs that require the full
    /// working set to be explicitly resident (FlashNeuron, footnote 1).
    pub working_set_exceeds_gpu: bool,
    /// Set when this report came from a fallback re-run after the policy the
    /// caller asked for faulted
    /// ([`crate::fault::OnPolicyFault::FallbackTo`]): the quarantined
    /// policy, the step it faulted at, and the fault kind.  `None` for a
    /// clean run.
    pub policy_fault: Option<FaultRecord>,
}

impl SimReport {
    /// Deterministic FNV-1a digest over every numeric field of the report,
    /// in declaration order.
    ///
    /// This is the workspace's one canonical report fingerprint: the golden
    /// snapshots (`tests/golden_reports.rs`), the session/tenancy
    /// byte-identity pins and the serve wire format all compare this value,
    /// so two runs are byte-identical exactly when their fingerprints
    /// agree.  The `model` / `policy` display strings and the
    /// `policy_fault` annotation are deliberately excluded: the digest
    /// captures *simulation behaviour*, which must be comparable across a
    /// rename or a fallback re-run.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = ReportFingerprint::new();
        fp.push(self.batch);
        fp.push(self.total_time.as_nanos());
        fp.push(self.ideal_time.as_nanos());
        fp.push(self.stall_time.as_nanos());
        for slowdown in self.kernel_slowdowns.iter() {
            fp.push(slowdown.to_bits());
        }
        fp.push(self.traffic.gpu_to_ssd_bytes);
        fp.push(self.traffic.ssd_to_gpu_bytes);
        fp.push(self.traffic.gpu_to_host_bytes);
        fp.push(self.traffic.host_to_gpu_bytes);
        fp.push(self.fault_count);
        fp.push(self.prefetches_issued);
        fp.push(self.prefetches_dropped);
        fp.push(self.evictions_issued);
        fp.push(self.oversubscribed as u64);
        fp.push(self.working_set_exceeds_gpu as u64);
        fp.finish()
    }

    /// Performance normalised to the ideal system (1.0 = ideal), the y-axis
    /// of Figure 11.
    pub fn normalized_performance(&self) -> f64 {
        if self.total_time.is_zero() {
            return 1.0;
        }
        self.ideal_time.as_secs_f64() / self.total_time.as_secs_f64()
    }

    /// Training throughput in samples per second (Figure 15).
    pub fn throughput(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        self.batch as f64 / self.total_time.as_secs_f64()
    }

    /// Fraction of the execution during which the GPU was stalled on data
    /// (Figure 12's "compute stall" component).
    pub fn stall_fraction(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        self.stall_time.as_secs_f64() / self.total_time.as_secs_f64()
    }

    /// Fraction of the execution during which computation (overlapped with
    /// any migrations) was making progress.
    pub fn overlap_fraction(&self) -> f64 {
        1.0 - self.stall_fraction()
    }

    /// Fraction of kernels whose slowdown exceeds the given threshold
    /// (Figure 13 reports the distribution; the paper quotes the share of
    /// kernels slower than ideal).
    pub fn fraction_of_kernels_slower_than(&self, threshold: f64) -> f64 {
        let slowdowns = &self.kernel_slowdowns;
        if slowdowns.is_empty() {
            return 0.0;
        }
        let stored = slowdowns.values.iter().filter(|s| **s > threshold).count();
        let ones = if 1.0 > threshold { slowdowns.ones() } else { 0 };
        (stored + ones) as f64 / slowdowns.len() as f64
    }

    /// A quantile of the per-kernel slowdown distribution (`q` in `[0, 1]`),
    /// read off its CDF (Figure 13).
    ///
    /// Sorts only the stored values; the implicit 1.0s sit between the
    /// values below 1.0 and the rest.
    pub fn slowdown_quantile(&self, q: f64) -> f64 {
        let slowdowns = &self.kernel_slowdowns;
        if slowdowns.is_empty() {
            return 1.0;
        }
        let idx = ((slowdowns.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        let mut stored = slowdowns.values.clone();
        stored.sort_by(|a, b| a.total_cmp(b));
        let below = stored.partition_point(|s| s.total_cmp(&1.0).is_lt());
        let ones = slowdowns.ones();
        match idx {
            i if i < below => stored[i],
            i if i < below + ones => 1.0,
            i => stored[i - ones],
        }
    }

    /// Bytes written to the SSD during the iteration (wears the flash).
    pub fn ssd_write_bytes(&self) -> u64 {
        self.traffic.ssd_write_bytes()
    }

    /// One-line summary used by examples and the experiment harness.
    pub fn summary(&self) -> String {
        format!(
            "{:12} {:>14}  perf={:5.1}%  stall={:4.1}%  traffic: ssd={:6.1} GB host={:6.1} GB  faults={}",
            self.model,
            self.policy,
            self.normalized_performance() * 100.0,
            self.stall_fraction() * 100.0,
            self.traffic.ssd_total() as f64 / 1e9,
            self.traffic.host_total() as f64 / 1e9,
            self.fault_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            model: "Test".to_string(),
            batch: 128,
            policy: "G10".to_string(),
            total_time: Nanos::from_secs(10),
            ideal_time: Nanos::from_secs(9),
            stall_time: Nanos::from_secs(1),
            kernel_slowdowns: [1.0, 1.0, 2.0, 4.0].into_iter().collect(),
            traffic: TrafficStats {
                gpu_to_ssd_bytes: 100,
                ssd_to_gpu_bytes: 200,
                gpu_to_host_bytes: 300,
                host_to_gpu_bytes: 400,
            },
            fault_count: 5,
            prefetches_issued: 10,
            prefetches_dropped: 1,
            evictions_issued: 12,
            oversubscribed: false,
            working_set_exceeds_gpu: false,
            policy_fault: None,
        }
    }

    #[test]
    fn normalised_performance_and_throughput() {
        let r = report();
        assert!((r.normalized_performance() - 0.9).abs() < 1e-12);
        assert!((r.throughput() - 12.8).abs() < 1e-9);
        assert!((r.stall_fraction() - 0.1).abs() < 1e-12);
        assert!((r.overlap_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn slowdown_statistics() {
        let r = report();
        assert_eq!(r.fraction_of_kernels_slower_than(1.0), 0.5);
        assert_eq!(r.fraction_of_kernels_slower_than(10.0), 0.0);
        // Sorted, the slowdowns are [1, 1, 2, 4].
        let quantiles = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0].map(|q| r.slowdown_quantile(q));
        assert_eq!(quantiles, [1.0, 1.0, 2.0, 4.0]);
    }

    #[test]
    fn traffic_helpers() {
        let r = report();
        assert_eq!(r.ssd_write_bytes(), 100);
        assert_eq!(r.traffic.total(), 1000);
        let s = r.summary();
        assert!(s.contains("G10"));
        assert!(s.contains("Test"));
    }

    #[test]
    fn fingerprint_tracks_behaviour_not_labels() {
        let r = report();
        let mut renamed = r.clone();
        renamed.model = "Other".to_string();
        renamed.policy = "Else".to_string();
        assert_eq!(r.fingerprint(), renamed.fingerprint());
        let mut different = r.clone();
        different.fault_count += 1;
        assert_ne!(r.fingerprint(), different.fingerprint());
        let mut slower = r.clone();
        slower.kernel_slowdowns = [1.5, 1.0, 2.0, 4.0].into_iter().collect();
        assert_ne!(r.fingerprint(), slower.fingerprint());
    }

    #[test]
    fn zero_time_edge_cases() {
        let mut r = report();
        r.total_time = Nanos::ZERO;
        assert_eq!(r.normalized_performance(), 1.0);
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.stall_fraction(), 0.0);
        r.kernel_slowdowns = std::iter::empty().collect();
        assert_eq!(r.fraction_of_kernels_slower_than(1.0), 0.0);
        assert_eq!(r.slowdown_quantile(0.5), 1.0);
    }
}
