//! System configuration (Table 2 of the paper) and derived transfer costs.

use g10_time::Nanos;

/// Where an evicted tensor can live outside the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// Host DRAM over the PCIe link.
    Host,
    /// Flash pages inside the SSD (GPUDirect-Storage path).
    Ssd,
}

impl Destination {
    /// Short label used in plans and reports.
    pub const fn label(self) -> &'static str {
        match self {
            Destination::Host => "host",
            Destination::Ssd => "ssd",
        }
    }
}

/// The hardware configuration the scheduler plans against (Table 2).
///
/// All the §7 sensitivity sweeps are expressed as modified copies of this
/// configuration: host-memory capacity (§7.4), SSD bandwidth and PCIe
/// generation (§7.5), and GPU capacity for batch-size stress (§7.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// GPU on-board memory capacity in bytes (40 GB HBM2e).
    pub gpu_memory_bytes: u64,
    /// Host DRAM capacity available for staging tensors (128 GB DDR4).
    pub host_memory_bytes: u64,
    /// Unified-memory page size (4 KiB).
    pub page_bytes: u64,
    /// PCIe bandwidth per direction in bytes/s (Gen3 x16, 15.754 GB/s).
    pub pcie_bytes_per_sec: f64,
    /// SSD sustained read bandwidth in bytes/s (3.2 GB/s).
    pub ssd_read_bytes_per_sec: f64,
    /// SSD sustained write bandwidth in bytes/s (3.0 GB/s).
    pub ssd_write_bytes_per_sec: f64,
    /// SSD read latency (20 µs).
    pub ssd_read_latency: Nanos,
    /// SSD write latency (16 µs).
    pub ssd_write_latency: Nanos,
    /// Latency of a host DMA setup (5 µs).
    pub host_latency: Nanos,
    /// GPU page-fault handling latency (45 µs).
    pub fault_latency: Nanos,
    /// Bytes serviced per fault batch (64 KiB): the effective service batch
    /// a UVM driver achieves under the scattered access patterns of demand
    /// paging.  It caps fault-driven migration far below the prefetch-path
    /// bandwidth, which is what makes the paper's Base UVM baseline 4–5×
    /// slower than ideal.
    pub fault_batch_bytes: u64,
    /// Bytes per planned migration batch.
    pub migration_batch_bytes: u64,
}

impl SystemConfig {
    /// The Table 2 configuration.
    pub fn table2() -> Self {
        SystemConfig {
            gpu_memory_bytes: 40 * (1 << 30),
            host_memory_bytes: 128 * (1 << 30),
            page_bytes: 4096,
            pcie_bytes_per_sec: 15.754e9,
            ssd_read_bytes_per_sec: 3.2e9,
            ssd_write_bytes_per_sec: 3.0e9,
            ssd_read_latency: Nanos::from_micros(20),
            ssd_write_latency: Nanos::from_micros(16),
            host_latency: Nanos::from_micros(5),
            fault_latency: Nanos::from_micros(45),
            fault_batch_bytes: 64 << 10,
            migration_batch_bytes: 2 << 20,
        }
    }

    /// Returns a copy with a different GPU memory capacity.
    pub fn with_gpu_memory(mut self, bytes: u64) -> Self {
        self.gpu_memory_bytes = bytes;
        self
    }

    /// Returns a copy with a different host memory capacity (§7.4 sweep,
    /// 0–256 GB).
    pub fn with_host_memory(mut self, bytes: u64) -> Self {
        self.host_memory_bytes = bytes;
        self
    }

    /// Returns a copy with a different aggregate SSD bandwidth (§7.5 sweep).
    /// Read and write bandwidth are both set to `bytes_per_sec`; the sweep in
    /// the paper also upgrades the interconnect to PCIe 4.0 ×16 (32 GB/s),
    /// which callers do with [`SystemConfig::with_pcie_bandwidth`].
    pub fn with_ssd_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.ssd_read_bytes_per_sec = bytes_per_sec;
        self.ssd_write_bytes_per_sec = bytes_per_sec * (3.0 / 3.2);
        self
    }

    /// Returns a copy with a different PCIe per-direction bandwidth.
    pub fn with_pcie_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.pcie_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Effective bandwidth of an eviction to the given destination: SSD
    /// evictions are bottlenecked by the slower of the PCIe link and the SSD
    /// write stream, host evictions by the PCIe link alone.
    pub fn evict_bytes_per_sec(&self, dest: Destination) -> f64 {
        match dest {
            Destination::Host => self.pcie_bytes_per_sec,
            Destination::Ssd => self.ssd_write_bytes_per_sec.min(self.pcie_bytes_per_sec),
        }
    }

    /// Effective bandwidth of a prefetch from the given source.
    pub fn prefetch_bytes_per_sec(&self, source: Destination) -> f64 {
        match source {
            Destination::Host => self.pcie_bytes_per_sec,
            Destination::Ssd => self.ssd_read_bytes_per_sec.min(self.pcie_bytes_per_sec),
        }
    }

    /// Time to evict `bytes` to the given destination, in isolation.
    pub fn evict_time(&self, bytes: u64, dest: Destination) -> Nanos {
        let latency = match dest {
            Destination::Host => self.host_latency,
            Destination::Ssd => self.ssd_write_latency,
        };
        latency + Nanos::transfer_time(bytes, self.evict_bytes_per_sec(dest))
    }

    /// Time to prefetch `bytes` back from the given source, in isolation.
    pub fn prefetch_time(&self, bytes: u64, source: Destination) -> Nanos {
        let latency = match source {
            Destination::Host => self.host_latency,
            Destination::Ssd => self.ssd_read_latency,
        };
        latency + Nanos::transfer_time(bytes, self.prefetch_bytes_per_sec(source))
    }

    /// Round-trip migration cost (evict + prefetch) used as the denominator
    /// of the benefit/cost ratio in the eviction algorithm.
    pub fn migration_cost(&self, bytes: u64, dest: Destination) -> Nanos {
        self.evict_time(bytes, dest) + self.prefetch_time(bytes, dest)
    }

    /// Canonical hashable key of this configuration (floats by bit
    /// pattern), used by the experiment grid's run cache: sweeps that modify
    /// the hardware (host memory, SSD bandwidth, PCIe generation) get
    /// distinct cells.
    ///
    /// The exhaustive destructuring (no `..`) makes this fail to compile if
    /// `SystemConfig` ever gains a field, so a cache keyed on it cannot
    /// silently stop distinguishing new sweep dimensions.
    pub fn cache_key(&self) -> [u64; 12] {
        let SystemConfig {
            gpu_memory_bytes,
            host_memory_bytes,
            page_bytes,
            pcie_bytes_per_sec,
            ssd_read_bytes_per_sec,
            ssd_write_bytes_per_sec,
            ssd_read_latency,
            ssd_write_latency,
            host_latency,
            fault_latency,
            fault_batch_bytes,
            migration_batch_bytes,
        } = *self;
        [
            gpu_memory_bytes,
            host_memory_bytes,
            page_bytes,
            pcie_bytes_per_sec.to_bits(),
            ssd_read_bytes_per_sec.to_bits(),
            ssd_write_bytes_per_sec.to_bits(),
            ssd_read_latency.as_nanos(),
            ssd_write_latency.as_nanos(),
            host_latency.as_nanos(),
            fault_latency.as_nanos(),
            fault_batch_bytes,
            migration_batch_bytes,
        ]
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_match_the_paper() {
        let c = SystemConfig::table2();
        assert_eq!(c.gpu_memory_bytes, 40 << 30);
        assert_eq!(c.host_memory_bytes, 128 << 30);
        assert_eq!(c.page_bytes, 4096);
        assert_eq!(c.fault_latency, Nanos::from_micros(45));
        assert_eq!(c.ssd_read_latency, Nanos::from_micros(20));
        assert_eq!(c.ssd_write_latency, Nanos::from_micros(16));
    }

    #[test]
    fn ssd_path_is_slower_than_host_path() {
        let c = SystemConfig::table2();
        let bytes = 1 << 30;
        assert!(c.evict_time(bytes, Destination::Ssd) > c.evict_time(bytes, Destination::Host));
        assert!(
            c.prefetch_time(bytes, Destination::Ssd) > c.prefetch_time(bytes, Destination::Host)
        );
        assert!(
            c.migration_cost(bytes, Destination::Ssd) > c.migration_cost(bytes, Destination::Host)
        );
    }

    #[test]
    fn sweeps_change_only_their_knob() {
        let base = SystemConfig::table2();
        let host0 = base.with_host_memory(0);
        assert_eq!(host0.host_memory_bytes, 0);
        assert_eq!(host0.gpu_memory_bytes, base.gpu_memory_bytes);

        let fast_ssd = base.with_ssd_bandwidth(12.8e9).with_pcie_bandwidth(32e9);
        assert!(fast_ssd.ssd_read_bytes_per_sec > base.ssd_read_bytes_per_sec);
        assert!(fast_ssd.pcie_bytes_per_sec > base.pcie_bytes_per_sec);
        // With a fast SSD and PCIe 4.0 the SSD path approaches the host path.
        let bytes = 1 << 30;
        let ratio = fast_ssd.evict_time(bytes, Destination::Ssd).as_secs_f64()
            / fast_ssd.evict_time(bytes, Destination::Host).as_secs_f64();
        assert!(ratio < 3.0);
    }

    #[test]
    fn effective_bandwidth_respects_the_pcie_cap() {
        let c = SystemConfig::table2().with_ssd_bandwidth(32e9);
        assert!(c.evict_bytes_per_sec(Destination::Ssd) <= c.pcie_bytes_per_sec);
        assert!(c.prefetch_bytes_per_sec(Destination::Ssd) <= c.pcie_bytes_per_sec);
    }

    #[test]
    fn destination_labels() {
        assert_eq!(Destination::Host.label(), "host");
        assert_eq!(Destination::Ssd.label(), "ssd");
    }

    #[test]
    fn cache_key_distinguishes_every_sweep_dimension() {
        let base = SystemConfig::table2();
        assert_eq!(base.cache_key(), SystemConfig::table2().cache_key());
        for modified in [
            base.with_gpu_memory(base.gpu_memory_bytes - 1),
            base.with_host_memory(0),
            base.with_ssd_bandwidth(12.8e9),
            base.with_pcie_bandwidth(32e9),
        ] {
            assert_ne!(base.cache_key(), modified.cache_key());
        }
    }
}
