//! The [`UnifiedMemory`] façade: GPU + host + flash as one memory space with
//! tensor-granularity migrations, completion-time computation and traffic
//! accounting.
//!
//! The replay simulator drives this façade.  Planned migrations (`g10_pre_evict`
//! / `g10_prefetch`) move data without involving the fault handler; unplanned
//! accesses go through [`UnifiedMemory::fault_in`], which pays the 45 µs-per-
//! batch far-fault cost of Table 2 on top of the transfer itself.

use crate::bandwidth::BandwidthChannel;
use crate::fault::FaultModel;
use crate::memory::{MemKind, MemoryPool};
use g10_time::Nanos;

/// Hardware parameters of the unified memory system.  The replay engine
/// fills them in from `g10_core::config::SystemConfig`, which holds the
/// paper's Table 2 values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnifiedMemoryConfig {
    /// GPU on-board memory capacity in bytes (40 GB HBM2e).
    pub gpu_capacity_bytes: u64,
    /// Host DRAM capacity available for tensor staging (128 GB DDR4).
    pub host_capacity_bytes: u64,
    /// PCIe bandwidth per direction in bytes/s (Gen3 x16 ≈ 15.754 GB/s).
    pub pcie_bytes_per_sec: f64,
    /// SSD sustained read bandwidth in bytes/s (3.2 GB/s).
    pub ssd_read_bytes_per_sec: f64,
    /// SSD sustained write bandwidth in bytes/s (3.0 GB/s).
    pub ssd_write_bytes_per_sec: f64,
    /// SSD read latency (20 µs).
    pub ssd_read_latency: Nanos,
    /// SSD write latency (16 µs).
    pub ssd_write_latency: Nanos,
    /// Latency of a host-memory DMA setup.
    pub host_latency: Nanos,
    /// Far-fault cost model.
    pub fault: FaultModel,
    /// Bytes per migration batch issued by the migration handler.
    pub migration_batch_bytes: u64,
    /// Host software overhead charged per migration batch when planned
    /// migrations are executed through the classic UVM driver rather than
    /// G10's extended UVM (used by the G10-GDS / G10-Host ablations).
    pub software_overhead_per_batch: Nanos,
}

/// Migration traffic accumulated by direction (the quantities behind
/// Figure 14 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Bytes moved GPU → SSD (evictions to flash).
    pub gpu_to_ssd_bytes: u64,
    /// Bytes moved SSD → GPU (prefetches / faults from flash).
    pub ssd_to_gpu_bytes: u64,
    /// Bytes moved GPU → host (evictions to host DRAM).
    pub gpu_to_host_bytes: u64,
    /// Bytes moved host → GPU (prefetches / faults from host DRAM).
    pub host_to_gpu_bytes: u64,
}

impl TrafficStats {
    /// Total bytes that crossed the GPU-SSD path.
    pub fn ssd_total(&self) -> u64 {
        self.gpu_to_ssd_bytes + self.ssd_to_gpu_bytes
    }

    /// Total bytes that crossed the GPU-host path.
    pub fn host_total(&self) -> u64 {
        self.gpu_to_host_bytes + self.host_to_gpu_bytes
    }

    /// Total migration traffic in bytes.
    pub fn total(&self) -> u64 {
        self.ssd_total() + self.host_total()
    }

    /// Bytes written to the SSD (the quantity that wears the flash, §7.7).
    pub fn ssd_write_bytes(&self) -> u64 {
        self.gpu_to_ssd_bytes
    }
}

/// The unified GPU / host / flash memory system.
///
/// # Example
///
/// ```
/// use g10_uvm::{FaultModel, MemKind, UnifiedMemory, UnifiedMemoryConfig};
/// use g10_time::Nanos;
///
/// let mut uvm = UnifiedMemory::new(UnifiedMemoryConfig {
///     gpu_capacity_bytes: 40 << 30,
///     host_capacity_bytes: 128 << 30,
///     pcie_bytes_per_sec: 15.754e9,
///     ssd_read_bytes_per_sec: 3.2e9,
///     ssd_write_bytes_per_sec: 3.0e9,
///     ssd_read_latency: Nanos::from_micros(20),
///     ssd_write_latency: Nanos::from_micros(16),
///     host_latency: Nanos::from_micros(5),
///     fault: FaultModel { fault_latency: Nanos::from_micros(45), batch_bytes: 64 << 10 },
///     migration_batch_bytes: 2 << 20,
///     software_overhead_per_batch: Nanos::ZERO,
/// });
/// // Evict 1 GiB to the SSD, then prefetch it back.
/// let evicted = uvm.transfer_from_gpu(1 << 30, MemKind::Flash, Nanos::ZERO);
/// let back = uvm.transfer_to_gpu(1 << 30, MemKind::Flash, evicted);
/// assert!(back > evicted);
/// assert_eq!(uvm.traffic().ssd_total(), 2 << 30);
/// ```
#[derive(Debug, Clone)]
pub struct UnifiedMemory {
    cfg: UnifiedMemoryConfig,
    gpu: MemoryPool,
    host: MemoryPool,
    /// PCIe direction carrying data *into* the GPU.
    pcie_in: BandwidthChannel,
    /// PCIe direction carrying data *out of* the GPU.
    pcie_out: BandwidthChannel,
    ssd_read: BandwidthChannel,
    ssd_write: BandwidthChannel,
    traffic: TrafficStats,
    fault_handler_busy_until: Nanos,
    fault_count: u64,
}

impl UnifiedMemory {
    /// Creates a unified memory system with empty pools and idle links.
    pub fn new(cfg: UnifiedMemoryConfig) -> Self {
        UnifiedMemory {
            gpu: MemoryPool::new(cfg.gpu_capacity_bytes),
            host: MemoryPool::new(cfg.host_capacity_bytes),
            pcie_in: BandwidthChannel::new(cfg.pcie_bytes_per_sec, Nanos::ZERO),
            pcie_out: BandwidthChannel::new(cfg.pcie_bytes_per_sec, Nanos::ZERO),
            ssd_read: BandwidthChannel::new(cfg.ssd_read_bytes_per_sec, cfg.ssd_read_latency),
            ssd_write: BandwidthChannel::new(cfg.ssd_write_bytes_per_sec, cfg.ssd_write_latency),
            traffic: TrafficStats::default(),
            fault_handler_busy_until: Nanos::ZERO,
            fault_count: 0,
            cfg,
        }
    }

    /// The GPU memory pool.
    pub fn gpu(&self) -> &MemoryPool {
        &self.gpu
    }

    /// Mutable access to the GPU memory pool (allocation / freeing of
    /// resident tensors is the replay engine's job).
    pub fn gpu_mut(&mut self) -> &mut MemoryPool {
        &mut self.gpu
    }

    /// The host staging memory pool.
    pub fn host(&self) -> &MemoryPool {
        &self.host
    }

    /// Mutable access to the host staging pool.
    pub fn host_mut(&mut self) -> &mut MemoryPool {
        &mut self.host
    }

    /// Traffic accumulated so far.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// Number of far faults serviced so far.
    pub fn fault_count(&self) -> u64 {
        self.fault_count
    }

    fn batches(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else {
            bytes.div_ceil(self.cfg.migration_batch_bytes.max(1))
        }
    }

    fn software_overhead(&self, bytes: u64) -> Nanos {
        self.cfg.software_overhead_per_batch * self.batches(bytes)
    }

    /// Moves `bytes` out of the GPU to `destination` (host or flash) as a
    /// planned pre-eviction; returns the completion time.  Pool occupancy is
    /// *not* changed — residency bookkeeping belongs to the caller, because
    /// the GPU copy stays usable until the transfer completes.
    pub fn transfer_from_gpu(&mut self, bytes: u64, destination: MemKind, now: Nanos) -> Nanos {
        debug_assert_ne!(destination, MemKind::Gpu, "eviction must leave the GPU");
        let start = now + self.software_overhead(bytes);
        let (_, pcie_done) = self.pcie_out.transfer(bytes, start);
        match destination {
            MemKind::Host => {
                self.traffic.gpu_to_host_bytes += bytes;
                pcie_done + self.cfg.host_latency
            }
            MemKind::Flash => {
                self.traffic.gpu_to_ssd_bytes += bytes;
                let (_, ssd_done) = self.ssd_write.transfer(bytes, start);
                pcie_done.max(ssd_done)
            }
            MemKind::Gpu => pcie_done,
        }
    }

    /// Moves `bytes` into the GPU from `source` (host or flash) as a planned
    /// prefetch; returns the completion time.
    pub fn transfer_to_gpu(&mut self, bytes: u64, source: MemKind, now: Nanos) -> Nanos {
        debug_assert_ne!(
            source,
            MemKind::Gpu,
            "prefetch must come from outside the GPU"
        );
        let start = now + self.software_overhead(bytes);
        let (_, pcie_done) = self.pcie_in.transfer(bytes, start);
        match source {
            MemKind::Host => {
                self.traffic.host_to_gpu_bytes += bytes;
                pcie_done + self.cfg.host_latency
            }
            MemKind::Flash => {
                self.traffic.ssd_to_gpu_bytes += bytes;
                let (_, ssd_done) = self.ssd_read.transfer(bytes, start);
                pcie_done.max(ssd_done)
            }
            MemKind::Gpu => pcie_done,
        }
    }

    /// Services an unplanned access: far-fault handling (serialised on the
    /// host driver) followed by the data transfer into the GPU.  Returns the
    /// completion time.
    pub fn fault_in(&mut self, bytes: u64, source: MemKind, now: Nanos) -> Nanos {
        let handling = self.cfg.fault.handling_time(bytes);
        let handler_start = now.max(self.fault_handler_busy_until);
        let handler_done = handler_start + handling;
        self.fault_handler_busy_until = handler_done;
        self.fault_count += self.cfg.fault.fault_count(bytes);
        self.transfer_to_gpu(bytes, source, handler_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2's hardware with G10's extended UVM (no software overhead on
    /// planned migrations).
    fn table2() -> UnifiedMemoryConfig {
        UnifiedMemoryConfig {
            gpu_capacity_bytes: 40 << 30,
            host_capacity_bytes: 128 << 30,
            pcie_bytes_per_sec: 15.754e9,
            ssd_read_bytes_per_sec: 3.2e9,
            ssd_write_bytes_per_sec: 3.0e9,
            ssd_read_latency: Nanos::from_micros(20),
            ssd_write_latency: Nanos::from_micros(16),
            host_latency: Nanos::from_micros(5),
            fault: FaultModel {
                fault_latency: Nanos::from_micros(45),
                batch_bytes: 64 << 10,
            },
            migration_batch_bytes: 2 << 20,
            software_overhead_per_batch: Nanos::ZERO,
        }
    }

    fn uvm() -> UnifiedMemory {
        UnifiedMemory::new(table2())
    }

    #[test]
    fn ssd_prefetch_is_bounded_by_ssd_bandwidth() {
        let mut m = uvm();
        let bytes = 32u64 << 30; // 32 GiB
        let done = m.transfer_to_gpu(bytes, MemKind::Flash, Nanos::ZERO);
        let expected = bytes as f64 / 3.2e9;
        let actual = done.as_secs_f64();
        assert!(
            (actual - expected).abs() / expected < 0.05,
            "expected ≈{expected:.2}s got {actual:.2}s"
        );
    }

    #[test]
    fn host_prefetch_is_bounded_by_pcie_bandwidth() {
        let mut m = uvm();
        let bytes = 32u64 << 30;
        let done = m.transfer_to_gpu(bytes, MemKind::Host, Nanos::ZERO);
        let expected = bytes as f64 / 15.754e9;
        assert!((done.as_secs_f64() - expected).abs() / expected < 0.05);
    }

    #[test]
    fn concurrent_ssd_and_host_traffic_share_the_pcie_link() {
        let mut m = uvm();
        let bytes = 8u64 << 30;
        let a = m.transfer_to_gpu(bytes, MemKind::Flash, Nanos::ZERO);
        let b = m.transfer_to_gpu(bytes, MemKind::Host, Nanos::ZERO);
        // The host transfer queues behind the flash transfer's PCIe usage,
        // so it cannot complete at its isolated time.
        let isolated = Nanos::transfer_time(bytes, 15.754e9);
        assert!(b > isolated);
        assert!(a > Nanos::ZERO);
        assert_eq!(m.traffic().total(), 2 * bytes);
    }

    #[test]
    fn evictions_and_prefetches_use_opposite_directions() {
        let mut m = uvm();
        let bytes = 4u64 << 30;
        let out = m.transfer_from_gpu(bytes, MemKind::Host, Nanos::ZERO);
        let inb = m.transfer_to_gpu(bytes, MemKind::Host, Nanos::ZERO);
        // Full-duplex PCIe: neither waits for the other.
        let isolated = Nanos::transfer_time(bytes, 15.754e9) + Nanos::from_micros(5);
        assert_eq!(out, isolated);
        assert_eq!(inb, isolated);
        assert_eq!(m.traffic().gpu_to_host_bytes, bytes);
        assert_eq!(m.traffic().host_to_gpu_bytes, bytes);
    }

    #[test]
    fn faults_cost_handler_time_on_top_of_transfer() {
        let mut planned = uvm();
        let mut faulted = uvm();
        let bytes = 256u64 << 20;
        let planned_done = planned.transfer_to_gpu(bytes, MemKind::Host, Nanos::ZERO);
        let fault_done = faulted.fault_in(bytes, MemKind::Host, Nanos::ZERO);
        assert!(fault_done > planned_done);
        let fault = table2().fault;
        assert_eq!(fault_done - planned_done, fault.handling_time(bytes));
        assert_eq!(faulted.fault_count(), bytes / fault.batch_bytes);
    }

    #[test]
    fn fault_handler_is_serialised() {
        let mut m = uvm();
        let first = m.fault_in(2 << 20, MemKind::Host, Nanos::ZERO);
        let second = m.fault_in(2 << 20, MemKind::Host, Nanos::ZERO);
        assert!(second > first);
    }

    #[test]
    fn software_overhead_applies_per_batch() {
        let mut cfg = table2();
        cfg.software_overhead_per_batch = Nanos::from_micros(10);
        let mut classic = UnifiedMemory::new(cfg);
        let mut extended = uvm();
        let bytes = 64u64 << 20; // 32 batches of 2 MiB
        let classic_done = classic.transfer_to_gpu(bytes, MemKind::Host, Nanos::ZERO);
        let extended_done = extended.transfer_to_gpu(bytes, MemKind::Host, Nanos::ZERO);
        assert_eq!(classic_done - extended_done, Nanos::from_micros(10) * 32);
    }
}
