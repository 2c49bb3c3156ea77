//! Unified GPU memory and storage substrate for the G10 reproduction.
//!
//! G10 (§4.5–§4.6 of the paper) extends the GPU's Unified Virtual Memory so
//! that a tensor can live in GPU memory, host memory *or* flash, and moves
//! tensors between them with planned migrations.  The replay engine charges
//! those migrations with three costs — capacity, transfer and fault
//! handling — and this crate models exactly those; the SSD is a pair of
//! bandwidth channels with a fixed access latency, and its wear is the
//! `g10-ssd` endurance model:
//!
//! * [`memory`] — the physical memory kinds (GPU / host / flash) and
//!   capacity tracking for the GPU HBM and host DRAM pools.
//! * [`bandwidth`] — serially reusable bandwidth channels used to model the
//!   PCIe link and the SSD's internal read/write streams.
//! * [`fault`] — the GPU far-fault cost model (45 µs handler latency per
//!   fault batch, Table 2).
//! * [`uvm`] — the [`UnifiedMemory`] façade combining all of the above:
//!   tensor-granularity evictions, prefetches and on-demand fault-ins with
//!   completion-time computation and traffic accounting.

pub mod bandwidth;
pub mod fault;
pub mod memory;
pub mod uvm;

pub use bandwidth::BandwidthChannel;
pub use fault::FaultModel;
pub use memory::{MemKind, MemoryPool};
pub use uvm::{TrafficStats, UnifiedMemory, UnifiedMemoryConfig};
