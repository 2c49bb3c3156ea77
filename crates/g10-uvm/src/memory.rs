//! Physical memory kinds and capacity tracking for the GPU HBM and host
//! DRAM pools.

use serde::{Deserialize, Serialize};

/// The three physical backings a tensor can live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemKind {
    /// GPU on-board HBM.
    Gpu,
    /// Host DRAM.
    Host,
    /// Flash pages inside the SSD.
    Flash,
}

/// A fixed-capacity memory pool with byte-granularity accounting.
///
/// The pool does not track placement (which pages live where); it only
/// answers "does this allocation fit", which is all the replay engine
/// needs.
///
/// # Example
///
/// ```
/// use g10_uvm::MemoryPool;
///
/// let mut pool = MemoryPool::new(1 << 20);
/// assert!(pool.try_allocate(512 << 10));
/// assert!(!pool.try_allocate(600 << 10));
/// pool.free(512 << 10);
/// assert_eq!(pool.used_bytes(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryPool {
    capacity_bytes: u64,
    used_bytes: u64,
}

impl MemoryPool {
    /// Creates an empty pool of the given capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        MemoryPool {
            capacity_bytes,
            used_bytes: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes still available (zero when the pool is oversubscribed).
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.used_bytes)
    }

    /// Attempts to allocate `bytes`; returns `false` (and changes nothing)
    /// if the pool does not have room.
    pub fn try_allocate(&mut self, bytes: u64) -> bool {
        if bytes > self.free_bytes() {
            return false;
        }
        self.used_bytes += bytes;
        true
    }

    /// Allocates `bytes` even if it overshoots the capacity.  The replay
    /// engine uses this for accounting after a policy has already decided to
    /// admit the data (oversubscription shows up as `used > capacity` and is
    /// reported, never silently clamped).
    pub fn force_allocate(&mut self, bytes: u64) {
        self.used_bytes += bytes;
    }

    /// Releases `bytes`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more bytes are freed than are allocated; in
    /// release builds the occupancy saturates at zero.
    pub fn free(&mut self, bytes: u64) {
        debug_assert!(
            bytes <= self.used_bytes,
            "freeing {bytes} bytes but only {} allocated",
            self.used_bytes
        );
        self.used_bytes = self.used_bytes.saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_respects_capacity() {
        let mut pool = MemoryPool::new(100);
        assert!(pool.try_allocate(60));
        assert!(!pool.try_allocate(50));
        assert!(pool.try_allocate(40));
        assert_eq!(pool.free_bytes(), 0);
        assert!(pool.try_allocate(0));
        assert!(!pool.try_allocate(1));
    }

    #[test]
    fn free_restores_space() {
        let mut pool = MemoryPool::new(100);
        pool.try_allocate(80);
        pool.free(30);
        assert_eq!(pool.used_bytes(), 50);
        assert_eq!(pool.free_bytes(), 50);
    }

    #[test]
    fn force_allocate_tracks_oversubscription() {
        let mut pool = MemoryPool::new(100);
        pool.force_allocate(150);
        assert_eq!(pool.used_bytes(), 150);
        assert_eq!(pool.free_bytes(), 0);
        pool.free(150);
        assert_eq!(pool.free_bytes(), 100);
    }

    #[test]
    fn zero_capacity_pool_is_safe() {
        let mut pool = MemoryPool::new(0);
        assert_eq!(pool.capacity_bytes(), 0);
        assert!(!pool.try_allocate(1));
        assert!(pool.try_allocate(0));
    }
}
