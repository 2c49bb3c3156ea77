//! Serially reusable bandwidth channels.
//!
//! The interconnect resources of the system — each direction of the PCIe
//! link, and the SSD's internal read and write streams — are modelled as
//! channels with a fixed byte rate: a transfer occupies the channel for
//! `bytes ÷ rate` starting no earlier than the channel is free.  Contention
//! between concurrent migrations therefore shows up as queueing delay,
//! which is exactly the effect G10's bandwidth-aware scheduling is designed
//! to manage.

use g10_time::Nanos;
use serde::{Deserialize, Serialize};

/// A bandwidth channel (one direction of a link or one internal SSD stream).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthChannel {
    bytes_per_sec: f64,
    latency: Nanos,
    busy_until: Nanos,
}

impl BandwidthChannel {
    /// Creates a channel with the given rate and per-transfer latency.
    pub fn new(bytes_per_sec: f64, latency: Nanos) -> Self {
        BandwidthChannel {
            bytes_per_sec,
            latency,
            busy_until: Nanos::ZERO,
        }
    }

    /// Reserves the channel for a transfer of `bytes` starting no earlier
    /// than `earliest`, returning `(start, completion)`.  The transfer takes
    /// the channel latency plus its serialization delay.
    pub fn transfer(&mut self, bytes: u64, earliest: Nanos) -> (Nanos, Nanos) {
        let duration = self.latency + Nanos::transfer_time(bytes, self.bytes_per_sec);
        let start = earliest.max(self.busy_until);
        let end = start.saturating_add(duration);
        self.busy_until = end;
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_matches_rate() {
        let mut ch = BandwidthChannel::new(1e9, Nanos::ZERO);
        let (start, end) = ch.transfer(1_000_000_000, Nanos::ZERO);
        assert_eq!(start, Nanos::ZERO);
        assert_eq!(end, Nanos::from_secs(1));
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut ch = BandwidthChannel::new(1e9, Nanos::ZERO);
        ch.transfer(500_000_000, Nanos::ZERO);
        let (start, end) = ch.transfer(500_000_000, Nanos::ZERO);
        assert_eq!(start, Nanos::from_millis(500));
        assert_eq!(end, Nanos::from_secs(1));
    }

    #[test]
    fn latency_is_added_per_transfer() {
        let mut ch = BandwidthChannel::new(1e9, Nanos::from_micros(20));
        let (_, end) = ch.transfer(0, Nanos::ZERO);
        assert_eq!(end, Nanos::from_micros(20));
    }
}
