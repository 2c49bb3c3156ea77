//! GPU far-fault cost model.
//!
//! When a kernel touches a tensor that is not resident in GPU memory, the
//! GPU raises a far fault; the host driver services it and
//! migrates data in.  Table 2 of the paper puts the handling latency at 45 µs
//! per fault, and UVM drivers service faults in batches of up to a couple of
//! megabytes.  The fault model turns "this many bytes arrived unplanned" into
//! handler time.

use g10_time::Nanos;
use serde::{Deserialize, Serialize};

/// GPU page-fault cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Host-side handling latency per fault batch (Table 2: 45 µs).
    pub fault_latency: Nanos,
    /// Bytes migrated per fault batch (UVM fault-service granularity).
    pub batch_bytes: u64,
}

impl FaultModel {
    /// Number of fault batches needed to bring in `bytes`.
    pub fn fault_count(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else {
            bytes.div_ceil(self.batch_bytes.max(1))
        }
    }

    /// Host handler time spent servicing `bytes` of unplanned migration
    /// (faults are serviced serially by the driver).
    pub fn handling_time(&self, bytes: u64) -> Nanos {
        self.fault_latency * self.fault_count(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2's 45 µs per fault, serviced in 64 KiB batches.
    fn table2() -> FaultModel {
        FaultModel {
            fault_latency: Nanos::from_micros(45),
            batch_bytes: 64 << 10,
        }
    }

    #[test]
    fn zero_bytes_is_free() {
        let m = table2();
        assert_eq!(m.fault_count(0), 0);
        assert_eq!(m.handling_time(0), Nanos::ZERO);
    }

    #[test]
    fn partial_batches_round_up() {
        let m = table2();
        assert_eq!(m.fault_count(1), 1);
        assert_eq!(m.fault_count(64 << 10), 1);
        assert_eq!(m.fault_count((64 << 10) + 1), 2);
    }

    #[test]
    fn handling_time_matches_table2() {
        let m = table2();
        // A 1 GiB tensor arriving entirely through faults costs 16384 x 45 us.
        let t = m.handling_time(1 << 30);
        assert_eq!(t, Nanos::from_micros(45) * 16384);
    }

    #[test]
    fn degenerate_batch_size_does_not_divide_by_zero() {
        let m = FaultModel {
            fault_latency: Nanos::from_micros(45),
            batch_bytes: 0,
        };
        assert_eq!(m.fault_count(10), 10);
    }
}
