//! SSD endurance / lifetime model (paper §7.7).
//!
//! The paper estimates the Z-SSD's lifetime under continuous DNN training
//! as `DWPD × warranty days × capacity ÷ write rate`, and compares the write
//! traffic of G10 against DeepUM+ and FlashNeuron (G10 writes 1.37× / 2.20×
//! less, so its lifetime impact is smaller).

use serde::{Deserialize, Serialize};

/// Drive-writes-per-day endurance model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnduranceModel {
    /// Rated drive writes per day.
    pub dwpd: f64,
    /// Warranty period in years.
    pub warranty_years: f64,
    /// Device capacity in bytes.
    pub capacity_bytes: u64,
}

impl EnduranceModel {
    /// The Samsung Z-SSD SZ985 rating used by the paper: 30 DWPD for five
    /// years on a 3.2 TB device.
    pub fn samsung_z_ssd() -> Self {
        EnduranceModel {
            dwpd: 30.0,
            warranty_years: 5.0,
            capacity_bytes: 3_200_000_000_000,
        }
    }

    /// Total bytes that may be written over the device's rated life.
    pub fn total_write_budget_bytes(&self) -> f64 {
        self.dwpd * self.warranty_years * 365.0 * self.capacity_bytes as f64
    }

    /// Expected lifetime in years when writing continuously at
    /// `write_bytes_per_sec`.
    pub fn lifetime_years(&self, write_bytes_per_sec: f64) -> f64 {
        if write_bytes_per_sec <= 0.0 {
            return f64::INFINITY;
        }
        let seconds = self.total_write_budget_bytes() / write_bytes_per_sec;
        seconds / (365.0 * 24.0 * 3600.0)
    }
}

impl Default for EnduranceModel {
    fn default() -> Self {
        EnduranceModel::samsung_z_ssd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_back_of_envelope_matches() {
        // §7.7: 30 DWPD × 1825 days × 3.2 TB ÷ 3 GB/s × 2 ≈ 3.7 years.  The
        // ×2 is because only half of the migration traffic is writes; here we
        // feed the model the 1.5 GB/s write rate directly.
        let model = EnduranceModel::samsung_z_ssd();
        let years = model.lifetime_years(1.5e9);
        assert!((3.2..4.3).contains(&years), "lifetime was {years:.2} years");
    }

    #[test]
    fn lifetime_scales_inversely_with_write_rate() {
        let model = EnduranceModel::samsung_z_ssd();
        let slow = model.lifetime_years(0.5e9);
        let fast = model.lifetime_years(2.0e9);
        assert!(slow > fast);
        assert!((slow / fast - 4.0).abs() < 1e-6);
    }

    #[test]
    fn zero_write_rate_is_infinite_lifetime() {
        let model = EnduranceModel::default();
        assert!(model.lifetime_years(0.0).is_infinite());
    }
}
