//! SSD endurance model for the G10 reproduction.
//!
//! The replay engine models the SSD as bandwidth channels plus a fixed
//! access latency (`g10_uvm::UnifiedMemory`); what the flash device adds on
//! top is wear.  §7.7 of the paper analyses the impact of tensor migration
//! traffic on SSD lifetime, and this crate holds the model behind that
//! analysis:
//!
//! * [`endurance`] — the drive-writes-per-day lifetime model, rated on the
//!   Samsung Z-SSD of Table 2.
//!
//! # Example
//!
//! ```
//! use g10_ssd::EnduranceModel;
//!
//! let model = EnduranceModel::samsung_z_ssd();
//! // Writing at 1.5 GB/s without pause wears the drive out in a few years.
//! let years = model.lifetime_years(1.5e9);
//! assert!(years > 3.0 && years < 5.0);
//! ```

pub mod endurance;

pub use endurance::EnduranceModel;
