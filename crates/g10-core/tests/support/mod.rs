//! Test support shared by this crate's integration tests.

pub mod naive;
