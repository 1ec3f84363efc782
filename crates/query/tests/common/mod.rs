//! Helpers shared by the query crate's test binaries.

pub mod writer;
