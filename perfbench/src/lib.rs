//! End-to-end benchmark of the `ipe` completion service.
//!
//! A run spawns the release `ipe serve` binary, drives it with one of three
//! seeded closed-loop workloads, checks every answer against in-process
//! oracles, and prints each metric by name and unit. A traced run also
//! replays the workload in-process through each layer's public functions
//! with spans around every call. See `README.md` beside this crate.

pub mod bench;
pub mod client;
pub mod load;
pub mod metrics;
pub mod oracle;
pub mod replay;
pub mod server;
pub mod stats;
pub mod workload;
