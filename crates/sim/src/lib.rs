//! Deterministic simulation substrate for the ByteRobust reproduction.
//!
//! The original ByteRobust system runs against a physical GPU cluster and
//! wall-clock time. This crate provides the deterministic replacement used by
//! every other crate in the workspace:
//!
//! * [`SimTime`] / [`SimDuration`] — millisecond-resolution simulated time,
//! * [`SimRng`] — a seeded, reproducible random-number generator with the
//!   distribution helpers the fault injector and schedulers need.
//!
//! All experiments in the repository are bit-for-bit reproducible given the
//! same seed because every source of randomness flows through [`SimRng`] and
//! every notion of "now" flows through [`SimTime`].

pub mod rng;
pub mod time;

pub use rng::SimRng;
pub use time::{SimDuration, SimTime};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime};
}
