//! # hetsim-engine
//!
//! Simulation primitives shared by every other `hetsim` crate.
//!
//! The crate provides four small, composable building blocks:
//!
//! * [`time`] — integer-nanosecond simulated time ([`SimTime`], [`Nanos`])
//!   and clock-domain conversion ([`ClockDomain`]);
//! * [`bandwidth`] — link bandwidth and fixed latency ([`Bandwidth`],
//!   [`Latency`]) for transfer-time models;
//! * [`rng`] — a tiny, fully deterministic SplitMix64 RNG ([`rng::SimRng`])
//!   so that a run is a pure function of its seed;
//! * [`stats`] — the summary statistics the paper's methodology section
//!   relies on (mean, std/mean, geometric mean, percentiles).
//!
//! Schedulers elsewhere in the workspace (streams, the inter-job pipeline,
//! the serving fleet) advance per-resource free-time frontiers in these
//! units; there is no shared event queue.
//!
//! # Example
//!
//! ```
//! use hetsim_engine::prelude::*;
//!
//! let bw = Bandwidth::from_gb_per_sec(6.2);
//! let start = SimTime::ZERO + Nanos::from_micros(1);
//! assert!(start + bw.transfer_time(1 << 20) > start);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod rng;
pub mod stats;
pub mod time;

/// Convenient glob-import of the types used by nearly every simulator module.
pub mod prelude {
    pub use crate::bandwidth::{Bandwidth, Latency};
    pub use crate::rng::SimRng;
    pub use crate::stats::Summary;
    pub use crate::time::{ClockDomain, Nanos, SimTime};
}

pub use bandwidth::{Bandwidth, Latency};
pub use rng::SimRng;
pub use stats::Summary;
pub use time::{ClockDomain, Nanos, SimTime};
