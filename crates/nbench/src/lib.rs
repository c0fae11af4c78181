//! Latency histogram and JSON helpers used by perfbench.
//!
//! [`hist::LatencyHist`] is a log-bucketed histogram cheap enough to
//! record every operation of a measured run; [`json`] writes and reads
//! the flat JSON objects perfbench passes between its processes.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod hist;
pub mod json;
