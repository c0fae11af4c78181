//! One SkipQueue algorithm, two runtimes.
//!
//! This crate holds the single, execution-agnostic implementation of the
//! paper's concurrent priority-queue algorithms (Lotan & Shavit, *Skiplist-
//! Based Concurrent Priority Queues*, IPDPS 2000):
//!
//! * Pugh insert with hand-over-hand `getLock` re-validation (Figures 9–10),
//! * claim-based `delete_min` with time-stamp filtering (Figure 11,
//!   Definition 1) and the relaxed variant (§5.4),
//! * Pugh's eager physical delete of each claimed node (Figure 11),
//! * quiescence GC entry/exit and retirement hooks (§3).
//!
//! The algorithm is parameterized over a [`Platform`] supplying memory
//! operations, locks, the clock, RNG and GC registration, and reports each
//! named step of the algorithm to it as an [`Event`] through one hook,
//! [`Platform::observe`].
//! `crates/core` instantiates it with a zero-cost native platform (std
//! atomics + the `parking_lot` shim's spin-then-yield lock, driven by a
//! single poll); `crates/simpq` instantiates it with the simulated
//! 256-processor machine, where every hook is a charged, globally visible
//! operation and every `.await` a deterministic scheduling point.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod algo;
mod platform;

pub use algo::{SkipAlgo, MAX_HEIGHT};
pub use platform::{Event, InsertResult, PeekPlatform, Platform};
