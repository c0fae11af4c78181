//! # pqsim — a deterministic multiprocessor simulator
//!
//! The evaluation in *Skiplist-Based Concurrent Priority Queues* (Lotan &
//! Shavit, IPDPS 2000) runs on the Proteus simulator configured as a
//! 256-processor ccNUMA machine similar to the MIT Alewife. This crate is a
//! from-scratch stand-in for that substrate: a **deterministic,
//! discrete-event simulation of a shared-memory multiprocessor** on which the
//! priority-queue algorithms of the paper execute and are measured in
//! *machine cycles*.
//!
//! ## Model
//!
//! * Each **virtual processor** runs a program written as a Rust `async`
//!   function. Purely local computation is accounted with [`Proc::work`] and
//!   never blocks other processors — exactly Proteus' "local operations run
//!   uninterrupted, only their cycle count matters" rule.
//! * Every **globally visible operation** — shared-memory `READ`, `WRITE`,
//!   `SWAP`, `FETCH_ADD`, `CAS`, lock acquire/release, clock read — is an
//!   `await` point. The executor always resumes the runnable processor with
//!   the smallest local clock, so the interleaving of shared operations is a
//!   valid real-time order and the whole simulation is deterministic for a
//!   given seed.
//! * Shared memory is an arena of 64-bit words. Each word has a **home node**
//!   (ccNUMA) and a **service queue**: accesses pay a local or remote latency
//!   plus queueing delay when the word is busy, which reproduces the hot-spot
//!   behaviour (heap root, size-lock counter, list head) that drives the
//!   curves in the paper. See [`CostModel`].
//! * Locks are FIFO-queued semaphores, as provided by Proteus and used by the
//!   paper's code for all SkipQueue and FunnelList locks.
//!
//! ## Example
//!
//! ```
//! use pqsim::{Sim, SimConfig};
//!
//! let mut sim = Sim::new(SimConfig::new(2));
//! let counter = sim.alloc_shared(1); // one shared word, homed at node 0
//! for _ in 0..2 {
//!     sim.spawn(move |p| async move {
//!         for _ in 0..100 {
//!             p.work(50);
//!             p.fetch_add(counter, 1).await;
//!         }
//!     });
//! }
//! let report = sim.run();
//! assert_eq!(sim.read_word(counter), 200);
//! assert!(report.final_time > 0);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod cost;
pub mod executor;
pub mod lock;
pub mod machine;
pub mod mem;
pub mod proc;
pub mod rng;
pub mod sched;
pub mod stats;

pub use cost::CostModel;
pub use executor::{Sim, SimReport};
pub use lock::LockId;
pub use machine::{Machine, SimConfig};
pub use proc::Proc;
pub use rng::{Pcg32, SplitMix64};
pub use sched::{
    ClockOrder, FaultSpec, PctPriority, RandomPerturb, SchedPoint, SchedSpec, Scheduler, StallSpec,
};
pub use stats::{LatencyRecorder, LatencySummary};

/// A shared-memory address: an index into the simulated word arena.
///
/// Address `0` is reserved as the null pointer ([`NULL`]); the allocator
/// never hands it out.
pub type Addr = u32;

/// Contents of one simulated shared-memory word.
pub type Word = u64;

/// A virtual processor id, `0..nproc`.
pub type Pid = u32;

/// Simulated time, in machine cycles.
pub type Cycles = u64;

/// The null simulated pointer. Address 0 is reserved and never allocated.
pub const NULL: Addr = 0;
