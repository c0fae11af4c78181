//! # skipqueue — SkipList-based concurrent priority queues
//!
//! A from-scratch Rust implementation of the **SkipQueue** of Lotan & Shavit,
//! *Skiplist-Based Concurrent Priority Queues* (IPDPS 2000): a concurrent
//! priority queue built on Pugh's lock-based concurrent skiplist rather than
//! on a heap.
//!
//! ## Highlights
//!
//! * [`SkipQueue`] — the paper's data structure, for real threads:
//!   * `insert` links a node bottom-up, locking one level pointer at a time
//!     (Pugh's `getLock` hand-over-hand protocol with re-validation);
//!   * `delete_min` walks the bottom-level list and claims the first
//!     unmarked node with an atomic swap on its `deleted` flag, then
//!     physically unlinks it top-down;
//!   * a **time-stamping** mechanism makes every `delete_min` return the
//!     minimum among all inserts that *completed* before it began (the
//!     paper's Definition 1); [`SkipQueue::new_relaxed`] turns it off for the
//!     paper's *relaxed* variant, which may also return elements inserted
//!     concurrently;
//!   * unlinked nodes are reclaimed with the paper's quiescence rule: a node
//!     is freed only after every thread that was inside the structure at
//!     unlink time has left (module [`gc`]).
//! * [`seq::SeqSkipList`] — a sequential skiplist priority queue used as a
//!   reference model and single-threaded baseline.
//! * [`PriorityQueue`] — the minimal trait shared by every queue in this
//!   workspace (the Hunt heap and FunnelList baselines implement it too).
//!
//! ## Example
//!
//! ```
//! use skipqueue::{PriorityQueue, SkipQueue};
//! use std::sync::Arc;
//!
//! let q = Arc::new(SkipQueue::new());
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let q = Arc::clone(&q);
//!         s.spawn(move || {
//!             for i in 0..100u64 {
//!                 q.insert(t * 1_000 + i, i);
//!             }
//!         });
//!     }
//! });
//! let (min, _) = q.delete_min().unwrap();
//! assert_eq!(min, 0);
//! ```
//!
//! ## Departures from the paper (documented, deliberate)
//!
//! * The paper's skiplist is a dictionary, so inserting an existing key
//!   *updates* it. A general-purpose priority queue must admit duplicate
//!   priorities, so `SkipQueue` totally orders entries by `(key, unique
//!   sequence number)`: every insert adds a node and equal priorities come
//!   out in insertion order. The sequence number is the clock tick the
//!   insert's GC pin already takes (see [`gc`]), so it costs nothing extra.
//!   This also gives the physical-delete search an exact identity to look
//!   for, so the paper's re-find of the victim by key is not needed. The
//!   simulated queue (`simpq`) makes the same choice, tie-breaking equal
//!   keys by node address.
//! * The relaxed variant (§5.4) reads no time stamps, so a `delete_min`
//!   may claim a node whose insert is still linking; it then waits on the
//!   node lock until the insert finishes (Figure 11 line 27). The head
//!   sentinel is born marked, so a scan routed back over it by a removed
//!   node's backward pointer cannot claim it.
//! * A strict `delete_min` skips that node lock. It claims only a node
//!   whose stamp it read, and the insert stores the stamp (`Release`) only
//!   after releasing the node lock, so the claim's `Acquire` load already
//!   orders the delete after the whole insert.
//! * The physical delete finds predecessors only on the victim's own
//!   levels: its search starts at the head's level `height − 1`, not at
//!   the top (Figure 11 lines 15–22 search every level).
//! * `getTime()` is a shared hardware clock on Alewife; here it is a global
//!   atomic counter whose `fetch_add` gives unique, totally ordered stamps,
//!   which is exactly the property Lemma 1 needs.
//!
//! ## One algorithm, two runtimes
//!
//! The algorithm itself — Figures 9–11 and the relaxed variant — lives
//! in the shared [`pqalgo`] crate, parameterized over a `Platform` of
//! memory/lock/clock/GC hooks. This crate supplies the native
//! platform (std atomics + `parking_lot`, driven synchronously by a single
//! poll); the `simpq` crate instantiates the *same* algorithm on the
//! simulated multiprocessor, where every hook is a charged machine
//! operation. See `DESIGN.md` at the workspace root for the full mapping.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod clock;
pub mod gc;
mod node;
pub mod pq;
pub mod queue;
pub mod seq;

pub use clock::TimestampClock;
pub use pq::PriorityQueue;
pub use queue::SkipQueue;
