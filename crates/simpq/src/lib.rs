//! # simpq — the paper's priority queues, hosted on the simulated machine
//!
//! Lotan & Shavit's entire evaluation runs on a simulated 256-processor
//! ccNUMA (Proteus configured like the MIT Alewife), measuring operation
//! latency in machine cycles. This crate contains the three benchmarked
//! structures written against the [`pqsim`] shared-memory API — every
//! globally visible READ/WRITE/SWAP/lock operation is charged cycles and
//! contends at its home memory module — plus the synthetic workload driver
//! that regenerates every figure of the paper.
//!
//! * [`skipqueue::SimSkipQueue`] — the SkipQueue: the shared [`pqalgo`]
//!   algorithm (the `getLock` re-validation loop, the `timeStamp`
//!   mechanism, the backward-pointer delete) instantiated on a platform
//!   where every hook is a charged machine operation; the *relaxed* variant
//!   of §5.4 is a constructor flag. Like the native `skipqueue` crate,
//!   which runs the same algorithm, it is a multiset: equal keys are
//!   separate entries.
//! * [`heap::SimHuntHeap`] — the Hunt et al. heap: size lock, per-node
//!   locks and tags, bit-reversed bottom-up insertions, top-down deletions.
//! * [`funnellist::SimFunnelList`] — the sorted linked list with a
//!   combining-funnel front end.
//! * [`workload::run_workload`] — the benchmark of §5: each processor
//!   alternates `work_cycles` of local work with a random queue operation;
//!   reports mean insert / delete-min latency in cycles.
//!
//! ```
//! use simpq::workload::{run_workload, QueueKind, WorkloadConfig};
//!
//! let res = run_workload(&WorkloadConfig {
//!     queue: QueueKind::SkipQueue { strict: true },
//!     nproc: 4,
//!     initial_size: 50,
//!     total_ops: 400,
//!     insert_ratio: 0.5,
//!     work_cycles: 100,
//!     ..WorkloadConfig::default()
//! });
//! assert!(res.insert.count + res.delete.count >= 400);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod funnel_skip;
pub mod funnellist;
pub mod heap;
pub mod skipqueue;
pub mod tap;
pub mod workload;

pub use funnel_skip::FunnelSkipQueue;
pub use funnellist::SimFunnelList;
pub use heap::SimHuntHeap;
pub use skipqueue::SimSkipQueue;
pub use tap::HistoryTap;
pub use workload::{
    run_hold_model, run_workload, HoldConfig, HoldResult, QueueKind, WorkloadConfig, WorkloadResult,
};
