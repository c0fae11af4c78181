//! Every structure the simulator runs, built and dispatched in one place.
//!
//! [`QueueKind`] names a structure; [`SimQueue::create`] builds it from the
//! caller's [`Sizes`]. The figure driver, the hold model and the
//! schedule-exploration harness all build through here and keep only their
//! own sizing, scheduling and auditing.

use pqsim::{Pcg32, Proc, Sim};

use crate::funnel_skip::FunnelSkipQueue;
use crate::funnellist::SimFunnelList;
use crate::heap::SimHuntHeap;
use crate::sharded::SimShardedQueue;
use crate::skipqueue::SimSkipQueue;
use crate::tap::HistoryTap;

/// Which simulated structure to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// The SkipQueue; `strict = false` is the relaxed variant of §5.4.
    SkipQueue {
        /// Run the time-stamp ordering mechanism.
        strict: bool,
    },
    /// The Hunt et al. heap.
    HuntHeap,
    /// The FunnelList.
    FunnelList,
    /// The rejected §5 design: a strict SkipQueue whose delete-mins go
    /// through a combining funnel (ablation only).
    FunnelSkipQueue,
    /// The native `shardq` front-end's simulated counterpart
    /// ([`SimShardedQueue`]).
    Sharded,
}

impl QueueKind {
    /// Every kind, in reporting order.
    pub const ALL: [QueueKind; 6] = [
        QueueKind::SkipQueue { strict: true },
        QueueKind::SkipQueue { strict: false },
        QueueKind::HuntHeap,
        QueueKind::FunnelList,
        QueueKind::FunnelSkipQueue,
        QueueKind::Sharded,
    ];

    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            QueueKind::SkipQueue { strict: true } => "SkipQueue",
            QueueKind::SkipQueue { strict: false } => "Relaxed SkipQueue",
            QueueKind::HuntHeap => "Heap",
            QueueKind::FunnelList => "FunnelList",
            QueueKind::FunnelSkipQueue => "Funnel+SkipQueue",
            QueueKind::Sharded => "Sharded SkipQueue",
        }
    }

    /// Stable command-line name.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::SkipQueue { strict: true } => "strict",
            QueueKind::SkipQueue { strict: false } => "relaxed",
            QueueKind::HuntHeap => "heap",
            QueueKind::FunnelList => "funnel",
            QueueKind::FunnelSkipQueue => "funnel-skip",
            QueueKind::Sharded => "sharded",
        }
    }

    /// Inverse of [`QueueKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|q| q.name() == s)
    }
}

/// The caller's sizing of a structure; each kind reads what it uses.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Skiplist height cap (every SkipQueue-backed kind).
    pub max_level: usize,
    /// Fixed capacity of the heap.
    pub heap_capacity: usize,
    /// First-layer width of the combining funnels.
    pub funnel_width: u32,
}

/// A handle on any simulated structure, cloned into every processor's
/// program.
#[derive(Clone)]
pub enum SimQueue {
    /// [`QueueKind::SkipQueue`].
    SkipQueue(SimSkipQueue),
    /// [`QueueKind::HuntHeap`].
    HuntHeap(SimHuntHeap),
    /// [`QueueKind::FunnelList`].
    FunnelList(SimFunnelList),
    /// [`QueueKind::FunnelSkipQueue`].
    FunnelSkipQueue(FunnelSkipQueue),
    /// [`QueueKind::Sharded`].
    Sharded(SimShardedQueue),
}

impl SimQueue {
    /// Builds an empty structure of `kind` on `sim`'s machine (out-of-band).
    pub fn create(sim: &Sim, kind: QueueKind, sizes: Sizes) -> Self {
        match kind {
            QueueKind::SkipQueue { strict } => {
                SimQueue::SkipQueue(SimSkipQueue::create(sim, sizes.max_level, strict))
            }
            QueueKind::HuntHeap => {
                SimQueue::HuntHeap(SimHuntHeap::create(sim, sizes.heap_capacity))
            }
            QueueKind::FunnelList => {
                SimQueue::FunnelList(SimFunnelList::create(sim, sizes.funnel_width))
            }
            QueueKind::FunnelSkipQueue => SimQueue::FunnelSkipQueue(FunnelSkipQueue::create(
                sim,
                sizes.max_level,
                sizes.funnel_width,
            )),
            QueueKind::Sharded => SimQueue::Sharded(SimShardedQueue::create(sim, sizes.max_level)),
        }
    }

    /// Attaches a history tap (see [`crate::tap`]).
    pub fn with_tap(self, tap: HistoryTap) -> Self {
        match self {
            SimQueue::SkipQueue(q) => SimQueue::SkipQueue(q.with_tap(tap)),
            SimQueue::HuntHeap(q) => SimQueue::HuntHeap(q.with_tap(tap)),
            SimQueue::FunnelList(q) => SimQueue::FunnelList(q.with_tap(tap)),
            SimQueue::FunnelSkipQueue(q) => SimQueue::FunnelSkipQueue(q.with_tap(tap)),
            SimQueue::Sharded(q) => SimQueue::Sharded(q.with_tap(tap)),
        }
    }

    /// Out-of-band population with `n` random keys in `[1, key_range]`.
    pub fn populate(&self, sim: &Sim, rng: &mut Pcg32, n: usize, key_range: u64) {
        match self {
            SimQueue::SkipQueue(q) => q.populate(sim, rng, n, key_range),
            SimQueue::HuntHeap(q) => q.populate(sim, rng, n, key_range),
            SimQueue::FunnelList(q) => q.populate(sim, rng, n, key_range),
            SimQueue::FunnelSkipQueue(q) => q.inner().populate(sim, rng, n, key_range),
            SimQueue::Sharded(q) => q.populate(sim, rng, n, key_range),
        };
    }

    /// Inserts `(key, value)`.
    pub async fn insert(&self, p: &Proc, key: u64, value: u64) {
        match self {
            SimQueue::SkipQueue(q) => q.insert(p, key, value).await,
            SimQueue::HuntHeap(q) => q.insert(p, key, value).await,
            SimQueue::FunnelList(q) => q.insert(p, key, value).await,
            SimQueue::FunnelSkipQueue(q) => q.insert(p, key, value).await,
            SimQueue::Sharded(q) => q.insert(p, key, value).await,
        }
    }

    /// Deletes the minimum; `None` when empty.
    pub async fn delete_min(&self, p: &Proc) -> Option<(u64, u64)> {
        match self {
            SimQueue::SkipQueue(q) => q.delete_min(p).await,
            SimQueue::HuntHeap(q) => q.delete_min(p).await,
            SimQueue::FunnelList(q) => q.delete_min(p).await,
            SimQueue::FunnelSkipQueue(q) => q.delete_min(p).await,
            SimQueue::Sharded(q) => q.delete_min(p).await,
        }
    }

    /// Out-of-band structural check; returns the item count (quiescent
    /// states only).
    pub fn check_invariants(&self, sim: &Sim) -> usize {
        match self {
            SimQueue::SkipQueue(q) => q.check_invariants(sim),
            SimQueue::HuntHeap(q) => q.check_invariants(sim),
            SimQueue::FunnelList(q) => q.check_invariants(sim),
            SimQueue::FunnelSkipQueue(q) => q.inner().check_invariants(sim),
            SimQueue::Sharded(q) => q.check_invariants(sim),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for q in QueueKind::ALL {
            assert_eq!(QueueKind::parse(q.name()), Some(q));
        }
        assert_eq!(QueueKind::parse("nope"), None);
    }
}
