//! A sharded multi-queue front-end: the simulated counterpart of the native
//! `shardq` crate.
//!
//! [`SHARDED_SHARDS`] independent strict SkipQueues; inserts are routed by
//! processor id, and a delete-min samples two distinct shards (shardq's
//! fixed `c = 2`) and claims from the one with the smaller front key, with
//! an exact-scan fallback. It differs from the native policy only in
//! routing and shard count. The policy is written a second time here
//! because the native crate runs it on real threads; see ROADMAP's
//! "One sharding policy".

use pqsim::{Pcg32, Proc, Sim};

use crate::skipqueue::SimSkipQueue;
use crate::tap::HistoryTap;

/// Shard count of [`SimShardedQueue`].
pub const SHARDED_SHARDS: usize = 3;

/// [`SHARDED_SHARDS`] strict SkipQueues behind shardq's delete-min policy.
#[derive(Clone)]
pub struct SimShardedQueue {
    shards: Vec<SimSkipQueue>,
}

impl SimShardedQueue {
    /// Builds [`SHARDED_SHARDS`] empty strict SkipQueues of height cap
    /// `max_level` (out-of-band).
    pub fn create(sim: &Sim, max_level: usize) -> Self {
        Self {
            shards: (0..SHARDED_SHARDS)
                .map(|_| SimSkipQueue::create(sim, max_level, true))
                .collect(),
        }
    }

    /// Attaches one history tap to every shard, so the shards record into
    /// one history.
    pub fn with_tap(self, tap: HistoryTap) -> Self {
        Self {
            shards: self
                .shards
                .into_iter()
                .map(|s| s.with_tap(tap.clone()))
                .collect(),
        }
    }

    /// Inserts into the calling processor's shard.
    pub async fn insert(&self, p: &Proc, key: u64, value: u64) {
        // Processor-id routing: deterministic, and adjacent pids
        // land on different shards so sampling has work to do.
        let i = p.pid() as usize % self.shards.len();
        self.shards[i].insert(p, key, value).await;
    }

    /// The native `shardq` delete-min policy: peek two distinct shards
    /// (shardq's fixed `c = 2`, drawn with its formula) with non-claiming
    /// probes, claim from the smaller front, fall back to an exact scan
    /// of all shards when sampling found nothing (or lost its claim
    /// race). A shard-level `delete_min` that races to empty records a
    /// `None` into the shared history — a true observation of that shard,
    /// harmless to the relaxed-contract audit (integrity ignores EMPTY
    /// deletes, and so does the rank auditor).
    pub async fn delete_min(&self, p: &Proc) -> Option<(u64, u64)> {
        let shards = &self.shards;
        let k = shards.len();
        let (a, b) = if k == 2 {
            (0, 1)
        } else {
            let r = p.gen_range_u64((k * (k - 1)) as u64) as usize;
            (r % k, (r % k + 1 + r / k) % k)
        };
        let mut best: Option<(u64, usize)> = None;
        for i in [a, b] {
            if let Some(key) = shards[i].peek_min_key(p).await {
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, i));
                }
            }
        }
        if let Some((_, i)) = best {
            if let Some(kv) = shards[i].delete_min(p).await {
                return Some(kv);
            }
        }
        // Exact-scan fallback: claim the globally smallest front; only a
        // full pass of empty shards means EMPTY. Fronts that race away
        // between the probe and the claim imply another processor made
        // progress, so rescanning preserves system-wide progress.
        loop {
            let mut fronts: Vec<(u64, usize)> = Vec::with_capacity(k);
            for (i, s) in shards.iter().enumerate() {
                if let Some(key) = s.peek_min_key(p).await {
                    fronts.push((key, i));
                }
            }
            if fronts.is_empty() {
                return None;
            }
            fronts.sort_unstable();
            for &(_, i) in &fronts {
                if let Some(kv) = shards[i].delete_min(p).await {
                    return Some(kv);
                }
            }
        }
    }

    /// Out-of-band population: deals `n` items across the shards, each
    /// shard populated by its own [`SimSkipQueue::populate`]. Returns the
    /// keys inserted, shard by shard.
    pub fn populate(&self, sim: &Sim, rng: &mut Pcg32, n: usize, key_range: u64) -> Vec<u64> {
        let k = self.shards.len();
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.populate(sim, rng, n / k + usize::from(i < n % k), key_range))
            .collect()
    }

    /// Out-of-band check of every shard; returns the total item count.
    pub fn check_invariants(&self, sim: &Sim) -> usize {
        self.shards.iter().map(|s| s.check_invariants(sim)).sum()
    }
}
