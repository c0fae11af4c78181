//! # shardq — sharded multi-queue front-end over the native SkipQueue
//!
//! The paper's Relaxed SkipQueue (§5.4) gives up strict linearized
//! delete-min for throughput, but every operation still contends on a
//! single skiplist head, and the bottom-level claim walk is the scaling
//! wall. The multiqueue line of work surveyed in *Practical Concurrent
//! Priority Queues* (Gruber, 2015) removes the wall structurally: keep `k`
//! independent queues, route inserts across them, and serve `delete_min`
//! from the better of two sampled shards. The price is a further
//! relaxation of Definition 1 — the returned key is only probably the
//! minimum — which this workspace treats as a measurable quantity:
//! `histcheck`'s rank-error auditor scores recorded histories, and
//! `perfbench` reports the score as `shardq.rank_error_mean` and
//! `shardq.rank_error_p99` on its hold-sharded workload.
//!
//! [`ShardedSkipQueue`] composes two mechanisms, in one fixed
//! configuration:
//!
//! * **Sharding** — `k` cache-padded strict [`SkipQueue`]s, each running
//!   the paper's eager physical delete. Each thread routes its inserts
//!   round-robin across all shards from a thread-specific offset;
//!   `delete_min` samples two distinct shards (power-of-two choices;
//!   with `k = 2` that is both, in shard order, with no random draw),
//!   peeks each front with [`SkipQueue::peek_min_key`], and claims from
//!   the shard whose front key is smaller. At 1–2 threads, sampling one
//!   shard instead measured a mean rank error of 30–76 against 0–1.4 for
//!   two (EXPERIMENTS.md).
//! * **Exact-scan fallback** — when every sampled shard is empty the
//!   operation degrades to a scan of *all* shards, claiming from the
//!   globally smallest front; only when a full pass observes every shard
//!   empty does it return `None`. Emptiness is therefore exact, not
//!   sampled: a quiescent non-empty queue never reports empty. A
//!   `delete_min` that loses its sampled claim race takes this path too.
//!
//! Per-shard ordering stays strict (each shard keeps the paper's
//! timestamp mechanism), so the only relaxation is *which* shard a
//! claim lands on — the source of rank error is sampling, not the
//! underlying queues.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use skipqueue::{PriorityQueue, SkipQueue};

/// Sharded multi-queue: `k` native SkipQueues behind sample-2-of-`k`
/// delete-min with an exact-scan fallback. See the [module docs](self)
/// for the semantics.
///
/// `K: Copy` because the sampling probe ([`SkipQueue::peek_min_key`])
/// returns a copied key.
pub struct ShardedSkipQueue<K: Ord + Copy, V> {
    shards: Box<[CachePadded<SkipQueue<K, V>>]>,
    /// Claims that went through the exact-scan fallback (rare path, so a
    /// shared counter here doesn't perturb the sampled fast path).
    fallback_claims: CachePadded<AtomicU64>,
}

impl<K: Ord + Copy, V> ShardedSkipQueue<K, V> {
    /// `shards` strict SkipQueues with round-robin insert routing.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        Self {
            shards: (0..shards)
                .map(|_| CachePadded::new(SkipQueue::new()))
                .collect(),
            fallback_claims: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Number of shards (`k`).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Always `0`: this queue has no elimination array. Kept because
    /// perfbench reads it for its `shardq.elim_rate` metric, which a later
    /// change to the benchmark may drop.
    pub fn elimination_hits(&self) -> u64 {
        0
    }

    /// Claims served by the exact-scan fallback so far.
    pub fn fallback_claims(&self) -> u64 {
        self.fallback_claims.load(Ordering::Relaxed)
    }

    /// Per-shard lengths, for load-balance introspection.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Total items across all shards (approximate under concurrency, exact
    /// when quiescent).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when [`ShardedSkipQueue::len`] is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `value` at priority `key` into a shard chosen round-robin.
    pub fn insert(&self, key: K, value: V) {
        self.shards[self.route()].insert(key, value);
    }

    /// Removes an item of (approximately) minimum priority.
    ///
    /// Peeks two distinct shards and claims from the one with the smaller
    /// front key; a lost race or two sampled-empty shards fall back to
    /// [`ShardedSkipQueue::delete_min_exact`].
    /// Returns `None` only after a full pass observed every shard empty.
    pub fn delete_min(&self) -> Option<(K, V)> {
        let k = self.shards.len();
        if k == 1 {
            return self.shards[0].delete_min();
        }

        let (a, b) = sample_pair(k);
        let mut best: Option<(K, usize)> = None;
        for i in [a, b] {
            if let Some(key) = self.shards[i].peek_min_key() {
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, i));
                }
            }
        }

        if let Some((_, i)) = best {
            if let Some(kv) = self.shards[i].delete_min() {
                return Some(kv);
            }
        }
        self.delete_min_exact()
    }

    /// Exact-scan delete-min: peeks *every* shard, claims from the
    /// globally smallest front, retries while fronts race away, and
    /// returns `None` only once a full pass found all shards empty.
    ///
    /// Under exclusive access this is a true minimum — the quiescent
    /// drain path — which is why it is public rather than an internal
    /// fallback detail.
    pub fn delete_min_exact(&self) -> Option<(K, V)> {
        let mut fronts: Vec<(K, usize)> = Vec::with_capacity(self.shards.len());
        loop {
            fronts.clear();
            for (i, s) in self.shards.iter().enumerate() {
                if let Some(key) = s.peek_min_key() {
                    fronts.push((key, i));
                }
            }
            if fronts.is_empty() {
                return None;
            }
            fronts.sort_unstable_by_key(|a| a.0);
            for &(_, i) in fronts.iter() {
                if let Some(kv) = self.shards[i].delete_min() {
                    self.fallback_claims.fetch_add(1, Ordering::Relaxed);
                    return Some(kv);
                }
            }
            // Every observed front was claimed by someone else between the
            // peek and our attempt — system-wide progress happened, rescan.
        }
    }

    /// Drains everything in priority order. Exclusive access means the
    /// exact scan really does return the global minimum each time.
    pub fn drain_sorted(&mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(kv) = self.delete_min_exact() {
            out.push(kv);
        }
        out
    }

    /// Runs every shard's structural invariant check (exclusive access).
    pub fn check_invariants(&mut self) {
        for s in self.shards.iter_mut() {
            s.check_invariants();
        }
    }

    /// Drives every shard's quiescence GC; returns nodes freed.
    pub fn collect_garbage(&self) -> usize {
        self.shards.iter().map(|s| s.collect_garbage()).sum()
    }

    /// Retired-but-unfreed nodes across all shards.
    pub fn garbage_pending(&self) -> usize {
        self.shards.iter().map(|s| s.garbage_pending()).sum()
    }

    fn route(&self) -> usize {
        let k = self.shards.len();
        if k == 1 {
            return 0;
        }
        // Each thread strides across all shards from its own offset.
        RR.with(|c| {
            let n = c.get();
            c.set(n.wrapping_add(1));
            (thread_ordinal().wrapping_add(n)) % k
        })
    }
}

impl<K: Ord + Copy, V> PriorityQueue<K, V> for ShardedSkipQueue<K, V>
where
    K: Send + Sync,
    V: Send,
{
    fn insert(&self, key: K, value: V) {
        ShardedSkipQueue::insert(self, key, value);
    }

    fn delete_min(&self) -> Option<(K, V)> {
        ShardedSkipQueue::delete_min(self)
    }

    fn len(&self) -> usize {
        ShardedSkipQueue::len(self)
    }
}

impl<K: Ord + Copy, V> std::fmt::Debug for ShardedSkipQueue<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSkipQueue")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

thread_local! {
    /// Per-thread round-robin stride counter.
    static RR: Cell<usize> = const { Cell::new(0) };
    /// Per-thread xorshift state for shard sampling; seeded from the
    /// thread's TLS address so threads start decorrelated.
    static RNG: Cell<u64> = Cell::new(thread_seed() | 1);
}

/// A stable, well-spread per-thread integer (Fibonacci-hashed TLS
/// address) used for the round-robin offset and RNG seeding.
fn thread_seed() -> u64 {
    thread_local! {
        static TOKEN: u8 = const { 0 };
    }
    let addr = TOKEN.with(|t| t as *const u8 as usize as u64);
    addr.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn thread_ordinal() -> usize {
    (thread_seed() >> 32) as usize
}

/// The two distinct shards a `delete_min` peeks, in peek order. With two
/// shards that is both of them, without a random draw; otherwise one draw
/// `r < k(k-1)` picks an ordered pair uniformly: `a = r % k` and
/// `b = (a + 1 + r / k) % k`, which can never equal `a`.
fn sample_pair(k: usize) -> (usize, usize) {
    if k == 2 {
        return (0, 1);
    }
    let r = (rng_next() % (k * (k - 1)) as u64) as usize;
    let a = r % k;
    (a, (a + 1 + r / k) % k)
}

fn rng_next() -> u64 {
    RNG.with(|r| {
        let mut x = r.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        r.set(x);
        x
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier};

    #[test]
    fn single_shard_degenerates_to_skipqueue() {
        let q: ShardedSkipQueue<u64, u64> = ShardedSkipQueue::new(1);
        q.insert(5, 50);
        q.insert(1, 10);
        q.insert(3, 30);
        assert_eq!(q.delete_min(), Some((1, 10)));
        assert_eq!(q.delete_min(), Some((3, 30)));
        assert_eq!(q.delete_min(), Some((5, 50)));
        assert_eq!(q.delete_min(), None);
    }

    #[test]
    fn quiescent_drain_is_sorted_and_complete() {
        let mut q: ShardedSkipQueue<u64, u64> = ShardedSkipQueue::new(4);
        let mut keys: Vec<u64> = (0..500).map(|i| (i * 2654435761u64) % 10_000).collect();
        for &k in &keys {
            q.insert(k, k * 10);
        }
        assert_eq!(q.len(), keys.len());
        let drained = q.drain_sorted();
        assert_eq!(drained.len(), keys.len());
        assert!(drained.windows(2).all(|w| w[0].0 <= w[1].0));
        keys.sort_unstable();
        let got: Vec<u64> = drained.iter().map(|&(k, _)| k).collect();
        assert_eq!(got, keys);
        assert_eq!(q.fallback_claims(), keys.len() as u64);
        q.check_invariants();
    }

    #[test]
    fn exact_fallback_finds_lone_item_despite_sampling() {
        // 8 shards, one item: a two-shard sample usually misses it, so
        // this only passes because the exact-scan fallback kicks in.
        for _ in 0..32 {
            let q: ShardedSkipQueue<u64, &'static str> = ShardedSkipQueue::new(8);
            q.insert(42, "lone");
            assert_eq!(q.delete_min(), Some((42, "lone")));
            assert_eq!(q.delete_min(), None);
        }
    }

    #[test]
    fn two_shards_peek_both_fronts() {
        // With two shards the sample is both of them, so a single thread
        // gets keys spread over both shards back in exact order.
        let q: ShardedSkipQueue<u64, u64> = ShardedSkipQueue::new(2);
        for k in (0..320u64).rev() {
            q.insert(k, k);
        }
        assert!(q.shard_lens().iter().all(|&l| l > 0));
        for expect in 0..320u64 {
            assert_eq!(q.delete_min(), Some((expect, expect)));
        }
        assert_eq!(q.delete_min(), None);
    }

    #[test]
    fn sample_pair_is_two_distinct_shards() {
        assert_eq!(sample_pair(2), (0, 1));
        let mut seen = HashSet::new();
        for _ in 0..1_000 {
            let (a, b) = sample_pair(4);
            assert!(a < 4 && b < 4 && a != b, "bad pair ({a}, {b})");
            seen.insert((a, b));
        }
        assert_eq!(seen.len(), 12, "every ordered pair of 4 shards is drawn");
    }

    #[test]
    fn round_robin_touches_every_shard() {
        let q: ShardedSkipQueue<u64, u64> = ShardedSkipQueue::new(4);
        for i in 0..100 {
            q.insert(i, i);
        }
        let lens = q.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 100);
        assert!(
            lens.iter().all(|&l| l > 0),
            "round-robin left a shard empty: {lens:?}"
        );
    }

    /// The acceptance-criteria drain test: concurrent producers and
    /// consumers over the shards, then a quiescent sweep; every
    /// value inserted must come back exactly once.
    #[test]
    fn concurrent_drain_no_lost_or_duplicated_elements() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_THREAD: u64 = 2_000;

        let q: Arc<ShardedSkipQueue<u64, u64>> = Arc::new(ShardedSkipQueue::new(4));
        let barrier = Arc::new(Barrier::new(PRODUCERS + CONSUMERS));
        let done = Arc::new(AtomicBool::new(false));

        let producers: Vec<_> = (0..PRODUCERS as u64)
            .map(|t| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        // Small key range forces claim races; values stay
                        // globally unique.
                        let key = (t * PER_THREAD + i) % 97;
                        q.insert(key, t * PER_THREAD + i);
                    }
                })
            })
            .collect();

        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut got = Vec::new();
                    loop {
                        match q.delete_min() {
                            Some((_, v)) => got.push(v),
                            None if done.load(Ordering::SeqCst) => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();

        for p in producers {
            p.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        let mut seen: Vec<u64> = Vec::new();
        for c in consumers {
            seen.extend(c.join().unwrap());
        }
        // Consumers may have observed empty before the final inserts; the
        // quiescent remainder belongs in the count too.
        let q = Arc::try_unwrap(q).unwrap_or_else(|_| panic!("consumers still hold the queue"));
        let mut q = q;
        for (_, v) in q.drain_sorted() {
            seen.push(v);
        }

        let expected = (PRODUCERS as u64) * PER_THREAD;
        assert_eq!(seen.len() as u64, expected, "lost or duplicated elements");
        let unique: HashSet<u64> = seen.iter().copied().collect();
        assert_eq!(unique.len() as u64, expected, "duplicated values");
        q.check_invariants();
    }

    #[test]
    fn trait_object_usable() {
        let q: Box<dyn PriorityQueue<u64, u64>> = Box::new(ShardedSkipQueue::new(2));
        q.insert(9, 90);
        q.insert(4, 40);
        assert_eq!(q.delete_min(), Some((4, 40)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn gc_plumbs_through_shards() {
        let q: ShardedSkipQueue<u64, u64> = ShardedSkipQueue::new(2);
        for i in 0..200 {
            q.insert(i, i);
        }
        while q.delete_min().is_some() {}
        // Deletions retire nodes; collecting from a quiescent state frees
        // what they retired.
        let freed = q.collect_garbage();
        let pending = q.garbage_pending();
        assert!(freed > 0 || pending == 0, "freed={freed} pending={pending}");
    }
}
