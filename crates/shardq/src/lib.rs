//! # shardq — sharded multi-queue front-end over the native SkipQueue
//!
//! The paper's Relaxed SkipQueue (§5.4) gives up strict linearized
//! delete-min for throughput, but every operation still contends on a
//! single skiplist head, and the bottom-level claim walk is the scaling
//! wall. The multiqueue line of work surveyed in *Practical Concurrent
//! Priority Queues* (Gruber, 2015) removes the wall structurally: keep `k`
//! independent queues, route inserts across them, and serve `delete_min`
//! from the best of `c` sampled shards. The price is a further relaxation
//! of Definition 1 — the returned key is only probably the minimum — which
//! this workspace treats as a measurable quantity: `histcheck`'s
//! rank-error auditor scores recorded histories, and `nbench` reports the
//! score next to the throughput it bought.
//!
//! [`ShardedSkipQueue`] composes three mechanisms:
//!
//! * **Sharding** — `k` cache-padded strict [`SkipQueue`]s, each running
//!   the paper's eager physical delete. Inserts are routed by a per-thread
//!   policy ([`InsertPolicy`]); `delete_min` samples `c` distinct shards
//!   (default `c = 2`, the classic power-of-two-choices width), peeks each
//!   front with [`SkipQueue::peek_min_key`], and claims from the shard
//!   whose front key is smallest.
//! * **Exact-scan fallback** — when every sampled shard is empty the
//!   operation degrades to a scan of *all* shards, claiming from the
//!   globally smallest front; only when a full pass observes every shard
//!   empty does it return `None`. Emptiness is therefore exact, not
//!   sampled: a quiescent non-empty queue never reports empty.
//! * **Elimination** — a `delete_min` that *lost* its sampled claim race
//!   parks briefly in a bounded elimination array (see the `elim` module
//!   docs) with the front key it observed as a bound; a concurrent
//!   `insert` with a key `<=` that bound hands its element over directly,
//!   and the matched pair completes with zero skiplist traffic.
//!
//! Per-shard ordering stays strict (each shard keeps the paper's
//! timestamp mechanism), so the only relaxation is *which* shard a
//! claim lands on — the source of rank error is sampling, not the
//! underlying queues.

mod elim;

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use elim::EliminationArray;
use skipqueue::{PriorityQueue, SkipQueue};

/// Default sampling width for `delete_min` (power-of-two-choices).
pub const DEFAULT_SAMPLE: usize = 2;

/// Sampling widths beyond this become a full scan of all shards.
const MAX_SAMPLE: usize = 8;

/// Default spin budget for a parked deleter in the elimination array.
pub const DEFAULT_ELIM_SPINS: u32 = 128;

/// How inserts pick a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertPolicy {
    /// Each thread strides round-robin across all shards from a
    /// thread-specific starting offset: uniform load, cold caches.
    RoundRobin,
    /// Each thread always inserts into one thread-specific shard: warm
    /// caches and near-zero insert contention, but a shard whose owner
    /// stops inserting can run dry and skew sampling.
    Affinity,
}

/// Sharded multi-queue: `k` native SkipQueues behind sample-`c`-of-`k`
/// delete-min and a bounded elimination array. See the [module docs](self)
/// for the semantics; construction is [`ShardedSkipQueue::new`] for the
/// defaults or [`ShardedSkipQueue::with_params`] for the full knob set.
///
/// `K: Copy` because the sampling probe ([`SkipQueue::peek_min_key`]) and
/// the elimination array both traffic in copied keys.
pub struct ShardedSkipQueue<K: Ord + Copy, V> {
    shards: Box<[CachePadded<SkipQueue<K, V>>]>,
    sample: usize,
    policy: InsertPolicy,
    elim: Option<EliminationArray<K, V>>,
    elim_spins: u32,
    /// Claims that went through the exact-scan fallback (rare path, so a
    /// shared counter here doesn't perturb the sampled fast path).
    fallback_claims: CachePadded<AtomicU64>,
}

impl<K: Ord + Copy, V> ShardedSkipQueue<K, V> {
    /// `shards` strict SkipQueues, sample width [`DEFAULT_SAMPLE`],
    /// round-robin insert routing, elimination on.
    pub fn new(shards: usize) -> Self {
        Self::with_params(shards, DEFAULT_SAMPLE, InsertPolicy::RoundRobin, true)
    }

    /// Full-knob constructor. `sample` is clamped to the shard count, and
    /// any width above 8 scans all shards (beyond that a full scan is
    /// cheaper than distinct sampling). `elimination` sizes the array at
    /// one slot per shard.
    pub fn with_params(
        shards: usize,
        sample: usize,
        policy: InsertPolicy,
        elimination: bool,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(sample >= 1, "sample width must be at least 1");
        Self {
            shards: (0..shards)
                .map(|_| CachePadded::new(SkipQueue::new()))
                .collect(),
            sample: if sample > MAX_SAMPLE {
                shards
            } else {
                sample.min(shards)
            },
            policy,
            elim: elimination.then(|| EliminationArray::new(shards)),
            elim_spins: DEFAULT_ELIM_SPINS,
            fallback_claims: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Number of shards (`k`).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Effective sampling width (`c`, after clamping).
    pub fn sample_width(&self) -> usize {
        self.sample
    }

    /// Successful elimination hand-offs so far.
    pub fn elimination_hits(&self) -> u64 {
        self.elim.as_ref().map_or(0, |e| e.hits())
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
    /// when quiescent; elimination never buffers items, so slots add 0).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when [`ShardedSkipQueue::len`] is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `value` at priority `key`: first offered to a parked
    /// deleter whose bound admits it, otherwise routed to a shard by the
    /// configured [`InsertPolicy`].
    pub fn insert(&self, key: K, value: V) {
        let (key, value) = match &self.elim {
            Some(elim) => match elim.try_eliminate(key, value) {
                Ok(()) => return,
                Err(kv) => kv,
            },
            None => (key, value),
        };
        self.shards[self.route()].insert(key, value);
    }

    /// Removes an item of (approximately) minimum priority.
    ///
    /// Samples `c` distinct shards, claims from the one with the smallest
    /// front key; a lost race parks in the elimination array; sampled-empty
    /// or unmatched parks fall back to [`ShardedSkipQueue::delete_min_exact`].
    /// Returns `None` only after a full pass observed every shard empty.
    pub fn delete_min(&self) -> Option<(K, V)> {
        let k = self.shards.len();
        if k == 1 {
            return self.shards[0].delete_min();
        }
        let c = self.sample;
        if c == 1 {
            // Random-shard delete: no peek, claim straight from one shard
            // (the classic c=1 multiqueue). Trades rank quality for a
            // single walk per claim; an empty pick falls to the exact scan.
            let i = (rng_next() % k as u64) as usize;
            if let Some(kv) = self.shards[i].delete_min() {
                return Some(kv);
            }
            return self.delete_min_exact();
        }

        let mut best: Option<(K, usize)> = None;
        if c == k {
            for (i, s) in self.shards.iter().enumerate() {
                if let Some(key) = s.peek_min_key() {
                    if best.is_none_or(|(bk, _)| key < bk) {
                        best = Some((key, i));
                    }
                }
            }
        } else {
            let mut idxs = [0usize; MAX_SAMPLE];
            let mut n = 0;
            while n < c {
                let i = (rng_next() % k as u64) as usize;
                if !idxs[..n].contains(&i) {
                    idxs[n] = i;
                    n += 1;
                }
            }
            for &i in &idxs[..c] {
                if let Some(key) = self.shards[i].peek_min_key() {
                    if best.is_none_or(|(bk, _)| key < bk) {
                        best = Some((key, i));
                    }
                }
            }
        }

        if let Some((front, i)) = best {
            if let Some(kv) = self.shards[i].delete_min() {
                return Some(kv);
            }
            // Lost the claim race: park where an insert with a key no
            // larger than the front we just saw can hand over directly.
            if let Some(elim) = &self.elim {
                if let Some(kv) = elim.park(front, self.elim_spins, thread_ordinal() % k) {
                    return Some(kv);
                }
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
        match self.policy {
            InsertPolicy::Affinity => thread_ordinal() % k,
            InsertPolicy::RoundRobin => RR.with(|c| {
                let n = c.get();
                c.set(n.wrapping_add(1));
                (thread_ordinal().wrapping_add(n)) % k
            }),
        }
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
            .field("sample", &self.sample)
            .field("policy", &self.policy)
            .field("elimination", &self.elim.is_some())
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
/// address) used for affinity routing and RNG seeding.
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
        q.check_invariants();
    }

    #[test]
    fn exact_fallback_finds_lone_item_despite_sampling() {
        // 8 shards, one item: a c=2 sample usually misses it, so this
        // only passes because the exact-scan fallback kicks in.
        for _ in 0..32 {
            let q: ShardedSkipQueue<u64, &'static str> =
                ShardedSkipQueue::with_params(8, 2, InsertPolicy::Affinity, false);
            q.insert(42, "lone");
            assert_eq!(q.delete_min(), Some((42, "lone")));
            assert_eq!(q.delete_min(), None);
        }
    }

    #[test]
    fn sample_wider_than_max_scans_every_shard() {
        // A width above MAX_SAMPLE is a full scan, so a single thread gets
        // keys spread over all 16 shards back in exact order.
        let q: ShardedSkipQueue<u64, u64> =
            ShardedSkipQueue::with_params(16, 16, InsertPolicy::RoundRobin, false);
        assert_eq!(q.sample_width(), 16);
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
    fn round_robin_touches_every_shard() {
        let q: ShardedSkipQueue<u64, u64> =
            ShardedSkipQueue::with_params(4, 2, InsertPolicy::RoundRobin, false);
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

    #[test]
    fn affinity_pins_a_thread_to_one_shard() {
        let q: ShardedSkipQueue<u64, u64> =
            ShardedSkipQueue::with_params(4, 2, InsertPolicy::Affinity, false);
        for i in 0..100 {
            q.insert(i, i);
        }
        let lens = q.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 100);
        assert_eq!(
            lens.iter().filter(|&&l| l > 0).count(),
            1,
            "affinity routing should keep one thread on one shard: {lens:?}"
        );
    }

    /// The acceptance-criteria drain test: concurrent producers and
    /// consumers over shards + elimination, then a quiescent sweep; every
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
                        // Small key range forces claim races (and thus
                        // elimination parks); values stay globally unique.
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
        assert_eq!(
            seen.len() as u64,
            expected,
            "lost or duplicated elements (elim hits: {})",
            q.elimination_hits()
        );
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
