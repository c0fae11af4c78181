//! The concurrent SkipQueue (Lotan & Shavit, IPDPS 2000) — native runtime.
//!
//! The algorithm itself (Figures 9–11, §3, §5.4) lives in the shared
//! [`pqalgo`] crate, written once as `async` control flow over
//! [`pqalgo::Platform`] hooks.
//! This module supplies the **native platform**: nodes are raw pointers,
//! `load_next`/`store_next` are `Acquire`/`Release` atomics, the level and
//! node locks are the `parking_lot` shim's `RawMutex` (`shims/parking_lot`:
//! a test-and-set lock that spins 64 times, then calls `yield_now`), and GC
//! registration is the quiescence collector ([`crate::gc`]). Every hook
//! returns an immediately-ready future, so one poll drives a whole
//! operation and the async plumbing compiles down to the same
//! straight-line code the hand-written version had. The algorithm's
//! [`pqalgo::Event`]s cost one branch each: they are recorded only when a
//! test attached a trace with [`SkipQueue::with_trace`].
//!
//! What the paper's pseudo-code maps to here:
//!
//! * **`insert`** (Figure 10): search saves the predecessor at every level,
//!   the new node is locked for the duration of linking, and levels are
//!   connected bottom-to-top, each under the predecessor's level lock
//!   re-validated by `getLock` (Figure 9).
//! * **`delete_min`** (Figure 11): traverse the bottom level from the head,
//!   skipping nodes time-stamped after the traversal began, and claim the
//!   first unmarked node with an atomic `SWAP` on its `deleted` flag. The
//!   winner then performs Pugh's physical delete: top-down, two locks per
//!   level, unlinking the node and pointing its forward pointer *backwards*
//!   at its predecessor so concurrent traversals escape gracefully.
//! * Unlinked nodes go to the quiescence collector ([`crate::gc`]).
//!
//! ## Key ownership
//!
//! A concurrent search may still compare a claimed node's key after the
//! winning deleter has returned: unlinked nodes stay reachable by walks
//! that loaded them earlier. A node therefore keeps its key until the
//! collector frees it (see the `node` module), and `delete_min` returns a
//! clone, hence its `K: Clone` bound (free for `Copy` keys).
//!
//! Locking invariant: a level's `next` in a node's tower is only written
//! while holding that same level's `lock`; reads are lock-free (`Acquire`).
//! Because a deleter holds the predecessor's level lock while unlinking,
//! holding a node's level lock also pins the node into the list at that
//! level — which is what makes `getLock`'s validation sound.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::task::{Context, Poll, Waker};

use parking_lot::lock_api::RawMutex as RawMutexApi;

use pqalgo::{Event, InsertResult, PeekPlatform, Platform, SkipAlgo};

use crate::gc::{Collector, RawGuard};
use crate::node::{IKey, Node, MAX_HEIGHT};
use crate::pq::PriorityQueue;

/// Default cap on tower height (supports ~2^24 items comfortably).
const DEFAULT_MAX_HEIGHT: usize = 24;

/// The skiplist-based concurrent priority queue.
///
/// See the [crate docs](crate) for an overview and an example. All methods
/// take `&self` and may be called from any number of threads (up to the
/// `max_threads` configured at construction).
pub struct SkipQueue<K, V> {
    head: *mut Node<K, V>,
    tail: *mut Node<K, V>,
    max_height: usize,
    p_level: f64,
    /// Strict mode runs the paper's time-stamp mechanism; relaxed mode (§5.4)
    /// omits it and may return concurrently inserted items.
    strict: bool,
    /// The quiescence collector, which also owns the queue's only clock
    /// (the paper's `getTime()`). Each call's GC pin takes one tick that
    /// doubles as the insert's FIFO sequence number and as the strict
    /// `delete_min` start time; an insert's stamp is a second tick taken
    /// after linking, and retirements take their own (see [`crate::gc`]).
    /// Its per-thread slots also hold the item counts that
    /// [`SkipQueue::len`] sums, so no shared counter is written per call.
    gc: Collector<K, V>,
    /// Test-only seams (height scripting, event tracing); `None` in
    /// production, so the fast paths pay one branch.
    hooks: Option<Box<TestHooks<K>>>,
}

// SAFETY: the queue hands out no references into nodes; keys are compared
// through &K from many threads (K: Sync via K: Send + Sync bound below) and
// key/value move between threads (Send). All node mutation is synchronized
// by the level/node locks and atomics as described in the module docs.
unsafe impl<K: Send + Sync, V: Send> Send for SkipQueue<K, V> {}
unsafe impl<K: Send + Sync, V: Send> Sync for SkipQueue<K, V> {}

impl<K: Ord, V> Default for SkipQueue<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

fn thread_rng_next() -> u64 {
    thread_local! {
        static STATE: Cell<u64> = const { Cell::new(0) };
    }
    STATE.with(|s| {
        let mut x = s.get();
        if x == 0 {
            // Seed from a global counter + the TLS address for per-thread
            // decorrelation; determinism across runs is not required here.
            static SEED: AtomicU64 = AtomicU64::new(0x0DDB_1A5E_5BAD_5EED);
            x = SEED
                .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
                .wrapping_add(s as *const Cell<u64> as u64);
            if x == 0 {
                x = 1;
            }
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x
    })
}

/// Event-trace configuration: where events go and how to flatten a key
/// to the platform-neutral `u64` the trace format uses.
struct TraceCfg<K> {
    sink: Arc<StdMutex<Vec<Event<u64>>>>,
    key_fn: fn(&K) -> u64,
}

/// Deterministic test seams. All `None`/empty in production.
struct TestHooks<K> {
    /// Heights consumed (front first) by inserts before falling back to the
    /// RNG — lets a test replay a recorded schedule's exact towers.
    height_script: StdMutex<VecDeque<usize>>,
    trace: Option<TraceCfg<K>>,
}

impl<K> TestHooks<K> {
    fn new() -> Self {
        Self {
            height_script: StdMutex::new(VecDeque::new()),
            trace: None,
        }
    }
}

/// Drives a native-platform future to completion with a single poll: every
/// hook returns `Poll::Ready` immediately, so the shared `async` algorithm
/// compiles down to the straight-line code of the hand-written version.
fn drive<F: std::future::Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    match fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => unreachable!("native platform futures never suspend"),
    }
}

/// The native [`Platform`]: one is stack-allocated per public-API call.
/// Operands go in through `input` before the algorithm runs; results come
/// back out of `out` after it returns (key/value ownership never crosses
/// the platform trait). A `delete_min` op also carries `clone_key`: the
/// node keeps its key until it is freed, so the winner returns a clone.
/// The GC pin lives here rather than in the algorithm's context because
/// `insert_prepare` reads its tick as the FIFO sequence number.
///
/// SAFETY (for every raw dereference below): the algorithm only hands back
/// node handles it reached between this platform's `enter`/`exit` hooks,
/// i.e. under a GC pin, so the nodes cannot be freed; unlinked nodes'
/// forward pointers lead back into the list (the paper's backward-pointer
/// trick). Lock/unlock pairing is enforced by the shared algorithm.
struct NativeOp<'q, K, V> {
    q: &'q SkipQueue<K, V>,
    input: Cell<Option<(K, V)>>,
    out: Cell<Option<(K, V)>>,
    clone_key: Option<fn(&K) -> K>,
    /// Set by the `enter` hook and kept after `exit`, so the caller can
    /// count the finished operation in its slot.
    pin: Cell<Option<RawGuard>>,
}

impl<'q, K: Ord, V> NativeOp<'q, K, V> {
    fn new(q: &'q SkipQueue<K, V>) -> Self {
        Self {
            q,
            input: Cell::new(None),
            out: Cell::new(None),
            clone_key: None,
            pin: Cell::new(None),
        }
    }

    /// The operation's GC pin (set by the `enter` hook).
    fn guard(&self) -> RawGuard {
        self.pin.get().expect("operation is pinned")
    }

    /// An op that may claim a node and return its key.
    fn deleting(q: &'q SkipQueue<K, V>) -> Self
    where
        K: Clone,
    {
        Self {
            clone_key: Some(K::clone),
            ..Self::new(q)
        }
    }
}

/// Flattens a node's key for the event trace: head ⇒ 0, tail ⇒
/// `u64::MAX`, real keys through the configured projection.
///
/// # Safety
///
/// `node` must be reachable under the caller's pin (nodes keep their keys
/// until dealloc).
unsafe fn flat_trace_key<K, V>(key_fn: fn(&K) -> u64, node: *mut Node<K, V>) -> u64 {
    // SAFETY: per contract.
    unsafe {
        match &(*node).key {
            IKey::NegInf => 0,
            IKey::PosInf => u64::MAX,
            IKey::Val(k, _) => key_fn(k),
        }
    }
}

impl<K: Ord, V> Platform for NativeOp<'_, K, V> {
    type Node = *mut Node<K, V>;
    // Search operands are node pointers too: the key (with its FIFO
    // sequence number) lives inside the new/victim node.
    type SearchKey = *mut Node<K, V>;
    type Prep = *mut Node<K, V>;
    type Ctx = ();

    // The native queue is a multiset (duplicate priorities get fresh
    // nodes), already holds the victim pointer after the claim, and reads
    // stamps for free (the `u64::MAX` filter also skips mid-insert nodes
    // and the head sentinel in relaxed mode).
    const DICT_INSERT: bool = false;
    const REFIND_VICTIM: bool = false;
    const RELAXED_CLAIM_READS_STAMP: bool = true;

    async fn enter(&self) {
        self.pin.set(Some(self.q.gc.enter()));
    }

    async fn exit(&self, _ctx: &mut ()) {
        self.q.gc.exit(self.guard());
    }

    fn insert_prepare(&self) -> (Self::SearchKey, Self::Prep) {
        let (key, value) = self.input.take().expect("insert operand staged");
        let height = self.q.next_height();
        // The pin's tick is unique, and an insert that finished before this
        // one began ticked first, so equal priorities leave in FIFO order.
        let ikey = IKey::Val(key, self.guard().tick);
        let node = Node::alloc(ikey, Some(value), height);
        (node, node)
    }

    fn materialize(&self, prep: Self::Prep, _skey: Self::SearchKey) -> (Self::Node, usize) {
        // SAFETY: freshly allocated in `insert_prepare`, exclusively owned
        // until linked.
        (prep, unsafe { (*prep).height() })
    }

    async fn update_in_place(&self, _node: Self::Node) {
        unreachable!("native insert is multiset (DICT_INSERT = false)");
    }

    async fn store_stamp(&self, node: Self::Node) {
        // A fresh tick, taken after linking: a delete whose pin ticked
        // later is guaranteed to see the node (Definition 1).
        // SAFETY: module-level platform contract (pinned node).
        unsafe { (*node).timestamp.store(self.q.gc.tick(), Ordering::Release) }
    }

    async fn load_next(&self, node: Self::Node, lvl: usize) -> Self::Node {
        // SAFETY: platform contract.
        unsafe { Node::next(node, lvl) }
    }

    async fn store_next(&self, node: Self::Node, lvl: usize, to: Self::Node) {
        // SAFETY: platform contract; the algorithm holds `node`'s level
        // lock here (locking invariant in the module docs).
        unsafe { Node::level(node, lvl).next.store(to, Ordering::Release) }
    }

    async fn store_next_init(&self, node: Self::Node, lvl: usize, to: Self::Node) {
        // SAFETY: `node` is unpublished (this insert's own); Relaxed is
        // enough because the publishing store below it is Release.
        unsafe { Node::level(node, lvl).next.store(to, Ordering::Relaxed) }
    }

    async fn key_lt(&self, node: Self::Node, skey: Self::SearchKey) -> bool {
        // SAFETY: platform contract; keys are compared through shared refs.
        unsafe { (*node).key < (*skey).key }
    }

    async fn key_eq(&self, node: Self::Node, skey: Self::SearchKey) -> bool {
        // SAFETY: platform contract.
        unsafe { (*node).key == (*skey).key }
    }

    async fn lock_level(&self, node: Self::Node, lvl: usize) {
        // SAFETY: platform contract.
        unsafe { Node::level(node, lvl).lock.lock() }
    }

    async fn unlock_level(&self, node: Self::Node, lvl: usize) {
        // SAFETY: platform contract; the algorithm pairs every unlock with
        // its own earlier lock.
        unsafe { Node::level(node, lvl).lock.unlock() }
    }

    async fn lock_node(&self, node: Self::Node) {
        // SAFETY: platform contract.
        unsafe { (*node).node_lock.lock() }
    }

    async fn unlock_node(&self, node: Self::Node) {
        // SAFETY: platform contract (paired with `lock_node`).
        unsafe { (*node).node_lock.unlock() }
    }

    async fn delete_read_clock(&self, _ctx: &mut ()) -> u64 {
        // The pin's tick was taken after this call began, from the clock
        // every insert stamps itself with.
        self.guard().tick
    }

    async fn load_stamp(&self, node: Self::Node) -> u64 {
        // SAFETY: platform contract.
        unsafe { (*node).timestamp.load(Ordering::Acquire) }
    }

    async fn load_deleted(&self, node: Self::Node) -> bool {
        // SAFETY: platform contract.
        unsafe { (*node).deleted.load(Ordering::Acquire) }
    }

    async fn swap_deleted(&self, node: Self::Node) -> bool {
        // SAFETY: platform contract.
        unsafe { (*node).deleted.swap(true, Ordering::AcqRel) }
    }

    async fn take_payload(&self, node: Self::Node) {
        let clone_key = self.clone_key.expect("delete_min stages a key cloner");
        // SAFETY: we are the unique winner of the `deleted` swap; nobody
        // else touches the value (the mark is never cleared). The key stays
        // in the node for concurrent readers; the caller gets a clone.
        unsafe {
            let value = (*(*node).value.get())
                .take()
                .expect("claimed node has a value");
            let IKey::Val(key, _) = &(*node).key else {
                unreachable!("claimed a sentinel")
            };
            self.out.set(Some((clone_key(key), value)));
        }
    }

    fn victim_search_key(&self, victim: Self::Node) -> Self::SearchKey {
        victim
    }

    async fn victim_height(&self, victim: Self::Node) -> usize {
        // SAFETY: platform contract.
        unsafe { (*victim).height() }
    }

    fn debug_check_pred(&self, pred: Self::Node, victim: Self::Node, lvl: usize) {
        // SAFETY: the algorithm holds `pred`'s level lock here.
        unsafe { debug_assert_eq!(Node::next(pred, lvl), victim, "pred must point at victim") }
    }

    async fn retire_one(&self, victim: Self::Node, _height: usize) {
        // SAFETY: this caller unlinked `victim` and holds the pin.
        unsafe { self.q.gc.retire(self.guard(), victim) };
    }

    fn observe(&self, _ctx: &mut (), event: Event<Self::Node>) {
        if let Some(cfg) = self.q.hooks.as_ref().and_then(|h| h.trace.as_ref()) {
            // SAFETY: an event names a node this operation reached under its
            // pin, and nodes keep their keys until dealloc.
            let event = event.map(|node| unsafe { flat_trace_key(cfg.key_fn, node) });
            cfg.sink.lock().expect("trace sink poisoned").push(event);
        }
    }
}

impl<K: Ord + Copy, V> PeekPlatform for NativeOp<'_, K, V> {
    type PeekKey = K;

    async fn peek_key(&self, node: Self::Node) -> Option<K> {
        // SAFETY: platform contract; nodes keep their keys until freed.
        unsafe {
            match &(*node).key {
                IKey::Val(k, _) => Some(*k),
                _ => None,
            }
        }
    }
}

impl<K: Ord, V> SkipQueue<K, V> {
    /// Creates a queue with the paper's strict (time-stamped) semantics and
    /// default parameters: height cap 24, level probability 1/2, up to 256
    /// threads.
    pub fn new() -> Self {
        Self::with_params(DEFAULT_MAX_HEIGHT, 0.5, true, 256)
    }

    /// Creates the paper's *relaxed* variant (§5.4): no time stamps, so a
    /// `delete_min` may return an item whose insert was concurrent with it.
    pub fn new_relaxed() -> Self {
        Self::with_params(DEFAULT_MAX_HEIGHT, 0.5, false, 256)
    }

    /// Full-control constructor.
    ///
    /// * `max_height` — tower cap, `1..=32`; ~log2 of the expected maximum
    ///   queue size is ideal (the paper uses exactly this "simple method").
    /// * `p_level` — probability a tower grows another level (paper: 1/2).
    /// * `strict` — run the time-stamp ordering mechanism.
    /// * `max_threads` — bound on distinct threads ever touching the queue.
    pub fn with_params(max_height: usize, p_level: f64, strict: bool, max_threads: usize) -> Self {
        assert!((1..=MAX_HEIGHT).contains(&max_height));
        assert!(p_level > 0.0 && p_level < 1.0);
        let tail = Node::alloc(IKey::PosInf, None, max_height);
        let head = Node::alloc(IKey::NegInf, None, max_height);
        // SAFETY: freshly allocated, exclusively owned here.
        unsafe {
            for lvl in 0..max_height {
                Node::level(head, lvl).next.store(tail, Ordering::Relaxed);
            }
        }
        Self {
            head,
            tail,
            max_height,
            p_level,
            strict,
            gc: Collector::new(max_threads),
            hooks: None,
        }
    }

    /// Approximate number of items: the sum of per-thread counts that each
    /// thread updates without a shared read-modify-write. Exact when no
    /// operations are in flight; while some are, an insert counted on one
    /// thread and its delete on another can be seen in either order, so the
    /// sum may momentarily be off (never below zero).
    pub fn len(&self) -> usize {
        self.gc.len().max(0) as usize
    }

    /// True when [`SkipQueue::len`] is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this queue runs the strict (time-stamped) protocol.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// The shared-algorithm descriptor for this queue's configuration.
    fn algo(&self) -> SkipAlgo<*mut Node<K, V>> {
        SkipAlgo {
            head: self.head,
            tail: self.tail,
            max_height: self.max_height,
            strict: self.strict,
        }
    }

    fn random_height(&self) -> usize {
        if self.p_level == 0.5 {
            // One RNG word decides the whole tower: each consecutive set low
            // bit is an independent p = 1/2 "grow another level" success, so
            // `1 + trailing_ones` has exactly the right geometric law and
            // costs one xorshift instead of one per level.
            let h = 1 + thread_rng_next().trailing_ones() as usize;
            return h.min(self.max_height);
        }
        let mut h = 1;
        let threshold = (self.p_level * 2f64.powi(32)) as u64;
        while h < self.max_height && (thread_rng_next() & 0xFFFF_FFFF) < threshold {
            h += 1;
        }
        h
    }

    /// Tower height for the next insert: scripted (tests) or random.
    fn next_height(&self) -> usize {
        if let Some(hooks) = &self.hooks {
            if let Some(h) = hooks.height_script.lock().unwrap().pop_front() {
                return h;
            }
        }
        self.random_height()
    }

    /// Inserts `value` with priority `key` (Figure 10). Always adds an
    /// entry; duplicate priorities are returned in insertion order.
    pub fn insert(&self, key: K, value: V) {
        let op = NativeOp::new(self);
        op.input.set(Some((key, value)));
        let res = drive(self.algo().insert(&op));
        debug_assert_eq!(res, InsertResult::Inserted);
        self.gc.add_len(op.guard(), 1);
    }

    /// Removes and returns the minimum entry (Figure 11), or `None` if no
    /// claimable entry is found.
    ///
    /// In strict mode the returned entry is the minimum over all inserts
    /// that completed before this call began, minus already-claimed
    /// deletions (the paper's Definition 1). In relaxed mode a concurrently
    /// inserted smaller entry may be returned instead.
    pub fn delete_min(&self) -> Option<(K, V)>
    where
        K: Clone,
    {
        let op = NativeOp::deleting(self);
        if drive(self.algo().delete_min(&op)) {
            self.gc.add_len(op.guard(), -1);
            Some(op.out.take().expect("winning delete filled the result"))
        } else {
            None
        }
    }

    /// Checks structural invariants. Takes `&mut self` so it can only run
    /// quiescently (tests).
    pub fn check_invariants(&mut self) {
        // SAFETY: &mut self — no concurrent operations.
        unsafe {
            let mut live = 0usize;
            for lvl in (0..self.max_height).rev() {
                let mut prev = self.head;
                let mut cur = Node::next(prev, lvl);
                while cur != self.tail {
                    assert!((*prev).key < (*cur).key, "level {lvl} out of order");
                    assert!((*cur).height() > lvl, "node linked above its height");
                    assert!(
                        !(*cur).deleted.load(Ordering::Relaxed),
                        "marked node still linked in quiescent state"
                    );
                    if lvl == 0 {
                        live += 1;
                        assert_ne!(
                            (*cur).timestamp.load(Ordering::Relaxed),
                            u64::MAX,
                            "linked node with incomplete insert in quiescent state"
                        );
                    }
                    prev = cur;
                    cur = Node::next(cur, lvl);
                }
            }
            assert_eq!(live, self.len(), "len out of sync with bottom level");
        }
    }

    /// Forces a garbage-collection cycle; returns the number of nodes freed.
    /// Safe to call from any thread, pinned or not: the horizon is capped at
    /// a clock tick taken before the scan (see [`crate::gc`]).
    pub fn collect_garbage(&self) -> usize {
        self.gc.collect()
    }

    /// Number of retired nodes not yet freed (diagnostics).
    pub fn garbage_pending(&self) -> usize {
        self.gc.pending()
    }

    fn hooks_mut(&mut self) -> &mut TestHooks<K> {
        self.hooks.get_or_insert_with(|| Box::new(TestHooks::new()))
    }

    /// Test seam: pre-loads tower heights consumed (front first) by
    /// subsequent inserts, so a recorded schedule replays with identical
    /// skiplist shape. Falls back to the RNG when the script runs dry.
    #[doc(hidden)]
    #[must_use]
    pub fn with_height_script<I: IntoIterator<Item = usize>>(mut self, heights: I) -> Self {
        self.hooks_mut()
            .height_script
            .lock()
            .unwrap()
            .extend(heights);
        self
    }

    /// Test seam: records every [`Event`] the algorithm reports (heights,
    /// stamps, claims, retirements, delete-min returns) into `sink`,
    /// flattening keys through `key_fn`.
    #[doc(hidden)]
    #[must_use]
    pub fn with_trace(
        mut self,
        sink: Arc<StdMutex<Vec<Event<u64>>>>,
        key_fn: fn(&K) -> u64,
    ) -> Self {
        self.hooks_mut().trace = Some(TraceCfg { sink, key_fn });
        self
    }
}

impl<K: Ord + Copy, V> SkipQueue<K, V> {
    /// Returns a copy of the smallest unclaimed priority without claiming
    /// it, or `None` when no unmarked node is found.
    ///
    /// This is the cheap front-key probe a sampling front-end (e.g. a
    /// sharded multi-queue choosing between `c` candidate shards) needs:
    /// one bottom-level walk from the head, no SWAP, no locks.
    ///
    /// The result is a *relaxed snapshot*: the returned key belonged to a
    /// node that was linked and unclaimed at some instant during the call,
    /// but a concurrent `delete_min` may claim it (or a concurrent `insert`
    /// may link a smaller key) before the caller acts on it. Strict-mode
    /// timestamps are deliberately ignored — a probe is not a claim, so
    /// Definition 1 does not apply to it.
    ///
    /// Requires `K: Copy`: the probe returns the key by value.
    pub fn peek_min_key(&self) -> Option<K> {
        let op = NativeOp::new(self);
        drive(self.algo().peek_min_key(&op))
    }
}

impl<K: Ord + Clone, V> PriorityQueue<K, V> for SkipQueue<K, V>
where
    K: Send + Sync,
    V: Send,
{
    fn insert(&self, key: K, value: V) {
        SkipQueue::insert(self, key, value);
    }

    fn delete_min(&self) -> Option<(K, V)> {
        SkipQueue::delete_min(self)
    }

    fn len(&self) -> usize {
        SkipQueue::len(self)
    }
}

impl<K: Ord + Clone, V> SkipQueue<K, V> {
    /// Drains the queue in priority order. Requires exclusive access, so it
    /// observes a quiescent state and returns *everything*.
    pub fn drain_sorted(&mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(kv) = self.delete_min() {
            out.push(kv);
        }
        out
    }
}

impl<K, V> std::fmt::Debug for SkipQueue<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipQueue")
            .field("len", &self.gc.len())
            .field("max_height", &self.max_height)
            .field("strict", &self.strict)
            .finish_non_exhaustive()
    }
}

impl<K: Ord, V> Extend<(K, V)> for SkipQueue<K, V> {
    fn extend<T: IntoIterator<Item = (K, V)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for SkipQueue<K, V> {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut q = SkipQueue::new();
        q.extend(iter);
        q
    }
}

impl<K, V> Drop for SkipQueue<K, V> {
    fn drop(&mut self) {
        // SAFETY: &mut self — exclusive. Free every node still linked at the
        // bottom level, then the sentinels; the collector's own Drop frees
        // retired nodes.
        unsafe {
            let mut cur = Node::next(self.head, 0);
            while cur != self.tail {
                let next = Node::next(cur, 0);
                Node::dealloc(cur);
                cur = next;
            }
            Node::dealloc(self.head);
            Node::dealloc(self.tail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;
    use std::sync::Arc;

    #[test]
    fn empty_queue() {
        let q: SkipQueue<u64, u64> = SkipQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.delete_min(), None);
    }

    #[test]
    fn single_thread_ordering() {
        let mut q = SkipQueue::new();
        for k in [5u64, 1, 9, 3, 7, 0, 8, 2, 6, 4] {
            q.insert(k, k * 10);
        }
        q.check_invariants();
        for expect in 0..10u64 {
            let (k, v) = q.delete_min().unwrap();
            assert_eq!(k, expect);
            assert_eq!(v, expect * 10);
        }
        assert_eq!(q.delete_min(), None);
        q.check_invariants();
    }

    #[test]
    fn duplicate_priorities_fifo() {
        let q = SkipQueue::new();
        q.insert(1u64, "a");
        q.insert(1, "b");
        q.insert(0, "z");
        q.insert(1, "c");
        assert_eq!(q.delete_min(), Some((0, "z")));
        assert_eq!(q.delete_min(), Some((1, "a")));
        assert_eq!(q.delete_min(), Some((1, "b")));
        assert_eq!(q.delete_min(), Some((1, "c")));
    }

    #[test]
    fn duplicate_priorities_fifo_across_threads() {
        // Thread A's insert finishes before thread B's begins, so A's pin
        // ticked first and its entry must leave first.
        let q = SkipQueue::new();
        for round in 0..20u64 {
            for who in ["a", "b", "c"] {
                std::thread::scope(|s| {
                    s.spawn(|| q.insert(round, who));
                });
            }
        }
        for round in 0..20u64 {
            for who in ["a", "b", "c"] {
                assert_eq!(q.delete_min(), Some((round, who)));
            }
        }
    }

    #[test]
    fn len_is_exact_when_inserts_and_deletes_run_on_different_threads() {
        let mut q: SkipQueue<u64, u64> = SkipQueue::new();
        // Both threads stay alive until the deletes are done: a thread
        // started after another exited may reuse its thread-local address,
        // and with it the exited thread's slot.
        let turn = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                (0..100).for_each(|k| q.insert(k, k));
                turn.wait();
                turn.wait();
            });
            s.spawn(|| {
                turn.wait();
                (0..40).for_each(|_| assert!(q.delete_min().is_some()));
                turn.wait();
            });
        });
        // The deleting thread's own count went negative; only the sum is
        // meaningful.
        assert_eq!(q.gc.slot_lens(), vec![100, -40]);
        assert_eq!(q.len(), 60);
        q.check_invariants();
    }

    #[test]
    fn randomized_against_binary_heap() {
        let mut q = SkipQueue::new();
        let mut reference = BinaryHeap::new();
        let mut state = 7u64;
        for i in 0..5_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(3) {
                let got = q.delete_min().map(|(k, _)| k);
                let want = reference.pop().map(|std::cmp::Reverse(k)| k);
                assert_eq!(got, want, "step {i}");
            } else {
                let k = state >> 32;
                q.insert(k, ());
                reference.push(std::cmp::Reverse(k));
            }
        }
        assert_eq!(q.len(), reference.len());
        q.check_invariants();
    }

    #[test]
    fn concurrent_inserts_then_drain() {
        let q = Arc::new(SkipQueue::new());
        let per_thread = 500u64;
        let threads = 8u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..per_thread {
                        q.insert(t * per_thread + i, t);
                    }
                });
            }
        });
        let mut q = Arc::into_inner(q).unwrap();
        q.check_invariants();
        assert_eq!(q.len() as u64, threads * per_thread);
        let mut prev = None;
        let mut count = 0;
        while let Some((k, _)) = q.delete_min() {
            if let Some(p) = prev {
                assert!(k > p, "out of order: {p} then {k}");
            }
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, threads * per_thread);
    }

    #[test]
    fn concurrent_mixed_workload_conserves_items() {
        let q = Arc::new(SkipQueue::new());
        let threads = 8usize;
        let ops = 2_000usize;
        let deleted: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        let mut state = (t as u64 + 1) * 0x9E37_79B9;
                        let mut inserted = 0u64;
                        for _ in 0..ops {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            if state.is_multiple_of(2) {
                                q.insert(state >> 16, t as u64);
                                inserted += 1;
                            } else if let Some((k, _)) = q.delete_min() {
                                got.push(k);
                            }
                        }
                        (inserted, got)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total_inserted: u64 = deleted.iter().map(|(i, _)| i).sum();
        let total_deleted: usize = deleted.iter().map(|(_, g)| g.len()).sum();
        assert_eq!(
            q.len() as u64,
            total_inserted - total_deleted as u64,
            "conservation of items"
        );
        let mut q = Arc::into_inner(q).unwrap();
        q.check_invariants();
    }

    #[test]
    fn no_item_delivered_twice() {
        let q = Arc::new(SkipQueue::new());
        let n = 4_000u64;
        for k in 0..n {
            q.insert(k, ());
        }
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some((k, _)) = q.delete_min() {
                            got.push(k);
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(all.len() as u64, n);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, n, "duplicates delivered");
    }

    #[test]
    fn relaxed_mode_also_conserves_items() {
        let q = Arc::new(SkipQueue::new_relaxed());
        assert!(!q.is_strict());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        q.insert(t * 10_000 + i, ());
                        if i % 2 == 0 {
                            q.delete_min();
                        }
                    }
                });
            }
        });
        let mut q = Arc::into_inner(q).unwrap();
        q.check_invariants();
        assert_eq!(q.len(), 4 * 1_000 - 4 * 500);
    }

    #[test]
    fn garbage_is_eventually_reclaimed() {
        let q: SkipQueue<u64, u64> = SkipQueue::new();
        for k in 0..500 {
            q.insert(k, k);
        }
        for _ in 0..500 {
            q.delete_min().unwrap();
        }
        q.collect_garbage();
        assert_eq!(q.garbage_pending(), 0);
    }

    #[test]
    fn drop_frees_values() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);

        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }

        {
            let q = SkipQueue::new();
            for k in 0..100u64 {
                q.insert(k, Tracked);
            }
            for _ in 0..40 {
                drop(q.delete_min().unwrap().1);
            }
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn string_keys_and_values() {
        let q: SkipQueue<String, String> = SkipQueue::new();
        q.insert("banana".into(), "yellow".into());
        q.insert("apple".into(), "red".into());
        q.insert("cherry".into(), "dark".into());
        assert_eq!(
            q.delete_min(),
            Some(("apple".to_string(), "red".to_string()))
        );
        assert_eq!(
            q.delete_min(),
            Some(("banana".to_string(), "yellow".to_string()))
        );
    }

    #[test]
    fn min_height_queue_works() {
        let mut q: SkipQueue<u64, ()> = SkipQueue::with_params(1, 0.5, true, 4);
        for k in [3u64, 1, 2] {
            q.insert(k, ());
        }
        q.check_invariants();
        assert_eq!(q.delete_min().map(|(k, _)| k), Some(1));
    }

    #[test]
    fn drain_sorted_and_from_iterator() {
        let mut q: SkipQueue<u64, &str> = [(3u64, "c"), (1, "a"), (2, "b")].into_iter().collect();
        assert_eq!(q.len(), 3);
        let drained = q.drain_sorted();
        assert_eq!(drained, vec![(1, "a"), (2, "b"), (3, "c")]);
        assert!(q.is_empty());
    }

    #[test]
    fn extend_adds_items() {
        let mut q: SkipQueue<u64, u64> = SkipQueue::new();
        q.extend((0..10).map(|k| (k, k * 2)));
        assert_eq!(q.len(), 10);
        assert_eq!(q.delete_min(), Some((0, 0)));
    }

    #[test]
    fn debug_output_mentions_fields() {
        let q: SkipQueue<u64, u64> = SkipQueue::new();
        q.insert(1, 1);
        let s = format!("{q:?}");
        assert!(s.contains("SkipQueue"));
        assert!(s.contains("len"));
        assert!(s.contains("strict"));
    }

    #[test]
    fn strict_ordering_smoke() {
        // A completed insert must be visible to a subsequent delete_min.
        let q = SkipQueue::new();
        for round in 0..200u64 {
            q.insert(round, ());
            let (k, _) = q.delete_min().expect("completed insert must be seen");
            assert_eq!(k, round);
        }
    }

    #[test]
    fn peek_min_key_eager_tracks_minimum() {
        let q: SkipQueue<u64, u64> = SkipQueue::new();
        assert_eq!(q.peek_min_key(), None);
        for k in [7u64, 3, 9, 5] {
            q.insert(k, k);
        }
        assert_eq!(q.peek_min_key(), Some(3));
        q.insert(1, 1);
        assert_eq!(q.peek_min_key(), Some(1));
        assert_eq!(q.delete_min().map(|(k, _)| k), Some(1));
        assert_eq!(q.peek_min_key(), Some(3));
        // Peeking never claims: the length is untouched.
        assert_eq!(q.len(), 4);
        while q.delete_min().is_some() {}
        assert_eq!(q.peek_min_key(), None);
    }

    #[test]
    fn peek_min_key_concurrent_smoke() {
        let q = Arc::new(SkipQueue::<u64, ()>::new());
        for k in 0..2_000u64 {
            q.insert(k + 1, ());
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    while let Some((k, _)) = q.delete_min() {
                        assert!(k >= 1);
                    }
                });
            }
            let q = Arc::clone(&q);
            s.spawn(move || {
                // Probes racing the drain must only ever see live keys.
                while let Some(k) = q.peek_min_key() {
                    assert!((1..=2_000).contains(&k));
                }
            });
        });
    }

    #[test]
    fn random_height_distribution_sane() {
        // The one-word fast path must keep the geometric(1/2) shape: about
        // half the towers are height 1, none exceed the cap.
        let q: SkipQueue<u64, ()> = SkipQueue::with_params(8, 0.5, true, 4);
        let mut counts = [0usize; 9];
        for _ in 0..20_000 {
            let h = q.random_height();
            assert!((1..=8).contains(&h));
            counts[h] += 1;
        }
        let h1 = counts[1] as f64 / 20_000.0;
        assert!((0.4..0.6).contains(&h1), "P(h=1) = {h1}, expected ~0.5");
        assert!(counts[8] > 0, "cap level never reached in 20k draws");
    }

    #[test]
    fn height_script_consumed_in_order() {
        let mut q: SkipQueue<u64, ()> = SkipQueue::new().with_height_script([3usize, 1, 2]);
        q.insert(10, ());
        q.insert(20, ());
        q.insert(30, ());
        q.check_invariants();
        // SAFETY-free structural probe: drain and confirm contents survive
        // scripted (non-random) towers.
        assert_eq!(
            q.drain_sorted().iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn trace_records_insert_and_delete_decisions() {
        let sink = Arc::new(StdMutex::new(Vec::new()));
        let q: SkipQueue<u64, ()> = SkipQueue::new()
            .with_height_script([1usize, 1])
            .with_trace(Arc::clone(&sink), |k| *k);
        q.insert(5, ());
        q.insert(7, ());
        assert_eq!(q.delete_min().map(|(k, _)| k), Some(5));
        assert_eq!(q.delete_min().map(|(k, _)| k), Some(7));
        assert_eq!(q.delete_min(), None);
        let events = sink.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                Event::Height(1),
                Event::Stamp(5),
                Event::Height(1),
                Event::Stamp(7),
                Event::Claim(5),
                Event::Retire(5),
                Event::Deleted,
                Event::Claim(7),
                Event::Retire(7),
                Event::Deleted,
                Event::Empty,
            ]
        );
    }
}
