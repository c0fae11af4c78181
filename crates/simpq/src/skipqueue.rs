//! The SkipQueue on the simulated machine.
//!
//! The algorithm itself — Figures 9, 10 and 11 and the relaxed §5.4
//! variant — lives in the shared [`pqalgo`] crate; this module supplies the
//! *simulated platform* it runs on. Every `READ`/`WRITE`/`SWAP`,
//! every semaphore acquire/release, and every `getTime()` a hook issues is a
//! charged, globally visible simulated operation. Purely address-arithmetic
//! artifacts of the simulation (finding a node's lock id, which in the
//! original C sits at a fixed struct offset) are free.
//!
//! Observation is free too. The algorithm reports each named step as a
//! [`pqalgo::Event`] through `Platform::observe`, which runs host-side:
//! it records operations into the history tap ([`crate::tap`]), stamps a
//! relaxed delete's linearization time at its claim, and appends to the
//! optional event trace of the differential tests.
//!
//! Node layout (words from the node base):
//!
//! ```text
//! +0 key   +1 value   +2 level   +3 deleted   +4 timeStamp   +5 nodeLockId
//! +6+2i    next[i]                (i = 0..level)
//! +7+2i    lockId[i]
//! ```
//!
//! Sentinel keys: the head holds [`KEY_NEG_INF`] (0) and the tail
//! [`KEY_POS_INF`] (`u64::MAX`); user keys must lie strictly between.
//!
//! The queue is a multiset, like the native one: every insert links a new
//! node, and nodes order by `(key, address)`, so equal keys are separate
//! entries. The address tie-break is local arithmetic and costs nothing;
//! each comparison still charges one READ of the other node's key.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use pqalgo::{Event, PeekPlatform, Platform, SkipAlgo};
use pqsim::{Addr, Cycles, LockId, Machine, Pcg32, Proc, Sim, Word, NULL};

use crate::tap::HistoryTap;

/// Reserved key of the head sentinel.
pub const KEY_NEG_INF: u64 = 0;
/// Reserved key of the tail sentinel.
pub const KEY_POS_INF: u64 = u64::MAX;

/// Timestamp of a node whose insertion has not completed (`MAX_TIME`).
pub const MAX_TIME: u64 = u64::MAX;

const KEY: u32 = 0;
const VALUE: u32 = 1;
const LEVEL: u32 = 2;
const DELETED: u32 = 3;
const TIMESTAMP: u32 = 4;
const NODE_LOCK: u32 = 5;
const TOWER: u32 = 6;

fn next_addr(node: Addr, lvl: usize) -> Addr {
    node + TOWER + 2 * lvl as u32
}

fn level_lock_addr(node: Addr, lvl: usize) -> Addr {
    node + TOWER + 2 * lvl as u32 + 1
}

fn node_words(height: usize) -> u32 {
    TOWER + 2 * height as u32
}

/// The simulator-hosted SkipQueue. Clones share the one queue: the handle
/// is cloned into every processor's program.
#[derive(Clone)]
pub struct SimSkipQueue {
    head: Addr,
    tail: Addr,
    max_level: usize,
    strict: bool,
    /// Entry-time registry (one word per processor), the paper's §3 GC
    /// bookkeeping: processors post their entry time on the way in and
    /// `MAX_TIME` on the way out.
    registry: Addr,
    nproc: u32,
    /// Host-side garbage lists: (node base, words). The simulated arena is
    /// virtual, so reuse is unnecessary; the paper's reclamation *protocol*
    /// (registry + stamped garbage lists) is what we model.
    garbage: Rc<RefCell<Vec<(Addr, u32, Cycles)>>>,
    /// Optional history sink. Strict mode stamps at serialization points
    /// (insert: the `timeStamp` clock value; delete: the initial
    /// `getTime()` read); relaxed mode stamps at operation boundaries.
    /// See [`crate::tap`].
    tap: Option<HistoryTap>,
    /// Optional event-trace sink (host-side, zero simulated cost) for the
    /// cross-runtime differential tests; see [`Self::with_trace`].
    trace: Option<Rc<RefCell<Vec<Event<u64>>>>>,
}

impl SimSkipQueue {
    /// Builds an empty SkipQueue on `sim`'s machine (out-of-band setup; no
    /// simulated time passes).
    ///
    /// `strict = false` gives the relaxed variant of §5.4: inserts skip the
    /// time stamp and delete-mins skip the stamp test.
    pub fn create(sim: &Sim, max_level: usize, strict: bool) -> Self {
        assert!((1..=30).contains(&max_level));
        let m = sim.machine();
        let mut m = m.borrow_mut();
        let nproc = m.cfg.nproc;
        let head = Self::alloc_node_oob(&mut m, KEY_NEG_INF, 0, max_level, 0);
        let tail = Self::alloc_node_oob(&mut m, KEY_POS_INF, 0, max_level, 0);
        for lvl in 0..max_level {
            m.mem.poke(next_addr(head, lvl), Word::from(tail));
        }
        // Sentinels must never be claimed by a delete-min scan (a removed
        // node's backward pointer can route a scan over the head again):
        // they are born marked and stamped "not yet inserted".
        for s in [head, tail] {
            m.mem.poke(s + DELETED, 1);
            m.mem.poke(s + TIMESTAMP, MAX_TIME);
        }
        let registry = m.mem.alloc(nproc.max(1), 0);
        for p in 0..nproc {
            m.mem.poke(registry + p, MAX_TIME);
            m.mem.set_home(registry + p, 1, p);
        }
        Self {
            head,
            tail,
            max_level,
            strict,
            registry,
            nproc,
            garbage: Rc::new(RefCell::new(Vec::new())),
            tap: None,
            trace: None,
        }
    }

    /// Attaches a history tap; every subsequent insert / delete-min is
    /// recorded into it. Recorded workloads must use unique values that
    /// sort like their keys (see [`crate::tap`]).
    pub fn with_tap(mut self, tap: HistoryTap) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Test seam: records every [`Event`] the algorithm reports (heights,
    /// stamps, claims, retirements, delete-min returns) into `sink` with
    /// nodes flattened to their keys, for the cross-runtime differential
    /// tests. Host-side and free: attaching a trace changes no charged
    /// operation.
    #[doc(hidden)]
    pub fn with_trace(mut self, sink: Rc<RefCell<Vec<Event<u64>>>>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Whether the strict (time-stamped) protocol is active.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Number of nodes on garbage lists (retired, awaiting the quiescence
    /// horizon).
    pub fn garbage_len(&self) -> usize {
        self.garbage.borrow().len()
    }

    fn alloc_node_oob(
        m: &mut Machine,
        key: u64,
        value: u64,
        height: usize,
        home: pqsim::Pid,
    ) -> Addr {
        let node = m.mem.alloc(node_words(height), home);
        m.mem.poke(node + KEY, key);
        m.mem.poke(node + VALUE, value);
        m.mem.poke(node + LEVEL, height as Word);
        m.mem.poke(node + TIMESTAMP, 0); // visible to every delete-min
        let nl = m.locks.create(m.mem.alloc(1, home));
        m.mem.poke(node + NODE_LOCK, Word::from(nl));
        for lvl in 0..height {
            let ll = m.locks.create(m.mem.alloc(1, home));
            m.mem.poke(level_lock_addr(node, lvl), Word::from(ll));
        }
        node
    }

    /// Allocates a node during the run (charged to `p`).
    fn alloc_node(&self, p: &Proc, key: u64, value: u64, height: usize) -> Addr {
        let node = p.alloc(node_words(height));
        p.with_machine(|m| {
            // Initialization of a freshly allocated private block is local
            // work, not globally visible traffic; charge a flat cost.
            m.mem.poke(node + KEY, key);
            m.mem.poke(node + VALUE, value);
            m.mem.poke(node + LEVEL, height as Word);
            m.mem.poke(node + TIMESTAMP, MAX_TIME);
        });
        p.work(4 * (height as u64 + 2));
        let nl = p.new_lock();
        p.with_machine(|m| m.mem.poke(node + NODE_LOCK, Word::from(nl)));
        for lvl in 0..height {
            let ll = p.new_lock();
            p.with_machine(|m| m.mem.poke(level_lock_addr(node, lvl), Word::from(ll)));
        }
        node
    }

    /// Resolves a node's level-`lvl` lock id (address arithmetic: free).
    fn level_lock(&self, p: &Proc, node: Addr, lvl: usize) -> LockId {
        p.with_machine(|m| m.mem.peek(level_lock_addr(node, lvl))) as LockId
    }

    fn node_lock(&self, p: &Proc, node: Addr) -> LockId {
        p.with_machine(|m| m.mem.peek(node + NODE_LOCK)) as LockId
    }

    /// The shared algorithm instance this queue's configuration maps to.
    fn algo(&self) -> SkipAlgo<Addr> {
        SkipAlgo {
            head: self.head,
            tail: self.tail,
            max_height: self.max_level,
            strict: self.strict,
        }
    }

    /// Inserts `(key, value)` (Figure 10). `key` must lie strictly between
    /// the sentinels. Always links a new node: an existing equal key stays
    /// a separate entry.
    pub async fn insert(&self, p: &Proc, key: u64, value: u64) {
        assert!(key > KEY_NEG_INF && key < KEY_POS_INF, "key out of range");
        let op = SimOp::new(self, p);
        op.input.set((key, value));
        self.algo().insert(&op).await;
    }

    /// Deletes and returns the minimum (Figure 11), or `None` for EMPTY.
    pub async fn delete_min(&self, p: &Proc) -> Option<(u64, u64)> {
        let op = SimOp::new(self, p);
        if self.algo().delete_min(&op).await {
            Some(op.out.get())
        } else {
            None
        }
    }

    /// Non-claiming front-key probe (counterpart of the native
    /// `SkipQueue::peek_min_key`): walks the bottom level from the head and
    /// returns the first unmarked key, or
    /// `None` when no unmarked node is found. Costs shared-memory reads
    /// only — no SWAP, no locks — so a sampling front-end can compare
    /// shard fronts cheaply; the snapshot is relaxed, exactly as in the
    /// native queue.
    pub async fn peek_min_key(&self, p: &Proc) -> Option<u64> {
        let op = SimOp::new(self, p);
        self.algo().peek_min_key(&op).await
    }

    /// The paper's §3 dedicated garbage-collection processor.
    ///
    /// "The dedicated processor determines the time-stamp of the oldest
    /// processor in the structure and then visits the garbage lists of
    /// all the processors. It looks at the deletion time of the first
    /// node of every list, and if it is earlier than the time-stamp of the
    /// oldest processor in the structure, it frees its memory. The
    /// dedicated processor will repeat this procedure as long as the
    /// structure exists."
    ///
    /// Run this as the program of an *extra* processor. It sweeps until
    /// `workers_done` reports that all worker programs have finished and
    /// the garbage lists are empty. Returns the number of nodes whose
    /// memory (and locks) it reclaimed into the simulated allocator.
    ///
    /// Reclaimed blocks really are reused by later allocations; the
    /// quiescence horizon is what makes that safe (no processor that could
    /// still hold a pointer to a node remains inside the structure when the
    /// node is freed).
    pub async fn run_collector(
        &self,
        p: &Proc,
        workers_done: Rc<std::cell::Cell<u32>>,
        workers: u32,
    ) -> u64 {
        let mut freed = 0u64;
        loop {
            // Oldest entry time across the registry (shared reads).
            let mut horizon = MAX_TIME;
            for q in 0..self.nproc {
                let e = p.read(self.registry + q).await;
                horizon = horizon.min(e);
            }
            // Free every garbage node stamped before the horizon.
            let eligible: Vec<(Addr, u32, Cycles)> = {
                let mut g = self.garbage.borrow_mut();
                let (take, keep): (Vec<_>, Vec<_>) =
                    g.drain(..).partition(|&(_, _, ts)| ts < horizon);
                *g = keep;
                take
            };
            for (node, words, _) in eligible {
                self.free_node(p, node, words);
                freed += 1;
            }
            let done = workers_done.get() >= workers;
            if done && self.garbage.borrow().is_empty() {
                break;
            }
            // Pause between sweeps, like any polling daemon.
            p.work(1_000);
            p.yield_now().await;
        }
        freed
    }

    /// Destroys a quiesced node's locks and returns its words to the
    /// simulated allocator. Only safe past the quiescence horizon.
    fn free_node(&self, p: &Proc, node: Addr, words: u32) {
        let (height, node_lock, level_locks) = p.with_machine(|m| {
            let height = m.mem.peek(node + LEVEL) as usize;
            let nl = m.mem.peek(node + NODE_LOCK) as LockId;
            let lls: Vec<LockId> = (0..height)
                .map(|lvl| m.mem.peek(level_lock_addr(node, lvl)) as LockId)
                .collect();
            (height, nl, lls)
        });
        debug_assert_eq!(node_words(height), words);
        p.free_lock(node_lock);
        for ll in level_locks {
            p.free_lock(ll);
        }
        p.free(node, words);
        p.work(8);
    }

    /// Out-of-band population: builds a valid skiplist of `n` nodes with
    /// distinct random keys in `(0, key_range)`, zero simulated cost.
    /// Returns the keys inserted.
    pub fn populate(&self, sim: &Sim, rng: &mut Pcg32, n: usize, key_range: u64) -> Vec<u64> {
        let m = sim.machine();
        let mut m = m.borrow_mut();
        let mut keys = std::collections::BTreeSet::new();
        while keys.len() < n {
            keys.insert(1 + rng.gen_range_u64(key_range.min(KEY_POS_INF - 2)));
        }
        let keys: Vec<u64> = keys.into_iter().collect();
        // Build bottom-up: iterate keys in sorted order, maintaining the
        // rightmost node per level.
        let mut right = vec![self.head; self.max_level];
        for &k in &keys {
            let h = rng.random_level(0.5, self.max_level);
            let home = rng.gen_range_u64(u64::from(self.nproc.max(1))) as pqsim::Pid;
            let node = Self::alloc_node_oob(&mut m, k, k ^ 0x5A5A, h, home);
            for (lvl, r) in right.iter_mut().enumerate().take(h) {
                m.mem.poke(next_addr(node, lvl), Word::from(self.tail));
                m.mem.poke(next_addr(*r, lvl), Word::from(node));
                *r = node;
            }
        }
        keys
    }

    /// Out-of-band structural check: every level sorted by `(key,
    /// address)`, marked nodes absent, bottom-level count of *live* nodes
    /// returned. For quiescent states (tests).
    pub fn check_invariants(&self, sim: &Sim) -> usize {
        let m = sim.machine();
        let m = m.borrow();
        let mut count = 0;
        for lvl in (0..self.max_level).rev() {
            let mut prev = (KEY_NEG_INF, self.head);
            let mut cur = m.mem.peek(next_addr(self.head, lvl)) as Addr;
            while cur != self.tail {
                let k = m.mem.peek(cur + KEY);
                assert!((k, cur) > prev, "level {lvl} out of order");
                assert!(
                    (m.mem.peek(cur + LEVEL) as usize) > lvl,
                    "node linked above its height"
                );
                assert_eq!(
                    m.mem.peek(cur + DELETED),
                    0,
                    "marked node still linked (quiescent)"
                );
                if lvl == 0 {
                    count += 1;
                }
                prev = (k, cur);
                cur = m.mem.peek(next_addr(cur, lvl)) as Addr;
                assert_ne!(cur, NULL, "broken chain at level {lvl}");
            }
        }
        count
    }

    /// Out-of-band drain of all *live* keys in bottom-level order (tests).
    /// Skips claimed-but-still-linked nodes: they are already logically
    /// deleted.
    pub fn keys_in_order(&self, sim: &Sim) -> Vec<u64> {
        let m = sim.machine();
        let m = m.borrow();
        let mut out = Vec::new();
        let mut cur = m.mem.peek(next_addr(self.head, 0)) as Addr;
        while cur != self.tail {
            if m.mem.peek(cur + DELETED) == 0 {
                out.push(m.mem.peek(cur + KEY));
            }
            cur = m.mem.peek(next_addr(cur, 0)) as Addr;
        }
        out
    }
}

/// Per-operation history-tap state: the operation's start time and its
/// current best guess at its serialization point. A strict delete
/// serializes its candidate set at the initial `getTime()` read; a relaxed
/// delete is stamped at its claim SWAP — the first instant it commits to a
/// node — so that an audit hit of `insert responded > delete invoked`
/// proves the claimed node was still mid-insert (its stamp write had not
/// landed), which the strict eligibility check makes impossible.
struct SimCtx {
    op_start: Cycles,
    invoked: Cycles,
}

/// One public SkipQueue call on one simulated processor: the charged
/// [`Platform`] the shared algorithm runs on. Operands are staged into
/// `input` before the call and results land in `out`; both are host-side
/// cells, like the paper's out-of-machine instrumentation.
struct SimOp<'a> {
    q: &'a SimSkipQueue,
    p: &'a Proc,
    /// Staged insert operand `(key, value)`.
    input: Cell<(u64, u64)>,
    /// Claimed `(key, value)` of a successful delete-min.
    out: Cell<(u64, u64)>,
}

impl<'a> SimOp<'a> {
    fn new(q: &'a SimSkipQueue, p: &'a Proc) -> Self {
        Self {
            q,
            p,
            input: Cell::new((0, 0)),
            out: Cell::new((0, 0)),
        }
    }
}

impl Platform for SimOp<'_> {
    type Node = Addr;
    type Ctx = SimCtx;

    async fn enter(&self) -> SimCtx {
        // §3: "Each processor registers the time it has entered the
        // structure in a special place in shared memory."
        let t = self.p.now();
        self.p.write(self.q.registry + self.p.pid(), t).await;
        SimCtx {
            op_start: t,
            invoked: t,
        }
    }

    async fn exit(&self, _ctx: &mut SimCtx) {
        self.p.write(self.q.registry + self.p.pid(), MAX_TIME).await;
    }

    fn new_node(&self) -> (Addr, usize) {
        // Lines 17–19: draw the height and allocate the node.
        let (key, value) = self.input.get();
        let height = self.p.random_level(0.5, self.q.max_level);
        (self.q.alloc_node(self.p, key, value, height), height)
    }

    async fn store_stamp(&self, node: Addr) {
        if self.q.strict {
            let t = self.p.read_clock().await;
            self.p.write(node + TIMESTAMP, t).await;
        } else {
            // Relaxed variant (§5.4): no stamping; mark as visible.
            self.p.write(node + TIMESTAMP, 0).await;
        }
    }

    async fn load_next(&self, node: Addr, lvl: usize) -> Addr {
        self.p.read(next_addr(node, lvl)).await as Addr
    }

    async fn store_next(&self, node: Addr, lvl: usize, to: Addr) {
        self.p.write(next_addr(node, lvl), Word::from(to)).await;
    }

    async fn key_lt(&self, node: Addr, operand: Addr) -> bool {
        let key = self.p.read(node + KEY).await;
        // The operand is this operation's own node: its key is local (a
        // free host-side peek), and the address tie-break is arithmetic.
        let own = self.p.with_machine(|m| m.mem.peek(operand + KEY));
        (key, node) < (own, operand)
    }

    async fn lock_level(&self, node: Addr, lvl: usize) {
        let l = self.q.level_lock(self.p, node, lvl);
        self.p.acquire(l).await;
    }

    async fn unlock_level(&self, node: Addr, lvl: usize) {
        let l = self.q.level_lock(self.p, node, lvl);
        self.p.release(l).await;
    }

    async fn lock_node(&self, node: Addr) {
        let l = self.q.node_lock(self.p, node);
        self.p.acquire(l).await;
    }

    async fn unlock_node(&self, node: Addr) {
        let l = self.q.node_lock(self.p, node);
        self.p.release(l).await;
    }

    async fn delete_read_clock(&self, ctx: &mut SimCtx) -> u64 {
        // Line 1: the strict delete serializes its candidate set here.
        let t = self.p.read_clock().await;
        ctx.invoked = t;
        t
    }

    async fn load_stamp(&self, node: Addr) -> u64 {
        self.p.read(node + TIMESTAMP).await
    }

    async fn load_deleted(&self, node: Addr) -> bool {
        self.p.read(node + DELETED).await != 0
    }

    async fn swap_deleted(&self, node: Addr) -> bool {
        self.p.swap(node + DELETED, 1).await != 0
    }

    async fn take_payload(&self, node: Addr) {
        // Lines 11–13: save the value and key.
        let value = self.p.read(node + VALUE).await;
        let key = self.p.read(node + KEY).await;
        self.out.set((key, value));
    }

    async fn victim_height(&self, victim: Addr) -> usize {
        self.p.read(victim + LEVEL).await as usize
    }

    fn debug_check_pred(&self, pred: Addr, victim: Addr, lvl: usize) {
        // A host-side peek: free, so the check charges nothing.
        let next = self.p.with_machine(|m| m.mem.peek(next_addr(pred, lvl))) as Addr;
        debug_assert_eq!(next, victim, "pred must point at victim");
    }

    async fn retire_one(&self, victim: Addr, height: usize) {
        self.p.work(8); // local bookkeeping for the garbage-list push
        self.q
            .garbage
            .borrow_mut()
            .push((victim, node_words(height), self.p.now()));
    }

    fn observe(&self, ctx: &mut SimCtx, event: Event<Addr>) {
        let now = self.p.now();
        if let Some(tap) = &self.q.tap {
            match event {
                // The insert counts as responded once the stamp write has
                // *landed*: only then is the node guaranteed visible to
                // every later delete-min scan (the stamp's clock value is
                // read a little earlier, but a scan racing the write still
                // sees MAX_TIME and legally skips the node).
                Event::Stamp(_) => tap.insert(self.input.get().1, ctx.op_start, now),
                Event::Deleted => tap.delete_min(Some(self.out.get().1), ctx.invoked, now),
                Event::Empty => tap.delete_min(None, ctx.invoked, now),
                _ => {}
            }
        }
        if matches!(event, Event::Claim(_)) && !self.q.strict {
            // A relaxed delete linearizes at its claim SWAP (see `SimCtx`).
            ctx.invoked = now;
        }
        if let Some(trace) = &self.q.trace {
            // A host-side key peek: free, so tracing charges nothing.
            // Sentinel keys are already the flattened `0`/`u64::MAX`.
            let event = event.map(|node| self.p.with_machine(|m| m.mem.peek(node + KEY)));
            trace.borrow_mut().push(event);
        }
    }
}

impl PeekPlatform for SimOp<'_> {
    type PeekKey = u64;

    async fn peek_key(&self, node: Addr) -> Option<u64> {
        Some(self.p.read(node + KEY).await)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqsim::SimConfig;

    fn new_sim(n: u32) -> Sim {
        Sim::new(SimConfig::new(n).with_seed(42))
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut sim = new_sim(1);
        let q = SimSkipQueue::create(&sim, 8, true);
        let out = sim.alloc_shared(1);
        let q2 = q.clone();
        sim.spawn(move |p| async move {
            let r = q2.delete_min(&p).await;
            p.write(out, if r.is_none() { 1 } else { 0 }).await;
        });
        sim.run();
        assert_eq!(sim.read_word(out), 1);
    }

    #[test]
    fn single_proc_insert_delete_ordering() {
        let mut sim = new_sim(1);
        let q = SimSkipQueue::create(&sim, 8, true);
        let out = sim.alloc_shared(16);
        let q2 = q.clone();
        sim.spawn(move |p| async move {
            for k in [5u64, 2, 9, 1, 7] {
                q2.insert(&p, k, k * 10).await;
            }
            for i in 0..5u32 {
                let (k, v) = q2.delete_min(&p).await.unwrap();
                p.write(out + 2 * i, k).await;
                p.write(out + 2 * i + 1, v).await;
            }
        });
        sim.run();
        let keys: Vec<u64> = (0..5).map(|i| sim.read_word(out + 2 * i)).collect();
        assert_eq!(keys, vec![1, 2, 5, 7, 9]);
        let vals: Vec<u64> = (0..5).map(|i| sim.read_word(out + 2 * i + 1)).collect();
        assert_eq!(vals, vec![10, 20, 50, 70, 90]);
        assert_eq!(q.check_invariants(&sim), 0);
        assert_eq!(q.garbage_len(), 5);
    }

    #[test]
    fn peek_min_key_probes_without_claiming() {
        let mut sim = new_sim(1);
        let q = SimSkipQueue::create(&sim, 8, true);
        let out = sim.alloc_shared(6);
        let q2 = q.clone();
        sim.spawn(move |p| async move {
            // Empty queue: probe sees nothing.
            let empty = q2.peek_min_key(&p).await;
            p.write(out, empty.is_none() as u64).await;
            for k in [5u64, 2, 9] {
                q2.insert(&p, k, k * 10).await;
            }
            // Probe reports the minimum and does not consume it.
            p.write(out + 1, q2.peek_min_key(&p).await.unwrap()).await;
            p.write(out + 2, q2.peek_min_key(&p).await.unwrap()).await;
            let (k, _) = q2.delete_min(&p).await.unwrap();
            p.write(out + 3, k).await;
            // The probe sees the next minimum once the claim is unlinked.
            p.write(out + 4, q2.peek_min_key(&p).await.unwrap()).await;
        });
        sim.run();
        assert_eq!(sim.read_word(out), 1);
        assert_eq!(sim.read_word(out + 1), 2);
        assert_eq!(sim.read_word(out + 2), 2);
        assert_eq!(sim.read_word(out + 3), 2);
        assert_eq!(sim.read_word(out + 4), 5);
        assert_eq!(q.check_invariants(&sim), 2);
    }

    #[test]
    fn duplicate_keys_are_kept() {
        // The queue is a multiset: equal keys are separate entries, linked
        // in address order, and each comes out once with its own value.
        let mut sim = new_sim(2);
        let q = SimSkipQueue::create(&sim, 8, true);
        let q2 = q.clone();
        sim.spawn(move |p| async move {
            for (k, v) in [(7u64, 1u64), (7, 2), (3, 3), (7, 4)] {
                q2.insert(&p, k, v).await;
            }
        });
        sim.run();
        assert_eq!(q.check_invariants(&sim), 4);
        assert_eq!(q.keys_in_order(&sim), [3, 7, 7, 7]);
        let out = sim.alloc_shared(8);
        let q2 = q.clone();
        sim.spawn(move |p| async move {
            for i in 0..4u32 {
                let (k, v) = q2.delete_min(&p).await.unwrap();
                p.write(out + 2 * i, k).await;
                p.write(out + 2 * i + 1, v).await;
            }
        });
        sim.run();
        let got: Vec<(u64, u64)> = (0..4)
            .map(|i| (sim.read_word(out + 2 * i), sim.read_word(out + 2 * i + 1)))
            .collect();
        assert_eq!(got[0], (3, 3));
        assert!(got[1..].iter().all(|&(k, _)| k == 7));
        let mut values: Vec<u64> = got[1..].iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, [1, 2, 4], "every duplicate kept once");
        assert_eq!(q.check_invariants(&sim), 0);
        assert_eq!(q.garbage_len(), 4);
    }

    #[test]
    fn concurrent_inserts_all_linked_in_order() {
        let mut sim = new_sim(8);
        let q = SimSkipQueue::create(&sim, 12, true);
        for t in 0..8u64 {
            let q2 = q.clone();
            sim.spawn(move |p| async move {
                for i in 0..40u64 {
                    // Distinct keys across processors.
                    q2.insert(&p, 1 + t + 8 * i, t).await;
                    p.work(50);
                }
            });
        }
        sim.run();
        assert_eq!(q.check_invariants(&sim), 320);
        let keys = q.keys_in_order(&sim);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 320);
    }

    #[test]
    fn concurrent_mixed_no_duplicates_no_losses() {
        let mut sim = new_sim(8);
        let q = SimSkipQueue::create(&sim, 12, true);
        let deleted = sim.alloc_shared(8 * 64);
        let dcount = sim.alloc_shared(8);
        for t in 0..8u32 {
            let q2 = q.clone();
            sim.spawn(move |p| async move {
                let mut mine = 0u32;
                for i in 0..32u64 {
                    q2.insert(&p, 1 + u64::from(t) + 8 * i, 7).await;
                    p.work(30);
                    if i % 2 == 1 {
                        if let Some((k, _)) = q2.delete_min(&p).await {
                            p.write(deleted + t * 64 + mine, k).await;
                            mine += 1;
                        }
                    }
                }
                p.write(dcount + t, u64::from(mine)).await;
            });
        }
        sim.run();
        let mut got = Vec::new();
        for t in 0..8u32 {
            let c = sim.read_word(dcount + t) as u32;
            for i in 0..c {
                got.push(sim.read_word(deleted + t * 64 + i));
            }
        }
        let remaining = q.keys_in_order(&sim);
        assert_eq!(got.len() + remaining.len(), 8 * 32, "conservation");
        let mut all: Vec<u64> = got.iter().chain(remaining.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8 * 32, "no duplicates");
        q.check_invariants(&sim);
    }

    #[test]
    fn populate_builds_valid_structure() {
        let sim = new_sim(4);
        let q = SimSkipQueue::create(&sim, 10, true);
        let mut rng = Pcg32::new(7, 7);
        let keys = q.populate(&sim, &mut rng, 500, 1 << 40);
        assert_eq!(keys.len(), 500);
        assert_eq!(q.check_invariants(&sim), 500);
        let in_order = q.keys_in_order(&sim);
        assert_eq!(in_order, keys, "populate links keys in sorted order");
    }

    #[test]
    fn populated_queue_drains_in_order() {
        let mut sim = new_sim(2);
        let q = SimSkipQueue::create(&sim, 10, true);
        let mut rng = Pcg32::new(9, 1);
        let keys = q.populate(&sim, &mut rng, 64, 1 << 30);
        let out = sim.alloc_shared(64);
        let q2 = q.clone();
        sim.spawn(move |p| async move {
            for i in 0..64u32 {
                let (k, _) = q2.delete_min(&p).await.unwrap();
                p.write(out + i, k).await;
            }
            assert!(q2.delete_min(&p).await.is_none());
        });
        sim.run();
        let got: Vec<u64> = (0..64).map(|i| sim.read_word(out + i)).collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn relaxed_mode_skips_timestamps() {
        let mut sim = new_sim(2);
        let q = SimSkipQueue::create(&sim, 8, false);
        assert!(!q.is_strict());
        let out = sim.alloc_shared(1);
        let q2 = q.clone();
        sim.spawn(move |p| async move {
            q2.insert(&p, 5, 50).await;
            let (k, _) = q2.delete_min(&p).await.unwrap();
            p.write(out, k).await;
        });
        sim.run();
        assert_eq!(sim.read_word(out), 5);
    }

    #[test]
    fn strict_timestamp_ignores_concurrent_insert() {
        // A node whose timestamp is MAX (insert incomplete) must be ignored
        // by a strict delete-min: construct that state directly.
        let mut sim = new_sim(1);
        let q = SimSkipQueue::create(&sim, 8, true);
        let mut rng = Pcg32::new(3, 3);
        q.populate(&sim, &mut rng, 2, 1 << 20);
        let keys = q.keys_in_order(&sim);
        // Manually mark the smaller node as "insert in progress".
        {
            let m = sim.machine();
            let mut m = m.borrow_mut();
            let first = m.mem.peek(next_addr(q.head, 0)) as Addr;
            m.mem.poke(first + TIMESTAMP, MAX_TIME);
        }
        let out = sim.alloc_shared(1);
        let q2 = q.clone();
        sim.spawn(move |p| async move {
            let (k, _) = q2.delete_min(&p).await.unwrap();
            p.write(out, k).await;
        });
        sim.run();
        // The first (in-progress) key is skipped; the second is returned.
        assert_eq!(sim.read_word(out), keys[1]);
    }

    #[test]
    fn collector_reclaims_quiesced_nodes() {
        let mut sim = new_sim(3); // 2 workers + 1 collector
        let events = Rc::new(RefCell::new(Vec::new()));
        let q = SimSkipQueue::create(&sim, 8, true).with_trace(Rc::clone(&events));
        let done = Rc::new(std::cell::Cell::new(0u32));
        let freed = Rc::new(std::cell::Cell::new(0u64));
        for t in 0..2u64 {
            let q2 = q.clone();
            let done = Rc::clone(&done);
            sim.spawn(move |p| async move {
                for i in 0..50u64 {
                    q2.insert(&p, 1 + t + 2 * i, t).await;
                    p.work(40);
                    q2.delete_min(&p).await;
                }
                done.set(done.get() + 1);
            });
        }
        {
            let q2 = q.clone();
            let done = Rc::clone(&done);
            let freed2 = Rc::clone(&freed);
            sim.spawn_on(2, move |p| async move {
                freed2.set(q2.run_collector(&p, done, 2).await);
            });
        }
        sim.run();
        let retired = events
            .borrow()
            .iter()
            .filter(|e| matches!(e, Event::Retire(_)))
            .count() as u64;
        assert_eq!(q.garbage_len(), 0, "collector drains all garbage");
        assert_eq!(freed.get(), retired, "every retired node freed");
        assert!(freed.get() >= 90, "most deletes succeeded: {}", freed.get());
    }

    #[test]
    fn collector_enables_memory_reuse() {
        // With the collector, churny workloads reuse node blocks instead of
        // growing the arena without bound.
        use crate::workload::{run_workload, WorkloadConfig};
        use crate::QueueKind;
        let with_gc = WorkloadConfig {
            queue: QueueKind::SkipQueue { strict: true },
            nproc: 4,
            initial_size: 20,
            total_ops: 2_000,
            gc_collector: true,
            ..WorkloadConfig::default()
        };
        let without_gc = WorkloadConfig {
            gc_collector: false,
            ..with_gc.clone()
        };
        let a = run_workload(&with_gc);
        let b = run_workload(&without_gc);
        assert!(a.gc_freed > 0, "collector freed nodes");
        assert_eq!(b.gc_freed, 0);
        // Same logical outcome either way.
        assert_eq!(a.insert.count + a.delete.count, 2_000);
        assert_eq!(b.insert.count + b.delete.count, 2_000);
    }

    #[test]
    fn trace_sink_is_invisible() {
        // Observation must be invisible: the host-side event-trace sink
        // used by the cross-runtime differential tests charges no simulated
        // cost, so identical seeds with and without it attached must give
        // identical layouts and final times. Relaxed mode also runs the
        // claim-time `invoked` stamp, the one observation that writes the
        // operation's context.
        fn run(strict: bool, traced: bool) -> (Vec<u64>, u64) {
            let mut sim = Sim::new(SimConfig::new(4).with_seed(77));
            let q = SimSkipQueue::create(&sim, 10, strict);
            let q = if traced {
                q.with_trace(Rc::new(RefCell::new(Vec::new())))
            } else {
                q
            };
            for t in 0..4u64 {
                let q2 = q.clone();
                sim.spawn(move |p| async move {
                    for _ in 0..24u64 {
                        let key = 1 + p.gen_range_u64(1 << 30);
                        q2.insert(&p, key, t).await;
                        p.work(p.gen_range_u64(150));
                        if p.coin(0.4) {
                            q2.delete_min(&p).await;
                        }
                    }
                });
            }
            let r = sim.run();
            (q.keys_in_order(&sim), r.final_time)
        }
        for strict in [true, false] {
            assert_eq!(run(strict, false), run(strict, true), "strict {strict}");
        }
    }

    #[test]
    fn trace_records_logical_decisions_in_op_order() {
        // One processor, three inserts, two deletes and one EMPTY: the
        // trace shows one Height and one Stamp per insert, and Claim,
        // Retire and Deleted per delete, with the claimed keys in order.
        let mut sim = Sim::new(SimConfig::new(1).with_seed(5));
        let sink = Rc::new(RefCell::new(Vec::new()));
        let q = SimSkipQueue::create(&sim, 8, true).with_trace(Rc::clone(&sink));
        let q2 = q.clone();
        sim.spawn(move |p| async move {
            for k in [30u64, 10, 20] {
                q2.insert(&p, k, k).await;
            }
            assert_eq!(q2.delete_min(&p).await, Some((10, 10)));
            assert_eq!(q2.delete_min(&p).await, Some((20, 20)));
            assert_eq!(q2.delete_min(&p).await, Some((30, 30)));
            assert_eq!(q2.delete_min(&p).await, None);
        });
        sim.run();
        // Heights are random draws; keep only their position in the stream.
        let trace: Vec<Event<u64>> = sink
            .borrow()
            .iter()
            .map(|e| match e {
                Event::Height(_) => Event::Height(0),
                e => *e,
            })
            .collect();
        use Event::*;
        assert_eq!(
            trace,
            [
                Height(0),
                Stamp(30),
                Height(0),
                Stamp(10),
                Height(0),
                Stamp(20),
                Claim(10),
                Retire(10),
                Deleted,
                Claim(20),
                Retire(20),
                Deleted,
                Claim(30),
                Retire(30),
                Deleted,
                Empty,
            ]
        );
    }

    #[test]
    fn determinism_same_seed_same_final_state() {
        fn run(seed: u64) -> (Vec<u64>, u64) {
            let mut sim = Sim::new(SimConfig::new(4).with_seed(seed));
            let q = SimSkipQueue::create(&sim, 10, true);
            for t in 0..4u64 {
                let q2 = q.clone();
                sim.spawn(move |p| async move {
                    for _ in 0..32u64 {
                        let key = 1 + p.gen_range_u64(1 << 30);
                        q2.insert(&p, key, t).await;
                        p.work(p.gen_range_u64(200));
                        if p.coin(0.5) {
                            q2.delete_min(&p).await;
                        }
                    }
                });
            }
            let r = sim.run();
            (q.keys_in_order(&sim), r.final_time)
        }
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).1, run(12).1);
    }
}
