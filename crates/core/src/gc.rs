//! Quiescence-based memory reclamation — the paper's garbage-collection
//! scheme.
//!
//! Section 3 of the paper: *"it is safe to free the memory used by a
//! particular node only after all the processors that were in the structure
//! when the node was deleted have already exited the structure."* Each
//! processor registers the time it entered the structure; unlinked nodes are
//! stamped with their deletion time and freed once the oldest registered
//! entry time is newer than the deletion stamp.
//!
//! The paper dedicates one processor to collection; here every thread
//! collects its own garbage list when it grows past a threshold (the paper
//! itself notes the task "can be split/shared among processors"), and also
//! opportunistically sweeps lists left behind by exited threads.
//!
//! This is a QSBR-style scheme. Entry announcements, deletion stamps *and*
//! the owning queue's insert stamps all come from one global atomic counter
//! (the paper's single `getTime()` clock), so they are totally ordered.
//!
//! ## One tick per operation
//!
//! `Collector::enter` takes one clock tick and returns it in the
//! `RawGuard`. The tick publishes the slot's entry announcement (below),
//! and the queue reuses it twice more: as the insert's FIFO tie-break
//! sequence number (ticks are unique, and an insert that finished before
//! another began ticked first) and as a strict `delete_min`'s start time,
//! because the tick is taken after the call began and every insert that
//! completed before then stamped itself with an earlier tick of the same
//! clock (Definition 1). A nested pin keeps the outer announcement but
//! still takes a fresh tick, so sequence numbers stay unique. Two ticks are
//! deliberately *not* shared: an insert's stamp is taken after linking,
//! and `Collector::retire` stamps retirements with a fresh tick,
//! since threads that entered after the retiring thread may still reach
//! the node until it was unlinked.
//!
//! ## Publication without a fence
//!
//! Every clock operation is an acquire-release read-modify-write of one
//! counter, so a tick earlier in the counter's order *happens before* every
//! later one. A pin stores its announcement — one past the slot's latest
//! tick, a lower bound of the tick it takes next — and only then ticks. A
//! collection first ticks (`now`), then reads the announcements, and frees
//! only nodes retired below `min(now, oldest announcement)`. Take a node
//! retired at `ts < now` and a thread whose pin (the outer one, if nested)
//! ticked at `t`:
//!
//! * if `t` comes after `ts`, the unlink happened before the pin's tick, so
//!   the thread's traversal cannot reach the node;
//! * if `t` comes before `ts`, it also comes before `now`, so the
//!   announcement (stored before `t`) happened before the collector's reads:
//!   the collector sees it, or a value written after the thread left (both
//!   the exit and a later announcement are `Release` stores, read with
//!   `Acquire`, so the thread's reads happen before the free), and the
//!   announcement is at most `t < ts`, which keeps the node.
//!
//! No `SeqCst` fence is needed on either side. The cap at `now` is
//! also what makes an unpinned `collect` safe: without it, a collector
//! that finds every slot outside would free a node retired while it scans,
//! though a thread that pinned after the announcement read and before the
//! unlink may still hold it.
//!
//! Slots are claimed in index order, and a high-water mark of claimed
//! slots, raised before a slot's first tick, bounds every scan
//! (horizon, collection, `pending`, the slot re-find) by the threads that
//! actually used the collector rather than by `max_threads`. If a
//! collector's read of the mark misses a newly claimed slot, that slot's
//! first tick came after the collector's `now`, so the first case above
//! protects its thread.
//!
//! Each slot also carries the owning queue's item-count delta for its
//! thread. Only the owning thread writes it, with a plain load and store
//! instead of a shared read-modify-write; the queue's `len()` sums the
//! claimed slots, so it is exact only at quiescence.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::clock::TimestampClock;
use crate::node::Node;

/// "Thread is outside the structure."
const OUTSIDE: u64 = u64::MAX;

/// Collect the slot's own garbage once it holds this many retired nodes.
const COLLECT_THRESHOLD: usize = 64;

/// Ways of the per-thread direct slot cache in front of [`SLOT_CACHE`].
const SLOT_HINT_WAYS: usize = 4;

struct Retired<K, V> {
    ptr: *mut Node<K, V>,
    ts: u64,
}

struct Slot<K, V> {
    /// Stable token of the owning thread; 0 = unclaimed.
    owner: AtomicUsize,
    /// Entry announcement (a lower bound of the pin's tick), or
    /// [`OUTSIDE`].
    entry: AtomicU64,
    /// The owning queue's item-count delta for this thread: inserts minus
    /// deletes. Written only by the owning thread; may be negative.
    len: AtomicIsize,
    /// The owning thread's latest pin or retirement tick (0 before its
    /// first). Written only by the owning thread.
    last_tick: AtomicU64,
    /// Nodes retired by the owning thread, awaiting quiescence.
    garbage: Mutex<Vec<Retired<K, V>>>,
}

/// The per-queue collector: one announcement slot per thread, plus the
/// global clock that stamps entries, retirements and the owning queue's
/// inserts.
pub struct Collector<K, V> {
    id: u64,
    clock: TimestampClock,
    /// High-water mark of claimed slots: every claimed slot's index is
    /// below it.
    claimed: AtomicUsize,
    slots: Box<[CachePadded<Slot<K, V>>]>,
}

// SAFETY: the raw node pointers in garbage lists are exclusively owned
// retired nodes; they are only dereferenced when freed under the quiescence
// rule, and the key/value they carry are sent between threads.
unsafe impl<K: Send, V: Send> Send for Collector<K, V> {}
unsafe impl<K: Send, V: Send> Sync for Collector<K, V> {}

/// Pin guard: while alive, no node unlinked *after* the pin may be freed.
pub struct Guard<'a, K, V> {
    collector: &'a Collector<K, V>,
    raw: RawGuard,
}

impl<K, V> Drop for Guard<'_, K, V> {
    fn drop(&mut self) {
        self.collector.exit(self.raw);
    }
}

/// Manual-lifecycle pin token for the shared-algorithm platform hooks: the
/// algorithm layer registers entry/exit explicitly (the paper's §3 registry
/// writes), so the native platform cannot use a borrow-carrying guard.
///
/// `nested` marks a re-entrant pin on an already-pinned thread: the public
/// [`Collector::pin`] may be called while a guard from an earlier call is
/// still alive, and both share this path. The outer, older announcement is
/// kept and the nested exit is a no-op, so the outer pin's protection is
/// never retracted early.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RawGuard {
    slot: usize,
    nested: bool,
    /// This pin's clock tick, unique even for a nested pin (see the module
    /// docs for its three uses).
    pub(crate) tick: u64,
}

fn collector_ids() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A stable, nonzero per-thread token: the address of a thread-local.
fn thread_token() -> usize {
    thread_local! {
        static TOKEN: u8 = const { 0 };
    }
    TOKEN.with(|t| t as *const u8 as usize)
}

thread_local! {
    /// Direct-mapped (collector id, slot index) cache, indexed by collector
    /// id. Ids are handed out consecutively, so a thread alternating
    /// between a few collectors (a sharded queue's shards) hits in
    /// different ways. Id 0 is never issued and marks an empty way.
    static SLOT_HINT: [Cell<(u64, usize)>; SLOT_HINT_WAYS] =
        const { [const { Cell::new((0, 0)) }; SLOT_HINT_WAYS] };
    /// Maps collector id -> claimed slot index, per thread.
    static SLOT_CACHE: RefCell<HashMap<u64, usize>> = RefCell::new(HashMap::new());
}

impl<K, V> Collector<K, V> {
    /// Creates a collector supporting up to `max_threads` distinct threads
    /// over the collector's lifetime (slots are claimed permanently; see the
    /// crate docs).
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads >= 1);
        let slots = (0..max_threads)
            .map(|_| {
                CachePadded::new(Slot {
                    owner: AtomicUsize::new(0),
                    entry: AtomicU64::new(OUTSIDE),
                    len: AtomicIsize::new(0),
                    last_tick: AtomicU64::new(0),
                    garbage: Mutex::new(Vec::new()),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            id: collector_ids(),
            clock: TimestampClock::new(),
            claimed: AtomicUsize::new(0),
            slots,
        }
    }

    /// The slots below the high-water mark: every slot a thread has used.
    fn claimed_slots(&self) -> &[CachePadded<Slot<K, V>>] {
        &self.slots[..self.claimed.load(Ordering::Acquire)]
    }

    fn claim_slot(&self) -> usize {
        let token = thread_token();
        // Re-find a slot this thread already owns (cache miss after the
        // thread-local map was dropped, or first touch), else claim a free
        // one.
        if let Some(i) = self
            .claimed_slots()
            .iter()
            .position(|s| s.owner.load(Ordering::Relaxed) == token)
        {
            return i;
        }
        for (i, s) in self.slots.iter().enumerate() {
            if s.owner.load(Ordering::Relaxed) == 0
                && s.owner
                    .compare_exchange(0, token, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                // Raised before this slot's first tick, so a collector
                // whose `now` follows that tick sees the new mark.
                self.claimed.fetch_max(i + 1, Ordering::SeqCst);
                return i;
            }
        }
        panic!(
            "collector slot table exhausted: more than {} threads used this queue; \
             construct it with a larger `max_threads`",
            self.slots.len()
        );
    }

    fn slot_index(&self) -> usize {
        SLOT_HINT.with(|ways| {
            let way = &ways[self.id as usize % SLOT_HINT_WAYS];
            let (id, idx) = way.get();
            if id == self.id {
                return idx;
            }
            let idx = SLOT_CACHE.with(|c| {
                let mut map = c.borrow_mut();
                *map.entry(self.id).or_insert_with(|| self.claim_slot())
            });
            way.set((self.id, idx));
            idx
        })
    }

    /// Announces that the current thread is inside the structure and returns
    /// a guard that retracts the announcement on drop.
    pub fn pin(&self) -> Guard<'_, K, V> {
        Guard {
            collector: self,
            raw: self.enter(),
        }
    }

    /// Manual-lifecycle variant of [`Collector::pin`]: announces entry and
    /// returns a token the caller must pass back to [`Collector::exit`].
    /// Re-entrant on the same thread (see [`RawGuard`]).
    pub(crate) fn enter(&self) -> RawGuard {
        let slot_idx = self.slot_index();
        let slot = &self.slots[slot_idx];
        // Already pinned by an outer operation on this thread: keep the
        // older (more conservative) announcement.
        let nested = slot.entry.load(Ordering::Relaxed) != OUTSIDE;
        if !nested {
            // Announce a lower bound of the tick taken next: every tick
            // after this slot's latest one is larger. The tick publishes it
            // (see "Publication without a fence" in the module docs).
            let bound = slot.last_tick.load(Ordering::Relaxed) + 1;
            // Release, like `exit`: a collector that reads this value also
            // sees this thread's earlier pins as finished.
            slot.entry.store(bound, Ordering::Release);
        }
        let tick = self.clock.tick();
        slot.last_tick.store(tick, Ordering::Relaxed);
        RawGuard {
            slot: slot_idx,
            nested,
            tick,
        }
    }

    /// Retracts an [`Collector::enter`] announcement (no-op for a nested
    /// token — the outer exit retracts it).
    pub(crate) fn exit(&self, g: RawGuard) {
        if !g.nested {
            self.slots[g.slot].entry.store(OUTSIDE, Ordering::Release);
        }
    }

    /// A fresh tick of the shared clock (an insert's stamp).
    pub(crate) fn tick(&self) -> u64 {
        self.clock.tick()
    }

    /// Adds `delta` to the item count of `g`'s slot. Only the owning thread
    /// writes a slot's count, so a load and a store replace a shared
    /// read-modify-write.
    pub(crate) fn add_len(&self, g: RawGuard, delta: isize) {
        let len = &self.slots[g.slot].len;
        len.store(len.load(Ordering::Relaxed) + delta, Ordering::Relaxed);
    }

    /// The sum of every slot's item count: exact once no operation is in
    /// flight, and possibly negative while one is.
    pub(crate) fn len(&self) -> isize {
        self.claimed_slots()
            .iter()
            .map(|s| s.len.load(Ordering::Relaxed))
            .sum()
    }

    /// Retires an unlinked node: it will be freed once every thread that was
    /// inside the structure at this moment has exited.
    ///
    /// The stamp is a fresh tick, not `g.tick`: a thread that entered after
    /// us but before the unlink may still reach the node.
    ///
    /// # Safety
    ///
    /// `ptr` must be a fully unlinked node from the owning queue, retired at
    /// most once, with no new references to it created after unlinking
    /// (traversals holding older references are exactly what the quiescence
    /// rule waits out). The calling thread must currently be entered with
    /// `g`.
    pub(crate) unsafe fn retire(&self, g: RawGuard, ptr: *mut Node<K, V>) {
        let ts = self.clock.tick();
        let slot = &self.slots[g.slot];
        slot.last_tick.store(ts, Ordering::Relaxed);
        let run_collect = {
            let mut g = slot.garbage.lock();
            g.push(Retired { ptr, ts });
            g.len() >= COLLECT_THRESHOLD
        };
        if run_collect {
            self.free_below(self.horizon(ts));
        }
    }

    /// The oldest entry announcement across the claimed slots.
    fn min_entry(&self) -> u64 {
        self.claimed_slots()
            .iter()
            .map(|s| s.entry.load(Ordering::Acquire))
            .min()
            .unwrap_or(OUTSIDE)
    }

    /// The reclamation horizon: the oldest announcement, capped at `now`, a
    /// tick taken before this call. A node stamped below the result can no
    /// longer be reached by any thread (see the module docs).
    fn horizon(&self, now: u64) -> u64 {
        now.min(self.min_entry())
    }

    /// Frees every retired node older than the oldest announcement, across
    /// all slots (so garbage from exited threads is swept too). Safe to call
    /// pinned or not.
    pub fn collect(&self) -> usize {
        self.free_below(self.horizon(self.clock.tick()))
    }

    /// Frees every retired node stamped below `horizon`.
    fn free_below(&self, horizon: u64) -> usize {
        let mut freed = 0;
        for s in self.claimed_slots() {
            // Skip slots another thread is concurrently collecting.
            let Some(mut g) = s.garbage.try_lock() else {
                continue;
            };
            g.retain(|r| {
                if r.ts < horizon {
                    // SAFETY: r.ts < every current entry announcement, so
                    // every thread inside entered after the unlink; per the
                    // retire contract nobody can still reach the node.
                    unsafe { Node::dealloc(r.ptr) };
                    freed += 1;
                    false
                } else {
                    true
                }
            });
        }
        freed
    }

    /// Number of retired-but-not-yet-freed nodes (diagnostics).
    pub fn pending(&self) -> usize {
        self.claimed_slots()
            .iter()
            .map(|s| s.garbage.lock().len())
            .sum()
    }

    /// Frees all remaining garbage unconditionally. Requires `&mut self`:
    /// exclusive access proves no thread is inside the structure.
    pub fn flush_all(&mut self) {
        for s in self.claimed_slots() {
            let mut g = s.garbage.lock();
            for r in g.drain(..) {
                // SAFETY: exclusive access to the collector (and therefore
                // to the queue that owns it) means no concurrent readers.
                unsafe { Node::dealloc(r.ptr) };
            }
        }
    }
}

#[cfg(test)]
impl<K, V> Collector<K, V> {
    /// Each claimed slot's item count, in slot order.
    pub(crate) fn slot_lens(&self) -> Vec<isize> {
        self.claimed_slots()
            .iter()
            .map(|s| s.len.load(Ordering::Relaxed))
            .collect()
    }
}

impl<K, V> Drop for Collector<K, V> {
    fn drop(&mut self) {
        self.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::IKey;

    fn mknode(k: u64) -> *mut Node<u64, u64> {
        Node::alloc(IKey::Val(k, k), Some(k), 1)
    }

    #[test]
    fn retire_then_collect_frees_when_unpinned() {
        let c: Collector<u64, u64> = Collector::new(4);
        {
            let g = c.pin();
            unsafe { c.retire(g.raw, mknode(1)) };
            // We are still pinned with an entry older than the retirement:
            // nothing can be freed.
            assert_eq!(c.collect(), 0);
            assert_eq!(c.pending(), 1);
        }
        // Unpinned: the node is older than every (non-existent) entry.
        assert_eq!(c.collect(), 1);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn pinned_peer_blocks_reclamation() {
        let c: Collector<u64, u64> = Collector::new(4);
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
            let c2 = &c;
            s.spawn(move || {
                let _g = c2.pin();
                tx.send(()).unwrap();
                done_rx.recv().unwrap();
            });
            rx.recv().unwrap();
            // Peer pinned before this retirement: must block it.
            {
                let g = c.pin();
                unsafe { c.retire(g.raw, mknode(2)) };
            }
            assert_eq!(c.collect(), 0, "peer entered before the retirement");
            done_tx.send(()).unwrap();
        });
        assert_eq!(c.collect(), 1, "peer exited; node is reclaimable");
    }

    #[test]
    fn late_pin_does_not_block_old_garbage() {
        let c: Collector<u64, u64> = Collector::new(4);
        {
            let g = c.pin();
            unsafe { c.retire(g.raw, mknode(3)) };
        }
        // Pin *after* the retirement: the entry is newer than the stamp.
        let _g = c.pin();
        assert_eq!(c.collect(), 1);
    }

    #[test]
    fn unpinned_horizon_does_not_free_later_retirements() {
        let c: Collector<u64, u64> = Collector::new(4);
        // Nobody is pinned, so every announcement reads outside; the
        // horizon must still stop at the tick taken before the read.
        let horizon = c.horizon(c.clock.tick());
        {
            // A worker enters and retires a node while that scan runs.
            let g = c.pin();
            unsafe { c.retire(g.raw, mknode(4)) };
        }
        assert_eq!(
            c.free_below(horizon),
            0,
            "freed a node retired after the horizon"
        );
        assert_eq!(c.pending(), 1);
        assert_eq!(c.collect(), 1);
    }

    #[test]
    fn slot_claimed_above_high_water_mark_blocks_reclamation() {
        let c: Collector<u64, u64> = Collector::new(8);
        drop(c.pin());
        assert_eq!(c.claimed.load(Ordering::Relaxed), 1);
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
            let c2 = &c;
            s.spawn(move || {
                // First pin on this thread: claims slot 1, above the mark.
                let _g = c2.pin();
                tx.send(()).unwrap();
                done_rx.recv().unwrap();
            });
            rx.recv().unwrap();
            assert_eq!(c.claimed.load(Ordering::Relaxed), 2);
            {
                let g = c.pin();
                unsafe { c.retire(g.raw, mknode(5)) };
            }
            assert_eq!(c.collect(), 0, "the new slot's pin predates the retirement");
            done_tx.send(()).unwrap();
        });
        assert_eq!(c.collect(), 1);
    }

    #[test]
    fn slot_hint_holds_alternating_collectors() {
        let a: Collector<u64, u64> = Collector::new(2);
        // Ids are consecutive unless a concurrent test took one in between.
        let b: Collector<u64, u64> = std::iter::repeat_with(|| Collector::new(2))
            .find(|b| b.id % SLOT_HINT_WAYS as u64 != a.id % SLOT_HINT_WAYS as u64)
            .unwrap();
        for _ in 0..3 {
            drop(a.pin());
            drop(b.pin());
        }
        let cached = |c: &Collector<u64, u64>| {
            SLOT_HINT.with(|ways| ways[c.id as usize % SLOT_HINT_WAYS].get() == (c.id, 0))
        };
        assert!(
            cached(&a) && cached(&b),
            "alternating collectors evict each other"
        );
    }

    #[test]
    fn pins_announce_one_past_the_slots_latest_tick() {
        let c: Collector<u64, u64> = Collector::new(2);
        let entry = |g: RawGuard| c.slots[g.slot].entry.load(Ordering::Relaxed);
        let first = c.enter();
        assert_eq!(entry(first), 1, "no earlier tick on this slot");
        c.exit(first);
        let second = c.enter();
        assert_eq!(entry(second), first.tick + 1);
        assert!(second.tick >= entry(second));
        unsafe { c.retire(second, mknode(6)) };
        c.exit(second);
        assert_eq!(entry(second), OUTSIDE);
        // The retirement tick counts too: the next pin cannot block it.
        let third = c.enter();
        assert!(entry(third) > second.tick + 1);
        assert_eq!(c.collect(), 1);
        c.exit(third);
    }

    #[test]
    fn nested_pins_take_unique_ticks_and_keep_the_outer_entry() {
        let c: Collector<u64, u64> = Collector::new(2);
        let entry = |g: RawGuard| c.slots[g.slot].entry.load(Ordering::Relaxed);
        let outer = c.enter();
        let announced = entry(outer);
        let inner = c.enter();
        assert!(inner.tick > outer.tick);
        assert_eq!(entry(inner), announced);
        c.exit(inner);
        assert_eq!(entry(outer), announced, "nested exit retracted the pin");
        c.exit(outer);
        assert_eq!(entry(outer), OUTSIDE);
    }

    #[test]
    fn drop_flushes_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);

        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }

        let c: Collector<u64, Tracked> = Collector::new(2);
        {
            let g = c.pin();
            let n = Node::alloc(IKey::Val(1, 0), Some(Tracked), 1);
            unsafe { c.retire(g.raw, n) };
        }
        drop(c);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn threshold_triggers_automatic_collection() {
        let c: Collector<u64, u64> = Collector::new(2);
        for i in 0..(COLLECT_THRESHOLD as u64 + 8) {
            let g = c.pin();
            unsafe { c.retire(g.raw, mknode(i)) };
            drop(g);
        }
        // The automatic collection inside retire must have freed most
        // earlier garbage (everything retired before the current pin).
        assert!(c.pending() < COLLECT_THRESHOLD, "pending={}", c.pending());
        assert!(c.collect() > 0 || c.pending() == 0);
    }

    #[test]
    fn slots_are_reused_by_same_thread() {
        let c: Collector<u64, u64> = Collector::new(1);
        for _ in 0..100 {
            let _g = c.pin();
        }
        // One thread, one slot: never exhausts.
    }

    #[test]
    fn many_threads_each_get_a_slot() {
        let c: Collector<u64, u64> = Collector::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..50 {
                        let g = c.pin();
                        unsafe { c.retire(g.raw, mknode(i)) };
                    }
                });
            }
        });
        drop(c); // flushes; miri/asan would catch double/missing frees
    }
}
