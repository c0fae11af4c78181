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
//! This is a QSBR-style scheme. Entry announcements and deletion stamps come
//! from one global atomic counter, so they are totally ordered; the pin path
//! uses a `SeqCst` fence (as in crossbeam-epoch) so a thread's announcement
//! is visible to any collector that could otherwise free a node the thread
//! may still reach.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::clock::TimestampClock;
use crate::node::Node;

/// "Thread is outside the structure."
const OUTSIDE: u64 = u64::MAX;

/// Collect the slot's own garbage once it holds this many retired nodes.
const COLLECT_THRESHOLD: usize = 64;

struct Retired<K, V> {
    ptr: *mut Node<K, V>,
    ts: u64,
}

struct Slot<K, V> {
    /// Stable token of the owning thread; 0 = unclaimed.
    owner: AtomicUsize,
    /// Entry timestamp, or [`OUTSIDE`].
    entry: AtomicU64,
    /// Nodes retired by the owning thread, awaiting quiescence.
    garbage: Mutex<Vec<Retired<K, V>>>,
}

/// The per-queue collector: one announcement slot per thread, plus the
/// global stamp clock.
pub struct Collector<K, V> {
    id: u64,
    clock: TimestampClock,
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
/// `nested` marks a re-entrant pin on an already-pinned thread (a test
/// phase hook injecting an insert from inside a cleanup sweep): the outer,
/// older announcement is kept and the nested exit is a no-op, so the outer
/// pin's protection is never retracted early.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RawGuard {
    slot: usize,
    nested: bool,
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
                    garbage: Mutex::new(Vec::new()),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            id: collector_ids(),
            clock: TimestampClock::new(),
            slots,
        }
    }

    fn claim_slot(&self) -> usize {
        let token = thread_token();
        // Re-find a slot this thread already owns (cache miss after the
        // thread-local map was dropped, or first touch), else claim a free
        // one.
        for (i, s) in self.slots.iter().enumerate() {
            if s.owner.load(Ordering::Relaxed) == token {
                return i;
            }
        }
        for (i, s) in self.slots.iter().enumerate() {
            if s.owner.load(Ordering::Relaxed) == 0
                && s.owner
                    .compare_exchange(0, token, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
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
        SLOT_CACHE.with(|c| {
            let mut map = c.borrow_mut();
            if let Some(&idx) = map.get(&self.id) {
                return idx;
            }
            let idx = self.claim_slot();
            map.insert(self.id, idx);
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
        if slot.entry.load(Ordering::Relaxed) != OUTSIDE {
            // Already pinned by an outer operation on this thread: keep the
            // older (more conservative) announcement.
            return RawGuard {
                slot: slot_idx,
                nested: true,
            };
        }
        let t = self.clock.tick();
        slot.entry.store(t, Ordering::SeqCst);
        // Make the announcement visible before any pointer into the
        // structure is read (crossbeam-epoch-style publication fence).
        fence(Ordering::SeqCst);
        RawGuard {
            slot: slot_idx,
            nested: false,
        }
    }

    /// Retracts an [`Collector::enter`] announcement (no-op for a nested
    /// token — the outer exit retracts it).
    pub(crate) fn exit(&self, g: RawGuard) {
        if !g.nested {
            self.slots[g.slot].entry.store(OUTSIDE, Ordering::Release);
        }
    }

    /// Retires an unlinked node: it will be freed once every thread that was
    /// inside the structure at this moment has exited.
    ///
    /// # Safety
    ///
    /// `ptr` must be a fully unlinked node from the owning queue, retired at
    /// most once, with no new references to it created after unlinking
    /// (traversals holding older references are exactly what the quiescence
    /// rule waits out). The calling thread must currently be entered with
    /// `g`.
    pub(crate) unsafe fn retire(&self, g: RawGuard, ptr: *mut Node<K, V>) {
        // SAFETY: forwarded contract.
        unsafe { self.retire_batch(g, std::iter::once(ptr)) }
    }

    /// Retires a whole group of unlinked nodes as one unit: a single
    /// deletion stamp covers the group and the slot's garbage lock is taken
    /// once, so a batched physical delete amortizes the retirement
    /// bookkeeping the same way it amortizes the unlinking itself. The
    /// group becomes reclaimable atomically — once every thread that was
    /// inside the structure at this moment has exited.
    ///
    /// # Safety
    ///
    /// Every pointer must satisfy the [`Collector::retire`] contract.
    pub(crate) unsafe fn retire_batch<I>(&self, g: RawGuard, ptrs: I)
    where
        I: IntoIterator<Item = *mut Node<K, V>>,
    {
        let ts = self.clock.tick();
        let slot = &self.slots[g.slot];
        let run_collect = {
            let mut g = slot.garbage.lock();
            g.extend(ptrs.into_iter().map(|ptr| Retired { ptr, ts }));
            g.len() >= COLLECT_THRESHOLD
        };
        if run_collect {
            self.collect();
        }
    }

    /// The oldest entry announcement across all claimed slots.
    fn min_entry(&self) -> u64 {
        fence(Ordering::SeqCst);
        self.slots
            .iter()
            .filter(|s| s.owner.load(Ordering::Relaxed) != 0)
            .map(|s| s.entry.load(Ordering::SeqCst))
            .min()
            .unwrap_or(OUTSIDE)
    }

    /// Frees every retired node older than the oldest announcement, across
    /// all slots (so garbage from exited threads is swept too).
    pub fn collect(&self) -> usize {
        let horizon = self.min_entry();
        let mut freed = 0;
        for s in self.slots.iter() {
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
        self.slots.iter().map(|s| s.garbage.lock().len()).sum()
    }

    /// Frees all remaining garbage unconditionally. Requires `&mut self`:
    /// exclusive access proves no thread is inside the structure.
    pub fn flush_all(&mut self) {
        for s in self.slots.iter() {
            let mut g = s.garbage.lock();
            for r in g.drain(..) {
                // SAFETY: exclusive access to the collector (and therefore
                // to the queue that owns it) means no concurrent readers.
                unsafe { Node::dealloc(r.ptr) };
            }
        }
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
