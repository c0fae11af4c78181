//! Node representation for the concurrent SkipQueue.
//!
//! Mirrors the paper's node layout (Figure 1): a key, a value, a `deleted`
//! flag, a `timeStamp`, a whole-node lock, and per-level `{lock, next}`
//! pairs. Writes to a level's `next` only ever happen while holding that
//! level's `lock` of the owning node; reads are lock-free. All `unsafe`
//! in the crate funnels through the small helpers here and in
//! [`crate::queue`].
//!
//! # One block per node
//!
//! A node is a single heap block: the `#[repr(C)]` [`Node`] header,
//! followed directly by `height` inline [`Level`] entries (the *tower*).
//! The block's [`Layout`] is `Layout::new::<Node>()` extended by
//! `Layout::array::<Level>(height)`; [`Node::dealloc`] rebuilds the same
//! layout from the height stored in the header. A search step therefore
//! reads the key and the forward pointer from one block instead of
//! chasing a second pointer to a separately allocated tower. Tower
//! addresses are computed only here, always from the raw `*mut Node` that
//! [`Node::alloc`] returned, so their provenance covers the whole block.
//!
//! # Key ownership
//!
//! A node owns its key until [`Node::dealloc`]. The winning `delete_min`
//! hands its caller a clone, never the original: concurrent searchers
//! still holding a pointer to the (possibly already unlinked) node keep
//! comparing its key until the quiescence collector frees it, so the key
//! must stay alive exactly as long as the node does.

use std::alloc::{self, Layout};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use parking_lot::lock_api::RawMutex as RawMutexApi;
use parking_lot::RawMutex;

/// Hard cap on tower height; `SkipQueue::with_params` enforces it.
pub(crate) const MAX_HEIGHT: usize = 32;

/// Internal ordering key: sentinels plus `(priority, unique sequence)`.
///
/// The sequence number makes every entry's key unique, so the physical
/// delete can search for an exact identity and duplicate priorities pop in
/// FIFO order.
pub(crate) enum IKey<K> {
    /// Head sentinel: smaller than everything.
    NegInf,
    /// A real entry.
    Val(K, u64),
    /// Tail sentinel: larger than everything.
    PosInf,
}

impl<K: std::fmt::Debug> std::fmt::Debug for IKey<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IKey::NegInf => write!(f, "-inf"),
            IKey::Val(k, seq) => write!(f, "({k:?}, #{seq})"),
            IKey::PosInf => write!(f, "+inf"),
        }
    }
}

impl<K: Ord> IKey<K> {
    fn rank(&self) -> u8 {
        match self {
            IKey::NegInf => 0,
            IKey::Val(..) => 1,
            IKey::PosInf => 2,
        }
    }
}

impl<K: Ord> PartialEq for IKey<K> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (IKey::Val(a, sa), IKey::Val(b, sb)) => sa == sb && a == b,
            _ => self.rank() == other.rank(),
        }
    }
}

impl<K: Ord> Eq for IKey<K> {}

impl<K: Ord> PartialOrd for IKey<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for IKey<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (IKey::Val(a, sa), IKey::Val(b, sb)) => a.cmp(b).then(sa.cmp(sb)),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// One level of a node's tower: the forward pointer and the lock that
/// guards *writes* to it.
#[repr(C)]
pub(crate) struct Level<K, V> {
    pub next: AtomicPtr<Node<K, V>>,
    pub lock: RawMutex,
}

/// A SkipQueue node header; its tower follows it in the same block (see
/// the module docs). Allocated with [`Node::alloc`], freed with
/// [`Node::dealloc`] (via the quiescence collector). Only this module can
/// build one, because `height` is private.
///
/// `key` is the last field, so it sits right before the tower: a search
/// step compares a node's key and loads its forward pointer, and keeping
/// the two adjacent puts them on one cache line more often.
#[repr(C)]
pub(crate) struct Node<K, V> {
    /// `TimestampClock::MAX_TIME` until the insert completes.
    pub timestamp: AtomicU64,
    /// Present until the winning deleter extracts it.
    pub value: UnsafeCell<Option<V>>,
    /// The logical-deletion mark, claimed with an atomic swap.
    pub deleted: AtomicBool,
    /// Serializes whole-node phases: held for the full linking of an insert
    /// and, in relaxed mode only, for the full unlinking of a delete.
    pub node_lock: RawMutex,
    /// Number of [`Level`] entries following the header; never changes.
    height: u8,
    pub key: IKey<K>,
}

impl<K, V> Node<K, V> {
    /// Byte offset of the tower from the start of the block. The same for
    /// every height, because `Layout::extend` only pads the header to the
    /// alignment of `Level`.
    const TOWER_OFFSET: usize = match Layout::new::<Self>().extend(Layout::new::<Level<K, V>>()) {
        Ok((_, offset)) => offset,
        Err(_) => panic!("node header layout overflows"),
    };

    /// The block layout of a node with `height` levels.
    fn layout(height: usize) -> Layout {
        let (layout, offset) = Layout::new::<Self>()
            .extend(Layout::array::<Level<K, V>>(height).expect("tower size overflows"))
            .expect("node layout overflows");
        debug_assert_eq!(offset, Self::TOWER_OFFSET);
        layout.pad_to_align()
    }

    /// Heap-allocates a node of the given height as one block, fully
    /// unlinked, unmarked, with `timeStamp = MAX_TIME`.
    pub fn alloc(key: IKey<K>, value: Option<V>, height: usize) -> *mut Self {
        assert!((1..=MAX_HEIGHT).contains(&height));
        let layout = Self::layout(height);
        // SAFETY: the layout is non-zero-sized (the header alone is).
        let node = unsafe { alloc::alloc(layout) }.cast::<Self>();
        if node.is_null() {
            alloc::handle_alloc_error(layout);
        }
        // SAFETY: `node` is a fresh block sized and aligned for the header
        // plus `height` levels; every write stays inside it.
        unsafe {
            node.write(Node {
                key,
                timestamp: AtomicU64::new(u64::MAX),
                value: UnsafeCell::new(value),
                deleted: AtomicBool::new(false),
                node_lock: RawMutex::INIT,
                height: height as u8,
            });
            let tower = Self::tower(node);
            for lvl in 0..height {
                tower.add(lvl).write(Level {
                    next: AtomicPtr::new(std::ptr::null_mut()),
                    lock: RawMutex::INIT,
                });
            }
        }
        node
    }

    /// Frees a node, dropping its key and any value still present.
    ///
    /// # Safety
    ///
    /// `ptr` must have come from [`Node::alloc`], must not be freed twice,
    /// and no other thread may access it concurrently or afterwards (the
    /// collector's quiescence rule establishes this).
    pub unsafe fn dealloc(ptr: *mut Self) {
        const { assert!(!std::mem::needs_drop::<Level<K, V>>()) };
        // SAFETY: per contract, `ptr` is a live block from `alloc` that we
        // own exclusively; the layout is rebuilt from its stored height.
        // The levels have no drop glue, so dropping the header (key and
        // value) is all the cleanup the block needs.
        unsafe {
            let layout = Self::layout((*ptr).height());
            std::ptr::drop_in_place(ptr);
            alloc::dealloc(ptr.cast(), layout);
        }
    }

    /// Address of the first tower entry. Pure address arithmetic from the
    /// block's own pointer, so the result carries the block's provenance.
    fn tower(node: *mut Self) -> *mut Level<K, V> {
        node.wrapping_byte_add(Self::TOWER_OFFSET).cast()
    }

    /// Tower height (number of linked levels).
    pub fn height(&self) -> usize {
        usize::from(self.height)
    }

    /// Level `lvl` of `node`'s tower.
    ///
    /// # Safety
    ///
    /// `node` must point at a live node from [`Node::alloc`] that stays
    /// allocated for `'a`, and `lvl` must be below its height. The list
    /// structure provides the second condition: only nodes at least
    /// `lvl + 1` levels tall are ever linked at level `lvl` (an unlinked
    /// node's backward pointer at `lvl` leads to its level-`lvl`
    /// predecessor), so every node a walk reaches at `lvl` qualifies. The
    /// check is debug-only because it costs a measurable share of a
    /// large-queue search, where every step is a cache miss.
    pub unsafe fn level<'a>(node: *mut Self, lvl: usize) -> &'a Level<K, V> {
        // SAFETY: per contract the header is live and `lvl` is inside the
        // tower, so the offset stays inside the block; the pointer derives
        // from `node`, whose provenance covers the whole block.
        unsafe {
            debug_assert!(lvl < (*node).height(), "level {lvl} above the tower");
            &*Self::tower(node).add(lvl)
        }
    }

    /// Lock-free read of `node`'s level-`lvl` forward pointer.
    ///
    /// # Safety
    ///
    /// As for [`Node::level`].
    pub unsafe fn next(node: *mut Self, lvl: usize) -> *mut Self {
        // SAFETY: per contract.
        unsafe { Self::level(node, lvl).next.load(Ordering::Acquire) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(k: u64, seq: u64) -> IKey<u64> {
        IKey::Val(k, seq)
    }

    #[test]
    fn ikey_ordering() {
        assert!(IKey::<u64>::NegInf < val(0, 0));
        assert!(val(u64::MAX, u64::MAX) < IKey::PosInf);
        assert!(IKey::<u64>::NegInf < IKey::PosInf);
        assert!(val(1, 5) < val(2, 0));
        assert!(val(1, 0) < val(1, 1), "ties broken by sequence");
        assert_eq!(val(3, 3), val(3, 3));
        assert_ne!(val(3, 3), val(3, 4));
    }

    #[test]
    fn alloc_dealloc_roundtrip() {
        let n = Node::alloc(val(7, 0), Some(String::from("payload")), 4);
        unsafe {
            assert_eq!((*n).height(), 4);
            assert!(Node::next(n, 0).is_null());
            assert!(!(*n).deleted.load(Ordering::Relaxed));
            assert_eq!((*n).timestamp.load(Ordering::Relaxed), u64::MAX);
            Node::dealloc(n);
        }
    }

    /// Counts drops of the values it tags, so a test can check that every
    /// key and value of a freed node drops exactly once.
    #[derive(Clone)]
    struct Tracked<'a>(u64, &'a std::sync::atomic::AtomicUsize);

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn every_height_frees_key_and_value_once() {
        use std::sync::atomic::AtomicUsize;

        for height in 1..=MAX_HEIGHT {
            for take_value in [false, true] {
                let keys = AtomicUsize::new(0);
                let values = AtomicUsize::new(0);
                let n = Node::alloc(
                    IKey::Val(Tracked(9, &keys), 0),
                    Some(Tracked(height as u64, &values)),
                    height,
                );
                unsafe {
                    assert_eq!((*n).height(), height);
                    // Touch the top level so an undersized block shows up
                    // under a memory checker.
                    let top = Node::level(n, height - 1);
                    top.next.store(n, Ordering::Relaxed);
                    assert_eq!(Node::next(n, height - 1), n);
                    if take_value {
                        let v = (*(*n).value.get()).take().expect("value present");
                        assert_eq!(v.0, height as u64);
                    }
                    assert_eq!(values.load(Ordering::SeqCst), usize::from(take_value));
                    Node::dealloc(n);
                }
                assert_eq!(keys.load(Ordering::SeqCst), 1, "height {height}: key");
                assert_eq!(values.load(Ordering::SeqCst), 1, "height {height}: value");
            }
        }
    }

    #[test]
    fn claimed_key_is_cloned_and_dropped_once_at_dealloc() {
        use std::sync::atomic::AtomicUsize;

        let keys = AtomicUsize::new(0);
        let n = Node::alloc(IKey::Val(Tracked(9, &keys), 0), Some(()), 1);
        unsafe {
            (*n).deleted.store(true, Ordering::Relaxed);
            let k = match &(*n).key {
                IKey::Val(k, _) => k.clone(),
                _ => unreachable!(),
            };
            assert_eq!(k.0, 9);
            drop(k);
            assert_eq!(keys.load(Ordering::SeqCst), 1, "only the clone dropped");
            // The node's own key is still intact for late readers.
            assert!(matches!(&(*n).key, IKey::Val(Tracked(9, _), 0)));
            Node::dealloc(n);
        }
        assert_eq!(keys.load(Ordering::SeqCst), 2, "dealloc drops the original");
    }

    #[test]
    fn level_locks_are_independent() {
        let n = Node::alloc(val(1, 1), Some(()), 3);
        unsafe {
            Node::level(n, 0).lock.lock();
            assert!(Node::level(n, 1).lock.try_lock());
            Node::level(n, 1).lock.unlock();
            Node::level(n, 0).lock.unlock();
            Node::dealloc(n);
        }
    }
}
