//! A sequential skiplist priority queue.
//!
//! This is Pugh's classic (single-threaded) skiplist specialized to
//! priority-queue use: entries ordered by `(key, insertion sequence)`,
//! minimum at the front of the bottom level. It serves three roles in the
//! workspace: a reference model for the concurrent queue's tests, the
//! single-threaded performance baseline in the Criterion benches, and —
//! wrapped in a mutex via [`crate::pq`] adapters — the "one big lock"
//! strawman the paper dismisses.
//!
//! The implementation is index-based (an arena of nodes) and contains no
//! `unsafe`.

use crate::pq::PriorityQueue;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct SeqNode<K, V> {
    /// `None` for the head sentinel.
    key: Option<(K, u64)>,
    value: Option<V>,
    next: Vec<usize>,
}

/// A sequential skiplist priority queue. Not thread-safe by itself; see
/// [`crate::pq`] for a locked adapter.
#[derive(Debug)]
pub struct SeqSkipList<K, V> {
    nodes: Vec<SeqNode<K, V>>,
    free: Vec<usize>,
    len: usize,
    max_height: usize,
    rng_state: u64,
    seq: u64,
}

impl<K: Ord, V> Default for SeqSkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> SeqSkipList<K, V> {
    /// Creates an empty queue with the default height cap (32 levels).
    pub fn new() -> Self {
        Self::with_params(32, 0x9E37_79B9)
    }

    /// Creates an empty queue with an explicit height cap and RNG seed.
    /// Towers grow one level with probability 1/2.
    pub fn with_params(max_height: usize, seed: u64) -> Self {
        assert!((1..=64).contains(&max_height));
        let head = SeqNode {
            key: None,
            value: None,
            next: vec![NIL; max_height],
        };
        Self {
            nodes: vec![head],
            free: Vec::new(),
            len: 0,
            max_height,
            rng_state: seed | 1,
            seq: 0,
        }
    }

    fn random_height(&mut self) -> usize {
        // xorshift64*; deterministic given the seed. A tower grows while the
        // low 32 bits fall below half their range.
        const HALF: u64 = (u32::MAX / 2) as u64;
        let mut h = 1;
        loop {
            self.rng_state ^= self.rng_state << 13;
            self.rng_state ^= self.rng_state >> 7;
            self.rng_state ^= self.rng_state << 17;
            if h >= self.max_height || (self.rng_state & 0xFFFF_FFFF) >= HALF {
                return h;
            }
            h += 1;
        }
    }

    fn key_less(a: &(K, u64), b: &(K, u64)) -> bool {
        a < b
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` with priority `key`. Duplicate priorities are kept in
    /// FIFO order.
    pub fn insert(&mut self, key: K, value: V) {
        let height = self.random_height();
        let ikey = (key, self.seq);
        self.seq += 1;

        // Find the predecessor at every level.
        let mut preds = vec![0usize; self.max_height];
        let mut cur = 0usize;
        for lvl in (0..self.max_height).rev() {
            loop {
                let nxt = self.nodes[cur].next[lvl];
                if nxt == NIL {
                    break;
                }
                let nk = self.nodes[nxt].key.as_ref().expect("non-head node has key");
                if Self::key_less(nk, &ikey) {
                    cur = nxt;
                } else {
                    break;
                }
            }
            preds[lvl] = cur;
        }

        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.nodes.push(SeqNode {
                    key: None,
                    value: None,
                    next: Vec::new(),
                });
                self.nodes.len() - 1
            }
        };
        self.nodes[idx].key = Some(ikey);
        self.nodes[idx].value = Some(value);
        self.nodes[idx].next.clear();
        self.nodes[idx].next.resize(height, NIL);
        for (lvl, &p) in preds.iter().enumerate().take(height) {
            self.nodes[idx].next[lvl] = self.nodes[p].next[lvl];
            self.nodes[p].next[lvl] = idx;
        }
        self.len += 1;
    }

    /// Returns a reference to the minimum entry without removing it.
    pub fn peek_min(&self) -> Option<(&K, &V)> {
        let first = self.nodes[0].next[0];
        if first == NIL {
            return None;
        }
        let node = &self.nodes[first];
        Some((
            &node.key.as_ref().expect("entry has key").0,
            node.value.as_ref().expect("entry has value"),
        ))
    }

    /// Removes and returns the minimum entry.
    pub fn delete_min(&mut self) -> Option<(K, V)> {
        let first = self.nodes[0].next[0];
        if first == NIL {
            return None;
        }
        // Unlink at every level where the head points at `first`.
        let height = self.nodes[first].next.len();
        for lvl in 0..height {
            debug_assert_eq!(self.nodes[0].next[lvl], first);
            self.nodes[0].next[lvl] = self.nodes[first].next[lvl];
        }
        let (key, _) = self.nodes[first].key.take().expect("entry has key");
        let value = self.nodes[first].value.take().expect("entry has value");
        self.free.push(first);
        self.len -= 1;
        Some((key, value))
    }

    /// Drains the queue in priority order.
    pub fn drain_sorted(&mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(kv) = self.delete_min() {
            out.push(kv);
        }
        out
    }

    /// Checks the structural invariants (sorted levels, sublist property).
    /// Used by tests; cheap enough to call after every operation in small
    /// tests.
    pub fn check_invariants(&self) {
        // Every level is sorted and a sub-sequence of the level below.
        for lvl in 0..self.max_height {
            let mut cur = self.nodes[0].next[lvl];
            let mut prev_key: Option<&(K, u64)> = None;
            while cur != NIL {
                let node = &self.nodes[cur];
                assert!(node.next.len() > lvl, "node linked above its height");
                let k = node.key.as_ref().expect("linked node has key");
                if let Some(pk) = prev_key {
                    assert!(pk < k, "level {lvl} out of order");
                }
                prev_key = Some(k);
                if lvl > 0 {
                    // Must also be linked at the level below.
                    let mut below = self.nodes[0].next[lvl - 1];
                    let mut found = false;
                    while below != NIL {
                        if below == cur {
                            found = true;
                            break;
                        }
                        below = self.nodes[below].next[lvl - 1];
                    }
                    assert!(found, "node missing from lower level");
                }
                cur = node.next[lvl];
            }
        }
        // Bottom-level count matches len.
        let mut count = 0;
        let mut cur = self.nodes[0].next[0];
        while cur != NIL {
            count += 1;
            cur = self.nodes[cur].next[0];
        }
        assert_eq!(count, self.len, "len out of sync with bottom level");
    }
}

/// [`SeqSkipList`] behind one mutex: the "single global lock" baseline.
#[derive(Debug)]
pub struct LockedSeqSkipList<K, V> {
    inner: parking_lot::Mutex<SeqSkipList<K, V>>,
}

impl<K: Ord, V> Default for LockedSeqSkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> LockedSeqSkipList<K, V> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            inner: parking_lot::Mutex::new(SeqSkipList::new()),
        }
    }
}

impl<K: Ord + Send, V: Send> PriorityQueue<K, V> for LockedSeqSkipList<K, V> {
    fn insert(&self, key: K, value: V) {
        self.inner.lock().insert(key, value);
    }

    fn delete_min(&self) -> Option<(K, V)> {
        self.inner.lock().delete_min()
    }

    fn len(&self) -> usize {
        self.inner.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_queue_behaviour() {
        let mut q: SeqSkipList<u64, u64> = SeqSkipList::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_min(), None);
        assert_eq!(q.delete_min(), None);
        q.check_invariants();
    }

    #[test]
    fn single_element_roundtrip() {
        let mut q = SeqSkipList::new();
        q.insert(5u64, "five");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_min(), Some((&5, &"five")));
        assert_eq!(q.delete_min(), Some((5, "five")));
        assert!(q.is_empty());
    }

    #[test]
    fn returns_in_priority_order() {
        let mut q = SeqSkipList::new();
        for k in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            q.insert(k, k * 10);
            q.check_invariants();
        }
        let drained = q.drain_sorted();
        let keys: Vec<u64> = drained.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
        let vals: Vec<u64> = drained.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, (0..10).map(|k| k * 10).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_priorities_fifo() {
        let mut q = SeqSkipList::new();
        q.insert(1u64, "a");
        q.insert(1, "b");
        q.insert(1, "c");
        assert_eq!(q.delete_min(), Some((1, "a")));
        assert_eq!(q.delete_min(), Some((1, "b")));
        assert_eq!(q.delete_min(), Some((1, "c")));
    }

    #[test]
    fn interleaved_inserts_and_deletes() {
        let mut q = SeqSkipList::new();
        let mut reference = std::collections::BinaryHeap::new();
        let mut state = 12345u64;
        for _ in 0..2_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = state >> 40;
            if state.is_multiple_of(3) {
                match (q.delete_min(), reference.pop()) {
                    (Some((a, _)), Some(std::cmp::Reverse(b))) => assert_eq!(a, b),
                    (None, None) => {}
                    (a, b) => panic!("mismatch: {a:?} vs {b:?}"),
                }
            } else {
                q.insert(k, k);
                reference.push(std::cmp::Reverse(k));
            }
        }
        q.check_invariants();
        assert_eq!(q.len(), reference.len());
    }

    #[test]
    fn node_reuse_from_free_list() {
        let mut q = SeqSkipList::new();
        for round in 0..10 {
            for k in 0..100u64 {
                q.insert(k, round);
            }
            for _ in 0..100 {
                q.delete_min().unwrap();
            }
        }
        // Arena should not have grown 10x: freed nodes are reused.
        assert!(q.nodes.len() <= 256, "arena grew to {}", q.nodes.len());
    }

    #[test]
    fn max_height_one_degenerates_to_list() {
        let mut q = SeqSkipList::with_params(1, 7);
        for k in [3u64, 1, 2] {
            q.insert(k, ());
        }
        q.check_invariants();
        assert_eq!(q.delete_min(), Some((1, ())));
        assert_eq!(q.delete_min(), Some((2, ())));
        assert_eq!(q.delete_min(), Some((3, ())));
    }

    #[test]
    fn locked_adapter_is_usable_across_threads() {
        use crate::pq::PriorityQueue;
        let q = LockedSeqSkipList::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..250u64 {
                        q.insert(t * 1000 + i, i);
                    }
                });
            }
        });
        assert_eq!(PriorityQueue::len(&q), 1000);
        let (k, _) = q.delete_min().unwrap();
        assert_eq!(k, 0);
    }

    #[test]
    fn large_insert_then_drain_is_sorted() {
        let mut q = SeqSkipList::with_params(16, 99);
        let mut state = 1u64;
        let mut keys = Vec::new();
        for _ in 0..5_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            keys.push(state);
            q.insert(state, ());
        }
        keys.sort_unstable();
        let drained: Vec<u64> = q.drain_sorted().into_iter().map(|(k, _)| k).collect();
        assert_eq!(drained, keys);
    }
}
