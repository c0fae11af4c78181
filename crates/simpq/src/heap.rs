//! The Hunt et al. heap on the simulated machine.
//!
//! The `Heap` series of every figure in the paper. Mirrors the published
//! algorithm: a single size lock, one lock and a tag per node, bit-reversed
//! insertion targets (reusing [`huntheap::bit_reversed_position`]),
//! bottom-up insertions, top-down deletions. Every field access is a
//! charged simulated shared-memory operation; the size lock and the root
//! slot therefore become measurable hot spots — the effect the SkipQueue
//! paper demonstrates.
//!
//! Slot layout (words from the slot base): `+0 tag, +1 key, +2 value`.
//! Tag encoding: `0 = EMPTY`, `1 = AVAILABLE`, `2 + pid = BUSY(pid)`.

use pqsim::{Addr, LockId, Machine, Pcg32, Proc, Sim, Word};

use huntheap::bit_reversed_position;

use crate::tap::HistoryTap;

const TAG: u32 = 0;
const KEY: u32 = 1;
const VALUE: u32 = 2;
const SLOT_WORDS: u32 = 3;

const EMPTY: Word = 0;
const AVAILABLE: Word = 1;

fn busy(pid: u32) -> Word {
    2 + Word::from(pid)
}

/// The simulator-hosted Hunt et al. concurrent heap.
#[derive(Clone)]
pub struct SimHuntHeap {
    /// Base address of the 1-indexed slot array.
    base: Addr,
    /// Address of the size word (guarded by `heap_lock`).
    size_addr: Addr,
    heap_lock: LockId,
    /// Per-slot lock ids, 1-indexed (index 0 unused). Lock resolution is
    /// address arithmetic in the original C: zero-cost here.
    slot_locks: Vec<LockId>,
    capacity: usize,
    /// Highest addressable slot: bit-reversed positions for a count range
    /// over the count's whole heap level, past `capacity` itself.
    max_pos: usize,
    /// Optional history sink; operations are stamped at their boundaries
    /// (`p.now()` on entry and exit). See [`crate::tap`].
    tap: Option<HistoryTap>,
}

impl SimHuntHeap {
    /// Builds an empty heap of fixed `capacity` (out-of-band, no simulated
    /// time). Slots are interleaved across the machine's nodes, as array
    /// pages are on Alewife; the size word lives on node 0.
    pub fn create(sim: &Sim, capacity: usize) -> Self {
        assert!(capacity >= 1);
        let max_pos = (capacity + 1).next_power_of_two() - 1;
        let m = sim.machine();
        let mut m = m.borrow_mut();
        let nproc = m.cfg.nproc.max(1);
        let base = m.mem.alloc((max_pos as u32 + 1) * SLOT_WORDS, 0);
        for i in 0..=max_pos as u32 {
            m.mem.set_home(base + i * SLOT_WORDS, SLOT_WORDS, i % nproc);
        }
        let size_addr = m.mem.alloc(1, 0);
        let heap_lock = {
            let w = m.mem.alloc(1, 0);
            m.locks.create(w)
        };
        let slot_locks = (0..=max_pos as u32)
            .map(|i| {
                let w = m.mem.alloc(1, i % nproc);
                m.locks.create(w)
            })
            .collect();
        Self {
            base,
            size_addr,
            heap_lock,
            slot_locks,
            capacity,
            max_pos,
            tap: None,
        }
    }

    /// Attaches a history tap; every subsequent insert / delete-min is
    /// recorded into it. Recorded workloads must use unique values that
    /// sort like their keys (see [`crate::tap`]).
    pub fn with_tap(mut self, tap: HistoryTap) -> Self {
        self.tap = Some(tap);
        self
    }

    fn slot(&self, i: usize) -> Addr {
        debug_assert!(i >= 1 && i <= self.max_pos);
        self.base + i as u32 * SLOT_WORDS
    }

    /// Inserts `(key, value)` — the published bottom-up walk with tags.
    pub async fn insert(&self, p: &Proc, key: u64, value: u64) {
        let op_start = p.now();
        self.insert_op(p, key, value).await;
        if let Some(tap) = &self.tap {
            tap.insert(value, op_start, p.now());
        }
    }

    async fn insert_op(&self, p: &Proc, key: u64, value: u64) {
        let me = busy(p.pid());

        // Claim the bit-reversed target under the size lock; hold the slot
        // lock before releasing the size lock.
        p.acquire(self.heap_lock).await;
        let size = p.read(self.size_addr).await as usize + 1;
        assert!(size <= self.capacity, "SimHuntHeap capacity exhausted");
        p.write(self.size_addr, size as Word).await;
        let mut i = bit_reversed_position(size);
        p.acquire(self.slot_locks[i]).await;
        p.release(self.heap_lock).await;
        p.write(self.slot(i) + TAG, me).await;
        p.write(self.slot(i) + KEY, key).await;
        p.write(self.slot(i) + VALUE, value).await;
        p.release(self.slot_locks[i]).await;

        // Walk toward the root.
        while i > 1 {
            let parent = i / 2;
            p.acquire(self.slot_locks[parent]).await;
            p.acquire(self.slot_locks[i]).await;
            let ptag = p.read(self.slot(parent) + TAG).await;
            let ctag = p.read(self.slot(i) + TAG).await;
            let next_i;
            if ptag == AVAILABLE && ctag == me {
                let ck = p.read(self.slot(i) + KEY).await;
                let pk = p.read(self.slot(parent) + KEY).await;
                if ck < pk {
                    // Swap items; our tag travels with our item.
                    let cv = p.read(self.slot(i) + VALUE).await;
                    let pv = p.read(self.slot(parent) + VALUE).await;
                    p.write(self.slot(i) + KEY, pk).await;
                    p.write(self.slot(i) + VALUE, pv).await;
                    p.write(self.slot(i) + TAG, AVAILABLE).await;
                    p.write(self.slot(parent) + KEY, ck).await;
                    p.write(self.slot(parent) + VALUE, cv).await;
                    p.write(self.slot(parent) + TAG, me).await;
                    next_i = parent;
                } else {
                    p.write(self.slot(i) + TAG, AVAILABLE).await;
                    next_i = 0;
                }
            } else if ptag == EMPTY {
                // Our item was consumed by a delete.
                next_i = 0;
            } else if ctag != me {
                // Our item was moved; chase it upward.
                next_i = parent;
            } else {
                // Parent is BUSY with another in-flight insert: retry after
                // a short backoff so retries do not storm the lock queues.
                p.work(64);
                next_i = i;
            }
            p.release(self.slot_locks[i]).await;
            p.release(self.slot_locks[parent]).await;
            i = next_i;
        }
        if i == 1 {
            p.acquire(self.slot_locks[1]).await;
            let t = p.read(self.slot(1) + TAG).await;
            if t == me {
                p.write(self.slot(1) + TAG, AVAILABLE).await;
            }
            p.release(self.slot_locks[1]).await;
        }
    }

    /// Removes and returns the minimum, or `None` when empty.
    pub async fn delete_min(&self, p: &Proc) -> Option<(u64, u64)> {
        let op_start = p.now();
        let r = self.delete_min_op(p).await;
        if let Some(tap) = &self.tap {
            tap.delete_min(r.map(|(_, v)| v), op_start, p.now());
        }
        r
    }

    async fn delete_min_op(&self, p: &Proc) -> Option<(u64, u64)> {
        // Claim the last occupied slot under the size lock.
        p.acquire(self.heap_lock).await;
        let bound = p.read(self.size_addr).await as usize;
        if bound == 0 {
            p.release(self.heap_lock).await;
            return None;
        }
        p.write(self.size_addr, (bound - 1) as Word).await;
        let last = bit_reversed_position(bound);
        p.acquire(self.slot_locks[last]).await;
        p.release(self.heap_lock).await;
        let mut lk = p.read(self.slot(last) + KEY).await;
        let mut lv = p.read(self.slot(last) + VALUE).await;
        p.write(self.slot(last) + TAG, EMPTY).await;
        p.release(self.slot_locks[last]).await;

        // Swap the extracted item with the root and sift down.
        p.acquire(self.slot_locks[1]).await;
        let rtag = p.read(self.slot(1) + TAG).await;
        if rtag == EMPTY {
            // The last item was the root: the heap had one element.
            p.release(self.slot_locks[1]).await;
            return Some((lk, lv));
        }
        let rk = p.read(self.slot(1) + KEY).await;
        let rv = p.read(self.slot(1) + VALUE).await;
        p.write(self.slot(1) + KEY, lk).await;
        p.write(self.slot(1) + VALUE, lv).await;
        p.write(self.slot(1) + TAG, AVAILABLE).await;
        lk = rk;
        lv = rv;

        let mut cur = 1usize;
        loop {
            let left = 2 * cur;
            if left > self.max_pos {
                break;
            }
            p.acquire(self.slot_locks[left]).await;
            let right = left + 1;
            let mut right_locked = false;
            let ltag = p.read(self.slot(left) + TAG).await;
            let mut child = 0usize;
            if right <= self.max_pos {
                p.acquire(self.slot_locks[right]).await;
                right_locked = true;
                let rtag = p.read(self.slot(right) + TAG).await;
                match (ltag != EMPTY, rtag != EMPTY) {
                    (false, false) => {}
                    (true, false) => child = left,
                    (false, true) => child = right,
                    (true, true) => {
                        let lkc = p.read(self.slot(left) + KEY).await;
                        let rkc = p.read(self.slot(right) + KEY).await;
                        child = if lkc <= rkc { left } else { right };
                    }
                }
            } else if ltag != EMPTY {
                child = left;
            }
            if child == 0 {
                if right_locked {
                    p.release(self.slot_locks[right]).await;
                }
                p.release(self.slot_locks[left]).await;
                break;
            }
            // Release the non-chosen child.
            if right_locked && child == left {
                p.release(self.slot_locks[right]).await;
            } else if child == right {
                p.release(self.slot_locks[left]).await;
            }
            let ck = p.read(self.slot(child) + KEY).await;
            let mk = p.read(self.slot(cur) + KEY).await;
            if ck < mk {
                // Swap cur and child (items + tags).
                let cv = p.read(self.slot(child) + VALUE).await;
                let mv = p.read(self.slot(cur) + VALUE).await;
                let ctag = p.read(self.slot(child) + TAG).await;
                let mtag = p.read(self.slot(cur) + TAG).await;
                p.write(self.slot(child) + KEY, mk).await;
                p.write(self.slot(child) + VALUE, mv).await;
                p.write(self.slot(child) + TAG, mtag).await;
                p.write(self.slot(cur) + KEY, ck).await;
                p.write(self.slot(cur) + VALUE, cv).await;
                p.write(self.slot(cur) + TAG, ctag).await;
                p.release(self.slot_locks[cur]).await;
                cur = child;
            } else {
                p.release(self.slot_locks[child]).await;
                break;
            }
        }
        p.release(self.slot_locks[cur]).await;
        Some((lk, lv))
    }

    /// Out-of-band population with `n` sorted-by-position keys (valid heap).
    /// Returns the keys used.
    pub fn populate(&self, sim: &Sim, rng: &mut Pcg32, n: usize, key_range: u64) -> Vec<u64> {
        assert!(n <= self.capacity);
        let m = sim.machine();
        let mut m = m.borrow_mut();
        let mut keys: Vec<u64> = (0..n).map(|_| 1 + rng.gen_range_u64(key_range)).collect();
        keys.sort_unstable();
        // Occupied positions sorted ascending get ascending keys: since
        // parent index < child index, the heap property holds.
        let mut positions: Vec<usize> = (1..=n).map(bit_reversed_position).collect();
        positions.sort_unstable();
        for (pos, &k) in positions.iter().zip(keys.iter()) {
            let s = self.base + *pos as u32 * SLOT_WORDS;
            m.mem.poke(s + TAG, AVAILABLE);
            m.mem.poke(s + KEY, k);
            m.mem.poke(s + VALUE, k ^ 0xA5A5);
        }
        m.mem.poke(self.size_addr, n as Word);
        keys
    }

    /// Out-of-band heap-property check; returns the item count (quiescent
    /// states only).
    pub fn check_invariants(&self, sim: &Sim) -> usize {
        let m = sim.machine();
        let m = m.borrow();
        self.check_invariants_m(&m)
    }

    fn check_invariants_m(&self, m: &Machine) -> usize {
        let size = m.mem.peek(self.size_addr) as usize;
        let occupied: Vec<usize> = (1..=size).map(bit_reversed_position).collect();
        for &pos in &occupied {
            let s = self.base + pos as u32 * SLOT_WORDS;
            assert_eq!(
                m.mem.peek(s + TAG),
                AVAILABLE,
                "occupied slot {pos} not AVAILABLE in quiescent state"
            );
            if pos > 1 {
                let ps = self.base + (pos / 2) as u32 * SLOT_WORDS;
                assert!(
                    m.mem.peek(ps + KEY) <= m.mem.peek(s + KEY),
                    "heap property violated at {pos}"
                );
            }
        }
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqsim::SimConfig;

    fn new_sim(n: u32) -> Sim {
        Sim::new(SimConfig::new(n).with_seed(77))
    }

    #[test]
    fn empty_heap_returns_none() {
        let mut sim = new_sim(1);
        let h = SimHuntHeap::create(&sim, 16);
        let out = sim.alloc_shared(1);
        let h2 = h.clone();
        sim.spawn(move |p| async move {
            let r = h2.delete_min(&p).await;
            p.write(out, r.is_none() as u64).await;
        });
        sim.run();
        assert_eq!(sim.read_word(out), 1);
    }

    #[test]
    fn single_proc_ordering() {
        let mut sim = new_sim(1);
        let h = SimHuntHeap::create(&sim, 64);
        let out = sim.alloc_shared(10);
        let h2 = h.clone();
        sim.spawn(move |p| async move {
            for k in [5u64, 2, 9, 1, 7, 3, 8, 4, 6, 10] {
                h2.insert(&p, k, k * 10).await;
            }
            for i in 0..10u32 {
                let (k, v) = h2.delete_min(&p).await.unwrap();
                assert_eq!(v, k * 10);
                p.write(out + i, k).await;
            }
        });
        sim.run();
        let got: Vec<u64> = (0..10).map(|i| sim.read_word(out + i)).collect();
        assert_eq!(got, (1..=10).collect::<Vec<u64>>());
        assert_eq!(h.check_invariants(&sim), 0);
    }

    #[test]
    fn concurrent_inserts_preserve_heap_property() {
        let mut sim = new_sim(8);
        let h = SimHuntHeap::create(&sim, 1024);
        for t in 0..8u64 {
            let h2 = h.clone();
            sim.spawn(move |p| async move {
                for i in 0..32u64 {
                    h2.insert(&p, 1 + t * 1000 + i, t).await;
                    p.work(40);
                }
            });
        }
        sim.run();
        assert_eq!(h.check_invariants(&sim), 256);
    }

    #[test]
    fn concurrent_mixed_conserves_items() {
        let mut sim = new_sim(8);
        let h = SimHuntHeap::create(&sim, 4096);
        let mut rng = Pcg32::new(5, 5);
        h.populate(&sim, &mut rng, 200, 1 << 30);
        let counts = sim.alloc_shared(16);
        for t in 0..8u32 {
            let h2 = h.clone();
            sim.spawn(move |p| async move {
                let mut ins = 0u64;
                let mut del = 0u64;
                for _ in 0..40 {
                    p.work(60);
                    if p.coin(0.5) {
                        let k = 1 + p.gen_range_u64(1 << 30);
                        h2.insert(&p, k, 0).await;
                        ins += 1;
                    } else if h2.delete_min(&p).await.is_some() {
                        del += 1;
                    }
                }
                p.write(counts + 2 * t, ins).await;
                p.write(counts + 2 * t + 1, del).await;
            });
        }
        sim.run();
        let ins: u64 = (0..8).map(|t| sim.read_word(counts + 2 * t)).sum();
        let del: u64 = (0..8).map(|t| sim.read_word(counts + 2 * t + 1)).sum();
        let size = h.check_invariants(&sim) as u64;
        assert_eq!(size, 200 + ins - del);
    }

    #[test]
    fn populate_produces_valid_heap_and_sorted_drain() {
        let mut sim = new_sim(2);
        let h = SimHuntHeap::create(&sim, 256);
        let mut rng = Pcg32::new(1, 1);
        let mut keys = h.populate(&sim, &mut rng, 100, 1 << 20);
        assert_eq!(h.check_invariants(&sim), 100);
        let out = sim.alloc_shared(100);
        let h2 = h.clone();
        sim.spawn(move |p| async move {
            for i in 0..100u32 {
                let (k, _) = h2.delete_min(&p).await.unwrap();
                p.write(out + i, k).await;
            }
        });
        sim.run();
        let got: Vec<u64> = (0..100).map(|i| sim.read_word(out + i)).collect();
        keys.sort_unstable();
        assert_eq!(got, keys);
    }

    #[test]
    fn heap_at_exact_capacity_works() {
        // Fill to exactly capacity, including non-power-of-two sizes whose
        // bit-reversed positions exceed capacity itself.
        let mut sim = new_sim(1);
        let h = SimHuntHeap::create(&sim, 9);
        let out = sim.alloc_shared(9);
        let h2 = h.clone();
        sim.spawn(move |p| async move {
            for k in [9u64, 3, 7, 1, 8, 2, 6, 4, 5] {
                h2.insert(&p, k, 0).await;
            }
            for i in 0..9u32 {
                let (k, _) = h2.delete_min(&p).await.unwrap();
                p.write(out + i, k).await;
            }
            assert!(h2.delete_min(&p).await.is_none());
        });
        sim.run();
        let got: Vec<u64> = (0..9).map(|i| sim.read_word(out + i)).collect();
        assert_eq!(got, (1..=9).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_delete_storm_under_concurrency() {
        let mut sim = new_sim(8);
        let h = SimHuntHeap::create(&sim, 64);
        let nones = sim.alloc_shared(1);
        for _ in 0..8 {
            let h2 = h.clone();
            sim.spawn(move |p| async move {
                for _ in 0..10 {
                    if h2.delete_min(&p).await.is_none() {
                        p.fetch_add(nones, 1).await;
                    }
                }
            });
        }
        sim.run();
        assert_eq!(sim.read_word(nones), 80);
        assert_eq!(h.check_invariants(&sim), 0);
    }

    #[test]
    fn deterministic_runs() {
        fn run(seed: u64) -> u64 {
            let mut sim = Sim::new(SimConfig::new(4).with_seed(seed));
            let h = SimHuntHeap::create(&sim, 1024);
            for _ in 0..4 {
                let h2 = h.clone();
                sim.spawn(move |p| async move {
                    for _ in 0..32 {
                        if p.coin(0.6) {
                            h2.insert(&p, 1 + p.gen_range_u64(1 << 20), 0).await;
                        } else {
                            h2.delete_min(&p).await;
                        }
                        p.work(p.gen_range_u64(100));
                    }
                });
            }
            sim.run().final_time
        }
        assert_eq!(run(3), run(3));
    }
}
