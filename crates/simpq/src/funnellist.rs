//! The FunnelList on the simulated machine.
//!
//! A sorted linked list whose single lock sits behind a combining funnel
//! (Shavit & Zemach; `combining.rs`, shared with [`crate::funnel_skip`]):
//! whoever emerges from the bottom of the funnel uncaptured acquires the
//! list lock and executes the whole batch.
//!
//! Request layout: the funnel's six-word header, then `+6 op, +7 key,
//! +8 value`. List node: `+0 key, +1 value, +2 next`.

use pqsim::{Addr, LockId, Proc, Sim, Word, NULL};

use crate::combining::{self, Descent, Funnel, HEADER_WORDS};
use crate::tap::HistoryTap;

const R_OP: u32 = HEADER_WORDS;
const R_KEY: u32 = HEADER_WORDS + 1;
const R_VALUE: u32 = HEADER_WORDS + 2;
const REQ_WORDS: u32 = HEADER_WORDS + 3;

const OP_INSERT: Word = 0;
const OP_DELETE: Word = 1;

const N_KEY: u32 = 0;
const N_VALUE: u32 = 1;
const N_NEXT: u32 = 2;
const NODE_WORDS: u32 = 3;

/// The simulator-hosted FunnelList priority queue.
#[derive(Clone)]
pub struct SimFunnelList {
    funnel: Funnel,
    /// Head pointer word of the sorted list.
    list_head: Addr,
    list_lock: LockId,
    /// Optional history sink; operations are stamped at their boundaries
    /// (`p.now()` on entry and exit). See [`crate::tap`].
    tap: Option<HistoryTap>,
}

impl SimFunnelList {
    /// Builds an empty FunnelList (out-of-band). `width` is the funnel's
    /// first-layer slot count.
    pub fn create(sim: &Sim, width: u32) -> Self {
        let funnel = Funnel::create(sim, width);
        let m = sim.machine();
        let mut m = m.borrow_mut();
        let list_head = m.mem.alloc(1, 0);
        let list_lock = {
            let w = m.mem.alloc(1, 0);
            m.locks.create(w)
        };
        Self {
            funnel,
            list_head,
            list_lock,
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

    /// Inserts `(key, value)` through the funnel.
    pub async fn insert(&self, p: &Proc, key: u64, value: u64) {
        let op_start = p.now();
        self.run_op(p, OP_INSERT, key, value).await;
        if let Some(tap) = &self.tap {
            tap.insert(value, op_start, p.now());
        }
    }

    /// Deletes the minimum through the funnel; `None` when empty.
    pub async fn delete_min(&self, p: &Proc) -> Option<(u64, u64)> {
        let op_start = p.now();
        let r = self.run_op(p, OP_DELETE, 0, 0).await;
        if let Some(tap) = &self.tap {
            tap.delete_min(r.map(|(_, v)| v), op_start, p.now());
        }
        r
    }

    async fn run_op(&self, p: &Proc, op: Word, key: u64, value: u64) -> Option<(u64, u64)> {
        // Build the request (private until published: flat init cost).
        let req = combining::request(p, REQ_WORDS);
        p.with_machine(|m| {
            m.mem.poke(req + R_OP, op);
            m.mem.poke(req + R_KEY, key);
            m.mem.poke(req + R_VALUE, value);
        });
        p.work(8);
        let chain = match self.funnel.descend(p, req).await {
            Descent::Served(result) => return result,
            Descent::Combine(chain) => chain,
        };

        // Combiner: lock the list, gather the batch, execute everything.
        p.acquire(self.list_lock).await;
        for m in combining::gather(p, req, chain).await {
            let result = if p.read(m + R_OP).await == OP_INSERT {
                let k = p.read(m + R_KEY).await;
                let v = p.read(m + R_VALUE).await;
                self.list_insert(p, k, v).await;
                None
            } else {
                self.list_pop(p).await
            };
            combining::deliver(p, req, m, result).await;
        }
        p.release(self.list_lock).await;
        combining::read_result(p, req).await
    }

    /// Sorted-position insert under the list lock: O(position) reads.
    async fn list_insert(&self, p: &Proc, key: u64, value: u64) {
        let node = p.alloc(NODE_WORDS);
        p.with_machine(|m| {
            m.mem.poke(node + N_KEY, key);
            m.mem.poke(node + N_VALUE, value);
        });
        p.work(4);
        let mut prev_ptr = self.list_head;
        let mut cur = p.read(prev_ptr).await as Addr;
        while cur != NULL {
            let k = p.read(cur + N_KEY).await;
            if k >= key {
                break;
            }
            prev_ptr = cur + N_NEXT;
            cur = p.read(prev_ptr).await as Addr;
        }
        p.write(node + N_NEXT, Word::from(cur)).await;
        p.write(prev_ptr, Word::from(node)).await;
    }

    async fn list_pop(&self, p: &Proc) -> Option<(u64, u64)> {
        let first = p.read(self.list_head).await as Addr;
        if first == NULL {
            return None;
        }
        let k = p.read(first + N_KEY).await;
        let v = p.read(first + N_VALUE).await;
        let next = p.read(first + N_NEXT).await;
        p.write(self.list_head, next).await;
        Some((k, v))
    }

    /// Out-of-band population with `n` random keys; returns them sorted.
    pub fn populate(
        &self,
        sim: &Sim,
        rng: &mut pqsim::Pcg32,
        n: usize,
        key_range: u64,
    ) -> Vec<u64> {
        let m = sim.machine();
        let mut m = m.borrow_mut();
        let nproc = m.cfg.nproc.max(1);
        let mut keys: Vec<u64> = (0..n).map(|_| 1 + rng.gen_range_u64(key_range)).collect();
        keys.sort_unstable();
        let mut prev_ptr = self.list_head;
        for &k in &keys {
            let home = rng.gen_range_u64(u64::from(nproc)) as pqsim::Pid;
            let node = m.mem.alloc(NODE_WORDS, home);
            m.mem.poke(node + N_KEY, k);
            m.mem.poke(node + N_VALUE, k ^ 0x3C3C);
            m.mem.poke(prev_ptr, Word::from(node));
            prev_ptr = node + N_NEXT;
        }
        m.mem.poke(prev_ptr, Word::from(NULL));
        keys
    }

    /// Out-of-band check: list sorted; returns its length.
    pub fn check_invariants(&self, sim: &Sim) -> usize {
        let m = sim.machine();
        let m = m.borrow();
        let mut n = 0;
        let mut prev = 0u64;
        let mut cur = m.mem.peek(self.list_head) as Addr;
        while cur != NULL {
            let k = m.mem.peek(cur + N_KEY);
            assert!(k >= prev, "list out of order");
            prev = k;
            n += 1;
            cur = m.mem.peek(cur + N_NEXT) as Addr;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqsim::{Pcg32, SimConfig};

    fn new_sim(n: u32) -> Sim {
        Sim::new(SimConfig::new(n).with_seed(123))
    }

    #[test]
    fn empty_list_returns_none() {
        let mut sim = new_sim(1);
        let q = SimFunnelList::create(&sim, 4);
        let out = sim.alloc_shared(1);
        let q2 = q.clone();
        sim.spawn(move |p| async move {
            let r = q2.delete_min(&p).await;
            p.write(out, r.is_none() as u64).await;
        });
        sim.run();
        assert_eq!(sim.read_word(out), 1);
    }

    #[test]
    fn single_proc_ordering() {
        let mut sim = new_sim(1);
        let q = SimFunnelList::create(&sim, 4);
        let out = sim.alloc_shared(5);
        let q2 = q.clone();
        sim.spawn(move |p| async move {
            for k in [5u64, 2, 9, 1, 7] {
                q2.insert(&p, k, k * 3).await;
            }
            for i in 0..5u32 {
                let (k, v) = q2.delete_min(&p).await.unwrap();
                assert_eq!(v, k * 3);
                p.write(out + i, k).await;
            }
        });
        sim.run();
        let got: Vec<u64> = (0..5).map(|i| sim.read_word(out + i)).collect();
        assert_eq!(got, vec![1, 2, 5, 7, 9]);
        assert_eq!(q.check_invariants(&sim), 0);
    }

    #[test]
    fn concurrent_mixed_conserves_items() {
        let mut sim = new_sim(8);
        let q = SimFunnelList::create(&sim, 8);
        let counts = sim.alloc_shared(16);
        for t in 0..8u32 {
            let q2 = q.clone();
            sim.spawn(move |p| async move {
                let mut ins = 0u64;
                let mut del = 0u64;
                for _ in 0..30 {
                    p.work(50);
                    if p.coin(0.6) {
                        q2.insert(&p, 1 + p.gen_range_u64(1 << 30), 9).await;
                        ins += 1;
                    } else if q2.delete_min(&p).await.is_some() {
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
        assert_eq!(q.check_invariants(&sim) as u64, ins - del);
    }

    #[test]
    fn populate_then_concurrent_drain() {
        let mut sim = new_sim(4);
        let q = SimFunnelList::create(&sim, 4);
        let mut rng = Pcg32::new(2, 2);
        let keys = q.populate(&sim, &mut rng, 80, 1 << 20);
        assert_eq!(q.check_invariants(&sim), 80);
        // One proc may drain far more than its "share": give each a full
        // 80-slot region.
        let got = sim.alloc_shared(4 * 80);
        let cnt = sim.alloc_shared(4);
        for t in 0..4u32 {
            let q2 = q.clone();
            sim.spawn(move |p| async move {
                let mut mine = 0u32;
                while let Some((k, _)) = q2.delete_min(&p).await {
                    p.write(got + t * 80 + mine, k).await;
                    mine += 1;
                }
                p.write(cnt + t, u64::from(mine)).await;
            });
        }
        sim.run();
        let mut all = Vec::new();
        for t in 0..4u32 {
            let c = sim.read_word(cnt + t) as u32;
            for i in 0..c {
                all.push(sim.read_word(got + t * 80 + i));
            }
        }
        assert_eq!(all.len(), 80, "every item delivered exactly once");
        all.sort_unstable();
        // `keys` may contain repeated values (populate does not dedup);
        // compare multisets.
        assert_eq!(all, keys, "delivered multiset equals populated multiset");
        assert_eq!(q.check_invariants(&sim), 0);
    }

    #[test]
    fn degenerate_funnel_geometry_still_correct() {
        // Width 1: every operation collides in the same slot.
        let mut sim = new_sim(6);
        let q = SimFunnelList::create(&sim, 1);
        let counts = sim.alloc_shared(12);
        for t in 0..6u32 {
            let q2 = q.clone();
            sim.spawn(move |p| async move {
                let mut ins = 0u64;
                let mut del = 0u64;
                for _ in 0..20 {
                    if p.coin(0.6) {
                        q2.insert(&p, 1 + p.gen_range_u64(1 << 20), 1).await;
                        ins += 1;
                    } else if q2.delete_min(&p).await.is_some() {
                        del += 1;
                    }
                    p.work(30);
                }
                p.write(counts + 2 * t, ins).await;
                p.write(counts + 2 * t + 1, del).await;
            });
        }
        sim.run();
        let ins: u64 = (0..6).map(|t| sim.read_word(counts + 2 * t)).sum();
        let del: u64 = (0..6).map(|t| sim.read_word(counts + 2 * t + 1)).sum();
        assert_eq!(q.check_invariants(&sim) as u64, ins - del);
    }

    #[test]
    fn empty_delete_storm_returns_all_none() {
        let mut sim = new_sim(8);
        let q = SimFunnelList::create(&sim, 8);
        let nones = sim.alloc_shared(1);
        for _ in 0..8 {
            let q2 = q.clone();
            sim.spawn(move |p| async move {
                for _ in 0..10 {
                    if q2.delete_min(&p).await.is_none() {
                        p.fetch_add(nones, 1).await;
                    }
                }
            });
        }
        sim.run();
        assert_eq!(sim.read_word(nones), 80, "every delete on empty is EMPTY");
    }

    #[test]
    fn determinism() {
        fn run(seed: u64) -> u64 {
            let mut sim = Sim::new(SimConfig::new(4).with_seed(seed));
            let q = SimFunnelList::create(&sim, 4);
            for _ in 0..4 {
                let q2 = q.clone();
                sim.spawn(move |p| async move {
                    for _ in 0..20 {
                        if p.coin(0.5) {
                            q2.insert(&p, 1 + p.gen_range_u64(1000), 0).await;
                        } else {
                            q2.delete_min(&p).await;
                        }
                        p.work(p.gen_range_u64(150));
                    }
                });
            }
            sim.run().final_time
        }
        assert_eq!(run(9), run(9));
    }
}
