//! The design the paper tried and rejected (§5): a combining funnel
//! regulating *delete-min* access to the bottom level of the SkipQueue.
//!
//! > "We tried using a funnel to regulate access of deleting processors at
//! > the bottom level of the SkipList. This funnel performed well in low
//! > contention but caused too much overhead when the concurrency level
//! > increased to 64 processors and more. In the end, we concluded that
//! > letting processors compete for the smallest element gives the best
//! > results."
//!
//! This module reconstructs that experiment so the claim can be re-tested
//! (see the `ablation_funnel_delete` binary). Inserts go straight to the
//! underlying [`SimSkipQueue`]; delete-mins combine in a funnel and one
//! representative executes the whole batch against the skiplist.
//!
//! The funnel (`combining.rs`) is the one [`crate::funnellist`] runs.

use pqsim::{Proc, Sim};

use crate::combining::{self, Descent, Funnel, HEADER_WORDS};
use crate::skipqueue::SimSkipQueue;
use crate::tap::HistoryTap;

/// A strict SkipQueue whose delete-mins are batched through a combining
/// funnel.
#[derive(Clone)]
pub struct FunnelSkipQueue {
    inner: SimSkipQueue,
    funnel: Funnel,
}

impl FunnelSkipQueue {
    /// Builds the structure: a strict SkipQueue plus a delete-side funnel
    /// whose first layer is `width` slots wide.
    pub fn create(sim: &Sim, max_level: usize, width: u32) -> Self {
        let inner = SimSkipQueue::create(sim, max_level, true);
        let funnel = Funnel::create(sim, width);
        Self { inner, funnel }
    }

    /// Attaches a history tap to the inner SkipQueue, so the recorded
    /// history is a strict SkipQueue history: a combiner's delete-mins are
    /// recorded as its own (see [`crate::tap`]).
    pub fn with_tap(mut self, tap: HistoryTap) -> Self {
        self.inner = self.inner.with_tap(tap);
        self
    }

    /// The underlying SkipQueue (population, invariants, stats).
    pub fn inner(&self) -> &SimSkipQueue {
        &self.inner
    }

    /// Inserts go straight to the skiplist — the funnel only regulated
    /// deleters in the paper's experiment.
    pub async fn insert(&self, p: &Proc, key: u64, value: u64) {
        self.inner.insert(p, key, value).await;
    }

    /// Funnel-combined delete-min.
    pub async fn delete_min(&self, p: &Proc) -> Option<(u64, u64)> {
        let req = combining::request(p, HEADER_WORDS);
        p.work(6);
        let chain = match self.funnel.descend(p, req).await {
            Descent::Served(result) => return result,
            Descent::Combine(chain) => chain,
        };

        // Combiner: execute every batched delete-min against the skiplist.
        for m in combining::gather(p, req, chain).await {
            let result = self.inner.delete_min(p).await;
            combining::deliver(p, req, m, result).await;
        }
        combining::read_result(p, req).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqsim::{Pcg32, SimConfig};

    fn new_sim(n: u32) -> Sim {
        Sim::new(SimConfig::new(n).with_seed(31))
    }

    #[test]
    fn single_proc_ordering() {
        let mut sim = new_sim(1);
        let q = FunnelSkipQueue::create(&sim, 8, 4);
        let out = sim.alloc_shared(5);
        let q2 = q.clone();
        sim.spawn(move |p| async move {
            for k in [5u64, 2, 9, 1, 7] {
                q2.insert(&p, k, k + 1).await;
            }
            for i in 0..5u32 {
                let (k, v) = q2.delete_min(&p).await.unwrap();
                assert_eq!(v, k + 1);
                p.write(out + i, k).await;
            }
            assert!(q2.delete_min(&p).await.is_none());
        });
        sim.run();
        let got: Vec<u64> = (0..5).map(|i| sim.read_word(out + i)).collect();
        assert_eq!(got, vec![1, 2, 5, 7, 9]);
    }

    #[test]
    fn concurrent_drain_exactly_once() {
        let mut sim = new_sim(8);
        let q = FunnelSkipQueue::create(&sim, 10, 8);
        let mut rng = Pcg32::new(4, 4);
        let keys = q.inner().populate(&sim, &mut rng, 120, 1 << 30);
        let got = sim.alloc_shared(8 * 120);
        let cnt = sim.alloc_shared(8);
        for t in 0..8u32 {
            let q2 = q.clone();
            sim.spawn(move |p| async move {
                let mut mine = 0u32;
                while let Some((k, _)) = q2.delete_min(&p).await {
                    p.write(got + t * 120 + mine, k).await;
                    mine += 1;
                }
                p.write(cnt + t, u64::from(mine)).await;
            });
        }
        sim.run();
        let mut all = Vec::new();
        for t in 0..8u32 {
            let c = sim.read_word(cnt + t) as u32;
            for i in 0..c {
                all.push(sim.read_word(got + t * 120 + i));
            }
        }
        all.sort_unstable();
        assert_eq!(all, keys, "every key delivered exactly once");
        assert_eq!(q.inner().check_invariants(&sim), 0);
    }

    #[test]
    fn mixed_workload_conserves() {
        let mut sim = new_sim(8);
        let q = FunnelSkipQueue::create(&sim, 10, 8);
        let counts = sim.alloc_shared(16);
        for t in 0..8u32 {
            let q2 = q.clone();
            sim.spawn(move |p| async move {
                let mut ins = 0u64;
                let mut del = 0u64;
                for i in 0..30u64 {
                    q2.insert(&p, 1 + u64::from(t) + 8 * i, 0).await;
                    ins += 1;
                    p.work(50);
                    if p.coin(0.5) && q2.delete_min(&p).await.is_some() {
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
        assert_eq!(q.inner().check_invariants(&sim) as u64, ins - del);
    }
}
