//! Property-based tests of the skipqueue crate: model equivalence, drain
//! ordering, duplicate handling, GC accounting, and drop safety under
//! arbitrary operation sequences.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use skipqueue::seq::SeqSkipList;
use skipqueue::SkipQueue;

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Option<u32>>> {
    prop::collection::vec(
        prop_oneof![
            3 => any::<u32>().prop_map(Some),
            2 => Just(None),
        ],
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn skipqueue_matches_model_for_any_sequence(
        ops in ops_strategy(500),
        max_height in 1usize..16,
    ) {
        let q: SkipQueue<u32, u32> = SkipQueue::with_params(max_height, true, 4);
        let mut model: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        for op in &ops {
            match op {
                Some(k) => {
                    q.insert(*k, *k);
                    model.push(Reverse(*k));
                }
                None => {
                    prop_assert_eq!(
                        q.delete_min().map(|(k, _)| k),
                        model.pop().map(|Reverse(k)| k)
                    );
                }
            }
        }
        prop_assert_eq!(q.len(), model.len());
    }

    #[test]
    fn duplicates_pop_in_fifo_order(priority in any::<u32>(), n in 1usize..40) {
        let q = SkipQueue::new();
        for i in 0..n {
            q.insert(priority, i);
        }
        for expect in 0..n {
            let (k, v) = q.delete_min().unwrap();
            prop_assert_eq!(k, priority);
            prop_assert_eq!(v, expect, "FIFO among equal priorities");
        }
    }

    #[test]
    fn garbage_collects_fully_at_quiescence(ops in ops_strategy(300)) {
        let q: SkipQueue<u32, u32> = SkipQueue::new();
        for op in &ops {
            match op {
                Some(k) => q.insert(*k, 0),
                None => {
                    q.delete_min();
                }
            }
        }
        q.collect_garbage();
        prop_assert_eq!(q.garbage_pending(), 0);
    }

    #[test]
    fn values_dropped_exactly_once(ops in ops_strategy(200)) {
        static LIVE: AtomicUsize = AtomicUsize::new(0);

        struct Counted;
        impl Counted {
            fn new() -> Self {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Counted
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }

        let before = LIVE.load(Ordering::SeqCst);
        {
            let q: SkipQueue<u32, Counted> = SkipQueue::new();
            for op in &ops {
                match op {
                    Some(k) => q.insert(*k, Counted::new()),
                    None => {
                        q.delete_min();
                    }
                }
            }
        }
        prop_assert_eq!(
            LIVE.load(Ordering::SeqCst),
            before,
            "every value dropped exactly once across delete_min + Drop + GC"
        );
    }

    #[test]
    fn seq_and_concurrent_agree(ops in ops_strategy(300)) {
        let mut seq = SeqSkipList::new();
        let conc = SkipQueue::new();
        for op in &ops {
            match op {
                Some(k) => {
                    seq.insert(*k, ());
                    conc.insert(*k, ());
                }
                None => {
                    prop_assert_eq!(
                        seq.delete_min().map(|(k, _)| k),
                        conc.delete_min().map(|(k, _)| k)
                    );
                }
            }
        }
        prop_assert_eq!(seq.len(), conc.len());
    }

    #[test]
    fn string_keys_behave_like_integers(words in prop::collection::vec("[a-z]{1,8}", 1..60)) {
        let q: SkipQueue<String, usize> = SkipQueue::new();
        for (i, w) in words.iter().enumerate() {
            q.insert(w.clone(), i);
        }
        let mut expect = words.clone();
        expect.sort();
        let mut got = Vec::new();
        while let Some((k, _)) = q.delete_min() {
            got.push(k);
        }
        prop_assert_eq!(got, expect);
    }
}

/// Concurrent proptest-style stress: randomized thread mixes, verified by
/// conservation and global order of a final drain. Kept out of the
/// `proptest!` macro (threads inside proptest cases are slow); seeds swept
/// manually.
#[test]
fn randomized_concurrent_stress_rounds() {
    for seed in 0..6u64 {
        let q: std::sync::Arc<SkipQueue<u64, u64>> = std::sync::Arc::new(SkipQueue::new());
        let stats: Vec<(u64, u64)> = std::thread::scope(|s| {
            (0..6u64)
                .map(|t| {
                    let q = std::sync::Arc::clone(&q);
                    s.spawn(move || {
                        let mut state = (seed << 8 | t).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                        let mut ins = 0u64;
                        let mut del = 0u64;
                        for _ in 0..1_500 {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            if state % 3 != 0 {
                                q.insert(state >> 16, t);
                                ins += 1;
                            } else if q.delete_min().is_some() {
                                del += 1;
                            }
                        }
                        (ins, del)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let ins: u64 = stats.iter().map(|(i, _)| i).sum();
        let del: u64 = stats.iter().map(|(_, d)| d).sum();
        assert_eq!(q.len() as u64, ins - del, "seed {seed}");
        // Final drain is globally sorted.
        let mut prev = None;
        while let Some((k, _)) = q.delete_min() {
            if let Some(p) = prev {
                assert!(k >= p, "seed {seed}: unsorted drain");
            }
            prev = Some(k);
        }
    }
}
