//! Property-based tests: every queue implementation is equivalent to a
//! reference model under arbitrary operation sequences, and core structural
//! helpers satisfy their invariants on arbitrary inputs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use funnel::FunnelList;
use huntheap::{bit_reversed_position, HuntHeap};
use skipqueue::seq::SeqSkipList;
use skipqueue::{PriorityQueue, SkipQueue};

/// An op sequence: `Some(k)` = insert k, `None` = delete-min.
fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Option<u64>>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0u64..1_000).prop_map(Some),
            2 => Just(None),
        ],
        0..max_len,
    )
}

fn run_against_model<Q: PriorityQueue<u64, u64>>(q: Q, ops: &[Option<u64>]) {
    let mut model: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Some(k) => {
                q.insert(*k, *k);
                model.push(Reverse(*k));
            }
            None => {
                let got = q.delete_min().map(|(k, _)| k);
                let want = model.pop().map(|Reverse(k)| k);
                assert_eq!(got, want, "divergence at step {i}");
            }
        }
        assert_eq!(q.len(), model.len(), "len divergence at step {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn skipqueue_equals_model(ops in ops_strategy(400)) {
        run_against_model(SkipQueue::new(), &ops);
    }

    #[test]
    fn relaxed_skipqueue_equals_model_sequentially(ops in ops_strategy(400)) {
        // Without concurrency the relaxed queue is just as strict.
        run_against_model(SkipQueue::new_relaxed(), &ops);
    }

    #[test]
    fn hunt_heap_equals_model(ops in ops_strategy(400)) {
        run_against_model(HuntHeap::with_capacity(512), &ops);
    }

    #[test]
    fn funnel_list_equals_model(ops in ops_strategy(200)) {
        run_against_model(FunnelList::new(), &ops);
    }

    #[test]
    fn seq_skiplist_equals_model(ops in ops_strategy(600)) {
        let mut q = SeqSkipList::new();
        let mut model: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        for op in &ops {
            match op {
                Some(k) => {
                    q.insert(*k, ());
                    model.push(Reverse(*k));
                }
                None => {
                    let got = q.delete_min().map(|(k, _)| k);
                    let want = model.pop().map(|Reverse(k)| k);
                    prop_assert_eq!(got, want);
                }
            }
        }
        q.check_invariants();
    }

    #[test]
    fn seq_skiplist_invariants_hold_under_any_sequence(
        ops in ops_strategy(200),
        max_height in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut q = SeqSkipList::with_params(max_height, seed);
        for op in &ops {
            match op {
                Some(k) => q.insert(*k, ()),
                None => {
                    q.delete_min();
                }
            }
        }
        q.check_invariants();
    }

    #[test]
    fn skipqueue_drain_is_sorted(keys in prop::collection::vec(any::<u64>(), 0..300)) {
        let q = SkipQueue::new();
        for &k in &keys {
            q.insert(k, ());
        }
        let mut drained = Vec::new();
        while let Some((k, _)) = q.delete_min() {
            drained.push(k);
        }
        let mut expect = keys.clone();
        expect.sort_unstable();
        prop_assert_eq!(drained, expect);
    }

    #[test]
    fn bit_reversal_prefixes_are_heap_shaped(n in 1usize..5_000) {
        // Every prefix {pos(1..=n)} must contain each occupied slot's parent.
        let mut occupied = std::collections::HashSet::new();
        for c in 1..=n {
            let p = bit_reversed_position(c);
            if p > 1 {
                prop_assert!(occupied.contains(&(p / 2)), "parent of {} missing", p);
            }
            occupied.insert(p);
        }
        prop_assert_eq!(occupied.len(), n);
    }

    #[test]
    fn bit_reversal_is_injective_in_level(level in 0u32..14) {
        let start = 1usize << level;
        let end = 1usize << (level + 1);
        let mut seen = std::collections::HashSet::new();
        for c in start..end {
            let p = bit_reversed_position(c);
            prop_assert!(p >= start && p < end);
            prop_assert!(seen.insert(p));
        }
    }

    #[test]
    fn sim_rng_levels_within_bounds(seed in any::<u64>(), max_level in 1usize..30) {
        let mut rng = pqsim::Pcg32::new(seed, 1);
        for _ in 0..200 {
            let l = rng.random_level(0.5, max_level);
            prop_assert!((1..=max_level).contains(&l));
        }
    }

    #[test]
    fn sim_determinism_under_arbitrary_seeds(seed in any::<u64>()) {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim = pqsim::Sim::new(pqsim::SimConfig::new(4).with_seed(seed));
            let acc = sim.alloc_shared(1);
            for _ in 0..4 {
                sim.spawn(move |p| async move {
                    for _ in 0..32 {
                        p.work(p.gen_range_u64(64));
                        p.fetch_add(acc, 1).await;
                    }
                });
            }
            let r = sim.run();
            (r.final_time, r.shared_ops)
        }
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn histcheck_accepts_any_sequential_execution(ops in ops_strategy(300)) {
        // A correct sequential execution recorded faithfully always passes
        // the strict audit.
        use histcheck::{Recorder, TicketClock};
        let clock = TicketClock::new();
        let mut rec = Recorder::new(&clock);
        let q = SkipQueue::new();
        let mut uniq = 0u64;
        for op in &ops {
            match op {
                Some(k) => {
                    let v = (k << 20) | uniq;
                    uniq += 1;
                    rec.insert(v, || q.insert(v, v));
                }
                None => {
                    rec.delete_min(|| q.delete_min().map(|(k, _)| k));
                }
            }
        }
        let h = rec.finish();
        prop_assert!(h.check_strict().is_empty());
    }
}
