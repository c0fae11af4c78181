//! Integration tests of the paper's §3 reclamation scheme, native side:
//! nodes unlinked by `delete_min` are freed only after every thread that
//! was inside the structure at unlink time has exited, and everything is
//! reclaimed at quiescence — across heavy churn and many threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use shardq::ShardedSkipQueue;
use skipqueue::SkipQueue;

#[test]
fn churn_does_not_accumulate_garbage() {
    let q: SkipQueue<u64, u64> = SkipQueue::new();
    for round in 0..50u64 {
        for k in 0..200 {
            q.insert(round * 1_000 + k, k);
        }
        for _ in 0..200 {
            q.delete_min().unwrap();
        }
        // The automatic threshold collection inside retire should keep the
        // backlog bounded well below the total churn.
        assert!(
            q.garbage_pending() < 2_000,
            "round {round}: backlog {}",
            q.garbage_pending()
        );
    }
    q.collect_garbage();
    assert_eq!(q.garbage_pending(), 0);
}

#[test]
fn concurrent_churn_reclaims_at_quiescence() {
    let q: Arc<SkipQueue<u64, u64>> = Arc::new(SkipQueue::new());
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let q = Arc::clone(&q);
            s.spawn(move || {
                for i in 0..3_000u64 {
                    q.insert(t * 100_000 + i, i);
                    if i % 2 == 1 {
                        q.delete_min();
                    }
                }
            });
        }
    });
    // All threads have exited: a collection cycle must drain everything.
    q.collect_garbage();
    assert_eq!(q.garbage_pending(), 0);
}

#[test]
fn values_of_reclaimed_nodes_are_dropped_exactly_once() {
    static LIVE: AtomicUsize = AtomicUsize::new(0);

    struct Payload;
    impl Payload {
        fn new() -> Self {
            LIVE.fetch_add(1, Ordering::SeqCst);
            Payload
        }
    }
    impl Drop for Payload {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    {
        let q: Arc<SkipQueue<u64, Payload>> = Arc::new(SkipQueue::new());
        std::thread::scope(|s| {
            for t in 0..6u64 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        q.insert(t * 10_000 + i, Payload::new());
                        if i % 3 == 0 {
                            // Returned payloads drop here.
                            q.delete_min();
                        }
                    }
                });
            }
        });
    } // queue dropped: remaining payloads (linked + retired) drop too

    assert_eq!(
        LIVE.load(Ordering::SeqCst),
        0,
        "payload leak or double drop through delete_min / GC / queue Drop"
    );
}

#[test]
fn keys_with_drop_glue_survive_gc() {
    // String keys: concurrent searchers compare keys of nodes that a
    // winning delete_min has already unlinked, so nodes must keep their keys
    // until the collector frees them.
    let q: Arc<SkipQueue<String, u64>> = Arc::new(SkipQueue::new());
    std::thread::scope(|s| {
        for t in 0..4 {
            let q = Arc::clone(&q);
            s.spawn(move || {
                for i in 0..2_000u64 {
                    q.insert(format!("key-{t}-{i:06}"), i);
                    if i % 2 == 0 {
                        if let Some((k, _)) = q.delete_min() {
                            assert!(k.starts_with("key-"));
                        }
                    }
                }
            });
        }
    });
    q.collect_garbage();
    assert_eq!(q.garbage_pending(), 0);
}

#[test]
fn shard_churn_retirement_leaks_nothing() {
    // The sharded front-end is the harshest client the collector has:
    // every shard owns a collector, each thread holds a slot in several
    // collectors at once (sampling touches shards it never inserts into),
    // and every claim retires its node while other threads (peeks from
    // other shards' samplers included) may still be walking it.
    // Drop-counted payloads account for every node across claim-path
    // drops, per-shard GC, and queue teardown.
    static LIVE: AtomicUsize = AtomicUsize::new(0);

    struct Tracked(#[allow(dead_code)] u64);
    impl Tracked {
        fn new(v: u64) -> Self {
            LIVE.fetch_add(1, Ordering::SeqCst);
            Tracked(v)
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    for round in 0..4u64 {
        {
            let q: Arc<ShardedSkipQueue<u64, Tracked>> = Arc::new(ShardedSkipQueue::new(4));
            std::thread::scope(|s| {
                for t in 0..6u64 {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        for i in 0..2_000u64 {
                            let key = (round * 7 + t * 11 + i * 13) % 509;
                            q.insert(key, Tracked::new(key));
                            if i % 3 != 0 {
                                // Claim-path drop; sampling routinely
                                // enters shards this thread never wrote.
                                q.delete_min();
                            }
                        }
                    });
                }
            });
            // Quiescent: every shard's collector must drain its backlog.
            q.collect_garbage();
            assert_eq!(
                q.garbage_pending(),
                0,
                "round {round}: retired nodes stuck after quiescent collection"
            );
        } // queue drop reclaims still-linked nodes
        assert_eq!(
            LIVE.load(Ordering::SeqCst),
            0,
            "round {round}: payload leak or double drop under shard churn"
        );
    }
}

#[test]
fn many_queues_per_thread_do_not_interfere() {
    // Each queue has its own collector; thread slots are per-collector.
    for _ in 0..20 {
        let q: SkipQueue<u64, u64> = SkipQueue::new();
        for k in 0..100 {
            q.insert(k, k);
        }
        for _ in 0..100 {
            q.delete_min().unwrap();
        }
    }
}

#[test]
fn slot_table_exhaustion_is_loud() {
    // 1-thread queue used from 2 threads must panic with a clear message,
    // not corrupt memory.
    let q: Arc<SkipQueue<u64, u64>> = Arc::new(SkipQueue::with_params(8, true, 1));
    q.insert(1, 1);
    let q2 = Arc::clone(&q);
    let result = std::thread::spawn(move || {
        // Second distinct thread: no slot available.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q2.insert(2, 2);
        }));
        caught.is_err()
    })
    .join()
    .unwrap();
    assert!(result, "second thread should panic on slot exhaustion");
}
