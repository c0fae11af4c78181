//! Reclamation under a concurrent monitor: one thread loops on
//! `collect_garbage()`, unpinned, while two workers run hold traffic
//! (delete the minimum, insert a fresh key) with heap-allocated `String`
//! keys. A node freed while a worker can still reach it shows up as a
//! use-after-free under AddressSanitizer or a data race under
//! ThreadSanitizer; a node never freed shows up as a leak. The functional
//! checks below catch lost or duplicated items on any build.

use std::sync::atomic::{AtomicBool, Ordering};

use skipqueue::SkipQueue;

const PREFILL: u64 = 256;
const STEPS: u64 = 4_000;
const WORKERS: u64 = 2;

fn key(n: u64) -> String {
    format!("{n:012}")
}

/// Stops the monitor when dropped, so a panicking worker fails the test
/// instead of leaving the monitor spinning inside the thread scope.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn monitor_collecting_during_hold_traffic_frees_nothing_reachable() {
    let mut q: SkipQueue<String, u64> = SkipQueue::new();
    for n in 0..PREFILL {
        q.insert(key(n), n);
    }
    let done = AtomicBool::new(false);
    let (deleted, collected) = std::thread::scope(|s| {
        let monitor = s.spawn(|| {
            let mut freed = 0;
            while !done.load(Ordering::Relaxed) {
                freed += q.collect_garbage();
            }
            freed
        });
        let stop = StopOnDrop(&done);
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                let q = &q;
                s.spawn(move || {
                    let mut deleted = 0;
                    for i in 0..STEPS {
                        // A strict delete may legitimately find nothing
                        // eligible when it is preempted after taking its
                        // start time while the other worker drains every
                        // older item; the item count below accounts for it.
                        if let Some((k, v)) = q.delete_min() {
                            assert_eq!(k, key(v), "key and value of one entry came apart");
                            deleted += 1;
                        }
                        let next = PREFILL + i * WORKERS + t;
                        q.insert(key(next), next);
                    }
                    deleted
                })
            })
            .collect();
        let deleted: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        drop(stop);
        (deleted, monitor.join().unwrap())
    });
    assert!(collected > 0, "the monitor never freed anything");
    let expected = PREFILL + WORKERS * STEPS - deleted;
    assert_eq!(q.len() as u64, expected);
    q.check_invariants();
    let drained = q.drain_sorted();
    assert_eq!(drained.len() as u64, expected);
    for w in drained.windows(2) {
        assert!(w[0].0 < w[1].0, "drain out of order or duplicated");
    }
    q.collect_garbage();
    assert_eq!(q.garbage_pending(), 0);
}
