//! Cross-runtime differential replay: one recorded schedule, two platforms.
//!
//! The shared `pqalgo` algorithm must make identical logical decisions on
//! the native queue and on the simulated machine when both replay the same
//! serial schedule. Tower heights are the one source of randomness, so the
//! simulator's draws are recorded and forced onto the native queue via its
//! height script; after that, per-operation results and the full
//! platform-neutral event streams (heights, stamps, claims, retirements and
//! both delete-min returns, `Deleted` and `Empty`) must match event for
//! event. Each stream must also account for every operation: one `Stamp`
//! per insert and one `Deleted` or `Empty` per delete-min.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use pqalgo::Event;
use pqsim::{Sim, SimConfig};
use simpq::SimSkipQueue;
use skipqueue::SkipQueue;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Insert(u64),
    DeleteMin,
}

fn value_of(key: u64) -> u64 {
    key ^ 0xABCD
}

/// Deterministic mixed schedule (fixed LCG, no host randomness): keys
/// that jump around (so fresh smaller keys land in front of the current
/// minimum), insert-biased so the structure grows and shrinks, and a full
/// drain at the end so the EMPTY path replays too. Every fifth insert
/// repeats the previous key: both queues are multisets, so a duplicate is
/// a separate entry, and since values and events depend on keys alone the
/// two runtimes still agree op for op.
fn schedule(seed: u64, len: usize) -> Vec<Op> {
    let mut x = seed | 1;
    let mut counter = 1u64;
    let mut inserts = 0usize;
    let mut key = 0;
    let mut live = 0usize;
    let mut ops = Vec::with_capacity(len + 8);
    for _ in 0..len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if live == 0 || (x >> 33) % 10 < 6 {
            let bucket = (x >> 17) % 97;
            counter += 1;
            inserts += 1;
            // Every fifth insert keeps the previous key; the rest are
            // unique: distinct `counter` per op, bucket spread multiplies out.
            if !inserts.is_multiple_of(5) {
                key = 1 + bucket * 100_000 + counter;
            }
            ops.push(Op::Insert(key));
            live += 1;
        } else {
            ops.push(Op::DeleteMin);
            live -= 1;
        }
    }
    for _ in 0..live + 2 {
        ops.push(Op::DeleteMin); // drain past EMPTY
    }
    ops
}

/// One replay's per-op delete results and event trace.
type Replay = (Vec<Option<(u64, u64)>>, Vec<Event<u64>>);

/// Replays `ops` on one simulated processor; returns per-op delete results
/// and the event trace (whose `Height` events drive the native replay).
fn run_sim(ops: &[Op], strict: bool) -> Replay {
    let mut sim = Sim::new(SimConfig::new(1).with_seed(4242));
    let trace = Rc::new(RefCell::new(Vec::new()));
    let q = SimSkipQueue::create(&sim, 12, strict).with_trace(Rc::clone(&trace));
    let results = Rc::new(RefCell::new(Vec::new()));
    let ops = ops.to_vec();
    let q2 = q.clone();
    let res = Rc::clone(&results);
    sim.spawn(move |p| async move {
        for op in ops {
            match op {
                Op::Insert(k) => {
                    q2.insert(&p, k, value_of(k)).await;
                    res.borrow_mut().push(None);
                }
                Op::DeleteMin => {
                    let r = q2.delete_min(&p).await;
                    res.borrow_mut().push(r);
                }
            }
        }
    });
    sim.run();
    let results = results.borrow().clone();
    let trace = trace.borrow().clone();
    (results, trace)
}

/// Replays `ops` on the native queue with the simulator's tower heights
/// forced via the height script.
fn run_native(ops: &[Op], strict: bool, heights: Vec<usize>) -> Replay {
    let sink = Arc::new(Mutex::new(Vec::new()));
    let q = SkipQueue::<u64, u64>::with_params(12, strict, 4)
        .with_height_script(heights)
        .with_trace(Arc::clone(&sink), |k| *k);
    let mut results = Vec::new();
    for &op in ops {
        match op {
            Op::Insert(k) => {
                q.insert(k, value_of(k));
                results.push(None);
            }
            Op::DeleteMin => results.push(q.delete_min()),
        }
    }
    drop(q);
    let trace = Arc::try_unwrap(sink).unwrap().into_inner().unwrap();
    (results, trace)
}

fn count(trace: &[Event<u64>], f: fn(&Event<u64>) -> bool) -> usize {
    trace.iter().filter(|e| f(e)).count()
}

/// Every insert ends in one `Stamp` and every delete-min in one `Deleted`
/// or `Empty`, and the schedule's drain reaches EMPTY at least once.
fn assert_stream_is_exhaustive(trace: &[Event<u64>], ops: &[Op], runtime: &str) {
    let inserts = ops.iter().filter(|o| matches!(o, Op::Insert(_))).count();
    let deletes = ops.len() - inserts;
    assert_eq!(
        count(trace, |e| matches!(e, Event::Stamp(_))),
        inserts,
        "{runtime}: one Stamp per insert"
    );
    let empties = count(trace, |e| matches!(e, Event::Empty));
    assert_eq!(
        count(trace, |e| matches!(e, Event::Deleted)) + empties,
        deletes,
        "{runtime}: one Deleted or Empty per delete-min"
    );
    assert!(empties > 0, "{runtime}: the drain must return EMPTY");
}

fn assert_replay_matches(seed: u64, len: usize, strict: bool) {
    let ops = schedule(seed, len);
    let keys: Vec<u64> = ops
        .iter()
        .filter_map(|o| match o {
            Op::Insert(k) => Some(*k),
            Op::DeleteMin => None,
        })
        .collect();
    let inserts = keys.len();
    let distinct: std::collections::BTreeSet<u64> = keys.into_iter().collect();
    assert!(distinct.len() < inserts, "the schedule must repeat keys");
    let (sim_results, sim_trace) = run_sim(&ops, strict);
    let heights: Vec<usize> = sim_trace
        .iter()
        .filter_map(|e| match e {
            Event::Height(h) => Some(*h),
            _ => None,
        })
        .collect();
    assert_eq!(heights.len(), inserts, "one height draw per insert");
    let (native_results, native_trace) = run_native(&ops, strict, heights);
    assert_stream_is_exhaustive(&sim_trace, &ops, "simulator");
    assert_stream_is_exhaustive(&native_trace, &ops, "native");

    assert_eq!(
        sim_results, native_results,
        "per-operation results diverged (seed {seed}, strict {strict})"
    );
    assert_eq!(
        sim_trace, native_trace,
        "event traces diverged (seed {seed}, strict {strict})"
    );
}

#[test]
fn differential_replay_eager_strict() {
    let ops = schedule(7, 300);
    let (_, trace) = run_sim(&ops, true);
    assert!(
        trace.iter().any(|e| matches!(e, Event::Retire(_))),
        "eager replay must exercise the per-delete unlink"
    );
    assert_replay_matches(7, 300, true);
}

#[test]
fn differential_replay_eager_relaxed() {
    let ops = schedule(21, 300);
    let (_, trace) = run_sim(&ops, false);
    assert_eq!(
        count(&trace, |e| matches!(e, Event::Claim(_))),
        count(&trace, |e| matches!(e, Event::Retire(_))),
        "every relaxed claim must be unlinked and retired eagerly"
    );
    assert_replay_matches(21, 300, false);
}
