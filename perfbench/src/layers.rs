//! The traced run: per-layer metrics, each timed or counted from outside
//! the library through the layer's public functions.
//!
//! A layer the workload does not exercise reads 0 (for example every
//! `shardq.*` metric on a single-queue workload, and every `sssp.*`
//! metric on a hold workload).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use funnel::FunnelList;
use histcheck::Violation;
use huntheap::{HuntHeap, LockedBinaryHeap};
use parking_lot::lock_api::RawMutex as _;
use parking_lot::RawMutex;
use shardq::ShardedSkipQueue;
use skipqueue::gc::Collector;
use skipqueue::seq::LockedSeqSkipList;
use skipqueue::{PriorityQueue, SkipQueue, TimestampClock};

use crate::hold::{self, HoldCfg, Ledger};
use crate::inputs::{self, Graph};
use crate::sssp;
use crate::stats::median;
use crate::{Metric, Outcome, Workload, WORKERS};

/// Public counters a queue exposes, read by the traced run.
pub trait Probe: PriorityQueue<u64, u64> {
    /// Retired nodes not yet freed.
    fn garbage_pending(&self) -> usize;
    /// Forces a collection.
    fn collect_garbage(&self) -> usize;
    /// `(elimination hits, fallback claims, shard lengths)` of a sharded
    /// queue; `None` for a single queue.
    fn shard_counters(&self) -> Option<(u64, u64, Vec<usize>)> {
        None
    }
}

impl Probe for SkipQueue<u64, u64> {
    fn garbage_pending(&self) -> usize {
        SkipQueue::garbage_pending(self)
    }
    fn collect_garbage(&self) -> usize {
        SkipQueue::collect_garbage(self)
    }
}

impl Probe for ShardedSkipQueue<u64, u64> {
    fn garbage_pending(&self) -> usize {
        ShardedSkipQueue::garbage_pending(self)
    }
    fn collect_garbage(&self) -> usize {
        ShardedSkipQueue::collect_garbage(self)
    }
    fn shard_counters(&self) -> Option<(u64, u64, Vec<usize>)> {
        Some((
            self.elimination_hits(),
            self.fallback_claims(),
            self.shard_lens(),
        ))
    }
}

/// Collects named per-layer values in report order.
struct Layers(Vec<Metric>);

impl Layers {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// Runs the traced measurement of `workload` for about `secs` seconds.
pub fn traced(workload: Workload, seed: u64, secs: f64) -> Outcome {
    let budget = |share: f64| Duration::from_secs_f64(secs * share);
    let mut layers = Layers(Vec::new());
    let mut out = match workload {
        Workload::HoldSharded => traced_hold(
            workload,
            || ShardedSkipQueue::new(WORKERS),
            seed,
            &budget,
            &mut layers,
        ),
        Workload::HoldSmall | Workload::HoldLarge => {
            traced_hold(workload, SkipQueue::new, seed, &budget, &mut layers)
        }
        Workload::Sssp => traced_sssp(seed, &budget, &mut layers),
    };
    let micro = budget(0.03);
    layers.put("gc.pin_ns.1t", per_op_ns(1, micro, pin_loop), "ns");
    layers.put("gc.pin_ns.2t", per_op_ns(2, micro, pin_loop), "ns");
    layers.put("clock.tick_ns.1t", per_op_ns(1, micro, tick_loop), "ns");
    layers.put("clock.tick_ns.2t", per_op_ns(2, micro, tick_loop), "ns");
    layers.put(
        "level_lock.uncontended_ns",
        lock_uncontended_ns(micro),
        "ns",
    );
    layers.put("level_lock.handoff_ns.2t", lock_handoff_ns(micro), "ns");
    reference_rows(seed, budget(0.04), &mut layers, &mut out);
    out.metrics = layers.0;
    out
}

/// Pinning and unpinning a standalone collector, shared by the callers.
fn pin_loop(threads: usize, dur: Duration) -> Vec<(u64, Duration)> {
    let collector: Collector<u64, u64> = Collector::new(8);
    timed_threads(threads, dur, |_| drop(collector.pin()))
}

/// Ticking one shared timestamp clock.
fn tick_loop(threads: usize, dur: Duration) -> Vec<(u64, Duration)> {
    let clock = TimestampClock::new();
    timed_threads(threads, dur, |_| {
        std::hint::black_box(clock.tick());
    })
}

/// Mean per-operation thread time of `bench` at `threads` threads.
fn per_op_ns(
    threads: usize,
    dur: Duration,
    bench: fn(usize, Duration) -> Vec<(u64, Duration)>,
) -> f64 {
    let per_thread: Vec<f64> = bench(threads, dur)
        .into_iter()
        .map(|(ops, t)| t.as_nanos() as f64 / ops as f64)
        .collect();
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

/// Runs `op` in a loop on `threads` threads for `dur`; returns each
/// thread's `(operations, elapsed)`.
fn timed_threads(threads: usize, dur: Duration, op: impl Fn(usize) + Sync) -> Vec<(u64, Duration)> {
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, op) = (&barrier, &op);
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let mut ops = 0u64;
                    while start.elapsed() < dur {
                        for _ in 0..256 {
                            op(t);
                        }
                        ops += 256;
                    }
                    (ops, start.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("micro-benchmark thread panicked"))
            .collect()
    })
}

/// Lock/unlock of one level lock on one thread.
fn lock_uncontended_ns(dur: Duration) -> f64 {
    let lock = RawMutex::INIT;
    let (ops, t) = timed_threads(1, dur, |_| {
        lock.lock();
        // SAFETY: this thread took the lock on the line above.
        unsafe { lock.unlock() };
    })[0];
    t.as_nanos() as f64 / ops as f64
}

/// Two threads pass one level lock back and forth: each takes the lock,
/// and if it is its turn, hands the turn over. Time per hand-off.
fn lock_handoff_ns(dur: Duration) -> f64 {
    let lock = RawMutex::INIT;
    let turn = AtomicUsize::new(0);
    let handoffs = AtomicU64::new(0);
    let start = Instant::now();
    timed_threads(2, dur, |me| {
        lock.lock();
        if turn.load(Ordering::Relaxed) == me {
            turn.store(1 - me, Ordering::Relaxed);
            handoffs.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: this thread took the lock at the top of the closure.
        unsafe { lock.unlock() };
    });
    start.elapsed().as_nanos() as f64 / handoffs.load(Ordering::Relaxed).max(1) as f64
}

/// Hold-small traffic through every queue behind `PriorityQueue`: the
/// paper's baselines next to the SkipQueue, on real threads.
fn reference_rows(seed: u64, dur: Duration, layers: &mut Layers, out: &mut Outcome) {
    let items = Workload::HoldSmall.items();
    let skip = reference_throughput(&SkipQueue::new(), seed, items, dur, out);
    let hunt = reference_throughput(&HuntHeap::with_capacity(items + 64), seed, items, dur, out);
    let funnel = reference_throughput(&FunnelList::new(), seed, items, dur, out);
    let locked = reference_throughput(&LockedBinaryHeap::new(), seed, items, dur, out);
    let seq = reference_throughput(&LockedSeqSkipList::new(), seed, items, dur, out);
    layers.put("huntheap.throughput_ops_s", hunt, "ops/s");
    layers.put("funnel.throughput_ops_s", funnel, "ops/s");
    layers.put("locked_heap.throughput_ops_s", locked, "ops/s");
    layers.put("locked_seq.throughput_ops_s", seq, "ops/s");
    layers.put("skipqueue.throughput_ops_s", skip, "ops/s");
    layers.put("skipqueue_vs_huntheap", skip / hunt, "ratio");
}

fn reference_throughput<Q: PriorityQueue<u64, u64>>(
    q: &Q,
    seed: u64,
    items: usize,
    dur: Duration,
    out: &mut Outcome,
) -> f64 {
    let keys = inputs::prefill_keys(seed, items);
    hold::prefill(q, &keys);
    let mut ledger = Ledger::after_prefill(&keys);
    let cfg = HoldCfg {
        seed,
        threads: WORKERS,
        first_tag: 0,
        job_steps: 2_000,
        warmup_jobs: 1,
        budget: dur,
        trace: false,
    };
    let run = hold::run(q, &cfg, &mut ledger, || {});
    out.attempted += ledger.calls();
    out.failed += hold::drain_and_check(q, &ledger);
    run.throughput()
}

/// Max over mean of one sample of shard lengths.
fn imbalance(lens: &[usize]) -> f64 {
    let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    lens.iter().copied().max().unwrap_or(0) as f64 / mean
}

fn traced_hold<Q: Probe>(
    workload: Workload,
    make: impl Fn() -> Q,
    seed: u64,
    budget: &dyn Fn(f64) -> Duration,
    layers: &mut Layers,
) -> Outcome {
    let keys = inputs::prefill_keys(seed, workload.items());
    let q = make();
    hold::prefill(&q, &keys);
    let mut ledger = Ledger::after_prefill(&keys);
    let cfg = |threads, first_tag, share, trace| HoldCfg {
        seed,
        threads,
        first_tag,
        job_steps: workload.job_steps(),
        warmup_jobs: 0,
        budget: budget(share),
        trace,
    };
    hold::run(&q, &cfg(WORKERS, 0, 0.02, false), &mut ledger, || {});

    // Untraced, 2 threads: throughput baseline and shardq/gc counters.
    let before = q.shard_counters();
    let mut imbalances = Vec::new();
    let plain = hold::run(&q, &cfg(WORKERS, 2, 0.2, false), &mut ledger, || {
        if let Some((_, _, lens)) = q.shard_counters() {
            imbalances.push(imbalance(&lens));
        }
    });
    let deletes = plain.deletes as f64;
    let (elim, fallback) = match (before, q.shard_counters()) {
        (Some((e0, f0, _)), Some((e1, f1, _))) => {
            ((e1 - e0) as f64 / deletes, (f1 - f0) as f64 / deletes)
        }
        _ => (0.0, 0.0),
    };
    let pending = q.garbage_pending();
    let t = Instant::now();
    q.collect_garbage();
    let collect_ns = t.elapsed().as_nanos() as f64;

    // Traced: spans around every call, at 2 threads and then at 1.
    let traced2 = hold::run(&q, &cfg(WORKERS, 4, 0.2, true), &mut ledger, || {});
    let traced1 = hold::run(&q, &cfg(1, 6, 0.1, true), &mut ledger, || {});
    let mut out = Outcome {
        attempted: ledger.calls(),
        failed: hold::drain_and_check(&q, &ledger),
        ..Outcome::default()
    };
    drop(q);

    let (seq, seq_failed) = hold::run_sequential(seed, &keys, budget(0.1));
    out.attempted += seq.calls;
    out.failed += seq_failed;

    let op_1t = traced1.busy.per_call();
    layers.put("seq.op_ns", seq.per_call(), "ns");
    layers.put("queue.op_ns.1t", op_1t, "ns");
    layers.put("queue.sync_tax_ns", op_1t - seq.per_call(), "ns");
    layers.put("queue.contention_ns", traced2.busy.per_call() - op_1t, "ns");
    layers.put("gc.pending_end", pending as f64, "count");
    layers.put("gc.collect_ns", collect_ns, "ns");
    layers.put("shardq.elim_rate", elim, "share");
    layers.put("shardq.fallback_rate", fallback, "share");
    layers.put("shardq.shard_imbalance", median(&imbalances), "ratio");

    let (rank_mean, rank_p99) = audit_segment(workload, &make, seed, &keys, &mut out);
    layers.put("shardq.rank_error_mean", rank_mean, "rank");
    layers.put("shardq.rank_error_p99", rank_p99, "rank");
    layers.put("sssp.queue_time_share", 0.0, "share");
    layers.put("sssp.stale_pop_share", 0.0, "share");
    layers.put("sssp.empty_poll_share", 0.0, "share");
    layers.put("sssp.pops_per_vertex", 0.0, "ratio");
    layers.put(
        "trace.overhead",
        traced2.throughput() / plain.throughput(),
        "ratio",
    );
    out
}

/// Hold steps per worker in the recorded segment.
const SEGMENT_STEPS: u64 = 10_000;

/// Records and audits a bounded hold segment on a fresh queue:
/// hold-small with `check_definition1`, hold-sharded with
/// `check_integrity`. Returns the rank-error mean and p99 for the sharded
/// queue, zeros otherwise.
fn audit_segment<Q: Probe>(
    workload: Workload,
    make: &dyn Fn() -> Q,
    seed: u64,
    keys: &[u64],
    out: &mut Outcome,
) -> (f64, f64) {
    let record = || hold::record_segment(&make(), seed, keys, WORKERS, SEGMENT_STEPS);
    match workload {
        Workload::HoldSmall => {
            let history = record();
            out.attempted += history.len() as u64;
            // Condition 4 needs stamps at the serialization points; the
            // recorder stamps call boundaries, so an insert that returns
            // just after a concurrent delete took its item is legal here
            // (see `History::check_definition1`). Those are counted apart.
            let (overlaps, failures): (Vec<_>, Vec<_>) = history
                .check_definition1()
                .into_iter()
                .partition(|v| matches!(v, Violation::ReturnedConcurrentInsert { .. }));
            out.overlap_returns += overlaps.len() as u64;
            out.failed += failures.len() as u64;
            (0.0, 0.0)
        }
        Workload::HoldSharded => {
            let history = record();
            out.attempted += history.len() as u64;
            out.failed += history.check_integrity().len() as u64;
            let rank = history.rank_summary();
            (rank.mean, rank.p99 as f64)
        }
        Workload::HoldLarge | Workload::Sssp => (0.0, 0.0),
    }
}

fn traced_sssp(seed: u64, budget: &dyn Fn(f64) -> Duration, layers: &mut Layers) -> Outcome {
    let g = Graph::random(crate::SSSP_VERTICES, crate::SSSP_DEGREE, seed);
    let reference = inputs::dijkstra(&g, sssp::SOURCE);
    let mut out = Outcome::default();
    let check = |s: &sssp::Solve, out: &mut Outcome| {
        out.attempted += s.calls();
        out.failed += sssp::mismatches(&s.dist, &reference);
    };
    let warm = sssp::solve(&g, WORKERS, false);
    check(&warm, &mut out);

    let solves = |trace: bool, share: f64, out: &mut Outcome| {
        let start = Instant::now();
        let mut all = Vec::new();
        while all.is_empty() || start.elapsed() < budget(share) {
            let s = sssp::solve(&g, WORKERS, trace);
            check(&s, out);
            all.push(s);
        }
        all
    };
    let plain = solves(false, 0.25, &mut out);
    let traced = solves(true, 0.25, &mut out);
    let one = sssp::solve(&g, 1, true);
    check(&one, &mut out);
    let (seq, seq_dist) = sssp::solve_sequential(&g);
    out.attempted += seq.calls;
    out.failed += sssp::mismatches(&seq_dist, &reference);

    let sum = |f: fn(&sssp::Solve) -> u64| plain.iter().map(f).sum::<u64>() as f64;
    let (pops, stale, empty) = (sum(|s| s.pops), sum(|s| s.stale), sum(|s| s.empty_polls));
    let busy_2t = traced.iter().map(|s| s.busy.ns).sum::<u64>() as f64;
    let calls_2t = traced.iter().map(|s| s.busy.calls).sum::<u64>() as f64;
    let worker_ns = traced.iter().map(|s| s.worker_ns).sum::<u64>() as f64;
    let secs = |v: &[sssp::Solve]| median(&v.iter().map(|s| s.secs).collect::<Vec<_>>());
    let last = plain.last().expect("at least one solve");
    let op_1t = one.busy.per_call();

    layers.put("seq.op_ns", seq.per_call(), "ns");
    layers.put("queue.op_ns.1t", op_1t, "ns");
    layers.put("queue.sync_tax_ns", op_1t - seq.per_call(), "ns");
    layers.put("queue.contention_ns", busy_2t / calls_2t - op_1t, "ns");
    layers.put("gc.pending_end", last.gc_pending as f64, "count");
    layers.put("gc.collect_ns", last.gc_collect_ns as f64, "ns");
    layers.put("shardq.elim_rate", 0.0, "share");
    layers.put("shardq.fallback_rate", 0.0, "share");
    layers.put("shardq.shard_imbalance", 0.0, "ratio");
    layers.put("shardq.rank_error_mean", 0.0, "rank");
    layers.put("shardq.rank_error_p99", 0.0, "rank");
    layers.put("sssp.queue_time_share", busy_2t / worker_ns, "share");
    layers.put("sssp.stale_pop_share", stale / pops, "share");
    layers.put("sssp.empty_poll_share", empty / (pops + empty), "share");
    layers.put(
        "sssp.pops_per_vertex",
        pops / (plain.len() * g.n()) as f64,
        "ratio",
    );
    layers.put("trace.overhead", secs(&plain) / secs(&traced), "ratio");
    out
}
