//! Parallel label-correcting Dijkstra on [`SkipQueue`], as in
//! `examples/parallel_sssp.rs`: workers pop the closest frontier vertex,
//! relax its out-edges with `fetch_min`, and re-insert improved vertices;
//! stale entries are skipped. Inserts land just behind the current
//! minimum, and workers poll an empty queue near the start and the end.
//!
//! Termination counts outstanding work instead of active workers: a
//! vertex is counted before it is inserted and uncounted after its pop is
//! processed, so "queue empty and nothing outstanding" means done.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use skipqueue::seq::SeqSkipList;
use skipqueue::SkipQueue;

use crate::hold::{Busy, Tracer};
use crate::inputs::Graph;
use crate::stats::Latencies;

/// The source vertex of every solve.
pub const SOURCE: u32 = 0;

/// What one solve did and measured.
pub struct Solve {
    /// Wall time from the workers' start until the last worker exits.
    pub secs: f64,
    /// Distances found.
    pub dist: Vec<u64>,
    /// Successful `delete_min` calls.
    pub pops: u64,
    /// Pops whose distance had already been beaten.
    pub stale: u64,
    /// `delete_min` calls that returned `None`.
    pub empty_polls: u64,
    /// `insert` calls.
    pub inserts: u64,
    /// `insert` latencies.
    pub ins: Latencies,
    /// `delete_min` latencies, empty polls included.
    pub del: Latencies,
    /// Time inside queue calls (traced solves only).
    pub busy: Busy,
    /// Summed worker wall time, ns.
    pub worker_ns: u64,
    /// Retired nodes not yet freed when the solve ended.
    pub gc_pending: usize,
    /// Time of one forced collection at the end, ns.
    pub gc_collect_ns: u64,
}

impl Solve {
    /// Queue calls made.
    pub fn calls(&self) -> u64 {
        self.pops + self.empty_polls + self.inserts
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

#[derive(Default)]
struct Worker {
    pops: u64,
    stale: u64,
    empty_polls: u64,
    inserts: u64,
    ins: Latencies,
    del: Latencies,
    busy: Busy,
    ns: u64,
}

/// Solves single-source shortest paths from [`SOURCE`] on a fresh
/// `SkipQueue::new()` with `threads` workers.
pub fn solve(g: &Graph, threads: usize, trace: bool) -> Solve {
    let q: SkipQueue<u64, u32> = SkipQueue::new();
    let dist: Vec<AtomicU64> = (0..g.n()).map(|_| AtomicU64::new(u64::MAX)).collect();
    let outstanding = AtomicU64::new(1);
    dist[SOURCE as usize].store(0, Ordering::Relaxed);
    q.insert(0, SOURCE);

    let barrier = Barrier::new(threads + 1);
    let mut start = Instant::now();
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (q, dist, outstanding, barrier) = (&q, &dist, &outstanding, &barrier);
                s.spawn(move || {
                    let mut w = Worker::default();
                    let mut tracer = trace.then(|| Tracer::new(Instant::now()));
                    barrier.wait();
                    let begin = Instant::now();
                    loop {
                        let t0 = Instant::now();
                        let got = q.delete_min();
                        let t1 = Instant::now();
                        w.del.record(nanos(t0, t1));
                        if let Some(t) = &mut tracer {
                            t.span(t0, t1);
                        }
                        let Some((d, v)) = got else {
                            w.empty_polls += 1;
                            if outstanding.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            std::thread::yield_now();
                            continue;
                        };
                        w.pops += 1;
                        if d <= dist[v as usize].load(Ordering::Acquire) {
                            for &(to, wt) in g.out(v) {
                                let nd = d + u64::from(wt);
                                if nd < dist[to as usize].fetch_min(nd, Ordering::AcqRel) {
                                    outstanding.fetch_add(1, Ordering::AcqRel);
                                    let t0 = Instant::now();
                                    q.insert(nd, to);
                                    let t1 = Instant::now();
                                    w.ins.record(nanos(t0, t1));
                                    if let Some(t) = &mut tracer {
                                        t.span(t0, t1);
                                    }
                                    w.inserts += 1;
                                }
                            }
                        } else {
                            w.stale += 1;
                        }
                        outstanding.fetch_sub(1, Ordering::AcqRel);
                    }
                    w.ns = nanos(begin, Instant::now());
                    w.busy = tracer.as_ref().map(Tracer::busy).unwrap_or_default();
                    w
                })
            })
            .collect();
        barrier.wait();
        start = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().expect("sssp worker panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();

    let gc_pending = q.garbage_pending();
    let t = Instant::now();
    q.collect_garbage();
    let gc_collect_ns = nanos(t, Instant::now());

    let mut out = Solve {
        secs,
        dist: dist.into_iter().map(AtomicU64::into_inner).collect(),
        pops: 0,
        stale: 0,
        empty_polls: 0,
        inserts: 1, // the source
        ins: Latencies::new(),
        del: Latencies::new(),
        busy: Busy::default(),
        worker_ns: 0,
        gc_pending,
        gc_collect_ns,
    };
    for w in workers {
        out.pops += w.pops;
        out.stale += w.stale;
        out.empty_polls += w.empty_polls;
        out.inserts += w.inserts;
        out.ins.merge(&w.ins);
        out.del.merge(&w.del);
        out.busy.merge(w.busy);
        out.worker_ns += w.ns;
    }
    out
}

/// The sequential floor: the same label-correcting loop on
/// [`SeqSkipList`], one thread, with a span around every queue call.
/// Returns the time inside queue calls and the distances.
pub fn solve_sequential(g: &Graph) -> (Busy, Vec<u64>) {
    let mut q: SeqSkipList<u64, u32> = SeqSkipList::new();
    let mut dist = vec![u64::MAX; g.n()];
    let mut tracer = Tracer::new(Instant::now());
    dist[SOURCE as usize] = 0;
    q.insert(0, SOURCE);
    loop {
        let t0 = Instant::now();
        let got = q.delete_min();
        tracer.span(t0, Instant::now());
        let Some((d, v)) = got else { break };
        if d > dist[v as usize] {
            continue;
        }
        for &(to, wt) in g.out(v) {
            let nd = d + u64::from(wt);
            if nd < dist[to as usize] {
                dist[to as usize] = nd;
                let t0 = Instant::now();
                q.insert(nd, to);
                tracer.span(t0, Instant::now());
            }
        }
    }
    (tracer.busy(), dist)
}

/// Vertices whose distance differs from the reference: each is a failed
/// result.
pub fn mismatches(got: &[u64], reference: &[u64]) -> u64 {
    got.iter().zip(reference).filter(|(a, b)| a != b).count() as u64
        + got.len().abs_diff(reference.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::dijkstra;

    #[test]
    fn sssp_passes_its_checks_at_a_tiny_size() {
        let g = Graph::random(2_000, 6, 9);
        let reference = dijkstra(&g, SOURCE);
        for (threads, trace) in [(1, true), (2, false), (2, true)] {
            let s = solve(&g, threads, trace);
            assert_eq!(mismatches(&s.dist, &reference), 0);
            assert!(s.pops >= g.n() as u64);
            assert_eq!(s.del.count(), s.pops + s.empty_polls);
            assert_eq!(trace, s.busy.calls > 0);
        }
        let (busy, dist) = solve_sequential(&g);
        assert_eq!(dist, reference);
        assert!(busy.calls > 0);
    }

    #[test]
    fn one_corrupted_distance_fails_the_check() {
        let g = Graph::random(2_000, 6, 9);
        let reference = dijkstra(&g, SOURCE);
        let mut got = solve(&g, 2, false).dist;
        got[1_234] += 1;
        assert_eq!(mismatches(&got, &reference), 1);
    }
}
