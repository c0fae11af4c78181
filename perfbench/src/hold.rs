//! The hold model: every worker step is `delete_min`, then
//! `insert(returned_key + increment, unique_value)`. Queue size and key
//! distribution stay stationary for any run length, the way a
//! discrete-event simulation drives its event queue.
//!
//! Correctness is checked with a multiset fingerprint of `(key, value)`
//! pairs: what was inserted (prefill plus every step) must equal what came
//! back (every step plus the final drain). Values encode `(tag, seq)`, so
//! every item is distinct and a lost, duplicated or altered item changes
//! the count or the fingerprint.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use histcheck::{History, Recorder, TicketClock};
use skipqueue::seq::SeqSkipList;
use skipqueue::PriorityQueue;

use crate::inputs::{self, mix64, INCREMENT_TABLE};
use crate::stats::{median, Latencies, Window};

/// Value tag of prefill items; worker tags are small integers.
const PREFILL_TAG: u64 = 0xFF;

fn unique_value(tag: u64, seq: u64) -> u64 {
    (tag << 56) | seq
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// Order-free fingerprint of a multiset of `(key, value)` pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    count: u64,
    sum: u64,
}

impl Tally {
    fn add(&mut self, key: u64, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix64(key ^ mix64(value)));
    }

    fn merge(&mut self, other: Tally) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// Everything that went into and came out of one queue.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    inserted: Tally,
    returned: Tally,
    /// `delete_min` calls that returned `None` while items were held.
    empty: u64,
}

impl Ledger {
    fn absorb(&mut self, other: &Ledger) {
        self.inserted.merge(other.inserted);
        self.returned.merge(other.returned);
        self.empty += other.empty;
    }

    /// Failed checks once the queue's remaining items are `drained`:
    /// `None` returns while items were held, plus every item lost or
    /// duplicated, plus one if the fingerprints disagree with the counts
    /// equal (an altered item).
    fn failures(&self, drained: impl Iterator<Item = (u64, u64)>) -> u64 {
        let mut returned = self.returned;
        for (k, v) in drained {
            returned.add(k, v);
        }
        let lost_or_duplicated = self.inserted.count.abs_diff(returned.count);
        let altered = u64::from(lost_or_duplicated == 0 && self.inserted.sum != returned.sum);
        self.empty + lost_or_duplicated + altered
    }

    /// Queue calls recorded: inserts plus `delete_min` calls.
    pub fn calls(&self) -> u64 {
        self.inserted.count + self.returned.count + self.empty
    }

    /// Ledger of a queue holding exactly the prefill `keys`.
    pub fn after_prefill(keys: &[u64]) -> Self {
        let mut ledger = Ledger::default();
        for (i, &k) in keys.iter().enumerate() {
            ledger.inserted.add(k, unique_value(PREFILL_TAG, i as u64));
        }
        ledger
    }
}

/// Inserts the prefill `keys` (the timed part of a hold workload's set-up).
pub fn prefill<Q: PriorityQueue<u64, u64>>(q: &Q, keys: &[u64]) {
    for (i, &k) in keys.iter().enumerate() {
        q.insert(k, unique_value(PREFILL_TAG, i as u64));
    }
}

/// Drains `q` (which must be quiescent) and returns how many operations
/// failed their checks.
pub fn drain_and_check<Q: PriorityQueue<u64, u64>>(q: &Q, ledger: &Ledger) -> u64 {
    ledger.failures(std::iter::from_fn(|| q.delete_min()))
}

/// The queue interface a hold worker drives: shared references to the
/// concurrent queues, or the sequential skiplist owned by its only worker.
pub trait HoldQueue {
    /// `delete_min` of the underlying queue.
    fn delete_min(&mut self) -> Option<(u64, u64)>;
    /// `insert` of the underlying queue.
    fn insert(&mut self, key: u64, value: u64);
}

impl<Q: PriorityQueue<u64, u64>> HoldQueue for &Q {
    fn delete_min(&mut self) -> Option<(u64, u64)> {
        PriorityQueue::delete_min(*self)
    }
    fn insert(&mut self, key: u64, value: u64) {
        PriorityQueue::insert(*self, key, value);
    }
}

impl HoldQueue for SeqSkipList<u64, u64> {
    fn delete_min(&mut self) -> Option<(u64, u64)> {
        SeqSkipList::delete_min(self)
    }
    fn insert(&mut self, key: u64, value: u64) {
        SeqSkipList::insert(self, key, value);
    }
}

/// Time spent inside queue calls, from spans recorded around each call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    /// Summed span durations, ns.
    pub ns: u64,
    /// Spans (queue calls).
    pub calls: u64,
}

impl Busy {
    /// Mean nanoseconds per queue call.
    pub fn per_call(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }

    /// Adds `other`'s time and calls.
    pub fn merge(&mut self, other: Busy) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// One recorded queue call: start and end, ns since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u64,
    end: u64,
}

/// Spans kept per worker; calls beyond this are summed but not kept.
const SPAN_CAP: usize = 1 << 18;

/// Per-worker span recorder for the traced run: spans stay in memory and
/// are summarised when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: Busy,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(SPAN_CAP),
            dropped: Busy::default(),
        }
    }

    /// Records the call `[t0, t1]`.
    #[inline]
    pub fn span(&mut self, t0: Instant, t1: Instant) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                start: nanos(self.epoch, t0),
                end: nanos(self.epoch, t1),
            });
        } else {
            self.dropped.ns += nanos(t0, t1);
            self.dropped.calls += 1;
        }
    }

    /// Total time inside recorded calls.
    pub fn busy(&self) -> Busy {
        let mut b = self.dropped;
        for s in &self.spans {
            b.ns += s.end - s.start;
            b.calls += 1;
        }
        b
    }
}

/// One hold worker's state.
struct Worker {
    tag: u64,
    seq: u64,
    increments: Vec<u64>,
    ledger: Ledger,
    measured_calls: u64,
    measured_deletes: u64,
    ins: Latencies,
    del: Latencies,
    windows: Vec<Window>,
    tracer: Option<Tracer>,
}

impl Worker {
    fn new(seed: u64, tag: u64, tracer: Option<Tracer>) -> Self {
        Self {
            tag,
            seq: 0,
            increments: inputs::hold_increments(seed, tag as usize),
            ledger: Ledger::default(),
            measured_calls: 0,
            measured_deletes: 0,
            ins: Latencies::new(),
            del: Latencies::new(),
            windows: Vec::new(),
            tracer,
        }
    }

    #[inline]
    fn step<H: HoldQueue>(&mut self, q: &mut H, measure: bool) {
        let t0 = Instant::now();
        let got = q.delete_min();
        let t1 = Instant::now();
        if measure {
            self.measured_calls += 1;
            self.measured_deletes += 1;
            self.del.record(nanos(t0, t1));
        }
        if let Some(t) = &mut self.tracer {
            t.span(t0, t1);
        }
        let Some((key, value)) = got else {
            self.ledger.empty += 1;
            return;
        };
        self.ledger.returned.add(key, value);
        let inc = self.increments[self.seq as usize % INCREMENT_TABLE];
        let (key, value) = (key.wrapping_add(inc), unique_value(self.tag, self.seq));
        self.seq += 1;
        let t1 = Instant::now();
        q.insert(key, value);
        let t2 = Instant::now();
        if measure {
            self.measured_calls += 1;
            self.ins.record(nanos(t1, t2));
        }
        if let Some(t) = &mut self.tracer {
            t.span(t1, t2);
        }
        self.ledger.inserted.add(key, value);
    }

    /// Closes a measured job: its percentiles become one window.
    fn close_window(&mut self) {
        self.windows.push(Window::of(&self.del, &self.ins));
        self.del.clear();
        self.ins.clear();
    }
}

/// How to drive one hold run.
#[derive(Clone, Copy, Debug)]
pub struct HoldCfg {
    /// Input seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Tag of the first worker (values and increment streams); tags must
    /// not repeat on one queue.
    pub first_tag: u64,
    /// Steps each worker makes per job.
    pub job_steps: u64,
    /// Leading jobs that warm caches and are not measured.
    pub warmup_jobs: usize,
    /// Measured time after which no new job starts.
    pub budget: Duration,
    /// Record a span around every queue call.
    pub trace: bool,
}

/// What one hold run measured.
#[derive(Clone)]
pub struct HoldRun {
    /// Wall time of each measured job, seconds.
    pub job_secs: Vec<f64>,
    /// Queue calls in measured jobs.
    pub calls: u64,
    /// `delete_min` calls among them.
    pub deletes: u64,
    /// Latency percentiles of each worker's measured jobs.
    pub windows: Vec<Window>,
    /// Time inside queue calls (traced runs only).
    pub busy: Busy,
}

impl HoldRun {
    /// Completed queue calls per second: calls per job over the median
    /// job time.
    pub fn throughput(&self) -> f64 {
        self.calls as f64 / self.job_secs.len() as f64 / median(&self.job_secs)
    }
}

/// Runs the hold loop on `q` with `cfg.threads` workers in jobs of
/// `cfg.job_steps` steps per worker, until `cfg.budget` of measured job
/// time has passed. `between_jobs` runs on the calling thread while the
/// workers wait between jobs. Worker results are folded into `ledger`.
pub fn run<Q: PriorityQueue<u64, u64>>(
    q: &Q,
    cfg: &HoldCfg,
    ledger: &mut Ledger,
    mut between_jobs: impl FnMut(),
) -> HoldRun {
    let barrier = Barrier::new(cfg.threads + 1);
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    let mut job_secs = Vec::new();
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let tracer = cfg.trace.then(|| Tracer::new(epoch));
                    let mut w = Worker::new(cfg.seed, cfg.first_tag + t as u64, tracer);
                    let mut q = q;
                    let mut job = 0;
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::Acquire) {
                            return w;
                        }
                        let measure = job >= cfg.warmup_jobs;
                        for _ in 0..cfg.job_steps {
                            w.step(&mut q, measure);
                        }
                        job += 1;
                        barrier.wait();
                        if measure {
                            w.close_window();
                        }
                    }
                })
            })
            .collect();
        let mut measured = 0.0;
        for job in 0.. {
            barrier.wait();
            let t = Instant::now();
            barrier.wait();
            let dt = t.elapsed().as_secs_f64();
            between_jobs();
            if job >= cfg.warmup_jobs {
                job_secs.push(dt);
                measured += dt;
                if measured >= cfg.budget.as_secs_f64() {
                    break;
                }
            }
        }
        stop.store(true, Ordering::Release);
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("hold worker panicked"))
            .collect()
    });
    let mut out = HoldRun {
        job_secs,
        calls: 0,
        deletes: 0,
        windows: Vec::new(),
        busy: Busy::default(),
    };
    for w in workers {
        ledger.absorb(&w.ledger);
        out.calls += w.measured_calls;
        out.deletes += w.measured_deletes;
        out.windows.extend_from_slice(&w.windows);
        if let Some(t) = &w.tracer {
            out.busy.merge(t.busy());
        }
    }
    out
}

/// The sequential floor: the same hold stream on [`SeqSkipList`], one
/// thread, traced, for `budget`. Returns the time inside queue calls and
/// the failed-check count.
pub fn run_sequential(seed: u64, keys: &[u64], budget: Duration) -> (Busy, u64) {
    let mut q = SeqSkipList::new();
    for (i, &k) in keys.iter().enumerate() {
        q.insert(k, unique_value(PREFILL_TAG, i as u64));
    }
    let mut w = Worker::new(seed, 0, Some(Tracer::new(Instant::now())));
    let start = Instant::now();
    while start.elapsed() < budget {
        for _ in 0..1024 {
            w.step(&mut q, false);
        }
    }
    let mut ledger = Ledger::after_prefill(keys);
    ledger.absorb(&w.ledger);
    let failed = ledger.failures(std::iter::from_fn(|| q.delete_min()));
    (
        w.tracer.as_ref().map(Tracer::busy).unwrap_or_default(),
        failed,
    )
}

/// Bits of a recorded key below the priority: a unique id per item.
const UID_BITS: u32 = 20;

/// Records a bounded hold segment on a fresh queue `q` for `histcheck`:
/// `keys` prefill (recorded too, so early deletes are explained) and
/// `steps` hold steps per worker. Keys are unique — a priority above
/// [`UID_BITS`] bits of item id — and each item's value is its key, so
/// value order is priority order, as the rank auditor requires.
pub fn record_segment<Q: PriorityQueue<u64, u64>>(
    q: &Q,
    seed: u64,
    keys: &[u64],
    threads: usize,
    steps: u64,
) -> History {
    assert!(keys.len() as u64 + threads as u64 * steps < 1 << UID_BITS);
    let clock = TicketClock::new();
    let mut rec = Recorder::new(&clock);
    for (uid, &k) in keys.iter().enumerate() {
        let key = ((k >> 12) << UID_BITS) | uid as u64;
        rec.insert(key, || q.insert(key, key));
    }
    let mut parts = vec![rec.finish()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let clock = &clock;
                s.spawn(move || {
                    let increments = inputs::hold_increments(seed, t);
                    let mut rec = Recorder::new(clock);
                    for i in 0..steps {
                        let Some(v) = rec.delete_min(|| q.delete_min().map(|(_, v)| v)) else {
                            continue;
                        };
                        let priority =
                            (v >> UID_BITS) + (increments[i as usize % INCREMENT_TABLE] >> 12);
                        let uid = keys.len() as u64 + t as u64 + threads as u64 * i;
                        let key = (priority << UID_BITS) | uid;
                        rec.insert(key, || q.insert(key, key));
                    }
                    rec.finish()
                })
            })
            .collect();
        parts.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("segment worker panicked")),
        );
    });
    History::merge(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    use skipqueue::SkipQueue;

    fn tiny_cfg() -> HoldCfg {
        HoldCfg {
            seed: 5,
            threads: 2,
            first_tag: 0,
            job_steps: 500,
            warmup_jobs: 1,
            budget: Duration::from_millis(20),
            trace: true,
        }
    }

    /// Runs a tiny hold workload on `q` and returns the failed-check count.
    fn tiny_hold<Q: PriorityQueue<u64, u64>>(q: &Q) -> u64 {
        let keys = inputs::prefill_keys(5, 64);
        prefill(q, &keys);
        let mut ledger = Ledger::after_prefill(&keys);
        let r = run(q, &tiny_cfg(), &mut ledger, || {});
        assert!(r.calls > 0 && !r.windows.is_empty());
        assert!(r.busy.calls >= r.calls);
        drain_and_check(q, &ledger)
    }

    /// Wraps a queue and corrupts it once: the `at`-th insert is dropped
    /// or performed twice.
    struct Faulty<Q> {
        inner: Q,
        at: u64,
        duplicate: bool,
        inserts: AtomicU64,
    }

    impl<Q: PriorityQueue<u64, u64>> PriorityQueue<u64, u64> for Faulty<Q> {
        fn insert(&self, key: u64, value: u64) {
            if self.inserts.fetch_add(1, Ordering::Relaxed) == self.at {
                if self.duplicate {
                    self.inner.insert(key, value);
                } else {
                    return;
                }
            }
            self.inner.insert(key, value);
        }
        fn delete_min(&self) -> Option<(u64, u64)> {
            self.inner.delete_min()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    #[test]
    fn hold_passes_its_checks_at_a_tiny_size() {
        assert_eq!(tiny_hold(&SkipQueue::new()), 0);
        assert_eq!(tiny_hold(&shardq::ShardedSkipQueue::new(2)), 0);
    }

    #[test]
    fn dropped_or_duplicated_item_fails_the_check() {
        for duplicate in [false, true] {
            let q = Faulty {
                inner: SkipQueue::new(),
                at: 100,
                duplicate,
                inserts: AtomicU64::new(0),
            };
            assert!(tiny_hold(&q) > 0, "duplicate = {duplicate}");
        }
    }

    #[test]
    fn sequential_floor_passes_its_checks() {
        let keys = inputs::prefill_keys(5, 64);
        let (busy, failed) = run_sequential(5, &keys, Duration::from_millis(5));
        assert_eq!(failed, 0);
        assert!(busy.calls > 0);
    }

    #[test]
    fn recorded_segment_audits_clean() {
        let keys = inputs::prefill_keys(5, 64);
        let h = record_segment(&SkipQueue::new(), 5, &keys, 2, 300);
        assert_eq!(h.len(), 64 + 2 * 2 * 300);
        assert!(h.check_strict().is_empty());
        let h = record_segment(&shardq::ShardedSkipQueue::new(2), 5, &keys, 2, 300);
        assert!(h.check_integrity().is_empty());
    }
}
