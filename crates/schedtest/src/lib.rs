//! # schedtest — schedule exploration for the simulated priority queues
//!
//! Drives every simulator-hosted queue ([`simpq`]) through many *seeded
//! schedules* — deterministic clock order, seeded random perturbation, and
//! PCT-style priority scheduling ([`pqsim::SchedSpec`]), optionally
//! composed with fault injection ([`pqsim::FaultSpec`]: forced-preemption
//! windows, randomized lock-acquisition delay, a stalled processor) —
//! records each run's timed operation history through a
//! [`simpq::HistoryTap`], and audits it with [`histcheck`].
//!
//! The audit matrix follows each queue's contract:
//!
//! | queue              | audit                                  |
//! |--------------------|----------------------------------------|
//! | SkipQueue (strict) | [`histcheck::History::check_strict`] — must be clean on **every** schedule |
//! | SkipQueue (relaxed)| [`histcheck::History::check_integrity`] must be clean; claims of still-in-flight inserts (condition 4) are *expected* and reported as [`ScheduleOutcome::relaxation_evidence`] |
//! | Hunt et al. heap   | [`histcheck::History::check_integrity`] |
//! | FunnelList         | [`histcheck::History::check_strict`]    |
//! | Sharded ([`SHARDED_SHARDS`] strict shards, two sampled per delete-min) | [`histcheck::History::check_integrity`] must be clean; the sampling relaxation is *measured* as [`ScheduleOutcome::rank_error`] |
//!
//! Everything is a pure function of the [`ScheduleConfig`]: re-running a
//! failing seed replays the exact schedule, bug included. The `schedtest`
//! binary wraps this library for CI sweeps and seed replay.

#![warn(missing_docs)]

use histcheck::{History, RankSummary, Violation};
use pqsim::{FaultSpec, Pid, Proc, SchedSpec, Sim, SimConfig, SimReport, StallSpec};
use simpq::{HistoryTap, SimFunnelList, SimHuntHeap, SimSkipQueue};

/// Which simulated queue a schedule drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueUnderTest {
    /// The paper's SkipQueue with the timestamp protocol (Figures 9–11).
    SkipQueueStrict,
    /// The §5.4 relaxed SkipQueue (no stamping, no stamp test).
    SkipQueueRelaxed,
    /// The Hunt et al. heap.
    HuntHeap,
    /// The combining-funnel sorted list.
    FunnelList,
    /// A sharded multi-queue front-end (the simulated counterpart of the
    /// native `shardq` crate): [`SHARDED_SHARDS`] independent strict
    /// SkipQueues, inserts routed by processor id, `delete_min`
    /// sampling two distinct shards (shardq's fixed `c = 2`) and claiming
    /// from the one with the smaller front key, with an exact-scan
    /// fallback. Audited under the relaxed contract — integrity must
    /// hold, and the sampling relaxation is measured as rank error. It
    /// differs from the native policy only in routing and shard count.
    Sharded,
}

/// Shard count for [`QueueUnderTest::Sharded`].
pub const SHARDED_SHARDS: usize = 3;

/// Skiplist tower cap shared by every SkipQueue-backed variant.
pub const SKIP_MAX_LEVEL: usize = 12;

/// Unified constructor for the SkipQueue-backed roster entries (and each
/// shard of [`QueueUnderTest::Sharded`]): one place holds the tower cap, so
/// the variants differ *only* in the `strict` knob handed to the shared
/// algorithm.
fn make_skipqueue(sim: &Sim, strict: bool, tap: &HistoryTap) -> SimSkipQueue {
    SimSkipQueue::create(sim, SKIP_MAX_LEVEL, strict).with_tap(tap.clone())
}

impl QueueUnderTest {
    /// All five queues, in reporting order.
    pub const ALL: [QueueUnderTest; 5] = [
        QueueUnderTest::SkipQueueStrict,
        QueueUnderTest::SkipQueueRelaxed,
        QueueUnderTest::HuntHeap,
        QueueUnderTest::FunnelList,
        QueueUnderTest::Sharded,
    ];

    /// Stable command-line name.
    pub fn name(self) -> &'static str {
        match self {
            QueueUnderTest::SkipQueueStrict => "strict",
            QueueUnderTest::SkipQueueRelaxed => "relaxed",
            QueueUnderTest::HuntHeap => "heap",
            QueueUnderTest::FunnelList => "funnel",
            QueueUnderTest::Sharded => "sharded",
        }
    }

    /// Inverse of [`QueueUnderTest::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|q| q.name() == s)
    }
}

/// The variant roster as a space-separated string — the single source of
/// truth for usage text, sweep output, and docs (derived from
/// [`QueueUnderTest::ALL`], so adding a variant updates every listing).
pub fn roster() -> String {
    QueueUnderTest::ALL
        .iter()
        .map(|q| q.name())
        .collect::<Vec<_>>()
        .join(" ")
}

/// The synthetic program every processor runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Each processor alternates local work with a random operation
    /// (insert-biased, so the queue stays populated) — the §5 benchmark
    /// shape.
    Mixed,
    /// Each processor inserts its half-budget, then drains; insert/delete
    /// phases overlap across processors, stressing in-flight claims.
    FillThenDrain,
}

impl Workload {
    /// Both workloads, in reporting order.
    pub const ALL: [Workload; 2] = [Workload::Mixed, Workload::FillThenDrain];

    /// Stable command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed => "mixed",
            Workload::FillThenDrain => "fill-drain",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One fully determined schedule: queue, workload, machine seed,
/// scheduler, and fault plan. [`run_schedule`] is a pure function of this.
#[derive(Clone, Debug)]
pub struct ScheduleConfig {
    /// Queue under test.
    pub queue: QueueUnderTest,
    /// Per-processor program shape.
    pub workload: Workload,
    /// Number of worker processors (max 64).
    pub nproc: u32,
    /// Operations per processor (max 65536).
    pub ops_per_proc: u32,
    /// Random key prefixes are drawn from `[0, key_range)`; smaller means
    /// more priority contention.
    pub key_range: u64,
    /// Machine seed: drives per-processor RNG streams, the scheduler, and
    /// the fault plan.
    pub seed: u64,
    /// Schedule perturbation.
    pub sched: SchedSpec,
    /// Fault-injection plan.
    pub faults: FaultSpec,
}

impl ScheduleConfig {
    /// A small default-shape schedule (8 processors, 24 ops each, key
    /// range 48) with the deterministic scheduler and no faults.
    pub fn new(queue: QueueUnderTest, workload: Workload, seed: u64) -> Self {
        Self {
            queue,
            workload,
            nproc: 8,
            ops_per_proc: 24,
            key_range: 48,
            seed,
            sched: SchedSpec::ClockOrder,
            faults: FaultSpec::default(),
        }
    }
}

/// What one schedule produced.
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// The executor's report (deterministic per config; `PartialEq`).
    pub report: SimReport,
    /// The recorded timed history.
    pub history: History,
    /// Violations of the queue's own contract. Any entry here is a bug —
    /// the harness prints the seed and the schedule replays it exactly.
    pub violations: Vec<Violation>,
    /// Definition-1 departures on the relaxed SkipQueue (whose contract
    /// permits them): evidence that the schedule made the §5.4 relaxation
    /// observable. Empty for the other queues.
    pub relaxation_evidence: Vec<Violation>,
    /// Rank-error summary of the recorded history
    /// ([`histcheck::History::rank_summary`]): how far each returned value
    /// was from the live minimum, ordered by the deletes' recorded stamps.
    /// The measured relaxation of [`QueueUnderTest::Sharded`]. Computed
    /// for every queue, but note the strict queues stamp a delete at its
    /// clock read (search start) rather than at the claim, so two
    /// overlapping strict deletes whose linearization order differs from
    /// their stamp order can legitimately register small nonzero ranks —
    /// the number is an upper bound there, exact only under claim-point
    /// stamps (see `histcheck::rank`'s module docs).
    pub rank_error: RankSummary,
}

#[derive(Clone)]
enum QueueHandle {
    Skip(SimSkipQueue),
    Heap(SimHuntHeap),
    Funnel(SimFunnelList),
    /// `shards` strict SkipQueues sharing one history tap; see
    /// [`QueueUnderTest::Sharded`].
    Sharded(Vec<SimSkipQueue>),
}

impl QueueHandle {
    async fn insert(&self, p: &Proc, key: u64) {
        // Histories identify and order items by value, so value == key.
        match self {
            QueueHandle::Skip(q) => {
                q.insert(p, key, key).await;
            }
            QueueHandle::Heap(q) => q.insert(p, key, key).await,
            QueueHandle::Funnel(q) => q.insert(p, key, key).await,
            QueueHandle::Sharded(shards) => {
                // Processor-id routing: deterministic, and adjacent pids
                // land on different shards so sampling has work to do.
                let i = p.pid() as usize % shards.len();
                shards[i].insert(p, key, key).await;
            }
        }
    }

    async fn delete_min(&self, p: &Proc) -> Option<(u64, u64)> {
        match self {
            QueueHandle::Skip(q) => q.delete_min(p).await,
            QueueHandle::Heap(q) => q.delete_min(p).await,
            QueueHandle::Funnel(q) => q.delete_min(p).await,
            QueueHandle::Sharded(shards) => Self::sharded_delete_min(shards, p).await,
        }
    }

    /// The native `shardq` delete-min policy: peek two distinct shards
    /// (shardq's fixed `c = 2`, drawn with its formula) with non-claiming
    /// probes, claim from the smaller front, fall back to an exact scan
    /// of all shards when sampling found nothing (or lost its claim
    /// race). A shard-level `delete_min` that races to empty records a
    /// `None` into the shared history — a true observation of that shard,
    /// harmless to the relaxed-contract audit (integrity ignores EMPTY
    /// deletes, and so does the rank auditor).
    async fn sharded_delete_min(shards: &[SimSkipQueue], p: &Proc) -> Option<(u64, u64)> {
        let k = shards.len();
        let (a, b) = if k == 2 {
            (0, 1)
        } else {
            let r = p.gen_range_u64((k * (k - 1)) as u64) as usize;
            (r % k, (r % k + 1 + r / k) % k)
        };
        let mut best: Option<(u64, usize)> = None;
        for i in [a, b] {
            if let Some(key) = shards[i].peek_min_key(p).await {
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, i));
                }
            }
        }
        if let Some((_, i)) = best {
            if let Some(kv) = shards[i].delete_min(p).await {
                return Some(kv);
            }
        }
        // Exact-scan fallback: claim the globally smallest front; only a
        // full pass of empty shards means EMPTY. Fronts that race away
        // between the probe and the claim imply another processor made
        // progress, so rescanning preserves system-wide progress.
        loop {
            let mut fronts: Vec<(u64, usize)> = Vec::with_capacity(k);
            for (i, s) in shards.iter().enumerate() {
                if let Some(key) = s.peek_min_key(p).await {
                    fronts.push((key, i));
                }
            }
            if fronts.is_empty() {
                return None;
            }
            fronts.sort_unstable();
            for &(_, i) in &fronts {
                if let Some(kv) = shards[i].delete_min(p).await {
                    return Some(kv);
                }
            }
        }
    }
}

/// Unique key: random priority prefix, disambiguated by `(pid, seq)` so
/// no two inserts of a run ever collide (histories identify items by
/// value, and every workload uses the key as its value).
fn make_key(prefix: u64, pid: Pid, seq: u64) -> u64 {
    debug_assert!(pid < 64 && seq < (1 << 16));
    ((prefix + 1) << 22) | (u64::from(pid) << 16) | seq
}

fn spawn_workers(sim: &mut Sim, cfg: &ScheduleConfig, handle: QueueHandle) {
    for _ in 0..cfg.nproc {
        let q = handle.clone();
        let workload = cfg.workload;
        let ops = cfg.ops_per_proc;
        let key_range = cfg.key_range;
        sim.spawn(move |p| async move {
            let mut seq: u64 = 0;
            match workload {
                Workload::Mixed => {
                    for _ in 0..ops {
                        p.work(p.gen_range_u64(100));
                        if p.coin(0.45) {
                            q.delete_min(&p).await;
                        } else {
                            let key = make_key(p.gen_range_u64(key_range), p.pid(), seq);
                            seq += 1;
                            q.insert(&p, key).await;
                        }
                    }
                }
                Workload::FillThenDrain => {
                    let fills = ops.div_ceil(2);
                    for _ in 0..fills {
                        let key = make_key(p.gen_range_u64(key_range), p.pid(), seq);
                        seq += 1;
                        q.insert(&p, key).await;
                        p.work(p.gen_range_u64(60));
                    }
                    for _ in fills..ops {
                        q.delete_min(&p).await;
                        p.work(p.gen_range_u64(60));
                    }
                }
            }
        });
    }
}

/// Audits a recorded history per the queue's contract. Returns
/// `(contract_violations, relaxation_evidence)`; see [`ScheduleOutcome`].
pub fn audit(queue: QueueUnderTest, history: &History) -> (Vec<Violation>, Vec<Violation>) {
    match queue {
        QueueUnderTest::SkipQueueStrict => (history.check_strict(), Vec::new()),
        QueueUnderTest::SkipQueueRelaxed => {
            let integrity = history.check_integrity();
            // The relaxed tap stamps delete-mins at their claim SWAP, so a
            // condition-4 hit proves the claimed node's insert had not
            // finished stamping — a genuine Definition-1 departure. The
            // anti-loss conditions are *not* sound under these stamps (a
            // scan may benignly miss a node whose visibility write landed
            // mid-walk), so only condition-4 hits count as evidence.
            let evidence = history
                .check_definition1()
                .into_iter()
                .filter(|v| matches!(v, Violation::ReturnedConcurrentInsert { .. }))
                .collect();
            (integrity, evidence)
        }
        QueueUnderTest::HuntHeap => (history.check_integrity(), Vec::new()),
        QueueUnderTest::FunnelList => (history.check_strict(), Vec::new()),
        QueueUnderTest::Sharded => {
            // Relaxed contract: no element may be lost, duplicated, or
            // invented, but the returned key need not be the minimum. The
            // strict per-shard stamps make condition-4 departures
            // impossible (a shard never claims a node that has not
            // finished stamping), so the observable relaxation is rank
            // error, reported via `ScheduleOutcome::rank_error` rather
            // than as evidence violations.
            (history.check_integrity(), Vec::new())
        }
    }
}

/// Runs one schedule end to end: build the machine with the configured
/// scheduler and fault plan, run the workload with a history tap attached,
/// audit the history. Pure in `cfg` — identical configs produce
/// byte-identical reports and histories.
pub fn run_schedule(cfg: &ScheduleConfig) -> ScheduleOutcome {
    assert!((1u32..=64).contains(&cfg.nproc), "nproc must be in 1..=64");
    assert!(
        (1u32..=1 << 16).contains(&cfg.ops_per_proc),
        "ops_per_proc must be in 1..=65536"
    );
    assert!(
        (1u64..=1 << 40).contains(&cfg.key_range),
        "key_range must be in 1..=2^40"
    );
    let mut sim = Sim::new(
        SimConfig::new(cfg.nproc)
            .with_seed(cfg.seed)
            .with_sched(cfg.sched.clone())
            .with_faults(cfg.faults.clone()),
    );
    let tap = HistoryTap::new();
    let handle = match cfg.queue {
        QueueUnderTest::SkipQueueStrict => QueueHandle::Skip(make_skipqueue(&sim, true, &tap)),
        QueueUnderTest::SkipQueueRelaxed => QueueHandle::Skip(make_skipqueue(&sim, false, &tap)),
        QueueUnderTest::HuntHeap => {
            // Worst case every operation is an insert.
            let cap = cfg.nproc as usize * cfg.ops_per_proc as usize + 1;
            QueueHandle::Heap(SimHuntHeap::create(&sim, cap).with_tap(tap.clone()))
        }
        QueueUnderTest::FunnelList => QueueHandle::Funnel(
            SimFunnelList::create(&sim, (cfg.nproc / 2).max(1), 2).with_tap(tap.clone()),
        ),
        QueueUnderTest::Sharded => QueueHandle::Sharded(
            (0..SHARDED_SHARDS)
                .map(|_| make_skipqueue(&sim, true, &tap))
                .collect(),
        ),
    };
    spawn_workers(&mut sim, cfg, handle);
    let report = sim.run();
    let history = tap.take();
    let (violations, relaxation_evidence) = audit(cfg.queue, &history);
    let rank_error = history.rank_summary();
    ScheduleOutcome {
        report,
        history,
        violations,
        relaxation_evidence,
        rank_error,
    }
}

/// The exploration sweep's deterministic seed → schedule mapping: the
/// scheduler rotates with `seed % 3` (clock order, random perturbation,
/// PCT depth 3) and every fourth seed composes a fault plan (preemption
/// windows, lock delays, and a stalled processor pinning the GC horizon).
/// Replaying a failing seed therefore needs nothing but the seed, the
/// queue, and the workload.
pub fn exploration_config(queue: QueueUnderTest, workload: Workload, seed: u64) -> ScheduleConfig {
    let mut cfg = ScheduleConfig::new(queue, workload, seed);
    // Rough boundary count for PCT change points: each queue operation
    // issues a few dozen shared operations.
    let expected_ops = u64::from(cfg.nproc) * u64::from(cfg.ops_per_proc) * 64;
    cfg.sched = match seed % 3 {
        0 => SchedSpec::ClockOrder,
        1 => SchedSpec::RandomPerturb { max_delay: 1_500 },
        _ => SchedSpec::Pct {
            depth: 3,
            expected_ops,
            unit: 400,
        },
    };
    if seed % 4 == 3 {
        cfg.faults = FaultSpec {
            preempt_prob: 0.02,
            preempt_window: 800,
            lock_delay_max: 200,
            stall: Some(StallSpec {
                victim: (seed % u64::from(cfg.nproc)) as Pid,
                at_op: expected_ops / 2,
                cycles: 50_000,
            }),
        };
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_key_is_injective_over_pid_seq() {
        let a = make_key(3, 0, 1);
        let b = make_key(3, 1, 0);
        let c = make_key(3, 0, 2);
        assert!(a != b && a != c && b != c);
        // Priority ordering is dominated by the prefix.
        assert!(make_key(2, 63, 65535) < make_key(3, 0, 0));
    }

    #[test]
    fn names_round_trip() {
        for q in QueueUnderTest::ALL {
            assert_eq!(QueueUnderTest::parse(q.name()), Some(q));
        }
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(QueueUnderTest::parse("nope"), None);
    }

    #[test]
    fn roster_is_derived_from_all() {
        let r = roster();
        assert_eq!(r.split(' ').count(), QueueUnderTest::ALL.len());
        for q in QueueUnderTest::ALL {
            assert!(r.split(' ').any(|n| n == q.name()), "{} missing", q.name());
        }
    }

    #[test]
    fn exploration_rotates_schedulers_and_faults() {
        let c0 = exploration_config(QueueUnderTest::SkipQueueStrict, Workload::Mixed, 0);
        let c1 = exploration_config(QueueUnderTest::SkipQueueStrict, Workload::Mixed, 1);
        let c2 = exploration_config(QueueUnderTest::SkipQueueStrict, Workload::Mixed, 2);
        let c3 = exploration_config(QueueUnderTest::SkipQueueStrict, Workload::Mixed, 3);
        assert_eq!(c0.sched, SchedSpec::ClockOrder);
        assert!(matches!(c1.sched, SchedSpec::RandomPerturb { .. }));
        assert!(matches!(c2.sched, SchedSpec::Pct { .. }));
        assert!(c0.faults.is_inert() && c1.faults.is_inert() && c2.faults.is_inert());
        assert!(!c3.faults.is_inert());
        assert!(c3.faults.stall.is_some());
    }

    #[test]
    fn sharded_schedule_runs_and_audits_clean() {
        // Integrity must hold on every seed; across a handful of seeds the
        // sampling relaxation should become *measurable* (some delete
        // returns a non-minimum), which is the whole point of the variant.
        let mut nonzero_ranks = 0u64;
        let mut scored = 0u64;
        for seed in 0..6 {
            for workload in Workload::ALL {
                let cfg = ScheduleConfig::new(QueueUnderTest::Sharded, workload, seed);
                let out = run_schedule(&cfg);
                assert!(!out.history.is_empty());
                assert!(
                    out.violations.is_empty(),
                    "seed {seed} {workload:?}: {:?}",
                    out.violations
                );
                nonzero_ranks += out.rank_error.nonzero;
                scored += out.rank_error.samples;
            }
        }
        assert!(scored > 0, "no delete returned a value across all seeds");
        assert!(
            nonzero_ranks > 0,
            "sharding never produced a rank error over 12 schedules — sampling is not being exercised"
        );
    }

    #[test]
    fn sharded_schedule_is_deterministic() {
        let cfg = ScheduleConfig::new(QueueUnderTest::Sharded, Workload::Mixed, 5);
        let a = run_schedule(&cfg);
        let b = run_schedule(&cfg);
        assert_eq!(a.report, b.report);
        assert_eq!(a.rank_error, b.rank_error);
    }

    #[test]
    fn sequential_strict_history_scores_zero_rank_error() {
        // Only sound sequentially: with overlapping strict deletes the
        // stamp order (clock read) can differ from the linearization
        // order, registering benign nonzero ranks. One processor leaves
        // no such ambiguity — every rank must be exactly 0.
        let mut cfg =
            ScheduleConfig::new(QueueUnderTest::SkipQueueStrict, Workload::FillThenDrain, 3);
        cfg.nproc = 1;
        let out = run_schedule(&cfg);
        assert!(out.rank_error.samples > 0);
        assert_eq!(
            out.rank_error.nonzero, 0,
            "sequential strict queue returned a non-minimum: {:?}",
            out.rank_error
        );
    }

    #[test]
    fn single_schedule_runs_and_audits() {
        let cfg = ScheduleConfig::new(QueueUnderTest::SkipQueueStrict, Workload::Mixed, 7);
        let out = run_schedule(&cfg);
        assert!(!out.history.is_empty());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.relaxation_evidence.is_empty());
        assert!(out.report.final_time > 0);
    }
}
