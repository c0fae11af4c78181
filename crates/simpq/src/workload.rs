//! The paper's synthetic benchmark (§5).
//!
//! "Processors alternate between performing some small amount of local work
//! and accessing a priority queue": each virtual processor loops
//! `work_cycles` of local work, then flips a (biased) coin to either insert
//! an item with a uniformly random priority or perform a delete-min. The
//! driver measures the latency of each operation in machine cycles and
//! reports per-operation means — the exact quantity plotted in Figures 2–8.
//!
//! The paper performs a fixed *total* number of operations; we split that
//! budget evenly across processors (the paper does not describe a shared
//! budget counter, and one would add an artificial hot spot).

use std::cell::RefCell;
use std::rc::Rc;

use pqsim::{
    CostModel, Cycles, FaultSpec, LatencyRecorder, LatencySummary, Pcg32, SchedSpec, Sim, SimConfig,
};

use crate::roster::{QueueKind, SimQueue, Sizes};

/// Configuration of one benchmark run (one point of one figure).
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Structure under test.
    pub queue: QueueKind,
    /// Number of virtual processors (the paper sweeps 1..=256).
    pub nproc: u32,
    /// Items pre-loaded before timing starts.
    pub initial_size: usize,
    /// Total operations across all processors.
    pub total_ops: usize,
    /// Probability that an operation is an insert (paper: 0.5 or 0.3).
    pub insert_ratio: f64,
    /// Local work cycles between operations (paper: 100; Figure 2 sweeps
    /// 100..6000).
    pub work_cycles: u64,
    /// Priorities are uniform in `[1, key_range]`.
    pub key_range: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Machine cost model.
    pub cost: CostModel,
    /// Dedicate one extra processor to garbage collection (the paper's §3
    /// scheme; only meaningful for the single-SkipQueue kinds, so the
    /// sharded queue runs without it).
    pub gc_collector: bool,
    /// Override the skiplist height cap (default: ~log2 of the expected
    /// maximum size — the paper's "simple method"). Ablations only.
    pub skip_max_level: Option<usize>,
    /// Schedule perturbation (default: deterministic clock order, which
    /// reproduces the paper's figures byte-for-byte).
    pub sched: SchedSpec,
    /// Fault-injection plan (default: inert).
    pub faults: FaultSpec,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            queue: QueueKind::SkipQueue { strict: true },
            nproc: 8,
            initial_size: 50,
            total_ops: 1_000,
            insert_ratio: 0.5,
            work_cycles: 100,
            key_range: 1 << 32,
            seed: 0xBE9C_4A11,
            cost: CostModel::default(),
            gc_collector: true,
            skip_max_level: None,
            sched: SchedSpec::ClockOrder,
            faults: FaultSpec::default(),
        }
    }
}

/// Results of one benchmark run.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Insert latency statistics (cycles).
    pub insert: LatencySummary,
    /// Delete-min latency statistics (cycles).
    pub delete: LatencySummary,
    /// All operations combined.
    pub overall: LatencySummary,
    /// Machine makespan, cycles.
    pub final_time: Cycles,
    /// Total globally visible operations.
    pub shared_ops: u64,
    /// Delete-mins that found the queue empty.
    pub empty_deletes: u64,
    /// Items left in the structure afterwards.
    pub final_size: usize,
    /// Nodes reclaimed by the dedicated GC processor (0 when disabled).
    pub gc_freed: u64,
    /// Total cycles all processors spent blocked in lock queues — where the
    /// heap's latency goes at high concurrency.
    pub total_lock_wait: u64,
}

#[derive(Default)]
struct Recorders {
    insert: LatencyRecorder,
    delete: LatencyRecorder,
    overall: LatencyRecorder,
    empty_deletes: u64,
}

/// Picks a skiplist height cap ~ log2 of the expected maximum size, the
/// paper's "simple method" (§5: "we assumed an upper bound on the maximal
/// number N of items ... making the maximal level be log N").
fn skiplist_max_level(cfg: &WorkloadConfig) -> usize {
    if let Some(lvl) = cfg.skip_max_level {
        return lvl;
    }
    let max_items = cfg.initial_size + (cfg.total_ops as f64 * cfg.insert_ratio) as usize + 16;
    ((usize::BITS - max_items.leading_zeros()) as usize).clamp(4, 24)
}

/// Runs one benchmark configuration and reports latency statistics.
pub fn run_workload(cfg: &WorkloadConfig) -> WorkloadResult {
    let with_collector = cfg.gc_collector
        && matches!(
            cfg.queue,
            QueueKind::SkipQueue { .. } | QueueKind::FunnelSkipQueue
        );
    let sim_cfg = SimConfig {
        // The GC processor is an extra, dedicated one (§3).
        nproc: cfg.nproc + u32::from(with_collector),
        cost: cfg.cost.clone(),
        seed: cfg.seed,
        initial_words: 1 << 16,
        sched: cfg.sched.clone(),
        faults: cfg.faults.clone(),
    };
    let mut sim = Sim::new(sim_cfg);
    let mut prng = Pcg32::new(cfg.seed ^ 0xF00D, 0x9E37);

    let sizes = Sizes {
        max_level: skiplist_max_level(cfg),
        heap_capacity: cfg.initial_size
            + (cfg.total_ops as f64 * cfg.insert_ratio) as usize
            + cfg.nproc as usize
            + 64,
        funnel_width: cfg.nproc.max(2),
    };
    let queue = SimQueue::create(&sim, cfg.queue, sizes);
    queue.populate(&sim, &mut prng, cfg.initial_size, cfg.key_range);

    let recorders = Rc::new(RefCell::new(Recorders::default()));
    let base = cfg.total_ops / cfg.nproc as usize;
    let extra = cfg.total_ops % cfg.nproc as usize;
    let workers_done = Rc::new(std::cell::Cell::new(0u32));
    let gc_freed = Rc::new(std::cell::Cell::new(0u64));

    for pid in 0..cfg.nproc {
        let ops = base + usize::from((pid as usize) < extra);
        let q = queue.clone();
        let rec = Rc::clone(&recorders);
        let done = Rc::clone(&workers_done);
        let insert_ratio = cfg.insert_ratio;
        let work_cycles = cfg.work_cycles;
        let key_range = cfg.key_range;
        sim.spawn(move |p| async move {
            for _ in 0..ops {
                p.work(work_cycles);
                let is_insert = p.coin(insert_ratio);
                let start = p.now();
                if is_insert {
                    let key = 1 + p.gen_range_u64(key_range);
                    q.insert(&p, key, key).await;
                    let dt = p.now() - start;
                    let mut r = rec.borrow_mut();
                    r.insert.record(dt);
                    r.overall.record(dt);
                } else {
                    let got = q.delete_min(&p).await;
                    let dt = p.now() - start;
                    let mut r = rec.borrow_mut();
                    r.delete.record(dt);
                    r.overall.record(dt);
                    if got.is_none() {
                        r.empty_deletes += 1;
                    }
                }
            }
            done.set(done.get() + 1);
        });
    }
    if with_collector {
        let skip = match &queue {
            SimQueue::SkipQueue(q) => Some(q.clone()),
            SimQueue::FunnelSkipQueue(q) => Some(q.inner().clone()),
            _ => None,
        };
        if let Some(q) = skip {
            let done = Rc::clone(&workers_done);
            let freed_out = Rc::clone(&gc_freed);
            let workers = cfg.nproc;
            sim.spawn(move |p| async move {
                let freed = q.run_collector(&p, done, workers).await;
                freed_out.set(freed);
            });
        }
    }

    let report = sim.run();
    let final_size = queue.check_invariants(&sim);
    let rec = recorders.borrow();
    WorkloadResult {
        insert: rec.insert.summary(),
        delete: rec.delete.summary(),
        overall: rec.overall.summary(),
        final_time: report.final_time,
        shared_ops: report.shared_ops,
        empty_deletes: rec.empty_deletes,
        final_size,
        gc_freed: gc_freed.get(),
        total_lock_wait: report.lock_wait.iter().sum(),
    }
}

/// Configuration of a *hold model* run (Rönngren & Ayani): the classic
/// discrete-event-simulation benchmark. Each processor repeatedly deletes
/// the earliest event and schedules a successor at `popped_time + dt`,
/// keeping the queue size constant — the steady-state access pattern of a
/// parallel simulation kernel.
#[derive(Clone, Debug)]
pub struct HoldConfig {
    /// Structure under test.
    pub queue: QueueKind,
    /// Number of virtual processors.
    pub nproc: u32,
    /// Queue size (kept constant by the hold loop).
    pub size: usize,
    /// Total hold operations (delete + insert pairs) across processors.
    pub total_holds: usize,
    /// Mean event-time increment.
    pub mean_dt: u64,
    /// Local work between holds, cycles.
    pub work_cycles: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Machine cost model.
    pub cost: CostModel,
}

impl Default for HoldConfig {
    fn default() -> Self {
        Self {
            queue: QueueKind::SkipQueue { strict: true },
            nproc: 8,
            size: 1_000,
            total_holds: 1_000,
            mean_dt: 500,
            work_cycles: 100,
            seed: 0x401D_4011,
            cost: CostModel::default(),
        }
    }
}

/// Result of a hold-model run.
#[derive(Clone, Debug)]
pub struct HoldResult {
    /// Latency of one hold (delete-min + insert), cycles.
    pub hold: LatencySummary,
    /// Machine makespan, cycles.
    pub final_time: Cycles,
    /// Queue size at the end (must equal the configured size).
    pub final_size: usize,
}

/// Runs the hold model and reports per-hold latency.
pub fn run_hold_model(cfg: &HoldConfig) -> HoldResult {
    let sim_cfg = SimConfig {
        nproc: cfg.nproc,
        cost: cfg.cost.clone(),
        seed: cfg.seed,
        initial_words: 1 << 16,
        sched: SchedSpec::ClockOrder,
        faults: FaultSpec::default(),
    };
    let mut sim = Sim::new(sim_cfg);
    let mut prng = Pcg32::new(cfg.seed ^ 0x1D1E, 0x401D);

    // Event times live in a window well inside (0, MAX); increments keep
    // them strictly increasing, so keys stay unique enough in practice and
    // inside the sentinel range.
    let key_range = 1 << 40;
    let sizes = Sizes {
        max_level: ((usize::BITS - cfg.size.leading_zeros()) as usize + 1).clamp(4, 24),
        heap_capacity: cfg.size + cfg.nproc as usize + 8,
        funnel_width: cfg.nproc.max(2),
    };
    let queue = SimQueue::create(&sim, cfg.queue, sizes);
    queue.populate(&sim, &mut prng, cfg.size, key_range);

    let recorder = Rc::new(RefCell::new(LatencyRecorder::new()));
    let base = cfg.total_holds / cfg.nproc as usize;
    let extra = cfg.total_holds % cfg.nproc as usize;
    for pid in 0..cfg.nproc {
        let holds = base + usize::from((pid as usize) < extra);
        let q = queue.clone();
        let rec = Rc::clone(&recorder);
        let work = cfg.work_cycles;
        let mean_dt = cfg.mean_dt;
        sim.spawn(move |p| async move {
            for _ in 0..holds {
                p.work(work);
                let start = p.now();
                // One hold: take the earliest event, schedule a successor.
                if let Some((t, _)) = q.delete_min(&p).await {
                    let dt = 1 + p.gen_range_u64(2 * mean_dt);
                    q.insert(&p, t + dt, 0).await;
                }
                rec.borrow_mut().record(p.now() - start);
            }
        });
    }
    let report = sim.run();
    let final_size = queue.check_invariants(&sim);
    let rec = recorder.borrow();
    HoldResult {
        hold: rec.summary(),
        final_time: report.final_time,
        final_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(queue: QueueKind, nproc: u32) -> WorkloadConfig {
        WorkloadConfig {
            queue,
            nproc,
            initial_size: 50,
            total_ops: 600,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn skipqueue_workload_runs() {
        let r = run_workload(&small(QueueKind::SkipQueue { strict: true }, 8));
        assert_eq!(r.insert.count + r.delete.count, 600);
        assert!(r.insert.mean > 0.0);
        assert!(r.delete.mean > 0.0);
        assert!(r.final_time > 0);
    }

    #[test]
    fn relaxed_skipqueue_workload_runs() {
        let r = run_workload(&small(QueueKind::SkipQueue { strict: false }, 8));
        assert_eq!(r.overall.count, 600);
    }

    #[test]
    fn heap_workload_runs() {
        let r = run_workload(&small(QueueKind::HuntHeap, 8));
        assert_eq!(r.overall.count, 600);
        assert!(r.delete.mean > 0.0);
    }

    #[test]
    fn funnellist_workload_runs() {
        let r = run_workload(&small(QueueKind::FunnelList, 8));
        assert_eq!(r.overall.count, 600);
    }

    #[test]
    fn item_conservation_across_workload() {
        let cfg = small(QueueKind::SkipQueue { strict: true }, 4);
        let r = run_workload(&cfg);
        // initial + inserts - successful deletes == final size.
        let successful_deletes = r.delete.count - r.empty_deletes;
        assert_eq!(
            r.final_size as u64,
            cfg.initial_size as u64 + r.insert.count - successful_deletes
        );
    }

    #[test]
    fn hold_model_keeps_size_constant() {
        for kind in [QueueKind::SkipQueue { strict: true }, QueueKind::HuntHeap] {
            let r = run_hold_model(&HoldConfig {
                queue: kind,
                nproc: 8,
                size: 300,
                total_holds: 400,
                ..HoldConfig::default()
            });
            assert_eq!(r.final_size, 300, "{}", kind.label());
            assert_eq!(r.hold.count, 400);
            assert!(r.hold.mean > 0.0);
        }
    }

    #[test]
    fn hold_model_skipqueue_beats_heap_under_concurrency() {
        let skip = run_hold_model(&HoldConfig {
            queue: QueueKind::SkipQueue { strict: true },
            nproc: 32,
            size: 500,
            total_holds: 1_600,
            ..HoldConfig::default()
        });
        let heap = run_hold_model(&HoldConfig {
            queue: QueueKind::HuntHeap,
            nproc: 32,
            size: 500,
            total_holds: 1_600,
            ..HoldConfig::default()
        });
        assert!(
            heap.hold.mean > 2.0 * skip.hold.mean,
            "heap {} vs skip {}",
            heap.hold.mean,
            skip.hold.mean
        );
    }

    #[test]
    fn workload_is_deterministic() {
        let cfg = small(QueueKind::SkipQueue { strict: true }, 8);
        let a = run_workload(&cfg);
        let b = run_workload(&cfg);
        assert_eq!(a.final_time, b.final_time);
        assert_eq!(a.insert.mean, b.insert.mean);
        assert_eq!(a.shared_ops, b.shared_ops);
    }

    #[test]
    fn single_processor_has_low_latency() {
        // Latency with 1 processor must be far below latency with 64 on the
        // heap (the contention effect the paper measures).
        let lone = run_workload(&small(QueueKind::HuntHeap, 1));
        let crowd = run_workload(&WorkloadConfig {
            total_ops: 1_920,
            ..small(QueueKind::HuntHeap, 64)
        });
        assert!(
            crowd.overall.mean > 2.0 * lone.overall.mean,
            "expected contention: 1p={} 64p={}",
            lone.overall.mean,
            crowd.overall.mean
        );
    }

    #[test]
    fn more_work_means_less_contention() {
        // Figure 2: as the local work grows, queue-operation latency falls.
        let busy = run_workload(&WorkloadConfig {
            work_cycles: 100,
            nproc: 32,
            total_ops: 960,
            initial_size: 200,
            ..WorkloadConfig::default()
        });
        let idle = run_workload(&WorkloadConfig {
            work_cycles: 6000,
            nproc: 32,
            total_ops: 960,
            initial_size: 200,
            ..WorkloadConfig::default()
        });
        assert!(
            idle.overall.mean < busy.overall.mean,
            "more local work should lower op latency: busy={} idle={}",
            busy.overall.mean,
            idle.overall.mean
        );
    }

    #[test]
    fn seventy_percent_deletes_shrinks_queue() {
        let cfg = WorkloadConfig {
            queue: QueueKind::SkipQueue { strict: true },
            nproc: 8,
            initial_size: 500,
            total_ops: 800,
            insert_ratio: 0.3,
            ..WorkloadConfig::default()
        };
        let r = run_workload(&cfg);
        assert!(r.final_size < 500, "net deletions should shrink the queue");
    }
}
