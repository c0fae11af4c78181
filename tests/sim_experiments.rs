//! Scaled-down versions of the paper's experiments, run as assertions: the
//! qualitative *shapes* the paper reports must hold on every build. (The
//! full-size sweeps live in the `pq-bench` binaries; these are the fast,
//! always-on guardrails.)

use simpq::{run_workload, QueueKind, WorkloadConfig};

fn cfg(queue: QueueKind, nproc: u32, initial: usize, ops: usize, ratio: f64) -> WorkloadConfig {
    WorkloadConfig {
        queue,
        nproc,
        initial_size: initial,
        total_ops: ops,
        insert_ratio: ratio,
        work_cycles: 100,
        ..WorkloadConfig::default()
    }
}

const SKIP: QueueKind = QueueKind::SkipQueue { strict: true };
const RELAXED: QueueKind = QueueKind::SkipQueue { strict: false };
const HEAP: QueueKind = QueueKind::HuntHeap;
const FUNNEL: QueueKind = QueueKind::FunnelList;

/// Paper §5/Fig. 3–4: the SkipQueue beats the heap across the concurrency
/// range, and decisively at high concurrency.
#[test]
fn skipqueue_beats_heap_at_scale() {
    for nproc in [16u32, 64] {
        let skip = run_workload(&cfg(SKIP, nproc, 50, 6_400, 0.5));
        let heap = run_workload(&cfg(HEAP, nproc, 50, 6_400, 0.5));
        assert!(
            heap.insert.mean > 2.0 * skip.insert.mean,
            "p={nproc}: heap insert {} vs skip {}",
            heap.insert.mean,
            skip.insert.mean
        );
        assert!(
            heap.delete.mean > 1.5 * skip.delete.mean,
            "p={nproc}: heap delete {} vs skip {}",
            heap.delete.mean,
            skip.delete.mean
        );
    }
}

/// Paper Fig. 3: the FunnelList is the best structure at very low
/// concurrency on a small queue...
#[test]
fn funnellist_wins_when_alone() {
    let funnel = run_workload(&cfg(FUNNEL, 1, 50, 2_000, 0.5));
    let skip = run_workload(&cfg(SKIP, 1, 50, 2_000, 0.5));
    let heap = run_workload(&cfg(HEAP, 1, 50, 2_000, 0.5));
    assert!(funnel.overall.mean < skip.overall.mean);
    assert!(funnel.overall.mean < heap.overall.mean);
}

/// ...but the SkipQueue overtakes it as concurrency grows (crossover at or
/// below 16 processors in the paper).
#[test]
fn skipqueue_overtakes_funnellist() {
    let funnel = run_workload(&cfg(FUNNEL, 32, 50, 6_400, 0.5));
    let skip = run_workload(&cfg(SKIP, 32, 50, 6_400, 0.5));
    assert!(
        skip.overall.mean < funnel.overall.mean,
        "skip {} vs funnel {}",
        skip.overall.mean,
        funnel.overall.mean
    );
}

/// Paper Fig. 4: the FunnelList's latency is linear in the structure size;
/// the two logarithmic structures barely react to a 20x size increase.
#[test]
fn funnellist_collapses_on_large_structures() {
    let small = run_workload(&cfg(FUNNEL, 8, 50, 2_000, 0.5));
    let large = run_workload(&cfg(FUNNEL, 8, 1_000, 2_000, 0.5));
    assert!(
        large.overall.mean > 3.0 * small.overall.mean,
        "funnel should degrade: {} -> {}",
        small.overall.mean,
        large.overall.mean
    );

    let skip_small = run_workload(&cfg(SKIP, 8, 50, 2_000, 0.5));
    let skip_large = run_workload(&cfg(SKIP, 8, 1_000, 2_000, 0.5));
    assert!(
        skip_large.overall.mean < 1.5 * skip_small.overall.mean,
        "skiplist is logarithmic: {} -> {}",
        skip_small.overall.mean,
        skip_large.overall.mean
    );
}

/// Paper Fig. 2: latency falls as the local work between operations grows
/// (lower load, less contention).
#[test]
fn latency_falls_with_more_local_work() {
    let busy = run_workload(&WorkloadConfig {
        work_cycles: 100,
        ..cfg(SKIP, 64, 1_000, 6_400, 0.5)
    });
    let idle = run_workload(&WorkloadConfig {
        work_cycles: 6_000,
        ..cfg(SKIP, 64, 1_000, 6_400, 0.5)
    });
    assert!(
        idle.delete.mean < busy.delete.mean,
        "busy {} vs idle {}",
        busy.delete.mean,
        idle.delete.mean
    );
    assert!(idle.insert.mean < busy.insert.mean);
}

/// Paper Fig. 6–8: the relaxed SkipQueue tracks the strict one at low
/// concurrency.
#[test]
fn relaxed_matches_strict_at_low_concurrency() {
    let strict = run_workload(&cfg(SKIP, 8, 1_000, 2_000, 0.5));
    let relaxed = run_workload(&cfg(RELAXED, 8, 1_000, 2_000, 0.5));
    let ratio = relaxed.overall.mean / strict.overall.mean;
    assert!(
        (0.7..1.3).contains(&ratio),
        "low-concurrency ratio {ratio} should be ~1"
    );
}

/// Paper Fig. 7–8: at high concurrency on larger structures the relaxed
/// variant deletes faster.
#[test]
fn relaxed_deletes_faster_at_high_concurrency() {
    let strict = run_workload(&cfg(SKIP, 128, 1_000, 3_500, 0.5));
    let relaxed = run_workload(&cfg(RELAXED, 128, 1_000, 3_500, 0.5));
    assert!(
        relaxed.delete.mean < strict.delete.mean,
        "relaxed {} vs strict {}",
        relaxed.delete.mean,
        strict.delete.mean
    );
}

/// Paper Fig. 5: a deletion-heavy mix hurts the heap's deletions far more
/// than the SkipQueue's.
#[test]
fn deletion_heavy_mix_hurts_heap_more() {
    let skip = run_workload(&cfg(SKIP, 32, 2_000, 3_000, 0.3));
    let heap = run_workload(&cfg(HEAP, 32, 2_000, 3_000, 0.3));
    assert!(
        heap.delete.mean > 2.0 * skip.delete.mean,
        "heap {} vs skip {}",
        heap.delete.mean,
        skip.delete.mean
    );
}

/// The simulation is deterministic: identical configs give identical
/// results, different seeds differ.
#[test]
fn experiments_are_reproducible() {
    let a = run_workload(&cfg(SKIP, 16, 100, 1_600, 0.5));
    let b = run_workload(&cfg(SKIP, 16, 100, 1_600, 0.5));
    assert_eq!(a.final_time, b.final_time);
    assert_eq!(a.shared_ops, b.shared_ops);
    assert_eq!(a.insert.mean, b.insert.mean);

    let c = run_workload(&WorkloadConfig {
        seed: 999,
        ..cfg(SKIP, 16, 100, 1_600, 0.5)
    });
    assert_ne!(a.final_time, c.final_time);
}

/// Where the heap's cycles go: at high concurrency its operations are
/// dominated by waiting in lock queues (the size-lock convoy and the root),
/// far more than the SkipQueue's distributed locks.
#[test]
fn heap_latency_is_lock_dominated() {
    let skip = run_workload(&cfg(SKIP, 64, 200, 6_400, 0.5));
    let heap = run_workload(&cfg(HEAP, 64, 200, 6_400, 0.5));
    assert!(
        heap.total_lock_wait > 4 * skip.total_lock_wait,
        "heap wait {} vs skip wait {}",
        heap.total_lock_wait,
        skip.total_lock_wait
    );
}

/// Items are conserved through every structure's workload.
#[test]
fn conservation_holds_for_all_structures() {
    for kind in QueueKind::ALL {
        let c = cfg(kind, 8, 200, 1_600, 0.5);
        let r = run_workload(&c);
        let successful_deletes = r.delete.count - r.empty_deletes;
        assert_eq!(
            r.final_size as u64,
            200 + r.insert.count - successful_deletes,
            "conservation for {}",
            kind.label()
        );
    }
}
