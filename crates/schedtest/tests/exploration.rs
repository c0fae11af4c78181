//! Self-validation of the schedule-exploration harness:
//!
//! * determinism — one config, one schedule: byte-identical reports and
//!   histories, under every scheduler;
//! * the strict SkipQueue passes the Definition-1 anti-loss audit
//!   (`check_strict`) on every explored schedule (small in-test budget;
//!   the CI sweep runs more);
//! * the relaxed SkipQueue's Definition-1 departures are *detected* and
//!   reproducible from their seed;
//! * heap, funnel-list and funnel-fronted SkipQueue audits stay clean
//!   under perturbation.

use pqsim::{FaultSpec, SchedSpec, StallSpec};
use schedtest::{exploration_config, run_schedule, ScheduleConfig, Workload};
use simpq::QueueKind;

const STRICT: QueueKind = QueueKind::SkipQueue { strict: true };
const RELAXED: QueueKind = QueueKind::SkipQueue { strict: false };

#[test]
fn same_config_is_byte_identical_under_every_scheduler() {
    let scheds = [
        SchedSpec::ClockOrder,
        SchedSpec::RandomPerturb { max_delay: 900 },
        SchedSpec::Pct {
            depth: 3,
            expected_ops: 8_000,
            unit: 300,
        },
    ];
    for sched in scheds {
        let mut cfg = ScheduleConfig::new(STRICT, Workload::Mixed, 42);
        cfg.sched = sched.clone();
        let a = run_schedule(&cfg);
        let b = run_schedule(&cfg);
        assert_eq!(a.report, b.report, "SimReport must replay under {sched:?}");
        assert_eq!(
            a.history.ops(),
            b.history.ops(),
            "history must replay under {sched:?}"
        );
        assert_eq!(a.violations, b.violations);
    }
}

#[test]
fn different_schedulers_produce_different_schedules() {
    let mut clock = ScheduleConfig::new(STRICT, Workload::Mixed, 42);
    clock.sched = SchedSpec::ClockOrder;
    let mut perturbed = clock.clone();
    perturbed.sched = SchedSpec::RandomPerturb { max_delay: 900 };
    let a = run_schedule(&clock);
    let b = run_schedule(&perturbed);
    // The perturbed run charges injected delay, so it ends later; if this
    // ever fails the scheduler hooks have stopped reaching the executor.
    assert_ne!(
        a.report.final_time, b.report.final_time,
        "perturbation must change the schedule"
    );
}

#[test]
fn strict_skipqueue_clean_on_every_explored_schedule() {
    for workload in Workload::ALL {
        for seed in 0..36 {
            let cfg = exploration_config(STRICT, workload, seed);
            let out = run_schedule(&cfg);
            assert!(
                out.violations.is_empty(),
                "strict SkipQueue violated Definition 1: workload={} seed={seed} {:?}",
                workload.name(),
                out.violations
            );
        }
    }
}

#[test]
fn relaxed_skipqueue_yields_reproducible_definition1_departure() {
    // Adversarial scheduling must make the §5.4 relaxation observable
    // within a modest seed budget, and the finding must replay exactly.
    let mut found = None;
    for seed in 0..120 {
        let cfg = exploration_config(RELAXED, Workload::Mixed, seed);
        let out = run_schedule(&cfg);
        assert!(
            out.violations.is_empty(),
            "relaxed queue broke integrity at seed {seed}: {:?}",
            out.violations
        );
        if !out.relaxation_evidence.is_empty() {
            found = Some((seed, out.relaxation_evidence));
            break;
        }
    }
    let (seed, evidence) = found.expect("no Definition-1 departure detected in 120 schedules");
    let replay = run_schedule(&exploration_config(RELAXED, Workload::Mixed, seed));
    assert_eq!(
        replay.relaxation_evidence, evidence,
        "seed {seed} must replay its evidence exactly"
    );
}

#[test]
fn heap_and_funnel_audits_clean_under_perturbation() {
    for queue in [
        QueueKind::HuntHeap,
        QueueKind::FunnelList,
        QueueKind::FunnelSkipQueue,
    ] {
        for seed in 0..12 {
            let cfg = exploration_config(queue, Workload::Mixed, seed);
            let out = run_schedule(&cfg);
            assert!(
                out.violations.is_empty(),
                "{} violated its contract at seed {seed}: {:?}",
                queue.name(),
                out.violations
            );
        }
    }
}

#[test]
fn stalled_processor_fault_does_not_break_strict_queue() {
    // A stalled processor pins the §3 GC horizon but must not affect
    // correctness; the audit stays clean and the run still terminates.
    let mut cfg = ScheduleConfig::new(STRICT, Workload::Mixed, 9);
    cfg.sched = SchedSpec::RandomPerturb { max_delay: 500 };
    cfg.faults = FaultSpec {
        preempt_prob: 0.05,
        preempt_window: 600,
        lock_delay_max: 300,
        stall: Some(StallSpec {
            victim: 3,
            at_op: 2_000,
            cycles: 200_000,
        }),
    };
    let out = run_schedule(&cfg);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    // The stall is real: the run lasts at least as long as the stall.
    assert!(out.report.final_time >= 200_000);
}
