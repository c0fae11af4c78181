//! Command-line schedule explorer.
//!
//! Sweep mode (the default) runs `--schedules` seeded schedules per
//! (queue, workload) pair, auditing every history; contract violations
//! print their seed and fail the run. Replay mode (`--replay SEED`)
//! reruns one seed's exact schedule and prints its audit in detail.
//!
//! ```text
//! schedtest [--schedules N] [--base-seed S]
//!           [--queues LIST]        # roster printed by --help, from QueueUnderTest::ALL
//!           [--workloads mixed,fill-drain]
//!           [--expect-evidence]
//! schedtest --replay SEED --queue strict --workload mixed
//! ```
//!
//! `--expect-evidence` additionally fails the sweep if the relaxed
//! SkipQueue produced no observable Definition-1 departure — the harness's
//! self-check that adversarial scheduling actually perturbs runs.

use std::process::ExitCode;

use schedtest::{exploration_config, roster, run_schedule, QueueUnderTest, Workload};

struct Args {
    schedules: u64,
    base_seed: u64,
    queues: Vec<QueueUnderTest>,
    workloads: Vec<Workload>,
    expect_evidence: bool,
    replay: Option<u64>,
    replay_queue: QueueUnderTest,
    replay_workload: Workload,
}

fn usage() -> ! {
    // The queue roster is derived from `QueueUnderTest::ALL` so this text
    // can never drift from the variants the harness actually runs.
    eprintln!(
        "usage: schedtest [--schedules N] [--base-seed S] [--queues LIST] \
         [--workloads LIST] [--expect-evidence]\n\
         \x20      schedtest --replay SEED --queue NAME --workload NAME\n\
         queues: {}\n\
         workloads: {}",
        roster(),
        Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        schedules: 200,
        base_seed: 0,
        queues: QueueUnderTest::ALL.to_vec(),
        workloads: Workload::ALL.to_vec(),
        expect_evidence: false,
        replay: None,
        replay_queue: QueueUnderTest::SkipQueueStrict,
        replay_workload: Workload::Mixed,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--schedules" => {
                args.schedules = value("--schedules").parse().unwrap_or_else(|_| usage())
            }
            "--base-seed" => {
                args.base_seed = value("--base-seed").parse().unwrap_or_else(|_| usage())
            }
            "--queues" => {
                args.queues = value("--queues")
                    .split(',')
                    .map(|s| QueueUnderTest::parse(s).unwrap_or_else(|| usage()))
                    .collect()
            }
            "--workloads" => {
                args.workloads = value("--workloads")
                    .split(',')
                    .map(|s| Workload::parse(s).unwrap_or_else(|| usage()))
                    .collect()
            }
            "--expect-evidence" => args.expect_evidence = true,
            "--replay" => args.replay = Some(value("--replay").parse().unwrap_or_else(|_| usage())),
            "--queue" => {
                args.replay_queue =
                    QueueUnderTest::parse(&value("--queue")).unwrap_or_else(|| usage())
            }
            "--workload" => {
                args.replay_workload =
                    Workload::parse(&value("--workload")).unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn replay(seed: u64, queue: QueueUnderTest, workload: Workload) -> ExitCode {
    // Evidence lists can run long and get piped through `head`; ignore
    // write errors (broken pipe) instead of panicking mid-report.
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out_w = stdout.lock();
    let cfg = exploration_config(queue, workload, seed);
    let _ = writeln!(
        out_w,
        "replay seed={seed} queue={} workload={} sched={:?} faults={:?}",
        queue.name(),
        workload.name(),
        cfg.sched,
        cfg.faults
    );
    let out = run_schedule(&cfg);
    let _ = writeln!(
        out_w,
        "  ops recorded: {}   final_time: {} cycles",
        out.history.len(),
        out.report.final_time
    );
    for v in &out.relaxation_evidence {
        let _ = writeln!(out_w, "  relaxation evidence: {v:?}");
    }
    if out.rank_error.samples > 0 {
        let r = &out.rank_error;
        let _ = writeln!(
            out_w,
            "  rank error: samples={} nonzero={} mean={:.3} p99={} max={}",
            r.samples, r.nonzero, r.mean, r.p99, r.max
        );
    }
    if out.violations.is_empty() {
        let _ = writeln!(out_w, "  audit: CLEAN");
        ExitCode::SUCCESS
    } else {
        for v in &out.violations {
            let _ = writeln!(out_w, "  VIOLATION: {v:?}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(seed) = args.replay {
        return replay(seed, args.replay_queue, args.replay_workload);
    }

    let mut failed = false;
    let mut relaxed_evidence_total = 0usize;
    for queue in &args.queues {
        for workload in &args.workloads {
            let mut violations = 0usize;
            let mut evidence = 0usize;
            let mut evidence_seed = None;
            let mut rank_samples = 0u64;
            let mut rank_nonzero = 0u64;
            let mut rank_max = 0u64;
            let mut rank_sum = 0.0f64;
            for seed in args.base_seed..args.base_seed + args.schedules {
                let cfg = exploration_config(*queue, *workload, seed);
                let out = run_schedule(&cfg);
                rank_samples += out.rank_error.samples;
                rank_nonzero += out.rank_error.nonzero;
                rank_max = rank_max.max(out.rank_error.max);
                rank_sum += out.rank_error.mean * out.rank_error.samples as f64;
                if !out.violations.is_empty() {
                    violations += out.violations.len();
                    failed = true;
                    println!(
                        "FAIL queue={} workload={} seed={seed}: {} violation(s); replay with \
                         `schedtest --replay {seed} --queue {} --workload {}`",
                        queue.name(),
                        workload.name(),
                        out.violations.len(),
                        queue.name(),
                        workload.name(),
                    );
                    for v in out.violations.iter().take(3) {
                        println!("  {v:?}");
                    }
                }
                if !out.relaxation_evidence.is_empty() {
                    evidence += out.relaxation_evidence.len();
                    evidence_seed.get_or_insert(seed);
                }
            }
            let mut line = format!(
                "queue={:<8} workload={:<10} schedules={} violations={violations}",
                queue.name(),
                workload.name(),
                args.schedules,
            );
            if *queue == QueueUnderTest::SkipQueueRelaxed {
                line.push_str(&format!(" relaxation-evidence={evidence}"));
                if let Some(s) = evidence_seed {
                    line.push_str(&format!(" (first at seed {s})"));
                }
                relaxed_evidence_total += evidence;
            }
            if matches!(queue, QueueUnderTest::Sharded) && rank_samples > 0 {
                // The sharded variant's relaxation is a magnitude, not an
                // event count: report the aggregate rank error.
                line.push_str(&format!(
                    " rank-error: nonzero={rank_nonzero}/{rank_samples} mean={:.3} max={rank_max}",
                    rank_sum / rank_samples as f64
                ));
            }
            println!("{line}");
        }
    }

    if args.expect_evidence
        && args.queues.contains(&QueueUnderTest::SkipQueueRelaxed)
        && relaxed_evidence_total == 0
    {
        println!(
            "FAIL: relaxed SkipQueue produced no Definition-1 departure — \
             adversarial scheduling is not perturbing runs"
        );
        failed = true;
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!("all schedules clean");
        ExitCode::SUCCESS
    }
}
