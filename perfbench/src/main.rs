//! `perfbench` — the repository's benchmark of the native SkipQueue stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hold-small --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Four closed-loop workloads with two worker threads each (see
//! `README.md` beside this crate for why each exists). With `--trace 0`
//! the run reports the end-to-end metrics: it starts several fresh
//! copies of itself one after another, each building its own queue and
//! measuring a share of `--seconds`, and reports the median of their
//! figures, so one run samples several address-space layouts. With
//! `--trace 1` it measures the per-layer metrics in-process instead.
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. The run refuses to report anything, and exits with code 2,
//! when the host has fewer cores than a workload has worker threads.

mod hold;
mod inputs;
mod layers;
mod sssp;
mod stats;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use nbench::json::{self, JsonWriter};
use shardq::ShardedSkipQueue;
use skipqueue::{PriorityQueue, SkipQueue};

use hold::{HoldCfg, Ledger};
use inputs::Graph;
use stats::{median, Window};

/// Worker threads of every workload.
pub const WORKERS: usize = 2;

/// sssp graph size: vertices, and random out-edges per vertex.
pub const SSSP_VERTICES: usize = 1 << 17;
/// See [`SSSP_VERTICES`].
pub const SSSP_DEGREE: usize = 6;

/// A run gives up (and fails) after this long.
const DEADLINE: Duration = Duration::from_secs(170);

/// End-to-end metrics in report order, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 8] = [
    ("throughput_ops_s", "ops/s"),
    ("solve_s", "s"),
    ("delete_min_p50_ns", "ns"),
    ("delete_min_p99_ns", "ns"),
    ("insert_p50_ns", "ns"),
    ("insert_p99_ns", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Hold model on `SkipQueue::new()` holding 1,024 items.
    HoldSmall,
    /// Hold model on `SkipQueue::new()` holding 1,048,576 items.
    HoldLarge,
    /// hold-small's traffic on `ShardedSkipQueue::new(2)`.
    HoldSharded,
    /// Parallel label-correcting Dijkstra on `SkipQueue::new()`.
    Sssp,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::HoldSmall,
        Workload::HoldLarge,
        Workload::HoldSharded,
        Workload::Sssp,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::HoldSmall => "hold-small",
            Workload::HoldLarge => "hold-large",
            Workload::HoldSharded => "hold-sharded",
            Workload::Sssp => "sssp",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Items held by a hold workload.
    pub fn items(self) -> usize {
        match self {
            Workload::HoldLarge => 1 << 20,
            Workload::Sssp => 0,
            Workload::HoldSmall | Workload::HoldSharded => 1 << 10,
        }
    }

    /// Hold steps per worker in one job: the fixed work whose wall time
    /// is `solve_s` on a hold workload.
    pub fn job_steps(self) -> u64 {
        match self {
            Workload::HoldLarge => 20_000,
            _ => 50_000,
        }
    }

    /// Fresh measuring processes per untraced run; the run reports their
    /// median. hold-large's million-item set-up makes each one costly, and
    /// its figures are steady with fewer.
    fn processes(self) -> usize {
        match self {
            Workload::HoldLarge => 4,
            _ => 10,
        }
    }

    /// Set-ups per process; `setup_s` is their median.
    fn setup_reps(self) -> usize {
        match self {
            Workload::HoldLarge => 1,
            Workload::Sssp => 7,
            Workload::HoldSmall | Workload::HoldSharded => 15,
        }
    }
}

/// One reported value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Queue operations whose results were checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Definition-1 condition-4 hits explained by boundary stamps (traced
    /// hold-small only; not failures).
    pub overlap_returns: u64,
}

/// What one measuring process reports to the parent: the end-to-end
/// values in [`END_TO_END`] order and units, and its check counts.
#[derive(Debug, PartialEq)]
struct Sample {
    values: [f64; 8],
    attempted: u64,
    failed: u64,
}

/// Seconds travel as nanoseconds, so that nbench's six-decimal writer
/// keeps every digit of a sub-millisecond set-up time.
fn wire_scale(unit: &str) -> f64 {
    if unit == "s" {
        1e9
    } else {
        1.0
    }
}

impl Sample {
    fn new(
        throughput_ops_s: f64,
        solve_secs: &[f64],
        windows: &[Window],
        setup_secs: &[f64],
    ) -> Self {
        let [del_p50, del_p99, ins_p50, ins_p99] = Window::median(windows);
        Sample {
            values: [
                throughput_ops_s,
                median(solve_secs),
                del_p50,
                del_p99,
                ins_p50,
                ins_p99,
                median(setup_secs),
                stats::peak_rss_mb(),
            ],
            attempted: 0,
            failed: 0,
        }
    }

    fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        for ((name, unit), v) in END_TO_END.iter().zip(self.values) {
            w.field_f64(name, v * wire_scale(unit));
        }
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.end_object();
        w.finish()
    }

    fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let obj = doc.as_object().ok_or("sample is not an object")?;
        let num = |k: &str| {
            obj.get(k)
                .and_then(json::Value::as_f64)
                .ok_or(format!("sample lacks {k:?}"))
        };
        let mut values = [0.0; 8];
        for (v, (name, unit)) in values.iter_mut().zip(END_TO_END) {
            *v = num(name)? / wire_scale(unit);
        }
        Ok(Sample {
            values,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
        })
    }
}

/// One measuring process of a hold workload: `setup_reps` set-ups, then
/// hold jobs until `budget` of measured time, then drain and check.
fn measure_hold<Q: PriorityQueue<u64, u64>>(
    make: impl Fn() -> Q,
    workload: Workload,
    seed: u64,
    budget: Duration,
) -> Sample {
    let keys = inputs::prefill_keys(seed, workload.items());
    let mut setups = Vec::new();
    let mut queue = None;
    for _ in 0..workload.setup_reps() {
        drop(queue.take());
        let t = Instant::now();
        let q = make();
        hold::prefill(&q, &keys);
        setups.push(t.elapsed().as_secs_f64());
        queue = Some(q);
    }
    let q = queue.expect("at least one set-up");
    let mut ledger = Ledger::after_prefill(&keys);
    let cfg = HoldCfg {
        seed,
        threads: WORKERS,
        first_tag: 0,
        job_steps: workload.job_steps(),
        warmup_jobs: 1,
        budget,
        trace: false,
    };
    let run = hold::run(&q, &cfg, &mut ledger, || {});
    let mut sample = Sample::new(run.throughput(), &run.job_secs, &run.windows, &setups);
    sample.attempted = ledger.calls();
    sample.failed = hold::drain_and_check(&q, &ledger);
    sample
}

/// One measuring process of sssp: graph set-ups, one warm-up solve, then
/// solves until `budget` has passed, each checked against Dijkstra.
fn measure_sssp(seed: u64, budget: Duration) -> Sample {
    // The first build faults its memory in; later ones reuse it, so the
    // median is the warm build and the page-fault lottery stays out.
    let mut g = Graph::random(1, 0, seed);
    let mut setups = Vec::new();
    for _ in 0..Workload::Sssp.setup_reps() {
        let t = Instant::now();
        g.refill(SSSP_VERTICES, SSSP_DEGREE, seed);
        setups.push(t.elapsed().as_secs_f64());
    }
    let reference = inputs::dijkstra(&g, sssp::SOURCE);
    let (mut attempted, mut failed) = (0, 0);
    let mut check = |s: &sssp::Solve| {
        attempted += s.calls();
        failed += sssp::mismatches(&s.dist, &reference);
    };
    check(&sssp::solve(&g, WORKERS, false));
    let mut windows = Vec::new();
    let mut secs = Vec::new();
    let start = Instant::now();
    while secs.is_empty() || start.elapsed() < budget {
        let s = sssp::solve(&g, WORKERS, false);
        check(&s);
        windows.push(Window::of(&s.del, &s.ins));
        secs.push(s.secs);
    }
    // Useful work only: one insert and one pop per vertex, so removing
    // wasted pops can never read as lost throughput.
    let useful_ops = 2.0 * g.n() as f64;
    let mut sample = Sample::new(useful_ops / median(&secs), &secs, &windows, &setups);
    sample.attempted = attempted;
    sample.failed = failed;
    sample
}

fn measure(workload: Workload, seed: u64, budget: Duration) -> Sample {
    match workload {
        Workload::HoldSharded => {
            measure_hold(|| ShardedSkipQueue::new(WORKERS), workload, seed, budget)
        }
        Workload::HoldSmall | Workload::HoldLarge => {
            measure_hold(SkipQueue::new, workload, seed, budget)
        }
        Workload::Sssp => measure_sssp(seed, budget),
    }
}

/// Runs one measuring child process and parses its sample.
fn run_child(args: &Args, budget: Duration, deadline: Instant) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--child", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--budget-ms", &budget.as_millis().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("measuring process passed the deadline".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut text = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut text)
        .map_err(|e| format!("read: {e}"))?;
    if !status.success() {
        return Err(format!("measuring process failed: {status}"));
    }
    Sample::from_json(&text)
}

/// The untraced run: [`Workload::processes`] measuring processes, one
/// after another, medians reported.
fn untraced(args: &Args, started: Instant) -> Result<Outcome, String> {
    let processes = args.workload.processes();
    let budget = Duration::from_secs_f64(args.seconds / processes as f64);
    let samples = (0..processes)
        .map(|_| run_child(args, budget, started + DEADLINE))
        .collect::<Result<Vec<_>, _>>()?;
    let values: Vec<[f64; 8]> = samples.iter().map(|s| s.values).collect();
    Ok(Outcome {
        metrics: END_TO_END
            .iter()
            .enumerate()
            .map(|(i, &(name, unit))| Metric {
                name,
                value: median(&values.iter().map(|v| v[i]).collect::<Vec<_>>()),
                unit,
            })
            .collect(),
        attempted: samples.iter().map(|s| s.attempted).sum(),
        failed: samples.iter().map(|s| s.failed).sum(),
        overlap_returns: 0,
    })
}

/// The result line: one JSON object, every number with all its digits.
fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `Some(budget)` in a measuring child process.
    child: Option<Duration>,
}

const USAGE: &str = "usage: perfbench --workload <hold-small|hold-large|hold-sharded|sssp> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut budget_ms) =
        (None, None, None, None, None);
    let mut child = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--budget-ms" => budget_ms = Some(value.parse::<u64>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    if child {
        let ms = budget_ms.ok_or("--child needs --budget-ms")?;
        return Ok(Args {
            workload,
            seed,
            seconds: 0.0,
            trace: false,
            child: Some(Duration::from_millis(ms)),
        });
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        child: None,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if WORKERS > cores {
        eprintln!(
            "perfbench: refusing to report: {} runs {WORKERS} worker threads but \
             available_parallelism is {cores}",
            args.workload.name()
        );
        return ExitCode::from(2);
    }
    if let Some(budget) = args.child {
        print!("{}", measure(args.workload, args.seed, budget).to_json());
        return ExitCode::SUCCESS;
    }

    let out = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds)
    } else {
        match untraced(&args, started) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} workers={WORKERS} \
         available_parallelism={cores} processes={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.trace {
            1
        } else {
            args.workload.processes()
        },
    );
    for m in &out.metrics {
        println!("  {:<28} {:>18.3} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<28} {:>18.9} share ({} of {} checked operations failed)",
        "failed_ops",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if out.overlap_returns > 0 {
        println!(
            "  note: {} returns overlapped their insert's response (legal under boundary stamps)",
            out.overlap_returns
        );
    }
    println!("{}", result_line(&out));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = parse_args(&strings(&[
            "--workload",
            "sssp",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Sssp, 3, 10.0, true)
        );
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "sssp",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "sssp",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "sssp", "--seed", "3", "--seconds", "1"],
            &[
                "--workload",
                "sssp",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--x",
                "1",
            ],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn samples_round_trip_through_nbench_json() {
        let s = Sample {
            values: [
                1_234_567.891,
                0.098_765_432_1,
                301.25,
                2_048.5,
                402.75,
                3_001.125,
                0.000_312_456_5,
                12.5,
            ],
            attempted: 42,
            failed: 1,
        };
        assert_eq!(Sample::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn failed_operations_show_in_the_result_line() {
        let out = Outcome {
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.000_312_456_7,
                unit: "s",
            }],
            attempted: 10,
            failed: 1,
            overlap_returns: 0,
        };
        let line = result_line(&out);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
        assert!(line.contains("0.0003124567"), "{line}");
        json::parse(&line).expect("result line is JSON");
    }

    fn names(doc: &json::Value, key: &str) -> Vec<(String, Option<String>)> {
        doc.as_object().unwrap()[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let m = m.as_object().unwrap();
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).map(str::to_string);
                (s("name").unwrap(), s("unit"))
            })
            .collect()
    }

    /// The metric names this program prints are the ones the benchmark
    /// definition declares, and a traced run reports every one of them.
    #[test]
    fn benchmark_definition_matches_the_report() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).unwrap();
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|n| n.0).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);

        let per_layer = names(&doc, "per_layer");
        for w in [Workload::HoldSmall, Workload::HoldSharded] {
            let out = layers::traced(w, 3, 0.2);
            assert_eq!(out.failed, 0, "{}", w.name());
            let got: Vec<_> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), Some(m.unit.to_string())))
                .collect();
            assert_eq!(got, per_layer, "{}", w.name());
        }
    }
}
