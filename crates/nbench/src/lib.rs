//! Native benchmark harness for the concurrent [`SkipQueue`].
//!
//! Unlike `pq-bench` (which drives the *simulated* machine to reproduce the
//! paper's figures), this crate measures the real implementation with real
//! `std::thread`s on the host: throughput and `delete_min` latency
//! percentiles across four workloads and a sweep of thread counts, for the
//! paper's single queue (`baseline`).
//!
//! Since the sharded front-end landed ([`shardq`]), the harness also
//! measures [`ShardedSkipQueue`] (`sharded` mode, `--shards`/`--sample`)
//! and scores its relaxation: each sharded run is followed by a smaller
//! *recorded* pass whose history is fed to [`histcheck`]'s rank-error
//! auditor, so the JSON reports how far each returned key was from the
//! live minimum right next to the throughput the relaxation bought. The
//! rank pass is separate on purpose — threading a shared ticket clock
//! through the measured region would serialize the very contention the
//! benchmark exists to measure.
//!
//! Results are written as a single self-describing JSON document
//! (`BENCH_native.json` at the repo root by convention). The `--check` mode
//! re-parses a results file with the in-crate JSON reader so CI can verify
//! the artifact without external dependencies, and `--check NEW --against
//! OLD` pairs runs between two documents — refusing outright when their
//! recorded configs (ops per thread, prefill) differ, so a
//! perf comparison can never silently span mismatched experiments.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod hist;
pub mod json;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use histcheck::{History, RankSummary, Recorder, TicketClock};
use shardq::{InsertPolicy, ShardedSkipQueue};
use skipqueue::SkipQueue;

use hist::LatencyHist;

/// Schema identifier stamped into every results document. `v2` added the
/// embedded run config (threads, workload, batch, shards, sample width),
/// the `sharded` mode with rank-error summaries, and document comparison;
/// `v3` dropped the `batched` mode and its batch-threshold config field.
pub const SCHEMA: &str = "nbench-v3";

/// The four workload shapes the harness runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 50% insert / 50% delete_min.
    Mixed,
    /// 80% insert / 20% delete_min.
    InsertHeavy,
    /// 20% insert / 80% delete_min (dominated by the claim walk).
    DeleteHeavy,
    /// The classic *hold* model: every step inserts a random key and then
    /// removes the minimum, holding queue size constant.
    Hold,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Mixed,
        Workload::InsertHeavy,
        Workload::DeleteHeavy,
        Workload::Hold,
    ];

    /// Stable name used in JSON output and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed => "mixed",
            Workload::InsertHeavy => "insert-heavy",
            Workload::DeleteHeavy => "delete-heavy",
            Workload::Hold => "hold",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Out of 10 steps, how many are inserts (`Hold` is handled specially).
    fn insert_per_10(self) -> u64 {
        match self {
            Workload::Mixed => 5,
            Workload::InsertHeavy => 8,
            Workload::DeleteHeavy => 2,
            Workload::Hold => 5, // unused
        }
    }
}

/// Which queue construction a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Single `SkipQueue`, the paper's queue.
    Baseline,
    /// [`ShardedSkipQueue`]: `shards` SkipQueues behind
    /// sample-`sample`-of-`shards` delete-min and the elimination array.
    Sharded {
        /// Shard count (`k`).
        shards: usize,
        /// Sampling width (`c`).
        sample: usize,
    },
}

impl RunMode {
    /// Stable mode name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            RunMode::Baseline => "baseline",
            RunMode::Sharded { .. } => "sharded",
        }
    }

    /// `(shards, sample)` — zeros for the single-queue modes, so the pair
    /// can serve as part of a run identity key.
    pub fn shape(self) -> (usize, usize) {
        match self {
            RunMode::Sharded { shards, sample } => (shards, sample),
            _ => (0, 0),
        }
    }

    /// Human-readable label: `"sharded k4c2"` for sharded runs, the bare
    /// mode name otherwise.
    pub fn name_with_shape(self) -> String {
        match self {
            RunMode::Sharded { shards, sample } => format!("sharded k{shards}c{sample}"),
            _ => self.name().to_string(),
        }
    }
}

/// One benchmark configuration and its measurements.
#[derive(Debug)]
pub struct RunResult {
    /// Workload shape.
    pub workload: Workload,
    /// Number of real threads driving the queue.
    pub threads: usize,
    /// Queue construction measured.
    pub mode: RunMode,
    /// Rank-error summary from the recorded audit pass — `Some` for
    /// sharded runs, `None` for the single-queue modes (whose strict
    /// Definition-1 contract is audited by the sim/schedtest layers;
    /// rank error is the *sharding* relaxation's metric).
    pub rank_error: Option<RankSummary>,
    /// Wall-clock duration of the measured region, seconds.
    pub elapsed_s: f64,
    /// Total operations completed (inserts + delete_min calls).
    pub total_ops: u64,
    /// Number of `delete_min` calls (successful or empty).
    pub delete_ops: u64,
    /// Number of `delete_min` calls that returned an item.
    pub delete_hits: u64,
    /// `delete_min` latency distribution, nanoseconds.
    pub delete_latency: LatencyHist,
}

impl RunResult {
    /// Operations per second over the measured region.
    pub fn throughput(&self) -> f64 {
        self.total_ops as f64 / self.elapsed_s
    }

    /// `delete_min` calls per second over the measured region.
    pub fn delete_throughput(&self) -> f64 {
        self.delete_ops as f64 / self.elapsed_s
    }
}

/// Harness-wide knobs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Operations per thread in the measured region.
    pub ops_per_thread: u64,
    /// Items inserted before the clock starts.
    pub prefill: u64,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Workloads to run.
    pub workloads: Vec<Workload>,
    /// Run only the single queue (no sharded runs).
    pub baseline_only: bool,
    /// Shard counts to sweep in `sharded` mode (empty = no sharded runs).
    pub shards: Vec<usize>,
    /// Sampling widths (`c`) to sweep per shard count; widths larger than
    /// the shard count are skipped (they'd duplicate the clamped run).
    pub samples: Vec<usize>,
}

impl Config {
    /// Default sweep: powers of two from 1 to `max(8, 2 × cores)`.
    pub fn default_threads() -> Vec<usize> {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let top = (2 * cores).max(8);
        let mut v = Vec::new();
        let mut t = 1;
        while t <= top {
            v.push(t);
            t *= 2;
        }
        if *v.last().unwrap() != top {
            v.push(top);
        }
        v
    }
}

impl Default for Config {
    fn default() -> Self {
        Self {
            ops_per_thread: 50_000,
            prefill: 10_000,
            threads: Self::default_threads(),
            workloads: Workload::ALL.to_vec(),
            baseline_only: false,
            shards: Vec::new(),
            samples: vec![shardq::DEFAULT_SAMPLE],
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The queue under measurement — static enum dispatch so one driver loop
/// serves both constructions (the match is a predicted branch, far below
/// the noise floor of a skiplist walk). One instance exists per run,
/// behind an `Arc`, so the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
enum BenchQueue {
    Single(SkipQueue<u64, u64>),
    Sharded(ShardedSkipQueue<u64, u64>),
}

impl BenchQueue {
    fn build(mode: RunMode) -> Self {
        match mode {
            RunMode::Baseline => BenchQueue::Single(SkipQueue::new()),
            RunMode::Sharded { shards, sample } => BenchQueue::Sharded(
                ShardedSkipQueue::with_params(shards, sample, InsertPolicy::RoundRobin, true),
            ),
        }
    }

    #[inline]
    fn insert(&self, key: u64, value: u64) {
        match self {
            BenchQueue::Single(q) => q.insert(key, value),
            BenchQueue::Sharded(q) => q.insert(key, value),
        }
    }

    #[inline]
    fn delete_min(&self) -> Option<(u64, u64)> {
        match self {
            BenchQueue::Single(q) => q.delete_min(),
            BenchQueue::Sharded(q) => q.delete_min(),
        }
    }
}

/// Runs one `(workload, threads, mode)` cell and returns its measurements.
/// Sharded cells do *not* carry a rank summary yet — [`run_all`] attaches
/// one from the separate recorded pass ([`measure_rank_error`]).
pub fn run_one(cfg: &Config, workload: Workload, threads: usize, mode: RunMode) -> RunResult {
    let queue: Arc<BenchQueue> = Arc::new(BenchQueue::build(mode));
    // Prefill outside the measured region; spread keys so the measured
    // inserts land on both sides of the existing population. A draining
    // workload (more deletes than inserts) gets its expected net drain added
    // so the queue stays populated for the whole measured region — otherwise
    // the run degenerates into benchmarking the EMPTY path.
    let total_ops = cfg.ops_per_thread * threads as u64;
    let net_drain = match workload {
        Workload::Hold => 0,
        w => {
            let ins = w.insert_per_10();
            (10 - ins).saturating_sub(ins) * total_ops / 10
        }
    };
    let prefill = cfg.prefill + net_drain + net_drain / 10;
    let mut seed = 0xBEEF_CAFE_1234_5678u64;
    for i in 0..prefill {
        queue.insert(xorshift(&mut seed) >> 16, i);
    }

    let barrier = Arc::new(Barrier::new(threads + 1));
    let deletes = Arc::new(AtomicU64::new(0));
    let hits = Arc::new(AtomicU64::new(0));
    let ops = cfg.ops_per_thread;

    let handles: Vec<std::thread::JoinHandle<LatencyHist>> = (0..threads)
        .map(|t| {
            let queue = Arc::clone(&queue);
            let barrier = Arc::clone(&barrier);
            let deletes = Arc::clone(&deletes);
            let hits = Arc::clone(&hits);
            std::thread::spawn(move || {
                let mut hist = LatencyHist::new();
                let mut state = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut my_deletes = 0u64;
                let mut my_hits = 0u64;
                barrier.wait();
                let mut i = 0u64;
                while i < ops {
                    let step = xorshift(&mut state);
                    let do_insert = match workload {
                        // Hold alternates strictly: insert, then delete.
                        Workload::Hold => i.is_multiple_of(2),
                        w => step % 10 < w.insert_per_10(),
                    };
                    if do_insert {
                        queue.insert(step >> 16, t as u64);
                    } else {
                        let start = Instant::now();
                        let got = queue.delete_min();
                        hist.record(start.elapsed().as_nanos() as u64);
                        my_deletes += 1;
                        if got.is_some() {
                            my_hits += 1;
                        }
                    }
                    i += 1;
                }
                deletes.fetch_add(my_deletes, Ordering::Relaxed);
                hits.fetch_add(my_hits, Ordering::Relaxed);
                hist
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    let mut merged = LatencyHist::new();
    for h in handles {
        merged.merge(&h.join().expect("bench thread panicked"));
    }
    let elapsed = start.elapsed().as_secs_f64();

    RunResult {
        workload,
        threads,
        mode,
        rank_error: None,
        elapsed_s: elapsed,
        total_ops: ops * threads as u64,
        delete_ops: deletes.load(Ordering::Relaxed),
        delete_hits: hits.load(Ordering::Relaxed),
        delete_latency: merged,
    }
}

/// Operation budget for the recorded rank pass: enough claims for stable
/// percentiles, small enough that the recorded history stays cheap.
const RANK_PASS_OPS_CAP: u64 = 20_000;

/// Encodes a unique history value whose `u64` ordering matches the
/// priority ordering: 24 priority bits, tie-broken by `(thread, seq)` so
/// no two inserts ever collide (the rank auditor requires unique values).
fn rank_value(priority: u64, thread: u64, seq: u64) -> u64 {
    debug_assert!(thread < 256 && seq < (1 << 24));
    ((priority & 0xFF_FFFF) << 32) | (thread << 24) | seq
}

/// The separate recorded pass behind every sharded run's rank summary:
/// the same workload shape at the same thread count, but each operation
/// is wrapped in a [`histcheck::Recorder`] stamping against one shared
/// [`TicketClock`], values are unique and order like priorities (the
/// queue is keyed by the encoded value itself), and the merged history is
/// scored with [`histcheck::History::rank_errors`]. Runs a capped
/// operation count — it measures relaxation *quality*, not speed, and is
/// deliberately kept out of the throughput-measured region (a shared
/// `fetch_add` per operation would flatten the contention being bought).
pub fn measure_rank_error(
    cfg: &Config,
    workload: Workload,
    threads: usize,
    mode: RunMode,
) -> RankSummary {
    let queue: Arc<BenchQueue> = Arc::new(BenchQueue::build(mode));
    let clock = Arc::new(TicketClock::new());
    let ops = cfg.ops_per_thread.min(RANK_PASS_OPS_CAP);
    let total_ops = ops * threads as u64;
    let net_drain = match workload {
        Workload::Hold => 0,
        w => {
            let ins = w.insert_per_10();
            (10 - ins).saturating_sub(ins) * total_ops / 10
        }
    };
    let prefill = (cfg.prefill.min(RANK_PASS_OPS_CAP) + net_drain + net_drain / 10).min(1 << 23);

    // Prefill is part of the recorded history too: early deletes return
    // prefill values, and leaving those inserts unrecorded would hide
    // live smaller keys from the auditor.
    let mut history = History::new();
    {
        let mut rec = Recorder::new(&clock);
        let mut seed = 0xBEEF_CAFE_1234_5678u64;
        for i in 0..prefill {
            let v = rank_value(xorshift(&mut seed) >> 40, 255, i);
            rec.insert(v, || queue.insert(v, v));
        }
        for op in rec.finish().ops() {
            history.push(op.clone());
        }
    }

    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<std::thread::JoinHandle<History>> = (0..threads)
        .map(|t| {
            let queue = Arc::clone(&queue);
            let clock = Arc::clone(&clock);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rec = Recorder::new(&clock);
                let mut state = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                barrier.wait();
                let mut seq = 0u64;
                for i in 0..ops {
                    let step = xorshift(&mut state);
                    let do_insert = match workload {
                        Workload::Hold => i.is_multiple_of(2),
                        w => step % 10 < w.insert_per_10(),
                    };
                    if do_insert {
                        let v = rank_value(step >> 40, t as u64, seq);
                        seq += 1;
                        rec.insert(v, || queue.insert(v, v));
                    } else {
                        rec.delete_min(|| queue.delete_min().map(|(_, v)| v));
                    }
                }
                rec.finish()
            })
        })
        .collect();
    for h in handles {
        for op in h.join().expect("rank pass thread panicked").ops() {
            history.push(op.clone());
        }
    }
    history.rank_summary()
}

/// Runs the full sweep described by `cfg`: baseline, then (unless
/// `baseline_only`) one sharded cell per
/// `cfg.shards × cfg.samples` pair (sample widths above the shard count
/// are skipped — they'd be clamped into duplicates) — each sharded cell
/// followed by its recorded rank pass.
pub fn run_all(cfg: &Config, mut progress: impl FnMut(&RunResult)) -> Vec<RunResult> {
    let mut out = Vec::new();
    let mut modes: Vec<RunMode> = vec![RunMode::Baseline];
    if !cfg.baseline_only {
        for &shards in &cfg.shards {
            for &sample in &cfg.samples {
                if sample <= shards {
                    modes.push(RunMode::Sharded { shards, sample });
                }
            }
        }
    }
    for &workload in &cfg.workloads {
        for &threads in &cfg.threads {
            for &mode in &modes {
                let mut r = run_one(cfg, workload, threads, mode);
                if matches!(mode, RunMode::Sharded { .. }) {
                    r.rank_error = Some(measure_rank_error(cfg, workload, threads, mode));
                }
                progress(&r);
                out.push(r);
            }
        }
    }
    out
}

/// Renders the full results document (schema [`SCHEMA`]). Every run
/// embeds its own identity (workload, threads, mode, shards, sample) and
/// the document embeds the sweep config, so two documents can be compared
/// run-by-run — or refused — without relying on convention.
pub fn render_report(cfg: &Config, results: &[RunResult]) -> String {
    use json::JsonWriter;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SCHEMA);
    w.key("host");
    w.begin_object();
    w.field_u64("cores", cores as u64);
    w.end_object();
    w.key("config");
    w.begin_object();
    w.field_u64("ops_per_thread", cfg.ops_per_thread);
    w.field_u64("prefill", cfg.prefill);
    w.key("threads");
    w.begin_array();
    for &t in &cfg.threads {
        w.item_u64(t as u64);
    }
    w.end_array();
    w.key("workloads");
    w.begin_array();
    for &wl in &cfg.workloads {
        w.item_str(wl.name());
    }
    w.end_array();
    w.key("shards");
    w.begin_array();
    for &s in &cfg.shards {
        w.item_u64(s as u64);
    }
    w.end_array();
    w.key("samples");
    w.begin_array();
    for &c in &cfg.samples {
        w.item_u64(c as u64);
    }
    w.end_array();
    w.end_object();
    w.key("runs");
    w.begin_array();
    for r in results {
        let (shards, sample) = r.mode.shape();
        w.begin_object();
        w.field_str("workload", r.workload.name());
        w.field_u64("threads", r.threads as u64);
        w.field_str("mode", r.mode.name());
        if let RunMode::Sharded { .. } = r.mode {
            w.field_u64("shards", shards as u64);
            w.field_u64("sample", sample as u64);
        }
        w.field_f64("elapsed_s", r.elapsed_s);
        w.field_u64("total_ops", r.total_ops);
        w.field_f64("throughput_ops_per_s", r.throughput());
        w.field_u64("delete_min_ops", r.delete_ops);
        w.field_u64("delete_min_hits", r.delete_hits);
        w.field_f64("delete_min_ops_per_s", r.delete_throughput());
        w.key("delete_latency_ns");
        w.begin_object();
        w.field_u64("p50", r.delete_latency.percentile(50.0));
        w.field_u64("p90", r.delete_latency.percentile(90.0));
        w.field_u64("p99", r.delete_latency.percentile(99.0));
        w.field_u64("max", r.delete_latency.max());
        w.field_u64("count", r.delete_latency.count());
        w.end_object();
        if let Some(rank) = &r.rank_error {
            w.key("rank_error");
            w.begin_object();
            w.field_u64("samples", rank.samples);
            w.field_f64("mean", rank.mean);
            w.field_u64("p50", rank.p50);
            w.field_u64("p99", rank.p99);
            w.field_u64("max", rank.max);
            w.field_u64("nonzero", rank.nonzero);
            w.end_object();
        }
        w.end_object();
    }
    w.end_array();
    w.key("summary");
    w.begin_object();
    w.key("delete_min_speedup_sharded_vs_baseline");
    w.begin_array();
    for r in results
        .iter()
        .filter(|r| matches!(r.mode, RunMode::Sharded { .. }))
    {
        if let Some(base) = results.iter().find(|b| {
            b.workload == r.workload && b.threads == r.threads && b.mode == RunMode::Baseline
        }) {
            let (shards, sample) = r.mode.shape();
            w.begin_object();
            w.field_str("workload", r.workload.name());
            w.field_u64("threads", r.threads as u64);
            w.field_u64("shards", shards as u64);
            w.field_u64("sample", sample as u64);
            w.field_f64("speedup", r.delete_throughput() / base.delete_throughput());
            if let Some(rank) = &r.rank_error {
                w.field_f64("mean_rank_error", rank.mean);
            }
            w.end_object();
        }
    }
    w.end_array();
    w.end_object();
    w.end_object();
    w.finish()
}

/// Validates a results document produced by [`render_report`]: parses it
/// with the in-crate JSON reader and checks the schema, the embedded
/// config block, and per-run field sanity. Returns the number of runs on
/// success.
pub fn check_report(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let obj = doc.as_object().ok_or("top level must be an object")?;
    let schema = obj
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or("missing schema")?;
    if schema != SCHEMA {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let config = obj
        .get("config")
        .and_then(|v| v.as_object())
        .ok_or("missing config block")?;
    for key in ["ops_per_thread", "prefill"] {
        if config.get(key).and_then(|v| v.as_f64()).is_none() {
            return Err(format!("config missing field {key:?}"));
        }
    }
    let runs = obj
        .get("runs")
        .and_then(|v| v.as_array())
        .ok_or("missing runs array")?;
    if runs.is_empty() {
        return Err("runs array is empty".into());
    }
    for (i, run) in runs.iter().enumerate() {
        let run = run.as_object().ok_or(format!("run {i} not an object"))?;
        for key in [
            "workload",
            "threads",
            "mode",
            "elapsed_s",
            "total_ops",
            "throughput_ops_per_s",
            "delete_min_ops",
            "delete_latency_ns",
        ] {
            if !run.contains_key(key) {
                return Err(format!("run {i} missing field {key:?}"));
            }
        }
        let mode = run.get("mode").and_then(|v| v.as_str()).unwrap_or("");
        if mode != "baseline" && mode != "sharded" {
            return Err(format!("run {i} has unknown mode {mode:?}"));
        }
        if mode == "sharded" {
            let shards = run.get("shards").and_then(|v| v.as_f64()).unwrap_or(-1.0);
            let sample = run.get("sample").and_then(|v| v.as_f64()).unwrap_or(-1.0);
            if shards < 1.0 || sample < 1.0 {
                return Err(format!("sharded run {i} missing shards/sample"));
            }
            let rank = run
                .get("rank_error")
                .and_then(|v| v.as_object())
                .ok_or(format!("sharded run {i} missing rank_error block"))?;
            let mean = rank.get("mean").and_then(|v| v.as_f64()).unwrap_or(-1.0);
            if mean < 0.0 {
                return Err(format!("sharded run {i} has implausible mean rank error"));
            }
        }
        let tp = run
            .get("throughput_ops_per_s")
            .and_then(|v| v.as_f64())
            .unwrap_or(-1.0);
        if tp.is_nan() || tp <= 0.0 {
            return Err(format!("run {i} has non-positive throughput"));
        }
        let lat = run
            .get("delete_latency_ns")
            .and_then(|v| v.as_object())
            .ok_or(format!("run {i} latency block not an object"))?;
        let p50 = lat.get("p50").and_then(|v| v.as_f64()).unwrap_or(-1.0);
        let p99 = lat.get("p99").and_then(|v| v.as_f64()).unwrap_or(-1.0);
        if p50 < 0.0 || p99 < 0.0 || p99 + 1.0 < p50 {
            return Err(format!("run {i} has implausible latency percentiles"));
        }
    }
    Ok(runs.len())
}

/// Identity key of one run inside a document: `(workload, threads, mode,
/// shards, sample)`.
type RunKey = (String, u64, String, u64, u64);

fn run_key(run: &std::collections::BTreeMap<String, json::Value>) -> RunKey {
    let s = |k: &str| {
        run.get(k)
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    let n = |k: &str| run.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
    (
        s("workload"),
        n("threads"),
        s("mode"),
        n("shards"),
        n("sample"),
    )
}

/// Compares two results documents run-by-run.
///
/// Both must validate under [`check_report`], and their embedded configs
/// (ops per thread, prefill) must match **exactly** — a
/// mismatch is a hard error, because a throughput ratio between different
/// experiments is noise wearing a number's clothes. Runs are paired on
/// `(workload, threads, mode, shards, sample)`; runs present in only one
/// document are reported but don't fail the comparison. With
/// `min_ratio = Some(r)`, any paired run whose new `delete_min` throughput
/// falls below `r ×` the old one fails the comparison (the CI perf-smoke
/// knob; keep `r` loose — baselines committed from one machine are only a
/// catastrophic-regression tripwire on another).
///
/// Returns a human-readable comparison table on success.
pub fn compare_reports(
    new_text: &str,
    old_text: &str,
    min_ratio: Option<f64>,
) -> Result<String, String> {
    check_report(new_text).map_err(|e| format!("new document invalid: {e}"))?;
    check_report(old_text).map_err(|e| format!("old document invalid: {e}"))?;
    let new_doc = json::parse(new_text)?;
    let old_doc = json::parse(old_text)?;
    let new_obj = new_doc.as_object().unwrap();
    let old_obj = old_doc.as_object().unwrap();

    let cfg_of = |o: &std::collections::BTreeMap<String, json::Value>| {
        let c = o.get("config").and_then(|v| v.as_object()).unwrap();
        ["ops_per_thread", "prefill"].map(|k| c.get(k).and_then(|v| v.as_f64()).unwrap_or(-1.0))
    };
    let (new_cfg, old_cfg) = (cfg_of(new_obj), cfg_of(old_obj));
    if new_cfg != old_cfg {
        return Err(format!(
            "config mismatch — refusing to compare: new (ops_per_thread={}, prefill={}) \
             vs old (ops_per_thread={}, prefill={})",
            new_cfg[0], new_cfg[1], old_cfg[0], old_cfg[1]
        ));
    }

    let runs_of = |o: &std::collections::BTreeMap<String, json::Value>| {
        o.get("runs")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .filter_map(|r| r.as_object().cloned())
            .map(|r| (run_key(&r), r))
            .collect::<Vec<_>>()
    };
    let new_runs = runs_of(new_obj);
    let old_runs = runs_of(old_obj);

    let label = |key: &RunKey| {
        if key.2 == "sharded" {
            format!("sharded k{}c{}", key.3, key.4)
        } else {
            key.2.clone()
        }
    };
    let mut out = String::new();
    let mut paired = 0usize;
    let mut failures = Vec::new();
    for (key, new_run) in &new_runs {
        let Some((_, old_run)) = old_runs.iter().find(|(k, _)| k == key) else {
            out.push_str(&format!(
                "  only in new: {} t={} {}\n",
                key.0,
                key.1,
                label(key)
            ));
            continue;
        };
        paired += 1;
        let tp = |r: &std::collections::BTreeMap<String, json::Value>| {
            r.get("delete_min_ops_per_s")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        let (new_tp, old_tp) = (tp(new_run), tp(old_run));
        let ratio = if old_tp > 0.0 { new_tp / old_tp } else { 0.0 };
        out.push_str(&format!(
            "  {} t={} {:<13} delete_min {:.0} -> {:.0} ops/s (x{ratio:.2})\n",
            key.0,
            key.1,
            label(key),
            old_tp,
            new_tp
        ));
        if let Some(r) = min_ratio {
            if ratio < r {
                failures.push(format!(
                    "{} t={} {}: ratio {ratio:.2} below floor {r:.2}",
                    key.0,
                    key.1,
                    label(key)
                ));
            }
        }
    }
    if paired == 0 {
        return Err("no runs in common between the two documents".into());
    }
    if !failures.is_empty() {
        return Err(format!(
            "{}\nperf floor violated:\n  {}",
            out.trim_end(),
            failures.join("\n  ")
        ));
    }
    Ok(format!("{paired} paired run(s):\n{out}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Config {
        Config {
            ops_per_thread: 400,
            prefill: 200,
            threads: vec![1, 2],
            workloads: vec![Workload::Mixed, Workload::DeleteHeavy],
            shards: vec![2],
            samples: vec![1, 2],
            baseline_only: false,
        }
    }

    #[test]
    fn tiny_sweep_produces_sane_results() {
        let cfg = tiny_config();
        let results = run_all(&cfg, |_| {});
        // 2 workloads × 2 thread counts × 3 modes (baseline, sharded k2c1,
        // sharded k2c2).
        assert_eq!(results.len(), 12);
        for r in &results {
            assert_eq!(r.total_ops, cfg.ops_per_thread * r.threads as u64);
            assert!(r.elapsed_s > 0.0);
            assert!(r.delete_ops > 0);
            assert!(r.delete_latency.count() == r.delete_ops);
            match r.mode {
                RunMode::Sharded { shards, sample } => {
                    assert_eq!(shards, 2);
                    assert!(sample == 1 || sample == 2);
                    let rank = r
                        .rank_error
                        .as_ref()
                        .expect("sharded runs carry rank error");
                    assert!(rank.samples > 0);
                }
                _ => assert!(r.rank_error.is_none()),
            }
        }
    }

    #[test]
    fn report_roundtrips_through_checker() {
        let cfg = tiny_config();
        let results = run_all(&cfg, |_| {});
        let text = render_report(&cfg, &results);
        let n = check_report(&text).expect("self-produced report must validate");
        assert_eq!(n, results.len());
    }

    #[test]
    fn checker_rejects_garbage() {
        assert!(check_report("not json").is_err());
        assert!(check_report("{}").is_err());
        assert!(check_report(r#"{"schema":"nbench-v3","runs":[]}"#).is_err());
        assert!(check_report(r#"{"schema":"wrong","runs":[{}]}"#).is_err());
        // v1 documents (no config block) are refused outright.
        assert!(check_report(r#"{"schema":"nbench-v1","runs":[{}]}"#).is_err());
    }

    #[test]
    fn comparison_pairs_runs_and_enforces_floor() {
        let cfg = tiny_config();
        let results = run_all(&cfg, |_| {});
        let text = render_report(&cfg, &results);
        // A document compared against itself pairs every run at ratio 1.0,
        // so even a floor of 0.99 passes.
        let report = compare_reports(&text, &text, Some(0.99)).expect("self-compare passes");
        assert!(report.contains("paired run(s)"));
        // An impossible floor fails with the offending runs listed.
        let err = compare_reports(&text, &text, Some(1.5)).unwrap_err();
        assert!(err.contains("perf floor violated"), "{err}");
    }

    #[test]
    fn comparison_refuses_mismatched_config() {
        let cfg = tiny_config();
        let results = run_all(&cfg, |_| {});
        let text = render_report(&cfg, &results);
        let mut other_cfg = tiny_config();
        other_cfg.prefill = 999;
        let other = render_report(&other_cfg, &results);
        let err = compare_reports(&text, &other, None).unwrap_err();
        assert!(err.contains("config mismatch"), "{err}");
    }

    #[test]
    fn workload_names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
