//! `nbench` — native benchmark harness for the concurrent SkipQueue.
//!
//! ```text
//! nbench [--quick] [--ops N] [--prefill N] [--threads 1,2,4,8]
//!        [--workloads mixed,delete-heavy] [--baseline]
//!        [--shards 2,4,8] [--sample 1,2] [--out PATH]
//! nbench --check PATH                      # validate a results file
//! nbench --check NEW --against OLD         # compare two results files
//!        [--min-ratio R]                   # fail if delete_min throughput
//!                                          # drops below R× the old run
//! ```
//!
//! `--shards LIST` adds sharded-mode runs to the sweep (routing through
//! `shardq::ShardedSkipQueue`), one per shard-count × sample-width pair;
//! `--sample LIST` sets how many shards each `delete_min` samples
//! (`1` = random-shard claim, no peek). Comparison mode refuses to pair
//! documents whose configs (ops/thread, prefill) differ —
//! cross-config ratios are not comparisons, they're coincidences.

use std::process::ExitCode;

use nbench::{check_report, compare_reports, render_report, run_all, Config, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: nbench [--quick] [--ops N] [--prefill N] [--threads LIST] \
         [--workloads LIST] [--baseline] [--shards LIST] \
         [--sample LIST] [--out PATH]\n\
         \u{20}      nbench --check PATH [--against PATH [--min-ratio R]]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut cfg = Config::default();
    let mut out_path = String::from("BENCH_native.json");
    let mut check_path: Option<String> = None;
    let mut against_path: Option<String> = None;
    let mut min_ratio: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| args.next().unwrap_or_else(|| usage_missing(flag));
        match arg.as_str() {
            "--quick" => {
                cfg.ops_per_thread = 2_000;
                cfg.prefill = 1_000;
                cfg.threads = vec![1, 2, 8];
            }
            "--ops" => cfg.ops_per_thread = parse_num(&next("--ops")),
            "--prefill" => cfg.prefill = parse_num(&next("--prefill")),
            "--baseline" => cfg.baseline_only = true,
            "--threads" => {
                cfg.threads = next("--threads")
                    .split(',')
                    .map(|t| parse_num(t) as usize)
                    .collect();
                if cfg.threads.is_empty() || cfg.threads.contains(&0) {
                    usage();
                }
            }
            "--workloads" => {
                cfg.workloads = next("--workloads")
                    .split(',')
                    .map(|w| Workload::from_name(w).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--shards" => {
                cfg.shards = next("--shards")
                    .split(',')
                    .map(|s| parse_num(s) as usize)
                    .collect();
                if cfg.shards.contains(&0) {
                    usage();
                }
            }
            "--sample" => {
                cfg.samples = next("--sample")
                    .split(',')
                    .map(|s| parse_num(s) as usize)
                    .collect();
                if cfg.samples.is_empty() || cfg.samples.contains(&0) {
                    usage();
                }
            }
            "--out" => out_path = next("--out"),
            "--check" => check_path = Some(next("--check")),
            "--against" => against_path = Some(next("--against")),
            "--min-ratio" => {
                min_ratio = Some(next("--min-ratio").parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
    }

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("nbench: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(old_path) = against_path {
            let old_text = match std::fs::read_to_string(&old_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("nbench: cannot read {old_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            return match compare_reports(&text, &old_text, min_ratio) {
                Ok(report) => {
                    println!("{path} vs {old_path}: {report}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path} vs {old_path}: COMPARISON FAILED: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        return match check_report(&text) {
            Ok(n) => {
                println!("{path}: OK ({n} runs)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if against_path.is_some() || min_ratio.is_some() {
        eprintln!("nbench: --against/--min-ratio require --check");
        usage();
    }

    eprintln!(
        "nbench: {} ops/thread, prefill {}, threads {:?}{}{}",
        cfg.ops_per_thread,
        cfg.prefill,
        cfg.threads,
        if cfg.shards.is_empty() {
            String::new()
        } else {
            format!(", shards {:?} (sample {:?})", cfg.shards, cfg.samples)
        },
        if cfg.baseline_only {
            ", baseline only"
        } else {
            ""
        }
    );
    let results = run_all(&cfg, |r| {
        let rank = r
            .rank_error
            .as_ref()
            .map(|s| format!("  rank-err mean {:.2}", s.mean))
            .unwrap_or_default();
        eprintln!(
            "  {:<13} t={:<3} {:<10} {:>12.0} ops/s  (delete_min p50 {} ns, p99 {} ns){rank}",
            r.workload.name(),
            r.threads,
            r.mode.name_with_shape(),
            r.throughput(),
            r.delete_latency.percentile(50.0),
            r.delete_latency.percentile(99.0),
        );
    });
    let report = render_report(&cfg, &results);
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("nbench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("nbench: wrote {out_path} ({} runs)", results.len());
    ExitCode::SUCCESS
}

fn parse_num(s: &str) -> u64 {
    s.trim()
        .replace('_', "")
        .parse()
        .unwrap_or_else(|_| usage())
}

fn usage_missing(flag: &str) -> String {
    eprintln!("nbench: {flag} needs a value");
    usage();
}
