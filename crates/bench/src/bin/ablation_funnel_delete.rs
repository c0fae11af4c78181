//! Ablation (paper §5, design discussion): should delete-mins be funneled?
//!
//! The authors report that a combining funnel in front of the deleters
//! "performed well in low contention but caused too much overhead when the
//! concurrency level increased to 64 processors and more", which is why the
//! published SkipQueue lets processors race on the bottom level. This
//! binary re-runs that comparison.

use pq_bench::{concurrency_figure, finish_figure, Options};
use simpq::QueueKind;

fn main() {
    let opts = Options::from_args();
    let kinds = [
        QueueKind::SkipQueue { strict: true },
        QueueKind::FunnelSkipQueue,
    ];
    let rows = concurrency_figure(&opts, &kinds, 70_000, 50, 0.5);
    finish_figure(
        &opts,
        "Ablation: funnel-fronted delete-min vs racing deleters (small structure)",
        "procs",
        &rows,
    );
}
