//! Experiment E10: portfolio throughput over the `AnalysisService` — the
//! batch/cache/multi-worker regime the service API was built for.
//!
//! A portfolio of rate-scaled CAS variants (with many duplicate structures) is
//! submitted as one batch, once on a single worker and once on one worker per
//! core, both from a cold cache.  The experiment reports the wall-clock of both
//! runs, the cache accounting (every duplicate must be a hit; aggregation runs
//! exactly once per distinct tree) and a bit-identity check against sequential
//! `Analyzer` runs.
//!
//! Run with `cargo run --release -p dftmc-bench --bin portfolio_experiment`
//! (add `--smoke` for the quick CI configuration).

#![forbid(unsafe_code)]

use dft::json::{self, Json};
use dftmc_bench::timing::format_duration;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (distinct, copies) = if smoke { (3, 3) } else { (10, 5) };

    println!("== E10: portfolio throughput over the AnalysisService ==\n");
    let e = dftmc_bench::run_portfolio_experiment(distinct, copies, 0).expect("portfolio runs");

    println!(
        "portfolio: {} jobs over {} distinct trees ({} copies each)",
        e.jobs, e.distinct_trees, copies
    );
    println!("\n{:<34} {:>14}", "metric", "value");
    println!("{}", "-".repeat(49));
    let row = |name: &str, value: String| println!("{name:<34} {value:>14}");
    row("workers (multi run)", e.workers.to_string());
    row("wall, 1 worker", format_duration(e.single_worker_wall));
    row(
        &format!("wall, {} workers", e.workers),
        format_duration(e.multi_worker_wall),
    );
    row("build time (summed)", format_duration(e.build_time));
    row("query time (summed)", format_duration(e.query_time));
    row("cache hits", e.cache_hits.to_string());
    row("cache misses", e.cache_misses.to_string());
    row("aggregation runs", e.aggregation_runs.to_string());
    row("bit-identical to sequential", e.bit_identical.to_string());

    assert!(
        e.bit_identical,
        "concurrent service results diverged from the sequential reference"
    );
    assert_eq!(
        e.aggregation_runs, e.distinct_trees,
        "duplicates must never re-run aggregation"
    );

    println!("\nEvery duplicate tree is a cache hit: the batch pays one aggregation per");
    println!("distinct structure, and the worker pool spreads those builds across cores.");

    json::emit_and_announce(
        "portfolio",
        &Json::obj([
            ("experiment", "portfolio".into()),
            ("smoke", smoke.into()),
            ("jobs", e.jobs.into()),
            ("distinct_trees", e.distinct_trees.into()),
            ("workers", e.workers.into()),
            (
                "single_worker_wall_seconds",
                Json::secs(e.single_worker_wall),
            ),
            ("multi_worker_wall_seconds", Json::secs(e.multi_worker_wall)),
            ("build_seconds", Json::secs(e.build_time)),
            ("query_seconds", Json::secs(e.query_time)),
            ("cache_hits", e.cache_hits.into()),
            ("cache_misses", e.cache_misses.into()),
            ("aggregation_runs", e.aggregation_runs.into()),
            ("bit_identical", e.bit_identical.into()),
        ]),
    );
}
