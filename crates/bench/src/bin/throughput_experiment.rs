//! Experiment E11: async-service throughput — N submitting threads feeding the
//! persistent worker pool through `submit_request` versus the same portfolio as
//! blocking sequential batches.
//!
//! Each submitter enqueues an M-deep personal queue of rate-scaled CAS jobs
//! (structures interleaved across submitters, so duplicates hit the queue's
//! leader/follower parking) and then awaits its handles; the baseline keeps
//! the same client threads but serializes their identical chunks as blocking
//! batches — clients taking turns, which is what a blocking API
//! forces on a multi-client world.  Both modes take the best of five
//! cold-cache repetitions.  The experiment reports both walls, the queued
//! run's p50/p99 submit→report latency, the cache accounting (aggregation
//! exactly once per distinct tree, zero blocked builds) and a bit-identity
//! check against sequential `Analyzer` runs.
//!
//! Run with `cargo run --release -p dftmc-bench --bin throughput_experiment`
//! (add `--smoke` for the quick CI configuration).

#![forbid(unsafe_code)]

use dft::json::{self, Json};
use dftmc_bench::timing::format_duration;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The smoke configuration still needs enough warm-cache work after the
    // builds for the pipelining win to dominate scheduler noise.
    let (distinct, submitters, depth) = if smoke { (4, 3, 12) } else { (8, 4, 8) };

    println!("== E11: async submission throughput over the AnalysisService ==\n");
    let e = dftmc_bench::run_throughput_experiment(distinct, submitters, depth, 0)
        .expect("throughput experiment runs");

    println!(
        "portfolio: {} jobs over {} distinct trees ({} submitters x {}-deep queues)",
        e.jobs, e.distinct_trees, e.submitters, e.jobs_per_submitter
    );
    println!("\n{:<34} {:>14}", "metric", "value");
    println!("{}", "-".repeat(49));
    let row = |name: &str, value: String| println!("{name:<34} {value:>14}");
    row("workers (persistent pool)", e.workers.to_string());
    row(
        "wall, sequential batches",
        format_duration(e.sequential_wall),
    );
    row("wall, queued submitters", format_duration(e.queued_wall));
    row(
        "throughput, sequential (jobs/s)",
        format!("{:.1}", e.sequential_throughput),
    );
    row(
        "throughput, queued (jobs/s)",
        format!("{:.1}", e.queued_throughput),
    );
    row(
        "speedup (queued / sequential)",
        format!("{:.2}x", e.speedup),
    );
    row("latency p50 (queued)", format_duration(e.latency_p50));
    row("latency p99 (queued)", format_duration(e.latency_p99));
    row("cache hits", e.cache_hits.to_string());
    row("cache misses", e.cache_misses.to_string());
    row("aggregation runs", e.aggregation_runs.to_string());
    row("build waits", e.build_waits.to_string());
    row("bit-identical to sequential", e.bit_identical.to_string());

    assert!(
        e.bit_identical,
        "queued service results diverged from the sequential reference"
    );
    assert_eq!(
        e.aggregation_runs, e.distinct_trees,
        "concurrent submitters must share cached models (one aggregation per structure)"
    );
    assert_eq!(
        e.build_waits, 0,
        "the queue must park duplicates of in-flight models, not block on them"
    );
    if !smoke {
        // Queue-based throughput must keep up with sequential batching; on
        // multi-core hosts it pulls ahead by keeping the pool saturated across
        // chunk boundaries.  The margin absorbs scheduler noise on tiny runs.
        assert!(
            e.speedup >= 0.75,
            "queued throughput collapsed to {:.2}x of sequential batching",
            e.speedup
        );
    }

    println!("\nThe persistent pool drains continuously while submitters only enqueue:");
    println!("no per-batch thread spawn, no blocking between one client's jobs and the");
    println!("next client's, and every duplicate structure still builds exactly once.");

    json::emit_and_announce(
        "async",
        &Json::obj([
            ("experiment", "async".into()),
            ("smoke", smoke.into()),
            ("jobs", e.jobs.into()),
            ("distinct_trees", e.distinct_trees.into()),
            ("submitters", e.submitters.into()),
            ("jobs_per_submitter", e.jobs_per_submitter.into()),
            ("workers", e.workers.into()),
            ("sequential_wall_seconds", Json::secs(e.sequential_wall)),
            ("queued_wall_seconds", Json::secs(e.queued_wall)),
            (
                "sequential_throughput_jobs_per_second",
                e.sequential_throughput.into(),
            ),
            (
                "queued_throughput_jobs_per_second",
                e.queued_throughput.into(),
            ),
            ("speedup", e.speedup.into()),
            ("latency_p50_seconds", Json::secs(e.latency_p50)),
            ("latency_p99_seconds", Json::secs(e.latency_p99)),
            ("cache_hits", e.cache_hits.into()),
            ("cache_misses", e.cache_misses.into()),
            ("aggregation_runs", e.aggregation_runs.into()),
            ("build_waits", e.build_waits.into()),
            ("bit_identical", e.bit_identical.into()),
        ]),
    );
}
