//! Experiment E13: the HTTP front end under load — N client threads driving
//! a real `dftmc-serve` server over TCP, end-to-end latency percentiles and
//! the fleet-warmth signal (`aggregation_runs == distinct trees`).
//!
//! The loadgen submits rate-scaled CAS variants over `POST /submit`, polls
//! `GET /result/{id}` to completion, scrapes `GET /metrics` and shuts the
//! server down gracefully.  Every value fetched over HTTP is checked
//! bit-for-bit against an in-process `Analyzer` — the serialization boundary
//! must not cost a single bit.
//!
//! Run with
//! `cargo run --release -p dftmc-bench --bin serve_experiment -- [--smoke]`.

#![forbid(unsafe_code)]

use dft::json::{self, Json};
use dftmc_bench::serve_load::run_serve_experiment;
use dftmc_bench::timing::format_duration;

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let (distinct, clients, jobs_per_client) = if smoke { (2, 3, 3) } else { (4, 8, 8) };

    println!("== E13: HTTP front end under load ==\n");
    println!(
        "{clients} clients x {jobs_per_client} jobs over {distinct} distinct trees, \
         one TCP connection per request"
    );
    let e = run_serve_experiment(distinct, clients, jobs_per_client).expect("serve loadgen runs");

    println!("\n{:<34} {:>14}", "metric", "value");
    println!("{}", "-".repeat(49));
    let row = |name: &str, value: String| println!("{name:<34} {value:>14}");
    row("jobs completed", e.jobs.to_string());
    row("wall clock", format_duration(e.wall));
    row("throughput (jobs/s)", format!("{:.1}", e.throughput));
    row("latency p50", format_duration(e.latency_p50));
    row("latency p99", format_duration(e.latency_p99));
    row("aggregation runs", e.aggregation_runs.to_string());
    row("HTTP requests answered", e.http_requests.to_string());
    row("throttled (429)", e.throttled.to_string());
    row(
        "rejected connections (503)",
        e.rejected_connections.to_string(),
    );
    row("closed model states", e.model_states.to_string());
    row("bit-identical over HTTP", e.bit_identical.to_string());

    assert!(
        e.bit_identical,
        "values fetched over HTTP diverged from the in-process Analyzer"
    );
    assert_eq!(
        e.aggregation_runs, e.distinct_trees as u64,
        "every duplicate submission must be a cache hit"
    );

    println!("\nThe HTTP layer adds connection setup and JSON round trips, but the");
    println!("aggregation count stays at one per distinct structure: the service cache");
    println!("absorbs the duplicate submissions exactly as it does in-process.");

    json::emit_and_announce(
        "serve",
        &Json::obj([
            ("experiment", "serve".into()),
            ("smoke", smoke.into()),
            ("jobs", e.jobs.into()),
            ("clients", e.clients.into()),
            ("distinct_trees", e.distinct_trees.into()),
            ("wall_seconds", Json::secs(e.wall)),
            ("throughput_jobs_per_second", e.throughput.into()),
            ("latency_p50_seconds", Json::secs(e.latency_p50)),
            ("latency_p99_seconds", Json::secs(e.latency_p99)),
            ("aggregation_runs", (e.aggregation_runs as usize).into()),
            ("http_requests", (e.http_requests as usize).into()),
            ("throttled", (e.throttled as usize).into()),
            (
                "rejected_connections",
                (e.rejected_connections as usize).into(),
            ),
            ("model_states", e.model_states.into()),
            ("bit_identical", e.bit_identical.into()),
        ]),
    );
}
