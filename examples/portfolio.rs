//! Portfolio analysis: a 50-variant fleet of cardiac assist systems, submitted
//! to one [`AnalysisService`] as a batch of requests.
//!
//! The fleet contains only 5 structurally distinct designs (rate-scaled CAS
//! variants); each appears 10 times, as fleets do — same design, many
//! submissions.  The service fingerprints every tree, builds each distinct
//! model exactly once on the worker pool, and answers the other 45 jobs from
//! the cache: after the first build of a design, re-analysing it is ~free.
//!
//! Run with `cargo run --release --example portfolio`.

use dftmc::dft_core::casestudies::{cas_scaled, DEFAULT_MISSION_TIMES};
use dftmc::dft_core::service::{AnalysisService, JobReport, RequestOutcome, ServiceOptions};
use dftmc::dft_core::{AnalysisRequest, Measure};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const DESIGNS: usize = 5;
    const COPIES: usize = 10;

    // The fleet: 10 submissions of each of 5 designs, interleaved as a real
    // submission stream would be.
    let service = AnalysisService::new(ServiceOptions::default());
    let started = Instant::now();
    // Submit the whole fleet first (each call returns immediately), then
    // collect the reports in submission order.
    let handles: Vec<_> = (0..DESIGNS * COPIES)
        .map(|i| {
            service.submit_request(AnalysisRequest {
                measures: vec![
                    Measure::curve(DEFAULT_MISSION_TIMES),
                    Measure::Unreliability(1.0),
                ],
                ..AnalysisRequest::new(cas_scaled(1.0 + 0.1 * (i % DESIGNS) as f64))
            })
        })
        .collect();
    let reports: Vec<JobReport> = handles
        .into_iter()
        .map(|handle| match handle.wait() {
            RequestOutcome::Job(report) => report,
            RequestOutcome::Sweep(_) => unreachable!("no sweep was requested"),
        })
        .collect();
    let wall = started.elapsed();

    let misses = reports.iter().filter(|j| !j.cache_hit).count();
    let aggregation_runs: usize = reports.iter().map(|j| j.aggregation_runs).sum();
    println!(
        "portfolio: {} jobs, {} distinct designs, {} worker(s)",
        reports.len(),
        DESIGNS,
        service.pool_workers()
    );
    println!(
        "cache: {} misses (models built), {} hits (builds skipped), {} aggregation run(s)",
        misses,
        reports.len() - misses,
        aggregation_runs
    );

    // Cache hits make re-analysis ~free: compare the build phase paid by the
    // first submission of each design with what the duplicates paid.
    let phase = |hit: bool| -> (usize, Duration, Duration) {
        reports
            .iter()
            .filter(|j| j.cache_hit == hit)
            .fold((0, Duration::ZERO, Duration::ZERO), |(n, b, q), j| {
                (n + 1, b + j.build, q + j.query)
            })
    };
    let (misses, miss_build, miss_query) = phase(false);
    let (hits, hit_build, hit_query) = phase(true);
    println!("\n              jobs   total build   total query");
    println!(
        "first builds  {:>4}   {:>11} {:>13}",
        misses,
        format!("{:.2?}", miss_build),
        format!("{:.2?}", miss_query)
    );
    println!(
        "cache hits    {:>4}   {:>11} {:>13}",
        hits,
        format!("{:.2?}", hit_build),
        format!("{:.2?}", hit_query)
    );

    // Per-design: every submission of a design reports the same fingerprint
    // and the same unreliability, down to the last bit.
    println!("\ndesign  fingerprint       unreliability(t=1)  submissions");
    for design in 0..DESIGNS {
        let submissions: Vec<_> = reports
            .iter()
            .enumerate()
            .filter(|(i, _)| i % DESIGNS == design)
            .map(|(_, j)| j)
            .collect();
        let first = submissions[0].results.as_ref().map_err(Clone::clone)?[1].value();
        assert!(submissions.iter().all(|j| {
            j.results
                .as_ref()
                .is_ok_and(|r| r[1].value().to_bits() == first.to_bits())
        }));
        println!(
            "#{design}      {:016x}  {:>18.6}  {:>11}",
            submissions[0].fingerprint,
            first,
            submissions.len()
        );
    }

    println!(
        "\nbatch wall time {:.2?}: {} model builds amortized over {} jobs",
        wall,
        misses,
        reports.len()
    );
    Ok(())
}
