//! The asynchronous service front end: many client threads submit jobs and
//! sweeps against one long-lived [`AnalysisService`] and collect their results
//! through handles, while the persistent worker pool drains continuously.
//!
//! Three clients each submit a personal queue of rate-scaled CAS jobs (the
//! structures overlap across clients, so most jobs are cache hits on models a
//! *different* client paid for), a fourth client submits a rate sweep, and
//! the main thread polls one handle with `try_result` to show non-blocking
//! collection.  Aggregation runs exactly once per distinct structure, however
//! the submissions interleave.
//!
//! Run with `cargo run --release --example async_service`.

use dftmc::dft_core::casestudies::{cas, cas_scaled};
use dftmc::dft_core::engine::ParametricAnalyzer;
use dftmc::dft_core::service::{
    AnalysisService, JobReport, RequestHandle, RequestOutcome, ServiceOptions,
};
use dftmc::dft_core::{AnalysisOptions, AnalysisRequest, Measure, SweepSpec};
use std::sync::Arc;

/// A request for the unreliability at t = 1 of the CAS scaled by `scale`.
fn request(scale: f64) -> AnalysisRequest {
    AnalysisRequest {
        measures: vec![Measure::Unreliability(1.0)],
        ..AnalysisRequest::new(cas_scaled(scale))
    }
}

fn job_report(outcome: RequestOutcome) -> JobReport {
    match outcome {
        RequestOutcome::Job(report) => report,
        RequestOutcome::Sweep(_) => unreachable!("no sweep was requested"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const CLIENTS: usize = 3;
    const JOBS_EACH: usize = 6;
    const DESIGNS: usize = 4;

    let service = Arc::new(AnalysisService::new(ServiceOptions::default()));

    // Three clients, each submitting its whole queue before waiting — the
    // submissions return immediately, the pool works in the background.
    let client_reports: Vec<Vec<JobReport>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    let handles: Vec<RequestHandle> = (0..JOBS_EACH)
                        .map(|j| {
                            // Offset per client: the same designs, hit in a
                            // different order by everyone.
                            service.submit_request(request(1.0 + 0.1 * ((c + j) % DESIGNS) as f64))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|handle| job_report(handle.wait()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });

    for (c, reports) in client_reports.iter().enumerate() {
        let hits = reports.iter().filter(|r| r.cache_hit).count();
        let built: usize = reports.iter().map(|r| r.aggregation_runs).sum();
        println!(
            "client {c}: {} jobs, {hits} cache hits, {built} models built here",
            reports.len()
        );
    }
    let total_aggregations: usize = client_reports
        .iter()
        .flatten()
        .map(|r| r.aggregation_runs)
        .sum();
    assert_eq!(
        total_aggregations, DESIGNS,
        "every design aggregates exactly once, whoever submitted it first"
    );
    assert!(
        client_reports.iter().flatten().all(|r| !r.build_wait),
        "duplicates park behind the in-flight build instead of blocking"
    );

    // A sweep rides the same queue as one task: it builds (or fetches) the
    // shared parametric model and answers all eight valuations in one
    // lane-batched kernel pass, without building a session per point.
    let parametric = ParametricAnalyzer::new(&cas(), AnalysisOptions::default())?;
    let valuations: Vec<_> = (0..8)
        .map(|i| parametric.params().scaled_valuation(1.0 + 0.05 * i as f64))
        .collect();
    let sweep_request = AnalysisRequest {
        measures: vec![Measure::Unreliability(1.0)],
        sweep: Some(SweepSpec::Valuations(valuations)),
        ..AnalysisRequest::new(cas())
    };
    let sessions_before = service.cache_stats().entries;
    let RequestOutcome::Sweep(sweep) = service.submit_request(sweep_request).wait() else {
        unreachable!("a sweep was requested")
    };
    let sessions_added = service.cache_stats().entries - sessions_before;
    println!(
        "sweep: {} valuations, {} aggregation run(s), parametric cache hit: {}, \
         {sessions_added} session(s) added to the cache",
        sweep.stats.valuations, sweep.stats.aggregation_runs, sweep.stats.parametric_cache_hit,
    );
    assert_eq!(
        sessions_added, 0,
        "a sweep answers every valuation from the parametric model"
    );
    for (i, point) in sweep.points.iter().enumerate() {
        let value = point.results.as_ref().unwrap()[0].value();
        println!(
            "  scale {:.2} -> unreliability(1) = {value:.6}",
            1.0 + 0.05 * i as f64
        );
    }

    // Non-blocking collection: poll with try_result, then do other work.
    let mut handle = service.submit_request(request(2.0));
    let mut polls = 0usize;
    let report = loop {
        if handle.try_result().is_some() {
            break job_report(handle.wait());
        }
        polls += 1;
        std::thread::yield_now();
    };
    println!(
        "polled handle: ready after {polls} poll(s), unreliability(1) = {:.6}",
        report.results.as_ref().unwrap()[0].value()
    );

    let stats = service.cache_stats();
    let queue = service.queue_stats();
    println!(
        "service totals: {} hits / {} misses, {} parked / {} released, pool of {}",
        stats.hits,
        stats.misses,
        queue.parked,
        queue.released,
        service.pool_workers()
    );
    Ok(())
}
