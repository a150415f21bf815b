//! Quickstart: model a tiny redundant system as a dynamic fault tree, submit it
//! to an [`AnalysisService`], and answer a whole mission-time sweep plus the MTTF
//! from one cached model — the aggregation pipeline runs exactly once, and
//! resubmitting the same structure is a cache hit that skips it entirely.
//!
//! Run with `cargo run --example quickstart`.

use dftmc::dft::{Dft, DftBuilder, Dormancy};
use dftmc::dft_core::service::{AnalysisService, JobReport, RequestOutcome, ServiceOptions};
use dftmc::dft_core::{AnalysisOptions, AnalysisRequest, Measure, Method};

/// Runs one request without a sweep on the service and returns its report.
fn run_job(
    service: &AnalysisService,
    dft: Dft,
    options: AnalysisOptions,
    measures: Vec<Measure>,
) -> JobReport {
    let request = AnalysisRequest {
        options,
        measures,
        ..AnalysisRequest::new(dft)
    };
    match service.run_request(request) {
        RequestOutcome::Job(report) => report,
        RequestOutcome::Sweep(_) => unreachable!("no sweep was requested"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A power supply backed by a cold-standby generator; both feed a controller
    // that also depends on its cooling fan (the fan failure triggers a controller
    // failure through a functional dependency).
    let mut b = DftBuilder::new();
    let grid = b.basic_event("grid", 0.5, Dormancy::Hot)?;
    let generator = b.basic_event("generator", 0.2, Dormancy::Cold)?;
    let power = b.spare_gate("power", &[grid, generator])?;

    let fan = b.basic_event("fan", 0.1, Dormancy::Hot)?;
    let controller = b.basic_event("controller", 0.05, Dormancy::Hot)?;
    let _cooling = b.fdep_gate("cooling", fan, &[controller])?;

    let system = b.or_gate("system", &[power, controller])?;
    let dft = b.build(system)?;

    println!(
        "system: {} elements ({} basic events, {} gates), fingerprint {:016x}",
        dft.num_elements(),
        dft.num_basic_events(),
        dft.num_gates(),
        dft.fingerprint()
    );

    // One service fronts every analysis; sessions are cached by structure.
    let service = AnalysisService::new(ServiceOptions::default());

    // One request answers the whole sweep, the point query and the MTTF in a
    // single pass — all measures share one cached model and one
    // uniformisation pass.
    let t = 1.0;
    let report = run_job(
        &service,
        dft.clone(),
        AnalysisOptions::default(),
        vec![
            Measure::curve([0.5, 1.0, 2.0, 5.0]),
            Measure::Unreliability(t),
            Measure::Mttf,
        ],
    );
    let results = report.results.as_ref().map_err(Clone::clone)?;

    println!("\n mission time |  unreliability");
    println!(" -------------+---------------");
    for point in results[0].points() {
        println!(
            "        {:5.1} |  {:.6}",
            point.time().unwrap(),
            point.value()
        );
    }
    println!("\nmean time to failure: {:.4}", results[2].value());

    // Cross-check the point query against the monolithic baseline — a second
    // request to the same service, under a different cache key.
    let monolithic = run_job(
        &service,
        dft.clone(),
        AnalysisOptions {
            method: Method::Monolithic,
            ..AnalysisOptions::default()
        },
        vec![Measure::Unreliability(t)],
    );
    println!(
        "\nat t = {t}: compositional {:.6} vs monolithic {:.6}",
        results[1].value(),
        monolithic.results.as_ref().map_err(Clone::clone)?[0].value()
    );

    // Resubmitting the same structure is a cache hit: no aggregation runs.
    let resubmitted = run_job(
        &service,
        dft,
        AnalysisOptions::default(),
        vec![Measure::Unreliability(2.0)],
    );
    println!(
        "\nresubmission: cache hit = {}, aggregation runs = {}",
        resubmitted.cache_hit, resubmitted.aggregation_runs
    );
    let stats = service.cache_stats();
    println!(
        "service totals: {} hits / {} misses over {} cached model(s)",
        stats.hits, stats.misses, stats.entries
    );
    Ok(())
}
