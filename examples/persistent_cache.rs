//! The persistent model cache: keep the warm cache warm across restarts and
//! share it between a fleet of analysis servers.
//!
//! The example simulates a server restart — two [`AnalysisService`] instances
//! pointed at the same store directory, one after the other.  The first
//! "server generation" aggregates every model and writes the closed models
//! back; the second loads them from disk, runs **zero** aggregations, and
//! still answers bit-identically.  It then shows the raw round-trip API
//! ([`Analyzer::to_bytes`]/`from_bytes`) the store is built on.
//!
//! Run with `cargo run --release --example persistent_cache`.

use dftmc::dft_core::casestudies::{cas, cas_scaled, DEFAULT_MISSION_TIMES};
use dftmc::dft_core::engine::Analyzer;
use dftmc::dft_core::service::{AnalysisService, JobReport, RequestOutcome, ServiceOptions};
use dftmc::dft_core::{AnalysisOptions, AnalysisRequest, Measure};
use std::time::Instant;

/// Submits the four-design fleet, then collects every report in order.
fn run_fleet(service: &AnalysisService) -> Vec<JobReport> {
    let handles: Vec<_> = (0..4)
        .map(|i| {
            service.submit_request(AnalysisRequest {
                measures: vec![Measure::curve(DEFAULT_MISSION_TIMES)],
                ..AnalysisRequest::new(cas_scaled(1.0 + 0.1 * i as f64))
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|handle| match handle.wait() {
            RequestOutcome::Job(report) => report,
            RequestOutcome::Sweep(_) => unreachable!("no sweep was requested"),
        })
        .collect()
}

fn aggregation_runs(reports: &[JobReport]) -> usize {
    reports.iter().map(|r| r.aggregation_runs).sum()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // In production this is a shared directory — a persistent volume, an NFS
    // mount the fleet shares, a CI cache. Here: a scratch dir.
    let store_dir =
        std::env::temp_dir().join(format!("dftmc-example-store-{}", std::process::id()));

    // ── Generation 1: cold store — aggregate, answer, write back. ─────────
    let first = AnalysisService::new(ServiceOptions::default().store(&store_dir));
    let started = Instant::now();
    let cold = run_fleet(&first);
    let cold_wall = started.elapsed();
    let stats = first.store_stats().expect("store configured");
    println!("generation 1 (cold store):");
    println!("  aggregation runs : {}", aggregation_runs(&cold));
    println!(
        "  models persisted : {} ({} bytes)",
        stats.writes, stats.write_bytes
    );
    println!("  wall             : {cold_wall:?}");
    drop(first); // the "server" shuts down; the store directory survives

    // ── Generation 2: warm store — every model is a disk read. ────────────
    let second = AnalysisService::new(ServiceOptions::default().store(&store_dir));
    let started = Instant::now();
    let warm = run_fleet(&second);
    let warm_wall = started.elapsed();
    let stats = second.store_stats().expect("store configured");
    println!("\ngeneration 2 (warm store):");
    println!("  aggregation runs : {}", aggregation_runs(&warm));
    println!("  store hits       : {}", stats.hits);
    println!("  wall             : {warm_wall:?}");
    assert_eq!(aggregation_runs(&warm), 0, "everything came off disk");

    // Same fleet, same answers — down to the bits.
    for (a, b) in cold.iter().zip(&warm) {
        let (a, b) = (a.results.as_ref().unwrap(), b.results.as_ref().unwrap());
        for (ra, rb) in a.iter().zip(b) {
            for (pa, pb) in ra.points().iter().zip(rb.points()) {
                assert_eq!(pa.value().to_bits(), pb.value().to_bits());
            }
        }
    }
    println!("  results          : bit-identical to generation 1");

    // ── The raw round trip the store is built on. ─────────────────────────
    let built = Analyzer::new(&cas(), AnalysisOptions::default())?;
    let bytes = built.to_bytes();
    let restored = Analyzer::from_bytes(&bytes)?;
    println!(
        "\nraw round trip: {} bytes, restored session reports",
        bytes.len()
    );
    println!(
        "  aggregation_runs = {} (the stats still describe the original build: peak {} states)",
        restored.aggregation_runs(),
        restored
            .aggregation_stats()
            .expect("compositional")
            .peak
            .states,
    );
    let a = built.unreliability(1.0)?.value();
    let b = restored.unreliability(1.0)?.value();
    assert_eq!(a.to_bits(), b.to_bits());
    println!("  unreliability(1.0) = {b} — bit-identical to the built session");

    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(())
}
