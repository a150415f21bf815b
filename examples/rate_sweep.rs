//! Rate sweep: aggregate the cardiac assist system's *structure* once, then
//! instantiate a whole failure-rate sensitivity sweep at query time.
//!
//! The classical workflow rebuilds the full compositional pipeline for every
//! rate variant ([`cas_scaled`] per scale).  The [`ParametricAnalyzer`] instead
//! threads symbolic linear rate forms through composition and bisimulation
//! minimisation, so the expensive aggregation runs once and each sweep point
//! only evaluates linear forms into a fresh CTMC/CTMDP.
//!
//! Run with `cargo run --release --example rate_sweep`.

use dftmc::dft_core::casestudies::cas;
use dftmc::dft_core::engine::ParametricAnalyzer;
use dftmc::dft_core::parametric::ParamKind;
use dftmc::dft_core::{AnalysisOptions, Measure};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build the parametric session: conversion + compositional aggregation,
    // once for the whole sweep.
    let started = Instant::now();
    let parametric = ParametricAnalyzer::new(&cas(), AnalysisOptions::default())?;
    println!(
        "parametric model built in {:.1?}: {} states, {} parameter slots",
        started.elapsed(),
        parametric.model_stats().states,
        parametric.params().len()
    );

    // Sweep the global failure-rate scale: 25 valuations, zero re-aggregations.
    let valuations: Vec<_> = (0..25)
        .map(|i| parametric.params().scaled_valuation(1.0 + 0.05 * i as f64))
        .collect();
    let started = Instant::now();
    let sweep = parametric.sweep_query(&[Measure::Unreliability(1.0)], &valuations);
    println!(
        "25-point sweep answered in {:.1?} (instantiate {:.1?}, query {:.1?})",
        started.elapsed(),
        sweep.instantiate_time(),
        sweep.query_time()
    );
    println!("\n{:>8} {:>16}", "scale", "unreliability");
    for (i, row) in sweep.results().iter().enumerate() {
        let row = row.as_ref().map_err(Clone::clone)?;
        println!("{:>8.2} {:>16.8}", 1.0 + 0.05 * i as f64, row[0].value());
    }
    assert_eq!(parametric.aggregation_runs(), 1);

    // Slots are per basic event, so single-component sensitivity is the same
    // one-liner: double only the pump PA's failure rate.
    let slot = parametric
        .params()
        .slot_of("PA", ParamKind::Failure)
        .expect("the CAS has a PA pump");
    let mut valuation = parametric.base_valuation();
    valuation.set(slot, 2.0);
    let session = parametric.instantiate(&valuation)?;
    println!(
        "\nwith PA's rate doubled: unreliability(1) = {:.6} (no re-aggregation, runs = {})",
        session.unreliability(1.0)?.value(),
        session.aggregation_runs()
    );
    Ok(())
}
