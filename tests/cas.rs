//! Experiment E2 — the cardiac assist system (Section 5.1 of the paper).
//!
//! The paper (and the original Galileo/DIFTree tool) reports an unreliability of
//! 0.6579 at mission time 1, with each aggregated module I/O-IMC having a handful
//! of states.  We check the probability against both analysis methods and keep an
//! eye on the model sizes.

use dftmc::dft_core::analysis::{aggregated_model, AnalysisOptions, Method};
use dftmc::dft_core::baseline::monolithic_ctmc;
use dftmc::dft_core::casestudies::{
    cas, cas_cpu_unit, cas_motor_unit, cas_pump_unit, CAS_PAPER_UNRELIABILITY,
};
use dftmc::dft_core::engine::Analyzer;

#[test]
fn cas_unreliability_matches_the_paper() {
    let dft = cas();
    let result = Analyzer::new(&dft, AnalysisOptions::default())
        .and_then(|a| a.unreliability(1.0))
        .expect("analysis succeeds");
    assert!(
        (result.value() - CAS_PAPER_UNRELIABILITY).abs() < 5e-4,
        "compositional unreliability {} vs paper {CAS_PAPER_UNRELIABILITY}",
        result.value()
    );
    // The FDEP trigger fails both CPUs at the same instant; the resulting ordering
    // non-determinism is confluent, so the bounds must coincide.
    let (lo, hi) = result.bounds();
    assert!(
        (hi - lo).abs() < 1e-9,
        "bounds [{lo}, {hi}] should coincide"
    );
}

#[test]
fn cas_monolithic_baseline_agrees() {
    let dft = cas();
    let mono = Analyzer::new(
        &dft,
        AnalysisOptions {
            method: Method::Monolithic,
            ..AnalysisOptions::default()
        },
    )
    .and_then(|a| a.unreliability(1.0))
    .expect("baseline succeeds");
    assert!((mono.value() - CAS_PAPER_UNRELIABILITY).abs() < 5e-4);
}

#[test]
fn cas_unreliability_is_monotone_in_time() {
    let dft = cas();
    let options = AnalysisOptions::default();
    let mut previous = 0.0;
    for t in [0.25, 0.5, 1.0, 2.0] {
        let r = Analyzer::new(&dft, options.clone())
            .and_then(|a| a.unreliability(t))
            .expect("analysis succeeds");
        assert!(r.value() >= previous - 1e-12);
        previous = r.value();
    }
    assert!(previous < 1.0);
}

#[test]
fn cas_modules_aggregate_to_small_ioimcs() {
    // The paper reports ~6 states for each aggregated module; our counting keeps
    // the firing/fired machinery and activation interface visible, so allow some
    // slack while still requiring the modules to be tiny compared to a monolithic
    // chain over the same components.
    for (name, module) in [
        ("CPU unit", cas_cpu_unit()),
        ("Motor unit", cas_motor_unit()),
        ("Pump unit", cas_pump_unit()),
    ] {
        let (model, stats) = aggregated_model(&module).expect("aggregation succeeds");
        assert!(
            model.num_states() <= 20,
            "{name}: expected a small aggregated module, got {} states",
            model.num_states()
        );
        assert!(
            stats.peak.states < 200,
            "{name}: peak {}",
            stats.peak.states
        );
    }
}

#[test]
fn cas_module_unreliabilities_compose_to_the_system_value() {
    // The three units are independent and the system is an OR over them, so the
    // system unreliability must equal 1 - prod(1 - U_i).  This is exactly the
    // modular-analysis argument of the paper.
    let options = AnalysisOptions::default();
    let t = 1.0;
    let u_cpu = Analyzer::new(&cas_cpu_unit(), options.clone())
        .and_then(|a| a.unreliability(t))
        .unwrap()
        .value();
    let u_motor = Analyzer::new(&cas_motor_unit(), options.clone())
        .and_then(|a| a.unreliability(t))
        .unwrap()
        .value();
    let u_pump = Analyzer::new(&cas_pump_unit(), options.clone())
        .and_then(|a| a.unreliability(t))
        .unwrap()
        .value();
    let composed = 1.0 - (1.0 - u_cpu) * (1.0 - u_motor) * (1.0 - u_pump);
    let system = Analyzer::new(&cas(), options.clone())
        .and_then(|a| a.unreliability(t))
        .unwrap()
        .value();
    assert!(
        (composed - system).abs() < 1e-6,
        "modular composition {composed} vs direct analysis {system}"
    );
    assert!((system - CAS_PAPER_UNRELIABILITY).abs() < 5e-4);
}

#[test]
fn cas_monolithic_chain_is_much_larger_than_module_chains() {
    // Galileo solves the three modules separately (largest: 8 states for the pump
    // unit); a single chain over the full CAS is far larger.  This documents the
    // state-space gap the compositional/modular analysis avoids.
    let full = monolithic_ctmc(&cas()).expect("baseline builds");
    let pump = monolithic_ctmc(&cas_pump_unit()).expect("baseline builds");
    // The paper: "the biggest generated CTMC (the pump unit) had 8 states".
    assert_eq!(
        pump.num_states(),
        8,
        "pump unit chain has {} states",
        pump.num_states()
    );
    assert!(
        full.num_states() > 10 * pump.num_states(),
        "full chain ({}) should dwarf the pump unit chain ({})",
        full.num_states(),
        pump.num_states()
    );
}
