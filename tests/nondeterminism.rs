//! Experiment E5 — simultaneity and non-determinism (Section 4.4, Figure 6).
//!
//! When an FDEP trigger forces several dependent events to fail at the same
//! instant, the order in which their failure signals are processed is genuinely
//! non-deterministic.  The framework must (a) detect this, (b) report bounds, and
//! (c) keep the bounds tight (equal) whenever the non-determinism is confluent.

use dftmc::dft::{Dft, DftBuilder, Dormancy};
use dftmc::dft_core::analysis::AnalysisOptions;
use dftmc::dft_core::engine::Analyzer;

/// Figure 6(a): a PAND gate whose two inputs share an FDEP trigger.
fn figure_6a(trigger_rate: f64) -> Dft {
    let mut b = DftBuilder::new();
    let t = b.basic_event("T", trigger_rate, Dormancy::Hot).unwrap();
    let a = b.basic_event("A", 1.0, Dormancy::Hot).unwrap();
    let bb = b.basic_event("B", 1.0, Dormancy::Hot).unwrap();
    let _fdep = b.fdep_gate("FDEP", t, &[a, bb]).unwrap();
    let top = b.pand_gate("system", &[a, bb]).unwrap();
    b.build(top).unwrap()
}

#[test]
fn fdep_under_a_pand_is_detected_as_nondeterministic() {
    let dft = figure_6a(0.5);
    let r = Analyzer::new(&dft, AnalysisOptions::default())
        .and_then(|a| a.unreliability(1.0))
        .expect("analysis succeeds");
    assert!(r.is_nondeterministic());
    let (lo, hi) = r.bounds();
    assert!(lo < hi, "expected a proper interval, got [{lo}, {hi}]");
    assert!(lo >= 0.0 && hi <= 1.0);
    // The pessimistic value reported by `value()` is the upper bound.
    assert!((r.value() - hi).abs() < 1e-12);
}

#[test]
fn interval_width_equals_probability_that_the_order_matters() {
    // The ordering of the simultaneous failures only matters on runs where the
    // trigger fires before both A and B have failed naturally *and* A has not yet
    // failed (if A already failed in order, the PAND outcome is already decided).
    // A cheap sanity check: the width grows with the trigger rate.
    let options = AnalysisOptions::default();
    let narrow = Analyzer::new(&figure_6a(0.1), options.clone())
        .and_then(|a| a.unreliability(1.0))
        .unwrap();
    let wide = Analyzer::new(&figure_6a(2.0), options.clone())
        .and_then(|a| a.unreliability(1.0))
        .unwrap();
    let width = |r: &dftmc::dft_core::MeasureResult| {
        let (lo, hi) = r.bounds();
        hi - lo
    };
    assert!(width(&wide) > width(&narrow));
}

#[test]
fn confluent_nondeterminism_keeps_bounds_tight() {
    // The same FDEP trigger feeding two dependents below an AND gate: the order of
    // the simultaneous failures cannot influence the AND gate, so min and max must
    // agree even though immediate non-determinism exists in intermediate models.
    let mut b = DftBuilder::new();
    let t = b.basic_event("nd_T", 0.5, Dormancy::Hot).unwrap();
    let a = b.basic_event("nd_A", 1.0, Dormancy::Hot).unwrap();
    let bb = b.basic_event("nd_B", 1.0, Dormancy::Hot).unwrap();
    let _fdep = b.fdep_gate("nd_FDEP", t, &[a, bb]).unwrap();
    let top = b.and_gate("nd_system", &[a, bb]).unwrap();
    let dft = b.build(top).unwrap();
    let r = Analyzer::new(&dft, AnalysisOptions::default())
        .and_then(|a| a.unreliability(1.0))
        .unwrap();
    let (lo, hi) = r.bounds();
    assert!(
        (hi - lo).abs() < 1e-9,
        "bounds [{lo}, {hi}] should coincide"
    );
}

#[test]
fn bounds_bracket_the_deterministic_resolution_of_the_baseline() {
    // The monolithic baseline resolves simultaneous failures deterministically in
    // input order; its value must lie within the CTMDP bounds.
    use dftmc::dft_core::analysis::Method;
    let dft = figure_6a(0.5);
    let options = AnalysisOptions::default();
    let comp = Analyzer::new(&dft, options.clone())
        .and_then(|a| a.unreliability(1.0))
        .unwrap();
    let mono = Analyzer::new(
        &dft,
        AnalysisOptions {
            method: Method::Monolithic,
            ..options
        },
    )
    .and_then(|a| a.unreliability(1.0))
    .unwrap();
    let (lo, hi) = comp.bounds();
    assert!(
        mono.value() >= lo - 1e-9 && mono.value() <= hi + 1e-9,
        "baseline {} outside [{lo}, {hi}]",
        mono.value()
    );
}

#[test]
fn spare_contention_after_a_common_trigger_is_nondeterministic() {
    // Figure 6(b) made observable: the system fails only if the left spare gate
    // fails before the right one, so which gate wins the shared spare matters.
    let mut b = DftBuilder::new();
    let t = b.basic_event("sc_T", 0.5, Dormancy::Hot).unwrap();
    let a = b.basic_event("sc_A", 1.0, Dormancy::Hot).unwrap();
    let bb = b.basic_event("sc_B", 2.0, Dormancy::Hot).unwrap();
    let s = b.basic_event("sc_S", 1.5, Dormancy::Cold).unwrap();
    let _fdep = b.fdep_gate("sc_FDEP", t, &[a, bb]).unwrap();
    let left = b.spare_gate("sc_left", &[a, s]).unwrap();
    let right = b.spare_gate("sc_right", &[bb, s]).unwrap();
    let top = b.pand_gate("sc_system", &[left, right]).unwrap();
    let dft = b.build(top).unwrap();
    let r = Analyzer::new(&dft, AnalysisOptions::default())
        .and_then(|a| a.unreliability(1.0))
        .unwrap();
    assert!(r.is_nondeterministic());
    let (lo, hi) = r.bounds();
    assert!(hi > lo);
}
