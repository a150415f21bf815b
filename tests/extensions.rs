//! Experiment E7 — element extensions (Section 7.1): inhibition and mutually
//! exclusive events, plus the SEQ gate that the paper notes is expressible as a
//! cold spare.

use dftmc::dft::{DftBuilder, Dormancy};
use dftmc::dft_core::analysis::AnalysisOptions;
use dftmc::dft_core::engine::Analyzer;

fn options() -> AnalysisOptions {
    AnalysisOptions::default()
}

#[test]
fn inhibition_reduces_the_failure_probability() {
    // B's failure is inhibited when A fails first; the system observes B (through
    // the inhibition gate).  Compare against the uninhibited system.
    let mut b = DftBuilder::new();
    let a = b.basic_event("A", 1.0, Dormancy::Hot).unwrap();
    let bb = b.basic_event("B", 1.0, Dormancy::Hot).unwrap();
    let inhibited = b.inhibit_gate("B_inhibited", bb, &[a]).unwrap();
    let top = b.or_gate("system", &[inhibited]).unwrap();
    let dft = b.build(top).unwrap();
    let t = 1.0;
    let with_inhibition = Analyzer::new(&dft, options())
        .and_then(|a| a.unreliability(t))
        .unwrap()
        .value();

    // With equal rates, B fails before A with probability 1/2, so for long mission
    // times the inhibited failure probability tends to 1/2; at t=1 it is exactly
    // P(B < A, B <= 1) = (1 - e^-2)/2.
    let exact = (1.0 - (-2.0f64).exp()) / 2.0;
    assert!(
        (with_inhibition - exact).abs() < 1e-6,
        "{with_inhibition} vs {exact}"
    );
    let without = 1.0 - (-1.0f64).exp();
    assert!(with_inhibition < without);
}

#[test]
fn mutually_exclusive_failure_modes_never_both_occur() {
    // A switch with two mutually exclusive failure modes: fails-open and
    // fails-closed inhibit each other.  The AND of both modes can then never fail,
    // while the OR fails as soon as either mode occurs.
    let mut b = DftBuilder::new();
    let open = b.basic_event("fails_open", 0.3, Dormancy::Hot).unwrap();
    let closed = b.basic_event("fails_closed", 0.7, Dormancy::Hot).unwrap();
    let open_mode = b.inhibit_gate("open_mode", open, &[closed]).unwrap();
    let closed_mode = b.inhibit_gate("closed_mode", closed, &[open]).unwrap();
    let both = b.and_gate("both_modes", &[open_mode, closed_mode]).unwrap();
    let top = b.or_gate("observer", &[both]).unwrap();
    let dft = b.build(top).unwrap();
    let r = Analyzer::new(&dft, options())
        .and_then(|a| a.unreliability(10.0))
        .unwrap();
    assert!(
        r.value() < 1e-9,
        "mutually exclusive modes must never both occur, got {}",
        r.value()
    );

    // The OR of the two modes behaves like a single component with the summed rate.
    let mut b = DftBuilder::new();
    let open = b.basic_event("fails_open", 0.3, Dormancy::Hot).unwrap();
    let closed = b.basic_event("fails_closed", 0.7, Dormancy::Hot).unwrap();
    let open_mode = b.inhibit_gate("open_mode", open, &[closed]).unwrap();
    let closed_mode = b.inhibit_gate("closed_mode", closed, &[open]).unwrap();
    let either = b.or_gate("either_mode", &[open_mode, closed_mode]).unwrap();
    let dft = b.build(either).unwrap();
    let t = 1.3;
    let r = Analyzer::new(&dft, options())
        .and_then(|a| a.unreliability(t))
        .unwrap();
    let exact = 1.0 - (-t).exp();
    assert!((r.value() - exact).abs() < 1e-6, "{} vs {exact}", r.value());
}

#[test]
fn seq_gate_behaves_like_a_cold_spare_chain() {
    // SEQ(A, B) with cold B: B can only start failing after A has failed, so the
    // failure time is Erlang(2, λ) — exactly the cold-spare emulation mentioned in
    // the paper's footnote about the sequence-enforcing gate.
    let mut b = DftBuilder::new();
    let a = b.basic_event("A", 1.0, Dormancy::Hot).unwrap();
    let bb = b.basic_event("B", 1.0, Dormancy::Cold).unwrap();
    let top = b.seq_gate("system", &[a, bb]).unwrap();
    let dft = b.build(top).unwrap();
    let t = 1.0;
    let r = Analyzer::new(&dft, options())
        .and_then(|a| a.unreliability(t))
        .unwrap();
    let erlang = 1.0 - (-t).exp() * (1.0 + t);
    assert!(
        (r.value() - erlang).abs() < 1e-6,
        "{} vs {erlang}",
        r.value()
    );
}

#[test]
fn inhibition_with_multiple_inhibitors() {
    // B is inhibited by whichever of A1, A2 fails first.
    let mut b = DftBuilder::new();
    let a1 = b.basic_event("A1", 1.0, Dormancy::Hot).unwrap();
    let a2 = b.basic_event("A2", 1.0, Dormancy::Hot).unwrap();
    let bb = b.basic_event("B", 1.0, Dormancy::Hot).unwrap();
    let gate = b.inhibit_gate("B_gate", bb, &[a1, a2]).unwrap();
    let top = b.or_gate("system", &[gate]).unwrap();
    let dft = b.build(top).unwrap();
    let r = Analyzer::new(&dft, options())
        .and_then(|a| a.unreliability(50.0))
        .unwrap();
    // For a long horizon: P(B fails before both inhibitors) = 1/3.
    assert!((r.value() - 1.0 / 3.0).abs() < 1e-3, "{}", r.value());
}

#[test]
fn new_elements_do_not_disturb_existing_ones() {
    // Section 7's point: adding elements only adds elementary models.  A tree that
    // mixes an inhibition gate with ordinary gates still analyses fine and the
    // non-extended part keeps its exact value.
    let mut b = DftBuilder::new();
    let a = b.basic_event("A", 1.0, Dormancy::Hot).unwrap();
    let bb = b.basic_event("B", 1.0, Dormancy::Hot).unwrap();
    let c = b.basic_event("C", 2.0, Dormancy::Hot).unwrap();
    let inhibit = b.inhibit_gate("inh", bb, &[a]).unwrap();
    let plain = b.and_gate("plain", &[a, c]).unwrap();
    let top = b.or_gate("system", &[inhibit, plain]).unwrap();
    let dft = b.build(top).unwrap();
    let r = Analyzer::new(&dft, options())
        .and_then(|a| a.unreliability(1.0))
        .unwrap();
    assert!(r.value() > 0.0 && r.value() < 1.0);
    let (lo, hi) = r.bounds();
    assert!((hi - lo).abs() < 1e-9);
}
