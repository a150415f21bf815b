//! Experiment E8 — the repair extension (Section 7.2, Figures 13–15):
//! repairable basic events, repairable static gates and unavailability analysis.

use dftmc::dft::{DftBuilder, Dormancy};
use dftmc::dft_core::analysis::AnalysisOptions;
use dftmc::dft_core::engine::Analyzer;

fn options() -> AnalysisOptions {
    AnalysisOptions::default()
}

/// Steady-state unavailability of a single repairable component.
fn component_unavailability(lambda: f64, mu: f64) -> f64 {
    lambda / (lambda + mu)
}

#[test]
fn figure_15_repairable_and_gate() {
    // The paper's Figure 15: an AND gate over two repairable basic events
    // composes/aggregates into a small CTMC whose steady state gives the system
    // unavailability.  For independent components that value is the product of the
    // component unavailabilities.
    let mut b = DftBuilder::new();
    let a = b
        .repairable_basic_event("A", 1.0, Dormancy::Hot, 10.0)
        .unwrap();
    let bb = b
        .repairable_basic_event("B", 2.0, Dormancy::Hot, 10.0)
        .unwrap();
    let top = b.and_gate("system", &[a, bb]).unwrap();
    let dft = b.build(top).unwrap();
    let analyzer = Analyzer::new(&dft, options()).unwrap();
    let r = analyzer.unavailability().unwrap().value();
    let exact = component_unavailability(1.0, 10.0) * component_unavailability(2.0, 10.0);
    assert!((r - exact).abs() < 1e-6, "{r} vs {exact}");
    // The aggregated model stays tiny (the paper's Figure 15(b) has 4 states; our
    // monitor adds little).
    let states = analyzer.model_stats().states;
    assert!(states <= 10, "final model has {states} states");
}

#[test]
fn or_of_repairable_components() {
    let mut b = DftBuilder::new();
    let a = b
        .repairable_basic_event("A", 1.0, Dormancy::Hot, 4.0)
        .unwrap();
    let bb = b
        .repairable_basic_event("B", 0.5, Dormancy::Hot, 2.0)
        .unwrap();
    let top = b.or_gate("system", &[a, bb]).unwrap();
    let dft = b.build(top).unwrap();
    let r = Analyzer::new(&dft, options())
        .and_then(|a| a.unavailability())
        .unwrap()
        .value();
    // OR is down unless both components are up: 1 - prod(availability).
    let exact = 1.0
        - (1.0 - component_unavailability(1.0, 4.0)) * (1.0 - component_unavailability(0.5, 2.0));
    assert!((r - exact).abs() < 1e-6, "{} vs {exact}", r);
}

#[test]
fn voting_gate_unavailability() {
    // 2-out-of-3 with identical repairable components: closed-form from the
    // binomial over independent component unavailabilities.
    let q = component_unavailability(0.2, 1.0);
    let mut b = DftBuilder::new();
    let s: Vec<_> = (0..3)
        .map(|i| {
            b.repairable_basic_event(&format!("S{i}"), 0.2, Dormancy::Hot, 1.0)
                .unwrap()
        })
        .collect();
    let top = b.voting_gate("voter", 2, &s).unwrap();
    let dft = b.build(top).unwrap();
    let r = Analyzer::new(&dft, options())
        .and_then(|a| a.unavailability())
        .unwrap()
        .value();
    let exact = 3.0 * q * q * (1.0 - q) + q * q * q;
    assert!((r - exact).abs() < 1e-6, "{} vs {exact}", r);
}

#[test]
fn mixed_repairable_and_unrepairable_components() {
    // One unrepairable component in an OR: in the long run the system is down with
    // probability 1, and unreliability is driven by the unrepairable part.
    let mut b = DftBuilder::new();
    let a = b
        .repairable_basic_event("A", 1.0, Dormancy::Hot, 5.0)
        .unwrap();
    let bb = b.basic_event("B", 0.1, Dormancy::Hot).unwrap();
    let top = b.or_gate("system", &[a, bb]).unwrap();
    let dft = b.build(top).unwrap();
    let r = Analyzer::new(&dft, options())
        .and_then(|a| a.unavailability())
        .unwrap()
        .value();
    assert!(r > 0.99, "unrepairable leaf should dominate: {}", r);
}

#[test]
fn repairable_tree_unreliability_is_lower_than_unrepairable() {
    // With repair, the probability of being continuously exposed to failure drops:
    // time-bounded reachability of the failed state for the AND gate must be lower
    // than without repair.
    let t = 2.0;
    let mut b = DftBuilder::new();
    let a = b
        .repairable_basic_event("A", 1.0, Dormancy::Hot, 5.0)
        .unwrap();
    let bb = b
        .repairable_basic_event("B", 1.0, Dormancy::Hot, 5.0)
        .unwrap();
    let top = b.and_gate("system", &[a, bb]).unwrap();
    let repairable = b.build(top).unwrap();
    let with_repair = Analyzer::new(&repairable, options())
        .and_then(|a| a.unreliability(t))
        .unwrap()
        .value();

    let mut b = DftBuilder::new();
    let a = b.basic_event("A", 1.0, Dormancy::Hot).unwrap();
    let bb = b.basic_event("B", 1.0, Dormancy::Hot).unwrap();
    let top = b.and_gate("system", &[a, bb]).unwrap();
    let unrepairable = b.build(top).unwrap();
    let without_repair = Analyzer::new(&unrepairable, options())
        .and_then(|a| a.unreliability(t))
        .unwrap()
        .value();

    assert!(with_repair < without_repair);
    assert!(with_repair > 0.0);
}

#[test]
fn deeper_repairable_trees_analyse_correctly() {
    // OR over an AND and a single component, everything repairable.
    let mut b = DftBuilder::new();
    let a = b
        .repairable_basic_event("A", 1.0, Dormancy::Hot, 10.0)
        .unwrap();
    let c = b
        .repairable_basic_event("C", 1.0, Dormancy::Hot, 10.0)
        .unwrap();
    let d = b
        .repairable_basic_event("D", 0.2, Dormancy::Hot, 5.0)
        .unwrap();
    let and = b.and_gate("pair", &[a, c]).unwrap();
    let top = b.or_gate("system", &[and, d]).unwrap();
    let dft = b.build(top).unwrap();
    let r = Analyzer::new(&dft, options())
        .and_then(|a| a.unavailability())
        .unwrap()
        .value();
    let qa = component_unavailability(1.0, 10.0);
    let qd = component_unavailability(0.2, 5.0);
    let exact = 1.0 - (1.0 - qa * qa) * (1.0 - qd);
    assert!((r - exact).abs() < 1e-6, "{} vs {exact}", r);
}

#[test]
fn unavailability_errors_are_informative() {
    // Not repairable at all.
    let mut b = DftBuilder::new();
    let a = b.basic_event("A", 1.0, Dormancy::Hot).unwrap();
    let top = b.or_gate("system", &[a]).unwrap();
    let dft = b.build(top).unwrap();
    let err = Analyzer::new(&dft, options())
        .and_then(|a| a.unavailability())
        .unwrap_err();
    assert!(err.to_string().contains("repairable"));
}
