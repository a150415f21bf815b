//! Experiment E6 — modular model building (Section 6, Figure 10): complex spares
//! and FDEPs triggering gates, plus the module-reuse argument of Section 5.2.

use dftmc::dft::modules::{hybrid_plan, independent_modules, ModuleInfo};
use dftmc::dft::{galileo, Dft, DftBuilder, Dormancy};
use dftmc::dft_core::analysis::AnalysisOptions;
use dftmc::dft_core::casestudies::{cas, cps};
use dftmc::dft_core::rng::SplitMix64;
use dftmc::dft_core::Analyzer;
use dftmc::ioimc::rename::rename;
use dftmc::ioimc::Action;
use std::collections::{BTreeMap, BTreeSet};

mod common;
use common::random_galileo;

fn unrel(dft: &Dft, t: f64) -> f64 {
    Analyzer::new(dft, AnalysisOptions::default())
        .unwrap()
        .unreliability(t)
        .unwrap()
        .value()
}

/// Figure 10(a): AND sub-systems as primary and spare of a spare gate.
fn complex_spare_system(dormancy: Dormancy) -> Dft {
    let mut b = DftBuilder::new();
    let a = b.basic_event("A", 1.0, Dormancy::Hot).unwrap();
    let a2 = b.basic_event("A2", 1.0, Dormancy::Hot).unwrap();
    let c = b.basic_event("C", 1.0, dormancy).unwrap();
    let d = b.basic_event("D", 1.0, dormancy).unwrap();
    let primary = b.and_gate("primary", &[a, a2]).unwrap();
    let spare = b.and_gate("spare", &[c, d]).unwrap();
    let top = b.spare_gate("system", &[primary, spare]).unwrap();
    b.build(top).unwrap()
}

#[test]
fn cold_complex_spare_cannot_fail_before_activation() {
    // With cold events in the spare module, the spare module can only start
    // failing after the primary module has failed, so the system failure time is
    // the sum of two independent "AND of two exp(1)" completions.
    let dft = complex_spare_system(Dormancy::Cold);
    let t = 1.0;
    let p = unrel(&dft, t);
    // P(two-of-two AND completes by s) = (1 - e^-s)^2; the system failure time is
    // the convolution of two such phases.  Monte-Carlo-free bound checks: it must
    // be below the probability for a single AND phase and above the value for an
    // Erlang(4,1) (the slowest possible ordering).
    let single_phase = (1.0 - (-t).exp()).powi(2);
    assert!(p < single_phase);
    assert!(p > 0.0);
}

#[test]
fn hot_complex_spare_equals_and_of_all_events() {
    // With hot events everywhere, dormancy does not matter and the spare gate
    // degenerates to "system fails when both modules have failed".
    let dft = complex_spare_system(Dormancy::Hot);
    let t = 0.8;
    let p = unrel(&dft, t);
    let p_module = (1.0 - (-t).exp()).powi(2);
    let exact = p_module * p_module;
    assert!((p - exact).abs() < 1e-6, "{p} vs {exact}");
}

#[test]
fn warm_complex_spare_lies_between_cold_and_hot() {
    let t = 1.0;
    let cold = unrel(&complex_spare_system(Dormancy::Cold), t);
    let warm = unrel(&complex_spare_system(Dormancy::Warm(0.5)), t);
    let hot = unrel(&complex_spare_system(Dormancy::Hot), t);
    assert!(cold < warm, "cold {cold} should be below warm {warm}");
    assert!(warm < hot, "warm {warm} should be below hot {hot}");
}

#[test]
fn fdep_can_trigger_a_gate() {
    // Figure 10(c): the trigger fails the sub-tree A as a whole; the events below
    // it keep running.  System = AND(A, B): once T has fired, only B must fail.
    let mut b = DftBuilder::new();
    let t = b.basic_event("T", 0.5, Dormancy::Hot).unwrap();
    let c = b.basic_event("C", 1.0, Dormancy::Hot).unwrap();
    let e = b.basic_event("E", 1.0, Dormancy::Hot).unwrap();
    let gate_a = b.and_gate("A", &[c, e]).unwrap();
    let bb = b.basic_event("B", 1.0, Dormancy::Hot).unwrap();
    let _fdep = b.fdep_gate("FDEP", t, &[gate_a]).unwrap();
    let top = b.and_gate("system", &[gate_a, bb]).unwrap();
    let dft = b.build(top).unwrap();
    let horizon = 1.0;
    let with_trigger = unrel(&dft, horizon);

    // Without the FDEP the system is strictly more reliable.
    let mut b = DftBuilder::new();
    let c = b.basic_event("C", 1.0, Dormancy::Hot).unwrap();
    let e = b.basic_event("E", 1.0, Dormancy::Hot).unwrap();
    let gate_a = b.and_gate("A", &[c, e]).unwrap();
    let bb = b.basic_event("B", 1.0, Dormancy::Hot).unwrap();
    let top = b.and_gate("system", &[gate_a, bb]).unwrap();
    let without_trigger = unrel(&b.build(top).unwrap(), horizon);

    assert!(with_trigger > without_trigger);
    // And the trigger alone is not enough: B must also fail, so the unreliability
    // stays below P(B fails).
    assert!(with_trigger < 1.0 - (-horizon).exp());
}

#[test]
fn cps_modules_are_detected_and_reusable() {
    // The three AND modules of the CPS are independent modules even though their
    // parents are dynamic gates — the property DIFTree cannot exploit but the
    // I/O-IMC framework can (Section 5.2).
    let dft = cps();
    let modules = independent_modules(&dft);
    let module_names: Vec<&str> = modules.iter().map(|m| dft.name(m.root)).collect();
    for name in ["A", "C", "D"] {
        assert!(
            module_names.contains(&name),
            "{name} should be an independent module"
        );
    }

    // Module reuse: aggregate module A once and rename its interface to obtain
    // module C's I/O-IMC without re-analysing it.
    let module_a = {
        let mut b = DftBuilder::new();
        let events: Vec<_> = (0..4)
            .map(|i| {
                b.basic_event(&format!("A_{i}"), 1.0, Dormancy::Hot)
                    .unwrap()
            })
            .collect();
        let top = b.and_gate("A", &events).unwrap();
        b.build(top).unwrap()
    };
    let (aggregated_a, _) =
        dftmc::dft_core::analysis::aggregated_model(&module_a).expect("aggregation succeeds");
    let mut mapping = BTreeMap::new();
    mapping.insert(Action::new("f_A"), Action::new("f_C"));
    let reused_c = rename(&aggregated_a, &mapping).expect("renaming succeeds");
    assert_eq!(reused_c.num_states(), aggregated_a.num_states());
    assert!(reused_c.signature().is_output(Action::new("f_C")));
    assert!(!reused_c.signature().is_output(Action::new("f_A")));
}

/// Independent modules straight from their definition, one descendant set
/// per gate: a gate roots a module when nothing strictly below it has a
/// parent outside its subtree.
fn modules_by_definition(dft: &Dft) -> Vec<ModuleInfo> {
    dft.elements()
        .filter(|&root| dft.element(root).as_gate().is_some())
        .filter_map(|root| {
            let members: BTreeSet<_> = dft.descendants(root).into_iter().collect();
            let closed = members
                .iter()
                .filter(|&&m| m != root)
                .all(|&m| dft.parents(m).iter().all(|p| members.contains(p)));
            closed.then(|| ModuleInfo {
                root,
                dynamic: members.iter().any(|&m| dft.element(m).is_dynamic_gate()),
                members: members.into_iter().collect(),
            })
        })
        .collect()
}

/// The linear-time module detection finds exactly the modules of the
/// definition, and the hybrid plan counts them the same way, on the case
/// studies, the committed corpus and 256 random trees with shared inputs,
/// FDEPs and spares.
#[test]
fn module_detection_matches_the_definition() {
    let mut trees = vec![cas(), cps()];
    for entry in std::fs::read_dir("tests/fixtures/corpus").unwrap() {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        trees.push(galileo::parse(&text).unwrap());
    }
    for seed in 0..256 {
        trees.push(galileo::parse(&random_galileo(&mut SplitMix64::new(seed))).unwrap());
    }
    for dft in &trees {
        let expected = modules_by_definition(dft);
        assert_eq!(
            independent_modules(dft),
            expected,
            "{}",
            galileo::to_galileo(dft)
        );
        let plan = hybrid_plan(dft);
        let in_core = |m: &ModuleInfo| {
            m.members
                .iter()
                .all(|e| plan.crown.binary_search(e).is_err())
        };
        let statics: Vec<&ModuleInfo> = expected.iter().filter(|m| !m.dynamic).collect();
        assert_eq!(plan.stats.static_modules, statics.len());
        assert_eq!(plan.stats.dynamic_modules, expected.len() - statics.len());
        assert_eq!(
            plan.stats.static_modules_retained,
            statics.into_iter().filter(|m| in_core(m)).count()
        );
    }
}
