//! Differential tests for the hybrid static/dynamic backend.
//!
//! The hybrid method ([`Method::Hybrid`]) BDD-solves the static crown of a
//! fault tree and runs the compositional I/O-IMC pipeline only inside the
//! dynamic cores.  Its oracle is the pure state-space analysis: on every tree
//! where both run, the two must agree far below the numerical tolerance of
//! the transient analysis.  Random cases are drawn from the same seeded
//! generator as `property_based.rs` so failures replay by seed.

use dftmc::dft::bdd::Bdd;
use dftmc::dft::{galileo, Dft, DftBuilder, Dormancy};
use dftmc::dft_core::analysis::{AnalysisOptions, Method};
use dftmc::dft_core::engine::{Analyzer, ParametricAnalyzer};
use dftmc::dft_core::request::AnalysisRequest;
use dftmc::dft_core::service::{AnalysisService, RequestOutcome, ServiceOptions};
use dftmc::dft_core::{casestudies, Measure};

mod common;
use common::{build_module, random_recipe, Gen};

/// Tight truncation bound so the uniformisation error cannot mask a real
/// disagreement with the closed-form BDD evaluation.
fn options(method: Method) -> AnalysisOptions {
    AnalysisOptions {
        epsilon: 1e-13,
        method,
    }
}

const TOLERANCE: f64 = 1e-12;
const TIMES: [f64; 4] = [0.25, 0.5, 1.0, 2.0];

fn curve(dft: &Dft, method: Method) -> Vec<f64> {
    Analyzer::new(dft, options(method))
        .unwrap()
        .unreliability_curve(&TIMES)
        .unwrap()
        .points()
        .iter()
        .map(|p| p.value())
        .collect()
}

fn assert_curves_match(a: &[f64], b: &[f64], context: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= TOLERANCE,
            "{context}: t={} diverges: {x} vs {y}",
            TIMES[i]
        );
    }
}

/// A random mixed tree: a random static module OR'd with a cold-spare pair,
/// so the hybrid plan always finds both a crown and a dynamic core.
fn random_mixed_tree(seed: u64, prefix: &str) -> Dft {
    let mut gen = Gen::new(seed);
    let recipe = random_recipe(&mut gen);
    let mut b = DftBuilder::new();
    let module = build_module(&mut b, &recipe, prefix);
    let p = b
        .basic_event(&format!("{prefix}_p"), gen.f64_in(0.2, 2.0), Dormancy::Hot)
        .unwrap();
    let s = b
        .basic_event(&format!("{prefix}_s"), gen.f64_in(0.2, 2.0), Dormancy::Cold)
        .unwrap();
    let spare = b.spare_gate(&format!("{prefix}_spare"), &[p, s]).unwrap();
    let top = b
        .or_gate(&format!("{prefix}_top"), &[module, spare])
        .unwrap();
    b.build(top).unwrap()
}

/// On purely static trees the BDD closed form and the state-space transient
/// analysis are two completely independent paths to the same number.
#[test]
fn bdd_matches_state_space_on_random_static_trees() {
    for case in 0..24u64 {
        let mut gen = Gen::new(0xb0d_d000 + case);
        let recipe = random_recipe(&mut gen);
        let mut b = DftBuilder::new();
        let top = build_module(&mut b, &recipe, &format!("hyb{case}"));
        let dft = b.build(top).unwrap();

        let bdd = Bdd::for_tree(&dft).unwrap();
        let closed: Vec<f64> = TIMES.iter().map(|&t| bdd.unreliability(&dft, t)).collect();
        let state_space = curve(&dft, Method::Compositional);
        assert_curves_match(&closed, &state_space, &format!("static seed {case}"));
    }
}

/// The hybrid backend must match the pure state-space analysis on the paper's
/// two case studies end to end.
#[test]
fn hybrid_matches_state_space_on_the_case_studies() {
    for (name, dft) in [("cas", casestudies::cas()), ("cps", casestudies::cps())] {
        let reference = curve(&dft, Method::Compositional);
        let hybrid = curve(&dft, Method::Hybrid);
        assert_curves_match(&hybrid, &reference, name);
    }
}

/// Random mixed trees: a static module plus a spare pair. The hybrid session
/// must genuinely decompose (module stats present) and still agree with the
/// pure state-space analysis.
#[test]
fn hybrid_matches_state_space_on_random_mixed_trees() {
    for case in 0..12u64 {
        let dft = random_mixed_tree(0x4b1d_0000 + case, &format!("mix{case}"));
        let reference = curve(&dft, Method::Compositional);
        let analyzer = Analyzer::new(&dft, options(Method::Hybrid)).unwrap();
        let stats = analyzer
            .module_stats()
            .expect("a spare pair plus a static module must decompose");
        assert!(stats.core_count >= 1, "seed {case}: no dynamic core found");
        let hybrid: Vec<f64> = analyzer
            .unreliability_curve(&TIMES)
            .unwrap()
            .points()
            .iter()
            .map(|p| p.value())
            .collect();
        assert_curves_match(&hybrid, &reference, &format!("mixed seed {case}"));
    }
}

/// The parametric hybrid sweep must agree with instantiating each valuation
/// and querying the resulting numeric hybrid session.
#[test]
fn parametric_hybrid_sweep_matches_instantiate_plus_query() {
    let dft = random_mixed_tree(0x9a7a_0001, "par");
    let parametric = ParametricAnalyzer::new(&dft, options(Method::Hybrid)).unwrap();
    let valuations: Vec<_> = [0.5, 1.0, 1.75]
        .iter()
        .map(|&scale| parametric.params().scaled_valuation(scale))
        .collect();
    let sweep = parametric.sweep_query(&[Measure::UnreliabilityCurve(TIMES.to_vec())], &valuations);
    for (lane, valuation) in valuations.iter().enumerate() {
        let direct = parametric
            .instantiate(valuation)
            .unwrap()
            .unreliability_curve(&TIMES)
            .unwrap();
        let swept = &sweep.results()[lane].as_ref().unwrap()[0];
        for (a, b) in swept.points().iter().zip(direct.points()) {
            assert_eq!(
                a.value().to_bits(),
                b.value().to_bits(),
                "lane {lane}: sweep and instantiate+query diverged"
            );
        }
    }
}

/// The acceptance bar of the issue: on a static-heavy tree the hybrid
/// decomposition must shrink the closed state space by at least 10x while
/// reproducing the pure state-space unreliability curve.
#[test]
fn hybrid_shrinks_the_state_space_tenfold_on_a_static_heavy_tree() {
    // One cold-spare pair carries all the dynamism; a 9-event static
    // structure of distinct rates rides above it.
    let mut b = DftBuilder::new();
    let mut statics = Vec::new();
    for i in 0..9 {
        let rate = 0.3 + 0.1 * i as f64;
        statics.push(
            b.basic_event(&format!("sh_e{i}"), rate, Dormancy::Hot)
                .unwrap(),
        );
    }
    let a1 = b.and_gate("sh_a1", &statics[0..3]).unwrap();
    let a2 = b.voting_gate("sh_v", 2, &statics[3..6]).unwrap();
    let a3 = b.or_gate("sh_o", &statics[6..9]).unwrap();
    let p = b.basic_event("sh_p", 1.0, Dormancy::Hot).unwrap();
    let s = b.basic_event("sh_s", 1.0, Dormancy::Cold).unwrap();
    let spare = b.spare_gate("sh_spare", &[p, s]).unwrap();
    let top = b.or_gate("sh_top", &[a1, a2, a3, spare]).unwrap();
    let dft = b.build(top).unwrap();

    let pure = Analyzer::new(&dft, options(Method::Compositional)).unwrap();
    let hybrid = Analyzer::new(&dft, options(Method::Hybrid)).unwrap();
    let stats = hybrid.module_stats().expect("the tree must decompose");
    assert!(stats.crown_elements > 0 && stats.core_count == 1);

    let pure_states = pure.model_stats().states;
    let hybrid_states = hybrid.model_stats().states.max(1);
    assert!(
        pure_states >= 10 * hybrid_states,
        "only {pure_states} vs {hybrid_states} states — less than the promised 10x"
    );

    let reference: Vec<f64> = pure
        .unreliability_curve(&TIMES)
        .unwrap()
        .points()
        .iter()
        .map(|p| p.value())
        .collect();
    let reduced: Vec<f64> = hybrid
        .unreliability_curve(&TIMES)
        .unwrap()
        .points()
        .iter()
        .map(|p| p.value())
        .collect();
    assert_curves_match(&reduced, &reference, "static-heavy");
}

/// A 50,000-deep static chain (one-input OR gates over one unit-rate event)
/// compiles to its one-variable crown BDD through the service: neither the
/// Galileo build nor the crown compile recurses per tree level.
#[test]
fn a_deep_static_chain_runs_hybrid_through_the_service() {
    let depth = 50_000;
    let mut text = String::from("toplevel \"G0\";\n");
    for i in 0..depth {
        text.push_str(&format!("\"G{i}\" or \"G{}\";\n", i + 1));
    }
    text.push_str(&format!("\"G{depth}\" lambda=1;\n"));
    let mut request = AnalysisRequest::new(galileo::parse(&text).unwrap());
    request.options.method = Method::Hybrid;
    request.measures.push(Measure::Unreliability(1.0));
    let service = AnalysisService::new(ServiceOptions::default());
    let RequestOutcome::Job(report) = service.run_request(request) else {
        panic!("a request without a sweep answers with a job report");
    };
    let value = report.results.unwrap()[0].value();
    let exact = 1.0 - (-1.0f64).exp();
    assert!((value - exact).abs() < 1e-12, "{value} vs {exact}");
}
