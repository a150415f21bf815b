//! Property-based tests: random fault trees and random mission times, checked for
//! internal consistency.
//!
//! The key oracle is the agreement between the two completely independent
//! analysis paths — the compositional I/O-IMC pipeline and the DIFTree-style
//! monolithic chain — plus closed-form values for structures where one exists.
//!
//! The random cases are drawn from a seeded [`SplitMix64`] stream (the container
//! carries no external crates, so instead of proptest this file rolls its own
//! minimal generator); every run therefore replays the exact same cases, and a
//! failing case is reproduced by its printed seed.

use dftmc::dft::{DftBuilder, Dormancy, ElementId};
use dftmc::dft_core::analysis::{AnalysisOptions, Method};
use dftmc::dft_core::engine::Analyzer;

mod common;
use common::{build_module, build_static_tree, random_recipe, Gen};

/// The compositional and monolithic analyses must agree on arbitrary static
/// fault trees.
#[test]
fn compositional_matches_monolithic_on_static_trees() {
    for case in 0..24u64 {
        let mut gen = Gen::new(0x5747_1c00 + case);
        let recipe = random_recipe(&mut gen);
        let t = gen.f64_in(0.1, 2.0);
        let dft = build_static_tree(&recipe, &format!("pba{case}"));
        let comp = Analyzer::new(&dft, AnalysisOptions::default())
            .and_then(|a| a.unreliability(t))
            .unwrap();
        let mono = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Monolithic,
                ..AnalysisOptions::default()
            },
        )
        .and_then(|a| a.unreliability(t))
        .unwrap();
        assert!(!comp.is_nondeterministic(), "case {case}");
        assert!(
            (comp.value() - mono.value()).abs() < 1e-6,
            "case {case}: compositional {} vs monolithic {}",
            comp.value(),
            mono.value()
        );
        assert!(
            comp.value() >= -1e-12 && comp.value() <= 1.0 + 1e-12,
            "case {case}"
        );
    }
}

/// Unreliability is monotone in the mission time.
#[test]
fn unreliability_is_monotone_in_time() {
    for case in 0..24u64 {
        let mut gen = Gen::new(0x0a0b_0100 + case);
        let recipe = random_recipe(&mut gen);
        let t1 = gen.f64_in(0.1, 1.0);
        let delta = gen.f64_in(0.1, 1.0);
        let dft = build_static_tree(&recipe, &format!("pbm{case}"));
        let options = AnalysisOptions::default();
        let early = Analyzer::new(&dft, options.clone())
            .and_then(|a| a.unreliability(t1))
            .unwrap()
            .value();
        let late = Analyzer::new(&dft, options.clone())
            .and_then(|a| a.unreliability(t1 + delta))
            .unwrap()
            .value();
        assert!(
            late >= early - 1e-9,
            "case {case}: unreliability decreased: {early} -> {late}"
        );
    }
}

/// An OR of hot exponential events is itself exponential with the summed rate.
#[test]
fn or_of_exponentials_is_exponential() {
    for case in 0..24u64 {
        let mut gen = Gen::new(0x0e0f_0200 + case);
        let rates: Vec<f64> = (0..gen.usize_in(1, 5))
            .map(|_| gen.f64_in(0.05, 2.0))
            .collect();
        let t = gen.f64_in(0.1, 3.0);
        let mut b = DftBuilder::new();
        let events: Vec<ElementId> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                b.basic_event(&format!("or{case}_e{i}"), r, Dormancy::Hot)
                    .unwrap()
            })
            .collect();
        let top = b.or_gate(&format!("or{case}_top"), &events).unwrap();
        let dft = b.build(top).unwrap();
        let total: f64 = rates.iter().sum();
        let exact = 1.0 - (-total * t).exp();
        let computed = Analyzer::new(&dft, AnalysisOptions::default())
            .and_then(|a| a.unreliability(t))
            .unwrap()
            .value();
        assert!(
            (computed - exact).abs() < 1e-6,
            "case {case}: {computed} vs {exact}"
        );
    }
}

/// An AND of hot exponential events has the product of the component
/// unreliabilities.
#[test]
fn and_of_exponentials_is_a_product() {
    for case in 0..24u64 {
        let mut gen = Gen::new(0x0c0d_0300 + case);
        let rates: Vec<f64> = (0..gen.usize_in(1, 5))
            .map(|_| gen.f64_in(0.05, 2.0))
            .collect();
        let t = gen.f64_in(0.1, 3.0);
        let mut b = DftBuilder::new();
        let events: Vec<ElementId> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                b.basic_event(&format!("and{case}_e{i}"), r, Dormancy::Hot)
                    .unwrap()
            })
            .collect();
        let top = b.and_gate(&format!("and{case}_top"), &events).unwrap();
        let dft = b.build(top).unwrap();
        let exact: f64 = rates.iter().map(|&r| 1.0 - (-r * t).exp()).product();
        let computed = Analyzer::new(&dft, AnalysisOptions::default())
            .and_then(|a| a.unreliability(t))
            .unwrap()
            .value();
        assert!(
            (computed - exact).abs() < 1e-6,
            "case {case}: {computed} vs {exact}"
        );
    }
}

/// A chain of cold spares over identical rates has an Erlang failure time.
#[test]
fn cold_spare_chain_is_erlang() {
    for case in 0..24u64 {
        let mut gen = Gen::new(0xe71a_0400 + case);
        let stages = gen.usize_in(2, 5);
        let rate = gen.f64_in(0.2, 2.0);
        let t = gen.f64_in(0.1, 2.0);
        let mut b = DftBuilder::new();
        let mut inputs = vec![b
            .basic_event(&format!("erl{case}_primary"), rate, Dormancy::Hot)
            .unwrap()];
        for i in 1..stages {
            inputs.push(
                b.basic_event(&format!("erl{case}_s{i}"), rate, Dormancy::Cold)
                    .unwrap(),
            );
        }
        let top = b.spare_gate(&format!("erl{case}_top"), &inputs).unwrap();
        let dft = b.build(top).unwrap();
        // Erlang(stages, rate) CDF.
        let mut term = 1.0;
        let mut sum = 0.0;
        for k in 0..stages {
            if k > 0 {
                term *= rate * t / k as f64;
            }
            sum += term;
        }
        let exact = 1.0 - (-rate * t).exp() * sum;
        let computed = Analyzer::new(&dft, AnalysisOptions::default())
            .and_then(|a| a.unreliability(t))
            .unwrap()
            .value();
        assert!(
            (computed - exact).abs() < 1e-6,
            "case {case}: {computed} vs {exact}"
        );
    }
}

/// Random *dynamic* trees: a PAND over two random static sub-trees.  The two
/// analysis paths must still agree (no closed form exists here).  From case 12
/// on, one PAND input is a spare gate instead, on a seeded side: its failure
/// (the allocation running out) must count as a PAND input failing.
#[test]
fn compositional_matches_monolithic_on_pand_over_modules() {
    for case in 0..18u64 {
        let mut gen = Gen::new(0x9a7d_0500 + case);
        let left = random_recipe(&mut gen);
        let right = random_recipe(&mut gen);
        let t = gen.f64_in(0.2, 1.5);
        let mut b = DftBuilder::new();
        let l = build_module(&mut b, &left, &format!("pl{case}"));
        let inputs = if case < 12 {
            [l, build_module(&mut b, &right, &format!("pr{case}"))]
        } else {
            let spare = spare_module(&mut b, &mut gen, &format!("ps{case}"));
            if gen.usize_in(0, 2) == 0 {
                [l, spare]
            } else {
                [spare, l]
            }
        };
        let top = b.pand_gate(&format!("pb{case}_pand_top"), &inputs).unwrap();
        let dft = b.build(top).unwrap();

        let comp = Analyzer::new(&dft, AnalysisOptions::default())
            .and_then(|a| a.unreliability(t))
            .unwrap();
        let mono = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Monolithic,
                ..AnalysisOptions::default()
            },
        )
        .and_then(|a| a.unreliability(t))
        .unwrap();
        assert!(
            (comp.value() - mono.value()).abs() < 1e-6,
            "case {case}: compositional {} vs monolithic {}",
            comp.value(),
            mono.value()
        );
    }
}

/// A spare gate over a hot primary and one or two cold or warm spares with
/// seeded rates.
fn spare_module(b: &mut DftBuilder, gen: &mut Gen, prefix: &str) -> ElementId {
    let mut inputs = vec![b
        .basic_event(&format!("{prefix}_p"), gen.f64_in(0.3, 2.0), Dormancy::Hot)
        .unwrap()];
    for i in 0..gen.usize_in(1, 3) {
        let dormancy = if gen.usize_in(0, 2) == 0 {
            Dormancy::Cold
        } else {
            Dormancy::Warm(0.5)
        };
        inputs.push(
            b.basic_event(&format!("{prefix}_s{i}"), gen.f64_in(0.3, 2.0), dormancy)
                .unwrap(),
        );
    }
    b.spare_gate(&format!("{prefix}_spare"), &inputs).unwrap()
}
