//! Experiments E3 and E4 — the cascaded PAND system (Section 5.2, Figures 8/9).
//!
//! The paper reports: unreliability 0.00135 at mission time 1; peak intermediate
//! model of 156 states / 490 transitions for compositional aggregation; 4113
//! states / 24608 transitions for the monolithic DIFTree chain; and a tiny
//! aggregated I/O-IMC for a single AND module (Figure 9).

use dftmc::dft::{DftBuilder, Dormancy};
use dftmc::dft_core::analysis::{aggregated_model, AnalysisOptions, Method};
use dftmc::dft_core::baseline::monolithic_ctmc;
use dftmc::dft_core::casestudies::{
    cascaded_pand, cps, CPS_PAPER_MONOLITHIC, CPS_PAPER_PEAK, CPS_PAPER_UNRELIABILITY,
};
use dftmc::dft_core::engine::Analyzer;

#[test]
fn cps_unreliability_matches_the_paper() {
    let dft = cps();
    let comp = Analyzer::new(&dft, AnalysisOptions::default())
        .and_then(|a| a.unreliability(1.0))
        .expect("analysis succeeds");
    assert!(
        (comp.value() - CPS_PAPER_UNRELIABILITY).abs() < 5e-5,
        "compositional {} vs paper {CPS_PAPER_UNRELIABILITY}",
        comp.value()
    );
    assert!(!comp.is_nondeterministic());

    let mono = Analyzer::new(
        &dft,
        AnalysisOptions {
            method: Method::Monolithic,
            ..AnalysisOptions::default()
        },
    )
    .and_then(|a| a.unreliability(1.0))
    .expect("baseline succeeds");
    assert!((mono.value() - comp.value()).abs() < 1e-7);
}

#[test]
fn cps_monolithic_chain_matches_the_papers_size_exactly() {
    let mono = monolithic_ctmc(&cps()).expect("baseline builds");
    assert_eq!(mono.num_states(), CPS_PAPER_MONOLITHIC.0);
    assert_eq!(mono.num_transitions(), CPS_PAPER_MONOLITHIC.1);
}

#[test]
fn cps_compositional_peak_is_two_orders_of_magnitude_smaller() {
    let comp = Analyzer::new(&cps(), AnalysisOptions::default()).expect("analysis succeeds");
    comp.unreliability(1.0).expect("analysis succeeds");
    let stats = comp.aggregation_stats().expect("compositional run");
    // The paper's peak is 156 states / 490 transitions; composition order details
    // shift the exact numbers, but the peak must stay in the same ballpark and far
    // below the monolithic 4113 / 24608.
    assert!(
        stats.peak.states <= 2 * CPS_PAPER_PEAK.0,
        "peak {} states, paper reports {}",
        stats.peak.states,
        CPS_PAPER_PEAK.0
    );
    assert!(stats.peak.transitions() <= 2 * CPS_PAPER_PEAK.1);
    assert!(stats.peak.states * 10 < CPS_PAPER_MONOLITHIC.0);
}

#[test]
fn module_a_aggregates_small() {
    // Figure 9: a single AND module of four identical basic events, viewed as an
    // independent module, aggregates to a minimal I/O-IMC: the order in which the
    // four events fail is irrelevant, so only the count survives aggregation.
    let mut b = DftBuilder::new();
    let events: Vec<_> = (0..4)
        .map(|i| {
            b.basic_event(&format!("modA_{i}"), 1.0, Dormancy::Hot)
                .unwrap()
        })
        .collect();
    let top = b.and_gate("modA", &events).unwrap();
    let module = b.build(top).unwrap();
    let (aggregated, _) = aggregated_model(&module).expect("aggregation succeeds");
    // Four Markovian steps (4λ, 3λ, 2λ, λ), a firing state and the fired state —
    // at most 6 states.
    assert!(
        aggregated.num_states() <= 6,
        "module A should aggregate to at most 6 states, got {}",
        aggregated.num_states()
    );
    let initial_rate: f64 = aggregated
        .markovian_from(aggregated.initial())
        .iter()
        .map(|t| t.rate)
        .sum();
    assert!(
        (initial_rate - 4.0).abs() < 1e-9,
        "lumped first step should have rate 4"
    );
}

#[test]
fn smaller_cascaded_pand_instances_agree_across_methods() {
    for width in [1, 2, 3] {
        let dft = cascaded_pand(width, 1.0);
        let t = 1.0;
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
            (comp.value() - mono.value()).abs() < 1e-7,
            "width {width}: compositional {} vs monolithic {}",
            comp.value(),
            mono.value()
        );
    }
}

#[test]
fn cps_unreliability_grows_with_mission_time_and_with_failure_rate() {
    let options = AnalysisOptions::default();
    let base = Analyzer::new(&cps(), options.clone())
        .and_then(|a| a.unreliability(1.0))
        .unwrap()
        .value();
    let longer = Analyzer::new(&cps(), options.clone())
        .and_then(|a| a.unreliability(2.0))
        .unwrap()
        .value();
    assert!(longer > base);
    let faster = Analyzer::new(&cascaded_pand(4, 2.0), options.clone())
        .and_then(|a| a.unreliability(1.0))
        .unwrap()
        .value();
    assert!(faster > base);
}
