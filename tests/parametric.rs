//! Parametric-session tests: aggregate the structure once, instantiate many
//! rate valuations, and check every measure against a direct numeric build of
//! the equivalently re-rated tree.
//!
//! The key property: for every tree and every positive valuation,
//! `ParametricAnalyzer::new(tree).instantiate(v)` answers every [`Measure`]
//! within 1e-12 of `Analyzer::new` on the pre-scaled twin — while running
//! compositional aggregation exactly once for the whole family.  Random cases
//! come from the same seeded generator as the other suites.

use dftmc::dft::{DftBuilder, Dormancy};
use dftmc::dft_core::analysis::{AnalysisOptions, Method};
use dftmc::dft_core::casestudies::cps;
use dftmc::dft_core::engine::{Analyzer, ParametricAnalyzer};
use dftmc::dft_core::parametric::{ParamKind, Valuation};
use dftmc::dft_core::query::{Measure, MeasurePoint, MeasureResult};
use dftmc::dft_core::Error;
use dftmc::markov::kernel;

mod common;
use common::{build_static_tree, random_recipe, Gen};

/// Both pipelines run with a tightened truncation bound so the 1e-12 agreement
/// check measures the models, not the numerics.
fn tight_options() -> AnalysisOptions {
    AnalysisOptions {
        epsilon: 1e-13,
        ..AnalysisOptions::default()
    }
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-12,
        "{what}: parametric {a} vs direct {b} (diff {})",
        (a - b).abs()
    );
}

/// The headline property: across random static trees and random uniform rate
/// scales, an instantiated session answers unreliability (point and curve) and
/// MTTF identically (≤ 1e-12) to a direct build of the pre-scaled tree — with
/// one aggregation for the whole sweep and zero for each instantiation.
#[test]
fn instantiated_sessions_match_direct_builds_on_random_trees() {
    for case in 0..12u64 {
        let mut gen = Gen::new(0x9a3a_0600 + case);
        let recipe = random_recipe(&mut gen);
        let t = gen.f64_in(0.2, 2.0);
        let dft = build_static_tree(&recipe, &format!("par{case}"));

        let parametric = ParametricAnalyzer::new(&dft, tight_options()).unwrap();
        assert_eq!(parametric.aggregation_runs(), 1);

        for point in 0..3 {
            let scale = gen.f64_in(0.3, 3.0);
            let session = parametric
                .instantiate(&parametric.params().scaled_valuation(scale))
                .unwrap();
            assert_eq!(
                session.aggregation_runs(),
                0,
                "case {case}: instantiation must not re-aggregate"
            );

            // The reference: a fresh numeric pipeline over the pre-scaled twin.
            let scaled_tree =
                build_static_tree(&recipe.scaled(scale), &format!("par{case}s{point}"));
            let direct = Analyzer::new(&scaled_tree, tight_options()).unwrap();

            let measures = [
                Measure::Unreliability(t),
                Measure::curve([t * 0.5, t, t * 1.7]),
                Measure::Mttf,
            ];
            for measure in &measures {
                let ours = session.query(measure).unwrap();
                let reference = direct.query(measure).unwrap();
                assert_eq!(ours.len(), reference.len());
                for (a, b) in ours.points().iter().zip(reference.points()) {
                    assert_close(a.bounds().0, b.bounds().0, &format!("case {case} lower"));
                    assert_close(a.bounds().1, b.bounds().1, &format!("case {case} upper"));
                }
            }
        }
    }
}

/// Varying a *single* basic event's rate through its parameter slot matches
/// rebuilding the tree with that one rate changed: slots really are per event,
/// not just a global scale.
#[test]
fn single_slot_variation_matches_a_rebuilt_tree() {
    for case in 0..8u64 {
        let mut gen = Gen::new(0x51a7_0700 + case);
        let recipe = random_recipe(&mut gen);
        let t = gen.f64_in(0.2, 2.0);
        let victim = gen.usize_in(0, recipe.rates.len());
        let new_rate = gen.f64_in(0.05, 4.0);
        let dft = build_static_tree(&recipe, &format!("slot{case}"));

        let parametric = ParametricAnalyzer::new(&dft, tight_options()).unwrap();
        let name = format!("slot{case}_e{victim}");
        let slot = parametric
            .params()
            .slot_of(&name, ParamKind::Failure)
            .unwrap_or_else(|| panic!("case {case}: no failure slot for {name}"));
        let mut valuation = parametric.base_valuation();
        valuation.set(slot, new_rate);
        let session = parametric.instantiate(&valuation).unwrap();

        let twin = build_static_tree(
            &recipe.with_rate(victim, new_rate),
            &format!("slot{case}_twin"),
        );
        let direct = Analyzer::new(&twin, tight_options()).unwrap();

        let ours = session.unreliability(t).unwrap();
        let reference = direct.unreliability(t).unwrap();
        assert_close(ours.value(), reference.value(), &format!("case {case}"));
    }
}

/// On a tree with no lumpable symmetry the two pipelines produce the *same*
/// chain, so the results are bit-identical, not merely close.
#[test]
fn distinct_rate_chain_is_bit_identical() {
    let build = |rate: f64, prefix: &str| {
        let mut b = DftBuilder::new();
        let x = b
            .basic_event(&format!("{prefix}_X"), rate, Dormancy::Hot)
            .unwrap();
        let top = b.or_gate(&format!("{prefix}_Top"), &[x]).unwrap();
        b.build(top).unwrap()
    };
    let parametric = ParametricAnalyzer::new(&build(0.7, "bit"), tight_options()).unwrap();
    for scale in [1.0, 1.5, 2.25] {
        let session = parametric
            .instantiate(&parametric.params().scaled_valuation(scale))
            .unwrap();
        let direct = Analyzer::new(&build(0.7 * scale, "bit_twin"), tight_options()).unwrap();
        for measure in [Measure::Unreliability(1.3), Measure::Mttf] {
            let ours = session.query(&measure).unwrap();
            let reference = direct.query(&measure).unwrap();
            assert_eq!(
                ours.value().to_bits(),
                reference.value().to_bits(),
                "evaluation order permits bit-identity here ({measure:?}, scale {scale})"
            );
        }
    }
}

/// Repairable models: failure *and* repair rates get slots, and unavailability
/// and MTTF track a direct build when either is varied.
#[test]
fn repairable_slots_cover_repair_rates() {
    let build = |lambda_a: f64, mu_a: f64, prefix: &str| {
        let mut b = DftBuilder::new();
        let a = b
            .repairable_basic_event(&format!("{prefix}_A"), lambda_a, Dormancy::Hot, mu_a)
            .unwrap();
        let bb = b
            .repairable_basic_event(&format!("{prefix}_B"), 2.0, Dormancy::Hot, 5.0)
            .unwrap();
        let top = b.and_gate(&format!("{prefix}_Top"), &[a, bb]).unwrap();
        b.build(top).unwrap()
    };
    let parametric = ParametricAnalyzer::new(&build(1.0, 10.0, "rep"), tight_options()).unwrap();
    // Two failure + two repair slots.
    assert_eq!(parametric.params().len(), 4);

    let mu_slot = parametric
        .params()
        .slot_of("rep_A", ParamKind::Repair)
        .unwrap();
    let mut valuation = parametric.base_valuation();
    valuation.set(mu_slot, 4.0);
    let session = parametric.instantiate(&valuation).unwrap();
    let direct = Analyzer::new(&build(1.0, 4.0, "rep_twin"), tight_options()).unwrap();

    for measure in [
        Measure::Unavailability,
        Measure::Mttf,
        Measure::Unreliability(0.8),
    ] {
        let ours = session.query(&measure).unwrap();
        let reference = direct.query(&measure).unwrap();
        assert_close(ours.value(), reference.value(), &format!("{measure:?}"));
    }
}

/// A whole sweep runs exactly one aggregation, and its points match per-point
/// direct builds.
#[test]
fn sweeps_cost_one_aggregation() {
    let mut gen = Gen::new(0x53ee_0800);
    let recipe = random_recipe(&mut gen);
    let dft = build_static_tree(&recipe, "swp");
    let parametric = ParametricAnalyzer::new(&dft, tight_options()).unwrap();

    let scales: Vec<f64> = (1..=6).map(|i| 0.5 + 0.25 * i as f64).collect();
    let valuations: Vec<Valuation> = scales
        .iter()
        .map(|&s| parametric.params().scaled_valuation(s))
        .collect();
    let sweep = parametric.sweep_query(&[Measure::Unreliability(1.0)], &valuations);
    assert_eq!(sweep.len(), scales.len());
    let rows: Vec<&Vec<MeasureResult>> = sweep
        .results()
        .iter()
        .map(|row| row.as_ref().unwrap())
        .collect();
    assert_eq!(parametric.aggregation_runs(), 1);

    for (i, &scale) in scales.iter().enumerate() {
        let twin = build_static_tree(&recipe.scaled(scale), &format!("swp_t{i}"));
        let direct = Analyzer::new(&twin, tight_options()).unwrap();
        let reference = direct.unreliability(1.0).unwrap();
        assert_close(
            rows[i][0].value(),
            reference.value(),
            &format!("sweep point {i}"),
        );
    }
    // Unreliability grows with a uniform failure-rate scale.
    let values: Vec<f64> = rows.iter().map(|row| row[0].value()).collect();
    for pair in values.windows(2) {
        assert!(pair[1] >= pair[0] - 1e-12);
    }
}

/// Invalid valuations and unsupported configurations are rejected with typed
/// errors instead of producing silently wrong models.
#[test]
fn invalid_valuations_and_methods_are_rejected() {
    let mut b = DftBuilder::new();
    let x = b.basic_event("pe_X", 1.0, Dormancy::Hot).unwrap();
    let y = b.basic_event("pe_Y", 2.0, Dormancy::Hot).unwrap();
    let top = b.or_gate("pe_Top", &[x, y]).unwrap();
    let dft = b.build(top).unwrap();

    let parametric = ParametricAnalyzer::new(&dft, AnalysisOptions::default()).unwrap();
    // Wrong slot count.
    assert!(matches!(
        parametric.instantiate(&Valuation::new(vec![1.0])),
        Err(Error::InvalidValuation { .. })
    ));
    // Non-positive and non-finite rates.
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let mut v = parametric.base_valuation();
        v.set(1, bad);
        assert!(matches!(
            parametric.instantiate(&v),
            Err(Error::InvalidValuation { .. })
        ));
    }
    // The monolithic baseline has no parametric form.
    let monolithic = AnalysisOptions {
        method: Method::Monolithic,
        ..AnalysisOptions::default()
    };
    assert!(matches!(
        ParametricAnalyzer::new(&dft, monolithic),
        Err(Error::Unsupported { .. })
    ));
}

/// The base valuation reproduces the original tree exactly.
#[test]
fn base_valuation_reproduces_the_original_tree() {
    let mut gen = Gen::new(0xbace_0900);
    let recipe = random_recipe(&mut gen);
    let dft = build_static_tree(&recipe, "base");
    let parametric = ParametricAnalyzer::new(&dft, tight_options()).unwrap();
    let session = parametric
        .instantiate(&parametric.base_valuation())
        .unwrap();
    let direct = Analyzer::new(&dft, tight_options()).unwrap();
    let ours = session.unreliability(1.0).unwrap();
    let reference = direct.unreliability(1.0).unwrap();
    assert_close(ours.value(), reference.value(), "base valuation");
}

/// The first engine sweep wide enough for the kernel to split: five CPS
/// valuations pass `auto_workers`' threshold, so at a cap of 2 workers the
/// batched pass runs as two lane groups — with the bits of the cap-1 pass.
#[test]
fn wide_cps_sweeps_split_into_lane_groups_with_the_same_bits() {
    let parametric = ParametricAnalyzer::new(&cps(), AnalysisOptions::default()).unwrap();
    let valuations: Vec<Valuation> = [0.5, 0.8, 1.0, 1.6, 2.5]
        .iter()
        .map(|&s| parametric.params().scaled_valuation(s))
        .collect();
    let measures = [Measure::curve([0.25, 0.5, 1.0])];
    let sweep_at = |cap: usize| {
        kernel::set_max_workers(cap);
        let before = kernel::stats().threaded_passes;
        let sweep = parametric.sweep_query(&measures, &valuations);
        (sweep, kernel::stats().threaded_passes - before)
    };
    let (sequential, _) = sweep_at(1);
    let (split, threaded_passes) = sweep_at(2);
    kernel::set_max_workers(0);
    assert!(threaded_passes > 0, "the cap-2 sweep ran on lane groups");
    for (k, (a, b)) in sequential.results().iter().zip(split.results()).enumerate() {
        let (a, b) = (&a.as_ref().unwrap()[0], &b.as_ref().unwrap()[0]);
        for (p, q) in a.points().iter().zip(b.points()) {
            let bits = |p: &MeasurePoint| {
                let (lo, hi) = p.bounds();
                (p.point().map(f64::to_bits), lo.to_bits(), hi.to_bits())
            };
            assert_eq!(bits(p), bits(q), "valuation {k}");
        }
    }
}

/// The bits of a batch: time, point value and both bounds of every point of
/// every measure.
type Bits = Vec<Vec<(Option<u64>, Option<u64>, u64, u64)>>;

fn bits_of(results: &[MeasureResult]) -> Bits {
    results
        .iter()
        .map(|result| {
            result
                .points()
                .iter()
                .map(|p| {
                    let (lo, hi) = p.bounds();
                    (
                        p.time().map(f64::to_bits),
                        p.point().map(f64::to_bits),
                        lo.to_bits(),
                        hi.to_bits(),
                    )
                })
                .collect()
        })
        .collect()
}

fn outcome_bits(outcome: &Result<Vec<MeasureResult>, Error>) -> Result<Bits, Error> {
    outcome
        .as_ref()
        .map(|results| bits_of(results))
        .map_err(Clone::clone)
}

/// Every corpus tree, under both state-space methods and three valuations:
/// the sweep row, `instantiate` + `query_all` and a `query` per measure give
/// the same bits or the same error.  Three measure batches, so that a failing
/// steady-state measure cannot hide the time-bounded ones; a monolithic
/// session's `query` matches its own `query_all` too.
#[test]
fn every_evaluation_path_gives_the_same_bits_across_the_corpus() {
    let batches = [
        vec![
            Measure::curve([0.5, 1.0, 2.0]),
            Measure::Unreliability(1.0),
            Measure::Mttf,
        ],
        vec![Measure::curve([0.5, 1.0, 2.0])],
        vec![Measure::Unavailability],
    ];
    let mut files: Vec<_> = std::fs::read_dir("tests/fixtures/corpus")
        .expect("the corpus directory exists")
        .map(|entry| entry.expect("a readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "dft"))
        .collect();
    files.sort();
    let (mut rows, mut compared) = (0usize, 0usize);
    for path in &files {
        let text = std::fs::read_to_string(path).expect("a readable corpus tree");
        let dft = dftmc::dft::galileo::parse(&text).expect("the corpus tree parses");
        for method in [Method::Compositional, Method::Hybrid] {
            let options = AnalysisOptions {
                method,
                ..AnalysisOptions::default()
            };
            let parametric = ParametricAnalyzer::new(&dft, options)
                .unwrap_or_else(|e| panic!("{path:?} {method:?}: {e}"));
            let valuations = [
                parametric.base_valuation(),
                parametric.params().scaled_valuation(0.5),
                parametric.params().scaled_valuation(2.0),
            ];
            for measures in &batches {
                let sweep = parametric.sweep_query(measures, &valuations);
                assert_eq!(sweep.len(), valuations.len());
                for (k, (valuation, row)) in valuations.iter().zip(sweep.results()).enumerate() {
                    let what = format!("{path:?} {method:?} valuation {k} {measures:?}");
                    let session = parametric.instantiate(valuation);
                    let batch = session
                        .as_ref()
                        .map_err(Clone::clone)
                        .and_then(|session| session.query_all(measures));
                    assert_eq!(outcome_bits(row), outcome_bits(&batch), "{what}");
                    rows += 1;
                    if let (Ok(session), Ok(batch)) = (&session, &batch) {
                        for (measure, result) in measures.iter().zip(batch) {
                            let single = session.query(measure).expect("a batch member answers");
                            assert_eq!(
                                bits_of(&[single]),
                                bits_of(std::slice::from_ref(result)),
                                "{what}: {measure:?}"
                            );
                        }
                        compared += 1;
                    }
                }
            }
        }
        let monolithic = AnalysisOptions {
            method: Method::Monolithic,
            ..AnalysisOptions::default()
        };
        if let Ok(analyzer) = Analyzer::new(&dft, monolithic) {
            for measures in &batches {
                if let Ok(batch) = analyzer.query_all(measures) {
                    for (measure, result) in measures.iter().zip(&batch) {
                        assert_eq!(
                            bits_of(&[analyzer.query(measure).unwrap()]),
                            bits_of(std::slice::from_ref(result)),
                            "{path:?} monolithic: {measure:?}"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(rows, files.len() * 2 * 3 * batches.len());
    assert_eq!(
        compared, 105,
        "successful batches compared measure by measure"
    );
}
