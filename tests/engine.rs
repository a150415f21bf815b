//! Integration tests for the [`Analyzer`] session engine.
//!
//! The contract under test is the one the API redesign promises:
//!
//! 1. a mission-time sweep of any length triggers **exactly one**
//!    conversion + aggregation,
//! 2. [`Measure::UnreliabilityCurve`] matches repeated single-time queries,
//! 3. unreliability is monotone in the mission time (property test over random
//!    static trees).

use dftmc::dft::{DftBuilder, Dormancy};
use dftmc::dft_core::casestudies::{cas, cps, DEFAULT_MISSION_TIMES};
use dftmc::dft_core::engine::Analyzer;
use dftmc::dft_core::query::Measure;
use dftmc::dft_core::rng::SplitMix64;
use dftmc::dft_core::{AnalysisOptions, Method};

mod common;
use common::random_static_tree;

/// A ≥10-point mission-time sweep through one `Analyzer` session runs the
/// aggregation pipeline exactly once, and its statistics stay frozen across
/// queries of every kind.
#[test]
fn sweep_triggers_exactly_one_aggregation() {
    let analyzer = Analyzer::new(&cas(), AnalysisOptions::default()).unwrap();
    assert_eq!(
        analyzer.aggregation_runs(),
        1,
        "construction aggregates once"
    );
    let stats_before = analyzer
        .aggregation_stats()
        .expect("compositional run")
        .clone();

    assert_eq!(DEFAULT_MISSION_TIMES.len(), 10);
    let curve = analyzer
        .query(Measure::curve(DEFAULT_MISSION_TIMES))
        .unwrap();
    assert_eq!(curve.len(), 10);
    // Pile on more queries of every supported kind.
    for &t in &DEFAULT_MISSION_TIMES {
        analyzer.query(Measure::Unreliability(t)).unwrap();
    }
    // CAS carries genuine non-determinism (its FDEP fails P and B simultaneously
    // under a spare gate), so MTTF is rejected — exactly as the legacy path does —
    // and unavailability needs a repairable model; neither error path re-runs
    // aggregation.
    assert!(
        analyzer.query(Measure::Mttf).is_err(),
        "CAS non-determinism rejects MTTF"
    );
    assert!(
        analyzer.query(Measure::Unavailability).is_err(),
        "CAS is not repairable"
    );

    assert_eq!(
        analyzer.aggregation_runs(),
        1,
        "21 queries later the pipeline still ran exactly once"
    );
    let stats_after = analyzer.aggregation_stats().expect("compositional run");
    assert_eq!(stats_before.steps.len(), stats_after.steps.len());
    assert_eq!(stats_before.peak, stats_after.peak);
    assert_eq!(stats_before.final_model, stats_after.final_model);
}

/// Curve queries match repeated single-time queries — on the same session they
/// are bit-identical (shared value-iteration pass, same Poisson weights).
#[test]
fn curve_matches_pointwise_queries() {
    for (dft, label) in [(cas(), "cas"), (cps(), "cps")] {
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();
        let curve = analyzer
            .query(Measure::curve(DEFAULT_MISSION_TIMES))
            .unwrap();
        for (point, &t) in curve.points().iter().zip(&DEFAULT_MISSION_TIMES) {
            assert_eq!(point.time(), Some(t));
            let single = analyzer.query(Measure::Unreliability(t)).unwrap();
            let epsilon = analyzer.options().epsilon;
            assert!(
                (point.value() - single.value()).abs() <= epsilon,
                "{label} at t={t}: curve {} vs single {}",
                point.value(),
                single.value()
            );
            assert_eq!(
                point.value().to_bits(),
                single.value().to_bits(),
                "{label} at t={t}: same session, same pass — must be bit-identical"
            );
            assert_eq!(point.bounds(), single.bounds(), "{label} at t={t}");
        }
    }
}

/// Property test: on random static trees, the unreliability curve is monotone in
/// the mission time (failures accumulate; nothing is repairable here).
#[test]
fn unreliability_curve_is_monotone_in_time() {
    for case in 0..16u64 {
        let dft = random_static_tree(0xc0ffee + case, &format!("eng_mono{case}"));
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();
        let mut rng = SplitMix64::new(0xbeef + case);
        // A sorted random grid plus the default grid, to vary the sample points.
        let mut times: Vec<f64> = (0..12).map(|_| rng.next_f64() * 4.0).collect();
        times.extend_from_slice(&DEFAULT_MISSION_TIMES);
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let curve = analyzer.query(Measure::curve(times)).unwrap();
        let values: Vec<f64> = curve.values().collect();
        for window in values.windows(2) {
            assert!(
                window[1] >= window[0] - 1e-9,
                "case {case}: unreliability decreased: {} -> {}",
                window[0],
                window[1]
            );
        }
        assert!(
            values.iter().all(|&v| (-1e-12..=1.0 + 1e-12).contains(&v)),
            "case {case}"
        );
        assert_eq!(analyzer.aggregation_runs(), 1);
    }
}

/// The engine handles edge-case sweeps: unsorted input (answered in request
/// order), duplicate points, t = 0, and the empty sweep.
#[test]
fn curve_edge_cases() {
    let analyzer = Analyzer::new(&cas(), AnalysisOptions::default()).unwrap();

    let unsorted = [2.0, 0.5, 1.0, 0.5, 0.0];
    let curve = analyzer.query(Measure::curve(unsorted)).unwrap();
    assert_eq!(curve.len(), 5);
    let values: Vec<f64> = curve.values().collect();
    assert_eq!(
        values[1].to_bits(),
        values[3].to_bits(),
        "duplicate points agree"
    );
    assert_eq!(values[4], 0.0, "nothing fails in zero time");
    assert!(
        values[0] > values[2] && values[2] > values[1],
        "request order is preserved"
    );

    // An empty sweep has nothing to evaluate: rejected with a typed error at
    // query time, so `MeasureResult::value()` can never panic on engine output.
    assert!(
        matches!(
            analyzer.query(Measure::UnreliabilityCurve(Vec::new())),
            Err(dftmc::dft_core::Error::EmptyCurve)
        ),
        "empty curves are rejected with the typed error"
    );

    assert!(
        analyzer.query(Measure::curve([1.0, -1.0])).is_err(),
        "negative mission times are rejected"
    );
}

/// Non-finite (and negative) mission times are rejected with the typed
/// [`Error::InvalidMissionTime`] at the `query`/`query_all` boundary — before
/// any uniformisation starts — across every [`Measure`] variant.  The
/// time-less measures (`Unavailability`, `Mttf`) have nothing to validate and
/// keep working unchanged in the same batch.
#[test]
fn non_finite_mission_times_are_typed_errors_at_the_query_boundary() {
    use dftmc::dft_core::Error;

    let analyzer = Analyzer::new(&cas(), AnalysisOptions::default()).unwrap();
    let reject = |measure: Measure, expected: f64| {
        match analyzer.query(&measure) {
            Err(Error::InvalidMissionTime { value }) => {
                // NaN never equals itself; compare representations instead.
                assert_eq!(
                    value.to_bits(),
                    expected.to_bits(),
                    "the error must carry the offending time"
                );
            }
            other => panic!("{measure:?} must be InvalidMissionTime, got {other:?}"),
        }
        // `query_all` validates while merging the time grid: the same typed
        // error, even when healthy measures surround the faulty one.
        assert!(
            matches!(
                analyzer.query_all(&[Measure::Mttf, measure.clone(), Measure::Unreliability(1.0)]),
                Err(Error::InvalidMissionTime { .. })
            ),
            "{measure:?} must fail the whole query_all batch with the typed error"
        );
    };

    // Measure::Unreliability — scalar mission times.
    reject(Measure::Unreliability(f64::NAN), f64::NAN);
    reject(Measure::Unreliability(f64::INFINITY), f64::INFINITY);
    reject(Measure::Unreliability(-1.0), -1.0);

    // Measure::UnreliabilityCurve — any faulty point poisons the curve, also
    // when it hides behind valid ones.
    reject(Measure::curve([1.0, -1.0, 2.0]), -1.0);
    reject(Measure::curve([f64::INFINITY]), f64::INFINITY);
    reject(Measure::curve([0.5, f64::NAN]), f64::NAN);
    reject(Measure::curve([f64::NEG_INFINITY, 1.0]), f64::NEG_INFINITY);

    // Measure::Unavailability and Measure::Mttf carry no mission time: they
    // are unaffected by the boundary validation (and t = 0 stays valid).
    assert!((analyzer.query(Measure::Unreliability(0.0)).unwrap().value()).abs() < 1e-12);
    assert!(
        matches!(
            analyzer.query(Measure::Unavailability),
            Err(Error::Unsupported { .. })
        ),
        "the CAS is not repairable; unavailability keeps its own typed error"
    );

    let mut b = DftBuilder::new();
    let x = b
        .repairable_basic_event("imt_X", 1.0, Dormancy::Hot, 9.0)
        .unwrap();
    let top = b.or_gate("imt_Top", &[x]).unwrap();
    let repairable = Analyzer::new(&b.build(top).unwrap(), AnalysisOptions::default()).unwrap();
    let batch = repairable
        .query_all(&[Measure::Unavailability, Measure::Mttf])
        .unwrap();
    assert!((batch[0].value() - 0.1).abs() < 1e-6);
    assert!((batch[1].value() - 1.0).abs() < 1e-6);

    // The monolithic backend validates at the same boundary.
    let monolithic = Analyzer::new(
        &cas(),
        AnalysisOptions {
            method: Method::Monolithic,
            ..AnalysisOptions::default()
        },
    )
    .unwrap();
    assert!(matches!(
        monolithic.query(Measure::Unreliability(f64::NAN)),
        Err(Error::InvalidMissionTime { .. })
    ));
}
