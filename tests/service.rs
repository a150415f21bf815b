//! Integration tests for the [`AnalysisService`] portfolio front end and the
//! concurrency contract underneath it.
//!
//! The redesign promises:
//!
//! 1. [`Analyzer`] is `Send + Sync` (statically asserted), so one session behind
//!    an `Arc` serves many threads with bit-identical results,
//! 2. a batch with duplicate fingerprints runs aggregation once per *distinct*
//!    tree — duplicates are cache hits,
//! 3. service results are bit-identical to sequential [`Analyzer`] runs,
//! 4. [`Analyzer::query_all`] answers a mixed measure batch in one pass,
//!    bit-identical to individual queries,
//! 5. empty curves are rejected with the typed [`Error::EmptyCurve`] instead of
//!    panicking in the result accessors,
//! 6. a sweep is answered on the lane-batched kernel, every point
//!    bit-identical to `instantiate` + `query_all` and every error kept on
//!    its own point.

mod common;

use common::{job_report, job_request, run_jobs, sweep_report, sweep_request, totals, Totals};
use dftmc::dft::{Dft, DftBuilder, Dormancy};
use dftmc::dft_core::casestudies::{cas, cas_scaled, DEFAULT_MISSION_TIMES};
use dftmc::dft_core::engine::{Analyzer, ParametricAnalyzer};
use dftmc::dft_core::service::{
    AnalysisService, HybridStats, JobReport, RequestHandle, ServiceOptions, SweepReport,
};
use dftmc::dft_core::{
    AnalysisOptions, AnalysisRequest, Error, Measure, MeasureResult, Method, SweepSpec, Valuation,
};
use dftmc::markov::kernel;
use std::sync::Arc;

/// The load-bearing auto-trait guarantees, checked at compile time: the worker
/// pool and the `Arc<Analyzer>` cache are sound only if these hold, and the
/// handles must be shippable to whatever thread wants to await them.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Analyzer>();
    assert_send_sync::<AnalysisService>();
    assert_send_sync::<AnalysisRequest>();
    assert_send_sync::<Measure>();
    assert_send::<RequestHandle>()
};

/// Time, value and bounds of every point of a result, as bit patterns.
type Bits = Vec<(Option<u64>, u64, u64, u64)>;

fn bits_of(result: &MeasureResult) -> Bits {
    result
        .points()
        .iter()
        .map(|p| {
            (
                p.time().map(f64::to_bits),
                p.value().to_bits(),
                p.bounds().0.to_bits(),
                p.bounds().1.to_bits(),
            )
        })
        .collect()
}

/// A small dynamic tree whose element names carry `prefix`: two trees built
/// with the same `rate` but different prefixes are structurally identical —
/// same fingerprint — while different rates give distinct fingerprints.
fn variant(prefix: &str, rate: f64) -> Dft {
    let mut b = DftBuilder::new();
    let n = |s: &str| format!("{prefix}_{s}");
    let p = b.basic_event(&n("P"), rate, Dormancy::Hot).unwrap();
    let s = b.basic_event(&n("S"), rate, Dormancy::Cold).unwrap();
    let spare = b.spare_gate(&n("SP"), &[p, s]).unwrap();
    let x = b.basic_event(&n("X"), 0.5 * rate, Dormancy::Hot).unwrap();
    let y = b.basic_event(&n("Y"), 0.7 * rate, Dormancy::Hot).unwrap();
    let pand = b.pand_gate(&n("PD"), &[x, y]).unwrap();
    let top = b.or_gate(&n("TOP"), &[spare, pand]).unwrap();
    b.build(top).unwrap()
}

#[test]
fn two_threads_share_one_analyzer_bit_identically() {
    let analyzer = Arc::new(Analyzer::new(&cas(), AnalysisOptions::default()).unwrap());
    let reference = analyzer
        .query(Measure::curve(DEFAULT_MISSION_TIMES))
        .unwrap();

    let results: Vec<MeasureResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let shared = Arc::clone(&analyzer);
                scope.spawn(move || shared.query(Measure::curve(DEFAULT_MISSION_TIMES)).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for result in &results {
        assert_eq!(
            bits_of(result),
            bits_of(&reference),
            "concurrent queries must be bit-identical to the single-threaded one"
        );
    }
    assert_eq!(analyzer.aggregation_runs(), 1);
}

#[test]
fn duplicate_fingerprints_aggregate_once_per_distinct_tree() {
    // Three distinct structures (rate variants), each submitted three times
    // under fresh element names: nine jobs, three fingerprints, and renamed
    // twins must be cache hits.
    let service = AnalysisService::new(ServiceOptions {
        workers: 2,
        cache_capacity: 16,
        ..ServiceOptions::default()
    });
    let rates = [1.0, 1.25, 1.5];
    let jobs: Vec<AnalysisRequest> = (0..9)
        .map(|i| {
            job_request(
                variant(&format!("svc{i}"), rates[i % rates.len()]),
                AnalysisOptions::default(),
                vec![Measure::Unreliability(1.0)],
            )
        })
        .collect();

    let reports = run_jobs(&service, jobs);
    let stats = totals(&reports);
    assert_eq!(stats.jobs, 9);
    assert_eq!(
        stats.aggregation_runs,
        rates.len(),
        "aggregation must run once per distinct tree, not per job"
    );
    assert_eq!(stats.cache_misses, rates.len());
    assert_eq!(stats.cache_hits, 9 - rates.len());

    // Every copy of the same structure reports the same fingerprint and
    // bit-identical results, whatever its element names were.
    let base_fp = variant("fresh", 1.0).fingerprint();
    let base_jobs: Vec<_> = reports
        .iter()
        .filter(|j| j.fingerprint == base_fp)
        .collect();
    assert_eq!(base_jobs.len(), 3);
    let reference = bits_of(&base_jobs[0].results.as_ref().unwrap()[0]);
    for job in &base_jobs {
        assert_eq!(bits_of(&job.results.as_ref().unwrap()[0]), reference);
    }
}

#[test]
fn service_results_match_sequential_analyzer_runs_bitwise() {
    let measures = vec![
        Measure::curve(DEFAULT_MISSION_TIMES),
        Measure::Unreliability(1.0),
    ];
    let scales = [1.0, 2.0];
    let jobs: Vec<AnalysisRequest> = (0..6)
        .map(|i| {
            job_request(
                cas_scaled(scales[i % scales.len()]),
                AnalysisOptions::default(),
                measures.clone(),
            )
        })
        .collect();

    let sequential: Vec<Vec<MeasureResult>> = jobs
        .iter()
        .map(|job| {
            Analyzer::new(&job.dft, job.options.clone())
                .unwrap()
                .query_all(&job.measures)
                .unwrap()
        })
        .collect();

    for workers in [1, 4] {
        let service = AnalysisService::new(ServiceOptions {
            workers,
            cache_capacity: 8,
            ..ServiceOptions::default()
        });
        let reports = run_jobs(&service, jobs.clone());
        assert_eq!(reports.len(), sequential.len());
        for (job, expected) in reports.iter().zip(&sequential) {
            let results = job.results.as_ref().unwrap();
            assert_eq!(results.len(), expected.len());
            for (r, e) in results.iter().zip(expected) {
                assert_eq!(
                    bits_of(r),
                    bits_of(e),
                    "{workers}-worker service results must be bit-identical to \
                     a fresh sequential Analyzer"
                );
            }
        }
    }
}

#[test]
fn query_all_is_bit_identical_to_individual_queries() {
    let analyzer = Analyzer::new(&cas(), AnalysisOptions::default()).unwrap();
    let measures = vec![
        Measure::Unreliability(1.0),
        Measure::curve(DEFAULT_MISSION_TIMES),
        // Duplicate times across measures: the merged pass deduplicates them
        // but must hand every measure its own full answer.
        Measure::curve([1.0, 1.0, 2.5]),
    ];
    let batch = analyzer.query_all(&measures).unwrap();
    assert_eq!(batch.len(), measures.len());
    for (measure, result) in measures.iter().zip(&batch) {
        let single = analyzer.query(measure).unwrap();
        assert_eq!(bits_of(result), bits_of(&single));
    }
    assert_eq!(batch[2].points().len(), 3);
    assert_eq!(
        batch[2].points()[0].value().to_bits(),
        batch[2].points()[1].value().to_bits()
    );

    // Mixed scalar measures ride along in the same batch on a suitable model.
    let mut b = DftBuilder::new();
    let x = b
        .repairable_basic_event("qa_X", 1.0, Dormancy::Hot, 9.0)
        .unwrap();
    let top = b.or_gate("qa_Top", &[x]).unwrap();
    let repairable = b.build(top).unwrap();
    let analyzer = Analyzer::new(&repairable, AnalysisOptions::default()).unwrap();
    let mixed = vec![
        Measure::Mttf,
        Measure::Unreliability(0.5),
        Measure::Unavailability,
    ];
    let batch = analyzer.query_all(&mixed).unwrap();
    for (measure, result) in mixed.iter().zip(&batch) {
        let single = analyzer.query(measure).unwrap();
        assert_eq!(bits_of(result), bits_of(&single));
    }
}

#[test]
fn empty_curves_are_typed_errors_everywhere() {
    let analyzer = Analyzer::new(&cas(), AnalysisOptions::default()).unwrap();
    assert!(matches!(
        analyzer.query(Measure::UnreliabilityCurve(Vec::new())),
        Err(Error::EmptyCurve)
    ));
    assert!(matches!(
        analyzer.query_all(&[Measure::Mttf, Measure::UnreliabilityCurve(Vec::new())]),
        Err(Error::EmptyCurve)
    ));

    // Through the service the error lands in the job report, not in a panic.
    let service = AnalysisService::new(ServiceOptions::default());
    let report = job_report(service.run_request(job_request(
        cas(),
        AnalysisOptions::default(),
        vec![Measure::UnreliabilityCurve(Vec::new())],
    )));
    assert!(matches!(report.results, Err(Error::EmptyCurve)));
}

/// Cache-aware scheduling: jobs are grouped by fingerprint before dispatch, so
/// even with several workers racing over a batch full of duplicate trees no
/// job ever *blocks* on a concurrent builder of the same model — each distinct
/// model is claimed (built once, then queried) by exactly one worker.
#[test]
fn grouped_dispatch_eliminates_build_waits() {
    let service = AnalysisService::new(ServiceOptions {
        workers: 4,
        cache_capacity: 16,
        ..ServiceOptions::default()
    });
    // 12 jobs over 3 distinct structures, duplicates adjacent in submission
    // order — the worst case for naive in-order dispatch, where several
    // workers would claim copies of the same tree simultaneously.
    let jobs: Vec<AnalysisRequest> = (0..12)
        .map(|i| {
            job_request(
                cas_scaled(1.0 + 0.1 * (i / 4) as f64),
                AnalysisOptions::default(),
                vec![Measure::Unreliability(1.0)],
            )
        })
        .collect();
    let fingerprints: Vec<u64> = jobs.iter().map(|job| job.dft.fingerprint()).collect();
    let reports = run_jobs(&service, jobs);
    assert_eq!(
        totals(&reports),
        Totals {
            jobs: 12,
            cache_hits: 9,
            cache_misses: 3,
            aggregation_runs: 3,
            build_waits: 0,
        },
        "grouped dispatch must not leave workers blocking on concurrent builds"
    );
    // Reports stay in submission order: the i-th report carries the i-th
    // job's fingerprint.
    assert_eq!(reports.len(), fingerprints.len());
    for (fingerprint, report) in fingerprints.iter().zip(&reports) {
        assert_eq!(*fingerprint, report.fingerprint);
    }
}

/// The async submission API under real concurrency: ≥ 4 submitting threads
/// fire interleaved jobs over a small set of distinct structures against one
/// shared long-lived service.  Every distinct structure aggregates exactly
/// once, no job ever blocks on a concurrent build (`build_waits == 0` — the
/// queue parks duplicates instead), and every job's results are bit-identical
/// to a fresh sequential [`Analyzer`].
#[test]
fn concurrent_submitters_share_cached_models() {
    let service = Arc::new(AnalysisService::new(ServiceOptions {
        workers: 4,
        cache_capacity: 32,
        ..ServiceOptions::default()
    }));
    let scales = [1.0, 1.15, 1.3];
    let submitters = 4;
    let jobs_each = 6;

    let reference: Vec<Vec<MeasureResult>> = scales
        .iter()
        .map(|&scale| {
            Analyzer::new(&cas_scaled(scale), AnalysisOptions::default())
                .unwrap()
                .query_all(&[Measure::Unreliability(1.0)])
                .unwrap()
        })
        .collect();

    let reports: Vec<Vec<JobReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|s| {
                let shared = Arc::clone(&service);
                scope.spawn(move || {
                    // Submit the whole personal queue first (this is the
                    // "return immediately" contract), then await it.
                    let submitted: Vec<RequestHandle> = (0..jobs_each)
                        .map(|j| {
                            shared.submit_request(job_request(
                                cas_scaled(scales[(s + j) % scales.len()]),
                                AnalysisOptions::default(),
                                vec![Measure::Unreliability(1.0)],
                            ))
                        })
                        .collect();
                    submitted
                        .into_iter()
                        .map(|handle| job_report(handle.wait()))
                        .collect::<Vec<JobReport>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let all: Vec<&JobReport> = reports.iter().flatten().collect();
    assert_eq!(all.len(), submitters * jobs_each);
    let aggregations: usize = all.iter().map(|r| r.aggregation_runs).sum();
    assert_eq!(
        aggregations,
        scales.len(),
        "each distinct structure must aggregate exactly once across all submitters"
    );
    assert!(
        all.iter().all(|r| !r.build_wait),
        "no submitted job may block on a concurrent builder"
    );
    for (s, report) in reports.iter().enumerate() {
        for (j, job) in report.iter().enumerate() {
            let expected = &reference[(s + j) % scales.len()];
            let results = job.results.as_ref().unwrap();
            assert_eq!(bits_of(&results[0]), bits_of(&expected[0]));
        }
    }
    let stats = service.cache_stats();
    assert_eq!(stats.misses, scales.len());
    assert_eq!(stats.hits, submitters * jobs_each - scales.len());
}

/// Regression test for the worker idle loop: the old per-batch pool papered
/// over a lost-wakeup race with a 1 ms `wait_timeout` busy-poll.  The
/// persistent queue parks followers of a slow leader and wakes idle workers
/// through a timeout-free condvar protocol — so a 4-worker batch dominated by
/// one slow leader with many released followers must complete with every
/// parked job released exactly once and zero blocked builds.  (Under the old
/// busy-poll a lost wakeup was invisible; under a broken condvar protocol this
/// test hangs instead of spinning.)
#[test]
fn slow_leader_batch_completes_without_timed_out_waits() {
    let service = AnalysisService::new(ServiceOptions {
        workers: 4,
        cache_capacity: 32,
        ..ServiceOptions::default()
    });
    // One expensive structure (the full CAS — a multi-millisecond aggregation)
    // duplicated many times, plus cheap distinct trees to keep the other
    // workers busy while the leader builds.
    let copies = 8;
    let mut jobs: Vec<AnalysisRequest> = (0..copies)
        .map(|_| {
            job_request(
                cas(),
                AnalysisOptions::default(),
                vec![Measure::Unreliability(1.0)],
            )
        })
        .collect();
    for i in 0..4 {
        jobs.push(job_request(
            variant(&format!("cheap{i}"), 1.0 + i as f64),
            AnalysisOptions::default(),
            vec![Measure::Unreliability(1.0)],
        ));
    }

    let reports = run_jobs(&service, jobs);
    let stats = totals(&reports);
    assert_eq!(stats.jobs, copies + 4);
    assert_eq!(stats.aggregation_runs, 5, "CAS once, 4 cheap trees");
    assert_eq!(stats.cache_misses, 5);
    assert_eq!(stats.cache_hits, copies - 1);
    assert_eq!(
        stats.build_waits, 0,
        "followers of the slow leader must park, never block on its build"
    );
    for job in &reports {
        assert!(job.results.is_ok());
    }
    let queue = service.queue_stats();
    assert_eq!(
        queue.released, queue.parked,
        "every parked follower is released exactly once"
    );
    assert_eq!(queue.submitted, (copies + 4) as u64);
}

/// The bits of every point of a sweep outcome (or its error), comparable
/// with `==`.
fn sweep_bits(results: &Result<Vec<MeasureResult>, Error>) -> Result<Vec<Bits>, Error> {
    results
        .as_ref()
        .map(|results| results.iter().map(bits_of).collect())
        .map_err(Clone::clone)
}

/// Sweeps `measures` over `dft` scaled by each of `scales` through the
/// service and asserts every point is bit-identical to instantiating that
/// valuation alone and answering the measures in one `query_all`.
fn assert_sweep_matches_instantiate(
    service: &AnalysisService,
    dft: &Dft,
    options: &AnalysisOptions,
    measures: &[Measure],
    scales: &[f64],
) -> SweepReport {
    let parametric = ParametricAnalyzer::new(dft, options.clone()).unwrap();
    let valuations: Vec<Valuation> = scales
        .iter()
        .map(|&s| parametric.params().scaled_valuation(s))
        .collect();
    let report = sweep_report(service.run_request(sweep_request(
        dft.clone(),
        options.clone(),
        measures.to_vec(),
        SweepSpec::Valuations(valuations.clone()),
    )));
    assert_eq!(report.points.len(), valuations.len());
    for (point, valuation) in report.points.iter().zip(&valuations) {
        let reference = parametric
            .instantiate(valuation)
            .and_then(|session| session.query_all(measures));
        assert_eq!(point.valuation_fingerprint, valuation.fingerprint());
        assert_eq!(
            sweep_bits(&point.results),
            sweep_bits(&reference),
            "{:?} sweep point {} diverged from instantiate + query_all",
            options.method,
            valuation.fingerprint()
        );
    }
    report
}

/// A repairable tree: a redundant pair of repairable events under an OR
/// with a third repairable event, so unavailability, MTTF and unreliability
/// are all defined.
fn repairable_tree() -> Dft {
    let mut b = DftBuilder::new();
    let p = b
        .repairable_basic_event("rep_P", 1.0, Dormancy::Hot, 4.0)
        .unwrap();
    let s = b
        .repairable_basic_event("rep_S", 1.5, Dormancy::Hot, 4.0)
        .unwrap();
    let pair = b.and_gate("rep_Pair", &[p, s]).unwrap();
    let x = b
        .repairable_basic_event("rep_X", 0.3, Dormancy::Hot, 9.0)
        .unwrap();
    let top = b.or_gate("rep_Top", &[pair, x]).unwrap();
    b.build(top).unwrap()
}

/// The service-level rate sweep: one parametric aggregation feeds a whole
/// fleet of rate variants, every point is bit-identical to
/// `instantiate` + `query_all`, and time-bounded measures ride the
/// lane-batched kernel without creating one instantiated session.
#[test]
fn service_sweeps_share_one_parametric_model() {
    let options = AnalysisOptions {
        epsilon: 1e-13,
        ..AnalysisOptions::default()
    };
    let service = AnalysisService::new(ServiceOptions {
        workers: 2,
        cache_capacity: 64,
        ..ServiceOptions::default()
    });
    let measures = [Measure::Unreliability(1.0), Measure::curve([0.5, 1.5])];

    let before = service.cache_stats();
    let batched_before = kernel::stats().batched_calls;
    // One duplicate valuation.
    let report = assert_sweep_matches_instantiate(
        &service,
        &cas(),
        &options,
        &measures,
        &[1.0, 1.2, 1.4, 1.2],
    );
    assert!(
        kernel::stats().batched_calls > batched_before,
        "a service sweep must run on the lane-batched kernel"
    );
    assert_eq!(report.stats.valuations, 4);
    assert_eq!(
        report.stats.aggregation_runs, 1,
        "the whole sweep pays one aggregation"
    );
    assert!(!report.stats.parametric_cache_hit);
    let after = service.cache_stats();
    assert_eq!(after.entries, before.entries);
    assert_eq!((after.hits, after.misses), (before.hits, before.misses));

    // A second sweep over the same structure — even with *different* rates in
    // the submitted tree — reuses the cached parametric model outright.
    let parametric = ParametricAnalyzer::new(&cas(), options.clone()).unwrap();
    let report2 = sweep_report(service.run_request(sweep_request(
        cas_scaled(3.0),
        options,
        vec![Measure::Unreliability(1.0)],
        SweepSpec::Valuations(vec![parametric.params().scaled_valuation(1.4)]),
    )));
    assert!(report2.stats.parametric_cache_hit);
    assert_eq!(report2.stats.aggregation_runs, 0);
    assert_eq!(
        bits_of(&report2.points[0].results.as_ref().unwrap()[0]),
        bits_of(&report.points[2].results.as_ref().unwrap()[0]),
        "the cached model answers a repeated valuation with the same bits"
    );
    let stats = service.cache_stats();
    assert_eq!(stats.entries, before.entries);
    assert_eq!(stats.parametric_entries, 1);
    assert_eq!(stats.parametric_misses, 1);
    assert_eq!(stats.parametric_hits, 1);
}

/// Bit-identity across backends and measure mixes, errors included: the
/// compositional and hybrid methods on a nondeterministic tree (whose MTTF
/// fails on every point), a hybrid crowned tree (whose MTTF is unsupported),
/// unavailability of an unrepairable tree, and a repairable tree asking for
/// a point, a curve with a duplicate time, unavailability and MTTF in one
/// request.
#[test]
fn service_sweeps_are_bit_identical_to_instantiate_plus_query_all() {
    let service = AnalysisService::new(ServiceOptions {
        workers: 2,
        cache_capacity: 64,
        ..ServiceOptions::default()
    });
    let timed = [
        Measure::Unreliability(1.0),
        Measure::curve([0.5, 1.5, 0.5, 2.0]),
    ];
    let scales = [0.5, 1.0, 1.7];
    let options = |method| AnalysisOptions {
        method,
        ..AnalysisOptions::default()
    };
    for method in [Method::Compositional, Method::Hybrid] {
        assert!(ParametricAnalyzer::new(&cas(), options(method))
            .unwrap()
            .is_nondeterministic());
        assert_sweep_matches_instantiate(&service, &cas(), &options(method), &timed, &scales);
        let report = assert_sweep_matches_instantiate(
            &service,
            &cas(),
            &options(method),
            &[Measure::Unreliability(1.0), Measure::Mttf],
            &scales,
        );
        assert!(
            report
                .points
                .iter()
                .all(|point| matches!(point.results, Err(Error::Ioimc(_)))),
            "MTTF of a CTMDP fails on the tangible extraction"
        );
    }
    // A static OR crown over dynamic cores: the hybrid backend decomposes
    // it, so its batched sweep runs one nested lane pass per core.
    let crowned = variant("hyb", 1.0);
    assert!(ParametricAnalyzer::new(&crowned, options(Method::Hybrid))
        .unwrap()
        .module_stats()
        .is_some());
    assert_sweep_matches_instantiate(
        &service,
        &crowned,
        &options(Method::Hybrid),
        &timed,
        &scales,
    );
    for (method, measure) in [
        (Method::Hybrid, Measure::Mttf),
        (Method::Compositional, Measure::Unavailability),
    ] {
        let report = assert_sweep_matches_instantiate(
            &service,
            &crowned,
            &options(method),
            &[Measure::Unreliability(1.0), measure],
            &scales,
        );
        assert!(report
            .points
            .iter()
            .all(|point| matches!(point.results, Err(Error::Unsupported { .. }))));
    }

    let mixed = [
        Measure::Unreliability(1.0),
        Measure::curve([1.0, 0.5, 1.0]),
        Measure::Unavailability,
        Measure::Mttf,
    ];
    let report = assert_sweep_matches_instantiate(
        &service,
        &repairable_tree(),
        &AnalysisOptions::default(),
        &mixed,
        &scales,
    );
    assert!(report.points.iter().all(|point| point.results.is_ok()));
}

/// A sweep builds no session per valuation, so it leaves the session cache
/// alone: a steady-state sweep with more valuations than the cache holds
/// evicts none of the cached trees, which stay cache hits.
#[test]
fn sweeps_leave_the_session_cache_alone() {
    let capacity = 8;
    let service = AnalysisService::new(ServiceOptions {
        workers: 1,
        cache_capacity: capacity,
        ..ServiceOptions::default()
    });
    let options = AnalysisOptions::default();
    let trees: Vec<Dft> = (0..capacity)
        .map(|i| variant(&format!("keep{i}"), 1.0 + 0.125 * i as f64))
        .collect();
    for tree in &trees {
        service.analyzer(tree, &options).unwrap();
    }
    let before = service.cache_stats();
    assert_eq!((before.entries, before.evictions), (capacity, 0));

    let scales: Vec<f64> = (0..2 * capacity).map(|i| 0.5 + 0.1 * i as f64).collect();
    let report = assert_sweep_matches_instantiate(
        &service,
        &repairable_tree(),
        &options,
        &[Measure::Unavailability, Measure::Mttf],
        &scales,
    );
    assert!(report.points.iter().all(|point| point.results.is_ok()));
    let after = service.cache_stats();
    assert_eq!(
        (after.evictions, after.entries, after.hits, after.misses),
        (before.evictions, before.entries, before.hits, before.misses),
        "a sweep must not touch the session cache"
    );

    for tree in &trees {
        service.analyzer(tree, &options).unwrap();
    }
    let again = service.cache_stats();
    assert_eq!(
        again.hits - after.hits,
        capacity,
        "every tree is still cached"
    );
    assert_eq!(again.misses, after.misses);
}

/// A valuation whose uniformisation cannot finish (a failure rate scaled by
/// 1e300) fails the batched pass; the sweep reruns the lanes one at a time,
/// so the error lands on that point alone and its neighbours are still
/// bit-identical to `instantiate` + `query_all` — with and without MTTF,
/// and for MTTF alone, which needs no uniformisation.
#[test]
fn sweep_errors_stay_on_their_own_point() {
    let service = AnalysisService::new(ServiceOptions {
        workers: 1,
        cache_capacity: 16,
        ..ServiceOptions::default()
    });
    let report = assert_sweep_matches_instantiate(
        &service,
        &cas(),
        &AnalysisOptions::default(),
        &[Measure::Unreliability(1.0)],
        &[1.0, 1e300, 2.0],
    );
    assert!(report.points[0].results.is_ok());
    assert!(report.points[1].results.is_err());
    assert!(report.points[2].results.is_ok());

    let deterministic = variant("huge", 1.0);
    let report = assert_sweep_matches_instantiate(
        &service,
        &deterministic,
        &AnalysisOptions::default(),
        &[Measure::Unreliability(1.0), Measure::Mttf],
        &[1.0, 1e300, 2.0],
    );
    assert!(report.points[0].results.is_ok());
    assert!(report.points[1].results.is_err());
    assert!(report.points[2].results.is_ok());
    assert_sweep_matches_instantiate(
        &service,
        &deterministic,
        &AnalysisOptions::default(),
        &[Measure::Mttf],
        &[1.0, 1e300, 2.0],
    );
}

/// A monolithic sweep fails with a typed error per point (the baseline has no
/// parametric form) — and must cache that error under its *own* key: a later
/// compositional sweep of the same structure and epsilon still succeeds.
#[test]
fn monolithic_sweeps_do_not_poison_the_parametric_cache() {
    let service = AnalysisService::new(ServiceOptions {
        workers: 1,
        cache_capacity: 8,
        ..ServiceOptions::default()
    });
    let mut b = DftBuilder::new();
    let x = b.basic_event("poison_X", 1.0, Dormancy::Hot).unwrap();
    let top = b.or_gate("poison_Top", &[x]).unwrap();
    let dft = b.build(top).unwrap();
    let valuation = Valuation::new(vec![2.0]);

    let monolithic = sweep_report(service.run_request(sweep_request(
        dft.clone(),
        AnalysisOptions {
            method: Method::Monolithic,
            ..AnalysisOptions::default()
        },
        vec![Measure::Unreliability(1.0)],
        SweepSpec::Valuations(vec![valuation.clone()]),
    )));
    assert!(matches!(
        monolithic.points[0].results,
        Err(Error::Unsupported { .. })
    ));
    assert_eq!(monolithic.stats.aggregation_runs, 0);

    // Same structure, same epsilon, compositional method: must build fine.
    let compositional = sweep_report(service.run_request(sweep_request(
        dft,
        AnalysisOptions::default(),
        vec![Measure::Unreliability(1.0)],
        SweepSpec::Valuations(vec![valuation]),
    )));
    let results = compositional.points[0].results.as_ref().unwrap();
    let exact = 1.0 - (-2.0f64).exp();
    assert!((results[0].value() - exact).abs() < 1e-6);
    assert!(!compositional.stats.parametric_cache_hit);
    assert_eq!(compositional.stats.aggregation_runs, 1);
}

/// `HybridStats` counts fresh `Method::Hybrid` builds: a job's session and a
/// sweep's parametric model bump `builds` once each, a cache hit bumps
/// nothing, and a second service restoring both models from the warm store
/// bumps once per load, exactly like the first service's builds.
#[test]
fn hybrid_stats_count_fresh_builds_and_store_loads() {
    let dir = std::env::temp_dir().join(format!("dftmc-service-hybrid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hybrid = AnalysisOptions {
        method: Method::Hybrid,
        ..AnalysisOptions::default()
    };
    let tree = variant("hstat", 1.0);
    let job = || {
        job_request(
            tree.clone(),
            hybrid.clone(),
            vec![Measure::Unreliability(1.0)],
        )
    };
    let sweep = || {
        sweep_request(
            tree.clone(),
            hybrid.clone(),
            vec![Measure::Unreliability(1.0)],
            SweepSpec::FailureScales(vec![0.5, 2.0]),
        )
    };
    let mut first_generation = None;
    for generation in 0..2 {
        let service = AnalysisService::new(
            ServiceOptions {
                workers: 1,
                ..ServiceOptions::default()
            }
            .store(&dir),
        );
        assert_eq!(service.hybrid_stats(), HybridStats::default());

        let report = job_report(service.run_request(job()));
        assert!(!report.cache_hit);
        // A store load runs no aggregation; a build runs one per core.
        assert_eq!(report.aggregation_runs == 0, generation == 1);
        let after_job = service.hybrid_stats();
        assert_eq!((after_job.builds, after_job.fallbacks), (1, 0));
        assert!(after_job.cores >= 1 && after_job.crown_elements >= 1);

        let report = sweep_report(service.run_request(sweep()));
        assert!(!report.stats.parametric_cache_hit);
        assert_eq!(report.stats.aggregation_runs == 0, generation == 1);
        let after_sweep = service.hybrid_stats();
        assert_eq!((after_sweep.builds, after_sweep.fallbacks), (2, 0));

        // Cache hits on both key spaces bump nothing.
        assert!(job_report(service.run_request(job())).cache_hit);
        assert!(
            sweep_report(service.run_request(sweep()))
                .stats
                .parametric_cache_hit
        );
        assert_eq!(service.hybrid_stats(), after_sweep);

        let store = service
            .store_stats()
            .expect("the store directory is usable");
        assert_eq!(store.hits, if generation == 0 { 0 } else { 2 });
        match first_generation {
            None => first_generation = Some(after_sweep),
            Some(first) => assert_eq!(after_sweep, first),
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove the store directory");
}
