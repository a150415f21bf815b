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
//!    panicking in the result accessors.

mod common;

use common::{job_report, job_request, run_jobs, sweep_report, sweep_request, totals, Totals};
use dftmc::dft::{Dft, DftBuilder, Dormancy};
use dftmc::dft_core::casestudies::{cas, cas_scaled, DEFAULT_MISSION_TIMES};
use dftmc::dft_core::engine::Analyzer;
use dftmc::dft_core::service::{AnalysisService, JobReport, RequestHandle, ServiceOptions};
use dftmc::dft_core::{AnalysisOptions, AnalysisRequest, Error, Measure, MeasureResult, SweepSpec};
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

fn bits_of(result: &MeasureResult) -> Vec<(Option<u64>, u64, u64, u64)> {
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

/// The service-level rate sweep: one parametric aggregation feeds a whole
/// fleet of rate variants, duplicate valuations are cache hits, and every
/// point matches a direct per-variant [`Analyzer`] build.
#[test]
fn service_sweeps_share_one_parametric_model() {
    use dftmc::dft_core::engine::ParametricAnalyzer;

    let options = AnalysisOptions {
        epsilon: 1e-13,
        ..AnalysisOptions::default()
    };
    let service = AnalysisService::new(ServiceOptions {
        workers: 2,
        cache_capacity: 64,
        ..ServiceOptions::default()
    });

    let parametric = ParametricAnalyzer::new(&cas(), options.clone()).unwrap();
    let scales = [1.0, 1.2, 1.4, 1.2]; // one duplicate valuation
    let valuations: Vec<_> = scales
        .iter()
        .map(|&s| parametric.params().scaled_valuation(s))
        .collect();
    let measures = vec![Measure::Unreliability(1.0), Measure::curve([0.5, 1.5])];
    let job = sweep_request(
        cas(),
        options.clone(),
        measures.clone(),
        SweepSpec::Valuations(valuations),
    );

    let report = sweep_report(service.run_request(job));
    assert_eq!(report.stats.valuations, 4);
    assert_eq!(
        report.stats.aggregation_runs, 1,
        "the whole sweep pays one aggregation"
    );
    assert!(!report.stats.parametric_cache_hit);
    assert_eq!(report.stats.cache_misses, 3, "three distinct valuations");
    assert_eq!(
        report.stats.cache_hits, 1,
        "the duplicate valuation is a hit"
    );

    for (i, &scale) in scales.iter().enumerate() {
        let point = &report.points[i];
        let results = point.results.as_ref().unwrap();
        assert_eq!(results.len(), 2);
        let direct = Analyzer::new(&cas_scaled(scale), options.clone()).unwrap();
        let reference = direct.query_all(&measures).unwrap();
        for (ours, exact) in results.iter().zip(&reference) {
            for (a, b) in ours.points().iter().zip(exact.points()) {
                assert!(
                    (a.value() - b.value()).abs() <= 1e-12,
                    "scale {scale}: {} vs {}",
                    a.value(),
                    b.value()
                );
            }
        }
    }

    // A second sweep over the same structure — even with *different* rates in
    // the submitted tree — reuses the cached parametric model outright.
    let report2 = sweep_report(service.run_request(sweep_request(
        cas_scaled(3.0),
        options,
        vec![Measure::Unreliability(1.0)],
        SweepSpec::Valuations(vec![parametric.params().scaled_valuation(1.4)]),
    )));
    assert!(report2.stats.parametric_cache_hit);
    assert_eq!(report2.stats.aggregation_runs, 0);
    assert_eq!(report2.stats.cache_hits, 1, "valuation session reused too");
    let stats = service.cache_stats();
    assert_eq!(stats.parametric_entries, 1);
    assert_eq!(stats.parametric_misses, 1);
    assert_eq!(stats.parametric_hits, 1);
}

/// A monolithic sweep fails with a typed error per point (the baseline has no
/// parametric form) — and must cache that error under its *own* key: a later
/// compositional sweep of the same structure and epsilon still succeeds.
#[test]
fn monolithic_sweeps_do_not_poison_the_parametric_cache() {
    use dftmc::dft_core::{Method, Valuation};

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
