//! Shared infrastructure for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! experiment here:
//!
//! * **E2 (CAS, Section 5.1)** — [`run_cas_experiment`]
//! * **E3/E4 (CPS, Section 5.2, Figures 8/9)** — [`run_cps_experiment`]
//! * **E5 (Figure 6)** — [`run_nondeterminism_experiment`]
//! * **E8 (Figures 13–15)** — [`run_repair_experiment`]
//! * **E9 (scaling discussion of Section 5.2)** — [`run_scaling_experiment`]
//!
//! The experiment binaries in `src/bin/` print these results as tables; the
//! benches in `benches/` measure run times with the dependency-free harness in
//! [`timing`].
//!
//! All experiments run on the [`Analyzer`] session engine, which separates the
//! **build** phase (conversion + compositional aggregation, paid once) from the
//! **query** phase (uniformisation / steady state, paid per measure).  The
//! [`PhaseTimings`] attached to the experiment results report the two phases
//! separately — the build/query split is the engine's raison d'être, so the
//! harness measures it everywhere.

#![forbid(unsafe_code)]

use dft::{Dft, DftBuilder, Dormancy, ElementId};
use dft_core::analysis::{AnalysisOptions, Method};
use dft_core::casestudies::{
    cas, cas_cpu_unit, cas_motor_unit, cas_pump_unit, cas_scaled, cascaded_pand, cps,
    DEFAULT_MISSION_TIMES,
};
use dft_core::engine::{Analyzer, ParametricAnalyzer};
use dft_core::parametric::Valuation;
use dft_core::query::{Measure, MeasureResult};
use dft_core::request::{AnalysisRequest, SweepSpec};
use dft_core::rng::SplitMix64;
use dft_core::service::{AnalysisService, JobReport, RequestOutcome, ServiceOptions};
use dft_core::Result;
use std::path::Path;
use std::time::{Duration, Instant};

pub mod fuzz;
pub mod serve_load;
pub mod timing;

/// Paper-vs-measured record for a single scalar result.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Value reported in the paper (if any).
    pub paper: Option<f64>,
    /// Value measured by this implementation.
    pub measured: f64,
}

impl Comparison {
    /// Relative deviation from the paper value, when one exists.
    pub fn relative_error(&self) -> Option<f64> {
        self.paper.map(|p| ((self.measured - p) / p).abs())
    }
}

/// Wall-clock cost of the two phases of an [`Analyzer`] session.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimings {
    /// Build phase: validation, conversion and compositional aggregation
    /// ([`Analyzer::new`]), paid once per session.
    pub build: Duration,
    /// Query phase: every measure evaluated against the cached model.
    pub query: Duration,
}

fn monolithic_options() -> AnalysisOptions {
    AnalysisOptions {
        method: Method::Monolithic,
        ..AnalysisOptions::default()
    }
}

/// Results of the cardiac-assist-system experiment (E2).
#[derive(Debug, Clone)]
pub struct CasExperiment {
    /// Unreliability at mission time 1 (paper: 0.6579).
    pub unreliability: Comparison,
    /// Unreliability from the monolithic baseline.
    pub monolithic_unreliability: f64,
    /// Peak intermediate size during compositional aggregation (states).
    pub peak_states: usize,
    /// Aggregated model sizes of the three independent units (states).
    pub module_states: Vec<(String, usize)>,
    /// Size of the monolithic chain over the full system (states).
    pub monolithic_states: usize,
    /// Build/query wall-clock split of the compositional session.
    pub timings: PhaseTimings,
}

/// Runs the CAS experiment.
///
/// # Errors
///
/// Propagates analysis errors (none occur for the fixed case study).
pub fn run_cas_experiment() -> Result<CasExperiment> {
    let dft = cas();

    let build_start = Instant::now();
    let analyzer = Analyzer::new(&dft, AnalysisOptions::default())?;
    let build = build_start.elapsed();
    let query_start = Instant::now();
    let comp = analyzer.unreliability(1.0)?;
    let query = query_start.elapsed();

    let mono_analyzer = Analyzer::new(&dft, monolithic_options())?;
    let mono = mono_analyzer.unreliability(1.0)?;

    let mut module_states = Vec::new();
    for (name, module) in [
        ("CPU_unit", cas_cpu_unit()),
        ("Motor_unit", cas_motor_unit()),
        ("Pump_unit", cas_pump_unit()),
    ] {
        let (model, _) = dft_core::analysis::aggregated_model(&module)?;
        module_states.push((name.to_owned(), model.num_states()));
    }
    Ok(CasExperiment {
        unreliability: Comparison {
            paper: Some(dft_core::casestudies::CAS_PAPER_UNRELIABILITY),
            measured: comp.value(),
        },
        monolithic_unreliability: mono.value(),
        peak_states: analyzer
            .aggregation_stats()
            .expect("compositional run")
            .peak
            .states,
        module_states,
        monolithic_states: mono_analyzer.model_stats().states,
        timings: PhaseTimings { build, query },
    })
}

/// Results of the cascaded-PAND experiment (E3/E4).
#[derive(Debug, Clone)]
pub struct CpsExperiment {
    /// Unreliability at mission time 1 (paper: 0.00135).
    pub unreliability: Comparison,
    /// Peak intermediate states during compositional aggregation (paper: 156).
    pub peak_states: Comparison,
    /// Peak intermediate transitions (paper: 490).
    pub peak_transitions: Comparison,
    /// Monolithic chain states (paper: 4113).
    pub monolithic_states: Comparison,
    /// Monolithic chain transitions (paper: 24608).
    pub monolithic_transitions: Comparison,
    /// States of the aggregated I/O-IMC of one AND module (Figure 9).
    pub module_a_states: usize,
    /// Build/query wall-clock split of the compositional session.
    pub timings: PhaseTimings,
}

/// Runs the CPS experiment.
///
/// # Errors
///
/// Propagates analysis errors (none occur for the fixed case study).
pub fn run_cps_experiment() -> Result<CpsExperiment> {
    use dft_core::casestudies::{CPS_PAPER_MONOLITHIC, CPS_PAPER_PEAK, CPS_PAPER_UNRELIABILITY};
    let dft = cps();

    let build_start = Instant::now();
    let analyzer = Analyzer::new(&dft, AnalysisOptions::default())?;
    let build = build_start.elapsed();
    let query_start = Instant::now();
    let comp = analyzer.unreliability(1.0)?;
    let query = query_start.elapsed();
    let stats = analyzer.aggregation_stats().expect("compositional run");

    let mono_analyzer = Analyzer::new(&dft, monolithic_options())?;
    let mono = mono_analyzer.model_stats();

    let module_a = single_and_module(4, 1.0);
    let (module_model, _) = dft_core::analysis::aggregated_model(&module_a)?;

    Ok(CpsExperiment {
        unreliability: Comparison {
            paper: Some(CPS_PAPER_UNRELIABILITY),
            measured: comp.value(),
        },
        peak_states: Comparison {
            paper: Some(CPS_PAPER_PEAK.0 as f64),
            measured: stats.peak.states as f64,
        },
        peak_transitions: Comparison {
            paper: Some(CPS_PAPER_PEAK.1 as f64),
            measured: stats.peak.transitions() as f64,
        },
        monolithic_states: Comparison {
            paper: Some(CPS_PAPER_MONOLITHIC.0 as f64),
            measured: mono.states as f64,
        },
        monolithic_transitions: Comparison {
            paper: Some(CPS_PAPER_MONOLITHIC.1 as f64),
            measured: mono.markovian_transitions as f64,
        },
        module_a_states: module_model.num_states(),
        timings: PhaseTimings { build, query },
    })
}

/// A single AND module of `width` identical rate-`rate` basic events (module A of
/// Figure 8/9).
pub fn single_and_module(width: usize, rate: f64) -> Dft {
    let mut b = DftBuilder::new();
    let events: Vec<ElementId> = (0..width)
        .map(|i| {
            b.basic_event(&format!("A_{i}"), rate, Dormancy::Hot)
                .expect("valid BE")
        })
        .collect();
    let top = b.and_gate("A", &events).expect("valid gate");
    b.build(top).expect("wellformed module")
}

/// A repairable k-out-of-n voting system over identical components, used by the
/// repair bench (E8).
pub fn repairable_voting(n: usize, failure_rate: f64, repair_rate: f64) -> Dft {
    let mut b = DftBuilder::new();
    let events: Vec<ElementId> = (0..n)
        .map(|i| {
            b.repairable_basic_event(&format!("R{i}"), failure_rate, Dormancy::Hot, repair_rate)
                .expect("valid BE")
        })
        .collect();
    let k = (n.div_ceil(2)) as u32;
    let top = b.voting_gate("system", k, &events).expect("valid gate");
    b.build(top).expect("wellformed DFT")
}

/// One row of the scaling experiment (E9).
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Number of basic events per AND module.
    pub width: usize,
    /// Total number of basic events.
    pub basic_events: usize,
    /// Peak states during compositional aggregation.
    pub compositional_peak: usize,
    /// States of the monolithic chain.
    pub monolithic_states: usize,
    /// Unreliability at mission time 1 (agreement check between the methods).
    pub unreliability: f64,
}

/// Runs the scaling experiment over the cascaded-PAND family: for growing module
/// width, compare the compositional peak against the monolithic chain size.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn run_scaling_experiment(max_width: usize) -> Result<Vec<ScalingRow>> {
    let mut rows = Vec::new();
    for width in 1..=max_width {
        let dft = cascaded_pand(width, 1.0);
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default())?;
        let mono_analyzer = Analyzer::new(&dft, monolithic_options())?;
        rows.push(ScalingRow {
            width,
            basic_events: dft.num_basic_events(),
            compositional_peak: analyzer
                .aggregation_stats()
                .expect("compositional")
                .peak
                .states,
            monolithic_states: mono_analyzer.model_stats().states,
            unreliability: analyzer.unreliability(1.0)?.value(),
        });
    }
    Ok(rows)
}

/// A "highly connected" DFT family for the negative result the paper mentions at
/// the end of Section 5.2: `n` basic events, every pair feeding a shared AND gate,
/// all gates collected under one OR.  There are no independent modules, so
/// compositional aggregation has little structure to exploit.
pub fn highly_connected(n: usize, rate: f64) -> Dft {
    let mut b = DftBuilder::new();
    let events: Vec<ElementId> = (0..n)
        .map(|i| {
            b.basic_event(&format!("hc_{i}"), rate, Dormancy::Hot)
                .expect("valid BE")
        })
        .collect();
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push(
                b.and_gate(&format!("hc_and_{i}_{j}"), &[events[i], events[j]])
                    .expect("valid gate"),
            );
        }
    }
    let top = b.or_gate("hc_top", &pairs).expect("valid gate");
    b.build(top).expect("wellformed DFT")
}

/// One row of the connectivity experiment: modular versus highly connected trees
/// of the same size.
#[derive(Debug, Clone)]
pub struct ConnectivityRow {
    /// Number of basic events.
    pub basic_events: usize,
    /// Peak states for the highly connected tree.
    pub connected_peak: usize,
    /// Peak states for a modular tree with the same number of events
    /// (cascaded-PAND family).
    pub modular_peak: usize,
}

/// Runs the connectivity experiment (the qualitative claim that compositional
/// aggregation helps less for highly connected DFTs).
///
/// # Errors
///
/// Propagates analysis errors.
pub fn run_connectivity_experiment(sizes: &[usize]) -> Result<Vec<ConnectivityRow>> {
    let peak_of = |dft: &Dft| -> Result<usize> {
        let analyzer = Analyzer::new(dft, AnalysisOptions::default())?;
        Ok(analyzer
            .aggregation_stats()
            .expect("compositional")
            .peak
            .states)
    };
    let mut rows = Vec::new();
    for &n in sizes {
        let connected_peak = peak_of(&highly_connected(n, 1.0))?;
        // A modular tree with a comparable number of events: width n/3 rounded up.
        let width = n.div_ceil(3).max(1);
        let modular_peak = peak_of(&cascaded_pand(width, 1.0))?;
        rows.push(ConnectivityRow {
            basic_events: n,
            connected_peak,
            modular_peak,
        });
    }
    Ok(rows)
}

/// Results of the repairable-system experiment (E8).
#[derive(Debug, Clone)]
pub struct RepairExperiment {
    /// Computed unavailability of the Figure-15 system.
    pub unavailability: Comparison,
    /// Mean time to first system failure of the same session.
    pub mttf: f64,
    /// Number of states of the final aggregated model.
    pub final_states: usize,
}

/// Runs the repairable AND experiment of Figure 15 with the given rates.
///
/// One [`Analyzer`] session answers both the steady-state unavailability and the
/// mean time to first failure.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn run_repair_experiment(
    failure_a: f64,
    failure_b: f64,
    repair_rate: f64,
) -> Result<RepairExperiment> {
    let mut b = DftBuilder::new();
    let a = b.repairable_basic_event("A", failure_a, Dormancy::Hot, repair_rate)?;
    let bb = b.repairable_basic_event("B", failure_b, Dormancy::Hot, repair_rate)?;
    let top = b.and_gate("system", &[a, bb])?;
    let dft = b.build(top)?;
    let analyzer = Analyzer::new(&dft, AnalysisOptions::default())?;
    let unavailability = analyzer.unavailability()?.value();
    let mttf = analyzer.mttf()?.value();
    let exact = (failure_a / (failure_a + repair_rate)) * (failure_b / (failure_b + repair_rate));
    Ok(RepairExperiment {
        unavailability: Comparison {
            paper: Some(exact),
            measured: unavailability,
        },
        mttf,
        final_states: analyzer.model_stats().states,
    })
}

/// Results of the non-determinism experiment (E5, Figure 6(a)).
#[derive(Debug, Clone)]
pub struct NondeterminismRow {
    /// Mission time.
    pub mission_time: f64,
    /// Lower bound over schedulers.
    pub lower: f64,
    /// Upper bound over schedulers.
    pub upper: f64,
    /// The deterministic resolution chosen by the DIFTree-style baseline.
    pub baseline: f64,
}

/// Results of the non-determinism experiment: the whole mission-time sweep from a
/// single build of each pipeline.
#[derive(Debug, Clone)]
pub struct NondeterminismExperiment {
    /// One row per requested mission time, in request order.
    pub rows: Vec<NondeterminismRow>,
    /// Build/query wall-clock split of the compositional session; the query phase
    /// covers the *entire* sweep (one value-iteration pass).
    pub timings: PhaseTimings,
}

/// Runs the Figure-6(a) experiment for a range of mission times.
///
/// The experiment is the archetypal sweep workload: the compositional session is
/// built once and the whole curve is answered by a single
/// [`Measure::UnreliabilityCurve`] query.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn run_nondeterminism_experiment(times: &[f64]) -> Result<NondeterminismExperiment> {
    let mut b = DftBuilder::new();
    let t = b.basic_event("T", 0.5, Dormancy::Hot)?;
    let a = b.basic_event("A", 1.0, Dormancy::Hot)?;
    let bb = b.basic_event("B", 1.0, Dormancy::Hot)?;
    let _f = b.fdep_gate("FDEP", t, &[a, bb])?;
    let top = b.pand_gate("system", &[a, bb])?;
    let dft = b.build(top)?;

    let build_start = Instant::now();
    let analyzer = Analyzer::new(&dft, AnalysisOptions::default())?;
    let build = build_start.elapsed();
    let query_start = Instant::now();
    let curve = analyzer.query(Measure::UnreliabilityCurve(times.to_vec()))?;
    let query = query_start.elapsed();

    let mono_analyzer = Analyzer::new(&dft, monolithic_options())?;
    let baseline = mono_analyzer.query(Measure::UnreliabilityCurve(times.to_vec()))?;

    let rows = curve
        .points()
        .iter()
        .zip(baseline.points())
        .map(|(comp, mono)| {
            let (lower, upper) = comp.bounds();
            NondeterminismRow {
                mission_time: comp.time().expect("curve points carry their time"),
                lower,
                upper,
                baseline: mono.value(),
            }
        })
        .collect();
    Ok(NondeterminismExperiment {
        rows,
        timings: PhaseTimings { build, query },
    })
}

/// Results of the portfolio throughput experiment (the service-layer regime:
/// many structurally overlapping trees, batched, cached, multi-worker).
#[derive(Debug, Clone)]
pub struct PortfolioExperiment {
    /// Total jobs in the batch (`distinct_trees` × copies).
    pub jobs: usize,
    /// Structurally distinct trees in the portfolio.
    pub distinct_trees: usize,
    /// Worker threads of the multi-worker run (after auto-detection).
    pub workers: usize,
    /// Wall-clock of the whole batch on a single worker, cold cache.
    pub single_worker_wall: Duration,
    /// Wall-clock of the whole batch on the full worker pool, cold cache.
    pub multi_worker_wall: Duration,
    /// Build-phase time summed over jobs (multi-worker run).
    pub build_time: Duration,
    /// Query-phase time summed over jobs (multi-worker run).
    pub query_time: Duration,
    /// Cache hits of the multi-worker run.
    pub cache_hits: usize,
    /// Cache misses of the multi-worker run.
    pub cache_misses: usize,
    /// Aggregation runs of the multi-worker run — must equal `distinct_trees`.
    pub aggregation_runs: usize,
    /// `true` when every job of both service runs returned results bit-identical
    /// to a sequential [`Analyzer`] run over the same tree.
    pub bit_identical: bool,
}

/// Two measure results are bit-identical: same shape, and every time, value and
/// bound agrees down to the floating-point bit pattern.
fn bitwise_eq(a: &MeasureResult, b: &MeasureResult) -> bool {
    a.points().len() == b.points().len()
        && a.points().iter().zip(b.points()).all(|(x, y)| {
            x.time().map(f64::to_bits) == y.time().map(f64::to_bits)
                && x.value().to_bits() == y.value().to_bits()
                && x.bounds().0.to_bits() == y.bounds().0.to_bits()
                && x.bounds().1.to_bits() == y.bounds().1.to_bits()
        })
}

/// A request for `measures` over `dft` with default options and no sweep.
fn job_request(dft: &Dft, measures: &[Measure]) -> AnalysisRequest {
    AnalysisRequest {
        measures: measures.to_vec(),
        ..AnalysisRequest::new(dft.clone())
    }
}

/// The report of a request without a sweep.
fn job_report(outcome: RequestOutcome) -> JobReport {
    match outcome {
        RequestOutcome::Job(report) => report,
        RequestOutcome::Sweep(_) => unreachable!("a request without a sweep is a job"),
    }
}

/// Submits every request before waiting for any, so the whole batch is
/// queued at once; the reports come back in submission order.
fn run_jobs(service: &AnalysisService, requests: Vec<AnalysisRequest>) -> Vec<JobReport> {
    let handles: Vec<_> = requests
        .into_iter()
        .map(|request| service.submit_request(request))
        .collect();
    handles
        .into_iter()
        .map(|handle| job_report(handle.wait()))
        .collect()
}

/// Runs the portfolio throughput experiment: a batch of `distinct × copies`
/// rate-scaled CAS variants ([`cas_scaled`]), answered by an [`AnalysisService`]
/// once on a single worker and once on `workers` workers (0 = one per core),
/// both from a cold cache, with every job's results checked bit-for-bit against
/// a sequential [`Analyzer`] reference.
///
/// # Errors
///
/// Propagates analysis errors from the sequential reference (the service runs
/// report per-job errors, which fail the bit-identity check instead).
pub fn run_portfolio_experiment(
    distinct: usize,
    copies: usize,
    workers: usize,
) -> Result<PortfolioExperiment> {
    let variants: Vec<Dft> = (0..distinct)
        .map(|i| cas_scaled(1.0 + 0.05 * i as f64))
        .collect();
    let measures = vec![Measure::curve(DEFAULT_MISSION_TIMES)];
    let jobs = distinct * copies;
    let requests = || {
        (0..jobs)
            .map(|i| job_request(&variants[i % distinct], &measures))
            .collect()
    };

    // Sequential reference: one plain Analyzer per distinct tree, no service.
    let reference: Vec<Vec<MeasureResult>> = variants
        .iter()
        .map(|dft| Analyzer::new(dft, AnalysisOptions::default())?.query_all(&measures))
        .collect::<Result<_>>()?;

    let single = AnalysisService::new(ServiceOptions {
        workers: 1,
        cache_capacity: 0,
        ..ServiceOptions::default()
    });
    let started = Instant::now();
    let single_reports = run_jobs(&single, requests());
    let single_worker_wall = started.elapsed();

    let multi = AnalysisService::new(ServiceOptions {
        workers,
        cache_capacity: 0,
        ..ServiceOptions::default()
    });
    let started = Instant::now();
    let multi_reports = run_jobs(&multi, requests());
    let multi_worker_wall = started.elapsed();

    let bit_identical = [&single_reports, &multi_reports].iter().all(|reports| {
        reports.iter().enumerate().all(|(i, job)| {
            job.results.as_ref().is_ok_and(|results| {
                let expected = &reference[i % distinct];
                results.len() == expected.len()
                    && results.iter().zip(expected).all(|(r, e)| bitwise_eq(r, e))
            })
        })
    });

    let cache_hits = multi_reports.iter().filter(|r| r.cache_hit).count();
    Ok(PortfolioExperiment {
        jobs,
        distinct_trees: distinct,
        workers: multi.pool_workers(),
        single_worker_wall,
        multi_worker_wall,
        build_time: multi_reports.iter().map(|r| r.build).sum(),
        query_time: multi_reports.iter().map(|r| r.query).sum(),
        cache_hits,
        cache_misses: jobs - cache_hits,
        aggregation_runs: multi_reports.iter().map(|r| r.aggregation_runs).sum(),
        bit_identical,
    })
}

/// Results of the async-throughput experiment: N submitting threads feeding a
/// persistent-pool service through `submit_request` versus the same jobs as
/// blocking sequential batches.
#[derive(Debug, Clone)]
pub struct ThroughputExperiment {
    /// Total jobs (`submitters` × `jobs_per_submitter`).
    pub jobs: usize,
    /// Structurally distinct trees cycled through the job list.
    pub distinct_trees: usize,
    /// Concurrent submitting threads of the queued run.
    pub submitters: usize,
    /// Jobs each submitter enqueues before waiting (the queue depth it builds).
    pub jobs_per_submitter: usize,
    /// Persistent-pool size of both services (after auto-detection).
    pub workers: usize,
    /// Wall-clock of the sequential mode (best of five cold-cache
    /// repetitions): the same client threads, serialized — one blocking
    /// batch per client, one client at a time.
    pub sequential_wall: Duration,
    /// Wall-clock of the queued mode (best of five cold-cache repetitions):
    /// all clients enqueue concurrently against one service, the pool drains
    /// continuously.
    pub queued_wall: Duration,
    /// `jobs / sequential_wall` in jobs per second.
    pub sequential_throughput: f64,
    /// `jobs / queued_wall` in jobs per second.
    pub queued_throughput: f64,
    /// `queued_throughput / sequential_throughput` (≥ 1 means the queue wins).
    pub speedup: f64,
    /// Median submit→report latency of the queued run.
    pub latency_p50: Duration,
    /// 99th-percentile submit→report latency of the queued run.
    pub latency_p99: Duration,
    /// Cache hits of the queued run.
    pub cache_hits: usize,
    /// Cache misses of the queued run.
    pub cache_misses: usize,
    /// Aggregation runs of the queued run — must equal `distinct_trees`.
    pub aggregation_runs: usize,
    /// Jobs of the queued run that blocked on a concurrent builder — must be 0
    /// (the queue parks duplicates instead).
    pub build_waits: usize,
    /// `true` when every job of both runs returned results bit-identical to a
    /// sequential [`Analyzer`] run over the same tree.
    pub bit_identical: bool,
}

/// Runs the async-throughput experiment on the portfolio workload: the same
/// `submitters × jobs_per_submitter` rate-scaled CAS jobs once as successive
/// blocking batches (one per submitter chunk, each submitted in full and then
/// awaited) and once as `submitters` concurrent threads submitting through
/// [`AnalysisService::submit_request`] and awaiting their
/// [`RequestHandle`](dft_core::service::RequestHandle)s — each mode
/// repeated five times on a fresh cold-cache service with the *best* wall
/// kept (the standard noise-floor measurement), and per-job submit→report
/// latencies recorded in the queued runs.  Both modes keep the same client
/// threads alive (the blocking mode serializes them with a mutex), so the
/// comparison isolates turn-taking versus continuous draining.  Bit-identity
/// against a sequential [`Analyzer`] reference is checked on *every*
/// repetition.
///
/// # Errors
///
/// Propagates analysis errors from the sequential reference (the service runs
/// report per-job errors, which fail the bit-identity check instead).
pub fn run_throughput_experiment(
    distinct: usize,
    submitters: usize,
    jobs_per_submitter: usize,
    workers: usize,
) -> Result<ThroughputExperiment> {
    /// Best-of-N repetitions per mode: both walls are tens of milliseconds,
    /// where single-shot measurements swing with the scheduler.
    const REPETITIONS: usize = 5;

    let variants: Vec<Dft> = (0..distinct)
        .map(|i| cas_scaled(1.0 + 0.05 * i as f64))
        .collect();
    let measures = vec![Measure::curve(DEFAULT_MISSION_TIMES)];
    // Submitter `s` cycles the variants starting at offset `s`, so duplicate
    // structures interleave *across* submitters — the regime the queue's
    // leader/follower parking exists for.
    let variant_of = |s: usize, j: usize| (s + j) % distinct;
    let chunk = |s: usize| -> Vec<AnalysisRequest> {
        (0..jobs_per_submitter)
            .map(|j| job_request(&variants[variant_of(s, j)], &measures))
            .collect()
    };

    let reference: Vec<Vec<MeasureResult>> = variants
        .iter()
        .map(|dft| Analyzer::new(dft, AnalysisOptions::default())?.query_all(&measures))
        .collect::<Result<_>>()?;
    let matches_reference = |s: usize, j: usize, results: &Result<Vec<MeasureResult>>| -> bool {
        results.as_ref().is_ok_and(|results| {
            let expected = &reference[variant_of(s, j)];
            results.len() == expected.len()
                && results.iter().zip(expected).all(|(r, e)| bitwise_eq(r, e))
        })
    };

    let mut bit_identical = true;

    // Sequential baseline: the same client threads exist, but blocking
    // batches force them to take turns — a mutex serializes the batches, so
    // each batch waits for its last job before the next client gets
    // the service.  Fresh cold-cache service per repetition.  (Keeping the
    // client threads alive in both modes isolates what the *API* changes:
    // turn-taking versus continuous draining, not thread-count effects.)
    let mut sequential_wall = Duration::MAX;
    for _ in 0..REPETITIONS {
        let sequential = AnalysisService::new(ServiceOptions {
            workers,
            cache_capacity: 0,
            ..ServiceOptions::default()
        });
        let turn = std::sync::Mutex::new(());
        let started = Instant::now();
        let reports: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..submitters)
                .map(|s| {
                    let service = &sequential;
                    let turn = &turn;
                    scope.spawn(move || {
                        let _my_turn = turn.lock().expect("turn lock");
                        run_jobs(service, chunk(s))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        sequential_wall = sequential_wall.min(started.elapsed());
        bit_identical &= reports.iter().enumerate().all(|(s, batch)| {
            batch
                .iter()
                .enumerate()
                .all(|(j, job)| matches_reference(s, j, &job.results))
        });
    }

    // Queued runs: every submitter enqueues its whole chunk first (building an
    // M-deep queue), then awaits the handles, recording per-job latency.  The
    // accounting (and the latency percentiles) come from the best repetition;
    // the cache counters are deterministic, so every repetition agrees.
    type SubmitterOutcome = (Vec<(usize, usize, JobReport)>, Vec<Duration>);
    let mut queued_wall = Duration::MAX;
    let mut best_outcomes: Vec<SubmitterOutcome> = Vec::new();
    let mut pool_workers = 0;
    for _ in 0..REPETITIONS {
        let queued = AnalysisService::new(ServiceOptions {
            workers,
            cache_capacity: 0,
            ..ServiceOptions::default()
        });
        let started = Instant::now();
        let outcomes: Vec<SubmitterOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..submitters)
                .map(|s| {
                    let service = &queued;
                    let jobs = chunk(s);
                    scope.spawn(move || {
                        let submitted: Vec<_> = jobs
                            .into_iter()
                            .enumerate()
                            .map(|(j, job)| (j, Instant::now(), service.submit_request(job)))
                            .collect();
                        let mut reports = Vec::with_capacity(submitted.len());
                        let mut latencies = Vec::with_capacity(submitted.len());
                        for (j, submitted_at, handle) in submitted {
                            let report = job_report(handle.wait());
                            latencies.push(submitted_at.elapsed());
                            reports.push((s, j, report));
                        }
                        (reports, latencies)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wall = started.elapsed();
        pool_workers = queued.pool_workers();
        bit_identical &= outcomes.iter().all(|(reports, _)| {
            reports
                .iter()
                .all(|(s, j, report)| matches_reference(*s, *j, &report.results))
        });
        if wall < queued_wall {
            queued_wall = wall;
            best_outcomes = outcomes;
        }
    }

    let mut latencies: Vec<Duration> = Vec::new();
    let (mut cache_hits, mut cache_misses, mut aggregation_runs, mut build_waits) = (0, 0, 0, 0);
    for (reports, lats) in &best_outcomes {
        latencies.extend(lats.iter().copied());
        for (_, _, report) in reports {
            if report.cache_hit {
                cache_hits += 1;
            } else {
                cache_misses += 1;
            }
            aggregation_runs += report.aggregation_runs;
            build_waits += usize::from(report.build_wait);
        }
    }
    latencies.sort();
    let jobs = submitters * jobs_per_submitter;
    let percentile = |p: usize| latencies[(jobs - 1) * p / 100];
    let sequential_throughput = jobs as f64 / sequential_wall.as_secs_f64().max(f64::MIN_POSITIVE);
    let queued_throughput = jobs as f64 / queued_wall.as_secs_f64().max(f64::MIN_POSITIVE);

    Ok(ThroughputExperiment {
        jobs,
        distinct_trees: distinct,
        submitters,
        jobs_per_submitter,
        workers: pool_workers,
        sequential_wall,
        queued_wall,
        sequential_throughput,
        queued_throughput,
        speedup: queued_throughput / sequential_throughput.max(f64::MIN_POSITIVE),
        latency_p50: percentile(50),
        latency_p99: percentile(99),
        cache_hits,
        cache_misses,
        aggregation_runs,
        build_waits,
        bit_identical,
    })
}

/// Results of the rate-sweep experiment: one parametric aggregation of the CAS
/// structure versus K independent per-scale builds.
#[derive(Debug, Clone)]
pub struct SweepExperiment {
    /// Number of sweep points (rate scales).
    pub points: usize,
    /// Mission time of the unreliability query.
    pub mission_time: f64,
    /// The rate scales swept, in order.
    pub scales: Vec<f64>,
    /// Unreliability per scale, from the parametric sweep.
    pub values: Vec<f64>,
    /// Aggregation runs of the parametric session — exactly 1 for the whole
    /// sweep, which is the point of the experiment.
    pub aggregation_runs: usize,
    /// States of the closed parametric model.
    pub parametric_states: usize,
    /// Wall-clock of the one parametric aggregation.
    pub parametric_build: Duration,
    /// Rate-form evaluation + CTMDP setup, summed over all points.
    pub sweep_instantiate: Duration,
    /// Query time, summed over all points.
    pub sweep_query: Duration,
    /// Total parametric cost: build + instantiate + query.
    pub sweep_total: Duration,
    /// Wall-clock of one independent `Analyzer::new` build + query (the first
    /// sweep point, re-done the classical way).
    pub single_point: Duration,
    /// Wall-clock of all K independent builds + queries.
    pub independent_total: Duration,
    /// `independent_total / sweep_total`: the end-to-end wall-clock win,
    /// including the one-time parametric aggregation.
    pub speedup: f64,
    /// `single_point / ((instantiate + query) / points)`: the *marginal* win
    /// per sweep point once the one aggregation is amortized — this is the
    /// acceptance ratio "total query/instantiate time vs K× single-point
    /// cost", and what long sweeps converge to.
    pub marginal_speedup: f64,
    /// Marginal cost of one *additional* sweep point in microseconds:
    /// `(full sweep wall − one-point sweep wall) / (K − 1)`.  Unlike
    /// `marginal_speedup` this is an absolute number the baseline gate can
    /// hold on to: batching K points through one kernel traversal must keep
    /// it well below the committed value.
    pub marginal_us_per_point: f64,
    /// Largest absolute difference between sweep values/bounds and the
    /// per-point independent reference.
    pub max_abs_diff: f64,
    /// `true` when `max_abs_diff` ≤ 1e-12.
    pub within_tolerance: bool,
}

/// Runs the rate-sweep experiment on the cardiac assist system: aggregate the
/// structure once ([`ParametricAnalyzer`]), instantiate `points` failure-rate
/// scales (1.0, 1.05, …) at query time, and check every unreliability value
/// against an independent [`Analyzer::new`] build of the equivalent pre-scaled
/// tree ([`cas_scaled`]).
///
/// Both sides run with a tightened truncation bound (ε = 1e-13) so the 1e-12
/// agreement check measures the models, not the numerics.
///
/// # Errors
///
/// Propagates analysis errors (none occur for the fixed case study).
pub fn run_sweep_experiment(points: usize, mission_time: f64) -> Result<SweepExperiment> {
    assert!(points > 0, "a sweep needs at least one point");
    let options = AnalysisOptions {
        epsilon: 1e-13,
        ..AnalysisOptions::default()
    };
    let scales: Vec<f64> = (0..points).map(|i| 1.0 + 0.05 * i as f64).collect();

    let build_start = Instant::now();
    let parametric = ParametricAnalyzer::new(&cas(), options.clone())?;
    let parametric_build = build_start.elapsed();
    let valuations: Vec<Valuation> = scales
        .iter()
        .map(|&s| parametric.params().scaled_valuation(s))
        .collect();
    let sweep_wall_start = Instant::now();
    let measure = Measure::Unreliability(mission_time);
    let sweep = parametric.sweep_query(&measure, &valuations)?;
    let sweep_wall = sweep_wall_start.elapsed();
    // Marginal cost of one additional point: subtract a one-point sweep's
    // wall from the full sweep's wall.  The one-point run happens second, so
    // any lazily built per-model state is warm for it but *charged* to the
    // full sweep — the resulting marginal is conservative, never flattered.
    let one_point_start = Instant::now();
    parametric.sweep_query(&measure, &valuations[..1])?;
    let one_point_wall = one_point_start.elapsed();
    let marginal_us_per_point = if points > 1 {
        (sweep_wall.saturating_sub(one_point_wall)).as_secs_f64() * 1e6 / (points - 1) as f64
    } else {
        sweep_wall.as_secs_f64() * 1e6
    };

    let mut independent_total = Duration::ZERO;
    let mut single_point = Duration::ZERO;
    let mut max_abs_diff = 0.0f64;
    for (i, &scale) in scales.iter().enumerate() {
        let started = Instant::now();
        let analyzer = Analyzer::new(&cas_scaled(scale), options.clone())?;
        let reference = analyzer.unreliability(mission_time)?;
        let elapsed = started.elapsed();
        independent_total += elapsed;
        if i == 0 {
            single_point = elapsed;
        }
        let (lo, hi) = sweep.results()[i].bounds();
        let (ref_lo, ref_hi) = reference.bounds();
        max_abs_diff = max_abs_diff
            .max((lo - ref_lo).abs())
            .max((hi - ref_hi).abs());
    }

    let sweep_total = parametric_build + sweep.instantiate_time() + sweep.query_time();
    let marginal = (sweep.instantiate_time() + sweep.query_time()).as_secs_f64() / points as f64;
    Ok(SweepExperiment {
        points,
        mission_time,
        scales,
        values: sweep.values().collect(),
        aggregation_runs: parametric.aggregation_runs(),
        parametric_states: parametric.model_stats().states,
        parametric_build,
        sweep_instantiate: sweep.instantiate_time(),
        sweep_query: sweep.query_time(),
        sweep_total,
        single_point,
        independent_total,
        speedup: independent_total.as_secs_f64() / sweep_total.as_secs_f64().max(f64::MIN_POSITIVE),
        marginal_speedup: single_point.as_secs_f64() / marginal.max(f64::MIN_POSITIVE),
        marginal_us_per_point,
        max_abs_diff,
        within_tolerance: max_abs_diff <= 1e-12,
    })
}

/// Results of the CSR relax-kernel experiment: the legacy nested-loop value
/// iteration versus the flat [`RelaxKernel`](markov::RelaxKernel) on the same
/// seeded random CTMDP, plus the lane-batched and multi-threaded variants.
#[derive(Debug, Clone)]
pub struct KernelExperiment {
    /// States of the random CTMDP.
    pub states: usize,
    /// Markovian transitions (CSR edges) of the model.
    pub markovian_transitions: usize,
    /// Value vectors batched through one structure traversal.
    pub lanes: usize,
    /// Time bounds evaluated per reachability call.
    pub time_points: usize,
    /// Worker count [`RelaxKernel::auto_workers`](markov::RelaxKernel::auto_workers)
    /// picks for the batched kernel on this host.
    pub auto_workers: usize,
    /// Workers actually used for the threaded measurement (≥ 2, so the
    /// threaded driver is exercised even on small hosts).
    pub threaded_workers: usize,
    /// Wall-clock of the legacy nested-loop relax (one lane).
    pub legacy: Duration,
    /// Wall-clock of the CSR kernel, one lane, sequential.
    pub kernel_sequential: Duration,
    /// Wall-clock of `lanes` independent single-lane kernel runs.
    pub scalar_total: Duration,
    /// Wall-clock of one batched `lanes`-lane kernel run, sequential.
    pub batched: Duration,
    /// Wall-clock of the same batched run with `threaded_workers` workers.
    pub threaded: Duration,
    /// `scalar_total / batched`: the structure-traversal amortization win.
    pub batch_speedup: f64,
    /// Kernel (one lane, sequential) matches the legacy relax bit for bit.
    pub bit_identical: bool,
    /// Every batched lane matches its independent single-lane run bit for bit.
    pub batch_identical: bool,
    /// The threaded run matches the sequential run bit for bit.
    pub worker_invariant: bool,
}

/// Builds a seeded random CTMDP shaped like the closed models the engine
/// produces: mostly Markovian states with a handful of racing exponentials,
/// interleaved immediate states with non-deterministic successor choices, and
/// a sprinkling of goal states.  Equal seeds yield equal models.
fn random_ctmdp_template(seed: u64, states: usize) -> (Vec<markov::CtmdpState>, Vec<bool>) {
    use markov::CtmdpState;
    let mut rng = SplitMix64::new(seed);
    let mut template = Vec::with_capacity(states);
    for s in 0..states {
        // State 0 is always Markovian so the model has a hot numeric path.
        if s == 0 || rng.next_f64() < 0.7 {
            let fanout = 1 + (rng.next_u64() % 6) as usize;
            let row = (0..fanout)
                .map(|_| {
                    let target = (rng.next_u64() % states as u64) as u32;
                    (target, 0.1 + 2.9 * rng.next_f64())
                })
                .collect();
            template.push(CtmdpState::Markovian(row));
        } else {
            let fanout = (rng.next_u64() % 4) as usize;
            let succs = (0..fanout)
                .map(|_| (rng.next_u64() % states as u64) as u32)
                .collect();
            template.push(CtmdpState::Immediate(succs));
        }
    }
    let goal = (0..states).map(|_| rng.next_f64() < 0.15).collect();
    (template, goal)
}

/// Runs the relax-kernel experiment: lowers a seeded random CTMDP into the
/// flat CSR kernel and measures it against the legacy nested-loop relax, then
/// batches `lanes` rate-scaled copies through one traversal (sequentially and
/// with the threaded driver), asserting bit-identity at every step.
///
/// All three identity flags in the result must be `true`; the experiment bin
/// fails hard when they are not.
///
/// # Errors
///
/// Propagates analysis errors (none occur for the generated models).
pub fn run_kernel_experiment(states: usize, lanes: usize) -> Result<KernelExperiment> {
    use markov::{Ctmdp, CtmdpState, RelaxKernel};
    assert!(states > 0 && lanes > 0, "the experiment needs a real model");
    let epsilon = 1e-9;
    let times = [0.25, 0.5, 1.0, 2.0];
    let maximise = true;

    let (template, goal) = random_ctmdp_template(0x0d51_2007, states);
    let edge_rates: Vec<f64> = template
        .iter()
        .flat_map(|st| match st {
            CtmdpState::Markovian(row) => row.iter().map(|&(_, r)| r).collect::<Vec<f64>>(),
            CtmdpState::Immediate(_) => Vec::new(),
        })
        .collect();
    let markovian_transitions = edge_rates.len();

    // Legacy nested-loop relax vs the CSR kernel, one lane, sequential.
    let ctmdp = Ctmdp::new(template.clone(), 0, goal.clone())?;
    let started = Instant::now();
    let legacy_values = ctmdp.reachability_extremal_multi_legacy(&times, epsilon, maximise)?;
    let legacy = started.elapsed();
    let kernel = RelaxKernel::from_states(&template);
    let started = Instant::now();
    let kernel_values = kernel.reachability(0, &goal, &times, epsilon, maximise, 1)?;
    let kernel_sequential = started.elapsed();
    let bit_identical = legacy_values.len() == kernel_values.len()
        && legacy_values
            .iter()
            .zip(&kernel_values)
            .all(|(a, b)| a.to_bits() == b.to_bits());

    // K rate-scaled lanes: once through the batched kernel, once as K
    // independent single-lane kernels.
    let scales: Vec<f64> = (0..lanes).map(|k| 0.75 + 0.1 * k as f64).collect();
    let mut lane_rates = vec![0.0; markovian_transitions * lanes];
    for (e, &rate) in edge_rates.iter().enumerate() {
        for (k, &scale) in scales.iter().enumerate() {
            lane_rates[e * lanes + k] = rate * scale;
        }
    }
    let batched_kernel = RelaxKernel::from_template(&template, &lane_rates, lanes)?;
    let started = Instant::now();
    let batched_values = batched_kernel.reachability(0, &goal, &times, epsilon, maximise, 1)?;
    let batched = started.elapsed();

    let mut scalar_total = Duration::ZERO;
    let mut batch_identical = true;
    for (k, &scale) in scales.iter().enumerate() {
        let scaled: Vec<f64> = edge_rates.iter().map(|&r| r * scale).collect();
        let scalar_kernel = RelaxKernel::from_template(&template, &scaled, 1)?;
        let started = Instant::now();
        let scalar_values = scalar_kernel.reachability(0, &goal, &times, epsilon, maximise, 1)?;
        scalar_total += started.elapsed();
        batch_identical &= (0..times.len())
            .all(|t| scalar_values[t].to_bits() == batched_values[t * lanes + k].to_bits());
    }

    // The same batched call through the threaded driver; ≥ 2 workers so the
    // chunked relax actually runs even when `auto_workers` stays sequential.
    let auto_workers = batched_kernel.auto_workers();
    let threaded_workers = auto_workers.max(2);
    let started = Instant::now();
    let threaded_values =
        batched_kernel.reachability(0, &goal, &times, epsilon, maximise, threaded_workers)?;
    let threaded = started.elapsed();
    let worker_invariant = threaded_values
        .iter()
        .zip(&batched_values)
        .all(|(a, b)| a.to_bits() == b.to_bits());

    Ok(KernelExperiment {
        states,
        markovian_transitions,
        lanes,
        time_points: times.len(),
        auto_workers,
        threaded_workers,
        legacy,
        kernel_sequential,
        scalar_total,
        batched,
        threaded,
        batch_speedup: scalar_total.as_secs_f64() / batched.as_secs_f64().max(f64::MIN_POSITIVE),
        bit_identical,
        batch_identical,
        worker_invariant,
    })
}

/// Results of the persistence experiment: the same portfolio served by a
/// cold and by a warm [`ModelStore`](dft_core::store::ModelStore)-backed
/// service, plus an in-process cold-build vs warm-load micro-comparison.
#[derive(Debug, Clone)]
pub struct PersistenceExperiment {
    /// Batch jobs run through the store-backed service.
    pub jobs: usize,
    /// Structurally distinct trees in the portfolio.
    pub distinct_trees: usize,
    /// Valuations of the rate sweep riding along (exercises the parametric
    /// store entries).
    pub sweep_points: usize,
    /// Store loads that produced a usable model (0 on a cold store).
    pub store_hits: u64,
    /// Store loads that found nothing usable.
    pub store_misses: u64,
    /// Entries written back after building.
    pub store_writes: u64,
    /// Entries that existed but were refused (should be 0 on a healthy dir).
    pub store_rejected: u64,
    /// Bytes read from the store across all loads.
    pub store_read_bytes: u64,
    /// Bytes written to the store across all write-backs.
    pub store_write_bytes: u64,
    /// Aggregation pipelines actually executed by the service (batch + sweep);
    /// 0 when every model came off disk.
    pub aggregation_runs: usize,
    /// End-to-end wall of the batch + sweep against the store-backed service.
    pub service_wall: Duration,
    /// Wall of one direct CAS `Analyzer::new` (the cost a warm store saves).
    pub cold_build: Duration,
    /// Wall of restoring the same session via `Analyzer::from_bytes`.
    pub warm_load: Duration,
    /// `cold_build / warm_load`.
    pub load_speedup: f64,
    /// Size of the serialized CAS session in bytes.
    pub entry_bytes: usize,
    /// States of the closed CAS model (deterministic; trend-gated).
    pub model_states: usize,
    /// `true` when the restored session answered bit-identically to the
    /// freshly built one.
    pub roundtrip_bit_identical: bool,
    /// `true` when every service job matched a fresh sequential reference.
    pub bit_identical: bool,
}

/// Runs the persistence experiment against `store_dir`: a portfolio of
/// `distinct × copies` rate-scaled CAS jobs plus a `sweep_points`-point rate
/// sweep, all through one [`AnalysisService`] with the persistent store
/// enabled — then an in-process `Analyzer::new` vs `from_bytes` wall
/// comparison on the CAS session.
///
/// Run twice against the same directory, the second call reports
/// `store_hits > 0` and `aggregation_runs == 0` with bit-identical results:
/// the CI `cache-warm` job asserts exactly that through the
/// `persistence_experiment` bin's `--expect-warm` flag.
///
/// # Errors
///
/// Propagates analysis errors from the sequential reference and store errors
/// from an unusable `store_dir` (the experiment *requires* the store, unlike
/// the service, which would silently degrade).
pub fn run_persistence_experiment(
    store_dir: &Path,
    distinct: usize,
    copies: usize,
    sweep_points: usize,
) -> Result<PersistenceExperiment> {
    // Fail loudly if the directory is unusable — a persistence experiment
    // without persistence would silently measure nothing.
    dft_core::store::ModelStore::open(store_dir)?;

    let variants: Vec<Dft> = (0..distinct)
        .map(|i| cas_scaled(1.0 + 0.05 * i as f64))
        .collect();
    let measures = vec![Measure::curve(DEFAULT_MISSION_TIMES)];
    let reference: Vec<Vec<MeasureResult>> = variants
        .iter()
        .map(|dft| Analyzer::new(dft, AnalysisOptions::default())?.query_all(&measures))
        .collect::<Result<_>>()?;

    let requests: Vec<AnalysisRequest> = (0..distinct * copies)
        .map(|i| job_request(&variants[i % distinct], &measures))
        .collect();
    let jobs = requests.len();
    // The sweep valuations come from the conversion-only parameter table (no
    // aggregation spent on bookkeeping).
    let (_, params) = dft_core::convert_parametric(&variants[0])?;
    let valuations: Vec<Valuation> = (0..sweep_points)
        .map(|k| params.scaled_valuation(1.0 + 0.1 * k as f64))
        .collect();
    // Sweep reference: a freshly built parametric session, instantiated per
    // valuation — what a (possibly store-loaded) service sweep must match
    // bit-for-bit.
    let sweep_reference: Vec<Vec<MeasureResult>> = {
        let parametric = ParametricAnalyzer::new(&variants[0], AnalysisOptions::default())?;
        valuations
            .iter()
            .map(|v| parametric.instantiate(v)?.query_all(&measures))
            .collect::<Result<_>>()?
    };
    let sweep = AnalysisRequest {
        sweep: Some(SweepSpec::Valuations(valuations)),
        ..job_request(&variants[0], &measures)
    };

    let service = AnalysisService::new(
        ServiceOptions {
            workers: 0,
            cache_capacity: 0,
            ..ServiceOptions::default()
        }
        .store(store_dir),
    );
    let started = Instant::now();
    let batch_reports = run_jobs(&service, requests);
    let RequestOutcome::Sweep(sweep_report) = service.run_request(sweep) else {
        unreachable!("a request with a sweep is a sweep")
    };
    let service_wall = started.elapsed();

    let bit_identical = batch_reports.iter().enumerate().all(|(i, job)| {
        job.results.as_ref().is_ok_and(|results| {
            let expected = &reference[i % distinct];
            results.len() == expected.len()
                && results.iter().zip(expected).all(|(r, e)| bitwise_eq(r, e))
        })
    }) && sweep_report.points.len() == sweep_reference.len()
        && sweep_report
            .points
            .iter()
            .zip(&sweep_reference)
            .all(|(point, expected)| {
                point.results.as_ref().is_ok_and(|results| {
                    results.len() == expected.len()
                        && results.iter().zip(expected).all(|(r, e)| bitwise_eq(r, e))
                })
            });
    let aggregation_runs = batch_reports
        .iter()
        .map(|r| r.aggregation_runs)
        .sum::<usize>()
        + sweep_report.stats.aggregation_runs;
    let store = service
        .store_stats()
        .expect("the experiment opened the store up front");

    // In-process micro-comparison: what one cold build costs versus one warm
    // load of the identical session.
    let cas_tree = cas();
    let started = Instant::now();
    let built = Analyzer::new(&cas_tree, AnalysisOptions::default())?;
    let cold_build = started.elapsed();
    let bytes = built.to_bytes();
    let started = Instant::now();
    let restored = Analyzer::from_bytes(&bytes)?;
    let warm_load = started.elapsed();
    let roundtrip_bit_identical = restored.aggregation_runs() == 0
        && bitwise_eq(
            &built.query_all(&measures)?[0],
            &restored.query_all(&measures)?[0],
        );

    Ok(PersistenceExperiment {
        jobs,
        distinct_trees: distinct,
        sweep_points,
        store_hits: store.hits,
        store_misses: store.misses,
        store_writes: store.writes,
        store_rejected: store.rejected,
        store_read_bytes: store.read_bytes,
        store_write_bytes: store.write_bytes,
        aggregation_runs,
        service_wall,
        cold_build,
        warm_load,
        load_speedup: cold_build.as_secs_f64() / warm_load.as_secs_f64().max(f64::MIN_POSITIVE),
        entry_bytes: bytes.len(),
        model_states: built.model_stats().states,
        roundtrip_bit_identical,
        bit_identical,
    })
}

/// Results of the hybrid static-module experiment: the same static-heavy tree
/// analysed by the pure compositional pipeline and by the hybrid backend that
/// BDD-solves the static crown and keeps state space only inside the dynamic
/// cores.
#[derive(Debug, Clone)]
pub struct HybridExperiment {
    /// Basic events in the static crown structure (the spare pair is extra).
    pub static_width: usize,
    /// Closed-model states of the pure compositional session.
    pub compositional_states: usize,
    /// Summed core states of the hybrid session (0 for a fully static tree).
    pub hybrid_states: usize,
    /// `compositional_states / max(hybrid_states, 1)`.
    pub reduction_factor: f64,
    /// Dynamic cores found by the modularization pass.
    pub cores: usize,
    /// Elements solved in the BDD crown.
    pub crown_elements: usize,
    /// Elements left to the state-space cores.
    pub core_elements: usize,
    /// Largest absolute difference between the two unreliability curves over
    /// [`DEFAULT_MISSION_TIMES`].
    pub max_curve_diff: f64,
    /// Build/query split of the pure compositional session.
    pub compositional_timings: PhaseTimings,
    /// Build/query split of the hybrid session.
    pub hybrid_timings: PhaseTimings,
}

/// The experiment's subject: `static_width` distinct-rate basic events grouped
/// three at a time under alternating AND / 2-of-3 / OR gates, OR'd at the top
/// with one cold-spare pair — all the dynamism in a two-element core, all the
/// bulk in the static crown.
pub fn static_heavy_tree(static_width: usize) -> Dft {
    let mut b = DftBuilder::new();
    let mut groups = Vec::new();
    let mut leaves = Vec::new();
    for i in 0..static_width {
        let rate = 0.25 + 0.05 * i as f64;
        let be = b
            .basic_event(&format!("hx_e{i}"), rate, Dormancy::Hot)
            .expect("fresh name");
        leaves.push(be);
        if leaves.len() == 3 {
            let inputs: Vec<ElementId> = std::mem::take(&mut leaves);
            let name = format!("hx_g{}", groups.len());
            let gate = match groups.len() % 3 {
                0 => b.and_gate(&name, &inputs).expect("fresh gate"),
                1 => b.voting_gate(&name, 2, &inputs).expect("fresh gate"),
                _ => b.or_gate(&name, &inputs).expect("fresh gate"),
            };
            groups.push(gate);
        }
    }
    groups.extend(leaves);
    let p = b
        .basic_event("hx_p", 1.0, Dormancy::Hot)
        .expect("fresh name");
    let s = b
        .basic_event("hx_s", 1.0, Dormancy::Cold)
        .expect("fresh name");
    groups.push(b.spare_gate("hx_spare", &[p, s]).expect("fresh gate"));
    let top = b.or_gate("hx_top", &groups).expect("fresh gate");
    b.build(top).expect("well-formed tree")
}

/// Runs the hybrid experiment on [`static_heavy_tree`]`(static_width)`.
///
/// # Errors
///
/// Propagates analysis errors (none occur for the fixed tree family).
pub fn run_hybrid_experiment(static_width: usize) -> Result<HybridExperiment> {
    let dft = static_heavy_tree(static_width);
    let times = DEFAULT_MISSION_TIMES.to_vec();

    let run = |method: Method| -> Result<(Analyzer, Vec<f64>, PhaseTimings)> {
        let options = AnalysisOptions {
            method,
            // Tight truncation bound: the curves are compared against each
            // other, so the numerical error must sit far below the gap the
            // comparison is meant to detect.
            epsilon: 1e-13,
        };
        let build_start = Instant::now();
        let analyzer = Analyzer::new(&dft, options)?;
        let build = build_start.elapsed();
        let query_start = Instant::now();
        let curve = analyzer
            .unreliability_curve(&times)?
            .points()
            .iter()
            .map(|p| p.value())
            .collect();
        let query = query_start.elapsed();
        Ok((analyzer, curve, PhaseTimings { build, query }))
    };

    let (pure, reference, compositional_timings) = run(Method::Compositional)?;
    let (hybrid, reduced, hybrid_timings) = run(Method::Hybrid)?;
    let stats = hybrid
        .module_stats()
        .expect("a spare pair under an OR of static modules must decompose");

    let compositional_states = pure.model_stats().states;
    let hybrid_states = hybrid.model_stats().states;
    let max_curve_diff = reference
        .iter()
        .zip(&reduced)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    Ok(HybridExperiment {
        static_width,
        compositional_states,
        hybrid_states,
        reduction_factor: compositional_states as f64 / hybrid_states.max(1) as f64,
        cores: stats.core_count,
        crown_elements: stats.crown_elements,
        core_elements: stats.core_elements,
        max_curve_diff,
        compositional_timings,
        hybrid_timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistence_experiment_cold_then_warm() {
        let dir =
            std::env::temp_dir().join(format!("dftmc-bench-persist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cold = run_persistence_experiment(&dir, 2, 2, 2).unwrap();
        assert_eq!(cold.jobs, 4);
        assert_eq!(cold.store_hits, 0, "first run starts from an empty store");
        assert!(cold.store_writes >= 3, "2 sessions + 1 parametric model");
        assert_eq!(cold.aggregation_runs, 3);
        assert!(cold.bit_identical && cold.roundtrip_bit_identical);

        let warm = run_persistence_experiment(&dir, 2, 2, 2).unwrap();
        assert!(warm.store_hits >= 3, "second run loads every model");
        assert_eq!(
            warm.aggregation_runs, 0,
            "zero aggregations on a warm store"
        );
        assert_eq!(warm.store_rejected, 0);
        assert!(warm.bit_identical && warm.roundtrip_bit_identical);
        assert_eq!(warm.model_states, cold.model_states);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cas_experiment_reproduces_the_paper() {
        let e = run_cas_experiment().unwrap();
        assert!(e.unreliability.relative_error().unwrap() < 1e-3);
        assert!((e.monolithic_unreliability - e.unreliability.measured).abs() < 1e-6);
        assert_eq!(e.module_states.len(), 3);
    }

    #[test]
    fn cps_experiment_reproduces_the_paper() {
        let e = run_cps_experiment().unwrap();
        assert!(e.unreliability.relative_error().unwrap() < 0.01);
        assert_eq!(e.monolithic_states.measured as usize, 4113);
        assert_eq!(e.monolithic_transitions.measured as usize, 24608);
        assert!(e.module_a_states <= 6);
    }

    #[test]
    fn scaling_experiment_shows_the_gap_growing() {
        let rows = run_scaling_experiment(3).unwrap();
        assert_eq!(rows.len(), 3);
        // The monolithic chain outgrows the compositional peak as width increases.
        let last = rows.last().unwrap();
        assert!(last.monolithic_states > last.compositional_peak);
    }

    #[test]
    fn connectivity_experiment_runs() {
        let rows = run_connectivity_experiment(&[3, 4]).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|r| r.connected_peak > 0 && r.modular_peak > 0));
    }

    #[test]
    fn repair_experiment_matches_the_closed_form() {
        let e = run_repair_experiment(1.0, 2.0, 10.0).unwrap();
        assert!(e.unavailability.relative_error().unwrap() < 1e-6);
        assert!(e.mttf.is_finite() && e.mttf > 0.0);
    }

    #[test]
    fn nondeterminism_experiment_produces_proper_intervals() {
        let e = run_nondeterminism_experiment(&[0.5, 1.0]).unwrap();
        assert_eq!(e.rows.len(), 2);
        for row in e.rows {
            assert!(row.lower < row.upper);
            assert!(row.baseline >= row.lower - 1e-9 && row.baseline <= row.upper + 1e-9);
        }
    }

    #[test]
    fn highly_connected_trees_have_no_nontrivial_modules() {
        let dft = highly_connected(4, 1.0);
        let modules = dft::modules::independent_modules(&dft);
        // Only the top gate roots an independent module.
        assert_eq!(modules.len(), 1);
    }

    #[test]
    fn portfolio_experiment_caches_and_stays_bit_identical() {
        let e = run_portfolio_experiment(3, 3, 2).unwrap();
        assert_eq!(e.jobs, 9);
        assert_eq!(e.distinct_trees, 3);
        assert_eq!(e.aggregation_runs, 3, "one aggregation per distinct tree");
        assert_eq!(e.cache_misses, 3);
        assert_eq!(e.cache_hits, 6);
        assert!(
            e.bit_identical,
            "service results must match sequential runs"
        );
    }

    #[test]
    fn throughput_experiment_queues_and_stays_bit_identical() {
        let e = run_throughput_experiment(3, 4, 3, 2).unwrap();
        assert_eq!(e.jobs, 12);
        assert_eq!(e.distinct_trees, 3);
        assert_eq!(e.aggregation_runs, 3, "one aggregation per distinct tree");
        assert_eq!(e.cache_misses, 3);
        assert_eq!(e.cache_hits, 9);
        assert_eq!(e.build_waits, 0, "duplicates park, they never block");
        assert!(e.bit_identical, "queued results must match sequential runs");
        assert!(e.latency_p99 >= e.latency_p50);
    }

    #[test]
    fn hybrid_experiment_reduces_states_and_matches_curves() {
        let e = run_hybrid_experiment(9).unwrap();
        assert_eq!(e.cores, 1, "one spare pair, one dynamic core");
        assert!(e.crown_elements > 0 && e.core_elements > 0);
        assert!(
            e.reduction_factor >= 10.0,
            "reduction {} below the promised 10x",
            e.reduction_factor
        );
        assert!(
            e.max_curve_diff <= 1e-12,
            "curves diverge by {}",
            e.max_curve_diff
        );
    }

    #[test]
    fn repairable_voting_builds() {
        let dft = repairable_voting(3, 0.5, 5.0);
        assert_eq!(dft.num_basic_events(), 3);
        assert!(dft.is_repairable());
    }

    #[test]
    fn sweep_experiment_matches_independent_builds() {
        let e = run_sweep_experiment(4, 1.0).unwrap();
        assert_eq!(e.points, 4);
        assert_eq!(e.values.len(), 4);
        assert_eq!(e.aggregation_runs, 1, "one aggregation for the whole sweep");
        assert!(
            e.within_tolerance,
            "sweep deviates from independent builds by {}",
            e.max_abs_diff
        );
        // Unreliability grows with the failure-rate scale.
        for pair in e.values.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-12);
        }
    }
}
