//! The experiment runner: the paper's evaluation, and the checks on the
//! engine's extensions, as one binary writing one record.
//!
//! Run with
//! `cargo run --release -p dftmc-bench --bin experiments -- [--smoke] [--store DIR] [--expect-warm] [NAME...]`.
//!
//! Each experiment runs its analyses, asserts what it exists to show, and
//! returns its numbers as rows of `(case, metric, value)`.  The runner runs
//! the named experiments (all of them by default), prints every row in one
//! table and writes them to `BENCH_experiments.json` as
//! `{"experiment":"experiments","smoke":…,"rows":[{"experiment","case","metric","value"}…]}`.
//! `bench_diff` then gates the rows against `BENCH_baseline/`.
//!
//! * `--smoke` shrinks the workloads to the CI configuration the committed
//!   baseline was taken with.
//! * `--store DIR` is the store directory of the `persist` experiment
//!   (default `dftmc-store`); never point it at a tracked directory.
//! * `--expect-warm` makes `persist` assert the warm-store contract: store
//!   hits, zero aggregations and no rejected entries.  Run `persist` twice
//!   against one directory and pass the flag the second time.
//!
//! Exit status: 0 on success, 1 when an analysis fails or the record cannot
//! be written, 2 on a usage error; a failed assertion panics.

#![forbid(unsafe_code)]

use dft::json::Json;
use dft::{Dft, DftBuilder, Dormancy};
use dft_core::analysis::aggregated_model;
use dft_core::casestudies::{
    self, cas_cpu_unit, cas_motor_unit, cas_pump_unit, cas_scaled, cascaded_pand,
    CAS_PAPER_UNRELIABILITY, CPS_PAPER_MONOLITHIC, CPS_PAPER_PEAK, CPS_PAPER_UNRELIABILITY,
    DEFAULT_MISSION_TIMES,
};
use dft_core::service::{AnalysisService, JobReport, RequestOutcome, ServiceOptions};
use dft_core::{
    AnalysisOptions, AnalysisRequest, Analyzer, Measure, MeasureResult, Method, ModelStore,
    ParametricAnalyzer, Result, SweepSpec, Valuation,
};
use dftmc_bench::{highly_connected, single_and_module, static_heavy_tree};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The file the runner writes, in the current directory.
const RECORD: &str = "BENCH_experiments.json";

const USAGE: &str = "usage: experiments [--smoke] [--store DIR] [--expect-warm] [NAME...]";

/// Every experiment, in the order the runner runs them.
const EXPERIMENTS: [(&str, Experiment); 9] = [
    ("cas", cas),
    ("cps", cps),
    ("repair", repair),
    ("nondeterminism", nondeterminism),
    ("scaling", scaling),
    ("sweep", sweep),
    ("persist", persist),
    ("hybrid", hybrid),
    ("corpus", corpus),
];

type Experiment = fn(&Config) -> Result<Vec<Row>>;

/// The command-line settings every experiment sees.
struct Config {
    smoke: bool,
    store: PathBuf,
    expect_warm: bool,
}

/// One measured number: `case` names the input within its experiment,
/// `metric` what was measured on it.
struct Row {
    case: String,
    metric: &'static str,
    value: f64,
}

fn row(case: impl Into<String>, metric: &'static str, value: f64) -> Row {
    Row {
        case: case.into(),
        metric,
        value,
    }
}

fn main() -> ExitCode {
    let (config, names) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "{:<15} {:<30} {:<28} {:>14}",
        "experiment", "case", "metric", "value"
    );
    println!("{}", "-".repeat(90));
    let mut rows = Vec::new();
    for (name, run) in EXPERIMENTS {
        if !names.is_empty() && !names.contains(&name) {
            continue;
        }
        let experiment_rows = match run(&config) {
            Ok(experiment_rows) => experiment_rows,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for Row {
            case,
            metric,
            value,
        } in experiment_rows
        {
            println!("{name:<15} {case:<30} {metric:<28} {:>14}", show(value));
            rows.push(Json::obj([
                ("experiment", name.into()),
                ("case", Json::Str(case)),
                ("metric", metric.into()),
                ("value", value.into()),
            ]));
        }
    }

    let record = Json::obj([
        ("experiment", "experiments".into()),
        ("smoke", config.smoke.into()),
        ("rows", Json::Arr(rows)),
    ]);
    // A missing or stale record would let `bench_diff` pass on old numbers,
    // so a failed write fails the run.
    match std::fs::write(RECORD, record.render() + "\n") {
        Ok(()) => {
            println!("\nmachine-readable record: {RECORD}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {RECORD}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Splits the command line into the settings and the experiment names.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> std::result::Result<(Config, Vec<&'static str>), String> {
    let mut config = Config {
        smoke: false,
        store: PathBuf::from("dftmc-store"),
        expect_warm: false,
    };
    let mut names = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => config.smoke = true,
            "--expect-warm" => config.expect_warm = true,
            "--store" => {
                config.store = args
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--store needs a directory")?;
            }
            name => match EXPERIMENTS.iter().find(|(known, _)| *known == name) {
                Some((known, _)) => names.push(*known),
                None => {
                    let known: Vec<&str> = EXPERIMENTS.iter().map(|(known, _)| *known).collect();
                    return Err(format!(
                        "unknown argument '{name}'; experiments: {}",
                        known.join(", ")
                    ));
                }
            },
        }
    }
    Ok((config, names))
}

/// A table cell: integers without decimals, tiny values in scientific form.
fn show(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.0}")
    } else if value.abs() < 1e-3 {
        format!("{value:.3e}")
    } else {
        format!("{value:.6}")
    }
}

fn options(method: Method) -> AnalysisOptions {
    AnalysisOptions {
        method,
        ..AnalysisOptions::default()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// `a / b` for wall times, safe when `b` rounds to zero.
fn ratio(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64().max(f64::MIN_POSITIVE)
}

/// Builds a session over `dft` and answers `measure`, returning the wall
/// time of the two phases as `build_seconds`/`query_seconds` rows of `case`.
fn session(
    dft: &Dft,
    options: AnalysisOptions,
    measure: Measure,
    case: &str,
) -> Result<(Analyzer, MeasureResult, [Row; 2])> {
    let (analyzer, build) = timed(|| Analyzer::new(dft, options));
    let analyzer = analyzer?;
    let (result, query) = timed(|| analyzer.query(measure));
    let timings = [
        row(case, "build_seconds", build.as_secs_f64()),
        row(case, "query_seconds", query.as_secs_f64()),
    ];
    Ok((analyzer, result?, timings))
}

fn peak_states(analyzer: &Analyzer) -> usize {
    analyzer
        .aggregation_stats()
        .expect("a compositional session records its aggregation")
        .peak
        .states
}

/// E2, Section 5.1: the cardiac assist system — unreliability at t = 1
/// against the paper and the monolithic baseline, the state-space sizes, and
/// the aggregated size of each independent unit (the paper reports ~6).
fn cas(_: &Config) -> Result<Vec<Row>> {
    let dft = casestudies::cas();
    let (analyzer, result, timings) = session(
        &dft,
        AnalysisOptions::default(),
        Measure::Unreliability(1.0),
        "system",
    )?;
    let value = result.value();
    let monolithic = Analyzer::new(&dft, options(Method::Monolithic))?;
    let monolithic_value = monolithic.unreliability(1.0)?.value();
    let paper = CAS_PAPER_UNRELIABILITY;
    assert!(
        ((value - paper) / paper).abs() < 1e-3,
        "CAS unreliability {value} strays from the paper's {paper}"
    );
    assert!(
        (monolithic_value - value).abs() < 1e-6,
        "monolithic {monolithic_value} disagrees with compositional {value}"
    );

    let mut rows = vec![
        row("paper", "unreliability", paper),
        row("system", "unreliability", value),
        row("system", "unreliability_monolithic", monolithic_value),
        row(
            "system",
            "compositional_peak_states",
            peak_states(&analyzer) as f64,
        ),
        // The numeric quotient the store and the server hold for CAS.
        row(
            "system",
            "model_states",
            analyzer.model_stats().states as f64,
        ),
        row(
            "system",
            "monolithic_states",
            monolithic.model_stats().states as f64,
        ),
    ];
    rows.extend(timings);
    for (unit, module) in [
        ("CPU_unit", cas_cpu_unit()),
        ("Motor_unit", cas_motor_unit()),
        ("Pump_unit", cas_pump_unit()),
    ] {
        let (model, _) = aggregated_model(&module)?;
        rows.push(row(unit, "states", model.num_states() as f64));
    }
    Ok(rows)
}

/// E3/E4, Section 5.2 and Figures 8/9: the cascaded-PAND system — the
/// compositional peak against the monolithic chain, whose size must match
/// the paper's exactly, and one AND module's aggregated size.
fn cps(_: &Config) -> Result<Vec<Row>> {
    let dft = casestudies::cps();
    let (analyzer, result, timings) = session(
        &dft,
        AnalysisOptions::default(),
        Measure::Unreliability(1.0),
        "system",
    )?;
    let value = result.value();
    let peak = &analyzer
        .aggregation_stats()
        .expect("a compositional session records its aggregation")
        .peak;
    let monolithic = Analyzer::new(&dft, options(Method::Monolithic))?.model_stats();
    let (module_a, _) = aggregated_model(&single_and_module(4, 1.0))?;
    let paper = CPS_PAPER_UNRELIABILITY;
    assert!(
        ((value - paper) / paper).abs() < 0.01,
        "CPS unreliability {value} strays from the paper's {paper}"
    );
    assert_eq!(
        (monolithic.states, monolithic.markovian_transitions),
        CPS_PAPER_MONOLITHIC,
        "the monolithic chain must match the paper's size exactly"
    );
    assert!(
        module_a.num_states() <= 6,
        "one AND module aggregates to {} states; Figure 9 has 6",
        module_a.num_states()
    );

    let mut rows = vec![
        row("paper", "unreliability", paper),
        row("paper", "peak_states", CPS_PAPER_PEAK.0 as f64),
        row("paper", "peak_transitions", CPS_PAPER_PEAK.1 as f64),
        row("paper", "monolithic_states", CPS_PAPER_MONOLITHIC.0 as f64),
        row(
            "paper",
            "monolithic_transitions",
            CPS_PAPER_MONOLITHIC.1 as f64,
        ),
        row("system", "unreliability", value),
        row("system", "peak_states", peak.states as f64),
        row("system", "peak_transitions", peak.transitions() as f64),
        row("system", "monolithic_states", monolithic.states as f64),
        row(
            "system",
            "monolithic_transitions",
            monolithic.markovian_transitions as f64,
        ),
    ];
    rows.extend(timings);
    rows.push(row("module_A", "states", module_a.num_states() as f64));
    Ok(rows)
}

/// E8, Section 7.2 and Figure 15: a repairable AND of two components, whose
/// steady-state unavailability has a closed form.  One session per rate set
/// answers both the unavailability and the mean time to failure.
fn repair(config: &Config) -> Result<Vec<Row>> {
    let full = [
        (1.0, 2.0, 10.0),
        (0.5, 0.5, 5.0),
        (1.0, 1.0, 1.0),
        (0.1, 0.3, 2.0),
    ];
    let rates = if config.smoke { &full[..2] } else { &full[..] };
    let mut rows = Vec::new();
    for &(lambda_a, lambda_b, mu) in rates {
        let mut b = DftBuilder::new();
        let a = b.repairable_basic_event("A", lambda_a, Dormancy::Hot, mu)?;
        let bb = b.repairable_basic_event("B", lambda_b, Dormancy::Hot, mu)?;
        let top = b.and_gate("system", &[a, bb])?;
        let analyzer = Analyzer::new(&b.build(top)?, AnalysisOptions::default())?;
        let unavailability = analyzer.unavailability()?.value();
        let mttf = analyzer.mttf()?.value();
        let analytic = (lambda_a / (lambda_a + mu)) * (lambda_b / (lambda_b + mu));
        assert!(
            ((unavailability - analytic) / analytic).abs() < 1e-6,
            "unavailability {unavailability} strays from the closed form {analytic}"
        );
        assert!(
            mttf.is_finite() && mttf > 0.0,
            "the MTTF {mttf} must be finite and positive"
        );
        let case = format!("lambda_a={lambda_a} lambda_b={lambda_b} mu={mu}");
        rows.extend([
            row(&case, "analytic", analytic),
            row(&case, "unavailability", unavailability),
            row(&case, "mttf", mttf),
            row(case, "final_states", analyzer.model_stats().states as f64),
        ]);
    }
    Ok(rows)
}

/// E5, Section 4.4 and Figure 6(a): an FDEP trigger feeding both inputs of a
/// PAND gate makes the model non-deterministic.  The scheduler bounds must
/// form a proper interval containing the DIFTree-style baseline, which
/// resolves the simultaneous failures left to right.  One curve query
/// answers the whole mission-time sweep.
fn nondeterminism(config: &Config) -> Result<Vec<Row>> {
    let times: &[f64] = if config.smoke {
        &[0.5, 1.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0]
    };
    let mut b = DftBuilder::new();
    let t = b.basic_event("T", 0.5, Dormancy::Hot)?;
    let a = b.basic_event("A", 1.0, Dormancy::Hot)?;
    let bb = b.basic_event("B", 1.0, Dormancy::Hot)?;
    b.fdep_gate("FDEP", t, &[a, bb])?;
    let top = b.pand_gate("system", &[a, bb])?;
    let dft = b.build(top)?;

    let curve = Measure::curve(times);
    let (_, bounds, timings) = session(&dft, AnalysisOptions::default(), curve.clone(), "session")?;
    let baseline = Analyzer::new(&dft, options(Method::Monolithic))?.query(curve)?;
    let mut rows = Vec::new();
    for (point, resolved) in bounds.points().iter().zip(baseline.points()) {
        let time = point.time().expect("curve points carry their time");
        let (lower, upper) = point.bounds();
        let baseline = resolved.value();
        assert!(
            lower < upper,
            "t={time}: the bounds [{lower}, {upper}] must form a proper interval"
        );
        assert!(
            baseline >= lower - 1e-9 && baseline <= upper + 1e-9,
            "t={time}: the baseline {baseline} lies outside [{lower}, {upper}]"
        );
        let case = format!("t={time}");
        rows.extend([
            row(&case, "lower", lower),
            row(&case, "upper", upper),
            row(case, "baseline", baseline),
        ]);
    }
    rows.extend(timings);
    Ok(rows)
}

/// E9, the scaling discussion of Section 5.2: the compositional peak against
/// the monolithic chain on the modular cascaded-PAND family, and the peak of
/// a highly connected family without independent modules against a modular
/// tree of the same size.
fn scaling(config: &Config) -> Result<Vec<Row>> {
    let (max_width, sizes): (usize, &[usize]) = if config.smoke {
        (3, &[3, 4])
    } else {
        (5, &[3, 4, 5, 6])
    };
    let mut rows = Vec::new();
    for width in 1..=max_width {
        let dft = cascaded_pand(width, 1.0);
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default())?;
        let peak = peak_states(&analyzer);
        let monolithic = Analyzer::new(&dft, options(Method::Monolithic))?
            .model_stats()
            .states;
        if width == max_width {
            assert!(
                monolithic > peak,
                "at width {width} the monolithic chain ({monolithic}) must outgrow \
                 the compositional peak ({peak})"
            );
        }
        let case = format!("cascaded_pand w={width}");
        rows.extend([
            row(&case, "basic_events", dft.num_basic_events() as f64),
            row(&case, "compositional_peak_states", peak as f64),
            row(&case, "monolithic_states", monolithic as f64),
            row(case, "unreliability", analyzer.unreliability(1.0)?.value()),
        ]);
    }
    for &n in sizes {
        let connected = peak_states(&Analyzer::new(
            &highly_connected(n, 1.0),
            AnalysisOptions::default(),
        )?);
        // A modular tree with a comparable number of events: width n/3
        // rounded up.
        let modular = peak_states(&Analyzer::new(
            &cascaded_pand(n.div_ceil(3).max(1), 1.0),
            AnalysisOptions::default(),
        )?);
        let case = format!("connected n={n}");
        rows.extend([
            row(&case, "connected_peak_states", connected as f64),
            row(case, "modular_peak_states", modular as f64),
        ]);
    }
    Ok(rows)
}

/// Rate sweep: aggregate the CAS structure once, instantiate a whole
/// failure-rate sweep at query time, and check every point against an
/// independent build of the pre-scaled tree.  Both sides use ε = 1e-13, so
/// the 1e-12 agreement check measures the models, not the numerics.
fn sweep(config: &Config) -> Result<Vec<Row>> {
    let points = if config.smoke { 5 } else { 25 };
    let mission_time = 1.0;
    let options = AnalysisOptions {
        epsilon: 1e-13,
        ..AnalysisOptions::default()
    };
    let scales: Vec<f64> = (0..points).map(|i| 1.0 + 0.05 * i as f64).collect();

    let (parametric, parametric_build) =
        timed(|| ParametricAnalyzer::new(&casestudies::cas(), options.clone()));
    let parametric = parametric?;
    let valuations: Vec<Valuation> = scales
        .iter()
        .map(|&s| parametric.params().scaled_valuation(s))
        .collect();
    let measures = [Measure::Unreliability(mission_time)];
    let (sweep, sweep_wall) = timed(|| parametric.sweep_query(&measures, &valuations));
    let swept = sweep
        .results()
        .iter()
        .cloned()
        .collect::<Result<Vec<Vec<MeasureResult>>>>()?;
    // Marginal cost of one additional point: subtract a one-point sweep's
    // wall from the full sweep's wall.  The one-point run happens second, so
    // any lazily built per-model state is warm for it but *charged* to the
    // full sweep — the resulting marginal is conservative, never flattered.
    let (one_point, one_point_wall) = timed(|| parametric.sweep_query(&measures, &valuations[..1]));
    one_point.results()[0].clone()?;
    let marginal_us_per_point =
        sweep_wall.saturating_sub(one_point_wall).as_secs_f64() * 1e6 / (points - 1) as f64;

    let mut rows = Vec::new();
    let mut independent_total = Duration::ZERO;
    let mut single_point = Duration::ZERO;
    let mut max_abs_diff = 0.0f64;
    for (i, (&scale, results)) in scales.iter().zip(&swept).enumerate() {
        let point = &results[0];
        let (reference, elapsed) = timed(|| {
            Analyzer::new(&cas_scaled(scale), options.clone())?.unreliability(mission_time)
        });
        let reference = reference?;
        independent_total += elapsed;
        if i == 0 {
            single_point = elapsed;
        }
        let ((lo, hi), (ref_lo, ref_hi)) = (point.bounds(), reference.bounds());
        max_abs_diff = max_abs_diff
            .max((lo - ref_lo).abs())
            .max((hi - ref_hi).abs());
        rows.push(row(
            format!("scale={scale}"),
            "unreliability",
            point.value(),
        ));
    }

    let amortized = sweep.instantiate_time() + sweep.query_time();
    assert_eq!(
        parametric.aggregation_runs(),
        1,
        "the whole sweep must run exactly one aggregation"
    );
    assert!(
        max_abs_diff <= 1e-12,
        "sweep deviates from independent builds by {max_abs_diff}"
    );
    assert!(
        amortized < single_point * points,
        "total query/instantiate time {amortized:?} must stay below {points} single-point builds"
    );
    assert!(
        swept
            .windows(2)
            .all(|pair| pair[1][0].value() >= pair[0][0].value() - 1e-12),
        "unreliability must grow with the failure-rate scale"
    );

    rows.extend([
        row(
            "cas",
            "aggregation_runs",
            parametric.aggregation_runs() as f64,
        ),
        row(
            "cas",
            "parametric_states",
            parametric.model_stats().states as f64,
        ),
        row(
            "cas",
            "parametric_build_seconds",
            parametric_build.as_secs_f64(),
        ),
        row(
            "cas",
            "instantiate_seconds",
            sweep.instantiate_time().as_secs_f64(),
        ),
        row("cas", "query_seconds", sweep.query_time().as_secs_f64()),
        row("cas", "single_point_seconds", single_point.as_secs_f64()),
        row(
            "cas",
            "independent_total_seconds",
            independent_total.as_secs_f64(),
        ),
        row(
            "cas",
            "speedup",
            ratio(independent_total, parametric_build + amortized),
        ),
        row(
            "cas",
            "marginal_speedup",
            ratio(single_point, amortized / points),
        ),
        row("cas", "marginal_us_per_point", marginal_us_per_point),
        row("cas", "max_abs_diff", max_abs_diff),
    ]);
    rows.extend(cps_mttf_sweep()?);
    Ok(rows)
}

/// A 64-valuation CPS `Mttf` sweep through the service, next to 100 cached
/// tree sessions at capacity 128: the wall time of the first and of a
/// repeated sweep (parametric build excluded), and how many tree sessions
/// the first sweep evicts.  A sweep builds no session per valuation, so it
/// must evict none.
fn cps_mttf_sweep() -> Result<Vec<Row>> {
    const TREES: usize = 100;
    let service = AnalysisService::new(ServiceOptions {
        workers: 1,
        cache_capacity: 128,
        ..ServiceOptions::default()
    });
    for i in 0..TREES {
        let tree = single_and_module(2, 1.0 + 0.01 * i as f64);
        service.analyzer(&tree, &AnalysisOptions::default())?;
    }
    let request = AnalysisRequest {
        measures: vec![Measure::Mttf],
        sweep: Some(SweepSpec::FailureScales(
            (0..64).map(|i| 0.5 + f64::from(i) / 64.0).collect(),
        )),
        ..AnalysisRequest::new(casestudies::cps())
    };
    let sweep_seconds = |request: AnalysisRequest| -> Result<f64> {
        let RequestOutcome::Sweep(report) = service.run_request(request) else {
            unreachable!("a sweep was requested")
        };
        for point in &report.points {
            point.results.as_ref().map_err(Clone::clone)?;
        }
        let stats = report.stats;
        Ok(stats
            .wall_time
            .saturating_sub(stats.build_time)
            .as_secs_f64())
    };
    let before = service.cache_stats();
    let first = sweep_seconds(request.clone())?;
    let tree_evictions = service.cache_stats().evictions - before.evictions;
    let repeat = sweep_seconds(request)?;
    assert_eq!(
        (tree_evictions, service.cache_stats().entries),
        (0, TREES),
        "a sweep must leave the session cache alone"
    );
    Ok(vec![
        row("cps_mttf", "first_seconds", first),
        row("cps_mttf", "repeat_seconds", repeat),
        row("cps_mttf", "tree_evictions", tree_evictions as f64),
    ])
}

/// Two measure results are bit-identical: same shape, and every time, value
/// and bound agrees down to the floating-point bit pattern.
fn bitwise_eq(a: &MeasureResult, b: &MeasureResult) -> bool {
    a.points().len() == b.points().len()
        && a.points().iter().zip(b.points()).all(|(x, y)| {
            x.time().map(f64::to_bits) == y.time().map(f64::to_bits)
                && x.value().to_bits() == y.value().to_bits()
                && x.bounds().0.to_bits() == y.bounds().0.to_bits()
                && x.bounds().1.to_bits() == y.bounds().1.to_bits()
        })
}

fn all_bitwise_eq(results: &Result<Vec<MeasureResult>>, expected: &[MeasureResult]) -> bool {
    results.as_ref().is_ok_and(|results| {
        results.len() == expected.len()
            && results.iter().zip(expected).all(|(r, e)| bitwise_eq(r, e))
    })
}

/// E12, the persistent model store: a portfolio of rate-scaled CAS jobs and
/// a rate sweep through one service backed by `--store`, every result
/// checked bit for bit against fresh sessions, then one direct CAS build
/// timed against restoring the same session from its bytes.  On a warm
/// store every model is a disk read and no aggregation runs.
fn persist(config: &Config) -> Result<Vec<Row>> {
    let (distinct, copies, sweep_points) = if config.smoke { (3, 2, 3) } else { (8, 4, 10) };
    // Fail loudly if the directory is unusable: the service would silently
    // degrade to memory, and the experiment would measure nothing.
    ModelStore::open(&config.store)?;

    let variants: Vec<Dft> = (0..distinct)
        .map(|i| cas_scaled(1.0 + 0.05 * i as f64))
        .collect();
    let measures = vec![Measure::curve(DEFAULT_MISSION_TIMES)];
    let job = |dft: &Dft| AnalysisRequest {
        measures: measures.clone(),
        ..AnalysisRequest::new(dft.clone())
    };
    let reference: Vec<Vec<MeasureResult>> = variants
        .iter()
        .map(|dft| Analyzer::new(dft, AnalysisOptions::default())?.query_all(&measures))
        .collect::<Result<_>>()?;
    // The sweep valuations come from the conversion-only parameter table (no
    // aggregation spent on bookkeeping); the reference is a fresh parametric
    // session instantiated per valuation.
    let (_, params) = dft_core::convert_parametric(&variants[0])?;
    let valuations: Vec<Valuation> = (0..sweep_points)
        .map(|k| params.scaled_valuation(1.0 + 0.1 * k as f64))
        .collect();
    let sweep_reference: Vec<Vec<MeasureResult>> = {
        let parametric = ParametricAnalyzer::new(&variants[0], AnalysisOptions::default())?;
        valuations
            .iter()
            .map(|v| parametric.instantiate(v)?.query_all(&measures))
            .collect::<Result<_>>()?
    };
    let sweep = AnalysisRequest {
        sweep: Some(SweepSpec::Valuations(valuations)),
        ..job(&variants[0])
    };

    let service = AnalysisService::new(
        ServiceOptions {
            workers: 0,
            cache_capacity: 0,
            ..ServiceOptions::default()
        }
        .store(&config.store),
    );
    let started = Instant::now();
    // Submit the whole batch before waiting for any of it.
    let handles: Vec<_> = (0..distinct * copies)
        .map(|i| service.submit_request(job(&variants[i % distinct])))
        .collect();
    let batch: Vec<JobReport> = handles
        .into_iter()
        .map(|handle| match handle.wait() {
            RequestOutcome::Job(report) => report,
            RequestOutcome::Sweep(_) => unreachable!("a request without a sweep is a job"),
        })
        .collect();
    let RequestOutcome::Sweep(sweep_report) = service.run_request(sweep) else {
        unreachable!("a request with a sweep is a sweep")
    };
    let service_wall = started.elapsed();

    let bit_identical = batch
        .iter()
        .enumerate()
        .all(|(i, job)| all_bitwise_eq(&job.results, &reference[i % distinct]))
        && sweep_report.points.len() == sweep_reference.len()
        && sweep_report
            .points
            .iter()
            .zip(&sweep_reference)
            .all(|(point, expected)| all_bitwise_eq(&point.results, expected));
    let aggregation_runs = batch.iter().map(|r| r.aggregation_runs).sum::<usize>()
        + sweep_report.stats.aggregation_runs;
    let store = service
        .store_stats()
        .expect("the experiment opened the store up front");

    // What one cold build costs versus one warm load of the same session.
    let (built, cold_build) =
        timed(|| Analyzer::new(&casestudies::cas(), AnalysisOptions::default()));
    let built = built?;
    let bytes = built.to_bytes();
    let (restored, warm_load) = timed(|| Analyzer::from_bytes(&bytes));
    let restored = restored?;
    assert!(
        restored.aggregation_runs() == 0
            && all_bitwise_eq(&restored.query_all(&measures), &built.query_all(&measures)?),
        "from_bytes must restore a bit-identical, zero-aggregation session"
    );
    assert!(
        bit_identical,
        "store-backed service results diverged from the sequential reference"
    );
    if config.expect_warm {
        assert!(
            store.hits > 0,
            "--expect-warm: the store served no hits — is the directory shared \
             with the previous run?"
        );
        assert_eq!(
            aggregation_runs, 0,
            "--expect-warm: a warm store must replace every aggregation with a \
             disk read"
        );
        assert_eq!(
            store.rejected, 0,
            "--expect-warm: entries written by the previous run were rejected"
        );
    }

    Ok(vec![
        row("service", "store_hits", store.hits as f64),
        row("service", "store_misses", store.misses as f64),
        row("service", "store_writes", store.writes as f64),
        row("service", "store_rejected", store.rejected as f64),
        row("service", "store_read_bytes", store.read_bytes as f64),
        row("service", "store_write_bytes", store.write_bytes as f64),
        row("service", "aggregation_runs", aggregation_runs as f64),
        row("service", "wall_seconds", service_wall.as_secs_f64()),
        row("cas", "cold_build_seconds", cold_build.as_secs_f64()),
        row("cas", "warm_load_seconds", warm_load.as_secs_f64()),
        row("cas", "load_speedup", ratio(cold_build, warm_load)),
        row("cas", "entry_bytes", bytes.len() as f64),
    ])
}

/// The hybrid backend: a static-heavy tree analysed by the pure
/// compositional pipeline and by the backend that BDD-solves the static
/// crown, keeping state space only inside the dynamic core.  The hybrid
/// session must be at least 10x smaller and agree to 1e-12 on the curve.
fn hybrid(config: &Config) -> Result<Vec<Row>> {
    let dft = static_heavy_tree(if config.smoke { 9 } else { 12 });
    let curve = Measure::curve(DEFAULT_MISSION_TIMES);
    // Tight truncation bound: the curves are compared against each other, so
    // the numerical error must sit far below the gap the comparison is meant
    // to detect.
    let tight = |method| AnalysisOptions {
        method,
        epsilon: 1e-13,
    };
    let (pure, reference, pure_timings) = session(
        &dft,
        tight(Method::Compositional),
        curve.clone(),
        "compositional",
    )?;
    let (hybrid, reduced, hybrid_timings) = session(&dft, tight(Method::Hybrid), curve, "hybrid")?;
    let stats = hybrid
        .module_stats()
        .expect("a spare pair under an OR of static modules must decompose");
    let (pure_states, hybrid_states) = (pure.model_stats().states, hybrid.model_stats().states);
    let reduction_factor = pure_states as f64 / hybrid_states.max(1) as f64;
    let max_curve_diff = reference
        .points()
        .iter()
        .zip(reduced.points())
        .map(|(a, b)| (a.value() - b.value()).abs())
        .fold(0.0f64, f64::max);
    assert_eq!(stats.core_count, 1, "one spare pair, one dynamic core");
    assert!(
        stats.crown_elements > 0 && stats.core_elements > 0,
        "the tree must split into a crown and a core"
    );
    assert!(
        reduction_factor >= 10.0,
        "state reduction {reduction_factor:.1}x fell below the promised 10x"
    );
    assert!(
        max_curve_diff <= 1e-12,
        "hybrid curve diverges from the state-space curve by {max_curve_diff}"
    );

    let mut rows = vec![row("compositional", "states", pure_states as f64)];
    rows.extend(pure_timings);
    rows.extend([
        row("hybrid", "states", hybrid_states as f64),
        row("hybrid", "reduction_factor", reduction_factor),
        row("hybrid", "cores", stats.core_count as f64),
        row("hybrid", "crown_elements", stats.crown_elements as f64),
        row("hybrid", "core_elements", stats.core_elements as f64),
        row("hybrid", "max_curve_diff", max_curve_diff),
    ]);
    rows.extend(hybrid_timings);
    Ok(rows)
}

/// The corpus directory, resolved from the workspace root (the manifest dir
/// is `crates/bench`, so hop two levels up when running from elsewhere).
fn corpus_dir() -> PathBuf {
    let local = PathBuf::from("tests/fixtures/corpus");
    if local.is_dir() {
        return local;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/corpus")
}

/// The committed mini-corpus of FFORT-style Galileo trees through the
/// request layer, the way `dftmc run` drives a benchmark directory: per tree
/// the hybrid and compositional model sizes, the unreliability at t = 1
/// (both methods must agree) and a failure-rate sweep through the
/// parametric path.
fn corpus(config: &Config) -> Result<Vec<Row>> {
    let sweep_points: usize = if config.smoke { 3 } else { 9 };
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().is_some_and(|ext| ext == "dft")).then_some(path)
        })
        .collect();
    files.sort();
    assert!(
        files.len() >= 10,
        "the corpus holds {} trees; expected the committed mini-corpus of 10+",
        files.len()
    );

    let service = AnalysisService::new(ServiceOptions::default());
    let mut rows = Vec::new();
    for path in &files {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("?")
            .to_owned();
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let dft = dft::galileo::parse(&text)
            .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()));
        let request = |method: Method| AnalysisRequest {
            options: options(method),
            measures: vec![Measure::Unreliability(1.0)],
            ..AnalysisRequest::new(dft.clone())
        };

        // Hybrid (the corpus runner default) and compositional sessions; the
        // two methods must agree on the point measure.
        let run_point = |method: Method| match service.run_request(request(method)) {
            RequestOutcome::Job(report) => report,
            RequestOutcome::Sweep(_) => unreachable!("no sweep attached"),
        };
        let value = |report: &JobReport| {
            report
                .results
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .first()
                .expect("one measure")
                .value()
        };
        let hybrid = run_point(Method::Hybrid);
        let (hybrid_value, compositional_value) =
            (value(&hybrid), value(&run_point(Method::Compositional)));
        assert!(
            (hybrid_value - compositional_value).abs() <= 1e-9,
            "{name}: hybrid {hybrid_value} and compositional {compositional_value} disagree"
        );

        // Deterministic model sizes come from the cached sessions themselves.
        let sizes = |method: Method| {
            let stats = service
                .analyzer(&dft, &options(method))
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .model_stats();
            (
                stats.states as f64,
                (stats.interactive_transitions + stats.markovian_transitions) as f64,
            )
        };
        let (hybrid_states, hybrid_transitions) = sizes(Method::Hybrid);
        let (compositional_states, compositional_transitions) = sizes(Method::Compositional);

        let scales: Vec<f64> = (0..sweep_points).map(|i| 0.5 + 0.5 * i as f64).collect();
        let (sweep, sweep_wall) = timed(|| {
            service.run_request(AnalysisRequest {
                sweep: Some(SweepSpec::FailureScales(scales)),
                ..request(Method::Compositional)
            })
        });
        let RequestOutcome::Sweep(sweep) = sweep else {
            unreachable!("a sweep was attached")
        };
        for point in &sweep.points {
            if let Err(e) = &point.results {
                panic!("{name}: sweep point failed: {e}");
            }
        }

        rows.extend([
            row(&name, "elements", dft.num_elements() as f64),
            row(&name, "hybrid_states", hybrid_states),
            row(&name, "hybrid_transitions", hybrid_transitions),
            row(&name, "compositional_states", compositional_states),
            row(
                &name,
                "compositional_transitions",
                compositional_transitions,
            ),
            row(&name, "unreliability", hybrid_value),
            row(&name, "build_seconds", hybrid.build.as_secs_f64()),
            row(&name, "query_seconds", hybrid.query.as_secs_f64()),
            row(&name, "sweep_points", sweep.points.len() as f64),
            row(name, "sweep_wall_seconds", sweep_wall.as_secs_f64()),
        ]);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn value(rows: &[Row], case: &str, metric: &str) -> f64 {
        rows.iter()
            .find(|r| r.case == case && r.metric == metric)
            .unwrap_or_else(|| panic!("no row {case}/{metric}"))
            .value
    }

    /// Every experiment passes its own assertions at smoke size and names
    /// each of its rows uniquely; `persist` then runs again against the same
    /// store with `--expect-warm`.
    #[test]
    fn every_experiment_passes_its_checks_with_unique_rows() {
        let store =
            std::env::temp_dir().join(format!("dftmc-experiments-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        let mut config = Config {
            smoke: true,
            store: store.clone(),
            expect_warm: false,
        };
        for (name, run) in EXPERIMENTS {
            let rows = run(&config).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!rows.is_empty(), "{name} measured nothing");
            let mut keys = HashSet::new();
            for r in &rows {
                assert!(
                    keys.insert((r.case.as_str(), r.metric)),
                    "{name}: duplicate row {}/{}",
                    r.case,
                    r.metric
                );
            }
            if name == "persist" {
                assert_eq!(value(&rows, "service", "store_hits"), 0.0);
                assert_eq!(
                    value(&rows, "service", "store_writes"),
                    4.0,
                    "3 sessions + 1 parametric model"
                );
                assert_eq!(value(&rows, "service", "aggregation_runs"), 4.0);
            }
        }

        config.expect_warm = true;
        let warm = persist(&config).unwrap();
        assert!(
            value(&warm, "service", "store_hits") >= 4.0,
            "the second run loads every model"
        );
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn arguments_select_experiments_and_reject_unknown_names() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (config, names) =
            parse_args(args(&["--smoke", "--store", "dir", "persist", "cas"]).into_iter()).unwrap();
        assert!(config.smoke && !config.expect_warm);
        assert_eq!(config.store, PathBuf::from("dir"));
        assert_eq!(names, ["persist", "cas"]);
        assert!(parse_args(args(&["kernel"]).into_iter()).is_err());
        assert!(parse_args(args(&["--store"]).into_iter()).is_err());
    }
}
