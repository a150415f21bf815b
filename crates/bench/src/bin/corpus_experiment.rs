//! Corpus experiment: runs the committed mini-corpus of FFORT-style Galileo
//! trees (`tests/fixtures/corpus/`) through the shared request layer, the
//! way a user would drive `dftmc run` over a benchmark directory.
//!
//! Per tree it reports deterministic model sizes (gated by `bench_diff`
//! against `BENCH_baseline/BENCH_corpus.json`), the hybrid and compositional
//! unreliability at mission time 1 (which must agree), and the wall-clock
//! build/query split.  Each tree also runs a failure-rate scale sweep
//! through the parametric path.
//!
//! Run with `cargo run --release -p dftmc-bench --bin corpus_experiment`
//! (`--smoke` shrinks the sweep for CI).

#![forbid(unsafe_code)]

use dft::json::{self, Json};
use dft_core::request::{AnalysisRequest, SweepSpec};
use dft_core::service::{AnalysisService, RequestOutcome, ServiceOptions};
use dft_core::{AnalysisOptions, Measure, Method};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The corpus directory, resolved from the workspace root (the manifest dir
/// is `crates/bench`, so hop two levels up when running from elsewhere).
fn corpus_dir() -> PathBuf {
    let local = PathBuf::from("tests/fixtures/corpus");
    if local.is_dir() {
        return local;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/corpus")
}

fn options(method: Method) -> AnalysisOptions {
    AnalysisOptions {
        method,
        ..AnalysisOptions::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sweep_points: usize = if smoke { 3 } else { 9 };

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
    println!("== corpus: FFORT-style mini-benchmark through the request layer ==\n");
    println!(
        "{:<18} {:>4} {:>8} {:>8} {:>12} {:>10}",
        "tree", "elem", "hyb.st", "comp.st", "unrel(1)", "sweep"
    );

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
        let elements = dft.num_elements();

        // Hybrid (the corpus runner default) and compositional sessions; the
        // two methods must agree on the point measure.
        let run_point = |method: Method| {
            let mut request = AnalysisRequest::new(dft.clone());
            request.options = options(method);
            request.measures = vec![Measure::Unreliability(1.0)];
            match service.run_request(request) {
                RequestOutcome::Job(report) => report,
                RequestOutcome::Sweep(_) => unreachable!("no sweep attached"),
            }
        };
        let hybrid = run_point(Method::Hybrid);
        let compositional = run_point(Method::Compositional);
        let value = |report: &dft_core::JobReport| {
            report
                .results
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .first()
                .expect("one measure")
                .value()
        };
        let (hybrid_value, compositional_value) = (value(&hybrid), value(&compositional));
        assert!(
            (hybrid_value - compositional_value).abs() <= 1e-9,
            "{name}: hybrid {hybrid_value} and compositional {compositional_value} disagree"
        );

        // Deterministic model sizes come from the cached sessions themselves.
        let states_of = |method: Method| {
            let analyzer = service
                .analyzer(&dft, &options(method))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let stats = analyzer.model_stats();
            (
                stats.states,
                stats.interactive_transitions + stats.markovian_transitions,
            )
        };
        let (hybrid_states, hybrid_transitions) = states_of(Method::Hybrid);
        let (comp_states, comp_transitions) = states_of(Method::Compositional);

        // A failure-rate scale sweep through the parametric path.
        let scales: Vec<f64> = (0..sweep_points).map(|i| 0.5 + 0.5 * i as f64).collect();
        let mut request = AnalysisRequest::new(dft.clone());
        request.options = options(Method::Compositional);
        request.measures = vec![Measure::Unreliability(1.0)];
        request.sweep = Some(SweepSpec::FailureScales(scales));
        let sweep_started = Instant::now();
        let sweep = match service.run_request(request) {
            RequestOutcome::Sweep(report) => report,
            RequestOutcome::Job(_) => unreachable!("a sweep was attached"),
        };
        let sweep_wall = sweep_started.elapsed();
        for point in &sweep.points {
            if let Err(e) = &point.results {
                panic!("{name}: sweep point failed: {e}");
            }
        }

        println!(
            "{name:<18} {elements:>4} {hybrid_states:>8} {comp_states:>8} \
             {hybrid_value:>12.6} {:>7}pts",
            sweep.points.len()
        );
        rows.push(Json::obj([
            ("tree", name.as_str().into()),
            ("elements", elements.into()),
            ("hybrid_states", hybrid_states.into()),
            ("hybrid_transitions", hybrid_transitions.into()),
            ("compositional_states", comp_states.into()),
            ("compositional_transitions", comp_transitions.into()),
            ("unreliability", hybrid_value.into()),
            ("build_seconds", Json::secs(hybrid.build)),
            ("query_seconds", Json::secs(hybrid.query)),
            ("sweep_points", sweep.points.len().into()),
            ("sweep_wall_seconds", Json::secs(sweep_wall)),
        ]));
    }

    println!("\nall {} trees agree across methods", files.len());
    json::emit_and_announce(
        "corpus",
        &Json::obj([
            ("experiment", "corpus".into()),
            ("smoke", smoke.into()),
            ("trees", files.len().into()),
            ("sweep_points", sweep_points.into()),
            ("rows", Json::Arr(rows)),
        ]),
    );
}
