//! End-to-end tests for the `dftmc` CLI binary: its JSON output must be
//! bit-identical to what the library's shared request layer produces for the
//! same [`AnalysisRequest`] — same fields, same order, same shortest-round-trip
//! float rendering — because both surfaces build their documents through
//! `dftmc_serve::router::outcome_fields`.  Only the wall-clock `*_seconds`
//! fields may differ between the two runs, so the comparison scrubs those.

use dftmc::dft::json::{self, Json};
use dftmc::dft_core::request::{AnalysisRequest, MethodSpec};
use dftmc::dft_core::service::{AnalysisService, ServiceOptions};
use dftmc::dftmc_serve::router::outcome_fields;
use std::process::Command;

fn dftmc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dftmc"))
        .args(args)
        .output()
        .expect("the dftmc binary runs")
}

/// Drops every `*_seconds` entry, recursively: timing is the one part of the
/// report that legitimately differs between two runs of the same request.
fn scrub_timing(value: &Json) -> Json {
    match value {
        Json::Obj(entries) => Json::Obj(
            entries
                .iter()
                .filter(|(key, _)| !key.ends_with("_seconds"))
                .map(|(key, v)| (key.clone(), scrub_timing(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(scrub_timing).collect()),
        other => other.clone(),
    }
}

/// Runs the same request through the in-process library path and renders the
/// document exactly as `dftmc run` does.
fn library_document(tree_path: &str, method_name: &str, queries: &[&str]) -> Json {
    let text = std::fs::read_to_string(tree_path).expect("the corpus tree exists");
    let dft = dftmc::dft::galileo::parse(&text).expect("the corpus tree parses");
    let mut request = AnalysisRequest::new(dft);
    let method: MethodSpec = method_name.parse().expect("a valid method");
    request.options.method = method.0;
    for line in queries {
        request.add_query(line).expect("a valid query line");
    }
    let epsilon = request.options.epsilon;
    let service = AnalysisService::new(ServiceOptions::default());
    let outcome = service.run_request(request);
    let mut entries = vec![
        ("tree".to_owned(), Json::Str(tree_path.to_owned())),
        ("method".to_owned(), Json::Str(method_name.to_owned())),
        ("epsilon".to_owned(), Json::Num(epsilon)),
    ];
    entries.extend(outcome_fields(&outcome));
    Json::Obj(entries)
}

fn run_and_compare(tree_path: &str, method_name: &str, queries: &[&str]) -> Json {
    let mut args = vec!["run", tree_path, "--method", method_name];
    for q in queries {
        args.push("--query");
        args.push(q);
    }
    let output = dftmc(&args);
    assert!(
        output.status.success(),
        "dftmc failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let cli_doc = json::parse(stdout.trim()).expect("dftmc prints valid JSON");

    let lib_doc = library_document(tree_path, method_name, queries);
    assert_eq!(
        scrub_timing(&cli_doc).render(),
        scrub_timing(&lib_doc).render(),
        "CLI and library documents diverge for {tree_path}"
    );
    cli_doc
}

#[test]
fn run_is_bit_identical_to_the_library_path() {
    let doc = run_and_compare(
        "tests/fixtures/corpus/cas_lite.dft",
        "hybrid",
        &["unreliability 1", "curve 0.5 1.0 2.0"],
    );
    // Sanity on the document itself: two measures came back.
    let Json::Obj(entries) = &doc else {
        panic!("document root must be an object")
    };
    let results = entries
        .iter()
        .find(|(k, _)| k == "results")
        .map(|(_, v)| v)
        .expect("a results field");
    let Json::Arr(results) = results else {
        panic!("results must be an array")
    };
    assert_eq!(results.len(), 2);
}

#[test]
fn compositional_and_monolithic_methods_run_through_the_cli() {
    run_and_compare(
        "tests/fixtures/corpus/cps_lite.dft",
        "compositional",
        &["unreliability 1", "mttf"],
    );
    run_and_compare(
        "tests/fixtures/corpus/rc_gate.dft",
        "monolithic",
        &["unreliability 1"],
    );
}

/// The acceptance sweep: `sweep lambda(P1) in 0.5..2.0 step 0.1` expands to 16
/// valuations and the CLI's points match the library's parametric path
/// bit-for-bit.
#[test]
fn sweep_queries_match_the_parametric_path() {
    let doc = run_and_compare(
        "tests/fixtures/corpus/hecs.dft",
        "compositional",
        &["unreliability 1", "sweep lambda(P1) in 0.5..2.0 step 0.1"],
    );
    let Json::Obj(entries) = &doc else {
        panic!("document root must be an object")
    };
    let points = entries
        .iter()
        .find(|(k, _)| k == "points")
        .map(|(_, v)| v)
        .expect("a points field");
    let Json::Arr(points) = points else {
        panic!("points must be an array")
    };
    assert_eq!(points.len(), 16, "0.5..2.0 step 0.1 is 16 inclusive points");
}

#[test]
fn convert_round_trips_between_the_formats() {
    let source = "tests/fixtures/corpus/mdcs.dft";
    let to_json = dftmc(&["convert", source]);
    assert!(to_json.status.success());
    let json_text = String::from_utf8(to_json.stdout).expect("utf-8 output");

    // Park the JSON in a scratch file and convert it back.
    let scratch = std::env::temp_dir().join(format!("dftmc_cli_e2e_{}.json", std::process::id()));
    std::fs::write(&scratch, &json_text).expect("scratch file writes");
    let back = dftmc(&["convert", scratch.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&scratch);
    assert!(back.status.success());
    let galileo_text = String::from_utf8(back.stdout).expect("utf-8 output");

    // The round-tripped Galileo equals printing the original directly.
    let original = dftmc::dft::galileo::parse(
        &std::fs::read_to_string(source).expect("the corpus tree exists"),
    )
    .expect("the corpus tree parses");
    assert_eq!(
        galileo_text.trim_end(),
        dftmc::dft::galileo::to_galileo(&original).trim_end()
    );
}

#[test]
fn usage_and_input_errors_use_distinct_exit_codes() {
    // Usage problem: malformed query line -> exit code 2.
    let bad_query = dftmc(&[
        "run",
        "tests/fixtures/corpus/hecs.dft",
        "--query",
        "sweep lambda(P1) in 2.0..0.5 step 0.1",
    ]);
    assert_eq!(bad_query.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_query.stderr).contains("dftmc:"));

    // Input problem: unreadable tree -> exit code 1.
    let missing = dftmc(&["run", "no_such_tree.dft", "--query", "unreliability 1"]);
    assert_eq!(missing.status.code(), Some(1));

    // Unknown method is a usage problem with the typed message.
    let bad_method = dftmc(&[
        "run",
        "tests/fixtures/corpus/hecs.dft",
        "--method",
        "quantum",
        "--query",
        "unreliability 1",
    ]);
    assert_eq!(bad_method.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_method.stderr).contains("method"));

    // An epsilon of 1 or more is no truncation error: a usage problem, not
    // a silently wrong MTTF.
    for epsilon in ["1.5", "1.0"] {
        let bad_epsilon = dftmc(&[
            "run",
            "tests/fixtures/corpus/hecs.dft",
            "--epsilon",
            epsilon,
            "--query",
            "mttf",
        ]);
        assert_eq!(bad_epsilon.status.code(), Some(2), "epsilon {epsilon}");
        assert!(String::from_utf8_lossy(&bad_epsilon.stderr).contains("epsilon"));
    }
}
