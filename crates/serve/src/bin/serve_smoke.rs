//! CI smoke for fleet mode: two `dftmc-serve` *processes*, one shared store.
//!
//! 1. Start server A on a scratch store directory, submit the CAS case study
//!    over HTTP and check the unreliability is bit-identical to an in-process
//!    [`Analyzer`] on the same tree; then `POST /sweep` a parametric hybrid
//!    sweep (a BDD crown over one dynamic core) and keep its point values.
//! 2. Submit a second job and immediately `POST /shutdown`: the graceful
//!    drain must complete that in-flight job (and persist its model) before
//!    the process exits 0.
//! 3. Start server B on the *same* store directory and submit the same tree:
//!    the report must say `aggregation_runs == 0` (the model came off disk)
//!    and `/metrics` must show `store.hits > 0`.
//! 4. Submit a static-heavy tree with `"method": "hybrid"` and check the
//!    hybrid backend's reduction counters surface in `/metrics`.
//! 5. Send server B the hybrid sweep of step 1: its parametric model comes
//!    off the shared store (`stats.aggregation_runs == 0`) and every point
//!    value is bit-identical to server A's.
//! 6. Hostile depth: a body of 20,000 nested brackets gets a 400, a
//!    12,000-deep Galileo OR chain runs hybrid to 1 − e⁻¹, and the same
//!    process still answers `/metrics`.
//!
//! The harness finds the `dftmc-serve` binary next to its own executable, so
//! run it via `cargo run --release -p dftmc-serve --bin serve_smoke` after a
//! build of the package.

use dft::json::Json;
use dft_core::analysis::AnalysisOptions;
use dft_core::engine::Analyzer;
use dftmc_serve::client;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn num(doc: &Json, key: &str) -> f64 {
    match doc.get(key) {
        Some(Json::Num(n)) => *n,
        other => panic!("field {key} is not a number: {other:?}"),
    }
}

/// `results[0].points[0].value` of a `/result/{id}` document.
fn result_value(doc: &Json) -> f64 {
    let first = |value: Option<&Json>| match value {
        Some(Json::Arr(items)) => items.first().expect("non-empty array").clone(),
        other => panic!("expected an array, got {other:?}"),
    };
    let measure = first(doc.get("results"));
    let point = first(measure.get("points"));
    num(&point, "value")
}

/// One running `dftmc-serve` child with its parsed listen address.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

fn start_server(binary: &Path, store: &Path) -> ServerProcess {
    let mut child = Command::new(binary)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--store",
            &store.display().to_string(),
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("dftmc-serve spawns");
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("the server prints its listen line")
        .expect("readable stdout");
    let addr = banner
        .strip_prefix("dftmc-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .parse::<SocketAddr>()
        .expect("banner carries a socket address");
    // Keep draining stdout in the background so the child never blocks on a
    // full pipe.
    std::thread::spawn(move || for _ in lines {});
    ServerProcess { child, addr }
}

fn submit(addr: SocketAddr, body: &str) -> u64 {
    let (status, doc) = client::request(addr, "POST", "/submit", body).expect("submit I/O");
    assert_eq!(status, 202, "submit refused: {}", doc.render());
    num(&doc, "id") as u64
}

fn wait_result(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    let path = format!("/result/{id}");
    loop {
        let (status, doc) = client::request(addr, "GET", &path, "").expect("result I/O");
        match status {
            200 => return doc,
            202 => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(2));
            }
            other => panic!("result fetch failed ({other}): {}", doc.render()),
        }
    }
}

/// The `value` bits of every point of every measure of every sweep point of
/// a finished `/sweep` document, in order.
fn sweep_bits(doc: &Json) -> Vec<u64> {
    let items = |value: Option<&Json>| match value {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("expected an array, got {other:?}"),
    };
    let mut bits = Vec::new();
    for point in items(doc.get("points")) {
        for measure in items(point.get("results")) {
            for p in items(measure.get("points")) {
                bits.push(num(&p, "value").to_bits());
            }
        }
    }
    bits
}

/// `POST /sweep` and the accepted job's id.
fn submit_sweep(addr: SocketAddr, body: &str) -> u64 {
    let (status, doc) = client::request(addr, "POST", "/sweep", body).expect("sweep I/O");
    assert_eq!(status, 202, "sweep refused: {}", doc.render());
    num(&doc, "id") as u64
}

fn main() {
    let binary = std::env::current_exe()
        .expect("own path")
        .with_file_name("dftmc-serve");
    assert!(
        binary.exists(),
        "{} not found; build the dftmc-serve package first",
        binary.display()
    );
    let store = std::env::temp_dir().join(format!("dftmc-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    let tree = dft_core::casestudies::cas();
    let body = Json::obj([
        ("galileo", Json::Str(dft::galileo::to_galileo(&tree))),
        (
            "measures",
            Json::Arr(vec![Json::obj([
                ("type", "unreliability".into()),
                ("time", 1.0.into()),
            ])]),
        ),
    ])
    .render();
    let reference = Analyzer::new(&tree, AnalysisOptions::default())
        .expect("in-process reference builds")
        .unreliability(1.0)
        .expect("in-process reference queries")
        .value();

    // A crown (X and Y) over one PAND core whose events hold slots 2 and 3.
    let mixed = "toplevel \"Top\";\n\
                 \"Top\" or \"Crown\" \"Core\";\n\
                 \"Crown\" and \"X\" \"Y\";\n\
                 \"Core\" pand \"D1\" \"D2\";\n\
                 \"X\" lambda=0.3 dorm=0.0;\n\
                 \"Y\" lambda=0.4 dorm=0.0;\n\
                 \"D1\" lambda=1.0 dorm=0.0;\n\
                 \"D2\" lambda=2.0 dorm=0.0;\n";
    let sweep_body = Json::obj([
        ("galileo", mixed.into()),
        ("method", "hybrid".into()),
        (
            "measures",
            Json::Arr(vec![
                Json::obj([
                    ("type", "curve".into()),
                    ("times", Json::Arr(vec![0.5.into(), 1.0.into(), 2.0.into()])),
                ]),
                Json::obj([("type", "unreliability".into()), ("time", 1.0.into())]),
            ]),
        ),
        (
            "sweep",
            Json::obj([(
                "scales",
                Json::Arr(vec![0.5.into(), 1.0.into(), 2.0.into()]),
            )]),
        ),
    ])
    .render();

    // --- Process A: cold store -------------------------------------------
    println!("[1/6] cold server: submit CAS and a hybrid sweep over HTTP, check bit-identity");
    let a = start_server(&binary, &store);
    let id = submit(a.addr, &body);
    let report = wait_result(a.addr, id);
    let value = result_value(&report);
    assert_eq!(
        value.to_bits(),
        reference.to_bits(),
        "HTTP value {value} != in-process {reference}"
    );
    assert!(
        num(&report, "aggregation_runs") > 0.0,
        "the first process must aggregate: {}",
        report.render()
    );
    let cold_sweep = wait_result(a.addr, submit_sweep(a.addr, &sweep_body));
    let stats = cold_sweep.get("stats").expect("sweep stats present");
    assert!(
        num(stats, "aggregation_runs") > 0.0,
        "the first process must aggregate the sweep: {}",
        cold_sweep.render()
    );
    let cold_sweep_bits = sweep_bits(&cold_sweep);
    assert_eq!(cold_sweep_bits.len(), 3 * 4, "3 valuations × 4 points");

    println!("[2/6] shutdown with an in-flight job: the drain must finish it");
    let in_flight = submit(a.addr, &body);
    assert!(in_flight > id);
    let (status, doc) = client::request(a.addr, "POST", "/shutdown", "").expect("shutdown I/O");
    assert_eq!(status, 200, "{}", doc.render());
    let mut child = a.child;
    let exit = child.wait().expect("server A exits");
    assert!(exit.success(), "server A exited with {exit:?}");

    // --- Process B: same store directory ---------------------------------
    println!("[3/6] warm server on the same store: zero aggregations");
    let b = start_server(&binary, &store);
    let id = submit(b.addr, &body);
    let report = wait_result(b.addr, id);
    assert_eq!(
        result_value(&report).to_bits(),
        reference.to_bits(),
        "warm value diverged"
    );
    assert_eq!(
        num(&report, "aggregation_runs"),
        0.0,
        "a warm store must serve the model without aggregating: {}",
        report.render()
    );

    let (status, metrics) = client::request(b.addr, "GET", "/metrics", "").expect("metrics I/O");
    assert_eq!(status, 200);
    let store_stats = metrics.get("store").expect("store section present");
    assert!(
        !matches!(store_stats, Json::Null),
        "a store-backed server must render store stats"
    );
    assert!(
        num(store_stats, "hits") > 0.0,
        "server B never hit the shared store: {}",
        metrics.render()
    );

    // --- Hybrid backend over HTTP -----------------------------------------
    println!("[4/6] hybrid job on a static-heavy tree: reduction counters in /metrics");
    let static_heavy = "toplevel \"Top\";\n\
                        \"Top\" or \"Dyn\" \"Static\";\n\
                        \"Dyn\" wsp \"P\" \"S\";\n\
                        \"Static\" and \"X\" \"Y\" \"Z\";\n\
                        \"P\" lambda=1.0 dorm=0.0;\n\
                        \"S\" lambda=1.0 dorm=0.0;\n\
                        \"X\" lambda=0.5 dorm=0.0;\n\
                        \"Y\" lambda=0.5 dorm=0.0;\n\
                        \"Z\" lambda=0.5 dorm=0.0;\n";
    let hybrid_body = Json::obj([
        ("galileo", static_heavy.into()),
        ("method", "hybrid".into()),
        (
            "measures",
            Json::Arr(vec![Json::obj([
                ("type", "unreliability".into()),
                ("time", 1.0.into()),
            ])]),
        ),
    ])
    .render();
    let id = submit(b.addr, &hybrid_body);
    let _ = wait_result(b.addr, id);
    let (status, metrics) = client::request(b.addr, "GET", "/metrics", "").expect("metrics I/O");
    assert_eq!(status, 200);
    let hybrid = metrics.get("hybrid").expect("hybrid section present");
    assert_eq!(num(hybrid, "builds"), 1.0, "{}", metrics.render());
    assert_eq!(num(hybrid, "fallbacks"), 0.0, "{}", metrics.render());
    assert!(
        num(hybrid, "crown_elements") > 0.0 && num(hybrid, "core_elements") > 0.0,
        "the static crown never collapsed: {}",
        metrics.render()
    );

    // --- Hybrid sweep from the shared store ------------------------------
    println!("[5/6] warm hybrid sweep on the same store: zero aggregations, same bits");
    let warm_sweep = wait_result(b.addr, submit_sweep(b.addr, &sweep_body));
    let stats = warm_sweep.get("stats").expect("sweep stats present");
    assert_eq!(
        num(stats, "aggregation_runs"),
        0.0,
        "the parametric hybrid model must come off the store: {}",
        warm_sweep.render()
    );
    assert_eq!(
        sweep_bits(&warm_sweep),
        cold_sweep_bits,
        "warm sweep values diverged"
    );

    // --- Hostile depth -----------------------------------------------------
    println!("[6/6] deep inputs: nested brackets refused, a deep chain answered");
    let nested = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
    let (status, doc) = client::request(b.addr, "POST", "/submit", &nested).expect("submit I/O");
    assert_eq!(status, 400, "{}", doc.render());
    let depth = 12_000;
    let mut chain = String::from("toplevel \"G0\";\n");
    for i in 0..depth {
        chain.push_str(&format!("\"G{i}\" or \"G{}\";\n", i + 1));
    }
    chain.push_str(&format!("\"G{depth}\" lambda=1;\n"));
    let chain_body = Json::obj([
        ("galileo", Json::Str(chain)),
        ("method", "hybrid".into()),
        (
            "measures",
            Json::Arr(vec![Json::obj([
                ("type", "unreliability".into()),
                ("time", 1.0.into()),
            ])]),
        ),
    ])
    .render();
    let id = submit(b.addr, &chain_body);
    let value = result_value(&wait_result(b.addr, id));
    let exact = 1.0 - (-1.0f64).exp();
    assert!(
        (value - exact).abs() < 1e-12,
        "deep chain: {value} vs {exact}"
    );
    let (status, _) = client::request(b.addr, "GET", "/metrics", "").expect("metrics I/O");
    assert_eq!(status, 200, "the server must outlive the deep inputs");

    let (status, _) = client::request(b.addr, "POST", "/shutdown", "").expect("shutdown I/O");
    assert_eq!(status, 200);
    let mut child = b.child;
    let exit = child.wait().expect("server B exits");
    assert!(exit.success(), "server B exited with {exit:?}");

    let _ = std::fs::remove_dir_all(&store);
    println!(
        "serve_smoke: PASS (fleet-warm across processes for jobs and hybrid sweeps, graceful drain, bit-identical, deep inputs)"
    );
}
