//! End-to-end tests over real TCP: a [`Server`] on an ephemeral port, the
//! crate's own [`client`], and bit-identity against the in-process engines.

use dft::json::Json;
use dft_core::analysis::AnalysisOptions;
use dft_core::engine::{Analyzer, ParametricAnalyzer};
use dft_core::service::ServiceOptions;
use dftmc_serve::client;
use dftmc_serve::http::HttpLimits;
use dftmc_serve::server::{Server, ServerOptions};
use std::net::SocketAddr;
use std::time::Duration;

fn small_options() -> ServerOptions {
    ServerOptions {
        http_threads: 2,
        service: ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        },
        ..ServerOptions::default()
    }
}

fn field(doc: &Json, key: &str) -> Option<Json> {
    match doc {
        Json::Obj(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone()),
        _ => None,
    }
}

fn num(doc: &Json, key: &str) -> f64 {
    match field(doc, key) {
        Some(Json::Num(n)) => n,
        other => panic!("field {key} is not a number: {other:?}"),
    }
}

fn cas_body() -> String {
    unreliability_body(&dft_core::casestudies::cas())
}

/// A `/submit` body asking for the unreliability of `dft` at t = 1.
fn unreliability_body(dft: &dft::Dft) -> String {
    Json::obj([
        ("galileo", Json::Str(dft::galileo::to_galileo(dft))),
        (
            "measures",
            Json::Arr(vec![Json::obj([
                ("type", "unreliability".into()),
                ("time", 1.0.into()),
            ])]),
        ),
    ])
    .render()
}

fn submit(addr: SocketAddr, path: &str, body: &str) -> u64 {
    let (status, doc) = client::request(addr, "POST", path, body).unwrap();
    assert_eq!(status, 202, "{}", doc.render());
    num(&doc, "id") as u64
}

fn wait_result(addr: SocketAddr, id: u64) -> Json {
    let path = format!("/result/{id}");
    for _ in 0..30_000 {
        let (status, doc) = client::request(addr, "GET", &path, "").unwrap();
        match status {
            200 => return doc,
            202 => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("result fetch failed ({other}): {}", doc.render()),
        }
    }
    panic!("job {id} never finished");
}

/// `results[i].points[0]` of a result document.
fn point(doc: &Json, i: usize) -> Json {
    let Some(Json::Arr(results)) = field(doc, "results") else {
        panic!("no results in {}", doc.render());
    };
    let Some(Json::Arr(points)) = field(&results[i], "points") else {
        panic!("no points in {}", doc.render());
    };
    points[0].clone()
}

#[test]
fn submitted_jobs_answer_bit_identically_to_the_analyzer() {
    let server = Server::start(small_options()).unwrap();
    let addr = server.local_addr();

    let id = submit(addr, "/submit", &cas_body());
    let report = wait_result(addr, id);
    let value = num(&point(&report, 0), "value");

    let reference = Analyzer::new(&dft_core::casestudies::cas(), AnalysisOptions::default())
        .unwrap()
        .unreliability(1.0)
        .unwrap()
        .value();
    assert_eq!(
        value.to_bits(),
        reference.to_bits(),
        "HTTP {value} != in-process {reference}"
    );
    // Status flips to done and the result survives repeated fetches.
    let (status, doc) = client::request(addr, "GET", &format!("/status/{id}"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(field(&doc, "status"), Some(Json::Str("done".to_owned())));
    assert_eq!(
        client::request(addr, "GET", &format!("/result/{id}"), "")
            .unwrap()
            .0,
        200
    );

    server.shutdown();
    server.join();
}

#[test]
fn sweeps_resolve_specs_and_match_the_parametric_engine() {
    let server = Server::start(small_options()).unwrap();
    let addr = server.local_addr();

    let scales = [0.5, 1.0, 2.0];
    let body = Json::obj([
        (
            "galileo",
            Json::Str(dft::galileo::to_galileo(&dft_core::casestudies::cas())),
        ),
        (
            "measures",
            Json::Arr(vec![Json::obj([
                ("type", "unreliability".into()),
                ("time", 1.0.into()),
            ])]),
        ),
        (
            "sweep",
            Json::obj([(
                "scales",
                Json::Arr(scales.iter().map(|&s| s.into()).collect()),
            )]),
        ),
    ])
    .render();
    let id = submit(addr, "/sweep", &body);
    let report = wait_result(addr, id);
    let Some(Json::Arr(points)) = field(&report, "points") else {
        panic!("no points in {}", report.render());
    };
    assert_eq!(points.len(), scales.len());

    let parametric =
        ParametricAnalyzer::new(&dft_core::casestudies::cas(), AnalysisOptions::default()).unwrap();
    for (point_doc, &scale) in points.iter().zip(&scales) {
        let Some(Json::Arr(results)) = field(point_doc, "results") else {
            panic!("sweep point carries no results: {}", point_doc.render());
        };
        let Some(Json::Arr(point_list)) = field(&results[0], "points") else {
            panic!("no inner points");
        };
        let value = num(&point_list[0], "value");
        let reference = parametric
            .instantiate(&parametric.params().scaled_valuation(scale))
            .unwrap()
            .unreliability(1.0)
            .unwrap()
            .value();
        assert_eq!(
            value.to_bits(),
            reference.to_bits(),
            "scale {scale}: HTTP {value} != parametric {reference}"
        );
    }

    server.shutdown();
    server.join();
}

#[test]
fn protocol_errors_map_to_typed_statuses() {
    let server = Server::start(ServerOptions {
        limits: HttpLimits {
            max_body_bytes: 512,
            ..HttpLimits::default()
        },
        ..small_options()
    })
    .unwrap();
    let addr = server.local_addr();

    assert_eq!(client::request(addr, "GET", "/nope", "").unwrap().0, 404);
    assert_eq!(client::request(addr, "GET", "/submit", "").unwrap().0, 405);
    assert_eq!(
        client::request(addr, "POST", "/submit", "{not json")
            .unwrap()
            .0,
        400
    );
    assert_eq!(
        client::request(addr, "GET", "/result/12345", "").unwrap().0,
        404
    );
    // A body over the configured limit is refused at the HTTP layer.
    let oversized = "x".repeat(600);
    assert_eq!(
        client::request(addr, "POST", "/submit", &oversized)
            .unwrap()
            .0,
        413
    );
    // Unparsable garbage instead of a request head.
    let (status, _) = client::request(addr, "NOT A METHOD", "/x", "").unwrap();
    assert_eq!(status, 400);

    let bad = server
        .router()
        .http_counters()
        .bad_requests
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(bad >= 5, "bad requests must be counted, got {bad}");

    server.shutdown();
    server.join();
}

#[test]
fn full_registries_throttle_submissions() {
    let server = Server::start(ServerOptions {
        max_jobs: 0,
        ..small_options()
    })
    .unwrap();
    let addr = server.local_addr();

    let (status, doc) = client::request(addr, "POST", "/submit", &cas_body()).unwrap();
    assert_eq!(status, 429, "{}", doc.render());
    assert_eq!(
        server
            .router()
            .http_counters()
            .throttled
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    server.shutdown();
    server.join();
}

#[test]
fn metrics_report_the_full_document_over_http() {
    let server = Server::start(small_options()).unwrap();
    let addr = server.local_addr();

    let id = submit(addr, "/submit", &cas_body());
    wait_result(addr, id);
    let (status, doc) = client::request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    for section in ["http", "jobs", "queue", "cache"] {
        assert!(field(&doc, section).is_some(), "{section} missing");
    }
    // Storeless server: the store section is null, not absent.
    assert_eq!(field(&doc, "store"), Some(Json::Null));
    let jobs = field(&doc, "jobs").unwrap();
    assert_eq!(num(&jobs, "completed"), 1.0);
    assert!(num(&jobs, "aggregation_runs") >= 1.0);

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_duplicate_submissions_aggregate_once_per_distinct_tree() {
    let server = Server::start(small_options()).unwrap();
    let addr = server.local_addr();

    let trees = [1.0, 1.05].map(dft_core::casestudies::cas_scaled);
    let bodies = trees.each_ref().map(unreliability_body);
    let references = trees.each_ref().map(|dft| {
        Analyzer::new(dft, AnalysisOptions::default())
            .unwrap()
            .unreliability(1.0)
            .unwrap()
            .value()
    });
    // Three clients submit both trees three times each, offset by client so
    // duplicates of one tree are in flight from several clients at once.
    std::thread::scope(|scope| {
        for client in 0..3 {
            let (bodies, references) = (&bodies, &references);
            scope.spawn(move || {
                let ids: Vec<(usize, u64)> = (0..6)
                    .map(|j| {
                        let tree = (client + j) % 2;
                        (tree, submit(addr, "/submit", &bodies[tree]))
                    })
                    .collect();
                for (tree, id) in ids {
                    let value = num(&point(&wait_result(addr, id), 0), "value");
                    assert_eq!(
                        value.to_bits(),
                        references[tree].to_bits(),
                        "tree {tree}: HTTP {value} != in-process {}",
                        references[tree]
                    );
                }
            });
        }
    });

    let (status, doc) = client::request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    let jobs = field(&doc, "jobs").unwrap();
    assert_eq!(num(&jobs, "completed"), 18.0);
    assert_eq!(
        num(&jobs, "aggregation_runs"),
        2.0,
        "every duplicate submission must be a cache hit"
    );

    server.shutdown();
    server.join();
}

#[test]
fn graceful_shutdown_drains_and_persists_in_flight_jobs() {
    let store = std::env::temp_dir().join(format!("dftmc-serve-test-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    let server = Server::start(ServerOptions {
        service: ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        }
        .store(&store),
        ..small_options()
    })
    .unwrap();
    let addr = server.local_addr();

    // Submit and immediately ask for shutdown: the job is still in flight.
    let id = submit(addr, "/submit", &cas_body());
    let (status, doc) = client::request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        field(&doc, "status"),
        Some(Json::Str("draining".to_owned()))
    );
    server.join();
    assert!(id >= 1);

    // The drain persisted the model: a fresh server on the same store serves
    // the same tree without aggregating.
    let warm = Server::start(ServerOptions {
        service: ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        }
        .store(&store),
        ..small_options()
    })
    .unwrap();
    let id = submit(warm.local_addr(), "/submit", &cas_body());
    let report = wait_result(warm.local_addr(), id);
    assert_eq!(
        num(&report, "aggregation_runs"),
        0.0,
        "the drained store must serve the model: {}",
        report.render()
    );
    warm.shutdown();
    warm.join();

    let _ = std::fs::remove_dir_all(&store);
}
