//! Fleet mode over the wire: an in-process [`Server`] plus the crate's own
//! blocking [`client`], exercising the whole HTTP surface — submit, poll,
//! sweep, metrics — and asserting the values that come back over the socket
//! are bit-identical to an in-process [`Analyzer`].
//!
//! In production you run the standalone binary instead —
//! `dftmc-serve --addr 127.0.0.1:7171 --store /var/cache/dftmc` — and point
//! every process of the fleet at the same store directory; the protocol below
//! is exactly the same.
//!
//! Run with `cargo run --release --example fleet_client`.

use dft::json::Json;
use dftmc::dft_core::casestudies::cas;
use dftmc::dft_core::engine::Analyzer;
use dftmc::dft_core::AnalysisOptions;
use dftmc_serve::client;
use dftmc_serve::server::{Server, ServerOptions};
use std::net::SocketAddr;
use std::time::Duration;

fn field(doc: &Json, key: &str) -> Json {
    match doc {
        Json::Obj(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or(Json::Null),
        _ => Json::Null,
    }
}

fn num(doc: &Json, key: &str) -> f64 {
    match field(doc, key) {
        Json::Num(n) => n,
        other => panic!("field {key} is not a number: {other:?}"),
    }
}

/// Polls `GET /result/{id}` until the job leaves the queue.
fn wait_result(addr: SocketAddr, id: u64) -> Json {
    loop {
        let (status, doc) = client::request(addr, "GET", &format!("/result/{id}"), "").unwrap();
        match status {
            200 => return doc,
            202 => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("result fetch failed ({other}): {}", doc.render()),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An ephemeral in-process server; add `.service.store(dir)` to the
    // options (or `--store` on the binary) and N of these share one warm
    // model store.
    let server = Server::start(ServerOptions::default())?;
    let addr = server.local_addr();
    println!("fleet node listening on {addr}");

    // ── POST /submit: a Galileo tree + measures, answered asynchronously. ──
    let tree = dftmc::dft::galileo::to_galileo(&cas());
    let body = Json::obj([
        ("galileo", Json::Str(tree.clone())),
        (
            "measures",
            Json::Arr(vec![Json::obj([
                ("type", "unreliability".into()),
                ("time", 1.0.into()),
            ])]),
        ),
    ])
    .render();
    let (status, doc) = client::request(addr, "POST", "/submit", &body)?;
    assert_eq!(status, 202);
    let id = num(&doc, "id") as u64;
    println!("submitted job {id}");

    let report = wait_result(addr, id);
    let results = field(&report, "results");
    let Json::Arr(results) = results else {
        panic!("no results")
    };
    let Json::Arr(points) = field(&results[0], "points") else {
        panic!("no points")
    };
    let over_http = num(&points[0], "value");

    // The wire costs zero bits: shortest-round-trip f64 formatting on the
    // way out, exact parsing on the way back in.
    let in_process = Analyzer::new(&cas(), AnalysisOptions::default())?
        .unreliability(1.0)?
        .value();
    assert_eq!(over_http.to_bits(), in_process.to_bits());
    println!("unreliability(1.0) = {over_http} — bit-identical to the in-process Analyzer");

    // ── POST /sweep: a symbolic spec, resolved inside the service. ─────────
    let body = Json::obj([
        ("galileo", Json::Str(tree)),
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
                Json::Arr([0.5, 1.0, 2.0].iter().map(|&s| s.into()).collect()),
            )]),
        ),
    ])
    .render();
    let (status, doc) = client::request(addr, "POST", "/sweep", &body)?;
    assert_eq!(status, 202);
    let sweep = wait_result(addr, num(&doc, "id") as u64);
    let Json::Arr(sweep_points) = field(&sweep, "points") else {
        panic!("no sweep points")
    };
    println!(
        "sweep over 3 failure-rate scales: {} points",
        sweep_points.len()
    );

    // ── GET /metrics: the operational picture of the node. ─────────────────
    let (status, metrics) = client::request(addr, "GET", "/metrics", "")?;
    assert_eq!(status, 200);
    let jobs = field(&metrics, "jobs");
    println!(
        "metrics: {} jobs completed, {} aggregation run(s), {} HTTP requests",
        num(&jobs, "completed"),
        num(&jobs, "aggregation_runs"),
        num(&field(&metrics, "http"), "requests"),
    );

    // ── POST /shutdown: graceful drain, then join. ─────────────────────────
    let (status, _) = client::request(addr, "POST", "/shutdown", "")?;
    assert_eq!(status, 200);
    let drained = server.join();
    println!("graceful shutdown, drained {drained} in-flight job(s)");
    Ok(())
}
