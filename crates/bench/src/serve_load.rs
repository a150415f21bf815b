//! Loadgen for `dftmc-serve`: N client threads driving a real in-process
//! [`Server`] over real TCP connections, measuring end-to-end
//! submit→result latency through the whole HTTP → router → service →
//! registry stack.
//!
//! Every client request is one connection (the server speaks
//! `Connection: close`), so the experiment also exercises the accept loop
//! and the bounded connection queue, not just the service underneath.
//! Correctness rides along: every value fetched over HTTP is compared
//! bit-for-bit against an in-process [`Analyzer`] on the same tree —
//! `f64` survives the JSON round trip exactly because both sides use
//! Rust's shortest-round-trip formatting.

use dft::json::Json;
use dft_core::analysis::AnalysisOptions;
use dft_core::engine::Analyzer;
use dft_core::Result;
use dftmc_serve::client;
use dftmc_serve::server::{Server, ServerOptions};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Results of the serve loadgen experiment.
#[derive(Debug, Clone)]
pub struct ServeExperiment {
    /// Total jobs submitted over HTTP (`clients` × `jobs_per_client`).
    pub jobs: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Structurally distinct trees cycled through the submissions.
    pub distinct_trees: usize,
    /// Wall-clock from first submission to last fetched result.
    pub wall: Duration,
    /// `jobs / wall` in jobs per second.
    pub throughput: f64,
    /// Median submit→result latency (includes polling).
    pub latency_p50: Duration,
    /// 99th-percentile submit→result latency.
    pub latency_p99: Duration,
    /// Aggregation runs reported by `/metrics` — must equal
    /// `distinct_trees`: every duplicate submission is a cache hit.
    pub aggregation_runs: u64,
    /// HTTP requests the server answered (submissions + polls + metrics).
    pub http_requests: u64,
    /// Submissions refused with `429` (0 when `max_jobs` ≥ `jobs`).
    pub throttled: u64,
    /// Connections refused with `503` at accept time.
    pub rejected_connections: u64,
    /// States of the closed model of the first tree (deterministic;
    /// trend-gated in `BENCH_serve.json`).
    pub model_states: usize,
    /// `true` when every value fetched over HTTP was bit-identical to the
    /// in-process [`Analyzer`] reference.
    pub bit_identical: bool,
}

/// The unreliability value inside a `/result/{id}` document:
/// `results[0].points[0].value`.
fn result_value(doc: &Json) -> Option<f64> {
    let field = |doc: &Json, key: &str| match doc {
        Json::Obj(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone()),
        _ => None,
    };
    let first = |value: &Json| match value {
        Json::Arr(items) => items.first().cloned(),
        _ => None,
    };
    let measure = first(&field(doc, "results")?)?;
    let point = first(&field(&measure, "points")?)?;
    match field(&point, "value")? {
        Json::Num(n) => Some(n),
        _ => None,
    }
}

/// One client: submits its share of jobs and polls each to completion,
/// recording per-job latency and checking values against the reference.
fn run_client(
    addr: SocketAddr,
    client_index: usize,
    jobs_per_client: usize,
    bodies: &[String],
    reference: &[f64],
) -> std::io::Result<(Vec<Duration>, bool)> {
    let distinct = bodies.len();
    let mut latencies = Vec::with_capacity(jobs_per_client);
    let mut bit_identical = true;
    for j in 0..jobs_per_client {
        // Offset by the client index so duplicate structures interleave
        // *across* clients — the cache-contention regime.
        let variant = (client_index + j) % distinct;
        let Some(body) = bodies.get(variant) else {
            break;
        };
        let submitted = Instant::now();
        let (status, doc) = client::request(addr, "POST", "/submit", body)?;
        assert_eq!(status, 202, "submission refused: {}", doc.render());
        let Json::Num(id) = (match &doc {
            Json::Obj(entries) => entries
                .iter()
                .find(|(k, _)| k == "id")
                .map(|(_, v)| v.clone())
                .unwrap_or(Json::Null),
            _ => Json::Null,
        }) else {
            panic!("submission reply carries no id: {}", doc.render());
        };
        let path = format!("/result/{id}");
        let value = loop {
            let (status, doc) = client::request(addr, "GET", &path, "")?;
            match status {
                202 => std::thread::sleep(Duration::from_micros(200)),
                200 => break result_value(&doc),
                other => panic!("result fetch failed ({other}): {}", doc.render()),
            }
        };
        latencies.push(submitted.elapsed());
        bit_identical &= value.map(f64::to_bits) == reference.get(variant).map(|r| r.to_bits());
    }
    Ok((latencies, bit_identical))
}

/// Runs the loadgen: `clients` threads each submitting `jobs_per_client`
/// jobs over `distinct` rate-scaled CAS variants against a freshly started
/// in-process server, then scrapes `/metrics`, shuts the server down
/// gracefully and reports.
///
/// # Errors
///
/// Propagates analysis errors from the in-process reference.
///
/// # Panics
///
/// Panics when the server cannot start, a client socket fails, or the
/// server refuses a request the configuration says it must accept.
pub fn run_serve_experiment(
    distinct: usize,
    clients: usize,
    jobs_per_client: usize,
) -> Result<ServeExperiment> {
    let variants: Vec<dft::Dft> = (0..distinct)
        .map(|i| dft_core::casestudies::cas_scaled(1.0 + 0.05 * i as f64))
        .collect();
    let reference: Vec<f64> = variants
        .iter()
        .map(|dft| {
            Ok(Analyzer::new(dft, AnalysisOptions::default())?
                .unreliability(1.0)?
                .value())
        })
        .collect::<Result<_>>()?;
    let model_states = Analyzer::new(&variants[0], AnalysisOptions::default())?
        .model_stats()
        .states;
    let bodies: Vec<String> = variants
        .iter()
        .map(|dft| {
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
        })
        .collect();

    let server = Server::start(ServerOptions {
        max_jobs: clients * jobs_per_client + 8,
        ..ServerOptions::default()
    })
    .expect("loadgen server starts on an ephemeral port");
    let addr = server.local_addr();

    let started = Instant::now();
    let outcomes: Vec<(Vec<Duration>, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let bodies = &bodies;
                let reference = &reference;
                scope.spawn(move || {
                    run_client(addr, c, jobs_per_client, bodies, reference)
                        .expect("client socket I/O")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();

    let (status, metrics) = client::request(addr, "GET", "/metrics", "").expect("metrics scrape");
    assert_eq!(status, 200);
    let section = |key: &str, sub: &str| -> u64 {
        let field = |doc: &Json, key: &str| match doc {
            Json::Obj(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone()),
            _ => None,
        };
        match field(&metrics, key).and_then(|doc| field(&doc, sub)) {
            Some(Json::Num(n)) => n as u64,
            _ => panic!("/metrics lacks {key}.{sub}: {}", metrics.render()),
        }
    };
    let aggregation_runs = section("jobs", "aggregation_runs");
    let http_requests = section("http", "requests");
    let throttled = section("http", "throttled");

    let (shutdown_status, _) =
        client::request(addr, "POST", "/shutdown", "").expect("shutdown request");
    assert_eq!(shutdown_status, 200);
    let rejected_connections = server
        .router()
        .http_counters()
        .rejected_connections
        .load(Ordering::Relaxed);
    server.join();

    let mut latencies: Vec<Duration> = Vec::new();
    let mut bit_identical = true;
    for (lats, ok) in outcomes {
        latencies.extend(lats);
        bit_identical &= ok;
    }
    latencies.sort();
    let jobs = latencies.len();
    assert_eq!(jobs, clients * jobs_per_client, "every job must complete");
    let percentile = |p: usize| latencies[(jobs - 1) * p / 100];

    Ok(ServeExperiment {
        jobs,
        clients,
        distinct_trees: distinct,
        wall,
        throughput: jobs as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE),
        latency_p50: percentile(50),
        latency_p99: percentile(99),
        aggregation_runs,
        http_requests,
        throttled,
        rejected_connections,
        model_states,
        bit_identical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loadgen_round_trips_and_stays_bit_identical() {
        let e = run_serve_experiment(2, 2, 2).unwrap();
        assert_eq!(e.jobs, 4);
        assert_eq!(e.aggregation_runs, 2, "one aggregation per distinct tree");
        assert_eq!(e.throttled, 0);
        assert!(e.bit_identical, "HTTP values diverged from the Analyzer");
        assert!(e.http_requests >= 4, "at least one request per job");
    }
}
