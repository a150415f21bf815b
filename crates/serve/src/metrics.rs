//! Server-side counters and the `/metrics` document.
//!
//! The service already accounts for itself (`queue_stats()`, `cache_stats()`,
//! `store_stats()`); this module adds the HTTP-side counters and renders the
//! whole picture as one JSON object, so a fleet operator can watch queue
//! depth, cache temperature and — crucially for a *shared* store directory —
//! degradation signals like `store.write_errors` from outside the process.

use dft::json::Json;
use dft_core::service::{CacheStats, HybridStats, QueueStats};
use dft_core::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// HTTP-layer counters, updated by the connection loop and the router.
#[derive(Debug, Default)]
pub struct HttpCounters {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections rejected with `503` because the bounded connection queue
    /// was full (accept-time backpressure).
    pub rejected_connections: AtomicU64,
    /// Requests answered, any status.
    pub requests: AtomicU64,
    /// Requests refused with `4xx`/`5xx` before reaching the service
    /// (parse errors, unknown routes, bad JSON…).
    pub bad_requests: AtomicU64,
    /// Submissions refused with `429` because the job registry was full.
    pub throttled: AtomicU64,
    /// Connections dropped for I/O reasons (timeouts, resets) before a
    /// response could be written.
    pub dropped_connections: AtomicU64,
}

/// Job-layer counters, updated by the registry as reports are harvested.
#[derive(Debug, Default)]
pub struct JobCounters {
    /// Jobs and sweeps accepted (`202`).
    pub submitted: AtomicU64,
    /// Jobs and sweeps whose report has been harvested.
    pub completed: AtomicU64,
    /// Jobs that died with a worker panic (harvest found a closed channel).
    pub failed: AtomicU64,
    /// Sum of build-phase time over harvested jobs, in nanoseconds.
    pub build_nanos: AtomicU64,
    /// Sum of query-phase time over harvested jobs, in nanoseconds.
    pub query_nanos: AtomicU64,
    /// Aggregation runs actually executed by harvested jobs (0 for every
    /// cache or store hit — the fleet-warmth signal).
    pub aggregation_runs: AtomicU64,
}

/// One bump of a counter.
pub fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Adds a duration to a nanosecond counter (saturating; 584 years of build
/// time can round down).
pub fn add_time(counter: &AtomicU64, d: Duration) {
    let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(nanos, Ordering::Relaxed);
}

fn num(counter: &AtomicU64) -> Json {
    // u64 renders as a hex string (fingerprint convention); counters are
    // plain numbers, safely below f64's exact-integer range in any real run.
    json_count(counter.load(Ordering::Relaxed))
}

fn seconds(counter: &AtomicU64) -> Json {
    Json::secs(Duration::from_nanos(counter.load(Ordering::Relaxed)))
}

fn count(value: usize) -> Json {
    Json::from(value)
}

/// A u64 counter as a JSON number (`From<u64>` renders fingerprints as hex
/// strings instead; counters and ids want plain numbers).  Public because the
/// router — which may not use `as` casts — renders ids through it.
pub fn json_count(value: u64) -> Json {
    Json::Num(value as f64)
}

/// Renders the full `/metrics` document.
///
/// `pending` is the number of jobs currently sitting in the registry
/// (submitted, not yet harvested); `store` is `None` for a storeless server
/// and must render as JSON `null` so a scraper can tell "no store" from
/// "store with zero traffic".
#[expect(clippy::too_many_arguments, reason = "one per /metrics section")]
pub fn render(
    uptime: Duration,
    http: &HttpCounters,
    jobs: &JobCounters,
    pending: usize,
    queue: QueueStats,
    cache: CacheStats,
    hybrid: HybridStats,
    store: Option<StoreStats>,
) -> Json {
    Json::obj([
        ("uptime_seconds", Json::secs(uptime)),
        (
            "http",
            Json::obj([
                ("connections", num(&http.connections)),
                ("rejected_connections", num(&http.rejected_connections)),
                ("requests", num(&http.requests)),
                ("bad_requests", num(&http.bad_requests)),
                ("throttled", num(&http.throttled)),
                ("dropped_connections", num(&http.dropped_connections)),
            ]),
        ),
        (
            "jobs",
            Json::obj([
                ("submitted", num(&jobs.submitted)),
                ("completed", num(&jobs.completed)),
                ("failed", num(&jobs.failed)),
                ("pending", count(pending)),
                ("build_seconds", seconds(&jobs.build_nanos)),
                ("query_seconds", seconds(&jobs.query_nanos)),
                ("aggregation_runs", num(&jobs.aggregation_runs)),
            ]),
        ),
        (
            "queue",
            Json::obj([
                ("submitted", json_count(queue.submitted)),
                ("completed", json_count(queue.completed)),
                ("pending", count(queue.pending)),
                ("parked", json_count(queue.parked)),
                ("released", json_count(queue.released)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hits", count(cache.hits)),
                ("misses", count(cache.misses)),
                ("evictions", count(cache.evictions)),
                ("entries", count(cache.entries)),
                ("parametric_hits", count(cache.parametric_hits)),
                ("parametric_misses", count(cache.parametric_misses)),
                ("parametric_evictions", count(cache.parametric_evictions)),
                ("parametric_entries", count(cache.parametric_entries)),
            ]),
        ),
        (
            "hybrid",
            Json::obj([
                ("builds", count(hybrid.builds)),
                ("fallbacks", count(hybrid.fallbacks)),
                ("cores", count(hybrid.cores)),
                ("crown_elements", count(hybrid.crown_elements)),
                ("core_elements", count(hybrid.core_elements)),
            ]),
        ),
        (
            "store",
            match store {
                None => Json::Null,
                Some(s) => Json::obj([
                    ("hits", json_count(s.hits)),
                    ("misses", json_count(s.misses)),
                    ("rejected", json_count(s.rejected)),
                    ("writes", json_count(s.writes)),
                    ("write_errors", json_count(s.write_errors)),
                    ("read_bytes", json_count(s.read_bytes)),
                    ("write_bytes", json_count(s.write_bytes)),
                ]),
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_observability_key() {
        let http = HttpCounters::default();
        let jobs = JobCounters::default();
        bump(&http.requests);
        bump(&jobs.submitted);
        add_time(&jobs.build_nanos, Duration::from_millis(1500));
        let doc = render(
            Duration::from_secs(2),
            &http,
            &jobs,
            3,
            QueueStats::default(),
            CacheStats::default(),
            HybridStats {
                builds: 2,
                fallbacks: 1,
                cores: 4,
                crown_elements: 9,
                core_elements: 6,
            },
            Some(StoreStats {
                write_errors: 7,
                ..StoreStats::default()
            }),
        )
        .render();
        // The degraded-store signals the issue calls out must be visible.
        assert!(doc.contains("\"write_errors\":7"));
        assert!(doc.contains("\"parametric_evictions\":0"));
        assert!(doc.contains("\"build_seconds\":1.5"));
        assert!(doc.contains("\"pending\":3"));
        // The hybrid-backend reduction counters must be visible too.
        assert!(doc.contains("\"fallbacks\":1"));
        assert!(doc.contains("\"crown_elements\":9"));
        assert!(doc.contains("\"core_elements\":6"));

        // A storeless server renders `null`, not a zeroed object.
        let doc = render(
            Duration::ZERO,
            &http,
            &jobs,
            0,
            QueueStats::default(),
            CacheStats::default(),
            HybridStats::default(),
            None,
        )
        .render();
        assert!(doc.contains("\"store\":null"));
    }
}
