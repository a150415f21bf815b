//! The portfolio front end: a thread-safe, cache-backed service over many
//! [`Analyzer`] sessions, drained by a persistent worker pool.
//!
//! The [`Analyzer`] exploits the paper's economics
//! *within* one tree: model construction is expensive, queries against the built
//! model are cheap.  Real workloads analyze whole portfolios of DFT variants —
//! fleets of similar systems, parameter studies, repeated submissions of the
//! same design — where many trees are structurally identical and should never
//! pay aggregation twice.  [`AnalysisService`] extends the same economics
//! *across* trees:
//!
//! * **One entry point** — every piece of work is an [`AnalysisRequest`]
//!   (tree, options, measures and an optional rate sweep).
//!   [`submit_request`](AnalysisService::submit_request) enqueues it and
//!   returns a [`RequestHandle`] immediately; [`RequestHandle::wait`] blocks on
//!   a channel until the pool delivers the [`RequestOutcome`], and
//!   [`try_result`](RequestHandle::try_result) polls without blocking.
//!   [`run_request`](AnalysisService::run_request) is submit-then-wait.  Any
//!   number of client threads can submit concurrently against one long-lived
//!   service while the pool drains continuously; a batch is simply many
//!   submissions followed by many waits.
//! * **A persistent worker pool** — [`ServiceOptions::workers`] threads are
//!   spawned once (lazily, on the first submission) and coordinate through a
//!   Mutex+Condvar queue with timeout-free waits; see [`queue`](self).
//!   Dropping the service shuts the pool down deterministically: the queue
//!   drains, every outstanding handle receives its outcome, and the threads
//!   are joined.
//! * **Caching** — built sessions are shared through an LRU cache of
//!   `Arc<Analyzer>` keyed by [`Dft::fingerprint`] (plus the analysis method and
//!   epsilon).  N requests over copies of one tree run aggregation exactly
//!   once; the other N−1 are cache hits that go straight to the query phase.
//! * **Sweeps** — a request carrying a [`SweepSpec`] is one queued task.  It
//!   aggregates the tree's *structure* once into a cached
//!   [`ParametricAnalyzer`] (shared by every rate variant of the same
//!   structure) and answers every measure for all valuations in one
//!   [`sweep_query`](ParametricAnalyzer::sweep_query) call, from templates
//!   cached on that model.  A sweep builds no session per valuation, so it
//!   never touches the session cache.
//! * **Persistence** — with [`ServiceOptions::store`] pointing at a shared
//!   directory, built models are also written to a cross-process
//!   [`ModelStore`]: a cache miss consults the
//!   store before aggregating (a restarted or neighbouring server's work
//!   becomes a disk read that reports zero aggregation runs), every fresh
//!   build is written back atomically before its report is delivered, and
//!   corrupt or stale entries are silently rebuilt.  Store problems never
//!   fail a job — a failed write-back just leaves the entry in-memory-only.
//! * **Exactly-once builds under concurrency** — each cache entry is an
//!   `Arc<OnceLock<…>>`: when two workers race for the same fingerprint, one
//!   builds while the other blocks on the lock and then shares the result,
//!   instead of building a duplicate model.  The queue additionally *parks*
//!   jobs whose model is being built by a leader and re-releases them when the
//!   build completes, so pool workers never idle inside that lock
//!   ([`JobReport::build_wait`] stays `false` however the jobs interleave,
//!   short of an eviction racing a rebuild under a too-small cache capacity).
//! * **Determinism** — workers only share immutable `Arc<Analyzer>` sessions,
//!   so every job's results are bit-identical to what a sequential
//!   [`Analyzer`] run over the same tree would produce, whatever the worker
//!   count, submission order or job interleaving.
//!
//! # Example
//!
//! ```
//! use dft::{DftBuilder, Dormancy};
//! use dft_core::service::{AnalysisService, RequestOutcome, ServiceOptions};
//! use dft_core::{AnalysisRequest, Measure};
//!
//! fn variant(rate: f64) -> dft::Dft {
//!     let mut b = DftBuilder::new();
//!     let p = b.basic_event("P", rate, Dormancy::Hot).unwrap();
//!     let s = b.basic_event("S", rate, Dormancy::Cold).unwrap();
//!     let top = b.spare_gate("Top", &[p, s]).unwrap();
//!     b.build(top).unwrap()
//! }
//!
//! fn request(rate: f64, measures: Vec<Measure>) -> AnalysisRequest {
//!     AnalysisRequest {
//!         measures,
//!         ..AnalysisRequest::new(variant(rate))
//!     }
//! }
//!
//! let service = AnalysisService::new(ServiceOptions::default());
//!
//! // Blocking: run_request submits and waits for the outcome.
//! let RequestOutcome::Job(report) = service.run_request(request(1.0, vec![Measure::Mttf]))
//! else {
//!     unreachable!("a request without a sweep is a job")
//! };
//! assert!((report.results.unwrap()[0].value() - 2.0).abs() < 1e-6);
//!
//! // Asynchronous: six submissions over two distinct structures return
//! // immediately; only two models are ever built, and the first one is
//! // already cached from the request above.
//! let before = service.cache_stats();
//! let handles: Vec<_> = (0..6)
//!     .map(|i| {
//!         let rate = if i % 2 == 0 { 1.0 } else { 2.0 };
//!         service.submit_request(request(rate, vec![Measure::curve([0.5, 1.0]), Measure::Mttf]))
//!     })
//!     .collect();
//! let mut aggregation_runs = 0;
//! for handle in handles {
//!     let RequestOutcome::Job(report) = handle.wait() else {
//!         unreachable!("a request without a sweep is a job")
//!     };
//!     aggregation_runs += report.aggregation_runs;
//!     assert_eq!(report.results.unwrap().len(), 2);
//! }
//! assert_eq!(aggregation_runs, 1);
//! let after = service.cache_stats();
//! assert_eq!(after.misses - before.misses, 1);
//! assert_eq!(after.hits - before.hits, 5);
//! ```

mod handle;
mod queue;
mod worker;

pub use handle::RequestHandle;
pub use queue::QueueStats;

use crate::analysis::{AnalysisOptions, Method};
use crate::engine::{Analyzer, ParametricAnalyzer, Session, SessionRate};
use crate::query::MeasureResult;
use crate::request::{AnalysisRequest, SweepSpec};
use crate::store::{ModelStore, StoreStats};
use crate::{Error, Result};
use dft::Dft;
use queue::{JobQueue, Task};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs of an [`AnalysisService`].
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Size of the service's persistent worker pool.
    ///
    /// `0` (the default) means one worker per available CPU core
    /// ([`std::thread::available_parallelism`]).  The pool is spawned lazily on
    /// the first submission — a service that never receives work never spawns
    /// a thread — and lives until the service is dropped.
    pub workers: usize,
    /// Maximum number of cached `Arc<Analyzer>` sessions; the least recently
    /// used session is evicted beyond this.  `0` means unbounded.  The
    /// parametric-model cache has its own budget of the same size.
    pub cache_capacity: usize,
    /// Directory of the persistent cross-process model cache
    /// ([`ModelStore`]), or `None` (the default) for a purely in-memory
    /// service.
    ///
    /// With a store configured, every in-memory cache miss consults the store
    /// before building — a restart or a fleet neighbour that already
    /// aggregated the same structure turns the build into a disk read — and
    /// every freshly built model is written back (atomically, best-effort:
    /// write failures degrade to an in-memory-only entry, they never fail the
    /// job).  Set it with [`ServiceOptions::store`].
    pub store: Option<PathBuf>,
}

impl ServiceOptions {
    /// Returns the options with the persistent model store rooted at `path`
    /// (see [`ServiceOptions::store`](struct@ServiceOptions#structfield.store)).
    #[must_use]
    pub fn store(mut self, path: impl Into<PathBuf>) -> ServiceOptions {
        self.store = Some(path.into());
        self
    }
}

impl Default for ServiceOptions {
    fn default() -> ServiceOptions {
        ServiceOptions {
            workers: 0,
            cache_capacity: 128,
            store: None,
        }
    }
}

/// Cached models are shared per structure *and* per analysis configuration:
/// the same tree analysed monolithically or with a different epsilon is a
/// different model (epsilon drives every numerical query on the session).
///
/// A session's `fingerprint` is [`Dft::fingerprint`]; a parametric model's is
/// the rate-blind [`Dft::structural_fingerprint`], so every rate variant of
/// one structure shares it.  The two live in separate maps.  The method takes
/// part for parametric models too, although only the compositional method
/// can ever *succeed*: a monolithic sweep caches its deterministic
/// `Unsupported` error under its own key instead of poisoning the
/// compositional entry for the same structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    fingerprint: u64,
    method: Method,
    epsilon_bits: u64,
}

impl CacheKey {
    fn new(fingerprint: u64, options: &AnalysisOptions) -> CacheKey {
        CacheKey {
            fingerprint,
            method: options.method,
            epsilon_bits: options.epsilon.to_bits(),
        }
    }
}

/// A cache slot: `OnceLock` guarantees the build runs exactly once even when
/// several workers race for the same key — latecomers block until the winner's
/// session (or its error, which is equally deterministic) is available.
type Slot<T> = Arc<OnceLock<std::result::Result<Arc<T>, Error>>>;

#[derive(Debug)]
struct CacheEntry<T> {
    slot: Slot<T>,
    last_used: u64,
}

/// One LRU-ordered key space of the cache.
type Entries<T> = HashMap<CacheKey, CacheEntry<T>>;

/// Picks one key space out of the cache.
type Space<T> = fn(&mut Cache) -> &mut Entries<T>;

#[derive(Debug, Default)]
struct Cache {
    entries: Entries<Analyzer>,
    /// Parametric (symbolic-rate) models, keyed by rate-blind structure.
    /// They do not compete with sessions for slots: parametric models are
    /// far rarer and far more valuable than single sessions.
    param_entries: Entries<ParametricAnalyzer>,
    /// Monotonic use counter backing the LRU order (no wall clock involved, so
    /// the order is deterministic under a single worker).
    tick: u64,
}

/// Cumulative cache counters of a service, across all requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Session lookups that found the session already built (or being
    /// built): one per job or [`AnalysisService::analyzer`] call.  Sweeps
    /// look up no session.
    pub hits: usize,
    /// Session lookups that had to build the session.
    pub misses: usize,
    /// *Session* entries dropped to respect
    /// [`ServiceOptions::cache_capacity`].  Parametric models evicted from
    /// their own cache are counted in
    /// [`parametric_evictions`](Self::parametric_evictions), never here.
    pub evictions: usize,
    /// Sessions currently cached.
    pub entries: usize,
    /// Sweep calls that found their parametric model already built.
    pub parametric_hits: usize,
    /// Sweep calls that had to build their parametric model.
    pub parametric_misses: usize,
    /// Parametric models dropped to respect the parametric cache's own
    /// [`ServiceOptions::cache_capacity`] budget.
    pub parametric_evictions: usize,
    /// Parametric models currently cached.
    pub parametric_entries: usize,
}

/// Cumulative counters of the hybrid static/dynamic backend, across every
/// fresh [`Method::Hybrid`] build the service performed (sessions and
/// parametric models alike; cache hits bump nothing).
///
/// `builds` counts sessions whose decomposition actually happened, `fallbacks`
/// those that silently reverted to the full compositional pipeline (repairable
/// tree or non-deterministic core).  The element counters accumulate the
/// [`ModuleStats`](dft::modules::ModuleStats) of genuine decompositions, so
/// `crown_elements / (crown_elements + core_elements)` is the fraction of the
/// fleet's workload solved combinatorially instead of by state space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Fresh hybrid builds where the decomposition happened.
    pub builds: usize,
    /// Fresh hybrid builds that fell back to the compositional pipeline.
    pub fallbacks: usize,
    /// Dynamic cores analysed by state space, summed over all `builds`.
    pub cores: usize,
    /// Elements solved on the crown BDD, summed over all `builds`.
    pub crown_elements: usize,
    /// Elements left in dynamic cores, summed over all `builds`.
    pub core_elements: usize,
}

/// The outcome of one [`AnalysisRequest`] without a sweep.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Structural fingerprint of the job's tree ([`Dft::fingerprint`]).
    pub fingerprint: u64,
    /// `true` when the session came out of the cache (including waiting for a
    /// concurrent builder of the same tree) instead of being built by this job.
    pub cache_hit: bool,
    /// One [`MeasureResult`] per requested measure, in request order — or the
    /// first error the job hit (build or query).
    pub results: Result<Vec<MeasureResult>>,
    /// Compositional aggregation runs this job executed: 1 when it built a
    /// compositional session, 0 for cache hits, monolithic builds and failed
    /// builds.
    pub aggregation_runs: usize,
    /// `true` when this job blocked on a concurrent builder of the same model
    /// (a cache "hit" that still paid most of the build latency).
    pub build_wait: bool,
    /// Time this job spent obtaining its session (≈ lookup cost on a hit, full
    /// conversion + aggregation on a miss).
    pub build: Duration,
    /// Time this job spent answering its measures against the session.
    pub query: Duration,
}

/// The outcome of an [`AnalysisRequest`], delivered by its [`RequestHandle`].
#[derive(Debug, Clone)]
pub enum RequestOutcome {
    /// Report of a plain (no-sweep) request.
    Job(JobReport),
    /// Report of a sweep request.
    Sweep(SweepReport),
}

/// The outcome of one valuation of a sweep request.
///
/// All valuations are answered by one
/// [`sweep_query`](ParametricAnalyzer::sweep_query) call, so no time can be
/// attributed to a single point; the sweep-level [`SweepStats`] carry the
/// timings.
#[derive(Debug, Clone)]
pub struct SweepPointReport {
    /// Fingerprint of the valuation
    /// ([`Valuation::fingerprint`](crate::parametric::Valuation::fingerprint)); 0 when the
    /// spec could not be resolved into valuations.
    pub valuation_fingerprint: u64,
    /// One [`MeasureResult`] per requested measure, in request order — or the
    /// first error (model build, spec resolution, invalid valuation, query
    /// failure).  Bit-identical to
    /// [`instantiate`](ParametricAnalyzer::instantiate)` + `
    /// [`query_all`](Analyzer::query_all) on this valuation alone.
    pub results: Result<Vec<MeasureResult>>,
}

/// Sweep-level accounting of a sweep request.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepStats {
    /// Number of valuations in the sweep.
    pub valuations: usize,
    /// `true` when the parametric model came out of the cache.
    pub parametric_cache_hit: bool,
    /// Compositional aggregation runs executed by this call: 1 when it built
    /// the parametric model, 0 on a parametric cache hit — never once per
    /// valuation.
    pub aggregation_runs: usize,
    /// Time spent obtaining the parametric model (full aggregation on a miss).
    pub build_time: Duration,
    /// Time spent checking the valuations and evaluating their rate forms
    /// ([`RateSweep::instantiate_time`](crate::engine::RateSweep::instantiate_time)).
    pub instantiate_time: Duration,
    /// Time spent answering the measures
    /// ([`RateSweep::query_time`](crate::engine::RateSweep::query_time)).
    pub query_time: Duration,
    /// End-to-end wall-clock time of the sweep, from submission to the
    /// finished report.
    pub wall_time: Duration,
}

/// The outcome of a whole sweep request: per-valuation reports in request
/// order plus the sweep-level accounting.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One report per valuation, in the same order as the sweep's points.
    pub points: Vec<SweepPointReport>,
    /// Cache and phase-timing accounting for the sweep.
    pub stats: SweepStats,
}

/// The state shared between the service front end and its worker threads: the
/// session caches, the cumulative counters, and the job queue.
#[derive(Debug, Default)]
struct ServiceCore {
    options: ServiceOptions,
    cache: Mutex<Cache>,
    /// The persistent cross-process store, when [`ServiceOptions::store`]
    /// names one (and its directory is usable).  Owned by the core, so
    /// write-back always happens *inside* the cache slot's one-time build —
    /// strictly before the builder's report is delivered to any handle and
    /// therefore before the service's drop-drain can possibly complete.
    store: Option<ModelStore>,
    sessions: Counters,
    parametric: Counters,
    /// Hybrid-decomposition counters (see [`HybridStats`]), bumped on every
    /// fresh [`Method::Hybrid`] build — session or parametric, including
    /// sessions restored from the persistent store.
    hybrid_builds: AtomicUsize,
    hybrid_fallbacks: AtomicUsize,
    hybrid_cores: AtomicUsize,
    hybrid_crown_elements: AtomicUsize,
    hybrid_core_elements: AtomicUsize,
    queue: JobQueue,
}

/// The cumulative lookup counters of one key space of the cache.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

/// The worker threads of a started pool, joined when the service drops.
#[derive(Debug)]
struct Pool {
    workers: Vec<thread::JoinHandle<()>>,
    size: usize,
}

/// A thread-safe, cache-backed analysis front end for portfolios of DFTs.
///
/// See the [module documentation](self) for the full story and an example.  The
/// service is `Send + Sync` (statically asserted below): one instance can be
/// shared behind an `Arc` by any number of submitting threads, all feeding the
/// same persistent worker pool through
/// [`submit_request`](Self::submit_request) (or its blocking wrapper
/// [`run_request`](Self::run_request)).
///
/// Dropping the service shuts the pool down deterministically: no further
/// submissions are possible (dropping requires exclusive ownership), the
/// workers drain every queued task — so every outstanding [`RequestHandle`]
/// still receives its outcome — and the threads are joined.
#[derive(Debug)]
pub struct AnalysisService {
    core: Arc<ServiceCore>,
    pool: Mutex<Option<Pool>>,
}

impl Default for AnalysisService {
    fn default() -> AnalysisService {
        AnalysisService::new(ServiceOptions::default())
    }
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<AnalysisService>();
    assert_send_sync::<AnalysisRequest>();
    assert_send::<RequestHandle>()
};

impl AnalysisService {
    /// Creates a service with the given options.  No worker thread is spawned
    /// until the first (non-empty) submission.
    ///
    /// When [`ServiceOptions::store`] names a directory that cannot be opened
    /// or created, the service degrades to purely in-memory caching (visible
    /// through [`store_stats`](Self::store_stats) returning `None`) — the
    /// cache path never fails because of the store.
    pub fn new(options: ServiceOptions) -> AnalysisService {
        let store = options
            .store
            .as_ref()
            .and_then(|path| ModelStore::open(path).ok());
        AnalysisService {
            core: Arc::new(ServiceCore {
                options,
                store,
                ..ServiceCore::default()
            }),
            pool: Mutex::new(None),
        }
    }

    /// The options the service was created with.
    pub fn options(&self) -> &ServiceOptions {
        &self.core.options
    }

    /// Returns the shared [`Analyzer`] session for one DFT, building it if no
    /// structurally identical tree with the same options is cached yet.
    ///
    /// This is the single-job face of the service: callers that want to hold a
    /// session across many requests (or query it directly) get the same
    /// exactly-once build and LRU accounting as
    /// [`submit_request`](Self::submit_request).
    /// The build runs on the *calling* thread — no queueing is involved.
    ///
    /// # Errors
    ///
    /// Propagates [`Analyzer::new`] errors.  A failed build is cached too — the
    /// failure is deterministic, so retrying a structurally identical tree
    /// returns the same error without paying the construction cost again.
    pub fn analyzer(&self, dft: &Dft, options: &AnalysisOptions) -> Result<Arc<Analyzer>> {
        let key = CacheKey::new(dft.fingerprint(), options);
        let core = &self.core;
        let (session, _, _) = core.cached(
            |cache| &mut cache.entries,
            &core.sessions,
            key,
            dft,
            options,
        );
        session
    }

    /// Enqueues an [`AnalysisRequest`] — the surface-agnostic "tree +
    /// options + measures + optional sweep" description every front end
    /// produces — on the persistent worker pool and returns immediately.
    ///
    /// This is *the* way to give the service work; the HTTP server, the
    /// `dftmc` CLI and library callers all come through here, so every
    /// surface gets bit-identical results.  The returned [`RequestHandle`]
    /// delivers the [`RequestOutcome`] through [`wait`](RequestHandle::wait)
    /// (blocking) or [`try_result`](RequestHandle::try_result) (polling).
    ///
    /// * **Without a sweep** the request becomes one job: build-or-fetch the
    ///   session, answer the measures in one
    ///   [`query_all`](Analyzer::query_all) pass, report a [`JobReport`].
    ///   Any number of threads may submit concurrently; jobs for the same
    ///   model share one build through the cache and the queue's
    ///   leader/follower scheduling, so no worker ever blocks on a concurrent
    ///   build (see [`JobReport::build_wait`]).  Errors (unsupported features,
    ///   numerical failures) land in [`JobReport::results`].
    /// * **With a [`SweepSpec`]** the request becomes one sweep task.  It
    ///   obtains the shared [`ParametricAnalyzer`] once (cached by
    ///   [`Dft::structural_fingerprint`], so every rate variant of the same
    ///   structure reuses it), resolves the spec against its parameter table
    ///   and answers every measure for all valuations in one
    ///   [`sweep_query`](ParametricAnalyzer::sweep_query) call.  No session
    ///   is built per valuation, so a sweep leaves the session cache as it
    ///   found it.  Resolution and per-valuation errors are reported per
    ///   point and never abort the sweep.  A sweep without points is a true
    ///   no-op: nothing is built or enqueued, no thread is spawned, and the
    ///   (empty) report is available immediately.
    pub fn submit_request(&self, mut request: AnalysisRequest) -> RequestHandle {
        let sweep = request.sweep.take();
        if sweep.as_ref().is_some_and(SweepSpec::is_empty) {
            return RequestHandle::ready(RequestOutcome::Sweep(SweepReport {
                points: Vec::new(),
                stats: SweepStats::default(),
            }));
        }
        self.ensure_pool();
        let (tx, rx) = mpsc::channel();
        let request = Box::new(request);
        self.core.queue.push(match sweep {
            None => Task::Job {
                key: CacheKey::new(request.dft.fingerprint(), &request.options),
                request,
                tx,
            },
            Some(spec) => Task::Sweep {
                request,
                spec,
                submitted: Instant::now(),
                tx,
            },
        });
        RequestHandle::new(rx)
    }

    /// Runs an [`AnalysisRequest`] to completion: the blocking wrapper over
    /// [`submit_request`](Self::submit_request).
    pub fn run_request(&self, request: AnalysisRequest) -> RequestOutcome {
        self.submit_request(request).wait()
    }

    /// Cumulative cache counters since the service was created.
    pub fn cache_stats(&self) -> CacheStats {
        self.core.cache_stats()
    }

    /// Cumulative hybrid-decomposition counters since the service was created
    /// (see [`HybridStats`]).
    pub fn hybrid_stats(&self) -> HybridStats {
        self.core.hybrid_stats()
    }

    /// Cumulative counters of the persistent model store, or `None` when the
    /// service runs without one (no [`ServiceOptions::store`], or its
    /// directory was unusable at construction).
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.core.store.as_ref().map(ModelStore::stats)
    }

    /// Cumulative counters of the submission queue (tasks submitted, parked
    /// behind in-flight builds, released, completed).
    pub fn queue_stats(&self) -> QueueStats {
        self.core.queue.stats()
    }

    /// Size of the persistent worker pool: 0 while no submission has started
    /// it yet, [`ServiceOptions::workers`] (with 0 resolved to the core count)
    /// afterwards.
    pub fn pool_workers(&self) -> usize {
        self.pool
            .lock()
            .expect("pool lock")
            .as_ref()
            .map_or(0, |pool| pool.size)
    }

    /// Starts the worker pool if it is not running yet.
    fn ensure_pool(&self) {
        let mut pool = self.pool.lock().expect("pool lock");
        if pool.is_none() {
            let size = resolved_workers(&self.core.options);
            let workers = (0..size)
                .map(|i| {
                    let core = Arc::clone(&self.core);
                    thread::Builder::new()
                        .name(format!("dftmc-worker-{i}"))
                        .spawn(move || worker::run(&core))
                        .expect("spawn service worker thread")
                })
                .collect();
            *pool = Some(Pool { workers, size });
        }
    }
}

impl Drop for AnalysisService {
    /// Deterministic shutdown: drain the queue (every outstanding handle still
    /// receives its report), then join the workers.  Dropping a service whose
    /// pool never started is free.
    ///
    /// The persistent store needs no extra flushing here: the core owns the
    /// [`ModelStore`] and write-back happens synchronously inside each cache
    /// slot's one-time build — strictly *before* the building job's report is
    /// sent to its handle — so by the time the drain completes, every model
    /// the drained jobs built is already on disk (or was skipped by a counted
    /// write error).
    fn drop(&mut self) {
        let pool = match self.pool.get_mut() {
            Ok(pool) => pool.take(),
            Err(_) => None,
        };
        if let Some(pool) = pool {
            self.core.queue.begin_shutdown();
            for worker in pool.workers {
                // A worker that panicked already delivered its panic to the
                // handle waiting on its current task; don't double-panic the
                // destructor.
                let _ = worker.join();
            }
        }
    }
}

/// Resolves [`ServiceOptions::workers`] (0 = one per core) to a pool size.
fn resolved_workers(options: &ServiceOptions) -> usize {
    if options.workers == 0 {
        thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        options.workers
    }
}

impl ServiceCore {
    /// Executes one job against the cache: build-or-fetch the session, then
    /// answer the measures.  `key` was computed once at submission.
    fn run_job(&self, key: CacheKey, request: &AnalysisRequest) -> JobReport {
        let fingerprint = key.fingerprint;
        let build_start = Instant::now();
        let (session, cache_hit, build_wait) = self.cached(
            |cache| &mut cache.entries,
            &self.sessions,
            key,
            &request.dft,
            &request.options,
        );
        let build = build_start.elapsed();
        match session {
            Err(e) => JobReport {
                fingerprint,
                cache_hit,
                results: Err(e),
                aggregation_runs: 0,
                build_wait,
                build,
                query: Duration::ZERO,
            },
            Ok(analyzer) => {
                let aggregation_runs = if cache_hit {
                    0
                } else {
                    analyzer.aggregation_runs()
                };
                let query_start = Instant::now();
                let results = analyzer.query_all(&request.measures);
                JobReport {
                    fingerprint,
                    cache_hit,
                    results,
                    aggregation_runs,
                    build_wait,
                    build,
                    query: query_start.elapsed(),
                }
            }
        }
    }

    /// Executes one sweep request: get-or-build the shared parametric model,
    /// resolve the spec against its parameter table, then answer every
    /// valuation in one [`sweep_query`](ParametricAnalyzer::sweep_query)
    /// call.  A failed build or resolution lands in every point's report.
    fn run_sweep(
        &self,
        request: &AnalysisRequest,
        spec: &SweepSpec,
        submitted: Instant,
    ) -> SweepReport {
        let key = CacheKey::new(request.dft.structural_fingerprint(), &request.options);
        let build_start = Instant::now();
        let (model, parametric_cache_hit, _) = self.cached(
            |cache| &mut cache.param_entries,
            &self.parametric,
            key,
            &request.dft,
            &request.options,
        );
        let mut stats = SweepStats {
            valuations: spec.len(),
            parametric_cache_hit,
            // A parametric model freshly *loaded from the persistent store*
            // is an in-memory cache miss that still ran zero aggregations —
            // ask the model itself instead of inferring from the hit flag.
            aggregation_runs: match &model {
                Ok(model) if !parametric_cache_hit => model.aggregation_runs(),
                _ => 0,
            },
            build_time: build_start.elapsed(),
            ..SweepStats::default()
        };
        let failed = |fingerprint, e: &Error| SweepPointReport {
            valuation_fingerprint: fingerprint,
            results: Err(e.clone()),
        };
        let points = match &model {
            // Table-free specs keep their per-point fingerprints; symbolic
            // ones cannot resolve without the model.
            Err(e) => match spec {
                SweepSpec::Valuations(valuations) => valuations
                    .iter()
                    .map(|valuation| failed(valuation.fingerprint(), e))
                    .collect(),
                _ => vec![failed(0, e); spec.len()],
            },
            Ok(model) => match spec.resolve(model.params()) {
                Err(e) => vec![failed(0, &e); spec.len()],
                Ok(valuations) => {
                    let sweep = model.sweep_query(&request.measures, &valuations);
                    stats.instantiate_time = sweep.instantiate_time();
                    stats.query_time = sweep.query_time();
                    valuations
                        .iter()
                        .zip(sweep.results())
                        .map(|(valuation, results)| SweepPointReport {
                            valuation_fingerprint: valuation.fingerprint(),
                            results: results.clone(),
                        })
                        .collect()
                }
            },
        };
        stats.wall_time = submitted.elapsed();
        SweepReport { points, stats }
    }

    /// Cumulative cache counters since the service was created.
    fn cache_stats(&self) -> CacheStats {
        let (entries, parametric_entries) = {
            let cache = self.cache.lock().expect("cache lock");
            (cache.entries.len(), cache.param_entries.len())
        };
        CacheStats {
            hits: self.sessions.hits.load(Ordering::Relaxed),
            misses: self.sessions.misses.load(Ordering::Relaxed),
            evictions: self.sessions.evictions.load(Ordering::Relaxed),
            entries,
            parametric_hits: self.parametric.hits.load(Ordering::Relaxed),
            parametric_misses: self.parametric.misses.load(Ordering::Relaxed),
            parametric_evictions: self.parametric.evictions.load(Ordering::Relaxed),
            parametric_entries,
        }
    }

    /// Whether the session for `key` is already built (successfully or not).
    /// Used by the queue's claim step to decide leadership; deliberately does
    /// not touch the LRU order.
    fn is_built(&self, key: &CacheKey) -> bool {
        let cache = self.cache.lock().expect("cache lock");
        cache
            .entries
            .get(key)
            .is_some_and(|entry| entry.slot.get().is_some())
    }

    /// Get-or-build with exactly-once semantics, for sessions and parametric
    /// models alike: `space` picks the key space and `counters` its hit, miss
    /// and eviction counters.  The first boolean is `true` for a cache hit
    /// (the model existed or a concurrent worker built it), the second when
    /// the hit *blocked* on a concurrent builder.  The caller supplies the
    /// key so the fingerprint is hashed once per request.
    ///
    /// A fresh build consults the cross-process store first: a warm entry
    /// (written by an earlier run, or by a fleet neighbour sharing the
    /// directory) turns the aggregation into a disk read, and the restored
    /// model reports `aggregation_runs() == 0`.  Otherwise the model is
    /// aggregated and written back best-effort: a failed write is counted in
    /// the store's own stats and the entry stays in memory only.
    fn cached<R: SessionRate>(
        &self,
        space: Space<Session<R>>,
        counters: &Counters,
        key: CacheKey,
        dft: &Dft,
        options: &AnalysisOptions,
    ) -> (Result<Arc<Session<R>>>, bool, bool) {
        let slot = self.reserve(space, key, &counters.evictions);
        // A slot that is still empty here either becomes ours to build or means
        // another worker is building it right now — in the latter case the
        // `get_or_init` below blocks for the whole build.
        let ready = slot.get().is_some();
        let mut built = false;
        let outcome = slot.get_or_init(|| {
            built = true;
            let stored = self
                .store
                .as_ref()
                .and_then(|store| store.load_session(key.fingerprint, options));
            let result = match stored {
                Some(session) => Ok(session),
                None => {
                    let result = Session::new(dft, options.clone());
                    if let (Some(store), Ok(session)) = (&self.store, &result) {
                        let _ = store.save_session(key.fingerprint, session);
                    }
                    result
                }
            };
            if let Ok(session) = &result {
                self.record_hybrid(session.method(), session.module_stats());
            }
            result.map(Arc::new)
        });
        if built {
            counters.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.hits.fetch_add(1, Ordering::Relaxed);
        }
        (outcome.clone(), !built, !built && !ready)
    }

    /// Bumps the [`HybridStats`] counters for one fresh build (no-op for the
    /// other methods).
    fn record_hybrid(&self, method: Method, modules: Option<dft::modules::ModuleStats>) {
        if method != Method::Hybrid {
            return;
        }
        match modules {
            Some(modules) => {
                self.hybrid_builds.fetch_add(1, Ordering::Relaxed);
                self.hybrid_cores
                    .fetch_add(modules.core_count, Ordering::Relaxed);
                self.hybrid_crown_elements
                    .fetch_add(modules.crown_elements, Ordering::Relaxed);
                self.hybrid_core_elements
                    .fetch_add(modules.core_elements, Ordering::Relaxed);
            }
            None => {
                self.hybrid_fallbacks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Cumulative hybrid-decomposition counters since the service was created.
    fn hybrid_stats(&self) -> HybridStats {
        HybridStats {
            builds: self.hybrid_builds.load(Ordering::Relaxed),
            fallbacks: self.hybrid_fallbacks.load(Ordering::Relaxed),
            cores: self.hybrid_cores.load(Ordering::Relaxed),
            crown_elements: self.hybrid_crown_elements.load(Ordering::Relaxed),
            core_elements: self.hybrid_core_elements.load(Ordering::Relaxed),
        }
    }

    /// Returns the slot for `key` in the key space `space` picks, inserting
    /// a fresh one (and evicting the least recently used *initialized* entry
    /// of that space beyond capacity, counted in `evictions`) under the cache
    /// lock.  The actual build happens outside the lock, so a slow
    /// aggregation never stalls jobs for other trees.
    fn reserve<T>(&self, space: Space<T>, key: CacheKey, evictions: &AtomicUsize) -> Slot<T> {
        let mut cache = self.cache.lock().expect("cache lock");
        cache.tick += 1;
        let tick = cache.tick;
        let entries = space(&mut cache);
        if let Some(entry) = entries.get_mut(&key) {
            entry.last_used = tick;
            return Arc::clone(&entry.slot);
        }
        let slot: Slot<T> = Arc::new(OnceLock::new());
        entries.insert(
            key,
            CacheEntry {
                slot: Arc::clone(&slot),
                last_used: tick,
            },
        );
        let capacity = self.options.cache_capacity;
        while capacity > 0 && entries.len() > capacity {
            // In-flight (uninitialized) slots are exempt: evicting one would let
            // a racing duplicate rebuild the same model.
            let victim = entries
                .iter()
                .filter(|(k, e)| **k != key && e.slot.get().is_some())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    entries.remove(&k);
                    evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parametric::ParamKind;
    use crate::query::Measure;
    use crate::request::SweepSpec;
    use dft::{DftBuilder, Dormancy};

    fn spare_tree(prefix: &str, rate: f64) -> Dft {
        let mut b = DftBuilder::new();
        let p = b
            .basic_event(&format!("{prefix}_P"), rate, Dormancy::Hot)
            .unwrap();
        let s = b
            .basic_event(&format!("{prefix}_S"), rate, Dormancy::Cold)
            .unwrap();
        let top = b.spare_gate(&format!("{prefix}_Top"), &[p, s]).unwrap();
        b.build(top).unwrap()
    }

    fn request(dft: Dft, measures: Vec<Measure>) -> AnalysisRequest {
        AnalysisRequest {
            measures,
            ..AnalysisRequest::new(dft)
        }
    }

    fn sweep(dft: Dft, measures: Vec<Measure>, spec: SweepSpec) -> AnalysisRequest {
        AnalysisRequest {
            sweep: Some(spec),
            ..request(dft, measures)
        }
    }

    fn job(outcome: RequestOutcome) -> JobReport {
        match outcome {
            RequestOutcome::Job(report) => report,
            RequestOutcome::Sweep(_) => panic!("expected a job outcome"),
        }
    }

    fn swept(outcome: RequestOutcome) -> SweepReport {
        match outcome {
            RequestOutcome::Sweep(report) => report,
            RequestOutcome::Job(_) => panic!("expected a sweep outcome"),
        }
    }

    #[test]
    fn duplicate_trees_build_once() {
        let service = AnalysisService::new(ServiceOptions {
            workers: 2,
            cache_capacity: 8,
            ..ServiceOptions::default()
        });
        let handles: Vec<RequestHandle> = (0..5)
            .map(|i| {
                // Different names, identical structure: same fingerprint.
                service.submit_request(request(
                    spare_tree(&format!("svc{i}"), 1.0),
                    vec![Measure::Unreliability(1.0)],
                ))
            })
            .collect();
        assert_eq!(service.pool_workers(), 2);
        let reports: Vec<JobReport> = handles.into_iter().map(|h| job(h.wait())).collect();
        assert_eq!(reports.len(), 5);
        assert_eq!(reports.iter().filter(|r| !r.cache_hit).count(), 1);
        assert_eq!(reports.iter().map(|r| r.aggregation_runs).sum::<usize>(), 1);
        let expected = 1.0 - 2.0 * (-1.0f64).exp();
        for report in &reports {
            let results = report.results.as_ref().unwrap();
            assert_eq!(results.len(), 1);
            assert!((results[0].value() - expected).abs() < 1e-6);
        }
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn submit_returns_immediately_and_handles_deliver() {
        let service = AnalysisService::new(ServiceOptions {
            workers: 2,
            cache_capacity: 8,
            ..ServiceOptions::default()
        });
        let mut handles: Vec<RequestHandle> = (0..4)
            .map(|i| {
                service.submit_request(request(
                    spare_tree(&format!("subm{i}"), 1.0 + i as f64),
                    vec![Measure::Mttf],
                ))
            })
            .collect();
        assert_eq!(service.pool_workers(), 2);
        // Polling eventually observes the report, and wait() returns the same
        // one afterwards.
        let mut last = handles.pop().unwrap();
        while last.try_result().is_none() {
            thread::yield_now();
        }
        let mttf = match last.try_result() {
            Some(RequestOutcome::Job(report)) => report.results.as_ref().unwrap()[0].value(),
            other => panic!("expected a finished job, got {other:?}"),
        };
        assert!(mttf.is_finite() && mttf > 0.0);
        let report = job(last.wait());
        assert_eq!(report.results.unwrap()[0].value(), mttf);
        for handle in handles {
            assert!(job(handle.wait()).results.is_ok());
        }
        // A handle can observe its report a moment before the worker records
        // the completion; the counter settles immediately after.
        while service.queue_stats().completed != 4 {
            thread::yield_now();
        }
        let queue = service.queue_stats();
        assert_eq!(queue.submitted, 4);
        assert_eq!(queue.pending, 0);
    }

    #[test]
    fn dropping_the_service_drains_pending_sweeps() {
        // A sweep still queued when the service drops is answered by the
        // drain, and its report delivered.
        let service = AnalysisService::new(ServiceOptions {
            workers: 1,
            cache_capacity: 8,
            ..ServiceOptions::default()
        });
        let dft = spare_tree("drain_sweep", 1.0);
        let valuation = ParametricAnalyzer::new(&dft, AnalysisOptions::default())
            .unwrap()
            .params()
            .base_valuation();
        let handle = service.submit_request(sweep(
            dft,
            vec![Measure::Unreliability(1.0)],
            SweepSpec::Valuations(vec![valuation.clone(), valuation]),
        ));
        drop(service);
        let report = swept(handle.wait());
        assert_eq!(report.points.len(), 2);
        for point in &report.points {
            assert!(point.results.is_ok(), "drop must drain sweep points too");
        }
    }

    #[test]
    fn dropping_the_service_drains_outstanding_handles() {
        let service = AnalysisService::new(ServiceOptions {
            workers: 1,
            cache_capacity: 8,
            ..ServiceOptions::default()
        });
        let handles: Vec<RequestHandle> = (0..3)
            .map(|i| {
                service.submit_request(request(
                    spare_tree("drain", 1.0 + 0.5 * i as f64),
                    vec![Measure::Unreliability(1.0)],
                ))
            })
            .collect();
        drop(service);
        for handle in handles {
            assert!(
                job(handle.wait()).results.is_ok(),
                "drop must drain, not abort"
            );
        }
    }

    #[test]
    fn method_and_epsilon_split_the_cache() {
        let service = AnalysisService::new(ServiceOptions::default());
        let dft = spare_tree("svc_key", 1.0);
        let compositional = AnalysisOptions::default();
        let monolithic = AnalysisOptions {
            method: Method::Monolithic,
            ..AnalysisOptions::default()
        };
        let loose = AnalysisOptions {
            epsilon: 1e-6,
            ..AnalysisOptions::default()
        };
        let a = service.analyzer(&dft, &compositional).unwrap();
        let b = service.analyzer(&dft, &monolithic).unwrap();
        let c = service.analyzer(&dft, &loose).unwrap();
        let a2 = service.analyzer(&dft, &compositional).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(service.cache_stats().entries, 3);
        assert_eq!(service.cache_stats().misses, 3);
        assert_eq!(service.cache_stats().hits, 1);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let service = AnalysisService::new(ServiceOptions {
            workers: 1,
            cache_capacity: 2,
            ..ServiceOptions::default()
        });
        let options = AnalysisOptions::default();
        let first = spare_tree("svc_lru_a", 1.0);
        let second = spare_tree("svc_lru_b", 2.0);
        let third = spare_tree("svc_lru_c", 3.0);
        service.analyzer(&first, &options).unwrap();
        service.analyzer(&second, &options).unwrap();
        // Touch `first` so `second` is the least recently used …
        service.analyzer(&first, &options).unwrap();
        // … and inserting `third` evicts `second`.
        service.analyzer(&third, &options).unwrap();
        let stats = service.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(
            stats.parametric_evictions, 0,
            "session evictions must not leak into the parametric counter"
        );
        assert_eq!(stats.misses, 3);
        service.analyzer(&first, &options).unwrap();
        assert_eq!(service.cache_stats().hits, 2, "first survived the eviction");
        service.analyzer(&second, &options).unwrap();
        assert_eq!(service.cache_stats().misses, 4, "second was rebuilt");
    }

    /// An AND over `width` basic events: structurally distinct from
    /// [`spare_tree`] (and from other widths), whatever the names and rates.
    fn and_tree(prefix: &str, width: usize) -> Dft {
        let mut b = DftBuilder::new();
        let events: Vec<dft::ElementId> = (0..width)
            .map(|i| {
                b.basic_event(&format!("{prefix}_{i}"), 1.0, Dormancy::Hot)
                    .unwrap()
            })
            .collect();
        let top = b.and_gate(&format!("{prefix}_Top"), &events).unwrap();
        b.build(top).unwrap()
    }

    #[test]
    fn parametric_evictions_are_counted_separately() {
        // Capacity 1 on both key spaces: sweeping the MTTF of two
        // structurally distinct trees (one valuation each) evicts one
        // parametric model, and the sweeps never touch the session cache.
        let service = AnalysisService::new(ServiceOptions {
            workers: 1,
            cache_capacity: 1,
            ..ServiceOptions::default()
        });
        for width in [2, 3] {
            let dft = and_tree("svc_pe", width);
            let valuation = ParametricAnalyzer::new(&dft, AnalysisOptions::default())
                .unwrap()
                .params()
                .base_valuation();
            let report = swept(service.run_request(sweep(
                dft,
                vec![Measure::Mttf],
                SweepSpec::Valuations(vec![valuation]),
            )));
            assert!(report.points[0].results.is_ok());
        }
        let stats = service.cache_stats();
        assert_eq!(stats.parametric_misses, 2);
        assert_eq!(stats.parametric_entries, 1);
        assert_eq!(
            stats.parametric_evictions, 1,
            "one parametric model evicted"
        );
        assert_eq!((stats.entries, stats.evictions), (0, 0));
    }

    #[test]
    fn scale_specs_match_explicit_scaled_valuations() {
        // A symbolic FailureScales spec, resolved on the pool, must be
        // bit-identical to the explicit path where the caller builds the
        // scaled valuations against the ParamTable itself.
        let service = AnalysisService::new(ServiceOptions {
            workers: 2,
            cache_capacity: 16,
            ..ServiceOptions::default()
        });
        let dft = spare_tree("svc_spec", 1.0);
        let measures = vec![Measure::Unreliability(1.0), Measure::Mttf];
        let scales = vec![0.5, 1.0, 2.0];

        let table = ParametricAnalyzer::new(&dft, AnalysisOptions::default())
            .unwrap()
            .params()
            .clone();
        let explicit = swept(service.run_request(sweep(
            dft.clone(),
            measures.clone(),
            SweepSpec::Valuations(scales.iter().map(|&s| table.scaled_valuation(s)).collect()),
        )));

        let symbolic =
            swept(service.run_request(sweep(dft, measures, SweepSpec::FailureScales(scales))));

        assert_eq!(symbolic.points.len(), explicit.points.len());
        for (a, b) in symbolic.points.iter().zip(&explicit.points) {
            assert_eq!(a.valuation_fingerprint, b.valuation_fingerprint);
            let (a, b) = (a.results.as_ref().unwrap(), b.results.as_ref().unwrap());
            for (ra, rb) in a.iter().zip(b) {
                for (pa, pb) in ra.points().iter().zip(rb.points()) {
                    assert_eq!(pa.value().to_bits(), pb.value().to_bits());
                }
            }
        }
    }

    #[test]
    fn element_specs_resolve_by_name_and_report_unknowns_per_point() {
        let service = AnalysisService::new(ServiceOptions {
            workers: 1,
            cache_capacity: 16,
            ..ServiceOptions::default()
        });
        let measures = vec![Measure::Unreliability(1.0)];

        // Sweeping a real element's failure rate produces distinct,
        // monotonically worsening unreliabilities.
        let report = swept(service.run_request(sweep(
            spare_tree("svc_elem", 1.0),
            measures.clone(),
            SweepSpec::Element {
                element: "svc_elem_P".to_owned(),
                kind: ParamKind::Failure,
                values: vec![0.5, 1.0, 2.0],
            },
        )));
        let values: Vec<f64> = report
            .points
            .iter()
            .map(|p| p.results.as_ref().unwrap()[0].value())
            .collect();
        assert!(values[0] < values[1] && values[1] < values[2]);

        // An unknown element is a per-point InvalidValuation error — the
        // sweep completes, nothing panics, and the handle still delivers.
        let report = swept(service.run_request(sweep(
            spare_tree("svc_elem", 1.0),
            measures,
            SweepSpec::Element {
                element: "no_such_event".to_owned(),
                kind: ParamKind::Failure,
                values: vec![1.0, 2.0],
            },
        )));
        assert_eq!(report.points.len(), 2);
        for point in &report.points {
            assert!(matches!(point.results, Err(Error::InvalidValuation { .. })));
        }
    }

    #[test]
    fn job_errors_are_reported_in_place() {
        // A query error (unavailability on a non-repairable tree) must not
        // abort other jobs: the failing job reports its error, the rest run.
        let service = AnalysisService::new(ServiceOptions {
            workers: 1,
            cache_capacity: 4,
            ..ServiceOptions::default()
        });
        let failing = service.submit_request(request(
            spare_tree("svc_err_a", 1.0),
            vec![Measure::Unavailability],
        ));
        let passing = service.submit_request(request(
            spare_tree("svc_err_b", 2.0),
            vec![Measure::Unreliability(1.0)],
        ));
        assert!(job(failing.wait()).results.is_err(), "not repairable");
        assert!(job(passing.wait()).results.is_ok());
    }

    #[test]
    fn empty_sweep_is_a_clean_no_op() {
        let service = AnalysisService::new(ServiceOptions::default());

        // Empty sweep: no report rows, no cache traffic — in particular the
        // parametric model is *not* built just to answer zero valuations —
        // and no worker thread is ever spawned.
        let mut handle = service.submit_request(sweep(
            spare_tree("svc_empty", 1.0),
            vec![Measure::Unreliability(1.0)],
            SweepSpec::Valuations(Vec::new()),
        ));
        assert!(
            handle.try_result().is_some(),
            "an empty sweep is ready at once"
        );
        let report = swept(handle.wait());
        assert!(report.points.is_empty());
        assert_eq!(report.stats.valuations, 0);
        assert_eq!(report.stats.aggregation_runs, 0);
        assert_eq!(service.cache_stats(), CacheStats::default());
        assert_eq!(service.pool_workers(), 0, "empty sweeps must not spawn");
        assert_eq!(service.queue_stats().submitted, 0);

        // The first real submission starts the pool and still works.
        let handle = service.submit_request(request(
            spare_tree("svc_empty", 1.0),
            vec![Measure::Unreliability(1.0)],
        ));
        assert!(service.pool_workers() > 0);
        assert!(job(handle.wait()).results.is_ok());
    }
}
