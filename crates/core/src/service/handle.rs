//! The completion handle for submitted requests, and the shared state a
//! sweep's tasks coordinate through.
//!
//! [`AnalysisService::submit_request`](super::AnalysisService::submit_request)
//! enqueues and returns immediately; the caller keeps a [`RequestHandle`]
//! whose [`wait`](RequestHandle::wait) blocks on an [`mpsc`] channel until the
//! pool delivers the outcome (or [`try_result`](RequestHandle::try_result)
//! polls without blocking).  Handles are independent of the service's
//! lifetime: dropping the service drains the queue first, so every
//! outstanding handle still receives its outcome.

use super::{RequestOutcome, ServiceCore, SweepPointReport, SweepReport, SweepStats};
use crate::analysis::AnalysisOptions;
use crate::engine::ParametricAnalyzer;
use crate::parametric::Valuation;
use crate::query::Measure;
use crate::request::SweepSpec;
use crate::{Error, Result};
use dft::Dft;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The completion handle of one submitted
/// [`AnalysisRequest`](crate::request::AnalysisRequest).
///
/// Returned by
/// [`AnalysisService::submit_request`](super::AnalysisService::submit_request);
/// the request runs on the service's persistent worker pool while the
/// submitting thread is free to keep submitting (or do anything else).  The
/// outcome arrives exactly once; a `try_result` that observed it keeps it, so
/// a later [`wait`](Self::wait) still returns it.
#[derive(Debug)]
pub struct RequestHandle {
    rx: mpsc::Receiver<RequestOutcome>,
    received: Option<RequestOutcome>,
}

impl RequestHandle {
    pub(super) fn new(rx: mpsc::Receiver<RequestOutcome>) -> RequestHandle {
        RequestHandle { rx, received: None }
    }

    /// A handle whose outcome is already available (no queued work behind
    /// it): the empty sweep.
    pub(super) fn ready(outcome: RequestOutcome) -> RequestHandle {
        let (tx, rx) = mpsc::channel();
        drop(tx);
        RequestHandle {
            rx,
            received: Some(outcome),
        }
    }

    /// Blocks until the request has run and returns its outcome.
    ///
    /// # Panics
    ///
    /// Panics if a worker executing the request panicked (the outcome channel
    /// is closed without an outcome — the pool itself never drops work).
    pub fn wait(mut self) -> RequestOutcome {
        match self.received.take() {
            Some(outcome) => outcome,
            None => self
                .rx
                .recv()
                .expect("the worker pool delivers every report before shutting down"),
        }
    }

    /// Returns the outcome if the request has already finished, without
    /// blocking.  An outcome observed here is kept, so a later
    /// [`wait`](Self::wait) (or repeated `try_result` calls) still return it.
    ///
    /// # Panics
    ///
    /// Panics if a worker executing the request panicked (same condition as
    /// [`wait`](Self::wait)) — a dead request must not look like "not ready
    /// yet" to a poller.
    pub fn try_result(&mut self) -> Option<&RequestOutcome> {
        if self.received.is_none() {
            match self.rx.try_recv() {
                Ok(outcome) => self.received = Some(outcome),
                Err(mpsc::TryRecvError::Empty) => {}
                Err(mpsc::TryRecvError::Disconnected) => {
                    panic!("the worker pool delivers every report before shutting down")
                }
            }
        }
        self.received.as_ref()
    }
}

/// The outcome of a sweep's head task: the shared parametric model (or its
/// deterministic error), whether it came out of the cache, and what the build
/// cost.
#[derive(Debug)]
struct ParametricOutcome {
    model: Result<Arc<ParametricAnalyzer>>,
    cache_hit: bool,
    build_time: Duration,
}

/// The state one sweep's tasks share: the head task stores the parametric
/// model and the valuations resolved from the [`SweepSpec`], every point task
/// fills its slot, and the *last* point to finish assembles the
/// [`SweepReport`] and sends it to the handle.
#[derive(Debug)]
pub(super) struct SweepState {
    dft: Dft,
    options: AnalysisOptions,
    measures: Vec<Measure>,
    spec: SweepSpec,
    structural: u64,
    /// Pool size at submission, reported in [`SweepStats::workers`].
    workers: usize,
    /// Submission time; the report's wall clock covers queueing too.
    started: Instant,
    parametric: OnceLock<ParametricOutcome>,
    /// The spec's concrete valuations, resolved by the head task (the
    /// symbolic forms need the built model's
    /// [`ParamTable`](crate::parametric::ParamTable)).  A resolution error
    /// lands in every point's report instead of aborting the sweep.
    resolved: OnceLock<Result<Vec<Valuation>>>,
    slots: Mutex<Vec<Option<SweepPointReport>>>,
    remaining: AtomicUsize,
    /// `Sender` is `Send` but not `Sync`; only the final point task ever uses
    /// it, so a mutex costs nothing.
    tx: Mutex<mpsc::Sender<RequestOutcome>>,
}

impl SweepState {
    pub(super) fn new(
        dft: Dft,
        options: AnalysisOptions,
        measures: Vec<Measure>,
        spec: SweepSpec,
        workers: usize,
        tx: mpsc::Sender<RequestOutcome>,
    ) -> SweepState {
        let structural = dft.structural_fingerprint();
        let points = spec.len();
        SweepState {
            dft,
            options,
            measures,
            spec,
            structural,
            workers,
            started: Instant::now(),
            parametric: OnceLock::new(),
            resolved: OnceLock::new(),
            slots: Mutex::new(vec![None; points]),
            remaining: AtomicUsize::new(points),
            tx: Mutex::new(tx),
        }
    }

    /// Number of sweep points (= point tasks to expand); fixed by the spec at
    /// submission time, before the model exists.
    pub(super) fn points(&self) -> usize {
        self.spec.len()
    }

    /// The head task: get-or-build the shared parametric model, then resolve
    /// the spec into concrete valuations against its parameter table.
    pub(super) fn build(&self, core: &ServiceCore) {
        let build_start = Instant::now();
        let (model, cache_hit) = core.parametric(self.structural, &self.dft, &self.options);
        let resolved = match &model {
            Ok(model) => self.spec.resolve(model.params()),
            // The model failed to build: every point will report the build
            // error, so the valuations are moot.  Table-free specs still
            // resolve (keeping the classic per-point fingerprints); symbolic
            // ones resolve to nothing and the points fall back to the build
            // error below.
            Err(_) => match &self.spec {
                SweepSpec::Valuations(valuations) => Ok(valuations.clone()),
                _ => Ok(Vec::new()),
            },
        };
        self.resolved
            .set(resolved)
            .expect("the sweep head task runs exactly once");
        let outcome = ParametricOutcome {
            model,
            cache_hit,
            build_time: build_start.elapsed(),
        };
        self.parametric
            .set(outcome)
            .expect("the sweep head task runs exactly once");
    }

    /// One point task: instantiate-or-fetch the valuation's session, answer
    /// the measures, and — when this was the last outstanding point —
    /// assemble and deliver the report.
    pub(super) fn run_point(&self, core: &ServiceCore, index: usize) {
        let outcome = self
            .parametric
            .get()
            .expect("the sweep head task expands the points only after building");
        let resolved = self
            .resolved
            .get()
            .expect("the sweep head task resolves the spec before any point runs");
        let report = match resolved {
            Err(e) => SweepPointReport {
                valuation_fingerprint: 0,
                cache_hit: false,
                results: Err(e.clone()),
                instantiate: Duration::ZERO,
                query: Duration::ZERO,
            },
            Ok(valuations) => match valuations.get(index) {
                Some(valuation) => core.run_sweep_point(
                    &outcome.model,
                    self.structural,
                    &self.options,
                    &self.measures,
                    valuation,
                ),
                // A symbolic spec with a failed model build resolved to no
                // valuations; surface the build error per point.
                None => SweepPointReport {
                    valuation_fingerprint: 0,
                    cache_hit: false,
                    results: Err(match &outcome.model {
                        Err(e) => e.clone(),
                        Ok(_) => Error::InvalidValuation {
                            message: "sweep point has no valuation".to_owned(),
                        },
                    }),
                    instantiate: Duration::ZERO,
                    query: Duration::ZERO,
                },
            },
        };
        self.slots.lock().expect("sweep slots")[index] = Some(report);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.finish(outcome);
        }
    }

    fn finish(&self, outcome: &ParametricOutcome) {
        let points: Vec<SweepPointReport> = self
            .slots
            .lock()
            .expect("sweep slots")
            .iter_mut()
            .map(|slot| slot.take().expect("every point task filled its slot"))
            .collect();
        let mut stats = SweepStats {
            valuations: points.len(),
            parametric_cache_hit: outcome.cache_hit,
            // A parametric model freshly *loaded from the persistent store*
            // is an in-memory cache miss that still ran zero aggregations —
            // ask the model itself instead of inferring from the hit flag.
            aggregation_runs: match &outcome.model {
                Ok(model) if !outcome.cache_hit => model.aggregation_runs(),
                _ => 0,
            },
            workers: self.workers,
            build_time: outcome.build_time,
            wall_time: self.started.elapsed(),
            ..SweepStats::default()
        };
        for point in &points {
            if point.cache_hit {
                stats.cache_hits += 1;
            } else {
                stats.cache_misses += 1;
            }
            stats.instantiate_time += point.instantiate;
            stats.query_time += point.query;
        }
        // The handle may have been dropped (fire-and-forget submission);
        // delivery failure is not an error.
        let _ = self
            .tx
            .lock()
            .expect("sweep sender")
            .send(RequestOutcome::Sweep(SweepReport { points, stats }));
    }
}
