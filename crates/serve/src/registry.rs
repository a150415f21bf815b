//! The id-keyed job registry: the bridge between stateless HTTP exchanges
//! and the service's in-flight handles.
//!
//! `POST /submit` returns immediately with an id; the handle lives here until
//! a later `GET /status/{id}` or `GET /result/{id}` harvests its report.
//! The registry is the server's backpressure valve: submissions beyond
//! [`Registry::new`]'s `max_pending` are refused (the router turns that into
//! `429`), so a flood of clients saturates the queue to a known depth instead
//! of growing it without bound.  Completed reports are retained up to
//! `max_done` entries (oldest evicted first) so results can be fetched more
//! than once but an unfetched backlog cannot leak memory.
//!
//! A worker panic must not take the HTTP thread with it: harvesting goes
//! through `catch_unwind`, and a job whose channel died becomes a `Failed`
//! entry (rendered as `500` by the router) instead of a propagated panic.

use crate::metrics::{add_time, bump, JobCounters};
use dft_core::service::{RequestHandle, RequestOutcome};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// One registry slot.
#[derive(Debug)]
enum Entry {
    Pending(RequestHandle),
    Done(Box<RequestOutcome>),
    /// The worker executing the job panicked; the report never arrived.
    Failed,
}

/// What a lookup found; reports are cloned out so the registry keeps serving
/// repeated `GET /result` calls until the entry is evicted.
#[derive(Debug)]
pub enum Lookup {
    /// The id was never issued (or its entry has been evicted).
    Unknown,
    /// Submitted, not finished yet.
    Pending,
    /// A finished job or sweep.
    Done(Box<RequestOutcome>),
    /// The job died with a worker panic.
    Failed,
}

#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    entries: HashMap<u64, Entry>,
    /// Completed ids in completion order, for `max_done` eviction.
    done_order: VecDeque<u64>,
    pending: usize,
}

/// The id-keyed job registry; see the [module docs](self).
#[derive(Debug)]
pub struct Registry {
    max_pending: usize,
    max_done: usize,
    counters: JobCounters,
    inner: Mutex<Inner>,
}

impl Registry {
    /// A registry admitting at most `max_pending` unfinished jobs and
    /// retaining at most `max_done` completed reports.
    pub fn new(max_pending: usize, max_done: usize) -> Registry {
        Registry {
            max_pending,
            max_done,
            counters: JobCounters::default(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The job-layer counters (for `/metrics`).
    pub fn counters(&self) -> &JobCounters {
        &self.counters
    }

    /// Number of submitted-but-unharvested jobs.
    pub fn pending(&self) -> usize {
        self.inner.lock().expect("registry lock").pending
    }

    /// Registers a submitted request; `None` means the registry is full
    /// (429).
    pub fn add(&self, handle: RequestHandle) -> Option<u64> {
        let mut inner = self.inner.lock().expect("registry lock");
        if inner.pending >= self.max_pending {
            return None;
        }
        inner.next_id += 1;
        let id = inner.next_id;
        inner.entries.insert(id, Entry::Pending(handle));
        inner.pending += 1;
        drop(inner);
        bump(&self.counters.submitted);
        Some(id)
    }

    /// Looks `id` up, harvesting its report first if the job has finished in
    /// the meantime.
    pub fn lookup(&self, id: u64) -> Lookup {
        let mut inner = self.inner.lock().expect("registry lock");
        self.harvest(&mut inner, id);
        match inner.entries.get(&id) {
            None => Lookup::Unknown,
            Some(Entry::Pending(_)) => Lookup::Pending,
            Some(Entry::Done(outcome)) => Lookup::Done(outcome.clone()),
            Some(Entry::Failed) => Lookup::Failed,
        }
    }

    /// Polls a pending entry without blocking and, if its report arrived,
    /// replaces it with the done form.
    fn harvest(&self, inner: &mut Inner, id: u64) {
        let Some(Entry::Pending(handle)) = inner.entries.get_mut(&id) else {
            return;
        };
        // try_result panics when the worker died; contain that to the entry
        // (AssertUnwindSafe: on unwind the whole entry is replaced below, so
        // no partially-updated handle survives).
        let outcome = match catch_unwind(AssertUnwindSafe(|| handle.try_result().cloned())) {
            Ok(None) => return,
            Ok(Some(outcome)) => Some(outcome),
            Err(_) => None,
        };
        self.finish(inner, id, outcome);
    }

    /// Stores a finished entry (`None` when its worker panicked), updates the
    /// counters and applies the `max_done` retention cap.
    fn finish(&self, inner: &mut Inner, id: u64, outcome: Option<RequestOutcome>) {
        let entry = match outcome {
            Some(outcome) => {
                self.account(&outcome);
                Entry::Done(Box::new(outcome))
            }
            None => {
                bump(&self.counters.failed);
                Entry::Failed
            }
        };
        inner.entries.insert(id, entry);
        inner.pending -= 1;
        inner.done_order.push_back(id);
        while inner.done_order.len() > self.max_done {
            if let Some(evicted) = inner.done_order.pop_front() {
                inner.entries.remove(&evicted);
            }
        }
    }

    fn account(&self, outcome: &RequestOutcome) {
        let (build, query, aggregation_runs) = match outcome {
            RequestOutcome::Job(report) => (report.build, report.query, report.aggregation_runs),
            RequestOutcome::Sweep(report) => (
                report.stats.build_time,
                report.stats.instantiate_time + report.stats.query_time,
                report.stats.aggregation_runs,
            ),
        };
        bump(&self.counters.completed);
        add_time(&self.counters.build_nanos, build);
        add_time(&self.counters.query_nanos, query);
        self.counters.aggregation_runs.fetch_add(
            u64::try_from(aggregation_runs).unwrap_or(u64::MAX),
            std::sync::atomic::Ordering::Relaxed,
        );
    }

    /// Blocks until every pending job has delivered its report (the graceful
    /// shutdown path: accepted work completes — and, with a store configured,
    /// persists — before the process exits).  Returns how many were drained.
    ///
    /// The handles are moved out of the lock first, so jobs finishing during
    /// the drain never contend with a held registry lock.
    pub fn drain(&self) -> usize {
        let pending: Vec<(u64, RequestHandle)> = {
            let mut inner = self.inner.lock().expect("registry lock");
            let mut ids: Vec<u64> = inner
                .entries
                .iter()
                .filter(|(_, e)| matches!(e, Entry::Pending(_)))
                .map(|(id, _)| *id)
                .collect();
            // Ids are issued in submission order; draining in that order keeps
            // the done-eviction FIFO deterministic (the map iterates randomly).
            ids.sort_unstable();
            ids.into_iter()
                .filter_map(|id| match inner.entries.remove(&id) {
                    Some(Entry::Pending(handle)) => Some((id, handle)),
                    _ => None,
                })
                .collect()
        };
        let drained = pending.len();
        for (id, handle) in pending {
            let outcome = catch_unwind(AssertUnwindSafe(|| handle.wait())).ok();
            let mut inner = self.inner.lock().expect("registry lock");
            self.finish(&mut inner, id, outcome);
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft::{DftBuilder, Dormancy};
    use dft_core::service::{AnalysisService, ServiceOptions};
    use dft_core::{AnalysisRequest, Measure};

    fn tree(rate: f64) -> dft::Dft {
        let mut b = DftBuilder::new();
        let p = b.basic_event("P", rate, Dormancy::Hot).unwrap();
        let s = b.basic_event("S", rate, Dormancy::Cold).unwrap();
        let top = b.spare_gate("Top", &[p, s]).unwrap();
        b.build(top).unwrap()
    }

    fn submit(service: &AnalysisService) -> RequestHandle {
        service.submit_request(AnalysisRequest {
            measures: vec![Measure::Mttf],
            ..AnalysisRequest::new(tree(1.0))
        })
    }

    #[test]
    fn ids_are_sequential_and_capped_by_max_pending() {
        let service = AnalysisService::new(ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        });
        let registry = Registry::new(2, 8);
        assert_eq!(registry.add(submit(&service)), Some(1));
        assert_eq!(registry.add(submit(&service)), Some(2));
        // Full: the third submission is refused until one completes.
        assert!(registry.add(submit(&service)).is_none());
        assert_eq!(registry.pending(), 2);

        registry.drain();
        assert_eq!(registry.pending(), 0);
        assert!(matches!(registry.lookup(1), Lookup::Done(_)));
        assert!(matches!(registry.lookup(2), Lookup::Done(_)));
        assert!(matches!(registry.lookup(99), Lookup::Unknown));
        assert_eq!(registry.add(submit(&service)), Some(3));
        registry.drain();
    }

    #[test]
    fn done_entries_are_evicted_oldest_first() {
        let service = AnalysisService::new(ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        });
        let registry = Registry::new(8, 2);
        let ids: Vec<u64> = (0..3)
            .map(|_| registry.add(submit(&service)).unwrap())
            .collect();
        registry.drain();
        assert!(matches!(registry.lookup(ids[0]), Lookup::Unknown));
        assert!(matches!(registry.lookup(ids[1]), Lookup::Done(_)));
        assert!(matches!(registry.lookup(ids[2]), Lookup::Done(_)));
    }

    #[test]
    fn lookups_harvest_and_reports_survive_repeated_fetches() {
        let service = AnalysisService::new(ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        });
        let registry = Registry::new(8, 8);
        let id = registry.add(submit(&service)).unwrap();
        // Poll until the harvest observes the report.
        loop {
            match registry.lookup(id) {
                Lookup::Pending => std::thread::yield_now(),
                Lookup::Done(outcome) => {
                    let RequestOutcome::Job(report) = *outcome else {
                        panic!("a request without a sweep is a job");
                    };
                    assert!(report.results.is_ok());
                    break;
                }
                other => panic!("unexpected lookup: {other:?}"),
            }
        }
        assert!(matches!(registry.lookup(id), Lookup::Done(_)));
        assert_eq!(registry.pending(), 0);
        assert_eq!(
            registry
                .counters()
                .completed
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }
}
