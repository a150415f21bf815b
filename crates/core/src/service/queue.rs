//! The persistent job queue the worker pool drains.
//!
//! One long-lived [`JobQueue`] connects any number of submitting threads to the
//! pool: [`push`](JobQueue::push) enqueues under the mutex and signals the
//! condvar, [`claim`](JobQueue::claim) blocks — **timeout-free** — until a task
//! is claimable or shutdown drains the queue empty.  Every transition that can
//! make work available (a submission, a leader releasing its parked followers,
//! shutdown) happens under the same lock and notifies the condvar, so no wakeup
//! can be lost and no worker ever has to poll.  This replaces the scoped
//! per-batch pool whose idle loop papered over exactly that race with a 1 ms
//! `wait_timeout` busy-poll.
//!
//! # Cache-aware leader/follower scheduling
//!
//! Tasks for the same [`CacheKey`] must not race: the second worker would block
//! inside the cache's `OnceLock` for the whole build
//! ([`JobReport::build_wait`](super::JobReport::build_wait)).  The queue
//! schedules duplicates as leader and followers:
//!
//! * the first claimant of a key whose session is not built yet becomes the
//!   **leader** — the key enters the `building` set and the worker builds (and
//!   queries) alone;
//! * tasks for a key in `building` are **parked** per key instead of claimed;
//! * when the leader completes, its parked followers are *released* to the
//!   front of the ready queue — they are warm cache hits now and any number of
//!   workers may serve them in parallel;
//! * tasks for a key whose session is already built skip the protocol entirely.

use super::{CacheKey, RequestOutcome};
use crate::request::{AnalysisRequest, SweepSpec};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// One unit of queued work.
#[derive(Debug)]
pub(super) enum Task {
    /// A request without a sweep: build-or-fetch the session, answer the
    /// measures, send the report to the submitting handle.
    Job {
        /// The request to run (its `sweep` is `None`), boxed so queued tasks
        /// stay uniformly small (a request carries a whole `Dft`).
        request: Box<AnalysisRequest>,
        /// The request's cache key, computed once at submission.
        key: CacheKey,
        /// Delivers the [`RequestOutcome::Job`] to the request's handle.
        tx: Sender<RequestOutcome>,
    },
    /// A whole sweep request: get-or-build the parametric model, resolve the
    /// spec, answer every valuation, send the report to the submitting
    /// handle.
    Sweep {
        /// The request to run (its `sweep` already taken into `spec`).
        request: Box<AnalysisRequest>,
        /// The request's sweep.
        spec: SweepSpec,
        /// Submission time; the report's wall clock covers queueing too.
        submitted: Instant,
        /// Delivers the [`RequestOutcome::Sweep`] to the request's handle.
        tx: Sender<RequestOutcome>,
    },
}

/// A claimed task plus the leadership it carries: `leader_of` is `Some(key)`
/// when this worker owns the in-flight build of `key` and must report back via
/// [`JobQueue::complete`] so parked followers are released.
#[derive(Debug)]
pub(super) struct Claim {
    pub(super) task: Task,
    pub(super) leader_of: Option<CacheKey>,
}

/// Cumulative counters of the service's job queue.
///
/// `parked`/`released` make the leader/follower protocol observable: a
/// duplicate job that arrives while its model is in flight is parked exactly
/// once and released exactly once, instead of blocking a worker on the build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Tasks ever enqueued: one per submitted request, whether job or sweep
    /// (an empty sweep enqueues nothing).
    pub submitted: u64,
    /// Tasks that finished executing.
    pub completed: u64,
    /// Tasks currently queued, parked or executing.
    pub pending: usize,
    /// Tasks ever parked behind an in-flight build of their model.
    pub parked: u64,
    /// Parked tasks re-released after their leader finished.
    pub released: u64,
}

#[derive(Debug, Default)]
struct QueueState {
    /// Tasks any worker may claim, FIFO.
    ready: VecDeque<Task>,
    /// Keys whose session is being built by a leader right now.
    building: HashSet<CacheKey>,
    /// Followers parked per in-flight key, released when the leader completes.
    parked: HashMap<CacheKey, Vec<Task>>,
    /// Number of tasks currently parked (the map's total payload).
    parked_count: usize,
    /// Tasks submitted but not yet completed — tracked under this lock, so the
    /// shutdown drain and the idle predicate never race a submission.
    pending: usize,
    /// Set once by the service's `Drop`; workers drain and exit.
    shutdown: bool,
    submitted: u64,
    completed: u64,
    parked_total: u64,
    released_total: u64,
}

/// The Mutex+Condvar work queue shared by all workers of a service.
#[derive(Debug, Default)]
pub(super) struct JobQueue {
    state: Mutex<QueueState>,
    /// Signalled on every submission, release and shutdown — always under the
    /// state lock, so a worker that observed "nothing claimable" and went to
    /// sleep cannot miss the wakeup.
    ready: Condvar,
}

impl JobQueue {
    /// Takes the queue lock, after debug builds have checked the service's
    /// lock order (see `ServiceCore::with_cache`).
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        #[cfg(debug_assertions)]
        super::assert_lock_order("the queue lock");
        self.state.lock().expect("queue lock")
    }

    /// Enqueues one task and wakes a worker.
    pub(super) fn push(&self, task: Task) {
        let mut state = self.lock();
        debug_assert!(!state.shutdown, "no submissions after shutdown");
        state.ready.push_back(task);
        state.pending += 1;
        state.submitted += 1;
        self.ready.notify_one();
    }

    /// Blocks until a task is claimable and returns it, or `None` when the
    /// queue has shut down and drained.
    ///
    /// `is_built` reports whether the session for a key is already available in
    /// the service cache (claiming a built key needs no leader).  The waits are
    /// plain [`Condvar::wait`] — no timeout, no polling: every state change
    /// that could unblock this worker notifies the condvar under the lock.
    pub(super) fn claim(&self, is_built: impl Fn(&CacheKey) -> bool) -> Option<Claim> {
        let mut state = self.lock();
        loop {
            while let Some(task) = state.ready.pop_front() {
                let key = match &task {
                    Task::Job { key, .. } => *key,
                    // A sweep shares its parametric model through the cache
                    // slot alone: claim directly.
                    Task::Sweep { .. } => {
                        return Some(Claim {
                            task,
                            leader_of: None,
                        })
                    }
                };
                if state.building.contains(&key) {
                    // A leader is building this model right now: parking the
                    // duplicate keeps this worker free for other groups, where
                    // claiming it would leave the worker blocking inside the
                    // cache slot's `OnceLock` for the whole build.
                    state.parked_count += 1;
                    state.parked_total += 1;
                    state.parked.entry(key).or_default().push(task);
                    continue;
                }
                if !is_built(&key) {
                    state.building.insert(key);
                    return Some(Claim {
                        task,
                        leader_of: Some(key),
                    });
                }
                return Some(Claim {
                    task,
                    leader_of: None,
                });
            }
            // Nothing claimable.  Parked tasks are owed a release notification
            // by their (still running) leader, so only an empty park means the
            // drain is complete.  Tasks still *executing* on other workers add
            // no new work except through `complete` (which notifies).
            if state.shutdown && state.parked_count == 0 {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock");
        }
    }

    /// Marks a claimed task as finished.  A leader's completion releases its
    /// parked followers to the *front* of the ready queue (they are warm cache
    /// hits) and wakes every worker.
    pub(super) fn complete(&self, leader_of: Option<CacheKey>) {
        let mut state = self.lock();
        state.pending -= 1;
        state.completed += 1;
        if let Some(key) = leader_of {
            state.building.remove(&key);
            if let Some(tasks) = state.parked.remove(&key) {
                state.parked_count -= tasks.len();
                state.released_total += tasks.len() as u64;
                for task in tasks.into_iter().rev() {
                    state.ready.push_front(task);
                }
            }
        }
        self.ready.notify_all();
    }

    /// Initiates shutdown: workers drain the remaining work and exit.
    pub(super) fn begin_shutdown(&self) {
        let mut state = self.lock();
        state.shutdown = true;
        self.ready.notify_all();
    }

    /// Snapshot of the cumulative queue counters.
    pub(super) fn stats(&self) -> QueueStats {
        let state = self.lock();
        QueueStats {
            submitted: state.submitted,
            completed: state.completed,
            pending: state.pending,
            parked: state.parked_total,
            released: state.released_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Method;
    use std::sync::{mpsc, Arc};
    use std::thread;

    fn tiny_dft() -> dft::Dft {
        dft::galileo::parse(concat!(
            "toplevel \"T\";\n",
            "\"T\" and \"A\" \"B\";\n",
            "\"A\" lambda=1.0;\n",
            "\"B\" lambda=1.0;\n",
        ))
        .expect("the fixture tree is valid")
    }

    /// A job task whose cache key carries the given fingerprint; the paired
    /// receiver keeps the report channel alive for the test's duration.
    fn job(fingerprint: u64) -> (Task, CacheKey, mpsc::Receiver<RequestOutcome>) {
        let key = CacheKey {
            fingerprint,
            method: Method::Compositional,
            epsilon_bits: 0,
        };
        let (tx, rx) = mpsc::channel();
        let task = Task::Job {
            request: Box::new(AnalysisRequest::new(tiny_dft())),
            key,
            tx,
        };
        (task, key, rx)
    }

    fn key_of(claim: &Claim) -> u64 {
        match &claim.task {
            Task::Job { key, .. } => key.fingerprint,
            other => panic!("expected a job task, got {other:?}"),
        }
    }

    #[test]
    fn claims_in_fifo_order_when_sessions_are_built() {
        let queue = JobQueue::default();
        let mut rxs = Vec::new();
        for fp in 0..3 {
            let (task, _, rx) = job(fp);
            queue.push(task);
            rxs.push(rx);
        }
        for fp in 0..3 {
            let claim = queue.claim(|_| true).expect("queue holds a task");
            assert_eq!(key_of(&claim), fp);
            assert_eq!(claim.leader_of, None, "built keys need no leader");
            queue.complete(claim.leader_of);
        }
        let stats = queue.stats();
        assert_eq!((stats.submitted, stats.completed), (3, 3));
        assert_eq!((stats.pending, stats.parked, stats.released), (0, 0, 0));
    }

    #[test]
    fn first_claim_of_an_unbuilt_key_becomes_leader() {
        let queue = JobQueue::default();
        let (task, key, _rx) = job(7);
        queue.push(task);
        let claim = queue.claim(|_| false).expect("queue holds a task");
        assert_eq!(claim.leader_of, Some(key));
        queue.complete(claim.leader_of);
    }

    #[test]
    fn duplicate_keys_park_behind_the_leader_and_release_to_the_front() {
        let queue = JobQueue::default();
        let (first, key, _rx1) = job(1);
        let (duplicate, _, _rx2) = job(1);
        let (other, other_key, _rx3) = job(2);
        queue.push(first);
        queue.push(duplicate);
        queue.push(other);

        let leader = queue.claim(|_| false).expect("first task");
        assert_eq!(leader.leader_of, Some(key));

        // The duplicate is skipped (parked) and the next claim jumps to the
        // unrelated key, keeping this worker busy during the build.
        let unrelated = queue.claim(|_| false).expect("second claimable task");
        assert_eq!(unrelated.leader_of, Some(other_key));
        assert_eq!(queue.stats().parked, 1);

        // The leader finishing releases the parked follower to the front; it
        // is a warm hit now, so no new leadership is taken.
        queue.complete(leader.leader_of);
        let follower = queue.claim(|k| *k == key).expect("released follower");
        assert_eq!(key_of(&follower), 1);
        assert_eq!(follower.leader_of, None);
        queue.complete(follower.leader_of);
        queue.complete(unrelated.leader_of);

        let stats = queue.stats();
        assert_eq!((stats.parked, stats.released), (1, 1));
        assert_eq!((stats.pending, stats.completed), (0, 3));
    }

    #[test]
    fn shutdown_drains_remaining_work_then_returns_none() {
        let queue = JobQueue::default();
        let (task, _, _rx) = job(1);
        queue.push(task);
        queue.begin_shutdown();
        let claim = queue.claim(|_| true).expect("shutdown still drains");
        queue.complete(claim.leader_of);
        assert!(queue.claim(|_| true).is_none());
        assert!(queue.claim(|_| true).is_none(), "drained stays drained");
    }

    /// Multi-threaded drain: several workers block in `claim`, the submitter
    /// pushes a batch and shuts down, and every task is completed exactly once.
    /// Bounded counts keep this runnable under Miri.
    #[test]
    fn workers_drain_a_batch_without_polling() {
        const WORKERS: usize = 3;
        const JOBS: u64 = 12;
        let queue = Arc::new(JobQueue::default());
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut served = 0u64;
                    while let Some(claim) = queue.claim(|_| true) {
                        served += 1;
                        queue.complete(claim.leader_of);
                    }
                    served
                })
            })
            .collect();

        let mut rxs = Vec::new();
        for fp in 0..JOBS {
            let (task, _, rx) = job(fp);
            queue.push(task);
            rxs.push(rx);
        }
        queue.begin_shutdown();

        let served: u64 = workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .sum();
        assert_eq!(served, JOBS);
        let stats = queue.stats();
        assert_eq!((stats.submitted, stats.completed), (JOBS, JOBS));
        assert_eq!(stats.pending, 0);
    }
}
