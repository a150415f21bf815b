//! The worker loop of the persistent pool.
//!
//! Each worker thread runs [`run`] until the queue shuts down and drains:
//! claim a task (blocking on the queue's condvar — never polling), execute it,
//! report completion so parked followers are released, repeat.

use super::queue::{JobQueue, Task};
use super::{CacheKey, RequestOutcome, ServiceCore};

/// Reports a claim's completion on drop, so a task that *panics* still
/// releases its leadership — otherwise the key would stay in the queue's
/// `building` set forever and its parked followers (plus every worker waiting
/// on them, plus the service's `Drop`) would deadlock.
struct CompleteOnDrop<'a> {
    queue: &'a JobQueue,
    leader_of: Option<CacheKey>,
}

impl Drop for CompleteOnDrop<'_> {
    fn drop(&mut self) {
        self.queue.complete(self.leader_of);
    }
}

/// The body of one worker thread.
///
/// A panicking task must not kill the thread: the pool would silently shrink
/// (and with it gone entirely, later submissions would hang forever).  The
/// panic is contained to the task — its report channel drops unsent, so the
/// task's own handle panics in `wait`/`try_result` exactly as documented —
/// and the worker lives on to serve the next claim.  `AssertUnwindSafe` is
/// justified because every structure the task touches is either task-local
/// (consumed by the unwind) or lock-protected (a panic while holding a lock
/// poisons it, which surfaces as an explicit error rather than silent
/// corruption).
pub(super) fn run(core: &ServiceCore) {
    while let Some(claim) = core.queue.claim(|key| core.is_built(key)) {
        let _complete = CompleteOnDrop {
            queue: &core.queue,
            leader_of: claim.leader_of,
        };
        let task = claim.task;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(core, task)));
    }
}

/// Executes one claimed task.
fn execute(core: &ServiceCore, task: Task) {
    let (outcome, tx) = match task {
        Task::Job { request, key, tx } => (RequestOutcome::Job(core.run_job(key, &request)), tx),
        Task::Sweep {
            request,
            spec,
            submitted,
            tx,
        } => (
            RequestOutcome::Sweep(core.run_sweep(&request, &spec, submitted)),
            tx,
        ),
    };
    // The handle may have been dropped (fire-and-forget submission); the
    // request still ran and warmed the cache, so a closed channel is not an
    // error.
    let _ = tx.send(outcome);
}
