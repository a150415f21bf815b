//! The completion handle for submitted requests.
//!
//! [`AnalysisService::submit_request`](super::AnalysisService::submit_request)
//! enqueues and returns immediately; the caller keeps a [`RequestHandle`]
//! whose [`wait`](RequestHandle::wait) blocks on an [`mpsc`] channel until the
//! pool delivers the outcome (or [`try_result`](RequestHandle::try_result)
//! polls without blocking).  Handles are independent of the service's
//! lifetime: dropping the service drains the queue first, so every
//! outstanding handle still receives its outcome.

use super::RequestOutcome;
use std::sync::mpsc;

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
