//! # dft-core — compositional DFT analysis via I/O-IMCs
//!
//! This crate implements the central contribution of Boudali, Crouzen & Stoelinga,
//! *"Dynamic Fault Tree analysis using Input/Output Interactive Markov Chains"*
//! (DSN 2007):
//!
//! 1. a **compositional semantics** mapping every DFT element (basic events, static
//!    gates, PAND, spare and FDEP gates, plus the auxiliaries for activation,
//!    functional dependence and inhibition) to a small elementary I/O-IMC
//!    ([`semantics`], [`convert`]);
//! 2. the **compositional aggregation** algorithm of Section 5: repeatedly compose
//!    two members of the I/O-IMC community, hide the signals nobody listens to any
//!    more, and minimise modulo weak bisimulation ([`aggregate`]);
//! 3. the **analysis** of the resulting CTMC/CTMDP: unreliability (time-bounded
//!    reachability of the top-level failure), CTMDP bounds when non-determinism
//!    remains, and unavailability for repairable models ([`engine`]);
//! 4. the **DIFTree-style monolithic baseline** the paper compares against: one
//!    CTMC generated over the whole tree at once ([`baseline`]);
//! 5. the paper's two case studies, ready to analyse ([`casestudies`]).
//!
//! # Quick start
//!
//! ```
//! use dft::{DftBuilder, Dormancy};
//! use dft_core::{AnalysisOptions, Analyzer};
//!
//! # fn main() -> Result<(), dft_core::Error> {
//! // A primary with a cold spare, sharing nothing.
//! let mut b = DftBuilder::new();
//! let p = b.basic_event("P", 1.0, Dormancy::Hot)?;
//! let s = b.basic_event("S", 1.0, Dormancy::Cold)?;
//! let top = b.spare_gate("Top", &[p, s])?;
//! let dft = b.build(top)?;
//!
//! let analyzer = Analyzer::new(&dft, AnalysisOptions::default())?;
//! let result = analyzer.unreliability(1.0)?;
//! // Time to failure is Erlang(2, 1): P(T <= 1) = 1 - 2·exp(-1).
//! let exact = 1.0 - 2.0 * (-1.0f64).exp();
//! assert!((result.value() - exact).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod aggregate;
pub mod analysis;
pub mod baseline;
pub mod casestudies;
pub mod convert;
pub mod engine;
pub mod parametric;
pub mod query;
pub mod request;
pub mod rng;
pub mod semantics;
pub mod service;
pub mod signals;
pub mod simulate;
pub mod store;

pub use analysis::{AnalysisOptions, Method};
pub use convert::{convert_parametric, Community};
pub use engine::{Analyzer, ParametricAnalyzer, RateSweep};
pub use parametric::{ParamKind, ParamSlot, ParamTable, Valuation};
pub use query::{Measure, MeasurePoint, MeasureResult};
pub use request::{AnalysisRequest, MethodSpec, QuerySpec, RequestError, SweepSpec};
pub use service::{
    AnalysisService, CacheStats, HybridStats, JobReport, QueueStats, RequestHandle, RequestOutcome,
    ServiceOptions, SweepPointReport, SweepReport, SweepStats,
};
pub use store::{ModelStore, StoreStats};

use std::fmt;

/// Errors produced by the semantic translation and the analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// An error reported by the `dft` crate (syntax/wellformedness).
    Dft(dft::Error),
    /// An error reported by the `ioimc` crate (composition, hiding, …).
    Ioimc(ioimc::Error),
    /// An error reported by the `markov` crate (numerical analysis).
    Markov(markov::Error),
    /// The DFT uses a feature combination the translation does not support.
    Unsupported {
        /// Description of the unsupported combination.
        message: String,
    },
    /// A curve query carried no mission times, so there is nothing to evaluate.
    ///
    /// Rejected at [`Analyzer::query`](engine::Analyzer::query) time so the
    /// accessors of [`MeasureResult`] never see an empty
    /// result (they used to panic on one).
    EmptyCurve,
    /// A [`parametric::Valuation`] does not fit the parametric model
    /// it was applied to: wrong slot count, or a non-finite/non-positive rate
    /// value.
    InvalidValuation {
        /// Description of the violation.
        message: String,
    },
    /// A time-bounded measure carried a mission time that is NaN, infinite or
    /// negative.
    ///
    /// Rejected at the [`Analyzer::query`](engine::Analyzer::query) /
    /// [`query_all`](engine::Analyzer::query_all) boundary, before any
    /// numerical work starts — such times used to surface only deep inside the
    /// uniformisation routines as an untyped numerical error.
    InvalidMissionTime {
        /// The offending mission time.
        value: f64,
    },
    /// A persistent model-store operation failed: the store directory cannot
    /// be created, an entry cannot be written, or bytes handed to
    /// [`Analyzer::from_bytes`](engine::Analyzer::from_bytes) /
    /// [`ParametricAnalyzer::from_bytes`](engine::ParametricAnalyzer::from_bytes)
    /// do not decode.
    ///
    /// Raised only by the explicit [`store::ModelStore`] and `from_bytes`
    /// APIs.  The [`service::AnalysisService`] cache path never surfaces it:
    /// a load problem is a cache miss (the model is rebuilt) and a write-back
    /// problem degrades to an in-memory-only entry.
    Store {
        /// Description of the failure.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Dft(e) => write!(f, "DFT error: {e}"),
            Error::Ioimc(e) => write!(f, "I/O-IMC error: {e}"),
            Error::Markov(e) => write!(f, "numerical error: {e}"),
            Error::Unsupported { message } => write!(f, "unsupported model: {message}"),
            Error::EmptyCurve => {
                write!(f, "an unreliability curve needs at least one mission time")
            }
            Error::InvalidValuation { message } => {
                write!(f, "invalid valuation: {message}")
            }
            Error::InvalidMissionTime { value } => {
                write!(
                    f,
                    "invalid mission time {value}: mission times must be finite and non-negative"
                )
            }
            Error::Store { message } => write!(f, "model store error: {message}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Dft(e) => Some(e),
            Error::Ioimc(e) => Some(e),
            Error::Markov(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dft::Error> for Error {
    fn from(e: dft::Error) -> Error {
        Error::Dft(e)
    }
}

impl From<ioimc::Error> for Error {
    fn from(e: ioimc::Error) -> Error {
        Error::Ioimc(e)
    }
}

impl From<markov::Error> for Error {
    fn from(e: markov::Error) -> Error {
        Error::Markov(e)
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
