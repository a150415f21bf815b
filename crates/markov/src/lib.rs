//! # markov — numerical analysis of CTMCs and CTMDPs
//!
//! The final model produced by compositional aggregation of a dynamic fault tree is
//! a continuous-time Markov chain (CTMC) or, when immediate non-determinism
//! remains, a continuous-time Markov decision process (CTMDP).  This crate solves
//! the two measures the paper reports:
//!
//! * **Unreliability** — the probability that a set of goal ("failed") states is
//!   reached within the mission time, computed by uniformisation.  For CTMDPs,
//!   [`RelaxKernel::reachability`] computes minimum and maximum probabilities
//!   over time-abstract schedulers with the value-iteration scheme of Baier,
//!   Hermanns, Katoen & Haverkort (2005), which the paper cites as its CTMDP
//!   back-end; a [`Ctmdp`] is the validated model it lowers.  The forward CTMC
//!   uniformisation of [`Ctmc::reachability`] shares no code with that kernel
//!   and answers the monolithic baseline.
//! * **Unavailability** — the long-run fraction of time spent in "down" states of a
//!   repairable system, computed from the steady-state distribution
//!   ([`steady::steady_state`]).
//!
//! The crate is self-contained (sparse matrices, Poisson weights) so that the rest
//! of the workspace has no numerical dependencies.
//!
//! # Example
//!
//! A two-state repairable component with failure rate 1 and repair rate 10:
//!
//! ```
//! use markov::ctmc::Ctmc;
//! use markov::steady::steady_state;
//!
//! let ctmc = Ctmc::from_transitions(2, 0, &[(0, 1, 1.0), (1, 0, 10.0)]).unwrap();
//! // Unreliability at t = 0.5 (failure treated as absorbing).
//! let unrel = ctmc.reachability(&[false, true], 0.5, 1e-9).unwrap();
//! assert!(unrel > 0.0 && unrel < 1.0);
//! // Long-run unavailability is 1/11.
//! let pi = steady_state(&ctmc, 1e-12).unwrap();
//! assert!((pi[1] - 1.0 / 11.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod ctmc;
pub mod ctmdp;
pub mod kernel;
pub mod mttf;
pub mod poisson;
pub mod sparse;
pub mod steady;

pub use ctmc::Ctmc;
pub use ctmdp::{Ctmdp, CtmdpState};
pub use kernel::RelaxKernel;
pub use sparse::CsrMatrix;

use std::fmt;

/// Errors produced by the numerical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A state index was out of range.
    InvalidState {
        /// The offending index.
        state: u32,
        /// Number of states in the model.
        num_states: u32,
    },
    /// A rate or probability was negative, NaN or infinite.
    InvalidValue {
        /// The offending value.
        value: f64,
    },
    /// The goal/label vector has the wrong length.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed.
        iterations: usize,
    },
    /// The model has no transitions at all, so the requested measure is undefined.
    EmptyModel,
    /// A uniformisation needs a Poisson mean (rate × time) above
    /// [`poisson::MAX_MEAN`]: too many relax passes to ever finish.
    MeanTooLarge {
        /// The requested mean.
        mean: f64,
        /// The largest accepted mean.
        max: f64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidState { state, num_states } => {
                write!(
                    f,
                    "state {state} out of range (model has {num_states} states)"
                )
            }
            Error::InvalidValue { value } => write!(f, "invalid rate or probability {value}"),
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            Error::NoConvergence { iterations } => {
                write!(
                    f,
                    "iterative method did not converge after {iterations} iterations"
                )
            }
            Error::EmptyModel => write!(f, "model has no transitions"),
            Error::MeanTooLarge { mean, max } => write!(
                f,
                "uniformisation needs a Poisson mean of {mean:e} (rate × time), above the \
                 supported {max:e}"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
