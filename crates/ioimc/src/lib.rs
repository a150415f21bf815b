//! # ioimc — Input/Output Interactive Markov Chains
//!
//! This crate implements the I/O-IMC formalism used by Boudali, Crouzen and
//! Stoelinga ("Dynamic Fault Tree analysis using Input/Output Interactive Markov
//! Chains", DSN 2007) as the semantic foundation for dynamic fault trees.
//!
//! An I/O-IMC is a labelled transition system with two kinds of transitions:
//!
//! * **Interactive transitions**, labelled with an *input* (`a?`), *output* (`a!`)
//!   or *internal* (`a;`) action.  Output and internal transitions are immediate;
//!   input transitions wait for a matching output of the environment.
//! * **Markovian transitions**, labelled with a rate `λ > 0` of an exponential
//!   delay, exactly as in a continuous-time Markov chain.
//!
//! The crate provides the three operations the compositional-aggregation algorithm
//! of the paper is built from:
//!
//! 1. [`compose`](compose::compose) — parallel composition synchronising outputs of
//!    one component with the equally named inputs of the others,
//! 2. [`hide`](hide::hide) — turning output actions that are no longer needed into
//!    internal actions, and
//! 3. [`minimize`](bisim::minimize) — state-space aggregation modulo (branching-
//!    style) weak bisimulation with Markovian lumping and the maximal-progress
//!    assumption.
//!
//! # Example
//!
//! Composing two small I/O-IMCs, hiding their shared signal and aggregating:
//!
//! ```
//! use ioimc::{Action, IoImcBuilder, compose::compose, hide::hide, bisim::minimize};
//!
//! # fn main() -> Result<(), ioimc::Error> {
//! let a = Action::new("a");
//! let b = Action::new("b");
//!
//! // I/O-IMC A: after an exponential delay, fires output a!.
//! let mut ab = IoImcBuilder::new("A");
//! let s = [ab.add_state(), ab.add_state(), ab.add_state()];
//! ab.initial(s[0]);
//! ab.markovian(s[0], 2.0, s[1]);
//! ab.output(s[1], a, s[2]);
//! let ioimc_a = ab.build()?;
//!
//! // I/O-IMC B: waits for a?, then fires b! after an exponential delay.
//! let mut bb = IoImcBuilder::new("B");
//! let t = [bb.add_state(), bb.add_state(), bb.add_state()];
//! bb.initial(t[0]);
//! bb.input(t[0], a, t[1]);
//! bb.markovian(t[1], 3.0, t[2]);
//! bb.output(t[2], b, t[2]);
//! let ioimc_b = bb.build()?;
//!
//! let composed = compose(&ioimc_a, &ioimc_b)?;
//! let hidden = hide(&composed, &[a])?;
//! let minimal = minimize(&hidden);
//! assert!(minimal.num_states() <= hidden.num_states());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod bisim;
pub mod builder;
pub mod closed;
pub mod codec;
pub mod compose;
mod hash;
pub mod hide;
pub mod model;
pub mod rate;
pub mod rename;
pub mod signature;
pub mod stats;

pub use action::{Action, ActionKind};
pub use builder::{IoImcBuilder, IoImcBuilderOf, ParametricIoImcBuilder};
pub use codec::{DecodeError, RateCodec};
pub use model::{
    InteractiveTransition, IoImc, IoImcOf, Label, MarkovianTransition, MarkovianTransitionOf,
    ParametricIoImc, PropId, StateId,
};
pub use rate::{Rate, RateForm};
pub use signature::Signature;

use std::fmt;

/// Errors produced while constructing or combining I/O-IMCs.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A transition refers to a state id that was never added.
    UnknownState {
        /// The offending state id.
        state: u32,
        /// Number of states in the model.
        num_states: u32,
    },
    /// A Markovian transition was given an invalid rate (for numeric rates:
    /// non-positive or non-finite; for rate forms: empty or with invalid
    /// coefficients).
    InvalidRate {
        /// The offending rate, rendered for diagnostics.
        rate: String,
    },
    /// The model has no initial state.
    MissingInitialState,
    /// The same action appears with two incompatible roles in one signature.
    ConflictingSignature {
        /// The action involved.
        action: Action,
    },
    /// Two models to be composed both declare the same output action.
    OutputClash {
        /// The clashing output action.
        action: Action,
        /// Name of the first model.
        left: String,
        /// Name of the second model.
        right: String,
    },
    /// An internal action of one model appears in the signature of the other.
    InternalClash {
        /// The clashing internal action.
        action: Action,
        /// Name of the first model.
        left: String,
        /// Name of the second model.
        right: String,
    },
    /// An action passed to [`hide::hide`] is not an output of the model.
    NotAnOutput {
        /// The action that could not be hidden.
        action: Action,
    },
    /// Renaming would identify two previously distinct actions of the model.
    RenameCollision {
        /// The action that two names were mapped to.
        action: Action,
    },
    /// The model is non-deterministic and cannot be interpreted as a CTMC.
    Nondeterministic {
        /// A state exhibiting a non-deterministic choice between immediate
        /// transitions.
        state: StateId,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownState { state, num_states } => {
                write!(
                    f,
                    "state {state} out of range (model has {num_states} states)"
                )
            }
            Error::InvalidRate { rate } => write!(f, "invalid Markovian rate {rate}"),
            Error::MissingInitialState => write!(f, "model has no initial state"),
            Error::ConflictingSignature { action } => {
                write!(f, "action {} used with conflicting roles", action.name())
            }
            Error::OutputClash {
                action,
                left,
                right,
            } => write!(
                f,
                "output action {} declared by both {left} and {right}",
                action.name()
            ),
            Error::InternalClash {
                action,
                left,
                right,
            } => write!(
                f,
                "internal action {} of one of {left}, {right} is visible to the other",
                action.name()
            ),
            Error::NotAnOutput { action } => {
                write!(
                    f,
                    "cannot hide {}: not an output of the model",
                    action.name()
                )
            }
            Error::RenameCollision { action } => {
                write!(f, "renaming maps two distinct actions to {}", action.name())
            }
            Error::Nondeterministic { state } => {
                write!(f, "immediate non-determinism in state {}", state.index())
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
