//! Continuous-time Markov decision processes.
//!
//! When a DFT contains inherent non-determinism (Section 4.4 of the paper — e.g. an
//! FDEP gate triggering two dependent events "simultaneously" underneath a PAND
//! gate), compositional aggregation produces a CTMDP instead of a CTMC.  The paper
//! follows Baier, Hermanns, Katoen & Haverkort (TCS 345, 2005) and reports *bounds*
//! on the measure of interest.  The model shape produced by our pipeline is:
//!
//! * **Markovian states** race exponential delays (a single stochastic choice);
//! * **immediate states** choose non-deterministically among instantaneous
//!   successors (the unresolved orderings of simultaneous events).
//!
//! This module holds that shape and its validation; the bounds themselves
//! come from [`RelaxKernel::reachability`](crate::RelaxKernel::reachability),
//! which uniformises the Markovian steps with a global rate and resolves the
//! non-deterministic choices greedily (maximising or minimising) in a
//! step-indexed value iteration — the optimum over time-abstract schedulers,
//! an upper, respectively lower, bound for the measure under general
//! schedulers.

use crate::{Error, Result};

/// One state of a CTMDP.
#[derive(Debug, Clone, PartialEq)]
pub enum CtmdpState {
    /// A stochastic state racing exponential delays; entries are `(target, rate)`.
    Markovian(Vec<(u32, f64)>),
    /// An instantaneous state with a non-deterministic choice among successors.
    Immediate(Vec<u32>),
}

/// A validated continuous-time Markov decision process: its states and its
/// initial state.
///
/// The goal set is not part of the model: [`RelaxKernel::reachability`]
/// takes it per call, so one lowered model answers both the can and the must
/// goal set of a closed I/O-IMC.
///
/// [`RelaxKernel::reachability`]: crate::RelaxKernel::reachability
#[derive(Debug, Clone)]
pub struct Ctmdp {
    states: Vec<CtmdpState>,
    initial: usize,
}

impl Ctmdp {
    /// Builds a CTMDP, checking `goal` against it.
    ///
    /// # Errors
    ///
    /// Returns an error if a target index is out of range, a rate is not finite and
    /// strictly positive, the goal vector has the wrong length, or the initial
    /// state is out of range.
    pub fn new(states: Vec<CtmdpState>, initial: usize, goal: Vec<bool>) -> Result<Ctmdp> {
        let n = states.len();
        if initial >= n {
            return Err(Error::InvalidState {
                state: initial as u32,
                num_states: n as u32,
            });
        }
        if goal.len() != n {
            return Err(Error::DimensionMismatch {
                expected: n,
                actual: goal.len(),
            });
        }
        for st in &states {
            match st {
                CtmdpState::Markovian(rates) => {
                    for &(t, r) in rates {
                        if t as usize >= n {
                            return Err(Error::InvalidState {
                                state: t,
                                num_states: n as u32,
                            });
                        }
                        if !(r.is_finite() && r > 0.0) {
                            return Err(Error::InvalidValue { value: r });
                        }
                    }
                }
                CtmdpState::Immediate(succs) => {
                    for &t in succs {
                        if t as usize >= n {
                            return Err(Error::InvalidState {
                                state: t,
                                num_states: n as u32,
                            });
                        }
                    }
                }
            }
        }
        Ok(Ctmdp { states, initial })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The initial state.
    pub fn initial(&self) -> usize {
        self.initial
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_errors() {
        // Out-of-range target, non-positive rate, out-of-range initial
        // state, goal vector of the wrong length.
        assert!(Ctmdp::new(vec![CtmdpState::Immediate(vec![5])], 0, vec![false]).is_err());
        assert!(Ctmdp::new(vec![CtmdpState::Markovian(vec![(0, -1.0)])], 0, vec![false]).is_err());
        assert!(Ctmdp::new(vec![CtmdpState::Markovian(vec![])], 3, vec![false]).is_err());
        assert!(Ctmdp::new(vec![CtmdpState::Markovian(vec![])], 0, vec![false, true]).is_err());
        let mdp = Ctmdp::new(vec![CtmdpState::Markovian(vec![])], 0, vec![false]).unwrap();
        assert_eq!((mdp.num_states(), mdp.initial()), (1, 0));
    }
}
