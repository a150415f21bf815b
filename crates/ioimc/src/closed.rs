//! Utilities for *closed* models.
//!
//! After the last composition step of compositional aggregation, the resulting
//! I/O-IMC no longer has communication partners.  Input actions that remain in its
//! signature can never be triggered (there is nobody left to output them), outputs
//! are only interesting as observations (e.g. the top-level failure signal), and
//! the model can be interpreted as a continuous-time Markov chain — or, when
//! immediate non-determinism remains, as a continuous-time Markov decision process.
//!
//! This module provides the final massaging steps: removing dead input transitions,
//! computing which states can fire a given output without letting time pass, and
//! checking whether the model is free of immediate non-determinism.

use crate::action::Action;
use crate::model::{IoImcOf, Label, StateId};
use crate::rate::Rate;
use crate::{Error, Result};

/// Removes every input transition and every input action of the signature.
///
/// In a closed model there is no environment left to provide inputs, so input
/// transitions are dead code.  Outputs and internal transitions are untouched.
/// The result is restricted to the states that stay reachable without the
/// inputs; the filter and the restriction are one search and one build.
pub fn drop_input_transitions<R: Rate>(model: &IoImcOf<R>) -> IoImcOf<R> {
    let mut closed = model.retain_reachable(&|t| !t.label.is_input(), &|_| true);
    let inputs: Vec<Action> = closed.signature.inputs().collect();
    for a in inputs {
        closed.signature.remove(a);
    }
    closed
}

/// Returns, for every state, whether an output of `action` can occur from it
/// without any time passing — i.e. following only immediate (output or internal)
/// transitions.
///
/// For reliability analysis the top event of a DFT has failed *at* the instant such
/// a state is entered, so these states form the goal set of the time-bounded
/// reachability problem.
pub fn can_fire_immediately<R: Rate>(model: &IoImcOf<R>, action: Action) -> Vec<bool> {
    let n = model.num_states();
    let mut can = vec![false; n];
    // Seed: states with a direct output of `action`.
    for t in model.interactive() {
        if t.label == Label::Output(action) {
            can[t.from.index()] = true;
        }
    }
    // Backward closure over immediate transitions: if an immediate transition leads
    // to a state that can fire, so can its source.
    let mut changed = true;
    while changed {
        changed = false;
        for t in model.interactive() {
            if t.label.is_immediate() && can[t.to.index()] && !can[t.from.index()] {
                can[t.from.index()] = true;
                changed = true;
            }
        }
    }
    can
}

/// Returns, for every state, whether *every* maximal immediate run from it fires an
/// output of `action`.
///
/// This is the pessimistic (lower-bound) counterpart of [`can_fire_immediately`]:
/// when immediate non-determinism remains, a state certainly represents a failure
/// only if the failure signal is emitted no matter how the non-determinism is
/// resolved.
pub fn must_fire_immediately<R: Rate>(model: &IoImcOf<R>, action: Action) -> Vec<bool> {
    let n = model.num_states();
    // Greatest fixpoint: start optimistic (every urgent state might be forced),
    // then strip states that have an escape.
    let mut must = vec![false; n];
    for s in model.states() {
        let direct = model
            .interactive_from(s)
            .iter()
            .any(|t| t.label == Label::Output(action));
        must[s.index()] = direct || model.is_urgent(s);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for s in model.states() {
            if !must[s.index()] {
                continue;
            }
            let direct = model
                .interactive_from(s)
                .iter()
                .any(|t| t.label == Label::Output(action));
            if direct {
                continue;
            }
            // Not a direct firing state: every immediate successor must be forced.
            let immediates: Vec<StateId> = model
                .interactive_from(s)
                .iter()
                .filter(|t| t.label.is_immediate())
                .map(|t| t.to)
                .collect();
            let ok = !immediates.is_empty() && immediates.iter().all(|t| must[t.index()]);
            if !ok {
                must[s.index()] = false;
                changed = true;
            }
        }
    }
    must
}

/// Checks that the closed model has no immediate non-determinism: every state has
/// at most one outgoing immediate (output or internal) transition.
///
/// # Errors
///
/// Returns [`Error::Nondeterministic`] naming a state with two or more immediate
/// alternatives.  Such a model must be analysed as a CTMDP.
pub fn check_deterministic<R: Rate>(model: &IoImcOf<R>) -> Result<()> {
    for s in model.states() {
        let immediate = model
            .interactive_from(s)
            .iter()
            .filter(|t| t.label.is_immediate())
            .count();
        if immediate > 1 {
            return Err(Error::Nondeterministic { state: s });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IoImcBuilder;

    fn act(n: &str) -> Action {
        Action::new(n)
    }

    #[test]
    fn input_transitions_are_dropped() {
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.input(s[0], act("cl_in"), s[1]);
        b.markovian(s[0], 1.0, s[2]);
        let m = b.build().unwrap();
        let closed = drop_input_transitions(&m);
        assert_eq!(closed.num_interactive(), 0);
        assert!(!closed.signature().is_input(act("cl_in")));
        // s1 becomes unreachable.
        assert_eq!(closed.num_states(), 2);
    }

    #[test]
    fn immediate_firing_closure() {
        let f = act("cl_fire");
        let tau = act("cl_tau");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(5);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.internal(s[1], tau, s[2]);
        b.output(s[2], f, s[3]);
        // s4 is unrelated.
        b.markovian(s[3], 1.0, s[4]);
        let m = b.build().unwrap();
        let can = can_fire_immediately(&m, f);
        assert!(
            !can[s[0].index()],
            "a Markovian delay separates s0 from firing"
        );
        assert!(can[s[1].index()]);
        assert!(can[s[2].index()]);
        assert!(!can[s[3].index()]);
        assert!(!can[s[4].index()]);
    }

    #[test]
    fn must_fire_requires_all_branches() {
        let f = act("cl_must_fire");
        let tau = act("cl_must_tau");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(5);
        b.initial(s[0]);
        // s0 nondeterministically goes to a firing branch or a silent dead end.
        b.internal(s[0], tau, s[1]);
        b.internal(s[0], tau, s[2]);
        b.output(s[1], f, s[3]);
        b.internal(s[2], tau, s[4]);
        let m = b.build().unwrap();
        let can = can_fire_immediately(&m, f);
        let must = must_fire_immediately(&m, f);
        assert!(can[s[0].index()]);
        assert!(!must[s[0].index()]);
        assert!(must[s[1].index()]);
        assert!(!must[s[2].index()]);
    }

    #[test]
    fn determinism_check() {
        let f = act("cl_det_f");
        let g = act("cl_det_g");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.output(s[0], f, s[1]);
        b.output(s[0], g, s[2]);
        let m = b.build().unwrap();
        assert!(matches!(
            check_deterministic(&m),
            Err(Error::Nondeterministic { .. })
        ));

        let mut b2 = IoImcBuilder::new("m2");
        let t = b2.add_states(2);
        b2.initial(t[0]);
        b2.output(t[0], f, t[1]);
        let m2 = b2.build().unwrap();
        assert!(check_deterministic(&m2).is_ok());
    }
}
