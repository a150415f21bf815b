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
//!
//! The engine closes the aggregate it owns with [`into_closed`], which edits
//! the model in place (or only its signature, when it has no input
//! transition); [`drop_input_transitions`] borrows and closes a clone.  Both
//! goal sets are one backward search over the immediate transitions.

use crate::action::Action;
use crate::model::{IoImcOf, Label, StateId};
use crate::rate::Rate;
use crate::{Error, Result};

/// Removes every input transition and every input action of the signature.
///
/// In a closed model there is no environment left to provide inputs, so input
/// transitions are dead code.  Outputs and internal transitions are untouched.
/// The result is restricted to the states that stay reachable without the
/// inputs.  This borrowing form closes a clone through [`into_closed`].
pub fn drop_input_transitions<R: Rate>(model: &IoImcOf<R>) -> IoImcOf<R> {
    into_closed(model.clone())
}

/// [`drop_input_transitions`] for a model the caller owns.
///
/// A model without input transitions keeps its rows: one search finds
/// that every state is still reachable (as it is for a
/// [`minimize`](crate::bisim::minimize) output), and only the signature
/// changes.  Otherwise the input transitions and the states only they
/// reach are dropped in place, in one search and one compaction.
pub fn into_closed<R: Rate>(model: IoImcOf<R>) -> IoImcOf<R> {
    let mut closed = if model.interactive.iter().any(|t| t.label.is_input()) {
        model.retain_reachable(&|t| !t.label.is_input(), &|_| true)
    } else {
        model.into_reachable()
    };
    let inputs: Vec<Action> = closed.signature.inputs().collect();
    for a in inputs {
        closed.signature.remove(a);
    }
    closed
}

/// For every state, the sources of its incoming immediate (output or
/// internal) transitions: those of state `t` are `preds[ptr[t]..ptr[t + 1]]`.
fn immediate_predecessors<R: Rate>(model: &IoImcOf<R>) -> (Vec<u32>, Vec<StateId>) {
    let n = model.num_states();
    let immediates = || {
        model
            .interactive()
            .iter()
            .filter(|t| t.label.is_immediate())
    };
    let mut ptr = vec![0u32; n + 1];
    for t in immediates() {
        ptr[t.to.index() + 1] += 1;
    }
    for i in 1..=n {
        ptr[i] += ptr[i - 1];
    }
    let mut next = ptr.clone();
    let mut preds = vec![StateId(0); ptr[n] as usize];
    for t in immediates() {
        let slot = &mut next[t.to.index()];
        preds[*slot as usize] = t.from;
        *slot += 1;
    }
    (ptr, preds)
}

/// Returns, for every state, whether an output of `action` can occur from it
/// without any time passing — i.e. following only immediate (output or internal)
/// transitions.
///
/// For reliability analysis the top event of a DFT has failed *at* the instant such
/// a state is entered, so these states form the goal set of the time-bounded
/// reachability problem.
///
/// A least fixpoint, found by one backward search over the immediate
/// transitions from the states with a direct output of `action`: linear in
/// the size of the model.
pub fn can_fire_immediately<R: Rate>(model: &IoImcOf<R>, action: Action) -> Vec<bool> {
    let (ptr, preds) = immediate_predecessors(model);
    let mut can = vec![false; model.num_states()];
    let mut stack = Vec::new();
    for t in model.interactive() {
        if t.label == Label::Output(action) && !can[t.from.index()] {
            can[t.from.index()] = true;
            stack.push(t.from);
        }
    }
    // If an immediate transition leads to a state that can fire, so can its
    // source.
    while let Some(s) = stack.pop() {
        for &p in &preds[ptr[s.index()] as usize..ptr[s.index() + 1] as usize] {
            if !can[p.index()] {
                can[p.index()] = true;
                stack.push(p);
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
///
/// A greatest fixpoint: every urgent state starts as possibly forced, and a
/// worklist strips each state with an immediate successor that is not
/// forced, backwards over the immediate transitions: linear in the size of
/// the model.
pub fn must_fire_immediately<R: Rate>(model: &IoImcOf<R>, action: Action) -> Vec<bool> {
    let (ptr, preds) = immediate_predecessors(model);
    let direct: Vec<bool> = model
        .states()
        .map(|s| {
            model
                .interactive_from(s)
                .iter()
                .any(|t| t.label == Label::Output(action))
        })
        .collect();
    // An urgent state has an immediate successor, so it starts forced and
    // loses that only through a successor that is not.
    let mut must: Vec<bool> = model
        .states()
        .map(|s| direct[s.index()] || model.is_urgent(s))
        .collect();
    let mut stack: Vec<StateId> = model.states().filter(|s| !must[s.index()]).collect();
    while let Some(s) = stack.pop() {
        for &p in &preds[ptr[s.index()] as usize..ptr[s.index() + 1] as usize] {
            if must[p.index()] && !direct[p.index()] {
                must[p.index()] = false;
                stack.push(p);
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

    /// The fixpoint loop [`can_fire_immediately`] replaced: rescans every
    /// interactive transition until nothing changes.  The reference the
    /// worklist must reproduce.
    fn can_fire_reference<R: Rate>(model: &IoImcOf<R>, action: Action) -> Vec<bool> {
        let mut can = vec![false; model.num_states()];
        for t in model.interactive() {
            if t.label == Label::Output(action) {
                can[t.from.index()] = true;
            }
        }
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

    /// The fixpoint loop [`must_fire_immediately`] replaced: strips every
    /// state with an escape, pass after pass, until nothing changes.
    fn must_fire_reference<R: Rate>(model: &IoImcOf<R>, action: Action) -> Vec<bool> {
        let direct = |s: StateId| {
            model
                .interactive_from(s)
                .iter()
                .any(|t| t.label == Label::Output(action))
        };
        let mut must: Vec<bool> = model
            .states()
            .map(|s| direct(s) || model.is_urgent(s))
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for s in model.states() {
                if !must[s.index()] || direct(s) {
                    continue;
                }
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

    /// Asserts that both goal sets of `model` for every output action
    /// equal their reference loops, and marks in `seen` which kinds of
    /// states that are not direct firers the searches met: one that can
    /// fire through others, an urgent one that must, and an urgent one that
    /// need not.
    fn assert_goal_sets_match<R: Rate>(model: &IoImcOf<R>, seen: &mut [bool; 3]) {
        for action in model.signature().outputs() {
            let can = can_fire_immediately(model, action);
            assert_eq!(can, can_fire_reference(model, action), "{}", model.name());
            let must = must_fire_immediately(model, action);
            assert_eq!(must, must_fire_reference(model, action), "{}", model.name());
            for s in model.states() {
                let direct = model
                    .interactive_from(s)
                    .iter()
                    .any(|t| t.label == Label::Output(action));
                if !direct {
                    let urgent = model.is_urgent(s);
                    seen[0] |= can[s.index()];
                    seen[1] |= urgent && must[s.index()];
                    seen[2] |= urgent && !must[s.index()];
                }
            }
        }
    }

    #[test]
    fn goal_sets_equal_the_fixpoint_loops() {
        use crate::bisim::tests::{lift, random_model};
        let seeds = if cfg!(miri) { 4 } else { 256 };
        let mut seen = [false; 3];
        for seed in 0..seeds {
            let model = random_model(seed);
            assert_goal_sets_match(&model, &mut seen);
            assert_goal_sets_match(&lift(&model), &mut seen);
        }
        if !cfg!(miri) {
            assert_eq!(seen, [true; 3], "can through others / must / need not");
        }
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
