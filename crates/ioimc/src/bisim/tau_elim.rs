//! Elimination of deterministic internal ("vanishing") states.
//!
//! Hiding the synchronisation signals of a composition produces long chains of
//! states whose only behaviour is a single internal transition.  Such a state is
//! left immediately and deterministically, so every transition that targets it can
//! be redirected to its (transitive) successor.  This cheap pre-pass dramatically
//! shrinks intermediate models before the more expensive partition refinement runs.

use crate::model::{InteractiveTransition, IoImcOf, MarkovianTransitionOf, StateId};
use crate::rate::Rate;

/// Returns `true` if `state` is a *vanishing* state: its only outgoing behaviour is
/// exactly one internal transition (no inputs, no outputs, no Markovian
/// transitions) and it carries no atomic proposition.
pub(crate) fn is_vanishing<R: Rate>(model: &IoImcOf<R>, state: StateId) -> bool {
    if model.prop_mask(state) != 0 {
        return false;
    }
    if !model.markovian_from(state).is_empty() {
        return false;
    }
    let outgoing = model.interactive_from(state);
    outgoing.len() == 1 && outgoing[0].label.is_internal()
}

/// Short-circuits every vanishing state, redirecting incoming transitions to the
/// end of its internal chain.  Cycles of internal transitions are left untouched
/// (they denote divergence, which does not occur in DFT models but must not crash).
///
/// The result is restricted to the states that stay reachable.
pub fn eliminate_deterministic_tau<R: Rate>(model: &IoImcOf<R>) -> IoImcOf<R> {
    let n = model.num_states();
    // forward[s] = Some(t) if s is vanishing with internal successor t.
    let mut forward: Vec<Option<StateId>> = vec![None; n];
    for s in model.states() {
        if is_vanishing(model, s) {
            forward[s.index()] = Some(model.interactive_from(s)[0].to);
        }
    }

    // Resolve chains with cycle detection: from each unresolved state, follow
    // forward pointers until a non-vanishing state, a resolved state or a
    // cycle is found, then resolve the whole path to that target.  The path
    // buffer is reused, and `on_path[s] == start` marks the states on the
    // path from `start`, so a chain of L vanishing states costs O(L).
    let mut resolved: Vec<Option<StateId>> = vec![None; n];
    let mut on_path: Vec<u32> = vec![u32::MAX; n];
    let mut path: Vec<StateId> = Vec::new();
    let mut map = vec![StateId::new(0); n];
    for start in model.states() {
        if let Some(r) = resolved[start.index()] {
            map[start.index()] = r;
            continue;
        }
        path.clear();
        path.push(start);
        on_path[start.index()] = start.raw();
        let mut cur = start;
        let target = loop {
            match forward[cur.index()] {
                None => break cur,
                Some(next) => {
                    if let Some(r) = resolved[next.index()] {
                        break r;
                    }
                    if on_path[next.index()] == start.raw() {
                        // Internal cycle: keep the entry point as its own target.
                        break next;
                    }
                    on_path[next.index()] = start.raw();
                    path.push(next);
                    cur = next;
                }
            }
        };
        for &s in &path {
            resolved[s.index()] = Some(target);
        }
        map[start.index()] = target;
    }

    let initial = map[model.initial().index()];
    let interactive: Vec<InteractiveTransition> = model
        .interactive()
        .iter()
        .filter(|t| forward[t.from.index()].is_none() || map[t.from.index()] == t.from)
        .map(|t| InteractiveTransition {
            from: t.from,
            label: t.label,
            to: map[t.to.index()],
        })
        .collect();
    let markovian: Vec<MarkovianTransitionOf<R>> = model
        .markovian()
        .iter()
        .map(|t| MarkovianTransitionOf {
            from: t.from,
            rate: t.rate.clone(),
            to: map[t.to.index()],
        })
        .collect();

    IoImcOf::from_parts(
        model.name().to_owned(),
        model.signature().clone(),
        model.num_states,
        initial,
        interactive,
        markovian,
        model.prop_names.clone(),
        model.props.clone(),
    )
    .into_reachable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::builder::IoImcBuilder;
    use crate::model::Label;

    fn act(n: &str) -> Action {
        Action::new(n)
    }

    #[test]
    fn chains_are_short_circuited() {
        let tau = act("te_tau");
        let f = act("te_f");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(5);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.internal(s[1], tau, s[2]);
        b.internal(s[2], tau, s[3]);
        b.output(s[3], f, s[4]);
        let m = b.build().unwrap();
        let e = eliminate_deterministic_tau(&m);
        assert_eq!(e.num_states(), 3);
        assert_eq!(e.num_interactive(), 1);
        assert!(e.interactive()[0].label.is_output());
        assert!(e.validate().is_ok());
    }

    #[test]
    fn vanishing_initial_state_is_skipped() {
        let tau = act("te_tau_init");
        let f = act("te_f_init");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.internal(s[0], tau, s[1]);
        b.output(s[1], f, s[2]);
        let m = b.build().unwrap();
        let e = eliminate_deterministic_tau(&m);
        assert_eq!(e.num_states(), 2);
        assert!(e
            .interactive_from(e.initial())
            .iter()
            .any(|t| t.label == Label::Output(f)));
    }

    #[test]
    fn states_with_other_behaviour_are_kept() {
        let tau = act("te_tau_keep");
        let f = act("te_f_keep");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(4);
        b.initial(s[0]);
        // s1 has an internal transition *and* an output: not vanishing.
        b.markovian(s[0], 1.0, s[1]);
        b.internal(s[1], tau, s[2]);
        b.output(s[1], f, s[3]);
        let m = b.build().unwrap();
        let e = eliminate_deterministic_tau(&m);
        assert_eq!(e.num_states(), m.num_states());
    }

    #[test]
    fn labelled_states_are_kept() {
        let tau = act("te_tau_prop");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.internal(s[1], tau, s[2]);
        let down = b.prop("down");
        b.set_prop(s[1], down);
        let m = b.build().unwrap();
        let e = eliminate_deterministic_tau(&m);
        // s1 carries a proposition and must survive.
        assert_eq!(e.num_states(), 3);
    }

    #[test]
    fn internal_cycles_do_not_loop_forever() {
        let tau = act("te_tau_cycle");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.internal(s[1], tau, s[2]);
        b.internal(s[2], tau, s[1]);
        let m = b.build().unwrap();
        let e = eliminate_deterministic_tau(&m);
        assert!(e.validate().is_ok());
        assert!(e.num_states() >= 2);
    }

    #[test]
    fn long_chains_resolve_in_linear_time() {
        // A chain of 100,000 vanishing states; resolving it with a per-state
        // path scan would take on the order of 10^10 steps.
        const LEN: usize = 100_000;
        let tau = act("te_tau_long");
        let f = act("te_f_long");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(LEN + 3);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        for i in 1..=LEN {
            b.internal(s[i], tau, s[i + 1]);
        }
        b.output(s[LEN + 1], f, s[LEN + 2]);
        let m = b.build().unwrap();
        let start = std::time::Instant::now();
        let e = eliminate_deterministic_tau(&m);
        let elapsed = start.elapsed();
        assert_eq!(e.num_states(), 3);
        assert_eq!(e.num_markovian(), 1);
        assert_eq!(e.num_interactive(), 1);
        assert!(elapsed.as_secs() < 5, "took {elapsed:?}");
    }

    #[test]
    fn cycles_resolve_to_their_first_state() {
        // s0 --1--> s3 --tau--> s2, with s1 <--tau--> s2 a 2-cycle, and
        // s0 --2--> s4 --tau--> s4 a self-loop.  Every state on the 2-cycle,
        // and the chain entering it at s2, resolve to s1, the cycle state
        // visited first in state order, which keeps its step (now a self-loop);
        // the self-loop state keeps its own.
        let tau = act("te_tau_cycles");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(5);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[3]);
        b.markovian(s[0], 2.0, s[4]);
        b.internal(s[1], tau, s[2]);
        b.internal(s[2], tau, s[1]);
        b.internal(s[3], tau, s[2]);
        b.internal(s[4], tau, s[4]);
        let m = b.build().unwrap();
        let e = eliminate_deterministic_tau(&m);
        // s2 and s3 are unreachable; s0, s1, s4 are renumbered 0, 1, 2.
        assert_eq!(e.num_states(), 3);
        let markovian: Vec<(u32, f64, u32)> = e
            .markovian()
            .iter()
            .map(|t| (t.from.raw(), t.rate, t.to.raw()))
            .collect();
        assert_eq!(markovian, vec![(0, 1.0, 1), (0, 2.0, 2)]);
        let interactive: Vec<(u32, Label, u32)> = e
            .interactive()
            .iter()
            .map(|t| (t.from.raw(), t.label, t.to.raw()))
            .collect();
        assert_eq!(
            interactive,
            vec![(1, Label::Internal(tau), 1), (2, Label::Internal(tau), 2)]
        );
    }

    #[test]
    fn elimination_is_idempotent() {
        let tau = act("te_tau_idem");
        let f = act("te_f_idem");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(4);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.internal(s[1], tau, s[2]);
        b.output(s[2], f, s[3]);
        let m = b.build().unwrap();
        let once = eliminate_deterministic_tau(&m);
        let twice = eliminate_deterministic_tau(&once);
        assert_eq!(once.num_states(), twice.num_states());
    }
}
