//! Parallel composition of I/O-IMCs.
//!
//! Composition follows the input/output automata discipline (Lynch & Tuttle) lifted
//! to interactive Markov chains:
//!
//! * an action that is an **output of one** component and an **input of the other**
//!   is performed jointly and remains an output of the composition (the output side
//!   decides when it happens, the input side follows instantaneously);
//! * an action that is an **input of both** components is received jointly and
//!   remains an input (the environment decides);
//! * all other interactive transitions, all internal transitions and all Markovian
//!   transitions are interleaved;
//! * components are *input-enabled by convention*: a component without an explicit
//!   transition for one of its input actions simply stays in its current state when
//!   that action occurs (the paper omits these self-loops from its figures).
//!
//! Only the reachable part of the product is constructed.

use crate::action::Action;
use crate::hash::FastMap;
use crate::model::{InteractiveTransition, IoImcOf, Label, MarkovianTransitionOf, StateId};
use crate::rate::Rate;
use crate::Result;

/// Composes two I/O-IMCs in parallel.
///
/// # Errors
///
/// Returns an error if the two signatures are not composable: they share an output
/// action, or an internal action of one is visible to the other (rename internal
/// actions first in that case, see [`rename`](crate::rename)).
///
/// # Examples
///
/// ```
/// use ioimc::{Action, IoImcBuilder, compose::compose};
/// # fn main() -> Result<(), ioimc::Error> {
/// let ping = Action::new("ping");
///
/// let mut a = IoImcBuilder::new("sender");
/// let s = a.add_states(2);
/// a.initial(s[0]);
/// a.output(s[0], ping, s[1]);
/// let sender = a.build()?;
///
/// let mut b = IoImcBuilder::new("receiver");
/// let t = b.add_states(2);
/// b.initial(t[0]);
/// b.input(t[0], ping, t[1]);
/// let receiver = b.build()?;
///
/// let both = compose(&sender, &receiver)?;
/// assert_eq!(both.num_states(), 2); // only the synchronised path is reachable
/// assert!(both.signature().is_output(ping));
/// # Ok(())
/// # }
/// ```
pub fn compose<R: Rate>(left: &IoImcOf<R>, right: &IoImcOf<R>) -> Result<IoImcOf<R>> {
    left.signature()
        .check_composable(right.signature(), left.name(), right.name())?;
    let signature = left.signature().composed_with(right.signature());

    // Union of proposition name spaces, remembering the bit position each side's
    // propositions map to in the composition.
    let mut prop_names: Vec<String> = left.prop_names.clone();
    let mut right_prop_map: Vec<u8> = Vec::with_capacity(right.prop_names.len());
    for name in &right.prop_names {
        if let Some(i) = prop_names.iter().position(|p| p == name) {
            right_prop_map.push(i as u8);
        } else {
            assert!(
                prop_names.len() < 64,
                "at most 64 atomic propositions are supported"
            );
            prop_names.push(name.clone());
            right_prop_map.push((prop_names.len() - 1) as u8);
        }
    }
    let remap_right_mask = |mask: u64| -> u64 {
        let mut out = 0u64;
        for (bit, &target) in right_prop_map.iter().enumerate() {
            if mask & (1u64 << bit) != 0 {
                out |= 1u64 << target;
            }
        }
        out
    };

    let mut index: FastMap<(StateId, StateId), StateId> = FastMap::default();
    let mut pairs: Vec<(StateId, StateId)> = Vec::new();
    let mut props: Vec<u64> = Vec::new();
    let mut worklist: Vec<StateId> = Vec::new();

    let intern = |l: StateId,
                  r: StateId,
                  index: &mut FastMap<(StateId, StateId), StateId>,
                  pairs: &mut Vec<(StateId, StateId)>,
                  props: &mut Vec<u64>,
                  worklist: &mut Vec<StateId>|
     -> StateId {
        *index.entry((l, r)).or_insert_with(|| {
            let id = StateId(pairs.len() as u32);
            pairs.push((l, r));
            props.push(left.prop_mask(l) | remap_right_mask(right.prop_mask(r)));
            worklist.push(id);
            id
        })
    };

    let initial = intern(
        left.initial(),
        right.initial(),
        &mut index,
        &mut pairs,
        &mut props,
        &mut worklist,
    );

    let mut interactive: Vec<InteractiveTransition> = Vec::new();
    let mut markovian: Vec<MarkovianTransitionOf<R>> = Vec::new();

    while let Some(current) = worklist.pop() {
        let (ls, rs) = pairs[current.index()];

        // Markovian transitions interleave.
        for t in left.markovian_from(ls) {
            let to = intern(t.to, rs, &mut index, &mut pairs, &mut props, &mut worklist);
            markovian.push(MarkovianTransitionOf {
                from: current,
                rate: t.rate.clone(),
                to,
            });
        }
        for t in right.markovian_from(rs) {
            let to = intern(ls, t.to, &mut index, &mut pairs, &mut props, &mut worklist);
            markovian.push(MarkovianTransitionOf {
                from: current,
                rate: t.rate.clone(),
                to,
            });
        }

        // Interactive transitions of the left component.
        for t in left.interactive_from(ls) {
            match t.label {
                Label::Internal(_) => {
                    let to = intern(t.to, rs, &mut index, &mut pairs, &mut props, &mut worklist);
                    interactive.push(InteractiveTransition {
                        from: current,
                        label: t.label,
                        to,
                    });
                }
                Label::Output(a) => {
                    if right.signature().is_input(a) {
                        for r_to in input_targets(right, rs, a) {
                            let to = intern(
                                t.to,
                                r_to,
                                &mut index,
                                &mut pairs,
                                &mut props,
                                &mut worklist,
                            );
                            interactive.push(InteractiveTransition {
                                from: current,
                                label: Label::Output(a),
                                to,
                            });
                        }
                    } else {
                        let to =
                            intern(t.to, rs, &mut index, &mut pairs, &mut props, &mut worklist);
                        interactive.push(InteractiveTransition {
                            from: current,
                            label: Label::Output(a),
                            to,
                        });
                    }
                }
                Label::Input(a) => {
                    if right.signature().is_output(a) {
                        // Driven from the right component's side below.
                        continue;
                    } else if right.signature().is_input(a) {
                        for r_to in input_targets(right, rs, a) {
                            let to = intern(
                                t.to,
                                r_to,
                                &mut index,
                                &mut pairs,
                                &mut props,
                                &mut worklist,
                            );
                            interactive.push(InteractiveTransition {
                                from: current,
                                label: Label::Input(a),
                                to,
                            });
                        }
                    } else {
                        let to =
                            intern(t.to, rs, &mut index, &mut pairs, &mut props, &mut worklist);
                        interactive.push(InteractiveTransition {
                            from: current,
                            label: Label::Input(a),
                            to,
                        });
                    }
                }
            }
        }

        // Interactive transitions of the right component.
        for t in right.interactive_from(rs) {
            match t.label {
                Label::Internal(_) => {
                    let to = intern(ls, t.to, &mut index, &mut pairs, &mut props, &mut worklist);
                    interactive.push(InteractiveTransition {
                        from: current,
                        label: t.label,
                        to,
                    });
                }
                Label::Output(a) => {
                    if left.signature().is_input(a) {
                        for l_to in input_targets(left, ls, a) {
                            let to = intern(
                                l_to,
                                t.to,
                                &mut index,
                                &mut pairs,
                                &mut props,
                                &mut worklist,
                            );
                            interactive.push(InteractiveTransition {
                                from: current,
                                label: Label::Output(a),
                                to,
                            });
                        }
                    } else {
                        let to =
                            intern(ls, t.to, &mut index, &mut pairs, &mut props, &mut worklist);
                        interactive.push(InteractiveTransition {
                            from: current,
                            label: Label::Output(a),
                            to,
                        });
                    }
                }
                Label::Input(a) => {
                    if left.signature().is_output(a) {
                        // Driven from the left component's side above.
                        continue;
                    } else if left.signature().is_input(a) {
                        for l_to in input_targets(left, ls, a) {
                            let to = intern(
                                l_to,
                                t.to,
                                &mut index,
                                &mut pairs,
                                &mut props,
                                &mut worklist,
                            );
                            interactive.push(InteractiveTransition {
                                from: current,
                                label: Label::Input(a),
                                to,
                            });
                        }
                    } else {
                        let to =
                            intern(ls, t.to, &mut index, &mut pairs, &mut props, &mut worklist);
                        interactive.push(InteractiveTransition {
                            from: current,
                            label: Label::Input(a),
                            to,
                        });
                    }
                }
            }
        }
    }

    let name = format!("{} || {}", left.name(), right.name());
    Ok(IoImcOf::from_parts(
        name,
        signature,
        pairs.len() as u32,
        initial,
        interactive,
        markovian,
        prop_names,
        props,
    ))
}

/// The `a?`-successors of `state` in `model`, in transition order, or `state`
/// itself when it has none (the implicit input self-loop).  A state's
/// transitions are sorted by label, so the `a?` moves are one contiguous run.
fn input_targets<R: Rate>(
    model: &IoImcOf<R>,
    state: StateId,
    action: Action,
) -> impl Iterator<Item = StateId> + '_ {
    let label = Label::Input(action);
    let from = model.interactive_from(state);
    let from = &from[from.partition_point(|t| t.label < label)..];
    let run = &from[..from.partition_point(|t| t.label == label)];
    let stay = run.is_empty().then_some(state);
    run.iter().map(|t| t.to).chain(stay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IoImcBuilder;
    use crate::model::IoImc;
    use crate::Error;

    fn act(n: &str) -> Action {
        Action::new(n)
    }

    /// Sender fires `sig` after a delay; receiver waits for `sig` then fires `done`.
    fn sender_receiver() -> (IoImc, IoImc) {
        let sig = act("c_sig");
        let done = act("c_done");
        let mut a = IoImcBuilder::new("sender");
        let s = a.add_states(3);
        a.initial(s[0]);
        a.markovian(s[0], 2.0, s[1]);
        a.output(s[1], sig, s[2]);
        let sender = a.build().unwrap();

        let mut b = IoImcBuilder::new("receiver");
        let t = b.add_states(3);
        b.initial(t[0]);
        b.input(t[0], sig, t[1]);
        b.output(t[1], done, t[2]);
        let receiver = b.build().unwrap();
        (sender, receiver)
    }

    #[test]
    fn output_synchronises_with_input() {
        let (sender, receiver) = sender_receiver();
        let c = compose(&sender, &receiver).unwrap();
        assert!(c.validate().is_ok());
        // Reachable: (0,0) -rate-> (1,0) -sig!-> (2,1) -done!-> (2,2).
        assert_eq!(c.num_states(), 4);
        assert_eq!(c.num_markovian(), 1);
        assert_eq!(c.num_interactive(), 2);
        assert!(c.signature().is_output(act("c_sig")));
        assert!(c.signature().is_output(act("c_done")));
        assert!(!c.signature().is_input(act("c_sig")));
    }

    #[test]
    fn missing_input_transition_acts_as_self_loop() {
        let sig = act("c_selfloop");
        let mut a = IoImcBuilder::new("emitter");
        let s = a.add_states(2);
        a.initial(s[0]);
        a.output(s[0], sig, s[1]);
        let emitter = a.build().unwrap();

        // Listener declares the input but has no transition for it: it stays put.
        let mut b = IoImcBuilder::new("listener");
        let t = b.add_state();
        b.initial(t);
        b.declare_input(sig);
        let listener = b.build().unwrap();

        let c = compose(&emitter, &listener).unwrap();
        assert_eq!(c.num_states(), 2);
        assert_eq!(c.num_interactive(), 1);
        assert!(c.interactive()[0].label.is_output());
    }

    #[test]
    fn output_clash_is_rejected() {
        let shared = act("c_clash");
        let mut a = IoImcBuilder::new("A");
        let s0 = a.add_state();
        a.initial(s0);
        a.output(s0, shared, s0);
        let left = a.build().unwrap();
        let right = left.clone();
        assert!(matches!(
            compose(&left, &right),
            Err(Error::OutputClash { .. })
        ));
    }

    #[test]
    fn markovian_transitions_interleave() {
        let mut a = IoImcBuilder::new("A");
        let s = a.add_states(2);
        a.initial(s[0]);
        a.markovian(s[0], 1.0, s[1]);
        let left = a.build().unwrap();

        let mut b = IoImcBuilder::new("B");
        let t = b.add_states(2);
        b.initial(t[0]);
        b.markovian(t[0], 3.0, t[1]);
        let right = b.build().unwrap();

        let c = compose(&left, &right).unwrap();
        assert_eq!(c.num_states(), 4);
        assert_eq!(c.num_markovian(), 4);
        assert_eq!(c.num_interactive(), 0);
        // The initial state races both delays.
        assert_eq!(c.markovian_from(c.initial()).len(), 2);
        let total: f64 = c.markovian_from(c.initial()).iter().map(|t| t.rate).sum();
        assert!((total - 4.0).abs() < 1e-12);
    }

    #[test]
    fn shared_inputs_stay_inputs() {
        let env = act("c_env_sig");
        let make = |name: &str| {
            let mut b = IoImcBuilder::new(name);
            let s = b.add_states(2);
            b.initial(s[0]);
            b.input(s[0], env, s[1]);
            b.build().unwrap()
        };
        let c = compose(&make("L"), &make("R")).unwrap();
        assert!(c.signature().is_input(env));
        // Both move together on the shared input.
        assert_eq!(c.num_states(), 2);
        assert_eq!(c.num_interactive(), 1);
        assert!(c.interactive()[0].label.is_input());
    }

    #[test]
    fn props_are_merged() {
        let sig = act("c_prop_sig");
        let mut a = IoImcBuilder::new("A");
        let s = a.add_states(2);
        a.initial(s[0]);
        a.output(s[0], sig, s[1]);
        let pa = a.prop("a_done");
        a.set_prop(s[1], pa);
        let left = a.build().unwrap();

        let mut b = IoImcBuilder::new("B");
        let t = b.add_states(2);
        b.initial(t[0]);
        b.input(t[0], sig, t[1]);
        let pb = b.prop("b_done");
        b.set_prop(t[1], pb);
        let right = b.build().unwrap();

        let c = compose(&left, &right).unwrap();
        let a_done = c.prop("a_done").unwrap();
        let b_done = c.prop("b_done").unwrap();
        // After the synchronised output both propositions hold.
        let both: Vec<_> = c
            .states()
            .filter(|&s| c.has_prop(s, a_done) && c.has_prop(s, b_done))
            .collect();
        assert_eq!(both.len(), 1);
    }

    #[test]
    fn composition_is_commutative_up_to_size() {
        let (sender, receiver) = sender_receiver();
        let lr = compose(&sender, &receiver).unwrap();
        let rl = compose(&receiver, &sender).unwrap();
        assert_eq!(lr.num_states(), rl.num_states());
        assert_eq!(lr.num_transitions(), rl.num_transitions());
    }
}
