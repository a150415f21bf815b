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

/// The largest `left × right` pair table [`compose`] allocates: 2^17 `u32`
/// cells, 512 KiB.  Larger products index their states in a hash map.
const DENSE_CELLS: usize = 1 << 17;

/// Composes two I/O-IMCs in parallel.
///
/// Product states are numbered in the order a depth-first exploration from
/// the initial pair discovers them.  While the `left × right` pair table
/// fits 2^17 cells (512 KiB), a pair's id is one array read; larger
/// operands look pairs up in a seeded hash map instead.  Each
/// explored state's transitions form one contiguous segment, so the rows
/// are gathered straight into the model's final arrays in state order and
/// each row is sorted there, as the builder would sort it: interactive by
/// `(label, to)` without duplicates, Markovian stably by `to`.
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

    let mut product = Product {
        left,
        right,
        right_prop_map,
        index: PairIndex::new(left.num_states(), right.num_states()),
        props: Vec::new(),
        worklist: Vec::new(),
    };
    let initial = product.state(left.initial(), right.initial());

    // Every explored state's transitions, one contiguous segment per state
    // in exploration order; `rows[s]` holds the two segments of state `s`.
    let mut interactive: Vec<InteractiveTransition> = Vec::new();
    let mut markovian: Vec<MarkovianTransitionOf<R>> = Vec::new();
    let mut rows: Vec<[u32; 4]> = Vec::new();

    while let Some((current, ls, rs)) = product.worklist.pop() {
        let (interactive_lo, markovian_lo) = (interactive.len() as u32, markovian.len() as u32);

        // Markovian transitions interleave.
        for t in left.markovian_from(ls) {
            let to = product.state(t.to, rs);
            markovian.push(MarkovianTransitionOf {
                from: current,
                rate: t.rate.clone(),
                to,
            });
        }
        for t in right.markovian_from(rs) {
            let to = product.state(ls, t.to);
            markovian.push(MarkovianTransitionOf {
                from: current,
                rate: t.rate.clone(),
                to,
            });
        }

        // Interactive transitions of each side, joined by the other side's
        // matching input moves.
        for t in left.interactive_from(ls) {
            for r_to in partner_targets(right, rs, t.label) {
                let to = product.state(t.to, r_to);
                interactive.push(InteractiveTransition {
                    from: current,
                    label: t.label,
                    to,
                });
            }
        }
        for t in right.interactive_from(rs) {
            for l_to in partner_targets(left, ls, t.label) {
                let to = product.state(l_to, t.to);
                interactive.push(InteractiveTransition {
                    from: current,
                    label: t.label,
                    to,
                });
            }
        }

        rows.resize(product.props.len(), [0; 4]);
        rows[current.index()] = [
            interactive_lo,
            interactive.len() as u32,
            markovian_lo,
            markovian.len() as u32,
        ];
    }

    // Free the pair table before the rows are gathered, and each kind's
    // exploration buffer once its rows are.
    drop(product.index);
    let num_states = product.props.len();
    let mut interactive_rows = Vec::with_capacity(interactive.len());
    let mut interactive_index = Vec::with_capacity(num_states + 1);
    for &[lo, hi, _, _] in &rows {
        interactive_index.push(interactive_rows.len() as u32);
        let row = &mut interactive[lo as usize..hi as usize];
        row.sort_unstable_by_key(|t| (t.label, t.to));
        let mut last = None;
        interactive_rows.extend(row.iter().filter(|&&t| last.replace(t) != Some(t)));
    }
    interactive_index.push(interactive_rows.len() as u32);
    drop(interactive);

    let mut markovian_rows = Vec::with_capacity(markovian.len());
    let mut markovian_index = Vec::with_capacity(num_states + 1);
    for &[_, _, lo, hi] in &rows {
        markovian_index.push(markovian_rows.len() as u32);
        let row = &mut markovian[lo as usize..hi as usize];
        row.sort_by_key(|t| t.to);
        markovian_rows.extend(row.iter_mut().map(|t| MarkovianTransitionOf {
            from: t.from,
            rate: std::mem::replace(&mut t.rate, R::zero()),
            to: t.to,
        }));
    }
    markovian_index.push(markovian_rows.len() as u32);

    Ok(IoImcOf {
        name: format!("{} || {}", left.name(), right.name()),
        signature,
        num_states: num_states as u32,
        initial,
        interactive: interactive_rows,
        markovian: markovian_rows,
        prop_names,
        props: product.props,
        interactive_index,
        markovian_index,
    })
}

/// The product states discovered so far: their pair index, their
/// propositions and the ones still to explore.
struct Product<'a, R> {
    left: &'a IoImcOf<R>,
    right: &'a IoImcOf<R>,
    /// The composition's bit for each of `right`'s propositions.
    right_prop_map: Vec<u8>,
    index: PairIndex,
    /// The proposition mask of each product state, in id order.
    props: Vec<u64>,
    /// Discovered states not yet explored, with their pairs.
    worklist: Vec<(StateId, StateId, StateId)>,
}

impl<R: Rate> Product<'_, R> {
    /// The id of the product state `(l, r)`, numbered in discovery order.
    fn state(&mut self, l: StateId, r: StateId) -> StateId {
        let fresh = self.props.len() as u32;
        let id = self.index.id_or_insert(l, r, fresh);
        if id == fresh {
            let right_mask = self.right.prop_mask(r);
            let mut mask = self.left.prop_mask(l);
            for (bit, &target) in self.right_prop_map.iter().enumerate() {
                if right_mask & (1u64 << bit) != 0 {
                    mask |= 1u64 << target;
                }
            }
            self.props.push(mask);
            self.worklist.push((StateId(id), l, r));
        }
        StateId(id)
    }
}

/// Product state ids by `(left, right)` pair.
enum PairIndex {
    /// `ids[l · width + r]` is one more than the id of `(l, r)`, or 0 while
    /// the pair is undiscovered.
    Dense { ids: Vec<u32>, width: usize },
    /// Ids keyed by `l << 32 | r`, for tables larger than [`DENSE_CELLS`].
    Sparse(FastMap<u64, u32>),
}

impl PairIndex {
    fn new(left_states: usize, right_states: usize) -> PairIndex {
        match left_states.checked_mul(right_states) {
            Some(cells) if cells <= DENSE_CELLS => PairIndex::Dense {
                ids: vec![0; cells],
                width: right_states,
            },
            _ => PairIndex::Sparse(FastMap::default()),
        }
    }

    /// The id of `(l, r)`, which becomes `fresh` when the pair is new.
    #[inline]
    fn id_or_insert(&mut self, l: StateId, r: StateId, fresh: u32) -> u32 {
        match self {
            PairIndex::Dense { ids, width } => {
                let cell = &mut ids[l.index() * *width + r.index()];
                if *cell == 0 {
                    *cell = fresh + 1;
                }
                *cell - 1
            }
            PairIndex::Sparse(map) => *map
                .entry(u64::from(l.raw()) << 32 | u64::from(r.raw()))
                .or_insert(fresh),
        }
    }
}

/// The states `other` moves to, from `state`, when its partner takes a
/// `label` move: `state` itself when `other` does not take part, none when
/// the move is an input that `other` drives with its own output (that joint
/// move is explored from `other`'s side), and otherwise `other`'s `a?`
/// successors in transition order, or `state` when it has none (the
/// implicit input self-loop).  A state's transitions are sorted by label,
/// so its `a?` moves are one contiguous run.
fn partner_targets<R: Rate>(
    other: &IoImcOf<R>,
    state: StateId,
    label: Label,
) -> impl Iterator<Item = StateId> + '_ {
    let (run, stay): (&[InteractiveTransition], _) = match label {
        Label::Input(a) if other.signature().is_output(a) => (&[], None),
        Label::Input(a) | Label::Output(a) if other.signature().is_input(a) => {
            let run = input_run(other, state, a);
            (run, run.is_empty().then_some(state))
        }
        _ => (&[], Some(state)),
    };
    run.iter().map(|t| t.to).chain(stay)
}

/// The `a?` transitions of `state` in `model`.
fn input_run<R: Rate>(
    model: &IoImcOf<R>,
    state: StateId,
    action: Action,
) -> &[InteractiveTransition] {
    let label = Label::Input(action);
    let from = model.interactive_from(state);
    let from = &from[from.partition_point(|t| t.label < label)..];
    &from[..from.partition_point(|t| t.label == label)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::minimize;
    use crate::bisim::tests::{bytes_of, large_random_model, lift, random_model};
    use crate::builder::IoImcBuilder;
    use crate::hide::into_hidden;
    use crate::model::IoImc;
    use crate::rate::RateForm;
    use crate::rename::rename;
    use crate::signature::Signature;
    use crate::Error;
    use std::collections::{BTreeMap, BTreeSet};

    fn act(n: &str) -> Action {
        Action::new(n)
    }

    /// The composition as it was built before the pair table and the row
    /// gather: product states looked up in a hash map by `(left, right)`
    /// pair, transitions collected in exploration order and grouped and
    /// sorted by [`IoImcOf::from_parts`].  [`compose`] must equal it byte
    /// for byte.
    fn reference_compose<R: Rate>(left: &IoImcOf<R>, right: &IoImcOf<R>) -> Result<IoImcOf<R>> {
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
                        let to =
                            intern(t.to, rs, &mut index, &mut pairs, &mut props, &mut worklist);
                        interactive.push(InteractiveTransition {
                            from: current,
                            label: t.label,
                            to,
                        });
                    }
                    Label::Output(a) => {
                        if right.signature().is_input(a) {
                            for r_to in reference_input_targets(right, rs, a) {
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
                            for r_to in reference_input_targets(right, rs, a) {
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
                        let to =
                            intern(ls, t.to, &mut index, &mut pairs, &mut props, &mut worklist);
                        interactive.push(InteractiveTransition {
                            from: current,
                            label: t.label,
                            to,
                        });
                    }
                    Label::Output(a) => {
                        if left.signature().is_input(a) {
                            for l_to in reference_input_targets(left, ls, a) {
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
                            for l_to in reference_input_targets(left, ls, a) {
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
    fn reference_input_targets<R: Rate>(
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

    /// Panics unless [`compose`] gives the reference's bytes on `left ∥ right`.
    fn assert_composes_like_the_reference<R: crate::codec::RateCodec>(
        left: &IoImcOf<R>,
        right: &IoImcOf<R>,
    ) {
        let fast = compose(left, right).expect("composable");
        let reference = reference_compose(left, right).expect("composable");
        assert!(
            bytes_of(&fast) == bytes_of(&reference),
            "{} || {}: the composition differs from the reference",
            left.name(),
            right.name()
        );
    }

    /// `model` with its actions renamed so that it composes with another
    /// random model: its input `in0` becomes the output `out0` it hears,
    /// its output `out0` the input `in0` it drives, `in1` stays a shared
    /// input, and its other actions are its own.
    fn partner_of(model: &IoImc) -> IoImc {
        let a = |name: &str| act(&format!("bisim_random_{name}"));
        let mut map = BTreeMap::new();
        map.insert(a("in0"), a("out0"));
        map.insert(a("out0"), a("in0"));
        map.insert(a("in2"), act("compose_partner_in2"));
        for i in 1..3 {
            map.insert(
                a(&format!("out{i}")),
                act(&format!("compose_partner_out{i}")),
            );
        }
        for i in 0..3 {
            map.insert(
                a(&format!("tau{i}")),
                act(&format!("compose_partner_tau{i}")),
            );
        }
        rename(model, &map).expect("the renaming is one-to-one")
    }

    #[test]
    fn random_compositions_equal_the_reference() {
        let (small, large, above) = if cfg!(miri) { (4, 0, 0) } else { (128, 6, 3) };
        let pairs = (0..small)
            .map(|seed| (random_model(seed), random_model(seed + 1000)))
            .chain((0..large).map(|seed| (random_model(seed), large_random_model(seed))))
            // Seeds whose products pass the table budget (368 × 369 and more).
            .chain(
                [(21, 26), (2, 35), (35, 39)]
                    .into_iter()
                    .take(above)
                    .map(|(l, r)| (large_random_model(l), large_random_model(r))),
            );
        let mut sparse = false;
        for (left, right) in pairs {
            let right = partner_of(&right);
            sparse |= matches!(
                PairIndex::new(left.num_states(), right.num_states()),
                PairIndex::Sparse(_)
            );
            assert_composes_like_the_reference(&left, &right);
            assert_composes_like_the_reference(&right, &left);
            assert_composes_like_the_reference(&lift(&left), &lift(&right));
        }
        assert!(cfg!(miri) || sparse, "some pair is above the table budget");
    }

    #[test]
    fn operands_above_the_table_budget_compose_like_the_reference() {
        // Two 400-state chains in lockstep: 160,000 pairs, 400 product states.
        let tick = act("c_lockstep_tick");
        let n = if cfg!(miri) { 20 } else { 400 };
        let mut a = IoImcBuilder::new("driver");
        let s = a.add_states(n);
        a.initial(s[0]);
        for i in 0..n - 1 {
            a.output(s[i], tick, s[i + 1]);
            a.markovian(s[i + 1], 1.0 + i as f64, s[i + 1]);
        }
        let driver = a.build().unwrap();
        let mut b = IoImcBuilder::new("follower");
        let t = b.add_states(n);
        b.initial(t[0]);
        for i in 0..n - 1 {
            b.input(t[i], tick, t[i + 1]);
        }
        let end = b.prop("c_lockstep_end");
        b.set_prop(t[n - 1], end);
        let follower = b.build().unwrap();

        if !cfg!(miri) {
            assert!(matches!(PairIndex::new(n, n), PairIndex::Sparse(_)));
        }
        let product = compose(&driver, &follower).unwrap();
        assert_eq!(product.num_states(), n);
        assert_composes_like_the_reference(&driver, &follower);
        assert_composes_like_the_reference(&follower, &driver);
        assert_composes_like_the_reference(&lift(&driver), &lift(&follower));
    }

    /// `$model`, a model of the corpus converter's own build of this
    /// crate, rebuilt in this build's types through its public accessors;
    /// `$convert` turns the rate `$rate` into one of this build's.
    macro_rules! rebuilt {
        ($model:expr, |$rate:ident| $convert:expr) => {{
            let m = $model;
            let action = |name: &str| Action::new(name);
            let mut signature = Signature::new();
            for a in m.signature().inputs() {
                signature.add_input(action(a.name()));
            }
            for a in m.signature().outputs() {
                signature.add_output(action(a.name()));
            }
            for a in m.signature().internals() {
                signature.add_internal(action(a.name()));
            }
            let interactive = m
                .interactive()
                .iter()
                .map(|t| {
                    let a = action(t.label.action().name());
                    let label = if t.label.is_input() {
                        Label::Input(a)
                    } else if t.label.is_output() {
                        Label::Output(a)
                    } else {
                        Label::Internal(a)
                    };
                    InteractiveTransition {
                        from: StateId(t.from.raw()),
                        label,
                        to: StateId(t.to.raw()),
                    }
                })
                .collect();
            let markovian = m
                .markovian()
                .iter()
                .map(|t| MarkovianTransitionOf {
                    from: StateId(t.from.raw()),
                    rate: {
                        let $rate = &t.rate;
                        $convert
                    },
                    to: StateId(t.to.raw()),
                })
                .collect();
            IoImcOf::from_parts(
                m.name().to_owned(),
                signature,
                m.num_states() as u32,
                StateId(m.initial().raw()),
                interactive,
                markovian,
                m.prop_names().to_vec(),
                m.states().map(|s| m.prop_mask(s)).collect(),
            )
        }};
    }

    /// Aggregates `community` as the engine does (every member minimised,
    /// then the cheapest communicating pair composed, the outputs nobody
    /// needs hidden and the product minimised), and checks every
    /// composition against the reference.  Returns the number of steps.
    fn assert_aggregation_composes_like_the_reference<R: crate::codec::RateCodec>(
        community: Vec<IoImcOf<R>>,
        keep: &BTreeSet<Action>,
    ) -> usize {
        let mut community: Vec<IoImcOf<R>> = community.into_iter().map(minimize).collect();
        let mut steps = 0;
        while community.len() > 1 {
            let (i, j) = cheapest_pair(&community);
            let right = community.swap_remove(j);
            let left = community.swap_remove(i);
            assert_composes_like_the_reference(&left, &right);
            let product = compose(&left, &right).unwrap();
            let needed: BTreeSet<Action> = community
                .iter()
                .flat_map(|m| m.signature().inputs().collect::<Vec<_>>())
                .chain(keep.iter().copied())
                .collect();
            let hidden: Vec<Action> = product
                .signature()
                .outputs()
                .filter(|a| !needed.contains(a))
                .collect();
            community.push(minimize(into_hidden(product, &hidden).unwrap()));
            steps += 1;
        }
        steps
    }

    /// The engine's choice of the next pair, `i < j`: communicating pairs
    /// first, then the smallest product of state counts, then the lowest
    /// indices.
    fn cheapest_pair<R: Rate>(community: &[IoImcOf<R>]) -> (usize, usize) {
        let mut best = None;
        for i in 0..community.len() {
            for j in i + 1..community.len() {
                let (a, b) = (community[i].signature(), community[j].signature());
                let talks =
                    a.outputs().any(|o| b.is_input(o)) || b.outputs().any(|o| a.is_input(o));
                let cost = community[i].num_states() * community[j].num_states();
                let key = (!talks, cost, i, j);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let (_, _, i, j) = best.expect("two members or more");
        (i, j)
    }

    #[test]
    #[cfg_attr(miri, ignore = "converts and aggregates the whole corpus")]
    fn corpus_compositions_equal_the_reference() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/corpus");
        let mut corpus: Vec<_> = std::fs::read_dir(dir)
            .expect("corpus directory")
            .map(|entry| entry.expect("corpus entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "dft"))
            .collect();
        corpus.sort();
        assert!(corpus.len() > 5);
        let mut steps = 0;
        for path in &corpus {
            let text = std::fs::read_to_string(path).expect("readable corpus file");
            let dft = dft::galileo::parse(&text).expect("corpus tree parses");

            let community = dft_core::convert::convert(&dft).expect("tree converts");
            let keep: BTreeSet<Action> = std::iter::once(community.top_failure)
                .chain(community.top_repair)
                .map(|a| Action::new(a.name()))
                .collect();
            let members: Vec<IoImc> = community
                .models
                .iter()
                .map(|m| rebuilt!(m, |rate| *rate))
                .collect();
            steps += assert_aggregation_composes_like_the_reference(members, &keep);

            let (community, _) =
                dft_core::convert::convert_parametric(&dft).expect("tree converts");
            let members: Vec<IoImcOf<RateForm>> = community
                .models
                .iter()
                .map(|m| {
                    rebuilt!(m, |rate| {
                        let mut form = RateForm::zero();
                        for &(slot, coefficient) in rate.terms() {
                            form.add_assign(&RateForm::scaled_var(slot, coefficient));
                        }
                        form
                    })
                })
                .collect();
            steps += assert_aggregation_composes_like_the_reference(members, &keep);
        }
        assert!(steps > 100, "only {steps} compositions");
    }
}
