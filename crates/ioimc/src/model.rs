//! The I/O-IMC model structure.
//!
//! An [`IoImc`] is an immutable, validated model: a finite set of states, an
//! initial state, interactive transitions labelled with input/output/internal
//! actions, Markovian transitions labelled with rates, an action signature and an
//! optional labelling of states with atomic propositions (used, for instance, to
//! mark "system down" states for unavailability analysis).
//!
//! Models are created with [`IoImcBuilder`](crate::builder::IoImcBuilder) and
//! transformed with the operations in [`compose`](crate::compose),
//! [`hide`](crate::hide), [`rename`](crate::rename) and [`bisim`](crate::bisim).

use crate::action::Action;
use crate::rate::{Rate, RateForm};
use crate::signature::Signature;
use crate::{Error, Result};
use std::fmt;

/// Identifier of a state inside one particular [`IoImc`].
///
/// State ids are dense indices `0..num_states` and are only meaningful relative to
/// the model that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// Creates a state id from a raw index.
    pub fn new(index: u32) -> StateId {
        StateId(index)
    }

    /// The raw index of this state.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` this id wraps — the codec's wire representation.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of an atomic proposition of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PropId(pub(crate) u8);

impl PropId {
    /// The raw index of this proposition (bit position in the per-state mask).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The label of an interactive transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// A delayable input action `a?`.
    Input(Action),
    /// An immediate output action `a!`.
    Output(Action),
    /// An immediate internal action `a;`.
    Internal(Action),
}

impl Label {
    /// The action carried by this label.
    pub fn action(self) -> Action {
        match self {
            Label::Input(a) | Label::Output(a) | Label::Internal(a) => a,
        }
    }

    /// Returns `true` for output and internal labels, which happen without letting
    /// time pass (the *maximal progress* assumption).
    pub fn is_immediate(self) -> bool {
        matches!(self, Label::Output(_) | Label::Internal(_))
    }

    /// Returns `true` for input labels.
    pub fn is_input(self) -> bool {
        matches!(self, Label::Input(_))
    }

    /// Returns `true` for output labels.
    pub fn is_output(self) -> bool {
        matches!(self, Label::Output(_))
    }

    /// Returns `true` for internal labels.
    pub fn is_internal(self) -> bool {
        matches!(self, Label::Internal(_))
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Input(a) => write!(f, "{}?", a.name()),
            Label::Output(a) => write!(f, "{}!", a.name()),
            Label::Internal(a) => write!(f, "{};", a.name()),
        }
    }
}

/// An interactive (input/output/internal) transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteractiveTransition {
    /// Source state.
    pub from: StateId,
    /// Transition label.
    pub label: Label,
    /// Target state.
    pub to: StateId,
}

/// A Markovian transition with an exponential rate of type `R`
/// (see [`Rate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkovianTransitionOf<R> {
    /// Source state.
    pub from: StateId,
    /// Rate of the exponential delay; always valid per [`Rate::is_valid`] (for
    /// `f64`: finite and strictly positive).
    pub rate: R,
    /// Target state.
    pub to: StateId,
}

/// A Markovian transition with a concrete numeric rate.
pub type MarkovianTransition = MarkovianTransitionOf<f64>;

/// An input/output interactive Markov chain, generic over its rate type.
///
/// `R = f64` ([`IoImc`]) is the classical numeric model; `R = `[`RateForm`]
/// ([`ParametricIoImc`]) carries symbolic linear rate forms through the same
/// composition/hiding/aggregation pipeline, enabling one aggregation to serve a
/// whole sweep of rate valuations.
///
/// See the [crate documentation](crate) for the modelling background and the
/// builder example.
#[derive(Debug, Clone)]
pub struct IoImcOf<R> {
    pub(crate) name: String,
    pub(crate) signature: Signature,
    pub(crate) num_states: u32,
    pub(crate) initial: StateId,
    pub(crate) interactive: Vec<InteractiveTransition>,
    pub(crate) markovian: Vec<MarkovianTransitionOf<R>>,
    pub(crate) prop_names: Vec<String>,
    pub(crate) props: Vec<u64>,
    /// `interactive` is sorted by source state; `interactive_index[s]..interactive_index[s+1]`
    /// is the range of transitions leaving state `s`.
    pub(crate) interactive_index: Vec<u32>,
    /// Same layout as `interactive_index`, for `markovian`.
    pub(crate) markovian_index: Vec<u32>,
}

/// An I/O-IMC with concrete numeric rates (the classical model of the paper).
pub type IoImc = IoImcOf<f64>;

/// An I/O-IMC whose Markovian transitions carry symbolic [`RateForm`] rates.
pub type ParametricIoImc = IoImcOf<RateForm>;

impl<R: Rate> IoImcOf<R> {
    /// Assembles a model from raw parts, sorting the transition lists and building
    /// the per-state index.  The caller (the builder and the in-crate operations)
    /// must already have validated states, rates and the signature.
    ///
    /// Interactive transitions end up sorted by `(from, label, to)` without
    /// duplicates, Markovian ones stably sorted by `(from, to)`: parallel rates
    /// keep their insertion order, which fixes the order in which
    /// [`quotient`](crate::bisim::quotient) sums them.  Both lists are grouped
    /// by a stable counting sort on the source state, whose prefix sums are
    /// the per-state index, and then each state's slice is sorted on its own.
    ///
    /// Only the passes whose rows really must be regrouped or re-sorted
    /// come through here: the builder and the codec (rows in any order),
    /// [τ-elimination](crate::bisim::eliminate_deterministic_tau)
    /// (redirected targets) and the [`quotient`](crate::bisim::quotient)
    /// (rows merged per block).  [`compose`](crate::compose::compose) does
    /// not: it explores each product state's row as one contiguous segment,
    /// so it gathers the rows into their final arrays in state order and
    /// sorts each one there the same way.  The passes that keep the order of an
    /// existing model take it by value, edit its rows and indexes in place
    /// and give the same model this rebuild would: reachability, the
    /// closing of inputs and the maximal-progress cut drop rows or states
    /// and renumber the rest in order (see
    /// [`restrict_to_reachable`](Self::restrict_to_reachable)), and hiding
    /// and renaming re-sort only the rows whose labels changed.  Their
    /// borrowing forms clone the model first.
    #[expect(clippy::too_many_arguments, reason = "mirrors the model's fields")]
    pub(crate) fn from_parts(
        name: String,
        signature: Signature,
        num_states: u32,
        initial: StateId,
        mut interactive: Vec<InteractiveTransition>,
        mut markovian: Vec<MarkovianTransitionOf<R>>,
        prop_names: Vec<String>,
        mut props: Vec<u64>,
    ) -> IoImcOf<R> {
        let mut interactive_index = group_by_source(&mut interactive, num_states, |t| t.from);
        for w in interactive_index.windows(2) {
            interactive[w[0] as usize..w[1] as usize].sort_unstable_by_key(|t| (t.label, t.to));
        }
        let len = interactive.len();
        interactive.dedup();
        if interactive.len() < len {
            interactive_index = group_by_source(&mut interactive, num_states, |t| t.from);
        }
        let markovian_index = group_by_source(&mut markovian, num_states, |t| t.from);
        for w in markovian_index.windows(2) {
            markovian[w[0] as usize..w[1] as usize].sort_by_key(|t| t.to);
        }
        props.resize(num_states as usize, 0);

        IoImcOf {
            name,
            signature,
            num_states,
            initial,
            interactive,
            markovian,
            prop_names,
            props,
            interactive_index,
            markovian_index,
        }
    }

    /// The human-readable name of the model.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the model (useful after composition for progress reporting).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The action signature of the model.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states as usize
    }

    /// Number of interactive plus Markovian transitions.
    pub fn num_transitions(&self) -> usize {
        self.interactive.len() + self.markovian.len()
    }

    /// Number of interactive transitions.
    pub fn num_interactive(&self) -> usize {
        self.interactive.len()
    }

    /// Number of Markovian transitions.
    pub fn num_markovian(&self) -> usize {
        self.markovian.len()
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Iterates over all states.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.num_states).map(StateId)
    }

    /// All interactive transitions, sorted by source state.
    pub fn interactive(&self) -> &[InteractiveTransition] {
        &self.interactive
    }

    /// All Markovian transitions, sorted by source state.
    pub fn markovian(&self) -> &[MarkovianTransitionOf<R>] {
        &self.markovian
    }

    /// Interactive transitions leaving `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this model.
    pub fn interactive_from(&self, state: StateId) -> &[InteractiveTransition] {
        let lo = self.interactive_index[state.index()] as usize;
        let hi = self.interactive_index[state.index() + 1] as usize;
        &self.interactive[lo..hi]
    }

    /// Markovian transitions leaving `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this model.
    pub fn markovian_from(&self, state: StateId) -> &[MarkovianTransitionOf<R>] {
        let lo = self.markovian_index[state.index()] as usize;
        let hi = self.markovian_index[state.index() + 1] as usize;
        &self.markovian[lo..hi]
    }

    /// Total exit rate of `state` (sum of its Markovian transition rates).
    pub fn exit_rate(&self, state: StateId) -> R {
        let mut total = R::zero();
        for t in self.markovian_from(state) {
            total.add_assign(&t.rate);
        }
        total
    }

    /// Returns `true` if `state` has an outgoing output or internal transition.
    ///
    /// Under the maximal-progress assumption no time can pass in such a state, so
    /// its Markovian transitions can never fire.
    pub fn is_urgent(&self, state: StateId) -> bool {
        self.interactive_from(state)
            .iter()
            .any(|t| t.label.is_immediate())
    }

    /// Names of the atomic propositions of this model, in [`PropId`] order.
    pub fn prop_names(&self) -> &[String] {
        &self.prop_names
    }

    /// Looks up a proposition by name.
    pub fn prop(&self, name: &str) -> Option<PropId> {
        self.prop_names
            .iter()
            .position(|p| p == name)
            .map(|i| PropId(i as u8))
    }

    /// The raw proposition bitmask of `state`.
    pub fn prop_mask(&self, state: StateId) -> u64 {
        self.props[state.index()]
    }

    /// Returns `true` if `state` is labelled with `prop`.
    pub fn has_prop(&self, state: StateId, prop: PropId) -> bool {
        self.props[state.index()] & (1u64 << prop.0) != 0
    }

    /// All states labelled with `prop`.
    pub fn states_with_prop(&self, prop: PropId) -> Vec<StateId> {
        self.states().filter(|&s| self.has_prop(s, prop)).collect()
    }

    /// Checks internal consistency: state ids in range, positive finite rates,
    /// transition labels consistent with the signature, proposition vector length.
    ///
    /// Models produced by the builder and the in-crate operations always pass; this
    /// is exposed for debugging and for property-based tests.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        self.signature.validate()?;
        let check_state = |s: StateId| -> Result<()> {
            if s.0 >= self.num_states {
                Err(Error::UnknownState {
                    state: s.0,
                    num_states: self.num_states,
                })
            } else {
                Ok(())
            }
        };
        check_state(self.initial)?;
        for t in &self.interactive {
            check_state(t.from)?;
            check_state(t.to)?;
            let ok = match t.label {
                Label::Input(a) => self.signature.is_input(a),
                Label::Output(a) => self.signature.is_output(a),
                Label::Internal(a) => self.signature.is_internal(a),
            };
            if !ok {
                return Err(Error::ConflictingSignature {
                    action: t.label.action(),
                });
            }
        }
        for t in &self.markovian {
            check_state(t.from)?;
            check_state(t.to)?;
            if !t.rate.is_valid() {
                return Err(Error::InvalidRate {
                    rate: t.rate.to_string(),
                });
            }
        }
        if self.props.len() != self.num_states as usize {
            return Err(Error::UnknownState {
                state: self.props.len() as u32,
                num_states: self.num_states,
            });
        }
        Ok(())
    }

    /// Restricts the model to the states reachable from the initial state,
    /// renumbering states densely.  Transitions from unreachable states are
    /// dropped.
    ///
    /// A clone of `self` handed to the crate's owning restriction, which
    /// returns the model itself when every state is reachable and otherwise
    /// compacts it in place.  No row is regrouped or re-sorted: the
    /// reachable states are renumbered in their old order, and a renumbering
    /// that keeps the order of states maps a row sorted by target (and by
    /// `(label, target)` for interactive rows) to a row sorted the same way,
    /// with distinct entries still distinct and parallel rates in their old
    /// order.  The per-state index is rewritten while the rows move.
    ///
    /// Closing inputs ([`into_closed`](crate::closed::into_closed)), the
    /// [maximal-progress cut](crate::bisim::cut_maximal_progress),
    /// [hiding](crate::hide::into_hidden) and [renaming](crate::rename::rename)
    /// keep a model's order in the same way and edit it in place too.  The
    /// builder, the codec, [composition](crate::compose::compose),
    /// [τ-elimination](crate::bisim::eliminate_deterministic_tau) and the
    /// [quotient](crate::bisim::quotient) make rows out of order and sort
    /// them again.
    pub fn restrict_to_reachable(&self) -> IoImcOf<R> {
        self.clone().into_reachable()
    }

    /// [`restrict_to_reachable`](Self::restrict_to_reachable) for a model
    /// the caller owns: `self` itself when every state is reachable, and
    /// otherwise `self` compacted in place.
    pub(crate) fn into_reachable(self) -> IoImcOf<R> {
        match self.reachable_states(&|_| true, &|_| true) {
            None => self,
            Some(reachable) => self.compact(&reachable, &|_| true, &|_| true),
        }
    }

    /// The model without the interactive transitions `keep` rejects and
    /// without the Markovian rows of the states `timed` rejects, restricted
    /// to the states that stay reachable: one search over the kept
    /// transitions and one in-place compaction, which give the same model
    /// as filtering through [`from_parts`](Self::from_parts) and then
    /// calling [`restrict_to_reachable`](Self::restrict_to_reachable).
    pub(crate) fn retain_reachable(
        self,
        keep: &impl Fn(&InteractiveTransition) -> bool,
        timed: &impl Fn(StateId) -> bool,
    ) -> IoImcOf<R> {
        let reachable = self
            .reachable_states(keep, timed)
            .unwrap_or_else(|| vec![true; self.num_states as usize]);
        self.compact(&reachable, keep, timed)
    }

    /// The model on the same states without the Markovian rows of the
    /// states `urgent` accepts: the one compaction behind the
    /// [maximal-progress cut](crate::bisim::cut_maximal_progress).
    pub(crate) fn without_rates_of(self, urgent: &impl Fn(StateId) -> bool) -> IoImcOf<R> {
        let every_state = vec![true; self.num_states as usize];
        self.compact(&every_state, &|_| true, &|s| !urgent(s))
    }

    /// Whether every state is reachable from the initial state.
    pub(crate) fn is_all_reachable(&self) -> bool {
        self.reachable_states(&|_| true, &|_| true).is_none()
    }

    /// Marks the states reachable from the initial state over the
    /// interactive transitions `keep` admits and the Markovian rows of the
    /// states `timed` admits; `None` when every state is reachable.
    fn reachable_states(
        &self,
        keep: &impl Fn(&InteractiveTransition) -> bool,
        timed: &impl Fn(StateId) -> bool,
    ) -> Option<Vec<bool>> {
        let n = self.num_states as usize;
        let mut reachable = vec![false; n];
        let mut stack = vec![self.initial];
        reachable[self.initial.index()] = true;
        let mut num_reachable = 1;
        while let Some(s) = stack.pop() {
            let moves = self.interactive_from(s).iter().filter(|t| keep(t));
            let delays = if timed(s) {
                self.markovian_from(s)
            } else {
                &[]
            };
            for to in moves.map(|t| t.to).chain(delays.iter().map(|t| t.to)) {
                if !reachable[to.index()] {
                    reachable[to.index()] = true;
                    num_reachable += 1;
                    stack.push(to);
                }
            }
        }
        (num_reachable < n).then_some(reachable)
    }

    /// Keeps, in place, the rows `keep` and `timed` admit of the `reachable`
    /// states, which must be closed under those rows, renumbered in state
    /// order.
    ///
    /// State `s` becomes state `remap[s] <= s`, so every kept row moves to a
    /// place at or before its old one: the write cursors never pass the
    /// read cursors, a row is read before anything is written over it, and
    /// an index entry is overwritten only after its old value was read.
    /// Rates move by swaps, never clones.
    fn compact(
        mut self,
        reachable: &[bool],
        keep: &impl Fn(&InteractiveTransition) -> bool,
        timed: &impl Fn(StateId) -> bool,
    ) -> IoImcOf<R> {
        let mut remap = vec![u32::MAX; reachable.len()];
        let mut num_states = 0;
        for (slot, _) in remap.iter_mut().zip(reachable).filter(|(_, &r)| r) {
            *slot = num_states;
            num_states += 1;
        }
        let to = |t: StateId| StateId(remap[t.index()]);
        let (mut interactive_len, mut markovian_len) = (0, 0);
        let (mut interactive_lo, mut markovian_lo) = (0, 0);
        for (s, &kept) in reachable.iter().enumerate() {
            let interactive_hi = self.interactive_index[s + 1] as usize;
            let markovian_hi = self.markovian_index[s + 1] as usize;
            if kept {
                let from = StateId(remap[s]);
                for i in interactive_lo..interactive_hi {
                    let t = self.interactive[i];
                    if keep(&t) {
                        self.interactive[interactive_len] = InteractiveTransition {
                            from,
                            label: t.label,
                            to: to(t.to),
                        };
                        interactive_len += 1;
                    }
                }
                if timed(StateId(s as u32)) {
                    for i in markovian_lo..markovian_hi {
                        self.markovian.swap(markovian_len, i);
                        let t = &mut self.markovian[markovian_len];
                        t.from = from;
                        t.to = to(t.to);
                        markovian_len += 1;
                    }
                }
                let new = from.index();
                self.interactive_index[new + 1] = interactive_len as u32;
                self.markovian_index[new + 1] = markovian_len as u32;
                self.props[new] = self.props[s];
            }
            interactive_lo = interactive_hi;
            markovian_lo = markovian_hi;
        }
        let n = num_states as usize;
        self.interactive.truncate(interactive_len);
        self.markovian.truncate(markovian_len);
        self.interactive_index.truncate(n + 1);
        self.markovian_index.truncate(n + 1);
        self.props.truncate(n);
        // A model that lives on, as a community member or in a session
        // cache, should not keep the room of the rows that were dropped.
        self.interactive.shrink_to_fit();
        self.markovian.shrink_to_fit();
        self.initial = to(self.initial);
        self.num_states = num_states;
        self
    }

    /// The model with every interactive label mapped through `relabel` and
    /// the given signature, edited in place: the one pass behind
    /// [hiding](crate::hide::into_hidden) and [`rename`](crate::rename).
    ///
    /// `relabel` must be injective on the labels of the model, which both
    /// callers guarantee (hiding turns outputs into internals, and an action
    /// is never both; renaming rejects collisions), so no row gains a
    /// duplicate.  Only the rows with a changed label are sorted again; the
    /// Markovian rows and both indexes stay as they are.
    pub(crate) fn relabel(
        mut self,
        signature: Signature,
        relabel: impl Fn(Label) -> Label,
    ) -> IoImcOf<R> {
        for w in self.interactive_index.windows(2) {
            let row = &mut self.interactive[w[0] as usize..w[1] as usize];
            let mut changed = false;
            for t in row.iter_mut() {
                let label = relabel(t.label);
                changed |= label != t.label;
                t.label = label;
            }
            if changed {
                row.sort_unstable_by_key(|t| (t.label, t.to));
                debug_assert!(
                    row.windows(2).all(|pair| pair[0] != pair[1]),
                    "an injective relabelling keeps rows free of duplicates"
                );
            }
        }
        self.signature = signature;
        self
    }

    /// Maps every Markovian rate through `f`, keeping states, interactive
    /// transitions, signature and propositions unchanged.
    ///
    /// This is how a parametric model is *instantiated*: evaluating each
    /// [`RateForm`] against a valuation yields the numeric model for that rate
    /// assignment — without re-running composition or aggregation.  (It also
    /// lifts rate-free models, such as gate I/O-IMCs, between rate types.)
    pub fn map_rates<R2: Rate>(&self, mut f: impl FnMut(&R) -> R2) -> IoImcOf<R2> {
        IoImcOf {
            name: self.name.clone(),
            signature: self.signature.clone(),
            num_states: self.num_states,
            initial: self.initial,
            interactive: self.interactive.clone(),
            markovian: self
                .markovian
                .iter()
                .map(|t| MarkovianTransitionOf {
                    from: t.from,
                    rate: f(&t.rate),
                    to: t.to,
                })
                .collect(),
            prop_names: self.prop_names.clone(),
            props: self.props.clone(),
            interactive_index: self.interactive_index.clone(),
            markovian_index: self.markovian_index.clone(),
        }
    }
}

/// Stably reorders `list` by source state (a counting sort) and returns the
/// per-state index: the transitions leaving state `s` end up in
/// `list[index[s]..index[s + 1]]`.  Elements are moved by swaps along the
/// cycles of the permutation, never cloned.
fn group_by_source<T>(list: &mut [T], num_states: u32, from: impl Fn(&T) -> StateId) -> Vec<u32> {
    let mut index = vec![0u32; num_states as usize + 1];
    for t in list.iter() {
        index[from(t).index() + 1] += 1;
    }
    for i in 1..index.len() {
        index[i] += index[i - 1];
    }
    if list.windows(2).all(|w| from(&w[0]) <= from(&w[1])) {
        return index;
    }
    let mut next = index.clone();
    let mut dest: Vec<u32> = list
        .iter()
        .map(|t| {
            let slot = &mut next[from(t).index()];
            *slot += 1;
            *slot - 1
        })
        .collect();
    for i in 0..list.len() {
        while dest[i] as usize != i {
            let j = dest[i] as usize;
            list.swap(i, j);
            dest.swap(i, j);
        }
    }
    index
}

impl<R: Rate> fmt::Display for IoImcOf<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "I/O-IMC '{}': {} states, {} interactive + {} Markovian transitions",
            self.name,
            self.num_states,
            self.interactive.len(),
            self.markovian.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IoImcBuilder;

    fn act(n: &str) -> Action {
        Action::new(n)
    }

    fn sample() -> IoImc {
        let mut b = IoImcBuilder::new("sample");
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let s3 = b.add_state();
        b.initial(s0);
        b.markovian(s0, 1.5, s1);
        b.input(s0, act("go"), s2);
        b.output(s1, act("done"), s3);
        b.internal(s2, act("step"), s3);
        let failed = b.prop("failed");
        b.set_prop(s3, failed);
        b.build().unwrap()
    }

    #[test]
    fn accessors_report_structure() {
        let m = sample();
        assert_eq!(m.num_states(), 4);
        assert_eq!(m.num_interactive(), 3);
        assert_eq!(m.num_markovian(), 1);
        assert_eq!(m.num_transitions(), 4);
        assert_eq!(m.initial(), StateId::new(0));
        assert_eq!(m.name(), "sample");
        assert!(m.validate().is_ok());
    }

    #[test]
    fn per_state_indices_partition_transitions() {
        let m = sample();
        let total: usize = m.states().map(|s| m.interactive_from(s).len()).sum();
        assert_eq!(total, m.num_interactive());
        let total_m: usize = m.states().map(|s| m.markovian_from(s).len()).sum();
        assert_eq!(total_m, m.num_markovian());
        assert_eq!(m.interactive_from(StateId::new(1)).len(), 1);
        assert_eq!(m.markovian_from(StateId::new(0)).len(), 1);
        assert!((m.exit_rate(StateId::new(0)) - 1.5).abs() < 1e-12);
        assert_eq!(m.exit_rate(StateId::new(3)), 0.0);
    }

    #[test]
    fn urgency() {
        let m = sample();
        // s0 has only a Markovian and an input transition: not urgent.
        assert!(!m.is_urgent(StateId::new(0)));
        // s1 has an output and s2 an internal transition: both urgent.
        assert!(m.is_urgent(StateId::new(1)));
        assert!(m.is_urgent(StateId::new(2)));
    }

    #[test]
    fn props_round_trip() {
        let m = sample();
        let failed = m.prop("failed").unwrap();
        assert!(m.has_prop(StateId::new(3), failed));
        assert!(!m.has_prop(StateId::new(0), failed));
        assert_eq!(m.states_with_prop(failed), vec![StateId::new(3)]);
        assert!(m.prop("nonexistent").is_none());
        assert_eq!(m.prop_names(), &["failed".to_string()]);
    }

    #[test]
    fn labels_classify_and_display() {
        let a = act("sig");
        assert!(Label::Output(a).is_immediate());
        assert!(Label::Internal(a).is_immediate());
        assert!(!Label::Input(a).is_immediate());
        assert!(Label::Input(a).is_input());
        assert!(Label::Output(a).is_output());
        assert!(Label::Internal(a).is_internal());
        assert_eq!(Label::Input(a).to_string(), "sig?");
        assert_eq!(Label::Output(a).to_string(), "sig!");
        assert_eq!(Label::Internal(a).to_string(), "sig;");
        assert_eq!(Label::Output(a).action(), a);
    }

    #[test]
    fn restrict_to_reachable_drops_orphans() {
        let mut b = IoImcBuilder::new("orphans");
        let s0 = b.add_state();
        let s1 = b.add_state();
        let _orphan = b.add_state();
        b.initial(s0);
        b.markovian(s0, 1.0, s1);
        let m = b.build().unwrap();
        assert_eq!(m.num_states(), 3);
        let trimmed = m.restrict_to_reachable();
        assert_eq!(trimmed.num_states(), 2);
        assert_eq!(trimmed.num_markovian(), 1);
        assert!(trimmed.validate().is_ok());
    }

    #[test]
    fn display_mentions_counts() {
        let m = sample();
        let text = m.to_string();
        assert!(text.contains("4 states"));
        assert!(text.contains("sample"));
    }

    /// The per-state index of a list sorted by source state.
    fn source_index(num_states: u32, from: impl Iterator<Item = StateId>) -> Vec<u32> {
        let mut index = vec![0u32; num_states as usize + 1];
        for s in from {
            index[s.index() + 1] += 1;
        }
        for i in 1..index.len() {
            index[i] += index[i - 1];
        }
        index
    }

    /// [`IoImcOf::from_parts`]'s grouping by comparison sort: the reference
    /// the counting sort must reproduce.
    fn grouped_by_comparison_sort<R: Rate>(
        num_states: u32,
        mut interactive: Vec<InteractiveTransition>,
        mut markovian: Vec<MarkovianTransitionOf<R>>,
    ) -> (
        Vec<InteractiveTransition>,
        Vec<MarkovianTransitionOf<R>>,
        Vec<u32>,
        Vec<u32>,
    ) {
        interactive.sort_by_key(|t| (t.from.0, t.label, t.to.0));
        interactive.dedup_by(|a, b| a.from == b.from && a.label == b.label && a.to == b.to);
        markovian.sort_by_key(|t| (t.from.0, t.to.0));
        let interactive_index = source_index(num_states, interactive.iter().map(|t| t.from));
        let markovian_index = source_index(num_states, markovian.iter().map(|t| t.from));
        (interactive, markovian, interactive_index, markovian_index)
    }

    /// Asserts that `from_parts` groups the lists like the comparison sort,
    /// and returns whether the case had a duplicate interactive transition
    /// and whether it had parallel rates.
    fn assert_grouped_like_comparison_sort<R: Rate>(
        num_states: u32,
        interactive: Vec<InteractiveTransition>,
        markovian: Vec<MarkovianTransitionOf<R>>,
        case: &str,
    ) -> (bool, bool) {
        let num_interactive = interactive.len();
        let expected =
            grouped_by_comparison_sort(num_states, interactive.clone(), markovian.clone());
        let m = IoImcOf::from_parts(
            case.to_owned(),
            Signature::new(),
            num_states,
            StateId(0),
            interactive,
            markovian,
            Vec::new(),
            Vec::new(),
        );
        assert_eq!(m.interactive, expected.0, "{case}");
        assert_eq!(m.markovian, expected.1, "{case}");
        assert_eq!(m.interactive_index, expected.2, "{case}");
        assert_eq!(m.markovian_index, expected.3, "{case}");
        let parallel = m
            .markovian
            .windows(2)
            .any(|w| (w[0].from, w[0].to) == (w[1].from, w[1].to));
        (m.interactive.len() < num_interactive, parallel)
    }

    #[test]
    fn from_parts_groups_like_a_comparison_sort() {
        use crate::bisim::tests::SplitMix64;
        let labels = [
            Label::Input(act("fp_a")),
            Label::Output(act("fp_b")),
            Label::Internal(act("fp_c")),
            Label::Input(act("fp_d")),
        ];
        let (mut duplicates, mut parallel) = (false, false);
        for seed in 0..24 {
            let mut rng = SplitMix64(seed);
            let n = 1 + rng.below(6) as u32;
            let state = |rng: &mut SplitMix64| StateId(rng.below(n as usize) as u32);
            // Few states and labels: duplicate interactive transitions and
            // several rates on one (from, to) pair are common.
            let interactive: Vec<InteractiveTransition> = (0..rng.below(24))
                .map(|_| InteractiveTransition {
                    from: state(&mut rng),
                    label: labels[rng.below(labels.len())],
                    to: state(&mut rng),
                })
                .collect();
            // Every rate is distinct, so any reordering of parallel rates shows.
            let mut markovian: Vec<MarkovianTransition> = (0..rng.below(24))
                .map(|i| MarkovianTransitionOf {
                    from: state(&mut rng),
                    rate: 1.0 + i as f64,
                    to: state(&mut rng),
                })
                .collect();
            if seed % 4 == 0 {
                // Already grouped by source, as most callers deliver them.
                markovian.sort_by_key(|t| t.from);
            }
            let parametric: Vec<MarkovianTransitionOf<RateForm>> = markovian
                .iter()
                .map(|t| MarkovianTransitionOf {
                    from: t.from,
                    rate: RateForm::scaled_var(t.rate as u32 % 3, t.rate),
                    to: t.to,
                })
                .collect();
            let case = format!("seed {seed}");
            let seen =
                assert_grouped_like_comparison_sort(n, interactive.clone(), markovian, &case);
            assert_grouped_like_comparison_sort(n, interactive, parametric, &case);
            duplicates |= seen.0;
            parallel |= seen.1;
        }
        assert!(
            duplicates && parallel,
            "the cases cover deduplication and parallel rates"
        );
    }

    /// A model rebuilt through [`IoImcOf::from_parts`] from `model`'s rows:
    /// labels mapped through `label` (dropped on `None`) and the Markovian
    /// rows of the states `timed` rejects left out: the reference that the
    /// direct build of each order-keeping pass must equal.
    fn rebuilt<R: Rate>(
        model: &IoImcOf<R>,
        signature: Signature,
        label: impl Fn(Label) -> Option<Label>,
        timed: impl Fn(StateId) -> bool,
    ) -> IoImcOf<R> {
        let interactive = model
            .interactive
            .iter()
            .filter_map(|t| {
                label(t.label).map(|label| InteractiveTransition {
                    from: t.from,
                    label,
                    to: t.to,
                })
            })
            .collect();
        let markovian = model
            .markovian
            .iter()
            .filter(|t| timed(t.from))
            .cloned()
            .collect();
        IoImcOf::from_parts(
            model.name.clone(),
            signature,
            model.num_states,
            model.initial,
            interactive,
            markovian,
            model.prop_names.clone(),
            model.props.clone(),
        )
    }

    /// The restriction to reachable states as a filter and a
    /// [`IoImcOf::from_parts`] rebuild.
    fn restricted_by_rebuild<R: Rate>(model: &IoImcOf<R>) -> IoImcOf<R> {
        let n = model.num_states();
        let mut reachable = vec![false; n];
        let mut stack = vec![model.initial];
        reachable[model.initial.index()] = true;
        while let Some(s) = stack.pop() {
            let targets = model.interactive_from(s).iter().map(|t| t.to);
            for to in targets.chain(model.markovian_from(s).iter().map(|t| t.to)) {
                if !reachable[to.index()] {
                    reachable[to.index()] = true;
                    stack.push(to);
                }
            }
        }
        let mut remap = vec![u32::MAX; n];
        let mut next = 0u32;
        for (i, &r) in reachable.iter().enumerate() {
            if r {
                remap[i] = next;
                next += 1;
            }
        }
        let keep = |from: StateId, to: StateId| reachable[from.index()] && reachable[to.index()];
        let interactive = model
            .interactive
            .iter()
            .filter(|t| keep(t.from, t.to))
            .map(|t| InteractiveTransition {
                from: StateId(remap[t.from.index()]),
                label: t.label,
                to: StateId(remap[t.to.index()]),
            })
            .collect();
        let markovian = model
            .markovian
            .iter()
            .filter(|t| keep(t.from, t.to))
            .map(|t| MarkovianTransitionOf {
                from: StateId(remap[t.from.index()]),
                rate: t.rate.clone(),
                to: StateId(remap[t.to.index()]),
            })
            .collect();
        let props = (0..n)
            .filter(|&i| reachable[i])
            .map(|i| model.props[i])
            .collect();
        IoImcOf::from_parts(
            model.name.clone(),
            model.signature.clone(),
            next,
            StateId(remap[model.initial.index()]),
            interactive,
            markovian,
            model.prop_names.clone(),
            props,
        )
    }

    /// Whether mapping `model`'s labels through `label` leaves some row out
    /// of `(label, to)` order, so that a relabelling must sort it again.
    fn relabel_unsorts_a_row<R: Rate>(model: &IoImcOf<R>, label: impl Fn(Label) -> Label) -> bool {
        model.states().any(|s| {
            let row: Vec<(Label, StateId)> = model
                .interactive_from(s)
                .iter()
                .map(|t| (label(t.label), t.to))
                .collect();
            row.windows(2).any(|pair| pair[0] > pair[1])
        })
    }

    /// What [`direct_builds_equal_their_from_parts_rebuilds`] saw, so that
    /// it can check that its models exercise every path.
    #[derive(Default)]
    struct Seen {
        unreachable: bool,
        urgent_rates: bool,
        closing_strands: bool,
        hide_resorts: bool,
        rename_resorts: bool,
    }

    /// Asserts that every pass that builds its model directly gives the
    /// codec bytes of its `from_parts` rebuild.
    fn assert_direct_builds_match<R: crate::codec::RateCodec>(
        model: &IoImcOf<R>,
        hidden: &[Action],
        mapping: &std::collections::BTreeMap<Action, Action>,
        seen: &mut Seen,
    ) {
        use crate::bisim::cut_maximal_progress;
        use crate::bisim::maximal_progress::cut_to_reachable;
        use crate::bisim::tests::bytes_of;
        let case = model.name.clone();
        let same = |direct: &IoImcOf<R>, rebuilt: &IoImcOf<R>, pass: &str| {
            assert!(bytes_of(direct) == bytes_of(rebuilt), "{case}: {pass}");
        };

        let restricted = restricted_by_rebuild(model);
        seen.unreachable |= restricted.num_states() < model.num_states();
        same(
            &model.restrict_to_reachable(),
            &restricted,
            "restrict_to_reachable",
        );
        same(
            &model.clone().into_reachable(),
            &restricted,
            "into_reachable",
        );

        let urgent: Vec<bool> = model.states().map(|s| model.is_urgent(s)).collect();
        let cut = rebuilt(model, model.signature.clone(), Some, |s| !urgent[s.index()]);
        seen.urgent_rates |= cut.num_markovian() < model.num_markovian();
        same(&cut_maximal_progress(model), &cut, "cut_maximal_progress");
        same(
            &cut_to_reachable(model.clone()),
            &restricted_by_rebuild(&cut),
            "in-place cut + restrict",
        );

        let closed = crate::closed::into_closed(model.clone());
        let without_inputs = rebuilt(
            model,
            closed.signature.clone(),
            |l| (!l.is_input()).then_some(l),
            |_| true,
        );
        let closed_by_rebuild = restricted_by_rebuild(&without_inputs);
        seen.closing_strands |= closed_by_rebuild.num_states() < without_inputs.num_states();
        same(&closed, &closed_by_rebuild, "into_closed");
        same(
            &crate::closed::drop_input_transitions(model),
            &closed_by_rebuild,
            "drop_input_transitions",
        );
        // Without input transitions, closing keeps every row.
        same(
            &crate::closed::into_closed(closed.clone()),
            &closed_by_rebuild,
            "into_closed on a closed model",
        );

        // Hiding rejects inputs: a composition may listen to a hidden action.
        let hidden: Vec<Action> = hidden
            .iter()
            .copied()
            .filter(|&a| !model.signature.is_input(a))
            .collect();
        let hide_label = |l: Label| match l {
            Label::Output(a) if hidden.contains(&a) => Label::Internal(a),
            _ => l,
        };
        let direct = crate::hide::into_hidden(model.clone(), &hidden).expect("hides outputs only");
        seen.hide_resorts |= relabel_unsorts_a_row(model, hide_label);
        let hidden_by_rebuild = rebuilt(
            model,
            direct.signature.clone(),
            |l| Some(hide_label(l)),
            |_| true,
        );
        same(&direct, &hidden_by_rebuild, "into_hidden");
        same(
            &crate::hide::hide(model, &hidden).expect("hides outputs only"),
            &hidden_by_rebuild,
            "hide",
        );

        let rename_label = |l: Label| {
            let apply = |a: Action| mapping.get(&a).copied().unwrap_or(a);
            match l {
                Label::Input(a) => Label::Input(apply(a)),
                Label::Output(a) => Label::Output(apply(a)),
                Label::Internal(a) => Label::Internal(apply(a)),
            }
        };
        let direct = crate::rename::rename(model, mapping).expect("renaming has no collision");
        seen.rename_resorts |= relabel_unsorts_a_row(model, rename_label);
        same(
            &direct,
            &rebuilt(
                model,
                direct.signature.clone(),
                |l| Some(rename_label(l)),
                |_| true,
            ),
            "rename",
        );
    }

    #[test]
    fn direct_builds_equal_their_from_parts_rebuilds() {
        use crate::bisim::tests::{large_random_model, lift, random_model};
        use crate::compose::compose;
        use crate::rename::rename;
        use std::collections::BTreeMap;
        // The random models' action pools.
        let pool = |kind: &str| -> Vec<Action> {
            (0..3)
                .map(|i| act(&format!("bisim_random_{kind}{i}")))
                .collect()
        };
        let (inputs, outputs, taus) = (pool("in"), pool("out"), pool("tau"));
        let fresh = |kind: &str, i: usize| act(&format!("direct_build_{kind}{i}"));
        // A listener made from another random model: its inputs become the
        // outputs of the model it listens to, its own actions fresh ones.
        // Composed with it, a random model has rows that mix inputs,
        // outputs and internals of both sides.
        let listener_names: BTreeMap<Action, Action> = (0..3)
            .flat_map(|i| {
                [
                    (inputs[i], outputs[i]),
                    (outputs[i], fresh("out", i)),
                    (taus[i], fresh("tau", i)),
                ]
            })
            .collect();
        let hidden = [outputs[0], outputs[2], fresh("out", 1)];
        // Swapping two outputs and two internals reorders the rows that
        // hold both; the inputs go to fresh actions.
        let mut mapping: BTreeMap<Action, Action> = BTreeMap::from([
            (outputs[0], outputs[1]),
            (outputs[1], outputs[0]),
            (taus[1], taus[2]),
            (taus[2], taus[1]),
            (fresh("out", 0), fresh("out", 2)),
            (fresh("out", 2), fresh("out", 0)),
        ]);
        mapping.extend((0..3).map(|i| (inputs[i], fresh("in", i))));

        let (small, large) = if cfg!(miri) { (2, 0) } else { (48, 4) };
        let mut models: Vec<IoImc> = Vec::new();
        for seed in 0..small {
            let model = random_model(seed);
            let listener = rename(&random_model(seed + 1000), &listener_names)
                .expect("fresh names do not collide");
            models.push(compose(&model, &listener).expect("signatures compose"));
            models.push(model);
        }
        models.extend((0..large).map(large_random_model));
        let mut seen = Seen::default();
        for model in &models {
            assert_direct_builds_match(model, &hidden, &mapping, &mut seen);
            assert_direct_builds_match(&lift(model), &hidden, &mapping, &mut seen);
        }
        assert!(seen.unreachable, "some model has unreachable states");
        assert!(seen.urgent_rates, "some model has urgent rates to cut");
        assert!(seen.closing_strands, "closing some model strands states");
        assert!(seen.hide_resorts, "hiding reorders some row");
        assert!(seen.rename_resorts, "renaming reorders some row");
    }

    #[test]
    fn state_id_helpers() {
        let s = StateId::new(7);
        assert_eq!(s.index(), 7);
        assert_eq!(s.to_string(), "s7");
    }
}
