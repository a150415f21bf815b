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
    #[allow(clippy::too_many_arguments)] // internal constructor mirroring the model's fields
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
    /// When every state is reachable the result is a clone of `self`: the
    /// renumbering is then the identity, and the transition lists of every
    /// model are already sorted and deduplicated, so rebuilding them would
    /// give the same model.
    pub fn restrict_to_reachable(&self) -> IoImcOf<R> {
        let n = self.num_states as usize;
        let mut reachable = vec![false; n];
        let mut stack = vec![self.initial];
        reachable[self.initial.index()] = true;
        let mut num_reachable = 1;
        while let Some(s) = stack.pop() {
            let targets = self.interactive_from(s).iter().map(|t| t.to);
            for to in targets.chain(self.markovian_from(s).iter().map(|t| t.to)) {
                if !reachable[to.index()] {
                    reachable[to.index()] = true;
                    num_reachable += 1;
                    stack.push(to);
                }
            }
        }
        if num_reachable == n {
            return self.clone();
        }
        let mut remap = vec![u32::MAX; n];
        let mut next = 0u32;
        for (i, &r) in reachable.iter().enumerate() {
            if r {
                remap[i] = next;
                next += 1;
            }
        }
        let interactive = self
            .interactive
            .iter()
            .filter(|t| reachable[t.from.index()] && reachable[t.to.index()])
            .map(|t| InteractiveTransition {
                from: StateId(remap[t.from.index()]),
                label: t.label,
                to: StateId(remap[t.to.index()]),
            })
            .collect();
        let markovian = self
            .markovian
            .iter()
            .filter(|t| reachable[t.from.index()] && reachable[t.to.index()])
            .map(|t| MarkovianTransitionOf {
                from: StateId(remap[t.from.index()]),
                rate: t.rate.clone(),
                to: StateId(remap[t.to.index()]),
            })
            .collect();
        let props = (0..n)
            .filter(|&i| reachable[i])
            .map(|i| self.props[i])
            .collect();
        IoImcOf::from_parts(
            self.name.clone(),
            self.signature.clone(),
            next,
            StateId(remap[self.initial.index()]),
            interactive,
            markovian,
            self.prop_names.clone(),
            props,
        )
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

    #[test]
    fn state_id_helpers() {
        let s = StateId::new(7);
        assert_eq!(s.index(), 7);
        assert_eq!(s.to_string(), "s7");
    }
}
