//! Incremental construction of I/O-IMC models.

use crate::action::Action;
use crate::model::{InteractiveTransition, IoImcOf, Label, MarkovianTransitionOf, PropId, StateId};
use crate::rate::{Rate, RateForm};
use crate::signature::Signature;
use crate::{Error, Result};

/// Builder for [`IoImc`](crate::IoImc) models.
///
/// States are added first, then transitions; the signature is inferred from the
/// transitions but can be extended explicitly (e.g. to declare an input the model
/// ignores in every state, which the paper draws as implicit self-loops).
///
/// # Examples
///
/// A cold basic event: it waits for its activation signal, then fails after an
/// exponentially distributed delay and announces its failure.
///
/// ```
/// use ioimc::{Action, IoImcBuilder};
///
/// # fn main() -> Result<(), ioimc::Error> {
/// let activate = Action::new("a_A");
/// let fail = Action::new("f_A");
///
/// let mut b = IoImcBuilder::new("cold BE A");
/// let dormant = b.add_state();
/// let active = b.add_state();
/// let firing = b.add_state();
/// let fired = b.add_state();
/// b.initial(dormant);
/// b.input(dormant, activate, active);
/// b.markovian(active, 0.001, firing);
/// b.output(firing, fail, fired);
/// let be = b.build()?;
/// assert_eq!(be.num_states(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IoImcBuilderOf<R> {
    name: String,
    num_states: u32,
    initial: Option<StateId>,
    signature: Signature,
    interactive: Vec<InteractiveTransition>,
    markovian: Vec<MarkovianTransitionOf<R>>,
    prop_names: Vec<String>,
    props: Vec<u64>,
    error: Option<Error>,
}

/// Builder for numeric-rate models (the classical instantiation).
pub type IoImcBuilder = IoImcBuilderOf<f64>;

/// Builder for parametric models whose rates are [`RateForm`]s.
pub type ParametricIoImcBuilder = IoImcBuilderOf<RateForm>;

impl<R: Rate> IoImcBuilderOf<R> {
    /// Creates an empty builder for a model called `name`.
    pub fn new(name: impl Into<String>) -> IoImcBuilderOf<R> {
        IoImcBuilderOf {
            name: name.into(),
            num_states: 0,
            initial: None,
            signature: Signature::new(),
            interactive: Vec::new(),
            markovian: Vec::new(),
            prop_names: Vec::new(),
            props: Vec::new(),
            error: None,
        }
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.num_states);
        self.num_states += 1;
        self.props.push(0);
        id
    }

    /// Adds `n` fresh states and returns their ids.
    pub fn add_states(&mut self, n: usize) -> Vec<StateId> {
        (0..n).map(|_| self.add_state()).collect()
    }

    /// Number of states added so far.
    pub fn num_states(&self) -> usize {
        self.num_states as usize
    }

    /// Declares `state` to be the initial state.
    pub fn initial(&mut self, state: StateId) -> &mut Self {
        if state.0 >= self.num_states {
            self.record_error(Error::UnknownState {
                state: state.0,
                num_states: self.num_states,
            });
        }
        self.initial = Some(state);
        self
    }

    fn record_error(&mut self, error: Error) {
        if self.error.is_none() {
            self.error = Some(error);
        }
    }

    fn check_state(&mut self, state: StateId) {
        if state.0 >= self.num_states {
            self.record_error(Error::UnknownState {
                state: state.0,
                num_states: self.num_states,
            });
        }
    }

    /// Adds an input transition `from --action?--> to` and records `action` as an
    /// input of the signature.
    pub fn input(&mut self, from: StateId, action: Action, to: StateId) -> &mut Self {
        self.check_state(from);
        self.check_state(to);
        self.signature.add_input(action);
        self.interactive.push(InteractiveTransition {
            from,
            label: Label::Input(action),
            to,
        });
        self
    }

    /// Adds an output transition `from --action!--> to` and records `action` as an
    /// output of the signature.
    pub fn output(&mut self, from: StateId, action: Action, to: StateId) -> &mut Self {
        self.check_state(from);
        self.check_state(to);
        self.signature.add_output(action);
        self.interactive.push(InteractiveTransition {
            from,
            label: Label::Output(action),
            to,
        });
        self
    }

    /// Adds an internal transition `from --action;--> to` and records `action` as an
    /// internal action of the signature.
    pub fn internal(&mut self, from: StateId, action: Action, to: StateId) -> &mut Self {
        self.check_state(from);
        self.check_state(to);
        self.signature.add_internal(action);
        self.interactive.push(InteractiveTransition {
            from,
            label: Label::Internal(action),
            to,
        });
        self
    }

    /// Adds a Markovian transition `from --rate--> to`.
    ///
    /// An invalid rate (for `f64`: not finite and strictly positive; see
    /// [`Rate::is_valid`]) is recorded as an error and reported by
    /// [`build`](Self::build).
    pub fn markovian(&mut self, from: StateId, rate: R, to: StateId) -> &mut Self {
        self.check_state(from);
        self.check_state(to);
        if !rate.is_valid() {
            self.record_error(Error::InvalidRate {
                rate: rate.to_string(),
            });
        } else {
            self.markovian
                .push(MarkovianTransitionOf { from, rate, to });
        }
        self
    }

    /// Declares `action` as an input even if no transition uses it yet.
    ///
    /// This is how a model states that it listens to (and ignores) a signal: the
    /// paper's convention of leaving out input self-loops.
    pub fn declare_input(&mut self, action: Action) -> &mut Self {
        self.signature.add_input(action);
        self
    }

    /// Registers (or looks up) an atomic proposition by name.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 distinct propositions are registered.
    pub fn prop(&mut self, name: &str) -> PropId {
        if let Some(i) = self.prop_names.iter().position(|p| p == name) {
            return PropId(i as u8);
        }
        assert!(
            self.prop_names.len() < 64,
            "at most 64 atomic propositions are supported"
        );
        self.prop_names.push(name.to_owned());
        PropId((self.prop_names.len() - 1) as u8)
    }

    /// Labels `state` with proposition `prop`.
    pub fn set_prop(&mut self, state: StateId, prop: PropId) -> &mut Self {
        self.check_state(state);
        if (state.0) < self.num_states {
            self.props[state.index()] |= 1u64 << prop.0;
        }
        self
    }

    /// Finishes construction and validates the model.
    ///
    /// # Errors
    ///
    /// Returns the first error recorded while building (unknown state, invalid
    /// rate), [`Error::MissingInitialState`] if no initial state was declared, or a
    /// signature conflict if one action was used in incompatible roles.
    pub fn build(self) -> Result<IoImcOf<R>> {
        if let Some(err) = self.error {
            return Err(err);
        }
        let initial = self.initial.ok_or(Error::MissingInitialState)?;
        self.signature.validate()?;
        let model = IoImcOf::from_parts(
            self.name,
            self.signature,
            self.num_states,
            initial,
            self.interactive,
            self.markovian,
            self.prop_names,
            self.props,
        );
        debug_assert!(model.validate().is_ok());
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(n: &str) -> Action {
        Action::new(n)
    }

    #[test]
    fn build_simple_model() {
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.markovian(s[0], 2.0, s[1]);
        b.output(s[1], act("fire_b1"), s[2]);
        let m = b.build().unwrap();
        assert_eq!(m.num_states(), 3);
        assert!(m.signature().is_output(act("fire_b1")));
    }

    #[test]
    fn missing_initial_is_an_error() {
        let mut b = IoImcBuilder::new("m");
        b.add_state();
        assert_eq!(b.build().unwrap_err(), Error::MissingInitialState);
    }

    #[test]
    fn invalid_rate_is_an_error() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut b = IoImcBuilder::new("m");
            let s = b.add_states(2);
            b.initial(s[0]);
            b.markovian(s[0], bad, s[1]);
            match b.build() {
                Err(Error::InvalidRate { .. }) => {}
                other => panic!("expected InvalidRate, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_state_is_an_error() {
        let mut b = IoImcBuilder::new("m");
        let s0 = b.add_state();
        b.initial(s0);
        b.output(s0, act("x_b2"), StateId::new(17));
        match b.build() {
            Err(Error::UnknownState { state: 17, .. }) => {}
            other => panic!("expected UnknownState, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_roles_are_rejected() {
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(2);
        b.initial(s[0]);
        b.input(s[0], act("dup_b3"), s[1]);
        b.output(s[1], act("dup_b3"), s[0]);
        assert!(matches!(b.build(), Err(Error::ConflictingSignature { .. })));
    }

    #[test]
    fn declared_actions_enter_signature() {
        let mut b = IoImcBuilder::new("m");
        let s0 = b.add_state();
        b.initial(s0);
        b.declare_input(act("ignored_b4"));
        let m = b.build().unwrap();
        assert!(m.signature().is_input(act("ignored_b4")));
        assert_eq!(m.num_transitions(), 0);
    }

    #[test]
    fn props_are_registered_once() {
        let mut b = IoImcBuilder::new("m");
        let s0 = b.add_state();
        b.initial(s0);
        let p1 = b.prop("down");
        let p2 = b.prop("down");
        assert_eq!(p1, p2);
        b.set_prop(s0, p1);
        let m = b.build().unwrap();
        assert!(m.has_prop(s0, m.prop("down").unwrap()));
    }

    #[test]
    fn duplicate_transitions_are_deduplicated() {
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(2);
        b.initial(s[0]);
        b.input(s[0], act("dup_tr_b5"), s[1]);
        b.input(s[0], act("dup_tr_b5"), s[1]);
        let m = b.build().unwrap();
        assert_eq!(m.num_interactive(), 1);
    }
}
