//! Action signatures.
//!
//! Every I/O-IMC declares which actions it uses as inputs, outputs and internal
//! actions.  The signature determines how models synchronise under parallel
//! composition: an action that is an output of one component and an input of
//! another is performed jointly, with the output side deciding when.

use crate::action::Action;
use crate::{Error, Result};
use std::collections::BTreeSet;
use std::fmt;

/// The action signature of an I/O-IMC: disjoint sets of input, output and internal
/// actions.
///
/// # Examples
///
/// ```
/// use ioimc::{Action, Signature};
/// let mut sig = Signature::new();
/// sig.add_input(Action::new("f_child"));
/// sig.add_output(Action::new("f_gate"));
/// assert!(sig.is_input(Action::new("f_child")));
/// assert!(sig.is_output(Action::new("f_gate")));
/// assert!(sig.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Signature {
    inputs: BTreeSet<Action>,
    outputs: BTreeSet<Action>,
    internals: BTreeSet<Action>,
}

impl Signature {
    /// Creates an empty signature.
    pub fn new() -> Signature {
        Signature::default()
    }

    /// Adds an input action.
    pub fn add_input(&mut self, action: Action) -> &mut Self {
        self.inputs.insert(action);
        self
    }

    /// Adds an output action.
    pub fn add_output(&mut self, action: Action) -> &mut Self {
        self.outputs.insert(action);
        self
    }

    /// Adds an internal action.
    pub fn add_internal(&mut self, action: Action) -> &mut Self {
        self.internals.insert(action);
        self
    }

    /// Removes an action from every role it appears in.
    pub fn remove(&mut self, action: Action) {
        self.inputs.remove(&action);
        self.outputs.remove(&action);
        self.internals.remove(&action);
    }

    /// Returns `true` if `action` is an input of this signature.
    pub fn is_input(&self, action: Action) -> bool {
        self.inputs.contains(&action)
    }

    /// Returns `true` if `action` is an output of this signature.
    pub fn is_output(&self, action: Action) -> bool {
        self.outputs.contains(&action)
    }

    /// Returns `true` if `action` is an internal action of this signature.
    pub fn is_internal(&self, action: Action) -> bool {
        self.internals.contains(&action)
    }

    /// Iterates over the input actions in sorted (interning) order.
    pub fn inputs(&self) -> impl Iterator<Item = Action> + '_ {
        self.inputs.iter().copied()
    }

    /// Iterates over the output actions in sorted (interning) order.
    pub fn outputs(&self) -> impl Iterator<Item = Action> + '_ {
        self.outputs.iter().copied()
    }

    /// Iterates over the internal actions in sorted (interning) order.
    pub fn internals(&self) -> impl Iterator<Item = Action> + '_ {
        self.internals.iter().copied()
    }

    /// Number of input actions.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output actions.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of internal actions.
    pub fn num_internals(&self) -> usize {
        self.internals.len()
    }

    /// Checks that no action plays two roles at once.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ConflictingSignature`] naming the first action that appears
    /// in more than one of the three sets.
    pub fn validate(&self) -> Result<()> {
        for &a in &self.inputs {
            if self.outputs.contains(&a) || self.internals.contains(&a) {
                return Err(Error::ConflictingSignature { action: a });
            }
        }
        for &a in &self.outputs {
            if self.internals.contains(&a) {
                return Err(Error::ConflictingSignature { action: a });
            }
        }
        Ok(())
    }

    /// Returns `true` if `action` occurs anywhere in this signature.
    pub fn contains(&self, action: Action) -> bool {
        self.is_input(action) || self.is_output(action) || self.is_internal(action)
    }

    /// Checks whether this signature is *composable* with `other`:
    ///
    /// * output sets must be disjoint (no action is controlled by two components);
    /// * internal actions of one must not occur in the other at all.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutputClash`] or [`Error::InternalClash`] describing the
    /// violation; the `left`/`right` fields are filled in with the supplied names.
    pub fn check_composable(
        &self,
        other: &Signature,
        left_name: &str,
        right_name: &str,
    ) -> Result<()> {
        for &a in &self.outputs {
            if other.outputs.contains(&a) {
                return Err(Error::OutputClash {
                    action: a,
                    left: left_name.to_owned(),
                    right: right_name.to_owned(),
                });
            }
        }
        for &a in &self.internals {
            if other.contains(a) {
                return Err(Error::InternalClash {
                    action: a,
                    left: left_name.to_owned(),
                    right: right_name.to_owned(),
                });
            }
        }
        for &a in &other.internals {
            if self.contains(a) {
                return Err(Error::InternalClash {
                    action: a,
                    left: left_name.to_owned(),
                    right: right_name.to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Computes the signature of the parallel composition of two composable
    /// signatures: outputs and internal actions are united, inputs are united and
    /// then stripped of actions that became outputs.
    pub fn composed_with(&self, other: &Signature) -> Signature {
        let outputs: BTreeSet<Action> = self.outputs.union(&other.outputs).copied().collect();
        let internals: BTreeSet<Action> = self.internals.union(&other.internals).copied().collect();
        let inputs: BTreeSet<Action> = self
            .inputs
            .union(&other.inputs)
            .copied()
            .filter(|a| !outputs.contains(a))
            .collect();
        Signature {
            inputs,
            outputs,
            internals,
        }
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_set =
            |set: &BTreeSet<Action>| set.iter().map(|a| a.name()).collect::<Vec<_>>().join(", ");
        write!(
            f,
            "inputs: {{{}}}, outputs: {{{}}}, internal: {{{}}}",
            fmt_set(&self.inputs),
            fmt_set(&self.outputs),
            fmt_set(&self.internals)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(n: &str) -> Action {
        Action::new(n)
    }

    #[test]
    fn roles_are_tracked() {
        let mut sig = Signature::new();
        sig.add_input(act("in1"))
            .add_output(act("out1"))
            .add_internal(act("tau1"));
        assert!(sig.is_input(act("in1")));
        assert!(sig.is_output(act("out1")));
        assert!(sig.is_internal(act("tau1")));
        assert!(sig.contains(act("tau1")));
        assert!(!sig.contains(act("absent")));
        assert_eq!(sig.num_inputs(), 1);
        assert_eq!(sig.num_outputs(), 1);
        assert_eq!(sig.num_internals(), 1);
    }

    #[test]
    fn validate_detects_conflicts() {
        let mut sig = Signature::new();
        sig.add_input(act("dup")).add_output(act("dup"));
        assert_eq!(
            sig.validate(),
            Err(Error::ConflictingSignature { action: act("dup") })
        );

        let mut sig2 = Signature::new();
        sig2.add_output(act("dup2")).add_internal(act("dup2"));
        assert!(sig2.validate().is_err());

        let mut ok = Signature::new();
        ok.add_input(act("i"))
            .add_output(act("o"))
            .add_internal(act("t"));
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn output_clash_is_rejected() {
        let mut a = Signature::new();
        a.add_output(act("shared_out"));
        let mut b = Signature::new();
        b.add_output(act("shared_out"));
        let err = a.check_composable(&b, "A", "B").unwrap_err();
        match err {
            Error::OutputClash { action, .. } => assert_eq!(action, act("shared_out")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn internal_clash_is_rejected() {
        let mut a = Signature::new();
        a.add_internal(act("secret"));
        let mut b = Signature::new();
        b.add_input(act("secret"));
        assert!(a.check_composable(&b, "A", "B").is_err());
        assert!(b.check_composable(&a, "B", "A").is_err());
    }

    #[test]
    fn composition_turns_matched_inputs_into_outputs() {
        let mut a = Signature::new();
        a.add_output(act("f_a"));
        let mut b = Signature::new();
        b.add_input(act("f_a")).add_output(act("f_b"));
        a.check_composable(&b, "A", "B").unwrap();
        let c = a.composed_with(&b);
        assert!(c.is_output(act("f_a")));
        assert!(c.is_output(act("f_b")));
        assert!(!c.is_input(act("f_a")));
    }

    #[test]
    fn composition_keeps_unmatched_inputs() {
        let mut a = Signature::new();
        a.add_input(act("f_env"));
        let mut b = Signature::new();
        b.add_input(act("f_env"));
        let c = a.composed_with(&b);
        assert!(c.is_input(act("f_env")));
        assert_eq!(c.num_outputs(), 0);
    }

    #[test]
    fn remove_strips_every_role() {
        let mut sig = Signature::new();
        sig.add_input(act("x1")).add_output(act("x2"));
        sig.remove(act("x1"));
        sig.remove(act("x2"));
        assert!(!sig.contains(act("x1")));
        assert!(!sig.contains(act("x2")));
    }

    #[test]
    fn display_lists_all_roles() {
        let mut sig = Signature::new();
        sig.add_input(act("alpha_in")).add_output(act("beta_out"));
        let shown = sig.to_string();
        assert!(shown.contains("alpha_in"));
        assert!(shown.contains("beta_out"));
    }
}
