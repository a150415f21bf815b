//! Hiding of output actions.
//!
//! After two components have been composed, the signals they used to communicate
//! are often not needed by any other component.  *Hiding* turns such output actions
//! into internal actions, which makes them invisible to further composition and —
//! crucially — lets the weak-bisimulation aggregation abstract them away.  This is
//! Step 3 of the conversion/analysis algorithm in Section 5 of the paper.
//!
//! The aggregation loop uses each composed product once, so it hands the
//! product to [`into_hidden`], which relabels it in place.  [`hide`] borrows
//! its model and hides a clone of it.

use crate::action::Action;
use crate::model::{IoImcOf, Label};
use crate::rate::Rate;
use crate::{Error, Result};
use std::collections::BTreeSet;

/// Hides the given output actions of `model`, turning them into internal actions.
///
/// Actions not in the model's signature at all are ignored (hiding is idempotent
/// and tolerant of over-approximated hide sets); actions that are *inputs* of the
/// model are rejected, because hiding an input would silently disconnect the model
/// from its environment.
///
/// # Errors
///
/// Returns [`Error::NotAnOutput`] if one of the actions is an input of the model.
///
/// # Examples
///
/// ```
/// use ioimc::{Action, IoImcBuilder, hide::hide};
/// # fn main() -> Result<(), ioimc::Error> {
/// let a = Action::new("internal_signal");
/// let mut b = IoImcBuilder::new("m");
/// let s = b.add_states(2);
/// b.initial(s[0]);
/// b.output(s[0], a, s[1]);
/// let m = b.build()?;
/// let hidden = hide(&m, &[a])?;
/// assert!(hidden.signature().is_internal(a));
/// assert!(hidden.interactive()[0].label.is_internal());
/// # Ok(())
/// # }
/// ```
pub fn hide<R: Rate>(model: &IoImcOf<R>, actions: &[Action]) -> Result<IoImcOf<R>> {
    into_hidden(model.clone(), actions)
}

/// [`hide`] for a model the caller owns: the labels are rewritten in place,
/// and only the rows whose labels changed are sorted again.
///
/// # Errors
///
/// Returns [`Error::NotAnOutput`] if one of the actions is an input of the model.
pub fn into_hidden<R: Rate>(model: IoImcOf<R>, actions: &[Action]) -> Result<IoImcOf<R>> {
    let to_hide: BTreeSet<Action> = actions.iter().copied().collect();
    for &a in &to_hide {
        if model.signature().is_input(a) {
            return Err(Error::NotAnOutput { action: a });
        }
    }

    let mut signature = model.signature().clone();
    for &a in &to_hide {
        if signature.is_output(a) {
            signature.remove(a);
            signature.add_internal(a);
        }
    }

    Ok(model.relabel(signature, |label| match label {
        Label::Output(a) if to_hide.contains(&a) => Label::Internal(a),
        _ => label,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IoImcBuilder;
    use crate::model::IoImc;

    fn act(n: &str) -> Action {
        Action::new(n)
    }

    fn two_output_model() -> IoImc {
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.output(s[0], act("h_first"), s[1]);
        b.output(s[1], act("h_second"), s[2]);
        b.input(s[0], act("h_input"), s[2]);
        b.build().unwrap()
    }

    #[test]
    fn hiding_turns_outputs_internal() {
        let m = two_output_model();
        let h = hide(&m, &[act("h_first")]).unwrap();
        assert!(h.signature().is_internal(act("h_first")));
        assert!(h.signature().is_output(act("h_second")));
        let labels: Vec<_> = h.interactive().iter().map(|t| t.label).collect();
        assert!(labels.contains(&Label::Internal(act("h_first"))));
        assert!(labels.contains(&Label::Output(act("h_second"))));
        assert!(h.validate().is_ok());
    }

    #[test]
    fn hiding_inputs_is_rejected() {
        let m = two_output_model();
        assert_eq!(
            hide(&m, &[act("h_input")]).unwrap_err(),
            Error::NotAnOutput {
                action: act("h_input")
            }
        );
    }

    #[test]
    fn hiding_unknown_actions_is_a_no_op() {
        let m = two_output_model();
        let h = hide(&m, &[act("h_not_in_model")]).unwrap();
        assert_eq!(h.num_transitions(), m.num_transitions());
        assert_eq!(h.signature(), m.signature());
    }

    #[test]
    fn hiding_is_idempotent() {
        let m = two_output_model();
        let once = hide(&m, &[act("h_first")]).unwrap();
        let twice = hide(&once, &[act("h_first")]).unwrap();
        assert_eq!(once.num_transitions(), twice.num_transitions());
        assert_eq!(once.signature(), twice.signature());
    }
}
