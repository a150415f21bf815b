//! Action renaming.
//!
//! Renaming supports the *reuse of dynamic modules* highlighted in Section 5.2 of
//! the paper: the aggregated I/O-IMC of one module (say, module `A` of the cascaded
//! PAND system) can be reused for the identical modules `C` and `D` by renaming its
//! activation and firing signals.

use crate::action::Action;
use crate::model::{IoImcOf, Label};
use crate::rate::Rate;
use crate::signature::Signature;
use crate::{Error, Result};
use std::collections::BTreeMap;

/// Renames actions of `model` according to `mapping` (old action → new action).
///
/// Actions not mentioned in the mapping are left unchanged.  The role of an action
/// (input/output/internal) is preserved.
///
/// # Errors
///
/// Returns [`Error::RenameCollision`] if the mapping would identify two actions
/// that were distinct in the original model (e.g. renaming `f_A` to `f_B` while the
/// model already uses `f_B`), since this would silently change synchronisation
/// behaviour.
///
/// # Examples
///
/// ```
/// use ioimc::{Action, IoImcBuilder, rename::rename};
/// use std::collections::BTreeMap;
/// # fn main() -> Result<(), ioimc::Error> {
/// let f_a = Action::new("f_module_A");
/// let f_c = Action::new("f_module_C");
/// let mut b = IoImcBuilder::new("module A");
/// let s = b.add_states(2);
/// b.initial(s[0]);
/// b.output(s[0], f_a, s[1]);
/// let module_a = b.build()?;
///
/// let mut map = BTreeMap::new();
/// map.insert(f_a, f_c);
/// let module_c = rename(&module_a, &map)?;
/// assert!(module_c.signature().is_output(f_c));
/// assert!(!module_c.signature().is_output(f_a));
/// # Ok(())
/// # }
/// ```
pub fn rename<R: Rate>(
    model: &IoImcOf<R>,
    mapping: &BTreeMap<Action, Action>,
) -> Result<IoImcOf<R>> {
    let apply = |a: Action| -> Action { mapping.get(&a).copied().unwrap_or(a) };

    // Detect collisions: two distinct source actions mapping to the same target,
    // or a mapped action landing on an existing unmapped action.
    let mut seen: BTreeMap<Action, Action> = BTreeMap::new();
    let originals: Vec<Action> = model
        .signature()
        .inputs()
        .chain(model.signature().outputs())
        .chain(model.signature().internals())
        .collect();
    for &orig in &originals {
        let target = apply(orig);
        if let Some(&prev) = seen.get(&target) {
            if prev != orig {
                return Err(Error::RenameCollision { action: target });
            }
        }
        seen.insert(target, orig);
    }

    let mut signature = Signature::new();
    for a in model.signature().inputs() {
        signature.add_input(apply(a));
    }
    for a in model.signature().outputs() {
        signature.add_output(apply(a));
    }
    for a in model.signature().internals() {
        signature.add_internal(apply(a));
    }
    signature.validate()?;

    Ok(model.clone().relabel(signature, |label| match label {
        Label::Input(a) => Label::Input(apply(a)),
        Label::Output(a) => Label::Output(apply(a)),
        Label::Internal(a) => Label::Internal(apply(a)),
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

    fn module() -> IoImc {
        let mut b = IoImcBuilder::new("module");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.input(s[0], act("rn_activate"), s[1]);
        b.markovian(s[1], 1.0, s[2]);
        b.output(s[2], act("rn_fail"), s[2]);
        b.build().unwrap()
    }

    #[test]
    fn rename_changes_signature_and_labels() {
        let m = module();
        let mut map = BTreeMap::new();
        map.insert(act("rn_fail"), act("rn_fail_copy"));
        map.insert(act("rn_activate"), act("rn_activate_copy"));
        let renamed = rename(&m, &map).unwrap();
        assert!(renamed.signature().is_output(act("rn_fail_copy")));
        assert!(renamed.signature().is_input(act("rn_activate_copy")));
        assert!(!renamed.signature().contains(act("rn_fail")));
        assert_eq!(renamed.num_states(), m.num_states());
        assert_eq!(renamed.num_transitions(), m.num_transitions());
        assert!(renamed.validate().is_ok());
    }

    #[test]
    fn unmapped_actions_survive() {
        let m = module();
        let renamed = rename(&m, &BTreeMap::from([(act("rn_fail"), act("rn_fail2"))])).unwrap();
        assert!(renamed.signature().is_input(act("rn_activate")));
    }

    #[test]
    fn collision_with_existing_action_is_rejected() {
        let m = module();
        // Mapping the output onto the existing (unmapped) input action must fail.
        let err = rename(&m, &BTreeMap::from([(act("rn_fail"), act("rn_activate"))])).unwrap_err();
        assert!(matches!(
            err,
            Error::RenameCollision { .. } | Error::ConflictingSignature { .. }
        ));
    }

    #[test]
    fn collision_between_two_mapped_actions_is_rejected() {
        let m = module();
        let mut map = BTreeMap::new();
        map.insert(act("rn_fail"), act("rn_same_target"));
        map.insert(act("rn_activate"), act("rn_same_target"));
        assert!(rename(&m, &map).is_err());
    }

    #[test]
    fn identity_rename_is_a_no_op() {
        let m = module();
        let renamed = rename(&m, &BTreeMap::new()).unwrap();
        assert_eq!(renamed.signature(), m.signature());
        assert_eq!(renamed.num_transitions(), m.num_transitions());
    }
}
