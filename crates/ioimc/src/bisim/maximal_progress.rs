//! The maximal-progress assumption.
//!
//! Output and internal transitions of an I/O-IMC happen immediately: no time passes
//! in a state that has one enabled.  Consequently the Markovian transitions of such
//! *urgent* states can never fire and may be removed without changing any
//! observable behaviour.  Removing them early keeps intermediate compositions small
//! and is a precondition for the Markovian lumping performed by the partition
//! refinement.

use crate::model::IoImcOf;
use crate::rate::Rate;

/// Removes the Markovian transitions of every urgent state (a state with an
/// outgoing output or internal transition).
///
/// The returned model has the same states, signature and proposition labelling.
/// It is a clone of `model` whose cut rows are dropped in place.
///
/// # Examples
///
/// ```
/// use ioimc::{Action, IoImcBuilder, bisim::cut_maximal_progress};
/// # fn main() -> Result<(), ioimc::Error> {
/// let f = Action::new("mp_doc_f");
/// let mut b = IoImcBuilder::new("m");
/// let s = b.add_states(3);
/// b.initial(s[0]);
/// b.output(s[0], f, s[1]);
/// b.markovian(s[0], 5.0, s[2]); // can never fire: s0 is urgent
/// let m = b.build()?;
/// let cut = cut_maximal_progress(&m);
/// assert_eq!(cut.num_markovian(), 0);
/// # Ok(())
/// # }
/// ```
pub fn cut_maximal_progress<R: Rate>(model: &IoImcOf<R>) -> IoImcOf<R> {
    let urgent: Vec<bool> = model.states().map(|s| model.is_urgent(s)).collect();
    model.clone().without_rates_of(&|s| urgent[s.index()])
}

/// [`cut_maximal_progress`] followed by
/// [`restrict_to_reachable`](IoImcOf::restrict_to_reachable) on a model the
/// caller owns, as one search over the cut model and one in-place
/// compaction.
pub(crate) fn cut_to_reachable<R: Rate>(model: IoImcOf<R>) -> IoImcOf<R> {
    let timed: Vec<bool> = model.states().map(|s| !model.is_urgent(s)).collect();
    model.retain_reachable(&|_| true, &|s| timed[s.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::builder::IoImcBuilder;

    fn act(n: &str) -> Action {
        Action::new(n)
    }

    #[test]
    fn markovians_of_urgent_states_are_cut() {
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(4);
        b.initial(s[0]);
        b.output(s[0], act("mp_out"), s[1]);
        b.markovian(s[0], 1.0, s[2]);
        b.internal(s[1], act("mp_tau"), s[2]);
        b.markovian(s[1], 2.0, s[3]);
        b.markovian(s[2], 3.0, s[3]);
        let m = b.build().unwrap();
        let cut = cut_maximal_progress(&m);
        // Only the transition of the non-urgent state s2 survives.
        assert_eq!(cut.num_markovian(), 1);
        assert_eq!(cut.markovian()[0].rate, 3.0);
        assert_eq!(cut.num_interactive(), m.num_interactive());
        assert_eq!(cut.num_states(), m.num_states());
    }

    #[test]
    fn input_transitions_do_not_make_a_state_urgent() {
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.input(s[0], act("mp_in"), s[1]);
        b.markovian(s[0], 4.0, s[2]);
        let m = b.build().unwrap();
        let cut = cut_maximal_progress(&m);
        // Inputs are delayable: the Markovian race with an input stays.
        assert_eq!(cut.num_markovian(), 1);
    }

    #[test]
    fn cut_is_idempotent() {
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.output(s[0], act("mp_idem"), s[1]);
        b.markovian(s[0], 1.0, s[2]);
        let m = b.build().unwrap();
        let once = cut_maximal_progress(&m);
        let twice = cut_maximal_progress(&once);
        assert_eq!(once.num_markovian(), twice.num_markovian());
        assert_eq!(once.num_interactive(), twice.num_interactive());
    }
}
