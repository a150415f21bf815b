//! State-space aggregation (bisimulation minimisation).
//!
//! Compositional aggregation hinges on replacing an intermediate I/O-IMC by a
//! smaller, behaviourally equivalent one after every composition step.  The paper
//! uses *weak bisimulation* for I/O-IMCs; this module implements a sound and
//! practically effective pipeline:
//!
//! 1. **Maximal progress** ([`maximal_progress`]): Markovian transitions of states
//!    with an enabled output or internal transition can never fire (outputs and
//!    internal steps are immediate) and are removed.
//! 2. **Deterministic τ-elimination** ([`tau_elim`]): states whose only behaviour
//!    is a single internal transition are transient "vanishing" states and are
//!    short-circuited.  Hiding creates long chains of such states.
//! 3. **Signature-based partition refinement** ([`partition`]): a branching-style
//!    weak bisimulation with Markovian lumping evaluated at non-urgent states.
//!    The computed equivalence refines (is contained in) weak bisimilarity for
//!    I/O-IMCs, so the quotient preserves every measure the paper computes
//!    (time-bounded reachability of failure, steady-state unavailability).
//! 4. The pipeline is iterated until the state count no longer shrinks.
//!
//! [`refine`] and [`quotient`] also offer strong bisimulation (no abstraction
//! of internal steps) through their `weak` flag; [`minimize`] always runs the
//! weak pipeline.

pub mod maximal_progress;
pub mod partition;
pub mod tau_elim;

pub use maximal_progress::cut_maximal_progress;
pub use partition::{quotient, refine, Partition};
pub use tau_elim::eliminate_deterministic_tau;

use crate::model::IoImcOf;
use crate::rate::Rate;

/// Aggregates `model` modulo (branching-style) weak bisimulation with maximal
/// progress, returning an equivalent model with at most as many states.
///
/// # Examples
///
/// ```
/// use ioimc::{Action, IoImcBuilder, bisim::minimize};
/// # fn main() -> Result<(), ioimc::Error> {
/// // Two states that both just fire `f` after rate 1 are merged.
/// let f = Action::new("minimize_doc_f");
/// let mut b = IoImcBuilder::new("m");
/// let s = b.add_states(4);
/// b.initial(s[0]);
/// b.markovian(s[0], 1.0, s[1]);
/// b.markovian(s[0], 1.0, s[2]);
/// b.output(s[1], f, s[3]);
/// b.output(s[2], f, s[3]);
/// let m = b.build()?;
/// let reduced = minimize(&m);
/// assert!(reduced.num_states() < m.num_states());
/// # Ok(())
/// # }
/// ```
pub fn minimize<R: Rate>(model: &IoImcOf<R>) -> IoImcOf<R> {
    let mut current = cut_maximal_progress(model);
    current = current.restrict_to_reachable();
    loop {
        let before = current.num_states() + current.num_transitions();
        current = eliminate_deterministic_tau(&current);
        let part = refine(&current, true);
        current = quotient(&current, &part, true);
        current = cut_maximal_progress(&current);
        current = current.restrict_to_reachable();
        let after = current.num_states() + current.num_transitions();
        if after >= before {
            break;
        }
    }
    let mut result = current;
    result.set_name(format!("min({})", model.name()));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::builder::IoImcBuilder;
    use crate::compose::compose;
    use crate::hide::hide;
    use crate::model::IoImc;
    use crate::model::Label;

    fn act(n: &str) -> Action {
        Action::new(n)
    }

    /// The Figure 2 example of the paper: A fires `a!` after a delay, B waits for
    /// `a?` and then fires `b!` after a delay.  Composing, hiding `a` and
    /// aggregating collapses the interleaving diamond.
    fn figure2() -> (IoImc, IoImc) {
        let a = act("bisim_fig2_a");
        let b_sig = act("bisim_fig2_b");

        // A: 1 --lambda--> 2 --a!--> 3   (the paper uses the same rate in both
        // components, which is what makes the interleaving diamond collapse).
        let mut ab = IoImcBuilder::new("A");
        let s = ab.add_states(3);
        ab.initial(s[0]);
        ab.markovian(s[0], 1.3, s[1]);
        ab.output(s[1], a, s[2]);
        let model_a = ab.build().unwrap();

        // B: 1 --lambda--> 2, 1 --a?--> 3, 2 --a?--> 4, 4 --lambda--> 4', 3 --lambda--> 4
        // A simplified faithful rendering: B fires b! only after it has both seen a?
        // and let its own delay elapse.
        let mut bb = IoImcBuilder::new("B");
        let t = bb.add_states(5);
        bb.initial(t[0]);
        bb.markovian(t[0], 1.3, t[1]);
        bb.input(t[0], a, t[2]);
        bb.input(t[1], a, t[3]);
        bb.markovian(t[2], 1.3, t[3]);
        bb.output(t[3], b_sig, t[4]);
        let model_b = bb.build().unwrap();
        (model_a, model_b)
    }

    #[test]
    fn figure2_pipeline_reduces_the_composition() {
        let (ma, mb) = figure2();
        let composed = compose(&ma, &mb).unwrap();
        let hidden = hide(&composed, &[act("bisim_fig2_a")]).unwrap();
        let reduced = minimize(&hidden);
        assert!(reduced.validate().is_ok());
        assert!(
            reduced.num_states() < hidden.num_states(),
            "aggregation should shrink the model ({} -> {})",
            hidden.num_states(),
            reduced.num_states()
        );
        // The observable behaviour is: two identical exponential delays in some
        // order, then b!; as in Figure 2(c) the quotient has four states.
        assert!(
            reduced.num_states() <= 4,
            "got {} states",
            reduced.num_states()
        );
        // The two interleaved first delays are lumped into a single rate-2λ move.
        let initial_rate: f64 = reduced
            .markovian_from(reduced.initial())
            .iter()
            .map(|t| t.rate)
            .sum();
        assert!((initial_rate - 2.6).abs() < 1e-9);
        // b! must still be observable.
        assert!(reduced
            .interactive()
            .iter()
            .any(|t| t.label == Label::Output(act("bisim_fig2_b"))));
    }

    #[test]
    fn identical_branches_are_lumped() {
        let f = act("bisim_lump_f");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(6);
        b.initial(s[0]);
        // Two parallel branches with identical behaviour.
        b.markovian(s[0], 2.0, s[1]);
        b.markovian(s[0], 3.0, s[2]);
        b.markovian(s[1], 1.0, s[3]);
        b.markovian(s[2], 1.0, s[4]);
        b.output(s[3], f, s[5]);
        b.output(s[4], f, s[5]);
        let m = b.build().unwrap();
        let red = minimize(&m);
        // s1/s2 merge, s3/s4 merge: initial, middle, firing, fired = 4 states.
        assert_eq!(red.num_states(), 4);
        // The two initial rates must be preserved as a single lumped rate 5.
        let total: f64 = red
            .markovian_from(red.initial())
            .iter()
            .map(|t| t.rate)
            .sum();
        assert!((total - 5.0).abs() < 1e-12);
    }

    #[test]
    fn maximal_progress_removes_race_with_immediate_output() {
        let f = act("bisim_mp_f");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.output(s[0], f, s[1]);
        b.markovian(s[0], 10.0, s[2]);
        let m = b.build().unwrap();
        let red = minimize(&m);
        // The Markovian transition can never fire; state s2 becomes unreachable.
        assert_eq!(red.num_markovian(), 0);
        assert!(red.num_states() <= 2);
    }

    #[test]
    fn tau_chains_collapse() {
        let tau = act("bisim_tau");
        let f = act("bisim_tau_f");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(6);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.internal(s[1], tau, s[2]);
        b.internal(s[2], tau, s[3]);
        b.internal(s[3], tau, s[4]);
        b.output(s[4], f, s[5]);
        let m = b.build().unwrap();
        let red = minimize(&m);
        // initial --1.0--> firing --f!--> fired.
        assert_eq!(red.num_states(), 3);
        assert_eq!(red.num_markovian(), 1);
        assert_eq!(red.num_interactive(), 1);
    }

    #[test]
    fn props_block_merging() {
        // Two otherwise identical absorbing states, one labelled "down": they must
        // not be merged.
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.markovian(s[0], 1.0, s[2]);
        let down = b.prop("down");
        b.set_prop(s[2], down);
        let m = b.build().unwrap();
        let red = minimize(&m);
        assert_eq!(red.num_states(), 3);
        let down = red.prop("down").unwrap();
        assert_eq!(red.states_with_prop(down).len(), 1);
    }

    #[test]
    fn minimisation_is_idempotent() {
        let (ma, mb) = figure2();
        let composed = compose(&ma, &mb).unwrap();
        let hidden = hide(&composed, &[act("bisim_fig2_a")]).unwrap();
        let once = minimize(&hidden);
        let twice = minimize(&once);
        assert_eq!(once.num_states(), twice.num_states());
        assert_eq!(once.num_transitions(), twice.num_transitions());
    }
}
