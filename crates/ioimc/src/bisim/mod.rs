//! State-space aggregation (bisimulation minimisation).
//!
//! Compositional aggregation hinges on replacing an intermediate I/O-IMC by a
//! smaller, behaviourally equivalent one after every composition step.  The paper
//! uses *weak bisimulation* for I/O-IMCs; this module implements a sound and
//! practically effective pipeline:
//!
//! 1. **Maximal progress** ([`maximal_progress`]): Markovian transitions of states
//!    with an enabled output or internal transition can never fire (outputs and
//!    internal steps are immediate) and are removed.  This runs once, before
//!    the loop of step 4, together with the restriction to reachable states:
//!    τ-elimination keeps every surviving state's urgency and rates, and a
//!    weak quotient creates no urgent rate.  [`minimize`] owns its model, so
//!    this pass compacts the model's own rows in place, and returns the model
//!    untouched when it has no urgent rate and every state is reachable, as
//!    in a freshly composed product.  After [`refine`] in weak mode
//!    all members of a block have equal signatures, and a non-urgent member
//!    has no immediate move, so no member of its block has a visible one:
//!    their internal moves stay inside the block and the quotient drops them.
//!    A block without a non-urgent member gets no rate at all.
//! 2. **Deterministic τ-elimination** ([`tau_elim`]): states whose only behaviour
//!    is a single internal transition are transient "vanishing" states and are
//!    short-circuited.  Hiding creates long chains of such states.
//! 3. **Signature-based partition refinement** ([`partition`]): a branching-style
//!    weak bisimulation with Markovian lumping evaluated at non-urgent states.
//!    The computed equivalence refines (is contained in) weak bisimilarity for
//!    I/O-IMCs, so the quotient preserves every measure the paper computes
//!    (time-bounded reachability of failure, steady-state unavailability).
//!    After the first round, a refinement round re-signs only the blocks of
//!    two or more members that split in the last round or have a member with
//!    a transition into a block that did; every other block keeps its members
//!    together, which is the partition that signing every state would give.
//! 4. Steps 2 and 3 are iterated while a round shrinks the model (states
//!    plus transitions).  [`minimize`] stops as soon as it can prove that a
//!    round would change nothing: no state is vanishing, the partition is
//!    discrete, and the model has no internal self-loop and no two Markovian
//!    transitions between the same pair of states.  The quotient is then the
//!    model itself, and every other round strictly shrinks the model, so the
//!    result is a fixpoint of the pipeline.
//!
//!    The confirming round, in which the refinement of the last quotient
//!    finds nothing left to lump, cannot be skipped in floating point.  A
//!    quotient sums each block's rates into each target block in a new
//!    order, and a sum made in a new order can differ from the old one in
//!    its last bit, so states whose cumulative rates were apart by a rounding
//!    error can meet.  On the `cold-build` benchmark 4 of 23,537 quotients
//!    lumped further this way, one of them over four more rounds (2122 →
//!    2101 → 2089 → 2078 → 2077 states).
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
use maximal_progress::cut_to_reachable;
use partition::quotient_on_blocks;
use tau_elim::is_vanishing;

/// Aggregates `model` modulo (branching-style) weak bisimulation with maximal
/// progress, returning an equivalent model with at most as many states.
///
/// The result is a fixpoint: `minimize` is idempotent up to the model name,
/// so minimising its output again returns the same states and transitions
/// bit for bit.
///
/// The model is taken by value: the aggregation loop uses each product
/// once, and the maximal-progress and reachability pre-pass edits it in
/// place instead of copying it.  Pass a clone to keep the input.
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
/// let reduced = minimize(m.clone());
/// assert!(reduced.num_states() < m.num_states());
/// # Ok(())
/// # }
/// ```
pub fn minimize<R: Rate>(model: IoImcOf<R>) -> IoImcOf<R> {
    let name = format!("min({})", model.name());
    let mut current = if has_urgent_rates(&model) {
        cut_to_reachable(model)
    } else {
        model.into_reachable()
    };
    loop {
        let before = current.num_states() + current.num_transitions();
        let vanishing = current.states().any(|s| is_vanishing(&current, s));
        if vanishing {
            current = eliminate_deterministic_tau(&current);
        }
        // `is_quotient_fixed` relies on it.
        debug_assert!(
            !has_urgent_rates(&current),
            "no round brings back an urgent rate"
        );
        let part = refine(&current, true);
        if !vanishing
            && part.num_blocks as usize == current.num_states()
            && is_quotient_fixed(&current)
        {
            // The rest of the round would give `current` back unchanged.
            break;
        }
        // `current` is reachable and has no urgent rate, so its quotient
        // is reachable too, and a maximal-progress cut would give it back
        // unchanged (step 1 of the module documentation).
        current = quotient_on_blocks(&current, &part, true);
        debug_assert!(
            current.is_all_reachable(),
            "a weak quotient of a reachable model is reachable"
        );
        debug_assert!(
            !has_urgent_rates(&current),
            "a weak quotient has no urgent rate"
        );
        let after = current.num_states() + current.num_transitions();
        debug_assert!(
            after < before,
            "a round that changes nothing is caught before the quotient"
        );
        if after >= before {
            break;
        }
    }
    current.set_name(name);
    current
}

/// Whether some urgent state of `model` has a Markovian transition, which
/// [`cut_maximal_progress`] would remove.
fn has_urgent_rates<R: Rate>(model: &IoImcOf<R>) -> bool {
    model
        .states()
        .any(|s| !model.markovian_from(s).is_empty() && model.is_urgent(s))
}

/// Whether the weak quotient of `model`, which has no urgent Markovian
/// transition, under its discrete partition is `model` itself: no state has
/// an internal self-loop (which the quotient drops), and no two Markovian
/// transitions share source and target (which the quotient sums).  Each
/// block's rates then come from its single member, added onto
/// [`Rate::zero`], which leaves them unchanged.
fn is_quotient_fixed<R: Rate>(model: &IoImcOf<R>) -> bool {
    model.states().all(|s| {
        let self_loop = model
            .interactive_from(s)
            .iter()
            .any(|t| t.label.is_internal() && t.to == s);
        let parallel_rates = model
            .markovian_from(s)
            .windows(2)
            .any(|pair| pair[0].to == pair[1].to);
        !self_loop && !parallel_rates
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::action::Action;
    use crate::builder::IoImcBuilder;
    use crate::codec::{encode_model, RateCodec, Writer};
    use crate::compose::compose;
    use crate::hide::hide;
    use crate::model::IoImc;
    use crate::model::Label;
    use crate::rate::RateForm;

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
        let reduced = minimize(hidden.clone());
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
        let red = minimize(m);
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
        let red = minimize(m);
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
        let red = minimize(m);
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
        let red = minimize(m);
        assert_eq!(red.num_states(), 3);
        let down = red.prop("down").unwrap();
        assert_eq!(red.states_with_prop(down).len(), 1);
    }

    /// The codec bytes of `model` under a fixed name.
    pub(crate) fn bytes_of<R: RateCodec>(model: &IoImcOf<R>) -> Vec<u8> {
        let mut model = model.clone();
        model.set_name("m");
        let mut w = Writer::new();
        encode_model(&model, &mut w);
        w.into_bytes()
    }

    fn assert_idempotent<R: RateCodec>(model: &IoImcOf<R>) {
        let once = minimize(model.clone());
        let twice = minimize(once.clone());
        assert_eq!(bytes_of(&once), bytes_of(&twice), "model {}", model.name());
    }

    #[test]
    fn minimisation_is_idempotent() {
        let (ma, mb) = figure2();
        let composed = compose(&ma, &mb).unwrap();
        let hidden = hide(&composed, &[act("bisim_fig2_a")]).unwrap();
        assert_idempotent(&hidden);
        for seed in 0..64 {
            let model = random_model(seed);
            assert_idempotent(&model);
            assert_idempotent(&lift(&model));
        }
    }

    /// Asserts what lets [`minimize`] skip maximal progress and the
    /// restriction to reachable states after a quotient: the weak quotient
    /// of any model has no urgent Markovian transition, and the weak
    /// quotient of a reachable model without urgent rates (the model cut
    /// and restricted as `minimize` does first) has no unreachable block.
    /// Returns whether `model` itself had urgent rates.
    fn assert_weak_quotient_needs_no_cut<R: Rate>(model: &IoImcOf<R>) -> bool {
        let q = quotient_on_blocks(model, &refine(model, true), true);
        assert!(!has_urgent_rates(&q), "{}: urgent rate", model.name());
        let cut = cut_to_reachable(model.clone());
        let q = quotient_on_blocks(&cut, &refine(&cut, true), true);
        assert!(q.is_all_reachable(), "{}: unreachable block", model.name());
        has_urgent_rates(model)
    }

    #[test]
    fn weak_quotients_need_no_maximal_progress_pass() {
        let mut urgent = 0;
        let models = (0..256)
            .map(random_model)
            .chain((0..16).map(large_random_model));
        for model in models {
            urgent += usize::from(assert_weak_quotient_needs_no_cut(&model));
            assert_weak_quotient_needs_no_cut(&lift(&model));
        }
        assert!(urgent > 200, "most random models race an immediate move");
    }

    /// SplitMix64, the seeded generator behind [`random_model`].
    pub(crate) struct SplitMix64(pub(crate) u64);

    impl SplitMix64 {
        /// A uniform index in `0..n`.
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random I/O-IMC of 2 to 24 states over small action pools.
    ///
    /// Rates come from a three-value set, so equal-rate branches (lumpable)
    /// and parallel transitions are common; about a third of the states race
    /// an immediate move against a Markovian one (urgent states whose rates
    /// maximal progress cuts); internal targets are uniform, so internal
    /// chains, cycles and self-loops occur.
    pub(crate) fn random_model(seed: u64) -> IoImc {
        let mut rng = SplitMix64(seed);
        let n = 2 + rng.below(23);
        random_model_of(format!("random{seed}"), n, rng)
    }

    /// A random I/O-IMC like [`random_model`]'s, of 100 to 400 states, so
    /// that splits take several rounds to travel through it.
    pub(crate) fn large_random_model(seed: u64) -> IoImc {
        let mut rng = SplitMix64(seed);
        let n = 100 + rng.below(301);
        random_model_of(format!("large_random{seed}"), n, rng)
    }

    fn random_model_of(name: String, n: usize, mut rng: SplitMix64) -> IoImc {
        const RATES: [f64; 3] = [0.5, 1.0, 2.0];
        let pool = |kind: &str| -> Vec<Action> {
            (0..3)
                .map(|i| act(&format!("bisim_random_{kind}{i}")))
                .collect()
        };
        let (inputs, outputs, taus) = (pool("in"), pool("out"), pool("tau"));
        let mut b = IoImcBuilder::new(name);
        let s = b.add_states(n);
        b.initial(s[0]);
        let down = b.prop("down");
        let up = b.prop("up");
        for &from in &s {
            match rng.below(6) {
                0 => {
                    b.internal(from, taus[rng.below(3)], s[rng.below(n)]);
                }
                1 => {
                    b.output(from, outputs[rng.below(3)], s[rng.below(n)]);
                    b.markovian(from, RATES[rng.below(3)], s[rng.below(n)]);
                }
                2 => {
                    b.internal(from, taus[rng.below(3)], s[rng.below(n)]);
                    b.internal(from, taus[rng.below(3)], s[rng.below(n)]);
                    b.markovian(from, RATES[rng.below(3)], s[rng.below(n)]);
                }
                _ => {}
            }
            for _ in 0..rng.below(3) {
                b.markovian(from, RATES[rng.below(3)], s[rng.below(n)]);
            }
            if rng.below(3) == 0 {
                b.input(from, inputs[rng.below(3)], s[rng.below(n)]);
            }
            match rng.below(8) {
                0 => {
                    b.set_prop(from, down);
                }
                1 => {
                    b.set_prop(from, up);
                }
                _ => {}
            }
        }
        b.build().expect("random model is well-formed")
    }

    /// Lifts rate r to the form r·λ_k, with the slot chosen by the rate, so
    /// equal numeric rates stay equal forms.
    pub(crate) fn lift(model: &IoImc) -> IoImcOf<RateForm> {
        model.map_rates(|&r| RateForm::scaled_var((r * 2.0) as u32 % 3, r))
    }
}
