//! Experiment E1 — Figure 2 of the paper: parallel composition, hiding and
//! aggregation of two small I/O-IMCs.
//!
//! I/O-IMC `A` performs an exponential delay and then outputs `a!`; I/O-IMC `B`
//! waits for `a?` and its own equal-rate delay (in either order) and then outputs
//! `b!`.  Composing the two, hiding `a` and aggregating modulo weak bisimulation
//! collapses the interleaving diamond into a four-state chain, exactly as drawn in
//! Figure 2(c).

use dftmc::ioimc::bisim::minimize;
use dftmc::ioimc::closed::{can_fire_immediately, drop_input_transitions};
use dftmc::ioimc::compose::compose;
use dftmc::ioimc::hide::hide;
use dftmc::ioimc::{Action, IoImc, IoImcBuilder, Label};
use dftmc::markov::Ctmc;

const LAMBDA: f64 = 1.3;

fn model_a() -> IoImc {
    let a = Action::new("fig2_a");
    let mut b = IoImcBuilder::new("A");
    let s = b.add_states(3);
    b.initial(s[0]);
    b.markovian(s[0], LAMBDA, s[1]);
    b.output(s[1], a, s[2]);
    b.build().expect("model A is well-formed")
}

fn model_b() -> IoImc {
    let a = Action::new("fig2_a");
    let b_sig = Action::new("fig2_b");
    let mut b = IoImcBuilder::new("B");
    let t = b.add_states(5);
    b.initial(t[0]);
    b.markovian(t[0], LAMBDA, t[1]);
    b.input(t[0], a, t[2]);
    b.input(t[1], a, t[3]);
    b.markovian(t[2], LAMBDA, t[3]);
    b.output(t[3], b_sig, t[4]);
    b.build().expect("model B is well-formed")
}

fn composed_and_hidden() -> IoImc {
    let composed = compose(&model_a(), &model_b()).expect("composable");
    hide(&composed, &[Action::new("fig2_a")]).expect("a is an output")
}

#[test]
fn composition_synchronises_on_the_shared_action() {
    let composed = compose(&model_a(), &model_b()).expect("composable");
    // The shared action remains an output of the composition, b stays an output.
    assert!(composed.signature().is_output(Action::new("fig2_a")));
    assert!(composed.signature().is_output(Action::new("fig2_b")));
    assert!(!composed.signature().is_input(Action::new("fig2_a")));
    assert!(composed.validate().is_ok());
    // The interleaved product of a 3-state and a 5-state model stays small because
    // only the reachable part is built.
    assert!(composed.num_states() <= 15);
}

#[test]
fn aggregation_collapses_the_interleaving_diamond() {
    let hidden = composed_and_hidden();
    let reduced = minimize(hidden);
    assert!(reduced.validate().is_ok());
    // Figure 2(c): four states suffice (initial, one lumped middle state, firing,
    // fired).
    assert!(
        reduced.num_states() <= 4,
        "expected at most 4 states, got {}",
        reduced.num_states()
    );
    // The first move lumps both interleavings into a single rate-2λ transition.
    let initial_rate: f64 = reduced
        .markovian_from(reduced.initial())
        .iter()
        .map(|t| t.rate)
        .sum();
    assert!((initial_rate - 2.0 * LAMBDA).abs() < 1e-9);
    // b! stays observable.
    assert!(reduced
        .interactive()
        .iter()
        .any(|t| t.label == Label::Output(Action::new("fig2_b"))));
}

#[test]
fn aggregation_preserves_the_time_to_b() {
    // The time until b! is emitted is the sum of two exp(λ) delays (they can run
    // in parallel but both must finish... in this model B's own delay only starts
    // counting concurrently, so the completion time is max of the two delays
    // *interleaved through the composition*; rather than reasoning on paper we
    // check that the aggregated and the unaggregated model give the same value).
    let hidden = composed_and_hidden();
    let reduced = minimize(hidden.clone());

    let probability_of_b = |model: &IoImc, t: f64| -> f64 {
        let closed = drop_input_transitions(model);
        let goal = can_fire_immediately(&closed, Action::new("fig2_b"));
        let transitions: Vec<(u32, u32, f64)> = closed
            .markovian()
            .iter()
            .map(|tr| (tr.from.index() as u32, tr.to.index() as u32, tr.rate))
            .collect();
        let ctmc =
            Ctmc::from_transitions(closed.num_states(), closed.initial().index(), &transitions)
                .expect("valid chain");
        ctmc.reachability(&goal, t, 1e-10)
            .expect("reachability computes")
    };

    for t in [0.3, 1.0, 2.5] {
        let full = probability_of_b(&hidden, t);
        let small = probability_of_b(&reduced, t);
        assert!(
            (full - small).abs() < 1e-9,
            "t={t}: unaggregated {full} vs aggregated {small}"
        );
        // Both delays have the same rate, so the completion time is Erlang-like;
        // sanity-check monotonicity and range.
        assert!(full > 0.0 && full < 1.0);
    }
}
