//! Compositional aggregation (Section 5 of the paper).
//!
//! The conversion/analysis algorithm of the paper alternates three operations until
//! a single I/O-IMC remains:
//!
//! 1. pick two members of the community and compose them in parallel,
//! 2. hide every output signal that no remaining member listens to (and that the
//!    analysis does not need to observe),
//! 3. aggregate the result modulo weak bisimulation.
//!
//! The composition *order* does not affect the result but strongly affects the peak
//! intermediate size.  The heuristic used here prefers pairs that actually
//! communicate (one's output is the other's input — composing unrelated components
//! only multiplies state counts) and, among those, the pair with the smallest
//! estimated product, which in practice composes each sub-tree bottom-up before
//! sub-trees are combined — the strategy the paper applies manually to its case
//! studies.

use crate::Result;
use ioimc::bisim::minimize;
use ioimc::compose::compose;
use ioimc::hide::into_hidden;
use ioimc::stats::ModelStats;
use ioimc::{Action, IoImcOf, Rate};
use std::collections::BTreeSet;

/// Statistics of one composition step.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Names of the two models composed in this step.
    pub composed: (String, String),
    /// Size of the product before hiding/aggregation.
    pub before_aggregation: ModelStats,
    /// Size after hiding and weak-bisimulation aggregation.
    pub after_aggregation: ModelStats,
    /// Actions hidden after this composition step.
    pub hidden: usize,
}

/// Statistics of a full compositional-aggregation run.
#[derive(Debug, Clone, Default)]
pub struct AggregationStats {
    /// Per-step statistics, in composition order.
    pub steps: Vec<StepStats>,
    /// Componentwise maximum over every intermediate model (the paper's headline
    /// metric: the peak state/transition count encountered during analysis).
    pub peak: ModelStats,
    /// Size of the final aggregated model.
    pub final_model: ModelStats,
}

impl AggregationStats {
    fn record_intermediate(&mut self, stats: ModelStats) {
        self.peak = self.peak.max(stats);
    }
}

/// Options controlling the aggregation loop.
#[derive(Debug, Clone, Default)]
pub struct AggregationOptions {
    /// Output actions that must stay observable (typically the top event's failure
    /// and, for repairable models, its repair signal).
    pub keep: Vec<Action>,
}

/// Runs compositional aggregation on a community of I/O-IMCs and returns the final
/// aggregated model together with size statistics.  Every element is minimised
/// before composition starts.
///
/// Each element is cloned once into its minimisation; from there on each
/// model is handed on, not copied: a product moves through hiding and
/// minimisation, which edit it in place.
///
/// # Errors
///
/// Propagates composition errors (incompatible signatures); a community produced by
/// [`convert`](crate::convert::convert) never triggers them.
///
/// # Panics
///
/// Panics if the community is empty.
pub fn aggregate<R: Rate>(
    models: &[IoImcOf<R>],
    options: &AggregationOptions,
) -> Result<(IoImcOf<R>, AggregationStats)> {
    assert!(!models.is_empty(), "cannot aggregate an empty community");
    let keep: BTreeSet<Action> = options.keep.iter().copied().collect();

    let mut stats = AggregationStats::default();
    let mut community: Vec<IoImcOf<R>> = models.iter().cloned().map(minimize).collect();
    for m in &community {
        stats.record_intermediate(ModelStats::of(m));
    }

    while community.len() > 1 {
        let (i, j) = pick_pair(&community);
        let right = community.swap_remove(j.max(i));
        let left = community.swap_remove(j.min(i));
        let names = (left.name().to_owned(), right.name().to_owned());

        let composed = compose(&left, &right)?;
        // Free the operands before the product is minimised.
        drop((left, right));
        stats.record_intermediate(ModelStats::of(&composed));
        let before_aggregation = ModelStats::of(&composed);

        // Hide outputs that no remaining community member listens to and that the
        // analysis does not need to keep observable.
        let needed: BTreeSet<Action> = community
            .iter()
            .flat_map(|m| m.signature().inputs().collect::<Vec<_>>())
            .chain(keep.iter().copied())
            .collect();
        let to_hide: Vec<Action> = composed
            .signature()
            .outputs()
            .filter(|a| !needed.contains(a))
            .collect();
        let reduced = minimize(into_hidden(composed, &to_hide)?);
        stats.record_intermediate(ModelStats::of(&reduced));
        stats.steps.push(StepStats {
            composed: names,
            before_aggregation,
            after_aggregation: ModelStats::of(&reduced),
            hidden: to_hide.len(),
        });
        community.push(reduced);
    }

    let final_model = community.pop().expect("one model remains");
    stats.final_model = ModelStats::of(&final_model);
    Ok((final_model, stats))
}

/// Chooses the next pair of community members to compose.
///
/// Pairs that communicate (one's outputs intersect the other's inputs) are
/// preferred; among candidates the pair with the smallest product of state counts
/// wins.  Ties are broken deterministically by index.
fn pick_pair<R: Rate>(community: &[IoImcOf<R>]) -> (usize, usize) {
    let n = community.len();
    debug_assert!(n >= 2);
    let mut best: Option<(bool, usize, usize, usize)> = None; // (communicates, cost, i, j)
    for i in 0..n {
        for j in (i + 1)..n {
            let a = &community[i];
            let b = &community[j];
            let communicates = a.signature().outputs().any(|o| b.signature().is_input(o))
                || b.signature().outputs().any(|o| a.signature().is_input(o));
            let cost = a.num_states().saturating_mul(b.num_states());
            let candidate = (communicates, cost, i, j);
            best = Some(match best {
                None => candidate,
                Some(current) => {
                    // Prefer communicating pairs, then lower cost, then lower index.
                    let better = match (candidate.0, current.0) {
                        (true, false) => true,
                        (false, true) => false,
                        _ => candidate.1 < current.1,
                    };
                    if better {
                        candidate
                    } else {
                        current
                    }
                }
            });
        }
    }
    let (_, _, i, j) = best.expect("at least one pair exists");
    (i, j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert;
    use dft::{DftBuilder, Dormancy};
    use ioimc::closed::{can_fire_immediately, drop_input_transitions};
    use ioimc::IoImcBuilder;

    #[test]
    fn aggregating_a_simple_and_tree_yields_a_small_model() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("ag_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("ag_Y", 2.0, Dormancy::Hot).unwrap();
        let top = b.and_gate("ag_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let community = convert(&dft).unwrap();
        let options = AggregationOptions {
            keep: vec![community.top_failure],
        };
        let (final_model, stats) = aggregate(&community.models, &options).unwrap();
        assert!(final_model.validate().is_ok());
        // The final model keeps the top failure observable.
        assert!(final_model.signature().is_output(community.top_failure));
        // Two independent exponential failures then the AND fires: the aggregated
        // model needs only a handful of states.
        assert!(
            final_model.num_states() <= 6,
            "got {}",
            final_model.num_states()
        );
        assert_eq!(stats.steps.len(), 2);
        assert!(stats.peak.states >= final_model.num_states());
        assert!(stats.final_model.states > 0);
    }

    #[test]
    fn aggregation_is_insensitive_to_community_order() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("ag2_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("ag2_Y", 2.0, Dormancy::Hot).unwrap();
        let z = b.basic_event("ag2_Z", 3.0, Dormancy::Hot).unwrap();
        let top = b.or_gate("ag2_Top", &[x, y, z]).unwrap();
        let dft = b.build(top).unwrap();
        let community = convert(&dft).unwrap();
        let options = AggregationOptions {
            keep: vec![community.top_failure],
        };
        let (forward, _) = aggregate(&community.models, &options).unwrap();
        let mut reversed = community.models.clone();
        reversed.reverse();
        let (backward, _) = aggregate(&reversed, &options).unwrap();
        assert_eq!(forward.num_states(), backward.num_states());
        assert_eq!(forward.num_transitions(), backward.num_transitions());
    }

    #[test]
    fn kept_actions_are_not_hidden() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("ag3_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("ag3_Y", 1.0, Dormancy::Hot).unwrap();
        let top = b.or_gate("ag3_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let community = convert(&dft).unwrap();
        let no_keep = aggregate(&community.models, &AggregationOptions::default())
            .unwrap()
            .0;
        // Without a keep set every output ends up hidden.
        assert_eq!(no_keep.signature().num_outputs(), 0);
        let with_keep = aggregate(
            &community.models,
            &AggregationOptions {
                keep: vec![community.top_failure],
            },
        )
        .unwrap()
        .0;
        assert!(with_keep.signature().is_output(community.top_failure));
    }

    #[test]
    fn pick_pair_prefers_communicating_models() {
        // Two communicating tiny models and one unrelated big model.
        let ping = Action::new("ag4_ping");
        let mut a = IoImcBuilder::new("sender");
        let s = a.add_states(2);
        a.initial(s[0]);
        a.output(s[0], ping, s[1]);
        let sender = a.build().unwrap();

        let mut b = IoImcBuilder::new("receiver");
        let t = b.add_states(2);
        b.initial(t[0]);
        b.input(t[0], ping, t[1]);
        let receiver = b.build().unwrap();

        let mut c = IoImcBuilder::new("bystander");
        let u = c.add_states(2);
        c.initial(u[0]);
        c.markovian(u[0], 1.0, u[1]);
        let bystander = c.build().unwrap();

        let community = vec![sender, bystander, receiver];
        let (i, j) = pick_pair(&community);
        let names = [community[i].name(), community[j].name()];
        assert!(names.contains(&"sender"));
        assert!(names.contains(&"receiver"));
    }

    #[test]
    fn aggregated_or_tree_fails_at_the_first_event() {
        // Sanity-check the semantics end to end at the I/O-IMC level: an OR of two
        // events can fire the top failure right after the first Markovian delay.
        let mut b = DftBuilder::new();
        let x = b.basic_event("ag5_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("ag5_Y", 1.0, Dormancy::Hot).unwrap();
        let top = b.or_gate("ag5_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let community = convert(&dft).unwrap();
        let (final_model, _) = aggregate(
            &community.models,
            &AggregationOptions {
                keep: vec![community.top_failure],
            },
        )
        .unwrap();
        let closed = drop_input_transitions(&final_model);
        let goal = can_fire_immediately(&closed, community.top_failure);
        // From the initial state one Markovian step must reach a goal state.
        let initial = closed.initial();
        assert!(!goal[initial.index()]);
        assert!(closed
            .markovian_from(initial)
            .iter()
            .all(|t| goal[t.to.index()]));
        // Total initial rate is 2 (two hot events racing).
        let rate: f64 = closed.markovian_from(initial).iter().map(|t| t.rate).sum();
        assert!((rate - 2.0).abs() < 1e-9);
    }
}
