//! The DIFTree-style monolithic baseline.
//!
//! Section 4 of the paper describes how the original DIFTree/Galileo tool converts
//! a dynamic module into a Markov chain: starting from the state in which every
//! basic event is operational, each operational basic event is failed in turn
//! (with its current failure rate), the consequences are propagated through the
//! tree (functional dependencies, spare switching, priority checks) and the
//! resulting state is added to the chain; failed system states are absorbing.
//! Because every state carries the status vector of *all* basic events, the chain
//! grows exponentially with the number of basic events — which is precisely the
//! state-space-explosion problem the compositional approach mitigates.
//!
//! This module reimplements that algorithm faithfully enough to serve as (a) a
//! correctness cross-check for the compositional pipeline and (b) the comparison
//! point for the state-space numbers reported in Sections 5.1 and 5.2.
//!
//! Deliberate deviations, documented here:
//!
//! * simultaneous failures caused by an FDEP trigger are applied deterministically
//!   in input order (DIFTree and [Coppit et al. 2000] resolve the non-determinism
//!   the same way; the compositional pipeline instead reports bounds);
//! * only the classical element set is supported (BE, AND, OR, voting, PAND,
//!   spare, SEQ, FDEP with basic-event dependents); inhibition, repair and complex
//!   spares are extensions that DIFTree does not have.

use crate::activation::ActivationAnalysis;
use crate::{Error, Result};
use dft::{Dft, Element, ElementId, GateKind};
use markov::Ctmc;
use std::collections::HashMap;

/// The monolithic CTMC of a DFT, with its goal (system-failed) states.
#[derive(Debug, Clone)]
pub struct MonolithicResult {
    /// The generated chain.
    pub ctmc: Ctmc,
    /// `goal[s]` is `true` when the top event has occurred in state `s`.
    pub goal: Vec<bool>,
}

impl MonolithicResult {
    /// Number of states of the monolithic chain.
    pub fn num_states(&self) -> usize {
        self.ctmc.num_states()
    }

    /// Number of transitions of the monolithic chain.
    pub fn num_transitions(&self) -> usize {
        self.ctmc.num_transitions()
    }

    /// Unreliability at `mission_time`, computed on the generated chain.
    ///
    /// # Errors
    ///
    /// Propagates numerical errors of the transient analysis.
    pub fn unreliability(&self, mission_time: f64, epsilon: f64) -> Result<f64> {
        Ok(self.ctmc.reachability(&self.goal, mission_time, epsilon)?)
    }

    /// Unreliability at every listed mission time in a single uniformisation pass
    /// — the monolithic counterpart of
    /// [`Measure::UnreliabilityCurve`](crate::query::Measure::UnreliabilityCurve).
    ///
    /// # Errors
    ///
    /// Propagates numerical errors of the transient analysis.
    pub fn unreliability_curve(&self, mission_times: &[f64], epsilon: f64) -> Result<Vec<f64>> {
        Ok(self
            .ctmc
            .reachability_multi(&self.goal, mission_times, epsilon)?)
    }
}

/// One global state of the monolithic exploration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SysState {
    /// Failure status per basic event (indexed by position in `bes`).
    pub(crate) failed: Vec<bool>,
    /// Per spare-like gate: index of the input the gate currently relies on, or
    /// `None` when all inputs are exhausted (the gate has failed).
    spare_using: Vec<Option<u8>>,
    /// Per PAND gate: whether an out-of-order failure has permanently disabled it.
    pand_dead: Vec<bool>,
}

pub(crate) struct Explorer<'a> {
    dft: &'a Dft,
    activation: ActivationAnalysis,
    /// Basic events in element order; positions index `SysState::failed`.
    bes: Vec<ElementId>,
    be_index: HashMap<ElementId, usize>,
    /// Spare-like gates in element order; positions index `SysState::spare_using`.
    spare_gates: Vec<ElementId>,
    spare_index: HashMap<ElementId, usize>,
    /// PAND gates in element order; positions index `SysState::pand_dead`.
    pand_gates: Vec<ElementId>,
    pand_index: HashMap<ElementId, usize>,
    /// FDEP gates: (trigger, dependents).
    fdeps: Vec<(ElementId, Vec<ElementId>)>,
}

fn check_supported(dft: &Dft) -> Result<()> {
    if dft.is_repairable() {
        return Err(Error::Unsupported {
            message: "the monolithic baseline does not support repairable events".to_owned(),
        });
    }
    for id in dft.elements() {
        if let Some(gate) = dft.element(id).as_gate() {
            match gate.kind {
                GateKind::Inhibit => {
                    return Err(Error::Unsupported {
                        message: format!(
                            "the monolithic baseline does not support the inhibition gate '{}'",
                            dft.name(id)
                        ),
                    })
                }
                GateKind::Fdep => {
                    for &dep in &gate.inputs[1..] {
                        if dft.element(dep).as_basic_event().is_none() {
                            return Err(Error::Unsupported {
                                message: format!(
                                    "the monolithic baseline only supports basic events as FDEP \
                                     dependents; '{}' is a gate",
                                    dft.name(dep)
                                ),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Ok(())
}

impl<'a> Explorer<'a> {
    pub(crate) fn new(dft: &'a Dft) -> Result<Explorer<'a>> {
        check_supported(dft)?;
        let activation = ActivationAnalysis::analyze(dft)?;
        let bes = dft.basic_events();
        let be_index = bes.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        let spare_gates: Vec<ElementId> = dft
            .elements()
            .filter(|&e| {
                matches!(
                    dft.element(e).as_gate().map(|g| g.kind),
                    Some(GateKind::Spare) | Some(GateKind::Seq)
                )
            })
            .collect();
        let spare_index = spare_gates
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i))
            .collect();
        let pand_gates = dft.gates_of_kind(GateKind::Pand);
        let pand_index = pand_gates
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i))
            .collect();
        let fdeps = dft
            .fdep_gates()
            .into_iter()
            .map(|f| {
                let inputs = dft.element(f).inputs();
                (inputs[0], inputs[1..].to_vec())
            })
            .collect();
        Ok(Explorer {
            dft,
            activation,
            bes,
            be_index,
            spare_gates,
            spare_index,
            pand_gates,
            pand_index,
            fdeps,
        })
    }

    /// The basic events of the tree, in the order used by `SysState::failed`.
    pub(crate) fn basic_events(&self) -> &[ElementId] {
        &self.bes
    }

    pub(crate) fn initial_state(&self) -> SysState {
        SysState {
            failed: vec![false; self.bes.len()],
            spare_using: vec![Some(0); self.spare_gates.len()],
            pand_dead: vec![false; self.pand_gates.len()],
        }
    }

    /// Whether `element` (gate or basic event) counts as failed in `state`.
    pub(crate) fn element_failed(&self, state: &SysState, element: ElementId) -> bool {
        match self.dft.element(element) {
            Element::BasicEvent(_) => state.failed[self.be_index[&element]],
            Element::Gate(gate) => match gate.kind {
                GateKind::And => gate.inputs.iter().all(|&c| self.element_failed(state, c)),
                GateKind::Or => gate.inputs.iter().any(|&c| self.element_failed(state, c)),
                GateKind::Voting { k } => {
                    gate.inputs
                        .iter()
                        .filter(|&&c| self.element_failed(state, c))
                        .count()
                        >= k as usize
                }
                GateKind::Pand => {
                    !state.pand_dead[self.pand_index[&element]]
                        && gate.inputs.iter().all(|&c| self.element_failed(state, c))
                }
                GateKind::Spare | GateKind::Seq => {
                    state.spare_using[self.spare_index[&element]].is_none()
                }
                GateKind::Fdep => false, // dummy output
                GateKind::Inhibit => unreachable!("rejected by check_supported"),
            },
        }
    }

    /// Whether `element` is currently in its active (as opposed to dormant) mode.
    fn element_active(&self, state: &SysState, element: ElementId) -> bool {
        match self.activation.activation_root(element) {
            None => true,
            Some(root) => {
                // The root is active when some spare-like gate currently relies on
                // it and that gate is itself active.
                self.spare_gates.iter().enumerate().any(|(gi, &gate)| {
                    let using = state.spare_using[gi];
                    let inputs = self.dft.element(gate).inputs();
                    matches!(using, Some(j) if inputs[j as usize] == root)
                        && self.element_active(state, gate)
                })
            }
        }
    }

    /// The current failure rate of basic event `be` in `state` (0 when it cannot
    /// fail, e.g. a dormant cold spare).
    pub(crate) fn be_rate(&self, state: &SysState, be: ElementId) -> f64 {
        let data = self
            .dft
            .element(be)
            .as_basic_event()
            .expect("be list holds basic events");
        if self.element_active(state, be) {
            data.rate
        } else {
            data.dormant_rate()
        }
    }

    /// Applies the failure of basic event `be`, propagating functional dependencies
    /// and updating gate memory, and returns the successor state.
    pub(crate) fn apply_failure(&self, state: &SysState, be: ElementId) -> SysState {
        let mut next = state.clone();

        // 1. Collect the set of basic events failing in this step: the failing
        //    event plus FDEP-dependent events whose trigger has (now) fired.  A
        //    cascade may enable further FDEPs, so iterate to a fixpoint.
        let mut newly_failed: Vec<ElementId> = Vec::new();
        let fail_be = |s: &mut SysState, e: ElementId, acc: &mut Vec<ElementId>| {
            let idx = self.be_index[&e];
            if !s.failed[idx] {
                s.failed[idx] = true;
                acc.push(e);
            }
        };
        fail_be(&mut next, be, &mut newly_failed);
        loop {
            let mut changed = false;
            for (trigger, dependents) in &self.fdeps {
                if self.element_failed(&next, *trigger) {
                    for &dep in dependents {
                        let idx = self.be_index[&dep];
                        if !next.failed[idx] {
                            next.failed[idx] = true;
                            newly_failed.push(dep);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // 2. Update spare allocations and PAND memory to one joint fixpoint: a
        //    spare gate's failure is only visible once its allocation runs out,
        //    and a PAND above it must see that failure as part of this step.
        //    Both updates are monotone (allocations only advance, PANDs only
        //    die), so the loop terminates.
        loop {
            let died = self.update_pands(state, &mut next);
            let switched = self.update_spares(&mut next);
            if !died && !switched {
                break;
            }
        }

        next
    }

    /// PAND memory: a PAND dies when one of its inputs is newly failed in this
    /// step while an earlier input is still operational.  Failures within the
    /// same step are resolved deterministically in left-to-right order, so only
    /// inputs that remain operational after the whole step count as "earlier
    /// and not yet failed".  Returns whether some PAND died.
    fn update_pands(&self, state: &SysState, next: &mut SysState) -> bool {
        let mut changed = false;
        for (pi, &pand) in self.pand_gates.iter().enumerate() {
            if next.pand_dead[pi] {
                continue;
            }
            let inputs = self.dft.element(pand).inputs();
            let statuses: Vec<bool> = inputs
                .iter()
                .map(|&c| self.element_failed(next, c))
                .collect();
            for (j, &c) in inputs.iter().enumerate() {
                let newly = statuses[j] && !self.element_failed(state, c);
                if newly && statuses[..j].iter().any(|&failed| !failed) {
                    next.pand_dead[pi] = true;
                    changed = true;
                }
            }
        }
        changed
    }

    /// Spare allocations: gates whose current input has failed (or been taken)
    /// advance to the next usable input; contention is resolved
    /// deterministically in gate order.  Iterates to a fixpoint because a
    /// gate's switch can make another gate's candidate unavailable.  Returns
    /// whether some allocation changed.
    fn update_spares(&self, next: &mut SysState) -> bool {
        let mut any = false;
        loop {
            let mut changed = false;
            for (gi, &gate) in self.spare_gates.iter().enumerate() {
                let Some(cur) = next.spare_using[gi] else {
                    continue;
                };
                let inputs = self.dft.element(gate).inputs();
                let cur_element = inputs[cur as usize];
                let cur_failed = self.element_failed(next, cur_element);
                let cur_taken_by_other = self.taken_by_other(next, gi, cur_element);
                if !cur_failed && !cur_taken_by_other {
                    continue;
                }
                // Find the next usable input.
                let mut chosen: Option<u8> = None;
                for (j, &candidate) in inputs.iter().enumerate().skip(cur as usize + 1) {
                    if self.element_failed(next, candidate) {
                        continue;
                    }
                    if self.taken_by_other(next, gi, candidate) {
                        continue;
                    }
                    chosen = Some(j as u8);
                    break;
                }
                if next.spare_using[gi] != chosen {
                    next.spare_using[gi] = chosen;
                    changed = true;
                }
            }
            if !changed {
                return any;
            }
            any = true;
        }
    }

    /// Whether `element` is currently relied upon by a spare-like gate other than
    /// the one at position `gate_index`.
    fn taken_by_other(&self, state: &SysState, gate_index: usize, element: ElementId) -> bool {
        self.spare_gates.iter().enumerate().any(|(other, &gate)| {
            if other == gate_index {
                return false;
            }
            let inputs = self.dft.element(gate).inputs();
            match state.spare_using[other] {
                Some(j) => {
                    // Relying on the primary does not "take" it from anyone unless
                    // it is genuinely shared; relying on a spare does.
                    inputs[j as usize] == element && (j > 0 || inputs[0] == element)
                }
                None => false,
            }
        })
    }

    fn explore(&self) -> Result<MonolithicResult> {
        let mut index: HashMap<SysState, u32> = HashMap::new();
        let mut goal: Vec<bool> = Vec::new();
        let mut transitions: Vec<(u32, u32, f64)> = Vec::new();
        let mut worklist: Vec<SysState> = Vec::new();

        let initial = self.initial_state();
        index.insert(initial.clone(), 0);
        goal.push(self.element_failed(&initial, self.dft.top()));
        worklist.push(initial);

        while let Some(state) = worklist.pop() {
            let from = index[&state];
            if goal[from as usize] {
                continue; // failed system states are absorbing
            }
            for (bi, &be) in self.bes.iter().enumerate() {
                if state.failed[bi] {
                    continue;
                }
                let rate = self.be_rate(&state, be);
                if rate <= 0.0 {
                    continue;
                }
                let successor = self.apply_failure(&state, be);
                let to = match index.get(&successor) {
                    Some(&id) => id,
                    None => {
                        let id = index.len() as u32;
                        index.insert(successor.clone(), id);
                        goal.push(self.element_failed(&successor, self.dft.top()));
                        worklist.push(successor);
                        id
                    }
                };
                transitions.push((from, to, rate));
            }
        }

        let ctmc = Ctmc::from_transitions(index.len(), 0, &transitions)?;
        Ok(MonolithicResult { ctmc, goal })
    }
}

/// Generates the monolithic CTMC of a DFT, DIFTree-style.
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for extensions DIFTree does not have (repair,
/// inhibition, gates as FDEP dependents) and propagates numerical construction
/// errors.
pub fn monolithic_ctmc(dft: &Dft) -> Result<MonolithicResult> {
    Explorer::new(dft)?.explore()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft::{DftBuilder, Dormancy};

    fn exp_cdf(rate: f64, t: f64) -> f64 {
        1.0 - (-rate * t).exp()
    }

    #[test]
    fn and_gate_state_space_is_exponential_in_events() {
        let mut b = DftBuilder::new();
        let events: Vec<_> = (0..4)
            .map(|i| {
                b.basic_event(&format!("bl_E{i}"), 1.0, Dormancy::Hot)
                    .unwrap()
            })
            .collect();
        let top = b.and_gate("bl_Top", &events).unwrap();
        let dft = b.build(top).unwrap();
        let result = monolithic_ctmc(&dft).unwrap();
        // All 2^4 subsets are reachable (the all-failed state is the goal).
        assert_eq!(result.num_states(), 16);
        assert_eq!(result.goal.iter().filter(|&&g| g).count(), 1);
    }

    #[test]
    fn or_gate_fails_fast() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("bl2_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("bl2_Y", 2.0, Dormancy::Hot).unwrap();
        let top = b.or_gate("bl2_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let t = 0.5;
        let p = monolithic_ctmc(&dft)
            .unwrap()
            .unreliability(t, 1e-10)
            .unwrap();
        assert!((p - exp_cdf(3.0, t)).abs() < 1e-8);
    }

    #[test]
    fn cold_spare_cannot_fail_while_dormant() {
        let mut b = DftBuilder::new();
        let p = b.basic_event("bl3_P", 1.0, Dormancy::Hot).unwrap();
        let s = b.basic_event("bl3_S", 1.0, Dormancy::Cold).unwrap();
        let top = b.spare_gate("bl3_Top", &[p, s]).unwrap();
        let dft = b.build(top).unwrap();
        let t = 1.0;
        let unrel = monolithic_ctmc(&dft)
            .unwrap()
            .unreliability(t, 1e-10)
            .unwrap();
        let erlang = 1.0 - (-t).exp() * (1.0 + t);
        assert!((unrel - erlang).abs() < 1e-8, "{unrel} vs {erlang}");
    }

    #[test]
    fn warm_spare_uses_reduced_dormant_rate() {
        let mut b = DftBuilder::new();
        let p = b.basic_event("bl4_P", 1.0, Dormancy::Hot).unwrap();
        let s = b.basic_event("bl4_S", 1.0, Dormancy::Warm(0.5)).unwrap();
        let top = b.spare_gate("bl4_Top", &[p, s]).unwrap();
        let dft = b.build(top).unwrap();
        let result = monolithic_ctmc(&dft).unwrap();
        // From the initial state, the dormant spare fails at rate 0.5.
        let initial_exit = result.ctmc.exit_rate(result.ctmc.initial());
        assert!((initial_exit - 1.5).abs() < 1e-12);
    }

    #[test]
    fn pand_ignores_wrong_order() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("bl5_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("bl5_Y", 1.0, Dormancy::Hot).unwrap();
        let top = b.pand_gate("bl5_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let p = monolithic_ctmc(&dft)
            .unwrap()
            .unreliability(50.0, 1e-10)
            .unwrap();
        assert!((p - 0.5).abs() < 1e-3, "{p}");
    }

    /// PAND(E, CSP(X, XS)) with unit rates: the spare gate fails at an
    /// Erlang(2, 1) time S, and the PAND fails iff E fails before S, both by t.
    fn pand_over_spare() -> Dft {
        let mut b = DftBuilder::new();
        let e = b.basic_event("bl10_E", 1.0, Dormancy::Hot).unwrap();
        let x = b.basic_event("bl10_X", 1.0, Dormancy::Hot).unwrap();
        let xs = b.basic_event("bl10_XS", 1.0, Dormancy::Cold).unwrap();
        let csp = b.spare_gate("bl10_CSP", &[x, xs]).unwrap();
        let top = b.pand_gate("bl10_Top", &[e, csp]).unwrap();
        b.build(top).unwrap()
    }

    /// ∫₀¹ s·e⁻ˢ·(1 − e⁻ˢ) ds: the density of S times P(E ≤ S), over s ≤ 1.
    fn pand_over_spare_exact() -> f64 {
        let e = std::f64::consts::E;
        1.0 - 2.0 / e - 0.25 + 3.0 / (4.0 * e * e)
    }

    #[test]
    fn pand_sees_a_spare_gate_failing_in_the_same_step() {
        let p = monolithic_ctmc(&pand_over_spare())
            .unwrap()
            .unreliability(1.0, 1e-12)
            .unwrap();
        let exact = pand_over_spare_exact();
        assert!((p - exact).abs() < 1e-9, "{p} vs {exact}");
    }

    #[test]
    fn simulated_pand_over_spare_matches_the_closed_form() {
        let options = crate::simulate::SimulationOptions {
            samples: 40_000,
            seed: 13,
        };
        let estimate =
            crate::simulate::simulate_unreliability(&pand_over_spare(), 1.0, &options).unwrap();
        let exact = pand_over_spare_exact();
        assert!(
            (estimate.probability - exact).abs() < 4.0 * estimate.std_error,
            "{} vs {exact}",
            estimate.probability
        );
    }

    #[test]
    fn shared_spare_serves_only_one_gate() {
        // Two spare gates sharing one cold spare; the system (AND of both) fails
        // when all three components are gone.
        let mut b = DftBuilder::new();
        let pa = b.basic_event("bl6_PA", 1.0, Dormancy::Hot).unwrap();
        let pb = b.basic_event("bl6_PB", 1.0, Dormancy::Hot).unwrap();
        let ps = b.basic_event("bl6_PS", 1.0, Dormancy::Cold).unwrap();
        let ga = b.spare_gate("bl6_GA", &[pa, ps]).unwrap();
        let gb = b.spare_gate("bl6_GB", &[pb, ps]).unwrap();
        let top = b.and_gate("bl6_Top", &[ga, gb]).unwrap();
        let dft = b.build(top).unwrap();
        let result = monolithic_ctmc(&dft).unwrap();
        // The goal requires PA, PB and PS all failed (PS only after activation).
        assert!(result.num_states() >= 6);
        let p = result.unreliability(1.0, 1e-10).unwrap();
        assert!(p > 0.0 && p < 1.0);
        // The unreliability must be below that of the system without the spare
        // (plain AND of PA and PB) because the spare only helps.
        let and_only = exp_cdf(1.0, 1.0) * exp_cdf(1.0, 1.0);
        assert!(p < and_only);
    }

    #[test]
    fn fdep_trigger_fails_its_dependents() {
        let mut b = DftBuilder::new();
        let t = b.basic_event("bl7_T", 0.5, Dormancy::Hot).unwrap();
        let x = b.basic_event("bl7_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("bl7_Y", 1.0, Dormancy::Hot).unwrap();
        let _f = b.fdep_gate("bl7_F", t, &[x, y]).unwrap();
        let top = b.and_gate("bl7_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let p = monolithic_ctmc(&dft)
            .unwrap()
            .unreliability(1.0, 1e-10)
            .unwrap();
        // Failing the trigger alone fails the system, so unreliability is at least
        // the trigger's failure probability.
        assert!(p >= exp_cdf(0.5, 1.0) - 1e-9);
    }

    #[test]
    fn unsupported_features_are_rejected() {
        let mut b = DftBuilder::new();
        let x = b
            .repairable_basic_event("bl8_X", 1.0, Dormancy::Hot, 1.0)
            .unwrap();
        let top = b.or_gate("bl8_Top", &[x]).unwrap();
        let dft = b.build(top).unwrap();
        assert!(matches!(
            monolithic_ctmc(&dft),
            Err(Error::Unsupported { .. })
        ));

        let mut b2 = DftBuilder::new();
        let a = b2.basic_event("bl9_A", 1.0, Dormancy::Hot).unwrap();
        let c = b2.basic_event("bl9_B", 1.0, Dormancy::Hot).unwrap();
        let inh = b2.inhibit_gate("bl9_I", c, &[a]).unwrap();
        let top = b2.or_gate("bl9_Top", &[inh, a]).unwrap();
        let dft2 = b2.build(top).unwrap();
        assert!(matches!(
            monolithic_ctmc(&dft2),
            Err(Error::Unsupported { .. })
        ));
    }
}
