//! Static activation analysis.
//!
//! Spare management is the subtlest part of the DFT semantics (Section 6.1 of the
//! paper).  A component that serves as a spare starts in *dormant* mode and only
//! switches to *active* mode when a spare gate claims it; the claim is announced
//! with an activation signal so that (a) the spare itself speeds up to its active
//! failure rate and (b) contending spare gates learn that the spare is taken.
//! Ordinary gates are "activation transparent": a sub-tree used as a spare is
//! activated as a whole, which means its basic events listen to the activation
//! signal of the sub-tree's root.  Nested spare gates are the exception — they pass
//! activation only to the input they are currently using.
//!
//! This module computes, once and for all, for every element:
//!
//! * whether it is **always active** (it lives outside every spare module, so it is
//!   active from time zero and needs no activation machinery at all), or
//! * which **activation root** it belongs to: the spare-module root whose
//!   activation signal `a_R` it listens to.
//!
//! It also computes which spare gates emit a *claim* signal `a_{X,G}` for which of
//! their inputs, which is exactly the information the spare-gate generator and the
//! activation auxiliaries need.

use crate::{Error, Result};
use dft::{Dft, ElementId, GateKind};
use std::collections::BTreeSet;

/// How an element gets activated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ActivationMode {
    /// The element is active from the start and needs no activation signal.
    AlwaysActive,
    /// The element is dormant until the activation signal of the given
    /// spare-module root is emitted.
    Dynamic {
        /// The spare-module root whose activation signal `a_root` the element
        /// listens to.
        root: ElementId,
    },
}

/// The result of the activation analysis.
#[derive(Debug, Clone)]
pub struct ActivationAnalysis {
    modes: Vec<ActivationMode>,
    /// `claiming_gates[x]` lists the spare (or SEQ) gates that emit the claim
    /// signal `a_{x,G}` for element `x`.
    claiming_gates: Vec<Vec<ElementId>>,
}

fn is_spare_like(dft: &Dft, gate: ElementId) -> bool {
    matches!(
        dft.element(gate).as_gate().map(|g| g.kind),
        Some(GateKind::Spare) | Some(GateKind::Seq)
    )
}

impl ActivationAnalysis {
    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for configurations whose activation semantics
    /// is ambiguous (an element used as the primary of one spare gate and a spare
    /// of another, or an element shared between two distinct spare modules).
    pub fn analyze(dft: &Dft) -> Result<ActivationAnalysis> {
        let n = dft.num_elements();

        // Which elements are non-primary inputs ("spare entries") of a spare-like
        // gate, and which are primaries of one.
        let mut spare_entry = vec![false; n];
        let mut primary_of: Vec<Option<ElementId>> = vec![None; n];
        for gate in dft.elements() {
            if !is_spare_like(dft, gate) {
                continue;
            }
            let inputs = dft.element(gate).inputs();
            primary_of[inputs[0].index()] = Some(gate);
            for &spare in &inputs[1..] {
                spare_entry[spare.index()] = true;
            }
        }
        for x in dft.elements() {
            if spare_entry[x.index()] && primary_of[x.index()].is_some() {
                return Err(Error::Unsupported {
                    message: format!(
                        "element '{}' is the primary of one spare gate and a spare of another; \
                         its activation would be ambiguous",
                        dft.name(x)
                    ),
                });
            }
        }

        // Propagate modes from parents to children: process gates before their
        // inputs (reverse topological order).
        let mut modes: Vec<Option<ActivationMode>> = vec![None; n];
        let mut order = dft.topological_order();
        order.reverse();
        for &x in &order {
            let xi = x.index();
            if spare_entry[xi] {
                modes[xi] = Some(ActivationMode::Dynamic { root: x });
                continue;
            }
            if let Some(gate) = primary_of[xi] {
                // The primary is activated together with its gate.
                let gate_mode = modes[gate.index()].expect("parents processed first");
                modes[xi] = Some(match gate_mode {
                    ActivationMode::AlwaysActive => ActivationMode::AlwaysActive,
                    ActivationMode::Dynamic { .. } => ActivationMode::Dynamic { root: x },
                });
                continue;
            }
            // Ordinary element: inherit from non-FDEP parents.
            let relevant_parents: Vec<ElementId> = dft
                .parents(x)
                .iter()
                .copied()
                .filter(|&p| {
                    !matches!(
                        dft.element(p).as_gate().map(|g| g.kind),
                        Some(GateKind::Fdep)
                    )
                })
                .collect();
            if relevant_parents.is_empty() {
                modes[xi] = Some(ActivationMode::AlwaysActive);
                continue;
            }
            let parent_modes: BTreeSet<ActivationMode> = relevant_parents
                .iter()
                .map(|&p| {
                    // A parent that is a spare-like gate would have classified `x`
                    // as primary or spare entry above, so parents here are
                    // activation-transparent gates.
                    modes[p.index()].expect("parents processed first")
                })
                .collect();
            if parent_modes.contains(&ActivationMode::AlwaysActive) {
                modes[xi] = Some(ActivationMode::AlwaysActive);
                continue;
            }
            let roots: BTreeSet<ElementId> = parent_modes
                .iter()
                .map(|m| match m {
                    ActivationMode::Dynamic { root } => *root,
                    ActivationMode::AlwaysActive => unreachable!(),
                })
                .collect();
            if roots.len() > 1 {
                return Err(Error::Unsupported {
                    message: format!(
                        "element '{}' belongs to two different spare modules; \
                         its activation would be ambiguous",
                        dft.name(x)
                    ),
                });
            }
            modes[xi] = Some(ActivationMode::Dynamic {
                root: *roots.iter().next().expect("nonempty"),
            });
        }
        let modes: Vec<ActivationMode> = modes
            .into_iter()
            .map(|m| m.expect("all elements processed"))
            .collect();

        // Which gates claim which inputs: every spare-like gate claims its spares;
        // it claims its primary only if the gate itself is dormant-capable.
        let mut claiming_gates: Vec<Vec<ElementId>> = vec![Vec::new(); n];
        for gate in dft.elements() {
            if !is_spare_like(dft, gate) {
                continue;
            }
            let inputs = dft.element(gate).inputs();
            for &spare in &inputs[1..] {
                claiming_gates[spare.index()].push(gate);
            }
            if matches!(modes[gate.index()], ActivationMode::Dynamic { .. }) {
                claiming_gates[inputs[0].index()].push(gate);
            }
        }

        Ok(ActivationAnalysis {
            modes,
            claiming_gates,
        })
    }

    /// The activation mode of `element`.
    pub fn mode(&self, element: ElementId) -> ActivationMode {
        self.modes[element.index()]
    }

    /// The spare-module root whose activation signal `element` listens to, if any.
    pub fn activation_root(&self, element: ElementId) -> Option<ElementId> {
        match self.mode(element) {
            ActivationMode::AlwaysActive => None,
            ActivationMode::Dynamic { root } => Some(root),
        }
    }

    /// The spare (or SEQ) gates that emit a claim signal `a_{element,G}`.
    pub fn claiming_gates(&self, element: ElementId) -> &[ElementId] {
        &self.claiming_gates[element.index()]
    }

    /// Elements that need an activation auxiliary: dynamic spare-module roots.
    pub fn activation_roots(&self, dft: &Dft) -> Vec<ElementId> {
        dft.elements()
            .filter(|&x| self.activation_root(x) == Some(x))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft::{DftBuilder, Dormancy};

    /// CAS-like pump unit: two spare gates sharing one cold spare.
    fn shared_spare() -> Dft {
        let mut b = DftBuilder::new();
        let pa = b.basic_event("PA", 1.0, Dormancy::Hot).unwrap();
        let pb = b.basic_event("PB", 1.0, Dormancy::Hot).unwrap();
        let ps = b.basic_event("PS", 1.0, Dormancy::Cold).unwrap();
        let ga = b.spare_gate("Pump_A", &[pa, ps]).unwrap();
        let gb = b.spare_gate("Pump_B", &[pb, ps]).unwrap();
        let top = b.and_gate("Pump_unit", &[ga, gb]).unwrap();
        b.build(top).unwrap()
    }

    #[test]
    fn top_level_elements_are_always_active() {
        let dft = shared_spare();
        let analysis = ActivationAnalysis::analyze(&dft).unwrap();
        for name in ["PA", "PB", "Pump_A", "Pump_B", "Pump_unit"] {
            let id = dft.by_name(name).unwrap();
            assert_eq!(
                analysis.mode(id),
                ActivationMode::AlwaysActive,
                "{name} should be always active"
            );
        }
    }

    #[test]
    fn shared_spare_is_claimed_by_both_gates() {
        let dft = shared_spare();
        let analysis = ActivationAnalysis::analyze(&dft).unwrap();
        let ps = dft.by_name("PS").unwrap();
        assert_eq!(analysis.mode(ps), ActivationMode::Dynamic { root: ps });
        let claiming: Vec<&str> = analysis
            .claiming_gates(ps)
            .iter()
            .map(|&g| dft.name(g))
            .collect();
        assert_eq!(claiming, vec!["Pump_A", "Pump_B"]);
        assert_eq!(analysis.activation_roots(&dft), vec![ps]);
    }

    #[test]
    fn primaries_of_always_active_gates_are_not_claimed() {
        let dft = shared_spare();
        let analysis = ActivationAnalysis::analyze(&dft).unwrap();
        let pa = dft.by_name("PA").unwrap();
        assert!(analysis.claiming_gates(pa).is_empty());
    }

    /// Figure 10(b): a spare gate whose primary and spare are themselves spare
    /// gates over basic events.
    fn nested_spares() -> Dft {
        let mut b = DftBuilder::new();
        let a = b.basic_event("A", 1.0, Dormancy::Warm(0.5)).unwrap();
        let bb = b.basic_event("B", 1.0, Dormancy::Warm(0.5)).unwrap();
        let c = b.basic_event("C", 1.0, Dormancy::Warm(0.5)).unwrap();
        let d = b.basic_event("D", 1.0, Dormancy::Warm(0.5)).unwrap();
        let primary = b.spare_gate("primary", &[a, bb]).unwrap();
        let spare = b.spare_gate("spare", &[c, d]).unwrap();
        let top = b.spare_gate("system", &[primary, spare]).unwrap();
        b.build(top).unwrap()
    }

    #[test]
    fn nested_spare_gates_form_their_own_activation_scopes() {
        let dft = nested_spares();
        let analysis = ActivationAnalysis::analyze(&dft).unwrap();
        let a = dft.by_name("A").unwrap();
        let bb = dft.by_name("B").unwrap();
        let c = dft.by_name("C").unwrap();
        let d = dft.by_name("D").unwrap();
        let primary = dft.by_name("primary").unwrap();
        let spare = dft.by_name("spare").unwrap();
        let system = dft.by_name("system").unwrap();

        // The top spare gate and its primary module are active from the start.
        assert_eq!(analysis.mode(system), ActivationMode::AlwaysActive);
        assert_eq!(analysis.mode(primary), ActivationMode::AlwaysActive);
        // The primary A of the (active) primary module is active; its spare B is
        // activated by the module itself.
        assert_eq!(analysis.mode(a), ActivationMode::AlwaysActive);
        assert_eq!(analysis.mode(bb), ActivationMode::Dynamic { root: bb });
        // The spare module and its components are dormant: C (primary of 'spare')
        // is activated when 'spare' is activated, D when 'spare' claims it.
        assert_eq!(
            analysis.mode(spare),
            ActivationMode::Dynamic { root: spare }
        );
        assert_eq!(analysis.mode(c), ActivationMode::Dynamic { root: c });
        assert_eq!(analysis.mode(d), ActivationMode::Dynamic { root: d });
        // 'spare' claims its primary C because 'spare' itself is dormant-capable.
        let claiming_c: Vec<&str> = analysis
            .claiming_gates(c)
            .iter()
            .map(|&g| dft.name(g))
            .collect();
        assert_eq!(claiming_c, vec!["spare"]);
    }

    /// An AND sub-tree used as a spare (Figure 10(a)): its basic events listen to
    /// the sub-tree root's activation signal.
    #[test]
    fn and_subtree_as_spare_shares_one_activation_root() {
        let mut b = DftBuilder::new();
        let a = b.basic_event("A", 1.0, Dormancy::Hot).unwrap();
        let bb = b.basic_event("B", 1.0, Dormancy::Hot).unwrap();
        let c = b.basic_event("C", 1.0, Dormancy::Warm(0.2)).unwrap();
        let d = b.basic_event("D", 1.0, Dormancy::Warm(0.2)).unwrap();
        let primary = b.and_gate("primary", &[a, bb]).unwrap();
        let spare = b.and_gate("spare", &[c, d]).unwrap();
        let top = b.spare_gate("system", &[primary, spare]).unwrap();
        let dft = b.build(top).unwrap();
        let analysis = ActivationAnalysis::analyze(&dft).unwrap();

        let spare_id = dft.by_name("spare").unwrap();
        let c_id = dft.by_name("C").unwrap();
        let d_id = dft.by_name("D").unwrap();
        // Both C and D listen to the module root's activation signal (the AND gate
        // is activation transparent).
        assert_eq!(
            analysis.mode(c_id),
            ActivationMode::Dynamic { root: spare_id }
        );
        assert_eq!(
            analysis.mode(d_id),
            ActivationMode::Dynamic { root: spare_id }
        );
        assert_eq!(analysis.activation_roots(&dft), vec![spare_id]);
    }

    #[test]
    fn fdep_parents_do_not_provide_activation_context() {
        let mut b = DftBuilder::new();
        let t = b.basic_event("T", 1.0, Dormancy::Hot).unwrap();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let _fdep = b.fdep_gate("F", t, &[x]).unwrap();
        let top = b.or_gate("Top", &[x, t]).unwrap();
        let dft = b.build(top).unwrap();
        let analysis = ActivationAnalysis::analyze(&dft).unwrap();
        assert_eq!(
            analysis.mode(dft.by_name("X").unwrap()),
            ActivationMode::AlwaysActive
        );
    }

    #[test]
    fn primary_that_is_also_a_spare_is_rejected() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("Y", 1.0, Dormancy::Hot).unwrap();
        let z = b.basic_event("Z", 1.0, Dormancy::Cold).unwrap();
        let g1 = b.spare_gate("G1", &[x, z]).unwrap();
        let g2 = b.spare_gate("G2", &[z, y]).unwrap();
        let top = b.and_gate("Top", &[g1, g2]).unwrap();
        // Z is a spare of G1 and the primary of G2.  The dft crate may already
        // reject this sharing pattern at build time, which is fine too.
        if let Ok(dft) = b.build(top) {
            assert!(matches!(
                ActivationAnalysis::analyze(&dft),
                Err(Error::Unsupported { .. })
            ));
        }
    }
}
