//! Conversion of a DFT into a community of I/O-IMCs (Section 4.5 of the paper).
//!
//! Every element of the tree is mapped to its elementary I/O-IMC; auxiliaries are
//! added where needed (a firing auxiliary per FDEP-dependent element, an activation
//! auxiliary per dynamically activated spare-module root), and all inputs and
//! outputs are matched up through the naming scheme of [`signals`].

use crate::activation::ActivationAnalysis;
use crate::parametric::{ParamKind, ParamTable};
use crate::semantics::{
    basic_event, inhibition_auxiliary, or_auxiliary, pand_gate, spare_gate, threshold_gate,
    BasicEventSpec, PandSpec, SpareInput, SpareSpec, ThresholdRepair, ThresholdSpec,
};
use crate::{signals, Error, Result};
use dft::{Dft, Element, ElementId, GateKind};
use ioimc::{Action, IoImc, IoImcOf, Rate, RateForm};
use std::collections::BTreeMap;

/// The I/O-IMC community obtained from a DFT, together with the signals the
/// analysis needs to observe.  Generic over the rate type: [`convert`] produces
/// the numeric `Community`, [`convert_parametric`] the symbolic
/// `CommunityOf<RateForm>`.
#[derive(Debug, Clone)]
pub struct CommunityOf<R = f64> {
    /// One I/O-IMC per DFT element (except FDEP gates) plus auxiliaries.
    pub models: Vec<IoImcOf<R>>,
    /// The failure signal of the top event.
    pub top_failure: Action,
    /// The repair signal of the top event, when the DFT is repairable.
    pub top_repair: Option<Action>,
}

/// The numeric-rate community (the classical instantiation).
pub type Community = CommunityOf<f64>;

impl<R: Rate> CommunityOf<R> {
    /// Number of community members.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Returns `true` if the community has no members (never the case for a valid
    /// DFT; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// The three rates of one basic event, in the model's rate type.
type BeRates<R> = (R, R, Option<R>);

/// Lifts a rate-free model (gates and auxiliaries never carry Markovian
/// transitions) into any rate type.
fn lift<R: Rate>(model: IoImc) -> IoImcOf<R> {
    model.map_rates(|_| unreachable!("gate and auxiliary models carry no Markovian transitions"))
}

/// Additional wellformedness conditions the translation imposes on top of the
/// `dft` crate's validation.
fn check_translatable(dft: &Dft) -> Result<()> {
    for fdep in dft.fdep_gates() {
        if !dft.parents(fdep).is_empty() {
            return Err(Error::Unsupported {
                message: format!(
                    "FDEP gate '{}' is used as an input of another gate; its output is a dummy \
                     and carries no failure information",
                    dft.name(fdep)
                ),
            });
        }
        if fdep == dft.top() {
            return Err(Error::Unsupported {
                message: format!(
                    "FDEP gate '{}' cannot be the top event (its output is a dummy)",
                    dft.name(fdep)
                ),
            });
        }
    }
    if dft.is_repairable() {
        for id in dft.elements() {
            if let Some(gate) = dft.element(id).as_gate() {
                if gate.kind.is_dynamic() {
                    return Err(Error::Unsupported {
                        message: format!(
                            "repairable analysis currently supports static gates only; \
                             '{}' is a {} gate",
                            dft.name(id),
                            gate.kind
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Elements that emit a repair signal in a repairable model: repairable basic
/// events and (in a repairable DFT) every static gate.
fn emits_repair(dft: &Dft, element: ElementId) -> bool {
    match dft.element(element) {
        Element::BasicEvent(be) => be.repair_rate.is_some(),
        Element::Gate(_) => dft.is_repairable(),
    }
}

/// Converts a DFT into its I/O-IMC community.
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for feature combinations the translation does not
/// cover (see [`crate`] documentation) and propagates activation-analysis errors.
///
/// # Examples
///
/// ```
/// use dft::{DftBuilder, Dormancy};
/// use dft_core::convert::convert;
/// # fn main() -> Result<(), dft_core::Error> {
/// let mut b = DftBuilder::new();
/// let x = b.basic_event("X", 1.0, Dormancy::Hot)?;
/// let y = b.basic_event("Y", 1.0, Dormancy::Hot)?;
/// let top = b.and_gate("Top", &[x, y])?;
/// let dft = b.build(top)?;
/// let community = convert(&dft)?;
/// // One model per element: X, Y and the AND gate.
/// assert_eq!(community.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn convert(dft: &Dft) -> Result<Community> {
    convert_impl(dft, &mut |id| {
        let be = dft
            .element(id)
            .as_basic_event()
            .expect("rates are only requested for basic events");
        (be.rate, be.dormant_rate(), be.repair_rate)
    })
}

/// Converts a DFT into a *parametric* I/O-IMC community: every basic event's
/// failure rate becomes a fresh parameter slot (its dormant rate the structural
/// multiple α·λ of the same slot), every repair rate another slot, and all
/// Markovian transitions carry [`RateForm`]s over those slots.  The returned
/// [`ParamTable`] records the slot meanings and base values.
///
/// Aggregating this community (see
/// [`ParametricAnalyzer`](crate::engine::ParametricAnalyzer)) is sound for
/// **every** positive valuation of the slots at once, so one aggregation can
/// serve a whole rate sweep.
///
/// # Errors
///
/// Same conditions as [`convert`].
///
/// # Examples
///
/// ```
/// use dft::{DftBuilder, Dormancy};
/// use dft_core::convert::convert_parametric;
/// # fn main() -> Result<(), dft_core::Error> {
/// let mut b = DftBuilder::new();
/// let x = b.basic_event("X", 1.0, Dormancy::Hot)?;
/// let y = b.basic_event("Y", 2.0, Dormancy::Hot)?;
/// let top = b.and_gate("Top", &[x, y])?;
/// let dft = b.build(top)?;
/// let (community, params) = convert_parametric(&dft)?;
/// assert_eq!(community.len(), 3);
/// assert_eq!(params.len(), 2); // one failure slot per basic event
/// assert_eq!(params.base_valuation().values(), &[1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn convert_parametric(dft: &Dft) -> Result<(CommunityOf<RateForm>, ParamTable)> {
    let mut table = ParamTable::default();
    let community = convert_impl(dft, &mut |id| {
        let be = dft
            .element(id)
            .as_basic_event()
            .expect("rates are only requested for basic events");
        let name = dft.name(id);
        let failure = table.push(name, ParamKind::Failure, be.rate);
        let active = RateForm::var(failure);
        let dormant = RateForm::scaled_var(failure, be.dormancy.factor());
        let repair = be
            .repair_rate
            .map(|mu| RateForm::var(table.push(name, ParamKind::Repair, mu)));
        (active, dormant, repair)
    })?;
    Ok((community, table))
}

/// The shared conversion core: `be_rates` supplies the three rates of each
/// basic event in the target rate type; everything else is rate-free.
pub(crate) fn convert_impl<R: Rate>(
    dft: &Dft,
    be_rates: &mut dyn FnMut(ElementId) -> BeRates<R>,
) -> Result<CommunityOf<R>> {
    check_translatable(dft)?;
    let activation = ActivationAnalysis::analyze(dft)?;

    // Which elements are FDEP-dependent, and on which triggers.
    let mut fdep_triggers: BTreeMap<ElementId, Vec<Action>> = BTreeMap::new();
    for fdep in dft.fdep_gates() {
        let inputs = dft.element(fdep).inputs();
        let trigger = signals::firing(dft, inputs[0]);
        for &dependent in &inputs[1..] {
            fdep_triggers.entry(dependent).or_default().push(trigger);
        }
    }

    // The signal an element emits itself: its observable failure signal, unless a
    // firing auxiliary sits between the element and its observers.
    let own_output = |element: ElementId| -> Action {
        if fdep_triggers.contains_key(&element) {
            signals::isolated_firing(dft, element)
        } else {
            signals::firing(dft, element)
        }
    };
    // The signal observers of an element listen to (always the post-FA signal).
    let observable = |element: ElementId| -> Action { signals::firing(dft, element) };

    let mut models: Vec<IoImcOf<R>> = Vec::new();

    for id in dft.elements() {
        let name = dft.name(id);
        match dft.element(id) {
            Element::BasicEvent(_) => {
                let (active_rate, dormant_rate, repair_rate) = be_rates(id);
                let spec = BasicEventSpec {
                    name: name.to_owned(),
                    active_rate,
                    dormant_rate,
                    activation: activation
                        .activation_root(id)
                        .map(|root| signals::activation(dft, root)),
                    firing: own_output(id),
                    repair: repair_rate.map(|mu| (mu, signals::repair(dft, id))),
                };
                models.push(basic_event(&spec)?);
            }
            Element::Gate(gate) => match gate.kind {
                GateKind::Fdep => {
                    // The FDEP gate itself has no behaviour; its firing auxiliaries
                    // are generated below.
                }
                GateKind::And | GateKind::Or | GateKind::Voting { .. } => {
                    let k = match gate.kind {
                        GateKind::And => gate.inputs.len() as u32,
                        GateKind::Or => 1,
                        GateKind::Voting { k } => k,
                        _ => unreachable!(),
                    };
                    let repair = if dft.is_repairable() {
                        Some(ThresholdRepair {
                            input_repairs: gate
                                .inputs
                                .iter()
                                .map(|&c| emits_repair(dft, c).then(|| signals::repair(dft, c)))
                                .collect(),
                            repair_output: signals::repair(dft, id),
                        })
                    } else {
                        None
                    };
                    let spec = ThresholdSpec {
                        name: name.to_owned(),
                        k,
                        inputs: gate.inputs.iter().map(|&c| observable(c)).collect(),
                        firing: own_output(id),
                        repair,
                    };
                    models.push(lift(threshold_gate(&spec)?));
                }
                GateKind::Pand => {
                    let spec = PandSpec {
                        name: name.to_owned(),
                        inputs: gate.inputs.iter().map(|&c| observable(c)).collect(),
                        firing: own_output(id),
                    };
                    models.push(lift(pand_gate(&spec)?));
                }
                GateKind::Spare | GateKind::Seq => {
                    let inputs = gate
                        .inputs
                        .iter()
                        .map(|&child| {
                            let claiming = activation.claiming_gates(child);
                            SpareInput {
                                failure: observable(child),
                                claim: claiming
                                    .contains(&id)
                                    .then(|| signals::claim(dft, child, id)),
                                contenders: claiming
                                    .iter()
                                    .filter(|&&g| g != id)
                                    .map(|&g| signals::claim(dft, child, g))
                                    .collect(),
                            }
                        })
                        .collect();
                    let spec = SpareSpec {
                        name: name.to_owned(),
                        inputs,
                        firing: own_output(id),
                        activation: activation
                            .activation_root(id)
                            .map(|root| signals::activation(dft, root)),
                    };
                    models.push(lift(spare_gate(&spec)?));
                }
                GateKind::Inhibit => {
                    let subject = observable(gate.inputs[0]);
                    let inhibitors: Vec<Action> =
                        gate.inputs[1..].iter().map(|&c| observable(c)).collect();
                    models.push(lift(inhibition_auxiliary(
                        &format!("IA {name}"),
                        subject,
                        &inhibitors,
                        own_output(id),
                    )?));
                }
            },
        }
    }

    // Firing auxiliaries for FDEP-dependent elements.
    for (&dependent, triggers) in &fdep_triggers {
        let mut inputs = vec![signals::isolated_firing(dft, dependent)];
        inputs.extend(triggers.iter().copied());
        models.push(lift(or_auxiliary(
            &format!("FA {}", dft.name(dependent)),
            &inputs,
            signals::firing(dft, dependent),
        )?));
    }

    // Activation auxiliaries for dynamically activated spare-module roots.
    for root in activation.activation_roots(dft) {
        let claims: Vec<Action> = activation
            .claiming_gates(root)
            .iter()
            .map(|&g| signals::claim(dft, root, g))
            .collect();
        if claims.is_empty() {
            return Err(Error::Unsupported {
                message: format!(
                    "element '{}' needs activation but no spare gate ever activates it",
                    dft.name(root)
                ),
            });
        }
        models.push(lift(or_auxiliary(
            &format!("AA {}", dft.name(root)),
            &claims,
            signals::activation(dft, root),
        )?));
    }

    let top_repair = (dft.is_repairable() && emits_repair(dft, dft.top()))
        .then(|| signals::repair(dft, dft.top()));

    Ok(CommunityOf {
        models,
        top_failure: signals::firing(dft, dft.top()),
        top_repair,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft::{DftBuilder, Dormancy};

    #[test]
    fn and_of_two_events_yields_three_models() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("cv_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("cv_Y", 1.0, Dormancy::Hot).unwrap();
        let top = b.and_gate("cv_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let community = convert(&dft).unwrap();
        assert_eq!(community.len(), 3);
        assert_eq!(community.top_failure.name(), "f_cv_Top");
        assert!(community.top_repair.is_none());
        assert!(!community.is_empty());
    }

    #[test]
    fn fdep_generates_firing_auxiliaries() {
        let mut b = DftBuilder::new();
        let t = b.basic_event("cv2_T", 1.0, Dormancy::Hot).unwrap();
        let x = b.basic_event("cv2_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("cv2_Y", 1.0, Dormancy::Hot).unwrap();
        let _f = b.fdep_gate("cv2_F", t, &[x, y]).unwrap();
        let top = b.and_gate("cv2_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let community = convert(&dft).unwrap();
        // T, X, Y, Top, FA_X, FA_Y (the FDEP gate itself has no model).
        assert_eq!(community.len(), 6);
        let names: Vec<&str> = community.models.iter().map(|m| m.name()).collect();
        assert!(names.iter().any(|n| n.starts_with("FA cv2_X")));
        assert!(names.iter().any(|n| n.starts_with("FA cv2_Y")));
        // The AND gate must listen to the auxiliaries' outputs, which exist.
        let and_model = community
            .models
            .iter()
            .find(|m| m.name().contains("cv2_Top"))
            .unwrap();
        assert!(and_model.signature().is_input(Action::new("f_cv2_X")));
    }

    #[test]
    fn shared_spare_generates_an_activation_auxiliary() {
        let mut b = DftBuilder::new();
        let pa = b.basic_event("cv3_PA", 1.0, Dormancy::Hot).unwrap();
        let pb = b.basic_event("cv3_PB", 1.0, Dormancy::Hot).unwrap();
        let ps = b.basic_event("cv3_PS", 1.0, Dormancy::Cold).unwrap();
        let ga = b.spare_gate("cv3_GA", &[pa, ps]).unwrap();
        let gb = b.spare_gate("cv3_GB", &[pb, ps]).unwrap();
        let top = b.and_gate("cv3_Top", &[ga, gb]).unwrap();
        let dft = b.build(top).unwrap();
        let community = convert(&dft).unwrap();
        // PA, PB, PS, GA, GB, Top, AA_PS.
        assert_eq!(community.len(), 7);
        let aa = community
            .models
            .iter()
            .find(|m| m.name().starts_with("AA cv3_PS"))
            .unwrap();
        assert!(aa.signature().is_input(Action::new("a_cv3_PS__cv3_GA")));
        assert!(aa.signature().is_input(Action::new("a_cv3_PS__cv3_GB")));
        assert!(aa.signature().is_output(Action::new("a_cv3_PS")));
        // The cold spare listens to its activation signal.
        let ps_model = community
            .models
            .iter()
            .find(|m| m.name() == "BE cv3_PS")
            .unwrap();
        assert!(ps_model.signature().is_input(Action::new("a_cv3_PS")));
    }

    #[test]
    fn fdep_used_as_input_is_rejected() {
        let mut b = DftBuilder::new();
        let t = b.basic_event("cv4_T", 1.0, Dormancy::Hot).unwrap();
        let x = b.basic_event("cv4_X", 1.0, Dormancy::Hot).unwrap();
        let f = b.fdep_gate("cv4_F", t, &[x]).unwrap();
        let top = b.or_gate("cv4_Top", &[f, x]).unwrap();
        let dft = b.build(top).unwrap();
        assert!(matches!(convert(&dft), Err(Error::Unsupported { .. })));
    }

    #[test]
    fn repairable_dynamic_gates_are_rejected() {
        let mut b = DftBuilder::new();
        let x = b
            .repairable_basic_event("cv5_X", 1.0, Dormancy::Hot, 2.0)
            .unwrap();
        let y = b.basic_event("cv5_Y", 1.0, Dormancy::Cold).unwrap();
        let top = b.spare_gate("cv5_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        assert!(matches!(convert(&dft), Err(Error::Unsupported { .. })));
    }

    #[test]
    fn repairable_static_tree_exposes_top_repair() {
        let mut b = DftBuilder::new();
        let x = b
            .repairable_basic_event("cv6_X", 1.0, Dormancy::Hot, 2.0)
            .unwrap();
        let y = b
            .repairable_basic_event("cv6_Y", 1.0, Dormancy::Hot, 2.0)
            .unwrap();
        let top = b.and_gate("cv6_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let community = convert(&dft).unwrap();
        assert_eq!(community.top_repair.unwrap().name(), "r_cv6_Top");
    }

    #[test]
    fn inhibit_gate_produces_an_inhibition_auxiliary() {
        let mut b = DftBuilder::new();
        let a = b.basic_event("cv7_A", 1.0, Dormancy::Hot).unwrap();
        let bb = b.basic_event("cv7_B", 1.0, Dormancy::Hot).unwrap();
        let inh = b.inhibit_gate("cv7_I", bb, &[a]).unwrap();
        let top = b.or_gate("cv7_Top", &[inh, a]).unwrap();
        let dft = b.build(top).unwrap();
        let community = convert(&dft).unwrap();
        let ia = community
            .models
            .iter()
            .find(|m| m.name().starts_with("IA cv7_I"))
            .unwrap();
        assert!(ia.signature().is_output(Action::new("f_cv7_I")));
    }
}
