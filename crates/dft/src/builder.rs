//! Programmatic construction of DFTs.

use crate::element::{BasicEvent, Dormancy, Element, ElementId, Gate, GateKind};
use crate::tree::Dft;
use crate::validate::validate;
use crate::{Error, Result};
use std::collections::HashMap;

/// Builder for [`Dft`] models.
///
/// Elements are added one by one; gates refer to the ids returned for their
/// inputs, so a DFT is necessarily built bottom-up (which also makes accidental
/// cycles impossible through this API).  [`build`](DftBuilder::build) runs the full
/// wellformedness validation.
///
/// # Examples
///
/// The motor unit of the cardiac assist system: a primary motor with a cold spare,
/// where the switching component only matters if it fails before the primary.
///
/// ```
/// use dft::{DftBuilder, Dormancy};
/// # fn main() -> Result<(), dft::Error> {
/// let mut b = DftBuilder::new();
/// let ms = b.basic_event("MS", 0.01, Dormancy::Hot)?;
/// let ma = b.basic_event("MA", 1.0, Dormancy::Hot)?;
/// let mb = b.basic_event("MB", 1.0, Dormancy::Cold)?;
/// let switch = b.pand_gate("Switch", &[ms, ma])?;
/// let motors = b.spare_gate("Motors", &[ma, mb])?;
/// let unit = b.or_gate("Motor_unit", &[switch, motors])?;
/// let dft = b.build(unit)?;
/// assert!(dft.is_dynamic());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct DftBuilder {
    names: Vec<String>,
    elements: Vec<Element>,
    by_name: HashMap<String, ElementId>,
}

impl DftBuilder {
    /// Creates an empty builder.
    pub fn new() -> DftBuilder {
        DftBuilder::default()
    }

    fn add(&mut self, name: &str, element: Element) -> Result<ElementId> {
        if self.by_name.contains_key(name) {
            return Err(Error::DuplicateName {
                name: name.to_owned(),
            });
        }
        let id = ElementId::new(self.elements.len() as u32);
        self.names.push(name.to_owned());
        self.elements.push(element);
        self.by_name.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Adds a (non-repairable) basic event with failure rate `rate`.
    ///
    /// # Errors
    ///
    /// Returns an error for a duplicate name, a non-positive rate or a dormancy
    /// factor outside `[0, 1]`.
    pub fn basic_event(&mut self, name: &str, rate: f64, dormancy: Dormancy) -> Result<ElementId> {
        self.basic_event_full(name, rate, dormancy, None)
    }

    /// Adds a repairable basic event with failure rate `rate` and repair rate
    /// `repair_rate` (the Section 7.2 extension).
    ///
    /// # Errors
    ///
    /// Same as [`basic_event`](Self::basic_event), plus a non-positive repair rate.
    pub fn repairable_basic_event(
        &mut self,
        name: &str,
        rate: f64,
        dormancy: Dormancy,
        repair_rate: f64,
    ) -> Result<ElementId> {
        self.basic_event_full(name, rate, dormancy, Some(repair_rate))
    }

    pub(crate) fn basic_event_full(
        &mut self,
        name: &str,
        rate: f64,
        dormancy: Dormancy,
        repair_rate: Option<f64>,
    ) -> Result<ElementId> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(Error::InvalidParameter {
                name: name.to_owned(),
                message: format!("failure rate must be finite and positive, got {rate}"),
            });
        }
        let alpha = dormancy.factor();
        if !(0.0..=1.0).contains(&alpha) || !alpha.is_finite() {
            return Err(Error::InvalidParameter {
                name: name.to_owned(),
                message: format!("dormancy factor must lie in [0, 1], got {alpha}"),
            });
        }
        if let Some(mu) = repair_rate {
            if !(mu.is_finite() && mu > 0.0) {
                return Err(Error::InvalidParameter {
                    name: name.to_owned(),
                    message: format!("repair rate must be finite and positive, got {mu}"),
                });
            }
        }
        self.add(
            name,
            Element::BasicEvent(BasicEvent {
                rate,
                dormancy,
                repair_rate,
            }),
        )
    }

    pub(crate) fn gate(
        &mut self,
        name: &str,
        kind: GateKind,
        inputs: &[ElementId],
    ) -> Result<ElementId> {
        for &input in inputs {
            if input.index() >= self.elements.len() {
                return Err(Error::UnknownElement {
                    name: format!("{input}"),
                });
            }
        }
        self.add(
            name,
            Element::Gate(Gate {
                kind,
                inputs: inputs.to_vec(),
                repairable: false,
            }),
        )
    }

    /// Adds an AND gate.
    ///
    /// # Errors
    ///
    /// Returns an error for a duplicate name or an unknown input.
    pub fn and_gate(&mut self, name: &str, inputs: &[ElementId]) -> Result<ElementId> {
        self.gate(name, GateKind::And, inputs)
    }

    /// Adds an OR gate.
    ///
    /// # Errors
    ///
    /// Returns an error for a duplicate name or an unknown input.
    pub fn or_gate(&mut self, name: &str, inputs: &[ElementId]) -> Result<ElementId> {
        self.gate(name, GateKind::Or, inputs)
    }

    /// Adds a K-out-of-M voting gate (fails when at least `k` inputs have failed).
    ///
    /// # Errors
    ///
    /// Returns an error for a duplicate name or an unknown input; the relation
    /// between `k` and the number of inputs is checked by [`build`](Self::build).
    pub fn voting_gate(&mut self, name: &str, k: u32, inputs: &[ElementId]) -> Result<ElementId> {
        self.gate(name, GateKind::Voting { k }, inputs)
    }

    /// Adds a priority-AND gate (inputs must fail in left-to-right order).
    ///
    /// # Errors
    ///
    /// Returns an error for a duplicate name or an unknown input.
    pub fn pand_gate(&mut self, name: &str, inputs: &[ElementId]) -> Result<ElementId> {
        self.gate(name, GateKind::Pand, inputs)
    }

    /// Adds a spare gate; `inputs[0]` is the primary, the rest are spares claimed
    /// in order.
    ///
    /// # Errors
    ///
    /// Returns an error for a duplicate name or an unknown input.
    pub fn spare_gate(&mut self, name: &str, inputs: &[ElementId]) -> Result<ElementId> {
        self.gate(name, GateKind::Spare, inputs)
    }

    /// Adds a functional-dependency gate with the given trigger and dependent
    /// elements.
    ///
    /// # Errors
    ///
    /// Returns an error for a duplicate name or an unknown input.
    pub fn fdep_gate(
        &mut self,
        name: &str,
        trigger: ElementId,
        dependents: &[ElementId],
    ) -> Result<ElementId> {
        let mut inputs = vec![trigger];
        inputs.extend_from_slice(dependents);
        self.gate(name, GateKind::Fdep, &inputs)
    }

    /// Adds a sequence-enforcing gate (inputs can only fail left to right).
    ///
    /// # Errors
    ///
    /// Returns an error for a duplicate name or an unknown input.
    pub fn seq_gate(&mut self, name: &str, inputs: &[ElementId]) -> Result<ElementId> {
        self.gate(name, GateKind::Seq, inputs)
    }

    /// Adds an inhibition gate: the failure of `subject` is propagated unless one
    /// of the `inhibitors` failed first (Section 7.1 extension).
    ///
    /// # Errors
    ///
    /// Returns an error for a duplicate name or an unknown input.
    pub fn inhibit_gate(
        &mut self,
        name: &str,
        subject: ElementId,
        inhibitors: &[ElementId],
    ) -> Result<ElementId> {
        let mut inputs = vec![subject];
        inputs.extend_from_slice(inhibitors);
        self.gate(name, GateKind::Inhibit, &inputs)
    }

    /// Number of elements added so far.
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// Finishes construction, declaring `top` the top event, and validates the DFT.
    ///
    /// # Errors
    ///
    /// Returns any wellformedness violation found by [`validate`].
    pub fn build(self, top: ElementId) -> Result<Dft> {
        if top.index() >= self.elements.len() {
            return Err(Error::UnknownElement {
                name: format!("{top}"),
            });
        }
        let dft = Dft::assemble(self.names, self.elements, self.by_name, top);
        validate(&dft)?;
        Ok(dft)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = DftBuilder::new();
        b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        assert!(matches!(
            b.basic_event("X", 2.0, Dormancy::Hot),
            Err(Error::DuplicateName { .. })
        ));
    }

    #[test]
    fn invalid_rates_are_rejected() {
        let mut b = DftBuilder::new();
        assert!(b.basic_event("bad", 0.0, Dormancy::Hot).is_err());
        assert!(b.basic_event("bad2", -1.0, Dormancy::Hot).is_err());
        assert!(b.basic_event("bad3", f64::NAN, Dormancy::Hot).is_err());
        assert!(b
            .basic_event("bad4", 1.0, Dormancy::Warm(f64::NAN))
            .is_err());
        assert!(b
            .repairable_basic_event("bad5", 1.0, Dormancy::Hot, 0.0)
            .is_err());
        assert!(b
            .repairable_basic_event("ok", 1.0, Dormancy::Hot, 2.0)
            .is_ok());
    }

    #[test]
    fn all_gate_kinds_can_be_built() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("Y", 1.0, Dormancy::Cold).unwrap();
        let z = b.basic_event("Z", 1.0, Dormancy::Warm(0.5)).unwrap();
        let and = b.and_gate("and", &[x, y]).unwrap();
        let or = b.or_gate("or", &[x, z]).unwrap();
        let vote = b.voting_gate("vote", 2, &[x, y, z]).unwrap();
        let pand = b.pand_gate("pand", &[and, or]).unwrap();
        let _fdep = b.fdep_gate("fdep", x, &[y]).unwrap();
        let _seq = b.seq_gate("seq", &[x, y]).unwrap();
        let _inhibit = b.inhibit_gate("inhibit", y, &[x]).unwrap();
        let top = b.or_gate("top", &[pand, vote]).unwrap();
        let dft = b.build(top).unwrap();
        assert_eq!(dft.num_gates(), 8);
    }

    #[test]
    fn unknown_top_is_rejected() {
        let mut b = DftBuilder::new();
        b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        assert!(b.build(ElementId::new(42)).is_err());
    }

    #[test]
    fn unknown_gate_input_is_rejected() {
        let mut b = DftBuilder::new();
        assert!(b.and_gate("g", &[ElementId::new(7)]).is_err());
    }
}
