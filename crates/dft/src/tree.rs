//! The DFT structure: a named DAG of elements with a designated top event.

use crate::element::{Element, ElementId, GateKind};
use std::collections::HashMap;

/// A validated dynamic fault tree.
///
/// Construct one with [`DftBuilder`](crate::builder::DftBuilder) or by parsing the
/// Galileo format ([`galileo::parse`](crate::galileo::parse)).
#[derive(Debug, Clone)]
pub struct Dft {
    pub(crate) names: Vec<String>,
    pub(crate) elements: Vec<Element>,
    pub(crate) by_name: HashMap<String, ElementId>,
    pub(crate) top: ElementId,
    /// `parents[e]` lists every gate that has `e` among its inputs.
    pub(crate) parents: Vec<Vec<ElementId>>,
}

impl Dft {
    pub(crate) fn assemble(
        names: Vec<String>,
        elements: Vec<Element>,
        by_name: HashMap<String, ElementId>,
        top: ElementId,
    ) -> Dft {
        let mut parents = vec![Vec::new(); elements.len()];
        for (i, e) in elements.iter().enumerate() {
            for &input in e.inputs() {
                parents[input.index()].push(ElementId::new(i as u32));
            }
        }
        Dft {
            names,
            elements,
            by_name,
            top,
            parents,
        }
    }

    /// Number of elements (basic events plus gates).
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// Number of basic events.
    pub fn num_basic_events(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| e.as_basic_event().is_some())
            .count()
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.elements.len() - self.num_basic_events()
    }

    /// The top (system failure) element.
    pub fn top(&self) -> ElementId {
        self.top
    }

    /// The element with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this DFT.
    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.index()]
    }

    /// The name of the element with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this DFT.
    pub fn name(&self, id: ElementId) -> &str {
        &self.names[id.index()]
    }

    /// Looks an element up by name.
    pub fn by_name(&self, name: &str) -> Option<ElementId> {
        self.by_name.get(name).copied()
    }

    /// Iterates over all element ids in insertion order.
    pub fn elements(&self) -> impl Iterator<Item = ElementId> {
        (0..self.elements.len() as u32).map(ElementId::new)
    }

    /// Ids of all basic events.
    pub fn basic_events(&self) -> Vec<ElementId> {
        self.elements()
            .filter(|&e| self.element(e).as_basic_event().is_some())
            .collect()
    }

    /// Ids of all gates of the given kind.
    pub fn gates_of_kind(&self, kind: GateKind) -> Vec<ElementId> {
        self.elements()
            .filter(|&e| matches!(self.element(e).as_gate(), Some(g) if g.kind == kind))
            .collect()
    }

    /// Ids of all spare gates.
    pub fn spare_gates(&self) -> Vec<ElementId> {
        self.gates_of_kind(GateKind::Spare)
    }

    /// Ids of all FDEP gates.
    pub fn fdep_gates(&self) -> Vec<ElementId> {
        self.gates_of_kind(GateKind::Fdep)
    }

    /// The gates that use `id` as one of their inputs.
    pub fn parents(&self, id: ElementId) -> &[ElementId] {
        &self.parents[id.index()]
    }

    /// All elements reachable from `root` through inputs, including `root` itself.
    pub fn descendants(&self, root: ElementId) -> Vec<ElementId> {
        let mut seen = vec![false; self.elements.len()];
        let mut stack = vec![root];
        let mut out = Vec::new();
        seen[root.index()] = true;
        while let Some(e) = stack.pop() {
            out.push(e);
            for &input in self.element(e).inputs() {
                if !seen[input.index()] {
                    seen[input.index()] = true;
                    stack.push(input);
                }
            }
        }
        out.sort();
        out
    }

    /// A deterministic structural fingerprint of the tree.
    ///
    /// The fingerprint hashes the canonicalized structure — every element in id
    /// order with its kind, failure rate, dormancy factor and repair rate (for
    /// basic events) or gate kind, threshold and ordered input edges (for
    /// gates) — plus the top-event id.  Element *names* are deliberately
    /// excluded: two trees that differ only in labelling describe the same
    /// stochastic model and share a fingerprint, which is exactly the notion of
    /// identity a model cache wants.
    ///
    /// Two structurally different trees collide only with the usual 64-bit
    /// hash probability; a collision-free guarantee is not provided, but trees
    /// built in a different element insertion order also hash differently (the
    /// fingerprint is conservative — a spurious mismatch merely costs a cache
    /// miss, never a wrong answer).
    ///
    /// The hash function is a fixed FNV-1a variant, so fingerprints are stable
    /// across processes, platforms and runs — suitable as a persistent cache
    /// key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_with(true)
    }

    /// A deterministic *rate-blind* structural fingerprint of the tree.
    ///
    /// Like [`fingerprint`](Self::fingerprint), but the numeric failure and
    /// repair rates are excluded from the hash; only their *shape* survives —
    /// the dormancy factor (a structural coefficient of the parametric model)
    /// and whether a repair rate exists at all.  Two trees share a structural
    /// fingerprint exactly when they define the same *parametric* model with
    /// the same parameter slots, differing at most in the numeric rate values
    /// — which is the notion of identity a cache of parametric (symbolic-rate)
    /// models wants: a whole family of rate-scaled variants maps to one entry.
    pub fn structural_fingerprint(&self) -> u64 {
        self.fingerprint_with(false)
    }

    fn fingerprint_with(&self, include_rates: bool) -> u64 {
        /// 64-bit FNV-1a offset basis and prime.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        struct Fnv(u64);
        impl Fnv {
            fn byte(&mut self, b: u8) {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
            }
            fn u64(&mut self, v: u64) {
                for b in v.to_le_bytes() {
                    self.byte(b);
                }
            }
            fn f64(&mut self, v: f64) {
                // Hash the bit pattern; fold -0.0 onto 0.0 so the two rate
                // spellings (which define the same CTMC) agree.
                self.u64(if v == 0.0 { 0 } else { v.to_bits() });
            }
        }

        let mut h = Fnv(OFFSET);
        h.u64(self.elements.len() as u64);
        h.u64(self.top.index() as u64);
        for element in &self.elements {
            match element {
                Element::BasicEvent(be) => {
                    h.byte(0x01);
                    if include_rates {
                        h.f64(be.rate);
                    }
                    h.f64(be.dormancy.factor());
                    match be.repair_rate {
                        None => h.byte(0x00),
                        Some(mu) => {
                            h.byte(0x02);
                            if include_rates {
                                h.f64(mu);
                            }
                        }
                    }
                }
                Element::Gate(g) => {
                    h.byte(0x03);
                    let (tag, k) = match g.kind {
                        GateKind::And => (0x10u8, 0),
                        GateKind::Or => (0x11, 0),
                        GateKind::Voting { k } => (0x12, k),
                        GateKind::Pand => (0x13, 0),
                        GateKind::Spare => (0x14, 0),
                        GateKind::Fdep => (0x15, 0),
                        GateKind::Seq => (0x16, 0),
                        GateKind::Inhibit => (0x17, 0),
                    };
                    h.byte(tag);
                    h.u64(u64::from(k));
                    h.byte(u8::from(g.repairable));
                    h.u64(g.inputs.len() as u64);
                    for input in &g.inputs {
                        h.u64(input.index() as u64);
                    }
                }
            }
        }
        h.0
    }

    /// Returns `true` if the DFT contains at least one dynamic gate.
    pub fn is_dynamic(&self) -> bool {
        self.elements.iter().any(|e| e.is_dynamic_gate())
    }

    /// Returns `true` if any basic event has a repair rate.
    pub fn is_repairable(&self) -> bool {
        self.elements
            .iter()
            .any(|e| matches!(e.as_basic_event(), Some(be) if be.repair_rate.is_some()))
    }

    /// A topological order of the elements (inputs before the gates that use them).
    ///
    /// The DFT is guaranteed acyclic after validation, so this always succeeds for
    /// validated trees.
    pub fn topological_order(&self) -> Vec<ElementId> {
        let n = self.elements.len();
        let mut indegree: Vec<usize> = vec![0; n];
        for e in &self.elements {
            let _ = e;
        }
        for id in self.elements() {
            indegree[id.index()] = self.element(id).inputs().len();
        }
        let mut queue: Vec<ElementId> = self
            .elements()
            .filter(|&e| indegree[e.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(e) = queue.pop() {
            order.push(e);
            for &parent in self.parents(e) {
                indegree[parent.index()] -= 1;
                if indegree[parent.index()] == 0 {
                    queue.push(parent);
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DftBuilder;
    use crate::element::Dormancy;

    fn sample() -> Dft {
        let mut b = DftBuilder::new();
        let a = b.basic_event("A", 1.0, Dormancy::Hot).unwrap();
        let c = b.basic_event("C", 2.0, Dormancy::Cold).unwrap();
        let s = b.spare_gate("S", &[a, c]).unwrap();
        let d = b.basic_event("D", 0.5, Dormancy::Hot).unwrap();
        let top = b.or_gate("Top", &[s, d]).unwrap();
        b.build(top).unwrap()
    }

    #[test]
    fn basic_structure_queries() {
        let dft = sample();
        assert_eq!(dft.num_elements(), 5);
        assert_eq!(dft.num_basic_events(), 3);
        assert_eq!(dft.num_gates(), 2);
        assert_eq!(dft.name(dft.top()), "Top");
        assert!(dft.is_dynamic());
        assert!(!dft.is_repairable());
        assert_eq!(dft.spare_gates().len(), 1);
        assert_eq!(dft.fdep_gates().len(), 0);
        assert!(dft.by_name("A").is_some());
        assert!(dft.by_name("missing").is_none());
    }

    #[test]
    fn parents_are_tracked() {
        let dft = sample();
        let a = dft.by_name("A").unwrap();
        let s = dft.by_name("S").unwrap();
        let top = dft.by_name("Top").unwrap();
        assert_eq!(dft.parents(a), &[s]);
        assert_eq!(dft.parents(s), &[top]);
        assert!(dft.parents(top).is_empty());
    }

    #[test]
    fn descendants_include_root_and_leaves() {
        let dft = sample();
        let s = dft.by_name("S").unwrap();
        let descendants = dft.descendants(s);
        assert_eq!(descendants.len(), 3);
        assert!(descendants.contains(&dft.by_name("A").unwrap()));
        assert!(descendants.contains(&dft.by_name("C").unwrap()));
        assert!(descendants.contains(&s));
    }

    #[test]
    fn topological_order_respects_inputs() {
        let dft = sample();
        let order = dft.topological_order();
        assert_eq!(order.len(), dft.num_elements());
        let position: std::collections::HashMap<ElementId, usize> =
            order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        for e in dft.elements() {
            for &input in dft.element(e).inputs() {
                assert!(position[&input] < position[&e], "input must precede gate");
            }
        }
    }

    #[test]
    fn fingerprint_ignores_names_but_sees_structure() {
        let renamed = {
            let mut b = DftBuilder::new();
            let a = b.basic_event("X1", 1.0, Dormancy::Hot).unwrap();
            let c = b.basic_event("X2", 2.0, Dormancy::Cold).unwrap();
            let s = b.spare_gate("X3", &[a, c]).unwrap();
            let d = b.basic_event("X4", 0.5, Dormancy::Hot).unwrap();
            let top = b.or_gate("X5", &[s, d]).unwrap();
            b.build(top).unwrap()
        };
        assert_eq!(sample().fingerprint(), renamed.fingerprint());
        assert_eq!(sample().fingerprint(), sample().fingerprint());

        // Any structural change — a rate, a dormancy, a repair rate, a gate
        // kind, the input order of an order-sensitive gate — changes the hash.
        let base = sample().fingerprint();
        let mut variants = Vec::new();
        for (rate, dormancy, repair, swap, pand) in [
            (1.5, Dormancy::Cold, None, false, false),
            (1.0, Dormancy::Warm(0.3), None, false, false),
            (1.0, Dormancy::Cold, Some(4.0), false, false),
            (1.0, Dormancy::Cold, None, true, false),
            (1.0, Dormancy::Cold, None, false, true),
        ] {
            let mut b = DftBuilder::new();
            let a = b.basic_event("A", 1.0, Dormancy::Hot).unwrap();
            let c = match repair {
                None => b.basic_event("C", 2.0, dormancy).unwrap(),
                Some(mu) => b.repairable_basic_event("C", 2.0, dormancy, mu).unwrap(),
            };
            let inputs = if swap { [c, a] } else { [a, c] };
            let s = b.spare_gate("S", &inputs).unwrap();
            let d = b.basic_event("D", rate * 0.5, Dormancy::Hot).unwrap();
            let top = if pand {
                b.pand_gate("Top", &[s, d]).unwrap()
            } else {
                b.or_gate("Top", &[s, d]).unwrap()
            };
            variants.push(b.build(top).unwrap().fingerprint());
        }
        // The first variant reproduces the sample except for rescaling D's rate
        // via `rate`; with rate == 1.5 it differs. All must differ from base
        // and from each other.
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(*v, base, "variant {i} must not collide with the sample");
        }
        let mut unique = variants.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), variants.len(), "variants must be distinct");
    }

    #[test]
    fn fingerprint_is_stable_across_clones() {
        let dft = sample();
        assert_eq!(dft.fingerprint(), dft.clone().fingerprint());
    }

    #[test]
    fn gates_of_kind_filters() {
        let dft = sample();
        assert_eq!(dft.gates_of_kind(GateKind::Or).len(), 1);
        assert_eq!(dft.gates_of_kind(GateKind::And).len(), 0);
    }
}
