//! A dependency-free reduced ordered binary decision diagram (BDD) engine for
//! *static* fault trees.
//!
//! "BDDs Strike Back" (see PAPERS.md) observes that most industrial DFTs are
//! dominated by purely static (AND/OR/voting) subtrees, which are exponentially
//! cheaper to analyse combinatorially than through a state space.  This module
//! provides that combinatorial engine: a hash-consed BDD built by Shannon
//! decomposition over the fixed [`ElementId`] order, with
//!
//! * exact [`unreliability`](Bdd::unreliability) /
//!   [`unreliability_curve`](Bdd::unreliability_curve) evaluation from
//!   exponential leaf probabilities (one linear bottom-up pass per time point),
//!   and
//! * raw [`nodes`](Bdd::nodes) / [`from_parts`](Bdd::from_parts) access so a
//!   binary codec can persist a compiled diagram.
//!
//! The hybrid analysis backend (`dft-core`) compiles the static "crown" of a
//! tree to a BDD whose leaves are basic events *and* the exits of dynamic
//! cores; [`Bdd::build`] therefore takes an `is_leaf` predicate instead of
//! hard-coding "leaf = basic event".
//!
//! # Example
//!
//! ```
//! use dft::bdd::Bdd;
//! use dft::{DftBuilder, Dormancy};
//! # fn main() -> Result<(), dft::Error> {
//! let mut b = DftBuilder::new();
//! let x = b.basic_event("X", 1.0, Dormancy::Hot)?;
//! let y = b.basic_event("Y", 2.0, Dormancy::Hot)?;
//! let top = b.and_gate("Top", &[x, y])?;
//! let dft = b.build(top)?;
//! let bdd = Bdd::for_tree(&dft)?;
//! let t = 0.5f64;
//! let exact = (1.0 - (-t).exp()) * (1.0 - (-2.0 * t).exp());
//! assert!((bdd.unreliability(&dft, t) - exact).abs() < 1e-15);
//! # Ok(())
//! # }
//! ```

use crate::element::{Element, ElementId, GateKind};
use crate::tree::Dft;
use crate::{Error, Result};
use std::collections::HashMap;

/// Reference to the constant-false terminal.
const FALSE: u32 = 0;
/// Reference to the constant-true terminal.
const TRUE: u32 = 1;
/// Sentinel variable index carried by the two terminals; larger than any real
/// variable, so terminals sort after every internal node in the variable order.
const NO_VAR: u32 = u32::MAX;

/// One node of a [`Bdd`].
///
/// Nodes `0` and `1` are the constant-false and constant-true terminals (with
/// `var == u32::MAX` and self-referential children); every other node tests a
/// variable and branches to `lo` (variable false, i.e. the leaf has not failed)
/// or `hi` (variable true).  In a compacted diagram children always have a
/// *smaller* index than their parent, so a single forward pass visits children
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddNode {
    /// The variable tested by this node: the raw index of a leaf [`ElementId`].
    pub var: u32,
    /// Successor when the variable is false.
    pub lo: u32,
    /// Successor when the variable is true.
    pub hi: u32,
}

/// A reduced ordered BDD over the leaves of a static fault tree.
///
/// The diagram is canonical for its variable order (ascending [`ElementId`]):
/// equivalent Boolean functions over the same leaves share the same node
/// structure, and `lo == hi` redundancy never survives construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bdd {
    /// Compacted node arena: terminals first, children before parents.
    nodes: Vec<BddNode>,
    /// The root node of the function.
    root: u32,
}

/// Hash-consing construction state: a unique table for nodes plus a memo table
/// for the `ite` (if-then-else) operator, the single primitive every gate is
/// lowered to.
struct Builder {
    nodes: Vec<BddNode>,
    unique: HashMap<(u32, u32, u32), u32>,
    ite_cache: HashMap<(u32, u32, u32), u32>,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            nodes: vec![
                BddNode {
                    var: NO_VAR,
                    lo: FALSE,
                    hi: FALSE,
                },
                BddNode {
                    var: NO_VAR,
                    lo: TRUE,
                    hi: TRUE,
                },
            ],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
        }
    }

    fn var_of(&self, f: u32) -> u32 {
        self.nodes[f as usize].var
    }

    /// Returns the (hash-consed) node testing `var`; eliminates `lo == hi`
    /// redundancy, so the arena only ever holds reduced diagrams.
    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        if let Some(&id) = self.unique.get(&(var, lo, hi)) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(BddNode { var, lo, hi });
        self.unique.insert((var, lo, hi), id);
        id
    }

    /// The cofactor of `f` with `var` fixed to `value`.  Because variables are
    /// ordered, `f` depends on `var` only if its root tests exactly `var`.
    fn cofactor(&self, f: u32, var: u32, value: bool) -> u32 {
        let node = self.nodes[f as usize];
        if node.var == var {
            if value {
                node.hi
            } else {
                node.lo
            }
        } else {
            f
        }
    }

    /// `if f then g else h`, by Shannon decomposition on the topmost variable.
    fn ite(&mut self, f: u32, g: u32, h: u32) -> u32 {
        if f == TRUE {
            return g;
        }
        if f == FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == TRUE && h == FALSE {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let var = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let f0 = self.cofactor(f, var, false);
        let g0 = self.cofactor(g, var, false);
        let h0 = self.cofactor(h, var, false);
        let lo = self.ite(f0, g0, h0);
        let f1 = self.cofactor(f, var, true);
        let g1 = self.cofactor(g, var, true);
        let h1 = self.cofactor(h, var, true);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(var, lo, hi);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    fn and(&mut self, f: u32, g: u32) -> u32 {
        self.ite(f, g, FALSE)
    }

    fn or(&mut self, f: u32, g: u32) -> u32 {
        self.ite(f, TRUE, g)
    }

    /// "At least `k` of `inputs` are true", memoised on (threshold, suffix).
    fn voting(&mut self, k: u32, inputs: &[u32]) -> u32 {
        fn go(
            b: &mut Builder,
            memo: &mut HashMap<(u32, usize), u32>,
            k: u32,
            i: usize,
            inputs: &[u32],
        ) -> u32 {
            if k == 0 {
                return TRUE;
            }
            if (inputs.len() - i) < k as usize {
                return FALSE;
            }
            if let Some(&r) = memo.get(&(k, i)) {
                return r;
            }
            let hi = go(b, memo, k - 1, i + 1, inputs);
            let lo = go(b, memo, k, i + 1, inputs);
            let r = b.ite(inputs[i], hi, lo);
            memo.insert((k, i), r);
            r
        }
        let mut memo = HashMap::new();
        go(self, &mut memo, k, 0, inputs)
    }
}

/// Lowers the element `e` of `dft` to a BDD function, memoised per element so
/// shared sub-DAGs are compiled once.
fn func_of<F: Fn(ElementId) -> bool>(
    b: &mut Builder,
    dft: &Dft,
    memo: &mut [Option<u32>],
    is_leaf: &F,
    e: ElementId,
) -> Result<u32> {
    if let Some(f) = memo[e.index()] {
        return Ok(f);
    }
    let f = if is_leaf(e) {
        b.mk(e.index() as u32, FALSE, TRUE)
    } else {
        let Element::Gate(gate) = dft.element(e) else {
            // A basic event that the caller did not declare a leaf.
            return Err(Error::InvalidGate {
                name: dft.name(e).to_owned(),
                message: "basic event reached but not declared a BDD leaf".to_owned(),
            });
        };
        let mut inputs = Vec::with_capacity(gate.inputs.len());
        for &input in &gate.inputs {
            inputs.push(func_of(b, dft, memo, is_leaf, input)?);
        }
        match gate.kind {
            GateKind::And => {
                let mut acc = TRUE;
                for f in inputs {
                    acc = b.and(acc, f);
                }
                acc
            }
            GateKind::Or => {
                let mut acc = FALSE;
                for f in inputs {
                    acc = b.or(acc, f);
                }
                acc
            }
            GateKind::Voting { k } => b.voting(k, &inputs),
            kind => {
                return Err(Error::InvalidGate {
                    name: dft.name(e).to_owned(),
                    message: format!("a {kind} gate cannot be compiled to a BDD"),
                });
            }
        }
    };
    memo[e.index()] = Some(f);
    Ok(f)
}

impl Bdd {
    /// Compiles the function of `root` over `dft`, treating every element for
    /// which `is_leaf` returns `true` as a BDD variable and descending through
    /// static gates only.
    ///
    /// The variable order is the ascending [`ElementId`] order of the leaves.
    /// The returned diagram is compacted: only nodes reachable from the root
    /// are kept, renumbered so children precede parents.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGate`] if a dynamic gate (or a basic event not
    /// declared a leaf) is reachable from `root` without crossing a leaf.
    pub fn build<F: Fn(ElementId) -> bool>(dft: &Dft, root: ElementId, is_leaf: F) -> Result<Bdd> {
        let mut b = Builder::new();
        let mut memo = vec![None; dft.num_elements()];
        let f = func_of(&mut b, dft, &mut memo, &is_leaf, root)?;
        Ok(Bdd::compact(&b.nodes, f))
    }

    /// Compiles a fully static tree: every basic event is a leaf.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGate`] if the tree contains a dynamic gate.
    pub fn for_tree(dft: &Dft) -> Result<Bdd> {
        Bdd::build(dft, dft.top(), |e| {
            dft.element(e).as_basic_event().is_some()
        })
    }

    /// Keeps only the nodes reachable from `root`, renumbered in post-order so
    /// every child has a smaller index than its parent.
    fn compact(nodes: &[BddNode], root: u32) -> Bdd {
        let mut map = vec![u32::MAX; nodes.len()];
        map[FALSE as usize] = FALSE;
        map[TRUE as usize] = TRUE;
        let mut out = vec![nodes[FALSE as usize], nodes[TRUE as usize]];
        let mut stack = vec![(root, false)];
        while let Some((n, expanded)) = stack.pop() {
            if map[n as usize] != u32::MAX {
                continue;
            }
            let node = nodes[n as usize];
            if expanded {
                map[n as usize] = out.len() as u32;
                out.push(BddNode {
                    var: node.var,
                    lo: map[node.lo as usize],
                    hi: map[node.hi as usize],
                });
            } else {
                stack.push((n, true));
                stack.push((node.lo, false));
                stack.push((node.hi, false));
            }
        }
        Bdd {
            nodes: out,
            root: map[root as usize],
        }
    }

    /// Reassembles a diagram from raw parts (the inverse of [`nodes`](Self::nodes)
    /// and [`root`](Self::root)), validating every structural invariant so that
    /// untrusted bytes can never produce an out-of-bounds or non-reduced
    /// diagram.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Wellformedness`] if the terminals are malformed, a
    /// child does not precede its parent, a node is redundant (`lo == hi`), the
    /// variable order is violated, or the root is out of range.
    pub fn from_parts(nodes: Vec<BddNode>, root: u32) -> Result<Bdd> {
        let malformed = |message: String| Error::Wellformedness { message };
        if nodes.len() < 2 || nodes.len() > u32::MAX as usize {
            return Err(malformed(format!("BDD arena of {} nodes", nodes.len())));
        }
        let terminals = [
            BddNode {
                var: NO_VAR,
                lo: FALSE,
                hi: FALSE,
            },
            BddNode {
                var: NO_VAR,
                lo: TRUE,
                hi: TRUE,
            },
        ];
        if nodes[0] != terminals[0] || nodes[1] != terminals[1] {
            return Err(malformed("BDD terminals are malformed".to_owned()));
        }
        for (i, node) in nodes.iter().enumerate().skip(2) {
            if node.var == NO_VAR {
                return Err(malformed(format!("BDD node {i} has no variable")));
            }
            if node.lo as usize >= i || node.hi as usize >= i {
                return Err(malformed(format!("BDD node {i} has a forward child")));
            }
            if node.lo == node.hi {
                return Err(malformed(format!("BDD node {i} is redundant")));
            }
            for child in [node.lo, node.hi] {
                if nodes[child as usize].var <= node.var {
                    return Err(malformed(format!("BDD node {i} violates variable order")));
                }
            }
        }
        if root as usize >= nodes.len() {
            return Err(malformed(format!("BDD root {root} out of range")));
        }
        Ok(Bdd { nodes, root })
    }

    /// The node arena (terminals first, children before parents).
    pub fn nodes(&self) -> &[BddNode] {
        &self.nodes
    }

    /// The root node reference.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Total node count, including the two terminals.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The distinct variables the function actually depends on, ascending.
    pub fn support(&self) -> Vec<ElementId> {
        let mut vars: Vec<u32> = self.nodes.iter().skip(2).map(|n| n.var).collect();
        vars.sort_unstable();
        vars.dedup();
        vars.into_iter().map(ElementId::new).collect()
    }

    /// The probability that the function is true when leaf `v` is true
    /// independently with probability `leaf_probability[v]`.
    ///
    /// One bottom-up pass: `P(node) = q·P(hi) + (1−q)·P(lo)`, exact because
    /// every variable appears at most once on any root-to-terminal path.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_probability` is shorter than some variable index in the
    /// diagram (callers pass one entry per element of the originating tree).
    pub fn probability(&self, leaf_probability: &[f64]) -> f64 {
        let mut p = vec![0.0f64; self.nodes.len()];
        p[TRUE as usize] = 1.0;
        for (i, node) in self.nodes.iter().enumerate().skip(2) {
            let q = leaf_probability[node.var as usize];
            p[i] = q * p[node.hi as usize] + (1.0 - q) * p[node.lo as usize];
        }
        p[self.root as usize]
    }

    /// System unreliability at mission time `t` for a fully static tree: the
    /// probability of the root function with each basic event failed
    /// independently with probability `1 − e^(−λt)`.
    ///
    /// # Panics
    ///
    /// Panics if a diagram variable is not a basic event of `dft` (use
    /// [`probability`](Self::probability) directly for hybrid crowns whose
    /// leaves include core exits).
    pub fn unreliability(&self, dft: &Dft, t: f64) -> f64 {
        self.probability(&exponential_probabilities(dft, t))
    }

    /// [`unreliability`](Self::unreliability) at each of the given times.
    ///
    /// # Panics
    ///
    /// Panics if a diagram variable is not a basic event of `dft`.
    pub fn unreliability_curve(&self, dft: &Dft, times: &[f64]) -> Vec<f64> {
        times.iter().map(|&t| self.unreliability(dft, t)).collect()
    }
}

/// Per-element failure probabilities at mission time `t`: `1 − e^(−λt)` at each
/// basic event, `0.0` at gates.  The vector is indexed by raw element id, ready
/// for [`Bdd::probability`].
///
/// Dormancy is irrelevant here: a static tree has no spare gates, so every
/// basic event is always active.
pub fn exponential_probabilities(dft: &Dft, t: f64) -> Vec<f64> {
    dft.elements()
        .map(|e| match dft.element(e).as_basic_event() {
            Some(be) => -(-be.rate * t).exp_m1(),
            None => 0.0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DftBuilder;
    use crate::element::Dormancy;

    /// Brute-force evaluation of a static tree under one failure assignment.
    fn eval(dft: &Dft, e: ElementId, failed: &[bool]) -> bool {
        match dft.element(e) {
            Element::BasicEvent(_) => failed[e.index()],
            Element::Gate(g) => {
                let hits = g.inputs.iter().filter(|&&i| eval(dft, i, failed)).count();
                match g.kind {
                    GateKind::And => hits == g.inputs.len(),
                    GateKind::Or => hits > 0,
                    GateKind::Voting { k } => hits >= k as usize,
                    _ => unreachable!("static trees only"),
                }
            }
        }
    }

    /// Brute-force probability: sum over all assignments of the leaves.
    fn brute_force(dft: &Dft, probs: &[f64]) -> f64 {
        let leaves = dft.basic_events();
        let mut total = 0.0;
        for mask in 0..(1u32 << leaves.len()) {
            let mut failed = vec![false; dft.num_elements()];
            let mut weight = 1.0;
            for (bit, &leaf) in leaves.iter().enumerate() {
                let f = mask & (1 << bit) != 0;
                failed[leaf.index()] = f;
                weight *= if f {
                    probs[leaf.index()]
                } else {
                    1.0 - probs[leaf.index()]
                };
            }
            if eval(dft, dft.top(), &failed) {
                total += weight;
            }
        }
        total
    }

    fn two_of_three() -> Dft {
        let mut b = DftBuilder::new();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("Y", 2.0, Dormancy::Hot).unwrap();
        let z = b.basic_event("Z", 3.0, Dormancy::Hot).unwrap();
        let top = b.voting_gate("Top", 2, &[x, y, z]).unwrap();
        b.build(top).unwrap()
    }

    #[test]
    fn and_gate_probability_is_product() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("Y", 2.0, Dormancy::Hot).unwrap();
        let top = b.and_gate("Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let bdd = Bdd::for_tree(&dft).unwrap();
        let t = 0.7f64;
        let exact = (1.0 - (-t).exp()) * (1.0 - (-2.0 * t).exp());
        assert!((bdd.unreliability(&dft, t) - exact).abs() < 1e-15);
    }

    #[test]
    fn or_gate_probability_is_inclusion_exclusion() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("Y", 2.0, Dormancy::Hot).unwrap();
        let top = b.or_gate("Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let bdd = Bdd::for_tree(&dft).unwrap();
        let (qx, qy) = (0.3, 0.8);
        let mut probs = vec![0.0; dft.num_elements()];
        probs[x.index()] = qx;
        probs[y.index()] = qy;
        let exact = qx + qy - qx * qy;
        assert!((bdd.probability(&probs) - exact).abs() < 1e-15);
    }

    #[test]
    fn voting_gate_shares_nodes() {
        let dft = two_of_three();
        let bdd = Bdd::for_tree(&dft).unwrap();
        // 2-of-3 needs one X node, two Y nodes and one shared Z node plus the
        // two terminals: canonical sharing keeps the diagram at 6 nodes.
        assert_eq!(bdd.node_count(), 6);
        assert_eq!(bdd.support().len(), 3);
        let probs = [0.2, 0.5, 0.9, 0.0];
        let exact = brute_force(&dft, &probs);
        assert!((bdd.probability(&probs) - exact).abs() < 1e-15);
    }

    #[test]
    fn shared_subtrees_match_brute_force() {
        // A DAG, not a tree: X feeds both AND gates.
        let mut b = DftBuilder::new();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("Y", 1.0, Dormancy::Hot).unwrap();
        let z = b.basic_event("Z", 1.0, Dormancy::Hot).unwrap();
        let left = b.and_gate("Left", &[x, y]).unwrap();
        let right = b.and_gate("Right", &[x, z]).unwrap();
        let top = b.or_gate("Top", &[left, right]).unwrap();
        let dft = b.build(top).unwrap();
        let bdd = Bdd::for_tree(&dft).unwrap();
        let probs = [0.4, 0.25, 0.7, 0.0, 0.0, 0.0];
        let exact = brute_force(&dft, &probs);
        assert!((bdd.probability(&probs) - exact).abs() < 1e-15);
    }

    #[test]
    fn curve_matches_pointwise_queries() {
        let dft = two_of_three();
        let bdd = Bdd::for_tree(&dft).unwrap();
        let times = [0.0, 0.1, 1.0, 10.0];
        let curve = bdd.unreliability_curve(&dft, &times);
        for (&t, &v) in times.iter().zip(&curve) {
            assert_eq!(v, bdd.unreliability(&dft, t));
        }
        assert_eq!(curve[0], 0.0);
        assert!(curve[3] > 0.99);
    }

    #[test]
    fn dynamic_gates_are_rejected() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("Y", 1.0, Dormancy::Hot).unwrap();
        let top = b.pand_gate("Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        assert!(matches!(
            Bdd::for_tree(&dft),
            Err(Error::InvalidGate { .. })
        ));
        // ... but treating the PAND as a leaf stops the descent above it.
        let bdd = Bdd::build(&dft, dft.top(), |e| e == dft.top()).unwrap();
        assert_eq!(bdd.support(), vec![dft.top()]);
    }

    #[test]
    fn parts_round_trip_and_reject_malformed_arenas() {
        let dft = two_of_three();
        let bdd = Bdd::for_tree(&dft).unwrap();
        let rebuilt = Bdd::from_parts(bdd.nodes().to_vec(), bdd.root()).unwrap();
        assert_eq!(rebuilt, bdd);

        let ok = bdd.nodes().to_vec();
        let mut forward = ok.clone();
        forward[2].lo = 5;
        let mut redundant = ok.clone();
        redundant[3] = BddNode {
            var: redundant[3].var,
            lo: 0,
            hi: 0,
        };
        let mut unordered = ok.clone();
        unordered[3].var = 0;
        unordered[4].var = 0;
        let mut bad_terminal = ok.clone();
        bad_terminal[0].var = 7;
        for (nodes, root) in [
            (forward, bdd.root()),
            (redundant, bdd.root()),
            (unordered, bdd.root()),
            (bad_terminal, bdd.root()),
            (ok.clone(), ok.len() as u32),
            (Vec::new(), 0),
        ] {
            assert!(matches!(
                Bdd::from_parts(nodes, root),
                Err(Error::Wellformedness { .. })
            ));
        }
    }

    #[test]
    fn constant_functions_have_terminal_roots() {
        // A 1-of-1 voting gate of a single leaf is just that leaf; fixing the
        // leaf true via probability 1 yields certainty.
        let mut b = DftBuilder::new();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let top = b.voting_gate("Top", 1, &[x]).unwrap();
        let dft = b.build(top).unwrap();
        let bdd = Bdd::for_tree(&dft).unwrap();
        assert_eq!(bdd.node_count(), 3);
        assert_eq!(bdd.probability(&[1.0, 0.0]), 1.0);
        assert_eq!(bdd.probability(&[0.0, 0.0]), 0.0);
    }
}
