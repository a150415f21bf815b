//! Independent-module detection and the static/dynamic hybrid decomposition.
//!
//! Section 5.2 of the paper contrasts the DIFTree modularisation (which cannot
//! exploit independent sub-trees underneath dynamic gates) with the I/O-IMC
//! approach (which can).  This module provides the structural notion both rely on:
//! a gate `m` is an *independent module* if no element outside the subtree rooted
//! at `m` references anything strictly inside that subtree.  FDEP gates are parents
//! of their dependent events in our representation, so functional dependencies
//! crossing a subtree boundary correctly prevent it from being a module.
//!
//! On top of that notion, [`hybrid_plan`] partitions a tree for the hybrid
//! analysis backend: the maximal connected regions that contain dynamism (the
//! *cores*, each observed by the rest of the tree through a single exit
//! element) versus the purely static *crown* above them, which a [`crate::bdd`]
//! diagram solves combinatorially.

use crate::element::{Element, ElementId};
use crate::tree::Dft;
use std::collections::HashMap;

/// Information about one independent module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleInfo {
    /// The module's root element (a gate).
    pub root: ElementId,
    /// All elements of the module (including the root).
    pub members: Vec<ElementId>,
    /// Whether the module contains a dynamic gate.
    pub dynamic: bool,
}

/// Returns every gate that roots an independent module, together with its members.
///
/// The top element always roots a module.  Results are sorted by root id.
///
/// # Examples
///
/// ```
/// use dft::{DftBuilder, Dormancy};
/// use dft::modules::independent_modules;
/// # fn main() -> Result<(), dft::Error> {
/// let mut b = DftBuilder::new();
/// let x = b.basic_event("X", 1.0, Dormancy::Hot)?;
/// let y = b.basic_event("Y", 1.0, Dormancy::Hot)?;
/// let a = b.and_gate("A", &[x, y])?;
/// let z = b.basic_event("Z", 1.0, Dormancy::Hot)?;
/// let top = b.pand_gate("Top", &[a, z])?;
/// let dft = b.build(top)?;
/// let modules = independent_modules(&dft);
/// // Both the AND gate and the top PAND gate are independent modules.
/// assert_eq!(modules.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn independent_modules(dft: &Dft) -> Vec<ModuleInfo> {
    let roots = module_roots(dft);
    dft.elements()
        .filter_map(|root| {
            let dynamic = roots[root.index()]?;
            Some(ModuleInfo {
                root,
                members: dft.descendants(root),
                dynamic,
            })
        })
        .collect()
}

/// For every element, `Some(dynamic)` when it is a gate rooting an
/// independent module (`dynamic`: the module holds a dynamic gate), else
/// `None`.
///
/// Linear time, after Dutuit and Rauzy: a depth-first walk from every
/// parentless element dates each visit of an element (one per input edge),
/// and a gate roots a module exactly when every visit of every element below
/// it falls between the walk's entering and leaving the gate.
fn module_roots(dft: &Dft) -> Vec<Option<bool>> {
    let n = dft.num_elements();
    // When the walk enters (0: not yet) and leaves each element, and the
    // earliest and latest visit of each element.
    let (mut enter, mut leave) = (vec![0; n], vec![0; n]);
    let mut span = vec![(usize::MAX, 0); n];
    let mut date = 0;
    for root in dft.elements().filter(|&e| dft.parents(e).is_empty()) {
        date += 1;
        enter[root.index()] = date;
        let mut stack = vec![(root, dft.element(root).inputs().iter())];
        while let Some((e, pending)) = stack.last_mut() {
            date += 1;
            let Some(&input) = pending.next() else {
                leave[e.index()] = date;
                stack.pop();
                continue;
            };
            let i = input.index();
            span[i] = (span[i].0.min(date), date);
            if enter[i] == 0 {
                enter[i] = date;
                stack.push((input, dft.element(input).inputs().iter()));
            }
        }
    }
    // Widen each span over everything below.  A gate's inputs have smaller
    // ids (the builder adds a gate after its inputs), so one pass in id order
    // sees them first.
    let mut dynamic = vec![false; n];
    let mut roots = vec![None; n];
    for e in dft.elements() {
        let (i, element) = (e.index(), dft.element(e));
        let (mut lo, mut hi) = (usize::MAX, 0);
        dynamic[i] = element.is_dynamic_gate();
        for input in element.inputs() {
            lo = lo.min(span[input.index()].0);
            hi = hi.max(span[input.index()].1);
            dynamic[i] |= dynamic[input.index()];
        }
        if element.as_gate().is_some() && enter[i] < lo && hi < leave[i] {
            roots[i] = Some(dynamic[i]);
        }
        span[i] = (span[i].0.min(lo), span[i].1.max(hi));
    }
    roots
}

/// Statistics of a hybrid static/dynamic decomposition: how much of the tree
/// the combinatorial crown absorbed and how much state-space analysis remains.
///
/// The `static_modules` / `dynamic_modules` counts classify every independent
/// module of the tree; `static_modules_retained` records the reduction
/// *decisions* — static modules that stay in the state space because they sit
/// underneath dynamic gates (the exactness boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModuleStats {
    /// Elements of the original tree.
    pub total_elements: usize,
    /// Independent modules without any dynamic gate.
    pub static_modules: usize,
    /// Independent modules containing at least one dynamic gate.
    pub dynamic_modules: usize,
    /// Static independent modules kept in the state space because they live
    /// inside a dynamic core (collapsing them would be approximate).
    pub static_modules_retained: usize,
    /// Elements solved combinatorially (static gates and basic events of the crown).
    pub crown_elements: usize,
    /// Dynamic cores that still need state-space analysis.
    pub core_count: usize,
    /// Elements inside those cores.
    pub core_elements: usize,
}

/// One dynamic core of a [`HybridPlan`]: a maximal connected region of the tree
/// that needs state-space analysis, observed by the crown through a single
/// *exit* element.
#[derive(Debug, Clone)]
pub struct CoreModule {
    /// The element through which the crown observes the core.  Usually a gate,
    /// but a basic event when e.g. an FDEP-triggered event feeds a static gate.
    pub exit: ElementId,
    /// Every element of the core, ascending by id (including `exit` and any
    /// parentless FDEP gates whose trigger or dependents belong to the core).
    pub members: Vec<ElementId>,
    /// The core as a standalone DFT whose top is `exit`: element `i` of this
    /// tree is `members[i]` of the original, names preserved.
    pub dft: Dft,
}

/// The hybrid decomposition of a tree: dynamic [`CoreModule`]s plus the static
/// crown above them.
///
/// Built by [`hybrid_plan`].  The decomposition is *exact* for unrepairable
/// trees: cores are pairwise disjoint and share no element with the crown, so
/// their failure times are independent of each other and of the crown's basic
/// events, and the crown combines them combinatorially.  A tree whose top is
/// itself dynamic degenerates to a single core containing everything (the plan
/// then adds no reduction, but stays correct).
#[derive(Debug, Clone)]
pub struct HybridPlan {
    /// The dynamic cores, ordered by exit id.
    pub cores: Vec<CoreModule>,
    /// Crown elements (everything outside all cores), ascending by id.  All
    /// crown gates are static, and no crown element is shared with a core.
    pub crown: Vec<ElementId>,
    /// Reduction accounting for reports and `/metrics`.
    pub stats: ModuleStats,
}

/// Computes the hybrid static/dynamic decomposition of a tree.
///
/// Every dynamic gate and all its descendants must be analysed in the state
/// space; connected regions of such elements form core candidates.  A core must
/// be observed through a *single* exit (one element with parents outside the
/// core), because a pseudo event summarises exactly one failure distribution —
/// components observed through several exits absorb the static gates above
/// those exits until a single exit remains (in the worst case, the top, which
/// makes the plan degenerate but never wrong).  Dynamic regions that the top
/// does not observe at all produce no core.
///
/// # Examples
///
/// ```
/// use dft::modules::hybrid_plan;
/// use dft::{DftBuilder, Dormancy};
/// # fn main() -> Result<(), dft::Error> {
/// let mut b = DftBuilder::new();
/// let d1 = b.basic_event("D1", 1.0, Dormancy::Hot)?;
/// let d2 = b.basic_event("D2", 1.0, Dormancy::Hot)?;
/// let core = b.pand_gate("Core", &[d1, d2])?;
/// let x = b.basic_event("X", 1.0, Dormancy::Hot)?;
/// let y = b.basic_event("Y", 1.0, Dormancy::Hot)?;
/// let crown = b.and_gate("Crown", &[x, y])?;
/// let top = b.or_gate("Top", &[crown, core])?;
/// let dft = b.build(top)?;
/// let plan = hybrid_plan(&dft);
/// assert_eq!(plan.cores.len(), 1);
/// assert_eq!(plan.cores[0].exit, core);
/// assert_eq!(plan.stats.crown_elements, 4); // X, Y, Crown, Top
/// # Ok(())
/// # }
/// ```
pub fn hybrid_plan(dft: &Dft) -> HybridPlan {
    let n = dft.num_elements();
    // Seed: dynamism contaminates everything below it.
    let mut in_core: Vec<bool> = dft
        .elements()
        .map(|e| dft.element(e).is_dynamic_gate())
        .collect();
    mark_inputs(dft, &mut in_core);
    // Grow the core set until every connected core component is observed
    // through a single exit.  The set only grows, so this terminates (at the
    // latest once the top joins a core and becomes its only exit).
    let components = loop {
        // Label connected components over input/parent adjacency.  The core
        // set is descendant-closed, so every input of a core element is a core
        // element of the same component.
        let mut label = vec![usize::MAX; n];
        let mut components: Vec<Vec<ElementId>> = Vec::new();
        for start in dft.elements() {
            if !in_core[start.index()] || label[start.index()] != usize::MAX {
                continue;
            }
            let id = components.len();
            let mut members = Vec::new();
            let mut stack = vec![start];
            label[start.index()] = id;
            while let Some(e) = stack.pop() {
                members.push(e);
                let inputs = dft.element(e).inputs().iter();
                for &next in inputs.chain(dft.parents(e)) {
                    if in_core[next.index()] && label[next.index()] == usize::MAX {
                        label[next.index()] = id;
                        stack.push(next);
                    }
                }
            }
            members.sort();
            components.push(members);
        }
        let exits: Vec<Vec<ElementId>> = components
            .iter()
            .map(|members| {
                members
                    .iter()
                    .copied()
                    .filter(|&e| {
                        e == dft.top() || dft.parents(e).iter().any(|p| !in_core[p.index()])
                    })
                    .collect()
            })
            .collect();
        let mut grew = false;
        for exit_set in &exits {
            if exit_set.len() < 2 {
                continue;
            }
            for &exit in exit_set {
                for &parent in dft.parents(exit) {
                    grew |= !in_core[parent.index()];
                    in_core[parent.index()] = true;
                }
            }
        }
        if !grew {
            break components.into_iter().zip(exits).collect::<Vec<_>>();
        }
        mark_inputs(dft, &mut in_core);
    };
    let mut cores: Vec<CoreModule> = components
        .into_iter()
        .filter_map(|(members, exits)| {
            // A dynamic island the top never observes contributes nothing.
            let &exit = exits.first()?;
            let sub = extract_subtree(dft, &members, exit);
            Some(CoreModule {
                exit,
                members,
                dft: sub,
            })
        })
        .collect();
    cores.sort_by_key(|c| c.exit);
    let crown: Vec<ElementId> = dft.elements().filter(|&e| !in_core[e.index()]).collect();
    // The core set is descendant-closed, so a module lies inside it exactly
    // when its root does.
    let modules = module_roots(dft);
    let static_modules = modules.iter().filter(|&&m| m == Some(false)).count();
    let static_modules_retained = dft
        .elements()
        .filter(|e| modules[e.index()] == Some(false) && in_core[e.index()])
        .count();
    let stats = ModuleStats {
        total_elements: n,
        static_modules,
        dynamic_modules: modules.iter().filter(|&&m| m == Some(true)).count(),
        static_modules_retained,
        crown_elements: crown.len(),
        core_count: cores.len(),
        core_elements: cores.iter().map(|c| c.members.len()).sum(),
    };
    HybridPlan {
        cores,
        crown,
        stats,
    }
}

/// Marks every input of a marked element, transitively.  A gate's inputs
/// have smaller ids (the builder adds a gate after its inputs), so one pass
/// in reverse id order sees every parent before its inputs.
fn mark_inputs(dft: &Dft, marked: &mut [bool]) {
    for i in (0..marked.len()).rev() {
        if marked[i] {
            for input in dft.element(ElementId::new(i as u32)).inputs() {
                marked[input.index()] = true;
            }
        }
    }
}

/// Extracts `members` of `dft` into a standalone tree topped by `exit`.
/// Element `i` of the result is `members[i]`; names are preserved.  `members`
/// must be input-closed (every input of a member is a member), which both the
/// core components of [`hybrid_plan`] and independent modules guarantee.
fn extract_subtree(dft: &Dft, members: &[ElementId], exit: ElementId) -> Dft {
    let mut index_of = vec![u32::MAX; dft.num_elements()];
    for (i, &m) in members.iter().enumerate() {
        index_of[m.index()] = i as u32;
    }
    let mut names = Vec::with_capacity(members.len());
    let mut elements = Vec::with_capacity(members.len());
    let mut by_name = HashMap::with_capacity(members.len());
    for (i, &m) in members.iter().enumerate() {
        let name = dft.name(m).to_owned();
        by_name.insert(name.clone(), ElementId::new(i as u32));
        names.push(name);
        let mut element = dft.element(m).clone();
        if let Element::Gate(gate) = &mut element {
            for input in &mut gate.inputs {
                *input = ElementId::new(index_of[input.index()]);
            }
        }
        elements.push(element);
    }
    Dft::assemble(
        names,
        elements,
        by_name,
        ElementId::new(index_of[exit.index()]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DftBuilder;
    use crate::element::Dormancy;

    /// A miniature cascaded-PAND structure: PAND over two AND modules.
    fn cascaded() -> Dft {
        let mut b = DftBuilder::new();
        let a1 = b.basic_event("A1", 1.0, Dormancy::Hot).unwrap();
        let a2 = b.basic_event("A2", 1.0, Dormancy::Hot).unwrap();
        let b1 = b.basic_event("B1", 1.0, Dormancy::Hot).unwrap();
        let b2 = b.basic_event("B2", 1.0, Dormancy::Hot).unwrap();
        let module_a = b.and_gate("ModA", &[a1, a2]).unwrap();
        let module_b = b.and_gate("ModB", &[b1, b2]).unwrap();
        let top = b.pand_gate("Top", &[module_a, module_b]).unwrap();
        b.build(top).unwrap()
    }

    #[test]
    fn and_modules_under_a_pand_are_independent() {
        let dft = cascaded();
        let modules = independent_modules(&dft);
        let roots: Vec<&str> = modules.iter().map(|m| dft.name(m.root)).collect();
        assert!(roots.contains(&"ModA"));
        assert!(roots.contains(&"ModB"));
        assert!(roots.contains(&"Top"));
        let mod_a = modules.iter().find(|m| dft.name(m.root) == "ModA").unwrap();
        assert_eq!(mod_a.members.len(), 3);
        assert!(!mod_a.dynamic);
        let top = modules.iter().find(|m| dft.name(m.root) == "Top").unwrap();
        assert!(top.dynamic);
    }

    #[test]
    fn shared_events_break_independence() {
        let mut b = DftBuilder::new();
        let shared = b.basic_event("Shared", 1.0, Dormancy::Hot).unwrap();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let left = b.and_gate("Left", &[shared, x]).unwrap();
        let right = b.or_gate("Right", &[shared]).unwrap();
        let top = b.or_gate("Top", &[left, right]).unwrap();
        let dft = b.build(top).unwrap();
        let modules = independent_modules(&dft);
        let roots: Vec<&str> = modules.iter().map(|m| dft.name(m.root)).collect();
        // Left and Right both reference the shared event, so neither is a module.
        assert!(!roots.contains(&"Left"));
        assert!(!roots.contains(&"Right"));
        assert!(roots.contains(&"Top"));
    }

    #[test]
    fn fdep_across_subtrees_breaks_independence() {
        let mut b = DftBuilder::new();
        let t = b.basic_event("T", 1.0, Dormancy::Hot).unwrap();
        let c = b.basic_event("C", 1.0, Dormancy::Hot).unwrap();
        let d = b.basic_event("D", 1.0, Dormancy::Hot).unwrap();
        let module = b.and_gate("Module", &[c, d]).unwrap();
        let _fdep = b.fdep_gate("Fdep", t, &[c]).unwrap();
        let top = b.or_gate("Top", &[module, t]).unwrap();
        let dft = b.build(top).unwrap();
        let modules = independent_modules(&dft);
        let roots: Vec<&str> = modules.iter().map(|m| dft.name(m.root)).collect();
        // C is functionally dependent on a trigger outside "Module".
        assert!(!roots.contains(&"Module"));
    }

    /// Static crown (OR over an AND module) above one PAND core that itself
    /// contains a static AND module.
    fn mixed() -> Dft {
        let mut b = DftBuilder::new();
        let a1 = b.basic_event("A1", 1.0, Dormancy::Hot).unwrap();
        let a2 = b.basic_event("A2", 1.0, Dormancy::Hot).unwrap();
        let crown_module = b.and_gate("CrownMod", &[a1, a2]).unwrap();
        let b1 = b.basic_event("B1", 1.0, Dormancy::Hot).unwrap();
        let b2 = b.basic_event("B2", 1.0, Dormancy::Hot).unwrap();
        let core_module = b.and_gate("CoreMod", &[b1, b2]).unwrap();
        let d = b.basic_event("D", 1.0, Dormancy::Hot).unwrap();
        let core = b.pand_gate("Core", &[core_module, d]).unwrap();
        let top = b.or_gate("Top", &[crown_module, core]).unwrap();
        b.build(top).unwrap()
    }

    #[test]
    fn hybrid_plan_keeps_static_modules_under_dynamic_gates_in_the_core() {
        let dft = mixed();
        let plan = hybrid_plan(&dft);
        assert_eq!(plan.cores.len(), 1);
        let core = &plan.cores[0];
        assert_eq!(dft.name(core.exit), "Core");
        // The AND module below the PAND stays in the state space: the
        // exactness boundary of the hybrid backend.
        let member_names: Vec<&str> = core.members.iter().map(|&m| dft.name(m)).collect();
        assert_eq!(member_names, vec!["B1", "B2", "CoreMod", "D", "Core"]);
        assert_eq!(core.dft.name(core.dft.top()), "Core");
        assert_eq!(core.dft.num_elements(), 5);
        let crown_names: Vec<&str> = plan.crown.iter().map(|&m| dft.name(m)).collect();
        assert_eq!(crown_names, vec!["A1", "A2", "CrownMod", "Top"]);
        assert_eq!(plan.stats.core_count, 1);
        assert_eq!(plan.stats.core_elements, 5);
        assert_eq!(plan.stats.crown_elements, 4);
        assert_eq!(plan.stats.total_elements, 9);
        // CrownMod and CoreMod are static modules; only CoreMod is retained in
        // the state space.
        assert_eq!(plan.stats.static_modules, 2);
        assert_eq!(plan.stats.static_modules_retained, 1);
    }

    #[test]
    fn fully_static_trees_plan_without_cores() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("Y", 1.0, Dormancy::Hot).unwrap();
        let top = b.voting_gate("Top", 1, &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let plan = hybrid_plan(&dft);
        assert!(plan.cores.is_empty());
        assert_eq!(plan.crown.len(), 3);
        assert_eq!(plan.stats.core_elements, 0);
    }

    #[test]
    fn dynamic_top_degenerates_to_a_single_core() {
        let dft = cascaded();
        let plan = hybrid_plan(&dft);
        assert_eq!(plan.cores.len(), 1);
        assert_eq!(plan.cores[0].exit, dft.top());
        assert_eq!(plan.cores[0].members.len(), dft.num_elements());
        assert!(plan.crown.is_empty());
    }

    #[test]
    fn multi_exit_components_absorb_their_crown_parents() {
        // Two spare gates share one pool spare: a single stochastic component
        // observed through two exits.  The plan must absorb the static gates
        // above the exits until one exit remains — here, all the way to the top.
        let mut b = DftBuilder::new();
        let pa = b.basic_event("PA", 1.0, Dormancy::Hot).unwrap();
        let pb = b.basic_event("PB", 1.0, Dormancy::Hot).unwrap();
        let ps = b.basic_event("PS", 1.0, Dormancy::Cold).unwrap();
        let ga = b.spare_gate("GA", &[pa, ps]).unwrap();
        let gb = b.spare_gate("GB", &[pb, ps]).unwrap();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("Y", 1.0, Dormancy::Hot).unwrap();
        let and1 = b.and_gate("And1", &[ga, x]).unwrap();
        let and2 = b.and_gate("And2", &[gb, y]).unwrap();
        let top = b.or_gate("Top", &[and1, and2]).unwrap();
        let dft = b.build(top).unwrap();
        let plan = hybrid_plan(&dft);
        assert_eq!(plan.cores.len(), 1);
        assert_eq!(plan.cores[0].exit, dft.top());
        assert!(plan.crown.is_empty());
    }

    #[test]
    fn fdep_core_can_exit_through_a_basic_event() {
        // The trigger is only observed through the FDEP; the crown sees the
        // dependent basic event directly.
        let mut b = DftBuilder::new();
        let t = b.basic_event("T", 1.0, Dormancy::Hot).unwrap();
        let c = b.basic_event("C", 1.0, Dormancy::Hot).unwrap();
        let _fdep = b.fdep_gate("Fdep", t, &[c]).unwrap();
        let x = b.basic_event("X", 1.0, Dormancy::Hot).unwrap();
        let top = b.and_gate("Top", &[c, x]).unwrap();
        let dft = b.build(top).unwrap();
        let plan = hybrid_plan(&dft);
        assert_eq!(plan.cores.len(), 1);
        let core = &plan.cores[0];
        assert_eq!(dft.name(core.exit), "C");
        let member_names: Vec<&str> = core.members.iter().map(|&m| dft.name(m)).collect();
        assert_eq!(member_names, vec!["T", "C", "Fdep"]);
        assert_eq!(core.dft.name(core.dft.top()), "C");
        let crown_names: Vec<&str> = plan.crown.iter().map(|&m| dft.name(m)).collect();
        assert_eq!(crown_names, vec!["X", "Top"]);
    }

    /// The planner before its linear seed: one descendant walk per dynamic
    /// gate and per absorbed parent.  The reference `hybrid_plan` must equal.
    fn reference_plan(dft: &Dft) -> HybridPlan {
        let n = dft.num_elements();
        // Seed: dynamism contaminates everything below it.
        let mut in_core = vec![false; n];
        for id in dft.elements() {
            if dft.element(id).is_dynamic_gate() {
                for d in dft.descendants(id) {
                    in_core[d.index()] = true;
                }
            }
        }
        // Grow the core set until every connected core component is observed
        // through a single exit.  The set only grows, so this terminates (at the
        // latest once the top joins a core and becomes its only exit).
        let components = loop {
            // Label connected components over input/parent adjacency.  The core
            // set is descendant-closed, so every input of a core element is a core
            // element of the same component.
            let mut label = vec![usize::MAX; n];
            let mut components: Vec<Vec<ElementId>> = Vec::new();
            for start in dft.elements() {
                if !in_core[start.index()] || label[start.index()] != usize::MAX {
                    continue;
                }
                let id = components.len();
                let mut members = Vec::new();
                let mut stack = vec![start];
                label[start.index()] = id;
                while let Some(e) = stack.pop() {
                    members.push(e);
                    let inputs = dft.element(e).inputs().iter();
                    for &next in inputs.chain(dft.parents(e)) {
                        if in_core[next.index()] && label[next.index()] == usize::MAX {
                            label[next.index()] = id;
                            stack.push(next);
                        }
                    }
                }
                members.sort();
                components.push(members);
            }
            let exits: Vec<Vec<ElementId>> = components
                .iter()
                .map(|members| {
                    members
                        .iter()
                        .copied()
                        .filter(|&e| {
                            e == dft.top() || dft.parents(e).iter().any(|p| !in_core[p.index()])
                        })
                        .collect()
                })
                .collect();
            let mut grew = false;
            for exit_set in &exits {
                if exit_set.len() < 2 {
                    continue;
                }
                for &exit in exit_set {
                    for &parent in dft.parents(exit) {
                        if !in_core[parent.index()] {
                            for d in dft.descendants(parent) {
                                in_core[d.index()] = true;
                            }
                            grew = true;
                        }
                    }
                }
            }
            if !grew {
                break components.into_iter().zip(exits).collect::<Vec<_>>();
            }
        };
        let mut cores: Vec<CoreModule> = components
            .into_iter()
            .filter_map(|(members, exits)| {
                // A dynamic island the top never observes contributes nothing.
                let &exit = exits.first()?;
                let sub = extract_subtree(dft, &members, exit);
                Some(CoreModule {
                    exit,
                    members,
                    dft: sub,
                })
            })
            .collect();
        cores.sort_by_key(|c| c.exit);
        let crown: Vec<ElementId> = dft.elements().filter(|&e| !in_core[e.index()]).collect();
        // The core set is descendant-closed, so a module lies inside it exactly
        // when its root does.
        let modules = module_roots(dft);
        let static_modules = modules.iter().filter(|&&m| m == Some(false)).count();
        let static_modules_retained = dft
            .elements()
            .filter(|e| modules[e.index()] == Some(false) && in_core[e.index()])
            .count();
        let stats = ModuleStats {
            total_elements: n,
            static_modules,
            dynamic_modules: modules.iter().filter(|&&m| m == Some(true)).count(),
            static_modules_retained,
            crown_elements: crown.len(),
            core_count: cores.len(),
            core_elements: cores.iter().map(|c| c.members.len()).sum(),
        };
        HybridPlan {
            cores,
            crown,
            stats,
        }
    }

    /// The plans' cores (exit, members, extracted tree), crowns and stats.
    fn assert_same_plan(dft: &Dft, what: &str) {
        let (plan, reference) = (hybrid_plan(dft), reference_plan(dft));
        let cores = |plan: &HybridPlan| -> Vec<_> {
            plan.cores
                .iter()
                .map(|c| {
                    let names: Vec<String> =
                        c.dft.elements().map(|e| c.dft.name(e).to_owned()).collect();
                    (c.exit, c.members.clone(), names, c.dft.fingerprint())
                })
                .collect()
        };
        assert_eq!(cores(&plan), cores(&reference), "{what}: cores");
        assert_eq!(plan.crown, reference.crown, "{what}: crown");
        assert_eq!(plan.stats, reference.stats, "{what}: stats");
    }

    #[test]
    fn hybrid_plan_matches_the_reference_planner_on_the_corpus() {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/corpus");
        let mut planned = 0;
        for entry in std::fs::read_dir(&dir).expect("the corpus directory exists") {
            let path = entry.expect("a readable entry").path();
            if path.extension().is_some_and(|ext| ext == "dft") {
                let text = std::fs::read_to_string(&path).expect("a readable corpus tree");
                let dft = crate::galileo::parse(&text).expect("the corpus tree parses");
                assert_same_plan(&dft, &format!("{path:?}"));
                planned += 1;
            }
        }
        assert_eq!(planned, 11);
    }

    /// A seeded random tree mixing static and dynamic gates over shared
    /// inputs, or `None` when the builder refuses the draw.
    fn random_tree(seed: u64) -> Option<Dft> {
        // SplitMix64.
        let mut state = seed;
        let mut next = move |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut b = DftBuilder::new();
        let mut ids = Vec::new();
        for i in 0..2 + next(7) {
            let dormancy = [Dormancy::Hot, Dormancy::Cold, Dormancy::Warm(0.5)][next(3)];
            ids.push(b.basic_event(&format!("B{i}"), 1.0, dormancy).ok()?);
        }
        let mut used = vec![false; ids.len()];
        for g in 0..2 + next(7) {
            let picks: Vec<usize> = (0..1 + next(3)).map(|_| next(ids.len())).collect();
            let mut inputs: Vec<ElementId> = Vec::new();
            for &p in &picks {
                if !inputs.contains(&ids[p]) {
                    inputs.push(ids[p]);
                }
            }
            let name = format!("G{g}");
            let gate = match next(6) {
                0 => b.and_gate(&name, &inputs),
                1 => b.or_gate(&name, &inputs),
                2 => b.voting_gate(&name, 1, &inputs),
                3 => b.pand_gate(&name, &inputs),
                4 => b.spare_gate(&name, &inputs),
                _ if inputs.len() > 1 => b.fdep_gate(&name, inputs[0], &inputs[1..]),
                _ => b.or_gate(&name, &inputs),
            }
            .ok()?;
            for &p in &picks {
                used[p] = true;
            }
            ids.push(gate);
            used.push(false);
        }
        // The top observes every element nothing else uses.
        let loose: Vec<ElementId> = ids
            .iter()
            .zip(&used)
            .filter(|&(_, &used)| !used)
            .map(|(&id, _)| id)
            .collect();
        let top = b.or_gate("Top", &loose).ok()?;
        b.build(top).ok()
    }

    #[test]
    fn hybrid_plan_matches_the_reference_planner_on_random_trees() {
        let mut planned = 0;
        for seed in 0..512 {
            if let Some(dft) = random_tree(seed) {
                assert_same_plan(&dft, &format!("seed {seed}"));
                planned += 1;
            }
        }
        assert!(planned >= 128, "only {planned} random trees built");
    }

    /// `G_i = PAND(G_{i-1}, B_i)`: the old seed walked every gate's
    /// descendants, quadratic in the depth.
    #[test]
    fn a_deep_pand_chain_plans_in_linear_time() {
        const DEPTH: usize = 20_000;
        let mut b = DftBuilder::new();
        let mut below = b.basic_event("B0", 1.0, Dormancy::Hot).unwrap();
        for i in 1..=DEPTH {
            let event = b.basic_event(&format!("B{i}"), 1.0, Dormancy::Hot).unwrap();
            below = b.pand_gate(&format!("G{i}"), &[below, event]).unwrap();
        }
        let dft = b.build(below).unwrap();
        let plan = hybrid_plan(&dft);
        assert_eq!(plan.cores.len(), 1);
        assert_eq!(plan.cores[0].exit, dft.top());
        assert_eq!(plan.cores[0].members.len(), 2 * DEPTH + 1);
        assert!(plan.crown.is_empty());
    }
}
