//! Shared infrastructure for the benchmark harness.
//!
//! The paper's evaluation is reproduced by one runner, the `experiments`
//! binary in `src/bin/`, which writes every measured number as one row of
//! `BENCH_experiments.json`; `bench_diff` gates those rows against the
//! committed baseline.  This library holds what the runner, the benches in
//! `benches/` and the fuzzer share: the tree families below, the
//! dependency-free [`timing`] harness and the decoder [`fuzz`] targets.

#![forbid(unsafe_code)]

use dft::{Dft, DftBuilder, Dormancy, ElementId};

pub mod fuzz;
pub mod timing;

/// A single AND module of `width` identical rate-`rate` basic events (module A of
/// Figure 8/9).
pub fn single_and_module(width: usize, rate: f64) -> Dft {
    let mut b = DftBuilder::new();
    let events: Vec<ElementId> = (0..width)
        .map(|i| {
            b.basic_event(&format!("A_{i}"), rate, Dormancy::Hot)
                .expect("valid BE")
        })
        .collect();
    let top = b.and_gate("A", &events).expect("valid gate");
    b.build(top).expect("wellformed module")
}

/// A repairable k-out-of-n voting system over identical components, used by the
/// repair bench (E8).
pub fn repairable_voting(n: usize, failure_rate: f64, repair_rate: f64) -> Dft {
    let mut b = DftBuilder::new();
    let events: Vec<ElementId> = (0..n)
        .map(|i| {
            b.repairable_basic_event(&format!("R{i}"), failure_rate, Dormancy::Hot, repair_rate)
                .expect("valid BE")
        })
        .collect();
    let k = (n.div_ceil(2)) as u32;
    let top = b.voting_gate("system", k, &events).expect("valid gate");
    b.build(top).expect("wellformed DFT")
}

/// A "highly connected" DFT family for the negative result the paper mentions at
/// the end of Section 5.2: `n` basic events, every pair feeding a shared AND gate,
/// all gates collected under one OR.  There are no independent modules, so
/// compositional aggregation has little structure to exploit.
pub fn highly_connected(n: usize, rate: f64) -> Dft {
    let mut b = DftBuilder::new();
    let events: Vec<ElementId> = (0..n)
        .map(|i| {
            b.basic_event(&format!("hc_{i}"), rate, Dormancy::Hot)
                .expect("valid BE")
        })
        .collect();
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push(
                b.and_gate(&format!("hc_and_{i}_{j}"), &[events[i], events[j]])
                    .expect("valid gate"),
            );
        }
    }
    let top = b.or_gate("hc_top", &pairs).expect("valid gate");
    b.build(top).expect("wellformed DFT")
}

/// The hybrid experiment's subject: `static_width` distinct-rate basic events
/// grouped three at a time under alternating AND / 2-of-3 / OR gates, OR'd at
/// the top with one cold-spare pair — all the dynamism in a two-element core,
/// all the bulk in the static crown.
pub fn static_heavy_tree(static_width: usize) -> Dft {
    let mut b = DftBuilder::new();
    let mut groups = Vec::new();
    let mut leaves = Vec::new();
    for i in 0..static_width {
        let rate = 0.25 + 0.05 * i as f64;
        let be = b
            .basic_event(&format!("hx_e{i}"), rate, Dormancy::Hot)
            .expect("fresh name");
        leaves.push(be);
        if leaves.len() == 3 {
            let inputs: Vec<ElementId> = std::mem::take(&mut leaves);
            let name = format!("hx_g{}", groups.len());
            let gate = match groups.len() % 3 {
                0 => b.and_gate(&name, &inputs).expect("fresh gate"),
                1 => b.voting_gate(&name, 2, &inputs).expect("fresh gate"),
                _ => b.or_gate(&name, &inputs).expect("fresh gate"),
            };
            groups.push(gate);
        }
    }
    groups.extend(leaves);
    let p = b
        .basic_event("hx_p", 1.0, Dormancy::Hot)
        .expect("fresh name");
    let s = b
        .basic_event("hx_s", 1.0, Dormancy::Cold)
        .expect("fresh name");
    groups.push(b.spare_gate("hx_spare", &[p, s]).expect("fresh gate"));
    let top = b.or_gate("hx_top", &groups).expect("fresh gate");
    b.build(top).expect("well-formed tree")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highly_connected_trees_have_no_nontrivial_modules() {
        let dft = highly_connected(4, 1.0);
        let modules = dft::modules::independent_modules(&dft);
        // Only the top gate roots an independent module.
        assert_eq!(modules.len(), 1);
    }

    #[test]
    fn repairable_voting_builds() {
        let dft = repairable_voting(3, 0.5, 5.0);
        assert_eq!(dft.num_basic_events(), 3);
        assert!(dft.is_repairable());
    }
}
