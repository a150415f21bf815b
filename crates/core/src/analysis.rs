//! Analysis options and the pipeline's manual entry points.
//!
//! This module wires the pipeline of the paper end to end:
//!
//! ```text
//! DFT ──convert──▶ I/O-IMC community ──aggregate──▶ single I/O-IMC
//!     ──extract──▶ CTMC / CTMDP ──uniformisation──▶ unreliability
//!                                ──steady state──▶ unavailability
//! ```
//!
//! Two analysis methods are offered: the paper's **compositional aggregation** and
//! the DIFTree-style **monolithic** baseline ([`crate::baseline`]), selectable via
//! [`AnalysisOptions::method`] so that benchmarks can compare both on the same DFT.
//!
//! Measures are computed by an [`Analyzer`](crate::engine::Analyzer) session,
//! which pays aggregation once and answers any number of queries:
//!
//! ```
//! use dft::{DftBuilder, Dormancy};
//! use dft_core::engine::Analyzer;
//! use dft_core::query::Measure;
//! use dft_core::AnalysisOptions;
//!
//! # fn main() -> Result<(), dft_core::Error> {
//! # let mut b = DftBuilder::new();
//! # let x = b.basic_event("doc_X", 1.0, Dormancy::Hot)?;
//! # let top = b.or_gate("doc_Top", &[x])?;
//! # let dft = b.build(top)?;
//! let analyzer = Analyzer::new(&dft, AnalysisOptions::default())?;   // build once
//! let curve = analyzer.query(Measure::curve([0.5, 1.0, 2.0]))?;
//! # assert_eq!(curve.len(), 3);
//! # Ok(())
//! # }
//! ```

use crate::aggregate::{aggregate, AggregationOptions, AggregationStats};
use crate::convert::convert;
use crate::Result;
use dft::Dft;
use ioimc::IoImc;

/// Which algorithm computes the measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Compositional aggregation through I/O-IMCs (the paper's approach).
    #[default]
    Compositional,
    /// Direct generation of one CTMC for the whole tree (DIFTree-style baseline).
    Monolithic,
    /// Hybrid static/dynamic decomposition: maximal dynamic cores are analysed
    /// compositionally, the static crown above them is solved combinatorially
    /// on a BDD (see [`dft::modules::hybrid_plan`]).  Exact — and typically
    /// orders of magnitude smaller in state space — for unrepairable trees
    /// whose dynamic cores are deterministic; repairable or non-deterministic
    /// trees silently fall back to the full compositional pipeline, so the
    /// method is always safe to request.
    Hybrid,
}

/// Options shared by the analyses.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Truncation error bound for the numerical transient/steady-state
    /// analysis, in `(0, 1)`: it is both the Poisson truncation error of
    /// uniformisation and the tolerance of the steady-state solvers.
    pub epsilon: f64,
    /// Analysis method.
    pub method: Method,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            epsilon: 1e-9,
            method: Method::Compositional,
        }
    }
}

/// Convenience helper: the number of states of the final aggregated model for a
/// DFT, used by the benchmark harness when only sizes are of interest.
///
/// # Errors
///
/// Propagates conversion and aggregation errors.
pub fn aggregated_model(dft: &Dft) -> Result<(IoImc, AggregationStats)> {
    let community = convert(dft)?;
    aggregate(
        &community.models,
        &AggregationOptions {
            keep: vec![community.top_failure],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Analyzer;
    use crate::Error;
    use dft::{DftBuilder, Dormancy};

    fn session(dft: &Dft, method: Method) -> Analyzer {
        let options = AnalysisOptions {
            method,
            ..AnalysisOptions::default()
        };
        Analyzer::new(dft, options).unwrap()
    }

    fn exp_cdf(rate: f64, t: f64) -> f64 {
        1.0 - (-rate * t).exp()
    }

    #[test]
    fn single_event_or_gate_is_exponential() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("an_X", 0.7, Dormancy::Hot).unwrap();
        let top = b.or_gate("an_Top", &[x]).unwrap();
        let dft = b.build(top).unwrap();
        let analyzer = session(&dft, Method::Compositional);
        let r = analyzer.unreliability(1.5).unwrap();
        assert!(!r.is_nondeterministic());
        assert!((r.value() - exp_cdf(0.7, 1.5)).abs() < 1e-7);
        let (lo, hi) = r.bounds();
        assert!((lo - hi).abs() < 1e-7);
        assert!(analyzer.aggregation_stats().is_some());
        assert!(analyzer.model_stats().states > 0);
    }

    #[test]
    fn and_gate_multiplies_probabilities() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("an2_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("an2_Y", 2.0, Dormancy::Hot).unwrap();
        let top = b.and_gate("an2_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let t = 0.8;
        let r = session(&dft, Method::Compositional)
            .unreliability(t)
            .unwrap();
        let exact = exp_cdf(1.0, t) * exp_cdf(2.0, t);
        assert!((r.value() - exact).abs() < 1e-7, "{} vs {exact}", r.value());
    }

    #[test]
    fn compositional_and_monolithic_agree_on_a_static_tree() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("an3_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("an3_Y", 0.5, Dormancy::Hot).unwrap();
        let z = b.basic_event("an3_Z", 2.0, Dormancy::Hot).unwrap();
        let lower = b.and_gate("an3_And", &[x, y]).unwrap();
        let top = b.or_gate("an3_Top", &[lower, z]).unwrap();
        let dft = b.build(top).unwrap();
        let t = 1.0;
        let comp = session(&dft, Method::Compositional)
            .unreliability(t)
            .unwrap();
        let mono = session(&dft, Method::Monolithic).unreliability(t).unwrap();
        assert!(
            (comp.value() - mono.value()).abs() < 1e-6,
            "compositional {} vs monolithic {}",
            comp.value(),
            mono.value()
        );
    }

    #[test]
    fn cold_spare_gives_erlang_failure_time() {
        let mut b = DftBuilder::new();
        let p = b.basic_event("an4_P", 1.0, Dormancy::Hot).unwrap();
        let s = b.basic_event("an4_S", 1.0, Dormancy::Cold).unwrap();
        let top = b.spare_gate("an4_Top", &[p, s]).unwrap();
        let dft = b.build(top).unwrap();
        let t = 1.0;
        let r = session(&dft, Method::Compositional)
            .unreliability(t)
            .unwrap();
        // Erlang(2, 1): 1 - e^-t (1 + t).
        let exact = 1.0 - (-t).exp() * (1.0 + t);
        assert!((r.value() - exact).abs() < 1e-6, "{} vs {exact}", r.value());
    }

    #[test]
    fn hot_spare_behaves_like_an_and_gate() {
        let mut b = DftBuilder::new();
        let p = b.basic_event("an5_P", 1.0, Dormancy::Hot).unwrap();
        let s = b.basic_event("an5_S", 1.0, Dormancy::Hot).unwrap();
        let top = b.spare_gate("an5_Top", &[p, s]).unwrap();
        let dft = b.build(top).unwrap();
        let t = 0.7;
        let r = session(&dft, Method::Compositional)
            .unreliability(t)
            .unwrap();
        let exact = exp_cdf(1.0, t) * exp_cdf(1.0, t);
        assert!((r.value() - exact).abs() < 1e-6);
    }

    #[test]
    fn pand_gate_counts_only_ordered_failures() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("an6_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("an6_Y", 1.0, Dormancy::Hot).unwrap();
        let top = b.pand_gate("an6_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let t = 10.0;
        let r = session(&dft, Method::Compositional)
            .unreliability(t)
            .unwrap();
        // With identical rates, X fails before Y with probability 1/2; for a very
        // long mission time the unreliability tends to 1/2.
        assert!((r.value() - 0.5).abs() < 2e-3, "{}", r.value());
    }

    #[test]
    fn unavailability_of_a_single_repairable_component() {
        let mut b = DftBuilder::new();
        let x = b
            .repairable_basic_event("an7_X", 1.0, Dormancy::Hot, 9.0)
            .unwrap();
        let top = b.or_gate("an7_Top", &[x]).unwrap();
        let dft = b.build(top).unwrap();
        let r = session(&dft, Method::Compositional)
            .unavailability()
            .unwrap()
            .value();
        assert!((r - 0.1).abs() < 1e-6, "{r}");
    }

    #[test]
    fn unavailability_requires_repairable_events() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("an8_X", 1.0, Dormancy::Hot).unwrap();
        let top = b.or_gate("an8_Top", &[x]).unwrap();
        let dft = b.build(top).unwrap();
        assert!(matches!(
            session(&dft, Method::Compositional).unavailability(),
            Err(Error::Unsupported { .. })
        ));
    }

    #[test]
    fn mttf_of_basic_structures() {
        // OR of two hot events: exponential race, MTTF = 1/(λ1+λ2).
        let mut b = DftBuilder::new();
        let x = b.basic_event("mt_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("mt_Y", 3.0, Dormancy::Hot).unwrap();
        let top = b.or_gate("mt_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let mttf = session(&dft, Method::Compositional).mttf().unwrap().value();
        assert!((mttf - 0.25).abs() < 1e-6, "{mttf}");
        let mono = session(&dft, Method::Monolithic).mttf().unwrap().value();
        assert!((mono - 0.25).abs() < 1e-6);

        // AND of two identical hot events: MTTF of max of two exponentials = 3/(2λ).
        let mut b = DftBuilder::new();
        let x = b.basic_event("mt2_X", 2.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("mt2_Y", 2.0, Dormancy::Hot).unwrap();
        let top = b.and_gate("mt2_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let mttf = session(&dft, Method::Compositional).mttf().unwrap().value();
        assert!((mttf - 0.75).abs() < 1e-6, "{mttf}");
    }

    #[test]
    fn mttf_of_a_pand_can_be_infinite() {
        // With probability 1/2 the PAND never fires, so the expected failure time
        // is infinite.
        let mut b = DftBuilder::new();
        let x = b.basic_event("mt3_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("mt3_Y", 1.0, Dormancy::Hot).unwrap();
        let top = b.pand_gate("mt3_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let mttf = session(&dft, Method::Compositional).mttf().unwrap().value();
        assert!(mttf.is_infinite());
    }

    #[test]
    fn fdep_makes_dependents_fail_with_the_trigger() {
        // Top = AND(X, Y), both functionally dependent on T.  The system fails as
        // soon as T fails (or when both X and Y fail by themselves).
        let mut b = DftBuilder::new();
        let t = b.basic_event("an9_T", 0.5, Dormancy::Hot).unwrap();
        let x = b.basic_event("an9_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("an9_Y", 1.0, Dormancy::Hot).unwrap();
        let _f = b.fdep_gate("an9_F", t, &[x, y]).unwrap();
        let top = b.and_gate("an9_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let horizon = 1.0;
        let r = session(&dft, Method::Compositional)
            .unreliability(horizon)
            .unwrap();
        // P(fail) = P(T <= t) + P(T > t) P(X <= t) P(Y <= t) for independent events?
        // Not quite: X and Y may fail before T as well; the exact value is
        // P(min(T, max(X,Y)) <= t) with T ~ exp(0.5), X,Y ~ exp(1):
        //   1 - P(T > t) P(max(X,Y) > t)  does not hold either (max(X,Y) > t is not
        //   independent of the failure path), so just compare against the
        //   monolithic baseline which implements the textbook semantics directly.
        let mono = session(&dft, Method::Monolithic)
            .unreliability(horizon)
            .unwrap();
        assert!(
            (r.value() - mono.value()).abs() < 1e-6,
            "compositional {} vs monolithic {}",
            r.value(),
            mono.value()
        );
        // And the failure probability must exceed that of the AND gate alone.
        let and_only = exp_cdf(1.0, horizon) * exp_cdf(1.0, horizon);
        assert!(r.value() > and_only);
    }
}
