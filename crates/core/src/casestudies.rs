//! The paper's case studies, ready to analyse.
//!
//! * [`cas`] — the cardiac assist system of Section 5.1 (Figure 7),
//! * [`cps`] — the cascaded PAND system of Section 5.2 (Figure 8), in a
//!   parameterised form so the benchmark harness can also scale it.
//!
//! The reported reference results are: CAS unreliability 0.6579 at mission time 1;
//! CPS unreliability 0.00135 at mission time 1, with the compositional approach
//! peaking at 156 states / 490 transitions versus 4113 states / 24608 transitions
//! for the monolithic chain.
//!
//! [`cas_analyzer`] and [`cps_analyzer`] return ready-made [`Analyzer`] sessions
//! over the two case studies, so sweeps and repeated measures pay for aggregation
//! only once.

use crate::engine::Analyzer;
use crate::{AnalysisOptions, Result};
use dft::{Dft, DftBuilder, Dormancy, ElementId};

/// Builds the cardiac assist system DFT (Figure 7 of the paper).
///
/// The system consists of three units, any of whose failure fails the system:
///
/// * **CPU unit** — a primary CPU `P` with a warm spare `B` (dormancy 0.5); both
///   are functionally dependent on the cross switch `CS` and the system
///   supervision `SS` (modelled as an OR trigger).
/// * **Motor unit** — a primary motor `MA` with a cold spare `MB`; the switching
///   component `MS` matters only if it fails *before* the primary motor, so the
///   unit fails when either the motor spare gate fails or the PAND over `MS` and
///   `MA` fires (MS failed first, leaving the spare motor unreachable).
/// * **Pump unit** — two primary pumps `PA`, `PB`, each backed by the *shared* cold
///   spare pump `PS`; the unit fails when all pumps are gone.
///
/// # Panics
///
/// Never panics for the fixed parameters used here (the builder calls are
/// infallible for this structure).
pub fn cas() -> Dft {
    cas_scaled(1.0)
}

/// A rate-scaled variant of the cardiac assist system: the structure of
/// [`cas`], with every failure rate multiplied by `scale`.
///
/// Portfolio workloads (fleet studies, parameter sweeps, the throughput
/// benchmark) analyze many such variants; `scale = 1.0` is exactly the paper's
/// CAS.  Different scales produce different [`Dft::fingerprint`]s, identical
/// scales share one — which is what makes the variants a good cache workout.
///
/// # Panics
///
/// Panics if `scale` is not strictly positive (a basic event needs a positive
/// failure rate).
pub fn cas_scaled(scale: f64) -> Dft {
    assert!(
        scale > 0.0 && scale.is_finite(),
        "rate scale must be positive and finite"
    );
    let mut b = DftBuilder::new();

    // CPU unit.
    let cs = b
        .basic_event("CS", 0.2 * scale, Dormancy::Hot)
        .expect("valid BE");
    let ss = b
        .basic_event("SS", 0.2 * scale, Dormancy::Hot)
        .expect("valid BE");
    let p = b
        .basic_event("P", 0.5 * scale, Dormancy::Hot)
        .expect("valid BE");
    let cpu_spare = b
        .basic_event("B", 0.5 * scale, Dormancy::Warm(0.5))
        .expect("valid BE");
    let trigger = b.or_gate("Trigger", &[cs, ss]).expect("valid gate");
    let _cpu_fdep = b
        .fdep_gate("CPU_FDEP", trigger, &[p, cpu_spare])
        .expect("valid gate");
    let cpu_unit = b
        .spare_gate("CPU_unit", &[p, cpu_spare])
        .expect("valid gate");

    // Motor unit.
    let ms = b
        .basic_event("MS", 0.01 * scale, Dormancy::Hot)
        .expect("valid BE");
    let ma = b
        .basic_event("MA", 1.0 * scale, Dormancy::Hot)
        .expect("valid BE");
    let mb = b
        .basic_event("MB", 1.0 * scale, Dormancy::Cold)
        .expect("valid BE");
    let motors = b.spare_gate("Motors", &[ma, mb]).expect("valid gate");
    let switch = b.pand_gate("MP", &[ms, ma]).expect("valid gate");
    let motor_unit = b
        .or_gate("Motor_unit", &[switch, motors])
        .expect("valid gate");

    // Pump unit.
    let pa = b
        .basic_event("PA", 1.0 * scale, Dormancy::Hot)
        .expect("valid BE");
    let pb = b
        .basic_event("PB", 1.0 * scale, Dormancy::Hot)
        .expect("valid BE");
    let ps = b
        .basic_event("PS", 1.0 * scale, Dormancy::Cold)
        .expect("valid BE");
    let pump_a = b.spare_gate("Pump_A", &[pa, ps]).expect("valid gate");
    let pump_b = b.spare_gate("Pump_B", &[pb, ps]).expect("valid gate");
    let pump_unit = b
        .and_gate("Pump_unit", &[pump_a, pump_b])
        .expect("valid gate");

    let system = b
        .or_gate("System", &[cpu_unit, motor_unit, pump_unit])
        .expect("valid gate");
    b.build(system).expect("the CAS is a wellformed DFT")
}

/// The CAS unreliability at mission time 1 reported by the paper (Section 5.1).
pub const CAS_PAPER_UNRELIABILITY: f64 = 0.6579;

/// A standard 10-point mission-time grid used by sweep examples, benchmarks and
/// tests: 0.25, 0.5, …, 2.5.
pub const DEFAULT_MISSION_TIMES: [f64; 10] =
    [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5];

/// Builds an [`Analyzer`] session over the cardiac assist system: aggregation
/// runs once here, every subsequent query is answered from the cache.
///
/// # Errors
///
/// Propagates analysis errors (none occur for the fixed case study with valid
/// options).
pub fn cas_analyzer(options: AnalysisOptions) -> Result<Analyzer> {
    Analyzer::new(&cas(), options)
}

/// Builds an [`Analyzer`] session over the cascaded PAND system.
///
/// # Errors
///
/// Propagates analysis errors (none occur for the fixed case study with valid
/// options).
pub fn cps_analyzer(options: AnalysisOptions) -> Result<Analyzer> {
    Analyzer::new(&cps(), options)
}

/// The CPU unit of the CAS as a stand-alone DFT (primary CPU with a warm spare,
/// both functionally dependent on the cross switch / system supervision trigger).
///
/// The paper analyses each unit as an independent module; these per-unit builders
/// make that experiment reproducible in isolation.
///
/// # Panics
///
/// Never panics for the fixed structure built here.
pub fn cas_cpu_unit() -> Dft {
    let mut b = DftBuilder::new();
    let cs = b.basic_event("CS", 0.2, Dormancy::Hot).expect("valid BE");
    let ss = b.basic_event("SS", 0.2, Dormancy::Hot).expect("valid BE");
    let p = b.basic_event("P", 0.5, Dormancy::Hot).expect("valid BE");
    let spare = b
        .basic_event("B", 0.5, Dormancy::Warm(0.5))
        .expect("valid BE");
    let trigger = b.or_gate("Trigger", &[cs, ss]).expect("valid gate");
    let _fdep = b
        .fdep_gate("CPU_FDEP", trigger, &[p, spare])
        .expect("valid gate");
    let unit = b.spare_gate("CPU_unit", &[p, spare]).expect("valid gate");
    b.build(unit).expect("wellformed module")
}

/// The motor unit of the CAS as a stand-alone DFT.
///
/// # Panics
///
/// Never panics for the fixed structure built here.
pub fn cas_motor_unit() -> Dft {
    let mut b = DftBuilder::new();
    let ms = b.basic_event("MS", 0.01, Dormancy::Hot).expect("valid BE");
    let ma = b.basic_event("MA", 1.0, Dormancy::Hot).expect("valid BE");
    let mb = b.basic_event("MB", 1.0, Dormancy::Cold).expect("valid BE");
    let motors = b.spare_gate("Motors", &[ma, mb]).expect("valid gate");
    let switch = b.pand_gate("MP", &[ms, ma]).expect("valid gate");
    let unit = b
        .or_gate("Motor_unit", &[switch, motors])
        .expect("valid gate");
    b.build(unit).expect("wellformed module")
}

/// The pump unit of the CAS as a stand-alone DFT (two primary pumps sharing one
/// cold spare pump).
///
/// # Panics
///
/// Never panics for the fixed structure built here.
pub fn cas_pump_unit() -> Dft {
    let mut b = DftBuilder::new();
    let pa = b.basic_event("PA", 1.0, Dormancy::Hot).expect("valid BE");
    let pb = b.basic_event("PB", 1.0, Dormancy::Hot).expect("valid BE");
    let ps = b.basic_event("PS", 1.0, Dormancy::Cold).expect("valid BE");
    let pump_a = b.spare_gate("Pump_A", &[pa, ps]).expect("valid gate");
    let pump_b = b.spare_gate("Pump_B", &[pb, ps]).expect("valid gate");
    let unit = b
        .and_gate("Pump_unit", &[pump_a, pump_b])
        .expect("valid gate");
    b.build(unit).expect("wellformed module")
}

/// Builds the cascaded PAND system (Figure 8 of the paper): a PAND whose inputs are
/// an AND module and a second PAND over two further AND modules; every AND module
/// has four identical basic events with failure rate 1.
///
/// # Panics
///
/// Never panics for the fixed structure built here.
pub fn cps() -> Dft {
    cascaded_pand(4, 1.0)
}

/// The CPS unreliability at mission time 1 reported by the paper (Section 5.2).
pub const CPS_PAPER_UNRELIABILITY: f64 = 0.00135;

/// Peak intermediate model size reported by the paper for the compositional
/// analysis of the CPS: 156 states and 490 transitions.
pub const CPS_PAPER_PEAK: (usize, usize) = (156, 490);

/// Size of the monolithic chain reported by the paper for the CPS: 4113 states and
/// 24608 transitions.
pub const CPS_PAPER_MONOLITHIC: (usize, usize) = (4113, 24608);

/// Parameterised cascaded PAND system: each of the three AND modules has
/// `events_per_module` identical basic events with failure rate `rate`.
///
/// `cascaded_pand(4, 1.0)` is exactly the paper's CPS; other widths are used by the
/// scaling benchmark (experiment E9).
///
/// # Panics
///
/// Panics if `events_per_module` is 0 (an AND gate needs at least one input).
pub fn cascaded_pand(events_per_module: usize, rate: f64) -> Dft {
    assert!(
        events_per_module > 0,
        "each module needs at least one basic event"
    );
    let mut b = DftBuilder::new();
    let module = |b: &mut DftBuilder, name: &str| -> ElementId {
        let events: Vec<ElementId> = (0..events_per_module)
            .map(|i| {
                b.basic_event(&format!("{name}_{i}"), rate, Dormancy::Hot)
                    .expect("valid BE")
            })
            .collect();
        b.and_gate(name, &events).expect("valid gate")
    };
    let module_a = module(&mut b, "A");
    let module_c = module(&mut b, "C");
    let module_d = module(&mut b, "D");
    let inner = b.pand_gate("B", &[module_c, module_d]).expect("valid gate");
    let system = b
        .pand_gate("System", &[module_a, inner])
        .expect("valid gate");
    b.build(system).expect("the CPS is a wellformed DFT")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft::GateKind;

    #[test]
    fn cas_structure_matches_the_paper() {
        let dft = cas();
        assert_eq!(dft.num_basic_events(), 10);
        assert_eq!(dft.spare_gates().len(), 4);
        assert_eq!(dft.fdep_gates().len(), 1);
        assert_eq!(dft.gates_of_kind(GateKind::Pand).len(), 1);
        assert_eq!(dft.name(dft.top()), "System");
        assert!(dft.is_dynamic());
        // The shared spare pump is an input of both pump spare gates.
        let ps = dft.by_name("PS").unwrap();
        assert_eq!(dft.parents(ps).len(), 2);
    }

    #[test]
    fn cps_structure_matches_the_paper() {
        let dft = cps();
        assert_eq!(dft.num_basic_events(), 12);
        assert_eq!(dft.gates_of_kind(GateKind::And).len(), 3);
        assert_eq!(dft.gates_of_kind(GateKind::Pand).len(), 2);
        assert_eq!(dft.num_elements(), 17);
    }

    #[test]
    fn case_study_analyzers_reproduce_the_paper() {
        let cas = cas_analyzer(AnalysisOptions::default()).unwrap();
        let r = cas.unreliability(1.0).unwrap();
        assert!(
            (r.value() - CAS_PAPER_UNRELIABILITY).abs() < 1e-3,
            "{}",
            r.value()
        );
        assert_eq!(cas.aggregation_runs(), 1);
        let cps = cps_analyzer(AnalysisOptions::default()).unwrap();
        let curve = cps.unreliability_curve(&DEFAULT_MISSION_TIMES).unwrap();
        assert_eq!(curve.len(), DEFAULT_MISSION_TIMES.len());
        let at_one = curve.points()[3];
        assert_eq!(at_one.time(), Some(1.0));
        assert!(
            (at_one.value() - CPS_PAPER_UNRELIABILITY).abs() < 1e-4,
            "{}",
            at_one.value()
        );
        assert_eq!(cps.aggregation_runs(), 1);
    }

    #[test]
    fn cas_variants_share_structure_but_not_fingerprints() {
        assert_eq!(cas().fingerprint(), cas_scaled(1.0).fingerprint());
        let variant = cas_scaled(1.1);
        assert_eq!(variant.num_elements(), cas().num_elements());
        assert_ne!(variant.fingerprint(), cas().fingerprint());
    }

    #[test]
    fn cascaded_pand_scales() {
        let small = cascaded_pand(2, 1.0);
        assert_eq!(small.num_basic_events(), 6);
        let large = cascaded_pand(5, 0.5);
        assert_eq!(large.num_basic_events(), 15);
    }
}
