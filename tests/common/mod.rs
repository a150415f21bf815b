//! Shared test support: a deterministic random fault-tree generator, the
//! random I/O-IMCs of the minimisation suites, and request helpers for the
//! service suites.
//!
//! The container carries no external crates, so instead of proptest the
//! integration tests draw their random cases from a seeded [`SplitMix64`]
//! stream; every run replays the exact same cases, and a failing case is
//! reproduced by its printed seed.  Both `property_based.rs` and `engine.rs`
//! build their trees through this module so the generated shapes cannot
//! silently diverge between the two suites.

// Each integration test crate compiles its own copy of this module and uses a
// different subset of it.
#![allow(dead_code)]

use dftmc::dft::{Dft, DftBuilder, Dormancy, ElementId};
use dftmc::dft_core::rng::SplitMix64;
use dftmc::dft_core::service::{AnalysisService, JobReport, RequestOutcome, SweepReport};
use dftmc::dft_core::{AnalysisOptions, AnalysisRequest, Measure, SweepSpec};
use dftmc::ioimc::{Action, IoImc, IoImcBuilder};

/// Minimal generator driver over a seeded SplitMix64 stream.
pub struct Gen {
    rng: SplitMix64,
}

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen {
            rng: SplitMix64::new(seed),
        }
    }

    /// A usize drawn uniformly from `lo..hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi);
        lo + (self.rng.next_u64() as usize) % (hi - lo)
    }

    /// An f64 drawn uniformly from `lo..hi`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }
}

/// A random static fault tree over `n` basic events described by a compact
/// recipe: every gate consumes a slice of previously created elements.
#[derive(Debug, Clone)]
pub struct StaticTreeRecipe {
    pub rates: Vec<f64>,
    /// For each gate: (kind selector, how many of the most recent roots it
    /// takes).
    pub gates: Vec<(u8, u8)>,
}

/// Mirrors the proptest strategy the suite used before going dependency-free:
/// 2–5 basic events with rates in 0.1..3.0 and 1–3 gates of random kind/arity.
pub fn random_recipe(gen: &mut Gen) -> StaticTreeRecipe {
    let rates = (0..gen.usize_in(2, 6))
        .map(|_| gen.f64_in(0.1, 3.0))
        .collect();
    let gates = (0..gen.usize_in(1, 4))
        .map(|_| (gen.usize_in(0, 3) as u8, gen.usize_in(2, 4) as u8))
        .collect();
    StaticTreeRecipe { rates, gates }
}

/// Materialises a recipe into gates under a fresh name prefix.  Gates take
/// their inputs from the front of a rolling list of "roots" (elements without a
/// parent yet) so that the result is a tree; a final OR collects any leftovers.
pub fn build_module(b: &mut DftBuilder, recipe: &StaticTreeRecipe, prefix: &str) -> ElementId {
    let mut roots: Vec<ElementId> = recipe
        .rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            b.basic_event(&format!("{prefix}_e{i}"), rate, Dormancy::Hot)
                .unwrap()
        })
        .collect();
    for (gi, &(kind, take)) in recipe.gates.iter().enumerate() {
        let take = (take as usize).min(roots.len()).max(1);
        let inputs: Vec<ElementId> = roots.drain(..take).collect();
        let name = format!("{prefix}_g{gi}");
        let gate = match kind % 3 {
            0 => b.and_gate(&name, &inputs).unwrap(),
            1 => b.or_gate(&name, &inputs).unwrap(),
            _ => {
                let k = inputs.len().div_ceil(2) as u32;
                b.voting_gate(&name, k, &inputs).unwrap()
            }
        };
        roots.push(gate);
    }
    if roots.len() == 1 {
        roots[0]
    } else {
        b.or_gate(&format!("{prefix}_collect"), &roots).unwrap()
    }
}

/// Builds a whole DFT from a recipe.
pub fn build_static_tree(recipe: &StaticTreeRecipe, prefix: &str) -> Dft {
    let mut b = DftBuilder::new();
    let top = build_module(&mut b, recipe, prefix);
    b.build(top).unwrap()
}

impl StaticTreeRecipe {
    /// The same structure with every failure rate multiplied by `scale` — the
    /// pre-scaled twin a parametric valuation sweep is checked against.
    pub fn scaled(&self, scale: f64) -> StaticTreeRecipe {
        StaticTreeRecipe {
            rates: self.rates.iter().map(|r| r * scale).collect(),
            gates: self.gates.clone(),
        }
    }

    /// The same structure with the rate of basic event `index` replaced.
    pub fn with_rate(&self, index: usize, rate: f64) -> StaticTreeRecipe {
        let mut rates = self.rates.clone();
        rates[index] = rate;
        StaticTreeRecipe {
            rates,
            gates: self.gates.clone(),
        }
    }
}

/// Convenience: a random static tree straight from a seed.
pub fn random_static_tree(seed: u64, prefix: &str) -> Dft {
    let mut gen = Gen::new(seed);
    let recipe = random_recipe(&mut gen);
    build_static_tree(&recipe, prefix)
}

/// Generates a random valid Galileo description: basic events, then gates in
/// topological order drawing inputs from everything defined before them.
/// Spare gates get dedicated fresh basic events (unique primaries, no shared
/// subtrees), matching the wellformedness rules.  Used by the format
/// round-trip suites (`galileo_corpus.rs`, `json_corpus.rs`).
pub fn random_galileo(rng: &mut SplitMix64) -> String {
    let pick = |rng: &mut SplitMix64, n: usize| -> usize { (rng.next_u64() % n as u64) as usize };
    let mut out = String::new();
    let mut pool: Vec<String> = Vec::new();

    let num_be = 4 + pick(rng, 5);
    for i in 0..num_be {
        let name = format!("E{i}");
        let mut line = format!("\"{name}\" lambda={}", 0.1 + rng.next_f64() * 2.0);
        if pick(rng, 3) == 0 {
            line.push_str(&format!(" dorm={}", rng.next_f64()));
        }
        if pick(rng, 5) == 0 {
            line.push_str(&format!(" repair={}", 0.5 + rng.next_f64()));
        }
        out.push_str(&line);
        out.push_str(";\n");
        pool.push(name);
    }

    let num_gates = 2 + pick(rng, 5);
    let mut top = String::new();
    for g in 0..num_gates {
        let name = format!("G{g}");
        let kind = pick(rng, 8);
        if kind == 7 {
            // Spare gate over fresh basic events of its own.
            let spares = 2 + pick(rng, 2);
            let mut inputs = Vec::new();
            for j in 0..spares {
                let be = format!("S{g}_{j}");
                out.push_str(&format!("\"{be}\" lambda=1.0 dorm=0.5;\n"));
                inputs.push(format!("\"{be}\""));
            }
            out.push_str(&format!("\"{name}\" wsp {};\n", inputs.join(" ")));
        } else {
            // Sample 2-4 distinct inputs from everything defined so far.
            let want = (2 + pick(rng, 3)).min(pool.len());
            let mut candidates = pool.clone();
            let mut inputs = Vec::new();
            for _ in 0..want {
                let chosen = candidates.swap_remove(pick(rng, candidates.len()));
                inputs.push(format!("\"{chosen}\""));
            }
            let keyword = match kind {
                0 => "and".to_owned(),
                1 => "or".to_owned(),
                2 => "pand".to_owned(),
                3 => "seq".to_owned(),
                4 => "fdep".to_owned(),
                5 => "inhibit".to_owned(),
                _ => format!("{}of{}", 1 + pick(rng, inputs.len()), inputs.len()),
            };
            out.push_str(&format!("\"{name}\" {keyword} {};\n", inputs.join(" ")));
        }
        pool.push(name.clone());
        top = name;
    }
    format!("toplevel \"{top}\";\n{out}")
}

/// A random I/O-IMC over small action pools, so signatures never conflict:
/// the golden minimisation suite's generator.
///
/// Rates come from a three-value set, so equal-rate branches (lumpable) are
/// common; about a third of the states race an immediate move against a
/// Markovian one (urgent states whose rates maximal progress cuts); internal
/// targets are uniform, so internal cycles occur.
pub fn random_model(
    rng: &mut SplitMix64,
    inputs: &[Action],
    outputs: &[Action],
    taus: &[Action],
) -> IoImc {
    const RATES: [f64; 3] = [0.5, 1.0, 2.0];
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    let n = 2 + pick(23);
    let mut b = IoImcBuilder::new("golden_random");
    let s = b.add_states(n);
    b.initial(s[0]);
    let down = b.prop("down");
    let up = b.prop("up");
    for i in 0..n {
        let from = s[i];
        match pick(6) {
            0 => {
                b.internal(from, taus[pick(taus.len())], s[pick(n)]);
            }
            1 => {
                b.output(from, outputs[pick(outputs.len())], s[pick(n)]);
                b.markovian(from, RATES[pick(3)], s[pick(n)]);
            }
            2 => {
                b.internal(from, taus[pick(taus.len())], s[pick(n)]);
                b.internal(from, taus[pick(taus.len())], s[pick(n)]);
                b.markovian(from, RATES[pick(3)], s[pick(n)]);
            }
            _ => {}
        }
        for _ in 0..pick(3) {
            b.markovian(from, RATES[pick(3)], s[pick(n)]);
        }
        if pick(3) == 0 {
            b.input(from, inputs[pick(inputs.len())], s[pick(n)]);
        }
        match pick(8) {
            0 => {
                b.set_prop(from, down);
            }
            1 => {
                b.set_prop(from, up);
            }
            _ => {}
        }
    }
    b.build().expect("random model is well-formed")
}

/// Structural equality for round-trip checking: same names, and per name the
/// same gate kind + input names or the same basic-event attributes.
pub fn assert_same_tree(a: &Dft, b: &Dft) {
    assert_eq!(a.num_elements(), b.num_elements());
    assert_eq!(a.name(a.top()), b.name(b.top()));
    for id in a.elements() {
        let name = a.name(id);
        let other = b.by_name(name).unwrap_or_else(|| panic!("{name} lost"));
        let ea = a.element(id);
        let eb = b.element(other);
        match (ea.as_gate(), eb.as_gate()) {
            (Some(ga), Some(gb)) => {
                assert_eq!(ga.kind, gb.kind, "{name} changed kind");
                let ins_a: Vec<&str> = ga.inputs.iter().map(|&i| a.name(i)).collect();
                let ins_b: Vec<&str> = gb.inputs.iter().map(|&i| b.name(i)).collect();
                assert_eq!(ins_a, ins_b, "{name} changed inputs");
            }
            (None, None) => {
                let ba = ea.as_basic_event().expect("not a gate, so a basic event");
                let bb = eb.as_basic_event().expect("not a gate, so a basic event");
                assert_eq!(ba.rate, bb.rate, "{name} changed rate");
                assert_eq!(
                    ba.dormancy.factor(),
                    bb.dormancy.factor(),
                    "{name} changed dormancy"
                );
                assert_eq!(ba.repair_rate, bb.repair_rate, "{name} changed repair");
            }
            _ => panic!("{name} changed between gate and basic event"),
        }
    }
}

/// A request for `measures` over `dft` under `options`, without a sweep.
pub fn job_request(dft: Dft, options: AnalysisOptions, measures: Vec<Measure>) -> AnalysisRequest {
    AnalysisRequest {
        dft,
        options,
        measures,
        sweep: None,
    }
}

/// A sweep request: `measures` over `dft` for every point of `spec`.
pub fn sweep_request(
    dft: Dft,
    options: AnalysisOptions,
    measures: Vec<Measure>,
    spec: SweepSpec,
) -> AnalysisRequest {
    AnalysisRequest {
        sweep: Some(spec),
        ..job_request(dft, options, measures)
    }
}

/// The report of a request without a sweep.
pub fn job_report(outcome: RequestOutcome) -> JobReport {
    match outcome {
        RequestOutcome::Job(report) => report,
        RequestOutcome::Sweep(_) => panic!("expected a job outcome, got a sweep"),
    }
}

/// The report of a sweep request.
pub fn sweep_report(outcome: RequestOutcome) -> SweepReport {
    match outcome {
        RequestOutcome::Sweep(report) => report,
        RequestOutcome::Job(_) => panic!("expected a sweep outcome, got a job"),
    }
}

/// Submits every request before waiting for any, so the whole batch is
/// queued at once; the reports come back in submission order.
pub fn run_jobs(service: &AnalysisService, requests: Vec<AnalysisRequest>) -> Vec<JobReport> {
    let handles: Vec<_> = requests
        .into_iter()
        .map(|request| service.submit_request(request))
        .collect();
    handles
        .into_iter()
        .map(|handle| job_report(handle.wait()))
        .collect()
}

/// Batch-level totals summed over per-request job reports.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub jobs: usize,
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub aggregation_runs: usize,
    pub build_waits: usize,
}

pub fn totals(reports: &[JobReport]) -> Totals {
    let cache_hits = reports.iter().filter(|r| r.cache_hit).count();
    Totals {
        jobs: reports.len(),
        cache_hits,
        cache_misses: reports.len() - cache_hits,
        aggregation_runs: reports.iter().map(|r| r.aggregation_runs).sum(),
        build_waits: reports.iter().filter(|r| r.build_wait).count(),
    }
}
