//! Hybrid static-module experiment: how much state space disappears when the
//! static crown of a tree is BDD-solved and only the dynamic cores keep their
//! I/O-IMC state spaces.
//!
//! Run with `cargo run --release -p dftmc-bench --bin hybrid_experiment`
//! (`--smoke` shrinks the static crown for CI; the full run uses a wider one).

#![forbid(unsafe_code)]

use dft::json::{self, Json};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let width = if smoke { 9 } else { 12 };
    let e = dftmc_bench::run_hybrid_experiment(width).expect("the hybrid analyses");

    println!("== hybrid backend: BDD crown over state-space cores ==\n");
    println!(
        "tree: {} static basic events + 1 cold-spare pair",
        e.static_width
    );
    println!(
        "decomposition: {} core(s), {} crown elements, {} core elements",
        e.cores, e.crown_elements, e.core_elements
    );
    println!();
    println!("closed-model states");
    println!("  pure state space : {}", e.compositional_states);
    println!("  hybrid cores     : {}", e.hybrid_states);
    println!("  reduction        : {:.1}x", e.reduction_factor);
    println!();
    println!(
        "max |unreliability difference| over the mission-time grid: {:.3e}",
        e.max_curve_diff
    );
    println!(
        "pure   session: build {}, query {}",
        dftmc_bench::timing::format_duration(e.compositional_timings.build),
        dftmc_bench::timing::format_duration(e.compositional_timings.query)
    );
    println!(
        "hybrid session: build {}, query {}",
        dftmc_bench::timing::format_duration(e.hybrid_timings.build),
        dftmc_bench::timing::format_duration(e.hybrid_timings.query)
    );

    // The two promises the experiment exists to keep, checked on every run.
    assert!(
        e.reduction_factor >= 10.0,
        "state reduction {:.1}x fell below the promised 10x",
        e.reduction_factor
    );
    assert!(
        e.max_curve_diff <= 1e-12,
        "hybrid curve diverges from the state-space curve by {}",
        e.max_curve_diff
    );

    json::emit_and_announce(
        "hybrid",
        &Json::obj([
            ("experiment", "hybrid".into()),
            ("smoke", smoke.into()),
            ("static_width", e.static_width.into()),
            ("compositional_states", e.compositional_states.into()),
            ("hybrid_states", e.hybrid_states.into()),
            ("reduction_factor", e.reduction_factor.into()),
            ("cores", e.cores.into()),
            ("crown_elements", e.crown_elements.into()),
            ("core_elements", e.core_elements.into()),
            ("max_curve_diff", e.max_curve_diff.into()),
            (
                "compositional_build_seconds",
                Json::secs(e.compositional_timings.build),
            ),
            (
                "compositional_query_seconds",
                Json::secs(e.compositional_timings.query),
            ),
            ("hybrid_build_seconds", Json::secs(e.hybrid_timings.build)),
            ("hybrid_query_seconds", Json::secs(e.hybrid_timings.query)),
        ]),
    );
}
