//! Experiment E2: regenerates the cardiac-assist-system results of Section 5.1.
//!
//! Run with `cargo run --release -p dftmc-bench --bin cas_experiment`
//! (`--smoke` is accepted for CI uniformity; the experiment is already small).

#![forbid(unsafe_code)]

use dft::json::{self, Json};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let e = dftmc_bench::run_cas_experiment().expect("the CAS analyses");
    println!("== E2: cardiac assist system (Section 5.1) ==\n");
    println!("unreliability at mission time 1");
    println!(
        "  paper / Galileo        : {:.4}",
        e.unreliability.paper.unwrap()
    );
    println!("  compositional (ours)   : {:.4}", e.unreliability.measured);
    println!(
        "  monolithic baseline    : {:.4}",
        e.monolithic_unreliability
    );
    println!(
        "  relative error         : {:.2}%",
        e.unreliability.relative_error().unwrap() * 100.0
    );
    println!();
    println!("state-space sizes");
    println!(
        "  compositional peak (full system) : {} states",
        e.peak_states
    );
    println!(
        "  monolithic chain  (full system)  : {} states",
        e.monolithic_states
    );
    println!("  aggregated module I/O-IMCs (paper reports ~6 states each):");
    for (name, states) in &e.module_states {
        println!("    {name:<11}: {states} states");
    }
    println!();
    println!(
        "session phases: build {} (one aggregation), query {}",
        dftmc_bench::timing::format_duration(e.timings.build),
        dftmc_bench::timing::format_duration(e.timings.query)
    );

    json::emit_and_announce(
        "cas",
        &Json::obj([
            ("experiment", "cas".into()),
            ("smoke", smoke.into()),
            ("unreliability_paper", e.unreliability.paper.unwrap().into()),
            ("unreliability_measured", e.unreliability.measured.into()),
            (
                "unreliability_monolithic",
                e.monolithic_unreliability.into(),
            ),
            ("compositional_peak_states", e.peak_states.into()),
            ("monolithic_states", e.monolithic_states.into()),
            (
                "module_states",
                Json::Arr(
                    e.module_states
                        .iter()
                        .map(|(name, states)| {
                            Json::obj([
                                ("module", name.as_str().into()),
                                ("states", (*states).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("build_seconds", Json::secs(e.timings.build)),
            ("query_seconds", Json::secs(e.timings.query)),
        ]),
    );
}
