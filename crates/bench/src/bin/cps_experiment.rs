//! Experiments E3/E4: regenerates the cascaded-PAND results of Section 5.2 and
//! Figure 9.
//!
//! Run with `cargo run --release -p dftmc-bench --bin cps_experiment`
//! (`--smoke` is accepted for CI uniformity; the experiment is already small).

#![forbid(unsafe_code)]

use dft::json::{self, Json};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let e = dftmc_bench::run_cps_experiment().expect("the CPS analyses");
    println!("== E3/E4: cascaded PAND system (Section 5.2, Figures 8/9) ==\n");
    println!("{:<38} {:>12} {:>12}", "metric", "paper", "measured");
    let row = |name: &str, c: &dftmc_bench::Comparison| {
        println!("{:<38} {:>12} {:>12}", name, c.paper.unwrap(), c.measured);
    };
    println!(
        "{:<38} {:>12} {:>12.5}",
        "unreliability at t=1",
        e.unreliability.paper.unwrap(),
        e.unreliability.measured
    );
    row("compositional peak states", &e.peak_states);
    row("compositional peak transitions", &e.peak_transitions);
    row("monolithic states", &e.monolithic_states);
    row("monolithic transitions", &e.monolithic_transitions);
    println!();
    println!(
        "Figure 9: one AND module aggregates to {} states (order of identical failures is irrelevant)",
        e.module_a_states
    );
    println!();
    println!(
        "session phases: build {} (one aggregation), query {}",
        dftmc_bench::timing::format_duration(e.timings.build),
        dftmc_bench::timing::format_duration(e.timings.query)
    );

    let comparison = |c: &dftmc_bench::Comparison| {
        Json::obj([
            ("paper", c.paper.map(Json::Num).unwrap_or(Json::Null)),
            ("measured", c.measured.into()),
        ])
    };
    json::emit_and_announce(
        "cps",
        &Json::obj([
            ("experiment", "cps".into()),
            ("smoke", smoke.into()),
            ("unreliability", comparison(&e.unreliability)),
            ("peak_states", comparison(&e.peak_states)),
            ("peak_transitions", comparison(&e.peak_transitions)),
            ("monolithic_states", comparison(&e.monolithic_states)),
            (
                "monolithic_transitions",
                comparison(&e.monolithic_transitions),
            ),
            ("module_a_states", e.module_a_states.into()),
            ("build_seconds", Json::secs(e.timings.build)),
            ("query_seconds", Json::secs(e.timings.query)),
        ]),
    );
}
