//! Experiment E5: the Figure-6(a) configuration (an FDEP trigger feeding both
//! inputs of a PAND gate) analysed as a CTMDP, reporting unreliability bounds and
//! the deterministic resolution of the DIFTree-style baseline.
//!
//! Run with `cargo run --release -p dftmc-bench --bin nondeterminism_experiment`
//! (add `--smoke` for the quick CI configuration).

#![forbid(unsafe_code)]

use dft::json::{self, Json};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let times: &[f64] = if smoke {
        &[0.5, 1.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0]
    };
    println!("== E5: simultaneity and non-determinism (Section 4.4, Figure 6a) ==\n");
    println!(
        "{:>14} {:>14} {:>14} {:>22}",
        "mission time", "lower bound", "upper bound", "baseline (det. order)"
    );
    let e = dftmc_bench::run_nondeterminism_experiment(times).expect("analysis runs");
    for row in &e.rows {
        println!(
            "{:>14} {:>14.6} {:>14.6} {:>22.6}",
            row.mission_time, row.lower, row.upper, row.baseline
        );
    }
    println!("\nThe baseline resolves the simultaneous failures deterministically (left to");
    println!("right), so its value always lies inside the scheduler bounds.");
    println!(
        "\nsession phases: build {} (one aggregation), whole-sweep query {}",
        dftmc_bench::timing::format_duration(e.timings.build),
        dftmc_bench::timing::format_duration(e.timings.query)
    );

    json::emit_and_announce(
        "nondeterminism",
        &Json::obj([
            ("experiment", "nondeterminism".into()),
            ("smoke", smoke.into()),
            (
                "rows",
                Json::Arr(
                    e.rows
                        .iter()
                        .map(|row| {
                            Json::obj([
                                ("mission_time", row.mission_time.into()),
                                ("lower", row.lower.into()),
                                ("upper", row.upper.into()),
                                ("baseline", row.baseline.into()),
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
