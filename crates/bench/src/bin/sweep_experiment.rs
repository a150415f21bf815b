//! Rate-sweep experiment: aggregate the CAS structure once, instantiate a
//! whole failure-rate sweep at query time, and compare against K independent
//! per-scale builds (the pre-parametric workflow).
//!
//! Run with `cargo run --release -p dftmc-bench --bin sweep_experiment`
//! (add `--smoke` for the quick CI configuration).

#![forbid(unsafe_code)]

use dft::json::{self, Json};
use dftmc_bench::timing::format_duration;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let points = if smoke { 5 } else { 25 };
    let mission_time = 1.0;

    let e = dftmc_bench::run_sweep_experiment(points, mission_time).expect("the sweep runs");

    println!("== Rate sweep: one parametric aggregation vs {points} independent builds ==\n");
    println!("{:>8} {:>16}", "scale", "unreliability");
    for (scale, value) in e.scales.iter().zip(&e.values) {
        println!("{scale:>8.2} {value:>16.8}");
    }
    println!();
    println!(
        "parametric: build {} (aggregations: {}), instantiate {} + query {} over {} points",
        format_duration(e.parametric_build),
        e.aggregation_runs,
        format_duration(e.sweep_instantiate),
        format_duration(e.sweep_query),
        e.points
    );
    println!(
        "independent: {} total ({} for one point) — end-to-end speedup {:.1}x, \
         marginal (per amortized point) {:.1}x, marginal cost {:.1} µs/point",
        format_duration(e.independent_total),
        format_duration(e.single_point),
        e.speedup,
        e.marginal_speedup,
        e.marginal_us_per_point
    );
    println!(
        "agreement with per-point builds: max |diff| = {:.2e} ({})",
        e.max_abs_diff,
        if e.within_tolerance {
            "within 1e-12"
        } else {
            "OUT OF TOLERANCE"
        }
    );

    assert_eq!(
        e.aggregation_runs, 1,
        "the whole sweep must run exactly one aggregation"
    );
    assert!(
        e.within_tolerance,
        "sweep deviates from independent builds by {}",
        e.max_abs_diff
    );
    let amortized = e.sweep_instantiate + e.sweep_query;
    assert!(
        amortized < e.single_point * e.points as u32,
        "total query/instantiate time {amortized:?} must stay below {} single-point builds",
        e.points
    );

    json::emit_and_announce(
        "sweep",
        &Json::obj([
            ("experiment", "sweep".into()),
            ("smoke", smoke.into()),
            ("points", e.points.into()),
            ("mission_time", e.mission_time.into()),
            ("aggregation_runs", e.aggregation_runs.into()),
            ("parametric_states", e.parametric_states.into()),
            ("parametric_build_seconds", Json::secs(e.parametric_build)),
            ("instantiate_seconds", Json::secs(e.sweep_instantiate)),
            ("query_seconds", Json::secs(e.sweep_query)),
            ("sweep_total_seconds", Json::secs(e.sweep_total)),
            ("single_point_seconds", Json::secs(e.single_point)),
            ("independent_total_seconds", Json::secs(e.independent_total)),
            ("speedup", e.speedup.into()),
            ("marginal_speedup", e.marginal_speedup.into()),
            ("marginal_us_per_point", e.marginal_us_per_point.into()),
            ("max_abs_diff", e.max_abs_diff.into()),
            ("within_tolerance", e.within_tolerance.into()),
            (
                "points_detail",
                Json::Arr(
                    e.scales
                        .iter()
                        .zip(&e.values)
                        .map(|(&scale, &value)| {
                            Json::obj([("scale", scale.into()), ("unreliability", value.into())])
                        })
                        .collect(),
                ),
            ),
        ]),
    );
}
