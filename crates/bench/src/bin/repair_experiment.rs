//! Experiment E8: the repairable AND system of Figure 15, analysed for
//! steady-state unavailability.
//!
//! Run with `cargo run --release -p dftmc-bench --bin repair_experiment`
//! (add `--smoke` for the quick CI configuration).

#![forbid(unsafe_code)]

use dft::json::{self, Json};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("== E8: repairable AND gate (Section 7.2, Figures 13-15) ==\n");
    println!(
        "{:>10} {:>10} {:>8} {:>18} {:>18} {:>12} {:>14}",
        "lambda_A", "lambda_B", "mu", "analytic", "measured", "mttf", "final states"
    );
    let mut rows = Vec::new();
    let full: &[(f64, f64, f64)] = &[
        (1.0, 2.0, 10.0),
        (0.5, 0.5, 5.0),
        (1.0, 1.0, 1.0),
        (0.1, 0.3, 2.0),
    ];
    let configs = if smoke { &full[..2] } else { full };
    for &(la, lb, mu) in configs {
        let e = dftmc_bench::run_repair_experiment(la, lb, mu).expect("repair analysis runs");
        println!(
            "{:>10} {:>10} {:>8} {:>18.8} {:>18.8} {:>12.4} {:>14}",
            la,
            lb,
            mu,
            e.unavailability.paper.unwrap(),
            e.unavailability.measured,
            e.mttf,
            e.final_states
        );
        rows.push(Json::obj([
            ("lambda_a", la.into()),
            ("lambda_b", lb.into()),
            ("mu", mu.into()),
            ("analytic", e.unavailability.paper.unwrap().into()),
            ("measured", e.unavailability.measured.into()),
            ("mttf", e.mttf.into()),
            ("final_states", e.final_states.into()),
        ]));
    }
    println!("\nBoth the steady-state unavailability and the MTTF come from one analyzer");
    println!("session per parameter set: the aggregation pipeline ran once per row.");

    json::emit_and_announce(
        "repair",
        &Json::obj([
            ("experiment", "repair".into()),
            ("smoke", smoke.into()),
            ("rows", Json::Arr(rows)),
        ]),
    );
}
