//! Experiment E9: state-space scaling of compositional aggregation versus the
//! monolithic chain, on the modular cascaded-PAND family and on a highly
//! connected family without independent modules.
//!
//! Run with `cargo run --release -p dftmc-bench --bin scaling_experiment`
//! (add `--smoke` for the quick CI configuration).

#![forbid(unsafe_code)]

use dft::json::{self, Json};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (max_width, connectivity_sizes): (usize, &[usize]) = if smoke {
        (3, &[3, 4])
    } else {
        (5, &[3, 4, 5, 6])
    };

    println!("== E9a: cascaded-PAND family (modular) ==\n");
    println!(
        "{:>6} {:>8} {:>20} {:>18} {:>16}",
        "width", "events", "compositional peak", "monolithic states", "unreliability"
    );
    let rows = dftmc_bench::run_scaling_experiment(max_width).expect("scaling runs");
    for row in &rows {
        println!(
            "{:>6} {:>8} {:>20} {:>18} {:>16.6}",
            row.width,
            row.basic_events,
            row.compositional_peak,
            row.monolithic_states,
            row.unreliability
        );
    }

    println!("\n== E9b: highly connected family (no independent modules) ==\n");
    println!(
        "{:>8} {:>18} {:>28}",
        "events", "connected peak", "modular peak (same #events)"
    );
    let connectivity =
        dftmc_bench::run_connectivity_experiment(connectivity_sizes).expect("connectivity runs");
    for row in &connectivity {
        println!(
            "{:>8} {:>18} {:>28}",
            row.basic_events, row.connected_peak, row.modular_peak
        );
    }
    println!("\nThe compositional advantage grows with modularity and shrinks for highly");
    println!("connected trees, as the paper observes at the end of Section 5.2.");

    json::emit_and_announce(
        "scaling",
        &Json::obj([
            ("experiment", "scaling".into()),
            ("smoke", smoke.into()),
            (
                "cascaded_pand",
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("width", r.width.into()),
                                ("basic_events", r.basic_events.into()),
                                ("compositional_peak_states", r.compositional_peak.into()),
                                ("monolithic_states", r.monolithic_states.into()),
                                ("unreliability_at_1", r.unreliability.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "connectivity",
                Json::Arr(
                    connectivity
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("basic_events", r.basic_events.into()),
                                ("connected_peak_states", r.connected_peak.into()),
                                ("modular_peak_states", r.modular_peak.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    );
}
