//! Experiment E12: the persistent cross-process model cache — cold-build vs
//! warm-load walls over a store-backed `AnalysisService`.
//!
//! The portfolio (rate-scaled CAS variants plus a rate sweep) runs through a
//! service whose `ServiceOptions::store` points at a shared directory.  On the
//! first run every model is aggregated and written back; on any later run
//! against the same directory — another process, a restarted server, a fleet
//! neighbour — every model is a disk read and *zero* aggregations execute.
//! The experiment also times one direct `Analyzer::new` against restoring the
//! identical session via `Analyzer::from_bytes`, the per-model saving a warm
//! store banks.
//!
//! Run with
//! `cargo run --release -p dftmc-bench --bin persistence_experiment -- [--smoke] [--store DIR] [--expect-warm]`.
//!
//! `--store DIR` selects the store directory (default `dftmc-store`);
//! `--expect-warm` additionally asserts the warm-store contract
//! (`store_hits > 0`, `aggregation_runs == 0`, nothing rejected) — the CI
//! `cache-warm` job runs the bin twice against one directory and passes the
//! flag on the second run.

#![forbid(unsafe_code)]

use dft::json::{self, Json};
use dftmc_bench::timing::format_duration;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let expect_warm = args.iter().any(|a| a == "--expect-warm");
    let store_dir = args
        .iter()
        .position(|a| a == "--store")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("dftmc-store"));
    let (distinct, copies, sweep_points) = if smoke { (3, 2, 3) } else { (8, 4, 10) };

    println!("== E12: persistent cross-process model cache ==\n");
    println!("store directory: {}", store_dir.display());
    let e = dftmc_bench::run_persistence_experiment(&store_dir, distinct, copies, sweep_points)
        .expect("persistence experiment runs");

    println!(
        "\nportfolio: {} jobs over {} distinct trees + a {}-point rate sweep",
        e.jobs, e.distinct_trees, e.sweep_points
    );
    println!("\n{:<34} {:>14}", "metric", "value");
    println!("{}", "-".repeat(49));
    let row = |name: &str, value: String| println!("{name:<34} {value:>14}");
    row("store hits", e.store_hits.to_string());
    row("store misses", e.store_misses.to_string());
    row("store writes", e.store_writes.to_string());
    row("store rejected", e.store_rejected.to_string());
    row("store bytes read", e.store_read_bytes.to_string());
    row("store bytes written", e.store_write_bytes.to_string());
    row("aggregation runs (service)", e.aggregation_runs.to_string());
    row(
        "service wall (batch + sweep)",
        format_duration(e.service_wall),
    );
    row("cold build (CAS, direct)", format_duration(e.cold_build));
    row("warm load (CAS, from_bytes)", format_duration(e.warm_load));
    row(
        "load speedup (build / load)",
        format!("{:.1}x", e.load_speedup),
    );
    row("serialized entry size (bytes)", e.entry_bytes.to_string());
    row("closed CAS model states", e.model_states.to_string());
    row(
        "round trip bit-identical",
        e.roundtrip_bit_identical.to_string(),
    );
    row("service bit-identical", e.bit_identical.to_string());

    assert!(
        e.roundtrip_bit_identical,
        "from_bytes must restore a bit-identical, zero-aggregation session"
    );
    assert!(
        e.bit_identical,
        "store-backed service results diverged from the sequential reference"
    );
    if expect_warm {
        assert!(
            e.store_hits > 0,
            "--expect-warm: the store served no hits — is the directory shared \
             with the previous run?"
        );
        assert_eq!(
            e.aggregation_runs, 0,
            "--expect-warm: a warm store must replace every aggregation with a \
             disk read"
        );
        assert_eq!(
            e.store_rejected, 0,
            "--expect-warm: entries written by the previous run were rejected"
        );
        println!(
            "\n--expect-warm: PASS (hits={}, zero aggregations)",
            e.store_hits
        );
    }

    println!("\nEvery model a run aggregates lands in the store directory; every later");
    println!("run — or concurrent fleet member sharing it — pays a disk read instead of");
    println!("the whole convert/compose/hide/lump pipeline.");

    json::emit_and_announce(
        "persist",
        &Json::obj([
            ("experiment", "persist".into()),
            ("smoke", smoke.into()),
            ("jobs", e.jobs.into()),
            ("distinct_trees", e.distinct_trees.into()),
            ("sweep_points", e.sweep_points.into()),
            ("store_hits", (e.store_hits as usize).into()),
            ("store_misses", (e.store_misses as usize).into()),
            ("store_writes", (e.store_writes as usize).into()),
            ("store_rejected", (e.store_rejected as usize).into()),
            ("store_read_bytes", (e.store_read_bytes as usize).into()),
            ("store_write_bytes", (e.store_write_bytes as usize).into()),
            ("aggregation_runs", e.aggregation_runs.into()),
            ("service_wall_seconds", Json::secs(e.service_wall)),
            ("cold_build_seconds", Json::secs(e.cold_build)),
            ("warm_load_seconds", Json::secs(e.warm_load)),
            ("load_speedup", e.load_speedup.into()),
            ("entry_bytes", e.entry_bytes.into()),
            ("model_states", e.model_states.into()),
            ("roundtrip_bit_identical", e.roundtrip_bit_identical.into()),
            ("bit_identical", e.bit_identical.into()),
        ]),
    );
}
