//! Relax-kernel experiment: the legacy nested-loop value iteration versus the
//! flat CSR kernel on a seeded random CTMDP, plus the lane-batched and
//! multi-threaded variants — every variant checked bit for bit.
//!
//! Run with `cargo run --release -p dftmc-bench --bin kernel_experiment`
//! (add `--smoke` for the quick CI configuration).

#![forbid(unsafe_code)]

use dft::json::{self, Json};
use dftmc_bench::timing::format_duration;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (states, lanes) = if smoke { (600, 4) } else { (4000, 8) };

    let e = dftmc_bench::run_kernel_experiment(states, lanes).expect("the experiment runs");

    println!("== CSR relax kernel: legacy vs flat, batched, threaded ==\n");
    println!(
        "model: {} states, {} Markovian transitions, {} time bounds",
        e.states, e.markovian_transitions, e.time_points
    );
    println!(
        "legacy relax {} vs kernel {} (one lane, sequential) — bits {}",
        format_duration(e.legacy),
        format_duration(e.kernel_sequential),
        if e.bit_identical {
            "identical"
        } else {
            "DIVERGED"
        }
    );
    println!(
        "{} scalar runs {} vs one {}-lane batched run {} — {:.1}x, bits {}",
        e.lanes,
        format_duration(e.scalar_total),
        e.lanes,
        format_duration(e.batched),
        e.batch_speedup,
        if e.batch_identical {
            "identical"
        } else {
            "DIVERGED"
        }
    );
    println!(
        "threaded batched run {} ({} workers, auto picks {}) — bits {}",
        format_duration(e.threaded),
        e.threaded_workers,
        e.auto_workers,
        if e.worker_invariant {
            "identical"
        } else {
            "DIVERGED"
        }
    );

    assert!(
        e.bit_identical,
        "the kernel must match the legacy relax bit for bit"
    );
    assert!(
        e.batch_identical,
        "batched lanes must match independent single-lane runs bit for bit"
    );
    assert!(
        e.worker_invariant,
        "the threaded relax must match the sequential relax bit for bit"
    );

    json::emit_and_announce(
        "kernel",
        &Json::obj([
            ("experiment", "kernel".into()),
            ("smoke", smoke.into()),
            ("states", e.states.into()),
            ("markovian_transitions", e.markovian_transitions.into()),
            ("lanes", e.lanes.into()),
            ("time_points", e.time_points.into()),
            ("auto_workers", e.auto_workers.into()),
            ("threaded_workers", e.threaded_workers.into()),
            ("legacy_seconds", Json::secs(e.legacy)),
            ("kernel_sequential_seconds", Json::secs(e.kernel_sequential)),
            ("scalar_total_seconds", Json::secs(e.scalar_total)),
            ("batched_seconds", Json::secs(e.batched)),
            ("threaded_seconds", Json::secs(e.threaded)),
            ("batch_speedup", e.batch_speedup.into()),
            ("bit_identical", e.bit_identical.into()),
            ("batch_identical", e.batch_identical.into()),
            ("worker_invariant", e.worker_invariant.into()),
        ]),
    );
}
