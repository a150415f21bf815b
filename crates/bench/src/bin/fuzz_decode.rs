//! Seeded deterministic fuzzing of every untrusted-byte decoder.
//!
//! ```text
//! fuzz_decode [--iters N] [--seed S]
//! ```
//!
//! Defaults: 10 000 inputs per decoder, seed 3735928559 (the CI batch).  Any
//! panic is reported with the offending input written to
//! `fuzz_crash_<target>.bin` for conversion into a committed regression
//! fixture, and the process exits non-zero.  See `dftmc_bench::fuzz` for the
//! corpus and mutation strategy.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut iters = 10_000usize;
    let mut seed = 0xDEAD_BEEFu64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => iters = v,
                None => return usage("--iters needs an integer"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage("--seed needs an integer"),
            },
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }

    // Panics are the signal under test, not crashes: silence the default
    // hook so 60k caught rejections don't flood the log, and report caught
    // panics ourselves below.
    std::panic::set_hook(Box::new(|_| {}));
    let reports = dftmc_bench::fuzz::run_all(seed, iters);
    let _ = std::panic::take_hook();

    println!("fuzz_decode: seed {seed}, {iters} inputs per decoder");
    let mut failed = false;
    for report in &reports {
        println!(
            "  {:<32} {} runs: {} accepted, {} rejected, {} panics",
            report.target,
            report.runs,
            report.accepted,
            report.rejected,
            report.panics.len()
        );
        if let Some(input) = report.panics.first() {
            failed = true;
            let path = format!(
                "fuzz_crash_{}.bin",
                report.target.replace(|c: char| !c.is_alphanumeric(), "_")
            );
            match std::fs::write(&path, input) {
                Ok(()) => println!("    first crashing input written to {path}"),
                Err(e) => println!("    could not write crashing input: {e}"),
            }
        }
    }
    if failed {
        println!("fuzz_decode: FAIL (panicking inputs found)");
        ExitCode::FAILURE
    } else {
        println!("fuzz_decode: clean");
        ExitCode::SUCCESS
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("fuzz_decode: {problem}\nusage: fuzz_decode [--iters N] [--seed S]");
    ExitCode::FAILURE
}
