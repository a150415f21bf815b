//! Benchmark E2 — the cardiac assist system (Section 5.1).
//!
//! The session engine splits every analysis into a **build** phase (conversion +
//! compositional aggregation, or monolithic chain generation) and a **query**
//! phase (uniformisation against the cached model); this bench measures the two
//! phases separately for both methods, plus a one-shot build-and-query that
//! pays for both on every call.

use dft_core::analysis::{AnalysisOptions, Method};
use dft_core::casestudies::cas;
use dft_core::engine::Analyzer;
use dftmc_bench::timing::{print_header, report};

fn main() {
    let dft = cas();
    let compositional = AnalysisOptions::default();
    let monolithic = AnalysisOptions {
        method: Method::Monolithic,
        ..AnalysisOptions::default()
    };
    let sweep: Vec<f64> = (1..=25).map(|i| i as f64 * 0.2).collect();

    print_header("E2: cardiac assist system");

    report("cas/compositional/build", 20, || {
        Analyzer::new(&dft, compositional.clone()).expect("build")
    });
    let analyzer = Analyzer::new(&dft, compositional.clone()).expect("build");
    report("cas/compositional/query-point", 20, || {
        analyzer.unreliability(1.0).expect("query")
    });
    report("cas/compositional/query-curve-25pts", 20, || {
        analyzer.unreliability_curve(&sweep).expect("query")
    });
    report("cas/compositional/one-shot", 20, || {
        let analyzer = Analyzer::new(&dft, compositional.clone()).expect("build");
        analyzer.unreliability(1.0).expect("query")
    });

    report("cas/monolithic/build", 20, || {
        Analyzer::new(&dft, monolithic.clone()).expect("build")
    });
    let mono = Analyzer::new(&dft, monolithic.clone()).expect("build");
    report("cas/monolithic/query-point", 20, || {
        mono.unreliability(1.0).expect("query")
    });
    report("cas/monolithic/query-curve-25pts", 20, || {
        mono.unreliability_curve(&sweep).expect("query")
    });

    report("cas/dft-to-ioimc-community", 20, || {
        dft_core::convert::convert(&dft).expect("conversion")
    });
}
