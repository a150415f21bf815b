//! Benchmark E3/E4 — the cascaded PAND system (Section 5.2): the modularity
//! showcase where compositional aggregation beats the monolithic chain by more
//! than an order of magnitude in state count.  Build and query phases are
//! measured separately; the curve query shows the session amortising its build.

use dft_core::analysis::{aggregated_model, AnalysisOptions, Method};
use dft_core::casestudies::cps;
use dft_core::engine::Analyzer;
use dftmc_bench::single_and_module;
use dftmc_bench::timing::{print_header, report};

fn main() {
    let dft = cps();
    let compositional = AnalysisOptions::default();
    let monolithic = AnalysisOptions {
        method: Method::Monolithic,
        ..AnalysisOptions::default()
    };
    let sweep: Vec<f64> = (1..=25).map(|i| i as f64 * 0.2).collect();

    print_header("E3/E4: cascaded PAND system");

    report("cps/compositional/build", 10, || {
        Analyzer::new(&dft, compositional.clone()).expect("build")
    });
    let analyzer = Analyzer::new(&dft, compositional.clone()).expect("build");
    report("cps/compositional/query-point", 10, || {
        analyzer.unreliability(1.0).expect("query")
    });
    report("cps/compositional/query-curve-25pts", 10, || {
        analyzer.unreliability_curve(&sweep).expect("query")
    });
    report("cps/compositional/one-shot", 10, || {
        let analyzer = Analyzer::new(&dft, compositional.clone()).expect("build");
        analyzer.unreliability(1.0).expect("query")
    });

    report("cps/monolithic/build", 10, || {
        Analyzer::new(&dft, monolithic.clone()).expect("build")
    });
    let mono = Analyzer::new(&dft, monolithic.clone()).expect("build");
    report("cps/monolithic/query-point", 10, || {
        mono.unreliability(1.0).expect("query")
    });

    // Figure 9: aggregating one AND module on its own.
    let module = single_and_module(4, 1.0);
    report("cps/module-a-aggregation", 10, || {
        aggregated_model(&module).expect("aggregation")
    });
}
