//! Galileo parser corpus tests: a negative corpus of malformed descriptions
//! that must fail with *typed* errors (matching the panic-freedom lints
//! on `dft::galileo`), and a parse → print → parse round-trip
//! property over randomly generated trees.

use dftmc::dft::galileo::{parse, to_galileo};
use dftmc::dft::Error;
use dftmc::dft_core::rng::SplitMix64;

mod common;
use common::{assert_same_tree, random_galileo};

/// Every entry must be rejected with the expected typed error — unterminated
/// quotes and out-of-range thresholds included, which earlier parser
/// revisions silently accepted or mangled.
#[test]
fn negative_corpus_fails_typed() {
    let parse_errors: &[(&str, &str)] = &[
        (
            "unterminated toplevel quote",
            "toplevel \"T;\n\"T\" and \"A\" \"B\";",
        ),
        (
            "unterminated name quote",
            "toplevel \"T\";\n\"T and \"A\" \"B\";",
        ),
        (
            "unterminated input quote",
            "toplevel \"T\";\n\"T\" and \"A \"B\";",
        ),
        (
            "stray quote inside a token",
            "toplevel \"T\";\n\"T\"x and \"A\" \"B\";",
        ),
        (
            "empty quoted name",
            "toplevel \"T\";\n\"\" and \"A\" \"B\";",
        ),
        (
            "unknown gate keyword",
            "toplevel \"T\";\n\"T\" xor \"A\" \"B\";\n\"A\" lambda=1.0;\n\"B\" lambda=1.0;",
        ),
        (
            "voting threshold zero",
            "toplevel \"T\";\n\"T\" 0of2 \"A\" \"B\";\n\"A\" lambda=1.0;\n\"B\" lambda=1.0;",
        ),
        (
            "voting threshold above m",
            "toplevel \"T\";\n\"T\" 3of2 \"A\" \"B\";\n\"A\" lambda=1.0;\n\"B\" lambda=1.0;",
        ),
        (
            "voting arity mismatch",
            "toplevel \"T\";\n\"T\" 2of3 \"A\" \"B\";\n\"A\" lambda=1.0;\n\"B\" lambda=1.0;",
        ),
        (
            "missing toplevel",
            "\"T\" and \"A\" \"B\";\n\"A\" lambda=1.0;\n\"B\" lambda=1.0;",
        ),
        (
            "toplevel without a name",
            "toplevel;\n\"T\" and \"A\" \"B\";",
        ),
        ("gate without inputs", "toplevel \"T\";\n\"T\" and;"),
        (
            "basic event without lambda",
            "toplevel \"T\";\n\"T\" and \"A\" \"B\";\n\"A\" dorm=0.5;\n\"B\" lambda=1.0;",
        ),
        (
            "unparseable rate",
            "toplevel \"T\";\n\"T\" and \"A\" \"B\";\n\"A\" lambda=abc;\n\"B\" lambda=1.0;",
        ),
        (
            "unknown attribute",
            "toplevel \"T\";\n\"T\" and \"A\" \"B\";\n\"A\" lambda=1.0 foo=1;\n\"B\" lambda=1.0;",
        ),
    ];
    for (what, text) in parse_errors {
        match parse(text) {
            Err(Error::Parse { .. }) => {}
            other => panic!("{what}: expected Error::Parse, got {other:?}"),
        }
    }

    let dup = "toplevel \"T\";\n\"T\" and \"A\" \"B\";\n\"A\" lambda=1.0;\n\"A\" lambda=2.0;\n\"B\" lambda=1.0;";
    assert!(matches!(parse(dup), Err(Error::DuplicateName { .. })));
}

/// parse ∘ to_galileo is the identity (up to formatting) on random trees, and
/// printing is idempotent after one round trip.
#[test]
fn random_trees_round_trip_through_printing() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let text = random_galileo(&mut rng);
        let dft = parse(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: generated text invalid: {e}\n{text}"));
        let printed = to_galileo(&dft);
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: printed text invalid: {e}\n{printed}"));
        assert_same_tree(&dft, &reparsed);
        assert_eq!(
            to_galileo(&reparsed),
            printed,
            "seed {seed}: printing is not idempotent"
        );
    }
}
