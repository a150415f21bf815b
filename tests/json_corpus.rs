//! JSON interchange corpus tests: the dftlib-schema round trip over random
//! trees (JSON ⇄ Galileo ⇄ [`Dft`]), a negative corpus of malformed documents
//! that must fail with *typed* errors (matching the panic-freedom lints
//! on `dft::json_format`), and print → parse idempotence over every
//! committed corpus tree in `tests/fixtures/corpus/`.

use dftmc::dft::galileo::{self, to_galileo};
use dftmc::dft::{json_format, Error};
use dftmc::dft_core::rng::SplitMix64;
use std::path::PathBuf;

mod common;
use common::{assert_same_tree, random_galileo};

/// Galileo → `Dft` → JSON → `Dft` → Galileo: both hops preserve the tree, and
/// both printers are idempotent after one round trip.
#[test]
fn random_trees_round_trip_between_all_three_forms() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let text = random_galileo(&mut rng);
        let dft = galileo::parse(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: generated text invalid: {e}\n{text}"));

        let json = json_format::to_json(&dft);
        let from_json = json_format::parse(&json)
            .unwrap_or_else(|e| panic!("seed {seed}: encoded JSON invalid: {e}\n{json}"));
        assert_same_tree(&dft, &from_json);
        assert_eq!(
            json_format::to_json(&from_json),
            json,
            "seed {seed}: JSON printing is not idempotent"
        );

        // Close the triangle: the JSON-loaded tree prints to the same Galileo
        // as the directly parsed one.
        assert_eq!(
            to_galileo(&from_json),
            to_galileo(&dft),
            "seed {seed}: JSON hop changed the Galileo rendering"
        );
        assert_eq!(dft.fingerprint(), from_json.fingerprint(), "seed {seed}");
    }
}

/// Every entry must be rejected with [`Error::Json`] — not a panic, not a
/// silently defaulted value.
#[test]
fn negative_json_corpus_fails_typed() {
    let schema_errors: &[(&str, &str)] = &[
        ("empty input", ""),
        ("truncated document", r#"{"toplevel": "1", "nodes": ["#),
        ("root is an array", "[1, 2]"),
        ("root is a string", r#""toplevel""#),
        ("missing toplevel", r#"{"nodes": []}"#),
        ("toplevel is an object", r#"{"toplevel": {}, "nodes": []}"#),
        ("missing nodes", r#"{"toplevel": "1"}"#),
        ("nodes is not an array", r#"{"toplevel": "1", "nodes": {}}"#),
        (
            "node is not an object",
            r#"{"toplevel": "1", "nodes": [42]}"#,
        ),
        (
            "node without data",
            r#"{"toplevel": "1", "nodes": [{"group": "nodes"}]}"#,
        ),
        (
            "node without id",
            r#"{"toplevel": "1", "nodes": [{"data": {"type": "be", "rate": 1}}]}"#,
        ),
        (
            "node without type",
            r#"{"toplevel": "1", "nodes": [{"data": {"id": "1", "rate": 1}}]}"#,
        ),
        (
            "unknown node type",
            r#"{"toplevel": "1",
                "nodes": [{"data": {"id": "1", "type": "quorum", "children": ["1"]}}]}"#,
        ),
        (
            "basic event without rate",
            r#"{"toplevel": "1", "nodes": [{"data": {"id": "1", "type": "be"}}]}"#,
        ),
        (
            "unparseable rate string",
            r#"{"toplevel": "1",
                "nodes": [{"data": {"id": "1", "type": "be", "rate": "fast"}}]}"#,
        ),
        (
            "gate without children",
            r#"{"toplevel": "1", "nodes": [{"data": {"id": "1", "type": "and"}}]}"#,
        ),
        (
            "gate with empty children",
            r#"{"toplevel": "1",
                "nodes": [{"data": {"id": "1", "type": "and", "children": []}}]}"#,
        ),
        (
            "voting gate without threshold",
            r#"{"toplevel": "1",
                "nodes": [{"data": {"id": "1", "type": "vot", "children": ["1"]}}]}"#,
        ),
        (
            "negative voting threshold",
            r#"{"toplevel": "2", "nodes": [
                {"data": {"id": "0", "type": "be", "rate": 1}},
                {"data": {"id": "1", "type": "be", "rate": 1}},
                {"data": {"id": "2", "type": "vot", "voting": "-1",
                          "children": ["0", "1"]}}]}"#,
        ),
        (
            "duplicate node id",
            r#"{"toplevel": "1", "nodes": [
                {"data": {"id": "1", "type": "be", "rate": 1}},
                {"data": {"id": "1", "type": "be", "rate": 2}}]}"#,
        ),
    ];
    for (what, text) in schema_errors {
        match json_format::parse(text) {
            Err(Error::Json { .. }) => {}
            other => panic!("{what}: expected Error::Json, got {other:?}"),
        }
    }

    // Semantic violations keep their own error types, exactly as on the
    // Galileo path.
    let unknown_toplevel = r#"{"toplevel": "ghost", "nodes": [
        {"data": {"id": "1", "type": "be", "rate": 1}}]}"#;
    assert!(matches!(
        json_format::parse(unknown_toplevel),
        Err(Error::UnknownElement { .. })
    ));
    let duplicate_name = r#"{"toplevel": "2", "nodes": [
        {"data": {"id": "0", "name": "X", "type": "be", "rate": 1}},
        {"data": {"id": "1", "name": "X", "type": "be", "rate": 2}},
        {"data": {"id": "2", "name": "T", "type": "and", "children": ["0", "1"]}}]}"#;
    assert!(matches!(
        json_format::parse(duplicate_name),
        Err(Error::DuplicateName { .. })
    ));

    // "No repair" is spelled only as an exact 0 or a missing key; any other
    // repair rate meets the builder's check, as `repair=-1` does in Galileo.
    for repair in [r#""-1""#, "-2.5", r#""NaN""#] {
        let text = format!(
            r#"{{"toplevel": "1", "nodes": [
                {{"data": {{"id": "1", "type": "be", "rate": 1, "repair": {repair}}}}}]}}"#
        );
        match json_format::parse(&text) {
            Err(Error::InvalidParameter { .. }) => {}
            other => panic!("repair {repair}: expected Error::InvalidParameter, got {other:?}"),
        }
    }
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir("tests/fixtures/corpus")
        .expect("the committed corpus directory exists")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().is_some_and(|ext| ext == "dft")).then_some(path)
        })
        .collect();
    files.sort();
    assert!(files.len() >= 10, "corpus holds only {} trees", files.len());
    files
}

/// Satellite acceptance for the printer fixes: `to_galileo` → `parse` is the
/// identity (up to formatting) on every committed corpus tree, and printing
/// is idempotent.
#[test]
fn corpus_files_survive_print_and_reparse() {
    for path in corpus_files() {
        let name = path.display();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let dft = galileo::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = to_galileo(&dft);
        let reparsed = galileo::parse(&printed)
            .unwrap_or_else(|e| panic!("{name}: printed output invalid: {e}\n{printed}"));
        assert_same_tree(&dft, &reparsed);
        assert_eq!(
            to_galileo(&reparsed),
            printed,
            "{name}: printing is not idempotent"
        );
    }
}

/// The same corpus survives the JSON hop bit-identically.
#[test]
fn corpus_files_survive_the_json_hop() {
    for path in corpus_files() {
        let name = path.display();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let dft = galileo::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let json = json_format::to_json(&dft);
        let from_json = json_format::parse(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same_tree(&dft, &from_json);
        assert_eq!(dft.fingerprint(), from_json.fingerprint(), "{name}");
        assert_eq!(json_format::to_json(&from_json), json, "{name}");
    }
}
