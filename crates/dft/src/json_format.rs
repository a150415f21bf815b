//! JSON tree interchange, compatible with the dftlib/SAFEST schema.
//!
//! dftlib (and the SAFEST GUI built on it) exchanges DFTs as JSON documents of
//! the shape
//!
//! ```json
//! {
//!   "toplevel": "2",
//!   "nodes": [
//!     { "data": { "id": "0", "name": "A", "type": "be", "rate": "0.5",
//!                 "dorm": "1", "repair": "0" }, "group": "nodes" },
//!     { "data": { "id": "1", "name": "B", "type": "be", "rate": "0.5",
//!                 "dorm": "1" }, "group": "nodes" },
//!     { "data": { "id": "2", "name": "T", "type": "and",
//!                 "children": ["0", "1"] }, "group": "nodes" }
//!   ]
//! }
//! ```
//!
//! where ids and numeric attributes are carried as strings (dftlib does this so
//! rates can later become symbolic parameters).  [`encode`] produces exactly
//! this shape; [`decode`] additionally tolerates plain JSON numbers for
//! `rate`/`dorm`/`repair`/`voting`, numeric ids, a missing `dorm` (hot), and a
//! `repair` of exactly `0` (non-repairable, which is how dftlib spells "no
//! repair"; any other non-positive or non-finite repair rate is an
//! [`Error::InvalidParameter`], as in Galileo).
//! Unknown keys (`position`, `classes`, `parameters`, …) are ignored, so
//! documents exported by SAFEST load unchanged.
//!
//! Gate types are the dftlib names: `and`, `or`, `vot` (threshold in
//! `voting`), `pand`, `spare`, `fdep`, `seq`, plus our `inhibit` extension;
//! basic events are `be` (written) or `be_exp` (accepted).  FDEP and inhibit
//! gates list the trigger/condition as the first child, matching the Galileo
//! convention.
//!
//! This module parses untrusted bytes and is held to the workspace decode bar
//! (the lints denied below): total, typed-error, panic-free.
//! Round-tripping is exact: rates are rendered with Rust's shortest-round-trip
//! formatting and parsed back bit-identically.

// Decode file: malformed input is a typed error, never a panic (see README).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
#![deny(clippy::disallowed_macros, clippy::cast_possible_truncation)]
#![deny(clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use crate::element::{BasicEvent, Dormancy, Element, GateKind};
use crate::json::{self, Json};
use crate::read::{self, Body, Definition};
use crate::tree::Dft;
use crate::{Error, Result};
use std::collections::HashMap;

fn err(message: String) -> Error {
    Error::Json { message }
}

/// Encodes a DFT as a dftlib-schema JSON value.
///
/// Node ids are the element indices rendered as decimal strings; nodes appear
/// in element order, so `decode(encode(dft))` preserves ids, names, attributes
/// and input order exactly.
pub fn encode(dft: &Dft) -> Json {
    let nodes: Vec<Json> = dft
        .elements()
        .map(|id| {
            let name = dft.name(id);
            let mut data: Vec<(String, Json)> = vec![
                ("id".to_owned(), Json::Str(id.index().to_string())),
                ("name".to_owned(), Json::Str(name.to_owned())),
            ];
            match dft.element(id) {
                Element::BasicEvent(be) => {
                    data.push(("type".to_owned(), Json::Str("be".to_owned())));
                    data.push(("rate".to_owned(), Json::Str(format!("{}", be.rate))));
                    data.push((
                        "dorm".to_owned(),
                        Json::Str(format!("{}", be.dormancy.factor())),
                    ));
                    if let Some(mu) = be.repair_rate {
                        data.push(("repair".to_owned(), Json::Str(format!("{mu}"))));
                    }
                }
                Element::Gate(gate) => {
                    data.push(("type".to_owned(), Json::Str(gate.kind.name().to_owned())));
                    if let GateKind::Voting { k } = gate.kind {
                        data.push(("voting".to_owned(), Json::Str(k.to_string())));
                    }
                    let children: Vec<Json> = gate
                        .inputs
                        .iter()
                        .map(|input| Json::Str(input.index().to_string()))
                        .collect();
                    data.push(("children".to_owned(), Json::Arr(children)));
                }
            }
            Json::Obj(vec![
                ("data".to_owned(), Json::Obj(data)),
                ("group".to_owned(), Json::Str("nodes".to_owned())),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "toplevel".to_owned(),
            Json::Str(dft.top().index().to_string()),
        ),
        ("nodes".to_owned(), Json::Arr(nodes)),
    ])
}

/// Renders a DFT as a compact single-line dftlib-schema JSON document.
pub fn to_json(dft: &Dft) -> String {
    encode(dft).render()
}

/// Parses a dftlib-schema JSON document into a DFT.
///
/// # Errors
///
/// Returns [`Error::Json`] for syntactic and schema problems, and the usual
/// construction/validation errors ([`Error::DuplicateName`],
/// [`Error::Cyclic`], arity and wellformedness violations) for semantic ones.
pub fn parse(text: &str) -> Result<Dft> {
    let value = json::parse(text).map_err(err)?;
    decode(&value)
}

/// Reads an id field: dftlib writes strings, but plain integers are accepted.
fn id_string(value: &Json, what: &str) -> Result<String> {
    match value {
        Json::Str(s) if !s.is_empty() => Ok(s.clone()),
        Json::Num(n) => Ok(format!("{n}")),
        _ => Err(err(format!("{what} must be a string id"))),
    }
}

/// Reads a numeric attribute carried as either a JSON number or a string.
fn number(value: &Json, what: &str) -> Result<f64> {
    match value {
        Json::Num(n) => Ok(*n),
        Json::Str(s) => s
            .trim()
            .parse::<f64>()
            .map_err(|_| err(format!("{what}: cannot parse number '{s}'"))),
        _ => Err(err(format!("{what} must be a number or numeric string"))),
    }
}

/// Reads a voting threshold: a non-negative integer as number or string.
fn threshold(value: &Json, what: &str) -> Result<u32> {
    let text = match value {
        Json::Str(s) => s.trim().to_owned(),
        Json::Num(n) => format!("{n}"),
        _ => return Err(err(format!("{what} must be an integer"))),
    };
    text.parse::<u32>()
        .map_err(|_| err(format!("{what}: '{text}' is not a valid threshold")))
}

/// Decodes a parsed JSON value into a DFT (see the module docs for the schema).
///
/// # Errors
///
/// As for [`parse`].
pub fn decode(value: &Json) -> Result<Dft> {
    if !matches!(value, Json::Obj(_)) {
        return Err(err("document root must be an object".to_owned()));
    }
    let toplevel = value
        .get("toplevel")
        .ok_or_else(|| err("missing 'toplevel'".to_owned()))
        .and_then(|v| id_string(v, "'toplevel'"))?;
    let Some(Json::Arr(nodes)) = value.get("nodes") else {
        return Err(err("missing 'nodes' array".to_owned()));
    };

    // Pull out one definition per node, in document order.
    let mut defs: Vec<Definition> = Vec::new();
    let mut by_id: HashMap<String, usize> = HashMap::new();
    for (position, node) in nodes.iter().enumerate() {
        if !matches!(node, Json::Obj(_)) {
            return Err(err(format!("node #{position} must be an object")));
        }
        let Some(data @ Json::Obj(_)) = node.get("data") else {
            return Err(err(format!("node #{position} has no 'data' object")));
        };
        let id = data
            .get("id")
            .ok_or_else(|| err(format!("node #{position} has no 'id'")))
            .and_then(|v| id_string(v, "'id'"))?;
        let name = match data.get("name") {
            Some(Json::Str(s)) if !s.is_empty() => s.clone(),
            Some(_) => return Err(err(format!("node '{id}': 'name' must be a string"))),
            None => id.clone(),
        };
        let Some(Json::Str(type_name)) = data.get("type") else {
            return Err(err(format!("node '{id}': missing 'type'")));
        };
        let body = match type_name.as_str() {
            "be" | "be_exp" => {
                let rate = data
                    .get("rate")
                    .ok_or_else(|| err(format!("basic event '{id}': missing 'rate'")))
                    .and_then(|v| number(v, &format!("basic event '{id}' rate")))?;
                let dormancy = match data.get("dorm") {
                    Some(v) => number(v, &format!("basic event '{id}' dorm"))?,
                    None => 1.0,
                };
                // dftlib spells "no repair" as a repair rate of exactly 0;
                // every other value goes to the builder's check.
                let repair_rate = data
                    .get("repair")
                    .map(|v| number(v, &format!("basic event '{id}' repair")))
                    .transpose()?
                    .filter(|&mu| mu != 0.0);
                Body::BasicEvent(BasicEvent {
                    rate,
                    dormancy: Dormancy::from_factor(dormancy),
                    repair_rate,
                })
            }
            gate_type => {
                let kind = match gate_type {
                    "vot" => {
                        let k = data
                            .get("voting")
                            .ok_or_else(|| {
                                err(format!("voting gate '{id}': missing 'voting' threshold"))
                            })
                            .and_then(|v| threshold(v, &format!("voting gate '{id}'")))?;
                        GateKind::Voting { k }
                    }
                    other => read::gate_kind(other)
                        .ok_or_else(|| err(format!("node '{id}': unknown type '{other}'")))?,
                };
                let Some(Json::Arr(child_values)) = data.get("children") else {
                    return Err(err(format!("gate '{id}': missing 'children' array")));
                };
                let mut inputs = Vec::with_capacity(child_values.len());
                for child in child_values {
                    inputs.push(id_string(child, &format!("gate '{id}' child"))?);
                }
                if inputs.is_empty() {
                    return Err(err(format!("gate '{id}' has no children")));
                }
                Body::Gate { kind, inputs }
            }
        };
        if by_id.contains_key(&id) {
            return Err(err(format!("duplicate node id '{id}'")));
        }
        by_id.insert(id, defs.len());
        defs.push(Definition { name, body });
    }
    read::build(&defs, &by_id, &toplevel)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_macros,
    reason = "tests assert; the decode rules bind the non-test code"
)]
mod tests {
    use super::*;
    use crate::galileo;

    const CAS_LIKE: &str = r#"
        toplevel "System";
        "System" or "CPU_unit" "Pump_unit";
        "CPU_unit" wsp "P" "B";
        "CPU_fdep" fdep "Trigger" "P" "B";
        "Trigger" or "CS" "SS";
        "Pump_unit" and "Pump_A" "Pump_B";
        "Pump_A" csp "PA" "PS";
        "Pump_B" csp "PB" "PS";
        "CS" lambda=0.2;
        "SS" lambda=0.2;
        "P"  lambda=0.5;
        "B"  lambda=0.5 dorm=0.5;
        "PA" lambda=1.0;
        "PB" lambda=1.0;
        "PS" lambda=1.0 dorm=0.0;
    "#;

    fn assert_same_tree(a: &Dft, b: &Dft) {
        assert_eq!(a.num_elements(), b.num_elements());
        assert_eq!(a.name(a.top()), b.name(b.top()));
        for id in a.elements() {
            let name = a.name(id);
            let other = b.by_name(name).unwrap_or_else(|| panic!("{name} lost"));
            match (a.element(id), b.element(other)) {
                (Element::Gate(ga), Element::Gate(gb)) => {
                    assert_eq!(ga.kind, gb.kind, "{name} changed kind");
                    let ins_a: Vec<&str> = ga.inputs.iter().map(|&i| a.name(i)).collect();
                    let ins_b: Vec<&str> = gb.inputs.iter().map(|&i| b.name(i)).collect();
                    assert_eq!(ins_a, ins_b, "{name} changed inputs");
                }
                (Element::BasicEvent(ba), Element::BasicEvent(bb)) => {
                    assert_eq!(ba.rate, bb.rate, "{name} changed rate");
                    assert_eq!(ba.dormancy.factor(), bb.dormancy.factor());
                    assert_eq!(ba.repair_rate, bb.repair_rate, "{name} changed repair");
                }
                _ => panic!("{name} changed between gate and basic event"),
            }
        }
    }

    #[test]
    fn round_trips_a_galileo_tree() {
        let dft = galileo::parse(CAS_LIKE).unwrap();
        let reloaded = parse(&to_json(&dft)).unwrap();
        assert_same_tree(&dft, &reloaded);
        assert_eq!(dft.fingerprint(), reloaded.fingerprint());
        // Printing is idempotent after one round trip.
        assert_eq!(to_json(&reloaded), to_json(&dft));
    }

    #[test]
    fn round_trips_repairable_and_voting_trees() {
        let text = r#"
            toplevel "T";
            "T" 2of3 "A" "B" "C";
            "A" lambda=1.0 repair=5.0;
            "B" lambda=2.0 dorm=0.25;
            "C" lambda=0.5;
        "#;
        let dft = galileo::parse(text).unwrap();
        let reloaded = parse(&to_json(&dft)).unwrap();
        assert_same_tree(&dft, &reloaded);
    }

    #[test]
    fn accepts_dftlib_flavoured_documents() {
        // Numeric attributes, be_exp, repair: "0", ignored extra keys.
        let text = r#"{
            "toplevel": "2",
            "parameters": [],
            "nodes": [
                {"data": {"id": "0", "name": "A", "type": "be_exp",
                          "rate": 0.5, "dorm": "1", "repair": "0"},
                 "group": "nodes", "position": {"x": 10, "y": 20}},
                {"data": {"id": "1", "name": "B", "type": "be",
                          "rate": "2", "dorm": 0.5},
                 "group": "nodes"},
                {"data": {"id": "2", "name": "T", "type": "vot", "voting": 1,
                          "children": ["0", "1"]},
                 "group": "nodes"}
            ]
        }"#;
        let dft = parse(text).unwrap();
        assert_eq!(dft.name(dft.top()), "T");
        assert_eq!(dft.num_basic_events(), 2);
        let a = dft.element(dft.by_name("A").unwrap()).as_basic_event();
        assert_eq!(a.and_then(|be| be.repair_rate), None);
        let b = dft.element(dft.by_name("B").unwrap()).as_basic_event();
        assert_eq!(b.map(|be| be.dormancy.factor()), Some(0.5));
    }

    #[test]
    fn missing_name_falls_back_to_id() {
        let text = r#"{
            "toplevel": "g",
            "nodes": [
                {"data": {"id": "x", "type": "be", "rate": 1}, "group": "nodes"},
                {"data": {"id": "y", "type": "be", "rate": 1}, "group": "nodes"},
                {"data": {"id": "g", "type": "and", "children": ["x", "y"]},
                 "group": "nodes"}
            ]
        }"#;
        let dft = parse(text).unwrap();
        assert_eq!(dft.name(dft.top()), "g");
        assert!(dft.by_name("x").is_some());
    }

    #[test]
    fn typed_errors_for_schema_violations() {
        // Not an object.
        assert!(matches!(parse("[1,2]"), Err(Error::Json { .. })));
        // Missing toplevel.
        assert!(matches!(parse(r#"{"nodes": []}"#), Err(Error::Json { .. })));
        // Unknown child id.
        let unknown = r#"{
            "toplevel": "1",
            "nodes": [
                {"data": {"id": "1", "type": "and", "children": ["ghost"]},
                 "group": "nodes"}
            ]
        }"#;
        assert!(matches!(parse(unknown), Err(Error::UnknownElement { .. })));
        // Cyclic children.
        let cyclic = r#"{
            "toplevel": "1",
            "nodes": [
                {"data": {"id": "1", "type": "and", "children": ["2"]}, "group": "nodes"},
                {"data": {"id": "2", "type": "or", "children": ["1"]}, "group": "nodes"}
            ]
        }"#;
        assert!(matches!(parse(cyclic), Err(Error::Cyclic { .. })));
    }
}
