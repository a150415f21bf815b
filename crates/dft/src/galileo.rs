//! The Galileo textual DFT format.
//!
//! The paper's tool chain "takes as input a DFT specified in the Galileo DFT
//! format" (Section 5.1).  This module parses and prints the line-oriented subset
//! used by the case studies:
//!
//! ```text
//! toplevel "System";
//! "System" or "CPU_unit" "Motor_unit" "Pump_unit";
//! "CPU_unit" wsp "P" "B";
//! "CPU_fdep" fdep "Trigger" "P" "B";
//! "Votes" 2of3 "V1" "V2" "V3";
//! "P" lambda=0.5 dorm=0.0;
//! "B" lambda=0.5 dorm=0.5;
//! ```
//!
//! * Quotation marks around names are optional; a trailing `;` per line is
//!   expected but tolerated if missing; `//` and `#` start comments.  Quotes
//!   bind tighter than comments and separators, so a quoted name may contain
//!   spaces, `;`, `#`, `//` and `=` — any name without `"` or a newline
//!   round-trips through [`to_galileo`] ∘ [`parse`] unchanged.
//! * Gate keywords: `and`, `or`, `pand`, `fdep`, `seq`, `inhibit`, `KofM` (voting),
//!   and the three spare flavours `csp`, `wsp`, `hsp` (all map to a spare gate —
//!   in a DFT the dormancy is a property of the spare's basic events, the keyword
//!   merely documents intent).
//! * Basic events take `lambda=<rate>` and optionally `dorm=<factor>` and
//!   `repair=<rate>` (our Section 7.2 extension).

// Decode file: malformed input is a typed error, never a panic (see README).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
#![deny(clippy::disallowed_macros, clippy::cast_possible_truncation)]
#![deny(clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use crate::element::{BasicEvent, Dormancy, Element, GateKind};
use crate::read::{self, Body, Definition};
use crate::tree::Dft;
use crate::{Error, Result};
use std::collections::HashMap;

/// One token of a Galileo statement: its text, with the quotes already
/// stripped, and whether it was quoted in the source.  Quoted tokens are
/// always names — never the `toplevel` keyword, a gate type or a `key=value`
/// attribute — which is what makes names like `"a and b"` unambiguous.
#[derive(Debug, Clone)]
struct Token {
    text: String,
    quoted: bool,
}

/// Splits one source line into statements (separated by unquoted `;`) of
/// whitespace-separated tokens.  Quotes are honoured *before* comments and
/// separators, so a quoted name may contain spaces, `;`, `#`, `//` and `=` —
/// this is what makes [`parse`] ∘ [`to_galileo`] the identity on every tree
/// whose names are printable (i.e. contain no `"` and no newline).  A quote
/// must open at the start of a token, the name inside must be non-empty, and
/// the closing quote must end the token; anything else (an unterminated
/// quote, `"T"x`, `x"T"`, `""`) is a syntax error, not a silently mangled
/// name.
fn tokenize(line: &str) -> std::result::Result<Vec<Vec<Token>>, String> {
    let starts_comment =
        |chars: &std::iter::Peekable<std::str::Chars<'_>>| chars.clone().nth(1) == Some('/');
    let mut statements = Vec::new();
    let mut current: Vec<Token> = Vec::new();
    let mut chars = line.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        if c == '#' || (c == '/' && starts_comment(&chars)) {
            break;
        }
        if c == ';' {
            chars.next();
            if !current.is_empty() {
                statements.push(std::mem::take(&mut current));
            }
            continue;
        }
        if c == '"' {
            chars.next();
            let mut name = String::new();
            loop {
                match chars.next() {
                    None => return Err(format!("unterminated quote in '\"{name}'")),
                    Some('"') => break,
                    Some(ch) => name.push(ch),
                }
            }
            if name.is_empty() {
                return Err("empty quoted name".to_owned());
            }
            if let Some(&next) = chars.peek() {
                if !next.is_whitespace() && next != ';' && next != '#' {
                    return Err(format!("stray quote inside '\"{name}\"{next}'"));
                }
            }
            current.push(Token {
                text: name,
                quoted: true,
            });
            continue;
        }
        let mut text = String::new();
        while let Some(&ch) = chars.peek() {
            if ch.is_whitespace() || ch == ';' || ch == '#' || (ch == '/' && starts_comment(&chars))
            {
                break;
            }
            if ch == '"' {
                return Err(format!("stray quote inside '{text}\"'"));
            }
            text.push(ch);
            chars.next();
        }
        current.push(Token {
            text,
            quoted: false,
        });
    }
    if !current.is_empty() {
        statements.push(current);
    }
    Ok(statements)
}

/// Parses a lowercase voting keyword `<K>of<M>` ("2of3", "3of5", …) into
/// `(k, m)`.  The caller checks `m` against the actual input count and `k`
/// against `m`.
fn parse_voting_keyword(keyword: &str) -> Option<(u32, u32)> {
    let (k, rest) = keyword.split_once("of")?;
    let k: u32 = k.parse().ok()?;
    let m: u32 = rest.parse().ok()?;
    Some((k, m))
}

/// Parses what follows the name `name` in its definition: `key=value`
/// attributes of a basic event, or a gate keyword and the gate's inputs.
fn definition(name: &str, rest: &[Token]) -> std::result::Result<Body, String> {
    let Some((keyword, gate_inputs)) = rest.split_first() else {
        return Err(format!("cannot parse '{name}'"));
    };
    if keyword.quoted {
        return Err(format!(
            "expected a gate type or key=value attributes after '{name}', got quoted name '{}'",
            keyword.text
        ));
    }
    if keyword.text.contains('=') {
        // Basic event: key=value pairs (attributes are never quoted).
        let (mut rate, mut dormancy, mut repair) = (None, 1.0, None);
        for pair in rest {
            let Some((key, value)) = (!pair.quoted)
                .then_some(pair.text.as_str())
                .and_then(|text| text.split_once('='))
            else {
                return Err(format!("expected key=value, got '{}'", pair.text));
            };
            let value: f64 = value
                .parse()
                .map_err(|_| format!("cannot parse number '{value}'"))?;
            match key.to_ascii_lowercase().as_str() {
                "lambda" | "rate" => rate = Some(value),
                "dorm" | "dormancy" => dormancy = value,
                "repair" | "mu" => repair = Some(value),
                other => return Err(format!("unknown basic-event attribute '{other}'")),
            }
        }
        return Ok(Body::BasicEvent(BasicEvent {
            rate: rate.ok_or_else(|| format!("basic event '{name}' needs lambda=<rate>"))?,
            dormancy: Dormancy::from_factor(dormancy),
            repair_rate: repair,
        }));
    }
    let inputs: Vec<String> = gate_inputs.iter().map(|t| t.text.clone()).collect();
    let keyword = keyword.text.to_ascii_lowercase();
    let kind = match (read::gate_kind(&keyword), parse_voting_keyword(&keyword)) {
        (Some(kind), _) => kind,
        (None, Some((k, m))) if usize::try_from(m) != Ok(inputs.len()) => {
            return Err(format!(
                "voting gate '{name}' says {k}of{m} but lists {} inputs",
                inputs.len()
            ))
        }
        (None, Some((k, m))) if k == 0 || k > m => {
            return Err(format!(
                "voting threshold {k}of{m} is out of range (need 1 <= k <= {m})"
            ))
        }
        (None, Some((k, _))) => GateKind::Voting { k },
        (None, None) => return Err(format!("unknown gate type '{keyword}'")),
    };
    if inputs.is_empty() {
        return Err(format!("gate '{name}' has no inputs"));
    }
    Ok(Body::Gate { kind, inputs })
}

/// Parses a Galileo DFT description.
///
/// # Errors
///
/// Returns [`Error::Parse`] with a line number for syntactic problems, and the
/// usual construction/validation errors for semantic ones (unknown elements,
/// invalid rates, cyclic definitions, arity violations).
pub fn parse(input: &str) -> Result<Dft> {
    let mut toplevel: Option<String> = None;
    let mut defs: Vec<Definition> = Vec::new();
    let mut by_name: HashMap<String, usize> = HashMap::new();

    for (idx, raw_line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let statements = tokenize(raw_line).map_err(|message| Error::Parse {
            line: line_no,
            message,
        })?;
        for tokens in statements {
            let Some((head, rest)) = tokens.split_first() else {
                continue;
            };
            if !head.quoted && head.text.eq_ignore_ascii_case("toplevel") {
                let [top_name] = rest else {
                    return Err(Error::Parse {
                        line: line_no,
                        message: "expected: toplevel \"<name>\";".to_owned(),
                    });
                };
                toplevel = Some(top_name.text.clone());
                continue;
            }
            if rest.is_empty() {
                return Err(Error::Parse {
                    line: line_no,
                    message: format!("cannot parse '{}'", head.text),
                });
            }
            let name = head.text.clone();
            if by_name.contains_key(&name) {
                return Err(Error::DuplicateName { name });
            }
            let body = definition(&name, rest).map_err(|message| Error::Parse {
                line: line_no,
                message,
            })?;
            by_name.insert(name.clone(), defs.len());
            defs.push(Definition { name, body });
        }
    }

    let toplevel = toplevel.ok_or(Error::Parse {
        line: 0,
        message: "missing 'toplevel' declaration".to_owned(),
    })?;

    read::build(&defs, &by_name, &toplevel)
}

/// Prints a DFT in Galileo syntax; [`parse`] ∘ [`to_galileo`] is the identity up to
/// formatting.
pub fn to_galileo(dft: &Dft) -> String {
    let mut out = String::new();
    out.push_str(&format!("toplevel \"{}\";\n", dft.name(dft.top())));
    for id in dft.elements() {
        let name = dft.name(id);
        match dft.element(id) {
            Element::Gate(gate) => {
                let keyword = match gate.kind {
                    GateKind::Spare => "wsp".to_owned(),
                    GateKind::Voting { k } => format!("{k}of{}", gate.inputs.len()),
                    kind => kind.name().to_owned(),
                };
                let inputs: Vec<String> = gate
                    .inputs
                    .iter()
                    .map(|&i| format!("\"{}\"", dft.name(i)))
                    .collect();
                out.push_str(&format!("\"{name}\" {keyword} {};\n", inputs.join(" ")));
            }
            Element::BasicEvent(be) => {
                let mut line = format!("\"{name}\" lambda={}", be.rate);
                line.push_str(&format!(" dorm={}", be.dormancy.factor()));
                if let Some(mu) = be.repair_rate {
                    line.push_str(&format!(" repair={mu}"));
                }
                out.push_str(&line);
                out.push_str(";\n");
            }
        }
    }
    out
}

#[cfg(test)]
#[expect(
    clippy::disallowed_macros,
    reason = "tests assert; the decode rules bind the non-test code"
)]
mod tests {
    use super::*;

    const CAS_LIKE: &str = r#"
        // A fragment in the style of the cardiac assist system.
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

    #[test]
    fn parses_a_cas_like_model() {
        let dft = parse(CAS_LIKE).unwrap();
        assert_eq!(dft.name(dft.top()), "System");
        assert_eq!(dft.num_basic_events(), 7);
        assert_eq!(dft.num_gates(), 7);
        assert_eq!(dft.spare_gates().len(), 3);
        assert_eq!(dft.fdep_gates().len(), 1);
        let b = dft.by_name("B").unwrap();
        let be = dft.element(b).as_basic_event().unwrap();
        assert_eq!(be.dormancy.factor(), 0.5);
        let ps = dft.by_name("PS").unwrap();
        assert_eq!(
            dft.element(ps).as_basic_event().unwrap().dormancy,
            Dormancy::Cold
        );
    }

    #[test]
    fn round_trips_through_printing() {
        let dft = parse(CAS_LIKE).unwrap();
        let printed = to_galileo(&dft);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(reparsed.num_elements(), dft.num_elements());
        assert_eq!(reparsed.num_gates(), dft.num_gates());
        assert_eq!(reparsed.name(reparsed.top()), dft.name(dft.top()));
        for id in dft.elements() {
            let name = dft.name(id);
            assert!(
                reparsed.by_name(name).is_some(),
                "{name} lost in round trip"
            );
        }
    }

    #[test]
    fn voting_gates_parse() {
        let text = r#"
            toplevel "T";
            "T" 2of3 "A" "B" "C";
            "A" lambda=1.0;
            "B" lambda=1.0;
            "C" lambda=1.0;
        "#;
        let dft = parse(text).unwrap();
        let top = dft.element(dft.top()).as_gate().unwrap();
        assert_eq!(top.kind, GateKind::Voting { k: 2 });
    }

    #[test]
    fn repairable_events_parse() {
        let text = r#"
            toplevel "T";
            "T" and "A" "B";
            "A" lambda=1.0 repair=5.0;
            "B" lambda=2.0 mu=3.0;
        "#;
        let dft = parse(text).unwrap();
        assert!(dft.is_repairable());
        let a = dft
            .element(dft.by_name("A").unwrap())
            .as_basic_event()
            .unwrap();
        assert_eq!(a.repair_rate, Some(5.0));
    }

    #[test]
    fn missing_toplevel_is_an_error() {
        let text = r#""T" and "A" "B"; "A" lambda=1.0; "B" lambda=1.0;"#;
        assert!(matches!(parse(text), Err(Error::Parse { .. })));
    }

    #[test]
    fn unknown_gate_type_is_an_error() {
        let text = r#"
            toplevel "T";
            "T" xor "A" "B";
            "A" lambda=1.0;
            "B" lambda=1.0;
        "#;
        match parse(text) {
            Err(Error::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_input_is_an_error() {
        let text = r#"
            toplevel "T";
            "T" and "A" "Ghost";
            "A" lambda=1.0;
        "#;
        assert!(matches!(parse(text), Err(Error::UnknownElement { .. })));
    }

    #[test]
    fn cyclic_definitions_are_detected() {
        let text = r#"
            toplevel "T";
            "T" and "U";
            "U" or "T";
        "#;
        assert!(matches!(parse(text), Err(Error::Cyclic { .. })));
    }

    #[test]
    fn duplicate_definitions_are_detected() {
        let text = r#"
            toplevel "T";
            "T" and "A" "B";
            "A" lambda=1.0;
            "A" lambda=2.0;
            "B" lambda=1.0;
        "#;
        assert!(matches!(parse(text), Err(Error::DuplicateName { .. })));
    }

    #[test]
    fn missing_lambda_is_an_error() {
        let text = r#"
            toplevel "T";
            "T" and "A" "B";
            "A" dorm=0.5;
            "B" lambda=1.0;
        "#;
        assert!(matches!(parse(text), Err(Error::Parse { .. })));
    }

    #[test]
    fn quoted_names_may_contain_separators() {
        // Spaces, comment markers, `=` and `;` inside quotes are part of the
        // name; print → parse is the identity on such trees.
        let text = "toplevel \"the system\";\n\
                    \"the system\" and \"a // b\" \"k=v; #x\";\n\
                    \"a // b\" lambda=1.0;\n\
                    \"k=v; #x\" lambda=2.0;\n";
        let dft = parse(text).unwrap();
        assert_eq!(dft.name(dft.top()), "the system");
        assert!(dft.by_name("a // b").is_some());
        assert!(dft.by_name("k=v; #x").is_some());
        let printed = to_galileo(&dft);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(to_galileo(&reparsed), printed);
        assert_eq!(reparsed.num_elements(), 3);
    }

    #[test]
    fn multiple_statements_per_line_parse() {
        let text = r#"toplevel "T"; "T" and "A" "B"; "A" lambda=1.0; "B" lambda=2.0;"#;
        let dft = parse(text).unwrap();
        assert_eq!(dft.num_elements(), 3);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = r#"
            # full line comment
            toplevel "T";

            "T" and "A" "B"; // trailing comment
            "A" lambda=1.0;
            "B" lambda=1.0;
        "#;
        let dft = parse(text).unwrap();
        assert_eq!(dft.num_elements(), 3);
    }
}
