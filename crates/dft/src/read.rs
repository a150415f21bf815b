//! The tree build both readers share: [`galileo::parse`](crate::galileo::parse)
//! and [`json_format::decode`](crate::json_format::decode) turn their text
//! into [`Definition`]s and end in one call to [`build`].  Like the readers,
//! this module is held to the decode bar (the lints denied below): total,
//! typed-error, panic-free.

// Decode file: malformed input is a typed error, never a panic (see README).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
#![deny(clippy::disallowed_macros, clippy::cast_possible_truncation)]
#![deny(clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use crate::builder::DftBuilder;
use crate::element::{BasicEvent, ElementId, GateKind};
use crate::tree::Dft;
use crate::{Error, Result};
use std::collections::HashMap;

/// One element as a reader found it.  Its key, the Galileo name or the JSON
/// node id, is what gates name their inputs by; the reader's key map holds it.
#[derive(Debug)]
pub(crate) struct Definition {
    pub(crate) name: String,
    pub(crate) body: Body,
}

#[derive(Debug)]
pub(crate) enum Body {
    BasicEvent(BasicEvent),
    Gate { kind: GateKind, inputs: Vec<String> },
}

impl Definition {
    fn inputs(&self) -> &[String] {
        match &self.body {
            Body::Gate { inputs, .. } => inputs,
            Body::BasicEvent { .. } => &[],
        }
    }
}

/// The gate a keyword of both formats names: [`GateKind::name`] of any kind
/// but voting (spelled `2of3` in Galileo, `vot` in JSON), or a spare flavour.
pub(crate) fn gate_kind(keyword: &str) -> Option<GateKind> {
    use GateKind::*;
    if matches!(keyword, "csp" | "wsp" | "hsp") {
        return Some(Spare);
    }
    [And, Or, Pand, Spare, Fdep, Seq, Inhibit]
        .into_iter()
        .find(|kind| kind.name() == keyword)
}

#[derive(Debug, Clone, Copy)]
enum Mark {
    New,
    /// Its inputs are being built.
    Open,
    Built(ElementId),
}

/// Builds every definition, side FDEP gates the top does not reach included,
/// and returns the tree topped by the `top` key.  `by_key` maps each key to
/// its definition's index in `defs`.
///
/// Definitions are taken in document order and each is added after its
/// inputs, left to right, so element ids follow from the document alone.  The
/// walk keeps its own stack: a tree's depth is bounded by memory, not by the
/// thread's stack.
///
/// # Errors
///
/// [`Error::UnknownElement`] for an input or top key without a definition,
/// [`Error::Cyclic`] for a definition among its own inputs, or the builder's
/// error.
pub(crate) fn build(
    defs: &[Definition],
    by_key: &HashMap<String, usize>,
    top: &str,
) -> Result<Dft> {
    let unknown = |key: &str| Error::UnknownElement {
        name: key.to_owned(),
    };
    let mut builder = DftBuilder::new();
    let mut marks = vec![Mark::New; defs.len()];
    // The open definitions, innermost last, with the inputs each has left,
    // and the ids of the inputs they have built so far.
    let mut open = Vec::new();
    let mut resolved: Vec<ElementId> = Vec::new();
    for (start, def) in defs.iter().enumerate() {
        if let Some(mark @ Mark::New) = marks.get_mut(start) {
            *mark = Mark::Open;
            open.push((start, def, def.inputs().iter()));
        }
        while let Some((index, def, pending)) = open.last_mut() {
            if let Some(key) = pending.next() {
                let input = by_key
                    .get(key)
                    .and_then(|&i| Some((i, defs.get(i)?, marks.get_mut(i)?)));
                match input.ok_or_else(|| unknown(key))? {
                    (_, _, Mark::Built(id)) => resolved.push(*id),
                    (i, input, mark @ Mark::New) => {
                        *mark = Mark::Open;
                        open.push((i, input, input.inputs().iter()));
                    }
                    (_, _, Mark::Open) => return Err(Error::Cyclic { name: key.clone() }),
                }
                continue;
            }
            let (index, def) = (*index, *def);
            open.pop();
            let id = match &def.body {
                Body::BasicEvent(be) => {
                    builder.basic_event_full(&def.name, be.rate, be.dormancy, be.repair_rate)?
                }
                Body::Gate { kind, inputs } => {
                    let ids = resolved.split_off(resolved.len().saturating_sub(inputs.len()));
                    builder.gate(&def.name, *kind, &ids)?
                }
            };
            if let Some(mark) = marks.get_mut(index) {
                *mark = Mark::Built(id);
            }
            resolved.push(id);
        }
        resolved.clear();
    }
    match by_key.get(top).and_then(|&i| marks.get(i)) {
        Some(Mark::Built(id)) => builder.build(*id),
        _ => Err(unknown(top)),
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_macros,
    reason = "tests assert; the decode rules bind the non-test code"
)]
mod tests {
    use crate::{galileo, json_format, Error};

    /// Runs `f` on a thread with a 2 MiB stack, the default for spawned
    /// threads, where a recursive build of a deep tree used to overflow.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("spawn a test thread")
            .join()
            .expect("the test thread finishes");
    }

    /// A chain of `depth` one-input OR gates over one basic event, in Galileo.
    fn galileo_chain(depth: usize) -> String {
        let mut text = String::from("toplevel \"G0\";\n");
        for i in 0..depth {
            text.push_str(&format!("\"G{i}\" or \"G{}\";\n", i + 1));
        }
        text.push_str(&format!("\"G{depth}\" lambda=1;\n"));
        text
    }

    /// The same chain as a dftlib JSON document, top node first.
    fn json_chain(depth: usize) -> String {
        let mut nodes: Vec<String> = (0..depth)
            .map(|i| {
                format!(
                    r#"{{"data":{{"id":"{i}","type":"or","children":["{}"]}}}}"#,
                    i + 1
                )
            })
            .collect();
        nodes.push(format!(
            r#"{{"data":{{"id":"{depth}","type":"be","rate":"1"}}}}"#
        ));
        format!(r#"{{"toplevel":"0","nodes":[{}]}}"#, nodes.join(","))
    }

    #[test]
    fn deep_galileo_chains_parse_on_a_small_stack() {
        on_small_stack(|| {
            let dft = galileo::parse(&galileo_chain(100_000)).unwrap();
            assert_eq!(dft.num_elements(), 100_001);
            assert_eq!(dft.name(dft.top()), "G0");
        });
    }

    #[test]
    fn deep_json_chains_parse_on_a_small_stack() {
        on_small_stack(|| {
            let dft = json_format::parse(&json_chain(20_000)).unwrap();
            assert_eq!(dft.num_elements(), 20_001);
            assert_eq!(dft.name(dft.top()), "0");
        });
    }

    #[test]
    fn both_formats_report_cycles_and_unknown_inputs_alike() {
        let cycle = "toplevel \"A\";\n\"A\" or \"B\";\n\"B\" or \"C\";\n\"C\" and \"A\";\n";
        let unknown = "toplevel \"A\";\n\"A\" or \"B\" \"Ghost\";\n\"B\" lambda=1;\n";
        let cycle_json = r#"{"toplevel": "A", "nodes": [
            {"data": {"id": "A", "type": "or", "children": ["B"]}},
            {"data": {"id": "B", "type": "or", "children": ["C"]}},
            {"data": {"id": "C", "type": "and", "children": ["A"]}}]}"#;
        let unknown_json = r#"{"toplevel": "A", "nodes": [
            {"data": {"id": "A", "type": "or", "children": ["B", "Ghost"]}},
            {"data": {"id": "B", "type": "be", "rate": 1}}]}"#;
        for result in [galileo::parse(cycle), json_format::parse(cycle_json)] {
            assert_eq!(
                result.unwrap_err(),
                Error::Cyclic {
                    name: "A".to_owned()
                }
            );
        }
        for result in [galileo::parse(unknown), json_format::parse(unknown_json)] {
            assert_eq!(
                result.unwrap_err(),
                Error::UnknownElement {
                    name: "Ghost".to_owned()
                }
            );
        }
    }
}
