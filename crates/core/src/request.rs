//! Surface-agnostic analysis requests: one description of *tree + method/ε +
//! measures + optional sweep*, shared by every front end.
//!
//! An [`AnalysisRequest`] is the one description of work every surface
//! shares: any surface — JSON body, command line, Rust code — produces one,
//! and [`AnalysisService::submit_request`] /
//! [`run_request`](crate::service::AnalysisService::run_request) is the
//! single entry point that executes it (as a plain job, or as a sweep when a
//! [`SweepSpec`] is attached).
//!
//! [`AnalysisService::submit_request`]: crate::service::AnalysisService::submit_request
//!
//! Two textual grammars feed it:
//!
//! * **JSON request documents** ([`AnalysisRequest::from_json`]) — the HTTP
//!   body schema: `{"galileo": …}` or `{"tree": …}` (dftlib interchange, see
//!   [`dft::json_format`]), optional `"method"`/`"epsilon"`, a `"measures"`
//!   array (or a `"queries"` array of query lines), and an optional
//!   `"sweep"` object.
//! * **Query lines** ([`QuerySpec::parse`]) — the CLI grammar, one query per
//!   line:
//!
//!   ```text
//!   unreliability <time>
//!   curve <time> <time> ...
//!   unavailability
//!   mttf
//!   sweep lambda(<element>) in <start>..<end> step <step>
//!   sweep mu(<element>) in <start>..<end> step <step>
//!   sweep scale in <start>..<end> step <step>
//!   ```
//!
//!   `lambda(P)` sweeps the failure rate of basic event `P`, `mu(P)` its
//!   repair rate, and `scale` scales *every* failure rate by the running
//!   value.  Ranges are inclusive: `0.5..2.0 step 0.1` expands to 16 points
//!   `0.5, 0.6, …, 2.0` (each computed as `start + i·step`, so the expansion
//!   is deterministic and bit-stable).  At most one sweep per request.
//!
//! This module parses untrusted text and is held to the workspace decode bar
//! (the lints denied below): total, typed [`RequestError`]s, no panics.  Every client-controlled dimension is capped ([`MAX_MEASURES`],
//! [`MAX_CURVE_POINTS`], [`MAX_SWEEP_VALUES`]) before any expensive work can
//! be enqueued.

// Decode file: malformed input is a typed error, never a panic (see README).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
#![deny(clippy::disallowed_macros, clippy::cast_possible_truncation)]
#![deny(clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use crate::analysis::{AnalysisOptions, Method};
use crate::parametric::{ParamKind, ParamTable, Valuation};
use crate::query::Measure;
use crate::{Error, Result};
use dft::json::Json;
use dft::Dft;
use std::fmt;

/// Most measures a single request may carry.
pub const MAX_MEASURES: usize = 64;
/// Most time points one curve measure may carry.
pub const MAX_CURVE_POINTS: usize = 4096;
/// Most values one sweep may expand to.
pub const MAX_SWEEP_VALUES: usize = 4096;

/// A typed request-construction failure.
///
/// Every variant is a *client* error: the request was malformed or too large.
/// Analysis failures (unsupported models, numerical errors) are reported per
/// job in the reports instead, they never surface here.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// A JSON request document is missing a field or carries the wrong type.
    Schema {
        /// Description of the violated schema rule.
        message: String,
    },
    /// The tree failed to parse or validate (Galileo or JSON interchange).
    Tree {
        /// The underlying parse/validation error, rendered.
        message: String,
    },
    /// A query line could not be parsed.
    Query {
        /// The offending line, verbatim.
        input: String,
        /// Description of the problem.
        message: String,
    },
    /// A client-controlled dimension exceeds its cap.
    TooLarge {
        /// What was oversized ("measures", "curve times", "sweep values").
        what: &'static str,
        /// The requested size.
        have: usize,
        /// The cap that was exceeded.
        cap: usize,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Schema { message } => write!(f, "{message}"),
            RequestError::Tree { message } => write!(f, "{message}"),
            RequestError::Query { input, message } => {
                write!(f, "cannot parse query '{input}': {message}")
            }
            RequestError::TooLarge { what, have, cap } => {
                write!(f, "{have} {what} requested; the limit is {cap}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

fn schema(message: impl Into<String>) -> RequestError {
    RequestError::Schema {
        message: message.into(),
    }
}

/// A parseable analysis-method name: the textual face of [`Method`], shared
/// by the `method` JSON field and the CLI `--method` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodSpec(pub Method);

impl MethodSpec {
    /// The canonical lower-case name ([`parse`](str::parse) accepts exactly
    /// these).
    pub fn name(self) -> &'static str {
        match self.0 {
            Method::Compositional => "compositional",
            Method::Monolithic => "monolithic",
            Method::Hybrid => "hybrid",
        }
    }
}

impl fmt::Display for MethodSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl std::str::FromStr for MethodSpec {
    type Err = RequestError;

    fn from_str(s: &str) -> std::result::Result<MethodSpec, RequestError> {
        match s {
            "compositional" => Ok(MethodSpec(Method::Compositional)),
            "monolithic" => Ok(MethodSpec(Method::Monolithic)),
            "hybrid" => Ok(MethodSpec(Method::Hybrid)),
            _ => Err(schema(
                "field 'method' must be \"compositional\", \"monolithic\" or \"hybrid\"",
            )),
        }
    }
}

/// A symbolic description of the valuations a sweep should evaluate.
///
/// Concrete [`Valuation`]s force the *submitter* to know the parametric
/// model's slot layout — and the slot layout only exists once the model is
/// built.  The symbolic forms defer that: they are resolved against the
/// shared model's [`ParamTable`] by the sweep's head task, *after* the model is built (or
/// loaded from the store) on the worker pool.  A front end that receives
/// "sweep P's failure rate over these values" off the wire can thus enqueue
/// the sweep without ever touching the model on its own threads.
#[derive(Debug, Clone)]
pub enum SweepSpec {
    /// Explicit, pre-built valuations (typically from [`ParamTable`]
    /// constructors).
    Valuations(Vec<Valuation>),
    /// One point per factor: the base valuation with every *failure* rate
    /// scaled by the factor (repair rates keep their base value); see
    /// [`ParamTable::scaled_valuation`].
    FailureScales(Vec<f64>),
    /// One point per value: the base valuation with the named basic event's
    /// rate of the given kind replaced by the value.
    Element {
        /// Name of the basic event whose rate is swept.
        element: String,
        /// Which of the event's rates is swept.
        kind: ParamKind,
        /// The values the rate sweeps over.
        values: Vec<f64>,
    },
}

impl SweepSpec {
    /// Number of sweep points the spec expands to.  Known *without* the
    /// model: every form fixes its point count at submission time, so a
    /// request over [`MAX_SWEEP_VALUES`] points is refused before anything is
    /// built, an empty sweep is a ready no-op, and a sweep whose model fails
    /// to build or resolve still reports one failed point per value.
    pub fn len(&self) -> usize {
        match self {
            SweepSpec::Valuations(v) => v.len(),
            SweepSpec::FailureScales(scales) => scales.len(),
            SweepSpec::Element { values, .. } => values.len(),
        }
    }

    /// True when the spec expands to zero points (the sweep is a no-op).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves the spec into concrete valuations against a parametric
    /// model's slot table.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidValuation`] when [`SweepSpec::Element`] names an
    /// element/kind pair the table has no slot for.
    pub fn resolve(&self, table: &ParamTable) -> Result<Vec<Valuation>> {
        match self {
            SweepSpec::Valuations(valuations) => Ok(valuations.clone()),
            SweepSpec::FailureScales(scales) => Ok(scales
                .iter()
                .map(|&scale| table.scaled_valuation(scale))
                .collect()),
            SweepSpec::Element {
                element,
                kind,
                values,
            } => {
                let slot =
                    table
                        .slot_of(element, *kind)
                        .ok_or_else(|| Error::InvalidValuation {
                            message: format!(
                                "the parametric model has no {kind} parameter \
                             for element '{element}'"
                            ),
                        })?;
                Ok(values
                    .iter()
                    .map(|&value| {
                        let mut valuation = table.base_valuation();
                        valuation.set(slot, value);
                        valuation
                    })
                    .collect())
            }
        }
    }
}

/// One parsed query line: either a measure or a sweep (see the
/// [module docs](self) for the grammar).
#[derive(Debug, Clone)]
pub enum QuerySpec {
    /// A measure to evaluate against the tree as given.
    Measure(Measure),
    /// A rate sweep; a request carries at most one.
    Sweep(SweepSpec),
}

impl QuerySpec {
    /// Parses one query line.
    ///
    /// # Errors
    ///
    /// [`RequestError::Query`] for grammar violations,
    /// [`RequestError::TooLarge`] when a curve or sweep exceeds its cap.
    pub fn parse(line: &str) -> std::result::Result<QuerySpec, RequestError> {
        let bad = |message: String| RequestError::Query {
            input: line.to_owned(),
            message,
        };
        let trimmed = line.trim();
        let mut tokens = trimmed.split_whitespace();
        let Some(keyword) = tokens.next() else {
            return Err(bad("empty query".to_owned()));
        };
        match keyword {
            "unreliability" => {
                let time = parse_number(tokens.next(), "mission time").map_err(&bad)?;
                if tokens.next().is_some() {
                    return Err(bad("expected: unreliability <time>".to_owned()));
                }
                Ok(QuerySpec::Measure(Measure::Unreliability(time)))
            }
            "curve" => {
                let mut times = Vec::new();
                for token in tokens {
                    times.push(parse_number(Some(token), "mission time").map_err(&bad)?);
                    if times.len() > MAX_CURVE_POINTS {
                        return Err(RequestError::TooLarge {
                            what: "curve times",
                            have: trimmed.split_whitespace().count().saturating_sub(1),
                            cap: MAX_CURVE_POINTS,
                        });
                    }
                }
                if times.is_empty() {
                    return Err(bad("expected: curve <time> <time> ...".to_owned()));
                }
                Ok(QuerySpec::Measure(Measure::UnreliabilityCurve(times)))
            }
            "unavailability" | "mttf" => {
                if tokens.next().is_some() {
                    return Err(bad(format!("'{keyword}' takes no arguments")));
                }
                Ok(QuerySpec::Measure(match keyword {
                    "unavailability" => Measure::Unavailability,
                    _ => Measure::Mttf,
                }))
            }
            "sweep" => {
                let rest = trimmed.strip_prefix("sweep").unwrap_or("").trim_start();
                Ok(QuerySpec::Sweep(parse_sweep(rest).map_err(&bad)?))
            }
            other => Err(bad(format!(
                "unknown query '{other}' (expected unreliability, curve, \
                 unavailability, mttf or sweep)"
            ))),
        }
    }
}

fn parse_number(token: Option<&str>, what: &str) -> std::result::Result<f64, String> {
    let token = token.ok_or_else(|| format!("missing {what}"))?;
    token
        .parse::<f64>()
        .map_err(|_| format!("cannot parse {what} '{token}'"))
}

/// Parses the part of a sweep query after the `sweep` keyword:
/// `lambda(<element>) | mu(<element>) | scale`, then
/// `in <start>..<end> step <step>`.
fn parse_sweep(rest: &str) -> std::result::Result<SweepSpec, String> {
    const USAGE: &str =
        "expected: sweep lambda(<element>)|mu(<element>)|scale in <start>..<end> step <step>";
    let (target, tail) = if let Some(tail) = rest.strip_prefix("scale") {
        (None, tail)
    } else {
        let (kind, after) = if let Some(after) = rest.strip_prefix("lambda(") {
            (ParamKind::Failure, after)
        } else if let Some(after) = rest.strip_prefix("mu(") {
            (ParamKind::Repair, after)
        } else {
            return Err(USAGE.to_owned());
        };
        // The element name is everything up to the *last* ')': names may
        // contain parentheses, while the range tail never does.
        let close = after
            .rfind(')')
            .ok_or_else(|| format!("missing ')' after the element name; {USAGE}"))?;
        let element = after.get(..close).unwrap_or("");
        let tail = after.get(close + 1..).unwrap_or("");
        if element.is_empty() {
            return Err(format!("empty element name; {USAGE}"));
        }
        (Some((element.to_owned(), kind)), tail)
    };

    let mut tokens = tail.split_whitespace();
    if tokens.next() != Some("in") {
        return Err(USAGE.to_owned());
    }
    let range = tokens.next().ok_or_else(|| USAGE.to_owned())?;
    let (start, end) = range
        .split_once("..")
        .ok_or_else(|| format!("range '{range}' must look like <start>..<end>"))?;
    let start: f64 = start
        .parse()
        .map_err(|_| format!("cannot parse range start '{start}'"))?;
    let end: f64 = end
        .parse()
        .map_err(|_| format!("cannot parse range end '{end}'"))?;
    if tokens.next() != Some("step") {
        return Err(USAGE.to_owned());
    }
    let step = parse_number(tokens.next(), "step")?;
    if tokens.next().is_some() {
        return Err(USAGE.to_owned());
    }
    if !start.is_finite() || !end.is_finite() || !step.is_finite() {
        return Err("range bounds and step must be finite".to_owned());
    }
    if step <= 0.0 {
        return Err(format!("step must be positive, got {step}"));
    }
    if end < start {
        return Err(format!("range end {end} lies before start {start}"));
    }

    // Inclusive expansion as `start + i·step`: deterministic, bit-stable,
    // and tolerant of the usual binary representation error at the end point
    // (one part in 10⁹ of a step).
    let mut values = Vec::new();
    let tolerance = step * 1e-9;
    let mut i: u32 = 0;
    loop {
        let value = f64::from(i).mul_add(step, start);
        if value > end + tolerance {
            break;
        }
        values.push(value);
        if values.len() > MAX_SWEEP_VALUES {
            return Err(format!(
                "the range expands to more than {MAX_SWEEP_VALUES} values"
            ));
        }
        i += 1;
    }
    Ok(match target {
        None => SweepSpec::FailureScales(values),
        Some((element, kind)) => SweepSpec::Element {
            element,
            kind,
            values,
        },
    })
}

/// A complete, surface-agnostic description of one analysis: the tree, the
/// method and precision, the measures, and an optional sweep.
///
/// Built from a JSON document ([`from_json`](Self::from_json)), from query
/// lines ([`add_query`](Self::add_query)), or assembled directly; executed by
/// [`AnalysisService::run_request`](crate::service::AnalysisService::run_request).
#[derive(Debug, Clone)]
pub struct AnalysisRequest {
    /// The tree to analyze.
    pub dft: Dft,
    /// Method and truncation error; part of the service's cache key.
    pub options: AnalysisOptions,
    /// The measures to evaluate (per valuation, when a sweep is attached).
    pub measures: Vec<Measure>,
    /// When present, the request is a rate sweep over these valuations.
    pub sweep: Option<SweepSpec>,
}

impl AnalysisRequest {
    /// A request over `dft` with default options and no measures yet.
    pub fn new(dft: Dft) -> AnalysisRequest {
        AnalysisRequest {
            dft,
            options: AnalysisOptions::default(),
            measures: Vec::new(),
            sweep: None,
        }
    }

    /// Adds one parsed query line (see the [module docs](self) for the
    /// grammar): measures accumulate, a sweep attaches to the request.
    ///
    /// # Errors
    ///
    /// [`RequestError::Query`] for grammar violations, and typed errors when
    /// the request grows beyond [`MAX_MEASURES`] or a second sweep arrives.
    pub fn add_query(&mut self, line: &str) -> std::result::Result<(), RequestError> {
        match QuerySpec::parse(line)? {
            QuerySpec::Measure(measure) => {
                self.measures.push(measure);
                if self.measures.len() > MAX_MEASURES {
                    return Err(RequestError::TooLarge {
                        what: "measures",
                        have: self.measures.len(),
                        cap: MAX_MEASURES,
                    });
                }
                Ok(())
            }
            QuerySpec::Sweep(spec) => {
                if self.sweep.is_some() {
                    return Err(RequestError::Query {
                        input: line.to_owned(),
                        message: "a request carries at most one sweep".to_owned(),
                    });
                }
                if spec.len() > MAX_SWEEP_VALUES {
                    return Err(RequestError::TooLarge {
                        what: "sweep values",
                        have: spec.len(),
                        cap: MAX_SWEEP_VALUES,
                    });
                }
                self.sweep = Some(spec);
                Ok(())
            }
        }
    }

    /// Parses a JSON request document (the HTTP body schema; see the
    /// [module docs](self)): a tree in `"galileo"` (Galileo text) or
    /// `"tree"` (dftlib interchange object), optional `"method"` and
    /// `"epsilon"`, measures in `"measures"` (objects) and/or `"queries"`
    /// (query lines), and an optional `"sweep"` object.
    ///
    /// # Errors
    ///
    /// A typed [`RequestError`] naming the first violated rule; caps are
    /// enforced before any expensive work.
    pub fn from_json(doc: &Json) -> std::result::Result<AnalysisRequest, RequestError> {
        let dft = match (doc.get("galileo"), doc.get("tree")) {
            (Some(Json::Str(text)), _) => {
                dft::galileo::parse(text).map_err(|e| RequestError::Tree {
                    message: format!("invalid Galileo tree: {e}"),
                })?
            }
            (Some(_), _) => {
                return Err(schema("field 'galileo' must be a string in Galileo syntax"))
            }
            (None, Some(tree)) => {
                dft::json_format::decode(tree).map_err(|e| RequestError::Tree {
                    message: format!("invalid JSON tree: {e}"),
                })?
            }
            (None, None) => {
                return Err(schema(
                    "missing string field 'galileo' (the tree in Galileo syntax) \
                     or object field 'tree' (dftlib JSON interchange)",
                ))
            }
        };

        let mut request = AnalysisRequest::new(dft);
        match doc.get("method") {
            None => {}
            Some(Json::Str(s)) => request.options.method = s.parse::<MethodSpec>()?.0,
            Some(_) => {
                return Err(schema(
                    "field 'method' must be \"compositional\", \"monolithic\" or \"hybrid\"",
                ))
            }
        }
        match doc.get("epsilon") {
            None => {}
            Some(Json::Num(e)) if *e > 0.0 && *e < 1.0 => request.options.epsilon = *e,
            Some(_) => {
                return Err(schema(
                    "field 'epsilon' must be a number strictly between 0 and 1",
                ))
            }
        }

        let measures = doc.get("measures");
        let queries = doc.get("queries");
        if measures.is_none() && queries.is_none() {
            return Err(schema("missing array field 'measures'"));
        }
        if let Some(value) = measures {
            let Json::Arr(items) = value else {
                return Err(schema("field 'measures' must be an array"));
            };
            if items.len() > MAX_MEASURES {
                return Err(RequestError::TooLarge {
                    what: "measures",
                    have: items.len(),
                    cap: MAX_MEASURES,
                });
            }
            for item in items {
                request.measures.push(parse_measure(item)?);
            }
            if request.measures.len() > MAX_MEASURES {
                return Err(RequestError::TooLarge {
                    what: "measures",
                    have: request.measures.len(),
                    cap: MAX_MEASURES,
                });
            }
        }
        if let Some(value) = queries {
            let Json::Arr(items) = value else {
                return Err(schema("field 'queries' must be an array of query strings"));
            };
            for item in items {
                let Json::Str(line) = item else {
                    return Err(schema("field 'queries' must contain only strings"));
                };
                request.add_query(line)?;
            }
        }

        if let Some(spec) = doc.get("sweep") {
            if request.sweep.is_some() {
                return Err(schema(
                    "the request carries both a 'sweep' object and a sweep query",
                ));
            }
            request.sweep = Some(parse_sweep_object(spec)?);
        }
        Ok(request)
    }
}

/// A numeric array field, with a cap enforced before collection.
fn num_array(
    doc: &Json,
    key: &str,
    what: &'static str,
    cap: usize,
) -> std::result::Result<Option<Vec<f64>>, RequestError> {
    let Some(value) = doc.get(key) else {
        return Ok(None);
    };
    let Json::Arr(items) = value else {
        return Err(schema(format!("field '{key}' must be an array of numbers")));
    };
    if items.len() > cap {
        return Err(RequestError::TooLarge {
            what,
            have: items.len(),
            cap,
        });
    }
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Json::Num(n) => out.push(*n),
            _ => return Err(schema(format!("field '{key}' must contain only numbers"))),
        }
    }
    Ok(Some(out))
}

/// One measure object: `{"type": "unreliability", "time": …}`,
/// `{"type": "curve", "times": […]}`, `{"type": "unavailability"}` or
/// `{"type": "mttf"}`.
fn parse_measure(doc: &Json) -> std::result::Result<Measure, RequestError> {
    let Some(Json::Str(kind)) = doc.get("type") else {
        return Err(schema("every measure needs a string field 'type'"));
    };
    match kind.as_str() {
        "unreliability" => {
            let Some(Json::Num(time)) = doc.get("time") else {
                return Err(schema("measure 'unreliability' needs a numeric 'time'"));
            };
            Ok(Measure::Unreliability(*time))
        }
        "curve" => {
            let times = num_array(doc, "times", "curve times", MAX_CURVE_POINTS)?
                .ok_or_else(|| schema("measure 'curve' needs a numeric array 'times'"))?;
            Ok(Measure::UnreliabilityCurve(times))
        }
        "unavailability" => Ok(Measure::Unavailability),
        "mttf" => Ok(Measure::Mttf),
        other => Err(schema(format!(
            "unknown measure type '{other}' (expected unreliability, curve, unavailability or mttf)"
        ))),
    }
}

/// The `"sweep"` object: `{"scales": […]}`, `{"element": …, "kind":
/// "failure"|"repair", "values": […]}`, or `{"query": "sweep …"}` (the CLI
/// grammar embedded in JSON).
fn parse_sweep_object(spec: &Json) -> std::result::Result<SweepSpec, RequestError> {
    if let Some(scales) = num_array(spec, "scales", "sweep values", MAX_SWEEP_VALUES)? {
        return Ok(SweepSpec::FailureScales(scales));
    }
    if let Some(Json::Str(element)) = spec.get("element") {
        // A missing kind means failure rates.
        let kind = match spec.get("kind") {
            None => ParamKind::Failure,
            Some(Json::Str(kind)) if kind == "failure" => ParamKind::Failure,
            Some(Json::Str(kind)) if kind == "repair" => ParamKind::Repair,
            Some(Json::Str(other)) => {
                return Err(schema(format!(
                    "unknown sweep kind '{other}' (expected \"failure\" or \"repair\")"
                )))
            }
            Some(other) => {
                return Err(schema(format!(
                    "field 'sweep'.'kind' must be a string, not {}",
                    other.render()
                )))
            }
        };
        let values = num_array(spec, "values", "sweep values", MAX_SWEEP_VALUES)?
            .ok_or_else(|| schema("an element sweep needs a numeric array 'values'"))?;
        return Ok(SweepSpec::Element {
            element: element.clone(),
            kind,
            values,
        });
    }
    if let Some(Json::Str(line)) = spec.get("query") {
        return match QuerySpec::parse(line)? {
            QuerySpec::Sweep(spec) => Ok(spec),
            QuerySpec::Measure(_) => Err(schema(
                "field 'sweep'.'query' must be a sweep query, not a measure",
            )),
        };
    }
    Err(schema(
        "field 'sweep' must carry either 'scales' or 'element' + 'values'",
    ))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_macros,
    reason = "tests assert; the decode rules bind the non-test code"
)]
mod tests {
    use super::*;

    const TREE: &str = "toplevel \"Top\";\n\"Top\" and \"A\" \"B\";\n\"A\" lambda=1.0 dorm=0.0;\n\"B\" lambda=2.0 dorm=0.0;\n";

    #[test]
    fn query_lines_parse_into_measures() {
        match QuerySpec::parse("unreliability 1.5") {
            Ok(QuerySpec::Measure(Measure::Unreliability(t))) => assert_eq!(t, 1.5),
            other => panic!("{other:?}"),
        }
        match QuerySpec::parse("  curve 0.5 1.0 2.0 ") {
            Ok(QuerySpec::Measure(Measure::UnreliabilityCurve(times))) => {
                assert_eq!(times, vec![0.5, 1.0, 2.0]);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            QuerySpec::parse("unavailability"),
            Ok(QuerySpec::Measure(Measure::Unavailability))
        ));
        assert!(matches!(
            QuerySpec::parse("mttf"),
            Ok(QuerySpec::Measure(Measure::Mttf))
        ));
    }

    #[test]
    fn sweep_grammar_expands_inclusive_ranges() {
        let spec = match QuerySpec::parse("sweep lambda(P) in 0.5..2.0 step 0.1") {
            Ok(QuerySpec::Sweep(spec)) => spec,
            other => panic!("{other:?}"),
        };
        let SweepSpec::Element {
            element,
            kind,
            values,
        } = &spec
        else {
            panic!("{spec:?}");
        };
        assert_eq!(element, "P");
        assert_eq!(*kind, ParamKind::Failure);
        assert_eq!(values.len(), 16);
        assert_eq!(values.first().copied(), Some(0.5));
        // Bit-stable: every value is exactly start + i*step.
        for (i, &value) in values.iter().enumerate() {
            assert_eq!(value, (i as f64).mul_add(0.1, 0.5), "point {i}");
        }

        match QuerySpec::parse("sweep mu(Pump 2) in 1..3 step 1") {
            Ok(QuerySpec::Sweep(SweepSpec::Element {
                element,
                kind,
                values,
            })) => {
                assert_eq!(element, "Pump 2");
                assert_eq!(kind, ParamKind::Repair);
                assert_eq!(values, vec![1.0, 2.0, 3.0]);
            }
            other => panic!("{other:?}"),
        }

        match QuerySpec::parse("sweep scale in 0.5..1.5 step 0.5") {
            Ok(QuerySpec::Sweep(SweepSpec::FailureScales(scales))) => {
                assert_eq!(scales, vec![0.5, 1.0, 1.5]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sweep_grammar_rejects_malformed_input() {
        for line in [
            "sweep",
            "sweep lambda(P)",
            "sweep lambda(P) in 1..2",
            "sweep lambda(P) in 1..2 step 0",
            "sweep lambda(P) in 2..1 step 0.5",
            "sweep lambda(P) in a..b step 1",
            "sweep lambda() in 1..2 step 1",
            "sweep lambda(P in 1..2 step 1",
            "sweep rho(P) in 1..2 step 1",
            "sweep lambda(P) in 1..2 step 1 extra",
            "sweep scale in 0..1e9 step 1e-3",
            "nonsense 1.0",
            "unreliability",
            "unreliability x",
            "curve",
            "mttf 3",
        ] {
            assert!(QuerySpec::parse(line).is_err(), "{line} should not parse");
        }
    }

    #[test]
    fn requests_accumulate_queries_and_cap_sweeps() {
        let dft = dft::galileo::parse(TREE).unwrap();
        let mut request = AnalysisRequest::new(dft);
        request.add_query("unreliability 1.0").unwrap();
        request.add_query("mttf").unwrap();
        request.add_query("sweep scale in 1..2 step 1").unwrap();
        assert_eq!(request.measures.len(), 2);
        assert!(request.sweep.is_some());
        // A second sweep is rejected.
        assert!(request.add_query("sweep scale in 1..2 step 1").is_err());
    }

    #[test]
    fn json_documents_parse_into_requests() {
        let doc = Json::obj([
            ("galileo", TREE.into()),
            ("method", "hybrid".into()),
            ("epsilon", 1e-6.into()),
            (
                "measures",
                Json::Arr(vec![Json::obj([
                    ("type", "unreliability".into()),
                    ("time", 1.0.into()),
                ])]),
            ),
            (
                "sweep",
                Json::obj([("scales", Json::Arr(vec![0.5.into(), 1.0.into()]))]),
            ),
        ]);
        let request = AnalysisRequest::from_json(&doc).unwrap();
        assert_eq!(request.options.method, Method::Hybrid);
        assert_eq!(request.options.epsilon, 1e-6);
        assert_eq!(request.measures.len(), 1);
        assert!(matches!(
            request.sweep,
            Some(SweepSpec::FailureScales(ref scales)) if scales.len() == 2
        ));
    }

    #[test]
    fn json_documents_accept_trees_and_query_lines() {
        let dft = dft::galileo::parse(TREE).unwrap();
        let doc = Json::Obj(vec![
            ("tree".to_owned(), dft::json_format::encode(&dft)),
            (
                "queries".to_owned(),
                Json::Arr(vec![
                    "unreliability 1.0".into(),
                    "sweep scale in 1..2 step 0.5".into(),
                ]),
            ),
        ]);
        let request = AnalysisRequest::from_json(&doc).unwrap();
        assert_eq!(request.dft.fingerprint(), dft.fingerprint());
        assert_eq!(request.measures.len(), 1);
        assert!(matches!(
            request.sweep,
            Some(SweepSpec::FailureScales(ref scales)) if scales.len() == 3
        ));
    }

    #[test]
    fn element_sweep_kinds_must_be_strings() {
        let doc = |kind: Option<Json>| {
            let mut sweep = vec![
                ("element".to_owned(), "A".into()),
                ("values".to_owned(), Json::Arr(vec![1.0.into()])),
            ];
            sweep.extend(kind.map(|kind| ("kind".to_owned(), kind)));
            Json::obj([
                ("galileo", TREE.into()),
                ("measures", Json::Arr(Vec::new())),
                ("sweep", Json::Obj(sweep)),
            ])
        };
        let kind_of = |kind| match AnalysisRequest::from_json(&doc(kind)) {
            Ok(AnalysisRequest {
                sweep: Some(SweepSpec::Element { kind, .. }),
                ..
            }) => kind,
            other => panic!("{other:?}"),
        };
        assert_eq!(kind_of(None), ParamKind::Failure);
        assert_eq!(kind_of(Some("failure".into())), ParamKind::Failure);
        assert_eq!(kind_of(Some("repair".into())), ParamKind::Repair);
        for (kind, needle) in [
            (3.0.into(), "must be a string, not 3"),
            (Json::Null, "must be a string, not null"),
            ("dormancy".into(), "unknown sweep kind 'dormancy'"),
        ] {
            match AnalysisRequest::from_json(&doc(Some(kind))) {
                Err(e @ RequestError::Schema { .. }) => {
                    assert!(e.to_string().contains(needle), "{e} !~ {needle}")
                }
                other => panic!("{other:?} should be a schema error ({needle})"),
            }
        }
    }

    #[test]
    fn json_schema_violations_are_typed() {
        for (doc, needle) in [
            (Json::obj([]), "missing string field 'galileo'"),
            (Json::obj([("galileo", 3.0.into())]), "must be a string"),
            (
                Json::obj([("galileo", "nonsense".into())]),
                "invalid Galileo tree",
            ),
            (
                Json::obj([("galileo", TREE.into())]),
                "missing array field 'measures'",
            ),
            (
                Json::obj([
                    ("galileo", TREE.into()),
                    ("measures", Json::Arr(Vec::new())),
                    ("epsilon", (-1.0).into()),
                ]),
                "strictly between 0 and 1",
            ),
            (
                Json::obj([
                    ("galileo", TREE.into()),
                    ("measures", Json::Arr(Vec::new())),
                    ("epsilon", (1.5).into()),
                ]),
                "strictly between 0 and 1",
            ),
            (
                Json::obj([
                    ("galileo", TREE.into()),
                    ("measures", Json::Arr(Vec::new())),
                    ("epsilon", (1.0).into()),
                ]),
                "strictly between 0 and 1",
            ),
            (
                Json::obj([
                    ("galileo", TREE.into()),
                    ("measures", Json::Arr(Vec::new())),
                    ("method", "fancy".into()),
                ]),
                "compositional",
            ),
        ] {
            match AnalysisRequest::from_json(&doc) {
                Err(e) => assert!(e.to_string().contains(needle), "{e} !~ {needle}"),
                Ok(_) => panic!("{} should not parse", doc.render()),
            }
        }
    }
}
