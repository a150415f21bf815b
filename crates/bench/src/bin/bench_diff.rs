//! BENCH trend tracking: compares a fresh `BENCH_experiments.json` against
//! the committed `BENCH_baseline/BENCH_experiments.json` and fails on
//! *state-space* regressions.
//!
//! Both records hold rows of `(experiment, case, metric, value)`, and every
//! baseline row must be present in the fresh record.  State counts are
//! deterministic — a change means the pipeline itself changed — so any
//! growth of a row whose metric names states or transitions is an error.
//! Wall-clock metrics (`*_seconds`, `*speedup`) vary with the host and are
//! reported but never gated, except the marginal per-point sweep cost.
//!
//! Run with
//! `cargo run --release -p dftmc-bench --bin bench_diff -- [baseline_dir]`
//! from the directory `experiments --smoke` wrote its record to; the default
//! baseline dir is `BENCH_baseline`.  A record that cannot be read or parsed
//! fails the diff.

#![forbid(unsafe_code)]

use dft::json::{self, Json};
use std::path::Path;
use std::process::ExitCode;

/// The record `experiments` writes and the baseline directory holds.
const RECORD: &str = "BENCH_experiments.json";

/// A row is *gated* (fresh must not exceed baseline) when its metric names a
/// state-space size.
fn is_gated(metric: &str) -> bool {
    metric.contains("states") || metric.contains("transitions")
}

/// Wall-clock metrics are reported but never gated.
fn is_timing(metric: &str) -> bool {
    metric.ends_with("_seconds") || metric.ends_with("speedup")
}

/// Marginal per-point cost is a timing, but one the kernel batching makes a
/// promise about: a fresh value more than this factor above the committed
/// baseline fails the diff.  The slack absorbs runner noise while still
/// catching "the sweep quietly fell back to per-point instantiation".
const MARGINAL_REGRESSION_FACTOR: f64 = 3.0;

/// Timing metrics that *are* gated, with noise tolerance.
fn is_gated_timing(metric: &str) -> bool {
    metric == "marginal_us_per_point"
}

/// A parsed record: its `smoke` flag and its rows.
struct Record {
    smoke: Option<bool>,
    rows: Vec<Row>,
}

struct Row {
    /// `experiment/case/metric`, unique within a record.
    key: String,
    metric: String,
    value: f64,
}

fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn parse_record(doc: &Json) -> Result<Record, String> {
    let smoke = match field(doc, "smoke") {
        Some(Json::Bool(smoke)) => Some(*smoke),
        _ => None,
    };
    let Some(Json::Arr(items)) = field(doc, "rows") else {
        return Err("the record has no \"rows\" array".to_owned());
    };
    let rows = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let text = |key: &str| match field(item, key) {
                Some(Json::Str(s)) => Ok(s.as_str()),
                _ => Err(format!("row {i} has no string \"{key}\"")),
            };
            let Some(Json::Num(value)) = field(item, "value") else {
                return Err(format!("row {i} has no numeric \"value\""));
            };
            let metric = text("metric")?;
            Ok(Row {
                key: format!("{}/{}/{metric}", text("experiment")?, text("case")?),
                metric: metric.to_owned(),
                value: *value,
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(Record { smoke, rows })
}

fn load(path: &Path) -> Result<Record, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text)
        .and_then(|doc| parse_record(&doc))
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

#[derive(Default)]
struct Diff {
    regressions: Vec<String>,
    notes: Vec<String>,
}

/// Checks every baseline row against the fresh row with the same key.
fn diff(baseline: &Record, fresh: &Record) -> Diff {
    let mut diff = Diff::default();
    for base_row in &baseline.rows {
        let key = &base_row.key;
        let Some(fresh_row) = fresh.rows.iter().find(|r| r.key == *key) else {
            diff.regressions.push(format!(
                "{key}: present in baseline, missing in fresh record"
            ));
            continue;
        };
        let (metric, base, fresh) = (&base_row.metric, base_row.value, fresh_row.value);
        if is_gated(metric) {
            if fresh > base {
                diff.regressions
                    .push(format!("{key}: state-space regression {base} -> {fresh}"));
            } else if fresh < base {
                diff.notes.push(format!(
                    "{key}: improved {base} -> {fresh} (update baseline?)"
                ));
            }
        } else if is_gated_timing(metric) {
            if fresh > base * MARGINAL_REGRESSION_FACTOR {
                diff.regressions.push(format!(
                    "{key}: marginal per-point cost regression {base} -> {fresh} \
                     (more than {MARGINAL_REGRESSION_FACTOR}x the baseline)"
                ));
            } else if (fresh - base).abs() > f64::EPSILON {
                diff.notes.push(format!(
                    "{key}: {base} -> {fresh} (gated timing, within tolerance)"
                ));
            }
        } else if is_timing(metric) && (fresh - base).abs() > f64::EPSILON {
            diff.notes
                .push(format!("{key}: {base} -> {fresh} (timing, not gated)"));
        }
    }
    diff
}

fn main() -> ExitCode {
    let baseline_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_baseline".to_owned());
    let (baseline, fresh) = match (
        load(&Path::new(&baseline_dir).join(RECORD)),
        load(Path::new(RECORD)),
    ) {
        (Ok(baseline), Ok(fresh)) => (baseline, fresh),
        (baseline, fresh) => {
            for e in [baseline.err(), fresh.err()].into_iter().flatten() {
                eprintln!("FAIL: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    // A smoke record has fewer rows than a full one: comparing the two
    // would report bogus "regressions", so demand matching configurations
    // up front with an actionable message.
    if baseline.smoke != fresh.smoke {
        let describe = |s: Option<bool>| match s {
            Some(true) => "--smoke",
            Some(false) => "full",
            None => "unflagged",
        };
        eprintln!(
            "FAIL: the baseline is a {} run but the fresh record is a {} run — \
             re-run the experiments with the baseline's configuration",
            describe(baseline.smoke),
            describe(fresh.smoke)
        );
        return ExitCode::FAILURE;
    }

    let diff = diff(&baseline, &fresh);
    for note in &diff.notes {
        println!("note: {note}");
    }
    if diff.regressions.is_empty() {
        println!(
            "experiments: OK ({} baseline rows, no state-space regressions)",
            baseline.rows.len()
        );
        ExitCode::SUCCESS
    } else {
        for regression in &diff.regressions {
            eprintln!("FAIL: {regression}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record with the CPS size rows, parsed from its JSON text.
    fn cps_record(peak_states: usize, monolithic_states: usize) -> Record {
        let rows: Vec<Json> = [
            ("peak_states", peak_states),
            ("peak_transitions", 416),
            ("monolithic_states", monolithic_states),
            ("monolithic_transitions", 24608),
        ]
        .into_iter()
        .map(|(metric, value)| {
            Json::obj([
                ("experiment", "cps".into()),
                ("case", "system".into()),
                ("metric", metric.into()),
                ("value", value.into()),
            ])
        })
        .collect();
        let text = Json::obj([
            ("experiment", "experiments".into()),
            ("smoke", true.into()),
            ("rows", Json::Arr(rows)),
        ])
        .render();
        parse_record(&json::parse(&text).unwrap()).unwrap()
    }

    #[test]
    fn cps_state_count_growth_is_a_regression() {
        let diff = diff(&cps_record(177, 4113), &cps_record(999, 9999));
        assert_eq!(
            diff.regressions,
            [
                "cps/system/peak_states: state-space regression 177 -> 999",
                "cps/system/monolithic_states: state-space regression 4113 -> 9999",
            ]
        );
    }

    #[test]
    fn missing_rows_and_malformed_records_fail() {
        let empty = Record {
            smoke: Some(true),
            rows: Vec::new(),
        };
        assert_eq!(diff(&cps_record(177, 4113), &empty).regressions.len(), 4);
        let no_value = r#"{"rows":[{"experiment":"cps","case":"system","metric":"peak_states"}]}"#;
        assert!(parse_record(&json::parse(no_value).unwrap()).is_err());
        assert!(parse_record(&json::parse(r#"{"smoke":true}"#).unwrap()).is_err());
    }
}
