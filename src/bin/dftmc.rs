//! dftmc — the command-line front end over the shared request layer.
//!
//! The CLI is deliberately thin: it reads a tree (Galileo text or dftlib
//! JSON interchange), parses query lines into an
//! [`AnalysisRequest`], and executes it through
//! [`AnalysisService::run_request`] — exactly the code path the HTTP server
//! and library callers use, so its JSON output is bit-identical to theirs.
//!
//! ```text
//! dftmc run <tree.dft|tree.json> --query "unreliability 1.0" [options]
//! dftmc convert <tree.dft|tree.json> [--to galileo|json]
//! ```
//!
//! Queries use the grammar documented in `dft_core::request`:
//!
//! ```text
//! unreliability <time>
//! curve <time> <time> ...
//! unavailability
//! mttf
//! sweep lambda(<element>)|mu(<element>)|scale in <start>..<end> step <step>
//! ```

use dft::json::Json;
use dft::Dft;
use dft_core::request::{AnalysisRequest, MethodSpec};
use dft_core::service::{AnalysisService, ServiceOptions};
use dftmc_serve::router::outcome_fields;

const USAGE: &str = "dftmc — compositional dynamic fault tree analysis

USAGE:
    dftmc run <tree> [--query <line>]... [--queries <file>] [options]
    dftmc convert <tree> [--to galileo|json]
    dftmc help

The tree file may be Galileo text (usually .dft) or a dftlib-style JSON
interchange document (.json); the format is detected from the content.

RUN OPTIONS:
    -q, --query <line>    A query line; repeatable.  One of:
                              unreliability <time>
                              curve <time> <time> ...
                              unavailability
                              mttf
                              sweep lambda(<el>)|mu(<el>)|scale \
in <start>..<end> step <step>
    --queries <file>      A file of query lines (one per line; blank lines
                          and lines starting with '#' are skipped).
    --method <name>       compositional | monolithic | hybrid  [default: hybrid]
    --epsilon <e>         Truncation error of the transient analysis and
                          tolerance of the steady-state solvers, in (0, 1).
    --store <dir>         Persistent model store shared across runs and with
                          dftmc-serve: a tree analyzed once is a disk read
                          ever after.
    --pretty              Indent the JSON output.

The result is a JSON document on stdout with the same report fields the
HTTP server's GET /result/{id} returns.";

/// A fatal CLI error: exit code 2 for usage problems, 1 for input problems.
struct Fatal {
    code: i32,
    message: String,
}

fn usage_error(message: impl Into<String>) -> Fatal {
    Fatal {
        code: 2,
        message: message.into(),
    }
}

fn input_error(message: impl Into<String>) -> Fatal {
    Fatal {
        code: 1,
        message: message.into(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(output) => println!("{output}"),
        Err(fatal) => {
            eprintln!("dftmc: {}", fatal.message);
            std::process::exit(fatal.code);
        }
    }
}

fn dispatch(args: &[String]) -> Result<String, Fatal> {
    match args.first().map(String::as_str) {
        Some("run") => run(args.get(1..).unwrap_or(&[])),
        Some("convert") => convert(args.get(1..).unwrap_or(&[])),
        Some("help") | Some("--help") | Some("-h") => Ok(USAGE.to_owned()),
        Some(other) => Err(usage_error(format!(
            "unknown command '{other}' (try 'dftmc help')"
        ))),
        None => Err(usage_error("missing command (try 'dftmc help')")),
    }
}

/// Reads and parses a tree file, detecting the format from the content:
/// dftlib JSON documents start with '{', Galileo text never does.  The flag
/// says whether the file was JSON.
fn load_tree(path: &str) -> Result<(Dft, bool), Fatal> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| input_error(format!("cannot read '{path}': {e}")))?;
    let from_json = text.trim_start().starts_with('{');
    let parsed = if from_json {
        dft::json_format::parse(&text)
    } else {
        dft::galileo::parse(&text)
    };
    parsed
        .map(|dft| (dft, from_json))
        .map_err(|e| input_error(format!("cannot parse '{path}': {e}")))
}

fn run(args: &[String]) -> Result<String, Fatal> {
    let mut tree_path: Option<&str> = None;
    let mut queries: Vec<String> = Vec::new();
    let mut method = MethodSpec(dft_core::Method::Hybrid);
    let mut epsilon: Option<f64> = None;
    let mut store: Option<&str> = None;
    let mut pretty = false;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .ok_or_else(|| usage_error(format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "-q" | "--query" => queries.push(value("a query line")?.clone()),
            "--queries" => {
                let path = value("a file of query lines")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| input_error(format!("cannot read '{path}': {e}")))?;
                queries.extend(
                    text.lines()
                        .map(str::trim)
                        .filter(|line| !line.is_empty() && !line.starts_with('#'))
                        .map(str::to_owned),
                );
            }
            "--method" => {
                method = value("a method name")?
                    .parse::<MethodSpec>()
                    .map_err(|e| usage_error(e.to_string()))?;
            }
            "--epsilon" => {
                let raw = value("a number between 0 and 1")?;
                let parsed: f64 = raw
                    .parse()
                    .map_err(|_| usage_error(format!("cannot parse epsilon '{raw}'")))?;
                if !(parsed > 0.0 && parsed < 1.0) {
                    return Err(usage_error("epsilon must lie strictly between 0 and 1"));
                }
                epsilon = Some(parsed);
            }
            "--store" => store = Some(value("a directory")?),
            "--pretty" => pretty = true,
            other if other.starts_with('-') => {
                return Err(usage_error(format!("unknown option '{other}'")));
            }
            _ if tree_path.is_none() => tree_path = Some(arg),
            _ => return Err(usage_error(format!("unexpected argument '{arg}'"))),
        }
    }

    let Some(path) = tree_path else {
        return Err(usage_error("missing tree file (try 'dftmc help')"));
    };
    if queries.is_empty() {
        return Err(usage_error("no queries given (use --query or --queries)"));
    }

    let mut request = AnalysisRequest::new(load_tree(path)?.0);
    request.options.method = method.0;
    if let Some(epsilon) = epsilon {
        request.options.epsilon = epsilon;
    }
    for line in &queries {
        request
            .add_query(line)
            .map_err(|e| usage_error(e.to_string()))?;
    }

    let mut options = ServiceOptions::default();
    if let Some(dir) = store {
        options = options.store(dir);
    }
    let service = AnalysisService::new(options);
    let epsilon = request.options.epsilon;
    let outcome = service.run_request(request);

    let mut entries = vec![
        ("tree".to_owned(), Json::Str(path.to_owned())),
        ("method".to_owned(), Json::Str(method.name().to_owned())),
        ("epsilon".to_owned(), Json::Num(epsilon)),
    ];
    entries.extend(outcome_fields(&outcome));
    let doc = Json::Obj(entries);
    Ok(if pretty { doc.pretty() } else { doc.render() })
}

fn convert(args: &[String]) -> Result<String, Fatal> {
    let mut tree_path: Option<&str> = None;
    let mut target: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--to" => {
                let value = iter
                    .next()
                    .ok_or_else(|| usage_error("--to needs 'galileo' or 'json'"))?;
                match value.as_str() {
                    "galileo" | "json" => target = Some(value),
                    other => {
                        return Err(usage_error(format!(
                            "unknown format '{other}' (expected 'galileo' or 'json')"
                        )))
                    }
                }
            }
            other if other.starts_with('-') => {
                return Err(usage_error(format!("unknown option '{other}'")));
            }
            _ if tree_path.is_none() => tree_path = Some(arg),
            _ => return Err(usage_error(format!("unexpected argument '{arg}'"))),
        }
    }
    let Some(path) = tree_path else {
        return Err(usage_error("missing tree file (try 'dftmc help')"));
    };
    let (dft, from_json) = load_tree(path)?;
    // Without --to, convert to the format the input is not in.
    let to_json = match target {
        Some(t) => t == "json",
        None => !from_json,
    };
    Ok(if to_json {
        dft::json_format::to_json(&dft)
    } else {
        // The printer ends with a newline; println adds the final one.
        dft::galileo::to_galileo(&dft).trim_end().to_owned()
    })
}
