//! The scoped rule engine: which rule applies to which file, and how each
//! rule reads the token stream.
//!
//! Every rule checks a *convention the workspace already holds* and turns it
//! from folklore into a merge gate.  The rules are deliberately token-level:
//! no type information, no name resolution — which keeps the linter
//! dependency-free and fast, at the cost of being syntactic.  Where syntax is
//! not enough, the `// xlint: allow(<rule>) -- <reason>` escape hatch records
//! the exception *with its justification*, and the report counts and prints
//! every use so exceptions stay visible instead of accumulating silently.
//!
//! # The allow annotation
//!
//! ```text
//! // xlint: allow(cast) -- usize to u64 widening is lossless on every supported target
//! w.u64(v as u64);
//! ```
//!
//! An annotation suppresses findings of the named rule on its own line
//! (trailing style) and on the next code line (preceding style).  The reason
//! after `--` is mandatory; a malformed annotation is itself a finding
//! (`allow-syntax`), and an annotation that suppresses nothing is a finding
//! too (`unused-allow`), so stale exceptions cannot outlive the code they
//! excused.

use crate::lexer::{Token, TokenKind};

/// A rule identifier; see [`RULES`] for the catalogue.
pub type RuleId = &'static str;

/// The rule catalogue: `(id, summary)` for the report header.
///
/// * **`panic`** — *panic-freedom in untrusted-input decode paths.*  The
///   decoders that accept bytes from outside the process — the model codec
///   (`ioimc::codec`), the Galileo parser (`dft::galileo`), the store frame
///   (`dft_core::store`) and the JSON parser (`dft::json`) —
///   must report corruption as typed errors, never unwind.  This rule flags
///   `.unwrap()` / `.expect()` (and `_err` variants) plus the panicking
///   macros (`panic!`, `unreachable!`, `todo!`, `unimplemented!`, `assert!`
///   and friends) in the non-test code of those files.
/// * **`index`** — *no direct indexing or slicing in the same decode files.*
///   `bytes[i]` and `&bytes[a..b]` panic on out-of-range input, which is
///   exactly what untrusted bytes produce; use `get`/`split_first`/iterators
///   so truncation surfaces as `None` and becomes a typed error.
/// * **`cast`** — *no `as` integer casts in codec code where `try_from`
///   belongs.*  An `as` cast silently truncates, turning a corrupt length
///   into a wrong-but-plausible value; `try_from` turns it into an error.
///   Allowed (with a reason) only for conversions that are provably
///   infallible on every supported target.
/// * **`lock-nesting`** — *one lock at a time in `dft_core::service`.*  The
///   service coordinates its worker pool through a single Mutex+Condvar
///   queue; acquiring a second `.lock()` while one guard is live is the
///   deadlock shape the design rules out.  Scope-tracked per function.
/// * **`busy-poll`** — *no `wait_timeout` in `dft_core::service`.*  The old
///   scoped pool papered over a lost-wakeup race with a 1 ms `wait_timeout`
///   poll; the queue's invariant is that every work-making transition
///   notifies under the lock, so a timeout wait is always a regression.
/// * **`forbid-unsafe`** — *`#![forbid(unsafe_code)]` in every crate root.*
///   The workspace is 100% safe Rust; `forbid` (unlike `deny`) cannot be
///   overridden further down the tree, and the lint makes sure no new crate
///   or bin forgets the attribute.
/// * **`allow-syntax`** / **`unused-allow`** — the escape hatch's own
///   hygiene: a reason is mandatory, and annotations must suppress something.
pub const RULES: &[(RuleId, &str)] = &[
    (
        "panic",
        "no unwrap/expect/panic! in untrusted-input decode paths",
    ),
    (
        "index",
        "no direct indexing/slicing in untrusted-input decode paths",
    ),
    ("cast", "no `as` integer casts in codec code (use try_from)"),
    (
        "lock-nesting",
        "no nested .lock() scopes in dft_core::service",
    ),
    ("busy-poll", "no wait_timeout polling in dft_core::service"),
    (
        "forbid-unsafe",
        "#![forbid(unsafe_code)] present in every crate root",
    ),
    (
        "allow-syntax",
        "xlint allow annotations carry a rule and a reason",
    ),
    (
        "unused-allow",
        "every allow annotation suppresses at least one finding",
    ),
];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// A parsed `// xlint: allow(<rule>) -- <reason>` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule being excused.
    pub rule: String,
    /// The mandatory justification after `--`.
    pub reason: String,
    /// Workspace-relative path of the annotation.
    pub path: String,
    /// Line of the comment itself.
    pub line: u32,
    /// Lines this annotation suppresses (its own, plus the next code line).
    pub covers: Vec<u32>,
    /// Set when the annotation suppressed at least one finding.
    pub used: bool,
}

/// Which rule families apply to a file; decided by [`classify`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileRules {
    /// `panic` + `index` + `cast`: the file is an untrusted-byte decoder.
    pub decode: bool,
    /// `lock-nesting` + `busy-poll`: the file is part of the service.
    pub lock: bool,
    /// `forbid-unsafe`: the file is a crate root.
    pub crate_root: bool,
}

/// The untrusted-byte decoder files the panic-freedom rules cover.
/// Everything reaching these modules comes off a disk or a socket — the
/// `dftmc-serve` HTTP parser and router read raw network bytes — so their
/// non-test code must be textually panic-free.
pub const DECODE_FILES: &[&str] = &[
    "crates/ioimc/src/codec.rs",
    "crates/dft/src/galileo.rs",
    "crates/dft/src/json.rs",
    "crates/dft/src/json_format.rs",
    "crates/dft/src/read.rs",
    "crates/core/src/store.rs",
    "crates/core/src/request.rs",
    "crates/serve/src/http.rs",
    "crates/serve/src/router.rs",
];

/// Maps a workspace-relative path (forward slashes) to its rule set.
pub fn classify(path: &str) -> FileRules {
    let mut rules = FileRules::default();
    if DECODE_FILES.contains(&path) {
        rules.decode = true;
    }
    if path.starts_with("crates/core/src/service") {
        rules.lock = true;
    }
    let crate_root = path == "src/lib.rs"
        || (path.starts_with("crates/")
            && (path.ends_with("/src/lib.rs") || path.ends_with("/src/main.rs")))
        || path.contains("/src/bin/");
    if crate_root && path.ends_with(".rs") {
        rules.crate_root = true;
    }
    rules
}

/// A lexed source file ready for rule evaluation.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The rule families that apply.
    pub rules: FileRules,
    /// The full token stream.
    pub tokens: Vec<Token>,
    /// `test_mask[i]` is `true` when token `i` belongs to `#[test]` /
    /// `#[cfg(test)]` code, which the decode and lock rules skip.
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    /// Lexes `source` and computes the test mask.
    pub fn new(path: String, source: &str) -> SourceFile {
        let tokens = crate::lexer::lex(source);
        let test_mask = mask_test_code(&tokens);
        let rules = classify(&path);
        SourceFile {
            path,
            rules,
            tokens,
            test_mask,
        }
    }

    /// Indices of non-comment tokens, optionally excluding test code.
    fn code_indices(&self, include_tests: bool) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| self.tokens[i].kind != TokenKind::Comment)
            .filter(|&i| include_tests || !self.test_mask[i])
            .collect()
    }

    fn finding(&self, rule: RuleId, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: self.path.clone(),
            line,
            message,
        }
    }
}

/// Marks every token belonging to an item annotated `#[test]` or
/// `#[cfg(test)]` (the two forms this workspace uses for test code).  The
/// attribute must match exactly — `#[cfg(not(test))]` and friends are *not*
/// skipped, so the rules stay conservative.
fn mask_test_code(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != TokenKind::Comment)
        .collect();
    let at = |k: usize| -> Option<&Token> { code.get(k).map(|&i| &tokens[i]) };

    let mut k = 0usize;
    while k < code.len() {
        if let Some(end) = test_attribute_end(&at, k) {
            // Mark from the attribute through the end of the annotated item
            // (consuming any further attributes in between).
            let start = code[k];
            let mut j = end;
            while let Some(next_end) = test_attribute_end(&at, j).or_else(|| {
                // A non-test attribute between the test attribute and the
                // item is part of the same item.
                attribute_end(&at, j)
            }) {
                j = next_end;
            }
            let item_end = item_end(&at, j);
            let last = code
                .get(item_end.saturating_sub(1))
                .copied()
                .unwrap_or(start);
            for (i, m) in mask.iter_mut().enumerate() {
                if i >= start && i <= last {
                    *m = true;
                }
            }
            k = item_end;
        } else {
            k += 1;
        }
    }
    mask
}

/// If the code tokens starting at `k` spell `#[test]` or `#[cfg(test)]`,
/// returns the code index one past the closing `]`.
fn test_attribute_end<'a>(at: &impl Fn(usize) -> Option<&'a Token>, k: usize) -> Option<usize> {
    if !(at(k)?.is_punct('#') && at(k + 1)?.is_punct('[')) {
        return None;
    }
    if at(k + 2)?.is_ident("test") && at(k + 3)?.is_punct(']') {
        return Some(k + 4);
    }
    if at(k + 2)?.is_ident("cfg")
        && at(k + 3)?.is_punct('(')
        && at(k + 4)?.is_ident("test")
        && at(k + 5)?.is_punct(')')
        && at(k + 6)?.is_punct(']')
    {
        return Some(k + 7);
    }
    None
}

/// If the code tokens starting at `k` are any outer attribute `#[…]`,
/// returns the code index one past the closing `]`.
fn attribute_end<'a>(at: &impl Fn(usize) -> Option<&'a Token>, k: usize) -> Option<usize> {
    if !(at(k)?.is_punct('#') && at(k + 1)?.is_punct('[')) {
        return None;
    }
    let mut depth = 0usize;
    let mut j = k + 1;
    while let Some(t) = at(j) {
        match t.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// The code index one past the item starting at `k`: either past the matching
/// `}` of the first top-level `{`, or past the first top-level `;`.
fn item_end<'a>(at: &impl Fn(usize) -> Option<&'a Token>, k: usize) -> usize {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut brace = 0i64;
    let mut j = k;
    while let Some(t) = at(j) {
        match t.kind {
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket -= 1,
            TokenKind::Punct('{') => brace += 1,
            TokenKind::Punct('}') => {
                brace -= 1;
                if brace == 0 {
                    return j + 1;
                }
            }
            TokenKind::Punct(';') if paren == 0 && bracket == 0 && brace == 0 => {
                return j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    j
}

// ---------------------------------------------------------------------------
// Allow annotations.
// ---------------------------------------------------------------------------

/// Extracts allow annotations (and `allow-syntax` findings for malformed
/// ones) from a file's comments.
pub fn collect_allows(file: &SourceFile) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    let known: Vec<&str> = RULES.iter().map(|(id, _)| *id).collect();
    for (i, token) in file.tokens.iter().enumerate() {
        if token.kind != TokenKind::Comment {
            continue;
        }
        let body = token.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("xlint") else {
            continue;
        };
        let parsed = parse_allow(rest);
        match parsed {
            Ok((rule, reason)) if known.contains(&rule.as_str()) => {
                // The annotation covers its own line (trailing style) and the
                // next code line (preceding style).
                let mut covers = vec![token.line];
                if let Some(next) = file.tokens[i + 1..]
                    .iter()
                    .find(|t| t.kind != TokenKind::Comment && t.line > token.line)
                {
                    covers.push(next.line);
                }
                allows.push(Allow {
                    rule,
                    reason,
                    path: file.path.clone(),
                    line: token.line,
                    covers,
                    used: false,
                });
            }
            Ok((rule, _)) => findings.push(file.finding(
                "allow-syntax",
                token.line,
                format!("allow names unknown rule '{rule}'"),
            )),
            Err(problem) => findings.push(file.finding(
                "allow-syntax",
                token.line,
                format!("malformed xlint annotation: {problem}"),
            )),
        }
    }
    (allows, findings)
}

/// Parses the tail of an annotation: `: allow(<rule>) -- <reason>`.
fn parse_allow(rest: &str) -> Result<(String, String), String> {
    let rest = rest
        .strip_prefix(':')
        .ok_or("expected ':' after 'xlint'")?
        .trim();
    let rest = rest
        .strip_prefix("allow(")
        .ok_or("expected 'allow(<rule>)'")?;
    let (rule, rest) = rest
        .split_once(')')
        .ok_or("missing ')' after the rule name")?;
    let rest = rest.trim();
    let reason = rest
        .strip_prefix("--")
        .ok_or("missing '-- <reason>' (a reason is mandatory)")?
        .trim();
    if reason.is_empty() {
        return Err("empty reason after '--'".to_owned());
    }
    Ok((rule.trim().to_owned(), reason.to_owned()))
}

// ---------------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------------

/// Methods that unwind on failure; flagged when called (`.name(`).
const PANICKY_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that unwind; flagged when invoked (`name!`).  `debug_assert!` is
/// deliberately absent — it compiles out of release decoders.
const PANICKY_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Integer types an `as` cast may silently truncate to.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Keywords that may directly precede `[` without it being an index
/// expression (`let [a, b] = …`, `for x in […]`, `return […]`, …).
const NON_POSTFIX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "as", "if", "else", "match", "return", "break", "continue", "loop",
    "while", "for", "move", "box", "await", "dyn", "impl", "pub", "where", "use", "fn", "static",
    "const", "type", "struct", "enum", "union", "trait", "unsafe", "extern", "crate", "mod",
    "yield",
];

/// Runs every applicable rule over `file` and returns the raw findings
/// (before allow suppression).
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    if file.rules.decode {
        check_decode(file, &mut findings);
    }
    if file.rules.lock {
        check_locks(file, &mut findings);
    }
    if file.rules.crate_root {
        check_crate_root(file, &mut findings);
    }
    findings
}

/// The `panic`, `index` and `cast` rules over one decoder file.
fn check_decode(file: &SourceFile, findings: &mut Vec<Finding>) {
    let code = file.code_indices(false);
    for (k, &i) in code.iter().enumerate() {
        let t = &file.tokens[i];
        let prev = k
            .checked_sub(1)
            .and_then(|p| code.get(p))
            .map(|&p| &file.tokens[p]);
        let next = code.get(k + 1).map(|&n| &file.tokens[n]);

        if t.kind == TokenKind::Ident {
            let called = next.is_some_and(|n| n.is_punct('('));
            let preceded_by_dot = prev.is_some_and(|p| p.is_punct('.'));
            if preceded_by_dot && called && PANICKY_METHODS.contains(&t.text.as_str()) {
                findings.push(file.finding(
                    "panic",
                    t.line,
                    format!(
                        "`.{}()` panics on failure; decode paths must return typed errors",
                        t.text
                    ),
                ));
            }
            let banged = next.is_some_and(|n| n.is_punct('!'));
            if banged && PANICKY_MACROS.contains(&t.text.as_str()) {
                findings.push(file.finding(
                    "panic",
                    t.line,
                    format!(
                        "`{}!` unwinds; decode paths must return typed errors",
                        t.text
                    ),
                ));
            }
            if t.text == "as"
                && next.is_some_and(|n| {
                    n.kind == TokenKind::Ident && INT_TYPES.contains(&n.text.as_str())
                })
            {
                findings.push(file.finding(
                    "cast",
                    t.line,
                    format!(
                        "`as {}` silently truncates; use try_from so corrupt input fails typed",
                        next.map_or(String::new(), |n| n.text.clone())
                    ),
                ));
            }
        }

        if t.is_punct('[') {
            let postfix = prev.is_some_and(|p| match p.kind {
                TokenKind::Ident => !NON_POSTFIX_KEYWORDS.contains(&p.text.as_str()),
                TokenKind::Punct(c) => matches!(c, ')' | ']' | '?'),
                TokenKind::Str => true,
                _ => false,
            });
            if postfix {
                findings.push(file.finding(
                    "index",
                    t.line,
                    "direct indexing/slicing panics out of range; use get()/iterators".to_owned(),
                ));
            }
        }
    }
}

/// A live `MutexGuard` the lock rule is tracking.
#[derive(Debug)]
struct LiveGuard {
    /// The binding name when the guard came from `let <name> = …lock()…;`.
    name: Option<String>,
    /// Brace depth where the guard was created.
    brace: i64,
    /// Paren/bracket depth where the guard was created (temporaries only).
    paren: i64,
    /// Temporary guards die at the end of their statement; named ones at the
    /// end of their block (or an explicit `drop(name)`).
    temp: bool,
    /// A `{` opened at the guard's depth while it was live (`if let … = m.lock() {`):
    /// the guard now lives to that block's `}`.
    block_opened: bool,
}

/// The `lock-nesting` and `busy-poll` rules over one service file.
///
/// Scope tracking is an over-approximation: a guard bound with `let` is
/// considered live until its block closes or it is explicitly `drop`ped; an
/// unbound guard until the end of its statement.  That is exactly the
/// compiler's drop order for the patterns the service uses, and anything
/// fancier should be rewritten to one of those patterns anyway.
fn check_locks(file: &SourceFile, findings: &mut Vec<Finding>) {
    let code = file.code_indices(false);
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut brace = 0i64;
    let mut paren = 0i64;
    // Code index (into `code`) where the current statement started.
    let mut stmt_start = 0usize;

    for (k, &i) in code.iter().enumerate() {
        let t = &file.tokens[i];
        match t.kind {
            TokenKind::Ident if t.text == "wait_timeout" => {
                findings.push(
                    file.finding(
                        "busy-poll",
                        t.line,
                        "wait_timeout reintroduces polling; every wakeup must come from notify"
                            .to_owned(),
                    ),
                );
            }
            TokenKind::Ident if t.text == "lock" => {
                let prev = k
                    .checked_sub(1)
                    .and_then(|p| code.get(p))
                    .map(|&p| &file.tokens[p]);
                let next = code.get(k + 1).map(|&n| &file.tokens[n]);
                if prev.is_some_and(|p| p.is_punct('.')) && next.is_some_and(|n| n.is_punct('(')) {
                    if let Some(held) = guards.first() {
                        let holder = held
                            .name
                            .clone()
                            .unwrap_or_else(|| "an unnamed guard".to_owned());
                        findings.push(file.finding(
                            "lock-nesting",
                            t.line,
                            format!(
                                ".lock() while `{holder}` is still held; nested acquisition deadlocks"
                            ),
                        ));
                    }
                    guards.push(new_guard(file, &code, stmt_start, k, brace, paren));
                }
            }
            TokenKind::Ident if t.text == "drop" => {
                // `drop(name)` / `mem::drop(name)` releases a named guard.
                let name = code
                    .get(k + 2)
                    .map(|&n| &file.tokens[n])
                    .filter(|t| t.kind == TokenKind::Ident)
                    .filter(|_| {
                        code.get(k + 1)
                            .is_some_and(|&n| file.tokens[n].is_punct('('))
                    })
                    .map(|t| t.text.clone());
                if let Some(name) = name {
                    guards.retain(|g| g.name.as_deref() != Some(name.as_str()));
                }
            }
            TokenKind::Punct('(') | TokenKind::Punct('[') => paren += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => paren -= 1,
            TokenKind::Punct('{') => {
                for g in &mut guards {
                    if g.temp && g.brace == brace {
                        g.block_opened = true;
                    }
                }
                brace += 1;
                stmt_start = k + 1;
            }
            TokenKind::Punct('}') => {
                brace -= 1;
                guards.retain(|g| {
                    if g.temp {
                        // Temporaries die when their statement's block closes,
                        // or when the block they headed (`if let`) closes.
                        g.brace <= brace && !(g.block_opened && g.brace == brace)
                    } else {
                        g.brace <= brace
                    }
                });
                stmt_start = k + 1;
            }
            TokenKind::Punct(';') => {
                guards.retain(|g| !(g.temp && g.brace == brace && paren <= g.paren));
                stmt_start = k + 1;
            }
            _ => {}
        }
    }
}

/// Builds the guard record for a `.lock(` at code index `lock_at`, inside the
/// statement starting at `stmt_start`.
///
/// A `let` statement pins the guard in its binding only when the initializer
/// *ends* at the lock expression (possibly through an `unwrap`/`expect`
/// chain): `let g = m.lock().unwrap();`.  When further methods are chained —
/// `let n = m.lock().unwrap().len();` — the guard is a temporary consumed
/// within the statement, and the binding holds something else entirely.
fn new_guard(
    file: &SourceFile,
    code: &[usize],
    stmt_start: usize,
    lock_at: usize,
    brace: i64,
    paren: i64,
) -> LiveGuard {
    let tok = |k: usize| code.get(k).map(|&i| &file.tokens[i]);
    if tok(stmt_start).is_some_and(|t| t.is_ident("let")) && binds_guard(file, code, lock_at) {
        let mut k = stmt_start + 1;
        if tok(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        let name = tok(k)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone());
        return LiveGuard {
            name,
            brace,
            paren,
            temp: false,
            block_opened: false,
        };
    }
    LiveGuard {
        name: None,
        brace,
        paren,
        temp: true,
        block_opened: false,
    }
}

/// True when the expression around the `.lock(` at code index `lock_at` ends
/// right after the lock (plus any `?` / `.unwrap()` / `.expect("…")` chain),
/// i.e. the enclosing `let` really binds the guard.
fn binds_guard(file: &SourceFile, code: &[usize], lock_at: usize) -> bool {
    let tok = |k: usize| code.get(k).map(|&i| &file.tokens[i]);
    // Step past the matching `)` of the lock() call itself.
    let mut k = lock_at + 1;
    let mut depth = 0i64;
    loop {
        match tok(k) {
            Some(t) if t.is_punct('(') => depth += 1,
            Some(t) if t.is_punct(')') => {
                depth -= 1;
                if depth == 0 {
                    k += 1;
                    break;
                }
            }
            Some(_) => {}
            None => return false,
        }
        k += 1;
    }
    // Consume any `?` and `.unwrap()` / `.expect(…)` links.
    loop {
        if tok(k).is_some_and(|t| t.is_punct('?')) {
            k += 1;
            continue;
        }
        let chained = tok(k).is_some_and(|t| t.is_punct('.'))
            && tok(k + 1).is_some_and(|t| {
                t.kind == TokenKind::Ident && PANICKY_METHODS.contains(&t.text.as_str())
            })
            && tok(k + 2).is_some_and(|t| t.is_punct('('));
        if !chained {
            break;
        }
        let mut depth = 0i64;
        k += 2;
        loop {
            match tok(k) {
                Some(t) if t.is_punct('(') => depth += 1,
                Some(t) if t.is_punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                Some(_) => {}
                None => return false,
            }
            k += 1;
        }
    }
    tok(k).is_none_or(|t| t.is_punct(';'))
}

/// The `forbid-unsafe` rule: the crate root must carry
/// `#![forbid(unsafe_code)]`.
fn check_crate_root(file: &SourceFile, findings: &mut Vec<Finding>) {
    let code = file.code_indices(true);
    let tok = |k: usize| code.get(k).map(|&i| &file.tokens[i]);
    let mut found = false;
    for k in 0..code.len() {
        if tok(k).is_some_and(|t| t.is_punct('#'))
            && tok(k + 1).is_some_and(|t| t.is_punct('!'))
            && tok(k + 2).is_some_and(|t| t.is_punct('['))
            && tok(k + 3).is_some_and(|t| t.is_ident("forbid"))
            && tok(k + 4).is_some_and(|t| t.is_punct('('))
            && tok(k + 5).is_some_and(|t| t.is_ident("unsafe_code"))
            && tok(k + 6).is_some_and(|t| t.is_punct(')'))
            && tok(k + 7).is_some_and(|t| t.is_punct(']'))
        {
            found = true;
            break;
        }
    }
    if !found {
        findings.push(file.finding(
            "forbid-unsafe",
            1,
            "crate root is missing #![forbid(unsafe_code)]".to_owned(),
        ));
    }
}

/// Applies allow suppression in place: findings covered by a matching
/// annotation are removed and the annotation is marked used.
pub fn suppress(findings: &mut Vec<Finding>, allows: &mut [Allow]) {
    findings.retain(|f| {
        for a in allows.iter_mut() {
            if a.rule == f.rule && a.path == f.path && a.covers.contains(&f.line) {
                a.used = true;
                return false;
            }
        }
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, source: &str) -> SourceFile {
        SourceFile::new(path.to_owned(), source)
    }

    fn decode_findings(source: &str) -> Vec<Finding> {
        check(&file("crates/ioimc/src/codec.rs", source))
    }

    fn lock_findings(source: &str) -> Vec<Finding> {
        check(&file("crates/core/src/service/queue.rs", source))
    }

    #[test]
    fn classification_matches_the_layout() {
        assert!(classify("crates/ioimc/src/codec.rs").decode);
        assert!(classify("crates/dft/src/json.rs").decode);
        assert!(classify("crates/dft/src/json_format.rs").decode);
        assert!(classify("crates/core/src/request.rs").decode);
        assert!(classify("crates/serve/src/http.rs").decode);
        assert!(classify("crates/serve/src/router.rs").decode);
        assert!(!classify("crates/serve/src/metrics.rs").decode);
        assert!(!classify("crates/serve/src/server.rs").decode);
        assert!(!classify("crates/ioimc/src/model.rs").decode);
        assert!(classify("crates/core/src/service/queue.rs").lock);
        assert!(classify("crates/core/src/service/mod.rs").lock);
        assert!(!classify("crates/core/src/store.rs").lock);
        assert!(classify("src/lib.rs").crate_root);
        assert!(classify("crates/xlint/src/main.rs").crate_root);
        assert!(classify("crates/bench/src/bin/bench_diff.rs").crate_root);
        assert!(!classify("crates/core/src/engine.rs").crate_root);
    }

    #[test]
    fn panic_rule_flags_methods_and_macros() {
        let found = decode_findings("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"b\"); }");
        assert_eq!(found.iter().filter(|f| f.rule == "panic").count(), 3);
    }

    #[test]
    fn panic_rule_skips_lookalikes() {
        // unwrap_or is non-panicking; `expect` as a field or plain ident is
        // not a call; comments and strings are not code.
        let found = decode_findings(
            "fn f() { x.unwrap_or(0); let expect = 1; // unwrap()\n let s = \"panic!\"; }",
        );
        assert!(found.iter().all(|f| f.rule != "panic"), "{found:?}");
    }

    #[test]
    fn panic_rule_skips_test_code() {
        let found = decode_findings(
            "#[cfg(test)] mod tests { fn f() { x.unwrap(); } }\n#[test]\nfn t() { y.expect(\"e\"); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn index_rule_flags_postfix_brackets_only() {
        let found = decode_findings("fn f() { let a = xs[0]; let b = &ys[1..]; }");
        assert_eq!(found.iter().filter(|f| f.rule == "index").count(), 2);
        let clean = decode_findings(
            "fn f(v: [u8; 4]) { let [a, b] = pair; let w = [0u8; 8]; let t: Vec<[u8; 2]> = vec![]; }",
        );
        assert!(clean.iter().all(|f| f.rule != "index"), "{clean:?}");
    }

    #[test]
    fn cast_rule_flags_int_casts_only() {
        let found = decode_findings("fn f() { let a = x as u32; let b = y as f64; }");
        let casts: Vec<_> = found.iter().filter(|f| f.rule == "cast").collect();
        assert_eq!(casts.len(), 1);
    }

    #[test]
    fn lock_rule_flags_nesting_and_busy_polling() {
        let found = lock_findings(
            "fn f(&self) { let a = self.x.lock().unwrap(); let b = self.y.lock().unwrap(); }",
        );
        assert_eq!(found.iter().filter(|f| f.rule == "lock-nesting").count(), 1);
        let found = lock_findings("fn f(&self) { c.wait_timeout(g, MS); }");
        assert_eq!(found.iter().filter(|f| f.rule == "busy-poll").count(), 1);
    }

    #[test]
    fn lock_rule_accepts_sequential_scopes() {
        // Temporary guard dies at the semicolon; named guard dies at its
        // block; drop() releases early.
        let clean = lock_findings(
            "fn f(&self) { self.x.lock().unwrap().push(1); self.y.lock().unwrap().push(2); }\n\
             fn g(&self) { { let a = self.x.lock().unwrap(); } let b = self.y.lock().unwrap(); }\n\
             fn h(&self) { let a = self.x.lock().unwrap(); drop(a); let b = self.y.lock().unwrap(); }",
        );
        assert!(clean.iter().all(|f| f.rule != "lock-nesting"), "{clean:?}");
    }

    #[test]
    fn let_of_collected_lock_contents_is_a_temporary() {
        // The binding holds the collected Vec, not the guard, which dies at
        // the semicolon — so the second lock is sequential, not nested.
        let clean = lock_findings(
            "fn f(&self) { let v: Vec<u32> = self.x.lock().unwrap().iter().copied().collect(); \
             let g = self.y.lock().unwrap(); g.push(v.len()); }",
        );
        assert!(clean.iter().all(|f| f.rule != "lock-nesting"), "{clean:?}");
    }

    #[test]
    fn lock_rule_sees_through_inner_blocks() {
        let found = lock_findings(
            "fn f(&self) { let a = self.x.lock().unwrap(); { let b = self.y.lock().unwrap(); } }",
        );
        assert_eq!(found.iter().filter(|f| f.rule == "lock-nesting").count(), 1);
    }

    #[test]
    fn busy_poll_in_comments_is_fine() {
        let clean = lock_findings("// the old wait_timeout busy-poll is gone\nfn f() {}");
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn forbid_unsafe_detected() {
        let missing = check(&file("crates/dft/src/lib.rs", "//! docs\npub fn f() {}"));
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].rule, "forbid-unsafe");
        let present = check(&file(
            "crates/dft/src/lib.rs",
            "//! docs\n#![forbid(unsafe_code)]\npub fn f() {}",
        ));
        assert!(present.is_empty());
    }

    #[test]
    fn allows_parse_suppress_and_count() {
        let f = file(
            "crates/ioimc/src/codec.rs",
            "fn f() {\n    // xlint: allow(panic) -- provably infallible here\n    x.unwrap();\n    y.unwrap();\n}",
        );
        let (mut allows, bad) = collect_allows(&f);
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "panic");
        assert_eq!(allows[0].reason, "provably infallible here");
        let mut findings = check(&f);
        assert_eq!(findings.len(), 2);
        suppress(&mut findings, &mut allows);
        // Only the annotated line is excused.
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
        assert!(allows[0].used);
    }

    #[test]
    fn trailing_allows_cover_their_own_line() {
        let f = file(
            "crates/ioimc/src/codec.rs",
            "fn f() {\n    x.unwrap(); // xlint: allow(panic) -- trailing style\n}",
        );
        let (mut allows, _) = collect_allows(&f);
        let mut findings = check(&f);
        suppress(&mut findings, &mut allows);
        assert!(findings.is_empty());
        assert!(allows[0].used);
    }

    #[test]
    fn malformed_allows_are_findings() {
        for bad in [
            "// xlint: allow(panic)",           // no reason
            "// xlint: allow(panic) --",        // empty reason
            "// xlint: allow panic -- r",       // missing parens
            "// xlint: allow(not_a_rule) -- r", // unknown rule
            "// xlint allow(panic) -- r",       // missing colon
        ] {
            let f = file("crates/ioimc/src/codec.rs", &format!("{bad}\nfn f() {{}}"));
            let (allows, findings) = collect_allows(&f);
            assert!(allows.is_empty(), "{bad}");
            assert_eq!(findings.len(), 1, "{bad}");
            assert_eq!(findings[0].rule, "allow-syntax", "{bad}");
        }
    }
}
