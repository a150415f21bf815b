//! The persistent cross-process model cache.
//!
//! Compositional aggregation (convert → compose → hide → lump) is by far the
//! dominant cost per DFT, and it is fully determined by the tree's structure:
//! [`Dft::fingerprint`](dft::Dft::fingerprint) and
//! [`Dft::structural_fingerprint`](dft::Dft::structural_fingerprint) are stable
//! across processes and platforms by construction.  A [`ModelStore`] therefore
//! serializes built [`Session`]s — numeric ones keyed by the fingerprint,
//! parametric ones by the structural fingerprint — into a directory shared
//! between runs and between a fleet of analysis servers, turning a restart
//! from N full aggregations into N disk reads.
//!
//! # Entry format
//!
//! Every entry is one file:
//!
//! ```text
//! magic "DFTM" | format version u32 | kind u8 | fingerprint u64 |
//! epsilon bits u64 | payload length u64 | payload FNV-1a checksum u64 | payload
//! ```
//!
//! The kind is 1 for a numeric session ([`Analyzer`]) and 2 for a parametric
//! one ([`ParametricAnalyzer`](crate::engine::ParametricAnalyzer)).  Both
//! share one payload layout, built on the rate-generic [`ioimc::codec`]:
//!
//! ```text
//! options | repairable | optional aggregation stats | model stats |
//! backend tag | parameter table (parametric only) | backend body
//! ```
//!
//! A compositional body (tag 0) is the top-failure action, the repair and
//! point-valued flags, the closed model and its can/must goal bits; the
//! caches next to it (the one-lane relax kernel of a numeric session, the
//! tangible-CTMC skeleton) are rebuilt on load by the same code a fresh build
//! uses.  A
//! monolithic body (tag 1, numeric only) is the CTMC and its goal bits.  A
//! hybrid body (tag 2) is the module statistics, the crown BDD, one leaf per
//! element and one compositional body per dynamic core.  A core body is
//! read by the same code as a tag-0 body, so it passes the same checks (its
//! rates fit the session's parameter table, its goal sets cover its
//! states), and it must be point-valued.  Format version 3 introduced this
//! layout; version 2 entries nested a whole session per core and are
//! rejected like any other stale version.
//!
//! Readers reject — and callers then rebuild — on *any* mismatch: wrong magic
//! or version, foreign fingerprint, different ε, short file, checksum
//! failure, or a payload that decodes but fails model validation.
//! Rejections are counted in [`StoreStats::rejected`]; they are never errors
//! on the cache path.
//!
//! # Concurrency
//!
//! Writers serialize to a temporary file in the store directory and publish
//! it with an atomic `rename`, so a concurrent reader (another process, or
//! another service sharing the directory) either sees the complete entry or
//! none at all — never a torn write.  Last writer wins; entries for one key
//! are deterministic, so the race is benign.
//!
//! # Errors
//!
//! Only the *explicit* [`ModelStore`] API ([`save_analyzer`],
//! [`ModelStore::open`]) reports typed [`Error::Store`] failures.  The
//! [`AnalysisService`](crate::service) cache path — the only one that stores
//! parametric models — treats every store problem as a miss (load) or a
//! skipped write-back (save) and keeps serving from memory.
//!
//! [`save_analyzer`]: ModelStore::save_analyzer

// Decode file: malformed input is a typed error, never a panic (see README).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
#![deny(clippy::disallowed_macros, clippy::cast_possible_truncation)]
#![deny(clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use crate::aggregate::{AggregationStats, StepStats};
use crate::analysis::{AnalysisOptions, Method};
use crate::engine::{Analyzer, Backend, ClosedModel, Leaf, Session, SessionRate};
use crate::parametric::{ParamKind, ParamTable};
use crate::{Error, Result};
use dft::bdd::{Bdd, BddNode};
use dft::modules::ModuleStats;
use ioimc::codec::{self, DecodeError, DecodeResult, Reader, Writer};
use ioimc::stats::ModelStats;
use ioimc::Action;
use markov::Ctmc;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// File magic: "DFTM" (dynamic fault tree model).
const MAGIC: [u8; 4] = *b"DFTM";

/// Version of the on-disk format.  Bumped on any incompatible layout change;
/// readers reject every version but their own (a stale entry is rebuilt and
/// overwritten, never migrated in place).  Version 3 writes each hybrid core
/// as a bare compositional body whose rates name the session's own
/// parameter slots, where version 2 nested a whole session per core.
pub const FORMAT_VERSION: u32 = 3;

/// What an entry holds; part of the frame so a session entry renamed onto a
/// parametric path (or vice versa) is rejected instead of misdecoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A numeric closed model (an [`Analyzer`] payload).
    Session,
    /// A parametric closed model (a
    /// [`ParametricAnalyzer`](crate::engine::ParametricAnalyzer) payload).
    Parametric,
}

impl Kind {
    /// The kind of a session over the rate domain `R`.
    pub(crate) fn of<R: SessionRate>() -> Kind {
        if R::PARAMETRIC {
            Kind::Parametric
        } else {
            Kind::Session
        }
    }

    fn tag(self) -> u8 {
        match self {
            Kind::Session => 1,
            Kind::Parametric => 2,
        }
    }

    fn prefix(self) -> char {
        match self {
            Kind::Session => 's',
            Kind::Parametric => 'p',
        }
    }
}

/// FNV-1a over a byte slice: the payload checksum.  Not cryptographic — it
/// guards against torn or bit-rotted files, not adversaries (the store
/// directory is trusted infrastructure, like the build cache it is).
fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Frames a payload: magic, version, kind, identity, length, checksum, body.
pub(crate) fn seal(kind: Kind, fingerprint: u64, epsilon_bits: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u8(kind.tag());
    w.u64(fingerprint);
    w.u64(epsilon_bits);
    w.len_prefix(payload.len());
    w.u64(fnv1a64(payload));
    w.bytes(payload);
    w.into_bytes()
}

/// Opens a frame and returns its payload slice.  `expected` carries the
/// fingerprint and ε-bits the caller is looking up; `None` (the
/// `from_bytes` path) accepts any identity but still verifies magic,
/// version, kind, length and checksum.
pub(crate) fn unseal(
    bytes: &[u8],
    kind: Kind,
    expected: Option<(u64, u64)>,
) -> DecodeResult<&[u8]> {
    let mut r = Reader::new(bytes);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.u8()?;
    }
    if magic != MAGIC {
        return Err(DecodeError::new("bad magic: not a model-store entry"));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::new(format!(
            "format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let tag = r.u8()?;
    if tag != kind.tag() {
        return Err(DecodeError::new(format!(
            "entry kind {tag} where {} was expected",
            kind.tag()
        )));
    }
    let fingerprint = r.u64()?;
    let epsilon_bits = r.u64()?;
    if let Some((expected_fp, expected_eps)) = expected {
        if fingerprint != expected_fp {
            return Err(DecodeError::new(format!(
                "fingerprint {fingerprint:016x} does not match the requested {expected_fp:016x}"
            )));
        }
        if epsilon_bits != expected_eps {
            return Err(DecodeError::new("entry was built with a different epsilon"));
        }
    }
    let len = r.len_prefix(0)?;
    let checksum = r.u64()?;
    if r.remaining() != len {
        return Err(DecodeError::new(format!(
            "payload length {len} disagrees with the {} bytes present",
            r.remaining()
        )));
    }
    // `remaining == len` was just checked, so the suffix exists; go through
    // get() anyway so a future refactor cannot reintroduce a panic here.
    let payload = bytes
        .len()
        .checked_sub(len)
        .and_then(|start| bytes.get(start..))
        .ok_or_else(|| DecodeError::new("payload length exceeds the entry"))?;
    if fnv1a64(payload) != checksum {
        return Err(DecodeError::new("payload checksum mismatch"));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Payload building blocks.
// ---------------------------------------------------------------------------

fn encode_method(method: Method, w: &mut Writer) {
    w.u8(match method {
        Method::Compositional => 0,
        Method::Monolithic => 1,
        Method::Hybrid => 2,
    });
}

fn decode_method(r: &mut Reader<'_>) -> DecodeResult<Method> {
    match r.u8()? {
        0 => Ok(Method::Compositional),
        1 => Ok(Method::Monolithic),
        2 => Ok(Method::Hybrid),
        other => Err(DecodeError::new(format!("invalid method tag {other}"))),
    }
}

fn encode_options(options: &AnalysisOptions, w: &mut Writer) {
    w.f64(options.epsilon);
    encode_method(options.method, w);
}

fn decode_options(r: &mut Reader<'_>) -> DecodeResult<AnalysisOptions> {
    let epsilon = r.f64()?;
    let method = decode_method(r)?;
    Ok(AnalysisOptions { epsilon, method })
}

fn encode_model_stats(stats: ModelStats, w: &mut Writer) {
    w.len_prefix(stats.states);
    w.len_prefix(stats.interactive_transitions);
    w.len_prefix(stats.markovian_transitions);
    w.len_prefix(stats.inputs);
    w.len_prefix(stats.outputs);
    w.len_prefix(stats.internals);
}

/// Reads a plain counter written with [`Writer::len_prefix`].  Unlike a real
/// length prefix it sizes no allocation and counts nothing that follows in the
/// payload, so it is not checked against the remaining bytes: a large model's
/// state count legitimately exceeds the size of the statistics after it.
fn decode_count(r: &mut Reader<'_>) -> DecodeResult<usize> {
    let n = r.u64()?;
    usize::try_from(n).map_err(|_| DecodeError::new(format!("count {n} exceeds the address space")))
}

fn decode_model_stats(r: &mut Reader<'_>) -> DecodeResult<ModelStats> {
    Ok(ModelStats {
        states: decode_count(r)?,
        interactive_transitions: decode_count(r)?,
        markovian_transitions: decode_count(r)?,
        inputs: decode_count(r)?,
        outputs: decode_count(r)?,
        internals: decode_count(r)?,
    })
}

fn encode_module_stats(stats: ModuleStats, w: &mut Writer) {
    w.len_prefix(stats.total_elements);
    w.len_prefix(stats.static_modules);
    w.len_prefix(stats.dynamic_modules);
    w.len_prefix(stats.static_modules_retained);
    w.len_prefix(stats.crown_elements);
    w.len_prefix(stats.core_count);
    w.len_prefix(stats.core_elements);
}

fn decode_module_stats(r: &mut Reader<'_>) -> DecodeResult<ModuleStats> {
    Ok(ModuleStats {
        total_elements: decode_count(r)?,
        static_modules: decode_count(r)?,
        dynamic_modules: decode_count(r)?,
        static_modules_retained: decode_count(r)?,
        crown_elements: decode_count(r)?,
        core_count: decode_count(r)?,
        core_elements: decode_count(r)?,
    })
}

fn encode_aggregation_stats(stats: &AggregationStats, w: &mut Writer) {
    w.len_prefix(stats.steps.len());
    for step in &stats.steps {
        w.str(&step.composed.0);
        w.str(&step.composed.1);
        encode_model_stats(step.before_aggregation, w);
        encode_model_stats(step.after_aggregation, w);
        w.len_prefix(step.hidden);
    }
    encode_model_stats(stats.peak, w);
    encode_model_stats(stats.final_model, w);
}

fn decode_aggregation_stats(r: &mut Reader<'_>) -> DecodeResult<AggregationStats> {
    let num_steps = r.len_prefix(1)?;
    let mut steps = Vec::with_capacity(num_steps);
    for _ in 0..num_steps {
        let left = r.str()?;
        let right = r.str()?;
        let before_aggregation = decode_model_stats(r)?;
        let after_aggregation = decode_model_stats(r)?;
        let hidden = decode_count(r)?;
        steps.push(StepStats {
            composed: (left, right),
            before_aggregation,
            after_aggregation,
            hidden,
        });
    }
    let peak = decode_model_stats(r)?;
    let final_model = decode_model_stats(r)?;
    Ok(AggregationStats {
        steps,
        peak,
        final_model,
    })
}

fn encode_bools(bools: &[bool], w: &mut Writer) {
    w.len_prefix(bools.len());
    for &b in bools {
        w.bool(b);
    }
}

fn decode_bools(r: &mut Reader<'_>) -> DecodeResult<Vec<bool>> {
    let n = r.len_prefix(1)?;
    (0..n).map(|_| r.bool()).collect()
}

fn encode_params(params: &ParamTable, w: &mut Writer) {
    w.len_prefix(params.len());
    for slot in params.slots() {
        w.str(&slot.element);
        w.u8(match slot.kind {
            ParamKind::Failure => 0,
            ParamKind::Repair => 1,
        });
        w.f64(slot.base);
    }
}

fn decode_params(r: &mut Reader<'_>) -> DecodeResult<ParamTable> {
    let num_slots = r.len_prefix(10)?;
    let mut params = ParamTable::default();
    for _ in 0..num_slots {
        let element = r.str()?;
        let kind = match r.u8()? {
            0 => ParamKind::Failure,
            1 => ParamKind::Repair,
            other => {
                return Err(DecodeError::new(format!(
                    "invalid parameter kind tag {other}"
                )))
            }
        };
        let base = r.f64()?;
        params.push(&element, kind, base);
    }
    Ok(params)
}

// ---------------------------------------------------------------------------
// The session payload.
// ---------------------------------------------------------------------------

/// The unframed payload of a session; [`seal`] frames it.
pub(crate) fn encode_payload<R: SessionRate>(session: &Session<R>) -> Vec<u8> {
    let mut w = Writer::new();
    encode_options(&session.options, &mut w);
    w.bool(session.repairable);
    match &session.aggregation {
        None => w.bool(false),
        Some(stats) => {
            w.bool(true);
            encode_aggregation_stats(stats, &mut w);
        }
    }
    encode_model_stats(session.model_stats, &mut w);
    w.u8(match &session.backend {
        Backend::Compositional { .. } => 0,
        Backend::Monolithic { .. } => 1,
        Backend::Hybrid { .. } => 2,
    });
    if R::PARAMETRIC {
        encode_params(&session.params, &mut w);
    }
    match &session.backend {
        Backend::Compositional { model, .. } => encode_closed(model, &mut w),
        Backend::Monolithic { ctmc, goal } => {
            w.len_prefix(ctmc.num_states());
            w.len_prefix(ctmc.initial());
            let transitions = ctmc.transitions();
            w.len_prefix(transitions.len());
            for (from, to, rate) in transitions {
                w.u32(from);
                w.u32(to);
                w.f64(rate);
            }
            encode_bools(goal, &mut w);
        }
        Backend::Hybrid {
            crown,
            leaves,
            cores,
            modules,
        } => {
            encode_module_stats(*modules, &mut w);
            w.len_prefix(crown.node_count());
            for node in crown.nodes() {
                w.u32(node.var);
                w.u32(node.lo);
                w.u32(node.hi);
            }
            w.u32(crown.root());
            w.len_prefix(leaves.len());
            for leaf in leaves {
                match leaf {
                    Leaf::Unused => w.u8(0),
                    Leaf::Basic { rate } => {
                        w.u8(1);
                        rate.encode_rate(&mut w);
                    }
                    Leaf::Core { index } => {
                        w.u8(2);
                        w.len_prefix(*index);
                    }
                }
            }
            w.len_prefix(cores.len());
            for (model, _) in cores {
                encode_closed(model, &mut w);
            }
        }
    }
    w.into_bytes()
}

/// Decodes a payload produced by [`encode_payload`], re-validating every
/// embedded model.
pub(crate) fn decode_payload<R: SessionRate>(payload: &[u8]) -> DecodeResult<Session<R>> {
    let r = &mut Reader::new(payload);
    let options = decode_options(r)?;
    let repairable = r.bool()?;
    let aggregation = if r.bool()? {
        Some(decode_aggregation_stats(r)?)
    } else {
        None
    };
    let model_stats = decode_model_stats(r)?;
    let tag = r.u8()?;
    let params = if R::PARAMETRIC {
        decode_params(r)?
    } else {
        ParamTable::default()
    };
    let backend = match (tag, options.method) {
        // Tag 0 under `Method::Hybrid` is a hybrid session that fell back
        // to the compositional pipeline (repairable tree or
        // non-deterministic core): same body, different label.
        (0, Method::Compositional | Method::Hybrid) => {
            let (model, numerics) = decode_closed::<R>(r, &params)?;
            Backend::Compositional {
                model,
                numerics,
                tangible: OnceLock::new(),
            }
        }
        (1, Method::Monolithic) if !R::PARAMETRIC => {
            let num_states = r.len_prefix(0)?;
            let initial = r.len_prefix(0)?;
            let n = r.len_prefix(16)?;
            let mut transitions = Vec::with_capacity(n);
            for _ in 0..n {
                transitions.push((r.u32()?, r.u32()?, r.f64()?));
            }
            let ctmc = Ctmc::from_transitions(num_states, initial, &transitions)
                .map_err(|e| DecodeError::new(format!("decoded CTMC is invalid: {e}")))?;
            let goal = decode_bools(r)?;
            if goal.len() != num_states {
                return Err(DecodeError::new("goal vector length mismatch"));
            }
            Backend::Monolithic { ctmc, goal }
        }
        (2, Method::Hybrid) => {
            if repairable {
                return Err(DecodeError::new(
                    "a hybrid decomposition cannot be repairable",
                ));
            }
            let modules = decode_module_stats(r)?;
            let n = r.len_prefix(12)?;
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                nodes.push(BddNode {
                    var: r.u32()?,
                    lo: r.u32()?,
                    hi: r.u32()?,
                });
            }
            let root = r.u32()?;
            let crown = Bdd::from_parts(nodes, root)
                .map_err(|e| DecodeError::new(format!("decoded crown BDD is invalid: {e}")))?;
            let n_leaves = r.len_prefix(1)?;
            let mut leaves = Vec::with_capacity(n_leaves);
            for _ in 0..n_leaves {
                leaves.push(match r.u8()? {
                    0 => Leaf::Unused,
                    1 => {
                        let rate = R::decode_rate(r)?;
                        if !rate.is_valid() || !rate.fits(&params) {
                            return Err(DecodeError::new("crown basic-event rate out of range"));
                        }
                        Leaf::Basic { rate }
                    }
                    2 => Leaf::Core {
                        index: decode_count(r)?,
                    },
                    tag => return Err(DecodeError::new(format!("unknown hybrid leaf tag {tag}"))),
                });
            }
            let n_cores = r.len_prefix(1)?;
            let mut cores = Vec::with_capacity(n_cores);
            for _ in 0..n_cores {
                let core = decode_closed::<R>(r, &params)?;
                if !core.0.point_valued {
                    return Err(DecodeError::new("hybrid cores must be deterministic"));
                }
                cores.push(core);
            }
            for leaf in &leaves {
                if let Leaf::Core { index } = leaf {
                    if *index >= cores.len() {
                        return Err(DecodeError::new("hybrid leaf references a missing core"));
                    }
                }
            }
            for var in crown.support() {
                if !matches!(
                    leaves.get(var.index()),
                    Some(Leaf::Basic { .. } | Leaf::Core { .. })
                ) {
                    return Err(DecodeError::new("crown BDD references an unused leaf"));
                }
            }
            Backend::Hybrid {
                crown,
                leaves,
                cores,
                modules,
            }
        }
        (tag, method) => {
            return Err(DecodeError::new(format!(
                "backend tag {tag} disagrees with method {method:?}"
            )))
        }
    };
    if !r.is_done() {
        return Err(DecodeError::new("trailing bytes after the session payload"));
    }
    Ok(Session {
        options,
        repairable,
        aggregation,
        model_stats,
        params,
        backend,
        ran_aggregation: false,
    })
}

/// Writes a closed model: the body of a compositional session and of each
/// hybrid core.  The numerics and the tangible skeleton are derived
/// deterministically from the closed model and the goal bits on load.
fn encode_closed<R: SessionRate>(model: &ClosedModel<R>, w: &mut Writer) {
    w.str(model.top_failure.name());
    w.bool(model.has_repair);
    w.bool(model.point_valued);
    codec::encode_model(&model.closed, w);
    encode_bools(&model.can, w);
    encode_bools(&model.must, w);
}

/// Reads a closed model written by [`encode_closed`] and rebuilds its
/// numerics, checking that every rate stays inside `params` and that the
/// goal sets cover every state.
fn decode_closed<R: SessionRate>(
    r: &mut Reader<'_>,
    params: &ParamTable,
) -> DecodeResult<(ClosedModel<R>, R::Numerics)> {
    let top_failure = Action::new(&r.str()?);
    let has_repair = r.bool()?;
    let point_valued = r.bool()?;
    let closed = codec::decode_model::<R>(r)?;
    // Every rate must stay inside the decoded parameter table —
    // `RateForm::eval` indexes the valuation unchecked at instantiation
    // time, so an out-of-range slot in a corrupted entry must die here.
    if !closed.markovian().iter().all(|t| t.rate.fits(params)) {
        return Err(DecodeError::new(
            "a rate references a slot outside the parameter table",
        ));
    }
    let can = decode_bools(r)?;
    let must = decode_bools(r)?;
    if can.len() != closed.num_states() || must.len() != closed.num_states() {
        return Err(DecodeError::new(
            "goal-set lengths disagree with the closed model",
        ));
    }
    let model = ClosedModel {
        closed,
        top_failure,
        has_repair,
        point_valued,
        can,
        must,
    };
    let numerics = R::numerics(&model)
        .map_err(|e| DecodeError::new(format!("decoded model is invalid: {e}")))?;
    Ok((model, numerics))
}

// ---------------------------------------------------------------------------
// The store itself.
// ---------------------------------------------------------------------------

/// Cumulative counters of one [`ModelStore`] handle.
///
/// `hits + misses` is the number of load attempts; `rejected` is the subset
/// of misses where an entry *existed* but was refused (truncated, corrupted,
/// wrong version, foreign fingerprint, failed validation) — the
/// distinguishing signal between "cold store" and "store with a problem".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads that produced a usable model.
    pub hits: u64,
    /// Loads that found nothing usable (absent entries and rejections).
    pub misses: u64,
    /// Entries that existed but were refused and will be rebuilt.
    pub rejected: u64,
    /// Entries successfully written (atomically published).
    pub writes: u64,
    /// Write-backs that failed; on the service path these degrade to an
    /// in-memory-only cache entry, never to an error.
    pub write_errors: u64,
    /// Bytes read from disk across all load attempts.
    pub read_bytes: u64,
    /// Bytes written to disk across all successful writes.
    pub write_bytes: u64,
}

/// A directory-backed, cross-process cache of closed models.
///
/// One handle is cheap and thread-safe (`&self` everywhere, atomic counters);
/// any number of handles — in this process, in other processes, on other
/// machines sharing the directory — may read and write concurrently, see the
/// [module documentation](self) for the format and concurrency story.
///
/// # Example
///
/// ```no_run
/// use dft_core::store::ModelStore;
/// use dft_core::{AnalysisOptions, Analyzer};
/// # fn main() -> Result<(), dft_core::Error> {
/// # let dft = dft_core::casestudies::cas();
/// let store = ModelStore::open("/var/cache/dftmc")?;
/// let options = AnalysisOptions::default();
/// let analyzer = match store.load_analyzer(dft.fingerprint(), &options) {
///     Some(warm) => warm, // no aggregation ran
///     None => {
///         let built = Analyzer::new(&dft, options.clone())?;
///         store.save_analyzer(dft.fingerprint(), &built)?;
///         built
///     }
/// };
/// # let _ = analyzer;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModelStore {
    dir: PathBuf,
    /// Distinguishes concurrent temporary files of one handle; combined with
    /// the process id to distinguish handles.
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
}

impl ModelStore {
    /// Opens (creating if necessary) the store directory.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Store`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ModelStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| Error::Store {
            message: format!("cannot create store directory {}: {e}", dir.display()),
        })?;
        Ok(ModelStore {
            dir,
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
        })
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the cumulative counters of this handle.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
        }
    }

    /// The entry path for a (kind, method, fingerprint, ε) quadruple.  All
    /// four are part of the name, so distinct configurations never collide.
    fn entry_path(&self, kind: Kind, method: Method, fingerprint: u64, eps_bits: u64) -> PathBuf {
        let method = match method {
            Method::Compositional => 'c',
            Method::Monolithic => 'm',
            Method::Hybrid => 'h',
        };
        self.dir.join(format!(
            "{}{method}-{fingerprint:016x}-{eps_bits:016x}.dftm",
            kind.prefix()
        ))
    }

    /// Loads the numeric closed model cached for `fingerprint`
    /// ([`Dft::fingerprint`](dft::Dft::fingerprint)) under `options`, or
    /// `None` when no usable entry exists.  Corrupt, truncated, stale and
    /// foreign entries are rejected (counted in [`StoreStats::rejected`]) and
    /// reported as a miss — the caller rebuilds and overwrites.
    pub fn load_analyzer(&self, fingerprint: u64, options: &AnalysisOptions) -> Option<Analyzer> {
        self.load_session(fingerprint, options)
    }

    /// Writes the entry for `fingerprint` ([`Dft::fingerprint`](dft::Dft::fingerprint)),
    /// atomically replacing any previous one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Store`] when serialization cannot be persisted (I/O
    /// failure); the failure is also counted in [`StoreStats::write_errors`].
    pub fn save_analyzer(&self, fingerprint: u64, analyzer: &Analyzer) -> Result<()> {
        self.save_session(fingerprint, analyzer)
    }

    /// Loads the session of either rate domain cached for `fingerprint`
    /// under `options`: the body of [`load_analyzer`](Self::load_analyzer),
    /// and the service's load path for parametric models, keyed by
    /// [`Dft::structural_fingerprint`](dft::Dft::structural_fingerprint).
    pub(crate) fn load_session<R: SessionRate>(
        &self,
        fingerprint: u64,
        options: &AnalysisOptions,
    ) -> Option<Session<R>> {
        let kind = Kind::of::<R>();
        let eps_bits = options.epsilon.to_bits();
        let path = self.entry_path(kind, options.method, fingerprint, eps_bits);
        // The frame carries fingerprint and ε; the method is encoded in the
        // payload (and the file name), so verify it survived the round trip.
        // The check lives inside the decode step so a mismatch counts as one
        // rejection, like every other refusal — never as a hit.
        self.load_entry(&path, kind, fingerprint, eps_bits, |payload| {
            let decoded = decode_payload::<R>(payload)?;
            if decoded.method() != options.method {
                return Err(DecodeError::new("entry method disagrees with the request"));
            }
            Ok(decoded)
        })
    }

    /// Writes the entry of a session of either rate domain: the body of
    /// [`save_analyzer`](Self::save_analyzer), and the service's write-back
    /// path for parametric models.
    pub(crate) fn save_session<R: SessionRate>(
        &self,
        fingerprint: u64,
        session: &Session<R>,
    ) -> Result<()> {
        let kind = Kind::of::<R>();
        let eps_bits = session.options().epsilon.to_bits();
        let path = self.entry_path(kind, session.method(), fingerprint, eps_bits);
        let framed = seal(kind, fingerprint, eps_bits, &encode_payload(session));
        self.write_atomic(&path, &framed)
    }

    /// Shared load path: read, unseal, decode; count the outcome.
    fn load_entry<T>(
        &self,
        path: &Path,
        kind: Kind,
        fingerprint: u64,
        eps_bits: u64,
        decode: impl FnOnce(&[u8]) -> DecodeResult<T>,
    ) -> Option<T> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(_) => {
                // Absent entry: an ordinary cold miss, not a rejection.
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let read = bytes.len() as u64;
        self.read_bytes.fetch_add(read, Ordering::Relaxed);
        match unseal(&bytes, kind, Some((fingerprint, eps_bits))).and_then(decode) {
            Ok(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Err(_) => {
                self.reject_one();
                None
            }
        }
    }

    /// Counts one rejection (an entry that existed but was refused).
    fn reject_one(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes `bytes` to `path` via a unique temporary file in the same
    /// directory and an atomic rename, so concurrent readers never observe a
    /// partial entry.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        // Entry paths are built from hex fingerprints, so the file name is
        // always UTF-8; the fallback merely keeps this path panic-free.
        let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
        let tmp = self.dir.join(format!(
            ".{file_name}.tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let publish = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
        match publish {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                let written = bytes.len() as u64;
                self.write_bytes.fetch_add(written, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&tmp);
                Err(Error::Store {
                    message: format!("cannot write store entry {}: {e}", path.display()),
                })
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_macros,
    reason = "tests assert; the decode rules bind the non-test code"
)]
mod tests {
    use super::*;
    use dft::Dormancy;
    use ioimc::RateForm;

    #[test]
    fn frames_round_trip_and_reject_mismatches() {
        let payload = b"model bytes".to_vec();
        let framed = seal(Kind::Session, 0xfeed, 0x1234, &payload);
        assert_eq!(
            unseal(&framed, Kind::Session, Some((0xfeed, 0x1234))).unwrap(),
            payload.as_slice()
        );
        // Identity-agnostic open (the from_bytes path).
        assert_eq!(
            unseal(&framed, Kind::Session, None).unwrap(),
            payload.as_slice()
        );
        // Foreign fingerprint, foreign epsilon, wrong kind.
        assert!(unseal(&framed, Kind::Session, Some((0xbeef, 0x1234))).is_err());
        assert!(unseal(&framed, Kind::Session, Some((0xfeed, 0x9999))).is_err());
        assert!(unseal(&framed, Kind::Parametric, Some((0xfeed, 0x1234))).is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let framed = seal(Kind::Parametric, 1, 2, b"payload!");
        // Any strict prefix is truncated.
        for cut in 0..framed.len() {
            assert!(unseal(&framed[..cut], Kind::Parametric, None).is_err());
        }
        // Any single flipped payload byte breaks the checksum.
        let payload_start = framed.len() - b"payload!".len();
        for i in payload_start..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            assert!(unseal(&bad, Kind::Parametric, None).is_err());
        }
        // A bumped format version is stale.
        let mut stale = framed.clone();
        stale[4] = stale[4].wrapping_add(1);
        assert!(unseal(&stale, Kind::Parametric, None).is_err());
        // Bad magic.
        let mut foreign = framed;
        foreign[0] = b'X';
        assert!(unseal(&foreign, Kind::Parametric, None).is_err());
    }

    /// A parametric hybrid session over a crown (`X and Y`) and one PAND
    /// core whose events take slots 2 and 3 of the session's table.
    fn parametric_hybrid() -> Session<RateForm> {
        let mut b = dft::DftBuilder::new();
        let x = b.basic_event("X", 0.3, Dormancy::Hot).unwrap();
        let y = b.basic_event("Y", 0.4, Dormancy::Hot).unwrap();
        let crown = b.and_gate("Crown", &[x, y]).unwrap();
        let d1 = b.basic_event("D1", 1.0, Dormancy::Hot).unwrap();
        let d2 = b.basic_event("D2", 2.0, Dormancy::Warm(0.5)).unwrap();
        let core = b.pand_gate("Core", &[d1, d2]).unwrap();
        let top = b.or_gate("Top", &[crown, core]).unwrap();
        let options = AnalysisOptions {
            method: Method::Hybrid,
            ..AnalysisOptions::default()
        };
        Session::new(&b.build(top).unwrap(), options).unwrap()
    }

    #[test]
    fn a_core_rate_outside_the_session_table_is_refused() {
        let mut session = parametric_hybrid();
        assert!(decode_payload::<RateForm>(&encode_payload(&session)).is_ok());
        let outside = u32::try_from(session.params.len()).unwrap();
        let Backend::Hybrid { cores, .. } = &mut session.backend else {
            panic!("the tree decomposes");
        };
        let model = &mut cores[0].0;
        model.closed = model.closed.map_rates(|_| RateForm::var(outside));
        let err = decode_payload::<RateForm>(&encode_payload(&session)).unwrap_err();
        assert!(
            err.to_string().contains("outside the parameter table"),
            "{err}"
        );
    }

    #[test]
    fn large_counters_round_trip() {
        // Counters larger than the bytes that follow them: a real length
        // prefix would be rejected here, a counter must not be.
        let big = ModelStats {
            states: 229_888,
            interactive_transitions: 1 << 31,
            markovian_transitions: 3_000_000,
            inputs: 7,
            outputs: 1 << 20,
            internals: 0,
        };
        let modules = ModuleStats {
            total_elements: 1 << 30,
            static_modules: 1,
            dynamic_modules: 2,
            static_modules_retained: 3,
            crown_elements: 500_000,
            core_count: 4,
            core_elements: 600_000,
        };
        let stats = AggregationStats {
            steps: vec![StepStats {
                composed: ("A".to_owned(), "B".to_owned()),
                before_aggregation: big,
                after_aggregation: big,
                hidden: 1 << 30,
            }],
            peak: big,
            final_model: big,
        };
        let mut w = Writer::new();
        encode_model_stats(big, &mut w);
        encode_module_stats(modules, &mut w);
        encode_aggregation_stats(&stats, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_model_stats(&mut r).unwrap(), big);
        assert_eq!(decode_module_stats(&mut r).unwrap(), modules);
        let decoded = decode_aggregation_stats(&mut r).unwrap();
        assert_eq!(decoded.steps.len(), 1);
        assert_eq!(decoded.steps[0].hidden, 1 << 30);
        assert_eq!(decoded.steps[0].before_aggregation, big);
        assert_eq!((decoded.peak, decoded.final_model), (big, big));
        assert!(r.is_done());
    }
}
