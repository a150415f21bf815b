//! The session-style analysis engine: build the model once, query it many times.
//!
//! The paper's pipeline — convert the DFT to an I/O-IMC community, then
//! compose/hide/minimise it down to one small model — is by far the most expensive
//! part of an analysis, yet it does not depend on the measure being asked.
//! [`Analyzer::new`] therefore runs validation, conversion and compositional
//! aggregation (or monolithic CTMC generation) *exactly once*, caches the closed
//! final model together with its [`AggregationStats`]/[`ModelStats`], and then
//! serves any number of typed [`Measure`] queries against
//! the cache:
//!
//! ```text
//! Analyzer::new:  DFT ──convert──▶ community (+ monitor) ──aggregate──▶ model
//! query(…):       model ──uniformisation──▶ unreliability (point or curve)
//!                 model ──steady state───▶ unavailability
//!                 model ──first passage──▶ MTTF
//! ```
//!
//! A mission-time sweep through [`Measure::UnreliabilityCurve`] additionally
//! shares the uniformisation pass between all time points, so a 100-point curve
//! costs one aggregation and roughly one analysis, where 100 separately built
//! sessions would have paid for 100 of each.
//!
//! # Example
//!
//! ```
//! use dft::{DftBuilder, Dormancy};
//! use dft_core::engine::Analyzer;
//! use dft_core::query::Measure;
//! use dft_core::AnalysisOptions;
//!
//! # fn main() -> Result<(), dft_core::Error> {
//! let mut b = DftBuilder::new();
//! let x = b.basic_event("X", 1.0, Dormancy::Hot)?;
//! let top = b.or_gate("Top", &[x])?;
//! let dft = b.build(top)?;
//!
//! // Build the aggregation pipeline once …
//! let analyzer = Analyzer::new(&dft, AnalysisOptions::default())?;
//! // … then answer many queries against the cached model.
//! let curve = analyzer.query(Measure::curve([0.5, 1.0, 2.0]))?;
//! let mttf = analyzer.query(Measure::Mttf)?;
//! assert_eq!(curve.len(), 3);
//! assert!((mttf.value() - 1.0).abs() < 1e-6);
//! assert_eq!(analyzer.aggregation_runs(), 1);
//! # Ok(())
//! # }
//! ```

use crate::aggregate::{aggregate, AggregationOptions, AggregationStats};
use crate::analysis::{AnalysisOptions, Method};
use crate::baseline;
use crate::convert::{convert, convert_parametric, CommunityOf};
use crate::parametric::{ParamKind, ParamTable, Valuation};
use crate::query::{Measure, MeasurePoint, MeasureResult};
use crate::semantics::monitor;
use crate::store;
use crate::{Error, Result};
use dft::bdd::{Bdd, BddNode};
use dft::modules::{hybrid_plan, ModuleStats};
use dft::{Dft, Element};
use ioimc::bisim::minimize;
use ioimc::closed::{
    can_fire_immediately, check_deterministic, drop_input_transitions, must_fire_immediately,
};
use ioimc::codec::{self, DecodeError, DecodeResult, Reader, Writer};
use ioimc::stats::ModelStats;
use ioimc::{Action, IoImc, IoImcOf, ParametricIoImc, Rate};
use markov::ctmdp::{Ctmdp, CtmdpState};
use markov::kernel::RelaxKernel;
use markov::steady::steady_state_probability;
use markov::Ctmc;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Name of the monitor process composed into the community, and of the atomic
/// proposition it attaches to its "system is down" state.
const MONITOR_NAME: &str = "system monitor";
const DOWN_PROP: &str = "down";

/// The closed, minimised model a compositional session is served from, with
/// its aggregation statistics and scheduler goal sets.
struct ClosedModel<R> {
    closed: IoImcOf<R>,
    stats: AggregationStats,
    top_failure: Action,
    has_repair: bool,
    /// Optimistic goal set: "can fire the top failure immediately".
    can: Vec<bool>,
    /// Pessimistic goal set: "must fire the top failure immediately".
    must: Vec<bool>,
    point_valued: bool,
}

/// The shared tail of both compositional constructors ([`Analyzer::new`] and
/// [`ParametricAnalyzer::new`]): compose the monitor into the community,
/// aggregate with the top failure kept observable, close and minimise the
/// result, and compute the goal sets — identically for numeric and symbolic
/// rates, so the two pipelines cannot drift apart.
fn aggregate_and_close<R: Rate>(community: CommunityOf<R>) -> Result<ClosedModel<R>> {
    let top_failure = community.top_failure;
    let has_repair = community.top_repair.is_some();

    // One community serves every measure: the monitor tracks whether the top
    // event is currently (repairable) or has ever been (non-repairable)
    // failed, and the kept top-failure output drives the reachability goals.
    let mut models = community.models;
    models.push(
        monitor(MONITOR_NAME, top_failure, community.top_repair)?
            .map_rates(|_| unreachable!("the monitor carries no Markovian transitions")),
    );
    let (final_model, stats) = aggregate(
        &models,
        &AggregationOptions {
            keep: vec![top_failure],
            ..AggregationOptions::default()
        },
    )?;
    let closed = minimize(&drop_input_transitions(&final_model));

    let can = can_fire_immediately(&closed, top_failure);
    let must = must_fire_immediately(&closed, top_failure);
    let deterministic = check_deterministic(&closed).is_ok();
    let point_valued = deterministic && can == must;

    Ok(ClosedModel {
        closed,
        stats,
        top_failure,
        has_repair,
        can,
        must,
        point_valued,
    })
}

/// A reusable analysis session for one DFT: the aggregation pipeline runs once in
/// [`Analyzer::new`], every [`query`](Analyzer::query) after that only touches the
/// cached final model.
///
/// `Analyzer` is `Send + Sync` (statically asserted below): queries take `&self`
/// and mutate nothing but an internal [`OnceLock`], so one session behind an
/// `Arc` can serve any number of threads concurrently — this is what the
/// [`AnalysisService`](crate::service::AnalysisService) worker pool and its model
/// cache rely on.
///
/// See the [module documentation](self) for an example.
#[derive(Debug)]
pub struct Analyzer {
    options: AnalysisOptions,
    repairable: bool,
    aggregation: Option<AggregationStats>,
    model_stats: ModelStats,
    backend: Backend,
    /// `true` only when *this* session executed the compositional pipeline:
    /// set by the compositional constructor, cleared for monolithic builds,
    /// parametric instantiations and sessions restored via
    /// [`from_bytes`](Self::from_bytes) (whose `aggregation` stats describe
    /// the run of the original builder, not of this process).
    ran_aggregation: bool,
}

/// The service layer shares `Arc<Analyzer>` across worker threads; losing either
/// auto-trait would silently serialize it again, so assert both at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Analyzer>()
};

/// The cached artifacts the queries are answered from.
#[derive(Debug)]
// One Backend lives per session, so the size gap between the two variants is
// irrelevant — boxing the compositional payload would only add indirection.
#[allow(clippy::large_enum_variant)]
enum Backend {
    /// The paper's compositional pipeline: the closed, minimised I/O-IMC with the
    /// top failure signal kept observable and a monitor process composed in.
    Compositional {
        closed: IoImc,
        top_failure: Action,
        has_repair: bool,
        /// `true` when the closed model has no immediate non-determinism *and*
        /// the optimistic and pessimistic goal sets coincide, so unreliability is
        /// a point value rather than an interval.
        point_valued: bool,
        /// CTMDP with the optimistic ("can fire the failure") goal set; its
        /// maximising analysis yields the upper bound.
        upper: Ctmdp,
        /// CTMDP with the pessimistic ("must fire the failure") goal set; its
        /// minimising analysis yields the lower bound.
        lower: Ctmdp,
        /// Embedded CTMC with the monitor's "down" labels, extracted lazily for
        /// the steady-state and first-passage measures (fails for CTMDPs).  A
        /// [`OnceLock`] rather than a `OnceCell` so a shared `Arc<Analyzer>` can
        /// be queried from many threads at once.
        tangible: OnceLock<Result<(Ctmc, Vec<bool>)>>,
    },
    /// The DIFTree-style baseline: one CTMC over the whole tree.
    Monolithic { ctmc: Ctmc, goal: Vec<bool> },
    /// The hybrid static/dynamic decomposition (see
    /// [`dft::modules::hybrid_plan`]): each maximal dynamic core is a nested
    /// compositional session over its sub-DFT, and the static crown above the
    /// cores is a BDD over crown basic events and core exits, evaluated
    /// combinatorially at query time.  Only built for unrepairable trees whose
    /// cores are all deterministic — the conditions under which crown
    /// composition is exact; anything else falls back to
    /// [`Backend::Compositional`] under the same [`Method::Hybrid`] label.
    Hybrid {
        /// The crown function; its variables are original [`dft::ElementId`]
        /// indices described by `leaves`.
        crown: Bdd,
        /// One entry per element of the original tree: what the crown variable
        /// with that index stands for.
        leaves: Vec<HybridLeaf>,
        /// The nested compositional sessions, one per dynamic core.
        cores: Vec<Analyzer>,
        /// The modularization decision record of the plan that produced this
        /// decomposition.
        modules: ModuleStats,
    },
}

/// What one crown-BDD variable (an original element id) stands for in a hybrid
/// session.
#[derive(Debug, Clone, PartialEq)]
enum HybridLeaf {
    /// Not a crown leaf: an internal crown gate, or a core member that is not
    /// an exit.  Never referenced by the crown BDD.
    Unused,
    /// A basic event of the crown; it fails exponentially with this rate.
    Basic {
        /// Active failure rate λ (crown events are never spare inputs, so
        /// dormancy cannot apply).
        rate: f64,
    },
    /// The exit of one dynamic core: its failure probability at `t` is that
    /// core session's unreliability at `t`.
    Core {
        /// Index into [`Backend::Hybrid::cores`].
        index: usize,
    },
}

fn add_model_stats(a: ModelStats, b: ModelStats) -> ModelStats {
    ModelStats {
        states: a.states + b.states,
        interactive_transitions: a.interactive_transitions + b.interactive_transitions,
        markovian_transitions: a.markovian_transitions + b.markovian_transitions,
        inputs: a.inputs + b.inputs,
        outputs: a.outputs + b.outputs,
        internals: a.internals + b.internals,
    }
}

/// Sums the per-core model sizes into the session-level [`ModelStats`]: the
/// hybrid state space is exactly the union of the (independent) core state
/// spaces — the crown adds no states at all.
fn sum_model_stats<'a>(cores: impl Iterator<Item = &'a Analyzer>) -> ModelStats {
    cores.fold(ModelStats::default(), |acc, core| {
        add_model_stats(acc, core.model_stats())
    })
}

/// Merges the per-core aggregation records of a hybrid session: steps are
/// concatenated in core order (the cores run their pipelines sequentially),
/// the peak is the componentwise maximum, and the final model is the disjoint
/// union of the core models.
fn merge_aggregation_stats<'a>(
    stats: impl Iterator<Item = &'a AggregationStats>,
) -> AggregationStats {
    stats.fold(AggregationStats::default(), |mut acc, s| {
        acc.steps.extend(s.steps.iter().cloned());
        acc.peak = acc.peak.max(s.peak);
        acc.final_model = add_model_stats(acc.final_model, s.final_model);
        acc
    })
}

impl Analyzer {
    /// Builds the analysis session: validates and converts the DFT and runs
    /// compositional aggregation (or monolithic CTMC generation) exactly once.
    ///
    /// # Errors
    ///
    /// Propagates conversion, aggregation and numerical errors; returns
    /// [`Error::Unsupported`] for DFT features outside the selected method's
    /// scope.
    pub fn new(dft: &Dft, options: AnalysisOptions) -> Result<Analyzer> {
        match options.method {
            Method::Compositional => Analyzer::compositional(dft, options),
            Method::Monolithic => Analyzer::monolithic(dft, options),
            Method::Hybrid => Analyzer::hybrid(dft, options),
        }
    }

    fn compositional(dft: &Dft, options: AnalysisOptions) -> Result<Analyzer> {
        let model = aggregate_and_close(convert(dft)?)?;

        let ctmdp_states = ctmdp_states_of(&model.closed);
        let initial = model.closed.initial().index();
        let upper = Ctmdp::new(ctmdp_states.clone(), initial, model.can)?;
        let lower = Ctmdp::new(ctmdp_states, initial, model.must)?;

        Ok(Analyzer {
            options,
            repairable: dft.is_repairable(),
            aggregation: Some(model.stats),
            model_stats: ModelStats::of(&model.closed),
            backend: Backend::Compositional {
                closed: model.closed,
                top_failure: model.top_failure,
                has_repair: model.has_repair,
                point_valued: model.point_valued,
                upper,
                lower,
                tangible: OnceLock::new(),
            },
            ran_aggregation: true,
        })
    }

    fn monolithic(dft: &Dft, options: AnalysisOptions) -> Result<Analyzer> {
        let result = baseline::monolithic_ctmc(dft)?;
        let model_stats = ModelStats {
            states: result.ctmc.num_states(),
            markovian_transitions: result.ctmc.num_transitions(),
            ..ModelStats::default()
        };
        Ok(Analyzer {
            options,
            repairable: dft.is_repairable(),
            aggregation: None,
            model_stats,
            backend: Backend::Monolithic {
                ctmc: result.ctmc,
                goal: result.goal,
            },
            ran_aggregation: false,
        })
    }

    /// Builds the hybrid static/dynamic session, or falls back to the full
    /// compositional pipeline (still labelled [`Method::Hybrid`]) whenever the
    /// decomposition would not be exact: the tree is repairable (crown BDDs
    /// assume monotone "failed by `t`" indicators) or some dynamic core turns
    /// out non-deterministic (per-core bounds do not compose through the
    /// crown).
    fn hybrid(dft: &Dft, options: AnalysisOptions) -> Result<Analyzer> {
        if dft.is_repairable() {
            return Analyzer::compositional(dft, options);
        }
        let plan = hybrid_plan(dft);
        let core_options = AnalysisOptions {
            method: Method::Compositional,
            ..options
        };
        let mut cores = Vec::with_capacity(plan.cores.len());
        for core in &plan.cores {
            let analyzer = Analyzer::compositional(&core.dft, core_options.clone())?;
            if analyzer.is_nondeterministic() {
                return Analyzer::compositional(dft, options);
            }
            cores.push(analyzer);
        }

        let mut leaves = vec![HybridLeaf::Unused; dft.num_elements()];
        for &e in &plan.crown {
            if let Element::BasicEvent(be) = dft.element(e) {
                leaves[e.index()] = HybridLeaf::Basic { rate: be.rate };
            }
        }
        for (index, core) in plan.cores.iter().enumerate() {
            leaves[core.exit.index()] = HybridLeaf::Core { index };
        }
        let crown = Bdd::build(dft, dft.top(), |e| {
            !matches!(leaves[e.index()], HybridLeaf::Unused)
        })?;

        Ok(Analyzer {
            options,
            repairable: false,
            aggregation: Some(merge_aggregation_stats(
                cores.iter().filter_map(Analyzer::aggregation_stats),
            )),
            model_stats: sum_model_stats(cores.iter()),
            backend: Backend::Hybrid {
                crown,
                leaves,
                cores,
                modules: plan.stats,
            },
            ran_aggregation: true,
        })
    }

    /// Answers one typed query against the cached model.
    ///
    /// Accepts the measure by value or by reference (`Measure` is owned data, so
    /// batch callers keep their measures and pass `&m`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] when the cached method cannot produce the
    /// measure (unavailability needs a repairable model and the compositional
    /// method), [`Error::EmptyCurve`] for a curve query without time points,
    /// [`Error::InvalidMissionTime`] for a NaN/infinite/negative mission time
    /// (validated here at the boundary, not deep inside the numerics), and
    /// propagates numerical errors.  The construction work is *not* repeated on
    /// any path.
    pub fn query(&self, measure: impl Borrow<Measure>) -> Result<MeasureResult> {
        match measure.borrow() {
            Measure::Unreliability(t) => {
                validate_mission_time(*t)?;
                self.unreliability_points(&[*t])
            }
            Measure::UnreliabilityCurve(times) => {
                if times.is_empty() {
                    return Err(Error::EmptyCurve);
                }
                for &t in times {
                    validate_mission_time(t)?;
                }
                self.unreliability_points(times)
            }
            Measure::Unavailability => self.unavailability_point(),
            Measure::Mttf => self.mttf_point(),
        }
    }

    /// Answers a whole batch of measures against the cached model, sharing one
    /// uniformisation / value-iteration pass between *all* time-bounded measures
    /// in the batch.
    ///
    /// The requested mission times of every [`Measure::Unreliability`] and
    /// [`Measure::UnreliabilityCurve`] in `measures` are merged (deduplicated
    /// bit-exactly), evaluated in a single multi-time reachability pass, and
    /// distributed back to their measures.  Because the value-iteration
    /// trajectory does not depend on the set of requested times — only each
    /// time's Poisson mixture weights do — every returned point is bit-identical
    /// to what a separate [`query`](Self::query) for that measure would produce.
    ///
    /// Results are returned in the same order as `measures`.
    ///
    /// # Errors
    ///
    /// If any measure in the batch would fail individually, the whole batch
    /// fails with one of those errors and no partial result is returned.  The
    /// error conditions are exactly those of [`query`](Self::query) — in
    /// particular, NaN/infinite/negative mission times are rejected with
    /// [`Error::InvalidMissionTime`] while merging, before any numerical work
    /// starts — but when several measures are faulty the reported error is not
    /// necessarily the first in batch order: curve shapes and mission times
    /// are validated by the shared merged pass, before any scalar measure is
    /// evaluated.
    pub fn query_all(&self, measures: &[Measure]) -> Result<Vec<MeasureResult>> {
        // Merge the mission times of all time-bounded measures, remembering for
        // each measure which slots of the merged grid it reads back.
        let mut unique_times: Vec<f64> = Vec::new();
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        let mut plans: Vec<Option<Vec<usize>>> = Vec::with_capacity(measures.len());
        for measure in measures {
            let times: &[f64] = match measure {
                Measure::Unreliability(t) => std::slice::from_ref(t),
                Measure::UnreliabilityCurve(times) => {
                    if times.is_empty() {
                        return Err(Error::EmptyCurve);
                    }
                    times
                }
                Measure::Unavailability | Measure::Mttf => {
                    plans.push(None);
                    continue;
                }
            };
            let slots = times
                .iter()
                .map(|&t| {
                    validate_mission_time(t)?;
                    Ok(*slot_of.entry(t.to_bits()).or_insert_with(|| {
                        unique_times.push(t);
                        unique_times.len() - 1
                    }))
                })
                .collect::<Result<Vec<usize>>>()?;
            plans.push(Some(slots));
        }

        let merged = if unique_times.is_empty() {
            None
        } else {
            Some(self.unreliability_points(&unique_times)?)
        };

        measures
            .iter()
            .zip(plans)
            .map(|(measure, plan)| match (measure, plan) {
                (Measure::Unavailability, None) => self.unavailability_point(),
                (Measure::Mttf, None) => self.mttf_point(),
                (_, Some(slots)) => {
                    let points = merged
                        .as_ref()
                        .expect("time-bounded measures imply a merged pass")
                        .points();
                    Ok(MeasureResult::new(
                        slots.iter().map(|&slot| points[slot]).collect(),
                    ))
                }
                (_, None) => unreachable!("plan shape follows the measure shape"),
            })
            .collect()
    }

    /// Convenience for [`Measure::Unreliability`].
    ///
    /// # Errors
    ///
    /// Same as [`query`](Self::query).
    pub fn unreliability(&self, mission_time: f64) -> Result<MeasureResult> {
        self.query(Measure::Unreliability(mission_time))
    }

    /// Convenience for [`Measure::UnreliabilityCurve`].
    ///
    /// # Errors
    ///
    /// Same as [`query`](Self::query).
    pub fn unreliability_curve(&self, mission_times: &[f64]) -> Result<MeasureResult> {
        self.query(Measure::UnreliabilityCurve(mission_times.to_vec()))
    }

    /// Convenience for [`Measure::Unavailability`].
    ///
    /// # Errors
    ///
    /// Same as [`query`](Self::query).
    pub fn unavailability(&self) -> Result<MeasureResult> {
        self.query(Measure::Unavailability)
    }

    /// Convenience for [`Measure::Mttf`].
    ///
    /// # Errors
    ///
    /// Same as [`query`](Self::query).
    pub fn mttf(&self) -> Result<MeasureResult> {
        self.query(Measure::Mttf)
    }

    fn unreliability_points(&self, times: &[f64]) -> Result<MeasureResult> {
        let epsilon = self.options.epsilon;
        match &self.backend {
            Backend::Monolithic { ctmc, goal } => {
                let values = ctmc.reachability_multi(goal, times, epsilon)?;
                Ok(MeasureResult::new(
                    times
                        .iter()
                        .zip(values)
                        .map(|(&t, v)| MeasurePoint::exact(Some(t), v))
                        .collect(),
                ))
            }
            Backend::Compositional {
                point_valued,
                upper,
                lower,
                ..
            } => {
                let uppers = upper.reachability_max_multi(times, epsilon)?;
                // When the model is deterministic and the optimistic/pessimistic
                // goal sets coincide, the minimising pass would redo the same
                // value iteration over the same CTMDP — skip it.
                let lowers = if *point_valued {
                    uppers.clone()
                } else {
                    lower.reachability_min_multi(times, epsilon)?
                };
                Ok(MeasureResult::new(
                    times
                        .iter()
                        .zip(lowers.into_iter().zip(uppers))
                        .map(|(&t, (lo, hi))| {
                            MeasurePoint::bounded(Some(t), point_valued.then_some(hi), (lo, hi))
                        })
                        .collect(),
                ))
            }
            Backend::Hybrid {
                crown,
                leaves,
                cores,
                ..
            } => {
                // One multi-time pass per dynamic core, then a combinatorial
                // crown evaluation per time point.  Exact because the cores are
                // pairwise independent and independent of every crown basic
                // event, and all indicators are monotone ("failed by t").
                let core_curves = cores
                    .iter()
                    .map(|core| {
                        Ok(core
                            .unreliability_points(times)?
                            .points()
                            .iter()
                            .map(MeasurePoint::value)
                            .collect::<Vec<f64>>())
                    })
                    .collect::<Result<Vec<Vec<f64>>>>()?;
                let mut probabilities = vec![0.0f64; leaves.len()];
                Ok(MeasureResult::new(
                    times
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| {
                            for (p, leaf) in probabilities.iter_mut().zip(leaves) {
                                *p = match leaf {
                                    HybridLeaf::Unused => 0.0,
                                    HybridLeaf::Basic { rate } => -(-rate * t).exp_m1(),
                                    HybridLeaf::Core { index } => core_curves[*index][i],
                                };
                            }
                            MeasurePoint::exact(Some(t), crown.probability(&probabilities))
                        })
                        .collect(),
                ))
            }
        }
    }

    fn unavailability_point(&self) -> Result<MeasureResult> {
        if !self.repairable {
            return Err(Error::Unsupported {
                message: "unavailability analysis needs at least one repairable basic event"
                    .to_owned(),
            });
        }
        match &self.backend {
            Backend::Monolithic { .. } => Err(Error::Unsupported {
                message: "the monolithic baseline only supports unreliability analysis".to_owned(),
            }),
            // Defensive: a genuine hybrid backend implies an unrepairable tree,
            // so the check above already returned.
            Backend::Hybrid { .. } => Err(Error::Unsupported {
                message: "the hybrid decomposition only exists for unrepairable trees".to_owned(),
            }),
            Backend::Compositional { has_repair, .. } => {
                if !has_repair {
                    return Err(Error::Unsupported {
                        message: "the top event never emits a repair signal".to_owned(),
                    });
                }
                let (ctmc, down) = self.tangible()?;
                let unavailability = steady_state_probability(ctmc, down, self.options.epsilon)?;
                Ok(MeasureResult::new(vec![MeasurePoint::exact(
                    None,
                    unavailability,
                )]))
            }
        }
    }

    fn mttf_point(&self) -> Result<MeasureResult> {
        let mttf = match &self.backend {
            Backend::Monolithic { ctmc, goal } => {
                markov::mttf::mean_time_to_absorption(ctmc, goal, self.options.epsilon)?
            }
            Backend::Compositional { .. } => {
                let (ctmc, down) = self.tangible()?;
                markov::mttf::mean_time_to_absorption(ctmc, down, self.options.epsilon)?
            }
            // MTTF needs a single first-passage model; the hybrid crown only
            // composes time-bounded failure probabilities.
            Backend::Hybrid { .. } => {
                return Err(Error::Unsupported {
                    message: "the hybrid decomposition only supports unreliability analysis; \
                              use the compositional method for MTTF"
                        .to_owned(),
                });
            }
        };
        Ok(MeasureResult::new(vec![MeasurePoint::exact(None, mttf)]))
    }

    /// The embedded CTMC of the closed model with its "down" labels, extracted on
    /// first use and cached for the session.
    fn tangible(&self) -> Result<(&Ctmc, &[bool])> {
        let Backend::Compositional {
            closed, tangible, ..
        } = &self.backend
        else {
            unreachable!("tangible() is only called on the compositional backend");
        };
        match tangible.get_or_init(|| extract_ctmc_with_label(closed, DOWN_PROP)) {
            Ok((ctmc, labels)) => Ok((ctmc, labels)),
            Err(e) => Err(e.clone()),
        }
    }

    /// The options the session was built with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// The analysis method backing this session.
    pub fn method(&self) -> Method {
        self.options.method
    }

    /// Statistics of the compositional aggregation run (absent for the monolithic
    /// method).  The statistics are computed during [`Analyzer::new`] and never
    /// change afterwards, however many queries are answered.
    pub fn aggregation_stats(&self) -> Option<&AggregationStats> {
        self.aggregation.as_ref()
    }

    /// Size of the final analysed model (the closed aggregated I/O-IMC or the
    /// monolithic CTMC).
    pub fn model_stats(&self) -> ModelStats {
        self.model_stats
    }

    /// How many times this session has run compositional aggregation: 1 for a
    /// compositional build, one per dynamic core for a hybrid build, 0 for the
    /// monolithic baseline, for parametric instantiations *and* for sessions
    /// restored from bytes (a restored session carries the original run's
    /// [`aggregation_stats`] but ran no pipeline of its own — that is the
    /// entire point of persisting it) — and never more, regardless of how many
    /// queries were answered.
    ///
    /// [`aggregation_stats`]: Self::aggregation_stats
    pub fn aggregation_runs(&self) -> usize {
        match &self.backend {
            Backend::Hybrid { cores, .. } if self.ran_aggregation => cores.len(),
            _ => usize::from(self.ran_aggregation),
        }
    }

    /// Returns `true` if the final model contained immediate non-determinism, so
    /// unreliability queries report scheduler bounds instead of point values.
    pub fn is_nondeterministic(&self) -> bool {
        match &self.backend {
            Backend::Compositional { point_valued, .. } => !point_valued,
            // A hybrid backend is only ever built from deterministic cores.
            Backend::Monolithic { .. } | Backend::Hybrid { .. } => false,
        }
    }

    /// The closed, minimised final I/O-IMC (compositional method only; a hybrid
    /// session has one closed model *per core* and no single final I/O-IMC).
    pub fn final_model(&self) -> Option<&IoImc> {
        match &self.backend {
            Backend::Compositional { closed, .. } => Some(closed),
            Backend::Monolithic { .. } | Backend::Hybrid { .. } => None,
        }
    }

    /// The observable top-failure action of the cached model (compositional
    /// method only).
    pub fn top_failure(&self) -> Option<Action> {
        match &self.backend {
            Backend::Compositional { top_failure, .. } => Some(*top_failure),
            Backend::Monolithic { .. } | Backend::Hybrid { .. } => None,
        }
    }

    /// The modularization record of the hybrid decomposition: how many static
    /// modules were found, how many elements ended up in the BDD crown and how
    /// many in dynamic cores.  `None` for the other methods *and* for hybrid
    /// sessions that fell back to the compositional pipeline (repairable tree
    /// or a non-deterministic core) — so `Some` here certifies that the
    /// decomposition actually happened.
    pub fn module_stats(&self) -> Option<ModuleStats> {
        match &self.backend {
            Backend::Hybrid { modules, .. } => Some(*modules),
            Backend::Compositional { .. } | Backend::Monolithic { .. } => None,
        }
    }

    /// Serializes the session into the versioned binary container of the
    /// persistent model cache (see [`crate::store`]): the closed model, the
    /// can/must CTMDP pair with their goal vectors, the statistics and the
    /// options, framed with magic, format version and a payload checksum.
    ///
    /// The inverse is [`from_bytes`](Self::from_bytes); a restored session
    /// answers every query bit-identically to this one and reports
    /// [`aggregation_runs`](Self::aggregation_runs)` == 0`.
    pub fn to_bytes(&self) -> Vec<u8> {
        store::seal(
            store::Kind::Session,
            // A free-standing serialization is not bound to a DFT
            // fingerprint; the store writes its own frames with the real one.
            0,
            self.options.epsilon.to_bits(),
            &self.encode_payload(),
        )
    }

    /// Restores a session serialized with [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Store`] when the bytes are truncated, corrupted, from
    /// a different format version, or decode to a model that fails
    /// validation.  Never panics on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Analyzer> {
        store::unseal(bytes, store::Kind::Session, None)
            .and_then(Analyzer::decode_payload)
            .map_err(|e| Error::Store {
                message: e.to_string(),
            })
    }

    /// The unframed payload body of [`to_bytes`](Self::to_bytes); the store
    /// frames it with the entry's real fingerprint.
    pub(crate) fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_body(&mut w);
        w.into_bytes()
    }

    /// Writes the session body onto a shared writer, without framing or
    /// trailing checks: a hybrid payload embeds one body per core back to back
    /// on the same writer, so bodies must compose.
    fn encode_body(&self, w: &mut Writer) {
        store::encode_options(&self.options, w);
        w.bool(self.repairable);
        match &self.aggregation {
            None => w.bool(false),
            Some(stats) => {
                w.bool(true);
                store::encode_aggregation_stats(stats, w);
            }
        }
        store::encode_model_stats(self.model_stats, w);
        match &self.backend {
            Backend::Compositional {
                closed,
                top_failure,
                has_repair,
                point_valued,
                upper,
                lower,
                tangible: _, // derived lazily and deterministically from `closed`
            } => {
                w.u8(0);
                w.str(top_failure.name());
                w.bool(*has_repair);
                w.bool(*point_valued);
                codec::encode_model(closed, w);
                store::encode_ctmdp(upper, w);
                store::encode_ctmdp(lower, w);
            }
            Backend::Monolithic { ctmc, goal } => {
                w.u8(1);
                w.len_prefix(ctmc.num_states());
                w.len_prefix(ctmc.initial());
                let transitions = ctmc.transitions();
                w.len_prefix(transitions.len());
                for (from, to, rate) in transitions {
                    w.u32(from);
                    w.u32(to);
                    w.f64(rate);
                }
                store::encode_bools(goal, w);
            }
            Backend::Hybrid {
                crown,
                leaves,
                cores,
                modules,
            } => {
                w.u8(2);
                store::encode_module_stats(*modules, w);
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
                        HybridLeaf::Unused => w.u8(0),
                        HybridLeaf::Basic { rate } => {
                            w.u8(1);
                            w.f64(*rate);
                        }
                        HybridLeaf::Core { index } => {
                            w.u8(2);
                            w.u32(u32::try_from(*index).expect("core count fits in u32"));
                        }
                    }
                }
                w.len_prefix(cores.len());
                for core in cores {
                    core.encode_body(w);
                }
            }
        }
    }

    /// Decodes a payload produced by [`encode_payload`](Self::encode_payload),
    /// re-validating every embedded model.
    pub(crate) fn decode_payload(payload: &[u8]) -> DecodeResult<Analyzer> {
        let mut r = Reader::new(payload);
        let analyzer = Analyzer::decode_body(&mut r)?;
        if !r.is_done() {
            return Err(DecodeError::new("trailing bytes after the session payload"));
        }
        Ok(analyzer)
    }

    /// Reads one session body from a shared reader (the inverse of
    /// [`encode_body`](Self::encode_body)); the caller checks for trailing
    /// bytes once the outermost body is done.
    fn decode_body(r: &mut Reader) -> DecodeResult<Analyzer> {
        let options = store::decode_options(r)?;
        let repairable = r.bool()?;
        let aggregation = if r.bool()? {
            Some(store::decode_aggregation_stats(r)?)
        } else {
            None
        };
        let model_stats = store::decode_model_stats(r)?;
        let backend = match (r.u8()?, options.method) {
            // Tag 0 under `Method::Hybrid` is a hybrid session that fell back
            // to the compositional pipeline (repairable tree or
            // non-deterministic core): same body, different label.
            (0, Method::Compositional | Method::Hybrid) => {
                let top_failure = Action::new(&r.str()?);
                let has_repair = r.bool()?;
                let point_valued = r.bool()?;
                let closed = codec::decode_model::<f64>(r)?;
                let upper = store::decode_ctmdp(r)?;
                let lower = store::decode_ctmdp(r)?;
                if upper.num_states() != closed.num_states()
                    || lower.num_states() != closed.num_states()
                {
                    return Err(DecodeError::new(
                        "CTMDP state counts disagree with the closed model",
                    ));
                }
                Backend::Compositional {
                    closed,
                    top_failure,
                    has_repair,
                    point_valued,
                    upper,
                    lower,
                    tangible: OnceLock::new(),
                }
            }
            (1, Method::Monolithic) => {
                let num_states = r.len_prefix(0)?;
                let initial = r.len_prefix(0)?;
                let n = r.len_prefix(16)?;
                let mut transitions = Vec::with_capacity(n);
                for _ in 0..n {
                    transitions.push((r.u32()?, r.u32()?, r.f64()?));
                }
                let ctmc = Ctmc::from_transitions(num_states, initial, &transitions)
                    .map_err(|e| DecodeError::new(format!("decoded CTMC is invalid: {e}")))?;
                let goal = store::decode_bools(&mut *r)?;
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
                let modules = store::decode_module_stats(r)?;
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
                        0 => HybridLeaf::Unused,
                        1 => {
                            let rate = r.f64()?;
                            if !rate.is_finite() || rate <= 0.0 {
                                return Err(DecodeError::new(
                                    "crown basic-event rate out of range",
                                ));
                            }
                            HybridLeaf::Basic { rate }
                        }
                        2 => HybridLeaf::Core {
                            index: r.u32()? as usize,
                        },
                        tag => {
                            return Err(DecodeError::new(format!("unknown hybrid leaf tag {tag}")))
                        }
                    });
                }
                let n_cores = r.len_prefix(1)?;
                let mut cores = Vec::with_capacity(n_cores);
                for _ in 0..n_cores {
                    let core = Analyzer::decode_body(r)?;
                    if core.method() != Method::Compositional || core.is_nondeterministic() {
                        return Err(DecodeError::new(
                            "hybrid cores must be deterministic compositional sessions",
                        ));
                    }
                    cores.push(core);
                }
                for leaf in &leaves {
                    if let HybridLeaf::Core { index } = leaf {
                        if *index >= cores.len() {
                            return Err(DecodeError::new("hybrid leaf references a missing core"));
                        }
                    }
                }
                for var in crown.support() {
                    if !matches!(
                        leaves.get(var.index()),
                        Some(HybridLeaf::Basic { .. } | HybridLeaf::Core { .. })
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
        Ok(Analyzer {
            options,
            repairable,
            aggregation,
            model_stats,
            backend,
            ran_aggregation: false,
        })
    }
}

/// A *parametric* analysis session: the symbolic-rate aggregation pipeline runs
/// once in [`ParametricAnalyzer::new`], and [`instantiate`](Self::instantiate)
/// then turns the cached parametric model into a numeric [`Analyzer`] for any
/// rate [`Valuation`] — by evaluating linear [`RateForm`](ioimc::RateForm)s,
/// **without** re-running conversion, composition or bisimulation minimisation.
///
/// This is the engine behind rate-sensitivity sweeps: a K-point sweep costs one
/// aggregation plus K cheap instantiations, where K independent
/// [`Analyzer::new`] calls would pay K full aggregations.  The aggregation lumps
/// states only when their cumulative rate *forms* coincide, which is sound for
/// every positive valuation at once; each instantiated session therefore
/// answers every [`Measure`] within numerical tolerance of (and typically
/// bit-identical to) a direct build on the equivalently re-rated tree.
///
/// # Example
///
/// ```
/// use dft::{DftBuilder, Dormancy};
/// use dft_core::engine::ParametricAnalyzer;
/// use dft_core::AnalysisOptions;
///
/// # fn main() -> Result<(), dft_core::Error> {
/// let mut b = DftBuilder::new();
/// let x = b.basic_event("X", 1.0, Dormancy::Hot)?;
/// let top = b.or_gate("Top", &[x])?;
/// let dft = b.build(top)?;
///
/// // Aggregate the *structure* once …
/// let parametric = ParametricAnalyzer::new(&dft, AnalysisOptions::default())?;
/// // … then sweep the failure-rate scale without re-aggregating.
/// let valuations: Vec<_> = (1..=5)
///     .map(|i| parametric.params().scaled_valuation(i as f64))
///     .collect();
/// let sweep = parametric.sweep_unreliability(1.0, &valuations)?;
/// assert_eq!(sweep.len(), 5);
/// assert_eq!(parametric.aggregation_runs(), 1);
/// // Each point matches the closed form 1 - exp(-scale·t).
/// for (i, value) in sweep.values().enumerate() {
///     let exact = 1.0 - (-((i + 1) as f64)).exp();
///     assert!((value - exact).abs() < 1e-6);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ParametricAnalyzer {
    options: AnalysisOptions,
    repairable: bool,
    aggregation: AggregationStats,
    /// `true` when this session executed the symbolic aggregation itself;
    /// `false` for sessions restored via [`from_bytes`](Self::from_bytes).
    ran_aggregation: bool,
    model_stats: ModelStats,
    /// What every slot of a [`Valuation`] means.  Always the table
    /// [`convert_parametric`] builds for the tree — one failure (and, where
    /// repairable, repair) slot per basic event in element order — whichever
    /// backend answers the queries.
    params: ParamTable,
    backend: ParametricBackend,
}

/// The parametric counterpart of [`Backend`]: what [`ParametricAnalyzer`]
/// caches between [`instantiate`](ParametricAnalyzer::instantiate) calls.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum ParametricBackend {
    /// The symbolic closed model of the full tree.
    Compositional {
        /// The closed, minimised parametric model (rates are linear forms).
        closed: ParametricIoImc,
        top_failure: Action,
        has_repair: bool,
        /// Optimistic goal set ("can fire the top failure immediately") —
        /// depends only on the interactive structure, so it is shared by every
        /// valuation.
        can: Vec<bool>,
        /// Pessimistic goal set ("must fire the top failure immediately").
        must: Vec<bool>,
        point_valued: bool,
        /// The shared CTMDP structure of the closed model, lowered once on
        /// first sweep: batched sweeps evaluate rate forms straight into
        /// kernel lanes instead of instantiating one `Ctmdp` pair per
        /// valuation.
        sweep_template: OnceLock<SweepTemplate>,
    },
    /// The parametric hybrid decomposition: one nested parametric session per
    /// dynamic core, a shared crown BDD, and leaves that read failure rates
    /// straight out of the session's global [`ParamTable`].
    Hybrid {
        crown: Bdd,
        /// One entry per element of the original tree (same indexing as
        /// [`Backend::Hybrid`]).
        leaves: Vec<ParametricLeaf>,
        cores: Vec<ParametricCore>,
        modules: ModuleStats,
    },
}

/// What one crown-BDD variable stands for in a *parametric* hybrid session.
#[derive(Debug, Clone, PartialEq)]
enum ParametricLeaf {
    /// Never referenced by the crown BDD.
    Unused,
    /// A crown basic event; its failure rate is this slot of the session's
    /// global [`ParamTable`].
    Basic {
        /// Slot index into the global table.
        slot: u32,
    },
    /// The exit of one dynamic core.
    Core {
        /// Index into [`ParametricBackend::Hybrid::cores`].
        index: usize,
    },
}

/// One dynamic core of a parametric hybrid session: the nested parametric
/// session over the core's sub-DFT plus the projection from the global
/// parameter table onto the core's own table.
#[derive(Debug)]
struct ParametricCore {
    analyzer: ParametricAnalyzer,
    /// `slots[i]` is the global slot feeding slot `i` of `analyzer.params()`.
    slots: Vec<u32>,
}

/// The lowering [`ParametricAnalyzer`] caches for batched sweeps: the CTMDP
/// state vector with dummy Markovian rates (the structure), the rate form of
/// every Markovian edge in kernel edge order (state order, row order within a
/// state — exactly the walk of [`ctmdp_states_of`]), and the initial state.
#[derive(Debug)]
struct SweepTemplate {
    states: Vec<CtmdpState>,
    forms: Vec<ioimc::RateForm>,
    initial: usize,
}

/// The cached structure lowering behind
/// [`ParametricAnalyzer::sweep_query`]: runs once per session (per
/// compositional backend) and is shared by every subsequent batched sweep.
fn lower_sweep_template<'a>(
    closed: &ParametricIoImc,
    lock: &'a OnceLock<SweepTemplate>,
) -> &'a SweepTemplate {
    lock.get_or_init(|| {
        let mut forms = Vec::new();
        let states = closed
            .states()
            .map(|s| {
                let immediate: Vec<u32> = closed
                    .interactive_from(s)
                    .iter()
                    .filter(|t| t.label.is_immediate())
                    .map(|t| t.to.index() as u32)
                    .collect();
                if !immediate.is_empty() {
                    CtmdpState::Immediate(immediate)
                } else {
                    CtmdpState::Markovian(
                        closed
                            .markovian_from(s)
                            .iter()
                            .map(|t| {
                                forms.push(t.rate.clone());
                                // The rate is a template placeholder; the
                                // kernel takes real rates per lane.
                                (t.to.index() as u32, 1.0)
                            })
                            .collect(),
                    )
                }
            })
            .collect();
        SweepTemplate {
            states,
            forms,
            initial: closed.initial().index(),
        }
    })
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ParametricAnalyzer>()
};

impl ParametricAnalyzer {
    /// Builds the parametric session: validates and converts the DFT with
    /// symbolic rates and runs compositional aggregation exactly once — per
    /// dynamic core for [`Method::Hybrid`], over the whole tree otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for [`Method::Monolithic`] options (the
    /// monolithic baseline has no parametric form) and propagates conversion
    /// and aggregation errors.
    pub fn new(dft: &Dft, options: AnalysisOptions) -> Result<ParametricAnalyzer> {
        match options.method {
            Method::Compositional => ParametricAnalyzer::compositional(dft, options),
            Method::Monolithic => Err(Error::Unsupported {
                message: "the monolithic baseline has no parametric form".to_owned(),
            }),
            Method::Hybrid => ParametricAnalyzer::hybrid(dft, options),
        }
    }

    fn compositional(dft: &Dft, options: AnalysisOptions) -> Result<ParametricAnalyzer> {
        let (community, params) = convert_parametric(dft)?;
        let model = aggregate_and_close(community)?;

        Ok(ParametricAnalyzer {
            options,
            repairable: dft.is_repairable(),
            aggregation: model.stats,
            ran_aggregation: true,
            model_stats: ModelStats::of(&model.closed),
            params,
            backend: ParametricBackend::Compositional {
                closed: model.closed,
                top_failure: model.top_failure,
                has_repair: model.has_repair,
                can: model.can,
                must: model.must,
                point_valued: model.point_valued,
                sweep_template: OnceLock::new(),
            },
        })
    }

    /// The parametric hybrid build: one nested parametric session per dynamic
    /// core, the crown on a BDD, with the same fallback rule as
    /// [`Analyzer::hybrid`] (repairable tree or non-deterministic core ⇒ full
    /// compositional pipeline under the [`Method::Hybrid`] label).
    fn hybrid(dft: &Dft, options: AnalysisOptions) -> Result<ParametricAnalyzer> {
        if dft.is_repairable() {
            return ParametricAnalyzer::compositional(dft, options);
        }
        // The session-global parameter table: exactly what
        // `convert_parametric` builds for an unrepairable tree — one failure
        // slot per basic event in element order — so valuations, base
        // valuations and slot lookups are identical across backends.
        let mut params = ParamTable::default();
        for id in dft.elements() {
            if let Element::BasicEvent(be) = dft.element(id) {
                params.push(dft.name(id), ParamKind::Failure, be.rate);
            }
        }

        let plan = hybrid_plan(dft);
        let core_options = AnalysisOptions {
            method: Method::Compositional,
            ..options
        };
        let mut cores = Vec::with_capacity(plan.cores.len());
        for core in &plan.cores {
            let analyzer = ParametricAnalyzer::compositional(&core.dft, core_options.clone())?;
            if analyzer.is_nondeterministic() {
                return ParametricAnalyzer::compositional(dft, options);
            }
            // Extraction preserves element names, so every core parameter maps
            // onto a global slot.
            let slots = analyzer
                .params
                .slots()
                .iter()
                .map(|slot| {
                    params
                        .slot_of(&slot.element, slot.kind)
                        .expect("core basic events are basic events of the tree")
                        as u32
                })
                .collect();
            cores.push(ParametricCore { analyzer, slots });
        }

        let mut leaves = vec![ParametricLeaf::Unused; dft.num_elements()];
        for &e in &plan.crown {
            if dft.element(e).as_basic_event().is_some() {
                let slot = params
                    .slot_of(dft.name(e), ParamKind::Failure)
                    .expect("every basic event has a failure slot");
                leaves[e.index()] = ParametricLeaf::Basic { slot: slot as u32 };
            }
        }
        for (index, core) in plan.cores.iter().enumerate() {
            leaves[core.exit.index()] = ParametricLeaf::Core { index };
        }
        let crown = Bdd::build(dft, dft.top(), |e| {
            !matches!(leaves[e.index()], ParametricLeaf::Unused)
        })?;

        Ok(ParametricAnalyzer {
            options,
            repairable: false,
            aggregation: merge_aggregation_stats(cores.iter().map(|c| &c.analyzer.aggregation)),
            ran_aggregation: true,
            model_stats: cores.iter().fold(ModelStats::default(), |acc, c| {
                add_model_stats(acc, c.analyzer.model_stats)
            }),
            params,
            backend: ParametricBackend::Hybrid {
                crown,
                leaves,
                cores,
                modules: plan.stats,
            },
        })
    }

    /// Instantiates the cached parametric model for one rate assignment,
    /// returning a numeric [`Analyzer`] ready to answer queries.
    ///
    /// Only the linear rate forms are evaluated (in deterministic slot order);
    /// no conversion, composition or minimisation is repeated — the returned
    /// session reports [`aggregation_runs`](Analyzer::aggregation_runs) `== 0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValuation`] when the valuation does not fit the
    /// model's [`ParamTable`] and propagates CTMDP construction errors.
    pub fn instantiate(&self, valuation: &Valuation) -> Result<Analyzer> {
        valuation.check_against(&self.params)?;
        let values = valuation.values();
        match &self.backend {
            ParametricBackend::Compositional {
                closed,
                top_failure,
                has_repair,
                can,
                must,
                point_valued,
                ..
            } => {
                let closed = closed.map_rates(|form| form.eval(values));
                debug_assert!(closed.validate().is_ok());

                let ctmdp_states = ctmdp_states_of(&closed);
                let initial = closed.initial().index();
                let upper = Ctmdp::new(ctmdp_states.clone(), initial, can.clone())?;
                let lower = Ctmdp::new(ctmdp_states, initial, must.clone())?;

                Ok(Analyzer {
                    options: self.options.clone(),
                    repairable: self.repairable,
                    // Instantiation runs no aggregation; the stats live on `self`.
                    aggregation: None,
                    model_stats: self.model_stats,
                    backend: Backend::Compositional {
                        closed,
                        top_failure: *top_failure,
                        has_repair: *has_repair,
                        point_valued: *point_valued,
                        upper,
                        lower,
                        tangible: OnceLock::new(),
                    },
                    ran_aggregation: false,
                })
            }
            ParametricBackend::Hybrid {
                crown,
                leaves,
                cores,
                modules,
            } => {
                // Instantiate every core through its slot projection; the
                // crown structure is shared (it does not depend on rates).
                let numeric_cores = cores
                    .iter()
                    .map(|core| {
                        let projected = Valuation::new(
                            core.slots.iter().map(|&s| values[s as usize]).collect(),
                        );
                        core.analyzer.instantiate(&projected)
                    })
                    .collect::<Result<Vec<Analyzer>>>()?;
                let numeric_leaves = leaves
                    .iter()
                    .map(|leaf| match leaf {
                        ParametricLeaf::Unused => HybridLeaf::Unused,
                        ParametricLeaf::Basic { slot } => HybridLeaf::Basic {
                            rate: values[*slot as usize],
                        },
                        ParametricLeaf::Core { index } => HybridLeaf::Core { index: *index },
                    })
                    .collect();
                Ok(Analyzer {
                    options: self.options.clone(),
                    repairable: self.repairable,
                    aggregation: None,
                    model_stats: self.model_stats,
                    backend: Backend::Hybrid {
                        crown: crown.clone(),
                        leaves: numeric_leaves,
                        cores: numeric_cores,
                        modules: *modules,
                    },
                    ran_aggregation: false,
                })
            }
        }
    }

    /// Evaluates one measure across a whole sweep of valuations with zero
    /// re-aggregations.
    ///
    /// Time-bounded measures ([`Measure::Unreliability`] and
    /// [`Measure::UnreliabilityCurve`]) run *batched*: every valuation
    /// becomes one lane of a [`RelaxKernel`], so the whole sweep costs one
    /// (or two, for non-deterministic models) traversal of the shared
    /// structure instead of one value iteration per point.  Each lane keeps
    /// its own uniformisation rate, so every result is bit-identical to
    /// [`instantiate`](Self::instantiate)` + `[`Analyzer::query`] on that
    /// valuation alone — and independent of the kernel's worker count.
    /// [`Measure::Unavailability`] and [`Measure::Mttf`] fall back to the
    /// per-point loop.
    ///
    /// # Errors
    ///
    /// Fails on the first invalid valuation or query error (see
    /// [`instantiate`](Self::instantiate) and [`Analyzer::query`]).  A sweep
    /// over zero valuations succeeds without validating the measure, like
    /// the per-point loop it replaces.
    pub fn sweep_query(&self, measure: &Measure, valuations: &[Valuation]) -> Result<RateSweep> {
        if valuations.is_empty() {
            return Ok(RateSweep {
                results: Vec::new(),
                instantiate_time: Duration::ZERO,
                query_time: Duration::ZERO,
            });
        }
        let times: &[f64] = match measure {
            Measure::Unreliability(t) => std::slice::from_ref(t),
            Measure::UnreliabilityCurve(times) => {
                if times.is_empty() {
                    return Err(Error::EmptyCurve);
                }
                times
            }
            Measure::Unavailability | Measure::Mttf => {
                return self.sweep_per_point(measure, valuations)
            }
        };
        self.sweep_batched(times, valuations)
    }

    /// The pre-kernel sweep loop: instantiate + query per valuation.  Still
    /// the path for measures the batched kernel does not cover.
    fn sweep_per_point(&self, measure: &Measure, valuations: &[Valuation]) -> Result<RateSweep> {
        let mut results = Vec::with_capacity(valuations.len());
        let mut instantiate_time = Duration::ZERO;
        let mut query_time = Duration::ZERO;
        for valuation in valuations {
            let started = Instant::now();
            let session = self.instantiate(valuation)?;
            instantiate_time += started.elapsed();
            let started = Instant::now();
            results.push(session.query(measure)?);
            query_time += started.elapsed();
        }
        Ok(RateSweep {
            results,
            instantiate_time,
            query_time,
        })
    }

    /// The batched sweep: K valuations become K lanes of one [`RelaxKernel`]
    /// built from the cached [`SweepTemplate`], and one value-iteration pass
    /// per goal set answers every lane and every time bound at once.
    fn sweep_batched(&self, times: &[f64], valuations: &[Valuation]) -> Result<RateSweep> {
        // Merge duplicate time bounds in first-occurrence order — the exact
        // plan `Analyzer::query_all` builds — so each lane reads the same
        // merged grid a per-point query would.
        let mut unique_times: Vec<f64> = Vec::new();
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        let slots = times
            .iter()
            .map(|&t| {
                validate_mission_time(t)?;
                Ok(*slot_of.entry(t.to_bits()).or_insert_with(|| {
                    unique_times.push(t);
                    unique_times.len() - 1
                }))
            })
            .collect::<Result<Vec<usize>>>()?;

        match &self.backend {
            ParametricBackend::Compositional {
                closed,
                can,
                must,
                point_valued,
                sweep_template,
                ..
            } => {
                let started = Instant::now();
                let template = lower_sweep_template(closed, sweep_template);
                let lanes = valuations.len();
                let mut lane_rates = vec![0.0f64; template.forms.len() * lanes];
                for (k, valuation) in valuations.iter().enumerate() {
                    valuation.check_against(&self.params)?;
                    let values = valuation.values();
                    // Same forms, same eval, same slot order as `map_rates`
                    // inside `instantiate` — lane k's rates carry identical
                    // bits.
                    for (e, form) in template.forms.iter().enumerate() {
                        lane_rates[e * lanes + k] = form.eval(values);
                    }
                }
                let kernel = RelaxKernel::from_template(&template.states, &lane_rates, lanes)?;
                let instantiate_time = started.elapsed();

                let started = Instant::now();
                let epsilon = self.options.epsilon;
                let workers = kernel.auto_workers();
                let uppers = kernel.reachability(
                    template.initial,
                    can,
                    &unique_times,
                    epsilon,
                    true,
                    workers,
                )?;
                let lowers = if *point_valued {
                    uppers.clone()
                } else {
                    kernel.reachability(
                        template.initial,
                        must,
                        &unique_times,
                        epsilon,
                        false,
                        workers,
                    )?
                };
                let results = (0..lanes)
                    .map(|k| {
                        let points: Vec<MeasurePoint> = unique_times
                            .iter()
                            .enumerate()
                            .map(|(slot, &t)| {
                                let hi = uppers[slot * lanes + k];
                                let lo = lowers[slot * lanes + k];
                                MeasurePoint::bounded(Some(t), point_valued.then_some(hi), (lo, hi))
                            })
                            .collect();
                        MeasureResult::new(slots.iter().map(|&slot| points[slot]).collect())
                    })
                    .collect();
                let query_time = started.elapsed();
                Ok(RateSweep {
                    results,
                    instantiate_time,
                    query_time,
                })
            }
            ParametricBackend::Hybrid {
                crown,
                leaves,
                cores,
                ..
            } => {
                let started = Instant::now();
                for valuation in valuations {
                    valuation.check_against(&self.params)?;
                }
                let mut instantiate_time = started.elapsed();
                let mut query_time = Duration::ZERO;

                // One nested batched sweep per core over the merged grid.
                // Each core sweep is bit-identical to instantiating that core
                // per valuation, so the whole hybrid sweep matches the
                // per-point hybrid path bit for bit.
                let measure = Measure::UnreliabilityCurve(unique_times.clone());
                // core_curves[core][lane][time slot]
                let mut core_curves: Vec<Vec<Vec<f64>>> = Vec::with_capacity(cores.len());
                for core in cores {
                    let projected: Vec<Valuation> = valuations
                        .iter()
                        .map(|v| {
                            let values = v.values();
                            Valuation::new(core.slots.iter().map(|&s| values[s as usize]).collect())
                        })
                        .collect();
                    let sweep = core.analyzer.sweep_query(&measure, &projected)?;
                    instantiate_time += sweep.instantiate_time();
                    query_time += sweep.query_time();
                    core_curves.push(
                        sweep
                            .results()
                            .iter()
                            .map(|result| result.points().iter().map(MeasurePoint::value).collect())
                            .collect(),
                    );
                }

                let started = Instant::now();
                let mut probabilities = vec![0.0f64; leaves.len()];
                let mut results = Vec::with_capacity(valuations.len());
                for (k, valuation) in valuations.iter().enumerate() {
                    let values = valuation.values();
                    let mut points = Vec::with_capacity(unique_times.len());
                    for (slot, &t) in unique_times.iter().enumerate() {
                        for (p, leaf) in probabilities.iter_mut().zip(leaves) {
                            *p = match leaf {
                                ParametricLeaf::Unused => 0.0,
                                ParametricLeaf::Basic { slot } => {
                                    -(-values[*slot as usize] * t).exp_m1()
                                }
                                ParametricLeaf::Core { index } => core_curves[*index][k][slot],
                            };
                        }
                        points.push(MeasurePoint::exact(
                            Some(t),
                            crown.probability(&probabilities),
                        ));
                    }
                    results.push(MeasureResult::new(
                        slots.iter().map(|&slot| points[slot]).collect(),
                    ));
                }
                query_time += started.elapsed();
                Ok(RateSweep {
                    results,
                    instantiate_time,
                    query_time,
                })
            }
        }
    }

    /// Convenience sweep of [`Measure::Unreliability`] at mission time `t`: the
    /// query surface of a rate-sensitivity study (one unreliability value per
    /// valuation, one aggregation total).
    ///
    /// # Errors
    ///
    /// Same as [`sweep_query`](Self::sweep_query).
    pub fn sweep_unreliability(&self, t: f64, valuations: &[Valuation]) -> Result<RateSweep> {
        self.sweep_query(&Measure::Unreliability(t), valuations)
    }

    /// The parameter slots of the model: what each slot means, its base value,
    /// and the [`Valuation`] constructors.
    pub fn params(&self) -> &ParamTable {
        &self.params
    }

    /// The valuation reproducing the original tree's rates.
    pub fn base_valuation(&self) -> Valuation {
        self.params.base_valuation()
    }

    /// The options the session was built with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Statistics of the (single) compositional aggregation run.
    pub fn aggregation_stats(&self) -> &AggregationStats {
        &self.aggregation
    }

    /// Size of the closed parametric model.
    pub fn model_stats(&self) -> ModelStats {
        self.model_stats
    }

    /// How many times this session has run compositional aggregation: 1 for a
    /// freshly built session — however many valuations were instantiated or
    /// swept — one per dynamic core for a hybrid build, and 0 for a session
    /// restored via [`from_bytes`](Self::from_bytes), which reuses the
    /// original builder's aggregation instead of running its own.
    pub fn aggregation_runs(&self) -> usize {
        match &self.backend {
            ParametricBackend::Hybrid { cores, .. } if self.ran_aggregation => cores.len(),
            _ => usize::from(self.ran_aggregation),
        }
    }

    /// Returns `true` if the parametric model contains immediate
    /// non-determinism, so instantiated sessions report scheduler bounds.
    pub fn is_nondeterministic(&self) -> bool {
        match &self.backend {
            ParametricBackend::Compositional { point_valued, .. } => !point_valued,
            // Hybrid sessions are only ever built from deterministic cores.
            ParametricBackend::Hybrid { .. } => false,
        }
    }

    /// The closed, minimised parametric I/O-IMC (compositional backend only; a
    /// hybrid session has one parametric model per core).
    pub fn final_model(&self) -> Option<&ParametricIoImc> {
        match &self.backend {
            ParametricBackend::Compositional { closed, .. } => Some(closed),
            ParametricBackend::Hybrid { .. } => None,
        }
    }

    /// The observable top-failure action of the cached model (compositional
    /// backend only).
    pub fn top_failure(&self) -> Option<Action> {
        match &self.backend {
            ParametricBackend::Compositional { top_failure, .. } => Some(*top_failure),
            ParametricBackend::Hybrid { .. } => None,
        }
    }

    /// The modularization record of the hybrid decomposition — same contract
    /// as [`Analyzer::module_stats`]: `Some` certifies that the decomposition
    /// actually happened rather than falling back.
    pub fn module_stats(&self) -> Option<ModuleStats> {
        match &self.backend {
            ParametricBackend::Hybrid { modules, .. } => Some(*modules),
            ParametricBackend::Compositional { .. } => None,
        }
    }

    /// Serializes the parametric session into the versioned binary container
    /// of the persistent model cache (see [`crate::store`]): the closed
    /// parametric quotient (rates as sparse linear forms), the
    /// [`ParamTable`], the precomputed can/must goal sets, statistics and
    /// options.
    ///
    /// The inverse is [`from_bytes`](Self::from_bytes); a restored session
    /// instantiates every valuation bit-identically to this one and reports
    /// [`aggregation_runs`](Self::aggregation_runs)` == 0`.
    pub fn to_bytes(&self) -> Vec<u8> {
        store::seal(
            store::Kind::Parametric,
            0,
            self.options.epsilon.to_bits(),
            &self.encode_payload(),
        )
    }

    /// Restores a session serialized with [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Store`] on truncated, corrupted or stale input; never
    /// panics on malformed bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<ParametricAnalyzer> {
        store::unseal(bytes, store::Kind::Parametric, None)
            .and_then(ParametricAnalyzer::decode_payload)
            .map_err(|e| Error::Store {
                message: e.to_string(),
            })
    }

    /// The unframed payload body of [`to_bytes`](Self::to_bytes).
    pub(crate) fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_body(&mut w);
        w.into_bytes()
    }

    /// Writes the session body onto a shared writer (hybrid payloads embed one
    /// body per core).  Compositional-method payloads keep the exact format-1
    /// byte layout; under [`Method::Hybrid`] a backend tag follows the model
    /// statistics (0 = compositional fallback, 2 = genuine hybrid).
    fn encode_body(&self, w: &mut Writer) {
        store::encode_options(&self.options, w);
        w.bool(self.repairable);
        store::encode_aggregation_stats(&self.aggregation, w);
        store::encode_model_stats(self.model_stats, w);
        match &self.backend {
            ParametricBackend::Compositional {
                closed,
                top_failure,
                has_repair,
                can,
                must,
                point_valued,
                sweep_template: _, // derived lazily and deterministically
            } => {
                if self.options.method == Method::Hybrid {
                    w.u8(0);
                }
                w.str(top_failure.name());
                w.bool(*has_repair);
                w.bool(*point_valued);
                encode_params(&self.params, w);
                codec::encode_model(closed, w);
                store::encode_bools(can, w);
                store::encode_bools(must, w);
            }
            ParametricBackend::Hybrid {
                crown,
                leaves,
                cores,
                modules,
            } => {
                w.u8(2);
                encode_params(&self.params, w);
                store::encode_module_stats(*modules, w);
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
                        ParametricLeaf::Unused => w.u8(0),
                        ParametricLeaf::Basic { slot } => {
                            w.u8(1);
                            w.u32(*slot);
                        }
                        ParametricLeaf::Core { index } => {
                            w.u8(2);
                            w.u32(u32::try_from(*index).expect("core count fits in u32"));
                        }
                    }
                }
                w.len_prefix(cores.len());
                for core in cores {
                    w.len_prefix(core.slots.len());
                    for &slot in &core.slots {
                        w.u32(slot);
                    }
                    core.analyzer.encode_body(w);
                }
            }
        }
    }

    /// Decodes a payload produced by [`encode_payload`](Self::encode_payload).
    pub(crate) fn decode_payload(payload: &[u8]) -> DecodeResult<ParametricAnalyzer> {
        let mut r = Reader::new(payload);
        let session = ParametricAnalyzer::decode_body(&mut r)?;
        if !r.is_done() {
            return Err(DecodeError::new(
                "trailing bytes after the parametric payload",
            ));
        }
        Ok(session)
    }

    /// Reads one parametric session body from a shared reader (the inverse of
    /// [`encode_body`](Self::encode_body)).
    fn decode_body(r: &mut Reader) -> DecodeResult<ParametricAnalyzer> {
        let options = store::decode_options(r)?;
        if options.method == Method::Monolithic {
            return Err(DecodeError::new("parametric sessions are never monolithic"));
        }
        let repairable = r.bool()?;
        let aggregation = store::decode_aggregation_stats(r)?;
        let model_stats = store::decode_model_stats(r)?;
        let backend_tag = if options.method == Method::Hybrid {
            r.u8()?
        } else {
            0
        };
        let (params, backend) = match backend_tag {
            0 => {
                let top_failure = Action::new(&r.str()?);
                let has_repair = r.bool()?;
                let point_valued = r.bool()?;
                let params = decode_params(r)?;
                let closed = codec::decode_model::<ioimc::RateForm>(r)?;
                // Every rate form must stay inside the decoded parameter table —
                // `RateForm::eval` indexes the valuation unchecked at
                // instantiation time, so an out-of-range slot in a corrupted
                // entry must die here.
                for t in closed.markovian() {
                    if let Some(max_slot) = t.rate.max_slot() {
                        if max_slot as usize >= params.len() {
                            return Err(DecodeError::new(format!(
                                "rate form references slot {max_slot} but the table has {} slots",
                                params.len()
                            )));
                        }
                    }
                }
                let can = store::decode_bools(r)?;
                let must = store::decode_bools(r)?;
                if can.len() != closed.num_states() || must.len() != closed.num_states() {
                    return Err(DecodeError::new(
                        "goal-set lengths disagree with the closed model",
                    ));
                }
                (
                    params,
                    ParametricBackend::Compositional {
                        closed,
                        top_failure,
                        has_repair,
                        can,
                        must,
                        point_valued,
                        sweep_template: OnceLock::new(),
                    },
                )
            }
            2 => {
                if repairable {
                    return Err(DecodeError::new(
                        "a hybrid decomposition cannot be repairable",
                    ));
                }
                let params = decode_params(r)?;
                let modules = store::decode_module_stats(r)?;
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
                        0 => ParametricLeaf::Unused,
                        1 => {
                            let slot = r.u32()?;
                            if slot as usize >= params.len() {
                                return Err(DecodeError::new(
                                    "crown leaf references a missing parameter slot",
                                ));
                            }
                            ParametricLeaf::Basic { slot }
                        }
                        2 => ParametricLeaf::Core {
                            index: r.u32()? as usize,
                        },
                        tag => {
                            return Err(DecodeError::new(format!("unknown hybrid leaf tag {tag}")))
                        }
                    });
                }
                let n_cores = r.len_prefix(1)?;
                let mut cores = Vec::with_capacity(n_cores);
                for _ in 0..n_cores {
                    let n_slots = r.len_prefix(4)?;
                    let mut slots = Vec::with_capacity(n_slots);
                    for _ in 0..n_slots {
                        let slot = r.u32()?;
                        if slot as usize >= params.len() {
                            return Err(DecodeError::new(
                                "core projection references a missing parameter slot",
                            ));
                        }
                        slots.push(slot);
                    }
                    let analyzer = ParametricAnalyzer::decode_body(r)?;
                    if analyzer.options.method != Method::Compositional
                        || analyzer.is_nondeterministic()
                    {
                        return Err(DecodeError::new(
                            "hybrid cores must be deterministic compositional sessions",
                        ));
                    }
                    if slots.len() != analyzer.params.len() {
                        return Err(DecodeError::new(
                            "core projection length disagrees with the core's parameter table",
                        ));
                    }
                    cores.push(ParametricCore { analyzer, slots });
                }
                for leaf in &leaves {
                    if let ParametricLeaf::Core { index } = leaf {
                        if *index >= cores.len() {
                            return Err(DecodeError::new("hybrid leaf references a missing core"));
                        }
                    }
                }
                for var in crown.support() {
                    if !matches!(
                        leaves.get(var.index()),
                        Some(ParametricLeaf::Basic { .. } | ParametricLeaf::Core { .. })
                    ) {
                        return Err(DecodeError::new("crown BDD references an unused leaf"));
                    }
                }
                (
                    params,
                    ParametricBackend::Hybrid {
                        crown,
                        leaves,
                        cores,
                        modules,
                    },
                )
            }
            tag => {
                return Err(DecodeError::new(format!(
                    "unknown parametric backend tag {tag}"
                )))
            }
        };
        Ok(ParametricAnalyzer {
            options,
            repairable,
            aggregation,
            ran_aggregation: false,
            model_stats,
            params,
            backend,
        })
    }
}

/// Shared [`ParamTable`] codec for the parametric payload layouts.
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

fn decode_params(r: &mut Reader) -> DecodeResult<ParamTable> {
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

/// The result of a rate sweep: one [`MeasureResult`] per valuation, in request
/// order, plus the wall-clock split between instantiation and querying.
#[derive(Debug, Clone)]
pub struct RateSweep {
    results: Vec<MeasureResult>,
    instantiate_time: Duration,
    query_time: Duration,
}

impl RateSweep {
    /// One result per valuation, in the order the valuations were passed.
    pub fn results(&self) -> &[MeasureResult] {
        &self.results
    }

    /// The scalar values of all results, in valuation order (see
    /// [`MeasureResult::value`] for the non-determinism convention).
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.results.iter().map(MeasureResult::value)
    }

    /// Number of valuations evaluated.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Returns `true` for a sweep over no valuations.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Total time spent evaluating rate forms and building CTMDPs.
    pub fn instantiate_time(&self) -> Duration {
        self.instantiate_time
    }

    /// Total time spent answering the measure queries.
    pub fn query_time(&self) -> Duration {
        self.query_time
    }
}

/// Rejects mission times no transient analysis can answer — NaN, infinite or
/// negative — with a typed error at the query boundary, so they never reach
/// the uniformisation routines (which would report them as an untyped
/// numerical [`markov::Error::InvalidValue`] from deep inside
/// `Ctmc::transient`).
fn validate_mission_time(t: f64) -> Result<()> {
    if t.is_finite() && t >= 0.0 {
        Ok(())
    } else {
        Err(Error::InvalidMissionTime { value: t })
    }
}

/// Converts a closed I/O-IMC into the CTMDP state vector used by the `markov`
/// crate: urgent states offer their immediate successors as a non-deterministic
/// choice, all other states race their Markovian transitions.
fn ctmdp_states_of(closed: &IoImc) -> Vec<CtmdpState> {
    closed
        .states()
        .map(|s| {
            let immediate: Vec<u32> = closed
                .interactive_from(s)
                .iter()
                .filter(|t| t.label.is_immediate())
                .map(|t| t.to.index() as u32)
                .collect();
            if !immediate.is_empty() {
                CtmdpState::Immediate(immediate)
            } else {
                CtmdpState::Markovian(
                    closed
                        .markovian_from(s)
                        .iter()
                        .map(|t| (t.to.index() as u32, t.rate))
                        .collect(),
                )
            }
        })
        .collect()
}

/// Eliminates the remaining immediate (vanishing) states of a closed, deterministic
/// I/O-IMC and returns the embedded CTMC together with a boolean label vector for
/// the given atomic proposition.
///
/// # Errors
///
/// Returns [`Error::Ioimc`] wrapping a non-determinism error if some vanishing
/// state has more than one immediate successor, and [`Error::Unsupported`] if an
/// immediate cycle (divergence) survives into the closed model — such a chain has
/// no embedded CTMC.
fn extract_ctmc_with_label(closed: &IoImc, prop: &str) -> Result<(Ctmc, Vec<bool>)> {
    check_deterministic(closed).map_err(Error::from)?;
    let prop_id = closed.prop(prop);

    // Resolve each state to the non-urgent state its immediate chain ends in; an
    // immediate cycle never reaches one, which surfaces as an error rather than a
    // panic further down.
    let resolve = |start: ioimc::StateId| -> Result<ioimc::StateId> {
        let mut current = start;
        let mut hops = 0;
        loop {
            let next = closed
                .interactive_from(current)
                .iter()
                .find(|t| t.label.is_immediate())
                .map(|t| t.to);
            match next {
                Some(n) => {
                    current = n;
                    hops += 1;
                    if hops > closed.num_states() {
                        return Err(Error::Unsupported {
                            message: format!(
                                "the closed model diverges: state {} starts a cycle of \
                                 immediate transitions, so no embedded CTMC exists",
                                start.index()
                            ),
                        });
                    }
                }
                None => return Ok(current),
            }
        }
    };

    // Tangible states (no outgoing immediate transition) form the CTMC.
    let tangible: Vec<ioimc::StateId> = closed.states().filter(|&s| !closed.is_urgent(s)).collect();
    let index_of = |s: ioimc::StateId| -> u32 {
        tangible
            .binary_search(&s)
            .expect("resolve() only returns non-urgent states, which are all tangible")
            as u32
    };

    let mut transitions: Vec<(u32, u32, f64)> = Vec::new();
    for &s in &tangible {
        for t in closed.markovian_from(s) {
            transitions.push((index_of(s), index_of(resolve(t.to)?), t.rate));
        }
    }
    let initial = index_of(resolve(closed.initial())?) as usize;
    let ctmc = Ctmc::from_transitions(tangible.len(), initial, &transitions)?;
    let labels = tangible
        .iter()
        .map(|&s| prop_id.map(|p| closed.has_prop(s, p)).unwrap_or(false))
        .collect();
    Ok((ctmc, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft::{DftBuilder, Dormancy};

    fn exp_cdf(rate: f64, t: f64) -> f64 {
        1.0 - (-rate * t).exp()
    }

    #[test]
    fn one_session_serves_every_measure() {
        let mut b = DftBuilder::new();
        let p = b.basic_event("en_P", 1.0, Dormancy::Hot).unwrap();
        let s = b.basic_event("en_S", 1.0, Dormancy::Cold).unwrap();
        let top = b.spare_gate("en_Top", &[p, s]).unwrap();
        let dft = b.build(top).unwrap();
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();

        // Erlang(2, 1) failure time.
        let t = 1.0;
        let r = analyzer.unreliability(t).unwrap();
        let exact = 1.0 - (-t).exp() * (1.0 + t);
        assert!((r.value() - exact).abs() < 1e-6, "{} vs {exact}", r.value());
        assert!(!r.is_nondeterministic());

        let mttf = analyzer.mttf().unwrap();
        assert!((mttf.value() - 2.0).abs() < 1e-6, "{}", mttf.value());

        assert!(analyzer.unavailability().is_err(), "not repairable");
        assert_eq!(analyzer.aggregation_runs(), 1);
        assert!(analyzer.aggregation_stats().is_some());
        assert!(analyzer.model_stats().states > 0);
        assert!(analyzer.final_model().is_some());
        assert!(analyzer.top_failure().is_some());
    }

    #[test]
    fn curve_points_match_single_time_queries_exactly() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("en2_X", 0.7, Dormancy::Hot).unwrap();
        let y = b.basic_event("en2_Y", 1.3, Dormancy::Hot).unwrap();
        let top = b.and_gate("en2_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();

        let times = [0.1, 0.5, 1.0, 2.0, 4.0];
        let curve = analyzer.unreliability_curve(&times).unwrap();
        assert_eq!(curve.len(), times.len());
        for (point, &t) in curve.points().iter().zip(&times) {
            assert_eq!(point.time(), Some(t));
            let single = analyzer.unreliability(t).unwrap();
            assert_eq!(point.value().to_bits(), single.value().to_bits());
            let exact = exp_cdf(0.7, t) * exp_cdf(1.3, t);
            assert!((point.value() - exact).abs() < 1e-7);
        }
    }

    #[test]
    fn monolithic_sessions_answer_curves_too() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("en3_X", 1.0, Dormancy::Hot).unwrap();
        let top = b.or_gate("en3_Top", &[x]).unwrap();
        let dft = b.build(top).unwrap();
        let analyzer = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Monolithic,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        assert_eq!(analyzer.aggregation_runs(), 0);
        assert!(analyzer.aggregation_stats().is_none());
        let curve = analyzer.unreliability_curve(&[0.5, 1.0]).unwrap();
        for (point, t) in curve.points().iter().zip([0.5, 1.0]) {
            assert!((point.value() - exp_cdf(1.0, t)).abs() < 1e-7);
        }
        assert!(analyzer.unavailability().is_err());
        assert!((analyzer.mttf().unwrap().value() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn repairable_sessions_serve_unavailability() {
        let mut b = DftBuilder::new();
        let x = b
            .repairable_basic_event("en4_X", 1.0, Dormancy::Hot, 9.0)
            .unwrap();
        let top = b.or_gate("en4_Top", &[x]).unwrap();
        let dft = b.build(top).unwrap();
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();
        let u = analyzer.unavailability().unwrap();
        assert!((u.value() - 0.1).abs() < 1e-6, "{}", u.value());
        assert!(!u.is_nondeterministic());
        // The same session also answers unreliability and MTTF queries.
        let r = analyzer.unreliability(1.0).unwrap();
        assert!(r.value() > 0.0 && r.value() < 1.0);
        let mttf = analyzer.mttf().unwrap();
        assert!((mttf.value() - 1.0).abs() < 1e-6, "{}", mttf.value());
        assert_eq!(analyzer.aggregation_runs(), 1);
    }

    fn bits_of(result: &MeasureResult) -> Vec<(Option<u64>, u64, u64, u64)> {
        result
            .points()
            .iter()
            .map(|p| {
                (
                    p.time().map(f64::to_bits),
                    p.value().to_bits(),
                    p.bounds().0.to_bits(),
                    p.bounds().1.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn sessions_round_trip_bit_identically_through_bytes() {
        let mut b = DftBuilder::new();
        let p = b.basic_event("en6_P", 1.0, Dormancy::Hot).unwrap();
        let s = b.basic_event("en6_S", 1.0, Dormancy::Cold).unwrap();
        let top = b.spare_gate("en6_Top", &[p, s]).unwrap();
        let dft = b.build(top).unwrap();
        let built = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();
        let restored = Analyzer::from_bytes(&built.to_bytes()).unwrap();

        assert_eq!(restored.aggregation_runs(), 0, "no pipeline ran on restore");
        assert_eq!(built.aggregation_runs(), 1);
        let built_stats = built.aggregation_stats().unwrap();
        let restored_stats = restored.aggregation_stats().unwrap();
        assert_eq!(restored_stats.peak, built_stats.peak);
        assert_eq!(restored_stats.steps.len(), built_stats.steps.len());
        assert_eq!(restored.model_stats(), built.model_stats());

        let measures = [
            Measure::Unreliability(1.0),
            Measure::curve([0.25, 0.5, 1.0, 2.0]),
            Measure::Mttf,
        ];
        for measure in &measures {
            let a = built.query(measure).unwrap();
            let b = restored.query(measure).unwrap();
            assert_eq!(bits_of(&a), bits_of(&b), "{measure:?} must round-trip");
        }
    }

    #[test]
    fn monolithic_sessions_round_trip_too() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("en7_X", 0.7, Dormancy::Hot).unwrap();
        let y = b.basic_event("en7_Y", 1.3, Dormancy::Hot).unwrap();
        let top = b.and_gate("en7_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let built = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Monolithic,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        let restored = Analyzer::from_bytes(&built.to_bytes()).unwrap();
        assert_eq!(restored.method(), Method::Monolithic);
        let a = built.query(Measure::curve([0.5, 1.0])).unwrap();
        let b = restored.query(Measure::curve([0.5, 1.0])).unwrap();
        assert_eq!(bits_of(&a), bits_of(&b));
        let a = built.mttf().unwrap();
        let b = restored.mttf().unwrap();
        assert_eq!(a.value().to_bits(), b.value().to_bits());
    }

    #[test]
    fn repairable_sessions_round_trip_with_unavailability() {
        let mut b = DftBuilder::new();
        let x = b
            .repairable_basic_event("en8_X", 1.0, Dormancy::Hot, 9.0)
            .unwrap();
        let top = b.or_gate("en8_Top", &[x]).unwrap();
        let dft = b.build(top).unwrap();
        let built = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();
        let restored = Analyzer::from_bytes(&built.to_bytes()).unwrap();
        // Unavailability exercises the lazily extracted tangible CTMC, which
        // the restored session re-derives from the decoded closed model.
        let a = built.unavailability().unwrap();
        let b = restored.unavailability().unwrap();
        assert_eq!(a.value().to_bits(), b.value().to_bits());
    }

    #[test]
    fn parametric_sessions_round_trip_bit_identically_through_bytes() {
        let mut b = DftBuilder::new();
        let p = b.basic_event("en9_P", 0.8, Dormancy::Hot).unwrap();
        let s = b.basic_event("en9_S", 1.2, Dormancy::Cold).unwrap();
        let top = b.spare_gate("en9_Top", &[p, s]).unwrap();
        let dft = b.build(top).unwrap();
        let built = ParametricAnalyzer::new(&dft, AnalysisOptions::default()).unwrap();
        let restored = ParametricAnalyzer::from_bytes(&built.to_bytes()).unwrap();

        assert_eq!(restored.aggregation_runs(), 0);
        assert_eq!(built.aggregation_runs(), 1);
        assert_eq!(restored.params(), built.params());
        assert_eq!(restored.model_stats(), built.model_stats());

        for scale in [0.5, 1.0, 2.5] {
            let valuation = built.params().scaled_valuation(scale);
            let a = built.instantiate(&valuation).unwrap();
            let b = restored.instantiate(&valuation).unwrap();
            assert_eq!(b.aggregation_runs(), 0);
            let qa = a.query(Measure::curve([0.5, 1.0])).unwrap();
            let qb = b.query(Measure::curve([0.5, 1.0])).unwrap();
            assert_eq!(bits_of(&qa), bits_of(&qb));
        }
    }

    #[test]
    fn batched_sweeps_match_per_point_queries_bit_for_bit() {
        // A nondeterministic model (FDEP trigger under a PAND) exercises both
        // the optimistic and pessimistic kernel passes of the batched sweep.
        let mut b = DftBuilder::new();
        let t = b.basic_event("en11_T", 0.5, Dormancy::Hot).unwrap();
        let x = b.basic_event("en11_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("en11_Y", 1.3, Dormancy::Hot).unwrap();
        let _f = b.fdep_gate("en11_F", t, &[x, y]).unwrap();
        let top = b.pand_gate("en11_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let parametric = ParametricAnalyzer::new(&dft, AnalysisOptions::default()).unwrap();
        assert!(parametric.is_nondeterministic());

        let valuations: Vec<Valuation> = [0.6, 1.0, 1.7]
            .iter()
            .map(|&s| parametric.params().scaled_valuation(s))
            .collect();
        // A curve with a duplicate time bound exercises the merged-grid plan.
        let measure = Measure::curve([0.4, 1.0, 0.4, 2.0]);
        for cap in [1usize, 2, 4] {
            markov::kernel::set_max_workers(cap);
            let sweep = parametric.sweep_query(&measure, &valuations).unwrap();
            assert_eq!(sweep.len(), valuations.len());
            for (valuation, result) in valuations.iter().zip(sweep.results()) {
                let reference = parametric
                    .instantiate(valuation)
                    .unwrap()
                    .query(measure.clone())
                    .unwrap();
                assert_eq!(bits_of(result), bits_of(&reference), "cap {cap}");
            }
        }
        markov::kernel::set_max_workers(0);

        // An empty sweep stays a no-op, and an empty curve still errors when
        // there is at least one valuation to evaluate it for.
        assert!(parametric.sweep_query(&measure, &[]).unwrap().is_empty());
        assert!(parametric
            .sweep_query(&Measure::curve([]), &valuations)
            .is_err());
        assert!(parametric
            .sweep_query(&Measure::curve([]), &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn point_valued_sweeps_batch_through_one_pass() {
        // A deterministic model takes the point-valued shortcut (the lower
        // pass is the upper pass); results must still match per-point queries.
        let mut b = DftBuilder::new();
        let p = b.basic_event("en12_P", 0.8, Dormancy::Hot).unwrap();
        let s = b.basic_event("en12_S", 1.2, Dormancy::Cold).unwrap();
        let top = b.spare_gate("en12_Top", &[p, s]).unwrap();
        let dft = b.build(top).unwrap();
        let parametric = ParametricAnalyzer::new(&dft, AnalysisOptions::default()).unwrap();
        assert!(!parametric.is_nondeterministic());

        let valuations: Vec<Valuation> = [1.0, 1.5]
            .iter()
            .map(|&s| parametric.params().scaled_valuation(s))
            .collect();
        let sweep = parametric.sweep_unreliability(0.9, &valuations).unwrap();
        for (valuation, result) in valuations.iter().zip(sweep.results()) {
            assert!(!result.is_nondeterministic());
            let reference = parametric
                .instantiate(valuation)
                .unwrap()
                .unreliability(0.9)
                .unwrap();
            assert_eq!(bits_of(result), bits_of(&reference));
        }
    }

    #[test]
    fn from_bytes_rejects_garbage_without_panicking() {
        assert!(Analyzer::from_bytes(&[]).is_err());
        assert!(Analyzer::from_bytes(b"not a store entry at all").is_err());
        assert!(ParametricAnalyzer::from_bytes(&[0xff; 64]).is_err());

        let mut bt = DftBuilder::new();
        let x = bt.basic_event("en10_X", 1.0, Dormancy::Hot).unwrap();
        let top = bt.or_gate("en10_Top", &[x]).unwrap();
        let dft = bt.build(top).unwrap();
        let bytes = Analyzer::new(&dft, AnalysisOptions::default())
            .unwrap()
            .to_bytes();
        // Session bytes are not parametric bytes (the kind tag differs) …
        assert!(ParametricAnalyzer::from_bytes(&bytes).is_err());
        // … every truncation fails cleanly …
        for cut in [0, 4, 9, 17, 33, bytes.len() - 1] {
            assert!(Analyzer::from_bytes(&bytes[..cut]).is_err());
        }
        // … and any flipped payload byte trips the checksum.
        for i in (41..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(Analyzer::from_bytes(&bad).is_err());
        }
    }

    #[test]
    fn nondeterministic_models_report_bounds() {
        // FDEP trigger feeding both inputs of a PAND (Figure 6a): the failure
        // order is unresolved, so unreliability is an interval.
        let mut b = DftBuilder::new();
        let t = b.basic_event("en5_T", 0.5, Dormancy::Hot).unwrap();
        let x = b.basic_event("en5_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("en5_Y", 1.0, Dormancy::Hot).unwrap();
        let _f = b.fdep_gate("en5_F", t, &[x, y]).unwrap();
        let top = b.pand_gate("en5_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();
        assert!(analyzer.is_nondeterministic());
        let r = analyzer.unreliability(1.0).unwrap();
        assert!(r.is_nondeterministic());
        let (lo, hi) = r.bounds();
        assert!(lo < hi, "bounds ({lo}, {hi}) should be a proper interval");
        // MTTF needs a CTMC; the CTMDP must be rejected, not mis-analysed.
        assert!(analyzer.mttf().is_err());
    }

    /// A mixed tree whose dynamic core (a spare pair) sits under a static
    /// crown: OR(SPARE(P, S), AND(X, Y)).
    fn mixed_tree(prefix: &str) -> Dft {
        let mut b = DftBuilder::new();
        let p = b
            .basic_event(&format!("{prefix}_P"), 1.0, Dormancy::Hot)
            .unwrap();
        let s = b
            .basic_event(&format!("{prefix}_S"), 1.0, Dormancy::Cold)
            .unwrap();
        let core = b.spare_gate(&format!("{prefix}_Core"), &[p, s]).unwrap();
        let x = b
            .basic_event(&format!("{prefix}_X"), 0.5, Dormancy::Hot)
            .unwrap();
        let y = b
            .basic_event(&format!("{prefix}_Y"), 0.25, Dormancy::Hot)
            .unwrap();
        let stat = b.and_gate(&format!("{prefix}_Stat"), &[x, y]).unwrap();
        let top = b.or_gate(&format!("{prefix}_Top"), &[core, stat]).unwrap();
        b.build(top).unwrap()
    }

    #[test]
    fn hybrid_matches_compositional_on_a_mixed_tree() {
        let dft = mixed_tree("en13");
        let options = AnalysisOptions {
            epsilon: 1e-13,
            ..AnalysisOptions::default()
        };
        let reference = Analyzer::new(&dft, options.clone()).unwrap();
        let hybrid = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Hybrid,
                ..options
            },
        )
        .unwrap();

        assert_eq!(hybrid.method(), Method::Hybrid);
        let modules = hybrid
            .module_stats()
            .expect("the decomposition must happen");
        assert_eq!(modules.core_count, 1);
        assert!(
            hybrid.model_stats().states < reference.model_stats().states,
            "{} vs {}",
            hybrid.model_stats().states,
            reference.model_stats().states
        );
        // One aggregation pipeline per core.
        assert_eq!(hybrid.aggregation_runs(), 1);
        assert!(hybrid.aggregation_stats().is_some());
        assert!(!hybrid.is_nondeterministic());

        let times = [0.25, 0.5, 1.0, 2.0];
        let h = hybrid.unreliability_curve(&times).unwrap();
        let c = reference.unreliability_curve(&times).unwrap();
        for (hp, cp) in h.points().iter().zip(c.points()) {
            assert!(
                (hp.value() - cp.value()).abs() < 1e-12,
                "{} vs {}",
                hp.value(),
                cp.value()
            );
        }
        // MTTF and unavailability are outside the hybrid crown's scope.
        assert!(hybrid.mttf().is_err());
        assert!(hybrid.unavailability().is_err());
    }

    #[test]
    fn hybrid_on_a_fully_static_tree_needs_no_states_at_all() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("en14_X", 0.5, Dormancy::Hot).unwrap();
        let y = b.basic_event("en14_Y", 1.0, Dormancy::Hot).unwrap();
        let z = b.basic_event("en14_Z", 2.0, Dormancy::Hot).unwrap();
        let vote = b.voting_gate("en14_Top", 2, &[x, y, z]).unwrap();
        let dft = b.build(vote).unwrap();
        let hybrid = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Hybrid,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        let modules = hybrid.module_stats().unwrap();
        assert_eq!(modules.core_count, 0);
        assert_eq!(hybrid.model_stats().states, 0);
        assert_eq!(hybrid.aggregation_runs(), 0);

        // 2-of-3 closed form: sum of pairs minus twice the triple.
        let t = 0.8;
        let (px, py, pz) = (exp_cdf(0.5, t), exp_cdf(1.0, t), exp_cdf(2.0, t));
        let exact = px * py + px * pz + py * pz - 2.0 * px * py * pz;
        let r = hybrid.unreliability(t).unwrap();
        assert!(
            (r.value() - exact).abs() < 1e-14,
            "{} vs {exact}",
            r.value()
        );
    }

    #[test]
    fn hybrid_falls_back_for_repairable_and_nondeterministic_trees() {
        // Repairable tree: the fallback must still serve unavailability.
        let mut b = DftBuilder::new();
        let x = b
            .repairable_basic_event("en15_X", 1.0, Dormancy::Hot, 2.0)
            .unwrap();
        let top = b.or_gate("en15_Top", &[x]).unwrap();
        let dft = b.build(top).unwrap();
        let hybrid = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Hybrid,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        assert_eq!(hybrid.method(), Method::Hybrid);
        assert!(hybrid.module_stats().is_none(), "fallback, not hybrid");
        // Steady-state unavailability of a single repairable event: λ/(λ+μ).
        let u = hybrid.unavailability().unwrap();
        assert!((u.value() - 1.0 / 3.0).abs() < 1e-6, "{}", u.value());

        // Non-deterministic core (FDEP trigger into a PAND): the hybrid label
        // must keep reporting honest scheduler bounds via the fallback.
        let mut b = DftBuilder::new();
        let t = b.basic_event("en15_T", 0.5, Dormancy::Hot).unwrap();
        let p = b.basic_event("en15_P", 1.0, Dormancy::Hot).unwrap();
        let q = b.basic_event("en15_Q", 1.0, Dormancy::Hot).unwrap();
        let _f = b.fdep_gate("en15_F", t, &[p, q]).unwrap();
        let pand = b.pand_gate("en15_Pand", &[p, q]).unwrap();
        let dft = b.build(pand).unwrap();
        let hybrid = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Hybrid,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        assert!(hybrid.module_stats().is_none(), "fallback, not hybrid");
        assert!(hybrid.is_nondeterministic());
        let r = hybrid.unreliability(1.0).unwrap();
        let (lo, hi) = r.bounds();
        assert!(lo < hi);
    }

    #[test]
    fn hybrid_sessions_roundtrip_through_bytes() {
        let dft = mixed_tree("en16");
        let options = AnalysisOptions {
            method: Method::Hybrid,
            ..AnalysisOptions::default()
        };
        let hybrid = Analyzer::new(&dft, options).unwrap();
        let restored = Analyzer::from_bytes(&hybrid.to_bytes()).unwrap();

        assert_eq!(restored.method(), Method::Hybrid);
        assert_eq!(restored.module_stats(), hybrid.module_stats());
        assert_eq!(restored.model_stats(), hybrid.model_stats());
        assert_eq!(
            restored.aggregation_runs(),
            0,
            "restored sessions ran nothing"
        );

        let measure = Measure::UnreliabilityCurve(vec![0.5, 1.0, 3.0]);
        assert_eq!(
            bits_of(&hybrid.query(&measure).unwrap()),
            bits_of(&restored.query(&measure).unwrap()),
            "a restored hybrid session must answer bit-identically"
        );

        // Corruption safety: truncations and bit flips die cleanly.
        let bytes = hybrid.to_bytes();
        for cut in [0, 4, 9, 17, 33, bytes.len() - 1] {
            assert!(Analyzer::from_bytes(&bytes[..cut]).is_err());
        }
        for i in (41..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(Analyzer::from_bytes(&bad).is_err());
        }
    }

    #[test]
    fn parametric_hybrid_matches_instantiate_plus_query() {
        let dft = mixed_tree("en17");
        let options = AnalysisOptions {
            method: Method::Hybrid,
            ..AnalysisOptions::default()
        };
        let parametric = ParametricAnalyzer::new(&dft, options.clone()).unwrap();
        assert!(parametric.module_stats().is_some());
        assert_eq!(parametric.aggregation_runs(), 1);

        // The parameter surface is the same table the compositional session
        // exposes: one failure slot per basic event, in element order.
        let reference = ParametricAnalyzer::new(&dft, AnalysisOptions::default()).unwrap();
        assert_eq!(
            parametric.params().len(),
            reference.params().len(),
            "hybrid and compositional sessions must agree on the slots"
        );

        let valuations: Vec<Valuation> = (1..=4)
            .map(|i| parametric.params().scaled_valuation(i as f64 * 0.5))
            .collect();
        let measure = Measure::UnreliabilityCurve(vec![0.5, 1.0, 2.0]);
        let sweep = parametric.sweep_query(&measure, &valuations).unwrap();

        for (valuation, swept) in valuations.iter().zip(sweep.results()) {
            // Bit-identical to the per-point path on the hybrid session …
            let direct = parametric
                .instantiate(valuation)
                .unwrap()
                .query(&measure)
                .unwrap();
            assert_eq!(bits_of(swept), bits_of(&direct));
            // … and within tolerance of the compositional reference.
            let full = reference
                .instantiate(valuation)
                .unwrap()
                .query(&measure)
                .unwrap();
            for (hp, cp) in swept.points().iter().zip(full.points()) {
                assert!(
                    (hp.value() - cp.value()).abs() < 1e-7,
                    "{} vs {}",
                    hp.value(),
                    cp.value()
                );
            }
        }

        // The parametric hybrid session roundtrips through bytes.
        let restored = ParametricAnalyzer::from_bytes(&parametric.to_bytes()).unwrap();
        assert_eq!(restored.module_stats(), parametric.module_stats());
        assert_eq!(restored.aggregation_runs(), 0);
        let base = parametric.base_valuation();
        assert_eq!(
            bits_of(
                &restored
                    .instantiate(&base)
                    .unwrap()
                    .query(&measure)
                    .unwrap()
            ),
            bits_of(
                &parametric
                    .instantiate(&base)
                    .unwrap()
                    .query(&measure)
                    .unwrap()
            ),
        );
    }
}
