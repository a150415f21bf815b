//! The session-style analysis engine: build the model once, query it many times.
//!
//! The paper's pipeline — convert the DFT to an I/O-IMC community, then
//! compose/hide/minimise it down to one small model — is by far the most expensive
//! part of an analysis, yet it does not depend on the measure being asked, nor
//! on the rate domain.  One generic [`Session`] therefore runs validation,
//! conversion and compositional aggregation (or monolithic CTMC generation)
//! *exactly once*, caches the closed final model together with its
//! [`AggregationStats`]/[`ModelStats`], and then serves the cached model:
//!
//! * an [`Analyzer`] (`Session<f64>`) answers any number of typed [`Measure`]
//!   queries;
//! * a [`ParametricAnalyzer`] (`Session<RateForm>`) keeps the rates as linear
//!   forms over parameter slots and turns into an [`Analyzer`] for any rate
//!   [`Valuation`] through [`instantiate`](ParametricAnalyzer::instantiate), or
//!   answers a whole sweep of valuations at once through
//!   [`sweep_query`](ParametricAnalyzer::sweep_query).
//!
//! ```text
//! Session::new:   DFT ──convert──▶ community (+ monitor) ──aggregate──▶ model
//! query_all(…):   the session's own rates ──▶ 1 lane  ─┐
//! sweep_query(…): one valuation per lane ───▶ K lanes ─┴─▶ evaluate:
//!   time bounds:  merged grid ──one uniformisation pass, all lanes──▶ unreliability
//!   per lane:     tangible CTMC ──steady state───▶ unavailability
//!                               ──first passage──▶ MTTF
//! instantiate:    symbolic model ──evaluate rate forms──▶ numeric model
//! ```
//!
//! Every answer, in either rate domain, comes from one private evaluator
//! over a set of *lanes*: [`query`](Analyzer::query) and
//! [`query_all`](Analyzer::query_all) are the one lane of the session's own
//! rates, [`sweep_query`](ParametricAnalyzer::sweep_query) is one lane per
//! valuation.  Only four things differ between the domains: how the tree is
//! converted, which store kind holds the session, how a rate is evaluated in
//! a lane (a numeric rate is itself), and where a lane set's kernel comes
//! from (the one-lane relax kernel a numeric session builds once, or the
//! template a symbolic session fills with its lanes' rates).  Composition,
//! hiding, minimisation, the evaluator, the hybrid crown, the tangible-CTMC
//! skeleton of the steady-state measures and the store layout are written
//! once.
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
use crate::convert::{convert_parametric, CommunityOf};
use crate::parametric::{ParamKind, ParamTable, Valuation};
use crate::query::{Measure, MeasurePoint, MeasureResult};
use crate::semantics::monitor;
use crate::store;
use crate::{Error, Result};
use dft::bdd::Bdd;
use dft::modules::{hybrid_plan, ModuleStats};
use dft::{Dft, Element};
use ioimc::bisim::minimize;
use ioimc::closed::{
    can_fire_immediately, check_deterministic, drop_input_transitions, must_fire_immediately,
};
use ioimc::codec::RateCodec;
use ioimc::stats::ModelStats;
use ioimc::{Action, IoImcOf, Rate, RateForm};
use markov::ctmdp::CtmdpState;
use markov::kernel::RelaxKernel;
use markov::mttf::mean_time_to_absorption;
use markov::steady::steady_state_probability;
use markov::Ctmc;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Name of the monitor process composed into the community, and of the atomic
/// proposition it attaches to its "system is down" state.
const MONITOR_NAME: &str = "system monitor";
const DOWN_PROP: &str = "down";

/// The closed, minimised model a compositional session is served from, with
/// its scheduler goal sets — everything the store persists for it.
#[derive(Debug)]
pub(crate) struct ClosedModel<R> {
    pub(crate) closed: IoImcOf<R>,
    pub(crate) top_failure: Action,
    pub(crate) has_repair: bool,
    /// `true` when the closed model has no immediate non-determinism *and*
    /// the optimistic and pessimistic goal sets coincide, so unreliability is
    /// a point value rather than an interval.
    pub(crate) point_valued: bool,
    /// Optimistic goal set: "can fire the top failure immediately".  Depends
    /// only on the interactive structure, so it is shared by every valuation.
    pub(crate) can: Vec<bool>,
    /// Pessimistic goal set: "must fire the top failure immediately".
    pub(crate) must: Vec<bool>,
}

impl<R: Rate> ClosedModel<R> {
    /// Time-bounded reachability of every lane of `kernel`, a lowering of
    /// this model: the maximising pass towards the optimistic (`can`) goal
    /// set gives the upper bound, the minimising pass towards the pessimistic
    /// (`must`) set the lower one.  A point-valued model skips the second
    /// pass, which would redo the first.  Returns each lane's points.
    fn reach(
        &self,
        kernel: &RelaxKernel,
        times: &[f64],
        epsilon: f64,
    ) -> Result<Vec<Vec<MeasurePoint>>> {
        let initial = self.closed.initial().index();
        let reach = |goal: &[bool], maximise: bool| {
            kernel.reachability(initial, goal, times, epsilon, maximise)
        };
        let uppers = reach(&self.can, true)?;
        let lowers = if self.point_valued {
            uppers.clone()
        } else {
            reach(&self.must, false)?
        };
        let lanes = kernel.lanes();
        Ok((0..lanes)
            .map(|k| {
                (0..times.len())
                    .map(|slot| {
                        let (lo, hi) = (lowers[slot * lanes + k], uppers[slot * lanes + k]);
                        MeasurePoint::bounded(
                            Some(times[slot]),
                            self.point_valued.then_some(hi),
                            (lo, hi),
                        )
                    })
                    .collect()
            })
            .collect())
    }
}

/// Compose the monitor into the community, aggregate with the top failure
/// kept observable, close and minimise the result, and compute the goal sets
/// — identically for numeric and symbolic rates.
fn aggregate_and_close<R: Rate>(
    community: CommunityOf<R>,
) -> Result<(ClosedModel<R>, AggregationStats)> {
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
        },
    )?;
    // `aggregate` (which minimises every element) returns a `minimize` output,
    // and `minimize` is idempotent.  So when closing drops no input
    // transition, the closed model is already minimal: minimising it again
    // would only rename it.
    let closed = if final_model.interactive().iter().any(|t| t.label.is_input()) {
        minimize(&drop_input_transitions(&final_model))
    } else {
        let mut closed = drop_input_transitions(&final_model);
        closed.set_name(format!("min({})", final_model.name()));
        closed
    };

    let can = can_fire_immediately(&closed, top_failure);
    let must = must_fire_immediately(&closed, top_failure);
    let deterministic = check_deterministic(&closed).is_ok();
    let point_valued = deterministic && can == must;

    Ok((
        ClosedModel {
            closed,
            top_failure,
            has_repair,
            point_valued,
            can,
            must,
        },
        stats,
    ))
}

/// What differs between the numeric (`f64`) and the symbolic
/// ([`RateForm`]) rate domain of a [`Session`]; everything else, the
/// evaluator included, is written once over `R`.
pub(crate) trait SessionRate: RateCodec {
    /// What a compositional session caches next to its closed model to get
    /// the kernel of a set of lanes.
    type Numerics: fmt::Debug + Send + Sync;

    /// `true` for symbolic rates: selects the store kind and the
    /// parameter-table section of a stored payload.
    const PARAMETRIC: bool;

    /// Converts the tree into its I/O-IMC community, with the parameter table
    /// its rates refer to (empty for numeric rates).
    fn convert(dft: &Dft) -> Result<(CommunityOf<Self>, ParamTable)>;

    /// The rate of a hybrid crown basic event with failure rate `rate` and
    /// failure slot `slot`.
    fn crown_rate(slot: u32, rate: f64) -> Self;

    /// The numerics cache of a closed model.  Building, instantiating and
    /// loading a session all go through here, so a restored session answers
    /// bit-identically to the one that was stored.
    fn numerics(model: &ClosedModel<Self>) -> Result<Self::Numerics>;

    /// The rate in a lane whose slot values are `values`.
    fn lane_rate(&self, values: &[f64]) -> f64;

    /// The edge rates a lane with slot values `values` feeds the kernel, in
    /// kernel edge order.  Like the kernel an instantiated session builds,
    /// the first rate that is not finite and strictly positive is an error.
    fn edge_rates(
        model: &ClosedModel<Self>,
        numerics: &Self::Numerics,
        values: &[f64],
    ) -> Result<Vec<f64>>;

    /// Time-bounded reachability of every lane (`edges[k]` holds lane k's
    /// edge rates) in one kernel call; see [`ClosedModel::reach`].
    fn reach(
        model: &ClosedModel<Self>,
        numerics: &Self::Numerics,
        edges: &[&[f64]],
        times: &[f64],
        epsilon: f64,
    ) -> Result<Vec<Vec<MeasurePoint>>>;

    /// Whether every parameter slot the rate mentions exists in `params`.
    fn fits(&self, params: &ParamTable) -> bool;
}

impl SessionRate for f64 {
    /// The closed model lowered once into a one-lane kernel, shared by every
    /// query and by both bounds (see [`ClosedModel::reach`]).
    type Numerics = RelaxKernel;

    const PARAMETRIC: bool = false;

    fn convert(dft: &Dft) -> Result<(CommunityOf<f64>, ParamTable)> {
        Ok((crate::convert::convert(dft)?, ParamTable::default()))
    }

    fn crown_rate(_slot: u32, rate: f64) -> f64 {
        rate
    }

    fn numerics(model: &ClosedModel<f64>) -> Result<RelaxKernel> {
        let mut rates = Vec::new();
        let states = lower(&model.closed, |&rate| {
            rates.push(rate);
            rate
        });
        Ok(RelaxKernel::from_template(&states, &rates, 1)?)
    }

    fn lane_rate(&self, _values: &[f64]) -> f64 {
        *self
    }

    /// The session's own rates, checked when its kernel was built: the lane
    /// carries none.
    fn edge_rates(_: &ClosedModel<f64>, _: &RelaxKernel, _: &[f64]) -> Result<Vec<f64>> {
        Ok(Vec::new())
    }

    fn reach(
        model: &ClosedModel<f64>,
        kernel: &RelaxKernel,
        _edges: &[&[f64]],
        times: &[f64],
        epsilon: f64,
    ) -> Result<Vec<Vec<MeasurePoint>>> {
        model.reach(kernel, times, epsilon)
    }

    fn fits(&self, _params: &ParamTable) -> bool {
        true
    }
}

/// The rate-independent structure a parametric session fills with each lane
/// set's rates: the CTMDP state vector with dummy Markovian rates and the
/// rate form of every Markovian edge in kernel edge order.
#[derive(Debug)]
pub(crate) struct SweepTemplate {
    states: Vec<CtmdpState>,
    forms: Vec<RateForm>,
}

impl SweepTemplate {
    /// The template of `model`, lowered on first use into `cache`.
    fn of<'a>(model: &ClosedModel<RateForm>, cache: &'a OnceLock<SweepTemplate>) -> &'a Self {
        cache.get_or_init(|| {
            let mut forms = Vec::new();
            let states = lower(&model.closed, |form| {
                forms.push(form.clone());
                // The rate is a template placeholder; the kernel takes real
                // rates per lane.
                1.0
            });
            SweepTemplate { states, forms }
        })
    }
}

impl SessionRate for RateForm {
    /// Lowered once on the first evaluation: lanes evaluate rate forms
    /// straight into kernel lanes instead of instantiating one session per
    /// valuation.
    type Numerics = OnceLock<SweepTemplate>;

    const PARAMETRIC: bool = true;

    fn convert(dft: &Dft) -> Result<(CommunityOf<RateForm>, ParamTable)> {
        convert_parametric(dft)
    }

    fn crown_rate(slot: u32, _rate: f64) -> RateForm {
        RateForm::var(slot)
    }

    fn numerics(_model: &ClosedModel<RateForm>) -> Result<OnceLock<SweepTemplate>> {
        Ok(OnceLock::new())
    }

    fn lane_rate(&self, values: &[f64]) -> f64 {
        self.eval(values)
    }

    fn edge_rates(
        model: &ClosedModel<RateForm>,
        cache: &OnceLock<SweepTemplate>,
        values: &[f64],
    ) -> Result<Vec<f64>> {
        SweepTemplate::of(model, cache)
            .forms
            .iter()
            .map(|form| match form.eval(values) {
                rate if rate.is_finite() && rate > 0.0 => Ok(rate),
                rate => Err(markov::Error::InvalidValue { value: rate }.into()),
            })
            .collect()
    }

    /// Fills the template with the lanes' rates, lane-minor, and runs one
    /// kernel over all of them.
    fn reach(
        model: &ClosedModel<RateForm>,
        cache: &OnceLock<SweepTemplate>,
        edges: &[&[f64]],
        times: &[f64],
        epsilon: f64,
    ) -> Result<Vec<Vec<MeasurePoint>>> {
        let template = SweepTemplate::of(model, cache);
        let n = edges.len();
        let mut lane_rates = vec![0.0f64; template.forms.len() * n];
        for (k, lane) in edges.iter().enumerate() {
            for (e, &rate) in lane.iter().enumerate() {
                lane_rates[e * n + k] = rate;
            }
        }
        let kernel = RelaxKernel::from_template(&template.states, &lane_rates, n)?;
        model.reach(&kernel, times, epsilon)
    }

    fn fits(&self, params: &ParamTable) -> bool {
        self.max_slot()
            .is_none_or(|slot| usize::try_from(slot).is_ok_and(|slot| slot < params.len()))
    }
}

/// A reusable analysis session for one DFT over the rate domain `R`: the
/// aggregation pipeline runs once in [`Session::new`], and everything after
/// that only touches the cached final model.  Use it through its two
/// instances, [`Analyzer`] and [`ParametricAnalyzer`].
///
/// Sessions are `Send + Sync` (statically asserted below): queries take
/// `&self` and mutate nothing but internal [`OnceLock`]s, so one session
/// behind an `Arc` can serve any number of threads concurrently — this is
/// what the [`AnalysisService`](crate::service::AnalysisService) worker pool
/// and its model cache rely on.
///
/// See the [module documentation](self) for an example.
#[derive(Debug)]
// The rate-domain trait is an implementation detail: callers only ever name
// the two aliases below.
#[allow(private_bounds)]
pub struct Session<R: SessionRate> {
    pub(crate) options: AnalysisOptions,
    pub(crate) repairable: bool,
    /// Absent for the monolithic method and for instantiated sessions.
    pub(crate) aggregation: Option<AggregationStats>,
    pub(crate) model_stats: ModelStats,
    /// What every slot of a [`Valuation`] means: for a parametric session
    /// the table [`convert_parametric`] builds for the tree — one failure
    /// (and, where repairable, repair) slot per basic event in element order
    /// — whichever backend answers the queries.  Empty for numeric sessions.
    pub(crate) params: ParamTable,
    pub(crate) backend: Backend<R>,
    /// `true` only when *this* session executed the compositional pipeline:
    /// set by the compositional and hybrid constructors, cleared for
    /// monolithic builds, parametric instantiations and sessions restored via
    /// [`from_bytes`](Self::from_bytes) (whose `aggregation` stats describe
    /// the run of the original builder, not of this process).
    pub(crate) ran_aggregation: bool,
}

/// A numeric analysis session: answers typed [`Measure`] queries.
pub type Analyzer = Session<f64>;

/// A *parametric* analysis session: the symbolic-rate aggregation pipeline
/// runs once, and [`instantiate`](ParametricAnalyzer::instantiate) then turns
/// the cached model into a numeric [`Analyzer`] for any rate [`Valuation`] —
/// by evaluating linear [`RateForm`]s, **without** re-running conversion,
/// composition or bisimulation minimisation.
///
/// This is the engine behind rate-sensitivity sweeps: a K-point
/// [`sweep_query`](ParametricAnalyzer::sweep_query) costs one aggregation
/// plus K evaluations of the rate forms, where K independent
/// [`Analyzer::new`] calls would pay K full aggregations.  The aggregation
/// lumps states only when their cumulative rate *forms* coincide, which is
/// sound for every positive valuation at once; each instantiated session
/// therefore answers every [`Measure`] within numerical tolerance of (and
/// typically bit-identical to) a direct build on the equivalently re-rated
/// tree.
pub type ParametricAnalyzer = Session<RateForm>;

/// The service layer shares `Arc<Analyzer>` across worker threads; losing either
/// auto-trait would silently serialize it again, so assert both at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Analyzer>();
    assert_send_sync::<ParametricAnalyzer>()
};

/// The cached artifacts a session is served from.
#[derive(Debug)]
// One Backend lives per session, so the size gap between the variants is
// irrelevant — boxing the compositional payload would only add indirection.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Backend<R: SessionRate> {
    /// The paper's compositional pipeline: the closed, minimised I/O-IMC with the
    /// top failure signal kept observable and a monitor process composed in.
    Compositional {
        model: ClosedModel<R>,
        numerics: R::Numerics,
        /// The tangible-CTMC skeleton of the steady-state measures, extracted
        /// on first use.  An error is cached too: a nondeterministic or
        /// divergent model fails the same way in every lane.  A
        /// [`OnceLock`] rather than a `OnceCell` so a shared session can be
        /// queried from many threads at once.
        tangible: OnceLock<Result<Tangible<R>>>,
    },
    /// The DIFTree-style baseline: one CTMC over the whole tree.  Only ever
    /// built for numeric sessions.
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
        leaves: Vec<Leaf<R>>,
        /// The nested compositional sessions, one per dynamic core.  A
        /// parametric core has its own parameter table; its slots map onto
        /// the session's table by element name.
        cores: Vec<Session<R>>,
        /// The modularization decision record of the plan that produced this
        /// decomposition.
        modules: ModuleStats,
    },
}

impl<R: SessionRate> Backend<R> {
    /// The compositional backend over a closed model, with its numerics.
    pub(crate) fn compositional(model: ClosedModel<R>) -> Result<Backend<R>> {
        let numerics = R::numerics(&model)?;
        Ok(Backend::Compositional {
            model,
            numerics,
            tangible: OnceLock::new(),
        })
    }
}

/// What one crown-BDD variable (an original element id) stands for in a hybrid
/// session.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Leaf<R> {
    /// Not a crown leaf: an internal crown gate, or a core member that is not
    /// an exit.  Never referenced by the crown BDD.
    Unused,
    /// A basic event of the crown; it fails exponentially with this rate (a
    /// crown event is never a spare input, so dormancy cannot apply).  In a
    /// parametric session the rate is its failure slot's variable.
    Basic { rate: R },
    /// The exit of one dynamic core: its failure probability at `t` is that
    /// core session's unreliability at `t`.
    Core {
        /// Index into the hybrid backend's `cores`.
        index: usize,
    },
}

impl<R> Leaf<R> {
    fn map_rate<S>(&self, f: impl Fn(&R) -> S) -> Leaf<S> {
        match self {
            Leaf::Unused => Leaf::Unused,
            Leaf::Basic { rate } => Leaf::Basic { rate: f(rate) },
            Leaf::Core { index } => Leaf::Core { index: *index },
        }
    }
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

// See the note on `Session`.
#[allow(private_bounds)]
impl<R: SessionRate> Session<R> {
    /// Builds the analysis session: validates and converts the DFT and runs
    /// compositional aggregation (per dynamic core for [`Method::Hybrid`]) or
    /// monolithic CTMC generation exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Markov`] wrapping [`markov::Error::InvalidValue`] for
    /// an `epsilon` outside `(0, 1)`, before converting anything.  Propagates
    /// conversion, aggregation and numerical errors; returns
    /// [`Error::Unsupported`] for DFT features outside the selected method's
    /// scope, and for [`Method::Monolithic`] on a [`ParametricAnalyzer`] (the
    /// monolithic baseline has no parametric form).
    pub fn new(dft: &Dft, options: AnalysisOptions) -> Result<Session<R>> {
        let epsilon = options.epsilon;
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(markov::Error::InvalidValue { value: epsilon }.into());
        }
        match options.method {
            Method::Compositional => Session::compositional(dft, options),
            Method::Monolithic if R::PARAMETRIC => Err(Error::Unsupported {
                message: "the monolithic baseline has no parametric form".to_owned(),
            }),
            Method::Monolithic => Session::monolithic(dft, options),
            Method::Hybrid => Session::hybrid(dft, options),
        }
    }

    fn compositional(dft: &Dft, options: AnalysisOptions) -> Result<Session<R>> {
        let (community, params) = R::convert(dft)?;
        let (model, stats) = aggregate_and_close(community)?;
        Ok(Session {
            options,
            repairable: dft.is_repairable(),
            aggregation: Some(stats),
            model_stats: ModelStats::of(&model.closed),
            params,
            backend: Backend::compositional(model)?,
            ran_aggregation: true,
        })
    }

    fn monolithic(dft: &Dft, options: AnalysisOptions) -> Result<Session<R>> {
        let result = baseline::monolithic_ctmc(dft)?;
        let model_stats = ModelStats {
            states: result.ctmc.num_states(),
            markovian_transitions: result.ctmc.num_transitions(),
            ..ModelStats::default()
        };
        Ok(Session {
            options,
            repairable: dft.is_repairable(),
            aggregation: None,
            model_stats,
            params: ParamTable::default(),
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
    fn hybrid(dft: &Dft, options: AnalysisOptions) -> Result<Session<R>> {
        if dft.is_repairable() {
            return Session::compositional(dft, options);
        }
        let plan = hybrid_plan(dft);
        let core_options = AnalysisOptions {
            method: Method::Compositional,
            ..options
        };
        let mut cores = Vec::with_capacity(plan.cores.len());
        for core in &plan.cores {
            let session = Session::compositional(&core.dft, core_options.clone())?;
            if session.is_nondeterministic() {
                return Session::compositional(dft, options);
            }
            cores.push(session);
        }

        // One failure slot per basic event in element order: exactly the
        // table `convert_parametric` builds for an unrepairable tree, so
        // valuations and slot lookups agree across backends.  Core tables
        // were built the same way from the cores' sub-trees, which keep the
        // element names.
        let mut params = ParamTable::default();
        let mut slots = vec![0u32; dft.num_elements()];
        for id in dft.elements() {
            if let Element::BasicEvent(be) = dft.element(id) {
                slots[id.index()] = params.push(dft.name(id), ParamKind::Failure, be.rate);
            }
        }
        let mut leaves = vec![Leaf::Unused; dft.num_elements()];
        for &e in &plan.crown {
            if let Element::BasicEvent(be) = dft.element(e) {
                leaves[e.index()] = Leaf::Basic {
                    rate: R::crown_rate(slots[e.index()], be.rate),
                };
            }
        }
        for (index, core) in plan.cores.iter().enumerate() {
            leaves[core.exit.index()] = Leaf::Core { index };
        }
        let crown = Bdd::build(dft, dft.top(), |e| {
            !matches!(leaves[e.index()], Leaf::Unused)
        })?;

        Ok(Session {
            options,
            repairable: false,
            aggregation: Some(merge_aggregation_stats(
                cores.iter().filter_map(Session::aggregation_stats),
            )),
            // The hybrid state space is exactly the union of the
            // (independent) core state spaces — the crown adds no states.
            model_stats: cores.iter().fold(ModelStats::default(), |acc, core| {
                add_model_stats(acc, core.model_stats)
            }),
            // Numeric sessions have no parameter slots.
            params: if R::PARAMETRIC {
                params
            } else {
                ParamTable::default()
            },
            backend: Backend::Hybrid {
                crown,
                leaves,
                cores,
                modules: plan.stats,
            },
            ran_aggregation: true,
        })
    }

    /// The options the session was built with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// The analysis method backing this session.
    pub fn method(&self) -> Method {
        self.options.method
    }

    /// Statistics of the compositional aggregation run: absent for the
    /// monolithic method and for instantiated parametric sessions.  The
    /// statistics are computed during [`Session::new`] and never change
    /// afterwards, however many queries are answered.
    pub fn aggregation_stats(&self) -> Option<&AggregationStats> {
        self.aggregation.as_ref()
    }

    /// Size of the final analysed model (the closed aggregated I/O-IMC, the
    /// union of the hybrid cores, or the monolithic CTMC).
    pub fn model_stats(&self) -> ModelStats {
        self.model_stats
    }

    /// How many times this session has run compositional aggregation: 1 for a
    /// compositional build, one per dynamic core for a hybrid build, 0 for the
    /// monolithic baseline, for parametric instantiations *and* for sessions
    /// restored from bytes (a restored session carries the original run's
    /// [`aggregation_stats`] but ran no pipeline of its own — that is the
    /// entire point of persisting it) — and never more, regardless of how many
    /// queries were answered or valuations instantiated.
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
            Backend::Compositional { model, .. } => !model.point_valued,
            // A hybrid backend is only ever built from deterministic cores.
            Backend::Monolithic { .. } | Backend::Hybrid { .. } => false,
        }
    }

    /// The closed, minimised final I/O-IMC (compositional method only; a hybrid
    /// session has one closed model *per core* and no single final I/O-IMC).
    pub fn final_model(&self) -> Option<&IoImcOf<R>> {
        match &self.backend {
            Backend::Compositional { model, .. } => Some(&model.closed),
            Backend::Monolithic { .. } | Backend::Hybrid { .. } => None,
        }
    }

    /// The observable top-failure action of the cached model (compositional
    /// method only).
    pub fn top_failure(&self) -> Option<Action> {
        match &self.backend {
            Backend::Compositional { model, .. } => Some(model.top_failure),
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
    /// persistent model cache (see [`crate::store`] for the layout), framed
    /// with magic, format version and a payload checksum.
    ///
    /// The inverse is [`from_bytes`](Self::from_bytes); a restored session
    /// answers every query (and instantiates every valuation)
    /// bit-identically to this one and reports
    /// [`aggregation_runs`](Self::aggregation_runs)` == 0`.
    pub fn to_bytes(&self) -> Vec<u8> {
        store::seal(
            store::Kind::of::<R>(),
            // A free-standing serialization is not bound to a DFT
            // fingerprint; the store writes its own frames with the real one.
            0,
            self.options.epsilon.to_bits(),
            &store::encode_payload(self),
        )
    }

    /// Restores a session serialized with [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Store`] when the bytes are truncated, corrupted, from
    /// a different format version or rate domain, or decode to a model that
    /// fails validation.  Never panics on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Session<R>> {
        store::unseal(bytes, store::Kind::of::<R>(), None)
            .and_then(store::decode_payload)
            .map_err(|e| Error::Store {
                message: e.to_string(),
            })
    }

    /// `values` projected onto a hybrid core's own table: each core slot
    /// takes the value of the slot of this session's table controlling the
    /// same rate of the same (named) basic event.  Numeric sessions have no
    /// slots, so their projection is empty.
    fn project(&self, core: &Self, values: &[f64]) -> Vec<f64> {
        core.params
            .slots()
            .iter()
            .map(|slot| {
                values[self
                    .params
                    .slot_of(&slot.element, slot.kind)
                    .expect("core basic events are basic events of the tree")]
            })
            .collect()
    }

    /// The lane of slot values `values`, checked against this session's
    /// table already: a numeric session's one lane has no values.  Fails
    /// like the kernel construction inside
    /// [`instantiate`](ParametricAnalyzer::instantiate) would, core by core.
    fn lane(&self, values: Vec<f64>) -> Result<Lane> {
        let (edges, cores) = match &self.backend {
            Backend::Compositional {
                model, numerics, ..
            } => (R::edge_rates(model, numerics, &values)?, Vec::new()),
            Backend::Hybrid { cores, .. } => (
                Vec::new(),
                cores
                    .iter()
                    .map(|core| core.lane(self.project(core, &values)))
                    .collect::<Result<_>>()?,
            ),
            Backend::Monolithic { .. } => (Vec::new(), Vec::new()),
        };
        Ok(Lane {
            values,
            edges,
            cores,
        })
    }

    /// The one evaluator: answers `measures` in every lane, one row per
    /// lane, and a failed lane keeps its error.  The time bounds of every
    /// measure are merged onto one [`TimeGrid`] and answered by one
    /// time-bounded pass over all lanes; each steady-state measure is solved
    /// per lane.  A row fails with the lane's own error, else the grid's,
    /// else the pass's, else the first failing steady-state measure's.
    fn evaluate(
        &self,
        measures: &[Measure],
        lanes: &[Result<Lane>],
    ) -> Vec<Result<Vec<MeasureResult>>> {
        let plan = TimeGrid::plan(measures);
        let live: Vec<&Lane> = lanes.iter().flatten().collect();
        let mut timed = match &plan {
            Ok((grid, _)) if !grid.times.is_empty() => self.timed_lanes(&grid.times, &live),
            _ => vec![Ok(Vec::new()); live.len()],
        }
        .into_iter();
        lanes
            .iter()
            .map(|lane| {
                let lane = lane.as_ref().map_err(Clone::clone)?;
                let points = timed.next().expect("one timed row per live lane");
                let (_, plans) = plan.as_ref().map_err(Clone::clone)?;
                let mut ctmc = None;
                read_back(measures, plans, &points?, |measure| {
                    self.steady_lane(measure, &lane.values, &mut ctmc)
                })
            })
            .collect()
    }

    /// The time-bounded points of every lane on the merged grid `times`.
    ///
    /// The monolithic chain runs its forward pass; a compositional model
    /// runs all lanes on one kernel, and when that batched pass fails (one
    /// lane's Poisson window too large, say) every lane is rerun alone, so
    /// the error lands on its own lane.  A hybrid session runs each core's
    /// own pass over the lanes and evaluates the crown per lane; a lane
    /// stops at its first failing core.
    fn timed_lanes(&self, times: &[f64], lanes: &[&Lane]) -> Vec<Result<Vec<MeasurePoint>>> {
        let epsilon = self.options.epsilon;
        match &self.backend {
            Backend::Monolithic { ctmc, goal } => lanes
                .iter()
                .map(|_| {
                    let values = ctmc.reachability_multi(goal, times, epsilon)?;
                    Ok(times
                        .iter()
                        .zip(values)
                        .map(|(&t, v)| MeasurePoint::exact(Some(t), v))
                        .collect())
                })
                .collect(),
            Backend::Compositional {
                model, numerics, ..
            } => {
                let pass = |lanes: &[&Lane]| {
                    let edges: Vec<&[f64]> =
                        lanes.iter().map(|lane| lane.edges.as_slice()).collect();
                    R::reach(model, numerics, &edges, times, epsilon)
                };
                match pass(lanes) {
                    Ok(points) => points.into_iter().map(Ok).collect(),
                    Err(e) if lanes.len() <= 1 => vec![Err(e); lanes.len()],
                    Err(_) => lanes
                        .iter()
                        .map(|&lane| pass(&[lane]).map(|mut points| points.remove(0)))
                        .collect(),
                }
            }
            Backend::Hybrid {
                crown,
                leaves,
                cores,
                ..
            } => {
                // curves[lane][core][time slot]
                let mut curves: Vec<Result<Vec<Vec<f64>>>> = vec![Ok(Vec::new()); lanes.len()];
                for (i, core) in cores.iter().enumerate() {
                    let live: Vec<usize> =
                        (0..lanes.len()).filter(|&k| curves[k].is_ok()).collect();
                    let core_lanes: Vec<&Lane> = live.iter().map(|&k| &lanes[k].cores[i]).collect();
                    for (k, points) in live.into_iter().zip(core.timed_lanes(times, &core_lanes)) {
                        match points {
                            Ok(points) => {
                                if let Ok(curve) = &mut curves[k] {
                                    curve.push(points.iter().map(MeasurePoint::value).collect());
                                }
                            }
                            Err(e) => curves[k] = Err(e),
                        }
                    }
                }
                lanes
                    .iter()
                    .zip(curves)
                    .map(|(lane, curves)| {
                        Ok(crown_points(crown, leaves, &lane.values, &curves?, times))
                    })
                    .collect()
            }
        }
    }

    /// Answers a steady-state measure in one lane: the backend's support
    /// checks, then the lane's tangible CTMC — the cached skeleton under the
    /// lane's rates, built at most once per lane (`ctmc`) — and its solver.
    fn steady_lane(
        &self,
        measure: &Measure,
        values: &[f64],
        ctmc: &mut Option<Result<Ctmc>>,
    ) -> Result<MeasureResult> {
        let epsilon = self.options.epsilon;
        let unavailability = matches!(measure, Measure::Unavailability);
        let message = match &self.backend {
            _ if unavailability && !self.repairable => {
                "unavailability analysis needs at least one repairable basic event"
            }
            Backend::Monolithic { .. } if unavailability => {
                "the monolithic baseline only supports unreliability analysis"
            }
            Backend::Monolithic { ctmc, goal } => {
                return solve_steady(measure, ctmc, goal, epsilon)
            }
            // Defensive: a genuine hybrid backend implies an unrepairable tree,
            // so the first arm already matched.
            Backend::Hybrid { .. } if unavailability => {
                "the hybrid decomposition only exists for unrepairable trees"
            }
            // MTTF needs a single first-passage model; the hybrid crown only
            // composes time-bounded failure probabilities.
            Backend::Hybrid { .. } => {
                "the hybrid decomposition only supports unreliability analysis; \
                 use the compositional method for MTTF"
            }
            Backend::Compositional { model, .. } if unavailability && !model.has_repair => {
                "the top event never emits a repair signal"
            }
            Backend::Compositional {
                model, tangible, ..
            } => {
                let tangible = match tangible.get_or_init(|| extract_tangible(&model.closed)) {
                    Ok(tangible) => tangible,
                    Err(e) => return Err(e.clone()),
                };
                let ctmc = ctmc
                    .get_or_insert_with(|| tangible.ctmc(values))
                    .as_ref()
                    .map_err(Clone::clone)?;
                return solve_steady(measure, ctmc, &tangible.down, epsilon);
            }
        };
        Err(Error::Unsupported {
            message: message.to_owned(),
        })
    }
}

impl Session<f64> {
    /// Answers one typed query against the cached model: the one-measure
    /// [`query_all`](Self::query_all).
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
        let mut results = self.query_all(std::slice::from_ref(measure.borrow()))?;
        Ok(results.remove(0))
    }

    /// Answers a whole batch of measures against the cached model, sharing one
    /// uniformisation / value-iteration pass between *all* time-bounded measures
    /// in the batch.
    ///
    /// This is the session's evaluator over one lane, the session's own
    /// rates: the same code answers every lane of a
    /// [`sweep_query`](ParametricAnalyzer::sweep_query).  The requested
    /// mission times of every [`Measure::Unreliability`] and
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
        self.evaluate(measures, &[self.lane(Vec::new())]).remove(0)
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
}

impl Session<RateForm> {
    /// Instantiates the cached parametric model for one rate assignment,
    /// returning a numeric [`Analyzer`] ready to answer queries.
    ///
    /// Only the linear rate forms are evaluated (in deterministic slot order);
    /// no conversion, composition or minimisation is repeated — the returned
    /// session reports [`aggregation_runs`](Session::aggregation_runs) `== 0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValuation`] when the valuation does not fit the
    /// model's [`ParamTable`] and propagates CTMDP construction errors.
    pub fn instantiate(&self, valuation: &Valuation) -> Result<Analyzer> {
        valuation.check_against(&self.params)?;
        self.instantiate_values(valuation.values())
    }

    /// [`instantiate`](Self::instantiate) for values already checked against
    /// this session's table.
    fn instantiate_values(&self, values: &[f64]) -> Result<Analyzer> {
        let backend = match &self.backend {
            Backend::Compositional { model, .. } => {
                let closed = model.closed.map_rates(|form| form.eval(values));
                debug_assert!(closed.validate().is_ok());
                Backend::compositional(ClosedModel {
                    closed,
                    top_failure: model.top_failure,
                    has_repair: model.has_repair,
                    point_valued: model.point_valued,
                    can: model.can.clone(),
                    must: model.must.clone(),
                })?
            }
            // Instantiate every core through its slot projection; the crown
            // structure is shared (it does not depend on rates).
            Backend::Hybrid {
                crown,
                leaves,
                cores,
                modules,
            } => Backend::Hybrid {
                crown: crown.clone(),
                leaves: leaves
                    .iter()
                    .map(|leaf| leaf.map_rate(|form| form.eval(values)))
                    .collect(),
                cores: cores
                    .iter()
                    .map(|core| core.instantiate_values(&self.project(core, values)))
                    .collect::<Result<Vec<Analyzer>>>()?,
                modules: *modules,
            },
            Backend::Monolithic { .. } => unreachable!("parametric sessions are never monolithic"),
        };
        Ok(Session {
            options: self.options.clone(),
            repairable: self.repairable,
            // Instantiation runs no aggregation; the stats live on `self`.
            aggregation: None,
            model_stats: self.model_stats,
            params: ParamTable::default(),
            backend,
            ran_aggregation: false,
        })
    }

    /// Evaluates a batch of measures across a whole sweep of valuations with
    /// zero re-aggregations, and without building a session per valuation.
    ///
    /// Every valuation is one *lane*: after the checks
    /// [`instantiate`](Self::instantiate) makes, its rate forms are evaluated
    /// straight into rate-independent templates cached on this session, and
    /// the lanes go to the evaluator that answers [`Analyzer::query_all`]
    /// over one lane.
    ///
    /// * The time bounds of every [`Measure::Unreliability`] and
    ///   [`Measure::UnreliabilityCurve`] are merged onto one grid and run
    ///   *batched*: every lane is one lane of a [`RelaxKernel`], so the whole
    ///   sweep costs one (or two, for non-deterministic models) traversal of
    ///   the shared structure instead of one value iteration per point.
    /// * [`Measure::Unavailability`] and [`Measure::Mttf`] evaluate each
    ///   lane's rates into the cached tangible CTMC skeleton and solve it.
    ///
    /// Each lane keeps its own uniformisation rate and sees its transitions in
    /// the same order as an instantiated model, so every row is bit-identical
    /// to [`instantiate`](Self::instantiate)` + `[`Analyzer::query_all`] on
    /// that valuation alone, errors included, and independent of the
    /// kernel's worker count.
    ///
    /// # Example
    ///
    /// ```
    /// use dft::{DftBuilder, Dormancy};
    /// use dft_core::engine::ParametricAnalyzer;
    /// use dft_core::{AnalysisOptions, Measure};
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
    /// let measures = [Measure::Unreliability(1.0), Measure::Mttf];
    /// let sweep = parametric.sweep_query(&measures, &valuations);
    /// assert_eq!(sweep.len(), 5);
    /// assert_eq!(parametric.aggregation_runs(), 1);
    /// // Each point matches the closed forms 1 - exp(-scale·t) and 1/scale.
    /// for (i, results) in sweep.results().iter().enumerate() {
    ///     let results = results.as_ref().map_err(Clone::clone)?;
    ///     let scale = (i + 1) as f64;
    ///     assert!((results[0].value() - (1.0 - (-scale).exp())).abs() < 1e-6);
    ///     assert!((results[1].value() - 1.0 / scale).abs() < 1e-6);
    /// }
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// Every error stays on its own row: an invalid valuation, a rate that
    /// evaluates out of range, a query error (see [`Analyzer::query_all`]).
    /// When the batched kernel pass fails, every lane is rerun on its own,
    /// so one lane's failure never reaches its neighbours.  A sweep over
    /// zero valuations is empty and validates nothing.
    pub fn sweep_query(&self, measures: &[Measure], valuations: &[Valuation]) -> RateSweep {
        let mut sweep = RateSweep::default();
        if valuations.is_empty() {
            return sweep;
        }
        let started = Instant::now();
        // The checks `instantiate` makes, in its order.
        let lanes: Vec<Result<Lane>> = valuations
            .iter()
            .map(|valuation| {
                valuation.check_against(&self.params)?;
                self.lane(valuation.values().to_vec())
            })
            .collect();
        sweep.instantiate_time = started.elapsed();

        let started = Instant::now();
        sweep.results = self.evaluate(measures, &lanes);
        sweep.query_time = started.elapsed();
        sweep
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
}

/// A session's rates in one lane of an evaluation: the slot values every
/// symbolic rate evaluates under (none for a numeric session), the edge rates
/// of a compositional model in kernel edge order (none where the kernel is
/// cached), and one lane per hybrid core.
struct Lane {
    values: Vec<f64>,
    edges: Vec<f64>,
    cores: Vec<Lane>,
}

/// The result of a rate sweep: one row per valuation, in request order, plus
/// the wall-clock split between evaluating rate forms and querying.
#[derive(Debug, Clone, Default)]
pub struct RateSweep {
    results: Vec<Result<Vec<MeasureResult>>>,
    instantiate_time: Duration,
    query_time: Duration,
}

impl RateSweep {
    /// One row per valuation, in the order the valuations were passed: one
    /// result per measure, in the order the measures were passed, or the
    /// error [`instantiate`](ParametricAnalyzer::instantiate)` + `
    /// [`Analyzer::query_all`] would return for that valuation.
    pub fn results(&self) -> &[Result<Vec<MeasureResult>>] {
        &self.results
    }

    /// Number of valuations evaluated.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Returns `true` for a sweep over no valuations.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Time spent checking the valuations and evaluating their edge rates.
    pub fn instantiate_time(&self) -> Duration {
        self.instantiate_time
    }

    /// Time spent answering the measures: kernel passes, tangible CTMCs and
    /// their solvers.
    pub fn query_time(&self) -> Duration {
        self.query_time
    }
}

/// For each measure of a batch, the slots of the merged [`TimeGrid`] it
/// reads back — `None` for the steady-state measures.
type Plans = Vec<Option<Vec<usize>>>;

/// Mission times merged bit-exactly in first-occurrence order and validated
/// on the way in: the one grid a batch of time-bounded measures (or a sweep)
/// is evaluated on.
#[derive(Default)]
struct TimeGrid {
    times: Vec<f64>,
    slot_of: HashMap<u64, usize>,
}

impl TimeGrid {
    /// Merges the mission times of every time-bounded measure in `measures`
    /// onto one grid, remembering which slots each measure reads back.
    ///
    /// Curve shapes and mission times are validated here, before any
    /// numerical work starts.
    fn plan(measures: &[Measure]) -> Result<(TimeGrid, Plans)> {
        let mut grid = TimeGrid::default();
        let plans = measures
            .iter()
            .map(|measure| match measure {
                Measure::Unreliability(t) => grid.slots(std::slice::from_ref(t)).map(Some),
                Measure::UnreliabilityCurve(times) if times.is_empty() => Err(Error::EmptyCurve),
                Measure::UnreliabilityCurve(times) => grid.slots(times).map(Some),
                Measure::Unavailability | Measure::Mttf => Ok(None),
            })
            .collect::<Result<Plans>>()?;
        Ok((grid, plans))
    }

    /// Adds `times` to the grid and returns the grid slot of each.
    fn slots(&mut self, times: &[f64]) -> Result<Vec<usize>> {
        times
            .iter()
            .map(|&t| {
                validate_mission_time(t)?;
                Ok(*self.slot_of.entry(t.to_bits()).or_insert_with(|| {
                    self.times.push(t);
                    self.times.len() - 1
                }))
            })
            .collect()
    }
}

/// Reads one batch's results back in measure order: each time-bounded
/// measure takes its slots of `merged` (the batch's points on the merged
/// grid), each steady-state measure is answered by `steady`.
fn read_back(
    measures: &[Measure],
    plans: &[Option<Vec<usize>>],
    merged: &[MeasurePoint],
    mut steady: impl FnMut(&Measure) -> Result<MeasureResult>,
) -> Result<Vec<MeasureResult>> {
    measures
        .iter()
        .zip(plans)
        .map(|(measure, plan)| match plan {
            Some(slots) => Ok(MeasureResult::new(
                slots.iter().map(|&slot| merged[slot]).collect(),
            )),
            None => steady(measure),
        })
        .collect()
}

/// Rejects mission times no transient analysis can answer — NaN, infinite or
/// negative — with a typed error at the query boundary, so they never reach
/// the uniformisation routines (which would report them as an untyped
/// numerical [`markov::Error::InvalidValue`] from deep inside
/// [`RelaxKernel::reachability`] or [`Ctmc::reachability_multi`]).
fn validate_mission_time(t: f64) -> Result<()> {
    if t.is_finite() && t >= 0.0 {
        Ok(())
    } else {
        Err(Error::InvalidMissionTime { value: t })
    }
}

/// Lowers a closed I/O-IMC into the CTMDP state vector used by the `markov`
/// crate: urgent states offer their immediate successors as a
/// non-deterministic choice, all other states race their Markovian
/// transitions.  `rate` maps each Markovian rate, in state order and row
/// order within a state — the kernel's edge order.
fn lower<R: Rate>(closed: &IoImcOf<R>, mut rate: impl FnMut(&R) -> f64) -> Vec<CtmdpState> {
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
                        .map(|t| (t.to.index() as u32, rate(&t.rate)))
                        .collect(),
                )
            }
        })
        .collect()
}

/// Evaluates a hybrid crown at every time point: a crown basic event fails
/// exponentially with its leaf's rate in the lane with slot values `values`,
/// a core exit with its core's curve (`core_curves[core][time]`).  Exact
/// because the cores are pairwise independent and independent of every
/// crown basic event, and all indicators are monotone ("failed by t").
fn crown_points<R: SessionRate>(
    crown: &Bdd,
    leaves: &[Leaf<R>],
    values: &[f64],
    core_curves: &[Vec<f64>],
    times: &[f64],
) -> Vec<MeasurePoint> {
    let mut probabilities = vec![0.0f64; leaves.len()];
    times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            for (p, leaf) in probabilities.iter_mut().zip(leaves) {
                *p = match leaf {
                    Leaf::Unused => 0.0,
                    Leaf::Basic { rate } => -(-rate.lane_rate(values) * t).exp_m1(),
                    Leaf::Core { index } => core_curves[*index][i],
                };
            }
            MeasurePoint::exact(Some(t), crown.probability(&probabilities))
        })
        .collect()
}

/// The embedded CTMC of a closed, deterministic model over rates `R`: its
/// tangible states (those without an outgoing immediate transition) with
/// every immediate chain resolved to the tangible state it ends in.
#[derive(Debug)]
pub(crate) struct Tangible<R> {
    states: usize,
    initial: usize,
    /// The monitor's "down" label of each tangible state.
    down: Vec<bool>,
    /// `(from, to, rate)` in state order, row order within a state.
    transitions: Vec<(u32, u32, R)>,
}

impl<R: SessionRate> Tangible<R> {
    /// The CTMC in the lane with slot values `values`.
    fn ctmc(&self, values: &[f64]) -> Result<Ctmc> {
        let transitions: Vec<(u32, u32, f64)> = self
            .transitions
            .iter()
            .map(|(from, to, rate)| (*from, *to, rate.lane_rate(values)))
            .collect();
        Ok(Ctmc::from_transitions(
            self.states,
            self.initial,
            &transitions,
        )?)
    }
}

/// Eliminates the remaining immediate (vanishing) states of a closed,
/// deterministic I/O-IMC: the rate-independent half of the steady-state
/// measures, written once for numeric and symbolic rates.
///
/// # Errors
///
/// Returns [`Error::Ioimc`] wrapping a non-determinism error if some vanishing
/// state has more than one immediate successor, and [`Error::Unsupported`] if an
/// immediate cycle (divergence) survives into the closed model — such a chain has
/// no embedded CTMC.
fn extract_tangible<R: Rate>(closed: &IoImcOf<R>) -> Result<Tangible<R>> {
    check_deterministic(closed).map_err(Error::from)?;
    let prop_id = closed.prop(DOWN_PROP);

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

    let mut transitions = Vec::new();
    for &s in &tangible {
        for t in closed.markovian_from(s) {
            transitions.push((index_of(s), index_of(resolve(t.to)?), t.rate.clone()));
        }
    }
    let initial = index_of(resolve(closed.initial())?) as usize;
    let down = tangible
        .iter()
        .map(|&s| prop_id.map(|p| closed.has_prop(s, p)).unwrap_or(false))
        .collect();
    Ok(Tangible {
        states: tangible.len(),
        initial,
        down,
        transitions,
    })
}

/// Solves a steady-state measure on an embedded CTMC: the long-run
/// probability of the `down` states for [`Measure::Unavailability`], the
/// mean time to first reach one for [`Measure::Mttf`].
fn solve_steady(
    measure: &Measure,
    ctmc: &Ctmc,
    down: &[bool],
    epsilon: f64,
) -> Result<MeasureResult> {
    let value = if matches!(measure, Measure::Unavailability) {
        steady_state_probability(ctmc, down, epsilon)?
    } else {
        mean_time_to_absorption(ctmc, down, epsilon)?
    };
    Ok(MeasureResult::new(vec![MeasurePoint::exact(None, value)]))
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
    fn epsilon_outside_the_unit_interval_is_rejected_before_converting() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("eps_X", 1.0, Dormancy::Hot).unwrap();
        let top = b.or_gate("eps_Top", &[x]).unwrap();
        let dft = b.build(top).unwrap();
        let rejected = |result: Result<()>, epsilon: f64| match result {
            Err(Error::Markov(markov::Error::InvalidValue { value })) => {
                assert_eq!(value.to_bits(), epsilon.to_bits());
            }
            other => panic!("epsilon {epsilon}: {other:?}"),
        };
        for epsilon in [1.5, 1.0, 0.0, -1.0, f64::NAN] {
            for method in [Method::Compositional, Method::Monolithic, Method::Hybrid] {
                let options = AnalysisOptions { epsilon, method };
                rejected(Analyzer::new(&dft, options.clone()).map(drop), epsilon);
                // A parametric monolithic build is unsupported, but the
                // epsilon check comes first.
                rejected(ParametricAnalyzer::new(&dft, options).map(drop), epsilon);
            }
        }
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
        let sweep = parametric.sweep_query(std::slice::from_ref(&measure), &valuations);
        assert_eq!(sweep.len(), valuations.len());
        for (valuation, row) in valuations.iter().zip(sweep.results()) {
            let reference = parametric
                .instantiate(valuation)
                .unwrap()
                .query(measure.clone())
                .unwrap();
            assert_eq!(bits_of(&row.as_ref().unwrap()[0]), bits_of(&reference));
        }

        // MTTF needs a CTMC: every lane of the CTMDP reports the tangible
        // extraction error an instantiated session reports.
        let sweep = parametric.sweep_query(&[Measure::Mttf], &valuations);
        for (valuation, row) in valuations.iter().zip(sweep.results()) {
            let reference = parametric.instantiate(valuation).unwrap().mttf();
            assert!(matches!(reference, Err(Error::Ioimc(_))));
            assert_eq!(row.as_ref().unwrap_err(), reference.as_ref().unwrap_err());
        }

        // An empty sweep stays a no-op, and an empty curve errors on every
        // point there is to evaluate it for.
        assert!(parametric.sweep_query(&[measure], &[]).is_empty());
        let sweep = parametric.sweep_query(&[Measure::curve([])], &valuations);
        assert!(sweep
            .results()
            .iter()
            .all(|row| matches!(row, Err(Error::EmptyCurve))));
        assert!(parametric
            .sweep_query(&[Measure::curve([])], &[])
            .is_empty());
    }

    #[test]
    fn point_valued_sweeps_batch_through_one_pass() {
        // A deterministic model takes the point-valued shortcut (the lower
        // pass is the upper pass); results must still match per-point
        // queries, also with MTTF and a second time grid in the same batch.
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
        let measures = [
            Measure::Unreliability(0.9),
            Measure::Mttf,
            Measure::curve([0.3, 0.9]),
        ];
        let sweep = parametric.sweep_query(&measures, &valuations);
        for (valuation, row) in valuations.iter().zip(sweep.results()) {
            let row = row.as_ref().unwrap();
            assert!(!row[0].is_nondeterministic());
            let reference = parametric
                .instantiate(valuation)
                .unwrap()
                .query_all(&measures)
                .unwrap();
            assert_eq!(row.len(), reference.len());
            for (result, reference) in row.iter().zip(&reference) {
                assert_eq!(bits_of(result), bits_of(reference));
            }
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
        let sweep = parametric.sweep_query(std::slice::from_ref(&measure), &valuations);

        for (valuation, row) in valuations.iter().zip(sweep.results()) {
            let swept = &row.as_ref().unwrap()[0];
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
