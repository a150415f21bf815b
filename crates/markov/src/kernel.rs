//! Flat CSR value-iteration kernel for CTMDP transient analysis.
//!
//! Every time-bounded answer the engine gives — a numeric query's bounds and
//! every lane of a parametric sweep — comes from one call,
//! [`RelaxKernel::reachability`].  The kernel lowers the Markovian choices
//! into a flat CSR-style layout once per model so the inner relax runs over
//! contiguous arrays.  On top of that it batches *lanes*: K independent rate
//! assignments of one shared structure (a parametric rate sweep) iterate as
//! K lanes of a structure-of-arrays value block.  Values are stored
//! state-major (`value[s·K + k]`), edge rates lane-major per edge
//! (`rates[e·K + k]`), and one traversal of the structure relaxes every lane
//! at once.  Each lane keeps its *own* uniformisation rate, so its
//! floating-point op sequence is exactly the scalar sequence — batched
//! results are bit-identical per lane — while the Poisson windows are
//! deduplicated across the batch
//! ([`crate::poisson::poisson_weights_multi`]).  Every call runs on the
//! calling thread.
//!
//! The relax is one body generic over the lane width, instantiated twice:
//! at the constant width 1 for a one-lane call (every numeric query), where
//! a row is a plain walk over zipped `cols`/`jump` slices, and at the run-time
//! width of a batch; the settle fixpoint of the immediate states is
//! instantiated the same way, and walks only the immediate states that can
//! move.  The driver picks the width once per call.  Both instantiations do
//! each lane's operations in the same order, so a one-lane call and every
//! lane of a batch give the same bits.
//!
//! The original nested-loop relax is kept in this module's tests as the
//! reference the kernel is compared against bit for bit.

use crate::ctmdp::CtmdpState;
use crate::poisson::{poisson_weights_multi, PoissonWeights};
use crate::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};

/// Total relax passes executed (one per uniformised step per reachability
/// call).
static RELAX_PASSES: AtomicU64 = AtomicU64::new(0);
/// Reachability calls that batched more than one lane.
static BATCHED_CALLS: AtomicU64 = AtomicU64::new(0);

/// Cumulative counters of kernel activity, for service accounting.
///
/// The counters are process-global and monotonically increasing; a service
/// exposes deltas between snapshots.  They never influence results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Relax passes executed: one per uniformised step of every call.
    pub relax_passes: u64,
    /// Always 0: every relax pass runs on the calling thread.  The field
    /// stays because perfbench reports it.
    pub threaded_passes: u64,
    /// Reachability calls that batched more than one lane.
    pub batched_calls: u64,
}

/// Snapshot of the process-wide kernel counters.
pub fn stats() -> KernelStats {
    KernelStats {
        relax_passes: RELAX_PASSES.load(Ordering::Relaxed),
        threaded_passes: 0,
        batched_calls: BATCHED_CALLS.load(Ordering::Relaxed),
    }
}

/// A CTMDP lowered into flat CSR arrays, ready for (optionally batched)
/// value iteration.
///
/// `row_ptr[s]..row_ptr[s+1]` indexes the Markovian edges of state `s` into
/// `cols`/`rates`; `choice_ptr[s]..choice_ptr[s+1]` indexes the immediate
/// successors into `choice_cols`.  A state with `immediate[s]` resolves by the
/// scheduler fixpoint; all other states relax their Markovian row (an empty
/// row means the state is absorbing and keeps its value).  With `lanes > 1`
/// the structure is shared and `rates` carries one rate per edge *per lane*,
/// lane-major per edge.
#[derive(Debug, Clone)]
pub struct RelaxKernel {
    num_states: usize,
    lanes: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    /// Edge rates, `rates[e * lanes + k]` for edge `e`, lane `k`.
    rates: Vec<f64>,
    /// Exit rates, `exit[s * lanes + k]`, summed in row order (the exact
    /// summation order of the reference relax, so precomputing changes no
    /// bits).
    exit: Vec<f64>,
    choice_ptr: Vec<usize>,
    choice_cols: Vec<u32>,
    immediate: Vec<bool>,
}

impl RelaxKernel {
    /// Lowers a validated CTMDP state vector into the flat layout
    /// (single-lane): [`from_template`](Self::from_template) with each
    /// state's own rates as the one lane.
    ///
    /// # Panics
    ///
    /// Panics if the states break the invariants [`crate::Ctmdp::new`]
    /// checks (in-range targets, finite positive rates).
    pub fn from_states(states: &[CtmdpState]) -> RelaxKernel {
        let mut rates = Vec::new();
        for st in states {
            if let CtmdpState::Markovian(row) = st {
                rates.extend(row.iter().map(|&(_, rate)| rate));
            }
        }
        RelaxKernel::from_template(states, &rates, 1)
            .expect("validated CTMDP states lower without error")
    }

    /// Lowers a shared structure plus `lanes` independent rate assignments
    /// into one batched kernel.
    ///
    /// `template` provides the structure (its own Markovian rates are
    /// ignored); `lane_rates[e * lanes + k]` is the rate of the `e`-th
    /// Markovian edge — counted in state order, row order within a state —
    /// under lane `k`.  This is how a parametric sweep batches K valuations
    /// of one closed model into a single traversal.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidState`] for an out-of-range target,
    /// [`Error::DimensionMismatch`] if `lane_rates` does not hold exactly
    /// `edges × lanes` entries (or `lanes` is zero), and
    /// [`Error::InvalidValue`] for a rate that is not finite and strictly
    /// positive.
    pub fn from_template(
        template: &[CtmdpState],
        lane_rates: &[f64],
        lanes: usize,
    ) -> Result<RelaxKernel> {
        let n = template.len();
        if lanes == 0 {
            return Err(Error::DimensionMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let edges: usize = template
            .iter()
            .map(|st| match st {
                CtmdpState::Markovian(row) => row.len(),
                CtmdpState::Immediate(_) => 0,
            })
            .sum();
        if lane_rates.len() != edges * lanes {
            return Err(Error::DimensionMismatch {
                expected: edges * lanes,
                actual: lane_rates.len(),
            });
        }
        for &rate in lane_rates {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(Error::InvalidValue { value: rate });
            }
        }
        let mut kernel = RelaxKernel {
            num_states: n,
            lanes,
            row_ptr: Vec::with_capacity(n + 1),
            cols: Vec::with_capacity(edges),
            rates: Vec::with_capacity(edges * lanes),
            exit: vec![0.0; n * lanes],
            choice_ptr: Vec::with_capacity(n + 1),
            choice_cols: Vec::new(),
            immediate: Vec::with_capacity(n),
        };
        kernel.row_ptr.push(0);
        kernel.choice_ptr.push(0);
        let mut edge = 0usize;
        for (s, st) in template.iter().enumerate() {
            match st {
                CtmdpState::Markovian(row) => {
                    for &(target, _) in row {
                        if target as usize >= n {
                            return Err(Error::InvalidState {
                                state: target,
                                num_states: n as u32,
                            });
                        }
                        kernel.cols.push(target);
                        let lane_row = &lane_rates[edge * lanes..(edge + 1) * lanes];
                        kernel.rates.extend_from_slice(lane_row);
                        for (k, &rate) in lane_row.iter().enumerate() {
                            kernel.exit[s * lanes + k] += rate;
                        }
                        edge += 1;
                    }
                    kernel.immediate.push(false);
                }
                CtmdpState::Immediate(succs) => {
                    for &target in succs {
                        if target as usize >= n {
                            return Err(Error::InvalidState {
                                state: target,
                                num_states: n as u32,
                            });
                        }
                        kernel.choice_cols.push(target);
                    }
                    kernel.immediate.push(true);
                }
            }
            kernel.row_ptr.push(kernel.cols.len());
            kernel.choice_ptr.push(kernel.choice_cols.len());
        }
        Ok(kernel)
    }

    /// Number of states of the lowered model.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of value lanes iterated per traversal.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of Markovian edges of the shared structure.
    pub fn num_edges(&self) -> usize {
        self.cols.len()
    }

    /// Per-lane uniformisation rates: the maximal exit rate of each lane,
    /// folded in state order exactly like the reference scalar relax.
    fn uniformisation_rates(&self) -> Vec<f64> {
        let mut lambdas = vec![0.0f64; self.lanes];
        for (k, lambda) in lambdas.iter_mut().enumerate() {
            *lambda = (0..self.num_states)
                .map(|s| self.exit[s * self.lanes + k])
                .fold(0.0, f64::max);
        }
        lambdas
    }

    /// Extremal time-bounded reachability for every lane and every time
    /// bound, in one value-iteration pass over the batch.
    ///
    /// Returns values in time-major order: `out[t * lanes + k]` is the
    /// probability for `times[t]` under lane `k`, clamped to `[0, 1]`.  Every
    /// lane is computed with its own uniformisation rate, so each lane's
    /// result is bit-identical to running that lane alone, and to the
    /// nested-loop reference relax.  The call runs on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidState`] for an out-of-range `initial`,
    /// [`Error::DimensionMismatch`] for a wrong `goal` length,
    /// [`Error::InvalidValue`] for a negative/NaN time bound or an `epsilon`
    /// outside `(0, 1)`, and [`Error::MeanTooLarge`] for a Poisson window no
    /// pass could finish.
    pub fn reachability(
        &self,
        initial: usize,
        goal: &[bool],
        times: &[f64],
        epsilon: f64,
        maximise: bool,
    ) -> Result<Vec<f64>> {
        let n = self.num_states;
        let l = self.lanes;
        if initial >= n {
            return Err(Error::InvalidState {
                state: initial as u32,
                num_states: n as u32,
            });
        }
        if goal.len() != n {
            return Err(Error::DimensionMismatch {
                expected: n,
                actual: goal.len(),
            });
        }
        for &t in times {
            if !t.is_finite() || t < 0.0 {
                return Err(Error::InvalidValue { value: t });
            }
        }
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(Error::InvalidValue { value: epsilon });
        }
        if l > 1 {
            BATCHED_CALLS.fetch_add(1, Ordering::Relaxed);
        }

        // The immediate states the scheduler fixpoint can move: not goal,
        // with at least one successor, in state order.
        let choosers: Vec<u32> = (0..n)
            .filter(|&s| {
                !goal[s] && self.immediate[s] && self.choice_ptr[s] < self.choice_ptr[s + 1]
            })
            .map(|s| s as u32)
            .collect();

        // Value at "zero remaining steps": goal states count, immediate
        // states resolve instantaneously.
        let mut terminal = vec![0.0f64; n * l];
        for (s, &g) in goal.iter().enumerate() {
            if g {
                terminal[s * l..(s + 1) * l].fill(1.0);
            }
        }
        self.settle_immediate(Dyn(l), &choosers, &mut terminal, maximise);

        let lambdas = self.uniformisation_rates();
        if self.cols.is_empty() {
            // No Markovian edge anywhere: every lane's uniformisation rate is
            // zero (rates are strictly positive, so one edge lifts them all)
            // and the terminal value never moves.
            let mut out = Vec::with_capacity(times.len() * l);
            for _ in times {
                out.extend_from_slice(&terminal[initial * l..(initial + 1) * l]);
            }
            return Ok(out);
        }

        // One Poisson window per (time, lane) mean, deduplicated across the
        // batch: lanes sharing a uniformisation rate (or repeated time
        // bounds) compute their window once.
        let means: Vec<f64> = times
            .iter()
            .flat_map(|&t| lambdas.iter().map(move |&lambda| lambda * t))
            .collect();
        let weights = poisson_weights_multi(&means, epsilon)?;
        let k_max = window_end(&weights);

        // Loop-invariant uniformised coefficients, hoisted out of the relax:
        // identical operations to the reference per-step divisions, evaluated
        // once.  stay[s·l + k] = 1 - exit/λ_k, jump[e·l + k] = rate/λ_k.
        let mut stay = vec![0.0f64; n * l];
        for s in 0..n {
            for (k, &lambda) in lambdas.iter().enumerate() {
                stay[s * l + k] = 1.0 - self.exit[s * l + k] / lambda;
            }
        }
        let mut jump = vec![0.0f64; self.rates.len()];
        for e in 0..self.cols.len() {
            for (k, &lambda) in lambdas.iter().enumerate() {
                jump[e * l + k] = self.rates[e * l + k] / lambda;
            }
        }

        let ctx = PassCtx {
            lanes: l,
            stay,
            jump,
            goal,
            choosers: &choosers,
            weights,
            initial,
            maximise,
        };
        RELAX_PASSES.fetch_add(k_max as u64, Ordering::Relaxed);
        let results = self.iterate(&ctx, terminal);
        Ok(results.into_iter().map(|r| r.clamp(0.0, 1.0)).collect())
    }

    /// The driver of [`reachability`](Self::reachability): value
    /// iteration of every lane of `ctx` from `terminal` to the end of its
    /// longest Poisson window, returning the mixtures in time-major order.
    ///
    /// The lane width is picked here, once per call: a one-lane context runs
    /// the relax and settle steps instantiated for the constant width
    /// [`One`], a batch those for its [`Dyn`] width.
    fn iterate(&self, ctx: &PassCtx<'_>, terminal: Vec<f64>) -> Vec<f64> {
        if ctx.lanes == 1 {
            self.iterate_as(One, ctx, terminal)
        } else {
            self.iterate_as(Dyn(ctx.lanes), ctx, terminal)
        }
    }

    /// [`iterate`](Self::iterate) at lane width `width`.
    fn iterate_as<W: Width>(&self, width: W, ctx: &PassCtx<'_>, terminal: Vec<f64>) -> Vec<f64> {
        let mut results = vec![0.0f64; ctx.weights.len()];
        let mut value = terminal;
        let mut next = vec![0.0f64; value.len()];
        ctx.accumulate(&mut results, 0, &value);
        for step in 1..=window_end(&ctx.weights) {
            self.relax(width, ctx, &value, &mut next);
            self.settle_immediate(width, ctx.choosers, &mut next, ctx.maximise);
            std::mem::swap(&mut value, &mut next);
            ctx.accumulate(&mut results, step, &value);
        }
        results
    }

    /// One relax step over every state, writing into `out`: goal states pin
    /// at 1, immediate states reset to 0 for the subsequent fixpoint,
    /// Markovian states accumulate `stay·v[s] + Σ jump·v[target]` in row
    /// order — the exact operation sequence of the reference nested loop, for
    /// every lane of `ctx` at once.
    ///
    /// One body serves every lane width.  Each state's lanes are one chunk of
    /// `width` values, and its row walks `cols` zipped with the row's chunks
    /// of `jump`.  Instantiated at [`One`], every chunk is a single value and
    /// the lane loops vanish, so a numeric query walks plain zipped slices;
    /// at [`Dyn`] the same loops run over a batch's lanes.  Both do the same
    /// operations in the same order per lane, so their bits agree.
    ///
    /// Kept out of line, one copy per width: inlined into the step loop of
    /// [`iterate`](Self::iterate), a one-lane CAS query ran 108–145 µs
    /// against 85–127 µs out of line (best of 7 × 2000 queries, 4 alternating
    /// runs, release build, 2-vCPU x86-64 host).
    #[inline(never)]
    fn relax<W: Width>(&self, width: W, ctx: &PassCtx<'_>, value: &[f64], out: &mut [f64]) {
        let l = width.get();
        let states = out
            .chunks_exact_mut(l)
            .zip(value.chunks_exact(l))
            .zip(ctx.stay.chunks_exact(l))
            .zip(self.row_ptr.windows(2));
        for (s, (((dst, src), stay), row)) in states.enumerate() {
            if ctx.goal[s] {
                dst.fill(1.0);
                continue;
            }
            if self.immediate[s] {
                dst.fill(0.0);
                continue;
            }
            for k in 0..l {
                dst[k] = stay[k] * src[k];
            }
            let (lo, hi) = (row[0], row[1]);
            for (&target, jump) in self.cols[lo..hi]
                .iter()
                .zip(ctx.jump[lo * l..hi * l].chunks_exact(l))
            {
                let tv = &value[target as usize * l..][..l];
                for k in 0..l {
                    dst[k] += jump[k] * tv[k];
                }
            }
        }
    }

    /// Resolves immediate states by iterating the scheduler optimisation to a
    /// fixpoint, per lane of `value`, over `choosers` (the immediate states
    /// that can move) in state order — the batched form of the reference
    /// relax's settle step, which skips the other states anyway.  Lanes are
    /// independent: a lane that has settled is left untouched by the extra
    /// rounds another lane may need, so each lane's bits match a solo run.
    fn settle_immediate<W: Width>(
        &self,
        width: W,
        choosers: &[u32],
        value: &mut [f64],
        maximise: bool,
    ) {
        let l = width.get();
        for _ in 0..self.num_states {
            let mut changed = false;
            for &s in choosers {
                let s = s as usize;
                let succs = &self.choice_cols[self.choice_ptr[s]..self.choice_ptr[s + 1]];
                for k in 0..l {
                    let candidate = succs.iter().map(|&t| value[t as usize * l + k]).fold(
                        if maximise {
                            f64::NEG_INFINITY
                        } else {
                            f64::INFINITY
                        },
                        |a, b| if maximise { a.max(b) } else { a.min(b) },
                    );
                    if (candidate - value[s * l + k]).abs() > 1e-15 {
                        value[s * l + k] = candidate;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// The lane width of one instantiation of [`RelaxKernel::relax`]: [`One`]
/// for a numeric query, [`Dyn`] for a batch.
trait Width: Copy {
    /// The number of lanes.
    fn get(self) -> usize;
}

/// The constant width of a one-lane call.
#[derive(Clone, Copy)]
struct One;

impl Width for One {
    #[inline(always)]
    fn get(self) -> usize {
        1
    }
}

/// A width known only at run time: a batch's lane count.
#[derive(Clone, Copy)]
struct Dyn(usize);

impl Width for Dyn {
    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }
}

/// The loop-invariant context of one reachability call.  Every per-lane
/// array is lane-minor over `lanes` lanes.
struct PassCtx<'a> {
    lanes: usize,
    stay: Vec<f64>,
    jump: Vec<f64>,
    goal: &'a [bool],
    /// The immediate states the settle fixpoint can move, in state order.
    choosers: &'a [u32],
    /// Time-major Poisson windows: `weights[t * lanes + k]`.
    weights: Vec<PoissonWeights>,
    initial: usize,
    maximise: bool,
}

impl PassCtx<'_> {
    /// Adds step `step`'s Poisson-weighted contribution of the initial state
    /// to every (time, lane) accumulator.
    fn accumulate(&self, results: &mut [f64], step: usize, value: &[f64]) {
        let l = self.lanes;
        let at_initial = &value[self.initial * l..(self.initial + 1) * l];
        for (result, w) in results.chunks_exact_mut(l).zip(self.weights.chunks(l)) {
            for k in 0..l {
                if let Some(&weight) = w[k].weights.get(step) {
                    result[k] += weight * at_initial[k];
                }
            }
        }
    }
}

/// The last uniformised step any window of `weights` reaches.
fn window_end(weights: &[PoissonWeights]) -> usize {
    weights
        .iter()
        .map(|w| w.weights.len() - 1)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::poisson_weights;

    /// Deterministic xorshift64*; good enough to generate varied models.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// The states, initial state and goal set of a random small CTMDP:
    /// mixed Markovian/immediate states, some goals, and at most
    /// `max_succs - 1` immediate successors per state (`max_succs == 2` gives
    /// a deterministic model).  Kept tiny (n ≤ 32) so the whole module stays
    /// Miri-friendly.
    fn random_parts(seed: u64, n: usize, max_succs: usize) -> (Vec<CtmdpState>, usize, Vec<bool>) {
        let mut rng = Rng(seed | 1);
        let states = (0..n)
            .map(|_| {
                if rng.unit() < 0.7 {
                    let edges = rng.below(5);
                    CtmdpState::Markovian(
                        (0..edges)
                            .map(|_| (rng.below(n) as u32, 0.1 + 2.9 * rng.unit()))
                            .collect(),
                    )
                } else {
                    let succs = rng.below(max_succs);
                    CtmdpState::Immediate((0..succs).map(|_| rng.below(n) as u32).collect())
                }
            })
            .collect();
        let goal = (0..n).map(|_| rng.unit() < 0.2).collect();
        (states, rng.below(n), goal)
    }

    /// One kernel over `states` with one lane per scale: lane `k` multiplies
    /// every Markovian rate by `scales[k]`.
    fn scaled_kernel(states: &[CtmdpState], scales: &[f64]) -> RelaxKernel {
        let mut lane_rates = Vec::new();
        for st in states {
            if let CtmdpState::Markovian(row) = st {
                for &(_, rate) in row {
                    lane_rates.extend(scales.iter().map(|scale| rate * scale));
                }
            }
        }
        RelaxKernel::from_template(states, &lane_rates, scales.len()).unwrap()
    }

    /// The one-lane (min, max) reachability bounds of `states` for one time
    /// bound: a minimising and a maximising kernel call.
    fn bounds(states: &[CtmdpState], goal: &[bool], t: f64, epsilon: f64) -> (f64, f64) {
        let kernel = RelaxKernel::from_states(states);
        let pass = |maximise| {
            kernel
                .reachability(0, goal, &[t], epsilon, maximise)
                .unwrap()[0]
        };
        (pass(false), pass(true))
    }

    /// The original nested-loop value iteration over a state vector: the
    /// reference the kernel must match bit for bit.  The goal states count
    /// at zero remaining steps, immediate states settle by the scheduler
    /// fixpoint, and each time bound accumulates its Poisson mixture of the
    /// initial state's step values.
    fn reference_reachability(
        states: &[CtmdpState],
        initial: usize,
        goal: &[bool],
        times: &[f64],
        epsilon: f64,
        maximise: bool,
    ) -> Result<Vec<f64>> {
        for &t in times {
            if !t.is_finite() || t < 0.0 {
                return Err(Error::InvalidValue { value: t });
            }
        }
        let n = states.len();
        let exit = |st: &CtmdpState| match st {
            CtmdpState::Markovian(rates) => rates.iter().map(|&(_, r)| r).sum(),
            CtmdpState::Immediate(_) => 0.0,
        };
        let lambda = states.iter().map(exit).fold(0.0, f64::max);
        // Chains of immediate states are bounded by the state count, so `n`
        // rounds suffice; immediate cycles settle at their pessimistic value.
        let settle = |value: &mut [f64]| {
            for _ in 0..n {
                let mut changed = false;
                for s in 0..n {
                    if goal[s] {
                        continue;
                    }
                    if let CtmdpState::Immediate(succs) = &states[s] {
                        if succs.is_empty() {
                            continue;
                        }
                        let candidate = succs.iter().map(|&t| value[t as usize]).fold(
                            if maximise {
                                f64::NEG_INFINITY
                            } else {
                                f64::INFINITY
                            },
                            |a, b| if maximise { a.max(b) } else { a.min(b) },
                        );
                        if (candidate - value[s]).abs() > 1e-15 {
                            value[s] = candidate;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        };

        let mut value: Vec<f64> = goal.iter().map(|&g| if g { 1.0 } else { 0.0 }).collect();
        settle(&mut value);
        if lambda == 0.0 {
            return Ok(vec![value[initial]; times.len()]);
        }
        let weights = times
            .iter()
            .map(|&t| poisson_weights(lambda * t, epsilon))
            .collect::<Result<Vec<_>>>()?;
        let k_max = weights
            .iter()
            .map(|w| w.weights.len() - 1)
            .max()
            .unwrap_or(0);
        let mut results: Vec<f64> = weights
            .iter()
            .map(|w| w.weights[0] * value[initial])
            .collect();
        for k in 1..=k_max {
            let mut next = vec![0.0; n];
            for s in 0..n {
                if goal[s] {
                    next[s] = 1.0;
                } else if let CtmdpState::Markovian(rates) = &states[s] {
                    let mut acc = (1.0 - exit(&states[s]) / lambda) * value[s];
                    for &(target, rate) in rates {
                        acc += rate / lambda * value[target as usize];
                    }
                    next[s] = acc;
                }
            }
            settle(&mut next);
            value = next;
            for (result, w) in results.iter_mut().zip(weights.iter()) {
                if let Some(&weight) = w.weights.get(k) {
                    *result += weight * value[initial];
                }
            }
        }
        Ok(results.into_iter().map(|r| r.clamp(0.0, 1.0)).collect())
    }

    const TIMES: [f64; 3] = [0.0, 0.3, 1.1];

    #[test]
    fn builder_lowers_the_layout_faithfully() {
        let states = vec![
            CtmdpState::Markovian(vec![(1, 0.5), (2, 1.5)]),
            CtmdpState::Immediate(vec![0, 2]),
            CtmdpState::Markovian(vec![]),
        ];
        let k = RelaxKernel::from_states(&states);
        assert_eq!(k.num_states(), 3);
        assert_eq!(k.lanes(), 1);
        assert_eq!(k.num_edges(), 2);
        assert_eq!(k.row_ptr, vec![0, 2, 2, 2]);
        assert_eq!(k.cols, vec![1, 2]);
        assert_eq!(k.rates, vec![0.5, 1.5]);
        assert_eq!(k.exit, vec![2.0, 0.0, 0.0]);
        assert_eq!(k.choice_ptr, vec![0, 0, 2, 2]);
        assert_eq!(k.choice_cols, vec![0, 2]);
        assert_eq!(k.immediate, vec![false, true, false]);
        assert_eq!(k.uniformisation_rates(), vec![2.0]);
    }

    #[test]
    fn template_builder_validates_its_inputs() {
        let template = vec![
            CtmdpState::Markovian(vec![(1, 1.0)]),
            CtmdpState::Markovian(vec![]),
        ];
        assert!(RelaxKernel::from_template(&template, &[1.0, 2.0], 2).is_ok());
        // Zero lanes, wrong rate count, non-positive and non-finite rates.
        assert!(RelaxKernel::from_template(&template, &[], 0).is_err());
        assert!(RelaxKernel::from_template(&template, &[1.0], 2).is_err());
        assert!(RelaxKernel::from_template(&template, &[1.0, 0.0], 2).is_err());
        assert!(RelaxKernel::from_template(&template, &[1.0, f64::NAN], 2).is_err());
        // Out-of-range Markovian and immediate targets.
        let bad = vec![CtmdpState::Markovian(vec![(7, 1.0)])];
        assert!(RelaxKernel::from_template(&bad, &[1.0], 1).is_err());
        let bad = vec![CtmdpState::Immediate(vec![7])];
        assert!(RelaxKernel::from_template(&bad, &[], 1).is_err());
    }

    #[test]
    fn reachability_validates_its_inputs() {
        let k = RelaxKernel::from_states(&[CtmdpState::Markovian(vec![(0, 1.0)])]);
        assert!(k.reachability(1, &[false], &TIMES, 1e-9, true).is_err());
        assert!(k
            .reachability(0, &[false, true], &TIMES, 1e-9, true)
            .is_err());
        assert!(k.reachability(0, &[false], &[-1.0], 1e-9, true).is_err());
        assert!(k
            .reachability(0, &[false], &[f64::NAN], 1e-9, true)
            .is_err());
        // Epsilon is checked on every path: with Markovian edges, for an
        // empty sweep, and on a model without any Markovian edge.
        let no_edges = RelaxKernel::from_states(&[CtmdpState::Markovian(vec![])]);
        assert!(no_edges
            .reachability(0, &[false], &[-1.0], 1e-9, true)
            .is_err());
        for epsilon in [0.0, 1.0, f64::NAN] {
            for kernel in [&k, &no_edges] {
                for times in [&TIMES[..], &[]] {
                    let r = kernel.reachability(0, &[false], times, epsilon, true);
                    assert!(
                        matches!(r, Err(Error::InvalidValue { .. })),
                        "epsilon {epsilon}: {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_model_matches_the_closed_form() {
        // 0 --lambda--> 1 (goal): both bounds equal 1 - exp(-lambda t).
        let lambda = 1.7;
        let states = [
            CtmdpState::Markovian(vec![(1, lambda)]),
            CtmdpState::Markovian(vec![]),
        ];
        let t = 0.9;
        let (min, max) = bounds(&states, &[false, true], t, 1e-12);
        let exact = 1.0 - (-lambda * t).exp();
        assert!((min - exact).abs() < 1e-9);
        assert!((max - exact).abs() < 1e-9);
    }

    #[test]
    fn nondeterministic_choice_gives_an_interval() {
        // Initial immediate choice between a fast branch (rate 10) and a slow
        // branch (rate 0.1) towards the goal.
        let states = [
            CtmdpState::Immediate(vec![1, 2]),
            CtmdpState::Markovian(vec![(3, 10.0)]),
            CtmdpState::Markovian(vec![(3, 0.1)]),
            CtmdpState::Markovian(vec![]),
        ];
        let t = 1.0;
        let (min, max) = bounds(&states, &[false, false, false, true], t, 1e-12);
        let fast = 1.0 - (-10.0f64 * t).exp();
        let slow = 1.0 - (-0.1f64 * t).exp();
        assert!((max - fast).abs() < 1e-6, "max {max} vs {fast}");
        assert!((min - slow).abs() < 1e-6, "min {min} vs {slow}");
        assert!(min < max);
    }

    #[test]
    fn bounds_bracket_every_fixed_resolution() {
        // Non-deterministic choice between two moderate branches; either fixed
        // resolution must lie within the bounds.
        let states = [
            CtmdpState::Immediate(vec![1, 2]),
            CtmdpState::Markovian(vec![(3, 2.0)]),
            CtmdpState::Markovian(vec![(3, 3.0)]),
            CtmdpState::Markovian(vec![]),
        ];
        let t = 0.4;
        let (min, max) = bounds(&states, &[false, false, false, true], t, 1e-12);
        for rate in [2.0f64, 3.0] {
            let p = 1.0 - (-rate * t).exp();
            assert!(min <= p + 1e-9 && p <= max + 1e-9, "rate {rate}");
        }
    }

    #[test]
    fn goal_at_the_initial_state_is_certain() {
        let states = [CtmdpState::Markovian(vec![])];
        assert_eq!(bounds(&states, &[true], 2.0, 1e-9), (1.0, 1.0));
    }

    #[test]
    fn immediate_chain_resolves_through_layers() {
        // 0 (immediate) -> 1 (immediate) -> 2 (goal): reachable with
        // probability 1 immediately, under any scheduler.
        let states = [
            CtmdpState::Immediate(vec![1]),
            CtmdpState::Immediate(vec![2]),
            CtmdpState::Markovian(vec![]),
        ];
        assert_eq!(
            bounds(&states, &[false, false, true], 0.0, 1e-9),
            (1.0, 1.0)
        );
    }

    #[test]
    fn dead_end_immediate_state_never_reaches_the_goal() {
        let states = [CtmdpState::Immediate(vec![]), CtmdpState::Markovian(vec![])];
        assert_eq!(bounds(&states, &[false, true], 10.0, 1e-9), (0.0, 0.0));
    }

    #[test]
    fn kernel_matches_legacy_bit_for_bit_on_random_models() {
        for seed in [3u64, 17, 2026, 0xBEEF] {
            let (states, initial, goal) = random_parts(seed, 24, 4);
            let kernel = RelaxKernel::from_states(&states);
            for maximise in [false, true] {
                let legacy =
                    reference_reachability(&states, initial, &goal, &TIMES, 1e-10, maximise)
                        .unwrap();
                let fast = kernel
                    .reachability(initial, &goal, &TIMES, 1e-10, maximise)
                    .unwrap();
                for (a, b) in legacy.iter().zip(&fast) {
                    assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} max {maximise}");
                }
            }
        }
    }

    #[test]
    fn batched_lanes_match_scalar_models_bit_for_bit() {
        // One shared structure, three rate scalings: lane k must reproduce a
        // standalone one-lane kernel with the same rates exactly.
        let (states, initial, goal) = random_parts(42, 20, 4);
        let scales = [1.0, 1.35, 0.8];
        let lanes = scales.len();
        let batched = scaled_kernel(&states, &scales)
            .reachability(initial, &goal, &TIMES, 1e-10, true)
            .unwrap();
        for (k, &scale) in scales.iter().enumerate() {
            let scaled: Vec<CtmdpState> = states
                .iter()
                .map(|st| match st {
                    CtmdpState::Markovian(row) => {
                        CtmdpState::Markovian(row.iter().map(|&(t, r)| (t, r * scale)).collect())
                    }
                    CtmdpState::Immediate(s) => CtmdpState::Immediate(s.clone()),
                })
                .collect();
            let solo = RelaxKernel::from_states(&scaled)
                .reachability(initial, &goal, &TIMES, 1e-10, true)
                .unwrap();
            for (t, s) in solo.iter().enumerate() {
                assert_eq!(
                    batched[t * lanes + k].to_bits(),
                    s.to_bits(),
                    "lane {k} time {t}"
                );
            }
        }
    }

    #[test]
    fn one_lane_matches_both_lanes_of_an_equal_rate_batch() {
        // A one-lane kernel runs the relax body at width `One`, a batch at
        // `Dyn`: each lane of a two-lane batch with the one-lane rates must
        // give the one-lane bits.  `seen` checks that the models reach every
        // kind of state the body treats apart: goal, immediate, dead-end
        // immediate, absorbing.  (`random_parts` sets the seed's low bit, so
        // odd seeds are the distinct models; a summation-order slip in one
        // instantiation shows on 7 of these 32.)
        let mut seen = [false; 4];
        for seed in (1..64u64).step_by(2) {
            let (states, initial, goal) = random_parts(seed, 24, 4);
            for (st, &g) in states.iter().zip(&goal) {
                match st {
                    _ if g => seen[0] = true,
                    CtmdpState::Immediate(succs) => seen[1 + usize::from(succs.is_empty())] = true,
                    CtmdpState::Markovian(row) if row.is_empty() => seen[3] = true,
                    CtmdpState::Markovian(_) => {}
                }
            }
            let one = RelaxKernel::from_states(&states);
            let two = scaled_kernel(&states, &[1.0, 1.0]);
            for maximise in [false, true] {
                let solo = one
                    .reachability(initial, &goal, &TIMES, 1e-10, maximise)
                    .unwrap();
                let batched = two
                    .reachability(initial, &goal, &TIMES, 1e-10, maximise)
                    .unwrap();
                for (t, s) in solo.iter().enumerate() {
                    for k in 0..2 {
                        assert_eq!(
                            batched[t * 2 + k].to_bits(),
                            s.to_bits(),
                            "seed {seed} max {maximise} lane {k} time {t}"
                        );
                    }
                }
            }
        }
        assert_eq!(seen, [true; 4], "goal / immediate / dead end / absorbing");
    }

    #[test]
    fn deterministic_kernel_agrees_with_the_ctmc_solver() {
        // A strictly Markovian random model is a CTMC in disguise; the CTMDP
        // kernel and the dedicated CTMC solver must agree to solver tolerance.
        let mut rng = Rng(7);
        let n = 12usize;
        let mut transitions = Vec::new();
        for s in 0..n {
            for _ in 0..1 + rng.below(3) {
                let t = rng.below(n);
                if t != s {
                    transitions.push((s as u32, t as u32, 0.2 + 2.0 * rng.unit()));
                }
            }
        }
        let goal_states: Vec<bool> = (0..n).map(|s| s >= n - 3).collect();
        let mut states: Vec<CtmdpState> = (0..n).map(|_| CtmdpState::Markovian(vec![])).collect();
        for &(s, t, r) in &transitions {
            // Goal states are absorbing in the reachability formulation.
            if !goal_states[s as usize] {
                if let CtmdpState::Markovian(row) = &mut states[s as usize] {
                    row.push((t, r));
                }
            }
        }
        let absorbed: Vec<(u32, u32, f64)> = transitions
            .iter()
            .copied()
            .filter(|&(s, _, _)| !goal_states[s as usize])
            .collect();
        let ctmc = crate::Ctmc::from_transitions(n, 0, &absorbed).unwrap();
        let via_ctmc = ctmc
            .reachability_multi(&goal_states, &TIMES, 1e-10)
            .unwrap();
        let via_kernel = RelaxKernel::from_states(&states)
            .reachability(0, &goal_states, &TIMES, 1e-10, true)
            .unwrap();
        for (a, b) in via_ctmc.iter().zip(&via_kernel) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn no_markovian_edges_short_circuits_like_legacy() {
        let states = vec![
            CtmdpState::Immediate(vec![1]),
            CtmdpState::Immediate(vec![]),
        ];
        let goal = vec![false, false];
        let kernel = RelaxKernel::from_states(&states);
        // The shortcut still validates epsilon, unlike the legacy loop.
        assert!(kernel.reachability(0, &goal, &TIMES, 0.0, true).is_err());
        let r = kernel.reachability(0, &goal, &TIMES, 1e-9, true).unwrap();
        assert_eq!(r, vec![0.0; TIMES.len()]);
        let legacy = reference_reachability(&states, 0, &goal, &TIMES, 1e-9, true).unwrap();
        assert_eq!(r, legacy);
    }

    #[test]
    fn stats_count_relax_passes_and_batched_calls() {
        let (states, initial, goal) = random_parts(11, 16, 4);
        let kernel = scaled_kernel(&states, &[1.0, 0.6, 1.35]);
        let before = stats();
        kernel
            .reachability(initial, &goal, &[0.5], 1e-9, true)
            .unwrap();
        let after = stats();
        assert!(after.relax_passes > before.relax_passes);
        assert!(after.batched_calls > before.batched_calls);
        assert_eq!(after.threaded_passes, 0);
    }
}
