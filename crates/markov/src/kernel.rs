//! Flat CSR value-iteration kernel for CTMDP transient analysis.
//!
//! Every time-bounded answer the engine gives — a numeric query's bounds and
//! every lane of a parametric sweep — comes from one call,
//! [`RelaxKernel::reachability`].  The kernel lowers the Markovian choices
//! into a flat CSR-style layout once per model so the inner relax runs over
//! contiguous arrays, and adds two levers on top:
//!
//! * **Lane batching** — K independent rate assignments of one shared
//!   structure (a parametric rate sweep) iterate as K *lanes* of a
//!   structure-of-arrays value block: values are stored state-major
//!   (`value[s·K + k]`), edge rates lane-major per edge (`rates[e·K + k]`),
//!   and one traversal of the structure relaxes every lane at once.  Each
//!   lane keeps its *own* uniformisation rate, so its floating-point op
//!   sequence is exactly the scalar sequence — batched results are
//!   bit-identical per lane — while the Poisson windows are deduplicated
//!   across the batch ([`crate::poisson::poisson_weights_multi`]).
//! * **Lane groups** — with more than one worker, a batch is split into
//!   contiguous groups of lanes, and each group runs the sequential driver
//!   on its own scoped thread.  Lanes never read each other's values, so
//!   every lane's bits are those of the one-group call, whatever the worker
//!   count; a one-lane kernel never splits.
//!
//! The original nested-loop relax is kept in this module's tests as the
//! reference the kernel is compared against bit for bit.

use crate::ctmdp::CtmdpState;
use crate::poisson::{poisson_weights_multi, PoissonWeights};
use crate::{Error, Result};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Process-wide cap on relax workers; 0 means "derive from the host".
static MAX_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Total relax passes executed (one per uniformised step per reachability
/// call, split into lane groups or not).
static RELAX_PASSES: AtomicU64 = AtomicU64::new(0);
/// Relax passes of calls split into more than one lane group.
static THREADED_PASSES: AtomicU64 = AtomicU64::new(0);
/// Reachability calls that batched more than one lane.
static BATCHED_CALLS: AtomicU64 = AtomicU64::new(0);

/// Cumulative counters of kernel activity, for service accounting.
///
/// The counters are process-global and monotonically increasing; a service
/// exposes deltas between snapshots.  They never influence results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Relax passes executed: one per uniformised step of every call, however
    /// many lane groups ran it.
    pub relax_passes: u64,
    /// The relax passes of calls split into more than one lane group,
    /// counted once per step like `relax_passes`.
    pub threaded_passes: u64,
    /// Reachability calls that batched more than one lane.
    pub batched_calls: u64,
}

/// Snapshot of the process-wide kernel counters.
pub fn stats() -> KernelStats {
    KernelStats {
        relax_passes: RELAX_PASSES.load(Ordering::Relaxed),
        threaded_passes: THREADED_PASSES.load(Ordering::Relaxed),
        batched_calls: BATCHED_CALLS.load(Ordering::Relaxed),
    }
}

/// Caps the number of worker threads [`RelaxKernel::auto_workers`] may choose,
/// process-wide.  `0` restores the default (host parallelism, capped at 8).
///
/// A service whose own pool already saturates the host sets this to
/// `cores / pool_size` so nested parallelism cannot oversubscribe.  The cap
/// only bounds how many lane groups a batched call splits into — results
/// are worker-count-invariant.
pub fn set_max_workers(cap: usize) {
    MAX_WORKERS.store(cap, Ordering::Relaxed);
}

/// The effective worker cap: the value of [`set_max_workers`], or host
/// parallelism capped at 8 when unset.
pub fn max_workers() -> usize {
    match MAX_WORKERS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(8),
        cap => cap,
    }
}

/// A CTMDP lowered into flat CSR arrays, ready for (optionally batched and
/// lane-group-threaded) value iteration.
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
    pub fn uniformisation_rates(&self) -> Vec<f64> {
        let mut lambdas = vec![0.0f64; self.lanes];
        for (k, lambda) in lambdas.iter_mut().enumerate() {
            *lambda = (0..self.num_states)
                .map(|s| self.exit[s * self.lanes + k])
                .fold(0.0, f64::max);
        }
        lambdas
    }

    /// Chooses a worker count for [`reachability`](Self::reachability): 1 for
    /// batches too small to amortize a thread, otherwise proportional to the
    /// per-pass work, capped by [`max_workers`] and the lane count — so a
    /// one-lane kernel always runs sequentially.
    ///
    /// The choice never affects results — only wall-clock.
    pub fn auto_workers(&self) -> usize {
        // One relax pass touches every edge-lane once and every state-lane a
        // couple of times; 32k units is roughly the point where a pass stops
        // being memory-latency-bound enough for a second thread to pay off.
        const WORK_PER_WORKER: usize = 1 << 15;
        let work = self.rates.len() + self.num_states * self.lanes;
        if work < 2 * WORK_PER_WORKER {
            return 1;
        }
        (work / WORK_PER_WORKER)
            .min(max_workers())
            .min(self.lanes)
            .max(1)
    }

    /// Extremal time-bounded reachability for every lane and every time
    /// bound, in one value-iteration pass over the batch.
    ///
    /// Returns values in time-major order: `out[t * lanes + k]` is the
    /// probability for `times[t]` under lane `k`, clamped to `[0, 1]`.  Every
    /// lane is computed with its own uniformisation rate, so each lane's
    /// result is bit-identical to running that lane alone, and to the
    /// nested-loop reference relax.  With `workers > 1` the lanes are split
    /// into at most `workers` contiguous groups, each iterated by the
    /// sequential driver on its own scoped thread and interleaved back in
    /// time-major order — so the worker count never changes the bits.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidState`] for an out-of-range `initial`,
    /// [`Error::DimensionMismatch`] for a wrong `goal` length,
    /// [`Error::InvalidValue`] for a negative/NaN time bound or an `epsilon`
    /// outside `(0, 1)`, and [`Error::MeanTooLarge`] for a Poisson window no
    /// pass could finish.  Every check runs before any split, so a split
    /// call fails exactly like the one-group call.
    pub fn reachability(
        &self,
        initial: usize,
        goal: &[bool],
        times: &[f64],
        epsilon: f64,
        maximise: bool,
        workers: usize,
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

        // Value at "zero remaining steps": goal states count, immediate
        // states resolve instantaneously.
        let mut terminal = vec![0.0f64; n * l];
        for (s, &g) in goal.iter().enumerate() {
            if g {
                terminal[s * l..(s + 1) * l].fill(1.0);
            }
        }
        self.settle_immediate(goal, &mut terminal, maximise, l);

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
            weights,
            initial,
            maximise,
        };
        RELAX_PASSES.fetch_add(k_max as u64, Ordering::Relaxed);
        let groups = chunk_ranges(l, workers);
        let results = if groups.len() <= 1 || k_max == 0 {
            self.iterate(&ctx, terminal)
        } else {
            THREADED_PASSES.fetch_add(k_max as u64, Ordering::Relaxed);
            self.iterate_groups(&ctx, &terminal, &groups)
        };
        Ok(results.into_iter().map(|r| r.clamp(0.0, 1.0)).collect())
    }

    /// The sequential driver of [`reachability`](Self::reachability): value
    /// iteration of every lane of `ctx` from `terminal` to the end of its
    /// longest Poisson window, returning the mixtures in time-major order.
    fn iterate(&self, ctx: &PassCtx<'_>, terminal: Vec<f64>) -> Vec<f64> {
        let mut results = vec![0.0f64; ctx.weights.len()];
        let mut value = terminal;
        let mut next = vec![0.0f64; value.len()];
        ctx.accumulate(&mut results, 0, &value);
        for step in 1..=window_end(&ctx.weights) {
            self.relax(ctx, &value, &mut next);
            self.settle_immediate(ctx.goal, &mut next, ctx.maximise, ctx.lanes);
            std::mem::swap(&mut value, &mut next);
            ctx.accumulate(&mut results, step, &value);
        }
        results
    }

    /// Runs [`iterate`](Self::iterate) once per lane group, each on its own
    /// scoped thread over that group's slice of `ctx` and `terminal`, and
    /// interleaves the groups' results back in time-major order.
    fn iterate_groups(
        &self,
        ctx: &PassCtx<'_>,
        terminal: &[f64],
        groups: &[Range<usize>],
    ) -> Vec<f64> {
        let l = ctx.lanes;
        let mut results = vec![0.0f64; ctx.weights.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .iter()
                .map(|group| {
                    scope.spawn(move || {
                        let group_ctx = PassCtx {
                            lanes: group.len(),
                            stay: lanes_of(&ctx.stay, l, group),
                            jump: lanes_of(&ctx.jump, l, group),
                            goal: ctx.goal,
                            weights: lanes_of(&ctx.weights, l, group),
                            initial: ctx.initial,
                            maximise: ctx.maximise,
                        };
                        self.iterate(&group_ctx, lanes_of(terminal, l, group))
                    })
                })
                .collect();
            for (group, handle) in groups.iter().zip(handles) {
                let part = handle.join().expect("a lane group's relax never panics");
                for (row, part) in results
                    .chunks_exact_mut(l)
                    .zip(part.chunks_exact(group.len()))
                {
                    row[group.clone()].copy_from_slice(part);
                }
            }
        });
        results
    }

    /// One relax step over every state, writing into `out`: goal states pin
    /// at 1, immediate states reset to 0 for the subsequent fixpoint,
    /// Markovian states accumulate `stay·v[s] + Σ jump·v[target]` in row
    /// order — the exact operation sequence of the reference nested loop, for
    /// every lane of `ctx` at once.
    ///
    /// Kept out of line: inlined into the step loop of
    /// [`iterate`](Self::iterate), a one-lane CAS query ran about 30% slower
    /// (release build, 2-vCPU x86-64 host).
    #[inline(never)]
    fn relax(&self, ctx: &PassCtx<'_>, value: &[f64], out: &mut [f64]) {
        let l = ctx.lanes;
        for s in 0..self.num_states {
            let dst = &mut out[s * l..(s + 1) * l];
            if ctx.goal[s] {
                dst.fill(1.0);
                continue;
            }
            if self.immediate[s] {
                dst.fill(0.0);
                continue;
            }
            let src = &value[s * l..(s + 1) * l];
            let stay = &ctx.stay[s * l..(s + 1) * l];
            for k in 0..l {
                dst[k] = stay[k] * src[k];
            }
            for e in self.row_ptr[s]..self.row_ptr[s + 1] {
                let target = self.cols[e] as usize * l;
                let tv = &value[target..target + l];
                let jump = &ctx.jump[e * l..(e + 1) * l];
                for k in 0..l {
                    dst[k] += jump[k] * tv[k];
                }
            }
        }
    }

    /// Resolves immediate states by iterating the scheduler optimisation to a
    /// fixpoint, per lane of `value` (`l` of them), in state order — the
    /// batched form of the reference relax's settle step.  Lanes are
    /// independent: a lane that has settled is left untouched by the extra
    /// rounds another lane may need, so each lane's bits match a solo run.
    fn settle_immediate(&self, goal: &[bool], value: &mut [f64], maximise: bool, l: usize) {
        let n = self.num_states;
        for _ in 0..n {
            let mut changed = false;
            for s in 0..n {
                if goal[s] || !self.immediate[s] {
                    continue;
                }
                let (lo, hi) = (self.choice_ptr[s], self.choice_ptr[s + 1]);
                if lo == hi {
                    continue;
                }
                for k in 0..l {
                    let candidate = self.choice_cols[lo..hi]
                        .iter()
                        .map(|&t| value[t as usize * l + k])
                        .fold(
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

/// The loop-invariant context of one reachability call, or of one lane
/// group of it.  Every per-lane array is lane-minor over `lanes` lanes.
struct PassCtx<'a> {
    lanes: usize,
    stay: Vec<f64>,
    jump: Vec<f64>,
    goal: &'a [bool],
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

/// The lanes `group` of a lane-minor array (`a[i * lanes + k]`), in the same
/// layout over `group.len()` lanes.
fn lanes_of<T: Clone>(a: &[T], lanes: usize, group: &Range<usize>) -> Vec<T> {
    a.chunks_exact(lanes)
        .flat_map(|row| row[group.clone()].iter().cloned())
        .collect()
}

/// Splits `0..n` into at most `workers` contiguous, near-equal ranges.
fn chunk_ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.min(n).max(1);
    let base = n / workers;
    let remainder = n % workers;
    let mut start = 0usize;
    (0..workers)
        .map(|i| {
            let len = base + usize::from(i < remainder);
            let range = start..start + len;
            start += len;
            range
        })
        .collect()
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
                .reachability(0, goal, &[t], epsilon, maximise, 1)
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
        assert!(k.reachability(1, &[false], &TIMES, 1e-9, true, 1).is_err());
        assert!(k
            .reachability(0, &[false, true], &TIMES, 1e-9, true, 1)
            .is_err());
        assert!(k.reachability(0, &[false], &[-1.0], 1e-9, true, 1).is_err());
        assert!(k
            .reachability(0, &[false], &[f64::NAN], 1e-9, true, 1)
            .is_err());
        // Epsilon is checked on every path: with Markovian edges, for an
        // empty sweep, and on a model without any Markovian edge.
        let no_edges = RelaxKernel::from_states(&[CtmdpState::Markovian(vec![])]);
        assert!(no_edges
            .reachability(0, &[false], &[-1.0], 1e-9, true, 1)
            .is_err());
        for epsilon in [0.0, 1.0, f64::NAN] {
            for kernel in [&k, &no_edges] {
                for times in [&TIMES[..], &[]] {
                    let r = kernel.reachability(0, &[false], times, epsilon, true, 1);
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
                    .reachability(initial, &goal, &TIMES, 1e-10, maximise, 1)
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
        let kernel = scaled_kernel(&states, &scales);
        for workers in [1usize, 3] {
            let batched = kernel
                .reachability(initial, &goal, &TIMES, 1e-10, true, workers)
                .unwrap();
            for (k, &scale) in scales.iter().enumerate() {
                let scaled: Vec<CtmdpState> = states
                    .iter()
                    .map(|st| match st {
                        CtmdpState::Markovian(row) => CtmdpState::Markovian(
                            row.iter().map(|&(t, r)| (t, r * scale)).collect(),
                        ),
                        CtmdpState::Immediate(s) => CtmdpState::Immediate(s.clone()),
                    })
                    .collect();
                let solo = RelaxKernel::from_states(&scaled)
                    .reachability(initial, &goal, &TIMES, 1e-10, true, 1)
                    .unwrap();
                for (t, s) in solo.iter().enumerate() {
                    assert_eq!(
                        batched[t * lanes + k].to_bits(),
                        s.to_bits(),
                        "lane {k} time {t} workers {workers}"
                    );
                }
            }
        }
    }

    /// Lane scales of the threading tests: 7 lanes, a count no worker count
    /// below it divides, with a repeated scale to share Poisson windows.
    const SCALES: [f64; 7] = [1.0, 0.6, 1.35, 2.2, 0.8, 1.35, 0.25];

    #[test]
    fn worker_count_never_changes_the_bits() {
        // Deterministic (at most one immediate successor) and
        // nondeterministic batched models.
        for (seed, max_succs) in [(5u64, 2usize), (99, 4), (31, 4)] {
            let (states, initial, goal) = random_parts(seed, 24, max_succs);
            let kernel = scaled_kernel(&states, &SCALES);
            for maximise in [false, true] {
                let reference = kernel
                    .reachability(initial, &goal, &TIMES, 1e-9, maximise, 1)
                    .unwrap();
                for workers in [2usize, 3, 4, SCALES.len()] {
                    let before = stats().threaded_passes;
                    let threaded = kernel
                        .reachability(initial, &goal, &TIMES, 1e-9, maximise, workers)
                        .unwrap();
                    assert!(stats().threaded_passes > before, "workers {workers} split");
                    for (a, b) in reference.iter().zip(&threaded) {
                        assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} workers {workers}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_failing_lane_fails_every_worker_count_alike() {
        // The last lane's Poisson mean (rate × 1e12 × 1.1) is far above
        // `MAX_MEAN`; a split call must report the one-group call's error.
        let (states, initial, goal) = random_parts(99, 24, 4);
        let mut scales = SCALES.to_vec();
        scales.push(1e12);
        let kernel = scaled_kernel(&states, &scales);
        let reference = kernel.reachability(initial, &goal, &TIMES, 1e-9, true, 1);
        assert!(
            matches!(reference, Err(Error::MeanTooLarge { .. })),
            "{reference:?}"
        );
        for workers in [2usize, 3, 4, scales.len()] {
            let split = kernel.reachability(initial, &goal, &TIMES, 1e-9, true, workers);
            assert_eq!(split, reference, "workers {workers}");
        }
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
            .reachability(0, &goal_states, &TIMES, 1e-10, true, 1)
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
        assert!(kernel.reachability(0, &goal, &TIMES, 0.0, true, 1).is_err());
        let r = kernel
            .reachability(0, &goal, &TIMES, 1e-9, true, 1)
            .unwrap();
        assert_eq!(r, vec![0.0; TIMES.len()]);
        let legacy = reference_reachability(&states, 0, &goal, &TIMES, 1e-9, true).unwrap();
        assert_eq!(r, legacy);
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for n in [0usize, 1, 7, 32] {
            for workers in [1usize, 2, 3, 8, 40] {
                let ranges = chunk_ranges(n, workers);
                assert!(!ranges.is_empty() || n == 0 || workers == 0);
                let mut expected = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, expected);
                    expected = r.end;
                }
                assert_eq!(expected, n);
                assert!(ranges.len() <= workers.max(1));
            }
        }
    }

    #[test]
    fn auto_workers_stays_sequential_for_small_models() {
        let k = RelaxKernel::from_states(&[CtmdpState::Markovian(vec![(0, 1.0)])]);
        assert_eq!(k.auto_workers(), 1);
    }

    #[test]
    fn stats_and_worker_cap_round_trip() {
        let (states, initial, goal) = random_parts(11, 16, 4);
        let kernel = scaled_kernel(&states, &SCALES[..3]);
        let before = stats();
        kernel
            .reachability(initial, &goal, &[0.5], 1e-9, true, 2)
            .unwrap();
        let after = stats();
        assert!(after.relax_passes > before.relax_passes);
        assert!(after.threaded_passes > before.threaded_passes);
        assert!(after.batched_calls > before.batched_calls);
        // The cap setter round-trips and 0 restores the host default.
        set_max_workers(3);
        assert_eq!(max_workers(), 3);
        set_max_workers(0);
        assert!(max_workers() >= 1);
    }
}
