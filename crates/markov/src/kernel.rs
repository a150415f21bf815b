//! Flat CSR value-iteration kernel for CTMDP transient analysis.
//!
//! Every query the engine answers bottoms out in the uniformisation /
//! value-iteration passes of [`crate::ctmdp`].  The naive relax loop there
//! chases per-state `Vec<(target, rate)>` allocations; this module lowers the
//! Markovian choices into a flat CSR-style layout once per model so the inner
//! relax runs over contiguous arrays, and adds two levers on top:
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
//! * **Multi-threaded relax** — for large models the per-step relax is split
//!   across disjoint state ranges.  Each state's next value is computed
//!   independently in a fixed operation order, workers write only their own
//!   chunk, and the chunks are reassembled in index order on the coordinating
//!   thread — so results are bit-identical to the sequential pass and
//!   invariant under the worker count.  The immediate-state fixpoint and the
//!   Poisson accumulation stay sequential (they are a negligible fraction of
//!   the work and their order is part of the determinism contract).
//!
//! The kernel is the production path of [`crate::Ctmdp`]'s reachability
//! methods; the original nested-loop implementation is kept as
//! [`crate::Ctmdp::reachability_extremal_multi_legacy`] and serves as the
//! reference in differential tests.

use crate::ctmdp::CtmdpState;
use crate::poisson::{poisson_weights_multi, PoissonWeights};
use crate::{Error, Result};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Process-wide cap on relax workers; 0 means "derive from the host".
static MAX_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Total relax passes executed (one per uniformised step per reachability
/// call, threaded or not).
static RELAX_PASSES: AtomicU64 = AtomicU64::new(0);
/// Relax passes that ran on more than one worker.
static THREADED_PASSES: AtomicU64 = AtomicU64::new(0);
/// Reachability calls that batched more than one lane.
static BATCHED_CALLS: AtomicU64 = AtomicU64::new(0);

/// Cumulative counters of kernel activity, for service accounting.
///
/// The counters are process-global and monotonically increasing; a service
/// exposes deltas between snapshots.  They never influence results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Relax passes executed (one per uniformised step of every call).
    pub relax_passes: u64,
    /// Relax passes that were split across more than one worker.
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
/// only changes *how fast* a pass runs — results are worker-count-invariant.
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
/// multi-threaded) value iteration.
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
    /// summation order of the legacy relax, so precomputing changes no bits).
    exit: Vec<f64>,
    choice_ptr: Vec<usize>,
    choice_cols: Vec<u32>,
    immediate: Vec<bool>,
}

impl RelaxKernel {
    /// Lowers a validated CTMDP state vector into the flat layout
    /// (single-lane).
    ///
    /// The states must satisfy the invariants of [`crate::Ctmdp::new`]
    /// (in-range targets, finite positive rates); this is the cached builder
    /// [`crate::Ctmdp`] invokes once per model.
    pub fn from_states(states: &[CtmdpState]) -> RelaxKernel {
        let n = states.len();
        let mut kernel = RelaxKernel {
            num_states: n,
            lanes: 1,
            row_ptr: Vec::with_capacity(n + 1),
            cols: Vec::new(),
            rates: Vec::new(),
            exit: Vec::with_capacity(n),
            choice_ptr: Vec::with_capacity(n + 1),
            choice_cols: Vec::new(),
            immediate: Vec::with_capacity(n),
        };
        kernel.row_ptr.push(0);
        kernel.choice_ptr.push(0);
        for st in states {
            match st {
                CtmdpState::Markovian(row) => {
                    let mut exit = 0.0f64;
                    for &(target, rate) in row {
                        kernel.cols.push(target);
                        kernel.rates.push(rate);
                        exit += rate;
                    }
                    kernel.exit.push(exit);
                    kernel.immediate.push(false);
                }
                CtmdpState::Immediate(succs) => {
                    kernel.choice_cols.extend_from_slice(succs);
                    kernel.exit.push(0.0);
                    kernel.immediate.push(true);
                }
            }
            kernel.row_ptr.push(kernel.cols.len());
            kernel.choice_ptr.push(kernel.choice_cols.len());
        }
        kernel
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
    /// folded in state order exactly like the legacy scalar path.
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
    /// models too small to amortize thread hand-off, otherwise proportional
    /// to the per-pass work, capped by [`max_workers`] and the state count.
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
            .min(self.num_states)
            .max(1)
    }

    /// Extremal time-bounded reachability for every lane and every time
    /// bound, in one value-iteration pass over the batch.
    ///
    /// Returns values in time-major order: `out[t * lanes + k]` is the
    /// probability for `times[t]` under lane `k`, clamped to `[0, 1]`.  Every
    /// lane is computed with its own uniformisation rate, so each lane's
    /// result is bit-identical to running that lane alone — and, with
    /// `workers == 1`, bit-identical to the legacy nested-loop relax.  For
    /// `workers > 1` the relax is split across disjoint state ranges and
    /// reassembled in index order, which is also bit-identical; the worker
    /// count never changes the bits.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidState`] for an out-of-range `initial`,
    /// [`Error::DimensionMismatch`] for a wrong `goal` length, and
    /// [`Error::InvalidValue`] for a negative/NaN time bound or an `epsilon`
    /// outside `(0, 1)`.
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
        self.settle_immediate(goal, &mut terminal, maximise);

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
        let k_max = weights
            .iter()
            .map(|w| w.weights.len() - 1)
            .max()
            .unwrap_or(0);

        // Loop-invariant uniformised coefficients, hoisted out of the relax:
        // identical operations to the legacy per-step divisions, evaluated
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
            stay,
            jump,
            goal,
            weights,
            k_max,
            initial,
            maximise,
        };
        let mut results = vec![0.0f64; times.len() * l];
        if workers <= 1 || n == 0 || k_max == 0 {
            self.iterate_sequential(&ctx, terminal, &mut results);
        } else {
            self.iterate_threaded(&ctx, terminal, &mut results, workers);
        }
        Ok(results.into_iter().map(|r| r.clamp(0.0, 1.0)).collect())
    }

    /// Sequential value iteration: the single-worker driver of
    /// [`reachability`](Self::reachability).
    fn iterate_sequential(&self, ctx: &PassCtx<'_>, terminal: Vec<f64>, results: &mut [f64]) {
        let mut value = terminal;
        let mut next = vec![0.0f64; value.len()];
        accumulate(results, &ctx.weights, 0, &value, ctx.initial, self.lanes);
        for step in 1..=ctx.k_max {
            self.relax_chunk(ctx, &value, 0..self.num_states, &mut next);
            RELAX_PASSES.fetch_add(1, Ordering::Relaxed);
            self.settle_immediate(ctx.goal, &mut next, ctx.maximise);
            std::mem::swap(&mut value, &mut next);
            accumulate(results, &ctx.weights, step, &value, ctx.initial, self.lanes);
        }
    }

    /// Multi-threaded value iteration: `workers` persistent scoped threads
    /// each own a fixed disjoint state range for the whole call.  Per step,
    /// the coordinating thread ships the (shared, read-only) value vector to
    /// every worker, collects their chunk buffers, reassembles `next` in
    /// index order, and runs the immediate fixpoint and Poisson accumulation
    /// itself — so the operation order, and therefore every bit of the
    /// result, matches the sequential driver regardless of the worker count.
    fn iterate_threaded(
        &self,
        ctx: &PassCtx<'_>,
        terminal: Vec<f64>,
        results: &mut [f64],
        workers: usize,
    ) {
        // One relax job: the shared read-only value vector plus the worker's
        // reusable chunk buffer.
        type RelaxJob = (Arc<Vec<f64>>, Vec<f64>);
        let l = self.lanes;
        let chunks = chunk_ranges(self.num_states, workers);
        let workers = chunks.len();
        std::thread::scope(|scope| {
            let (res_tx, res_rx) = mpsc::channel::<(usize, Vec<f64>)>();
            let mut job_txs: Vec<mpsc::Sender<RelaxJob>> = Vec::with_capacity(workers);
            for (index, range) in chunks.iter().enumerate() {
                let (job_tx, job_rx) = mpsc::channel::<RelaxJob>();
                job_txs.push(job_tx);
                let res_tx = res_tx.clone();
                let range = range.clone();
                let ctx: &PassCtx<'_> = ctx;
                scope.spawn(move || {
                    while let Ok((value, mut chunk)) = job_rx.recv() {
                        self.relax_chunk(ctx, &value, range.clone(), &mut chunk);
                        // Release the shared value before reporting, so the
                        // coordinator can reclaim the buffer allocation-free
                        // once every chunk has arrived.
                        drop(value);
                        if res_tx.send((index, chunk)).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(res_tx);

            let mut value = Arc::new(terminal);
            let mut next = vec![0.0f64; self.num_states * l];
            let mut chunk_bufs: Vec<Option<Vec<f64>>> = chunks
                .iter()
                .map(|r| Some(vec![0.0f64; r.len() * l]))
                .collect();
            accumulate(results, &ctx.weights, 0, &value, ctx.initial, l);
            for step in 1..=ctx.k_max {
                for (tx, buf) in job_txs.iter().zip(chunk_bufs.iter_mut()) {
                    let job = (
                        Arc::clone(&value),
                        buf.take().expect("chunk buffer returned last step"),
                    );
                    tx.send(job).expect("relax worker alive");
                }
                for _ in 0..workers {
                    let (index, chunk) = res_rx.recv().expect("relax worker alive");
                    next[chunks[index].start * l..chunks[index].end * l].copy_from_slice(&chunk);
                    chunk_bufs[index] = Some(chunk);
                }
                RELAX_PASSES.fetch_add(1, Ordering::Relaxed);
                THREADED_PASSES.fetch_add(1, Ordering::Relaxed);
                self.settle_immediate(ctx.goal, &mut next, ctx.maximise);
                // Every worker dropped its Arc clone before reporting, so
                // make_mut reclaims the buffer without cloning.
                std::mem::swap(Arc::make_mut(&mut value), &mut next);
                accumulate(results, &ctx.weights, step, &value, ctx.initial, l);
            }
            drop(job_txs);
        });
    }

    /// One relax step over `range`, writing into `out` (of length
    /// `range.len() × lanes`): goal states pin at 1, immediate states reset
    /// to 0 for the subsequent fixpoint, Markovian states accumulate
    /// `stay·v[s] + Σ jump·v[target]` in row order — the exact operation
    /// sequence of the legacy nested loop, for every lane at once.
    fn relax_chunk(&self, ctx: &PassCtx<'_>, value: &[f64], range: Range<usize>, out: &mut [f64]) {
        let l = self.lanes;
        let base = range.start;
        for s in range {
            let dst = &mut out[(s - base) * l..(s - base + 1) * l];
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
    /// fixpoint, per lane, in state order — the batched form of the legacy
    /// `settle_immediate`.  Lanes are independent: a lane that has settled is
    /// left untouched by the extra rounds another lane may need, so each
    /// lane's bits match a solo run.
    fn settle_immediate(&self, goal: &[bool], value: &mut [f64], maximise: bool) {
        let n = self.num_states;
        let l = self.lanes;
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

/// The loop-invariant context of one reachability call.
struct PassCtx<'a> {
    stay: Vec<f64>,
    jump: Vec<f64>,
    goal: &'a [bool],
    /// Time-major Poisson windows: `weights[t * lanes + k]`.
    weights: Vec<PoissonWeights>,
    k_max: usize,
    initial: usize,
    maximise: bool,
}

/// Adds step `step`'s Poisson-weighted contribution of the initial state to
/// every (time, lane) accumulator.
fn accumulate(
    results: &mut [f64],
    weights: &[PoissonWeights],
    step: usize,
    value: &[f64],
    initial: usize,
    lanes: usize,
) {
    let at_initial = &value[initial * lanes..(initial + 1) * lanes];
    for (result, w) in results.chunks_exact_mut(lanes).zip(weights.chunks(lanes)) {
        for k in 0..lanes {
            if let Some(&weight) = w[k].weights.get(step) {
                result[k] += weight * at_initial[k];
            }
        }
    }
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
    use crate::Ctmdp;

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

    /// A random small CTMDP: mixed Markovian/immediate states, some goals.
    /// Kept tiny (n ≤ 32) so the whole module stays Miri-friendly.
    fn random_ctmdp(seed: u64, n: usize) -> Ctmdp {
        let (states, initial, goal) = random_parts(seed, n);
        Ctmdp::new(states, initial, goal).unwrap()
    }

    /// The states, initial state and goal set of [`random_ctmdp`].
    fn random_parts(seed: u64, n: usize) -> (Vec<CtmdpState>, usize, Vec<bool>) {
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
                    let succs = rng.below(4);
                    CtmdpState::Immediate((0..succs).map(|_| rng.below(n) as u32).collect())
                }
            })
            .collect();
        let goal = (0..n).map(|_| rng.unit() < 0.2).collect();
        (states, rng.below(n), goal)
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
        assert!(k.reachability(0, &[false], &TIMES, 0.0, true, 1).is_err());
    }

    #[test]
    fn kernel_matches_legacy_bit_for_bit_on_random_models() {
        for seed in [3u64, 17, 2026, 0xBEEF] {
            let mdp = random_ctmdp(seed, 24);
            for maximise in [false, true] {
                let legacy = mdp
                    .reachability_extremal_multi_legacy(&TIMES, 1e-10, maximise)
                    .unwrap();
                let fast = if maximise {
                    mdp.reachability_max_multi(&TIMES, 1e-10).unwrap()
                } else {
                    mdp.reachability_min_multi(&TIMES, 1e-10).unwrap()
                };
                for (a, b) in legacy.iter().zip(&fast) {
                    assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} max {maximise}");
                }
            }
        }
    }

    #[test]
    fn batched_lanes_match_scalar_models_bit_for_bit() {
        // One shared structure, three rate scalings: lane k must reproduce a
        // standalone Ctmdp with the same rates exactly.
        let (states, initial, goal) = random_parts(42, 20);
        let scales = [1.0, 1.35, 0.8];
        let lanes = scales.len();
        let edges: Vec<(usize, u32, f64)> = states
            .iter()
            .enumerate()
            .flat_map(|(s, st)| match st {
                CtmdpState::Markovian(row) => row.iter().map(move |&(t, r)| (s, t, r)).collect(),
                CtmdpState::Immediate(_) => Vec::new(),
            })
            .collect();
        let mut lane_rates = Vec::with_capacity(edges.len() * lanes);
        for &(_, _, r) in &edges {
            for &scale in &scales {
                lane_rates.push(r * scale);
            }
        }
        let kernel = RelaxKernel::from_template(&states, &lane_rates, lanes).unwrap();
        for workers in [1usize, 3] {
            let batched = kernel
                .reachability(initial, &goal, &TIMES, 1e-10, true, workers)
                .unwrap();
            for (k, &scale) in scales.iter().enumerate() {
                let scaled = Ctmdp::new(
                    states
                        .iter()
                        .map(|st| match st {
                            CtmdpState::Markovian(row) => CtmdpState::Markovian(
                                row.iter().map(|&(t, r)| (t, r * scale)).collect(),
                            ),
                            CtmdpState::Immediate(s) => CtmdpState::Immediate(s.clone()),
                        })
                        .collect(),
                    initial,
                    goal.clone(),
                )
                .unwrap();
                let solo = scaled.reachability_max_multi(&TIMES, 1e-10).unwrap();
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

    #[test]
    fn worker_count_never_changes_the_bits() {
        for seed in [5u64, 99] {
            let (states, initial, goal) = random_parts(seed, 32);
            let kernel = RelaxKernel::from_states(&states);
            for maximise in [false, true] {
                let reference = kernel
                    .reachability(initial, &goal, &TIMES, 1e-9, maximise, 1)
                    .unwrap();
                for workers in [2usize, 4] {
                    let threaded = kernel
                        .reachability(initial, &goal, &TIMES, 1e-9, maximise, workers)
                        .unwrap();
                    for (a, b) in reference.iter().zip(&threaded) {
                        assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} workers {workers}");
                    }
                }
            }
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
        let mdp = Ctmdp::new(states, 0, goal_states.clone()).unwrap();
        assert!(mdp.is_deterministic());
        let absorbed: Vec<(u32, u32, f64)> = transitions
            .iter()
            .copied()
            .filter(|&(s, _, _)| !goal_states[s as usize])
            .collect();
        let ctmc = crate::Ctmc::from_transitions(n, 0, &absorbed).unwrap();
        let via_ctmc = ctmc
            .reachability_multi(&goal_states, &TIMES, 1e-10)
            .unwrap();
        let via_kernel = mdp.reachability_max_multi(&TIMES, 1e-10).unwrap();
        for (a, b) in via_ctmc.iter().zip(&via_kernel) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn no_markovian_edges_short_circuits_like_legacy() {
        let mdp = Ctmdp::new(
            vec![
                CtmdpState::Immediate(vec![1]),
                CtmdpState::Immediate(vec![]),
            ],
            0,
            vec![false, false],
        )
        .unwrap();
        // Epsilon is not validated on this path, matching the legacy shortcut.
        let r = mdp.reachability_max_multi(&TIMES, 0.0).unwrap();
        assert_eq!(r, vec![0.0; TIMES.len()]);
        let legacy = mdp
            .reachability_extremal_multi_legacy(&TIMES, 0.0, true)
            .unwrap();
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
        let before = stats();
        let (states, initial, goal) = random_parts(11, 16);
        let kernel = RelaxKernel::from_states(&states);
        kernel
            .reachability(initial, &goal, &[0.5], 1e-9, true, 2)
            .unwrap();
        let after = stats();
        assert!(after.relax_passes > before.relax_passes);
        assert!(after.threaded_passes > before.threaded_passes);
        // The cap setter round-trips and 0 restores the host default.
        set_max_workers(3);
        assert_eq!(max_workers(), 3);
        set_max_workers(0);
        assert!(max_workers() >= 1);
    }
}
