//! Continuous-time Markov chains and transient (uniformisation) analysis.

use crate::poisson::poisson_weights_multi;
use crate::sparse::CsrMatrix;
use crate::{Error, Result};

/// A continuous-time Markov chain with a single initial state.
///
/// The chain is stored as a rate matrix of off-diagonal entries; absorbing states
/// simply have no outgoing transitions.
#[derive(Debug, Clone)]
pub struct Ctmc {
    num_states: usize,
    initial: usize,
    rates: CsrMatrix,
    exit_rates: Vec<f64>,
}

impl Ctmc {
    /// Builds a CTMC from `(from, to, rate)` transitions.
    ///
    /// Self-loop transitions are ignored (they have no observable effect on a
    /// CTMC); duplicate transitions are summed.
    ///
    /// # Errors
    ///
    /// Returns an error if a state index is out of range, a rate is not finite and
    /// strictly positive, or the initial state is out of range.
    pub fn from_transitions(
        num_states: usize,
        initial: usize,
        transitions: &[(u32, u32, f64)],
    ) -> Result<Ctmc> {
        if initial >= num_states {
            return Err(Error::InvalidState {
                state: initial as u32,
                num_states: num_states as u32,
            });
        }
        for &(_, _, rate) in transitions {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(Error::InvalidValue { value: rate });
            }
        }
        let filtered: Vec<(u32, u32, f64)> = transitions
            .iter()
            .copied()
            .filter(|&(f, t, _)| f != t)
            .collect();
        let rates = CsrMatrix::from_triplets(num_states, num_states, &filtered)?;
        let exit_rates = (0..num_states).map(|s| rates.row_sum(s)).collect();
        Ok(Ctmc {
            num_states,
            initial,
            rates,
            exit_rates,
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of (off-diagonal) transitions.
    pub fn num_transitions(&self) -> usize {
        self.rates.num_entries()
    }

    /// The initial state.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// The rate matrix (off-diagonal entries only).
    pub fn rates(&self) -> &CsrMatrix {
        &self.rates
    }

    /// The transitions as `(from, to, rate)` triplets, in row-major (CSR)
    /// order.
    ///
    /// This is the externalizable form of the chain: feeding the triplets
    /// back into [`from_transitions`](Self::from_transitions) with the same
    /// state count and initial state reconstructs a chain that answers every
    /// transient/steady-state query bit-identically (the triplets are already
    /// deduplicated and self-loop-free, so re-assembly changes nothing) —
    /// which is how the persistent model cache serializes monolithic models.
    pub fn transitions(&self) -> Vec<(u32, u32, f64)> {
        let mut triplets = Vec::with_capacity(self.num_transitions());
        for s in 0..self.num_states {
            let (cols, vals) = self.rates.row(s);
            for (&c, &v) in cols.iter().zip(vals) {
                triplets.push((s as u32, c, v));
            }
        }
        triplets
    }

    /// Total exit rate of `state`.
    pub fn exit_rate(&self, state: usize) -> f64 {
        self.exit_rates[state]
    }

    /// The largest exit rate, used as the uniformisation constant.
    pub fn max_exit_rate(&self) -> f64 {
        self.exit_rates.iter().copied().fold(0.0, f64::max)
    }

    /// Builds the uniformised DTMC `P = I + Q / lambda` as a sparse matrix.
    ///
    /// `lambda` must be at least the maximal exit rate.
    fn uniformised(&self, lambda: f64) -> Result<CsrMatrix> {
        let mut triplets: Vec<(u32, u32, f64)> =
            Vec::with_capacity(self.num_transitions() + self.num_states);
        for s in 0..self.num_states {
            let (cols, vals) = self.rates.row(s);
            for (&c, &v) in cols.iter().zip(vals) {
                triplets.push((s as u32, c, v / lambda));
            }
            let stay = 1.0 - self.exit_rates[s] / lambda;
            if stay > 0.0 {
                triplets.push((s as u32, s as u32, stay));
            }
        }
        CsrMatrix::from_triplets(self.num_states, self.num_states, &triplets)
    }

    /// Probability of reaching a `goal` state within time `t` (time-bounded
    /// reachability).  Goal states are made absorbing, so the result is the
    /// cumulative probability of having *ever* visited a goal state by time `t` —
    /// exactly the unreliability measure of a DFT whose goal states are the system
    /// failure states.
    ///
    /// # Errors
    ///
    /// The same errors as [`reachability_multi`](Self::reachability_multi).
    pub fn reachability(&self, goal: &[bool], t: f64, epsilon: f64) -> Result<f64> {
        Ok(self.reachability_multi(goal, &[t], epsilon)?[0])
    }

    /// [`reachability`](Self::reachability) for many time bounds in a *single*
    /// uniformisation pass.
    ///
    /// The Poisson-weighted sum of uniformised matrix powers shares the power
    /// sequence between all time bounds — only the weights differ — so a whole
    /// mission-time sweep costs one pass to the largest truncation point instead of
    /// one pass per point.  Results are returned in the same order as `times`; a
    /// single-element slice produces bit-identical values to the single-time
    /// method.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `goal.len() != num_states`, and
    /// [`Error::InvalidValue`] for a negative/NaN time bound or an `epsilon`
    /// outside `(0, 1)`.
    pub fn reachability_multi(
        &self,
        goal: &[bool],
        times: &[f64],
        epsilon: f64,
    ) -> Result<Vec<f64>> {
        if goal.len() != self.num_states {
            return Err(Error::DimensionMismatch {
                expected: self.num_states,
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
        // Make goal states absorbing, so "being in a goal state at time t" equals
        // "having ever visited one by time t".
        let mut triplets: Vec<(u32, u32, f64)> = Vec::new();
        for (s, _) in goal.iter().enumerate().filter(|&(_, &g)| !g) {
            let (cols, vals) = self.rates.row(s);
            for (&c, &v) in cols.iter().zip(vals) {
                triplets.push((s as u32, c, v));
            }
        }
        let rates = CsrMatrix::from_triplets(self.num_states, self.num_states, &triplets)?;
        let exit_rates: Vec<f64> = (0..self.num_states).map(|s| rates.row_sum(s)).collect();
        let absorbed = Ctmc {
            num_states: self.num_states,
            initial: self.initial,
            rates,
            exit_rates,
        };

        let mut current = vec![0.0; self.num_states];
        current[absorbed.initial] = 1.0;
        let lambda = absorbed.max_exit_rate();
        let goal_mass = |pi: &[f64]| -> f64 {
            goal.iter()
                .zip(pi.iter())
                .filter(|&(&g, _)| g)
                .map(|(_, &p)| p)
                .sum()
        };
        if lambda == 0.0 {
            // Every non-goal state is absorbing too: the distribution never moves.
            return Ok(vec![goal_mass(&current); times.len()]);
        }
        let p = absorbed.uniformised(lambda)?;
        // One Poisson window per distinct mean: repeated time bounds (and the
        // t = 0 degenerate window) are computed once and shared.
        let means: Vec<f64> = times.iter().map(|&t| lambda * t).collect();
        let weights = poisson_weights_multi(&means, epsilon)?;
        let k_max = weights
            .iter()
            .map(|w| w.weights.len() - 1)
            .max()
            .unwrap_or(0);

        let mut results = vec![0.0; times.len()];
        let mut scratch = vec![0.0; self.num_states];
        for k in 0..=k_max {
            if k > 0 {
                p.vec_mul_into(&current, &mut scratch)?;
                std::mem::swap(&mut current, &mut scratch);
            }
            let mass = goal_mass(&current);
            for (result, w) in results.iter_mut().zip(weights.iter()) {
                if let Some(&weight) = w.weights.get(k) {
                    *result += weight * mass;
                }
            }
        }
        Ok(results.into_iter().map(|r| r.clamp(0.0, 1.0)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_round_trip_through_from_transitions() {
        // Duplicates sum and self-loops drop on construction, so the exported
        // triplets are canonical: re-assembly is exact, down to the bits.
        let ctmc =
            Ctmc::from_transitions(3, 0, &[(0, 1, 0.3), (0, 1, 0.4), (1, 1, 9.0), (1, 2, 2.0)])
                .unwrap();
        let triplets = ctmc.transitions();
        assert_eq!(triplets, vec![(0, 1, 0.3 + 0.4), (1, 2, 2.0)]);
        let rebuilt = Ctmc::from_transitions(ctmc.num_states(), ctmc.initial(), &triplets).unwrap();
        assert_eq!(rebuilt.transitions(), triplets);
        let goal = [false, false, true];
        let a = ctmc.reachability(&goal, 1.3, 1e-12).unwrap();
        let b = rebuilt.reachability(&goal, 1.3, 1e-12).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn single_exponential_failure() {
        // 0 --lambda--> 1 (absorbing). P(fail by t) = 1 - exp(-lambda t).
        let lambda = 0.7;
        let ctmc = Ctmc::from_transitions(2, 0, &[(0, 1, lambda)]).unwrap();
        for t in [0.0, 0.5, 1.0, 3.0] {
            let p = ctmc.reachability(&[false, true], t, 1e-12).unwrap();
            let exact = 1.0 - (-lambda * t).exp();
            assert!((p - exact).abs() < 1e-9, "t={t}: {p} vs {exact}");
        }
    }

    #[test]
    fn two_stage_erlang() {
        // 0 --l--> 1 --l--> 2: time to absorption is Erlang(2, l).
        let l = 2.0;
        let t = 1.3;
        let ctmc = Ctmc::from_transitions(3, 0, &[(0, 1, l), (1, 2, l)]).unwrap();
        let p = ctmc.reachability(&[false, false, true], t, 1e-12).unwrap();
        let exact = 1.0 - (-l * t).exp() * (1.0 + l * t);
        assert!((p - exact).abs() < 1e-9);
    }

    #[test]
    fn parallel_and_of_two_components() {
        // Two independent exponential(1) components, system fails when both fail.
        // State encoding: 0 = both up, 1 = one down, 2 = both down.
        let ctmc = Ctmc::from_transitions(3, 0, &[(0, 1, 2.0), (1, 2, 1.0)]).unwrap();
        let t = 1.0;
        let p = ctmc.reachability(&[false, false, true], t, 1e-12).unwrap();
        let exact = (1.0 - (-t).exp()).powi(2);
        assert!((p - exact).abs() < 1e-9, "{p} vs {exact}");
    }

    #[test]
    fn competing_exponentials_split_the_mass() {
        // 0 --1--> 1, 0 --2--> 2: the first jump happens at rate 3 and picks
        // each target in proportion to its rate, so P(reach 1 by t) =
        // (1 - e^{-3t}) / 3 and P(reach 2 by t) = 2 (1 - e^{-3t}) / 3, and the
        // two masses sum to P(reach {1, 2} by t).
        let ctmc = Ctmc::from_transitions(3, 0, &[(0, 1, 1.0), (0, 2, 2.0)]).unwrap();
        let times = [0.1, 1.0, 10.0];
        let one = ctmc
            .reachability_multi(&[false, true, false], &times, 1e-12)
            .unwrap();
        let two = ctmc
            .reachability_multi(&[false, false, true], &times, 1e-12)
            .unwrap();
        let either = ctmc
            .reachability_multi(&[false, true, true], &times, 1e-12)
            .unwrap();
        for (i, &t) in times.iter().enumerate() {
            let jumped = 1.0 - (-3.0 * t).exp();
            assert!((one[i] - jumped / 3.0).abs() < 1e-9, "t={t}");
            assert!((two[i] - 2.0 * jumped / 3.0).abs() < 1e-9, "t={t}");
            assert!((either[i] - jumped).abs() < 1e-9, "t={t}");
            assert!((one[i] + two[i] - either[i]).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn reachability_at_time_zero_counts_initial_goal() {
        let ctmc = Ctmc::from_transitions(2, 0, &[(0, 1, 1.0)]).unwrap();
        assert_eq!(ctmc.reachability(&[true, false], 0.0, 1e-9).unwrap(), 1.0);
        assert_eq!(ctmc.reachability(&[false, true], 0.0, 1e-9).unwrap(), 0.0);
    }

    #[test]
    fn absorbing_chain_without_transitions() {
        // No transition anywhere: the initial state keeps all the mass.
        let ctmc = Ctmc::from_transitions(1, 0, &[]).unwrap();
        assert_eq!(ctmc.max_exit_rate(), 0.0);
        let times = [0.0, 5.0];
        assert_eq!(
            ctmc.reachability_multi(&[true], &times, 1e-9).unwrap(),
            vec![1.0; 2]
        );
        assert_eq!(
            ctmc.reachability_multi(&[false], &times, 1e-9).unwrap(),
            vec![0.0; 2]
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(Ctmc::from_transitions(2, 5, &[]).is_err());
        assert!(Ctmc::from_transitions(2, 0, &[(0, 1, -1.0)]).is_err());
        assert!(Ctmc::from_transitions(2, 0, &[(0, 1, f64::NAN)]).is_err());
        let ctmc = Ctmc::from_transitions(2, 0, &[(0, 1, 1.0)]).unwrap();
        assert!(ctmc.reachability(&[true], 1.0, 1e-9).is_err());
        assert!(ctmc.reachability(&[false, true], -1.0, 1e-9).is_err());
        assert!(ctmc.reachability(&[false, true], f64::NAN, 1e-9).is_err());
        // Epsilon is checked on every path: an empty sweep, and a chain
        // whose uniformisation rate is zero once the goal is absorbing.
        for epsilon in [0.0, 1.0, f64::NAN] {
            assert!(ctmc.reachability(&[false, true], 1.0, epsilon).is_err());
            assert!(ctmc
                .reachability_multi(&[false, true], &[], epsilon)
                .is_err());
            assert!(ctmc.reachability(&[true, false], 1.0, epsilon).is_err());
        }
    }

    #[test]
    fn self_loops_are_ignored() {
        let a = Ctmc::from_transitions(2, 0, &[(0, 0, 5.0), (0, 1, 1.0)]).unwrap();
        let b = Ctmc::from_transitions(2, 0, &[(0, 1, 1.0)]).unwrap();
        let t = 0.8;
        let pa = a.reachability(&[false, true], t, 1e-12).unwrap();
        let pb = b.reachability(&[false, true], t, 1e-12).unwrap();
        assert!((pa - pb).abs() < 1e-9);
    }
}
