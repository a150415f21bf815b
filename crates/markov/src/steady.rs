//! Steady-state analysis.
//!
//! Repairable fault-tree models (Section 7.2 of the paper) are ergodic CTMCs; the
//! measure of interest is the long-run *unavailability*, i.e. the steady-state
//! probability of the "system down" states.  The solver iterates the uniformised
//! DTMC (power method); the uniformisation constant is chosen strictly larger than
//! every exit rate, which guarantees aperiodicity.

use crate::ctmc::Ctmc;
use crate::sparse::CsrMatrix;
use crate::{Error, Result};

/// Computes the steady-state distribution of an irreducible CTMC.
///
/// For reducible chains the result is the limiting distribution reachable from the
/// initial state (probability mass that drains into absorbing strongly connected
/// components stays there), which is still the quantity needed for unavailability
/// when the chain has a single recurrent class.
///
/// # Errors
///
/// Returns [`Error::EmptyModel`] if the chain has no transitions, or
/// [`Error::NoConvergence`] if the power iteration does not converge.
///
/// # Examples
///
/// ```
/// use markov::ctmc::Ctmc;
/// use markov::steady::steady_state;
/// // Failure rate 2, repair rate 6: unavailability 2/(2+6) = 0.25.
/// let ctmc = Ctmc::from_transitions(2, 0, &[(0, 1, 2.0), (1, 0, 6.0)]).unwrap();
/// let pi = steady_state(&ctmc, 1e-12).unwrap();
/// assert!((pi[1] - 0.25).abs() < 1e-8);
/// ```
pub fn steady_state(ctmc: &Ctmc, tolerance: f64) -> Result<Vec<f64>> {
    let n = ctmc.num_states();
    if ctmc.num_transitions() == 0 {
        if n == 0 {
            return Err(Error::EmptyModel);
        }
        let mut pi = vec![0.0; n];
        pi[ctmc.initial()] = 1.0;
        return Ok(pi);
    }
    // Uniformise with a constant strictly above the maximal exit rate so every
    // state keeps a positive self-loop probability (guarantees aperiodicity).
    let lambda = ctmc.max_exit_rate() * 1.05;
    let mut triplets: Vec<(u32, u32, f64)> = Vec::new();
    for s in 0..n {
        let (cols, vals) = ctmc.rates().row(s);
        for (&c, &v) in cols.iter().zip(vals) {
            triplets.push((s as u32, c, v / lambda));
        }
        let stay = 1.0 - ctmc.exit_rate(s) / lambda;
        if stay > 0.0 {
            triplets.push((s as u32, s as u32, stay));
        }
    }
    let p = CsrMatrix::from_triplets(n, n, &triplets)?;

    let mut pi = vec![1.0 / n as f64; n];
    // Ping-pong two buffers through the power iteration instead of allocating
    // a fresh vector per step.
    let mut next = vec![0.0; n];
    let max_iter = 1_000_000;
    for it in 0..max_iter {
        p.vec_mul_into(&pi, &mut next)?;
        let delta: f64 = next
            .iter()
            .zip(pi.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        std::mem::swap(&mut pi, &mut next);
        if delta < tolerance {
            // Normalise away accumulated rounding drift.
            let total: f64 = pi.iter().sum();
            for v in &mut pi {
                *v /= total;
            }
            return Ok(pi);
        }
        let _ = it;
    }
    Err(Error::NoConvergence {
        iterations: max_iter,
    })
}

/// Computes the steady-state probability of the states labelled `true`.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] for a wrong label length and otherwise the
/// same errors as [`steady_state`].
pub fn steady_state_probability(ctmc: &Ctmc, labelled: &[bool], tolerance: f64) -> Result<f64> {
    if labelled.len() != ctmc.num_states() {
        return Err(Error::DimensionMismatch {
            expected: ctmc.num_states(),
            actual: labelled.len(),
        });
    }
    let pi = steady_state(ctmc, tolerance)?;
    Ok(labelled
        .iter()
        .zip(pi.iter())
        .filter(|&(&l, _)| l)
        .map(|(_, &p)| p)
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_state_birth_death() {
        let fail = 1.0;
        let repair = 9.0;
        let ctmc = Ctmc::from_transitions(2, 0, &[(0, 1, fail), (1, 0, repair)]).unwrap();
        let pi = steady_state(&ctmc, 1e-13).unwrap();
        assert!((pi[0] - 0.9).abs() < 1e-8);
        assert!((pi[1] - 0.1).abs() < 1e-8);
        let unavail = steady_state_probability(&ctmc, &[false, true], 1e-13).unwrap();
        assert!((unavail - 0.1).abs() < 1e-8);
    }

    #[test]
    fn three_state_cycle() {
        // A cycle with equal rates has the uniform distribution.
        let ctmc = Ctmc::from_transitions(3, 0, &[(0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0)]).unwrap();
        let pi = steady_state(&ctmc, 1e-13).unwrap();
        for p in pi {
            assert!((p - 1.0 / 3.0).abs() < 1e-7);
        }
    }

    #[test]
    fn birth_death_chain_matches_detailed_balance() {
        // 0 <-> 1 <-> 2 with birth rate 1 and death rate 2: pi_i ∝ (1/2)^i.
        let ctmc =
            Ctmc::from_transitions(3, 0, &[(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0), (2, 1, 2.0)])
                .unwrap();
        let pi = steady_state(&ctmc, 1e-13).unwrap();
        let z = 1.0 + 0.5 + 0.25;
        assert!((pi[0] - 1.0 / z).abs() < 1e-7);
        assert!((pi[1] - 0.5 / z).abs() < 1e-7);
        assert!((pi[2] - 0.25 / z).abs() < 1e-7);
    }

    #[test]
    fn absorbing_state_attracts_all_mass() {
        let ctmc = Ctmc::from_transitions(2, 0, &[(0, 1, 3.0)]).unwrap();
        let pi = steady_state(&ctmc, 1e-13).unwrap();
        assert!(pi[1] > 1.0 - 1e-6);
    }

    #[test]
    fn chain_without_transitions_stays_at_initial() {
        let ctmc = Ctmc::from_transitions(3, 1, &[]).unwrap();
        let pi = steady_state(&ctmc, 1e-12).unwrap();
        assert_eq!(pi, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn label_length_is_checked() {
        let ctmc = Ctmc::from_transitions(2, 0, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(steady_state_probability(&ctmc, &[true], 1e-9).is_err());
    }
}
