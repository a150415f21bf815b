//! Poisson probabilities for uniformisation.
//!
//! Uniformisation expresses the transient distribution of a CTMC at time `t` as a
//! Poisson-weighted sum of powers of the uniformised transition matrix.  This
//! module computes the weights `P[N_{Λt} = k]` together with a truncation point
//! after which the remaining tail mass is below a requested tolerance, in the
//! spirit of the Fox–Glynn algorithm (computed from the mode outwards to avoid
//! underflow for large `Λt`).

use crate::{Error, Result};

/// The largest Poisson mean [`poisson_weights`] accepts.
///
/// The truncation window of a mean `m` holds about `m` weights, and a
/// uniformisation that needs it runs about `m` relax passes, so a mean of
/// 10⁷ already costs 10⁷ passes over the model.  Larger means come from
/// rates or mission times no transient analysis can finish (a rate of 1e300,
/// say); they are rejected with [`Error::MeanTooLarge`] before anything is
/// allocated.
pub const MAX_MEAN: f64 = 1e7;

/// Poisson weights `w[k] = P[N = k]` for a Poisson distribution with the given
/// `mean`, truncated on the right so that the neglected tail mass is below
/// `epsilon`.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonWeights {
    /// `weights[k]` is `P[N = k]` for `k = 0 ..= right`.
    pub weights: Vec<f64>,
    /// Right truncation point (inclusive).
    pub right: usize,
    /// Total probability mass actually captured by the truncated window —
    /// `Σ_{k=0}^{right} P[N = k]` before the weights were normalised to sum to
    /// exactly 1.  At least `1 - epsilon` by construction of the truncation
    /// for every `epsilon ≥ 1e-12` (the estimate carries ~1e-13 of deliberate
    /// conservative rounding; tighter epsilons truncate even less tail but the
    /// reported mass bottoms out around `1 - 2e-13`).
    ///
    /// Computed from the true Poisson density in log space (compensated
    /// summation, Stirling for the anchor factorial) and rounded
    /// *conservatively* — never above the captured mass — so
    /// `1 - total_mass` is a trustworthy bound on the neglected tail.
    pub total_mass: f64,
}

/// Computes truncated Poisson weights.
///
/// # Errors
///
/// Returns [`Error::InvalidValue`] if `mean` is negative/NaN/infinite or `epsilon`
/// is not in `(0, 1)`, and [`Error::MeanTooLarge`] if `mean` exceeds
/// [`MAX_MEAN`].
///
/// # Examples
///
/// ```
/// use markov::poisson::poisson_weights;
/// let w = poisson_weights(2.0, 1e-12).unwrap();
/// // P[N = 0] = exp(-2)
/// assert!((w.weights[0] - (-2.0f64).exp()).abs() < 1e-12);
/// assert!(w.total_mass > 1.0 - 1e-12);
/// ```
pub fn poisson_weights(mean: f64, epsilon: f64) -> Result<PoissonWeights> {
    if !mean.is_finite() || mean < 0.0 {
        return Err(Error::InvalidValue { value: mean });
    }
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(Error::InvalidValue { value: epsilon });
    }
    if mean > MAX_MEAN {
        return Err(Error::MeanTooLarge {
            mean,
            max: MAX_MEAN,
        });
    }
    if mean == 0.0 {
        return Ok(PoissonWeights {
            weights: vec![1.0],
            right: 0,
            total_mass: 1.0,
        });
    }

    // Work with unnormalised weights anchored at the mode to avoid underflow, then
    // normalise by the accumulated sum (which approximates e^{mean}·1 scaled).
    let mode = mean.floor() as usize;

    // A generous upper bound for the right truncation point: mean + k·sqrt(mean)
    // grows like the Chernoff bound; extend dynamically below if needed.
    let mut unnormalised: Vec<f64> = Vec::with_capacity(mode * 2 + 16);

    // Build weights from 0 to mode using ratios relative to the mode to keep the
    // numbers representable: u[k] relative with u[mode] = 1.
    let mut down: Vec<f64> = Vec::with_capacity(mode + 1);
    down.push(1.0);
    let mut value = 1.0;
    for k in (1..=mode).rev() {
        value *= k as f64 / mean;
        down.push(value);
        if value < f64::MIN_POSITIVE * 1e3 {
            // Further terms underflow to zero anyway.
            break;
        }
    }
    // down currently holds u[mode], u[mode-1], ... ; reverse into ascending order.
    let skipped = mode + 1 - down.len();
    unnormalised.extend(std::iter::repeat_n(0.0, skipped));
    unnormalised.extend(down.into_iter().rev());

    // Extend to the right until the (relative) tail is negligible.  Once k is a
    // few standard deviations past the mode the terms decay geometrically with
    // ratio mean/k, so a term below epsilon·mass/(10 + sqrt(mean)) bounds the whole
    // neglected tail by roughly epsilon·mass.
    let mut mass_so_far: f64 = unnormalised.iter().sum();
    let mut k = mode;
    let mut term: f64 = 1.0;
    let far_enough = mean + 4.0 * mean.sqrt() + 5.0;
    let threshold_divisor = 10.0 + mean.sqrt();
    loop {
        k += 1;
        term *= mean / k as f64;
        unnormalised.push(term);
        mass_so_far += term;
        if (k as f64) > far_enough && term <= epsilon * mass_so_far / threshold_divisor {
            break;
        }
        if k > mode + 10_000_000 {
            return Err(Error::NoConvergence { iterations: k });
        }
    }

    // Compensated summation keeps the norm's error at a few ulps however long
    // the window is, so the conservative slack below can stay small and
    // length-independent.
    let norm = kahan_sum(&unnormalised);
    let weights: Vec<f64> = unnormalised.iter().map(|u| u / norm).collect();

    // The normalisation maps the captured mass to exactly 1.  The *true*
    // captured mass is the unnormalised sum times the density at the anchor:
    // every u[k] is P[N = k] / P[N = mode], so
    //   Σ_{k=0}^{right} P[N = k]  =  norm · P[N = mode],
    // with ln P[N = mode] = -mean + mode·ln(mean) - ln(mode!) evaluated in log
    // space so neither e^{-mean} nor mode! can under/overflow.  The estimate's
    // own error (compensated sum, Stirling tail of ln(mode!), one exp) is well
    // below 1e-13 relative; subtracting that as a fixed slack makes the
    // reported mass conservative — never above what the window really holds —
    // while staying above `1 - epsilon` for every epsilon the truncation
    // supports down to 1e-12.
    let ln_mode_density = -mean + (mode as f64) * mean.ln() - ln_factorial(mode);
    let captured = (norm.ln() + ln_mode_density).exp();
    let total_mass = (captured * (1.0 - 1e-13)).clamp(0.0, 1.0);

    Ok(PoissonWeights {
        weights,
        right: k,
        total_mass,
    })
}

/// Truncated Poisson weights for a whole batch of means, computing each
/// *distinct* mean exactly once.
///
/// Batched transient analyses (many mission times × many sweep valuations)
/// produce one Poisson mean per (uniformisation rate, time) pair, and those
/// pairs repeat whenever valuations share a uniformisation rate or a time
/// bound occurs twice.  Deduplicating by the exact bit pattern of the mean
/// keeps the result indistinguishable from calling [`poisson_weights`] in a
/// loop — duplicates are clones of the first computation — while paying for
/// each distinct window only once.
///
/// Results are returned in the same order as `means`.
///
/// # Errors
///
/// Same as [`poisson_weights`], failing on the first offending mean.
pub fn poisson_weights_multi(means: &[f64], epsilon: f64) -> Result<Vec<PoissonWeights>> {
    let mut seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut out: Vec<PoissonWeights> = Vec::with_capacity(means.len());
    for &mean in means {
        match seen.entry(mean.to_bits()) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let w = out[*e.get()].clone();
                out.push(w);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(out.len());
                out.push(poisson_weights(mean, epsilon)?);
            }
        }
    }
    Ok(out)
}

/// Kahan–Babuška compensated sum: error stays a few ulps of the result
/// independent of the term count, where a naive sum drifts by O(n) ulps.
fn kahan_sum(values: &[f64]) -> f64 {
    let mut sum = 0.0f64;
    let mut compensation = 0.0f64;
    for &value in values {
        let y = value - compensation;
        let t = sum + y;
        compensation = (t - sum) - y;
        sum = t;
    }
    sum
}

/// `ln(n!)`, dependency-free: an exact log-sum for small `n`, the Stirling
/// series (through the `1/n⁵` term, relative error well below `1e-13` at the
/// switchover) for large `n`.
fn ln_factorial(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    if n < 256 {
        return (2..=n).map(|k| (k as f64).ln()).sum();
    }
    let x = n as f64;
    let x2 = x * x;
    0.5 * (2.0 * std::f64::consts::PI * x).ln() + x * x.ln() - x + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x * x2)
        + 1.0 / (1260.0 * x * x2 * x2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_poisson(mean: f64, k: usize) -> f64 {
        // Direct computation, fine for small means.
        let mut p = (-mean).exp();
        for i in 1..=k {
            p *= mean / i as f64;
        }
        p
    }

    #[test]
    fn small_mean_matches_direct_computation() {
        let w = poisson_weights(1.5, 1e-13).unwrap();
        for k in 0..=10 {
            assert!(
                (w.weights[k] - exact_poisson(1.5, k)).abs() < 1e-10,
                "k={k}: {} vs {}",
                w.weights[k],
                exact_poisson(1.5, k)
            );
        }
    }

    #[test]
    fn weights_sum_to_one() {
        for mean in [0.1, 1.0, 7.3, 50.0, 400.0] {
            let w = poisson_weights(mean, 1e-10).unwrap();
            let total: f64 = w.weights.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "mean {mean}: total {total}");
            assert!(w.right >= mean as usize);
        }
    }

    #[test]
    fn zero_mean_is_degenerate() {
        let w = poisson_weights(0.0, 1e-10).unwrap();
        assert_eq!(w.weights, vec![1.0]);
        assert_eq!(w.right, 0);
    }

    #[test]
    fn large_mean_does_not_underflow() {
        let w = poisson_weights(2000.0, 1e-9).unwrap();
        let total: f64 = w.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-8);
        // The mode weight of Poisson(2000) is about 1/sqrt(2*pi*2000).
        let mode_weight = w.weights[2000];
        assert!(
            mode_weight > 0.005 && mode_weight < 0.02,
            "mode weight {mode_weight}"
        );
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        assert!(poisson_weights(-1.0, 1e-9).is_err());
        assert!(poisson_weights(f64::NAN, 1e-9).is_err());
        assert!(poisson_weights(1.0, 0.0).is_err());
        assert!(poisson_weights(1.0, 1.5).is_err());
    }

    #[test]
    fn huge_means_are_typed_errors_not_allocations() {
        for mean in [1e12, 1e300] {
            assert_eq!(
                poisson_weights(mean, 1e-9),
                Err(Error::MeanTooLarge {
                    mean,
                    max: MAX_MEAN
                })
            );
            assert!(matches!(
                poisson_weights_multi(&[1.0, mean], 1e-9),
                Err(Error::MeanTooLarge { .. })
            ));
        }
    }

    #[test]
    fn truncation_point_grows_with_mean() {
        let small = poisson_weights(1.0, 1e-9).unwrap();
        let large = poisson_weights(100.0, 1e-9).unwrap();
        assert!(large.right > small.right);
        assert!(small.total_mass > 0.999_999_99);
    }

    #[test]
    fn total_mass_matches_direct_summation_for_small_means() {
        // The reported mass must be the *actually captured* mass — the direct
        // sum of true Poisson probabilities over the truncated window — not a
        // constant fabricated from epsilon.
        for mean in [0.3, 1.5, 4.2, 9.7, 23.0] {
            for epsilon in [1e-4, 1e-8, 1e-12] {
                let w = poisson_weights(mean, epsilon).unwrap();
                let direct: f64 = (0..=w.right).map(|k| exact_poisson(mean, k)).sum();
                assert!(
                    (w.total_mass - direct).abs() < 1e-10,
                    "mean {mean}, eps {epsilon}: reported {} vs direct {direct}",
                    w.total_mass
                );
                assert!(
                    w.total_mass <= direct + 1e-13,
                    "mean {mean}, eps {epsilon}: reported mass {} overstates \
                     the captured {direct}",
                    w.total_mass
                );
                assert!(
                    w.total_mass >= 1.0 - epsilon,
                    "mean {mean}, eps {epsilon}: captured only {}",
                    w.total_mass
                );
                // Different epsilons capture *different* true masses — the old
                // fabricated constant could not distinguish them.
                assert!(w.total_mass < 1.0);
            }
        }
    }

    #[test]
    fn total_mass_stays_sane_for_large_means() {
        // The log-space evaluation must survive means where e^{-mean} and
        // mode! individually under/overflow, and the Stirling branch of
        // ln(n!) must agree with the captured window.
        for mean in [400.0, 2000.0] {
            let w = poisson_weights(mean, 1e-9).unwrap();
            assert!(w.total_mass <= 1.0);
            assert!(
                w.total_mass > 1.0 - 1e-8,
                "mean {mean}: captured only {}",
                w.total_mass
            );
        }
        // Tight epsilon on a long window: the compensated sum keeps the
        // estimate accurate enough that the documented `1 - epsilon` floor
        // survives the conservative slack even at epsilon = 1e-12.
        let w = poisson_weights(2000.0, 1e-12).unwrap();
        assert!(w.total_mass <= 1.0);
        assert!(
            w.total_mass >= 1.0 - 1e-12,
            "mean 2000, eps 1e-12: captured only {}",
            w.total_mass
        );
    }

    #[test]
    fn multi_matches_individual_calls_bit_for_bit() {
        let means = [0.0, 1.5, 7.3, 1.5, 0.0, 42.0, 7.3];
        let batch = poisson_weights_multi(&means, 1e-11).unwrap();
        assert_eq!(batch.len(), means.len());
        for (&mean, w) in means.iter().zip(&batch) {
            let reference = poisson_weights(mean, 1e-11).unwrap();
            assert_eq!(w, &reference, "mean {mean}");
        }
    }

    #[test]
    fn multi_rejects_bad_means_like_the_scalar_call() {
        assert!(poisson_weights_multi(&[1.0, -2.0], 1e-9).is_err());
        assert!(poisson_weights_multi(&[1.0], 0.0).is_err());
        assert_eq!(poisson_weights_multi(&[], 1e-9).unwrap().len(), 0);
    }

    #[test]
    fn ln_factorial_is_accurate_across_the_switchover() {
        // Compare both branches against an exact log-sum reference.
        for n in [0, 1, 2, 10, 255, 256, 300, 1000, 5000] {
            let reference: f64 = (2..=n).map(|k| (k as f64).ln()).sum();
            let relative = if reference > 0.0 {
                (ln_factorial(n) - reference).abs() / reference
            } else {
                ln_factorial(n).abs()
            };
            assert!(relative < 1e-13, "n = {n}: relative error {relative}");
        }
    }
}
