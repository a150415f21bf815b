//! Rate abstraction: numeric rates and symbolic linear rate forms.
//!
//! Every Markovian transition of an [`IoImcOf`](crate::model::IoImcOf) carries a
//! *rate*.  The classical instantiation is `f64` — a concrete exponential rate —
//! but all operations the compositional-aggregation pipeline performs on rates
//! (copying them through composition, hiding and renaming; *summing* them during
//! Markovian lumping; comparing them for lumpability) are equally meaningful for
//! *symbolic* rates.  The [`Rate`] trait captures exactly that interface, and
//! [`RateForm`] provides the symbolic instantiation: a sparse linear form
//! `Σ cᵢ·λᵢ` over parameter slots.
//!
//! Aggregating a model over [`RateForm`] rates lumps two states only when their
//! cumulative rate *forms* into every block coincide — a stronger condition than
//! numeric equality at any single valuation, and therefore sound for **every**
//! valuation of the parameters at once.  This is what lets a parametric model be
//! aggregated once and instantiated for a whole sweep of rate assignments at
//! query time.

use std::fmt;

/// The interface rates must provide for model construction and aggregation.
///
/// The pipeline needs to clone rates (composition, hiding, renaming), add them
/// (Markovian lumping sums the rates of merged transitions), test them for
/// validity (a rate no valuation can make positive and finite is a modelling
/// error) and derive a canonical, hashable [`Key`](Rate::Key) from them (the
/// partition refinement groups states by their cumulative rate per block).
pub trait Rate: Clone + PartialEq + fmt::Debug + fmt::Display + Send + Sync + 'static {
    /// Canonical, hashable and totally ordered stand-in for a rate value, used
    /// by the bisimulation signatures.  Two rates are lumpable together exactly
    /// when their keys are equal.
    type Key: Clone + Eq + Ord + std::hash::Hash + fmt::Debug;

    /// The additive identity (the rate of "no transition").
    fn zero() -> Self;

    /// Returns `true` for the additive identity.
    fn is_zero(&self) -> bool;

    /// Adds `other` onto `self` (Markovian lumping).
    fn add_assign(&mut self, other: &Self);

    /// Returns `true` if the rate is well-formed: for `f64`, finite and
    /// strictly positive; for [`RateForm`], a non-empty form whose coefficients
    /// are all finite and strictly positive (so every positive valuation
    /// evaluates it to a valid numeric rate).
    fn is_valid(&self) -> bool;

    /// The canonical key of this rate.
    fn key(&self) -> Self::Key;

    /// The key as one word, when every key of the rate type fits one: two
    /// rates then have equal words exactly when their keys are equal, and
    /// the partition refinement uses the word as it is instead of
    /// interning the key.  `None` by default.
    fn key_word(&self) -> Option<u64> {
        None
    }
}

impl Rate for f64 {
    type Key = u64;

    fn zero() -> f64 {
        0.0
    }

    fn is_zero(&self) -> bool {
        *self == 0.0
    }

    fn add_assign(&mut self, other: &f64) {
        *self += other;
    }

    fn is_valid(&self) -> bool {
        self.is_finite() && *self > 0.0
    }

    fn key(&self) -> u64 {
        self.to_bits()
    }

    fn key_word(&self) -> Option<u64> {
        Some(self.to_bits())
    }
}

/// A sparse linear rate form `Σ cᵢ·λᵢ` over parameter slots.
///
/// Each term pairs a parameter *slot* (a dense index assigned by whoever builds
/// the parametric model — e.g. one failure-rate slot per basic event) with a
/// strictly positive coefficient.  Terms are kept sorted by slot with no
/// duplicates and no zero coefficients, so structural equality (`==`) is
/// semantic equality of the linear forms and [`Rate::key`] is canonical.
///
/// [`eval`](RateForm::eval) instantiates the form against a slice of per-slot
/// values.  Evaluation is deterministic (terms are summed in slot order), so
/// instantiating the same aggregated model twice with the same valuation is
/// bit-identical.
///
/// # Examples
///
/// ```
/// use ioimc::rate::{Rate, RateForm};
///
/// let lambda0 = RateForm::var(0);
/// let mut sum = RateForm::scaled_var(1, 0.5); // dormant: 0.5·λ₁
/// sum.add_assign(&lambda0);                   // lumped with λ₀
/// assert_eq!(sum.num_terms(), 2);
/// assert!((sum.eval(&[2.0, 4.0]) - 4.0).abs() < 1e-12); // 1·2 + 0.5·4
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateForm {
    /// `(slot, coefficient)` pairs, sorted by slot, coefficients non-zero.
    terms: Vec<(u32, f64)>,
}

impl RateForm {
    /// The form `1·λ_slot`.
    pub fn var(slot: u32) -> RateForm {
        RateForm {
            terms: vec![(slot, 1.0)],
        }
    }

    /// The form `coefficient·λ_slot`.  A zero coefficient yields the zero form.
    pub fn scaled_var(slot: u32, coefficient: f64) -> RateForm {
        if coefficient == 0.0 {
            RateForm { terms: Vec::new() }
        } else {
            RateForm {
                terms: vec![(slot, coefficient)],
            }
        }
    }

    /// The terms of the form: `(slot, coefficient)` pairs in slot order.
    pub fn terms(&self) -> &[(u32, f64)] {
        &self.terms
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The largest slot mentioned by the form, if any.
    pub fn max_slot(&self) -> Option<u32> {
        self.terms.last().map(|&(s, _)| s)
    }

    /// Evaluates the form against per-slot values: `Σ cᵢ·values[slotᵢ]`.
    ///
    /// Terms are summed in slot order, so evaluation is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the form mentions a slot outside `values` — callers are
    /// expected to validate the valuation length against the parameter table
    /// the model was built with.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|&(slot, c)| c * values[slot as usize])
            .sum()
    }
}

impl Rate for RateForm {
    type Key = Vec<(u32, u64)>;

    fn zero() -> RateForm {
        RateForm { terms: Vec::new() }
    }

    fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    fn add_assign(&mut self, other: &RateForm) {
        if other.terms.is_empty() {
            return;
        }
        // Merge two slot-sorted term lists, summing coefficients on equal slots.
        let mut merged = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() && j < other.terms.len() {
            let (sa, ca) = self.terms[i];
            let (sb, cb) = other.terms[j];
            match sa.cmp(&sb) {
                std::cmp::Ordering::Less => {
                    merged.push((sa, ca));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push((sb, cb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let c = ca + cb;
                    if c != 0.0 {
                        merged.push((sa, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.terms[i..]);
        merged.extend_from_slice(&other.terms[j..]);
        self.terms = merged;
    }

    fn is_valid(&self) -> bool {
        !self.terms.is_empty() && self.terms.iter().all(|&(_, c)| c.is_finite() && c > 0.0)
    }

    fn key(&self) -> Vec<(u32, u64)> {
        self.terms.iter().map(|&(s, c)| (s, c.to_bits())).collect()
    }
}

impl fmt::Display for RateForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, &(slot, c)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if c == 1.0 {
                write!(f, "p{slot}")?;
            } else {
                write!(f, "{c}*p{slot}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_rate_interface() {
        let mut r = 1.5f64;
        r.add_assign(&2.5);
        assert_eq!(r, 4.0);
        assert!(r.is_valid());
        assert!(!f64::zero().is_valid());
        assert!(f64::zero().is_zero());
        assert!(!(-1.0f64).is_valid());
        assert!(!f64::NAN.is_valid());
        assert_eq!(4.0f64.key(), 4.0f64.to_bits());
    }

    #[test]
    fn forms_merge_sorted_and_canonical() {
        let mut a = RateForm::var(3);
        a.add_assign(&RateForm::scaled_var(1, 0.5));
        a.add_assign(&RateForm::var(3));
        assert_eq!(a.terms(), &[(1, 0.5), (3, 2.0)]);
        assert_eq!(a.max_slot(), Some(3));
        assert_eq!(a.num_terms(), 2);
        assert!(a.is_valid());
        assert!((a.eval(&[0.0, 4.0, 0.0, 1.5]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_and_scaled_zero() {
        let z = RateForm::zero();
        assert!(z.is_zero());
        assert!(!z.is_valid());
        assert_eq!(RateForm::scaled_var(7, 0.0), z);
        let mut v = RateForm::var(2);
        v.add_assign(&z);
        assert_eq!(v, RateForm::var(2));
    }

    #[test]
    fn equality_is_semantic() {
        let mut a = RateForm::var(0);
        a.add_assign(&RateForm::var(1));
        let mut b = RateForm::var(1);
        b.add_assign(&RateForm::var(0));
        assert_eq!(a, b);
        assert_eq!(a.key(), b.key());
        assert_ne!(a, RateForm::var(0));
    }

    #[test]
    fn display_is_readable() {
        let mut a = RateForm::scaled_var(2, 0.5);
        a.add_assign(&RateForm::var(0));
        assert_eq!(a.to_string(), "p0 + 0.5*p2");
        assert_eq!(RateForm::zero().to_string(), "0");
    }

    #[test]
    fn invalid_coefficients_are_detected() {
        assert!(!RateForm::scaled_var(0, -1.0).is_valid());
        assert!(!RateForm::scaled_var(0, f64::INFINITY).is_valid());
        assert!(RateForm::scaled_var(0, 0.5).is_valid());
    }
}
