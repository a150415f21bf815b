//! Compressed sparse row matrices.
//!
//! Reliability models are sparse: a state typically has a handful of outgoing
//! transitions regardless of the total state count.  A minimal CSR representation
//! is all the transient and steady-state solvers need — the only operation on the
//! hot path is a (row-)vector–matrix product.

use crate::{Error, Result};

/// An immutable sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    num_rows: usize,
    num_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate entries are summed; zero entries are kept (harmless).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidState`] if an index is out of range or
    /// [`Error::InvalidValue`] if a value is NaN or infinite.
    pub fn from_triplets(
        num_rows: usize,
        num_cols: usize,
        triplets: &[(u32, u32, f64)],
    ) -> Result<CsrMatrix> {
        for &(r, c, v) in triplets {
            if r as usize >= num_rows {
                return Err(Error::InvalidState {
                    state: r,
                    num_states: num_rows as u32,
                });
            }
            if c as usize >= num_cols {
                return Err(Error::InvalidState {
                    state: c,
                    num_states: num_cols as u32,
                });
            }
            if !v.is_finite() {
                return Err(Error::InvalidValue { value: v });
            }
        }
        let mut sorted: Vec<(u32, u32, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; num_rows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut last: Option<(u32, u32)> = None;
        for &(r, c, v) in &sorted {
            if last == Some((r, c)) {
                // Merge duplicates of the same coordinate.
                *values
                    .last_mut()
                    .expect("duplicate implies a previous entry") += v;
                continue;
            }
            col_idx.push(c);
            values.push(v);
            row_ptr[r as usize + 1] = col_idx.len();
            last = Some((r, c));
        }
        // Make row_ptr cumulative (rows without entries inherit the previous value).
        for i in 1..=num_rows {
            if row_ptr[i] < row_ptr[i - 1] {
                row_ptr[i] = row_ptr[i - 1];
            }
        }
        Ok(CsrMatrix {
            num_rows,
            num_cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of stored entries.
    pub fn num_entries(&self) -> usize {
        self.values.len()
    }

    /// The stored entries of `row` as parallel `(columns, values)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_rows`.
    pub fn row(&self, row: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Computes the row-vector–matrix product `y = x · M` into a
    /// caller-provided buffer, so an iterative solver can ping-pong two
    /// vectors without per-step allocation.  `y` is fully overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `x.len() != num_rows` or
    /// `y.len() != num_cols`.
    pub fn vec_mul_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.num_rows {
            return Err(Error::DimensionMismatch {
                expected: self.num_rows,
                actual: x.len(),
            });
        }
        if y.len() != self.num_cols {
            return Err(Error::DimensionMismatch {
                expected: self.num_cols,
                actual: y.len(),
            });
        }
        y.fill(0.0);
        for (row, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(row);
            for (&c, &v) in cols.iter().zip(vals) {
                y[c as usize] += xi * v;
            }
        }
        Ok(())
    }

    /// Sum of the stored entries of `row`.
    pub fn row_sum(&self, row: usize) -> f64 {
        self.row(row).1.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (0, 2, 3.0), (1, 0, 1.0), (2, 2, 4.0)])
            .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.num_entries(), 4);
        assert_eq!(m.row(0), (&[1, 2][..], &[2.0, 3.0][..]));
        assert_eq!(m.row(1), (&[0][..], &[1.0][..]));
        assert_eq!(m.row(2), (&[2][..], &[4.0][..]));
        assert_eq!(m.row_sum(0), 5.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.5)]).unwrap();
        assert_eq!(m.row(0), (&[1][..], &[3.5][..]));
        assert_eq!(m.num_entries(), 1);
    }

    #[test]
    fn empty_rows_are_handled() {
        let m = CsrMatrix::from_triplets(4, 4, &[(3, 0, 1.0)]).unwrap();
        assert_eq!(m.row(0).0.len(), 0);
        assert_eq!(m.row(1).0.len(), 0);
        assert_eq!(m.row(3), (&[0][..], &[1.0][..]));
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN)]).is_err());
    }

    #[test]
    fn vector_matrix_product() {
        let m = sample();
        // A stale buffer is fully overwritten: y_j = sum_i x_i * M[i][j].
        let mut y = vec![7.0; 3];
        m.vec_mul_into(&[1.0, 2.0, 0.5], &mut y).unwrap();
        assert_eq!(y, vec![2.0, 2.0, 5.0]);
        // Buffer-length mismatches are rejected, as are input mismatches.
        let mut short = vec![0.0; 2];
        assert!(m.vec_mul_into(&[1.0, 2.0, 0.5], &mut short).is_err());
        assert!(m.vec_mul_into(&[1.0], &mut y).is_err());
    }

    #[test]
    fn non_square_matrices_work() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (1, 0, 2.0)]).unwrap();
        let mut y = vec![0.0; 3];
        m.vec_mul_into(&[1.0, 1.0], &mut y).unwrap();
        assert_eq!(y, vec![2.0, 0.0, 1.0]);
    }
}
