//! A small dense row-major matrix used by the MLP and the OLS solver.
//!
//! `Vec<f64>` backing store, row-major, so a weight row is one contiguous
//! slice: the MLP's minibatch kernel (`mlp.rs`) reads rows through
//! [`Matrix::row`] / [`Matrix::as_slice`] and does its own loops; the solver
//! here serves OLS, whose dimensions are tiny. [`Matrix::read_le`]
//! checks nothing: `Mlp::validate` is where a decoded matrix's shape is
//! verified.

use crate::le;
use serde::Serialize;

/// Dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Appends the binary encoding: shape, then the counted buffer.
    pub fn write_le(&self, out: &mut Vec<u8>) {
        le::put_usize(out, self.rows);
        le::put_usize(out, self.cols);
        le::put_f64s(out, &self.data);
    }

    /// The inverse of [`Matrix::write_le`]. The buffer carries its own
    /// count, so a shape that lies about it decodes — and is refused where
    /// every decoded shape is, `Mlp::validate`.
    pub fn read_le(r: &mut le::Reader<'_>) -> Result<Self, String> {
        Ok(Self {
            rows: r.usize()?,
            cols: r.usize()?,
            data: r.f64s()?,
        })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the backing row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Solves `self * x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns `None` when the matrix is (numerically) singular. Used by the
    /// OLS solver; dimensions are tiny so O(n^3) is fine.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(self.rows, b.len(), "rhs length must match matrix dimension");
        let n = self.rows;
        let mut a = self.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivot: largest magnitude in this column at/below diagonal.
            let pivot = (col..n).max_by(|&i, &j| {
                a.get(i, col)
                    .abs()
                    .partial_cmp(&a.get(j, col).abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })?;
            if a.get(pivot, col).abs() < 1e-12 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    let tmp = a.get(col, c);
                    a.set(col, c, a.get(pivot, c));
                    a.set(pivot, c, tmp);
                }
                x.swap(col, pivot);
            }
            let diag = a.get(col, col);
            for r in (col + 1)..n {
                let factor = a.get(r, col) / diag;
                // Exact-zero skip: a sparsity fast path, not a tolerance check.
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    let v = a.get(r, c) - factor * a.get(col, c);
                    a.set(r, c, v);
                }
                x[r] -= factor * x[col];
            }
        }

        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for (c, xc) in x.iter().enumerate().take(n).skip(col + 1) {
                sum -= a.get(col, c) * xc;
            }
            x[col] = sum / a.get(col, col);
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_vec(3, 3, vec![2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0]);
        let b = vec![8.0, -11.0, -3.0];
        let x = a.solve(&b).expect("system is solvable");
        let expected = [2.0, 3.0, -1.0];
        for (got, want) in x.iter().zip(expected) {
            assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        }
    }

    #[test]
    fn solve_detects_singular_matrix() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_handles_permuted_pivots() {
        // Leading zero on the diagonal forces a row swap.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }
}
