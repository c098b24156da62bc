//! A minimal dense, row-major matrix used for the small per-degree operators
//! (differentiation matrices, interpolation operators, assembled element
//! matrices in tests).  It deliberately has no external dependencies — the
//! operators involved are at most a few thousand entries.

use serde::{Deserialize, Serialize};

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create a zero matrix of the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create an identity matrix of size `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Build a matrix by evaluating `f(row, col)`.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major storage.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// A single row as a slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    #[must_use]
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    #[must_use]
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Self::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length must match columns");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut acc = 0.0;
            for j in 0..self.cols {
                acc += self[(i, j)] * x[j];
            }
            y[i] = acc;
        }
        y
    }

    /// Maximum absolute entry (infinity norm of the vectorised matrix).
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Frobenius norm of the difference with another matrix.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    #[must_use]
    pub fn frobenius_distance(&self, other: &Self) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Cholesky factorisation `A = L Lᵀ` of a symmetric positive-definite
    /// matrix, returning the lower-triangular factor (upper triangle zero).
    /// `None` if the matrix is not positive definite (a pivot fails).
    #[must_use]
    pub fn cholesky(&self) -> Option<Self> {
        if self.rows != self.cols {
            return None;
        }
        let n = self.rows;
        let mut l = Self::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l[(i, i)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Solve `L Lᵀ x = b` in place, where `self` is a Cholesky factor from
    /// [`DenseMatrix::cholesky`].
    ///
    /// # Panics
    /// Panics if `b.len()` does not match the factor's dimension.
    pub fn cholesky_solve_in_place(&self, b: &mut [f64]) {
        let n = self.rows;
        assert_eq!(b.len(), n, "right-hand side length mismatch");
        // Forward substitution: L y = b.
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self[(i, k)] * b[k];
            }
            b[i] = sum / self[(i, i)];
        }
        // Back substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut sum = b[i];
            for k in (i + 1)..n {
                sum -= self[(k, i)] * b[k];
            }
            b[i] = sum / self[(i, i)];
        }
    }

    /// Whether the matrix is symmetric within `tol`.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = DenseMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let id = DenseMatrix::identity(3);
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = DenseMatrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64);
        let x = vec![1.0, -2.0, 0.5];
        let xm = DenseMatrix::from_vec(3, 1, x.clone());
        let via_matmul = a.matmul(&xm);
        let via_matvec = a.matvec(&x);
        for i in 0..4 {
            assert!((via_matmul[(i, 0)] - via_matvec[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_fn(5, 2, |i, j| (i as f64) - 3.0 * j as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn symmetry_detection() {
        let s = DenseMatrix::from_fn(4, 4, |i, j| (i + j) as f64);
        assert!(s.is_symmetric(1e-14));
        let ns = DenseMatrix::from_fn(4, 4, |i, j| (i as f64) - j as f64);
        assert!(!ns.is_symmetric(1e-14));
        let rect = DenseMatrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1e-14));
    }

    #[test]
    fn cholesky_solves_an_spd_system() {
        // A = Mᵀ M + I is SPD for any M.
        let n = 6;
        let m = DenseMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) as f64 * 0.29).sin());
        let mut a = m.transpose().matmul(&m);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let l = a.cholesky().expect("SPD must factor");
        // Upper triangle of L is zero.
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
        // L Lᵀ reconstructs A.
        let back = l.matmul(&l.transpose());
        assert!(back.frobenius_distance(&a) < 1e-12 * (1.0 + a.max_abs()));
        // Solving reproduces a known x.
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 2.5).collect();
        let mut b = a.matvec(&x_true);
        l.cholesky_solve_in_place(&mut b);
        for (xi, ti) in b.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-11, "{xi} vs {ti}");
        }
    }

    #[test]
    fn cholesky_rejects_indefinite_matrices() {
        let mut a = DenseMatrix::identity(3);
        a[(2, 2)] = -1.0;
        assert!(a.cholesky().is_none());
        assert!(DenseMatrix::zeros(2, 3).cholesky().is_none());
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
