//! Dense symmetric eigensolvers for the small per-degree operators.
//!
//! The fast-diagonalization preconditioner (see [`crate::fdm1d`]) needs the
//! generalized eigendecomposition `K S = B S Λ` of the one-dimensional
//! stiffness/mass pair on every element direction.  The matrices involved are
//! at most `(N + 1) × (N + 1)` — a few hundred entries — so a classical
//! cyclic Jacobi rotation sweep is both dependency-free and accurate to
//! machine precision, which is all the workspace's offline setup path needs.

use crate::matrix::DenseMatrix;

/// Relative off-diagonal threshold at which the Jacobi sweep stops.
const JACOBI_TOLERANCE: f64 = 1e-14;

/// Maximum number of full sweeps (far more than the ~`log`-many a
/// well-conditioned symmetric matrix of this size ever needs).
const MAX_SWEEPS: usize = 64;

/// Eigendecomposition of a symmetric matrix: `A = V diag(λ) Vᵀ` with the
/// eigenvalues ascending and `V` orthonormal (columns are eigenvectors).
///
/// Uses cyclic Jacobi rotations; the input is read from the lower triangle
/// (the matrix is expected symmetric).
///
/// # Panics
/// Panics if `a` is not square or the sweep fails to converge (which cannot
/// happen for finite symmetric input within `MAX_SWEEPS` sweeps).
#[must_use]
pub fn symmetric_eigen(a: &DenseMatrix) -> (Vec<f64>, DenseMatrix) {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    let n = a.rows();
    let mut m = a.clone();
    let mut v = DenseMatrix::identity(n);
    if n <= 1 {
        let lambda = if n == 1 { vec![m[(0, 0)]] } else { Vec::new() };
        return (lambda, v);
    }

    let scale = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .fold(0.0_f64, |s, (i, j)| s.max(m[(i, j)].abs()))
        .max(f64::MIN_POSITIVE);

    let mut converged = false;
    for _ in 0..MAX_SWEEPS {
        let off: f64 = (0..n)
            .flat_map(|p| ((p + 1)..n).map(move |q| (p, q)))
            .map(|(p, q)| m[(p, q)].abs())
            .fold(0.0_f64, f64::max);
        if off <= JACOBI_TOLERANCE * scale {
            converged = true;
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= JACOBI_TOLERANCE * scale * 1e-2 {
                    continue;
                }
                // Classical Jacobi rotation annihilating (p, q).
                let theta = (m[(q, q)] - m[(p, p)]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    assert!(converged, "Jacobi eigensolver failed to converge");

    // Sort eigenpairs ascending so callers get a deterministic order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(i, i)].total_cmp(&m[(j, j)]));
    let lambda: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let vectors = DenseMatrix::from_fn(n, n, |i, j| v[(i, order[j])]);
    (lambda, vectors)
}

/// Generalized eigendecomposition `K S = B S Λ` with `SᵀBS = I`, for a
/// symmetric `K` and a *diagonal* positive `B` (the SEM collocation mass
/// matrix).  Reduced to a standard symmetric problem through the congruence
/// `C = B^{-1/2} K B^{-1/2}`, then transformed back: `S = B^{-1/2} Q`.
///
/// # Panics
/// Panics if the dimensions disagree or any `b` entry is not strictly
/// positive.
#[must_use]
pub fn generalized_eigen_diag(k: &DenseMatrix, b_diag: &[f64]) -> (Vec<f64>, DenseMatrix) {
    assert_eq!(k.rows(), k.cols(), "stiffness must be square");
    assert_eq!(k.rows(), b_diag.len(), "mass diagonal length mismatch");
    assert!(
        b_diag.iter().all(|&b| b > 0.0),
        "mass diagonal must be positive"
    );
    let n = k.rows();
    let inv_sqrt: Vec<f64> = b_diag.iter().map(|&b| 1.0 / b.sqrt()).collect();
    let c = DenseMatrix::from_fn(n, n, |i, j| inv_sqrt[i] * k[(i, j)] * inv_sqrt[j]);
    let (lambda, q) = symmetric_eigen(&c);
    let s = DenseMatrix::from_fn(n, n, |i, j| inv_sqrt[i] * q[(i, j)]);
    (lambda, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators1d::{mass_matrix_1d, stiffness_matrix_1d};

    fn reconstruct(lambda: &[f64], v: &DenseMatrix) -> DenseMatrix {
        let n = lambda.len();
        DenseMatrix::from_fn(n, n, |i, j| {
            (0..n).map(|k| v[(i, k)] * lambda[k] * v[(j, k)]).sum()
        })
    }

    #[test]
    fn diagonal_matrices_are_their_own_decomposition() {
        let mut a = DenseMatrix::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = -1.0;
        a[(2, 2)] = 2.0;
        let (lambda, v) = symmetric_eigen(&a);
        assert_eq!(lambda, vec![-1.0, 2.0, 3.0]);
        // Columns are signed unit vectors.
        for j in 0..3 {
            let norm: f64 = (0..3).map(|i| v[(i, j)] * v[(i, j)]).sum();
            assert!((norm - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn reconstructs_random_symmetric_matrices() {
        for n in [2_usize, 5, 9, 16] {
            // Deterministic pseudo-random symmetric matrix.
            let a = DenseMatrix::from_fn(n, n, |i, j| {
                let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
                ((lo * 31 + hi * 17) as f64 * 0.37).sin()
            });
            let (lambda, v) = symmetric_eigen(&a);
            let back = reconstruct(&lambda, &v);
            assert!(
                a.frobenius_distance(&back) < 1e-11 * (1.0 + a.max_abs()) * n as f64,
                "n = {n}: {}",
                a.frobenius_distance(&back)
            );
            // Eigenvalues ascend.
            for w in lambda.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let n = 8;
        let a = DenseMatrix::from_fn(n, n, |i, j| 1.0 / (1.0 + i as f64 + j as f64));
        let (_, v) = symmetric_eigen(&a);
        let vtv = v.transpose().matmul(&v);
        assert!(vtv.frobenius_distance(&DenseMatrix::identity(n)) < 1e-12);
    }

    #[test]
    fn generalized_pair_satisfies_k_s_equals_b_s_lambda() {
        for degree in [2_usize, 4, 7, 11] {
            let length = 0.25;
            let k = stiffness_matrix_1d(degree, length);
            let b = mass_matrix_1d(degree, length);
            let b_diag: Vec<f64> = (0..b.rows()).map(|i| b[(i, i)]).collect();
            let (lambda, s) = generalized_eigen_diag(&k, &b_diag);
            let n = k.rows();
            // K S = B S Λ, column by column.
            for j in 0..n {
                for i in 0..n {
                    let ks: f64 = (0..n).map(|l| k[(i, l)] * s[(l, j)]).sum();
                    let bsl = b_diag[i] * s[(i, j)] * lambda[j];
                    assert!(
                        (ks - bsl).abs() < 1e-9 * (1.0 + k.max_abs()),
                        "degree {degree}, ({i}, {j}): {ks} vs {bsl}"
                    );
                }
            }
            // SᵀBS = I.
            for i in 0..n {
                for j in 0..n {
                    let dot: f64 = (0..n).map(|l| s[(l, i)] * b_diag[l] * s[(l, j)]).sum();
                    let expect = if i == j { 1.0 } else { 0.0 };
                    assert!((dot - expect).abs() < 1e-10, "degree {degree}");
                }
            }
            // The Neumann stiffness has exactly one (near-)zero eigenvalue:
            // the constant mode.
            assert!(lambda[0].abs() < 1e-9 * lambda[degree].max(1.0));
            assert!(lambda[1] > 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn generalized_rejects_degenerate_mass() {
        let k = DenseMatrix::identity(2);
        let _ = generalized_eigen_diag(&k, &[1.0, 0.0]);
    }
}
