//! One-dimensional fast-diagonalization (FDM) factors on element patches.
//!
//! The element-local Poisson operator on an undeformed brick factorises into
//! Kronecker sums of the 1-D stiffness/mass pair, so its inverse is three
//! small tensor contractions once each direction's generalized eigenproblem
//!
//! ```text
//! K̂ Sᵢ = B̂ Sᵢ Λᵢ,   SᵢᵀB̂Sᵢ = I
//! ```
//!
//! is solved — Lottes & Fischer's fast diagonalisation method, the local
//! solve of Nek5000's Schwarz smoother.  The local subdomain is the element
//! closure: the 1-D operators are the globally assembled operators
//! restricted to the element's nodes (this element's stiffness/mass plus the
//! neighbouring elements' corner entries on shared interface nodes), with
//! homogeneous Dirichlet just outside the patch.  Assembling the interface
//! entries from both sides is what keeps the patch operators definite and
//! the Schwarz sum strong on the element faces, where a purely local
//! (unassembled Neumann) block method stalls on its constant modes.
//! Extending the patch by ghost layers into each neighbour was measured on
//! the standard 4³ problems as a net loss: at most a couple of CG iterations
//! saved against `((N+1+2·overlap)/(N+1))⁴` more tensor work per apply.
//!
//! Domain-boundary ends have no neighbour: the Dirichlet boundary node is
//! removed from the eigenproblem instead.  Every patch
//! operator is therefore symmetric positive *definite* — the Neumann
//! constant mode never appears.  Dropped nodes are embedded back as zero
//! eigenvector columns with an infinite eigenvalue, so the 3-D inverse
//! `1 / (λˣᵢ + λʸⱼ + λᶻₖ)` is zero for them without any special casing.
//!
//! Neighbour elements are assumed congruent (same length), which holds for
//! the uniform per-direction spacing of the workspace's box meshes.

use crate::eigen::generalized_eigen_diag;
use crate::matrix::DenseMatrix;
use crate::operators1d::{mass_matrix_1d, stiffness_matrix_1d};

/// Coarse polynomial degree of the two-level FDM preconditioner for a fine
/// degree: degree 2 (vertices + edge/face/centre midpoints) once the fine
/// degree supports it, degree 1 below that, none for degree-1
/// discretisations (whose patches already reach the vertex scale).  Shared
/// by the solver (which builds the coarse space) and the accelerator model
/// (which prices its on-device solve).
#[must_use]
pub fn fdm_coarse_degree(degree: usize) -> usize {
    2.min(degree.saturating_sub(1))
}

/// Which element endpoints carry a homogeneous Dirichlet condition (domain
/// boundary) rather than an assembled interface to a neighbouring element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fdm1dBoundary {
    /// Domain boundary (Dirichlet) at the low end; otherwise an assembled
    /// interface with the left neighbour.
    pub dirichlet_lo: bool,
    /// Domain boundary (Dirichlet) at the high end; otherwise an assembled
    /// interface with the right neighbour.
    pub dirichlet_hi: bool,
}

impl Fdm1dBoundary {
    /// The boundary class of element `index` out of `count` in one direction
    /// of an all-Dirichlet box.
    #[must_use]
    pub fn of_element(index: usize, count: usize) -> Self {
        Self {
            dirichlet_lo: index == 0,
            dirichlet_hi: index + 1 == count,
        }
    }
}

/// The fast-diagonalization factors of one direction of one element class:
/// eigenvectors `S` (and transpose) of the generalized 1-D problem on the
/// element patch, plus the eigenvalues, embedded at full patch size `N + 1`.
#[derive(Debug, Clone)]
pub struct Fdm1d {
    /// Eigenvector matrix `S`, row-major, patch-sized.  Rows and columns
    /// corresponding to removed (Dirichlet boundary) nodes are zero.
    pub s: DenseMatrix,
    /// `Sᵀ`, row-major (precomputed: the apply contracts with both).
    pub st: DenseMatrix,
    /// Generalized eigenvalues, ascending over the kept modes; removed modes
    /// carry `f64::INFINITY` so their 3-D inverse weight is exactly zero.
    pub lambda: Vec<f64>,
}

impl Fdm1d {
    /// Compute the element-patch factors for polynomial degree `degree` on
    /// an element of length `length` with the given endpoint conditions.
    ///
    /// # Panics
    /// Panics if the length is not positive or the restriction removes every
    /// node (degree 1 with both endpoints Dirichlet leaves nothing).
    #[must_use]
    pub fn new(degree: usize, length: f64, boundary: Fdm1dBoundary) -> Self {
        let n = degree + 1;
        let k = stiffness_matrix_1d(degree, length);
        let b = mass_matrix_1d(degree, length);

        // Assemble this element plus the neighbours' corner entries on the
        // shared interface nodes (neighbours are congruent, so their
        // operators are this element's): the patch operator is exactly the
        // globally assembled 1-D operator restricted to the element's nodes.
        let mut kp = DenseMatrix::zeros(n, n);
        let mut bp = vec![0.0_f64; n];
        for i in 0..n {
            for j in 0..n {
                kp[(i, j)] += k[(i, j)];
            }
            bp[i] += b[(i, i)];
        }
        if !boundary.dirichlet_lo {
            // The left neighbour's last node is patch node 0.
            kp[(0, 0)] += k[(n - 1, n - 1)];
            bp[0] += b[(n - 1, n - 1)];
        }
        if !boundary.dirichlet_hi {
            // The right neighbour's first node is patch node n - 1.
            kp[(n - 1, n - 1)] += k[(0, 0)];
            bp[n - 1] += b[(0, 0)];
        }

        // Removed nodes: the boundary node at Dirichlet ends (homogeneous
        // Dirichlet holds just outside interface ends, which is the patch
        // truncation itself).
        let kept: Vec<usize> = (0..n)
            .filter(|&p| !(boundary.dirichlet_lo && p == 0 || boundary.dirichlet_hi && p == n - 1))
            .collect();
        assert!(
            !kept.is_empty(),
            "Dirichlet restriction removed every node (degree {degree})"
        );

        let mk = kept.len();
        let k_kept = DenseMatrix::from_fn(mk, mk, |i, j| kp[(kept[i], kept[j])]);
        let b_kept: Vec<f64> = kept.iter().map(|&p| bp[p]).collect();
        let (lambda_kept, s_kept) = generalized_eigen_diag(&k_kept, &b_kept);

        // Embed back at full patch size: removed rows *and* removed mode
        // columns are zero, removed eigenvalues are +∞.
        let mut s = DenseMatrix::zeros(n, n);
        for (ii, &p) in kept.iter().enumerate() {
            for jj in 0..mk {
                s[(p, jj)] = s_kept[(ii, jj)];
            }
        }
        let mut lambda = vec![f64::INFINITY; n];
        lambda[..mk].copy_from_slice(&lambda_kept);
        let st = s.transpose();
        Self { s, st, lambda }
    }

    /// Patch points per direction, `N + 1`.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.lambda.len()
    }

    /// Number of kept (non-removed) modes.
    #[must_use]
    pub fn num_modes(&self) -> usize {
        self.lambda.iter().filter(|l| l.is_finite()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTERIOR: Fdm1dBoundary = Fdm1dBoundary {
        dirichlet_lo: false,
        dirichlet_hi: false,
    };
    const BOTH: Fdm1dBoundary = Fdm1dBoundary {
        dirichlet_lo: true,
        dirichlet_hi: true,
    };

    #[test]
    fn boundary_classes_follow_the_element_position() {
        assert_eq!(
            Fdm1dBoundary::of_element(0, 4),
            Fdm1dBoundary {
                dirichlet_lo: true,
                dirichlet_hi: false
            }
        );
        assert_eq!(Fdm1dBoundary::of_element(1, 4), INTERIOR);
        assert_eq!(
            Fdm1dBoundary::of_element(3, 4),
            Fdm1dBoundary {
                dirichlet_lo: false,
                dirichlet_hi: true
            }
        );
        assert_eq!(Fdm1dBoundary::of_element(0, 1), BOTH);
    }

    #[test]
    fn interior_patches_keep_every_node_and_are_definite() {
        let fdm = Fdm1d::new(7, 0.25, INTERIOR);
        assert_eq!(fdm.num_points(), 8);
        assert_eq!(fdm.num_modes(), 8);
        // The patch truncation is a Dirichlet condition just outside the
        // element: no Neumann constant mode, every eigenvalue positive.
        for l in fdm.lambda.iter().filter(|l| l.is_finite()) {
            assert!(*l > 0.0, "{l}");
        }
    }

    #[test]
    fn dirichlet_ends_drop_the_ghost_and_boundary_nodes() {
        let fdm = Fdm1d::new(7, 0.25, BOTH);
        assert_eq!(fdm.num_points(), 8);
        assert_eq!(fdm.num_modes(), 6);
        for l in fdm.lambda.iter().filter(|l| l.is_finite()) {
            assert!(*l > 0.0);
        }
        let m = fdm.num_points();
        // Removed node rows and removed mode columns are zero.
        for j in 0..m {
            for p in [0, m - 1] {
                assert_eq!(fdm.s[(p, j)], 0.0);
            }
        }
        for i in 0..m {
            for j in fdm.num_modes()..m {
                assert_eq!(fdm.s[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn factors_diagonalise_the_assembled_patch_operator() {
        // Rebuild the patch operator independently (element operator with
        // the interface entries assembled from the neighbour) and check
        // K S = B S Λ on the kept set for a one-sided class.
        let degree = 5;
        let n = degree + 1;
        let length = 0.5;
        let boundary = Fdm1dBoundary {
            dirichlet_lo: true,
            dirichlet_hi: false,
        };
        let fdm = Fdm1d::new(degree, length, boundary);
        assert_eq!(fdm.num_points(), n);
        let k = stiffness_matrix_1d(degree, length);
        let b = mass_matrix_1d(degree, length);
        let mut kp = k.clone();
        let mut bp: Vec<f64> = (0..n).map(|i| b[(i, i)]).collect();
        kp[(n - 1, n - 1)] += k[(0, 0)];
        bp[n - 1] += b[(0, 0)];

        for j in 0..fdm.num_modes() {
            for p in 1..n {
                let ks: f64 = (1..n).map(|q| kp[(p, q)] * fdm.s[(q, j)]).sum();
                let bsl = bp[p] * fdm.s[(p, j)] * fdm.lambda[j];
                assert!(
                    (ks - bsl).abs() < 1e-8 * (1.0 + kp.max_abs()),
                    "({p}, {j}): {ks} vs {bsl}"
                );
            }
        }
    }

    #[test]
    fn transpose_is_consistent() {
        let fdm = Fdm1d::new(4, 1.0, INTERIOR);
        assert_eq!(fdm.st, fdm.s.transpose());
    }

    #[test]
    #[should_panic(expected = "removed every node")]
    fn degree_one_with_full_dirichlet_is_rejected() {
        let _ = Fdm1d::new(1, 1.0, BOTH);
    }
}
