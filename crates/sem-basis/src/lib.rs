//! Spectral element basis functions.
//!
//! This crate provides the one-dimensional building blocks of the Spectral
//! Element Method (SEM) used throughout the workspace:
//!
//! * [`legendre`](mod@legendre) — Legendre polynomials \(P_N\) and their derivatives,
//!   evaluated with the three-term Bonnet recurrence.
//! * [`quadrature`] — Gauss–Legendre and Gauss–Lobatto–Legendre (GLL)
//!   quadrature nodes and weights.  GLL points are the collocation points of
//!   the SEM basis; there are \(N+1\) of them for polynomial degree \(N\).
//! * [`lagrange`] — Lagrange interpolation through arbitrary node sets using
//!   barycentric weights.
//! * [`derivative`] — the spectral differentiation matrix `D` on the GLL
//!   points (the `dx`/`dxt` operators of the paper's Listing 1).
//! * [`interp`] — interpolation operators between nodal sets (e.g. GLL → GL),
//!   used for over-integration and for building coarse/fine transfer
//!   operators.
//! * [`matrix`] — a minimal dense row-major matrix type for the small
//!   per-degree operators.
//! * [`eigen`] — a dependency-free symmetric (Jacobi-rotation) eigensolver
//!   and the generalized `K S = B S Λ` decomposition for diagonal `B`.
//! * [`fdm1d`] — the per-direction fast-diagonalization factors the FDM
//!   tensor-product preconditioner is assembled from.
//!
//! Everything is dependency-free, double precision and deterministic, and is
//! validated by unit tests plus property-based tests (see `tests/`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod derivative;
pub mod eigen;
pub mod fdm1d;
pub mod interp;
pub mod lagrange;
pub mod legendre;
pub mod matrix;
pub mod operators1d;
pub mod quadrature;

pub use derivative::DerivativeMatrix;
pub use eigen::{generalized_eigen_diag, symmetric_eigen};
pub use fdm1d::{fdm_coarse_degree, Fdm1d, Fdm1dBoundary};
pub use interp::{degree_prolongation, interpolation_matrix};
pub use lagrange::LagrangeBasis;
pub use legendre::{legendre, legendre_derivative, legendre_pair};
pub use matrix::DenseMatrix;
pub use operators1d::{mass_matrix_1d, stiffness_matrix_1d};
pub use quadrature::{gauss_legendre, gauss_lobatto_legendre, Quadrature};

/// Number of Gauss–Lobatto–Legendre points for a polynomial degree `n`.
///
/// The SEM basis of degree `N` collocates on `N + 1` GLL points per
/// direction, so a 3-D element holds `(N + 1)^3` degrees of freedom.
#[inline]
#[must_use]
pub fn num_gll_points(degree: usize) -> usize {
    degree + 1
}

/// Number of degrees of freedom in a single 3-D hexahedral element of
/// polynomial degree `degree`.
#[inline]
#[must_use]
pub fn dofs_per_element(degree: usize) -> usize {
    let nx = num_gll_points(degree);
    nx * nx * nx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gll_count_matches_degree() {
        assert_eq!(num_gll_points(7), 8);
        assert_eq!(dofs_per_element(7), 512);
        assert_eq!(dofs_per_element(1), 8);
    }
}
