//! Dense assembly and diagonal extraction of the local operator.
//!
//! SEM never assembles `A^e` in production (the whole point of the paper's
//! matrix-free kernel), but the dense matrix is invaluable for verification
//! — and its diagonal is exactly what the Jacobi preconditioner of the
//! Nekbone-style solver needs.

use crate::operator::{AxImplementation, PoissonOperator};
use sem_basis::DenseMatrix;
use sem_mesh::{BoxMesh, ElementField};

/// Assemble the dense matrix of a single element by applying the matrix-free
/// operator to unit vectors.  Cost is `O((N+1)^6)`; intended for small `N`
/// in tests only.
#[must_use]
pub fn assemble_element_matrix(op: &PoissonOperator, element: usize) -> DenseMatrix {
    let npts = sem_basis::dofs_per_element(op.degree());
    assert!(element < op.num_elements(), "element index out of range");
    let mut mat = DenseMatrix::zeros(npts, npts);
    let mut u = ElementField::zeros(op.degree(), op.num_elements());
    for col in 0..npts {
        u.fill_zero();
        u.element_mut(element)[col] = 1.0;
        let w = op.apply(&u);
        for row in 0..npts {
            mat[(row, col)] = w.element(element)[row];
        }
    }
    mat
}

/// Extract the diagonal of the operator for every element directly from the
/// differentiation matrix and geometric factors, in `O(E (N+1)^4)` — the
/// Jacobi preconditioner setup of the solver.
///
/// The diagonal entry at node `(i, j, k)` of element `e` is
///
/// ```text
/// A_ii = Σ_l  D[l][i]^2 G_rr(l,j,k) + D[l][j]^2 G_ss(i,l,k) + D[l][k]^2 G_tt(i,j,l)
///       + 2 D[i][i] D[j][j] G_rs(i,j,k) + 2 D[i][i] D[k][k] G_rt(i,j,k)
///       + 2 D[j][j] D[k][k] G_st(i,j,k)
/// ```
///
/// (the cross terms only pick up the `l = i` / `l = j` / `l = k` contribution
/// because the two directional sums touch the same node only there).
#[must_use]
pub fn operator_diagonal(op: &PoissonOperator) -> ElementField {
    let degree = op.degree();
    let nx = degree + 1;
    let d = op.derivative().d();
    let geo = op.geometry();
    let mut diag = ElementField::zeros(degree, op.num_elements());
    for e in 0..op.num_elements() {
        for k in 0..nx {
            for j in 0..nx {
                for i in 0..nx {
                    let node = |ii: usize, jj: usize, kk: usize| ii + nx * (jj + nx * kk);
                    let mut acc = 0.0;
                    for l in 0..nx {
                        let dli = d[(l, i)];
                        let dlj = d[(l, j)];
                        let dlk = d[(l, k)];
                        acc += dli * dli * geo.at(e, node(l, j, k), 0);
                        acc += dlj * dlj * geo.at(e, node(i, l, k), 3);
                        acc += dlk * dlk * geo.at(e, node(i, j, l), 5);
                    }
                    let here = node(i, j, k);
                    acc += 2.0 * d[(i, i)] * d[(j, j)] * geo.at(e, here, 1);
                    acc += 2.0 * d[(i, i)] * d[(k, k)] * geo.at(e, here, 2);
                    acc += 2.0 * d[(j, j)] * d[(k, k)] * geo.at(e, here, 4);
                    diag.element_mut(e)[here] = acc;
                }
            }
        }
    }
    diag
}

/// Convenience: build the operator for `mesh` and assemble element `element`.
#[must_use]
pub fn assemble_for_mesh(mesh: &BoxMesh, element: usize) -> DenseMatrix {
    let op = PoissonOperator::new(mesh, AxImplementation::Reference);
    assemble_element_matrix(&op, element)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_mesh::MeshDeformation;

    #[test]
    fn assembled_matrix_is_symmetric_positive_semidefinite() {
        let mesh = BoxMesh::unit_cube(2, 1);
        let op = PoissonOperator::new(&mesh, AxImplementation::Reference);
        let a = assemble_element_matrix(&op, 0);
        assert!(a.is_symmetric(1e-10));
        // Positive semi-definite: Gershgorin is too crude, check via x^T A x
        // for a few deterministic vectors including the null vector (constants).
        let n = a.rows();
        let ones = vec![1.0; n];
        let a_ones = a.matvec(&ones);
        assert!(a_ones.iter().all(|&v| v.abs() < 1e-10));
        for s in 0..5 {
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 7 + s * 13) % 11) as f64 - 5.0)
                .collect();
            let ax = a.matvec(&x);
            let energy: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
            assert!(energy >= -1e-9);
        }
    }

    #[test]
    fn diagonal_matches_assembled_matrix() {
        for deformation in [
            MeshDeformation::None,
            MeshDeformation::Sinusoidal { amplitude: 0.04 },
        ] {
            let mesh = BoxMesh::new(3, [2, 1, 1], [1.0; 3], deformation);
            let op = PoissonOperator::new(&mesh, AxImplementation::Reference);
            let diag = operator_diagonal(&op);
            for e in 0..mesh.num_elements() {
                let a = assemble_element_matrix(&op, e);
                for p in 0..a.rows() {
                    let expect = a[(p, p)];
                    let got = diag.element(e)[p];
                    assert!(
                        (expect - got).abs() < 1e-9 * (1.0 + expect.abs()),
                        "{deformation:?} element {e} node {p}: {got} vs {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn diagonal_is_positive_on_valid_meshes() {
        let mesh = BoxMesh::unit_cube(5, 2);
        let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        let diag = operator_diagonal(&op);
        assert!(diag.as_slice().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn assemble_for_mesh_wrapper_works() {
        let mesh = BoxMesh::unit_cube(1, 1);
        let a = assemble_for_mesh(&mesh, 0);
        assert_eq!(a.rows(), 8);
        assert!(a.is_symmetric(1e-12));
    }
}
