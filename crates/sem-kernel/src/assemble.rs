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
///
/// Runs as a sweep over the contiguous `i`-lines of every `(e, k, j)`: the
/// `G_rr` term reads a row of the precomputed `D²` table against a broadcast
/// `G_rr(l, j, k)`, the `G_ss` and `G_tt` terms read contiguous plane rows,
/// and the cross terms follow the `l`-loop.  Every node still accumulates
/// from `0.0` in the formula's order (`l` ascending, the three terms of each
/// `l` in turn, then the three cross terms), so the bits are those of the
/// per-node evaluation.
#[must_use]
pub fn operator_diagonal(op: &PoissonOperator) -> ElementField {
    let degree = op.degree();
    let nx = degree + 1;
    let npts = nx * nx * nx;
    let d = op.derivative().d();
    // `d2[l][i] = D[l][i]·D[l][i]`, the product the formula forms per node.
    let d2: Vec<f64> = d.as_slice().iter().map(|&x| x * x).collect();
    let d2 = |l: usize| &d2[l * nx..][..nx];
    let dd: Vec<f64> = (0..nx).map(|i| d[(i, i)]).collect();
    // Each line accumulates in `acc` and is then appended, so the output's
    // fresh pages are written once and never read first.
    let mut diag = Vec::with_capacity(npts * op.num_elements());
    let mut acc = vec![0.0; nx];
    for e in 0..op.num_elements() {
        let [grr, grs, grt, gss, gst, gtt] = op.geometry().planes().map(|p| &p[npts * e..][..npts]);
        for k in 0..nx {
            for j in 0..nx {
                let line = nx * (j + nx * k);
                acc.fill(0.0);
                for l in 0..nx {
                    let g_rr = grr[line + l];
                    let (d2_lj, d2_lk) = (d2(l)[j], d2(l)[k]);
                    let gss_row = &gss[nx * (l + nx * k)..][..nx];
                    let gtt_row = &gtt[nx * (j + nx * l)..][..nx];
                    for (((a, &d2_li), &g_ss), &g_tt) in
                        acc.iter_mut().zip(d2(l)).zip(gss_row).zip(gtt_row)
                    {
                        *a += d2_li * g_rr;
                        *a += d2_lj * g_ss;
                        *a += d2_lk * g_tt;
                    }
                }
                let (djj, dkk) = (dd[j], dd[k]);
                let rows = grs[line..][..nx]
                    .iter()
                    .zip(&grt[line..][..nx])
                    .zip(&gst[line..][..nx]);
                for ((a, &dii), ((&g_rs, &g_rt), &g_st)) in acc.iter_mut().zip(&dd).zip(rows) {
                    *a += 2.0 * dii * djj * g_rs;
                    *a += 2.0 * dii * dkk * g_rt;
                    *a += 2.0 * djj * dkk * g_st;
                }
                diag.extend_from_slice(&acc);
            }
        }
    }
    ElementField::from_vec(degree, op.num_elements(), diag)
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
