//! Geometric factors of the local Poisson operator.
//!
//! For every GLL node of every element the operator needs the six independent
//! entries of the symmetric 3×3 tensor
//!
//! \[G = J \; w_i w_j w_k \; (\nabla_x r)(\nabla_x r)^T\]
//!
//! where `J` is the Jacobian determinant of the reference-to-physical map,
//! `w` are the GLL quadrature weights and `∇_x r` is the inverse Jacobian.
//! These are the `gxyz` values of the paper's Listing 1, stored in the order
//! `[G_rr, G_rs, G_rt, G_ss, G_st, G_tt]` so that
//!
//! ```text
//! shur = g0*ur + g1*us + g2*ut
//! shus = g1*ur + g3*us + g4*ut
//! shut = g2*ur + g4*us + g5*ut
//! ```
//!
//! The factors are stored in the *split* layout only: six element-major
//! planes, one per component, the Section III-B optimisation that gives each
//! component its own memory bank and removes BRAM arbitration.  Every fast
//! kernel, the preconditioners and the simulated accelerator borrow these
//! planes; the Listing-1 *interleaved* layout (`g[c + 6*node + 6*npts*e]`)
//! is produced on demand by [`GeometricFactors::to_interleaved`] for the
//! reference kernel alone.

use crate::field::ElementField;
use crate::mesh::BoxMesh;
use sem_basis::{gauss_lobatto_legendre, DerivativeMatrix};
use serde::{Deserialize, Serialize};

/// Number of independent entries of the symmetric geometric-factor tensor.
pub const NUM_GEOMETRIC_FACTORS: usize = 6;

/// Geometric factors plus the diagonal mass matrix for a mesh.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeometricFactors {
    degree: usize,
    num_elements: usize,
    /// Six element-major planes `[G_rr, G_rs, G_rt, G_ss, G_st, G_tt]`, each
    /// `E (N+1)^3` long: the only stored copy.
    planes: [Vec<f64>; NUM_GEOMETRIC_FACTORS],
    /// Diagonal of the mass matrix, `B = J w_i w_j w_k` per node.
    mass: ElementField,
    /// Smallest Jacobian determinant encountered (mesh validity indicator).
    min_jacobian: f64,
}

impl GeometricFactors {
    /// Compute the geometric factors of every element of `mesh`.
    ///
    /// Runs element by element as small matrix products over contiguous
    /// rows: the nine Jacobian entries `∂x_a/∂r_b` of every node come from
    /// each `i`-line of a coordinate against `Dᵀ` (`∂/∂r`), `D` against each
    /// `k`-plane (`∂/∂s`) and `D` against the element (`∂/∂t`); then `det`,
    /// the inverse, the six `G` entries and the mass follow lane by lane
    /// over the element's nodes.  Every node keeps the per-node formula's
    /// operations and order (each entry summed from `0.0` over ascending
    /// `l`, `(wᵢ·wⱼ)·wₖ`, each `G` a `.sum()` of three products), so the
    /// bits are those of a node-by-node evaluation.
    ///
    /// # Panics
    /// Panics if the mesh mapping is degenerate (non-positive Jacobian), which
    /// indicates an invalid or overly deformed mesh.
    #[must_use]
    pub fn from_mesh(mesh: &BoxMesh) -> Self {
        let degree = mesh.degree();
        let nx = degree + 1;
        let plane = nx * nx;
        let npts = plane * nx;
        let num_elements = mesh.num_elements();
        let w = gauss_lobatto_legendre(nx).weights;
        let dm = DerivativeMatrix::new(degree);
        let (d, dt) = (dm.d().as_slice(), dm.dt().as_slice());
        // `(wᵢ·wⱼ)·wₖ` at every node of an element.
        let weights: Vec<f64> = (0..npts)
            .map(|node| w[node % nx] * w[node / nx % nx] * w[node / plane])
            .collect();

        let [xs, ys, zs] = mesh.coordinates();
        let mut planes: [Vec<f64>; NUM_GEOMETRIC_FACTORS] =
            std::array::from_fn(|_| vec![0.0_f64; npts * num_elements]);
        let mut mass = ElementField::zeros(degree, num_elements);
        let mut min_jacobian = f64::INFINITY;

        // One element's Jacobian, `jac[a][b][node] = ∂x_a/∂r_b`, and its
        // determinant.
        let mut jac: [[Vec<f64>; 3]; 3] =
            std::array::from_fn(|_| std::array::from_fn(|_| vec![0.0; npts]));
        let mut dets = vec![0.0; npts];
        for e in 0..num_elements {
            for (x, [dr, ds, dtt]) in [xs, ys, zs].map(|c| c.element(e)).iter().zip(&mut jac) {
                small_matmul(dr, x, dt, nx);
                for (out, x_k) in ds.chunks_exact_mut(plane).zip(x.chunks_exact(plane)) {
                    small_matmul(out, d, x_k, nx);
                }
                small_matmul(dtt, d, x, nx);
            }
            let jac = jac.each_ref().map(|row| row.each_ref().map(|v| &v[..npts]));
            let at =
                |node: usize| std::array::from_fn(|a| std::array::from_fn(|b| jac[a][b][node]));
            let dets = &mut dets[..npts];
            let mut out = planes.each_mut().map(|p| &mut p[npts * e..][..npts]);
            let mass = &mut mass.element_mut(e)[..npts];
            for (node, det_out) in dets.iter_mut().enumerate() {
                let m = at(node);
                let det = det3(&m);
                *det_out = det;
                let inv = inv3(&m, det); // inv[b][a] = d r_b / d x_a
                let scale = det * weights[node];
                // G_ab = scale * sum_c dr_a/dx_c * dr_b/dx_c
                let pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];
                for (plane, &(a, b)) in out.iter_mut().zip(&pairs) {
                    let acc: f64 = inv[a].iter().zip(&inv[b]).map(|(x, y)| x * y).sum();
                    plane[node] = scale * acc;
                }
                mass[node] = scale;
            }
            // Checked after the element's lane pass, which a degenerate node
            // cannot make panic.
            for &det in &*dets {
                assert!(
                    det > 0.0,
                    "degenerate element {e}: non-positive Jacobian {det}"
                );
                min_jacobian = min_jacobian.min(det);
            }
        }

        Self {
            degree,
            num_elements,
            planes,
            mass,
            min_jacobian,
        }
    }

    /// Polynomial degree.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of elements.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Nodes per element.
    #[must_use]
    pub fn nodes_per_element(&self) -> usize {
        sem_basis::dofs_per_element(self.degree)
    }

    /// Smallest Jacobian determinant over the mesh.
    #[must_use]
    pub fn min_jacobian(&self) -> f64 {
        self.min_jacobian
    }

    /// The six geometric-factor planes, each of length `E * (N+1)^3`, in the
    /// order `[G_rr, G_rs, G_rt, G_ss, G_st, G_tt]`.
    #[must_use]
    pub fn planes(&self) -> [&[f64]; NUM_GEOMETRIC_FACTORS] {
        std::array::from_fn(|c| self.planes[c].as_slice())
    }

    /// Factor `c ∈ 0..6` at element `e`, node index `node`.
    #[must_use]
    pub fn at(&self, e: usize, node: usize, c: usize) -> f64 {
        self.planes[c][node + self.nodes_per_element() * e]
    }

    /// A fresh copy in the interleaved (Listing 1) layout,
    /// `g[c + 6*node + 6*npts*e]`, the input of the reference kernel.
    #[must_use]
    pub fn to_interleaved(&self) -> Vec<f64> {
        let mut interleaved = vec![0.0; NUM_GEOMETRIC_FACTORS * self.planes[0].len()];
        for (point, g) in interleaved
            .chunks_exact_mut(NUM_GEOMETRIC_FACTORS)
            .enumerate()
        {
            for (slot, plane) in g.iter_mut().zip(&self.planes) {
                *slot = plane[point];
            }
        }
        interleaved
    }

    /// The diagonal mass matrix `B = J w` as an element-major field.
    #[must_use]
    pub fn mass(&self) -> &ElementField {
        &self.mass
    }

    /// Total bytes of geometric-factor data (what the accelerator must stream
    /// from external memory for `gxyz`).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        NUM_GEOMETRIC_FACTORS * self.planes[0].len() * std::mem::size_of::<f64>()
    }
}

/// Width of the register-resident accumulator blocks of [`small_matmul`].
const BLOCK: usize = 4;

/// `out = a · b` for row-major `a` (`m × n`) and `b` (`n × p`), with `m` and
/// `p` taken from the lengths.  Every entry sums `a[i][l]·b[l][q]` from `0.0`
/// over ascending `l`; the columns run in register-resident blocks of
/// [`BLOCK`], the last `p % BLOCK` one at a time.
fn small_matmul(out: &mut [f64], a: &[f64], b: &[f64], n: usize) {
    let p = b.len() / n;
    for (out_row, a_row) in out.chunks_exact_mut(p).zip(a.chunks_exact(n)) {
        let (blocks, tail) = out_row.as_chunks_mut::<BLOCK>();
        let done = blocks.len() * BLOCK;
        for (c, block) in blocks.iter_mut().enumerate() {
            let mut acc = [0.0; BLOCK];
            for (&a_l, b_row) in a_row.iter().zip(b.chunks_exact(p)) {
                let b_row: &[f64; BLOCK] = b_row[c * BLOCK..][..BLOCK]
                    .try_into()
                    .expect("a full block");
                for (s, &b) in acc.iter_mut().zip(b_row) {
                    *s += a_l * b;
                }
            }
            *block = acc;
        }
        for (q, o) in tail.iter_mut().enumerate() {
            *o = a_row
                .iter()
                .zip(b.chunks_exact(p))
                .fold(0.0, |s, (&a_l, b_row)| s + a_l * b_row[done + q]);
        }
    }
}

#[inline]
fn det3(m: &[[f64; 3]; 3]) -> f64 {
    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
}

/// Inverse of a 3×3 matrix given its determinant; returns `inv[b][a] = (M^{-1})_{ba}`.
#[inline]
fn inv3(m: &[[f64; 3]; 3], det: f64) -> [[f64; 3]; 3] {
    let inv_det = 1.0 / det;
    let mut out = [[0.0_f64; 3]; 3];
    out[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_det;
    out[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_det;
    out[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_det;
    out[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_det;
    out[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_det;
    out[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_det;
    out[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_det;
    out[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_det;
    out[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_det;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshDeformation;

    #[test]
    fn unit_cube_affine_factors_are_diagonal() {
        // For an axis-aligned brick of size h^3, dr/dx = 2/h, J = h^3/8 and
        // G_rr = G_ss = G_tt = (2/h)^2 * h^3/8 * w = h/2 * w, off-diagonals 0.
        let degree = 4;
        let mesh = BoxMesh::unit_cube(degree, 2); // h = 0.5
        let geo = GeometricFactors::from_mesh(&mesh);
        let gll = gauss_lobatto_legendre(degree + 1);
        let nx = degree + 1;
        let h = 0.5_f64;
        for e in 0..mesh.num_elements() {
            for k in 0..nx {
                for j in 0..nx {
                    for i in 0..nx {
                        let node = i + nx * (j + nx * k);
                        let w = gll.weights[i] * gll.weights[j] * gll.weights[k];
                        let expect = h / 2.0 * w;
                        assert!((geo.at(e, node, 0) - expect).abs() < 1e-12);
                        assert!((geo.at(e, node, 3) - expect).abs() < 1e-12);
                        assert!((geo.at(e, node, 5) - expect).abs() < 1e-12);
                        assert!(geo.at(e, node, 1).abs() < 1e-12);
                        assert!(geo.at(e, node, 2).abs() < 1e-12);
                        assert!(geo.at(e, node, 4).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn mass_sums_to_domain_volume() {
        // Sum of B over all local nodes equals the domain volume because the
        // quadrature weights of each element integrate 1 over the element.
        for deformation in [
            MeshDeformation::None,
            MeshDeformation::Sinusoidal { amplitude: 0.03 },
        ] {
            let mesh = BoxMesh::new(5, [2, 2, 2], [1.0, 2.0, 0.5], deformation);
            let geo = GeometricFactors::from_mesh(&mesh);
            let vol: f64 = geo.mass().as_slice().iter().sum();
            assert!(
                (vol - 1.0 * 2.0 * 0.5).abs() < 1e-9,
                "volume {vol} for {deformation:?}"
            );
        }
    }

    #[test]
    fn interleaved_copy_matches_the_planes() {
        let mesh = BoxMesh::new(
            3,
            [2, 1, 1],
            [1.0; 3],
            MeshDeformation::Sinusoidal { amplitude: 0.02 },
        );
        let geo = GeometricFactors::from_mesh(&mesh);
        let interleaved = geo.to_interleaved();
        let npts = geo.nodes_per_element();
        assert_eq!(interleaved.len() * 8, geo.size_bytes());
        for e in 0..geo.num_elements() {
            for node in 0..npts {
                for (c, plane) in geo.planes().iter().enumerate() {
                    let g = plane[node + npts * e];
                    assert_eq!(g, geo.at(e, node, c));
                    assert_eq!(
                        g,
                        interleaved[c + NUM_GEOMETRIC_FACTORS * (node + npts * e)]
                    );
                }
            }
        }
    }

    #[test]
    fn deformed_mesh_has_nonzero_cross_terms_and_positive_jacobian() {
        let mesh = BoxMesh::new(
            4,
            [2, 2, 2],
            [1.0; 3],
            MeshDeformation::Sinusoidal { amplitude: 0.05 },
        );
        let geo = GeometricFactors::from_mesh(&mesh);
        assert!(geo.min_jacobian() > 0.0);
        let max_cross = (0..geo.num_elements())
            .flat_map(|e| (0..geo.nodes_per_element()).map(move |n| (e, n)))
            .map(|(e, n)| geo.at(e, n, 1).abs().max(geo.at(e, n, 2).abs()))
            .fold(0.0_f64, f64::max);
        assert!(max_cross > 1e-6, "deformation must create cross terms");
    }

    #[test]
    #[should_panic(expected = "non-positive Jacobian")]
    fn overly_deformed_mesh_is_rejected() {
        let mesh = BoxMesh::new(
            3,
            [2, 2, 2],
            [1.0; 3],
            MeshDeformation::Sinusoidal { amplitude: 1.0 },
        );
        let _ = GeometricFactors::from_mesh(&mesh);
    }

    #[test]
    fn diagonal_factors_are_positive() {
        let mesh = BoxMesh::new(
            3,
            [2, 2, 1],
            [1.0, 1.0, 2.0],
            MeshDeformation::Sinusoidal { amplitude: 0.04 },
        );
        let geo = GeometricFactors::from_mesh(&mesh);
        for e in 0..geo.num_elements() {
            for node in 0..geo.nodes_per_element() {
                assert!(geo.at(e, node, 0) > 0.0);
                assert!(geo.at(e, node, 3) > 0.0);
                assert!(geo.at(e, node, 5) > 0.0);
            }
        }
    }

    #[test]
    fn size_accounting() {
        let mesh = BoxMesh::unit_cube(7, 2);
        let geo = GeometricFactors::from_mesh(&mesh);
        assert_eq!(geo.size_bytes(), 8 * 6 * 512 * 8);
    }
}
