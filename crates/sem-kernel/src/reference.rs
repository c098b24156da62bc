//! Reference implementation of the `Ax` kernel — a faithful port of the
//! paper's Listing 1.
//!
//! The function operates on flat slices in exactly the layouts of the C
//! code: `u` and `w` are element-major nodal arrays, `gxyz` is the
//! interleaved geometric-factor array (`6` values per node), and the two
//! differentiation arrays are flattened `(N+1) × (N+1)` matrices:
//!
//! * `dxt[l + i*(N+1)]` must hold `D[i][l]` (the differentiation matrix in
//!   row-major order) so that the first loop nest computes the local
//!   gradient `(u_r, u_s, u_t)`,
//! * `dx[l + i*(N+1)]` must hold `Dᵀ[i][l] = D[l][i]` so that the second
//!   loop nest applies the transposed operator.
//!
//! With those conventions the kernel evaluates `w^e = Dᵀ G^e D u^e`, which is
//! symmetric positive semi-definite per element (tests below).

use sem_basis::DerivativeMatrix;

/// Apply the local Poisson operator to every element, Listing-1 style.
///
/// * `u` — input nodal values, element-major, length `E (N+1)^3`.
/// * `w` — output nodal values, same layout (overwritten).
/// * `gxyz` — interleaved geometric factors, length `6 E (N+1)^3`.
/// * `dx` — `Dᵀ` flattened row-major, length `(N+1)^2`.
/// * `dxt` — `D` flattened row-major, length `(N+1)^2`.
/// * `nx` — number of GLL points per direction, `N + 1`.
///
/// # Panics
/// Panics if the slice lengths are inconsistent with `nx`.
#[allow(clippy::many_single_char_names)]
pub fn ax_reference_raw(
    u: &[f64],
    w: &mut [f64],
    gxyz: &[f64],
    dx: &[f64],
    dxt: &[f64],
    nx: usize,
) {
    let npts = nx * nx * nx;
    assert!(nx >= 2, "need at least two GLL points");
    assert_eq!(u.len() % npts, 0, "u length must be a multiple of (N+1)^3");
    assert_eq!(u.len(), w.len(), "u and w must have the same length");
    assert_eq!(gxyz.len(), 6 * u.len(), "gxyz must hold 6 values per node");
    assert_eq!(dx.len(), nx * nx, "dx must be (N+1)x(N+1)");
    assert_eq!(dxt.len(), nx * nx, "dxt must be (N+1)x(N+1)");

    let tot_dofs = u.len();
    let mut shur = vec![0.0_f64; npts];
    let mut shus = vec![0.0_f64; npts];
    let mut shut = vec![0.0_f64; npts];

    let mut ele = 0;
    while ele < tot_dofs {
        // First loop nest: local gradient and multiplication by the
        // geometric factors.
        for k in 0..nx {
            for j in 0..nx {
                for i in 0..nx {
                    let ij = i + j * nx;
                    let ijk = ij + k * nx * nx;
                    let mut rtmp = 0.0;
                    let mut stmp = 0.0;
                    let mut ttmp = 0.0;
                    for l in 0..nx {
                        rtmp += dxt[l + i * nx] * u[l + j * nx + k * nx * nx + ele];
                        stmp += dxt[l + j * nx] * u[i + l * nx + k * nx * nx + ele];
                        ttmp += dxt[l + k * nx] * u[ij + l * nx * nx + ele];
                    }
                    let g = &gxyz[6 * ijk + ele * 6..6 * ijk + ele * 6 + 6];
                    shur[ijk] = g[0] * rtmp + g[1] * stmp + g[2] * ttmp;
                    shus[ijk] = g[1] * rtmp + g[3] * stmp + g[4] * ttmp;
                    shut[ijk] = g[2] * rtmp + g[4] * stmp + g[5] * ttmp;
                }
            }
        }
        // Second loop nest: apply the transposed derivative and accumulate.
        for k in 0..nx {
            for j in 0..nx {
                for i in 0..nx {
                    let ij = i + j * nx;
                    let ijk = ij + k * nx * nx;
                    let mut wijke = 0.0;
                    for l in 0..nx {
                        wijke += dx[l + i * nx] * shur[l + j * nx + k * nx * nx];
                        wijke += dx[l + j * nx] * shus[i + l * nx + k * nx * nx];
                        wijke += dx[l + k * nx] * shut[i + j * nx + l * nx * nx];
                    }
                    w[ijk + ele] = wijke;
                }
            }
        }
        ele += npts;
    }
}

/// Convenience wrapper that derives the differentiation arrays from a
/// [`DerivativeMatrix`] with the correct conventions and applies the
/// reference kernel.
pub fn ax_reference(u: &[f64], w: &mut [f64], gxyz: &[f64], derivative: &DerivativeMatrix) {
    let nx = derivative.num_points();
    // See module docs: `dxt` carries D row-major, `dx` carries D^T row-major.
    let dxt = derivative.d_flat();
    let dx = derivative.dt_flat();
    ax_reference_raw(u, w, gxyz, &dx, &dxt, nx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_mesh::{BoxMesh, GeometricFactors, MeshDeformation};

    /// The mesh, its interleaved `gxyz` array and the derivative matrix.
    fn setup(degree: usize, elems: usize) -> (BoxMesh, Vec<f64>, DerivativeMatrix) {
        let mesh = BoxMesh::unit_cube(degree, elems);
        let gxyz = GeometricFactors::from_mesh(&mesh).to_interleaved();
        let dm = DerivativeMatrix::new(degree);
        (mesh, gxyz, dm)
    }

    #[test]
    fn annihilates_constants() {
        let (mesh, gxyz, dm) = setup(5, 2);
        let u = vec![3.0; mesh.num_local_dofs()];
        let mut w = vec![0.0; u.len()];
        ax_reference(&u, &mut w, &gxyz, &dm);
        assert!(w.iter().all(|&v| v.abs() < 1e-10), "A * const = 0");
    }

    #[test]
    fn operator_is_symmetric() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (mesh, gxyz, dm) = setup(4, 1);
        let n = mesh.num_local_dofs();
        let mut rng = StdRng::seed_from_u64(7);
        let u: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut au = vec![0.0; n];
        let mut av = vec![0.0; n];
        ax_reference(&u, &mut au, &gxyz, &dm);
        ax_reference(&v, &mut av, &gxyz, &dm);
        let vau: f64 = v.iter().zip(&au).map(|(a, b)| a * b).sum();
        let uav: f64 = u.iter().zip(&av).map(|(a, b)| a * b).sum();
        assert!((vau - uav).abs() < 1e-9 * (1.0 + vau.abs()));
    }

    #[test]
    fn energy_is_nonnegative() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (mesh, gxyz, dm) = setup(3, 2);
        let n = mesh.num_local_dofs();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let u: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut au = vec![0.0; n];
            ax_reference(&u, &mut au, &gxyz, &dm);
            let energy: f64 = u.iter().zip(&au).map(|(a, b)| a * b).sum();
            assert!(energy >= -1e-10, "energy {energy} must be non-negative");
        }
    }

    #[test]
    fn energy_matches_dirichlet_integral_for_linear_field() {
        // For u = x on a unit-cube mesh, u^T A u = ∫ |∇u|^2 = volume = 1,
        // summed over elements (each element contributes its own volume).
        let (mesh, gxyz, dm) = setup(4, 2);
        let xs = &mesh.coordinates()[0];
        let u = xs.as_slice().to_vec();
        let mut au = vec![0.0; u.len()];
        ax_reference(&u, &mut au, &gxyz, &dm);
        let energy: f64 = u.iter().zip(&au).map(|(a, b)| a * b).sum();
        assert!((energy - 1.0).abs() < 1e-9, "energy {energy}");
    }

    #[test]
    fn energy_matches_dirichlet_integral_for_smooth_field() {
        // u = sin(pi x) cos(pi y) z  on the unit cube:
        // ∫ |∇u|^2 = pi^2/4 * 1/3 + pi^2/4 * 1/3 + 1/4  (separable integrals)
        let degree = 9;
        let mesh = BoxMesh::unit_cube(degree, 2);
        let gxyz = GeometricFactors::from_mesh(&mesh).to_interleaved();
        let dm = DerivativeMatrix::new(degree);
        let pi = std::f64::consts::PI;
        let u = mesh.evaluate(|x, y, z| (pi * x).sin() * (pi * y).cos() * z);
        let mut au = vec![0.0; u.len()];
        ax_reference(u.as_slice(), &mut au, &gxyz, &dm);
        let energy: f64 = u.as_slice().iter().zip(&au).map(|(a, b)| a * b).sum();
        let exact = pi * pi / 4.0 * (1.0 / 3.0) + pi * pi / 4.0 * (1.0 / 3.0) + 0.25;
        assert!(
            (energy - exact).abs() < 1e-5 * exact,
            "energy {energy} vs exact {exact}"
        );
    }

    #[test]
    fn works_on_deformed_meshes() {
        let degree = 6;
        let mesh = BoxMesh::new(
            degree,
            [2, 2, 2],
            [1.0; 3],
            MeshDeformation::Sinusoidal { amplitude: 0.04 },
        );
        let gxyz = GeometricFactors::from_mesh(&mesh).to_interleaved();
        let dm = DerivativeMatrix::new(degree);
        // Constants are still annihilated and linear-in-x energy still equals
        // the deformed domain volume (which equals 1 since the map is a
        // volume-preserving-boundary deformation of the unit cube? Not
        // exactly — so only check it is close to the undeformed value).
        let u = vec![1.0; mesh.num_local_dofs()];
        let mut w = vec![0.0; u.len()];
        ax_reference(&u, &mut w, &gxyz, &dm);
        assert!(w.iter().all(|&v| v.abs() < 1e-9));

        let xs = &mesh.coordinates()[0];
        let mut ax = vec![0.0; u.len()];
        ax_reference(xs.as_slice(), &mut ax, &gxyz, &dm);
        let energy: f64 = xs.as_slice().iter().zip(&ax).map(|(a, b)| a * b).sum();
        assert!((energy - 1.0).abs() < 0.05, "energy {energy} ~ volume");
    }

    #[test]
    #[should_panic(expected = "gxyz must hold 6 values per node")]
    fn rejects_inconsistent_geometry() {
        let dm = DerivativeMatrix::new(2);
        let u = vec![0.0; 27];
        let mut w = vec![0.0; 27];
        let g = vec![0.0; 27];
        ax_reference(&u, &mut w, &g, &dm);
    }
}
