//! Optimised CPU implementation of the `Ax` kernel.
//!
//! This mirrors — on a CPU — the data-layout transformations Section III-B of
//! the paper applies to the accelerator:
//!
//! * the geometric factors are consumed in the *split* layout (six separate
//!   planes) instead of the interleaved `gxyz` array, removing the strided
//!   gather that defeats vectorisation (and, on the FPGA, causes BRAM
//!   arbitration);
//! * the three directional derivative sums are evaluated as small
//!   matrix–matrix products with unit-stride inner loops so the compiler can
//!   vectorise them;
//! * one element's scratch (`shur`/`shus`/`shut`) is kept hot in cache and
//!   reused across the two loop nests, exactly like the on-chip BRAM copy.
//!
//! The module is crate-private: outside `sem-kernel` it is reached only
//! through the `"generic"` [`crate::DegreeDispatch`] table, which holds
//! [`ax_optimized`] for degrees off the specialized range (and for a
//! [`crate::PoissonOperator`] pinned to the generic kernels).

/// Scratch buffers reused across elements to avoid per-element allocation.
#[derive(Debug, Default, Clone)]
pub(crate) struct AxScratch {
    shur: Vec<f64>,
    shus: Vec<f64>,
    shut: Vec<f64>,
    ur: Vec<f64>,
    us: Vec<f64>,
    ut: Vec<f64>,
}

impl AxScratch {
    /// Grow-only resize: shrinking to a smaller degree reuses the existing
    /// allocations (the kernel only touches the first `nx³` entries), so
    /// mixed-degree batches stay allocation-free after the first element of
    /// the largest size.
    fn ensure(&mut self, nx: usize) {
        let npts = nx * nx * nx;
        if self.shur.len() < npts {
            for buf in [
                &mut self.shur,
                &mut self.shus,
                &mut self.shut,
                &mut self.ur,
                &mut self.us,
                &mut self.ut,
            ] {
                buf.resize(npts, 0.0);
            }
        }
    }
}

/// Apply the operator to a single element using the split geometric-factor
/// layout.
///
/// * `u`, `w` — one element's nodal values (`(N+1)^3` each).
/// * `g` — six slices, each one element's worth of a geometric-factor plane.
/// * `d`, `dt` — the differentiation matrix and its transpose, row-major.
#[allow(clippy::too_many_arguments)]
// Index-based loops deliberately mirror the paper's Listing 1 structure and
// keep the stride arithmetic explicit for the strength-reduced inner loops.
#[allow(clippy::needless_range_loop)]
pub(crate) fn ax_element_split(
    u: &[f64],
    w: &mut [f64],
    g: [&[f64]; 6],
    d: &[f64],
    dt: &[f64],
    nx: usize,
    scratch: &mut AxScratch,
) {
    let npts = nx * nx * nx;
    debug_assert_eq!(u.len(), npts);
    debug_assert_eq!(w.len(), npts);
    scratch.ensure(nx);

    let nxy = nx * nx;

    // ur(i,j,k) = sum_l D[i][l] u(l,j,k)   -- contraction over the fastest index
    // us(i,j,k) = sum_l D[j][l] u(i,l,k)
    // ut(i,j,k) = sum_l D[k][l] u(i,j,l)
    {
        // Slice to the active element size: the scratch may be larger when a
        // previous element had a higher degree (grow-only `ensure`).
        let ur = &mut scratch.ur[..npts];
        let us = &mut scratch.us[..npts];
        let ut = &mut scratch.ut[..npts];
        ur.iter_mut().for_each(|v| *v = 0.0);
        us.iter_mut().for_each(|v| *v = 0.0);
        ut.iter_mut().for_each(|v| *v = 0.0);

        // r-direction: for each (j,k) row, small dense mat-vec.
        for k in 0..nx {
            for j in 0..nx {
                let row = j * nx + k * nxy;
                for i in 0..nx {
                    let mut acc = 0.0;
                    let drow = &d[i * nx..(i + 1) * nx];
                    let urow = &u[row..row + nx];
                    for l in 0..nx {
                        acc += drow[l] * urow[l];
                    }
                    ur[i + row] = acc;
                }
            }
        }
        // s-direction.
        for k in 0..nx {
            for j in 0..nx {
                let drow = &d[j * nx..(j + 1) * nx];
                for l in 0..nx {
                    let dv = drow[l];
                    let src = l * nx + k * nxy;
                    let dst = j * nx + k * nxy;
                    for i in 0..nx {
                        us[i + dst] += dv * u[i + src];
                    }
                }
            }
        }
        // t-direction.
        for k in 0..nx {
            let drow = &d[k * nx..(k + 1) * nx];
            for l in 0..nx {
                let dv = drow[l];
                let src = l * nxy;
                let dst = k * nxy;
                for ij in 0..nxy {
                    ut[ij + dst] += dv * u[ij + src];
                }
            }
        }
    }

    // Multiply by the geometric factors pointwise.
    for p in 0..npts {
        let (ur, us, ut) = (scratch.ur[p], scratch.us[p], scratch.ut[p]);
        scratch.shur[p] = g[0][p] * ur + g[1][p] * us + g[2][p] * ut;
        scratch.shus[p] = g[1][p] * ur + g[3][p] * us + g[4][p] * ut;
        scratch.shut[p] = g[2][p] * ur + g[4][p] * us + g[5][p] * ut;
    }

    // w = D^T_r shur + D^T_s shus + D^T_t shut.
    w.iter_mut().for_each(|v| *v = 0.0);
    for k in 0..nx {
        for j in 0..nx {
            let row = j * nx + k * nxy;
            for i in 0..nx {
                let mut acc = 0.0;
                let dtrow = &dt[i * nx..(i + 1) * nx];
                let srow = &scratch.shur[row..row + nx];
                for l in 0..nx {
                    acc += dtrow[l] * srow[l];
                }
                w[i + row] = acc;
            }
        }
    }
    for k in 0..nx {
        for j in 0..nx {
            let dtrow = &dt[j * nx..(j + 1) * nx];
            for l in 0..nx {
                let dv = dtrow[l];
                let src = l * nx + k * nxy;
                let dst = j * nx + k * nxy;
                for i in 0..nx {
                    w[i + dst] += dv * scratch.shus[i + src];
                }
            }
        }
    }
    for k in 0..nx {
        let dtrow = &dt[k * nx..(k + 1) * nx];
        for l in 0..nx {
            let dv = dtrow[l];
            let src = l * nxy;
            let dst = k * nxy;
            for ij in 0..nxy {
                w[ij + dst] += dv * scratch.shut[ij + src];
            }
        }
    }
}

thread_local! {
    /// Per-thread element scratch reused across applications, so repeated
    /// operator applications (every CG iteration) perform no heap allocation
    /// after the first call on a thread.
    static ELEMENT_SCRATCH: std::cell::RefCell<AxScratch> =
        std::cell::RefCell::new(AxScratch::default());
}

/// Apply the operator to every element using the split layout, sequentially.
///
/// `g_planes` holds the six geometric-factor planes, each of length
/// `E (N+1)^3` (see `sem_mesh::GeometricFactors::planes`); `d` and `dt` are
/// the row-major differentiation matrix and its transpose, `nx = N + 1`.
///
/// This is the `Ax` entry of the generic [`crate::DegreeDispatch`] table.
/// The element scratch comes from a thread-local buffer sized on first use,
/// so repeated applications are allocation-free.
///
/// # Panics
/// Panics if `u` and `w` differ in length, the length is not a multiple of
/// `(N+1)^3`, or any plane slice does not match `u`.
pub(crate) fn ax_optimized(
    u: &[f64],
    w: &mut [f64],
    g_planes: [&[f64]; 6],
    d: &[f64],
    dt: &[f64],
    nx: usize,
) {
    let npts = nx * nx * nx;
    assert_eq!(u.len(), w.len());
    assert_eq!(u.len() % npts, 0);
    for plane in g_planes {
        assert_eq!(plane.len(), u.len(), "geometric plane length mismatch");
    }
    let num_elements = u.len() / npts;
    ELEMENT_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        for e in 0..num_elements {
            let range = e * npts..(e + 1) * npts;
            let g = g_planes.map(|plane| &plane[range.clone()]);
            ax_element_split(&u[range.clone()], &mut w[range], g, d, dt, nx, scratch);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ax_reference;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sem_basis::DerivativeMatrix;
    use sem_mesh::{BoxMesh, GeometricFactors, MeshDeformation};

    fn random_field(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn ensure_reuses_the_allocation_when_shrinking() {
        let mut scratch = AxScratch::default();
        scratch.ensure(8);
        let cap = scratch.shur.capacity();
        let ptr = scratch.shur.as_ptr();
        scratch.ensure(4);
        assert_eq!(scratch.shur.as_ptr(), ptr, "shrinking must not reallocate");
        assert_eq!(scratch.shur.capacity(), cap);
        scratch.ensure(8);
        assert_eq!(
            scratch.shur.as_ptr(),
            ptr,
            "growing back within capacity must not reallocate"
        );
        scratch.ensure(10);
        assert!(scratch.shur.len() >= 10 * 10 * 10);
    }

    #[test]
    fn matches_reference_on_undeformed_mesh() {
        for degree in [1, 2, 3, 5, 7] {
            let mesh = BoxMesh::unit_cube(degree, 2);
            let geo = GeometricFactors::from_mesh(&mesh);
            let dm = DerivativeMatrix::new(degree);
            let u = random_field(mesh.num_local_dofs(), degree as u64);
            let mut w_ref = vec![0.0; u.len()];
            let mut w_opt = vec![0.0; u.len()];
            ax_reference(&u, &mut w_ref, &geo.to_interleaved(), &dm);
            ax_optimized(
                &u,
                &mut w_opt,
                geo.planes(),
                &dm.d_flat(),
                &dm.dt_flat(),
                degree + 1,
            );
            for (a, b) in w_ref.iter().zip(&w_opt) {
                assert!(
                    (a - b).abs() < 1e-11 * (1.0 + a.abs()),
                    "degree {degree}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_on_deformed_mesh() {
        let degree = 6;
        let mesh = BoxMesh::new(
            degree,
            [2, 1, 2],
            [1.0, 2.0, 1.0],
            MeshDeformation::Sinusoidal { amplitude: 0.05 },
        );
        let geo = GeometricFactors::from_mesh(&mesh);
        let dm = DerivativeMatrix::new(degree);
        let u = random_field(mesh.num_local_dofs(), 99);
        let mut w_ref = vec![0.0; u.len()];
        let mut w_opt = vec![0.0; u.len()];
        ax_reference(&u, &mut w_ref, &geo.to_interleaved(), &dm);
        ax_optimized(
            &u,
            &mut w_opt,
            geo.planes(),
            &dm.d_flat(),
            &dm.dt_flat(),
            degree + 1,
        );
        let max_err = w_ref
            .iter()
            .zip(&w_opt)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(max_err < 1e-10, "max error {max_err}");
    }

    #[test]
    fn scratch_reuse_is_safe_across_degrees() {
        let mut scratch = AxScratch::default();
        scratch.ensure(4);
        // Using the scratch with a different nx must transparently resize.
        let degree = 5;
        let mesh = BoxMesh::unit_cube(degree, 1);
        let geo = GeometricFactors::from_mesh(&mesh);
        let dm = DerivativeMatrix::new(degree);
        let u = random_field(mesh.num_local_dofs(), 3);
        let mut w = vec![0.0; u.len()];
        ax_element_split(
            &u,
            &mut w,
            geo.planes(),
            &dm.d_flat(),
            &dm.dt_flat(),
            6,
            &mut scratch,
        );
        let mut w_ref = vec![0.0; u.len()];
        ax_reference(&u, &mut w_ref, &geo.to_interleaved(), &dm);
        for (a, b) in w_ref.iter().zip(&w) {
            assert!((a - b).abs() < 1e-11);
        }
    }
}
