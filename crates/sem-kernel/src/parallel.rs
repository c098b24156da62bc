//! Element-parallel CPU implementation of the `Ax` kernel.
//!
//! The evaluation of the operator is embarrassingly parallel over elements —
//! exactly the property the CPU baselines of the paper exploit with one MPI
//! rank per core.  Here we use Rayon's work-stealing pool instead: this module
//! only chunks the field by element, and each chunk runs the same
//! [`DegreeDispatch`] table the sequential path holds (the
//! degree-specialized family, or the generic kernels off-range).

use crate::specialized::DegreeDispatch;
use rayon::prelude::*;
use sem_basis::DerivativeMatrix;

/// Apply the operator to every element in parallel.
///
/// Semantics are identical to [`DegreeDispatch::ax_apply_all`] on the whole
/// field; only the scheduling differs, so results are bitwise identical
/// (each element's arithmetic is unchanged and elements are independent).
///
/// # Panics
/// Panics if `u` and `w` differ in length, the length is not a multiple of
/// `(N+1)^3`, or any plane does not match `u`.
pub fn ax_parallel(
    u: &[f64],
    w: &mut [f64],
    g_planes: [&[f64]; 6],
    derivative: &DerivativeMatrix,
    dispatch: &DegreeDispatch,
) {
    let nx = derivative.num_points();
    let npts = nx * nx * nx;
    assert_eq!(u.len(), w.len());
    assert_eq!(u.len() % npts, 0);
    for plane in g_planes {
        assert_eq!(plane.len(), u.len(), "geometric plane length mismatch");
    }
    let (d, dt) = (derivative.d().as_slice(), derivative.dt().as_slice());
    w.par_chunks_mut(npts).enumerate().for_each_init(
        || (),
        |(), (e, w_elem)| {
            let range = e * npts..(e + 1) * npts;
            let g = g_planes.map(|plane| &plane[range.clone()]);
            dispatch.ax_apply_all(&u[range], w_elem, g, d, dt);
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sem_mesh::{BoxMesh, GeometricFactors, MeshDeformation};

    #[test]
    fn parallel_matches_sequential_bitwise() {
        for degree in [2, 4, 7] {
            let mesh = BoxMesh::new(
                degree,
                [3, 2, 2],
                [1.0; 3],
                MeshDeformation::Sinusoidal { amplitude: 0.03 },
            );
            let geo = GeometricFactors::from_mesh(&mesh);
            let dm = DerivativeMatrix::new(degree);
            let mut rng = StdRng::seed_from_u64(degree as u64);
            let u: Vec<f64> = (0..mesh.num_local_dofs())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let mut w_seq = vec![0.0; u.len()];
            let generic = DegreeDispatch::generic(degree);
            generic.ax_apply_all(&u, &mut w_seq, geo.planes(), &dm.d_flat(), &dm.dt_flat());
            for dispatch in [generic, DegreeDispatch::for_degree(degree)] {
                let mut w_par = vec![0.0; u.len()];
                ax_parallel(&u, &mut w_par, geo.planes(), &dm, &dispatch);
                assert_eq!(
                    w_seq,
                    w_par,
                    "degree {degree}, {}: parallel must be bitwise equal",
                    dispatch.isa()
                );
            }
        }
    }

    #[test]
    fn handles_single_element() {
        let mesh = BoxMesh::unit_cube(3, 1);
        let geo = GeometricFactors::from_mesh(&mesh);
        let dm = DerivativeMatrix::new(3);
        let u = vec![1.0; mesh.num_local_dofs()];
        let mut w = vec![0.0; u.len()];
        ax_parallel(
            &u,
            &mut w,
            geo.planes(),
            &dm,
            &DegreeDispatch::for_degree(3),
        );
        assert!(w.iter().all(|&v| v.abs() < 1e-10));
    }
}
