//! High-level handle for the local Poisson operator on a mesh.
//!
//! [`PoissonOperator`] holds the per-mesh data (differentiation matrix and
//! the shared split-layout geometric factors) and dispatches to one of the
//! CPU implementations.  The geometry sits behind an [`Arc`], so a session's
//! host operator and its execution backend (`sem-accel`) apply one copy; only
//! the reference kernel additionally keeps the Listing-1 interleaved array.

use crate::ops;
use crate::parallel::ax_parallel;
use crate::reference::ax_reference;
use crate::specialized::{ax_split, DegreeDispatch};
use sem_basis::DerivativeMatrix;
use sem_mesh::{BoxMesh, ElementField, GeometricFactors};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which CPU implementation of the kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AxImplementation {
    /// Listing-1 port on the interleaved layout (ground truth).
    Reference,
    /// The split-layout kernel through [`crate::specialized::ax_split`]: the
    /// degree-specialized const-generic family (`NX = N + 1` compile-time)
    /// on `3..=15`, the bitwise-identical generic kernel outside it.
    #[default]
    Specialized,
    /// The [`Self::Specialized`] kernel fanned out over elements with Rayon.
    Parallel,
}

/// The matrix-free local Poisson operator bound to a mesh.
#[derive(Debug, Clone)]
pub struct PoissonOperator {
    derivative: DerivativeMatrix,
    geometry: Arc<GeometricFactors>,
    /// The Listing-1 interleaved copy of `geometry`, present exactly when
    /// the reference kernel is selected.
    interleaved: Option<Vec<f64>>,
    implementation: AxImplementation,
    /// Specialized kernel family, resolved once at construction when the
    /// selected implementation can use it and the degree is covered.
    dispatch: Option<DegreeDispatch>,
}

/// Resolve the specialized dispatch for an implementation/degree pair:
/// every non-reference implementation resolves it when the degree is
/// covered.
fn resolve_dispatch(implementation: AxImplementation, degree: usize) -> Option<DegreeDispatch> {
    match implementation {
        AxImplementation::Reference => None,
        AxImplementation::Specialized | AxImplementation::Parallel => {
            DegreeDispatch::for_degree(degree)
        }
    }
}

/// The interleaved copy the reference kernel needs, and only it.
fn interleaved_for(
    implementation: AxImplementation,
    geometry: &GeometricFactors,
) -> Option<Vec<f64>> {
    (implementation == AxImplementation::Reference).then(|| geometry.to_interleaved())
}

impl PoissonOperator {
    /// Build the operator for a mesh, precomputing geometric factors.
    #[must_use]
    pub fn new(mesh: &BoxMesh, implementation: AxImplementation) -> Self {
        Self::with_geometry(Arc::new(GeometricFactors::from_mesh(mesh)), implementation)
    }

    /// Build the operator on already computed (and possibly shared)
    /// geometric factors.
    #[must_use]
    pub fn with_geometry(
        geometry: Arc<GeometricFactors>,
        implementation: AxImplementation,
    ) -> Self {
        let degree = geometry.degree();
        Self {
            derivative: DerivativeMatrix::new(degree),
            interleaved: interleaved_for(implementation, &geometry),
            geometry,
            implementation,
            dispatch: resolve_dispatch(implementation, degree),
        }
    }

    /// Polynomial degree.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.geometry.degree()
    }

    /// Number of elements.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.geometry.num_elements()
    }

    /// The implementation currently selected.
    #[must_use]
    pub fn implementation(&self) -> AxImplementation {
        self.implementation
    }

    /// Switch implementation (e.g. reference for verification, parallel for
    /// throughput runs).  Re-resolves the specialized dispatch, and builds
    /// (or drops) the interleaved copy the reference kernel reads.
    pub fn set_implementation(&mut self, implementation: AxImplementation) {
        if implementation != self.implementation {
            self.interleaved = interleaved_for(implementation, &self.geometry);
        }
        self.implementation = implementation;
        self.dispatch = resolve_dispatch(implementation, self.degree());
    }

    /// The specialized kernel family serving this operator, when one is
    /// resolved (`None` means the reference kernel, an off-range degree or a
    /// pinned generic path runs).
    #[must_use]
    pub fn dispatch(&self) -> Option<&DegreeDispatch> {
        self.dispatch.as_ref()
    }

    /// Pin the generic kernels even when the degree is covered — the
    /// escape hatch benchmarks use to measure generic-vs-specialized on the
    /// same operator configuration.
    pub fn pin_generic(&mut self) {
        self.dispatch = None;
    }

    /// The differentiation matrix.
    #[must_use]
    pub fn derivative(&self) -> &DerivativeMatrix {
        &self.derivative
    }

    /// The geometric factors, shared with every other holder of this
    /// session's geometry.
    #[must_use]
    pub fn geometry(&self) -> &Arc<GeometricFactors> {
        &self.geometry
    }

    /// Apply the operator: `w = A u`, element by element.
    ///
    /// # Panics
    /// Panics if `u` does not match the operator's mesh dimensions.
    #[must_use]
    pub fn apply(&self, u: &ElementField) -> ElementField {
        assert_eq!(u.degree(), self.degree(), "degree mismatch");
        assert_eq!(
            u.num_elements(),
            self.num_elements(),
            "element count mismatch"
        );
        let mut w = ElementField::zeros(self.degree(), self.num_elements());
        self.apply_into(u, &mut w);
        w
    }

    /// Apply the operator into an existing output field (no allocation).
    // lint: alloc-free (the Ax hot path: every CG iteration routes through here)
    pub fn apply_into(&self, u: &ElementField, w: &mut ElementField) {
        assert_eq!(u.len(), w.len(), "output field size mismatch");
        let (u, w) = (u.as_slice(), w.as_mut_slice());
        let planes = self.geometry.planes();
        let dispatch = self.dispatch.as_ref();
        // The interleaved copy exists exactly when `Reference` is selected.
        match (&self.interleaved, self.implementation) {
            (Some(interleaved), _) => ax_reference(u, w, interleaved, &self.derivative),
            (None, AxImplementation::Parallel) => {
                ax_parallel(u, w, planes, &self.derivative, dispatch);
            }
            // Off-range degrees (or pinned generic kernels) have no dispatch
            // and run the generic split-layout kernel.
            (None, _) => ax_split(dispatch, u, w, planes, &self.derivative),
        }
    }

    /// FLOPs for one full operator application on this mesh.
    #[must_use]
    pub fn flops_per_application(&self) -> u64 {
        ops::total_flops(self.degree(), self.num_elements())
    }

    /// Degrees of freedom processed per application.
    #[must_use]
    pub fn dofs_per_application(&self) -> u64 {
        ops::total_dofs(self.degree(), self.num_elements())
    }

    /// Bytes of compulsory global traffic per application.
    #[must_use]
    pub fn bytes_per_application(&self) -> u64 {
        ops::total_bytes(self.degree(), self.num_elements())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn all_implementations_agree() {
        let mesh = BoxMesh::unit_cube(4, 2);
        let mut op = PoissonOperator::new(&mesh, AxImplementation::Reference);
        let mut rng = StdRng::seed_from_u64(11);
        let mut u = ElementField::zeros(4, 8);
        u.as_mut_slice()
            .iter_mut()
            .for_each(|v| *v = rng.gen_range(-1.0..1.0));

        let w_ref = op.apply(&u);
        op.set_implementation(AxImplementation::Specialized);
        let w_spec = op.apply(&u);
        op.set_implementation(AxImplementation::Parallel);
        let w_par = op.apply(&u);

        for ((a, b), c) in w_ref
            .as_slice()
            .iter()
            .zip(w_spec.as_slice())
            .zip(w_par.as_slice())
        {
            assert!((a - b).abs() < 1e-11 * (1.0 + a.abs()));
            assert_eq!(b, c, "specialized and parallel are bitwise identical");
        }
    }

    #[test]
    fn specialized_dispatch_resolves_once_and_is_bitwise_identical() {
        let mesh = BoxMesh::unit_cube(5, 2);
        let mut op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        assert!(op.dispatch().is_some(), "degree 5 is covered");
        let mut rng = StdRng::seed_from_u64(23);
        let mut u = ElementField::zeros(5, 8);
        u.as_mut_slice()
            .iter_mut()
            .for_each(|v| *v = rng.gen_range(-1.0..1.0));
        let w_spec = op.apply(&u);
        op.pin_generic();
        assert!(op.dispatch().is_none());
        let w_gen = op.apply(&u);
        assert_eq!(w_spec.as_slice(), w_gen.as_slice());
    }

    #[test]
    fn specialized_resolves_on_covered_degrees_only() {
        let covered =
            PoissonOperator::new(&BoxMesh::unit_cube(7, 1), AxImplementation::Specialized);
        assert!(covered.dispatch().is_some());
        let low = PoissonOperator::new(&BoxMesh::unit_cube(2, 1), AxImplementation::Specialized);
        assert!(low.dispatch().is_none());
        let reference =
            PoissonOperator::new(&BoxMesh::unit_cube(7, 1), AxImplementation::Reference);
        assert!(reference.dispatch().is_none());
    }

    #[test]
    fn specialized_out_of_range_falls_back_without_panicking() {
        let mesh = BoxMesh::unit_cube(2, 2);
        let mut op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        assert!(op.dispatch().is_none(), "degree 2 is below the range");
        let mut rng = StdRng::seed_from_u64(31);
        let mut u = ElementField::zeros(2, 8);
        u.as_mut_slice()
            .iter_mut()
            .for_each(|v| *v = rng.gen_range(-1.0..1.0));
        let w_spec = op.apply(&u);
        op.set_implementation(AxImplementation::Parallel);
        assert!(op.dispatch().is_none(), "the Rayon fan-out falls back too");
        let w_par = op.apply(&u);
        assert_eq!(w_spec.as_slice(), w_par.as_slice());
    }

    #[test]
    fn switching_to_reference_matches_a_reference_operator_bitwise() {
        let mesh = BoxMesh::new(
            5,
            [2, 1, 2],
            [1.0; 3],
            sem_mesh::MeshDeformation::Sinusoidal { amplitude: 0.05 },
        );
        let u = mesh.evaluate(|x, y, z| (2.3 * x).sin() * y + z * z);
        let mut op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        assert!(
            op.interleaved.is_none(),
            "fast kernels keep no interleaved copy"
        );
        op.set_implementation(AxImplementation::Reference);
        let reference = PoissonOperator::new(&mesh, AxImplementation::Reference);
        assert_eq!(op.apply(&u).as_slice(), reference.apply(&u).as_slice());
        op.set_implementation(AxImplementation::Specialized);
        assert!(op.interleaved.is_none(), "leaving Reference drops the copy");
    }

    #[test]
    fn accounting_matches_closed_forms() {
        let mesh = BoxMesh::unit_cube(7, 2);
        let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        assert_eq!(op.dofs_per_application(), 8 * 512);
        assert_eq!(op.flops_per_application(), 8 * 512 * 111);
        assert_eq!(op.bytes_per_application(), 8 * 512 * 64);
    }

    #[test]
    #[should_panic(expected = "degree mismatch")]
    fn rejects_wrong_degree_field() {
        let mesh = BoxMesh::unit_cube(3, 1);
        let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        let u = ElementField::zeros(4, 1);
        let _ = op.apply(&u);
    }
}
