//! The Helmholtz variant of the local operator (CEED bake-off kernel BK5
//! proper).
//!
//! The paper focuses on the pure Poisson operator of Nekbone; the CEED BK5
//! kernel it references "closely resembles the local Poisson operator, but
//! also considers one more geometric factor" — the collocation mass term.
//! This module implements that variant:
//!
//! \[w^e = D^T G^e D u^e \; + \; \lambda \, B^e u^e\]
//!
//! where `B^e = J w_i w_j w_k` is the diagonal mass matrix and `λ ≥ 0` the
//! Helmholtz constant.  It reuses the optimised split-layout gradient path
//! and adds the seventh geometric factor (the mass diagonal) exactly as BK5
//! does, so the extra cost is 2 FLOPs and one extra load per DOF.

use crate::operator::PoissonOperator;
use sem_mesh::ElementField;
use serde::{Deserialize, Serialize};

/// Cost of the Helmholtz (BK5) kernel per degree of freedom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelmholtzCost {
    /// Additions per DOF (`6(N+1) + 7`).
    pub adds: usize,
    /// Multiplications per DOF (`6(N+1) + 11`).
    pub mults: usize,
    /// Double words loaded from global memory per DOF (8: `u`, six `G`
    /// entries and the mass diagonal).
    pub loads: usize,
    /// Double words written per DOF (1).
    pub writes: usize,
}

impl HelmholtzCost {
    /// Evaluate the BK5 cost measure for degree `degree`.
    #[must_use]
    pub fn for_degree(degree: usize) -> Self {
        let poisson = crate::ops::KernelCost::for_degree(degree);
        Self {
            adds: poisson.adds + 1,
            mults: poisson.mults + 2,
            loads: crate::ops::KernelTraffic::for_degree(degree).loads + 1,
            writes: 1,
        }
    }

    /// Total FLOPs per DOF.
    #[must_use]
    pub fn flops(&self) -> usize {
        self.adds + self.mults
    }

    /// Operational intensity in FLOP/byte.
    #[must_use]
    pub fn operational_intensity(&self) -> f64 {
        self.flops() as f64 / ((self.loads + self.writes) as f64 * 8.0)
    }
}

/// The Helmholtz (BK5) operator `A + λ B` bound to a mesh.
#[derive(Debug, Clone)]
pub struct HelmholtzOperator {
    poisson: PoissonOperator,
    lambda: f64,
}

impl HelmholtzOperator {
    /// Wrap an existing Poisson operator with a Helmholtz constant `lambda`.
    ///
    /// # Panics
    /// Panics if `lambda` is negative (the operator would lose positive
    /// semi-definiteness).
    #[must_use]
    pub fn new(poisson: PoissonOperator, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "the Helmholtz constant must be non-negative");
        Self { poisson, lambda }
    }

    /// The Helmholtz constant λ.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The underlying Poisson operator.
    #[must_use]
    pub fn poisson(&self) -> &PoissonOperator {
        &self.poisson
    }

    /// Apply `w = (A + λ B) u`.
    #[must_use]
    pub fn apply(&self, u: &ElementField) -> ElementField {
        let mut w = self.poisson.apply(u);
        if self.lambda != 0.0 {
            let mass = self.poisson.geometry().mass();
            for ((w, &u), &b) in w
                .as_mut_slice()
                .iter_mut()
                .zip(u.as_slice())
                .zip(mass.as_slice())
            {
                *w += self.lambda * b * u;
            }
        }
        w
    }

    /// FLOPs per application on this mesh (BK5 accounting).
    #[must_use]
    pub fn flops_per_application(&self) -> u64 {
        HelmholtzCost::for_degree(self.poisson.degree()).flops() as u64
            * self.poisson.dofs_per_application()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::AxImplementation;
    use sem_mesh::BoxMesh;

    fn setup(degree: usize, lambda: f64) -> (BoxMesh, HelmholtzOperator) {
        let mesh = BoxMesh::unit_cube(degree, 2);
        let poisson = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        (mesh, HelmholtzOperator::new(poisson, lambda))
    }

    #[test]
    fn reduces_to_poisson_when_lambda_is_zero() {
        let (mesh, op) = setup(4, 0.0);
        let u = mesh.evaluate(|x, y, z| x * y + z);
        let w_helm = op.apply(&u);
        let w_poisson = op.poisson().apply(&u);
        assert_eq!(w_helm.as_slice(), w_poisson.as_slice());
    }

    #[test]
    fn constants_are_no_longer_in_the_null_space() {
        // A annihilates constants, but A + λB does not: (A + λB) 1 = λ B 1.
        let (mesh, op) = setup(3, 2.5);
        let ones = semfield_ones(&mesh);
        let w = op.apply(&ones);
        let mass = op.poisson().geometry().mass();
        for (got, &b) in w.as_slice().iter().zip(mass.as_slice()) {
            assert!((got - 2.5 * b).abs() < 1e-10 * (1.0 + b.abs()));
        }
    }

    fn semfield_ones(mesh: &BoxMesh) -> ElementField {
        ElementField::constant(mesh.degree(), mesh.num_elements(), 1.0)
    }

    #[test]
    fn operator_is_symmetric_positive_definite_for_positive_lambda() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (mesh, op) = setup(3, 1.7);
        let n = mesh.num_local_dofs();
        let mut rng = StdRng::seed_from_u64(5);
        let mut u = ElementField::zeros(3, 8);
        let mut v = ElementField::zeros(3, 8);
        u.as_mut_slice()
            .iter_mut()
            .for_each(|x| *x = rng.gen_range(-1.0..1.0));
        v.as_mut_slice()
            .iter_mut()
            .for_each(|x| *x = rng.gen_range(-1.0..1.0));
        let au = op.apply(&u);
        let av = op.apply(&v);
        let vau = v.dot(&au);
        let uav = u.dot(&av);
        assert!((vau - uav).abs() < 1e-9 * (1.0 + vau.abs()));
        // Strictly positive energy for a non-zero vector.
        let uau = u.dot(&au);
        assert!(uau > 0.0);
        assert_eq!(n, u.len());
    }

    #[test]
    fn bk5_cost_accounting() {
        let c = HelmholtzCost::for_degree(7);
        // Poisson is (54, 57, 7, 1); BK5 adds one add, two mults, one load.
        assert_eq!(c.adds, 55);
        assert_eq!(c.mults, 59);
        assert_eq!(c.loads, 8);
        assert_eq!(c.flops(), 114);
        // The extra mass-diagonal load costs more bytes than the extra two
        // FLOPs bring, so BK5's operational intensity is slightly *below* the
        // pure Poisson operator's.
        assert!(c.operational_intensity() < crate::ops::operational_intensity(7));
        assert!(c.operational_intensity() > 0.9 * crate::ops::operational_intensity(7));
        let (_, op) = setup(7, 1.0);
        assert_eq!(op.flops_per_application(), 8 * 512 * 114);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_is_rejected() {
        let mesh = BoxMesh::unit_cube(2, 1);
        let poisson = PoissonOperator::new(&mesh, AxImplementation::Reference);
        let _ = HelmholtzOperator::new(poisson, -1.0);
    }
}
