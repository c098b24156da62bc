//! Diagonal (Jacobi) preconditioner.
//!
//! The preconditioner is the inverse of the *assembled* operator diagonal:
//! the per-element diagonals are direct-stiffness-summed so shared nodes see
//! the diagonal of the global matrix, exactly as Nekbone does.

use crate::cg::Preconditioner;
use sem_kernel::{assemble::operator_diagonal, PoissonOperator};
use sem_mesh::{DirichletMask, ElementField, GatherScatter};

/// Jacobi preconditioner `M = diag(A)`.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inverse_diagonal: ElementField,
    /// Modelled seconds one application costs when the backend claims the
    /// pointwise scale on-device (`None`: measure wall-clock instead).
    modeled_seconds: Option<f64>,
}

impl JacobiPreconditioner {
    /// Build the preconditioner from the operator, summing the element
    /// diagonals across shared nodes and masking the boundary.
    #[must_use]
    pub fn new(
        operator: &PoissonOperator,
        gather_scatter: &GatherScatter,
        mask: &DirichletMask,
    ) -> Self {
        let mut diag = operator_diagonal(operator);
        gather_scatter.direct_stiffness_sum(&mut diag);
        let mut inverse_diagonal = diag.clone();
        for (inv, &d) in inverse_diagonal
            .as_mut_slice()
            .iter_mut()
            .zip(diag.as_slice())
        {
            // Diagonal entries are strictly positive on valid meshes; guard
            // anyway so a degenerate input cannot produce infinities.
            *inv = if d.abs() > f64::MIN_POSITIVE {
                1.0 / d
            } else {
                0.0
            };
        }
        // Masked (Dirichlet) nodes never participate in the solve.
        mask.apply(&mut inverse_diagonal);
        Self {
            inverse_diagonal,
            modeled_seconds: None,
        }
    }

    /// The same preconditioner with a modelled per-application cost attached
    /// (used when an accelerator backend claims the pass on-device).
    #[must_use]
    pub fn with_modeled_seconds(mut self, seconds: f64) -> Self {
        self.modeled_seconds = Some(seconds);
        self
    }

    /// The inverse diagonal as a field (for inspection/tests).
    #[must_use]
    pub fn inverse_diagonal(&self) -> &ElementField {
        &self.inverse_diagonal
    }
}

impl Preconditioner for JacobiPreconditioner {
    // lint: alloc-free (runs once per CG iteration against caller scratch)
    fn apply_into(&self, r: &ElementField, z: &mut ElementField) {
        z.copy_from(r);
        z.pointwise_mul(&self.inverse_diagonal);
    }

    fn seconds_per_application(&self) -> Option<f64> {
        self.modeled_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{CgOptions, CgSolver, IdentityPreconditioner};
    use sem_kernel::AxImplementation;
    use sem_mesh::BoxMesh;

    #[test]
    fn inverse_diagonal_is_positive_in_the_interior() {
        let mesh = BoxMesh::unit_cube(4, 2);
        let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        let gs = GatherScatter::from_mesh(&mesh);
        let mask = DirichletMask::from_mesh(&mesh);
        let pc = JacobiPreconditioner::new(&op, &gs, &mask);
        let nx = mesh.points_per_direction();
        for e in 0..mesh.num_elements() {
            for k in 0..nx {
                for j in 0..nx {
                    for i in 0..nx {
                        let v = pc.inverse_diagonal().at(e, i, j, k);
                        if mesh.is_boundary_node(e, i, j, k) {
                            assert_eq!(v, 0.0);
                        } else {
                            assert!(v > 0.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn jacobi_reduces_iteration_count() {
        let degree = 6;
        let mesh = BoxMesh::unit_cube(degree, 2);
        let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        let gs = GatherScatter::from_mesh(&mesh);
        let mask = DirichletMask::from_mesh(&mesh);
        let solver = CgSolver::new(
            &op,
            &gs,
            &mask,
            CgOptions {
                max_iterations: 2000,
                tolerance: 1e-10,
                record_history: false,
            },
        );
        let mut x_exact = mesh.evaluate(|x, y, z| {
            (std::f64::consts::PI * x).sin()
                * (std::f64::consts::PI * y).sin()
                * (std::f64::consts::PI * z).sin()
        });
        mask.apply(&mut x_exact);
        let rhs = solver.apply_operator(&x_exact);

        let plain = solver.solve(&rhs, &IdentityPreconditioner);
        let pc = JacobiPreconditioner::new(&op, &gs, &mask);
        let precond = solver.solve(&rhs, &pc);

        assert!(plain.converged && precond.converged);
        assert!(
            precond.iterations <= plain.iterations,
            "jacobi {} vs plain {}",
            precond.iterations,
            plain.iterations
        );
    }

    #[test]
    fn preconditioned_solution_matches_plain_solution() {
        let mesh = BoxMesh::unit_cube(3, 2);
        let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        let gs = GatherScatter::from_mesh(&mesh);
        let mask = DirichletMask::from_mesh(&mesh);
        let solver = CgSolver::new(&op, &gs, &mask, CgOptions::default());
        let mut x_exact = mesh.evaluate(|x, y, z| x * (1.0 - x) * y * (1.0 - y) * z * (1.0 - z));
        mask.apply(&mut x_exact);
        let rhs = solver.apply_operator(&x_exact);
        let pc = JacobiPreconditioner::new(&op, &gs, &mask);
        let a = solver.solve(&rhs, &IdentityPreconditioner);
        let b = solver.solve(&rhs, &pc);
        let mut diff = a.solution.clone();
        diff.axpy(-1.0, &b.solution);
        assert!(diff.max_abs() < 1e-7);
    }
}
