//! End-to-end Poisson problems with manufactured solutions.
//!
//! This is the correctness anchor of the whole stack: pick an analytic
//! solution `u*` of the homogeneous Dirichlet Poisson problem, build the
//! right-hand side `f = -Δu*`, discretise, solve with CG, and measure how far
//! the discrete solution is from `u*`.  Spectral convergence of that error as
//! the degree grows is strong evidence that basis, geometry, kernel,
//! gather–scatter and solver are all consistent.

use crate::cg::{CgOptions, CgOutcome, CgSolver, IdentityPreconditioner, LocalOperator};
use crate::fdm::FdmPreconditioner;
use crate::jacobi::JacobiPreconditioner;
use crate::precond::{AnyPreconditioner, PrecondSpec};
use sem_kernel::{AxImplementation, PoissonOperator};
use sem_mesh::{BoxMesh, DirichletMask, ElementField, GatherScatter, GeometricFactors};
use std::sync::Arc;

/// A discretised homogeneous-Dirichlet Poisson problem on a box mesh.
pub struct PoissonProblem {
    mesh: BoxMesh,
    operator: PoissonOperator,
    gather_scatter: GatherScatter,
    mask: DirichletMask,
}

/// Outcome of a manufactured-solution solve.
#[derive(Debug, Clone)]
pub struct PoissonSolution {
    /// The discrete solution.
    pub solution: ElementField,
    /// Maximum nodal error against the manufactured solution.
    pub max_error: f64,
    /// Weighted (mass-matrix) L2 error against the manufactured solution.
    pub l2_error: f64,
    /// The raw CG statistics.
    pub cg: CgOutcome,
}

impl PoissonProblem {
    /// Discretise the problem on `mesh` with the given kernel implementation.
    #[must_use]
    pub fn new(mesh: BoxMesh, implementation: AxImplementation) -> Self {
        let geometry = Arc::new(GeometricFactors::from_mesh(&mesh));
        Self::with_geometry(mesh, geometry, implementation)
    }

    /// Discretise the problem on `mesh` over its already computed geometric
    /// factors, sharing them with every other holder (a session's execution
    /// backend, for one).
    ///
    /// # Panics
    /// Panics if `geometry` was not computed for a mesh of this degree and
    /// element count.
    #[must_use]
    pub fn with_geometry(
        mesh: BoxMesh,
        geometry: Arc<GeometricFactors>,
        implementation: AxImplementation,
    ) -> Self {
        assert_eq!(geometry.degree(), mesh.degree(), "geometry degree mismatch");
        assert_eq!(
            geometry.num_elements(),
            mesh.num_elements(),
            "geometry element count mismatch"
        );
        let operator = PoissonOperator::with_geometry(geometry, implementation);
        let gather_scatter = GatherScatter::from_mesh(&mesh);
        let mask = DirichletMask::from_mesh(&mesh);
        Self {
            mesh,
            operator,
            gather_scatter,
            mask,
        }
    }

    /// The underlying mesh.
    #[must_use]
    pub fn mesh(&self) -> &BoxMesh {
        &self.mesh
    }

    /// The matrix-free operator.
    #[must_use]
    pub fn operator(&self) -> &PoissonOperator {
        &self.operator
    }

    /// The gather–scatter operator.
    #[must_use]
    pub fn gather_scatter(&self) -> &GatherScatter {
        &self.gather_scatter
    }

    /// The Dirichlet mask.
    #[must_use]
    pub fn mask(&self) -> &DirichletMask {
        &self.mask
    }

    /// Build the discrete right-hand side for a forcing function `f(x,y,z)`:
    /// `b = mask(QQᵀ (B f))` with `B` the diagonal mass matrix.
    #[must_use]
    pub fn right_hand_side<F: Fn(f64, f64, f64) -> f64>(&self, forcing: F) -> ElementField {
        let mut b = self.mesh.evaluate(forcing);
        b.pointwise_mul(self.operator.geometry().mass());
        self.gather_scatter.direct_stiffness_sum(&mut b);
        self.mask.apply(&mut b);
        b
    }

    /// The discrete right-hand side of the standard manufactured problem
    /// (`u*(x, y, z) = Π_i sin(π x_i / L_i)`), ready to hand to a batched
    /// solve path (`sem-accel`'s `solve_many`).
    #[must_use]
    pub fn manufactured_rhs(&self) -> ElementField {
        let lengths = self.mesh.lengths();
        let pi = std::f64::consts::PI;
        let factor: f64 = lengths.iter().map(|&l| (pi / l) * (pi / l)).sum();
        self.right_hand_side(|x, y, z| {
            factor
                * (pi * x / lengths[0]).sin()
                * (pi * y / lengths[1]).sin()
                * (pi * z / lengths[2]).sin()
        })
    }

    /// A right-hand side with broad spectral content — the shape of an
    /// arbitrary serving request (several incommensurate sine modes plus a
    /// non-separable bump).  The *standard manufactured* right-hand side is
    /// a single Laplacian eigenfunction that unpreconditioned CG resolves in
    /// misleadingly few iterations, so preconditioner comparisons (the
    /// `precond` bench and the iteration-regression tests) run on this one.
    #[must_use]
    pub fn generic_rhs(&self) -> ElementField {
        let pi = std::f64::consts::PI;
        self.right_hand_side(move |x, y, z| {
            3.0 * pi * pi * (pi * x).sin() * (pi * y).sin() * (pi * z).sin()
                + 14.0 * pi * pi * (3.0 * pi * x).sin() * (2.0 * pi * y).sin() * (pi * z).sin()
                + 0.5 * (5.0 * pi * x).sin() * (4.0 * pi * y).sin() * (3.0 * pi * z).sin()
                + x * (1.0 - x) * y * (1.0 - y) * z * (1.0 - z) * (7.3 * x * y).cos()
        })
    }

    /// The masked nodal values of the standard manufactured solution, for
    /// error measurement via [`PoissonProblem::error_against`].
    #[must_use]
    pub fn manufactured_exact(&self) -> ElementField {
        let lengths = self.mesh.lengths();
        let pi = std::f64::consts::PI;
        let mut exact = self.mesh.evaluate(|x, y, z| {
            (pi * x / lengths[0]).sin() * (pi * y / lengths[1]).sin() * (pi * z / lengths[2]).sin()
        });
        self.mask.apply(&mut exact);
        exact
    }

    /// Maximum nodal error and weighted (mass-matrix) L2 error of `solution`
    /// against a masked exact field, computed in one fused sweep with no
    /// intermediate fields.
    ///
    /// # Panics
    /// Panics if the fields do not match the problem's dimensions.
    #[must_use]
    pub fn error_against(&self, solution: &ElementField, exact: &ElementField) -> (f64, f64) {
        assert_eq!(solution.len(), exact.len(), "field size mismatch");
        let mass = self.operator.geometry().mass();
        let multiplicity = self.gather_scatter.multiplicity();
        assert_eq!(solution.len(), mass.len(), "mass size mismatch");
        let mut max_error = 0.0_f64;
        let mut l2_sq = 0.0_f64;
        for (((&u, &e), &b), &m) in solution
            .as_slice()
            .iter()
            .zip(exact.as_slice())
            .zip(mass.as_slice())
            .zip(multiplicity)
        {
            let diff = u - e;
            max_error = max_error.max(diff.abs());
            // Weight by B / multiplicity so each unique grid point is
            // integrated once.
            l2_sq += diff * diff * b / m;
        }
        (max_error, l2_sq.sqrt())
    }

    /// Solve with the standard manufactured solution
    /// `u*(x, y, z) = Π_i sin(π x_i / L_i)` (which vanishes on the boundary),
    /// returning error metrics.
    #[must_use]
    pub fn solve_manufactured(&self, options: CgOptions, precond: PrecondSpec) -> PoissonSolution {
        self.solve_manufactured_through(&self.operator, options, precond)
    }

    /// Solve the manufactured problem, routing every operator application of
    /// the CG iteration through `operator` — any [`LocalOperator`], e.g. an
    /// execution backend from `sem-accel` — while right-hand-side assembly
    /// and preconditioning stay on the host discretisation.
    ///
    /// Assembles the same bits as [`PoissonProblem::manufactured_rhs`], so a
    /// batched driver replicating that right-hand side reproduces this solve
    /// exactly.
    ///
    /// # Panics
    /// Panics if `operator` does not match the problem's degree and element
    /// count.
    #[must_use]
    pub fn solve_manufactured_through<Op: LocalOperator + ?Sized>(
        &self,
        operator: &Op,
        options: CgOptions,
        precond: PrecondSpec,
    ) -> PoissonSolution {
        let rhs = self.manufactured_rhs();
        let cg = self.solve_rhs_through(operator, options, precond, &rhs);
        let exact_field = self.manufactured_exact();
        let (max_error, l2_error) = self.error_against(&cg.solution, &exact_field);
        PoissonSolution {
            solution: cg.solution.clone(),
            max_error,
            l2_error,
            cg,
        }
    }

    /// Solve an already-assembled (continuous, masked) right-hand side
    /// through `operator`, returning the raw CG outcome — no exact solution
    /// is associated, so there are no error metrics.  This is the
    /// single-RHS building block of the batched `solve_many` path in
    /// `sem-accel`.
    ///
    /// # Panics
    /// Panics if `operator` or `rhs` do not match the problem's degree and
    /// element count.
    #[must_use]
    pub fn solve_rhs_through<Op: LocalOperator + ?Sized>(
        &self,
        operator: &Op,
        options: CgOptions,
        precond: PrecondSpec,
        rhs: &ElementField,
    ) -> CgOutcome {
        assert_eq!(operator.degree(), self.mesh.degree(), "degree mismatch");
        assert_eq!(
            operator.num_elements(),
            self.mesh.num_elements(),
            "element count mismatch"
        );
        let solver = CgSolver::new(operator, &self.gather_scatter, &self.mask, options);
        let pc = self.preconditioner(precond);
        solver.solve(rhs, &pc)
    }

    /// Build the preconditioner a spec names, against the host
    /// discretisation.  Building is setup cost (the FDM eigendecompositions
    /// and coarse factorisation in particular), so batched drivers construct
    /// it once per session, not per solve.
    #[must_use]
    pub fn preconditioner(&self, spec: PrecondSpec) -> AnyPreconditioner {
        match spec {
            PrecondSpec::Identity => AnyPreconditioner::Identity(IdentityPreconditioner),
            PrecondSpec::Jacobi => AnyPreconditioner::Jacobi(self.jacobi_preconditioner()),
            PrecondSpec::Fdm => AnyPreconditioner::Fdm(Box::new(self.fdm_preconditioner())),
        }
    }

    /// The Jacobi preconditioner of this discretisation (the diagonal comes
    /// from the host operator; building it is setup cost, so batched drivers
    /// construct it once per batch).
    #[must_use]
    pub fn jacobi_preconditioner(&self) -> JacobiPreconditioner {
        JacobiPreconditioner::new(&self.operator, &self.gather_scatter, &self.mask)
    }

    /// The two-level fast-diagonalization preconditioner of this
    /// discretisation (eigendecompositions and the Galerkin coarse solve are
    /// computed here, once).
    #[must_use]
    pub fn fdm_preconditioner(&self) -> FdmPreconditioner {
        FdmPreconditioner::new(&self.mesh, &self.operator, &self.gather_scatter, &self.mask)
    }

    /// Solve for an arbitrary forcing with a known exact solution and report
    /// the errors.
    #[must_use]
    pub fn solve_with_exact<F, G>(
        &self,
        options: CgOptions,
        precond: PrecondSpec,
        forcing: F,
        exact: G,
    ) -> PoissonSolution
    where
        F: Fn(f64, f64, f64) -> f64,
        G: Fn(f64, f64, f64) -> f64,
    {
        self.solve_with_exact_through(&self.operator, options, precond, forcing, exact)
    }

    /// Like [`PoissonProblem::solve_with_exact`], but iterating through an
    /// arbitrary [`LocalOperator`] (an execution backend) instead of the
    /// problem's own host operator.
    ///
    /// # Panics
    /// Panics if `operator` does not match the problem's degree and element
    /// count.
    #[must_use]
    pub fn solve_with_exact_through<Op, F, G>(
        &self,
        operator: &Op,
        options: CgOptions,
        precond: PrecondSpec,
        forcing: F,
        exact: G,
    ) -> PoissonSolution
    where
        Op: LocalOperator + ?Sized,
        F: Fn(f64, f64, f64) -> f64,
        G: Fn(f64, f64, f64) -> f64,
    {
        assert_eq!(operator.degree(), self.mesh.degree(), "degree mismatch");
        assert_eq!(
            operator.num_elements(),
            self.mesh.num_elements(),
            "element count mismatch"
        );
        let rhs = self.right_hand_side(forcing);
        let solver = CgSolver::new(operator, &self.gather_scatter, &self.mask, options);
        // The preconditioner comes from the host discretisation; it does not
        // change what is being solved.
        let pc = self.preconditioner(precond);
        let cg = solver.solve(&rhs, &pc);

        let mut exact_field = self.mesh.evaluate(exact);
        self.mask.apply(&mut exact_field);
        // One fused sweep instead of diff/weighted intermediate clones.
        let (max_error, l2_error) = self.error_against(&cg.solution, &exact_field);

        PoissonSolution {
            solution: cg.solution.clone(),
            max_error,
            l2_error,
            cg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(degree: usize, elems: usize, precond: PrecondSpec) -> PoissonSolution {
        let mesh = BoxMesh::unit_cube(degree, elems);
        let problem = PoissonProblem::new(mesh, AxImplementation::Specialized);
        problem.solve_manufactured(
            CgOptions {
                max_iterations: 3000,
                tolerance: 1e-12,
                record_history: false,
            },
            precond,
        )
    }

    #[test]
    fn converges_to_the_manufactured_solution() {
        let sol = solve(7, 2, PrecondSpec::Jacobi);
        assert!(sol.cg.converged);
        assert!(sol.max_error < 1e-6, "max error {}", sol.max_error);
        assert!(sol.l2_error < 1e-6, "l2 error {}", sol.l2_error);
    }

    #[test]
    fn error_decays_spectrally_with_degree() {
        let mut previous = f64::INFINITY;
        for degree in [2, 4, 6, 8] {
            let sol = solve(degree, 2, PrecondSpec::Jacobi);
            assert!(
                sol.max_error < previous,
                "degree {degree}: error {} did not decrease (prev {previous})",
                sol.max_error
            );
            previous = sol.max_error;
        }
        assert!(previous < 1e-7, "degree 8 should be near machine accurate");
    }

    #[test]
    fn rhs_is_masked_and_continuous() {
        let mesh = BoxMesh::unit_cube(4, 2);
        let problem = PoissonProblem::new(mesh, AxImplementation::Specialized);
        let rhs = problem.right_hand_side(|x, y, z| x + y + z);
        assert!(problem.gather_scatter().is_continuous(&rhs, 1e-12));
        let mut masked = rhs.clone();
        problem.mask().apply(&mut masked);
        let mut diff = masked;
        diff.axpy(-1.0, &rhs);
        assert!(diff.max_abs() == 0.0);
    }
}
