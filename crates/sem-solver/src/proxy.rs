//! The Nekbone-style proxy benchmark driver.
//!
//! Nekbone times a fixed number of CG iterations of the Poisson operator on a
//! box of elements and reports FLOP/s — that is the "CPU version" the paper
//! compares its accelerator against.  [`ProxyConfig::run`] reproduces the
//! same structure natively in Rust so the host CPU of this reproduction can
//! be placed on the same axes.

use crate::cg::{CgOptions, CgSolver};
use crate::poisson::PoissonProblem;
use crate::precond::PrecondSpec;
use sem_kernel::AxImplementation;
use sem_mesh::BoxMesh;
use sem_obs::WallTimer;
use serde::{Deserialize, Serialize};

/// Configuration of a proxy run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProxyConfig {
    /// Polynomial degree `N`.
    pub degree: usize,
    /// Elements per direction `[ex, ey, ez]`.
    pub elements: [usize; 3],
    /// Number of CG iterations to time (Nekbone default is 100).
    pub cg_iterations: usize,
    /// Kernel implementation to use.
    pub implementation: AxImplementation,
    /// Which preconditioner to run.
    pub precond: PrecondSpec,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        Self {
            degree: 7,
            elements: [8, 8, 8],
            cg_iterations: 100,
            implementation: AxImplementation::Parallel,
            precond: PrecondSpec::Jacobi,
        }
    }
}

/// Measured result of a proxy run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProxyResult {
    /// The configuration that was run.
    pub config: ProxyConfig,
    /// Total number of elements.
    pub num_elements: usize,
    /// Total local degrees of freedom.
    pub num_dofs: u64,
    /// Wall-clock seconds spent in the timed CG loop.
    pub seconds: f64,
    /// CG iterations actually performed.
    pub iterations: usize,
    /// Floating-point operations spent in operator applications.
    pub operator_flops: u64,
    /// Achieved operator GFLOP/s (operator FLOPs / wall time).
    pub gflops: f64,
    /// Final relative residual.
    pub relative_residual: f64,
}

impl ProxyConfig {
    /// Total number of elements of the configured box.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.elements[0] * self.elements[1] * self.elements[2]
    }

    /// Run the proxy benchmark: set up the box problem, run the configured
    /// number of CG iterations with a zero tolerance (so the iteration count
    /// is fixed, like Nekbone), and report timings.
    #[must_use]
    pub fn run(&self) -> ProxyResult {
        let mesh = BoxMesh::new(
            self.degree,
            self.elements,
            [1.0; 3],
            sem_mesh::MeshDeformation::None,
        );
        let problem = PoissonProblem::new(mesh, self.implementation);
        let operator = problem.operator();

        let pi = std::f64::consts::PI;
        let mut rhs = problem
            .mesh()
            .evaluate(|x, y, z| 3.0 * pi * pi * (pi * x).sin() * (pi * y).sin() * (pi * z).sin());
        rhs.pointwise_mul(operator.geometry().mass());
        problem.gather_scatter().direct_stiffness_sum(&mut rhs);
        problem.mask().apply(&mut rhs);

        let options = CgOptions {
            max_iterations: self.cg_iterations,
            tolerance: 0.0, // run the full iteration budget, Nekbone-style
            record_history: false,
        };
        let solver = CgSolver::new(operator, problem.gather_scatter(), problem.mask(), options);

        // Preconditioner setup (eigendecompositions for FDM) stays outside
        // the timed loop, like Nekbone's setup phase.
        let pc = problem.preconditioner(self.precond);
        let timer = WallTimer::start();
        let outcome = solver.solve(&rhs, &pc);
        let seconds = timer.elapsed_wall_seconds();

        let gflops = if seconds > 0.0 {
            outcome.operator_flops as f64 / seconds / 1e9
        } else {
            0.0
        };

        ProxyResult {
            config: *self,
            num_elements: self.num_elements(),
            num_dofs: operator.dofs_per_application(),
            seconds,
            iterations: outcome.iterations,
            operator_flops: outcome.operator_flops,
            gflops,
            relative_residual: outcome.relative_residual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_proxy_run_completes_and_reports_sane_numbers() {
        let config = ProxyConfig {
            degree: 4,
            elements: [2, 2, 2],
            cg_iterations: 10,
            implementation: AxImplementation::Specialized,
            precond: PrecondSpec::Jacobi,
        };
        let result = config.run();
        assert_eq!(result.num_elements, 8);
        assert_eq!(result.iterations, 10);
        assert_eq!(result.num_dofs, 8 * 125);
        assert_eq!(
            result.operator_flops,
            10 * 8 * 125 * sem_kernel::flops_per_dof(4) as u64
        );
        assert!(result.seconds > 0.0);
        assert!(result.gflops > 0.0);
        // Ten iterations of Jacobi-CG on this tiny problem already reduce the
        // residual substantially.
        assert!(result.relative_residual < 0.5);
    }

    #[test]
    fn default_config_is_the_nekbone_shape() {
        let c = ProxyConfig::default();
        assert_eq!(c.degree, 7);
        assert_eq!(c.cg_iterations, 100);
        assert_eq!(c.num_elements(), 512);
    }
}
