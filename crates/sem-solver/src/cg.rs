//! Preconditioned conjugate gradients on element-local storage.
//!
//! The iteration mirrors Nekbone: fields stay in element-local (discontinuous)
//! storage, every operator application is followed by direct stiffness
//! summation and Dirichlet masking, and all inner products are weighted by the
//! inverse node multiplicity so each unique grid point is counted once.

use sem_kernel::PoissonOperator;
use sem_mesh::{DirichletMask, ElementField, GatherScatter};
use sem_obs::{recorder, Scope, SpanEvent, SpanKind, WallTimer};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A typed backend failure observed mid-solve.
///
/// This is the solver-side mirror of the device-level error an execution
/// backend raises (e.g. `fpga_sim::DeviceError`): `sem-solver` cannot name
/// accelerator types, so the adapter in `sem-accel` translates.  A faulted
/// solve aborts immediately — its outcome carries the fault and
/// `converged == false`, and the serving layer decides where to retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveFault {
    /// The device died; this and any further application would fail.
    DeviceDead {
        /// Device-lifetime operator-application count at the failure.
        at_op: u64,
    },
    /// The kernel hung on one application and the modelled watchdog fired;
    /// the device may still be usable.
    KernelHung {
        /// Device-lifetime operator-application count at the failure.
        at_op: u64,
    },
}

impl fmt::Display for SolveFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveFault::DeviceDead { at_op } => write!(f, "device dead at op {at_op}"),
            SolveFault::KernelHung { at_op } => write!(f, "kernel hung at op {at_op}"),
        }
    }
}

impl std::error::Error for SolveFault {}

/// The element-local operator a Krylov solver iterates with.
///
/// This is the execution seam of the workspace: the solver only ever sees
/// `w = A u` on element-local storage plus a little cost accounting, so the
/// same CG iteration runs unchanged against a native CPU kernel, the
/// simulated FPGA accelerator, a multi-board partition, or any future
/// backend (`sem-accel` provides adapters for all of them).
///
/// The trait is object-safe: solvers accept `&dyn LocalOperator` so backends
/// can be chosen at runtime.
pub trait LocalOperator {
    /// Polynomial degree `N`.
    fn degree(&self) -> usize;

    /// Number of elements.
    fn num_elements(&self) -> usize;

    /// Apply the element-local operator: `w = A u` (no direct stiffness
    /// summation, no masking — the solver does both afterwards).
    fn apply_local_into(&self, u: &ElementField, w: &mut ElementField);

    /// Floating-point operations of one application.
    fn flops_per_application(&self) -> u64;

    /// Seconds one application costs according to the operator's own
    /// accounting (e.g. simulated kernel time for an accelerator model).
    /// `None` means the caller should measure wall-clock time instead.
    fn seconds_per_application(&self) -> Option<f64> {
        None
    }

    /// Whether this operator claims the fused `w = QQᵀ(A u)` application
    /// (operator plus direct stiffness summation in one pass).  Accelerator
    /// backends that keep the field resident claim it so the gather–scatter
    /// does not bounce back to a separate host pass; the solver then calls
    /// [`LocalOperator::apply_dssum_into`] instead of applying and summing
    /// separately.
    fn fuses_dssum(&self) -> bool {
        false
    }

    /// Fused operator application plus direct stiffness summation:
    /// `w = QQᵀ(A u)` (still no masking).  The default composes
    /// [`LocalOperator::apply_local_into`] with the gather–scatter's CSR
    /// sweep; operators that return `true` from
    /// [`LocalOperator::fuses_dssum`] may override it with a genuinely
    /// single-pass implementation.
    fn apply_dssum_into(
        &self,
        u: &ElementField,
        gather_scatter: &GatherScatter,
        w: &mut ElementField,
    ) {
        self.apply_local_into(u, w);
        gather_scatter.direct_stiffness_sum(w);
    }

    /// Fallible operator application: like
    /// [`LocalOperator::apply_local_into`], but a backend that can fail
    /// (dead device, hung kernel) reports it instead of succeeding.  The
    /// default wraps the infallible path, so existing operators are
    /// perfect devices without any change.
    ///
    /// # Errors
    /// Returns the fault when the backend cannot complete the application.
    fn try_apply_local_into(&self, u: &ElementField, w: &mut ElementField) -> CgApplyResult {
        self.apply_local_into(u, w);
        Ok(())
    }

    /// Fallible fused operator-plus-dssum application (see
    /// [`LocalOperator::apply_dssum_into`]).
    ///
    /// # Errors
    /// Returns the fault when the backend cannot complete the application.
    fn try_apply_dssum_into(
        &self,
        u: &ElementField,
        gather_scatter: &GatherScatter,
        w: &mut ElementField,
    ) -> CgApplyResult {
        self.apply_dssum_into(u, gather_scatter, w);
        Ok(())
    }
}

/// Result of one fallible operator application.
pub type CgApplyResult = Result<(), SolveFault>;

impl LocalOperator for PoissonOperator {
    fn degree(&self) -> usize {
        self.degree()
    }

    fn num_elements(&self) -> usize {
        self.num_elements()
    }

    fn apply_local_into(&self, u: &ElementField, w: &mut ElementField) {
        self.apply_into(u, w);
    }

    fn flops_per_application(&self) -> u64 {
        self.flops_per_application()
    }
}

/// Stopping criteria and iteration limits for the CG solver.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CgOptions {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Relative residual tolerance (‖r‖ / ‖b‖).
    pub tolerance: f64,
    /// Record the residual norm of every iteration.
    pub record_history: bool,
}

impl Default for CgOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            tolerance: 1e-10,
            record_history: true,
        }
    }
}

/// Result of a CG solve.
#[derive(Debug, Clone)]
pub struct CgOutcome {
    /// The solution in element-local storage (continuous across elements).
    pub solution: ElementField,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub relative_residual: f64,
    /// Residual norm per iteration (if requested).
    pub residual_history: Vec<f64>,
    /// Whether the tolerance was reached within the iteration limit.
    pub converged: bool,
    /// Total floating-point operations spent in operator applications.
    pub operator_flops: u64,
    /// Number of operator applications performed.
    pub operator_applications: usize,
    /// Seconds attributed to operator applications, accumulated per
    /// application from the backend: wall-clock measurements for native
    /// operators, the backend's own (e.g. simulated) accounting otherwise
    /// (see [`LocalOperator::seconds_per_application`]).
    pub operator_seconds: f64,
    /// Number of preconditioner applications performed (one before the loop
    /// plus one per iteration that continues).
    pub precond_applications: usize,
    /// Seconds attributed to preconditioner applications: the
    /// preconditioner's own (e.g. on-device simulated) accounting when it
    /// has one (see [`Preconditioner::seconds_per_application`]), measured
    /// wall-clock otherwise.
    pub precond_seconds: f64,
    /// The backend fault that aborted the solve, if any.  A faulted
    /// outcome never converged and its partial iterate must not be
    /// released; the serving layer retries the request elsewhere.
    pub fault: Option<SolveFault>,
}

impl CgOutcome {
    /// Achieved operator throughput in GFLOP/s over the accumulated
    /// per-application cost (zero when nothing was applied).
    #[must_use]
    pub fn operator_gflops(&self) -> f64 {
        if self.operator_seconds > 0.0 {
            self.operator_flops as f64 / self.operator_seconds / 1e9
        } else {
            0.0
        }
    }
}

/// A preconditioner maps a residual to a search-direction correction.
pub trait Preconditioner {
    /// Apply `z = M^{-1} r` into a preallocated output (`z` is fully
    /// overwritten) — the allocation-free path the CG hot loop uses.
    fn apply_into(&self, r: &ElementField, z: &mut ElementField);

    /// Seconds one application costs according to the preconditioner's own
    /// accounting — set when an accelerator backend claims the pass
    /// on-device and prices it with its cycle model.  `None` means the
    /// solver measures wall-clock time instead.
    fn seconds_per_application(&self) -> Option<f64> {
        None
    }

    /// Apply `z = M^{-1} r`, allocating the output (convenience wrapper over
    /// [`Preconditioner::apply_into`]).
    fn apply(&self, r: &ElementField) -> ElementField {
        let mut z = ElementField::zeros(r.degree(), r.num_elements());
        self.apply_into(r, &mut z);
        z
    }
}

/// The identity preconditioner (plain CG).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply_into(&self, r: &ElementField, z: &mut ElementField) {
        z.copy_from(r);
    }

    fn seconds_per_application(&self) -> Option<f64> {
        // A copy, not work: charging a deterministic zero keeps simulated
        // backends' solve accounting free of measured noise.
        Some(0.0)
    }
}

/// Reusable work buffers for [`CgSolver::solve_with_scratch`]: the five
/// fields (`x`, `r`, `z`, `p`, `w`) a CG solve iterates on, allocated once
/// and reused across solves so a solve performs **zero heap allocations**
/// after setup.  A batched driver (`sem-accel`'s `solve_many`) shares one
/// scratch across its whole batch.
#[derive(Debug, Clone)]
pub struct CgScratch {
    /// The iterate.
    x: ElementField,
    /// The residual.
    r: ElementField,
    /// The preconditioned residual.
    z: ElementField,
    /// The search direction.
    p: ElementField,
    /// The operator application `A p`.
    w: ElementField,
}

impl CgScratch {
    /// Allocate scratch for a problem of the given degree and element count.
    #[must_use]
    pub fn new(degree: usize, num_elements: usize) -> Self {
        Self {
            x: ElementField::zeros(degree, num_elements),
            r: ElementField::zeros(degree, num_elements),
            z: ElementField::zeros(degree, num_elements),
            p: ElementField::zeros(degree, num_elements),
            w: ElementField::zeros(degree, num_elements),
        }
    }

    /// Allocate scratch matching an operator's dimensions.
    #[must_use]
    pub fn for_operator<Op: LocalOperator + ?Sized>(operator: &Op) -> Self {
        Self::new(operator.degree(), operator.num_elements())
    }

    /// Whether the scratch matches the given problem dimensions.
    #[must_use]
    pub fn matches(&self, degree: usize, num_elements: usize) -> bool {
        self.x.degree() == degree && self.x.num_elements() == num_elements
    }
}

/// Conjugate-gradient solver bound to an operator, gather–scatter and mask.
///
/// The solver is generic over any [`LocalOperator`] (defaulting to the
/// native [`PoissonOperator`] for backwards compatibility), including
/// unsized `dyn LocalOperator` trait objects, so execution backends can be
/// selected at runtime.
pub struct CgSolver<'a, Op: LocalOperator + ?Sized = PoissonOperator> {
    operator: &'a Op,
    gather_scatter: &'a GatherScatter,
    mask: &'a DirichletMask,
    inverse_multiplicity: ElementField,
    options: CgOptions,
}

impl<'a, Op: LocalOperator + ?Sized> CgSolver<'a, Op> {
    /// Create a solver.
    #[must_use]
    pub fn new(
        operator: &'a Op,
        gather_scatter: &'a GatherScatter,
        mask: &'a DirichletMask,
        options: CgOptions,
    ) -> Self {
        let inverse_multiplicity = gather_scatter.inverse_multiplicity();
        Self {
            operator,
            gather_scatter,
            mask,
            inverse_multiplicity,
            options,
        }
    }

    /// The options in use.
    #[must_use]
    pub fn options(&self) -> CgOptions {
        self.options
    }

    /// Weighted global inner product of two local fields.
    #[must_use]
    pub fn inner_product(&self, a: &ElementField, b: &ElementField) -> f64 {
        a.dot_weighted(b, &self.inverse_multiplicity)
    }

    /// One full "masked continuous operator" application:
    /// `w = mask(QQᵀ (A u))`.
    #[must_use]
    pub fn apply_operator(&self, u: &ElementField) -> ElementField {
        let mut w = ElementField::zeros(self.operator.degree(), self.operator.num_elements());
        self.operator.apply_local_into(u, &mut w);
        self.gather_scatter.direct_stiffness_sum(&mut w);
        self.mask.apply(&mut w);
        w
    }

    /// Like [`CgSolver::apply_operator`], but into a preallocated output and
    /// returning the seconds the application cost (measured wall-clock when
    /// the operator has no accounting of its own).  Operators that claim the
    /// fused `Ax`+dssum pass (see [`LocalOperator::fuses_dssum`]) get one
    /// call instead of an apply followed by a host gather–scatter.
    ///
    /// `accumulated_seconds` is the solve's running operator+preconditioner
    /// cost so far: under the modelled observability clock the recorded
    /// span is stamped with it, so per-apply spans tile the solve
    /// deterministically.
    fn apply_operator_into(
        &self,
        u: &ElementField,
        w: &mut ElementField,
        accumulated_seconds: f64,
    ) -> Result<f64, SolveFault> {
        let obs = recorder();
        match self.operator.seconds_per_application() {
            Some(seconds) => {
                let span_start = obs.stamp(accumulated_seconds);
                if self.operator.fuses_dssum() {
                    self.operator
                        .try_apply_dssum_into(u, self.gather_scatter, w)?;
                } else {
                    self.operator.try_apply_local_into(u, w)?;
                    self.gather_scatter.direct_stiffness_sum(w);
                }
                self.mask.apply(w);
                let span_end = obs.stamp(accumulated_seconds + seconds);
                obs.record(SpanEvent::new(
                    SpanKind::OperatorApply,
                    Scope::Deterministic,
                    span_start,
                    span_end,
                ));
                Ok(seconds)
            }
            None if self.operator.fuses_dssum() => {
                // The fused pass is indivisible, so its wall clock includes
                // the summation.
                let span_start = obs.stamp(accumulated_seconds);
                let timer = WallTimer::start();
                self.operator
                    .try_apply_dssum_into(u, self.gather_scatter, w)?;
                let seconds = timer.elapsed_wall_seconds();
                self.mask.apply(w);
                let span_end = obs.stamp(accumulated_seconds + seconds);
                obs.record(SpanEvent::new(
                    SpanKind::OperatorApply,
                    Scope::ScheduleDependent,
                    span_start,
                    span_end,
                ));
                Ok(seconds)
            }
            None => {
                // Time only the local operator, not dssum/mask, so the
                // accumulated seconds divide the operator FLOPs cleanly.
                let span_start = obs.stamp(accumulated_seconds);
                let timer = WallTimer::start();
                self.operator.try_apply_local_into(u, w)?;
                let seconds = timer.elapsed_wall_seconds();
                self.gather_scatter.direct_stiffness_sum(w);
                self.mask.apply(w);
                let span_end = obs.stamp(accumulated_seconds + seconds);
                obs.record(SpanEvent::new(
                    SpanKind::OperatorApply,
                    Scope::ScheduleDependent,
                    span_start,
                    span_end,
                ));
                Ok(seconds)
            }
        }
    }

    /// Solve `A x = b` with an optional preconditioner, allocating a private
    /// [`CgScratch`] (see [`CgSolver::solve_with_scratch`] for the reusable,
    /// allocation-free entry point).
    ///
    /// `rhs` must already be continuous (direct-stiffness-summed) and masked;
    /// [`crate::poisson::PoissonProblem`] produces it in that form.
    #[must_use]
    pub fn solve<P: Preconditioner>(&self, rhs: &ElementField, precond: &P) -> CgOutcome {
        let mut scratch = CgScratch::new(self.operator.degree(), self.operator.num_elements());
        self.solve_with_scratch(rhs, precond, &mut scratch)
    }

    /// Solve `A x = b` reusing caller-owned work buffers.
    ///
    /// After the scratch is allocated (once, reusable across any number of
    /// solves) the iteration performs **no heap allocation**: the residual,
    /// search direction, preconditioned residual and operator output all
    /// live in `scratch`, the preconditioner writes through
    /// [`Preconditioner::apply_into`], and the gather–scatter runs its CSR
    /// sweep in place.  The only allocations per solve are the returned
    /// solution (cloned out of the scratch on exit) and, when
    /// `record_history` is set, the residual history.
    ///
    /// # Panics
    /// Panics if `rhs` or `scratch` do not match the operator's degree and
    /// element count.
    #[must_use]
    pub fn solve_with_scratch<P: Preconditioner>(
        &self,
        rhs: &ElementField,
        precond: &P,
        scratch: &mut CgScratch,
    ) -> CgOutcome {
        let degree = self.operator.degree();
        let nelems = self.operator.num_elements();
        assert_eq!(rhs.degree(), degree, "rhs degree mismatch");
        assert_eq!(rhs.num_elements(), nelems, "rhs element count mismatch");
        assert!(
            scratch.matches(degree, nelems),
            "scratch dimensions mismatch"
        );

        scratch.x.fill_zero();
        scratch.r.copy_from(rhs);
        self.mask.apply(&mut scratch.r);

        let b_norm = self.inner_product(&scratch.r, &scratch.r).sqrt();
        let mut history = Vec::new();
        if b_norm == 0.0 {
            return CgOutcome {
                solution: scratch.x.clone(),
                iterations: 0,
                relative_residual: 0.0,
                residual_history: history,
                converged: true,
                operator_flops: 0,
                operator_applications: 0,
                operator_seconds: 0.0,
                precond_applications: 0,
                precond_seconds: 0.0,
                fault: None,
            };
        }

        let obs = recorder();
        // One CG iteration is reproducible only when both its costed passes
        // carry their own (modelled) accounting; a measured pass makes the
        // stamps host-dependent.
        let iteration_scope = if self.operator.seconds_per_application().is_some()
            && precond.seconds_per_application().is_some()
        {
            Scope::Deterministic
        } else {
            Scope::ScheduleDependent
        };

        let mut precond_applications = 0_usize;
        let mut precond_seconds = 0.0_f64;
        precond_seconds += Self::apply_precond_into(precond, &scratch.r, &mut scratch.z, 0.0);
        precond_applications += 1;
        self.mask.apply(&mut scratch.z);
        scratch.p.copy_from(&scratch.z);
        let mut rz = self.inner_product(&scratch.r, &scratch.z);
        let mut operator_flops = 0_u64;
        let mut operator_applications = 0_usize;
        let mut operator_seconds = 0.0_f64;
        let mut converged = false;
        let mut iterations = 0;
        let mut rel_res = 1.0;
        let mut fault = None;

        // lint: alloc-free (the CG iteration loop reuses preallocated scratch; one
        // allocation per iteration would dominate small solves)
        for iter in 0..self.options.max_iterations {
            iterations = iter + 1;
            let span_start = obs.stamp(operator_seconds + precond_seconds);
            match self.apply_operator_into(
                &scratch.p,
                &mut scratch.w,
                operator_seconds + precond_seconds,
            ) {
                Ok(seconds) => operator_seconds += seconds,
                Err(observed) => {
                    // The backend failed mid-iteration: the application
                    // never completed, so it is not counted, and the
                    // partial iterate is poisoned — abort and report.
                    iterations = iter;
                    fault = Some(observed);
                    break;
                }
            }
            operator_flops += self.operator.flops_per_application();
            operator_applications += 1;
            let pw = self.inner_product(&scratch.p, &scratch.w);
            // A breakdown (pw <= 0) can only occur through rounding on a
            // semi-definite system; bail out with what we have.
            if pw <= 0.0 {
                break;
            }
            let alpha = rz / pw;
            scratch.x.axpy(alpha, &scratch.p);
            scratch.r.axpy(-alpha, &scratch.w);

            let r_norm = self.inner_product(&scratch.r, &scratch.r).sqrt();
            rel_res = r_norm / b_norm;
            if self.options.record_history {
                history.push(rel_res);
            }
            if rel_res < self.options.tolerance {
                converged = true;
                let span_end = obs.stamp(operator_seconds + precond_seconds);
                obs.record(
                    SpanEvent::new(SpanKind::CgIteration, iteration_scope, span_start, span_end)
                        .with_index(iter as u64),
                );
                break;
            }

            precond_seconds += Self::apply_precond_into(
                precond,
                &scratch.r,
                &mut scratch.z,
                operator_seconds + precond_seconds,
            );
            precond_applications += 1;
            self.mask.apply(&mut scratch.z);
            let rz_new = self.inner_product(&scratch.r, &scratch.z);
            let beta = rz_new / rz;
            rz = rz_new;
            // p = z + beta p
            scratch.p.scale_add(beta, &scratch.z);
            let span_end = obs.stamp(operator_seconds + precond_seconds);
            obs.record(
                SpanEvent::new(SpanKind::CgIteration, iteration_scope, span_start, span_end)
                    .with_index(iter as u64),
            );
        }

        obs.counter_add("sem_solver_cg_iterations_total", &[], iterations as u64);
        obs.counter_add(
            "sem_solver_operator_applications_total",
            &[],
            operator_applications as u64,
        );
        obs.observe("sem_solver_operator_seconds", &[], operator_seconds);
        obs.observe("sem_solver_precond_seconds", &[], precond_seconds);

        CgOutcome {
            solution: scratch.x.clone(),
            iterations,
            relative_residual: rel_res,
            residual_history: history,
            converged,
            operator_flops,
            operator_applications,
            operator_seconds,
            precond_applications,
            precond_seconds,
            fault,
        }
    }

    /// One preconditioner application with its cost: the preconditioner's
    /// own accounting when it has one (on-device model), measured wall-clock
    /// otherwise.  `accumulated_seconds` stamps the recorded span exactly
    /// like [`CgSolver::apply_operator_into`].
    fn apply_precond_into<P: Preconditioner + ?Sized>(
        precond: &P,
        r: &ElementField,
        z: &mut ElementField,
        accumulated_seconds: f64,
    ) -> f64 {
        let obs = recorder();
        match precond.seconds_per_application() {
            Some(seconds) => {
                let span_start = obs.stamp(accumulated_seconds);
                precond.apply_into(r, z);
                let span_end = obs.stamp(accumulated_seconds + seconds);
                obs.record(SpanEvent::new(
                    SpanKind::PrecondApply,
                    Scope::Deterministic,
                    span_start,
                    span_end,
                ));
                seconds
            }
            None => {
                let span_start = obs.stamp(accumulated_seconds);
                let timer = WallTimer::start();
                precond.apply_into(r, z);
                let seconds = timer.elapsed_wall_seconds();
                let span_end = obs.stamp(accumulated_seconds + seconds);
                obs.record(SpanEvent::new(
                    SpanKind::PrecondApply,
                    Scope::ScheduleDependent,
                    span_start,
                    span_end,
                ));
                seconds
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_kernel::AxImplementation;
    use sem_mesh::BoxMesh;

    fn make_problem(
        degree: usize,
        elems: usize,
    ) -> (BoxMesh, PoissonOperator, GatherScatter, DirichletMask) {
        let mesh = BoxMesh::unit_cube(degree, elems);
        let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        let gs = GatherScatter::from_mesh(&mesh);
        let mask = DirichletMask::from_mesh(&mesh);
        (mesh, op, gs, mask)
    }

    #[test]
    fn zero_rhs_returns_zero_solution_immediately() {
        let (_, op, gs, mask) = make_problem(3, 2);
        let solver = CgSolver::new(&op, &gs, &mask, CgOptions::default());
        let rhs = ElementField::zeros(3, 8);
        let out = solver.solve(&rhs, &IdentityPreconditioner);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert!(out.solution.max_abs() == 0.0);
    }

    #[test]
    fn solves_a_manufactured_system() {
        // Build b = A x_exact for a random-ish continuous masked x_exact and
        // recover it with CG.
        let (mesh, op, gs, mask) = make_problem(4, 2);
        let mut x_exact = mesh.evaluate(|x, y, z| (x * (1.0 - x)) * (y * (1.0 - y)) * z.sin());
        mask.apply(&mut x_exact);
        let solver = CgSolver::new(
            &op,
            &gs,
            &mask,
            CgOptions {
                max_iterations: 500,
                tolerance: 1e-12,
                record_history: true,
            },
        );
        let rhs = solver.apply_operator(&x_exact);
        let out = solver.solve(&rhs, &IdentityPreconditioner);
        assert!(out.converged, "residual {}", out.relative_residual);
        let mut diff = out.solution.clone();
        diff.axpy(-1.0, &x_exact);
        assert!(
            diff.max_abs() < 1e-7 * (1.0 + x_exact.max_abs()),
            "max error {}",
            diff.max_abs()
        );
        assert!(out.operator_flops > 0);
    }

    #[test]
    fn residual_history_is_monotonically_bounded() {
        let (mesh, op, gs, mask) = make_problem(3, 2);
        let mut x_exact = mesh.evaluate(|x, y, z| (3.0 * x).sin() * y * (1.0 - z));
        mask.apply(&mut x_exact);
        let solver = CgSolver::new(&op, &gs, &mask, CgOptions::default());
        let rhs = solver.apply_operator(&x_exact);
        let out = solver.solve(&rhs, &IdentityPreconditioner);
        // CG residuals are not strictly monotone, but the final residual must
        // be far below the initial one and the history non-empty.
        assert!(!out.residual_history.is_empty());
        assert!(out.relative_residual < 1e-8);
    }

    #[test]
    fn shared_scratch_solves_match_fresh_scratch_solves_bitwise() {
        let (mesh, op, gs, mask) = make_problem(4, 2);
        let solver = CgSolver::new(
            &op,
            &gs,
            &mask,
            CgOptions {
                max_iterations: 300,
                tolerance: 1e-11,
                record_history: true,
            },
        );
        let mut shared = CgScratch::for_operator(&op);
        for trial in 0..3 {
            let mut x_exact = mesh.evaluate(|x, y, z| {
                (x * (1.0 - x)) * (y * (1.0 - y)) * ((1.0 + trial as f64) * z).sin()
            });
            mask.apply(&mut x_exact);
            let rhs = solver.apply_operator(&x_exact);
            // One scratch reused across the whole batch of solves...
            let reused = solver.solve_with_scratch(&rhs, &IdentityPreconditioner, &mut shared);
            // ...must match a solve with private buffers bitwise.
            let fresh = solver.solve(&rhs, &IdentityPreconditioner);
            assert_eq!(reused.solution.as_slice(), fresh.solution.as_slice());
            assert_eq!(reused.iterations, fresh.iterations);
            assert_eq!(reused.residual_history, fresh.residual_history);
            assert!(reused.converged);
        }
    }

    #[test]
    #[should_panic(expected = "scratch dimensions mismatch")]
    fn mismatched_scratch_is_rejected() {
        let (_, op, gs, mask) = make_problem(3, 2);
        let solver = CgSolver::new(&op, &gs, &mask, CgOptions::default());
        let rhs = ElementField::zeros(3, 8);
        let mut wrong = CgScratch::new(4, 8);
        let _ = solver.solve_with_scratch(&rhs, &IdentityPreconditioner, &mut wrong);
    }

    /// A host operator that dies after a fixed number of applications —
    /// the solver-side model of a device death mid-solve.
    struct DyingOperator<'a> {
        inner: &'a PoissonOperator,
        ok_ops: std::cell::Cell<usize>,
    }

    impl LocalOperator for DyingOperator<'_> {
        fn degree(&self) -> usize {
            self.inner.degree()
        }

        fn num_elements(&self) -> usize {
            self.inner.num_elements()
        }

        fn apply_local_into(&self, u: &ElementField, w: &mut ElementField) {
            self.inner.apply_into(u, w);
        }

        fn flops_per_application(&self) -> u64 {
            self.inner.flops_per_application()
        }

        fn try_apply_local_into(&self, u: &ElementField, w: &mut ElementField) -> CgApplyResult {
            let remaining = self.ok_ops.get();
            if remaining == 0 {
                return Err(SolveFault::DeviceDead {
                    at_op: self.ok_ops.get() as u64,
                });
            }
            self.ok_ops.set(remaining - 1);
            self.apply_local_into(u, w);
            Ok(())
        }
    }

    #[test]
    fn a_device_fault_aborts_the_solve_and_is_reported() {
        let (mesh, op, gs, mask) = make_problem(4, 2);
        let mut x_exact = mesh.evaluate(|x, y, z| (x * (1.0 - x)) * y * z.sin());
        mask.apply(&mut x_exact);
        let healthy_solver = CgSolver::new(&op, &gs, &mask, CgOptions::default());
        let rhs = healthy_solver.apply_operator(&x_exact);
        let healthy = healthy_solver.solve(&rhs, &IdentityPreconditioner);
        assert!(healthy.converged && healthy.iterations > 3);

        let dying = DyingOperator {
            inner: &op,
            ok_ops: std::cell::Cell::new(3),
        };
        let solver = CgSolver::new(
            &dying as &dyn LocalOperator,
            &gs,
            &mask,
            CgOptions::default(),
        );
        let out = solver.solve(&rhs, &IdentityPreconditioner);
        assert!(!out.converged);
        assert_eq!(out.fault, Some(SolveFault::DeviceDead { at_op: 0 }));
        // Exactly the successful applications are counted.
        assert_eq!(out.operator_applications, 3);
        assert_eq!(out.iterations, 3);
        // The fault-free solve stays fault-free.
        assert_eq!(healthy.fault, None);
    }

    #[test]
    fn solution_is_continuous_and_masked() {
        let (mesh, op, gs, mask) = make_problem(3, 3);
        let mut x_exact = mesh.evaluate(|x, y, z| x * y * z * (1.0 - x));
        mask.apply(&mut x_exact);
        let solver = CgSolver::new(&op, &gs, &mask, CgOptions::default());
        let rhs = solver.apply_operator(&x_exact);
        let out = solver.solve(&rhs, &IdentityPreconditioner);
        assert!(gs.is_continuous(&out.solution, 1e-8));
        let mut masked = out.solution.clone();
        mask.apply(&mut masked);
        let mut diff = masked;
        diff.axpy(-1.0, &out.solution);
        assert!(diff.max_abs() < 1e-14, "boundary values must stay zero");
    }
}
