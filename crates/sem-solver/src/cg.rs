//! Preconditioned conjugate gradients on element-local storage.
//!
//! The iteration mirrors Nekbone: fields stay in element-local (discontinuous)
//! storage, every operator application is followed by direct stiffness
//! summation and Dirichlet masking, and all inner products are weighted by the
//! inverse node multiplicity so each unique grid point is counted once.
//!
//! Outside the operator application every iteration is memory-bound, so
//! the updates after the step length run as one fused sweep: `x += αp`,
//! `r −= αw` and `‖r‖²` together, plus `z = d ⊙ r` and `r·z` when the
//! preconditioner is a pointwise scale (Jacobi; see
//! [`Preconditioner::pointwise_inverse`]).  Every product keeps its
//! association and every sum its left-to-right order from `-0.0`, so the
//! iterates are bitwise those of the unfused call sequence
//! (`axpy`, `dot_weighted`, `apply_into`, mask).

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
    /// wall-clock otherwise.  A measured pointwise preconditioner runs
    /// inside the fused update sweep after the first application, so each
    /// later application is charged that whole sweep's wall time (the
    /// `x`/`r` updates and both reductions included).
    pub precond_seconds: f64,
    /// The backend fault that aborted the solve, if any.  A faulted
    /// outcome never converged and its partial iterate must not be
    /// released; the serving layer retries the request elsewhere.
    pub fault: Option<SolveFault>,
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

    /// The finite inverse `d` of a pointwise (diagonal) preconditioner:
    /// [`Preconditioner::apply_into`] must compute exactly `z_i = r_i * d_i`.
    /// The CG loop then forms `z` and `r·z` inside its fused update sweep
    /// instead of calling `apply_into`, masking and reducing separately.
    /// `None` (the default) keeps the separate passes.
    fn pointwise_inverse(&self) -> Option<&ElementField> {
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
    /// Each iteration streams the fields once for `p·Ap`, once for the fused
    /// update sweep (`x`, `r`, `‖r‖²`, and for a pointwise preconditioner
    /// `z` and `r·z` — see [`Preconditioner::pointwise_inverse`]) and once
    /// for the new search direction; any other preconditioner is applied,
    /// masked and reduced after the sweep.  When the sweep converges, the
    /// `z` it formed is discarded and not counted as an application, so
    /// `precond_applications`, modelled `precond_seconds` and the
    /// `PrecondApply` spans are those of the unfused sequence.
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

        // `r` starts masked and every `w` is masked, so `r` stays ±0 on the
        // constrained nodes, and so does `z = r ⊙ d` for any finite `d`: the
        // mask after a pointwise preconditioner changes no bit, and the
        // fused sweep leaves it out.
        let pointwise = precond.pointwise_inverse();
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
            let sweep_start = obs.stamp(operator_seconds + precond_seconds);
            let timer = WallTimer::start();
            let (rr, fused_rz) = update_sweep(
                alpha,
                &scratch.p,
                &scratch.w,
                &self.inverse_multiplicity,
                &mut scratch.x,
                &mut scratch.r,
                pointwise.map(|inverse| (inverse, &mut scratch.z)),
            );
            let sweep_seconds = timer.elapsed_wall_seconds();

            let r_norm = rr.sqrt();
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

            let rz_new = if pointwise.is_some() {
                precond_seconds += Self::charge_precond(
                    precond,
                    sweep_start,
                    sweep_seconds,
                    operator_seconds + precond_seconds,
                );
                fused_rz
            } else {
                precond_seconds += Self::apply_precond_into(
                    precond,
                    &scratch.r,
                    &mut scratch.z,
                    operator_seconds + precond_seconds,
                );
                self.mask.apply(&mut scratch.z);
                self.inner_product(&scratch.r, &scratch.z)
            };
            precond_applications += 1;
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
        let span_start = recorder().stamp(accumulated_seconds);
        let timer = WallTimer::start();
        precond.apply_into(r, z);
        Self::charge_precond(
            precond,
            span_start,
            timer.elapsed_wall_seconds(),
            accumulated_seconds,
        )
    }

    /// Charge one preconditioner application that started at `span_start`
    /// and took `measured` wall seconds: record its `PrecondApply` span and
    /// return its cost — the preconditioner's own accounting when it has
    /// one, `measured` otherwise.
    fn charge_precond<P: Preconditioner + ?Sized>(
        precond: &P,
        span_start: f64,
        measured: f64,
        accumulated_seconds: f64,
    ) -> f64 {
        let (seconds, scope) = match precond.seconds_per_application() {
            Some(seconds) => (seconds, Scope::Deterministic),
            None => (measured, Scope::ScheduleDependent),
        };
        let obs = recorder();
        let span_end = obs.stamp(accumulated_seconds + seconds);
        obs.record(SpanEvent::new(
            SpanKind::PrecondApply,
            scope,
            span_start,
            span_end,
        ));
        seconds
    }
}

/// The fused CG update sweep after the step length `alpha`: `x += αp`,
/// `r −= αw` and `‖r‖²_W`, plus — given a pointwise inverse `d` and the
/// output `z` — `z = r ⊙ d` and `r·z_W`.  Returns `(‖r‖²_W, r·z_W)`, the
/// second `-0.0` without a pointwise inverse.
///
/// Bitwise the unfused sequence `x.axpy(α, p)`, `r.axpy(−α, w)`,
/// `r.dot_weighted(r, W)`, `apply_into`, `r.dot_weighted(z, W)`: each
/// product keeps its association (`(a * b) * w`), each sum folds left from
/// `-0.0` as `Iterator::sum` does, and nothing is fused into an FMA.
// lint: alloc-free (runs once per CG iteration over caller scratch)
fn update_sweep(
    alpha: f64,
    p: &ElementField,
    w: &ElementField,
    weight: &ElementField,
    x: &mut ElementField,
    r: &mut ElementField,
    pointwise: Option<(&ElementField, &mut ElementField)>,
) -> (f64, f64) {
    let n = x.len();
    assert!(
        r.len() == n && p.len() == n && w.len() == n && weight.len() == n,
        "field size mismatch"
    );
    let neg_alpha = -alpha;
    let streams = x
        .as_mut_slice()
        .iter_mut()
        .zip(r.as_mut_slice())
        .zip(p.as_slice().iter().zip(w.as_slice()).zip(weight.as_slice()));
    let mut rr = -0.0;
    let mut rz = -0.0;
    match pointwise {
        None => {
            for ((x, r), ((&p, &w), &weight)) in streams {
                *x += alpha * p;
                *r += neg_alpha * w;
                rr += *r * *r * weight;
            }
        }
        Some((inverse, z)) => {
            assert!(
                inverse.len() == n && z.len() == n,
                "pointwise inverse size mismatch"
            );
            let pointwise = z.as_mut_slice().iter_mut().zip(inverse.as_slice());
            for (((x, r), ((&p, &w), &weight)), (z, &d)) in streams.zip(pointwise) {
                *x += alpha * p;
                *r += neg_alpha * w;
                rr += *r * *r * weight;
                *z = *r * d;
                rz += *r * *z * weight;
            }
        }
    }
    (rr, rz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::AnyPreconditioner;
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

    /// What the bit-for-bit comparison reads off a solve.
    #[derive(Debug, PartialEq)]
    struct Trace {
        solution_bits: Vec<u64>,
        iterations: usize,
        residual_history: Vec<f64>,
        precond_applications: usize,
        precond_seconds: Option<f64>,
    }

    impl Trace {
        fn of(outcome: &CgOutcome, modeled: bool) -> Self {
            Self {
                solution_bits: outcome
                    .solution
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
                iterations: outcome.iterations,
                residual_history: outcome.residual_history.clone(),
                precond_applications: outcome.precond_applications,
                precond_seconds: modeled.then_some(outcome.precond_seconds),
            }
        }
    }

    /// The unfused CG call sequence through public calls only: one
    /// `axpy`, `dot_weighted`, `apply_into` and mask per step.
    fn unfused_cg<P: Preconditioner>(
        solver: &CgSolver<'_>,
        mask: &DirichletMask,
        rhs: &ElementField,
        precond: &P,
    ) -> Trace {
        let options = solver.options();
        let mut x = ElementField::zeros(rhs.degree(), rhs.num_elements());
        let mut r = rhs.clone();
        mask.apply(&mut r);
        let b_norm = solver.inner_product(&r, &r).sqrt();
        let mut z = precond.apply(&r);
        let mut precond_applications = 1;
        let mut precond_seconds = 0.0;
        precond_seconds += precond.seconds_per_application().unwrap_or(0.0);
        mask.apply(&mut z);
        let mut p = z.clone();
        let mut rz = solver.inner_product(&r, &z);
        let mut residual_history = Vec::new();
        let mut iterations = 0;
        for iter in 0..options.max_iterations {
            iterations = iter + 1;
            let w = solver.apply_operator(&p);
            let pw = solver.inner_product(&p, &w);
            if pw <= 0.0 {
                break;
            }
            let alpha = rz / pw;
            x.axpy(alpha, &p);
            r.axpy(-alpha, &w);
            let rel_res = solver.inner_product(&r, &r).sqrt() / b_norm;
            residual_history.push(rel_res);
            if rel_res < options.tolerance {
                break;
            }
            precond.apply_into(&r, &mut z);
            precond_applications += 1;
            precond_seconds += precond.seconds_per_application().unwrap_or(0.0);
            mask.apply(&mut z);
            let rz_new = solver.inner_product(&r, &z);
            let beta = rz_new / rz;
            rz = rz_new;
            p.scale_add(beta, &z);
        }
        Trace {
            solution_bits: x.as_slice().iter().map(|v| v.to_bits()).collect(),
            iterations,
            residual_history,
            precond_applications,
            precond_seconds: precond.seconds_per_application().map(|_| precond_seconds),
        }
    }

    #[test]
    fn fused_loop_matches_the_unfused_call_sequence_bitwise() {
        use crate::fdm::FdmPreconditioner;
        use crate::jacobi::JacobiPreconditioner;
        use sem_mesh::MeshDeformation;

        let deformed = BoxMesh::new(
            3,
            [2, 3, 2],
            [1.0, 1.2, 0.9],
            MeshDeformation::Sinusoidal { amplitude: 0.05 },
        );
        let cases = [
            (BoxMesh::unit_cube(4, 2), true),
            // No Dirichlet boundary: the singular Neumann system, run to
            // the iteration cap if it does not converge.
            (deformed, false),
        ];
        for (mesh, dirichlet) in cases {
            let (degree, elements) = (mesh.degree(), mesh.num_elements());
            let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
            let gs = GatherScatter::from_mesh(&mesh);
            let boundary = DirichletMask::from_mesh(&mesh);
            let none = DirichletMask::none(degree, elements);
            let mask = if dirichlet { &boundary } else { &none };
            let options = CgOptions {
                max_iterations: 60,
                tolerance: 1e-9,
                record_history: true,
            };
            let solver = CgSolver::new(&op, &gs, mask, options);
            let mut x_exact = mesh.evaluate(|x, y, z| (x * (1.0 - x)) * (2.0 * y).sin() + z * z);
            mask.apply(&mut x_exact);
            let rhs = solver.apply_operator(&x_exact);

            let jacobi = JacobiPreconditioner::new(&op, &gs, mask);
            let preconditioners = [
                (
                    "identity",
                    AnyPreconditioner::Identity(IdentityPreconditioner),
                ),
                ("jacobi", AnyPreconditioner::Jacobi(jacobi.clone())),
                (
                    "modelled jacobi",
                    AnyPreconditioner::Jacobi(jacobi.with_modeled_seconds(1.5e-4)),
                ),
                // Built without the solver's boundary: its inverse does not
                // vanish on the constrained nodes, but the residual does.
                (
                    "jacobi, other mask",
                    AnyPreconditioner::Jacobi(JacobiPreconditioner::new(&op, &gs, &none)),
                ),
                (
                    "fdm",
                    AnyPreconditioner::Fdm(Box::new(FdmPreconditioner::new(&mesh, &op, &gs, mask))),
                ),
            ];
            for (label, precond) in &preconditioners {
                let modeled = precond.seconds_per_application().is_some();
                let fused = Trace::of(&solver.solve(&rhs, precond), modeled);
                let reference = unfused_cg(&solver, mask, &rhs, precond);
                assert!(reference.iterations > 3, "{label}: too short to compare");
                assert_eq!(fused, reference, "{label}, dirichlet {dirichlet}");
            }
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
