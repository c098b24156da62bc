//! The [`SemSystem`]: a spectral element problem bound to an execution
//! backend.
//!
//! Unlike the original API, in which the backend only affected standalone
//! operator calls while solves silently ran on the host, *every* operator
//! application here — including each CG iteration of [`SemSystem::solve`] —
//! goes through the system's [`AxBackend`].

use crate::backend::{Backend, ExecSpec};
use crate::exec::AxBackend;
use crate::faulty::FaultyBackend;
use crate::offload::OffloadPlan;
use crate::report::{PerfSource, PerfSummary};
use fpga_sim::{FaultState, FpgaAccelerator};
use rayon::prelude::*;
use sem_kernel::{AxImplementation, PoissonOperator};
use sem_mesh::{
    BoxMesh, DirichletMask, ElementField, GatherScatter, GeometricFactors, MeshDeformation,
};
use sem_obs::{recorder, Scope, SpanEvent, SpanKind, WallTimer};
use sem_solver::{
    AnyPreconditioner, CgOptions, CgScratch, CgSolver, PoissonProblem, PoissonSolution, PrecondSpec,
};
use std::sync::Arc;

/// PCIe-class link speed (GB/s) assumed when charging host↔device transfer
/// time to a solve.
pub const HOST_LINK_GBS: f64 = 12.0;

/// Builder for [`SemSystem`].
#[derive(Debug, Clone)]
pub struct SemSystemBuilder {
    degree: usize,
    elements: [usize; 3],
    lengths: [f64; 3],
    deformation: MeshDeformation,
    backend: Backend,
    fault_state: Option<Arc<FaultState>>,
}

impl Default for SemSystemBuilder {
    fn default() -> Self {
        Self {
            degree: 7,
            elements: [4, 4, 4],
            lengths: [1.0; 3],
            deformation: MeshDeformation::None,
            backend: Backend::default(),
            fault_state: None,
        }
    }
}

impl SemSystemBuilder {
    /// Polynomial degree `N`.
    #[must_use]
    pub fn degree(mut self, degree: usize) -> Self {
        self.degree = degree;
        self
    }

    /// Elements per direction.
    #[must_use]
    pub fn elements(mut self, elements: [usize; 3]) -> Self {
        self.elements = elements;
        self
    }

    /// Domain edge lengths.
    #[must_use]
    pub fn lengths(mut self, lengths: [f64; 3]) -> Self {
        self.lengths = lengths;
        self
    }

    /// Mesh deformation.
    #[must_use]
    pub fn deformation(mut self, deformation: MeshDeformation) -> Self {
        self.deformation = deformation;
        self
    }

    /// Execution backend configuration.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The preconditioner solves on this system use (equivalently set via
    /// a `+fdm`/`+none` registry-name suffix).
    #[must_use]
    pub fn precond(mut self, precond: PrecondSpec) -> Self {
        self.backend.precond = precond;
        self
    }

    /// Execution backend by registry name (`cpu:parallel`,
    /// `fpga:stratix10-gx2800+fdm`, `multi:4x520n`, ...).
    ///
    /// # Panics
    /// Panics if the name is not in the registry (see
    /// [`Backend::registry_names`]).
    #[must_use]
    pub fn backend_named(self, name: &str) -> Self {
        let backend =
            Backend::from_name(name).unwrap_or_else(|| panic!("unknown backend name `{name}`"));
        self.backend(backend)
    }

    /// Inject deterministic faults: wrap the instantiated backend in a
    /// [`FaultyBackend`] consulting this shared state on every fallible
    /// application.  `None` (the default) builds a perfect device.
    #[must_use]
    pub fn fault_state(mut self, fault_state: Option<Arc<FaultState>>) -> Self {
        self.fault_state = fault_state;
        self
    }

    /// Build the system (meshes the domain, precomputes geometric factors,
    /// and — for FPGA backends — synthesises the simulated accelerator).
    /// The geometric factors are computed once and shared by the execution
    /// backend and the host problem.
    #[must_use]
    pub fn build(self) -> SemSystem {
        let mesh = BoxMesh::new(self.degree, self.elements, self.lengths, self.deformation);
        let geometry = Arc::new(GeometricFactors::from_mesh(&mesh));
        let mut execution = self.backend.instantiate(&mesh, &geometry);
        if let Some(state) = self.fault_state {
            execution = Box::new(FaultyBackend::new(execution, state, mesh.element_counts()));
        }
        let implementation = match &self.backend.exec {
            ExecSpec::Cpu(implementation) => *implementation,
            // Accelerator backends still need a host operator for RHS
            // assembly, preconditioning and verification: the specialized
            // kernel, the same one the simulated datapath runs.
            ExecSpec::FpgaSimulated(_) | ExecSpec::MultiFpga { .. } => {
                AxImplementation::Specialized
            }
        };
        let problem = PoissonProblem::with_geometry(mesh, geometry, implementation);
        // Preconditioner setup (for FDM: eigendecompositions plus the
        // Galerkin coarse factorisation) happens once per session, here.
        // Backends that claim the pass on-device attach their cycle model's
        // per-application seconds so the CG accounting prices it like the
        // operator itself.
        let spec = self.backend.precond;
        let mut precond = problem.preconditioner(spec);
        let precond_on_device = execution.precond_on_device(spec);
        if let Some(seconds) = execution.simulated_seconds_per_precond(spec) {
            precond = precond.with_modeled_seconds(seconds);
        }
        SemSystem {
            config: self.backend,
            execution,
            problem,
            precond,
            precond_on_device,
        }
    }
}

/// A spectral element Poisson problem bound to an execution backend.
///
/// Systems are `Send + Sync` (the backend trait requires it and the host
/// problem owns plain data), which is what lets `sem-serve`'s async host
/// hand each session to its worker thread and take it back afterwards — a
/// move, never a rebuild.
pub struct SemSystem {
    config: Backend,
    execution: Box<dyn AxBackend>,
    problem: PoissonProblem,
    /// The session's preconditioner, built once at `build` time (with the
    /// backend's modelled per-application seconds attached when the pass is
    /// claimed on-device).
    precond: AnyPreconditioner,
    precond_on_device: bool,
}

/// Outcome of a backend-routed solve: the solution with its error metrics,
/// plus the time/energy accounting of the backend that produced it.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The solution and its error metrics (including raw CG statistics —
    /// iteration counts, residuals, per-application operator seconds).
    pub solution: PoissonSolution,
    /// Label of the backend that executed the operator applications.
    pub backend: String,
    /// The preconditioner the solve ran.
    pub precond: PrecondSpec,
    /// Seconds attributed to preconditioner applications across the solve:
    /// the backend's cycle model when the pass is claimed on-device,
    /// measured wall-clock otherwise.
    pub precond_seconds: f64,
    /// Whether the preconditioner pass was claimed (and priced) on-device.
    pub precond_on_device: bool,
    /// Provenance of the operator timing below.
    pub source: PerfSource,
    /// Aggregate performance of the operator applications inside CG:
    /// measured wall-clock for CPU backends, simulated kernel (plus
    /// exchange) seconds for FPGA backends.
    pub operator: PerfSummary,
    /// Host↔device transfer time charged to the solve over a
    /// [`HOST_LINK_GBS`] link; zero for host backends.  For a standalone
    /// solve this is one full upload (operand + geometric factors +
    /// derivative matrices) plus the result download; inside a
    /// [`SemSystem::solve_many`] batch the shared data is charged once for
    /// the whole batch and this field carries the per-RHS share.  This is
    /// the **serial** accounting: every byte blocks the kernel.
    pub transfer_seconds: f64,
    /// Wall-clock seconds the whole solve took on this host (for simulated
    /// backends this is simulator time, not accelerator time).
    pub host_wall_seconds: f64,
    /// Number of right-hand sides in the batch this solve was part of (1
    /// for standalone solves).  Transfer amortisation above is relative to
    /// this batch.
    pub batch_size: usize,
}

impl SolveReport {
    /// CG iterations performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.solution.cg.iterations
    }

    /// Preconditioner applications performed.
    #[must_use]
    pub fn precond_applications(&self) -> usize {
        self.solution.cg.precond_applications
    }

    /// Whether CG reached its tolerance.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.solution.cg.converged
    }

    /// The compute seconds of the whole solve on its backend: operator
    /// applications plus preconditioner applications.
    #[must_use]
    pub fn compute_seconds(&self) -> f64 {
        self.operator.seconds + self.precond_seconds
    }

    /// The backend-attributed time of the whole solve: operator plus
    /// preconditioner seconds plus transfer time.  For CPU backends this is
    /// measured; for FPGA backends it is the modelled end-to-end
    /// accelerator time.
    #[must_use]
    pub fn modeled_seconds(&self) -> f64 {
        self.compute_seconds() + self.transfer_seconds
    }
}

impl SemSystem {
    /// Start building a system.
    #[must_use]
    pub fn builder() -> SemSystemBuilder {
        SemSystemBuilder::default()
    }

    /// The backend configuration in use.
    #[must_use]
    pub fn backend(&self) -> &Backend {
        &self.config
    }

    /// The live execution engine the configuration resolved to.
    #[must_use]
    pub fn execution(&self) -> &dyn AxBackend {
        self.execution.as_ref()
    }

    /// The preconditioner spec this system solves with.
    #[must_use]
    pub fn precond_spec(&self) -> PrecondSpec {
        self.config.precond
    }

    /// Whether the backend claims (and prices) the preconditioner pass
    /// on-device.
    #[must_use]
    pub fn precond_on_device(&self) -> bool {
        self.precond_on_device
    }

    /// The mesh.
    #[must_use]
    pub fn mesh(&self) -> &BoxMesh {
        self.problem.mesh()
    }

    /// The underlying discretised Poisson problem (right-hand-side assembly,
    /// preconditioning, error measurement) — the host side of the system.
    #[must_use]
    pub fn problem(&self) -> &PoissonProblem {
        &self.problem
    }

    /// The matrix-free operator (host side; RHS assembly, preconditioning
    /// and verification run against it).
    #[must_use]
    pub fn operator(&self) -> &PoissonOperator {
        self.problem.operator()
    }

    /// The gather–scatter operator.
    #[must_use]
    pub fn gather_scatter(&self) -> &GatherScatter {
        self.problem.gather_scatter()
    }

    /// The Dirichlet mask.
    #[must_use]
    pub fn mask(&self) -> &DirichletMask {
        self.problem.mask()
    }

    /// The simulated accelerator, if the backend is a single FPGA board
    /// (`fpga:<slug>` or `multi:1x<slug>`).
    #[must_use]
    pub fn accelerator(&self) -> Option<&FpgaAccelerator> {
        self.execution.fpga_accelerator()
    }

    /// The offload plan for this problem, if the backend has external
    /// device memory — with the configured preconditioner's one-off table
    /// upload folded into the shared traffic when the pass runs on-device.
    #[must_use]
    pub fn offload_plan(&self) -> Option<OffloadPlan> {
        self.execution.offload_plan().map(|plan| {
            plan.with_precond_tables(self.execution.precond_table_bytes(self.config.precond))
        })
    }

    /// Apply the local operator once through the backend, returning the
    /// result and a performance summary (wall-clock for CPU backends,
    /// simulated for FPGA).
    #[must_use]
    pub fn apply_operator(&self, u: &ElementField) -> (ElementField, PerfSummary) {
        let mut w = ElementField::zeros(self.mesh().degree(), self.mesh().num_elements());
        let summary = match self.execution.seconds_per_application() {
            Some(seconds) => {
                self.execution.apply_into(u, &mut w);
                self.summary(seconds, 1)
            }
            None => {
                let timer = WallTimer::start();
                self.execution.apply_into(u, &mut w);
                self.summary(timer.elapsed_wall_seconds().max(1e-12), 1)
            }
        };
        (w, summary)
    }

    /// Apply the local operator to a whole batch of operands through the
    /// backend in one submission: `ws[i] = A us[i]`.
    ///
    /// Simulated backends charge the batch through their batched cost model
    /// ([`crate::exec::AxBackend::simulated_seconds_per_batch`]), which pays
    /// the kernel-launch overhead once for the whole batch; CPU backends are
    /// timed around the batch as a whole.
    ///
    /// # Panics
    /// Panics if `us` is empty or any operand does not match the mesh.
    #[must_use]
    pub fn apply_operator_many(&self, us: &[ElementField]) -> (Vec<ElementField>, PerfSummary) {
        assert!(!us.is_empty(), "need at least one operand");
        let mut ws: Vec<ElementField> = us
            .iter()
            .map(|_| ElementField::zeros(self.mesh().degree(), self.mesh().num_elements()))
            .collect();
        let summary = match self.execution.simulated_seconds_per_batch(us.len()) {
            Some(seconds) => {
                self.execution.apply_many(us, &mut ws);
                self.summary(seconds, us.len())
            }
            None => {
                let timer = WallTimer::start();
                self.execution.apply_many(us, &mut ws);
                self.summary(timer.elapsed_wall_seconds().max(1e-12), us.len())
            }
        };
        (ws, summary)
    }

    /// Apply the operator `applications` times (for steadier timing) and
    /// report the aggregate performance.
    ///
    /// # Panics
    /// Panics if `applications` is zero.
    #[must_use]
    pub fn benchmark_operator(&self, applications: usize) -> PerfSummary {
        assert!(applications > 0, "need at least one application");
        match self.execution.seconds_per_application() {
            Some(seconds) => self.summary(seconds * applications as f64, applications),
            None => {
                let u = self
                    .mesh()
                    .evaluate(|x, y, z| (x + 0.3) * (y - 0.7) * (z + 0.11));
                let mut w = ElementField::zeros(self.mesh().degree(), self.mesh().num_elements());
                let timer = WallTimer::start();
                for _ in 0..applications {
                    self.execution.apply_into(&u, &mut w);
                }
                let seconds = timer.elapsed_wall_seconds().max(1e-12);
                self.summary(seconds, applications)
            }
        }
    }

    /// Solve the manufactured-solution Poisson problem, running **every CG
    /// operator application through the backend** with the session's
    /// configured preconditioner, and report both the solution quality and
    /// the backend's time/energy accounting.
    #[must_use]
    pub fn solve(&self, options: CgOptions) -> SolveReport {
        self.solve_many_manufactured(1, options)
            .pop()
            .expect("a batch of one yields one report")
    }

    /// Solve the manufactured-solution Poisson problem and return only the
    /// solution (every operator application still runs through the
    /// backend; use [`SemSystem::solve`] for the full report).
    #[must_use]
    pub fn solve_manufactured(&self, options: CgOptions) -> PoissonSolution {
        self.solve(options).solution
    }

    /// Solve one already-assembled (continuous, masked) right-hand side
    /// through the backend.
    ///
    /// No exact solution is associated, so the report's error metrics are
    /// `NaN`; everything else — CG statistics, backend accounting, one full
    /// offload round trip — matches [`SemSystem::solve`].  Equivalent to
    /// `solve_many(&[rhs], ..)` with a batch of one.
    ///
    /// # Panics
    /// Panics if `rhs` does not match the system's degree and element count.
    #[must_use]
    pub fn solve_rhs(&self, rhs: &ElementField, options: CgOptions) -> SolveReport {
        self.solve_many(std::slice::from_ref(rhs), options)
            .pop()
            .expect("one report per right-hand side")
    }

    /// Solve a whole batch of right-hand sides through the backend — the
    /// many-users-one-instance serving shape.
    ///
    /// One [`OffloadPlan`] is shared across the batch: the geometric factors
    /// and derivative matrices cross the PCIe link once, each RHS pays only
    /// its operand/result traffic, and every report's `transfer_seconds`
    /// carries the per-RHS share (kernel seconds stay per RHS).  Sequential
    /// CPU backends run the batch **batch-parallel** with one private
    /// [`CgScratch`] per worker thread; `cpu:parallel` (whose kernel already
    /// owns the cores) and simulated accelerator backends run in submission
    /// order reusing a single scratch, so a whole batch performs five field
    /// allocations total.  Either way each solve is bitwise identical to a
    /// standalone [`SemSystem::solve_rhs`].
    ///
    /// # Panics
    /// Panics if any RHS does not match the system's degree and element
    /// count.
    #[must_use]
    pub fn solve_many(&self, rhss: &[ElementField], options: CgOptions) -> Vec<SolveReport> {
        if rhss.is_empty() {
            return Vec::new();
        }
        let batch = rhss.len();
        let per_rhs_transfer = self.offload_plan().map_or(0.0, |plan| {
            plan.batched_transfer_seconds(batch) / batch as f64
        });
        let solver = CgSolver::new(
            self.execution.as_ref(),
            self.problem.gather_scatter(),
            self.problem.mask(),
            options,
        );

        // Fan out only when each solve is single-threaded: nesting the batch
        // over the element-parallel kernel would oversubscribe cores² threads
        // and pollute the measured per-application seconds.
        let batch_parallel = self.execution.perf_source() == PerfSource::Measured
            && !matches!(self.config.exec, ExecSpec::Cpu(AxImplementation::Parallel));

        if batch_parallel {
            // Host backend: independent solves, so fan the batch out across
            // cores with one scratch per worker thread.
            let mut slots: Vec<Option<SolveReport>> = rhss.iter().map(|_| None).collect();
            slots.par_chunks_mut(1).enumerate().for_each_init(
                || CgScratch::new(self.mesh().degree(), self.mesh().num_elements()),
                |scratch, (i, slot)| {
                    slot[0] =
                        Some(self.solve_one(&solver, &rhss[i], scratch, per_rhs_transfer, batch));
                },
            );
            slots
                .into_iter()
                .map(|report| report.expect("every batch slot solved"))
                .collect()
        } else {
            // Simulated accelerator (one board) or element-parallel CPU
            // kernel: submission order, one scratch reused across the batch.
            let mut scratch = CgScratch::new(self.mesh().degree(), self.mesh().num_elements());
            rhss.iter()
                .map(|rhs| self.solve_one(&solver, rhs, &mut scratch, per_rhs_transfer, batch))
                .collect()
        }
    }

    /// Solve the manufactured problem `batch` times as one batched session —
    /// the convenience entry the benches and amortisation studies use.  The
    /// right-hand side is assembled once and replicated, every report gets
    /// real error metrics against the manufactured solution, and the
    /// transfer/scratch amortisation of [`SemSystem::solve_many`] applies.
    #[must_use]
    pub fn solve_many_manufactured(&self, batch: usize, options: CgOptions) -> Vec<SolveReport> {
        let rhs = self.problem.manufactured_rhs();
        let rhss = vec![rhs; batch];
        let mut reports = self.solve_many(&rhss, options);
        let exact = self.problem.manufactured_exact();
        for report in &mut reports {
            let (max_error, l2_error) = self
                .problem
                .error_against(&report.solution.solution, &exact);
            report.solution.max_error = max_error;
            report.solution.l2_error = l2_error;
        }
        reports
    }

    /// One solve of a batch: runs CG through the backend with the shared
    /// solver/preconditioner and a caller-owned scratch, charging the
    /// amortised per-RHS transfer share.
    fn solve_one(
        &self,
        solver: &CgSolver<'_, dyn AxBackend>,
        rhs: &ElementField,
        scratch: &mut CgScratch,
        transfer_seconds: f64,
        batch: usize,
    ) -> SolveReport {
        let timer = WallTimer::start();
        let cg = solver.solve_with_scratch(rhs, &self.precond, scratch);
        let host_wall_seconds = timer.elapsed_wall_seconds();
        let operator = self.summary(
            cg.operator_seconds.max(1e-12),
            cg.operator_applications.max(1),
        );
        let report = SolveReport {
            backend: self.execution.label().into_owned(),
            precond: self.config.precond,
            precond_seconds: cg.precond_seconds,
            precond_on_device: self.precond_on_device,
            source: self.execution.perf_source(),
            operator,
            transfer_seconds,
            host_wall_seconds,
            batch_size: batch,
            solution: PoissonSolution {
                solution: cg.solution.clone(),
                max_error: f64::NAN,
                l2_error: f64::NAN,
                cg,
            },
        };
        let obs = recorder();
        if obs.is_enabled() {
            // Simulated backends are fully priced by their cycle model, so
            // the span is deterministic; measured CPU solves vary with the
            // host and stay out of modelled-clock exports.
            let (scope, seconds) = match report.source {
                PerfSource::Simulated => (Scope::Deterministic, report.modeled_seconds()),
                PerfSource::Measured => (Scope::ScheduleDependent, report.host_wall_seconds),
            };
            let start = obs.stamp(0.0);
            let end = obs.stamp(seconds);
            obs.record(
                SpanEvent::new(SpanKind::Solve, scope, start, end)
                    .with_label(obs.intern(&report.backend)),
            );
            let labels = [("backend", report.backend.as_str())];
            obs.counter_add("sem_accel_solves_total", &labels, 1);
            obs.observe("sem_accel_solve_seconds", &labels, seconds);
            obs.observe(
                "sem_accel_transfer_seconds",
                &labels,
                report.transfer_seconds,
            );
        }
        report
    }

    /// Aggregate a per-application cost into a [`PerfSummary`] using the
    /// backend's accounting.
    fn summary(&self, seconds: f64, applications: usize) -> PerfSummary {
        let flops = self.execution.flops_per_application() as f64 * applications as f64;
        let dofs = self.execution.dofs_per_application() as f64 * applications as f64;
        let gflops = flops / seconds / 1e9;
        let power_watts = self.execution.power_watts();
        PerfSummary {
            degree: self.mesh().degree(),
            num_elements: self.mesh().num_elements(),
            applications,
            seconds,
            gflops,
            dofs_per_second: dofs / seconds,
            power_watts,
            gflops_per_watt: power_watts.map(|watts| gflops / watts),
            source: self.execution.perf_source(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_sim::AcceleratorDesign;

    #[test]
    fn sem_system_sessions_are_send_and_sync_for_worker_handoff() {
        // The async serving host moves whole sessions onto worker threads
        // and back; this must stay a compile-time property of the facade,
        // not an accident of the current backend set.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SemSystem>();
        assert_send_sync::<SolveReport>();
        assert_send_sync::<Box<dyn AxBackend>>();
    }

    #[test]
    fn backend_and_host_problem_share_one_geometry_copy() {
        for name in [
            "cpu:reference",
            "cpu:specialized",
            "cpu:parallel",
            "fpga:stratix10-gx2800",
            "multi:2x520n",
        ] {
            let system = SemSystem::builder()
                .degree(3)
                .elements([2, 2, 2])
                .backend_named(name)
                .build();
            let host = system.problem().operator().geometry();
            assert!(Arc::ptr_eq(system.execution().geometry(), host), "{name}");
            assert_eq!(Arc::strong_count(host), 2, "{name}: no third holder");
        }
    }

    #[test]
    fn cpu_and_fpga_backends_agree_numerically() {
        let cpu = SemSystem::builder()
            .degree(4)
            .elements([2, 2, 2])
            .backend(Backend::cpu_reference())
            .build();
        let fpga = SemSystem::builder()
            .degree(4)
            .elements([2, 2, 2])
            .backend(Backend::fpga_simulated())
            .build();
        let u = cpu.mesh().evaluate(|x, y, z| (3.0 * x).sin() * y + z * z);
        let (w_cpu, s_cpu) = cpu.apply_operator(&u);
        let (w_fpga, s_fpga) = fpga.apply_operator(&u);
        for (a, b) in w_cpu.as_slice().iter().zip(w_fpga.as_slice()) {
            assert!((a - b).abs() < 1e-10 * (1.0 + a.abs()));
        }
        assert_eq!(s_cpu.source, PerfSource::Measured);
        assert_eq!(s_fpga.source, PerfSource::Simulated);
        assert!(s_fpga.power_watts.is_some());
    }

    #[test]
    fn benchmark_reports_scaled_totals() {
        let system = SemSystem::builder()
            .degree(3)
            .elements([2, 2, 2])
            .backend(Backend::cpu_specialized())
            .build();
        let s = system.benchmark_operator(5);
        assert_eq!(s.applications, 5);
        assert!(s.gflops > 0.0);
        assert!(s.mdofs_per_second() > 0.0);
    }

    #[test]
    fn offload_plan_only_exists_for_fpga_backends() {
        let cpu = SemSystem::builder()
            .backend(Backend::cpu_parallel())
            .build();
        assert!(cpu.offload_plan().is_none());
        let fpga = SemSystem::builder()
            .degree(7)
            .elements([2, 2, 2])
            .backend(Backend::fpga_simulated())
            .build();
        let plan = fpga.offload_plan().unwrap();
        assert_eq!(plan.num_elements, 8);
        assert!(!plan.padded);
    }

    #[test]
    fn manufactured_solve_converges_through_the_facade() {
        let system = SemSystem::builder()
            .degree(6)
            .elements([2, 2, 2])
            .backend(Backend::cpu_specialized())
            .build();
        let sol = system.solve_manufactured(CgOptions {
            max_iterations: 2000,
            tolerance: 1e-11,
            record_history: false,
        });
        assert!(sol.cg.converged);
        assert!(sol.max_error < 1e-5, "error {}", sol.max_error);
    }

    #[test]
    fn accelerator_design_matches_degree() {
        let system = SemSystem::builder()
            .degree(11)
            .elements([2, 2, 2])
            .backend(Backend::fpga_simulated())
            .build();
        let design: &AcceleratorDesign = system.accelerator().unwrap().design();
        assert_eq!(design.degree, 11);
        assert_eq!(design.unroll, 4);
    }

    #[test]
    fn solve_runs_through_the_simulated_backend() {
        let options = CgOptions {
            max_iterations: 2000,
            tolerance: 1e-11,
            record_history: false,
        };
        let cpu = SemSystem::builder()
            .degree(5)
            .elements([2, 2, 2])
            .backend(Backend::cpu_specialized())
            .build();
        let fpga = SemSystem::builder()
            .degree(5)
            .elements([2, 2, 2])
            .backend(Backend::fpga_simulated())
            .build();

        let cpu_report = cpu.solve(options);
        let fpga_report = fpga.solve(options);

        // The FPGA solve is accounted in simulated seconds with power...
        assert_eq!(fpga_report.source, PerfSource::Simulated);
        assert!(fpga_report.operator.seconds > 0.0);
        assert!(fpga_report.operator.power_watts.unwrap() > 50.0);
        assert!(fpga_report.transfer_seconds > 0.0);
        assert!(fpga_report.modeled_seconds() > fpga_report.operator.seconds);
        // ...the CPU solve in measured wall-clock without power...
        assert_eq!(cpu_report.source, PerfSource::Measured);
        assert!(cpu_report.operator.power_watts.is_none());
        assert_eq!(cpu_report.transfer_seconds, 0.0);
        // ...and both converge to the same solution (the FPGA datapath is the
        // optimised kernel, so the iterates are bitwise identical).
        assert!(cpu_report.converged() && fpga_report.converged());
        assert_eq!(cpu_report.iterations(), fpga_report.iterations());
        let scale = cpu_report.solution.solution.max_abs();
        for (a, b) in cpu_report
            .solution
            .solution
            .as_slice()
            .iter()
            .zip(fpga_report.solution.solution.as_slice())
        {
            assert!((a - b).abs() < 1e-10 * (1.0 + scale));
        }
        // The operator summary reflects the CG application count.
        assert_eq!(
            fpga_report.operator.applications,
            fpga_report.solution.cg.operator_applications
        );
        assert!(fpga_report.operator.applications >= fpga_report.iterations());
    }

    #[test]
    fn multi_fpga_backend_solves_and_scales_the_simulated_time() {
        let options = CgOptions {
            max_iterations: 1500,
            tolerance: 1e-10,
            record_history: false,
        };
        let one = SemSystem::builder()
            .degree(4)
            .elements([2, 2, 2])
            .backend(Backend::fpga_simulated())
            .build();
        let four = SemSystem::builder()
            .degree(4)
            .elements([2, 2, 2])
            .backend(Backend::multi_fpga(4))
            .build();
        let r1 = one.solve(options);
        let r4 = four.solve(options);
        assert!(r1.converged() && r4.converged());
        assert_eq!(r1.iterations(), r4.iterations());
        // Partitioning shrinks the per-application kernel time even after
        // the exchange overhead (8 elements over 4 boards is 2 per board).
        assert!(r4.operator.seconds < r1.operator.seconds);
        // Four boards burn more power.
        assert!(r4.operator.power_watts.unwrap() > 3.0 * r1.operator.power_watts.unwrap());
    }

    #[test]
    fn solve_many_amortises_transfer_and_matches_sequential_solves() {
        let options = CgOptions {
            max_iterations: 1000,
            tolerance: 1e-10,
            record_history: false,
        };
        let system = SemSystem::builder()
            .degree(5)
            .elements([2, 2, 2])
            .backend(Backend::fpga_simulated())
            .build();

        let batch = 16;
        let reports = system.solve_many_manufactured(batch, options);
        assert_eq!(reports.len(), batch);
        let sequential = system.solve(options);

        for report in &reports {
            // Bitwise the same solve...
            assert_eq!(report.iterations(), sequential.iterations());
            assert_eq!(
                report.solution.solution.as_slice(),
                sequential.solution.solution.as_slice()
            );
            assert!((report.solution.max_error - sequential.solution.max_error).abs() < 1e-15);
            assert_eq!(report.batch_size, batch);
            // ...with the same per-RHS kernel seconds...
            assert!((report.operator.seconds - sequential.operator.seconds).abs() < 1e-15);
            // ...but a much smaller per-RHS transfer share: the geometric
            // factors cross the link once per batch.
            assert!(report.transfer_seconds < sequential.transfer_seconds);
        }
        let batched_transfer: f64 = reports.iter().map(|r| r.transfer_seconds).sum();
        let sequential_transfer = batch as f64 * sequential.transfer_seconds;
        let drop = 1.0 - batched_transfer / sequential_transfer;
        assert!(
            drop >= 0.3,
            "per-RHS offload seconds must drop >= 30%, got {:.0}%",
            drop * 100.0
        );
    }

    #[test]
    fn cpu_solve_many_runs_batch_parallel_and_matches_solo_solves() {
        let options = CgOptions {
            max_iterations: 500,
            tolerance: 1e-10,
            record_history: false,
        };
        let system = SemSystem::builder()
            .degree(4)
            .elements([2, 2, 2])
            .backend(Backend::cpu_specialized())
            .build();
        let rhss: Vec<_> = (0..5)
            .map(|i| {
                system
                    .problem()
                    .right_hand_side(move |x, y, z| (1.0 + i as f64) * x * y * z + x)
            })
            .collect();
        let reports = system.solve_many(&rhss, options);
        assert_eq!(reports.len(), rhss.len());
        for (rhs, report) in rhss.iter().zip(&reports) {
            let solo = system.solve_rhs(rhs, options);
            assert_eq!(
                report.solution.solution.as_slice(),
                solo.solution.solution.as_slice(),
                "batched solve must be bitwise identical to a standalone solve"
            );
            assert_eq!(report.iterations(), solo.iterations());
            assert_eq!(report.transfer_seconds, 0.0);
            assert!(report.solution.max_error.is_nan(), "no exact => NaN errors");
        }
    }

    #[test]
    fn empty_batch_returns_no_reports() {
        let system = SemSystem::builder()
            .degree(3)
            .elements([2, 2, 2])
            .backend(Backend::cpu_specialized())
            .build();
        assert!(system.solve_many(&[], CgOptions::default()).is_empty());
    }

    #[test]
    fn batched_operator_application_amortises_the_launch() {
        let system = SemSystem::builder()
            .degree(7)
            .elements([2, 2, 2])
            .backend(Backend::fpga_simulated())
            .build();
        let us: Vec<_> = (0..4)
            .map(|i| {
                system
                    .mesh()
                    .evaluate(move |x, y, z| x + y * z + i as f64 * x * x)
            })
            .collect();
        let (ws, batched) = system.apply_operator_many(&us);
        assert_eq!(ws.len(), 4);
        let (w0, single) = system.apply_operator(&us[0]);
        assert_eq!(ws[0].as_slice(), w0.as_slice());
        assert_eq!(batched.applications, 4);
        assert!(batched.seconds < 4.0 * single.seconds);
        assert!(batched.seconds_per_application() < single.seconds);
    }

    #[test]
    fn builder_accepts_registry_names() {
        let system = SemSystem::builder()
            .degree(3)
            .elements([2, 2, 2])
            .backend_named("multi:2x520n")
            .build();
        assert!(system.execution().label().contains("2 x"));
        assert_eq!(system.backend(), &Backend::multi_fpga(2));
    }

    #[test]
    #[should_panic(expected = "unknown backend name")]
    fn builder_rejects_unknown_registry_names() {
        let _ = SemSystem::builder().backend_named("tpu:v4");
    }
}
