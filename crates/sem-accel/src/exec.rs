//! Execution backends: the open, trait-based seam every operator
//! application in the workspace runs through.
//!
//! [`AxBackend`] is the object-safe contract an execution engine has to
//! satisfy: apply the element-local `Ax` kernel into a preallocated output,
//! and account for what one application costs (FLOPs, seconds, watts).
//! One engine ships per device kind:
//!
//! * [`CpuBackend`] — the native host kernels (reference / specialized /
//!   Rayon-parallel), timed with wall clocks;
//! * [`FpgaSimBackend`] — simulated accelerator boards
//!   ([`fpga_sim::MultiBoardAccelerator`]): one board, or the element set
//!   block-partitioned over several identical boards with the
//!   interface-exchange overhead priced in.  It reports simulated kernel
//!   seconds and board power.
//!
//! [`AxBackend`] extends [`sem_solver::LocalOperator`], the seam a
//! [`sem_solver::CgSolver`] iterates through: apply, fallible apply, FLOPs
//! and the modelled price are defined once there, and the backend trait
//! adds only the device hooks (batching, power, offload, and the dssum and
//! preconditioner claims).  That is how [`crate::SemSystem::solve`] runs
//! the full CG solve on the accelerator instead of beside it.
//! Configuration (which backend to build, from serde data or a registry
//! name) lives in [`crate::backend::Backend`].

use crate::backend::DEFAULT_INTERCONNECT_GBS;
use crate::offload::OffloadPlan;
use crate::report::PerfSource;
use fpga_sim::{
    estimate_jacobi_seconds, FdmPrecondModel, FpgaAccelerator, FpgaDevice, MultiBoardAccelerator,
};
use sem_kernel::{ops, AxImplementation, PoissonOperator};
use sem_mesh::{BoxMesh, ElementField, GeometricFactors};
use sem_solver::{coarse_space_dofs, LocalOperator, PrecondSpec};
use std::borrow::Cow;
use std::sync::Arc;

/// An execution engine for the matrix-free `Ax` kernel: a
/// [`LocalOperator`] plus the hooks a device adds to it.
///
/// The trait is object-safe and implementations are `Send + Sync`, so a
/// `Box<dyn AxBackend>` can be selected at runtime (see
/// [`crate::backend::Backend::instantiate`]), shared across threads and
/// handed to a [`sem_solver::CgSolver`] directly.
pub trait AxBackend: LocalOperator + Send + Sync {
    /// Short human-readable label (used in reports and benches).
    fn label(&self) -> Cow<'static, str>;

    /// The geometric factors the backend applies.  A
    /// [`crate::SemSystem`] computes them once and shares the one copy
    /// between its backend and its host problem.
    fn geometry(&self) -> &Arc<GeometricFactors>;

    /// Apply the operator to a whole batch of operands: `ws[i] = A us[i]`.
    ///
    /// The default loops over [`LocalOperator::apply_into`]; accelerator
    /// backends keep the batch resident and amortise their per-launch
    /// overhead (see [`AxBackend::simulated_seconds_per_batch`]).
    ///
    /// # Panics
    /// Panics if the slices differ in length or any field does not match the
    /// backend's degree and element count.
    // lint: alloc-free (batched apply reuses the caller's output fields;
    // per-operand allocation would defeat the batch amortisation being priced)
    fn apply_many(&self, us: &[ElementField], ws: &mut [ElementField]) {
        assert_eq!(us.len(), ws.len(), "batch size mismatch");
        for (u, w) in us.iter().zip(ws.iter_mut()) {
            self.apply_into(u, w);
        }
    }

    /// Whether this backend claims the `w = QQᵀ(A u)` pass (operator
    /// application plus direct stiffness summation without a host round
    /// trip) — the paper's next offload candidate after the kernel itself.
    /// A pricing claim only: the numerics still run the host dssum sweep
    /// after [`LocalOperator::try_apply_into`], and the claim obliges the
    /// backend to price its pass per batch
    /// ([`AxBackend::simulated_seconds_per_batch`]).
    fn fuses_dssum(&self) -> bool {
        false
    }

    /// Degrees of freedom processed by one application.
    fn dofs_per_application(&self) -> u64 {
        ops::total_dofs(self.degree(), self.num_elements())
    }

    /// Whether this backend's timings are model estimates (exactly when it
    /// prices an application, see [`LocalOperator::seconds_per_application`])
    /// or wall-clock measurements.
    fn perf_source(&self) -> PerfSource {
        if self.seconds_per_application().is_some() {
            PerfSource::Simulated
        } else {
            PerfSource::Measured
        }
    }

    /// Seconds a batch of `batch` back-to-back applications costs according
    /// to the backend's own model.  The default charges `batch` independent
    /// applications; accelerator backends override it to pay their kernel
    /// launch overhead once per batch.  `None` for natively-executed
    /// backends.
    fn simulated_seconds_per_batch(&self, batch: usize) -> Option<f64> {
        self.seconds_per_application()
            .map(|seconds| seconds * batch as f64)
    }

    /// Estimated power draw while running the kernel, when the backend has a
    /// power model.
    fn power_watts(&self) -> Option<f64> {
        None
    }

    /// The host↔device transfer plan, for backends with external memory.
    /// Preconditioner table traffic is folded in by
    /// [`crate::SemSystem::offload_plan`], which knows the configured
    /// preconditioner; see [`AxBackend::precond_table_bytes`].
    fn offload_plan(&self) -> Option<OffloadPlan> {
        None
    }

    /// Whether this backend claims the preconditioner application on-device
    /// (like [`AxBackend::fuses_dssum`], the numerics still run through the
    /// host stand-in; the claim changes where the pass is *priced* and
    /// keeps the residual from round-tripping over PCIe every iteration).
    fn precond_on_device(&self, precond: PrecondSpec) -> bool {
        let _ = precond;
        false
    }

    /// Seconds one on-device preconditioner application costs according to
    /// the backend's own cycle model.  `None` for natively-executed
    /// backends (whose cost is measured) and for preconditioners the
    /// backend does not claim.
    fn simulated_seconds_per_precond(&self, precond: PrecondSpec) -> Option<f64> {
        let _ = precond;
        None
    }

    /// Bytes of the one-off preconditioner data upload a solve session pays
    /// when the pass runs on-device (FDM eigenvector/eigenvalue tables and
    /// the coarse factor, or the Jacobi inverse diagonal).  Zero for host
    /// backends and unclaimed preconditioners.
    fn precond_table_bytes(&self, precond: PrecondSpec) -> u64 {
        let _ = precond;
        0
    }

    /// The underlying simulated accelerator, for single-board FPGA backends
    /// (`None` when the elements are partitioned over several boards).
    fn fpga_accelerator(&self) -> Option<&FpgaAccelerator> {
        None
    }
}

/// Native CPU execution with one of the host kernels.
pub struct CpuBackend {
    operator: PoissonOperator,
}

impl CpuBackend {
    /// Build the backend for `mesh` with the selected kernel implementation.
    #[must_use]
    pub fn new(mesh: &BoxMesh, implementation: AxImplementation) -> Self {
        Self::with_geometry(Arc::new(GeometricFactors::from_mesh(mesh)), implementation)
    }

    /// Build the backend on already computed (shared) geometric factors.
    #[must_use]
    pub fn with_geometry(
        geometry: Arc<GeometricFactors>,
        implementation: AxImplementation,
    ) -> Self {
        Self {
            operator: PoissonOperator::with_geometry(geometry, implementation),
        }
    }

    /// The host operator the backend dispatches to.
    #[must_use]
    pub fn operator(&self) -> &PoissonOperator {
        &self.operator
    }

    /// The static label of a CPU implementation.
    #[must_use]
    pub fn label_of(implementation: AxImplementation) -> &'static str {
        match implementation {
            AxImplementation::Reference => "cpu-reference",
            AxImplementation::Specialized => "cpu-specialized",
            AxImplementation::Parallel => "cpu-parallel",
        }
    }
}

impl LocalOperator for CpuBackend {
    fn degree(&self) -> usize {
        self.operator.degree()
    }

    fn num_elements(&self) -> usize {
        self.operator.num_elements()
    }

    fn apply_into(&self, u: &ElementField, w: &mut ElementField) {
        self.operator.apply_into(u, w);
    }

    fn flops_per_application(&self) -> u64 {
        self.operator.flops_per_application()
    }
}

impl AxBackend for CpuBackend {
    fn label(&self) -> Cow<'static, str> {
        Cow::Borrowed(Self::label_of(self.operator.implementation()))
    }

    fn geometry(&self) -> &Arc<GeometricFactors> {
        self.operator.geometry()
    }
}

/// The display label of a single-board simulated-FPGA backend on `device`
/// (shared by [`FpgaSimBackend::new`] and `Backend::label`).
#[must_use]
pub fn fpga_sim_label(device: &FpgaDevice) -> String {
    format!("fpga-sim ({})", device.name)
}

/// The display label of a `boards`-board simulated-FPGA backend on `device`
/// (used by `Backend::label`, which names the engine it instantiates).
#[must_use]
pub fn multi_fpga_label(boards: usize, device: &FpgaDevice) -> String {
    format!("multi-fpga ({boards} x {})", device.name)
}

/// Simulated FPGA boards: one board, or the elements block-partitioned
/// across several identical boards (one board per rank, Nek5000-style) with
/// the interface exchange priced over the host interconnect.
pub struct FpgaSimBackend {
    multi: MultiBoardAccelerator,
    geometry: Arc<GeometricFactors>,
    seconds_per_application: f64,
    /// Interface-exchange seconds per application (zero on one board).
    exchange_seconds: f64,
    /// On-device FDM model, priced over one board's element share (the pass
    /// is element-local, so boards run it exchange-free in parallel; the
    /// small coarse solve is conservatively charged in full per board).
    fdm_model: FdmPrecondModel,
    fdm_seconds: f64,
    fdm_fits: bool,
    jacobi_seconds: f64,
    label: String,
}

impl FpgaSimBackend {
    /// Synthesise the production design for `mesh.degree()` onto one board
    /// of `device` and bind it to the mesh's (shared) geometric factors.
    ///
    /// # Panics
    /// Panics if the design does not fit on the device.
    #[must_use]
    pub fn new(mesh: &BoxMesh, geometry: Arc<GeometricFactors>, device: FpgaDevice) -> Self {
        let label = fpga_sim_label(&device);
        Self::on_boards(mesh, geometry, &device, 1, DEFAULT_INTERCONNECT_GBS, label)
    }

    /// The engine over `boards` copies of `device`, exchanging interface
    /// data over `interconnect_gbs` GB/s and reporting `label`.  Only
    /// `boards.min(num_elements)` boards are priced: a board that would
    /// hold no element neither computes, draws power nor stores tables.
    ///
    /// # Panics
    /// Panics if `boards` is zero or the design does not fit on the device.
    pub(crate) fn on_boards(
        mesh: &BoxMesh,
        geometry: Arc<GeometricFactors>,
        device: &FpgaDevice,
        boards: usize,
        interconnect_gbs: f64,
        label: String,
    ) -> Self {
        let num_elements = mesh.num_elements();
        let multi = MultiBoardAccelerator::new(
            mesh.degree(),
            device,
            boards.min(num_elements),
            interconnect_gbs,
        );
        let estimate = multi.estimate(num_elements);
        let per_board = estimate.elements_per_board;
        let fdm_model = FdmPrecondModel::new(
            mesh.degree(),
            coarse_space_dofs(mesh.degree(), mesh.element_counts()),
        );
        let fdm_estimate = fdm_model.estimate(multi.accelerator(), per_board);
        let jacobi_seconds = estimate_jacobi_seconds(multi.accelerator(), per_board);
        Self {
            seconds_per_application: estimate.kernel_seconds + estimate.exchange_seconds,
            exchange_seconds: estimate.exchange_seconds,
            multi,
            geometry,
            fdm_model,
            fdm_seconds: fdm_estimate.seconds,
            fdm_fits: fdm_estimate.fits,
            jacobi_seconds,
            label,
        }
    }

    /// The per-board accelerator (identical design on every board).
    #[must_use]
    pub fn accelerator(&self) -> &FpgaAccelerator {
        self.multi.accelerator()
    }
}

impl LocalOperator for FpgaSimBackend {
    fn degree(&self) -> usize {
        self.geometry.degree()
    }

    fn num_elements(&self) -> usize {
        self.geometry.num_elements()
    }

    fn apply_into(&self, u: &ElementField, w: &mut ElementField) {
        self.multi.apply_into(u, &self.geometry, w);
    }

    fn flops_per_application(&self) -> u64 {
        ops::total_flops(self.degree(), self.num_elements())
    }

    fn seconds_per_application(&self) -> Option<f64> {
        Some(self.seconds_per_application)
    }
}

impl AxBackend for FpgaSimBackend {
    fn label(&self) -> Cow<'static, str> {
        Cow::Owned(self.label.clone())
    }

    fn geometry(&self) -> &Arc<GeometricFactors> {
        &self.geometry
    }

    fn fuses_dssum(&self) -> bool {
        // The boards keep the field resident, so the gather–scatter runs as
        // part of the kernel pass instead of a host round trip (cross-board
        // sums ride the priced interface exchange); the host dssum sweep after
        // the kernel models that pass bitwise.
        true
    }

    fn simulated_seconds_per_batch(&self, batch: usize) -> Option<f64> {
        // The kernel launch amortises across the batch; the interface
        // exchange happens once per application regardless.
        let per_board = self.multi.elements_per_board(self.num_elements());
        let kernel = self.accelerator().estimate_batch(per_board, batch).seconds;
        Some(kernel + self.exchange_seconds * batch as f64)
    }

    fn power_watts(&self) -> Option<f64> {
        // All boards draw power while the partitioned kernel runs.
        Some(self.accelerator().power_watts() * self.multi.boards() as f64)
    }

    fn offload_plan(&self) -> Option<OffloadPlan> {
        // Each board uploads its own block; the aggregate traffic equals one
        // plan over the full element set.
        Some(OffloadPlan::new(
            self.accelerator().design(),
            self.accelerator().device(),
            self.num_elements(),
        ))
    }

    fn fpga_accelerator(&self) -> Option<&FpgaAccelerator> {
        (self.multi.boards() == 1).then(|| self.accelerator())
    }

    fn precond_on_device(&self, precond: PrecondSpec) -> bool {
        match precond {
            PrecondSpec::Identity => false,
            PrecondSpec::Jacobi => true,
            // Claimed only while the FDM tables fit next to the Ax design.
            PrecondSpec::Fdm => self.fdm_fits,
        }
    }

    fn simulated_seconds_per_precond(&self, precond: PrecondSpec) -> Option<f64> {
        // The pass is element-local: boards run their shares concurrently
        // with no interface exchange, so one board's share is the wall time.
        match precond {
            PrecondSpec::Identity => None,
            PrecondSpec::Jacobi => Some(self.jacobi_seconds),
            PrecondSpec::Fdm => self.fdm_fits.then_some(self.fdm_seconds),
        }
    }

    fn precond_table_bytes(&self, precond: PrecondSpec) -> u64 {
        match precond {
            PrecondSpec::Identity => 0,
            // The inverse diagonal is a full field, uploaded once per
            // session.
            PrecondSpec::Jacobi => ops::total_dofs(self.degree(), self.num_elements()) * 8,
            // Every board holds the (tiny) FDM table set.
            PrecondSpec::Fdm if self.fdm_fits => {
                self.fdm_model.table_bytes() * self.multi.boards() as u64
            }
            PrecondSpec::Fdm => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;

    fn test_mesh(degree: usize) -> BoxMesh {
        BoxMesh::unit_cube(degree, 2)
    }

    fn geometry(mesh: &BoxMesh) -> Arc<GeometricFactors> {
        Arc::new(GeometricFactors::from_mesh(mesh))
    }

    /// The engine `Backend::instantiate` builds for `boards` boards.
    fn multi(mesh: &BoxMesh, device: FpgaDevice, boards: usize) -> Box<dyn AxBackend> {
        Backend::multi_fpga_on(device, boards, 12.0).instantiate(mesh, &geometry(mesh))
    }

    #[test]
    fn cpu_backend_matches_the_operator_it_wraps() {
        let mesh = test_mesh(4);
        let backend = CpuBackend::new(&mesh, AxImplementation::Specialized);
        let u = mesh.evaluate(|x, y, z| x * y + z);
        let mut w = ElementField::zeros(4, 8);
        backend.apply_into(&u, &mut w);
        let expect = backend.operator().apply(&u);
        assert_eq!(w.as_slice(), expect.as_slice());
        assert_eq!(backend.label(), "cpu-specialized");
        assert_eq!(backend.perf_source(), PerfSource::Measured);
        assert!(backend.seconds_per_application().is_none());
        assert!(backend.power_watts().is_none());
        assert!(backend.offload_plan().is_none());
    }

    #[test]
    fn fpga_backend_reports_simulated_cost_and_power() {
        let mesh = test_mesh(7);
        let backend = FpgaSimBackend::new(&mesh, geometry(&mesh), FpgaDevice::stratix10_gx2800());
        assert_eq!(backend.perf_source(), PerfSource::Simulated);
        let seconds = backend.seconds_per_application().unwrap();
        assert!(seconds > 0.0);
        assert!(backend.power_watts().unwrap() > 50.0);
        assert!(backend.offload_plan().unwrap().num_elements == 8);
        assert!(backend.fpga_accelerator().is_some());
        assert!(backend.label().contains("GX2800"));
    }

    #[test]
    fn all_backends_agree_numerically_through_the_trait_object() {
        let mesh = test_mesh(5);
        let device = FpgaDevice::stratix10_gx2800();
        let backends: Vec<Box<dyn AxBackend>> = vec![
            Box::new(CpuBackend::new(&mesh, AxImplementation::Reference)),
            Box::new(CpuBackend::new(&mesh, AxImplementation::Parallel)),
            Box::new(FpgaSimBackend::new(&mesh, geometry(&mesh), device.clone())),
            multi(&mesh, device, 3),
        ];
        let u = mesh.evaluate(|x, y, z| (2.0 * x).sin() * y + z * z);
        let mut reference: Option<ElementField> = None;
        for backend in &backends {
            let mut w = ElementField::zeros(5, 8);
            backend.apply_into(&u, &mut w);
            match &reference {
                None => reference = Some(w),
                Some(r) => {
                    let scale = r.max_abs();
                    for (a, b) in r.as_slice().iter().zip(w.as_slice()) {
                        assert!(
                            (a - b).abs() < 1e-10 * (1.0 + scale),
                            "{}: {a} vs {b}",
                            backend.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn apply_many_matches_independent_applications_bitwise() {
        let mesh = test_mesh(4);
        let device = FpgaDevice::stratix10_gx2800();
        let backends: Vec<Box<dyn AxBackend>> = vec![
            Box::new(CpuBackend::new(&mesh, AxImplementation::Specialized)),
            Box::new(FpgaSimBackend::new(&mesh, geometry(&mesh), device.clone())),
            multi(&mesh, device, 2),
        ];
        let us: Vec<ElementField> = (0..3)
            .map(|i| mesh.evaluate(move |x, y, z| ((i + 1) as f64 * x).sin() * y + z))
            .collect();
        for backend in &backends {
            let mut ws: Vec<ElementField> = us.iter().map(|_| ElementField::zeros(4, 8)).collect();
            backend.apply_many(&us, &mut ws);
            for (u, w) in us.iter().zip(&ws) {
                let mut expect = ElementField::zeros(4, 8);
                backend.apply_into(u, &mut expect);
                assert_eq!(w.as_slice(), expect.as_slice(), "{}", backend.label());
            }
        }
    }

    #[test]
    fn accelerator_backends_claim_the_fused_dssum_pass() {
        let mesh = test_mesh(3);
        let device = FpgaDevice::stratix10_gx2800();
        let cpu = CpuBackend::new(&mesh, AxImplementation::Specialized);
        let fpga = FpgaSimBackend::new(&mesh, geometry(&mesh), device.clone());
        let multi = multi(&mesh, device, 2);
        assert!(!cpu.fuses_dssum());
        assert!(fpga.fuses_dssum());
        assert!(multi.fuses_dssum());
    }

    #[test]
    fn simulated_batch_seconds_amortise_the_launch_overhead() {
        let mesh = test_mesh(7);
        let device = FpgaDevice::stratix10_gx2800();
        let fpga = FpgaSimBackend::new(&mesh, geometry(&mesh), device.clone());
        let multi = multi(&mesh, device, 2);
        for backend in [&fpga as &dyn AxBackend, multi.as_ref()] {
            let single = backend.seconds_per_application().unwrap();
            let batched = backend.simulated_seconds_per_batch(16).unwrap();
            assert!(
                batched < 16.0 * single,
                "{}: {batched} vs {}",
                backend.label(),
                16.0 * single
            );
            assert!(batched > single, "{}", backend.label());
        }
        // CPU backends have no simulated accounting, batched or not.
        let cpu = CpuBackend::new(&mesh, AxImplementation::Parallel);
        assert!(cpu.simulated_seconds_per_batch(16).is_none());
    }

    #[test]
    fn dyn_backend_is_a_local_operator() {
        let mesh = test_mesh(3);
        let backend: Box<dyn AxBackend> = Box::new(FpgaSimBackend::new(
            &mesh,
            geometry(&mesh),
            FpgaDevice::stratix10_gx2800(),
        ));
        let op: &dyn AxBackend = backend.as_ref();
        assert_eq!(LocalOperator::degree(op), 3);
        assert_eq!(LocalOperator::num_elements(op), 8);
        assert!(LocalOperator::seconds_per_application(op).unwrap() > 0.0);
    }

    #[test]
    fn multi_fpga_power_scales_with_boards() {
        let mesh = test_mesh(7);
        let device = FpgaDevice::stratix10_gx2800();
        let two = multi(&mesh, device.clone(), 2);
        let four = multi(&mesh, device, 4);
        assert!((four.power_watts().unwrap() / two.power_watts().unwrap() - 2.0).abs() < 1e-9);
        assert!(four.label().contains("4 x"));
        assert!(
            two.fpga_accelerator().is_none(),
            "partitioned engines expose no single board"
        );
    }
}
