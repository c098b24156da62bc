//! A fault-injecting wrapper around any execution backend.
//!
//! [`FaultyBackend`] decorates a `Box<dyn AxBackend>` with a shared
//! [`FaultState`]: every *fallible* application
//! ([`LocalOperator::try_apply_into`]) consults the state's deterministic
//! schedule and either applies normally, applies and corrupts the result (a
//! transient upset the caller can only catch by residual verification), or
//! fails with the typed [`SolveFault`] of the device error (death, hang).
//! Sticky slowdown multiplies the backend's modelled seconds, so degraded
//! devices show up in timeout budgets rather than as errors.
//!
//! The wrapper is transparent in every other respect — label, cost model,
//! offload plan, preconditioner claims — so a request retried onto the same
//! backend class past its faulted ops produces bitwise the answer of a
//! fault-free run.

use crate::exec::AxBackend;
use crate::offload::OffloadPlan;
use fpga_sim::{corrupt_value, DeviceError, FaultAction, FaultState, FpgaAccelerator};
use sem_mesh::{ElementField, GeometricFactors};
use sem_solver::{CgApplyResult, LocalOperator, PrecondSpec, SolveFault};
use std::borrow::Cow;
use std::sync::Arc;

/// A backend that consults a deterministic [`FaultState`] on every fallible
/// application.  See the module docs for semantics.
pub struct FaultyBackend {
    inner: Box<dyn AxBackend>,
    state: Arc<FaultState>,
    /// Local index of the entry a transient upset corrupts.
    upset: usize,
}

impl FaultyBackend {
    /// Wrap `inner`, built on a mesh of `element_counts` elements per
    /// direction, with the shared fault state.
    #[must_use]
    pub fn new(
        inner: Box<dyn AxBackend>,
        state: Arc<FaultState>,
        element_counts: [usize; 3],
    ) -> Self {
        let upset = Self::upset_index(inner.degree(), element_counts);
        Self {
            inner,
            state,
            upset,
        }
    }

    /// The shared fault state (health, slowdown, injection counts).
    #[must_use]
    pub fn state(&self) -> &Arc<FaultState> {
        &self.state
    }

    /// Where the modelled single-event upset lands: a node the host's
    /// Dirichlet mask never zeroes, so the corruption survives to the caller
    /// — a fault the detection layer must genuinely catch.
    ///
    /// At degree ≥ 2 it is an element-*interior* node of a middle element:
    /// multiplicity one, so the dssum sweep never touches it either.
    /// Degree-1 elements have no interior node, so there it is the upper
    /// vertex of element (`ex/2−1`, `ey/2−1`, `ez/2−1`), an interior mesh
    /// vertex (every count is ≥ 2 whenever a degree-1 solve applies the
    /// operator: otherwise every node is masked and the right-hand side
    /// vanishes).
    fn upset_index(degree: usize, element_counts: [usize; 3]) -> usize {
        let points = degree + 1;
        let (element, c) = if degree == 1 {
            let [ex, ey, ez] = element_counts.map(|count| (count / 2).saturating_sub(1));
            let [nx, ny, _] = element_counts;
            (ex + nx * (ey + ny * ez), 1)
        } else {
            (element_counts.iter().product::<usize>() / 2, degree / 2)
        };
        element * points * points * points + c * points * points + c * points + c
    }
}

impl LocalOperator for FaultyBackend {
    fn degree(&self) -> usize {
        self.inner.degree()
    }

    fn num_elements(&self) -> usize {
        self.inner.num_elements()
    }

    fn apply_into(&self, u: &ElementField, w: &mut ElementField) {
        // The infallible path has no way to report a failure, so it
        // bypasses injection entirely (and does not advance the op
        // counter): faults only surface where the caller can observe them.
        self.inner.apply_into(u, w);
    }

    fn try_apply_into(&self, u: &ElementField, w: &mut ElementField) -> CgApplyResult {
        match self.state.next_op() {
            FaultAction::Ok => self.inner.try_apply_into(u, w),
            FaultAction::Corrupt => {
                self.inner.try_apply_into(u, w)?;
                // One flipped high exponent bit: drastic (it fails residual
                // verification at any practical tolerance) yet finite, so
                // downstream arithmetic never sees a NaN it could propagate.
                if let Some(entry) = w.as_mut_slice().get_mut(self.upset) {
                    *entry = corrupt_value(*entry);
                }
                Ok(())
            }
            FaultAction::Fail(DeviceError::Dead { at_op }) => Err(SolveFault::DeviceDead { at_op }),
            FaultAction::Fail(DeviceError::Hung { at_op }) => Err(SolveFault::KernelHung { at_op }),
        }
    }

    fn flops_per_application(&self) -> u64 {
        self.inner.flops_per_application()
    }

    fn seconds_per_application(&self) -> Option<f64> {
        self.inner
            .seconds_per_application()
            .map(|s| s * self.state.slowdown_factor())
    }
}

impl AxBackend for FaultyBackend {
    fn label(&self) -> Cow<'static, str> {
        // Transparent on purpose: answers retried onto an equivalent healthy
        // backend must be indistinguishable from a fault-free run.
        self.inner.label()
    }

    fn geometry(&self) -> &Arc<GeometricFactors> {
        self.inner.geometry()
    }

    fn apply_many(&self, us: &[ElementField], ws: &mut [ElementField]) {
        self.inner.apply_many(us, ws);
    }

    fn fuses_dssum(&self) -> bool {
        self.inner.fuses_dssum()
    }

    fn simulated_seconds_per_batch(&self, batch: usize) -> Option<f64> {
        self.inner
            .simulated_seconds_per_batch(batch)
            .map(|s| s * self.state.slowdown_factor())
    }

    fn power_watts(&self) -> Option<f64> {
        self.inner.power_watts()
    }

    fn offload_plan(&self) -> Option<OffloadPlan> {
        self.inner.offload_plan()
    }

    fn precond_on_device(&self, precond: PrecondSpec) -> bool {
        self.inner.precond_on_device(precond)
    }

    fn simulated_seconds_per_precond(&self, precond: PrecondSpec) -> Option<f64> {
        self.inner
            .simulated_seconds_per_precond(precond)
            .map(|s| s * self.state.slowdown_factor())
    }

    fn precond_table_bytes(&self, precond: PrecondSpec) -> u64 {
        self.inner.precond_table_bytes(precond)
    }

    fn fpga_accelerator(&self) -> Option<&FpgaAccelerator> {
        self.inner.fpga_accelerator()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CpuBackend;
    use crate::SemSystem;
    use fpga_sim::{FaultKind, FaultPlan, ScheduledFault};
    use sem_kernel::AxImplementation;
    use sem_mesh::BoxMesh;
    use sem_solver::CgOptions;

    fn wrapped(plan: FaultPlan) -> (FaultyBackend, BoxMesh) {
        let mesh = BoxMesh::unit_cube(3, 2);
        let inner = Box::new(CpuBackend::new(&mesh, AxImplementation::Specialized));
        (
            FaultyBackend::new(
                inner,
                Arc::new(FaultState::new(plan)),
                mesh.element_counts(),
            ),
            mesh,
        )
    }

    fn at_op(at_op: u64, kind: FaultKind) -> Option<Arc<FaultState>> {
        let plan = FaultPlan::new(vec![ScheduledFault { at_op, kind }]);
        Some(Arc::new(FaultState::new(plan)))
    }

    #[test]
    fn healthy_wrapper_is_bitwise_transparent() {
        let (faulty, mesh) = wrapped(FaultPlan::none());
        let clean = CpuBackend::new(&mesh, AxImplementation::Specialized);
        let u = mesh.evaluate(|x, y, z| x * y + z);
        let mut w_faulty = ElementField::zeros(3, 8);
        let mut w_clean = ElementField::zeros(3, 8);
        faulty.try_apply_into(&u, &mut w_faulty).unwrap();
        clean.apply_into(&u, &mut w_clean);
        assert_eq!(w_faulty.as_slice(), w_clean.as_slice());
        assert_eq!(faulty.label(), clean.label());
    }

    #[test]
    fn transient_corrupts_one_application_then_recovers() {
        let (faulty, mesh) = wrapped(FaultPlan::new(vec![ScheduledFault {
            at_op: 1,
            kind: FaultKind::Transient,
        }]));
        let u = mesh.evaluate(|x, y, z| x + y + z);
        let mut reference = ElementField::zeros(3, 8);
        faulty.try_apply_into(&u, &mut reference).unwrap(); // op 0: clean
        let mut corrupted = ElementField::zeros(3, 8);
        faulty.try_apply_into(&u, &mut corrupted).unwrap(); // op 1: upset
        assert_ne!(reference.as_slice(), corrupted.as_slice());
        // Exactly one entry differs — a single-event upset, not noise.
        let diffs = reference
            .as_slice()
            .iter()
            .zip(corrupted.as_slice())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
        let mut recovered = ElementField::zeros(3, 8);
        faulty.try_apply_into(&u, &mut recovered).unwrap(); // op 2: clean
        assert_eq!(reference.as_slice(), recovered.as_slice());
    }

    #[test]
    fn death_surfaces_as_a_typed_error() {
        let (faulty, mesh) = wrapped(FaultPlan::new(vec![ScheduledFault {
            at_op: 0,
            kind: FaultKind::Death,
        }]));
        let u = mesh.evaluate(|x, y, z| x * y * z);
        let mut w = ElementField::zeros(3, 8);
        assert_eq!(
            faulty.try_apply_into(&u, &mut w),
            Err(SolveFault::DeviceDead { at_op: 0 })
        );
        assert!(faulty.state().is_dead());
    }

    #[test]
    fn slowdown_scales_the_modelled_seconds() {
        let mesh = BoxMesh::unit_cube(4, 2);
        let device = fpga_sim::FpgaDevice::stratix10_gx2800();
        let geometry = Arc::new(sem_mesh::GeometricFactors::from_mesh(&mesh));
        let inner = Box::new(crate::exec::FpgaSimBackend::new(&mesh, geometry, device));
        let clean_seconds = inner.seconds_per_application().unwrap();
        let faulty = FaultyBackend::new(
            inner,
            at_op(0, FaultKind::Slowdown { factor: 3.0 }).unwrap(),
            mesh.element_counts(),
        );
        assert_eq!(faulty.seconds_per_application().unwrap(), clean_seconds);
        let u = mesh.evaluate(|x, y, z| x - y + z);
        let mut w = ElementField::zeros(4, 8);
        faulty.try_apply_into(&u, &mut w).unwrap();
        assert_eq!(
            faulty.seconds_per_application().unwrap(),
            3.0 * clean_seconds
        );
    }

    #[test]
    fn a_degree_one_transient_changes_the_answer() {
        // Degree-1 elements have no interior node: the upset must land on
        // an interior mesh vertex, not on a vertex the mask zeroes away.
        for name in ["cpu:specialized", "fpga:stratix10-gx2800"] {
            let solve = |fault_state| {
                let system = SemSystem::builder()
                    .degree(1)
                    .elements([2, 2, 2])
                    .backend_named(name)
                    .fault_state(fault_state)
                    .build();
                system.solve(CgOptions::default()).solution.solution
            };
            let state = at_op(0, FaultKind::Transient);
            let faulted = solve(state.clone());
            let clean = solve(None);
            assert_eq!(state.unwrap().injected(), 1, "{name}");
            assert_ne!(faulted.as_slice(), clean.as_slice(), "{name}");
        }
    }

    #[test]
    fn a_slowdown_is_priced_from_the_next_application_on() {
        // The CG reads the price before each application, so the slowed op
        // itself is charged at full price and every later op at 3x.
        const SLOWED_AT: usize = 2;
        let system = SemSystem::builder()
            .degree(3)
            .elements([2, 2, 2])
            .backend_named("fpga:stratix10-gx2800")
            .fault_state(at_op(SLOWED_AT as u64, FaultKind::Slowdown { factor: 3.0 }))
            .build();
        let s = system.execution().seconds_per_application().unwrap();
        let cg = system.solve(CgOptions::default()).solution.cg;
        assert!(cg.operator_applications > SLOWED_AT + 1);
        let expect = (0..cg.operator_applications)
            .map(|op| if op <= SLOWED_AT { s } else { 3.0 * s })
            .fold(0.0, |total, seconds| total + seconds);
        assert_eq!(cg.operator_seconds, expect);
    }
}
