//! A fault-injecting wrapper around any execution backend.
//!
//! [`FaultyBackend`] decorates a `Box<dyn AxBackend>` with a shared
//! [`FaultState`]: every *fallible* application consults the state's
//! deterministic schedule and either applies normally, applies and corrupts
//! the result (a transient upset the caller can only catch by residual
//! verification), or fails with a typed [`DeviceError`] (death, hang).
//! Sticky slowdown multiplies the backend's modelled seconds, so degraded
//! devices show up in timeout budgets rather than as errors.
//!
//! The wrapper is transparent in every other respect — label, cost model,
//! offload plan, preconditioner claims — so a request retried onto the same
//! backend class past its faulted ops produces bitwise the answer of a
//! fault-free run.

use crate::exec::AxBackend;
use crate::offload::OffloadPlan;
use crate::report::PerfSource;
use fpga_sim::{corrupt_value, DeviceError, FaultAction, FaultState, FpgaAccelerator};
use sem_mesh::{ElementField, GatherScatter, GeometricFactors};
use sem_solver::PrecondSpec;
use std::borrow::Cow;
use std::sync::Arc;

/// A backend that consults a deterministic [`FaultState`] on every fallible
/// application.  See the module docs for semantics.
pub struct FaultyBackend {
    inner: Box<dyn AxBackend>,
    state: Arc<FaultState>,
}

impl FaultyBackend {
    /// Wrap `inner` with the shared fault state.
    #[must_use]
    pub fn new(inner: Box<dyn AxBackend>, state: Arc<FaultState>) -> Self {
        Self { inner, state }
    }

    /// The shared fault state (health, slowdown, injection counts).
    #[must_use]
    pub fn state(&self) -> &Arc<FaultState> {
        &self.state
    }

    /// Flip one high exponent bit of one output entry — the modelled
    /// single-event upset.  Drastic (guaranteed to fail residual
    /// verification at any practical tolerance) yet finite, so downstream
    /// arithmetic never sees a NaN it could silently propagate.
    ///
    /// The upset lands on an element-*interior* node of a middle element:
    /// interior nodes have gather–scatter multiplicity one and are never
    /// Dirichlet-masked, so the corruption survives to the caller instead
    /// of being averaged or zeroed away by the host's dssum/mask passes —
    /// a fault the detection layer must genuinely catch.
    fn corrupt(w: &mut ElementField) {
        let n = w.degree();
        let points = n + 1;
        let c = (n / 2).max(1);
        let node = c * points * points + c * points + c;
        let index = (w.num_elements() / 2) * points * points * points + node;
        if let Some(entry) = w.as_mut_slice().get_mut(index) {
            *entry = corrupt_value(*entry);
        }
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

    fn apply_into(&self, u: &ElementField, w: &mut ElementField) {
        // The infallible path has no way to report a failure, so it
        // bypasses injection entirely (and does not advance the op
        // counter): faults only surface where the caller can observe them.
        self.inner.apply_into(u, w);
    }

    fn try_apply_into(&self, u: &ElementField, w: &mut ElementField) -> Result<(), DeviceError> {
        match self.state.next_op() {
            FaultAction::Ok => self.inner.try_apply_into(u, w),
            FaultAction::Corrupt => {
                self.inner.try_apply_into(u, w)?;
                Self::corrupt(w);
                Ok(())
            }
            FaultAction::Fail(error) => Err(error),
        }
    }

    fn try_apply_dssum_into(
        &self,
        u: &ElementField,
        gather_scatter: &GatherScatter,
        w: &mut ElementField,
    ) -> Result<(), DeviceError> {
        match self.state.next_op() {
            FaultAction::Ok => self.inner.try_apply_dssum_into(u, gather_scatter, w),
            FaultAction::Corrupt => {
                self.inner.try_apply_dssum_into(u, gather_scatter, w)?;
                Self::corrupt(w);
                Ok(())
            }
            FaultAction::Fail(error) => Err(error),
        }
    }

    fn apply_many(&self, us: &[ElementField], ws: &mut [ElementField]) {
        self.inner.apply_many(us, ws);
    }

    fn fuses_dssum(&self) -> bool {
        self.inner.fuses_dssum()
    }

    fn apply_dssum_into(
        &self,
        u: &ElementField,
        gather_scatter: &GatherScatter,
        w: &mut ElementField,
    ) {
        self.inner.apply_dssum_into(u, gather_scatter, w);
    }

    fn flops_per_application(&self) -> u64 {
        self.inner.flops_per_application()
    }

    fn dofs_per_application(&self) -> u64 {
        self.inner.dofs_per_application()
    }

    fn perf_source(&self) -> PerfSource {
        self.inner.perf_source()
    }

    fn simulated_seconds_per_application(&self) -> Option<f64> {
        self.inner
            .simulated_seconds_per_application()
            .map(|s| s * self.state.slowdown_factor())
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
    use fpga_sim::{FaultKind, FaultPlan, ScheduledFault};
    use sem_kernel::AxImplementation;
    use sem_mesh::BoxMesh;

    fn wrapped(plan: FaultPlan) -> (FaultyBackend, BoxMesh) {
        let mesh = BoxMesh::unit_cube(3, 2);
        let inner = Box::new(CpuBackend::new(&mesh, AxImplementation::Specialized));
        (
            FaultyBackend::new(inner, Arc::new(FaultState::new(plan))),
            mesh,
        )
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
            Err(DeviceError::Dead { at_op: 0 })
        );
        assert!(faulty.state().is_dead());
    }

    #[test]
    fn slowdown_scales_the_modelled_seconds() {
        let mesh = BoxMesh::unit_cube(4, 2);
        let device = fpga_sim::FpgaDevice::stratix10_gx2800();
        let geometry = Arc::new(sem_mesh::GeometricFactors::from_mesh(&mesh));
        let inner = Box::new(crate::exec::FpgaSimBackend::new(&mesh, geometry, device));
        let clean_seconds = inner.simulated_seconds_per_application().unwrap();
        let faulty = FaultyBackend::new(
            inner,
            Arc::new(FaultState::new(FaultPlan::new(vec![ScheduledFault {
                at_op: 0,
                kind: FaultKind::Slowdown { factor: 3.0 },
            }]))),
        );
        assert_eq!(
            faulty.simulated_seconds_per_application().unwrap(),
            clean_seconds
        );
        let u = mesh.evaluate(|x, y, z| x - y + z);
        let mut w = ElementField::zeros(4, 8);
        faulty.try_apply_into(&u, &mut w).unwrap();
        assert_eq!(
            faulty.simulated_seconds_per_application().unwrap(),
            3.0 * clean_seconds
        );
    }
}
