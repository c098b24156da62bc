//! Functional + timing execution of the simulated accelerator.
//!
//! [`FpgaAccelerator::execute`] produces the actual kernel output together
//! with a cycle-level timing estimate.  The functional datapath is the
//! kernel table the host operators run (the [`DegreeDispatch`] resolved for
//! the design's degree: the specialized family, or the generic kernels
//! off-range), so a simulated board's numbers are bitwise those of
//! `cpu:specialized`.  The timing follows the design parameters:
//!
//! * the unrolled datapath retires `T / II` DOFs per cycle when fed,
//!   halved if the unroll factor does not divide `N+1` (BRAM arbitration);
//! * the external memory feeds at most `B_eff / 64` DOFs per cycle, where
//!   `B_eff` follows the allocation policy and the problem-size ramp of
//!   [`crate::memory::MemorySystem`];
//! * each element pays a pipeline fill/drain of `2 (N+1)` cycles and each
//!   kernel launch a fixed overhead, which is what bends the small-problem
//!   end of Fig. 1;
//! * the unpipelined baseline stage is modelled separately (serial FP
//!   latency and uncoalesced accesses), reproducing the ~0.025 GFLOP/s
//!   starting point of the Section III ladder.

use crate::design::{AcceleratorDesign, OptimizationStage};
use crate::memory::MemorySystem;
use crate::power::PowerModel;
use crate::synthesis::{synthesize, SynthesisReport};
use perf_model::FpgaDevice;
use sem_basis::DerivativeMatrix;
use sem_kernel::DegreeDispatch;
use sem_mesh::{ElementField, GeometricFactors};
use sem_obs::{recorder, Scope, SpanEvent, SpanKind};
use serde::{Deserialize, Serialize};

/// Kernel-launch overhead in cycles (queue submission, control, DMA setup).
pub const LAUNCH_OVERHEAD_CYCLES: f64 = 2_000.0;

/// Serial floating-point latency (cycles per FLOP) of the unpipelined
/// baseline design.
pub const BASELINE_FLOP_LATENCY: f64 = 8.0;

/// Cycles per uncoalesced external word of the baseline design.
pub const BASELINE_WORD_LATENCY: f64 = 70.0;

/// HLS scheduling efficiency of the `LocalMemory` ladder stage (the compiler
/// still serialises parts of the datapath before the II=1 pragma is applied).
pub const LOCAL_MEMORY_STAGE_EFFICIENCY: f64 = 0.17;

/// Timing and efficiency figures of one simulated accelerator run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Polynomial degree.
    pub degree: usize,
    /// Number of elements processed.
    pub num_elements: usize,
    /// Total simulated kernel cycles.
    pub cycles: f64,
    /// Kernel clock used (MHz).
    pub kernel_clock_mhz: f64,
    /// Simulated wall time in seconds.
    pub seconds: f64,
    /// Achieved double-precision GFLOP/s.
    pub gflops: f64,
    /// Achieved throughput in DOFs per cycle.
    pub dofs_per_cycle: f64,
    /// Effective external bandwidth in GB/s.
    pub effective_bandwidth_gbs: f64,
    /// Board power estimate in watts.
    pub power_watts: f64,
    /// Power efficiency in GFLOP/s per watt.
    pub gflops_per_watt: f64,
}

/// Per-stage breakdown of a (possibly batched) kernel invocation's simulated
/// time — the compute-stage hook a host-side pipeline model builds on.
///
/// The serving layer (`sem-serve`) schedules the kernel as the middle stage
/// of an upload/compute/download pipeline; this struct tells it how much of
/// the compute stage is a fixed once-per-submission launch cost
/// ([`LAUNCH_OVERHEAD_CYCLES`]) versus per-application pipeline work, so a
/// batched submission can amortise the former without re-deriving the cycle
/// model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelStageTiming {
    /// Polynomial degree of the design.
    pub degree: usize,
    /// Elements per application.
    pub num_elements: usize,
    /// Applications in the batch.
    pub batch: usize,
    /// Kernel clock the figures assume (MHz).
    pub kernel_clock_mhz: f64,
    /// Fixed launch overhead, paid once per batched submission (seconds).
    pub launch_seconds: f64,
    /// Pipeline work (steady state plus per-element fill/drain) of one
    /// application (seconds).
    pub work_seconds_per_application: f64,
    /// Whole-batch compute-stage seconds: `launch + batch · work`.
    pub total_seconds: f64,
}

/// A simulated accelerator: a design synthesised onto a device.
#[derive(Debug, Clone)]
pub struct FpgaAccelerator {
    device: FpgaDevice,
    design: AcceleratorDesign,
    synthesis: SynthesisReport,
    memory: MemorySystem,
    power: PowerModel,
    derivative: DerivativeMatrix,
    /// The kernel table of the design's degree.
    dispatch: DegreeDispatch,
}

impl FpgaAccelerator {
    /// Synthesise `design` for `device` and construct the simulator.
    ///
    /// # Panics
    /// Panics if the design does not fit on the device.
    #[must_use]
    pub fn new(device: FpgaDevice, design: AcceleratorDesign) -> Self {
        let synthesis = synthesize(&design, &device);
        assert!(
            synthesis.fits,
            "design for degree {} does not fit on {}",
            design.degree, device.name
        );
        let memory = MemorySystem::of_device(&device, design.memory_allocation);
        let derivative = DerivativeMatrix::new(design.degree);
        let dispatch = DegreeDispatch::for_degree(design.degree);
        Self {
            device,
            design,
            synthesis,
            memory,
            power: PowerModel::stratix10_board(),
            derivative,
            dispatch,
        }
    }

    /// The production accelerator for `degree` on `device`.
    #[must_use]
    pub fn for_degree(degree: usize, device: &FpgaDevice) -> Self {
        Self::new(
            device.clone(),
            AcceleratorDesign::for_degree(degree, device),
        )
    }

    /// The synthesised design.
    #[must_use]
    pub fn design(&self) -> &AcceleratorDesign {
        &self.design
    }

    /// The synthesis report.
    #[must_use]
    pub fn synthesis(&self) -> &SynthesisReport {
        &self.synthesis
    }

    /// The device the accelerator is mapped onto.
    #[must_use]
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// The external-memory model the estimates run against.
    #[must_use]
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// Board power estimate for this design (W).
    #[must_use]
    pub fn power_watts(&self) -> f64 {
        self.power
            .board_power(&self.synthesis.utilisation, self.synthesis.fmax_mhz)
    }

    /// Estimate the timing of processing `num_elements` elements without
    /// running the numerics (used for the large Fig. 1/2 sweeps).
    #[must_use]
    pub fn estimate(&self, num_elements: usize) -> ExecutionReport {
        let degree = self.design.degree;
        let nx = degree + 1;
        let dofs_per_element = sem_basis::dofs_per_element(degree) as f64;
        let total_dofs = dofs_per_element * num_elements as f64;
        let flops_per_dof = sem_kernel::flops_per_dof(degree) as f64;
        let bytes_per_dof = sem_kernel::bytes_per_dof(degree) as f64;
        let total_bytes = bytes_per_dof * total_dofs;
        let f_mhz = self.synthesis.fmax_mhz;

        let cycles = match self.design.stage {
            OptimizationStage::Baseline => {
                // Serial, unpipelined, uncoalesced: latency-bound per FLOP and
                // per external word.
                total_dofs
                    * (flops_per_dof * BASELINE_FLOP_LATENCY
                        + (bytes_per_dof / 8.0) * BASELINE_WORD_LATENCY)
                    + LAUNCH_OVERHEAD_CYCLES
            }
            stage => {
                let ii = self.design.initiation_interval as f64;
                let mut compute_rate = self.design.unroll as f64 / ii;
                if !self.design.arbitration_free() {
                    // Arbitration on the shared scratch arrays roughly halves
                    // the issue rate (Section III-B).
                    compute_rate *= 0.5;
                }
                if stage == OptimizationStage::LocalMemory {
                    compute_rate *= LOCAL_MEMORY_STAGE_EFFICIENCY;
                }
                let memory_rate =
                    self.memory.effective_bytes_per_cycle(total_bytes, f_mhz) / bytes_per_dof;
                let steady_rate = compute_rate.min(memory_rate).max(1e-9);
                // Per-element pipeline fill/drain: about half the element
                // extent in cycles (calibrated against Table I's DOFs/cycle).
                let fill = 0.5 * nx as f64 * num_elements as f64;
                total_dofs / steady_rate + fill + LAUNCH_OVERHEAD_CYCLES
            }
        };

        let seconds = cycles / (f_mhz * 1e6);
        let gflops = flops_per_dof * total_dofs / seconds / 1e9;
        let dofs_per_cycle = total_dofs / cycles;
        let effective_bandwidth_gbs = total_bytes / seconds / 1e9;
        let power_watts = self.power_watts();

        ExecutionReport {
            degree,
            num_elements,
            cycles,
            kernel_clock_mhz: f_mhz,
            seconds,
            gflops,
            dofs_per_cycle,
            effective_bandwidth_gbs,
            power_watts,
            gflops_per_watt: gflops / power_watts,
        }
    }

    /// Estimate the timing of `batch` back-to-back kernel invocations
    /// submitted as one command-queue batch (the many-RHS serving shape):
    /// steady-state and pipeline fill/drain cycles scale with the batch,
    /// while the fixed launch overhead ([`LAUNCH_OVERHEAD_CYCLES`]) is paid
    /// once for the whole batch.
    ///
    /// The report's rate figures (GFLOP/s, DOFs/cycle, bandwidth) and
    /// `seconds`/`cycles` cover the **whole batch**; `num_elements` stays
    /// the per-application element count.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn estimate_batch(&self, num_elements: usize, batch: usize) -> ExecutionReport {
        assert!(batch > 0, "need at least one application in the batch");
        let single = self.estimate(num_elements);
        if batch == 1 {
            return single;
        }
        // Both the baseline and the pipelined stages charge the launch
        // overhead additively, so the per-application work is what remains.
        let work_cycles = (single.cycles - LAUNCH_OVERHEAD_CYCLES).max(0.0);
        let cycles = work_cycles * batch as f64 + LAUNCH_OVERHEAD_CYCLES;
        let seconds = cycles / (single.kernel_clock_mhz * 1e6);
        let total_dofs =
            sem_basis::dofs_per_element(self.design.degree) as f64 * num_elements as f64;
        let batch_dofs = total_dofs * batch as f64;
        let flops = sem_kernel::flops_per_dof(self.design.degree) as f64 * batch_dofs;
        let bytes = sem_kernel::bytes_per_dof(self.design.degree) as f64 * batch_dofs;
        let gflops = flops / seconds / 1e9;
        ExecutionReport {
            cycles,
            seconds,
            gflops,
            dofs_per_cycle: batch_dofs / cycles,
            effective_bandwidth_gbs: bytes / seconds / 1e9,
            gflops_per_watt: gflops / single.power_watts,
            ..single
        }
    }

    /// The launch/work split of one kernel invocation over `num_elements`
    /// elements — the stage-timing hook pipeline schedulers consume.
    #[must_use]
    pub fn stage_timing(&self, num_elements: usize) -> KernelStageTiming {
        self.batch_stage_timing(num_elements, 1)
    }

    /// The launch/work split of `batch` back-to-back invocations submitted
    /// as one command-queue batch.  Consistent with
    /// [`FpgaAccelerator::estimate_batch`]: `total_seconds` equals the
    /// batched estimate's seconds bitwise.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn batch_stage_timing(&self, num_elements: usize, batch: usize) -> KernelStageTiming {
        assert!(batch > 0, "need at least one application in the batch");
        let single = self.estimate(num_elements);
        let hz = single.kernel_clock_mhz * 1e6;
        let work_cycles = (single.cycles - LAUNCH_OVERHEAD_CYCLES).max(0.0);
        let timing = KernelStageTiming {
            degree: self.design.degree,
            num_elements,
            batch,
            kernel_clock_mhz: single.kernel_clock_mhz,
            launch_seconds: LAUNCH_OVERHEAD_CYCLES / hz,
            work_seconds_per_application: work_cycles / hz,
            // Delegate the total to the batched estimate itself so the two
            // stay consistent structurally, not by parallel maintenance.
            total_seconds: self.estimate_batch(num_elements, batch).seconds,
        };
        let obs = recorder();
        if obs.is_enabled() {
            // Cycle-model output only: deterministic by construction, stamped
            // relative to the submission (the serving pipeline re-anchors it).
            let start = obs.stamp(0.0);
            let end = obs.stamp(timing.total_seconds);
            obs.record(
                SpanEvent::new(SpanKind::SimStage, Scope::Deterministic, start, end)
                    .with_label(obs.intern(&self.device.name))
                    .with_index(batch as u64),
            );
            let labels = [("device", self.device.name.as_str())];
            obs.counter_add("sem_sim_launches_total", &labels, 1);
            obs.observe("sem_sim_stage_seconds", &labels, timing.total_seconds);
        }
        timing
    }

    /// Execute the kernel: compute `w = A u` for every element (numerically,
    /// on the host, standing in for the datapath) and return the result
    /// together with the timing estimate.
    ///
    /// # Panics
    /// Panics if the field and geometric factors do not match the design's
    /// degree.
    #[must_use]
    pub fn execute(
        &self,
        u: &ElementField,
        geometry: &GeometricFactors,
    ) -> (ElementField, ExecutionReport) {
        let mut w = ElementField::zeros(u.degree(), u.num_elements());
        let report = self.execute_into(u, geometry, &mut w);
        (w, report)
    }

    /// Execute the kernel into a preallocated output field and return the
    /// timing estimate: [`FpgaAccelerator::apply_into`] followed by
    /// [`FpgaAccelerator::estimate`].
    ///
    /// # Panics
    /// Panics if the fields and geometric factors do not match the design's
    /// degree and each other.
    pub fn execute_into(
        &self,
        u: &ElementField,
        geometry: &GeometricFactors,
        w: &mut ElementField,
    ) -> ExecutionReport {
        self.apply_into(u, geometry, w);
        self.estimate(u.num_elements())
    }

    /// The numeric pass alone: `w = A u` through the datapath, with no
    /// timing report (the per-iteration path of backend-routed solves,
    /// whose modelled seconds are priced once at setup).  The datapath
    /// reads the geometry's split planes in place, so repeated
    /// applications copy and allocate nothing.
    ///
    /// # Panics
    /// Panics if the fields and geometric factors do not match the design's
    /// degree and each other.
    pub fn apply_into(&self, u: &ElementField, geometry: &GeometricFactors, w: &mut ElementField) {
        self.check_operands(u, geometry, w);
        self.datapath(u.as_slice(), w.as_mut_slice(), geometry.planes());
    }

    /// Assert that the fields and geometric factors match the design's
    /// degree and each other.
    pub(crate) fn check_operands(
        &self,
        u: &ElementField,
        geometry: &GeometricFactors,
        w: &ElementField,
    ) {
        assert_eq!(
            geometry.degree(),
            self.design.degree,
            "geometry degree mismatch"
        );
        assert_eq!(u.degree(), self.design.degree, "field degree mismatch");
        assert_eq!(
            u.num_elements(),
            geometry.num_elements(),
            "element count mismatch"
        );
        assert_eq!(u.len(), w.len(), "output field size mismatch");
    }

    /// The functional datapath over a run of whole elements: the resolved
    /// kernel table, exactly as `cpu:specialized` runs it.  Multi-board
    /// execution feeds each board's element block through here.
    pub(crate) fn datapath(&self, u: &[f64], w: &mut [f64], planes: [&[f64]; 6]) {
        let (d, dt) = (self.derivative.d(), self.derivative.dt());
        self.dispatch
            .ax_apply_all(u, w, planes, d.as_slice(), dt.as_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_model::measured_table1;
    use sem_mesh::BoxMesh;

    #[test]
    fn production_designs_reproduce_table1_within_tolerance() {
        // The simulated GFLOP/s at 4096 elements must land near the measured
        // Table I values: within 12% for the paper's headline degrees 7, 11,
        // 15 and within 45% elsewhere (the paper's own model error reaches
        // 28% for the small degrees, whose effective bandwidth is anomalous).
        let device = FpgaDevice::stratix10_gx2800();
        for row in measured_table1() {
            let acc = FpgaAccelerator::for_degree(row.degree, &device);
            let est = acc.estimate(4096);
            let rel = (est.gflops - row.gflops).abs() / row.gflops;
            let tol = if matches!(row.degree, 7 | 11 | 15) {
                0.12
            } else {
                0.45
            };
            assert!(
                rel < tol,
                "degree {}: simulated {:.1} vs measured {:.1} GFLOP/s ({:.0}%)",
                row.degree,
                est.gflops,
                row.gflops,
                rel * 100.0
            );
        }
    }

    #[test]
    fn throughput_never_exceeds_the_model_bound() {
        // The simulator must respect the paper's T_max = 4 bound on this board.
        let device = FpgaDevice::stratix10_gx2800();
        for degree in [1, 3, 5, 7, 9, 11, 13, 15] {
            let acc = FpgaAccelerator::for_degree(degree, &device);
            for elements in [16, 256, 4096] {
                let est = acc.estimate(elements);
                assert!(
                    est.dofs_per_cycle <= 4.0 + 1e-9,
                    "degree {degree}, {elements} elements: {}",
                    est.dofs_per_cycle
                );
            }
        }
    }

    #[test]
    fn performance_ramps_with_problem_size() {
        let device = FpgaDevice::stratix10_gx2800();
        let acc = FpgaAccelerator::for_degree(7, &device);
        let small = acc.estimate(10);
        let medium = acc.estimate(512);
        let large = acc.estimate(8192);
        assert!(small.gflops < medium.gflops);
        assert!(medium.gflops < large.gflops);
        assert!(large.gflops > 100.0);
    }

    #[test]
    fn optimisation_ladder_reproduces_section_iii() {
        let device = FpgaDevice::stratix10_gx2800();
        let gflops: Vec<f64> = OptimizationStage::ladder()
            .iter()
            .map(|&stage| {
                let design = AcceleratorDesign::at_stage(7, &device, stage);
                FpgaAccelerator::new(device.clone(), design)
                    .estimate(4096)
                    .gflops
            })
            .collect();
        // 0.025 -> ~10 -> ~60 -> ~109 GFLOP/s: each rung must be a large
        // multiple of the previous one, and the end points must be close to
        // the paper's numbers.
        assert!(gflops[0] < 0.1, "baseline {:.3}", gflops[0]);
        assert!(gflops[1] / gflops[0] > 50.0, "local-memory jump");
        assert!(gflops[2] / gflops[1] > 3.0, "II=1 jump");
        assert!(gflops[3] > gflops[2], "banking jump");
        assert!((gflops[3] - 109.0).abs() < 15.0, "final {:.1}", gflops[3]);
    }

    #[test]
    fn execute_matches_the_reference_kernel() {
        let degree = 5;
        let mesh = BoxMesh::unit_cube(degree, 2);
        let geo = GeometricFactors::from_mesh(&mesh);
        let device = FpgaDevice::stratix10_gx2800();
        let acc = FpgaAccelerator::for_degree(degree, &device);
        let u = mesh.evaluate(|x, y, z| (2.0 * x).sin() + y * z);
        let (w, report) = acc.execute(&u, &geo);

        let dm = DerivativeMatrix::new(degree);
        let mut w_ref = vec![0.0; u.len()];
        sem_kernel::reference::ax_reference(u.as_slice(), &mut w_ref, &geo.to_interleaved(), &dm);
        for (a, b) in w.as_slice().iter().zip(&w_ref) {
            assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()));
        }
        // The datapath is the host's specialized kernel: bitwise equal.
        let host =
            sem_kernel::PoissonOperator::new(&mesh, sem_kernel::AxImplementation::Specialized);
        assert_eq!(w.as_slice(), host.apply(&u).as_slice());
        assert_eq!(report.num_elements, 8);
        assert!(report.seconds > 0.0);
        assert!(report.gflops_per_watt > 0.0);
    }

    #[test]
    fn batched_estimate_amortises_the_launch_overhead() {
        let device = FpgaDevice::stratix10_gx2800();
        let acc = FpgaAccelerator::for_degree(7, &device);
        let single = acc.estimate(64);
        assert_eq!(acc.estimate_batch(64, 1), single);
        for batch in [4, 16, 64] {
            let batched = acc.estimate_batch(64, batch);
            // Per-application seconds shrink (one launch overhead for the
            // whole batch) but never below the launch-free work itself.
            let per_app = batched.seconds / batch as f64;
            assert!(per_app < single.seconds, "batch {batch}: {per_app}");
            let work_seconds =
                (single.cycles - LAUNCH_OVERHEAD_CYCLES) / (single.kernel_clock_mhz * 1e6);
            assert!(per_app > work_seconds * (1.0 - 1e-12), "batch {batch}");
            assert!(batched.gflops > single.gflops);
            assert!(batched.dofs_per_cycle <= 4.0 + 1e-9, "throughput bound");
        }
    }

    #[test]
    fn stage_timing_splits_the_batched_estimate_consistently() {
        let device = FpgaDevice::stratix10_gx2800();
        let acc = FpgaAccelerator::for_degree(7, &device);
        let single = acc.stage_timing(64);
        assert_eq!(single.batch, 1);
        assert_eq!(single.total_seconds, acc.estimate(64).seconds);
        assert!(single.launch_seconds > 0.0);
        assert!(single.work_seconds_per_application > single.launch_seconds);
        for batch in [2, 16, 64] {
            let staged = acc.batch_stage_timing(64, batch);
            // Bitwise the same total as the batched estimate...
            assert_eq!(staged.total_seconds, acc.estimate_batch(64, batch).seconds);
            // ...with the launch paid once and the work per application.
            assert_eq!(staged.launch_seconds, single.launch_seconds);
            assert_eq!(
                staged.work_seconds_per_application,
                single.work_seconds_per_application
            );
        }
    }

    #[test]
    fn stratix10m_plus_matches_the_base_device_under_the_divisor_cap() {
        // `fpga:stratix10m` and `fpga:stratix10m-plus` produce bitwise
        // identical modeled seconds in the N = 7 `BENCH_batched.json` sweep.
        // That is not a catalogue bug: at N = 7 the power-of-two-divisor
        // arbitration constraint caps the unroll at T = 8 for both devices,
        // well below where the "-plus" variant's extra DSPs (8.7k vs 5.7k)
        // or bandwidth (600 vs 306 GB/s) would bind, and with identical
        // unroll, clock and base utilisation the cycle model coincides.
        let base = FpgaDevice::stratix10m();
        let plus = FpgaDevice::stratix10m_plus();
        for degree in [7_usize, 11] {
            let db = AcceleratorDesign::for_degree(degree, &base);
            let dp = AcceleratorDesign::for_degree(degree, &plus);
            assert_eq!(db.unroll, dp.unroll, "degree {degree}: divisor-capped");
            let ab = FpgaAccelerator::new(base.clone(), db);
            let ap = FpgaAccelerator::new(plus.clone(), dp);
            for elements in [64, 4096] {
                assert_eq!(
                    ab.estimate(elements).seconds.to_bits(),
                    ap.estimate(elements).seconds.to_bits(),
                    "degree {degree}, {elements} elements: same design, same seconds"
                );
            }
        }
    }

    #[test]
    fn stratix10m_plus_diverges_when_the_divisor_cap_lifts() {
        // At N = 15 the divisor constraint admits T = 16; only the "-plus"
        // variant has the DSPs and the 600 GB/s memory to sustain it, so the
        // two devices finally separate — the extra resources are really
        // there, they just need a degree whose N + 1 can use them.
        let base = FpgaDevice::stratix10m();
        let plus = FpgaDevice::stratix10m_plus();
        let db = AcceleratorDesign::for_degree(15, &base);
        let dp = AcceleratorDesign::for_degree(15, &plus);
        assert!(dp.unroll > db.unroll, "{} vs {}", dp.unroll, db.unroll);
        let ab = FpgaAccelerator::new(base, db);
        let ap = FpgaAccelerator::new(plus, dp);
        let sb = ab.estimate(4096).seconds;
        let sp = ap.estimate(4096).seconds;
        assert!(
            sp < 0.75 * sb,
            "-plus must be much faster at N = 15: {sp} vs {sb}"
        );
    }

    #[test]
    fn power_efficiency_beats_two_gflops_per_watt_at_degree_15() {
        // Table I: 2.12 GFLOP/s/W at N = 15.
        let device = FpgaDevice::stratix10_gx2800();
        let acc = FpgaAccelerator::for_degree(15, &device);
        let est = acc.estimate(4096);
        assert!(
            est.gflops_per_watt > 1.8 && est.gflops_per_watt < 2.5,
            "efficiency {}",
            est.gflops_per_watt
        );
    }
}
