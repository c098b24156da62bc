//! Analytical performance model of the SEM FPGA accelerator.
//!
//! This crate is a self-contained implementation of Section IV of the paper:
//!
//! * [`cost`] — the per-DOF cost `C(N)`, traffic `Q(N)` and operational
//!   intensity `I(N)`;
//! * [`roofline`] — the classical roofline bound used for every architecture
//!   in the evaluation;
//! * [`resources`] — the FPGA resource vector, the per-FPU resource costs
//!   (`R_add`, `R_mul`) and the compute resource requirement `R_comp(N, T)`;
//! * [`device`] — FPGA device descriptions, including the evaluated
//!   Stratix 10 GX2800 and the three projected devices of Section V-D
//!   (Agilex 027, Stratix 10M and the hypothetical "ideal" FPGA);
//! * [`measured`] — the paper's Table I measurements for the eight
//!   synthesised accelerators, used both as the calibration source for the
//!   empirical base utilisation `R_base(N)` and as the reference data the
//!   reproduction is compared against;
//! * [`throughput`] — the bandwidth bound `T_B`, the resource bound, the
//!   power-of-two arbitration constraint and the resulting peak performance
//!   `P_max(N)`;
//! * [`padding`] — the padding penalty analysis of Section III-E / IV;
//! * [`projection`] — performance projection for arbitrary devices and the
//!   inverse question ("what FPGA would beat an A100?");
//! * [`serving`] — latency percentiles and the host roofline cost model
//!   serving placement prices measured backends with;
//! * [`calibration`] — the drift-report helper naming which model term a
//!   drifting serving stage implicates, and the [`calibration::DriftCorrector`]
//!   that turns measured residuals into a multiplicative prediction fix;
//! * [`workload`] — seeded open-loop arrival-time generators (Poisson,
//!   bursty, diurnal) for the live serving bench.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibration;
pub mod cost;
pub mod device;
pub mod measured;
pub mod padding;
pub mod projection;
pub mod resources;
pub mod roofline;
pub mod sensitivity;
pub mod serving;
pub mod throughput;
pub mod workload;

pub use calibration::{suspect_term, DriftCorrector, StageDriftCorrector};
pub use cost::{bytes_per_dof, flops_per_dof, operational_intensity, KernelCost, KernelTraffic};
pub use device::FpgaDevice;
pub use measured::{measured_table1, Table1Row};
pub use projection::{project_device, DegreeProjection, ProjectionOutcome};
pub use resources::{FpuCost, ResourceVector};
pub use roofline::roofline_gflops;
pub use serving::{nearest_rank_percentile, HostCostModel};
pub use throughput::{PerformanceBound, ThroughputPrediction};
pub use workload::{arrival_times, WorkloadKind};
