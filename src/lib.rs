//! `semfpga` — a Rust reproduction of *"High-Performance Spectral Element
//! Methods on Field-Programmable Gate Arrays"* (Karp et al., IPDPS 2021).
//!
//! This facade crate re-exports the whole workspace so applications can pull
//! in a single dependency:
//!
//! * [`basis`] — Legendre polynomials, GLL quadrature, differentiation
//!   matrices (`sem-basis`);
//! * [`mesh`] — hexahedral box meshes, geometric factors, gather–scatter,
//!   Dirichlet masks (`sem-mesh`);
//! * [`kernel`] — the matrix-free local Poisson operator `Ax` / CEED BK5
//!   (`sem-kernel`);
//! * [`solver`] — preconditioned conjugate gradients and the Nekbone-style
//!   proxy driver (`sem-solver`);
//! * [`fpga`] — the cycle-approximate accelerator simulator, device
//!   catalogue, synthesis and power models (`fpga-sim`);
//! * [`model`] — the paper's Section IV analytical performance model and the
//!   Section V-D projections (`perf-model`);
//! * [`archdb`] — the Table II architecture catalogue and calibrated CPU/GPU
//!   machine models (`arch-db`);
//! * [`accel`] — the high-level backend-selection API (`sem-accel`);
//! * [`serve`] — the pipelined, overlap-aware serving layer: solve queue,
//!   multi-device scheduler and offload-pipeline timeline (`sem-serve`);
//! * [`obs`] — deterministic tracing, metrics and model-drift telemetry for
//!   the whole solve/serve stack (`sem-obs`).
//!
//! See the `examples/` directory for runnable entry points and the `bench`
//! crate for the binaries regenerating every table and figure of the paper.
//!
//! Backends are selected by configuration (or registry name) and the entire
//! CG solve runs through the selected backend:
//!
//! ```
//! use semfpga::accel::{Backend, PerfSource, SemSystem};
//! use semfpga::solver::CgOptions;
//!
//! let system = SemSystem::builder()
//!     .degree(7)
//!     .elements([2, 2, 2])
//!     .backend(Backend::fpga_simulated()) // or .backend_named("fpga:stratix10-gx2800")
//!     .build();
//! let report = system.solve(CgOptions::default());
//! assert!(report.converged());
//! // The solve was executed (and accounted) by the simulated accelerator:
//! assert_eq!(report.source, PerfSource::Simulated);
//! assert!(report.operator.seconds > 0.0);
//! assert!(report.operator.power_watts.is_some());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use arch_db as archdb;
pub use fpga_sim as fpga;
pub use perf_model as model;
pub use sem_accel as accel;
pub use sem_basis as basis;
pub use sem_kernel as kernel;
pub use sem_mesh as mesh;
pub use sem_obs as obs;
pub use sem_serve as serve;
pub use sem_solver as solver;
