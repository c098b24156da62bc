//! High-level SEM acceleration API.
//!
//! This crate is the public face of the workspace: it binds a spectral
//! element problem (mesh + operator + solver) to an execution *backend* the
//! way the paper's Fortran host binds Nekbone to either its CPU kernel or
//! the OpenCL bitstream — except that the backend is an open, trait-based
//! seam ([`AxBackend`]) and the **entire CG solve runs through it**, not
//! beside it.
//!
//! * [`backend::Backend`] — serde-friendly configuration with a string
//!   registry (`cpu:parallel`, `fpga:stratix10-gx2800`, `multi:4x520n`);
//! * [`exec`] — the [`AxBackend`] trait plus one shipped engine per device
//!   kind ([`CpuBackend`]; [`FpgaSimBackend`], which runs one simulated
//!   board or several with the elements partitioned across them).  The
//!   trait extends `sem_solver::LocalOperator`, which owns the apply, the
//!   fallible apply through which device faults surface, and the price; it
//!   adds the device hooks: a batched entry ([`AxBackend::apply_many`]),
//!   power, the offload plan, and the dssum and preconditioner claims that
//!   move where a pass is priced;
//! * [`faulty::FaultyBackend`] — a deterministic fault-injecting decorator
//!   over any backend (transient result corruption, scheduled death, sticky
//!   slowdown, hangs), driven by an `fpga_sim::FaultPlan`;
//! * [`system::SemSystem`] — a problem bound to a backend, with
//!   [`SemSystem::solve`] reporting measured wall-clock on CPUs and
//!   simulated kernel + transfer time on accelerators, and
//!   [`SemSystem::solve_many`] serving whole batches of right-hand sides
//!   with the offload transfer amortised across the batch and
//!   [`SolveReport`] carrying the serial (blocking) transfer accounting.
//!   How a batch's transfers overlap with its kernel is scheduled by
//!   `sem-serve`'s pipeline timeline, not here.
//!
//! ```
//! use sem_accel::{Backend, SemSystem};
//!
//! // A degree-7 box of 2x2x2 elements evaluated on the simulated FPGA.
//! let system = SemSystem::builder()
//!     .degree(7)
//!     .elements([2, 2, 2])
//!     .backend(Backend::fpga_simulated())
//!     .build();
//! let u = system.mesh().evaluate(|x, y, z| x * y * z);
//! let (w, report) = system.apply_operator(&u);
//! assert_eq!(w.len(), u.len());
//! assert!(report.gflops > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod exec;
pub mod faulty;
pub mod offload;
pub mod report;
pub mod system;

pub use backend::{Backend, ExecSpec};
pub use exec::{AxBackend, CpuBackend, FpgaSimBackend};
pub use faulty::FaultyBackend;
pub use offload::OffloadPlan;
pub use report::{PerfSource, PerfSummary};
pub use sem_solver::PrecondSpec;
pub use system::{SemSystem, SemSystemBuilder, SolveReport};
