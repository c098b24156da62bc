//! The matrix-free local Poisson operator (`Ax`, CEED "bake-off kernel" BK5).
//!
//! This crate implements the computational core of the paper: the
//! per-element, matrix-free evaluation
//!
//! \[w^e = A^e u^e = D^T G^e D\, u^e\]
//!
//! where `D` holds the one-dimensional GLL differentiation matrix applied
//! along the three tensor directions and `G^e` are the six geometric factors
//! per node (see `sem-mesh`).  [`AxImplementation`] selects one of three CPU
//! kernels:
//!
//! * `Reference` ([`reference`](mod@reference)) — a line-by-line port of the
//!   paper's Listing 1, operating on the interleaved `gxyz` layout.  This is
//!   the semantic ground truth; [`PoissonOperator`] builds the interleaved
//!   copy it reads only while this kernel is selected.
//! * `Specialized` (the default, [`specialized`]) — the split-layout kernel
//!   through one [`DegreeDispatch`] table per operator: degree-specialized
//!   const-generic families with `NX = N + 1` baked in for the hot degrees
//!   `N = 3..=15` (the Rust-native analogue of the paper's fixed-degree HLS
//!   datapath), and the generic split-layout kernel (crate-private
//!   `optimized`: `gxyz` split into six planes, loops reorganised for
//!   locality, the Section III-B transformations expressed on a CPU) on
//!   every other degree.  The two are bitwise identical, and the split
//!   planes are the only layout `sem-mesh` stores.
//! * `Parallel` ([`parallel`]) — the `Specialized` kernel fanned out over
//!   elements with Rayon, the multi-core CPU baseline of the evaluation.
//!
//! [`DegreeDispatch::for_degree`] is total: every host operator, the Rayon
//! fan-out, the FDM preconditioner (fine pass, coarse transfers and coarse
//! assembly) and the simulated FPGA datapath (`fpga-sim`) hold the table it
//! returns and call it, so no caller branches on whether a degree is
//! specialized.  To measure the generic kernels on a covered degree, swap in
//! [`DegreeDispatch::generic`] with [`PoissonOperator::pin_generic`].
//!
//! [`ops`] provides the FLOP / byte / DOF accounting used by every
//! benchmark, matching the closed forms of Section IV, and [`assemble`]
//! builds dense element matrices and operator diagonals for verification and
//! preconditioning.

#![deny(missing_docs)]
// `deny`, not `forbid`: two `#[allow(unsafe_code)]` blocks call the AVX2 and
// AVX-512F instantiations of the specialized kernels, behind runtime
// detection.
#![deny(unsafe_code)]

pub mod assemble;
pub mod fdm;
pub mod operator;
pub mod ops;
mod optimized;
pub mod parallel;
pub mod reference;
pub mod specialized;

pub use fdm::{fdm_bytes_per_dof, fdm_flops_per_element};
pub use operator::{AxImplementation, PoissonOperator};
pub use ops::{bytes_per_dof, flops_per_dof, operational_intensity, KernelCost, KernelTraffic};
pub use specialized::{kernel_structure, DegreeDispatch, KernelStructure};
