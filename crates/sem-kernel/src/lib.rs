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
//! * `Specialized` (the default, [`specialized`]) — degree-specialized
//!   codegen: const-generic kernel families with `NX = N + 1` baked in for
//!   the hot degrees `N = 3..=15`, resolved once via
//!   [`specialized::DegreeDispatch`] (the Rust-native analogue of the paper's
//!   fixed-degree HLS datapath).  Off-range degrees run the generic
//!   split-layout kernel (crate-private `optimized`): `gxyz` split into six
//!   planes, loop structure reorganised for locality (the Section III-B
//!   transformations expressed on a CPU).  The two are bitwise identical,
//!   and the split planes are the only layout `sem-mesh` stores.
//! * `Parallel` ([`parallel`]) — the `Specialized` kernel fanned out over
//!   elements with Rayon, the multi-core CPU baseline of the evaluation.
//!
//! [`specialized::ax_split`] is the one split-layout `Ax` entry: every host
//! operator, the Rayon fan-out, the FDM coarse assembly and the simulated
//! FPGA datapath (`fpga-sim`) call it with their resolved dispatch, and it
//! runs the generic kernel only when none is resolved.  To measure the
//! generic kernel on a covered degree, pin it with
//! [`PoissonOperator::pin_generic`].
//!
//! [`ops`] provides the FLOP / byte / DOF accounting used by every
//! benchmark, matching the closed forms of Section IV, and [`assemble`]
//! builds dense element matrices and operator diagonals for verification and
//! preconditioning.

#![deny(missing_docs)]
// `deny`, not `forbid`: one `#[allow(unsafe_code)]` block calls the AVX2
// instantiation of the specialized kernels, behind runtime detection.
#![deny(unsafe_code)]

pub mod assemble;
pub mod fdm;
pub mod helmholtz;
pub mod operator;
pub mod ops;
mod optimized;
pub mod parallel;
pub mod reference;
pub mod specialized;

pub use fdm::{
    fdm_bytes_per_dof, fdm_flops_per_element, rcontract_x, rcontract_y, rcontract_z, FdmScratch,
};
pub use helmholtz::{HelmholtzCost, HelmholtzOperator};
pub use operator::{AxImplementation, PoissonOperator};
pub use ops::{bytes_per_dof, flops_per_dof, operational_intensity, KernelCost, KernelTraffic};
pub use specialized::{kernel_structure, DegreeDispatch, KernelStructure};
