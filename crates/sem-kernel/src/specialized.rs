//! Degree-specialized tensor-contraction kernels (const-generic codegen).
//!
//! The paper's accelerator (Section III-B, Listing 1) owes its throughput to
//! specializing the datapath to one polynomial degree: loop trip counts,
//! unroll factors and array partitioning are HLS *compile-time* constants.
//! The generic CPU kernels (the split-layout `Ax` and [`crate::fdm`]) carry
//! `nx` as a runtime value, so LLVM can neither fully unroll the unit-stride
//! inner dimensions nor keep the differentiation rows in registers.  This
//! module is the Rust-native analogue of that HLS specialization: one
//! monomorphized kernel family per hot degree `N = 3..=15`, generated from a
//! single const-generic contraction core with `NX = N + 1` baked in.
//!
//! Three properties are contractual:
//!
//! * **Bitwise parity.**  Every specialized kernel performs the *same*
//!   floating-point operations in the *same* order as its generic
//!   counterpart (`ax_element_split`, `fdm_element_apply`, the coarse
//!   `rcontract_*` chain); only the trip counts are compile-time.  Results
//!   are therefore bitwise identical, and the `cpu:optimized` backend can
//!   auto-upgrade to the specialized path without perturbing any solve.
//! * **Fixed-size, allocation-free scratch.**  Element scratch is
//!   `[f64; NX·NX·NX]`-backed (six banks, one per intermediate plane —
//!   mirroring the accelerator's BRAM banks), boxed once per thread and
//!   reused for every application.
//! * **One dispatch.**  [`DegreeDispatch::for_degree`] resolves the whole
//!   kernel family once at session/backend setup; out-of-range degrees get
//!   `None` and callers fall back to the generic path.
//!
//! The generated kernels also export their structural constants
//! ([`KernelStructure`]): the unroll width of the unit-stride inner
//! dimension, the scratch bank count, and the initiation interval the fully
//! unrolled dot products sustain.  `fpga_sim::AcceleratorDesign` derives its
//! design parameters from these instead of hand-picked constants, so the
//! measured CPU kernel and the modeled FPGA datapath share one source of
//! truth.

use crate::optimized::ax_optimized;
use sem_basis::DerivativeMatrix;

/// Smallest specialized degree.
pub const MIN_DEGREE: usize = 3;

/// Largest specialized degree.
pub const MAX_DEGREE: usize = 15;

/// Coarse points per direction the specialized coarse-transfer kernels are
/// generated for (`c + 1` with the degree-2 Galerkin coarse space).
pub const COARSE_POINTS: usize = 3;

/// Largest power of two dividing `n` (the arbitration-free vector width of
/// Section III-B: a power-of-two unroll that divides `N + 1` needs no BRAM
/// arbitration).
const fn largest_pow2_divisor(n: usize) -> usize {
    if n == 0 {
        1
    } else {
        1 << n.trailing_zeros()
    }
}

/// Structural constants of one generated kernel, exported so the FPGA design
/// model consumes the *actual* codegen parameters instead of recomputing
/// them from the degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStructure {
    /// Polynomial degree `N` the kernel is specialized for.
    pub degree: usize,
    /// GLL points per direction, `NX = N + 1` (every loop trip count).
    pub points: usize,
    /// Vector width of the fully unrolled unit-stride inner dimension: the
    /// largest power of two dividing `NX`, so lanes never straddle a pencil
    /// (the paper's arbitration-free unroll rule).
    pub unroll: usize,
    /// Fixed-size scratch banks the kernel partitions its intermediates
    /// into (`ur/us/ut/shur/shus/shut` — one BRAM bank each on the
    /// accelerator).
    pub scratch_banks: usize,
    /// Initiation interval of the contraction loops: with the dot products
    /// fully unrolled there is no loop-carried dependence, so new operands
    /// issue every cycle.
    pub initiation_interval: usize,
}

impl KernelStructure {
    /// The structure of the generated kernel for `points = N + 1` grid
    /// points per direction.
    #[must_use]
    pub const fn for_points(points: usize) -> Self {
        Self {
            degree: points - 1,
            points,
            unroll: largest_pow2_divisor(points),
            scratch_banks: 6,
            initiation_interval: 1,
        }
    }
}

/// The structural constants of the generated kernel for `degree`, or `None`
/// when the degree is outside the specialized range.
#[must_use]
pub fn kernel_structure(degree: usize) -> Option<KernelStructure> {
    if (MIN_DEGREE..=MAX_DEGREE).contains(&degree) {
        Some(KernelStructure::for_points(degree + 1))
    } else {
        None
    }
}

/// Fixed-size element scratch: six `[f64; NPTS]` banks, one per intermediate
/// plane, mirroring [`crate::optimized::AxScratch`]'s six buffers (and the
/// accelerator's six BRAM banks).  Boxed once per thread.
struct SpecScratch<const NPTS: usize> {
    ur: [f64; NPTS],
    us: [f64; NPTS],
    ut: [f64; NPTS],
    shur: [f64; NPTS],
    shus: [f64; NPTS],
    shut: [f64; NPTS],
}

impl<const NPTS: usize> SpecScratch<NPTS> {
    fn boxed() -> Box<Self> {
        Box::new(Self {
            ur: [0.0; NPTS],
            us: [0.0; NPTS],
            ut: [0.0; NPTS],
            shur: [0.0; NPTS],
            shus: [0.0; NPTS],
            shut: [0.0; NPTS],
        })
    }
}

/// One element's `w = Dᵀ G D u` with `NX` as a compile-time constant.
///
/// Mirrors the generic `ax_element_split` operation for operation
/// (same loops, same accumulation order — results are bitwise identical);
/// the const trip counts let LLVM fully unroll the `0..NX` dot products and
/// elide the bounds checks against the fixed-size scratch.
#[allow(clippy::needless_range_loop)] // mirrors the generic kernel's explicit stride arithmetic
fn ax_element_core<const NX: usize, const NPTS: usize>(
    u: &[f64],
    w: &mut [f64],
    g: [&[f64]; 6],
    d: &[f64],
    dt: &[f64],
    scratch: &mut SpecScratch<NPTS>,
) {
    debug_assert_eq!(NPTS, NX * NX * NX);
    assert_eq!(u.len(), NPTS);
    assert_eq!(w.len(), NPTS);
    assert_eq!(d.len(), NX * NX);
    assert_eq!(dt.len(), NX * NX);
    for plane in g {
        assert_eq!(plane.len(), NPTS);
    }
    let nxy = NX * NX;

    {
        let ur = &mut scratch.ur;
        let us = &mut scratch.us;
        let ut = &mut scratch.ut;
        ur.iter_mut().for_each(|v| *v = 0.0);
        us.iter_mut().for_each(|v| *v = 0.0);
        ut.iter_mut().for_each(|v| *v = 0.0);

        // r-direction: for each (j,k) row, small dense mat-vec.
        for k in 0..NX {
            for j in 0..NX {
                let row = j * NX + k * nxy;
                for i in 0..NX {
                    let mut acc = 0.0;
                    let drow = &d[i * NX..(i + 1) * NX];
                    let urow = &u[row..row + NX];
                    for l in 0..NX {
                        acc += drow[l] * urow[l];
                    }
                    ur[i + row] = acc;
                }
            }
        }
        // s-direction.
        for k in 0..NX {
            for j in 0..NX {
                let drow = &d[j * NX..(j + 1) * NX];
                for l in 0..NX {
                    let dv = drow[l];
                    let src = l * NX + k * nxy;
                    let dst = j * NX + k * nxy;
                    for i in 0..NX {
                        us[i + dst] += dv * u[i + src];
                    }
                }
            }
        }
        // t-direction.
        for k in 0..NX {
            let drow = &d[k * NX..(k + 1) * NX];
            for l in 0..NX {
                let dv = drow[l];
                let src = l * nxy;
                let dst = k * nxy;
                for ij in 0..nxy {
                    ut[ij + dst] += dv * u[ij + src];
                }
            }
        }
    }

    // Multiply by the geometric factors pointwise.
    for p in 0..NPTS {
        let (ur, us, ut) = (scratch.ur[p], scratch.us[p], scratch.ut[p]);
        scratch.shur[p] = g[0][p] * ur + g[1][p] * us + g[2][p] * ut;
        scratch.shus[p] = g[1][p] * ur + g[3][p] * us + g[4][p] * ut;
        scratch.shut[p] = g[2][p] * ur + g[4][p] * us + g[5][p] * ut;
    }

    // w = D^T_r shur + D^T_s shus + D^T_t shut.
    w.iter_mut().for_each(|v| *v = 0.0);
    for k in 0..NX {
        for j in 0..NX {
            let row = j * NX + k * nxy;
            for i in 0..NX {
                let mut acc = 0.0;
                let dtrow = &dt[i * NX..(i + 1) * NX];
                let srow = &scratch.shur[row..row + NX];
                for l in 0..NX {
                    acc += dtrow[l] * srow[l];
                }
                w[i + row] = acc;
            }
        }
    }
    for k in 0..NX {
        for j in 0..NX {
            let dtrow = &dt[j * NX..(j + 1) * NX];
            for l in 0..NX {
                let dv = dtrow[l];
                let src = l * NX + k * nxy;
                let dst = j * NX + k * nxy;
                for i in 0..NX {
                    w[i + dst] += dv * scratch.shus[i + src];
                }
            }
        }
    }
    for k in 0..NX {
        let dtrow = &dt[k * NX..(k + 1) * NX];
        for l in 0..NX {
            let dv = dtrow[l];
            let src = l * nxy;
            let dst = k * nxy;
            for ij in 0..nxy {
                w[ij + dst] += dv * scratch.shut[ij + src];
            }
        }
    }
}

/// The whole-field element loop over [`ax_element_core`] (the specialized
/// mirror of [`crate::optimized::ax_optimized_with`]).
fn ax_field_core<const NX: usize, const NPTS: usize>(
    u: &[f64],
    w: &mut [f64],
    g_planes: [&[f64]; 6],
    d: &[f64],
    dt: &[f64],
    scratch: &mut SpecScratch<NPTS>,
) {
    assert_eq!(u.len(), w.len());
    assert_eq!(u.len() % NPTS, 0);
    for plane in g_planes {
        assert_eq!(plane.len(), u.len(), "geometric plane length mismatch");
    }
    let num_elements = u.len() / NPTS;
    for e in 0..num_elements {
        let range = e * NPTS..(e + 1) * NPTS;
        let g = [
            &g_planes[0][range.clone()],
            &g_planes[1][range.clone()],
            &g_planes[2][range.clone()],
            &g_planes[3][range.clone()],
            &g_planes[4][range.clone()],
            &g_planes[5][range.clone()],
        ];
        ax_element_core::<NX, NPTS>(&u[range.clone()], &mut w[range.clone()], g, d, dt, scratch);
    }
}

/// Square x-contraction with const trip counts (mirrors
/// [`crate::fdm::rcontract_x`] at `rows = cols = d2 = d3 = NX`).
#[allow(clippy::needless_range_loop)] // mirrors the generic kernel's explicit stride arithmetic
fn contract_x_core<const NX: usize>(m: &[f64], u: &[f64], out: &mut [f64]) {
    for p in 0..NX * NX {
        let urow = &u[p * NX..(p + 1) * NX];
        let orow = &mut out[p * NX..(p + 1) * NX];
        for (i, o) in orow.iter_mut().enumerate() {
            let mrow = &m[i * NX..(i + 1) * NX];
            let mut acc = 0.0;
            for l in 0..NX {
                acc += mrow[l] * urow[l];
            }
            *o = acc;
        }
    }
}

/// Square y-contraction with const trip counts (mirrors
/// [`crate::fdm::rcontract_y`]).
fn contract_y_core<const NX: usize>(m: &[f64], u: &[f64], out: &mut [f64]) {
    out[..NX * NX * NX].iter_mut().for_each(|v| *v = 0.0);
    for k in 0..NX {
        for j in 0..NX {
            let mrow = &m[j * NX..(j + 1) * NX];
            let dst = (j + k * NX) * NX;
            for (l, &mv) in mrow.iter().enumerate() {
                let src = (l + k * NX) * NX;
                for i in 0..NX {
                    out[dst + i] += mv * u[src + i];
                }
            }
        }
    }
}

/// Square z-contraction with const trip counts (mirrors
/// [`crate::fdm::rcontract_z`]).
fn contract_z_core<const NX: usize>(m: &[f64], u: &[f64], out: &mut [f64]) {
    let plane = NX * NX;
    out[..plane * NX].iter_mut().for_each(|v| *v = 0.0);
    for k in 0..NX {
        let mrow = &m[k * NX..(k + 1) * NX];
        let dst = k * plane;
        for (l, &mv) in mrow.iter().enumerate() {
            let src = l * plane;
            for p in 0..plane {
                out[dst + p] += mv * u[src + p];
            }
        }
    }
}

/// One element's fast-diagonalization solve with const trip counts (mirrors
/// [`crate::fdm::fdm_element_apply`]: three forward contractions, the modal
/// scale, three back).
fn fdm_element_core<const NX: usize, const NPTS: usize>(
    s: [&[f64]; 3],
    st: [&[f64]; 3],
    inv: &[f64],
    r: &[f64],
    z: &mut [f64],
    scratch: &mut SpecScratch<NPTS>,
) {
    debug_assert_eq!(NPTS, NX * NX * NX);
    assert_eq!(r.len(), NPTS);
    assert_eq!(z.len(), NPTS);
    assert_eq!(inv.len(), NPTS);
    let SpecScratch { ur: t1, us: t2, .. } = scratch;

    contract_x_core::<NX>(st[0], r, t1);
    contract_y_core::<NX>(st[1], t1, t2);
    contract_z_core::<NX>(st[2], t2, t1);
    for (c, &w) in t1.iter_mut().zip(inv) {
        *c *= w;
    }
    contract_x_core::<NX>(s[0], t1, t2);
    contract_y_core::<NX>(s[1], t2, t1);
    contract_z_core::<NX>(s[2], t1, z);
}

/// Rectangular x-contraction with const row/column counts (the coarse
/// transfer's mirror of [`crate::fdm::rcontract_x`]); `planes = d2·d3`.
fn rc_x_core<const ROWS: usize, const COLS: usize>(
    m: &[f64],
    u: &[f64],
    out: &mut [f64],
    planes: usize,
) {
    for p in 0..planes {
        let urow = &u[p * COLS..(p + 1) * COLS];
        let orow = &mut out[p * ROWS..(p + 1) * ROWS];
        for (i, o) in orow.iter_mut().enumerate() {
            let mrow = &m[i * COLS..(i + 1) * COLS];
            let mut acc = 0.0;
            for l in 0..COLS {
                acc += mrow[l] * urow[l];
            }
            *o = acc;
        }
    }
}

/// Rectangular y-contraction with const row/column counts (mirror of
/// [`crate::fdm::rcontract_y`]).
fn rc_y_core<const ROWS: usize, const COLS: usize>(
    m: &[f64],
    u: &[f64],
    out: &mut [f64],
    d1: usize,
    d3: usize,
) {
    out[..d1 * ROWS * d3].iter_mut().for_each(|v| *v = 0.0);
    for k in 0..d3 {
        for j in 0..ROWS {
            let mrow = &m[j * COLS..(j + 1) * COLS];
            let dst = (j + k * ROWS) * d1;
            for (l, &mv) in mrow.iter().enumerate() {
                let src = (l + k * COLS) * d1;
                for i in 0..d1 {
                    out[dst + i] += mv * u[src + i];
                }
            }
        }
    }
}

/// Rectangular z-contraction with const row/column counts (mirror of
/// [`crate::fdm::rcontract_z`]).
fn rc_z_core<const ROWS: usize, const COLS: usize>(
    m: &[f64],
    u: &[f64],
    out: &mut [f64],
    d1: usize,
    d2: usize,
) {
    let plane = d1 * d2;
    out[..plane * ROWS].iter_mut().for_each(|v| *v = 0.0);
    for k in 0..ROWS {
        let mrow = &m[k * COLS..(k + 1) * COLS];
        let dst = k * plane;
        for (l, &mv) in mrow.iter().enumerate() {
            let src = l * plane;
            for p in 0..plane {
                out[dst + p] += mv * u[src + p];
            }
        }
    }
}

/// Coarse restriction `t1[..CNX³] = Jᵀ⊗Jᵀ⊗Jᵀ fine` with const trip counts
/// (mirrors `CoarseCorrection::restrict_local` in `sem-solver`).
fn restrict_core<const NX: usize, const CNX: usize>(
    jt: &[f64],
    fine: &[f64],
    t1: &mut [f64],
    t2: &mut [f64],
) {
    rc_x_core::<CNX, NX>(jt, fine, t1, NX * NX);
    rc_y_core::<CNX, NX>(jt, t1, t2, CNX, NX);
    rc_z_core::<CNX, NX>(jt, t2, t1, CNX, CNX);
}

/// Coarse prolongation `t2[..NX³] = J⊗J⊗J t1[..CNX³]` with const trip
/// counts (`t1` is clobbered; mirrors `CoarseCorrection::prolong_local`).
fn prolong_core<const NX: usize, const CNX: usize>(j: &[f64], t1: &mut [f64], t2: &mut [f64]) {
    rc_x_core::<NX, CNX>(j, &t1[..CNX * CNX * CNX], t2, CNX * CNX);
    rc_y_core::<NX, CNX>(j, t2, t1, NX, CNX);
    rc_z_core::<NX, CNX>(j, t1, t2, NX, NX);
}

type AxAllFn = fn(&[f64], &mut [f64], [&[f64]; 6], &[f64], &[f64]);
type FdmFn = fn([&[f64]; 3], [&[f64]; 3], &[f64], &[f64], &mut [f64]);
type RestrictFn = fn(&[f64], &[f64], &mut [f64], &mut [f64]);
type ProlongFn = fn(&[f64], &mut [f64], &mut [f64]);

/// The kernel family of one specialized degree, resolved once at session or
/// backend setup and shared by `Ax`, the FDM fine pass, and the degree-2
/// coarse transfer.
#[derive(Debug, Clone, Copy)]
pub struct DegreeDispatch {
    structure: KernelStructure,
    ax_all: AxAllFn,
    fdm_one: FdmFn,
    restrict3: RestrictFn,
    prolong3: ProlongFn,
}

macro_rules! specialized_degrees {
    ($(($module:ident, $degree:literal)),+ $(,)?) => {
        $(
            mod $module {
                use std::cell::RefCell;

                const NX: usize = $degree + 1;
                const NPTS: usize = NX * NX * NX;

                thread_local! {
                    /// Per-thread fixed-size scratch, allocated once on first
                    /// use; every later application is allocation-free.
                    static SCRATCH: RefCell<Box<super::SpecScratch<NPTS>>> =
                        RefCell::new(super::SpecScratch::boxed());
                }

                pub fn ax_all(u: &[f64], w: &mut [f64], g: [&[f64]; 6], d: &[f64], dt: &[f64]) {
                    SCRATCH.with(|cell| {
                        let mut scratch = cell.borrow_mut();
                        super::ax_field_core::<NX, NPTS>(u, w, g, d, dt, &mut scratch);
                    });
                }

                pub fn fdm_one(
                    s: [&[f64]; 3],
                    st: [&[f64]; 3],
                    inv: &[f64],
                    r: &[f64],
                    z: &mut [f64],
                ) {
                    SCRATCH.with(|cell| {
                        let mut scratch = cell.borrow_mut();
                        super::fdm_element_core::<NX, NPTS>(s, st, inv, r, z, &mut scratch);
                    });
                }

                pub fn restrict3(jt: &[f64], fine: &[f64], t1: &mut [f64], t2: &mut [f64]) {
                    super::restrict_core::<NX, { super::COARSE_POINTS }>(jt, fine, t1, t2);
                }

                pub fn prolong3(j: &[f64], t1: &mut [f64], t2: &mut [f64]) {
                    super::prolong_core::<NX, { super::COARSE_POINTS }>(j, t1, t2);
                }
            }
        )+

        impl DegreeDispatch {
            /// Resolve the specialized kernel family for `degree`, or `None`
            /// when the degree is outside `MIN_DEGREE..=MAX_DEGREE` (callers
            /// fall back to the generic kernels).
            #[must_use]
            pub fn for_degree(degree: usize) -> Option<Self> {
                match degree {
                    $(
                        $degree => Some(Self {
                            structure: KernelStructure::for_points($degree + 1),
                            ax_all: $module::ax_all,
                            fdm_one: $module::fdm_one,
                            restrict3: $module::restrict3,
                            prolong3: $module::prolong3,
                        }),
                    )+
                    _ => None,
                }
            }
        }
    };
}

specialized_degrees!(
    (n3, 3),
    (n4, 4),
    (n5, 5),
    (n6, 6),
    (n7, 7),
    (n8, 8),
    (n9, 9),
    (n10, 10),
    (n11, 11),
    (n12, 12),
    (n13, 13),
    (n14, 14),
    (n15, 15),
);

impl DegreeDispatch {
    /// Resolve by grid points per direction (`points = N + 1`) — the FDM
    /// pass keys on its *patch* extent, which exceeds `N + 1` when the
    /// overlap is nonzero.
    #[must_use]
    pub fn for_points(points: usize) -> Option<Self> {
        points.checked_sub(1).and_then(Self::for_degree)
    }

    /// Whether a specialized kernel family exists for `degree`.
    #[must_use]
    pub fn covers(degree: usize) -> bool {
        (MIN_DEGREE..=MAX_DEGREE).contains(&degree)
    }

    /// The structural constants of this kernel family.
    #[must_use]
    pub fn structure(&self) -> KernelStructure {
        self.structure
    }

    /// Polynomial degree the family is specialized for.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.structure.degree
    }

    /// Grid points per direction, `N + 1`.
    #[must_use]
    pub fn points(&self) -> usize {
        self.structure.points
    }

    /// Apply `w = Dᵀ G D u` over every element of a field (the specialized
    /// mirror of the generic split-layout kernel; bitwise
    /// identical results).
    ///
    /// # Panics
    /// Panics if the field length is not a multiple of `(N+1)³` or any
    /// plane slice mismatches.
    pub fn ax_apply_all(
        &self,
        u: &[f64],
        w: &mut [f64],
        g_planes: [&[f64]; 6],
        d: &[f64],
        dt: &[f64],
    ) {
        (self.ax_all)(u, w, g_planes, d, dt);
    }

    /// One element's fast-diagonalization solve (the specialized mirror of
    /// [`crate::fdm::fdm_element_apply`]; bitwise identical results).
    ///
    /// # Panics
    /// Panics if `r`, `z` or `inv` are not `(N+1)³` long.
    pub fn fdm_element_apply(
        &self,
        s: [&[f64]; 3],
        st: [&[f64]; 3],
        inv: &[f64],
        r: &[f64],
        z: &mut [f64],
    ) {
        (self.fdm_one)(s, st, inv, r, z);
    }

    /// Coarse restriction `t1[..27] = Jᵀ⊗Jᵀ⊗Jᵀ fine` for the degree-2
    /// coarse space ([`COARSE_POINTS`] nodes per direction); `t2` is the
    /// ping-pong buffer.
    pub fn coarse_restrict(&self, jt: &[f64], fine: &[f64], t1: &mut [f64], t2: &mut [f64]) {
        (self.restrict3)(jt, fine, t1, t2);
    }

    /// Coarse prolongation `t2[..(N+1)³] = J⊗J⊗J t1[..27]` for the degree-2
    /// coarse space (`t1` is clobbered; the result lands in `t2`).
    pub fn coarse_prolong(&self, j: &[f64], t1: &mut [f64], t2: &mut [f64]) {
        (self.prolong3)(j, t1, t2);
    }
}

/// Apply `w = Dᵀ G D u` over a run of whole elements with the resolved
/// specialized family, or with the generic split-layout kernel
/// (`optimized::ax_optimized`) when none is resolved (off-range degrees, pinned
/// generic kernels).  The two paths are bitwise identical.
///
/// # Panics
/// Panics if the field length is not a multiple of `(N+1)³` or any plane
/// slice mismatches.
pub fn ax_split(
    dispatch: Option<&DegreeDispatch>,
    u: &[f64],
    w: &mut [f64],
    g_planes: [&[f64]; 6],
    derivative: &DerivativeMatrix,
) {
    match dispatch {
        Some(dispatch) => dispatch.ax_apply_all(
            u,
            w,
            g_planes,
            derivative.d().as_slice(),
            derivative.dt().as_slice(),
        ),
        None => ax_optimized(u, w, g_planes, derivative),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdm::{fdm_element_apply, rcontract_x, rcontract_y, rcontract_z, FdmScratch};
    use crate::optimized::{ax_optimized_with, AxScratch};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sem_mesh::{BoxMesh, GeometricFactors, MeshDeformation};

    fn random_field(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn structure_exports_the_codegen_constants() {
        let s7 = kernel_structure(7).unwrap();
        assert_eq!(s7.points, 8);
        assert_eq!(s7.unroll, 8, "N+1 = 8 is itself a power of two");
        assert_eq!(s7.scratch_banks, 6);
        assert_eq!(s7.initiation_interval, 1);
        let s9 = kernel_structure(9).unwrap();
        assert_eq!(s9.unroll, 2, "N+1 = 10: only 2 divides it");
        let s11 = kernel_structure(11).unwrap();
        assert_eq!(s11.unroll, 4, "N+1 = 12: 4 divides it, 8 does not");
        assert_eq!(kernel_structure(2), None);
        assert_eq!(kernel_structure(16), None);
    }

    #[test]
    fn dispatch_resolves_exactly_the_specialized_range() {
        for degree in MIN_DEGREE..=MAX_DEGREE {
            let d = DegreeDispatch::for_degree(degree).unwrap();
            assert_eq!(d.degree(), degree);
            assert_eq!(d.points(), degree + 1);
            assert!(DegreeDispatch::covers(degree));
        }
        assert!(DegreeDispatch::for_degree(2).is_none());
        assert!(DegreeDispatch::for_degree(16).is_none());
        assert!(DegreeDispatch::for_points(17).is_none());
        assert!(DegreeDispatch::for_points(0).is_none());
        assert_eq!(DegreeDispatch::for_points(8).unwrap().degree(), 7);
    }

    #[test]
    fn specialized_ax_is_bitwise_identical_to_the_generic_kernel() {
        for degree in [3_usize, 7, 10] {
            let mesh = BoxMesh::new(
                degree,
                [2, 1, 1],
                [1.0, 1.0, 1.0],
                MeshDeformation::Sinusoidal { amplitude: 0.04 },
            );
            let geo = GeometricFactors::from_mesh(&mesh);
            let dm = sem_basis::DerivativeMatrix::new(degree);
            let g = geo.planes();
            let u = random_field(mesh.num_local_dofs(), degree as u64);
            let mut w_gen = vec![0.0; u.len()];
            let mut w_spec = vec![0.0; u.len()];
            let mut scratch = AxScratch::default();
            ax_optimized_with(&u, &mut w_gen, g, &dm, &mut scratch);
            let dispatch = DegreeDispatch::for_degree(degree).unwrap();
            dispatch.ax_apply_all(&u, &mut w_spec, g, dm.d().as_slice(), dm.dt().as_slice());
            assert_eq!(w_gen, w_spec, "degree {degree}");
        }
    }

    #[test]
    fn specialized_fdm_is_bitwise_identical_to_the_generic_kernel() {
        for degree in [3_usize, 7, 12] {
            let nx = degree + 1;
            let npts = nx * nx * nx;
            let sx = random_field(nx * nx, 1);
            let sy = random_field(nx * nx, 2);
            let sz = random_field(nx * nx, 3);
            let stx = random_field(nx * nx, 4);
            let sty = random_field(nx * nx, 5);
            let stz = random_field(nx * nx, 6);
            let inv = random_field(npts, 7);
            let r = random_field(npts, 8);
            let mut z_gen = vec![0.0; npts];
            let mut z_spec = vec![0.0; npts];
            let mut scratch = FdmScratch::default();
            fdm_element_apply(
                [&sx, &sy, &sz],
                [&stx, &sty, &stz],
                &inv,
                &r,
                &mut z_gen,
                nx,
                &mut scratch,
            );
            let dispatch = DegreeDispatch::for_degree(degree).unwrap();
            dispatch.fdm_element_apply([&sx, &sy, &sz], [&stx, &sty, &stz], &inv, &r, &mut z_spec);
            assert_eq!(z_gen, z_spec, "degree {degree}");
        }
    }

    #[test]
    fn specialized_coarse_transfer_matches_the_generic_contractions() {
        for degree in [3_usize, 7, 15] {
            let nx = degree + 1;
            let cnx = COARSE_POINTS;
            let npts = nx * nx * nx;
            let j = random_field(nx * cnx, 21);
            let jt: Vec<f64> = {
                // row-major transpose of the nx × cnx matrix
                let mut t = vec![0.0; cnx * nx];
                for r in 0..nx {
                    for c in 0..cnx {
                        t[c * nx + r] = j[r * cnx + c];
                    }
                }
                t
            };
            let fine = random_field(npts, 22);
            let dispatch = DegreeDispatch::for_degree(degree).unwrap();

            // Restriction.
            let (mut t1g, mut t2g) = (vec![0.0; npts], vec![0.0; npts]);
            rcontract_x(&jt, cnx, nx, &fine, &mut t1g, nx, nx);
            rcontract_y(&jt, cnx, nx, &t1g.clone(), &mut t2g, cnx, nx);
            let t2snap = t2g.clone();
            rcontract_z(&jt, cnx, nx, &t2snap, &mut t1g, cnx, cnx);
            let (mut t1s, mut t2s) = (vec![0.0; npts], vec![0.0; npts]);
            dispatch.coarse_restrict(&jt, &fine, &mut t1s, &mut t2s);
            assert_eq!(
                t1g[..cnx * cnx * cnx],
                t1s[..cnx * cnx * cnx],
                "degree {degree}"
            );

            // Prolongation of the restricted coefficients.
            let coarse = t1g[..cnx * cnx * cnx].to_vec();
            let (mut p1g, mut p2g) = (vec![0.0; npts], vec![0.0; npts]);
            p1g[..coarse.len()].copy_from_slice(&coarse);
            rcontract_x(
                &j,
                nx,
                cnx,
                &p1g.clone()[..cnx * cnx * cnx],
                &mut p2g,
                cnx,
                cnx,
            );
            let p2snap = p2g.clone();
            rcontract_y(&j, nx, cnx, &p2snap, &mut p1g, nx, cnx);
            let p1snap = p1g.clone();
            rcontract_z(&j, nx, cnx, &p1snap, &mut p2g, nx, nx);
            let (mut p1s, mut p2s) = (vec![0.0; npts], vec![0.0; npts]);
            p1s[..coarse.len()].copy_from_slice(&coarse);
            dispatch.coarse_prolong(&j, &mut p1s, &mut p2s);
            assert_eq!(p2g, p2s, "degree {degree}");
        }
    }
}
