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
//! Four properties are contractual:
//!
//! * **Bitwise parity.**  Every specialized kernel performs the *same*
//!   floating-point operations, summing each output in the *same* order, as
//!   its generic counterpart (`ax_element_split`, `fdm_element_apply`, the
//!   coarse `rcontract_*` chain); only the trip counts are compile-time and
//!   the `Ax` loops are reorganised around register blocks.  Results are
//!   therefore bitwise identical, and every non-reference
//!   [`crate::AxImplementation`] runs the specialized path on covered
//!   degrees without perturbing any solve.
//! * **Fixed-size, allocation-free scratch.**  Element scratch is three
//!   `[f64; NX·NX·NX]` banks (`shur/shus/shut`), boxed once per thread and
//!   reused for every application.
//! * **One dispatch.**  [`DegreeDispatch::for_degree`] resolves a kernel
//!   table once at session/backend setup, for every degree: the specialized
//!   family on `N = 3..=15`, the generic runtime-`nx` kernels (`isa()` is
//!   `"generic"`) everywhere else.  Callers hold the table and call it; none
//!   of them asks whether a degree is specialized.
//! * **One ISA dispatch.**  The family is one generic core compiled three
//!   times: for the build target (SSE2 on default x86-64 builds) and,
//!   through `#[target_feature]` trampolines, for 256-bit AVX2 and 512-bit
//!   AVX-512F.  `for_degree` picks one instruction set per degree from the
//!   degree and the running host alone: AVX-512F when the host reports it
//!   and `4 | N + 1` (N = 3, 7, 11, 15, where a two-row block fills 8-lane
//!   vectors), else AVX2 when the host reports it, else the baseline.  `Ax`
//!   thus runs at the host's vector width with no option, feature flag or
//!   rebuild.  Every instantiation gives the same bits although `avx512f`
//!   enables `fma`: Rust never contracts `a * b + c` into a fused
//!   multiply-add or reassociates a sum, and the cores use no `mul_add`, no
//!   fused-multiply-add intrinsic and no fast-math operation (`sem-lint`'s
//!   `bits-contract` pass bans all three here).
//!
//! The `Ax` core streams an element through two fused sweeps, the CPU
//! analogue of the accelerator's one-pass pipeline with its intermediates
//! in partitioned registers (Section III-B, Listing 1).  The forward sweep
//! accumulates a block's three derivatives in registers and stores only
//! the geometrically scaled `shur/shus/shut`; the backward sweep gathers
//! each block's three transposed contractions in one register accumulator
//! and stores it to `w` once.
//!
//! The generated kernels also export their structural constants
//! ([`KernelStructure`]): the unroll width of the unit-stride inner
//! dimension and the initiation interval the fully unrolled dot products
//! sustain.  `fpga_sim::AcceleratorDesign` derives its design parameters
//! from these instead of hand-picked constants, so the measured CPU kernel
//! and the modeled FPGA datapath share one source of truth.

use crate::fdm::{coarse_prolong, coarse_restrict, fdm_element_apply_cached};
use crate::optimized::ax_optimized;

/// Smallest specialized degree.
pub const MIN_DEGREE: usize = 3;

/// Largest specialized degree.
pub const MAX_DEGREE: usize = 15;

/// Coarse points per direction the specialized coarse-transfer kernels are
/// generated for (`c + 1` with the degree-2 Galerkin coarse space that
/// `sem_basis::fdm_coarse_degree` picks on the whole specialized range).
const COARSE_POINTS: usize = 3;

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
    /// Initiation interval of the contraction loops: with the dot products
    /// fully unrolled there is no loop-carried dependence, so new operands
    /// issue every cycle.
    pub initiation_interval: usize,
}

/// The structural constants of the generated kernel for `degree`, or `None`
/// when the degree is outside the specialized range.
#[must_use]
pub fn kernel_structure(degree: usize) -> Option<KernelStructure> {
    (MIN_DEGREE..=MAX_DEGREE)
        .contains(&degree)
        .then(|| KernelStructure {
            degree,
            points: degree + 1,
            unroll: largest_pow2_divisor(degree + 1),
            initiation_interval: 1,
        })
}

/// Rows per register block of the fused `Ax` core.  Up to `NX = 6` a block
/// is a whole k-plane: its t-direction and geometric-factor lanes then run
/// `NX²` wide instead of `NX` (at `NX = 5` a single row splits 4 + 1 on AVX2).
/// Above that a block is two rows when `NX` is even, so `2·NX` contiguous
/// lanes fill whole vectors, else one row.
const fn rows_per_block(points: usize) -> usize {
    if points <= 6 {
        points
    } else if points.is_multiple_of(2) {
        2
    } else {
        1
    }
}

/// Fixed-size element scratch: the three geometrically scaled gradient
/// planes `shur/shus/shut` the forward sweep of [`ax_element_core`] stores
/// and its backward sweep reads (the FDM pass borrows two of them as its
/// ping-pong buffers).  Boxed once per thread.
struct SpecScratch<const NPTS: usize> {
    shur: [f64; NPTS],
    shus: [f64; NPTS],
    shut: [f64; NPTS],
}

impl<const NPTS: usize> SpecScratch<NPTS> {
    fn boxed() -> Box<Self> {
        Box::new(Self {
            shur: [0.0; NPTS],
            shus: [0.0; NPTS],
            shut: [0.0; NPTS],
        })
    }
}

/// One element's `w = Dᵀ G D u` with `NX` as a compile-time constant, in
/// two fused sweeps over blocks of `B` rows (`BNX = B·NX` contiguous nodes
/// of one k-plane).
///
/// * **Forward.**  A block's `ur`, `us` and `ut` accumulate in
///   register-resident `[f64; BNX]` arrays; the geometric factors are
///   applied to them there and only `shur/shus/shut` are stored.
/// * **Backward.**  One `[f64; BNX]` accumulator takes the block's r terms,
///   then its s terms, then its t terms, and is stored to `w` once.
///
/// Every output sums the generic `ax_element_split`'s products in the same
/// order: each derivative from 0.0 over ascending `l`, and `w` as the r sum
/// followed by the s and t terms in ascending `l`.  Results are therefore
/// bitwise identical.  The r-direction and its transpose read `Dᵀ` rows
/// forward (and `D` rows in the transpose) across a row's outputs, the
/// paper's unroll across the unit-stride dimension, which requires `dt` to
/// be exactly the transpose of `d`.  The const trip counts let LLVM fully
/// unroll the `0..NX` loops, keep the accumulators in vector registers and
/// elide the bounds checks against the fixed-size scratch.
#[allow(clippy::needless_range_loop)] // mirrors the generic kernel's explicit stride arithmetic
#[inline(always)]
fn ax_element_core<const NX: usize, const NPTS: usize, const B: usize, const BNX: usize>(
    u: &[f64],
    w: &mut [f64],
    g: [&[f64]; 6],
    d: &[f64],
    dt: &[f64],
    scratch: &mut SpecScratch<NPTS>,
) {
    debug_assert_eq!(NPTS, NX * NX * NX);
    debug_assert_eq!(BNX, B * NX);
    debug_assert_eq!(NX % B, 0);
    assert_eq!(u.len(), NPTS);
    assert_eq!(w.len(), NPTS);
    assert_eq!(d.len(), NX * NX);
    assert_eq!(dt.len(), NX * NX);
    for plane in g {
        assert_eq!(plane.len(), NPTS);
    }
    let nxy = NX * NX;
    let SpecScratch { shur, shus, shut } = scratch;

    // Forward sweep: the three derivatives of a block, then G.
    for k in 0..NX {
        let dk = &d[k * NX..(k + 1) * NX];
        for jb in 0..NX / B {
            let j0 = jb * B;
            let base = j0 * NX + k * nxy;
            let ublock = &u[base..base + BNX];
            let drows: [&[f64]; B] = std::array::from_fn(|b| &d[(j0 + b) * NX..(j0 + b + 1) * NX]);
            let mut ur = [0.0; BNX];
            let mut us = [0.0; BNX];
            let mut ut = [0.0; BNX];
            for b in 0..B {
                let urow = &ublock[b * NX..(b + 1) * NX];
                for l in 0..NX {
                    let dtrow = &dt[l * NX..(l + 1) * NX];
                    let ul = urow[l];
                    for i in 0..NX {
                        ur[b * NX + i] += dtrow[i] * ul;
                    }
                }
            }
            for l in 0..NX {
                let src = &u[l * NX + k * nxy..(l + 1) * NX + k * nxy];
                for b in 0..B {
                    let dv = drows[b][l];
                    for i in 0..NX {
                        us[b * NX + i] += dv * src[i];
                    }
                }
            }
            for l in 0..NX {
                let dv = dk[l];
                let src = &u[j0 * NX + l * nxy..j0 * NX + l * nxy + BNX];
                for p in 0..BNX {
                    ut[p] += dv * src[p];
                }
            }
            let gb: [&[f64]; 6] = g.map(|plane| &plane[base..base + BNX]);
            let shur = &mut shur[base..base + BNX];
            let shus = &mut shus[base..base + BNX];
            let shut = &mut shut[base..base + BNX];
            for p in 0..BNX {
                let (r, s, t) = (ur[p], us[p], ut[p]);
                shur[p] = gb[0][p] * r + gb[1][p] * s + gb[2][p] * t;
                shus[p] = gb[1][p] * r + gb[3][p] * s + gb[4][p] * t;
                shut[p] = gb[2][p] * r + gb[4][p] * s + gb[5][p] * t;
            }
        }
    }

    // Backward sweep: w = D^T_r shur + D^T_s shus + D^T_t shut per block.
    for k in 0..NX {
        let dtk = &dt[k * NX..(k + 1) * NX];
        for jb in 0..NX / B {
            let j0 = jb * B;
            let base = j0 * NX + k * nxy;
            let sblock = &shur[base..base + BNX];
            let dtrows: [&[f64]; B] =
                std::array::from_fn(|b| &dt[(j0 + b) * NX..(j0 + b + 1) * NX]);
            let mut acc = [0.0; BNX];
            for b in 0..B {
                let srow = &sblock[b * NX..(b + 1) * NX];
                for l in 0..NX {
                    let drow = &d[l * NX..(l + 1) * NX];
                    let sl = srow[l];
                    for i in 0..NX {
                        acc[b * NX + i] += drow[i] * sl;
                    }
                }
            }
            for l in 0..NX {
                let src = &shus[l * NX + k * nxy..(l + 1) * NX + k * nxy];
                for b in 0..B {
                    let dv = dtrows[b][l];
                    for i in 0..NX {
                        acc[b * NX + i] += dv * src[i];
                    }
                }
            }
            for l in 0..NX {
                let dv = dtk[l];
                let src = &shut[j0 * NX + l * nxy..j0 * NX + l * nxy + BNX];
                for p in 0..BNX {
                    acc[p] += dv * src[p];
                }
            }
            w[base..base + BNX].copy_from_slice(&acc);
        }
    }
}

/// The whole-field element loop over [`ax_element_core`] (the specialized
/// mirror of [`crate::optimized::ax_optimized`]).
#[inline(always)]
fn ax_field_core<const NX: usize, const NPTS: usize, const B: usize, const BNX: usize>(
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
        ax_element_core::<NX, NPTS, B, BNX>(
            &u[range.clone()],
            &mut w[range.clone()],
            g,
            d,
            dt,
            scratch,
        );
    }
}

/// One element's fast-diagonalization solve with const trip counts (mirrors
/// [`crate::fdm::fdm_element_apply`]: three forward contractions, the modal
/// scale, three back, each a square [`rc_x_core`]-family contraction).
#[inline(always)]
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
    let SpecScratch {
        shur: t1, shus: t2, ..
    } = scratch;

    rc_x_core::<NX, NX>(st[0], r, t1, NX * NX);
    rc_y_core::<NX, NX>(st[1], t1, t2, NX, NX);
    rc_z_core::<NX, NX>(st[2], t2, t1, NX, NX);
    for (c, &w) in t1.iter_mut().zip(inv) {
        *c *= w;
    }
    rc_x_core::<NX, NX>(s[0], t1, t2, NX * NX);
    rc_y_core::<NX, NX>(s[1], t2, t1, NX, NX);
    rc_z_core::<NX, NX>(s[2], t1, z, NX, NX);
}

/// Rectangular x-contraction with const row/column counts (mirror of
/// [`crate::fdm::rcontract_x`]; square for the FDM pass, rectangular for the
/// coarse transfer); `planes = d2·d3`.
#[inline(always)]
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
#[inline(always)]
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
#[inline(always)]
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
#[inline(always)]
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
#[inline(always)]
fn prolong_core<const NX: usize, const CNX: usize>(j: &[f64], t1: &mut [f64], t2: &mut [f64]) {
    rc_x_core::<NX, CNX>(j, &t1[..CNX * CNX * CNX], t2, CNX * CNX);
    rc_y_core::<NX, CNX>(j, t2, t1, NX, CNX);
    rc_z_core::<NX, CNX>(j, t1, t2, NX, NX);
}

/// One kernel invocation with its arguments bound.  `run` is
/// `#[inline(always)]`, as is every core it reaches, so each [`Isa`]
/// compiles the whole kernel body with its own target features.
trait Kernel {
    fn run(self);
}

/// [`ax_field_core`]'s arguments.
struct AxField<'a, const NX: usize, const NPTS: usize, const B: usize, const BNX: usize> {
    u: &'a [f64],
    w: &'a mut [f64],
    g: [&'a [f64]; 6],
    d: &'a [f64],
    dt: &'a [f64],
    scratch: &'a mut SpecScratch<NPTS>,
}

impl<const NX: usize, const NPTS: usize, const B: usize, const BNX: usize> Kernel
    for AxField<'_, NX, NPTS, B, BNX>
{
    #[inline(always)]
    fn run(self) {
        ax_field_core::<NX, NPTS, B, BNX>(self.u, self.w, self.g, self.d, self.dt, self.scratch);
    }
}

/// [`fdm_element_core`]'s arguments.
struct FdmElement<'a, const NX: usize, const NPTS: usize> {
    s: [&'a [f64]; 3],
    st: [&'a [f64]; 3],
    inv: &'a [f64],
    r: &'a [f64],
    z: &'a mut [f64],
    scratch: &'a mut SpecScratch<NPTS>,
}

impl<const NX: usize, const NPTS: usize> Kernel for FdmElement<'_, NX, NPTS> {
    #[inline(always)]
    fn run(self) {
        fdm_element_core::<NX, NPTS>(self.s, self.st, self.inv, self.r, self.z, self.scratch);
    }
}

/// [`restrict_core`]'s arguments.
struct Restrict<'a, const NX: usize, const CNX: usize> {
    jt: &'a [f64],
    fine: &'a [f64],
    t1: &'a mut [f64],
    t2: &'a mut [f64],
}

impl<const NX: usize, const CNX: usize> Kernel for Restrict<'_, NX, CNX> {
    #[inline(always)]
    fn run(self) {
        restrict_core::<NX, CNX>(self.jt, self.fine, self.t1, self.t2);
    }
}

/// [`prolong_core`]'s arguments.
struct Prolong<'a, const NX: usize, const CNX: usize> {
    j: &'a [f64],
    t1: &'a mut [f64],
    t2: &'a mut [f64],
}

impl<const NX: usize, const CNX: usize> Kernel for Prolong<'_, NX, CNX> {
    #[inline(always)]
    fn run(self) {
        prolong_core::<NX, CNX>(self.j, self.t1, self.t2);
    }
}

/// The instruction set one instantiation of the kernel family is compiled
/// for.  All run the same cores, so their results are bitwise identical:
/// Rust never contracts `a * b + c` into a fused multiply-add, even with
/// `fma` enabled, and the cores call no `mul_add`.
trait Isa {
    const NAME: &'static str;
    fn run<K: Kernel>(kernel: K);
}

/// The build target's own instruction set (SSE2 on default x86-64 builds).
enum Baseline {}

impl Isa for Baseline {
    const NAME: &'static str = "baseline";

    #[inline(always)]
    fn run<K: Kernel>(kernel: K) {
        kernel.run();
    }
}

/// 256-bit AVX2 vectors.  Reached only through tables that
/// [`DegreeDispatch::avx2`] builds after detecting AVX2 on the running host.
#[cfg(target_arch = "x86_64")]
enum Avx2 {}

#[cfg(target_arch = "x86_64")]
impl Isa for Avx2 {
    const NAME: &'static str = "avx2";

    #[inline(always)]
    fn run<K: Kernel>(kernel: K) {
        #[target_feature(enable = "avx2")]
        fn run_avx2<K: Kernel>(kernel: K) {
            kernel.run();
        }
        // SAFETY: `Avx2` kernels are stored only in tables built by
        // `DegreeDispatch::avx2`, which returns `None` unless the host
        // reports AVX2, so the target feature is present here.
        #[allow(unsafe_code)]
        unsafe {
            run_avx2(kernel);
        }
    }
}

/// 512-bit AVX-512F vectors.  Reached only through tables that
/// [`DegreeDispatch::avx512`] builds after detecting AVX-512F on the running
/// host.
#[cfg(target_arch = "x86_64")]
enum Avx512 {}

#[cfg(target_arch = "x86_64")]
impl Isa for Avx512 {
    const NAME: &'static str = "avx512f";

    #[inline(always)]
    fn run<K: Kernel>(kernel: K) {
        #[target_feature(enable = "avx512f")]
        fn run_avx512<K: Kernel>(kernel: K) {
            kernel.run();
        }
        // SAFETY: `Avx512` kernels are stored only in tables built by
        // `DegreeDispatch::avx512`, which returns `None` unless the host
        // reports AVX-512F, so the target feature is present here.
        #[allow(unsafe_code)]
        unsafe {
            run_avx512(kernel);
        }
    }
}

/// `Ax` over whole elements; the trailing extent is `nx = N + 1`.
type AxAllFn = fn(&[f64], &mut [f64], [&[f64]; 6], &[f64], &[f64], usize);
/// One FDM element; the trailing extent is `nx`.
type FdmFn = fn([&[f64]; 3], [&[f64]; 3], &[f64], &[f64], &mut [f64], usize);
/// Coarse restriction; the trailing extents are `nx` and the coarse `cnx`.
type RestrictFn = fn(&[f64], &[f64], &mut [f64], &mut [f64], usize, usize);
/// Coarse prolongation; the trailing extents are `nx` and `cnx`.
type ProlongFn = fn(&[f64], &mut [f64], &mut [f64], usize, usize);

/// The kernel table of one degree, resolved once at session or backend
/// setup and shared by `Ax`, the FDM fine pass, and the coarse transfer:
/// the specialized family on `MIN_DEGREE..=MAX_DEGREE`, the generic
/// runtime-extent kernels on every other degree.
#[derive(Debug, Clone, Copy)]
pub struct DegreeDispatch {
    /// Grid points per direction, `N + 1`.
    points: usize,
    /// Coarse points per direction of the FDM coarse space.
    coarse_points: usize,
    isa: &'static str,
    ax_all: AxAllFn,
    fdm_one: FdmFn,
    restrict: RestrictFn,
    prolong: ProlongFn,
}

macro_rules! specialized_degrees {
    ($(($module:ident, $degree:literal)),+ $(,)?) => {
        $(
            mod $module {
                use super::{AxField, FdmElement, Isa, Prolong, Restrict, COARSE_POINTS};
                use std::cell::RefCell;

                const NX: usize = $degree + 1;
                const NPTS: usize = NX * NX * NX;
                const B: usize = super::rows_per_block(NX);
                const BNX: usize = B * NX;

                thread_local! {
                    /// Per-thread fixed-size scratch, allocated once on first
                    /// use; every later application is allocation-free.
                    static SCRATCH: RefCell<Box<super::SpecScratch<NPTS>>> =
                        RefCell::new(super::SpecScratch::boxed());
                }

                pub fn ax_all<I: Isa>(
                    u: &[f64],
                    w: &mut [f64],
                    g: [&[f64]; 6],
                    d: &[f64],
                    dt: &[f64],
                    nx: usize,
                ) {
                    debug_assert_eq!(nx, NX);
                    SCRATCH.with(|cell| {
                        let scratch = &mut **cell.borrow_mut();
                        I::run(AxField::<NX, NPTS, B, BNX> { u, w, g, d, dt, scratch });
                    });
                }

                pub fn fdm_one<I: Isa>(
                    s: [&[f64]; 3],
                    st: [&[f64]; 3],
                    inv: &[f64],
                    r: &[f64],
                    z: &mut [f64],
                    nx: usize,
                ) {
                    debug_assert_eq!(nx, NX);
                    SCRATCH.with(|cell| {
                        let scratch = &mut **cell.borrow_mut();
                        I::run(FdmElement::<NX, NPTS> { s, st, inv, r, z, scratch });
                    });
                }

                pub fn restrict<I: Isa>(
                    jt: &[f64],
                    fine: &[f64],
                    t1: &mut [f64],
                    t2: &mut [f64],
                    nx: usize,
                    cnx: usize,
                ) {
                    debug_assert_eq!((nx, cnx), (NX, COARSE_POINTS));
                    I::run(Restrict::<NX, COARSE_POINTS> { jt, fine, t1, t2 });
                }

                pub fn prolong<I: Isa>(
                    j: &[f64],
                    t1: &mut [f64],
                    t2: &mut [f64],
                    nx: usize,
                    cnx: usize,
                ) {
                    debug_assert_eq!((nx, cnx), (NX, COARSE_POINTS));
                    I::run(Prolong::<NX, COARSE_POINTS> { j, t1, t2 });
                }
            }
        )+

        impl DegreeDispatch {
            /// The family for `degree` compiled for instruction set `I`, or
            /// `None` off the specialized range.
            fn instantiate<I: Isa>(degree: usize) -> Option<Self> {
                match degree {
                    $(
                        $degree => Some(Self {
                            points: $degree + 1,
                            coarse_points: COARSE_POINTS,
                            isa: I::NAME,
                            ax_all: $module::ax_all::<I>,
                            fdm_one: $module::fdm_one::<I>,
                            restrict: $module::restrict::<I>,
                            prolong: $module::prolong::<I>,
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
    /// Resolve the kernel table for `degree`.  On `MIN_DEGREE..=MAX_DEGREE`
    /// it is the specialized family, and the instruction set follows from
    /// the degree and the host: AVX-512F when the host reports it and
    /// `4 | N + 1` (where a two-row `Ax` block fills whole 8-lane vectors),
    /// else AVX2 when the host reports it, else the baseline.  Every other
    /// degree gets [`DegreeDispatch::generic`].
    #[must_use]
    pub fn for_degree(degree: usize) -> Self {
        Self::avx512(degree)
            .filter(|_| (degree + 1).is_multiple_of(4))
            .or_else(|| Self::avx2(degree))
            .or_else(|| Self::baseline(degree))
            .unwrap_or_else(|| Self::generic(degree))
    }

    /// The generic kernels for `degree`, with `nx = N + 1` and the FDM coarse
    /// extent (`sem_basis::fdm_coarse_degree(N) + 1`) as runtime values:
    /// the split-layout `Ax`, the FDM element solve and the rectangular
    /// coarse-transfer chain.  [`DegreeDispatch::for_degree`] returns it off
    /// the specialized range; on the range it is the measurement hatch that
    /// times generic against specialized (same bits).
    #[must_use]
    pub fn generic(degree: usize) -> Self {
        Self {
            points: degree + 1,
            coarse_points: sem_basis::fdm_coarse_degree(degree) + 1,
            isa: "generic",
            ax_all: ax_optimized,
            fdm_one: fdm_element_apply_cached,
            restrict: coarse_restrict,
            prolong: coarse_prolong,
        }
    }

    /// The family compiled for the build target's own instruction set, or
    /// `None` off the specialized range.
    pub(crate) fn baseline(degree: usize) -> Option<Self> {
        Self::instantiate::<Baseline>(degree)
    }

    /// The family compiled for AVX2, or `None` when the host lacks AVX2
    /// (or is not x86-64) or the degree is off the specialized range.
    pub(crate) fn avx2(degree: usize) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Self::instantiate::<Avx2>(degree);
        }
        let _ = degree;
        None
    }

    /// The family compiled for AVX-512F, or `None` when the host lacks
    /// AVX-512F (or is not x86-64) or the degree is off the specialized
    /// range.
    pub(crate) fn avx512(degree: usize) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            return Self::instantiate::<Avx512>(degree);
        }
        let _ = degree;
        None
    }

    /// Name of the instruction set the table was compiled for: `"avx512f"`,
    /// `"avx2"` or `"baseline"` (the build target's own) for the specialized
    /// family, `"generic"` for the runtime-extent kernels.
    #[must_use]
    pub fn isa(&self) -> &'static str {
        self.isa
    }

    /// Polynomial degree the table serves.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.points - 1
    }

    /// Grid points per direction, `N + 1`.
    #[must_use]
    pub fn points(&self) -> usize {
        self.points
    }

    /// Apply `w = Dᵀ G D u` over every element of a field (`dt` must be the
    /// exact transpose of `d`).  Every table gives the same bits.
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
        (self.ax_all)(u, w, g_planes, d, dt, self.points);
    }

    /// One element's fast-diagonalization solve (the kernel of
    /// [`crate::fdm::fdm_element_apply`]; every table gives the same bits).
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
        (self.fdm_one)(s, st, inv, r, z, self.points);
    }

    /// Coarse restriction `t1[..c³] = Jᵀ⊗Jᵀ⊗Jᵀ fine` onto the FDM coarse
    /// space (`c` coarse nodes per direction; `t2` is the ping-pong buffer,
    /// both at least `(N+1)³` long).
    pub fn coarse_restrict(&self, jt: &[f64], fine: &[f64], t1: &mut [f64], t2: &mut [f64]) {
        (self.restrict)(jt, fine, t1, t2, self.points, self.coarse_points);
    }

    /// Coarse prolongation `t2[..(N+1)³] = J⊗J⊗J t1[..c³]` from the FDM
    /// coarse space (`t1` is clobbered; the result lands in `t2`).
    pub fn coarse_prolong(&self, j: &[f64], t1: &mut [f64], t2: &mut [f64]) {
        (self.prolong)(j, t1, t2, self.points, self.coarse_points);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_field(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn structure_exports_the_codegen_constants() {
        let s7 = kernel_structure(7).unwrap();
        assert_eq!(s7.points, 8);
        assert_eq!(s7.unroll, 8, "N+1 = 8 is itself a power of two");
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
        for degree in 1..=MAX_DEGREE + 2 {
            let table = DegreeDispatch::for_degree(degree);
            assert_eq!(table.degree(), degree);
            assert_eq!(table.points(), degree + 1);
            let specialized = (MIN_DEGREE..=MAX_DEGREE).contains(&degree);
            assert_eq!(table.isa() != "generic", specialized, "degree {degree}");
            let generic = DegreeDispatch::generic(degree);
            assert_eq!(generic.isa(), "generic");
            assert_eq!(
                table.coarse_points, generic.coarse_points,
                "degree {degree}"
            );
        }
    }

    /// A seeded random vector salted with signed zeros and subnormals, so a
    /// reassociated or fused multiply-add shows up in the low bits or in a
    /// zero's sign.
    fn salted_field(n: usize, seed: u64) -> Vec<f64> {
        const SALT: [f64; 6] = [0.0, -0.0, 4.9e-324, -4.9e-324, 2.2e-310, -1.1e-308];
        let mut v = random_field(n, seed);
        for (i, x) in v.iter_mut().enumerate() {
            if i % 7 == 3 {
                *x = SALT[(i / 7) % SALT.len()];
            }
        }
        v
    }

    fn transpose(m: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        let mut t = vec![0.0; m.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = m[r * cols + c];
            }
        }
        t
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One table's results for one degree, on salted inputs: `Ax` over two
    /// elements, one FDM element, the coarse restriction and the
    /// prolongation of a salted coarse vector.
    struct Outputs {
        ax: Vec<u64>,
        fdm: Vec<u64>,
        restrict: Vec<u64>,
        prolong: Vec<u64>,
    }

    /// Run every kernel of `family` on the same salted inputs.
    fn family_outputs(degree: usize, family: &DegreeDispatch) -> Outputs {
        let nx = degree + 1;
        let npts = nx * nx * nx;
        let cnx = family.coarse_points;
        let nc = cnx * cnx * cnx;
        let seed = degree as u64 * 100;

        // `Ax` over two elements; `dt` must be the exact transpose of `d`.
        let u = salted_field(2 * npts, seed);
        let g: Vec<Vec<f64>> = (0..6)
            .map(|p| salted_field(2 * npts, seed + 1 + p))
            .collect();
        let d = salted_field(nx * nx, seed + 7);
        let dt = transpose(&d, nx, nx);
        let mut w = vec![1.0; u.len()];
        let planes = [&g[0][..], &g[1], &g[2], &g[3], &g[4], &g[5]];
        family.ax_apply_all(&u, &mut w, planes, &d, &dt);

        // One FDM element.
        let m: Vec<Vec<f64>> = (0..6)
            .map(|i| salted_field(nx * nx, seed + 10 + i))
            .collect();
        let (s, st) = ([&m[0][..], &m[1], &m[2]], [&m[3][..], &m[4], &m[5]]);
        let inv = salted_field(npts, seed + 16);
        let r = salted_field(npts, seed + 17);
        let mut z = vec![1.0; npts];
        family.fdm_element_apply(s, st, &inv, &r, &mut z);

        // Coarse restriction, then prolongation of a salted coarse vector.
        let j = salted_field(nx * cnx, seed + 20);
        let jt = transpose(&j, nx, cnx);
        let fine = salted_field(npts, seed + 21);
        let coarse = salted_field(nc, seed + 22);
        let (mut t1, mut t2) = (vec![1.0; npts], vec![1.0; npts]);
        family.coarse_restrict(&jt, &fine, &mut t1, &mut t2);
        let restrict = bits(&t1[..nc]);
        t1[..nc].copy_from_slice(&coarse);
        family.coarse_prolong(&j, &mut t1, &mut t2);
        Outputs {
            ax: bits(&w),
            fdm: bits(&z),
            restrict,
            prolong: bits(&t2),
        }
    }

    fn assert_same_bits(degree: usize, label: &str, expected: &Outputs, got: &Outputs) {
        assert_eq!(expected.ax, got.ax, "{label} ax_all, degree {degree}");
        assert_eq!(expected.fdm, got.fdm, "{label} fdm_one, degree {degree}");
        assert_eq!(
            expected.restrict, got.restrict,
            "{label} restrict, degree {degree}"
        );
        assert_eq!(
            expected.prolong, got.prolong,
            "{label} prolong, degree {degree}"
        );
    }

    /// Every instantiation of the family against the generic table, bit
    /// for bit, on every specialized degree; both `Ax` block shapes occur
    /// (whole k-planes up to `N + 1 = 6`, one row at odd `N + 1` above, two
    /// rows at even).  The AVX2 and AVX-512 halves run only where the host
    /// has the feature, and say so when they cannot.  `for_degree` must
    /// resolve AVX-512F exactly where `4 | N + 1` on an AVX-512F host and
    /// AVX2 on every other degree of an AVX2 host.
    #[test]
    fn every_isa_instantiation_matches_the_generic_kernels_bitwise() {
        let host_has_avx2 = DegreeDispatch::avx2(MIN_DEGREE).is_some();
        let host_has_avx512 = DegreeDispatch::avx512(MIN_DEGREE).is_some();
        if !host_has_avx2 {
            eprintln!("SKIPPED the AVX2 half: this host has no AVX2");
        }
        if !host_has_avx512 {
            eprintln!("SKIPPED the AVX-512 half: this host has no AVX-512F");
        }
        let shapes: Vec<usize> = (MIN_DEGREE..=MAX_DEGREE)
            .map(|degree| rows_per_block(degree + 1))
            .collect();
        assert!(shapes.contains(&1) && shapes.contains(&2) && shapes.iter().any(|&b| b > 2));
        for degree in MIN_DEGREE..=MAX_DEGREE {
            let generic = family_outputs(degree, &DegreeDispatch::generic(degree));
            let baseline = DegreeDispatch::baseline(degree).unwrap();
            assert_eq!(baseline.isa(), "baseline");
            assert_same_bits(
                degree,
                "baseline",
                &generic,
                &family_outputs(degree, &baseline),
            );
            let wide = [
                ("avx2", DegreeDispatch::avx2(degree)),
                ("avx512f", DegreeDispatch::avx512(degree)),
            ];
            for (name, family) in wide.iter().filter_map(|(n, f)| Some((n, f.as_ref()?))) {
                assert_eq!(family.isa(), *name);
                assert_same_bits(degree, name, &generic, &family_outputs(degree, family));
            }
            let expected = if host_has_avx512 && (degree + 1).is_multiple_of(4) {
                "avx512f"
            } else if host_has_avx2 {
                "avx2"
            } else {
                "baseline"
            };
            assert_eq!(
                DegreeDispatch::for_degree(degree).isa(),
                expected,
                "for_degree at degree {degree}"
            );
        }
    }
}
