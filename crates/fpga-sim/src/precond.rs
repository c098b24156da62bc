//! Cycle / BRAM model of the on-device preconditioner kernels.
//!
//! A CG preconditioner that lives on the host forces the residual across the
//! PCIe link twice per iteration, which is exactly the round trip the
//! offload design exists to avoid (FPGA CG implementations keep the
//! preconditioner on the device for this reason).  This module prices the
//! two device-resident preconditioner passes the workspace ships:
//!
//! * **Jacobi** — a pointwise multiply of the residual by the resident
//!   inverse diagonal: one FLOP per DOF, three streamed words per DOF
//!   (residual in, diagonal in, correction out).  Purely memory-bound.
//! * **FDM** — the fast-diagonalization tensor pass: three small dense
//!   contractions forward (`Sᵀ`), a modal scale, three back (`S`), the same
//!   datapath shape as the `Ax` kernel itself (which is what makes it a
//!   natural second kernel on the fabric), plus the small Galerkin coarse
//!   solve (rectangular transfer contractions and one dense triangular
//!   solve, which pipelines poorly and is charged serially).
//!
//! The FDM operators are tiny and stay resident in BRAM: per direction
//! class the `S`/`Sᵀ` pair, per class combination the inverse
//! eigenvalue-sum table, plus the double-buffered patch working set.
//! [`FdmPrecondModel::bram_blocks`] accounts for them with the same M20K
//! arithmetic as the `Ax` working set ([`crate::bram`]), and
//! [`FdmPrecondModel::fits_beside_ax`] checks the combined kernel still fits
//! the fabric.

use crate::bram::{blocks_for_array, DOUBLE_BUFFER};
use crate::executor::{FpgaAccelerator, LAUNCH_OVERHEAD_CYCLES};
use sem_basis::fdm_coarse_degree;
use sem_kernel::fdm::{fdm_bytes_per_dof, fdm_flops_per_element};
use serde::{Deserialize, Serialize};

/// Streamed external words per DOF of the Jacobi pass (residual in, inverse
/// diagonal in, correction out).
pub const JACOBI_WORDS_PER_DOF: f64 = 3.0;

/// Worst-case distinct boundary classes per direction (low / interior /
/// high), used to bound the resident `S`/`Sᵀ` storage.
pub const DIRECTION_CLASSES: usize = 3;

/// Worst-case distinct class combinations (3³), bounding the resident
/// inverse eigenvalue-sum tables.
pub const CLASS_COMBINATIONS: usize = 27;

/// Timing/resource estimate of the on-device FDM preconditioner pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FdmPrecondEstimate {
    /// Polynomial degree.
    pub degree: usize,
    /// Elements per application.
    pub num_elements: usize,
    /// Coarse-space dimension charged to the serial solve stage.
    pub coarse_dofs: usize,
    /// Total simulated cycles of one application.
    pub cycles: f64,
    /// Simulated seconds of one application.
    pub seconds: f64,
    /// Floating-point operations of one application.
    pub flops: f64,
    /// M20K blocks the resident FDM tables and patch buffers occupy.
    pub bram_blocks: usize,
    /// Whether the FDM kernel fits on the device next to the `Ax` design.
    pub fits: bool,
}

/// The on-device FDM preconditioner kernel bound to an accelerator design.
#[derive(Debug, Clone)]
pub struct FdmPrecondModel {
    degree: usize,
    coarse_dofs: usize,
}

impl FdmPrecondModel {
    /// Model the FDM pass for `degree` with a Galerkin coarse space of
    /// `coarse_dofs` unknowns (zero when the preconditioner has no coarse
    /// level).
    #[must_use]
    pub fn new(degree: usize, coarse_dofs: usize) -> Self {
        Self {
            degree,
            coarse_dofs,
        }
    }

    /// Bytes of the one-off FDM table upload a solve session pays: the
    /// per-class `S`/`Sᵀ` pairs, the per-combination inverse eigenvalue-sum
    /// tables, and the lower-triangular coarse Cholesky factor.  These cross
    /// the PCIe link once per session (they are shared by every right-hand
    /// side), so `sem-accel` folds them into the offload plan's shared
    /// bytes.
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        let pnx = self.degree as u64 + 1;
        let nc = self.coarse_dofs as u64;
        let matrices = 3 * DIRECTION_CLASSES as u64 * 2 * pnx * pnx;
        let tables = CLASS_COMBINATIONS as u64 * pnx * pnx * pnx;
        let factor = nc * (nc + 1) / 2;
        (matrices + tables + factor) * 8
    }

    /// M20K blocks of the resident working set: the per-class `S`/`Sᵀ`
    /// pairs, the per-combination inverse tables, and the double-buffered
    /// patch buffers partitioned like the `Ax` scratch.
    #[must_use]
    pub fn bram_blocks(&self, accelerator: &FpgaAccelerator) -> usize {
        let pnx = self.degree + 1;
        let banks = accelerator.design().unroll;
        // S and Sᵀ per direction class (row-major pnx² doubles each).
        let matrices = 3 * DIRECTION_CLASSES * 2 * blocks_for_array(pnx * pnx, 1);
        // Inverse eigenvalue-sum tables, banked like the datapath reads them.
        let tables = CLASS_COMBINATIONS * blocks_for_array(pnx * pnx * pnx, banks);
        // Two patch working buffers, double-buffered across elements.
        let buffers = 2 * DOUBLE_BUFFER * blocks_for_array(pnx * pnx * pnx, banks);
        matrices + tables + buffers
    }

    /// Whether the FDM tables and buffers fit in the device BRAM next to the
    /// synthesised `Ax` design (whose own working set and base system are in
    /// the synthesis report's utilisation).
    #[must_use]
    pub fn fits_beside_ax(&self, accelerator: &FpgaAccelerator) -> bool {
        let used = accelerator.synthesis().utilisation.brams * accelerator.device().resources.brams;
        (self.bram_blocks(accelerator) as f64 + used) <= accelerator.device().resources.brams
    }

    /// Estimate one FDM application over `num_elements` elements on
    /// `accelerator`'s design and clock: the tensor pass streams at the
    /// design's unrolled rate (memory-capped on the 16 streamed bytes per
    /// DOF), each element pays the pipeline fill, the coarse transfer rides
    /// the same datapath and the dense triangular coarse solve is charged
    /// serially at one multiply-add per cycle.
    #[must_use]
    pub fn estimate(
        &self,
        accelerator: &FpgaAccelerator,
        num_elements: usize,
    ) -> FdmPrecondEstimate {
        let design = accelerator.design();
        let nx = self.degree + 1;
        let dofs_per_element = (nx * nx * nx) as f64;
        let total_dofs = dofs_per_element * num_elements as f64;
        let f_mhz = accelerator.synthesis().fmax_mhz;

        let ii = design.initiation_interval as f64;
        let mut compute_rate = design.unroll as f64 / ii;
        if !design.arbitration_free() {
            compute_rate *= 0.5;
        }
        // The pass streams far fewer external bytes per DOF than `Ax`
        // (16 vs 64+), so the memory system rarely binds; model it with the
        // same effective-bandwidth ramp regardless.
        let bytes_per_dof = fdm_bytes_per_dof() as f64;
        let total_bytes = bytes_per_dof * total_dofs;
        let memory_rate = accelerator
            .memory()
            .effective_bytes_per_cycle(total_bytes, f_mhz)
            / bytes_per_dof;
        let steady_rate = compute_rate.min(memory_rate).max(1e-9);
        let fill = 0.5 * nx as f64 * num_elements as f64;

        // Coarse level (absent entirely when `coarse_dofs == 0`).  The
        // restriction/prolongation contractions read the element data
        // already resident on chip and their multiply-adds ride the
        // datapath's spare width (the FDM pass streams a quarter of the Ax
        // bytes, so width, not bandwidth, is the binding resource), so they
        // add work to the FLOP ledger but no streaming cycles.  The dense
        // triangular solve is different: its row-to-row dependency chain
        // cannot pipeline across rows, so it runs the row dot products on
        // the `T`-wide multiply-add units at `nc²/T` cycles.
        let cnx = (fdm_coarse_degree(self.degree) + 1) as f64;
        let transfer_flops = if self.coarse_dofs == 0 {
            0.0
        } else {
            4.0 * cnx * (nx * nx * nx) as f64 * num_elements as f64
        };
        let coarse_cycles = (self.coarse_dofs as f64).powi(2) / design.unroll as f64;

        let cycles = total_dofs / steady_rate + fill + coarse_cycles + LAUNCH_OVERHEAD_CYCLES;
        let seconds = cycles / (f_mhz * 1e6);
        let flops = fdm_flops_per_element(self.degree) as f64 * num_elements as f64
            + transfer_flops
            + 2.0 * (self.coarse_dofs as f64).powi(2);

        FdmPrecondEstimate {
            degree: self.degree,
            num_elements,
            coarse_dofs: self.coarse_dofs,
            cycles,
            seconds,
            flops,
            bram_blocks: self.bram_blocks(accelerator),
            fits: self.fits_beside_ax(accelerator),
        }
    }
}

/// Estimate one Jacobi preconditioner application over `num_elements`
/// elements: a pointwise multiply streaming three words per DOF, memory
/// bound, with the usual pipeline fill and launch overhead.
#[must_use]
pub fn estimate_jacobi_seconds(accelerator: &FpgaAccelerator, num_elements: usize) -> f64 {
    let design = accelerator.design();
    let nx = design.degree + 1;
    let total_dofs = (nx * nx * nx) as f64 * num_elements as f64;
    let f_mhz = accelerator.synthesis().fmax_mhz;
    let bytes_per_dof = JACOBI_WORDS_PER_DOF * 8.0;
    let memory_rate = accelerator
        .memory()
        .effective_bytes_per_cycle(bytes_per_dof * total_dofs, f_mhz)
        / bytes_per_dof;
    let compute_rate = design.unroll as f64;
    let steady_rate = compute_rate.min(memory_rate).max(1e-9);
    let cycles = total_dofs / steady_rate + LAUNCH_OVERHEAD_CYCLES;
    cycles / (f_mhz * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_model::FpgaDevice;

    fn accelerator(degree: usize) -> FpgaAccelerator {
        FpgaAccelerator::for_degree(degree, &FpgaDevice::stratix10_gx2800())
    }

    #[test]
    fn fdm_pass_costs_about_one_ax_application_at_scale() {
        // Same contraction structure, fewer geometric multiplies, fewer
        // streamed bytes: at serving scale the FDM pass must land within a
        // small factor of the Ax kernel itself — that is what makes
        // on-device preconditioning worth the fabric.  (At tiny element
        // counts the pipelined-but-dependency-bound coarse solve is the
        // visible floor instead.)
        for degree in [3_usize, 7, 11] {
            let acc = accelerator(degree);
            let elements = 4096;
            let ax = acc.estimate(elements).seconds;
            let fdm = FdmPrecondModel::new(degree, 343)
                .estimate(&acc, elements)
                .seconds;
            assert!(fdm > 0.0);
            assert!(fdm < 1.5 * ax, "degree {degree}: fdm {fdm} vs ax {ax}");
        }
    }

    #[test]
    fn fdm_tables_fit_beside_every_table1_design() {
        for degree in [1_usize, 3, 5, 7, 9, 11, 13, 15] {
            let acc = accelerator(degree);
            let model = FdmPrecondModel::new(degree, 343);
            let est = model.estimate(&acc, 4096);
            assert!(est.bram_blocks > 0);
            assert!(est.fits, "degree {degree}: {} blocks", est.bram_blocks);
        }
    }

    #[test]
    fn coarse_solve_is_visible_but_amortises_at_scale() {
        let acc = accelerator(7);
        // Visible at any size...
        let small_without = FdmPrecondModel::new(7, 0).estimate(&acc, 64);
        let small_with = FdmPrecondModel::new(7, 343).estimate(&acc, 64);
        assert!(small_with.cycles > small_without.cycles);
        // ...dominant only at tiny element counts (the dependency-bound
        // triangular solve is a fixed floor); at serving scale it is noise.
        let large_without = FdmPrecondModel::new(7, 0).estimate(&acc, 4096);
        let large_with = FdmPrecondModel::new(7, 343).estimate(&acc, 4096);
        assert!(large_with.seconds < 1.1 * large_without.seconds);
    }

    #[test]
    fn jacobi_pass_is_much_cheaper_than_fdm() {
        let acc = accelerator(7);
        let jacobi = estimate_jacobi_seconds(&acc, 64);
        let fdm = FdmPrecondModel::new(7, 343).estimate(&acc, 64).seconds;
        assert!(jacobi > 0.0);
        assert!(jacobi < fdm);
    }

    #[test]
    fn per_element_cost_scales_linearly_at_size() {
        let acc = accelerator(7);
        let model = FdmPrecondModel::new(7, 0);
        let small = model.estimate(&acc, 512).seconds;
        let large = model.estimate(&acc, 4096).seconds;
        let ratio = large / small;
        assert!((ratio - 8.0).abs() < 1.0, "ratio {ratio}");
    }
}
