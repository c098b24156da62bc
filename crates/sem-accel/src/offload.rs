//! Host-side offload planning.
//!
//! Mirrors the host responsibilities of the paper's OpenCL flow: lay the
//! geometric factors out as six separate buffers (Section III-B), distribute
//! the eight data regions over the four external banks (Section III-D),
//! optionally pad elements up to the synthesised width (Section III-E), and
//! account for the PCIe transfer volume that the evaluation deliberately
//! excludes from its timings.

use crate::system::HOST_LINK_GBS;
use fpga_sim::{AcceleratorDesign, FpgaDevice};
use serde::{Deserialize, Serialize};

/// A plan for moving one problem's data to and from the accelerator board.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OffloadPlan {
    /// Polynomial degree of the kernel bitstream.
    pub degree: usize,
    /// Number of elements to process.
    pub num_elements: usize,
    /// Whether host-side padding to the synthesised width is required.
    pub padded: bool,
    /// Points per direction actually sent to the device.
    pub device_points_per_direction: usize,
    /// Bytes transferred host → device (operand + geometric factors + the two
    /// derivative matrices).
    pub bytes_to_device: u64,
    /// Bytes transferred device → host (the result field).
    pub bytes_from_device: u64,
    /// Number of distinct device buffers (data regions) allocated.
    pub device_buffers: usize,
    /// Number of external memory banks the buffers are spread over.
    pub memory_banks: usize,
    /// Bytes of the one-off preconditioner upload (FDM eigenvector and
    /// inverse eigenvalue tables plus the coarse factor, or the Jacobi
    /// inverse diagonal) when the preconditioner runs on-device; zero
    /// otherwise.  Included in [`OffloadPlan::bytes_to_device`], so it is
    /// shared (once-per-session) traffic like the geometric factors.
    pub precond_table_bytes: u64,
}

impl OffloadPlan {
    /// Build the plan for running `num_elements` elements through `design` on
    /// `device`.
    #[must_use]
    pub fn new(design: &AcceleratorDesign, device: &FpgaDevice, num_elements: usize) -> Self {
        let n1 = design.degree + 1;
        let device_nx = design.points_per_direction();
        let padded = device_nx != n1;
        let dofs = (device_nx * device_nx * device_nx) as u64 * num_elements as u64;
        let dbl = std::mem::size_of::<f64>() as u64;
        // u + 6 geometric factor planes in, w out, plus the two (N+1)^2
        // derivative matrices.
        let bytes_to_device = dofs * dbl * 7 + 2 * (device_nx * device_nx) as u64 * dbl;
        let bytes_from_device = dofs * dbl;
        Self {
            degree: design.degree,
            num_elements,
            padded,
            device_points_per_direction: device_nx,
            bytes_to_device,
            bytes_from_device,
            // u, w, 6 gxyz planes: the "eight different data regions" of §III-D.
            device_buffers: 8,
            memory_banks: device.memory_banks,
            precond_table_bytes: 0,
        }
    }

    /// The same plan with a one-off on-device preconditioner upload folded
    /// into the host→device (shared) traffic.
    #[must_use]
    pub fn with_precond_tables(mut self, bytes: u64) -> Self {
        self.bytes_to_device = self.bytes_to_device - self.precond_table_bytes + bytes;
        self.precond_table_bytes = bytes;
        self
    }

    /// Total PCIe traffic in bytes.
    #[must_use]
    pub fn total_transfer_bytes(&self) -> u64 {
        self.bytes_to_device + self.bytes_from_device
    }

    /// Bytes of the operand field `u` (one upload per right-hand side).
    #[must_use]
    pub fn operand_bytes(&self) -> u64 {
        // The result field has the same extent as the operand.
        self.bytes_from_device
    }

    /// Bytes shared by every solve on this problem: the six geometric-factor
    /// planes and the two derivative matrices.  A batched solve uploads them
    /// once, however many right-hand sides it serves.
    #[must_use]
    pub fn shared_bytes(&self) -> u64 {
        self.bytes_to_device - self.operand_bytes()
    }

    /// Total PCIe traffic of serving `batch` right-hand sides in one
    /// session: the shared data crosses the link once, then each RHS pays
    /// only its operand upload and result download.  `batch == 1` equals
    /// [`OffloadPlan::total_transfer_bytes`].
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn batched_transfer_bytes(&self, batch: usize) -> u64 {
        assert!(batch > 0, "need at least one right-hand side");
        let per_rhs = self.operand_bytes() + self.bytes_from_device;
        self.shared_bytes() + per_rhs * batch as u64
    }

    /// Transfer time in seconds over the [`HOST_LINK_GBS`] link (the paper
    /// excludes this from kernel timings; exposed for end-to-end studies).
    #[must_use]
    pub fn transfer_seconds(&self) -> f64 {
        link_seconds(self.total_transfer_bytes())
    }

    /// Transfer time of a whole `batch`-RHS session (see
    /// [`OffloadPlan::batched_transfer_bytes`]).
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn batched_transfer_seconds(&self, batch: usize) -> f64 {
        link_seconds(self.batched_transfer_bytes(batch))
    }

    /// Seconds the shared data (geometric factors + derivative matrices)
    /// takes to cross the link — the once-per-session upload of a batched
    /// or pipelined serve.
    #[must_use]
    pub fn shared_upload_seconds(&self) -> f64 {
        link_seconds(self.shared_bytes())
    }

    /// Seconds one operand field takes to upload — the per-RHS H2D stage of
    /// the offload pipeline.
    #[must_use]
    pub fn operand_upload_seconds(&self) -> f64 {
        link_seconds(self.operand_bytes())
    }

    /// Seconds one result field takes to download — the per-RHS D2H stage
    /// of the offload pipeline.
    #[must_use]
    pub fn result_download_seconds(&self) -> f64 {
        link_seconds(self.bytes_from_device)
    }

    /// Buffers per memory bank under the banked allocation.
    #[must_use]
    pub fn buffers_per_bank(&self) -> usize {
        self.device_buffers.div_ceil(self.memory_banks)
    }
}

/// Seconds `bytes` take to cross the [`HOST_LINK_GBS`] link (each direction;
/// the link is full-duplex).
fn link_seconds(bytes: u64) -> f64 {
    bytes as f64 / (HOST_LINK_GBS * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpadded_plan_accounts_for_eight_words_per_dof() {
        let device = FpgaDevice::stratix10_gx2800();
        let design = AcceleratorDesign::for_degree(7, &device);
        let plan = OffloadPlan::new(&design, &device, 4096);
        assert!(!plan.padded);
        assert_eq!(plan.device_points_per_direction, 8);
        let dofs = 512_u64 * 4096;
        assert_eq!(plan.bytes_from_device, dofs * 8);
        assert_eq!(plan.bytes_to_device, dofs * 8 * 7 + 2 * 64 * 8);
        assert_eq!(plan.total_transfer_bytes(), dofs * 64 + 2 * 64 * 8);
        assert_eq!(plan.device_buffers, 8);
        assert_eq!(plan.buffers_per_bank(), 2);
    }

    #[test]
    fn padded_plan_inflates_the_transfers() {
        let device = FpgaDevice::stratix10_gx2800();
        let mut design = AcceleratorDesign::for_degree(9, &device);
        let unpadded = OffloadPlan::new(&design, &device, 64);
        design.unroll = 4;
        design.host_padding = true;
        let padded = OffloadPlan::new(&design, &device, 64);
        assert!(padded.padded);
        assert_eq!(padded.device_points_per_direction, 12);
        assert!(padded.bytes_to_device > unpadded.bytes_to_device);
    }

    #[test]
    fn batched_transfers_pay_the_shared_upload_once() {
        let device = FpgaDevice::stratix10_gx2800();
        let design = AcceleratorDesign::for_degree(7, &device);
        let plan = OffloadPlan::new(&design, &device, 512);
        assert_eq!(plan.batched_transfer_bytes(1), plan.total_transfer_bytes());
        let sequential_16 = 16 * plan.total_transfer_bytes();
        let batched_16 = plan.batched_transfer_bytes(16);
        assert!(batched_16 < sequential_16);
        // Exactly: shared once instead of 16 times.
        assert_eq!(sequential_16 - batched_16, 15 * plan.shared_bytes());
        // Per-RHS traffic drops by well over the 30% acceptance bar (the
        // shared geometric factors dominate the upload).
        let drop = 1.0 - batched_16 as f64 / sequential_16 as f64;
        assert!(drop > 0.3, "drop {drop}");
    }

    #[test]
    fn piecewise_stage_seconds_recompose_the_session_totals() {
        let device = FpgaDevice::stratix10_gx2800();
        let design = AcceleratorDesign::for_degree(7, &device);
        let plan = OffloadPlan::new(&design, &device, 512);
        let pieces = plan.shared_upload_seconds()
            + plan.operand_upload_seconds()
            + plan.result_download_seconds();
        assert!((pieces - plan.transfer_seconds()).abs() < 1e-15 * pieces.abs().max(1.0));
    }

    #[test]
    fn precond_tables_ride_the_shared_upload() {
        let device = FpgaDevice::stratix10_gx2800();
        let design = AcceleratorDesign::for_degree(7, &device);
        let plain = OffloadPlan::new(&design, &device, 512);
        let priced = plain.with_precond_tables(1_000_000);
        assert_eq!(priced.precond_table_bytes, 1_000_000);
        assert_eq!(priced.bytes_to_device, plain.bytes_to_device + 1_000_000);
        // Shared, not per-RHS: a batch pays the tables once.
        assert_eq!(priced.shared_bytes(), plain.shared_bytes() + 1_000_000);
        assert_eq!(priced.operand_bytes(), plain.operand_bytes());
        assert_eq!(
            priced.batched_transfer_bytes(16),
            plain.batched_transfer_bytes(16) + 1_000_000
        );
        // Idempotent re-pricing.
        assert_eq!(priced.with_precond_tables(1_000_000), priced);
        assert_eq!(priced.with_precond_tables(0), plain);
    }

    #[test]
    fn transfers_are_priced_at_the_host_link() {
        let device = FpgaDevice::stratix10_gx2800();
        let design = AcceleratorDesign::for_degree(7, &device);
        let plan = OffloadPlan::new(&design, &device, 1024);
        let seconds = plan.total_transfer_bytes() as f64 / (HOST_LINK_GBS * 1e9);
        assert_eq!(plan.transfer_seconds().to_bits(), seconds.to_bits());
        assert_eq!(
            plan.batched_transfer_seconds(1).to_bits(),
            plan.transfer_seconds().to_bits()
        );
    }
}
