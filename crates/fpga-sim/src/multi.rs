//! Multi-board scaling estimates.
//!
//! The paper evaluates a single Bittware 520N, but its host application
//! (Nek5000/Nekbone) is an MPI code that partitions elements across ranks;
//! the natural deployment of the accelerator is therefore one board per rank.
//! This module estimates how the simulated accelerator scales when the
//! element set is block-partitioned across several boards, including the
//! gather–scatter exchange traffic that the interface nodes generate over the
//! host network.

use crate::executor::FpgaAccelerator;
use perf_model::FpgaDevice;
use sem_mesh::{ElementField, GeometricFactors};
use serde::{Deserialize, Serialize};

/// Scaling estimate for a multi-board run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiBoardEstimate {
    /// Polynomial degree.
    pub degree: usize,
    /// Total number of elements.
    pub num_elements: usize,
    /// Number of boards the elements are spread over.
    pub boards: usize,
    /// Elements on the most loaded board.
    pub elements_per_board: usize,
    /// Simulated kernel time of the most loaded board (seconds).
    pub kernel_seconds: f64,
    /// Estimated interface-exchange time per operator application (seconds).
    pub exchange_seconds: f64,
    /// Aggregate throughput in GFLOP/s including the exchange overhead.
    pub gflops: f64,
    /// Parallel efficiency against a single board.
    pub parallel_efficiency: f64,
}

/// A set of identical simulated accelerator boards with the element set
/// block-partitioned across them, one partition per board — the
/// one-board-per-MPI-rank deployment the paper's host application implies.
///
/// The type both prices and *executes* the kernel: each board's contiguous
/// element block runs through the per-board [`FpgaAccelerator`]'s datapath
/// (the resolved specialized kernel family), so one code path serves one
/// board and many, and a solver iterating through a multi-board engine
/// obtains bit-identical results to the single-board simulator.
#[derive(Debug, Clone)]
pub struct MultiBoardAccelerator {
    accelerator: FpgaAccelerator,
    boards: usize,
    interconnect_gbs: f64,
}

impl MultiBoardAccelerator {
    /// Synthesise the per-degree production design onto `boards` copies of
    /// `device`, exchanging interface data over an `interconnect_gbs` GB/s
    /// host interconnect.
    ///
    /// # Panics
    /// Panics if `boards` is zero or the design does not fit on the device.
    #[must_use]
    pub fn new(degree: usize, device: &FpgaDevice, boards: usize, interconnect_gbs: f64) -> Self {
        assert!(boards > 0, "need at least one board");
        Self {
            accelerator: FpgaAccelerator::for_degree(degree, device),
            boards,
            interconnect_gbs,
        }
    }

    /// Number of boards.
    #[must_use]
    pub fn boards(&self) -> usize {
        self.boards
    }

    /// The per-board accelerator (identical design on every board).
    #[must_use]
    pub fn accelerator(&self) -> &FpgaAccelerator {
        &self.accelerator
    }

    /// The device every board carries.
    #[must_use]
    pub fn device(&self) -> &FpgaDevice {
        self.accelerator.device()
    }

    /// Elements on the most loaded board for a block partition of
    /// `num_elements`.
    #[must_use]
    pub fn elements_per_board(&self, num_elements: usize) -> usize {
        num_elements.div_ceil(self.boards)
    }

    /// Timing estimate for one operator application over `num_elements`
    /// block-partitioned elements: kernel time of the most loaded board plus
    /// the interface exchange over the host interconnect.  Reuses this
    /// design; nothing is re-synthesised.
    #[must_use]
    pub fn estimate(&self, num_elements: usize) -> MultiBoardEstimate {
        let degree = self.accelerator.design().degree;
        let elements_per_board = self.elements_per_board(num_elements);
        let local = self.accelerator.estimate(elements_per_board);

        // Interface traffic: a block partition of a roughly cubic box exposes
        // about 2·(E_local)^(2/3) faces per board; each face carries (N+1)^2
        // doubles that must be exchanged and summed.
        let nx = (degree + 1) as f64;
        let faces = 2.0 * (elements_per_board as f64).powf(2.0 / 3.0);
        let exchange_bytes = if self.boards == 1 {
            0.0
        } else {
            faces * nx * nx * 8.0 * 2.0 // send + receive
        };
        let exchange_seconds = exchange_bytes / (self.interconnect_gbs * 1e9);

        let flops = sem_kernel::flops_per_dof(degree) as f64
            * sem_basis::dofs_per_element(degree) as f64
            * num_elements as f64;
        let wall = local.seconds + exchange_seconds;
        let gflops = flops / wall / 1e9;

        let single = self.accelerator.estimate(num_elements);
        let ideal_speedup = self.boards as f64;
        let actual_speedup = single.seconds / wall;
        MultiBoardEstimate {
            degree,
            num_elements,
            boards: self.boards,
            elements_per_board,
            kernel_seconds: local.seconds,
            exchange_seconds,
            gflops,
            parallel_efficiency: (actual_speedup / ideal_speedup).min(1.0),
        }
    }

    /// Execute `w = A u` and return the multi-board timing estimate:
    /// [`MultiBoardAccelerator::apply_into`] followed by
    /// [`MultiBoardAccelerator::estimate`].
    ///
    /// # Panics
    /// Panics if the fields and geometric factors do not match the design's
    /// degree and each other.
    pub fn execute_into(
        &self,
        u: &ElementField,
        geometry: &GeometricFactors,
        w: &mut ElementField,
    ) -> MultiBoardEstimate {
        self.apply_into(u, geometry, w);
        self.estimate(u.num_elements())
    }

    /// The numeric pass alone: every board runs its contiguous element
    /// block of the geometry's split planes through the single-board
    /// datapath, so results are bitwise identical to
    /// [`FpgaAccelerator::execute`].  Builds no timing estimate.
    ///
    /// # Panics
    /// Panics if the fields and geometric factors do not match the design's
    /// degree and each other.
    pub fn apply_into(&self, u: &ElementField, geometry: &GeometricFactors, w: &mut ElementField) {
        self.accelerator.check_operands(u, geometry, w);
        let num_elements = u.num_elements();
        let npts = u.dofs_per_element();
        let per_board = self.elements_per_board(num_elements);
        let (u, w) = (u.as_slice(), w.as_mut_slice());
        let planes = geometry.planes();
        for board in 0..self.boards {
            let first = board * per_board;
            let last = ((board + 1) * per_board).min(num_elements);
            if first >= last {
                break;
            }
            let range = first * npts..last * npts;
            self.accelerator.datapath(
                &u[range.clone()],
                &mut w[range.clone()],
                planes.map(|plane| &plane[range.clone()]),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(num_elements: usize, boards: usize) -> MultiBoardEstimate {
        MultiBoardAccelerator::new(7, &FpgaDevice::stratix10_gx2800(), boards, 12.0)
            .estimate(num_elements)
    }

    #[test]
    fn single_board_matches_the_plain_estimate() {
        let device = FpgaDevice::stratix10_gx2800();
        let est = estimate(4096, 1);
        assert_eq!(est.elements_per_board, 4096);
        assert_eq!(est.exchange_seconds, 0.0);
        assert!((est.parallel_efficiency - 1.0).abs() < 1e-9);
        let single = FpgaAccelerator::for_degree(7, &device).estimate(4096);
        assert!((est.gflops - single.gflops).abs() < 1e-6);
    }

    #[test]
    fn more_boards_increase_aggregate_throughput() {
        let one = estimate(8192, 1);
        let four = estimate(8192, 4);
        let eight = estimate(8192, 8);
        assert!(four.gflops > 2.0 * one.gflops);
        assert!(eight.gflops > four.gflops);
        assert!(eight.parallel_efficiency <= 1.0);
    }

    #[test]
    fn efficiency_degrades_when_boards_outnumber_the_work() {
        let few = estimate(512, 2);
        let many = estimate(512, 32);
        assert!(many.parallel_efficiency < few.parallel_efficiency);
    }

    #[test]
    #[should_panic(expected = "at least one board")]
    fn accelerator_rejects_zero_boards() {
        let device = FpgaDevice::stratix10_gx2800();
        let _ = MultiBoardAccelerator::new(7, &device, 0, 12.0);
    }

    #[test]
    fn multi_board_execution_is_bitwise_identical_to_single_board() {
        use sem_mesh::BoxMesh;
        let degree = 5;
        let device = FpgaDevice::stratix10_gx2800();
        let mesh = BoxMesh::unit_cube(degree, 2); // 8 elements
        let geometry = GeometricFactors::from_mesh(&mesh);
        let u = mesh.evaluate(|x, y, z| (3.0 * x).sin() * (y + 0.2) + z * z);

        let single = FpgaAccelerator::for_degree(degree, &device);
        let (w_single, _) = single.execute(&u, &geometry);

        for boards in [1, 2, 3, 4] {
            let multi = MultiBoardAccelerator::new(degree, &device, boards, 12.0);
            let mut w_multi = ElementField::zeros(degree, mesh.num_elements());
            let est = multi.execute_into(&u, &geometry, &mut w_multi);
            assert_eq!(
                w_single.as_slice(),
                w_multi.as_slice(),
                "{boards} boards: partitioned execution must not change results"
            );
            assert_eq!(est.boards, boards);
            assert!(est.kernel_seconds > 0.0);
        }
    }

    #[test]
    fn multi_board_estimates_price_the_most_loaded_board() {
        let device = FpgaDevice::stratix10_gx2800();
        let multi = MultiBoardAccelerator::new(7, &device, 4, 12.0);
        let a = multi.estimate(4096);
        assert_eq!(a, estimate(4096, 4), "the estimate is a pure function");
        assert_eq!(
            a.kernel_seconds,
            FpgaAccelerator::for_degree(7, &device)
                .estimate(1024)
                .seconds
        );
        assert!(a.exchange_seconds > 0.0);
        assert_eq!(multi.elements_per_board(4096), 1024);
        assert_eq!(multi.boards(), 4);
    }
}
