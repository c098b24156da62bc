//! Multi-board scaling estimate: how the simulated accelerator scales when
//! the element set is partitioned across several boards with a host-network
//! gather–scatter exchange (the natural Nek5000/MPI deployment of the
//! paper's accelerator).
//!
//! Run with `cargo run -p bench --bin multiboard --release [degree] [elements]`.

use bench::table::fmt;
use bench::TableWriter;
use fpga_sim::{FpgaDevice, MultiBoardAccelerator};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let degree: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let elements: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16384);
    let interconnect_gbs = 12.5; // ~100 Gb/s network

    let device = FpgaDevice::stratix10_gx2800();
    let mut table = TableWriter::new(vec![
        "boards",
        "elems/board",
        "kernel (ms)",
        "exchange (ms)",
        "aggregate GFLOP/s",
        "efficiency",
    ]);
    for &boards in &[1_usize, 2, 4, 8, 16, 32] {
        let est = MultiBoardAccelerator::new(degree, &device, boards, interconnect_gbs)
            .estimate(elements);
        table.row(vec![
            boards.to_string(),
            est.elements_per_board.to_string(),
            fmt(est.kernel_seconds * 1e3, 3),
            fmt(est.exchange_seconds * 1e3, 3),
            fmt(est.gflops, 1),
            format!("{}%", fmt(est.parallel_efficiency * 100.0, 0)),
        ]);
    }
    println!(
        "Multi-board scaling, N = {degree}, {elements} elements, {interconnect_gbs} GB/s interconnect\n"
    );
    table.print();
}
