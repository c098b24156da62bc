//! Simulated STREAM-for-FPGA sweep: effective external bandwidth vs. transfer
//! size for banked and interleaved allocations — the measurement (paper
//! reference \[42\]) the evaluation uses to explain its small-input behaviour
//! and model error.
//!
//! Run with `cargo run -p bench --bin stream --release`.

use bench::table::fmt;
use bench::TableWriter;
use fpga_sim::stream::{default_vector_lengths, stream_sweep, StreamKernel};
use fpga_sim::{FpgaDevice, MemoryAllocation};

fn main() {
    let device = FpgaDevice::stratix10_gx2800();
    let lengths = default_vector_lengths();
    let banked = stream_sweep(&device, MemoryAllocation::Banked, &lengths);
    let interleaved = stream_sweep(&device, MemoryAllocation::Interleaved, &lengths);

    let mut table = TableWriter::new(vec![
        "vector KiB",
        "triad banked (GB/s)",
        "triad interleaved (GB/s)",
        "% of peak (banked)",
    ]);
    for &len in &lengths {
        let b = banked
            .iter()
            .find(|p| p.kernel == StreamKernel::Triad && p.elements == len)
            .unwrap();
        let i = interleaved
            .iter()
            .find(|p| p.kernel == StreamKernel::Triad && p.elements == len)
            .unwrap();
        table.row(vec![
            (len * 8 / 1024).to_string(),
            fmt(b.bandwidth_gbs, 1),
            fmt(i.bandwidth_gbs, 1),
            fmt(b.fraction_of_peak * 100.0, 1),
        ]);
    }
    println!(
        "Simulated STREAM triad on {} (peak {} GB/s)\n",
        device.name, device.memory_bandwidth_gbs
    );
    table.print();
}
