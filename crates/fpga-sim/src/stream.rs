//! A STREAM-style effective-bandwidth study for the FPGA memory system.
//!
//! The paper explains its small-problem performance and its model error
//! through the input-size-dependent effective bandwidth it observed with the
//! FPGA adaptation of the HPCChallenge STREAM benchmark (reference \[42\]).
//! This module reproduces that experiment against the simulated memory
//! system: a copy/scale/add/triad sweep over transfer sizes for both
//! allocation policies, yielding the effective-bandwidth curve the executor
//! and the model error analysis rely on.

use crate::design::MemoryAllocation;
use crate::memory::MemorySystem;
use perf_model::FpgaDevice;
use serde::{Deserialize, Serialize};

/// The four classical STREAM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamKernel {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = s * c[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + s * c[i]`
    Triad,
}

impl StreamKernel {
    /// Bytes moved per vector element (read + write traffic).
    #[must_use]
    pub fn bytes_per_element(self) -> usize {
        match self {
            Self::Copy | Self::Scale => 16,
            Self::Add | Self::Triad => 24,
        }
    }

    /// All four kernels.
    #[must_use]
    pub fn all() -> [Self; 4] {
        [Self::Copy, Self::Scale, Self::Add, Self::Triad]
    }
}

/// One measurement of the simulated STREAM sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamPoint {
    /// Which kernel was run.
    pub kernel: StreamKernel,
    /// Vector length in double-precision elements.
    pub elements: usize,
    /// Total bytes moved.
    pub bytes: u64,
    /// Effective bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Fraction of the board's peak bandwidth.
    pub fraction_of_peak: f64,
}

/// Run the simulated STREAM sweep on `device` under `allocation` for the
/// given vector lengths (in doubles).
#[must_use]
pub fn stream_sweep(
    device: &FpgaDevice,
    allocation: MemoryAllocation,
    vector_lengths: &[usize],
) -> Vec<StreamPoint> {
    let memory = MemorySystem::of_device(device, allocation);
    let peak = device.bandwidth_bytes_per_sec();
    let mut points = Vec::new();
    for &kernel in &StreamKernel::all() {
        for &elements in vector_lengths {
            let bytes = (elements * kernel.bytes_per_element()) as u64;
            let effective = memory.effective_bandwidth(bytes as f64);
            points.push(StreamPoint {
                kernel,
                elements,
                bytes,
                bandwidth_gbs: effective / 1e9,
                fraction_of_peak: effective / peak,
            });
        }
    }
    points
}

/// The default sweep sizes (64 KiB … 1 GiB of doubles), mirroring the
/// HPCChallenge STREAM adaptation's range.
#[must_use]
pub fn default_vector_lengths() -> Vec<usize> {
    (13..=27).map(|p| 1usize << p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_moves_more_bytes_than_copy() {
        assert!(StreamKernel::Triad.bytes_per_element() > StreamKernel::Copy.bytes_per_element());
        assert_eq!(StreamKernel::all().len(), 4);
    }

    #[test]
    fn bandwidth_ramps_and_saturates_below_peak() {
        let device = FpgaDevice::stratix10_gx2800();
        let points = stream_sweep(&device, MemoryAllocation::Banked, &default_vector_lengths());
        let triad: Vec<&StreamPoint> = points
            .iter()
            .filter(|p| p.kernel == StreamKernel::Triad)
            .collect();
        for pair in triad.windows(2) {
            assert!(pair[1].bandwidth_gbs >= pair[0].bandwidth_gbs);
        }
        let last = triad.last().unwrap();
        assert!(last.fraction_of_peak > 0.9 && last.fraction_of_peak <= 1.0);
        let first = triad.first().unwrap();
        assert!(
            first.fraction_of_peak < 0.5,
            "small transfers are latency bound"
        );
    }

    #[test]
    fn interleaved_never_beats_banked() {
        let device = FpgaDevice::stratix10_gx2800();
        let lengths = default_vector_lengths();
        let banked = stream_sweep(&device, MemoryAllocation::Banked, &lengths);
        let interleaved = stream_sweep(&device, MemoryAllocation::Interleaved, &lengths);
        for (b, i) in banked.iter().zip(&interleaved) {
            assert!(b.bandwidth_gbs >= i.bandwidth_gbs);
        }
    }

    #[test]
    fn sweep_covers_every_kernel_and_size() {
        let device = FpgaDevice::stratix10_gx2800();
        let lengths = vec![1 << 14, 1 << 20];
        let points = stream_sweep(&device, MemoryAllocation::Banked, &lengths);
        assert_eq!(points.len(), 4 * 2);
    }
}
