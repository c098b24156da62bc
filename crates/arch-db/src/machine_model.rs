//! Calibrated kernel models for the CPU and GPU baselines.
//!
//! For every machine of Table II the achieved kernel performance is modelled
//! as
//!
//! ```text
//! P(N, E) = min( ceiling,  bandwidth · bw_eff · ramp(E, N) · I(N) ) · degrade(N)
//! ```
//!
//! * `ceiling` — the fraction of peak double-precision throughput the
//!   Nekbone/CUDA kernel sustains when it becomes compute-bound;
//! * `bw_eff` — the fraction of peak bandwidth the kernel streams at;
//! * `ramp(E, N)` — the small-problem ramp of Fig. 1 (launch/latency
//!   overheads amortise with the transferred bytes);
//! * `degrade(N)` — the tuned GPU kernel of \[40\] targets the production
//!   degrees (N ≤ 11) and loses efficiency above them, which the paper points
//!   out explicitly.
//!
//! The per-machine constants are calibrated so the ratios the paper reports
//! at 4096 elements (Fig. 2 and Section V-C) are reproduced; `EXPERIMENTS.md`
//! lists paper-vs-model values for each.

use crate::catalog::{find, Architecture};
use perf_model::cost::{bytes_per_dof, dofs_per_element, operational_intensity};
use serde::{Deserialize, Serialize};

/// A calibrated kernel model for one architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    /// The machine being modelled.
    pub architecture: Architecture,
    /// Fraction of peak FLOP/s the kernel reaches when compute-bound.
    pub compute_efficiency: f64,
    /// Fraction of peak bandwidth the kernel streams at.
    pub bandwidth_efficiency: f64,
    /// Transferred bytes at which the ramp reaches 50%.
    pub ramp_half_bytes: f64,
    /// Degree above which the (GPU) kernel starts to lose efficiency.
    pub degrade_onset_degree: usize,
    /// Relative efficiency loss per degree beyond the onset.
    pub degrade_slope: f64,
    /// Fraction of TDP drawn while running this bandwidth-bound kernel.
    pub load_power_fraction: f64,
}

impl MachineModel {
    /// The degradation factor of the tuned kernel at `degree`.
    #[must_use]
    pub fn degrade(&self, degree: usize) -> f64 {
        if degree <= self.degrade_onset_degree {
            1.0
        } else {
            1.0 / (1.0 + self.degrade_slope * (degree - self.degrade_onset_degree) as f64)
        }
    }

    /// Achieved kernel performance in GFLOP/s for `num_elements` elements of
    /// polynomial degree `degree`.
    #[must_use]
    pub fn achieved_gflops(&self, degree: usize, num_elements: usize) -> f64 {
        let total_bytes =
            bytes_per_dof(degree) * dofs_per_element(degree) as f64 * num_elements as f64;
        // Launch/latency overheads amortise with the transferred data: the
        // small-problem ramp of Fig. 1 applies to compute- and bandwidth-bound
        // regimes alike.
        let ramp = total_bytes / (total_bytes + self.ramp_half_bytes);
        let bandwidth_bound = self.architecture.bandwidth_gbs
            * self.bandwidth_efficiency
            * operational_intensity(degree);
        let compute_bound = self.architecture.peak_gflops * self.compute_efficiency;
        bandwidth_bound.min(compute_bound) * ramp * self.degrade(degree)
    }

    /// Power draw while running the kernel, in watts.
    #[must_use]
    pub fn power_watts(&self) -> f64 {
        self.architecture.tdp_watts * self.load_power_fraction
    }

    /// Power efficiency in GFLOP/s per watt at the given problem size.
    #[must_use]
    pub fn gflops_per_watt(&self, degree: usize, num_elements: usize) -> f64 {
        self.achieved_gflops(degree, num_elements) / self.power_watts()
    }

    /// The machine's roofline bound for the kernel at `degree` (no
    /// efficiency factors), in GFLOP/s.
    #[must_use]
    pub fn roofline_gflops(&self, degree: usize) -> f64 {
        perf_model::roofline::kernel_roofline_gflops(
            self.architecture.peak_gflops,
            self.architecture.bandwidth_gbs,
            degree,
        )
    }
}

fn model(
    name: &str,
    compute_efficiency: f64,
    bandwidth_efficiency: f64,
    ramp_half_mb: f64,
    degrade_onset_degree: usize,
    degrade_slope: f64,
    load_power_fraction: f64,
) -> MachineModel {
    MachineModel {
        architecture: find(name).unwrap_or_else(|| panic!("unknown architecture {name}")),
        compute_efficiency,
        bandwidth_efficiency,
        ramp_half_bytes: ramp_half_mb * 1024.0 * 1024.0,
        degrade_onset_degree,
        degrade_slope,
        load_power_fraction,
    }
}

/// Calibrated models for every CPU and GPU baseline of the evaluation.
///
/// The FPGA itself is *not* in this list: it is simulated by `fpga-sim`
/// rather than modelled by a two-parameter fit.
#[must_use]
pub fn calibrated_models() -> Vec<MachineModel> {
    vec![
        // CPUs: Nekbone's Ax with one MPI rank per core.  The small ramp
        // constant reflects that CPUs reach their steady state quickly
        // (caches, no launch overhead) — the flat CPU curves of Fig. 1.
        model("Xeon Gold 6130", 0.170, 0.60, 0.25, usize::MAX, 0.0, 0.90),
        model("i9-10920X", 0.122, 0.85, 0.25, usize::MAX, 0.0, 0.90),
        model("ThunderX2", 0.176, 0.25, 0.25, usize::MAX, 0.0, 0.90),
        // GPUs: the tuned tensor-product kernel of Karp et al. [40].
        model("Tesla K80", 0.0824, 0.246, 8.0, usize::MAX, 0.0, 0.60),
        model("Tesla P100", 0.50, 0.84, 16.0, 11, 0.30, 0.60),
        model("RTX 2060", 1.00, 0.80, 16.0, usize::MAX, 0.0, 0.60),
        model("Tesla V100", 0.50, 0.95, 16.0, 11, 0.26, 0.60),
        model("A100", 0.50, 0.70, 24.0, 11, 0.24, 0.60),
    ]
}

/// Look up a calibrated model by architecture-name fragment.
#[must_use]
pub fn calibrated_model(name_fragment: &str) -> Option<MachineModel> {
    let needle = name_fragment.to_lowercase();
    calibrated_models()
        .into_iter()
        .find(|m| m.architecture.name.to_lowercase().contains(&needle))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ELEMENTS: usize = 4096;

    #[test]
    fn all_table2_baselines_have_models() {
        assert_eq!(calibrated_models().len(), 8);
    }

    #[test]
    fn section_vc_rankings_at_4096_elements_hold() {
        // Paper, N = 15: FPGA (211 GF) beats Xeon (×1.17), i9 (×1.89),
        // ThunderX2 (×2.34) and K80 (×1.87), is ~0.86× the RTX 2060, and is
        // beaten by P100/V100/A100 by 4.3×/6.4×/8.4×.
        let fpga = 211.3;
        let xeon = calibrated_model("Xeon")
            .unwrap()
            .achieved_gflops(15, ELEMENTS);
        let i9 = calibrated_model("i9")
            .unwrap()
            .achieved_gflops(15, ELEMENTS);
        let tx2 = calibrated_model("ThunderX2")
            .unwrap()
            .achieved_gflops(15, ELEMENTS);
        let k80 = calibrated_model("K80")
            .unwrap()
            .achieved_gflops(15, ELEMENTS);
        let rtx = calibrated_model("RTX")
            .unwrap()
            .achieved_gflops(15, ELEMENTS);
        let p100 = calibrated_model("P100")
            .unwrap()
            .achieved_gflops(15, ELEMENTS);
        let v100 = calibrated_model("V100")
            .unwrap()
            .achieved_gflops(15, ELEMENTS);
        let a100 = calibrated_model("A100")
            .unwrap()
            .achieved_gflops(15, ELEMENTS);

        assert!(fpga > xeon && fpga > i9 && fpga > tx2 && fpga > k80);
        assert!(rtx > fpga * 0.8 && rtx < fpga * 1.4, "RTX {rtx}");
        assert!(p100 > 3.0 * fpga && p100 < 6.0 * fpga, "P100 {p100}");
        assert!(v100 > 4.5 * fpga && v100 < 8.0 * fpga, "V100 {v100}");
        assert!(a100 > 6.5 * fpga && a100 < 10.5 * fpga, "A100 {a100}");
        // Ratios against the CPUs within ~25% of the quoted factors.
        assert!(
            (fpga / xeon - 1.17).abs() < 0.3,
            "Xeon ratio {}",
            fpga / xeon
        );
        assert!((fpga / i9 - 1.89).abs() < 0.45, "i9 ratio {}", fpga / i9);
        assert!((fpga / tx2 - 2.34).abs() < 0.6, "TX2 ratio {}", fpga / tx2);
    }

    #[test]
    fn tesla_gpus_peak_in_the_teraflops_range_at_production_degrees() {
        // Paper: P100 ≈ 1.3 TF, V100 ≈ 1.9 TF, A100 ≈ 2.3 TF for N in 7..11.
        let p100 = calibrated_model("P100").unwrap();
        let v100 = calibrated_model("V100").unwrap();
        let a100 = calibrated_model("A100").unwrap();
        let best = |m: &MachineModel| {
            (7..=11)
                .map(|n| m.achieved_gflops(n, ELEMENTS))
                .fold(0.0_f64, f64::max)
        };
        assert!(
            (best(&p100) - 1_300.0).abs() < 450.0,
            "P100 {}",
            best(&p100)
        );
        assert!(
            (best(&v100) - 1_900.0).abs() < 500.0,
            "V100 {}",
            best(&v100)
        );
        assert!(
            (best(&a100) - 2_300.0).abs() < 800.0,
            "A100 {}",
            best(&a100)
        );
    }

    #[test]
    fn small_problems_never_beat_large_problems() {
        for m in calibrated_models() {
            for degree in [3, 7, 11, 15] {
                let small = m.achieved_gflops(degree, 10);
                let large = m.achieved_gflops(degree, 8192);
                assert!(small < large, "{} degree {degree}", m.architecture.name);
            }
        }
    }

    #[test]
    fn achieved_performance_never_exceeds_the_roofline() {
        for m in calibrated_models() {
            for degree in 1..=16 {
                let achieved = m.achieved_gflops(degree, 65536);
                assert!(
                    achieved <= m.roofline_gflops(degree) + 1e-9,
                    "{} degree {degree}",
                    m.architecture.name
                );
            }
        }
    }

    #[test]
    fn power_efficiency_ordering_matches_the_paper() {
        // Paper: the FPGA (2.12 GF/W at N = 15) is more power-efficient than
        // every CPU and the K80, rivals the RTX 2060, and the Tesla GPUs are
        // 2.7-4.5x better.
        let fpga_eff = 2.12;
        for name in ["Xeon", "i9", "ThunderX2", "K80"] {
            let eff = calibrated_model(name)
                .unwrap()
                .gflops_per_watt(15, ELEMENTS);
            assert!(eff < fpga_eff, "{name}: {eff}");
        }
        let rtx = calibrated_model("RTX")
            .unwrap()
            .gflops_per_watt(15, ELEMENTS);
        assert!((rtx - fpga_eff).abs() < 0.8, "RTX efficiency {rtx}");
        for name in ["P100", "V100", "A100"] {
            let eff = calibrated_model(name)
                .unwrap()
                .gflops_per_watt(15, ELEMENTS);
            assert!(eff > 2.0 * fpga_eff, "{name}: {eff}");
        }
    }

    #[test]
    fn gpu_kernels_degrade_above_their_tuned_degrees() {
        let a100 = calibrated_model("A100").unwrap();
        assert_eq!(a100.degrade(9), 1.0);
        assert!(a100.degrade(15) < 0.55);
        let xeon = calibrated_model("Xeon").unwrap();
        assert_eq!(xeon.degrade(15), 1.0);
    }
}
