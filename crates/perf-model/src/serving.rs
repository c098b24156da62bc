//! Serving-side cost helpers: latency percentiles and the host roofline
//! cost the serving host's placement prices measured devices with.
//!
//! How a session's transfers overlap with its kernel is not modelled here:
//! the one session-time model is `sem-serve`'s event-level
//! `PipelineTimeline`, which schedules every upload, solve and download of
//! a batch on its own channel.
//!
//! [`nearest_rank_percentile`] reads latency tails the way the serving
//! host's windows and reports do, with no fabricated tail for an empty set.
//!
//! [`HostCostModel`] is the other half of placement pricing: a
//! roofline-derated estimate of what one operator application costs on a
//! *measured* (CPU) backend, for which no simulator model exists.  It only
//! has to rank hosts against accelerators, not predict wall-clocks exactly.

use crate::cost::{dofs_per_element, flops_per_dof, operational_intensity};
use crate::roofline::roofline_gflops;
use serde::{Deserialize, Serialize};

/// Nearest-rank percentile of a set of (latency or completion) seconds:
/// the smallest value such that at least `p` percent of the samples are at
/// or below it.  `p` is clamped to (0, 100].
///
/// Returns `None` for an empty set: an empty window carries no latency
/// evidence, and reporting `0.0` would hand an SLO controller a perfect
/// tail latency fabricated from no data (e.g. an all-rejected window
/// reading as "p99 = 0, scale down").
#[must_use]
pub fn nearest_rank_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Roofline-derated cost model for a natively executed (measured) backend,
/// used by scheduling policies that must price hosts before running on them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostCostModel {
    /// Peak double-precision performance in GFLOP/s.
    pub peak_gflops: f64,
    /// Peak memory bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Fraction of the roofline bound the kernel actually achieves.  The
    /// paper's CPU baselines land around 5–10% of peak on this kernel, so
    /// the default is deliberately pessimistic.
    pub achieved_fraction: f64,
}

impl Default for HostCostModel {
    fn default() -> Self {
        Self::generic_server()
    }
}

impl HostCostModel {
    /// A deliberately conservative contemporary server CPU: the point is to
    /// rank the host against accelerator models, not to predict wall-clock.
    #[must_use]
    pub fn generic_server() -> Self {
        Self {
            peak_gflops: 500.0,
            bandwidth_gbs: 25.0,
            achieved_fraction: 0.1,
        }
    }

    /// GFLOP/s the model predicts this host sustains on the SEM kernel at
    /// polynomial degree `degree`.
    #[must_use]
    pub fn sustained_gflops(&self, degree: usize) -> f64 {
        roofline_gflops(
            self.peak_gflops,
            self.bandwidth_gbs,
            operational_intensity(degree),
        ) * self.achieved_fraction
    }

    /// Predicted seconds of one operator application over `num_elements`
    /// degree-`degree` elements.
    #[must_use]
    pub fn seconds_per_application(&self, degree: usize, num_elements: usize) -> f64 {
        let flops = flops_per_dof(degree) * dofs_per_element(degree) as f64 * num_elements as f64;
        flops / (self.sustained_gflops(degree).max(1e-9) * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_matches_the_definition() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(nearest_rank_percentile(&samples, 50.0), Some(3.0));
        assert_eq!(nearest_rank_percentile(&samples, 100.0), Some(5.0));
        assert_eq!(nearest_rank_percentile(&samples, 1.0), Some(1.0));
        assert_eq!(nearest_rank_percentile(&[7.5], 99.0), Some(7.5));
    }

    #[test]
    fn empty_windows_carry_no_percentile_evidence() {
        // Regression: this used to return 0.0 — a fabricated "perfect tail"
        // that an all-rejected serving window would feed to the autoscaler
        // as a scale-down signal.
        assert_eq!(nearest_rank_percentile(&[], 99.0), None);
        assert_eq!(nearest_rank_percentile(&[], 50.0), None);
    }

    #[test]
    fn host_model_prices_the_kernel_sanely() {
        let host = HostCostModel::generic_server();
        // Memory bound at every degree on 25 GB/s.
        assert!(host.sustained_gflops(7) < host.peak_gflops * host.achieved_fraction);
        let s = host.seconds_per_application(7, 64);
        assert!(s > 1e-6 && s < 1.0, "seconds {s}");
        // More elements cost proportionally more.
        let s2 = host.seconds_per_application(7, 128);
        assert!((s2 / s - 2.0).abs() < 1e-9);
        // A faster host is cheaper.
        let fast = HostCostModel {
            peak_gflops: 2_000.0,
            bandwidth_gbs: 200.0,
            ..host
        };
        assert!(fast.seconds_per_application(7, 64) < s);
    }
}
