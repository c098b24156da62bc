//! Analytic serving-cost models: the three-stage offload pipeline and the
//! host roofline cost the serving host's placement prices measured devices
//! with.
//!
//! A batched accelerator session moves data in three stages — H2D upload,
//! kernel compute, D2H download — over a full-duplex host link.  With double
//! buffering the stages overlap across right-hand sides (upload `i+1` while
//! solving `i` while downloading `i-1`), and the session makespan of `B`
//! identical requests collapses to the classical pipeline closed form
//!
//! ```text
//! makespan = shared + u + c + d + (B - 1) · max(u, c, d)
//! ```
//!
//! where `shared` is the one-off geometry/matrix upload and `u`/`c`/`d` are
//! the per-request stage times.  [`PipelineCost`] carries those four numbers
//! and answers both the serial (no-overlap) and the overlapped session time;
//! `sem-serve`'s event-level `PipelineTimeline` reproduces the same makespan
//! from an explicit schedule and `sem-accel`'s `SolveReport` uses the closed
//! form for its pipelined-vs-serial transfer accounting.
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

/// Stage costs of serving one batch of identical requests through the
/// three-stage offload pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineCost {
    /// One-off upload of the data every request shares (geometric factors,
    /// derivative matrices), in seconds.
    pub shared_upload_seconds: f64,
    /// Per-request operand upload, in seconds.
    pub upload_seconds: f64,
    /// Per-request compute (the whole solve's kernel time), in seconds.
    pub compute_seconds: f64,
    /// Per-request result download, in seconds.
    pub download_seconds: f64,
}

impl PipelineCost {
    /// The longest of the three per-request stages — the pipeline's
    /// steady-state bottleneck.
    #[must_use]
    pub fn bottleneck_seconds(&self) -> f64 {
        self.upload_seconds
            .max(self.compute_seconds)
            .max(self.download_seconds)
    }

    /// Session seconds when every stage runs serially (today's blocking
    /// accounting): `shared + B (u + c + d)`.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn serial_session_seconds(&self, batch: usize) -> f64 {
        assert!(batch > 0, "need at least one request");
        self.shared_upload_seconds
            + batch as f64 * (self.upload_seconds + self.compute_seconds + self.download_seconds)
    }

    /// Session makespan with double-buffered stage overlap:
    /// `shared + u + c + d + (B - 1) max(u, c, d)`.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn overlapped_session_seconds(&self, batch: usize) -> f64 {
        assert!(batch > 0, "need at least one request");
        self.shared_upload_seconds
            + self.upload_seconds
            + self.compute_seconds
            + self.download_seconds
            + (batch - 1) as f64 * self.bottleneck_seconds()
    }

    /// Session makespan under the given overlap setting.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn session_seconds(&self, batch: usize, overlap: bool) -> f64 {
        if overlap {
            self.overlapped_session_seconds(batch)
        } else {
            self.serial_session_seconds(batch)
        }
    }

    /// Transfer seconds left exposed (not hidden behind compute) by the
    /// overlapped schedule: `makespan − B·c`.  Never negative, and never more
    /// than the serial transfer total.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn exposed_transfer_seconds(&self, batch: usize) -> f64 {
        (self.overlapped_session_seconds(batch) - batch as f64 * self.compute_seconds).max(0.0)
    }

    /// Seconds the overlap hides relative to the serial schedule.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn overlap_win_seconds(&self, batch: usize) -> f64 {
        (self.serial_session_seconds(batch) - self.overlapped_session_seconds(batch)).max(0.0)
    }
}

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

    /// Build a model from an `arch-db`-style (peak, bandwidth) pair at the
    /// default achieved fraction.
    #[must_use]
    pub fn from_peaks(peak_gflops: f64, bandwidth_gbs: f64) -> Self {
        Self {
            peak_gflops,
            bandwidth_gbs,
            ..Self::generic_server()
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

    fn cost() -> PipelineCost {
        PipelineCost {
            shared_upload_seconds: 0.5,
            upload_seconds: 0.1,
            compute_seconds: 1.0,
            download_seconds: 0.2,
        }
    }

    #[test]
    fn serial_and_overlapped_closed_forms() {
        let c = cost();
        assert!((c.serial_session_seconds(4) - (0.5 + 4.0 * 1.3)).abs() < 1e-12);
        // Compute dominates: shared + u + c + d + 3c.
        assert!((c.overlapped_session_seconds(4) - (0.5 + 1.3 + 3.0)).abs() < 1e-12);
        assert_eq!(c.bottleneck_seconds(), 1.0);
    }

    #[test]
    fn batch_of_one_cannot_overlap_anything() {
        let c = cost();
        assert_eq!(c.serial_session_seconds(1), c.overlapped_session_seconds(1));
        assert_eq!(c.overlap_win_seconds(1), 0.0);
    }

    #[test]
    fn overlap_invariants_hold_across_batches_and_shapes() {
        let shapes = [
            cost(),
            // Transfer-dominated pipeline.
            PipelineCost {
                shared_upload_seconds: 0.0,
                upload_seconds: 2.0,
                compute_seconds: 0.5,
                download_seconds: 1.0,
            },
        ];
        for c in shapes {
            for batch in [1, 2, 16, 64] {
                let serial = c.serial_session_seconds(batch);
                let overlapped = c.overlapped_session_seconds(batch);
                let b = batch as f64;
                // Makespan at least the busiest single channel, at most serial.
                let channel_max = (c.shared_upload_seconds + b * c.upload_seconds)
                    .max(b * c.compute_seconds)
                    .max(b * c.download_seconds);
                assert!(overlapped >= channel_max - 1e-12);
                assert!(overlapped <= serial + 1e-12);
                assert!(c.exposed_transfer_seconds(batch) >= 0.0);
                assert!(
                    c.session_seconds(batch, true) == overlapped
                        && c.session_seconds(batch, false) == serial
                );
            }
        }
    }

    #[test]
    fn exposed_transfer_shrinks_per_request_as_the_batch_grows() {
        let c = cost();
        let per_rhs_16 = c.exposed_transfer_seconds(16) / 16.0;
        let per_rhs_1 = c.exposed_transfer_seconds(1);
        assert!(per_rhs_16 < per_rhs_1);
        // Compute-dominated: everything but the pipeline ramp is hidden.
        assert!(
            (c.exposed_transfer_seconds(16)
                - (c.shared_upload_seconds + c.upload_seconds + c.download_seconds))
                .abs()
                < 1e-12
        );
    }

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
        let fast = HostCostModel::from_peaks(2_000.0, 200.0);
        assert!(fast.seconds_per_application(7, 64) < s);
    }
}
