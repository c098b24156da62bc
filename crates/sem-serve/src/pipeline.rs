//! The three-stage offload pipeline: an event-level timeline of one batched
//! session on one device.
//!
//! A solve session on an accelerator moves through three channels:
//!
//! * **H2D** — the shared geometry/derivative upload, then one operand
//!   upload per right-hand side;
//! * **kernel** — the CG solve's operator applications;
//! * **D2H** — per-iteration residual scalars (streamed, so convergence
//!   checks never stall the kernel) and one result download per RHS.
//!
//! With `overlap` enabled the channels run concurrently (the link is
//! full-duplex, the board double-buffers), so the schedule pipelines
//! upload(`i+1`) / solve(`i`) / download(`i-1`) and the makespan follows the
//! classical recurrence; with `overlap` disabled every stage blocks and the
//! makespan degenerates **exactly** to the serial accounting
//! `sem_accel::SolveReport` has always reported
//! (`Σ modeled_seconds()` — see [`PipelineTimeline::makespan_seconds`]).

use perf_model::PipelineCost;
use sem_accel::system::HOST_LINK_GBS;
use sem_accel::{AxBackend, OffloadPlan, SolveReport};
use serde::{Deserialize, Serialize};

/// Bytes of one streamed residual norm (a single double per CG iteration).
pub const RESIDUAL_BYTES_PER_ITERATION: f64 = 8.0;

/// How a session is scheduled: overlapping or serial, over which link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Overlap the H2D / kernel / D2H channels (double buffering).  When
    /// `false` the timeline reproduces the serial `SolveReport` accounting
    /// bitwise.
    pub overlap: bool,
    /// Host link bandwidth in GB/s (each direction; the link is full-duplex).
    pub link_gbs: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            overlap: true,
            link_gbs: HOST_LINK_GBS,
        }
    }
}

impl PipelineConfig {
    /// The serial (no-overlap) configuration over the default link.
    #[must_use]
    pub fn serial() -> Self {
        Self {
            overlap: false,
            ..Self::default()
        }
    }
}

/// Which channel an event occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// The once-per-session upload of geometry and derivative matrices.
    SharedUpload,
    /// One right-hand side's operand upload (H2D channel).
    Upload,
    /// One right-hand side's kernel compute (the whole CG solve).
    Compute,
    /// The per-iteration residual scalars streaming back during compute
    /// (D2H channel; only present on overlapped schedules).
    ResidualStream,
    /// One right-hand side's result download (D2H channel).
    Download,
}

/// One scheduled interval on one channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageEvent {
    /// Index of the request within the batch (`None` for the shared upload).
    pub request: Option<usize>,
    /// The channel/stage.
    pub stage: Stage,
    /// Interval start, seconds from session start.
    pub start_seconds: f64,
    /// Interval end, seconds from session start.
    pub end_seconds: f64,
}

impl StageEvent {
    /// Interval length in seconds.
    #[must_use]
    pub fn duration_seconds(&self) -> f64 {
        self.end_seconds - self.start_seconds
    }
}

/// Per-request stage costs feeding the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestStages {
    /// Operand upload seconds (H2D).
    pub upload_seconds: f64,
    /// Kernel seconds of the whole solve.
    pub compute_seconds: f64,
    /// Result download seconds (D2H).
    pub download_seconds: f64,
    /// Streamed residual traffic (D2H, concurrent with compute).
    pub residual_stream_seconds: f64,
    /// What this request costs under the serial accounting — kernel seconds
    /// plus the per-RHS share of the batched transfer at the *same* link
    /// speed the stage costs use.  At the default link this is exactly
    /// `SolveReport::modeled_seconds()`, bitwise.
    pub serial_seconds: f64,
}

impl RequestStages {
    /// Stage costs of one executed solve: transfers from the offload plan's
    /// byte counts, compute from the report's operator accounting.  Host
    /// backends (no plan) upload and download nothing.
    ///
    /// The report's serial transfer share was charged at [`HOST_LINK_GBS`];
    /// it is rescaled to `link_gbs` so both accountings price bytes over the
    /// same link (the factor is exactly `1.0` at the default link, which
    /// preserves the bitwise serial-degeneration guarantee).
    #[must_use]
    pub fn from_report(report: &SolveReport, plan: Option<&OffloadPlan>, link_gbs: f64) -> Self {
        // Compute = operator plus preconditioner applications (the latter
        // priced by the backend's cycle model when claimed on-device).
        let compute_seconds = report.compute_seconds();
        let serial_seconds = compute_seconds + report.transfer_seconds * (HOST_LINK_GBS / link_gbs);
        match plan {
            Some(plan) => Self {
                upload_seconds: plan.operand_upload_seconds(link_gbs),
                compute_seconds,
                download_seconds: plan.result_download_seconds(link_gbs),
                residual_stream_seconds: RESIDUAL_BYTES_PER_ITERATION * report.iterations() as f64
                    / (link_gbs * 1e9),
                serial_seconds,
            },
            None => Self {
                upload_seconds: 0.0,
                compute_seconds,
                download_seconds: 0.0,
                residual_stream_seconds: 0.0,
                serial_seconds,
            },
        }
    }

    /// *Predicted* stage costs of one not-yet-executed solve on `backend`:
    /// the kernel stage comes from
    /// [`AxBackend::simulated_seconds_per_batch`] over the expected operator
    /// applications (one command-queue submission per solve, launch overhead
    /// amortised) plus one on-device preconditioner application per
    /// operator application (`precond_seconds_per_application`; zero when
    /// the preconditioner is not claimed on-device), the transfers from the
    /// plan's bytes.  Measured backends have no simulator model; callers
    /// substitute a host cost estimate via `fallback_compute_seconds`.
    #[must_use]
    pub fn predict(
        backend: &dyn AxBackend,
        plan: Option<&OffloadPlan>,
        applications: usize,
        precond_seconds_per_application: f64,
        fallback_compute_seconds: f64,
        link_gbs: f64,
    ) -> Self {
        let compute_seconds = backend
            .simulated_seconds_per_batch(applications.max(1))
            .map_or(fallback_compute_seconds, |kernel| {
                kernel + precond_seconds_per_application * applications.max(1) as f64
            });
        let (upload_seconds, download_seconds) = plan.map_or((0.0, 0.0), |plan| {
            (
                plan.operand_upload_seconds(link_gbs),
                plan.result_download_seconds(link_gbs),
            )
        });
        let shared = plan.map_or(0.0, |plan| plan.shared_upload_seconds(link_gbs));
        Self {
            upload_seconds,
            compute_seconds,
            download_seconds,
            residual_stream_seconds: RESIDUAL_BYTES_PER_ITERATION * applications as f64
                / (link_gbs * 1e9),
            // Serial prediction: the per-request share of one session;
            // callers spread `shared` themselves when batching, so charge it
            // here only as documentation of the standalone cost.
            serial_seconds: shared + upload_seconds + compute_seconds + download_seconds,
        }
    }

    /// The uniform [`PipelineCost`] closed-form equivalent of this request
    /// (shared upload supplied by the session).
    #[must_use]
    pub fn as_pipeline_cost(&self, shared_upload_seconds: f64) -> PipelineCost {
        PipelineCost {
            shared_upload_seconds,
            upload_seconds: self.upload_seconds,
            compute_seconds: self.compute_seconds,
            download_seconds: self.download_seconds,
        }
    }
}

/// The scheduled timeline of one batched session on one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineTimeline {
    /// Once-per-session shared upload seconds.
    pub shared_upload_seconds: f64,
    /// Per-request stage costs, in submission order.
    pub stages: Vec<RequestStages>,
    /// The schedule: every interval on every channel, in emission order.
    pub events: Vec<StageEvent>,
    /// Session makespan.  With overlap this is the end of the last download;
    /// without overlap it is **defined** as
    /// [`PipelineTimeline::serial_accounting_seconds`], so it matches the
    /// blocking `SolveReport` accounting bitwise (the event list then is a
    /// visualisation whose last end may differ in the last ulp from the sum,
    /// because floating-point addition is reassociated).
    pub makespan_seconds: f64,
    /// Whether the channels overlapped.
    pub overlap: bool,
}

impl PipelineTimeline {
    /// Schedule a session from explicit stage costs.
    #[must_use]
    pub fn build(
        shared_upload_seconds: f64,
        stages: Vec<RequestStages>,
        config: PipelineConfig,
    ) -> Self {
        let events = if config.overlap {
            Self::overlapped_events(shared_upload_seconds, &stages)
        } else {
            Self::serial_events(shared_upload_seconds, &stages)
        };
        let makespan_seconds = if config.overlap {
            events.iter().map(|e| e.end_seconds).fold(0.0_f64, f64::max)
        } else {
            stages.iter().map(|s| s.serial_seconds).sum()
        };
        Self {
            shared_upload_seconds,
            stages,
            events,
            makespan_seconds,
            overlap: config.overlap,
        }
    }

    /// Schedule the session of an executed batch: one [`RequestStages`] per
    /// [`SolveReport`], transfers from `plan`'s bytes.
    #[must_use]
    pub fn from_reports(
        plan: Option<&OffloadPlan>,
        reports: &[SolveReport],
        config: PipelineConfig,
    ) -> Self {
        let shared = plan.map_or(0.0, |plan| plan.shared_upload_seconds(config.link_gbs));
        let stages = reports
            .iter()
            .map(|report| RequestStages::from_report(report, plan, config.link_gbs))
            .collect();
        Self::build(shared, stages, config)
    }

    /// *Predict* the session of a `batch`-request job on `backend` before
    /// running it: every request is priced by [`RequestStages::predict`]
    /// (simulated kernel model where one exists, `fallback_compute_seconds`
    /// otherwise).  This is what the serving host's placement and deadline
    /// admission price candidate devices with.
    #[must_use]
    pub fn predict(
        backend: &dyn AxBackend,
        batch: usize,
        applications: usize,
        precond_seconds_per_application: f64,
        fallback_compute_seconds: f64,
        config: PipelineConfig,
    ) -> Self {
        let plan = backend.offload_plan();
        let shared = plan
            .as_ref()
            .map_or(0.0, |plan| plan.shared_upload_seconds(config.link_gbs));
        let request = RequestStages::predict(
            backend,
            plan.as_ref(),
            applications,
            precond_seconds_per_application,
            fallback_compute_seconds,
            config.link_gbs,
        );
        // The standalone serial prediction charges the shared upload per
        // request; inside a batch it is paid once, so rebuild the serial
        // share the way `SemSystem::solve_many` spreads it.
        let batch_f = batch.max(1) as f64;
        let per_request = RequestStages {
            serial_seconds: shared / batch_f
                + request.upload_seconds
                + request.compute_seconds
                + request.download_seconds,
            ..request
        };
        Self::build(shared, vec![per_request; batch.max(1)], config)
    }

    /// The serial (blocking) accounting of the same session: the sum of the
    /// per-request `serial_seconds`, i.e. exactly what summing
    /// `SolveReport::modeled_seconds()` over the batch yields.
    #[must_use]
    pub fn serial_accounting_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.serial_seconds).sum()
    }

    /// Total H2D seconds (shared upload plus every operand upload).
    #[must_use]
    pub fn total_upload_seconds(&self) -> f64 {
        self.shared_upload_seconds + self.stages.iter().map(|s| s.upload_seconds).sum::<f64>()
    }

    /// Total kernel seconds.
    #[must_use]
    pub fn total_compute_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.compute_seconds).sum()
    }

    /// Total D2H seconds (result downloads plus streamed residuals).
    #[must_use]
    pub fn total_download_seconds(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.download_seconds + s.residual_stream_seconds)
            .sum()
    }

    /// Transfer seconds the schedule leaves exposed (not hidden behind the
    /// kernel): `makespan − Σ compute`.
    #[must_use]
    pub fn exposed_transfer_seconds(&self) -> f64 {
        (self.makespan_seconds - self.total_compute_seconds()).max(0.0)
    }

    /// Seconds this schedule saves over the serial accounting.
    #[must_use]
    pub fn overlap_win_seconds(&self) -> f64 {
        (self.serial_accounting_seconds() - self.makespan_seconds).max(0.0)
    }

    /// Busy seconds of one stage kind over the whole schedule.
    #[must_use]
    pub fn stage_busy_seconds(&self, stage: Stage) -> f64 {
        self.events
            .iter()
            .filter(|e| e.stage == stage)
            .map(StageEvent::duration_seconds)
            .sum()
    }

    /// Kernel-channel utilisation: compute busy time over the makespan.
    #[must_use]
    pub fn compute_utilisation(&self) -> f64 {
        if self.makespan_seconds <= 0.0 {
            return 0.0;
        }
        self.total_compute_seconds() / self.makespan_seconds
    }

    /// The double-buffered schedule: H2D, kernel and D2H are independent
    /// serial channels; request `i`'s compute waits for its upload and the
    /// previous compute; its download waits for its compute and the D2H
    /// channel (which also carries the streamed residuals).
    fn overlapped_events(shared: f64, stages: &[RequestStages]) -> Vec<StageEvent> {
        let mut events = Vec::with_capacity(1 + stages.len() * 3);
        if shared > 0.0 {
            events.push(StageEvent {
                request: None,
                stage: Stage::SharedUpload,
                start_seconds: 0.0,
                end_seconds: shared,
            });
        }
        let mut upload_free = shared;
        let mut compute_free = 0.0_f64;
        let mut download_free = 0.0_f64;
        for (i, s) in stages.iter().enumerate() {
            let upload_end = upload_free + s.upload_seconds;
            events.push(StageEvent {
                request: Some(i),
                stage: Stage::Upload,
                start_seconds: upload_free,
                end_seconds: upload_end,
            });
            upload_free = upload_end;

            let compute_start = upload_end.max(compute_free);
            let compute_end = compute_start + s.compute_seconds;
            events.push(StageEvent {
                request: Some(i),
                stage: Stage::Compute,
                start_seconds: compute_start,
                end_seconds: compute_end,
            });
            compute_free = compute_end;

            if s.residual_stream_seconds > 0.0 {
                let start = compute_start.max(download_free);
                let end = start + s.residual_stream_seconds;
                events.push(StageEvent {
                    request: Some(i),
                    stage: Stage::ResidualStream,
                    start_seconds: start,
                    end_seconds: end,
                });
                download_free = end;
            }

            let download_start = compute_end.max(download_free);
            let download_end = download_start + s.download_seconds;
            events.push(StageEvent {
                request: Some(i),
                stage: Stage::Download,
                start_seconds: download_start,
                end_seconds: download_end,
            });
            download_free = download_end;
        }
        events
    }

    /// The blocking schedule: every stage of every request runs back to
    /// back on a single timeline (no residual streaming — the host already
    /// blocks on each iteration, so the residual rides the blocking reads).
    fn serial_events(shared: f64, stages: &[RequestStages]) -> Vec<StageEvent> {
        let mut events = Vec::with_capacity(1 + stages.len() * 3);
        let mut cursor = 0.0_f64;
        if shared > 0.0 {
            events.push(StageEvent {
                request: None,
                stage: Stage::SharedUpload,
                start_seconds: 0.0,
                end_seconds: shared,
            });
            cursor = shared;
        }
        for (i, s) in stages.iter().enumerate() {
            for (stage, duration) in [
                (Stage::Upload, s.upload_seconds),
                (Stage::Compute, s.compute_seconds),
                (Stage::Download, s.download_seconds),
            ] {
                events.push(StageEvent {
                    request: Some(i),
                    stage,
                    start_seconds: cursor,
                    end_seconds: cursor + duration,
                });
                cursor += duration;
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages(n: usize) -> Vec<RequestStages> {
        (0..n)
            .map(|i| RequestStages {
                upload_seconds: 0.1,
                compute_seconds: 1.0 + 0.01 * i as f64,
                download_seconds: 0.2,
                residual_stream_seconds: 1e-4,
                serial_seconds: 0.5 / n as f64 + 0.1 + 1.0 + 0.01 * i as f64 + 0.2,
            })
            .collect()
    }

    #[test]
    fn overlapped_makespan_respects_the_pipeline_bounds() {
        let t = PipelineTimeline::build(0.5, stages(8), PipelineConfig::default());
        let serial = PipelineTimeline::build(0.5, stages(8), PipelineConfig::serial());
        assert!(t.makespan_seconds >= t.total_compute_seconds());
        assert!(t.makespan_seconds >= t.total_upload_seconds());
        assert!(t.makespan_seconds >= t.total_download_seconds());
        assert!(t.makespan_seconds <= serial.makespan_seconds + 1e-12);
        assert!(t.overlap_win_seconds() > 0.0);
        assert!(t.compute_utilisation() > serial.compute_utilisation());
    }

    #[test]
    fn serial_makespan_is_the_sum_of_serial_accounting() {
        let t = PipelineTimeline::build(0.5, stages(4), PipelineConfig::serial());
        assert_eq!(t.makespan_seconds, t.serial_accounting_seconds());
        assert_eq!(t.overlap_win_seconds(), 0.0);
        // Events cover every stage of every request plus the shared upload.
        assert_eq!(t.events.len(), 1 + 4 * 3);
    }

    #[test]
    fn uniform_batches_match_the_closed_form() {
        let uniform: Vec<RequestStages> = (0..16)
            .map(|_| RequestStages {
                upload_seconds: 0.1,
                compute_seconds: 1.0,
                download_seconds: 0.2,
                residual_stream_seconds: 0.0,
                serial_seconds: 0.0,
            })
            .collect();
        let cost = uniform[0].as_pipeline_cost(0.5);
        let t = PipelineTimeline::build(0.5, uniform, PipelineConfig::default());
        let closed = cost.overlapped_session_seconds(16);
        assert!(
            (t.makespan_seconds - closed).abs() < 1e-12 * closed,
            "{} vs {closed}",
            t.makespan_seconds
        );
    }

    #[test]
    fn residual_streaming_rides_the_idle_download_channel() {
        // Streaming residuals during compute must not move the makespan of
        // a compute-dominated batch.
        let with: Vec<RequestStages> = stages(8);
        let without: Vec<RequestStages> = stages(8)
            .into_iter()
            .map(|s| RequestStages {
                residual_stream_seconds: 0.0,
                ..s
            })
            .collect();
        let a = PipelineTimeline::build(0.5, with, PipelineConfig::default());
        let b = PipelineTimeline::build(0.5, without, PipelineConfig::default());
        assert!((a.makespan_seconds - b.makespan_seconds).abs() < 1e-12);
        assert!(a.stage_busy_seconds(Stage::ResidualStream) > 0.0);
        assert_eq!(b.stage_busy_seconds(Stage::ResidualStream), 0.0);
    }

    #[test]
    fn transfer_dominated_pipelines_are_bottlenecked_by_the_link() {
        let heavy: Vec<RequestStages> = (0..8)
            .map(|_| RequestStages {
                upload_seconds: 1.0,
                compute_seconds: 0.1,
                download_seconds: 0.3,
                residual_stream_seconds: 0.0,
                serial_seconds: 1.4,
            })
            .collect();
        let t = PipelineTimeline::build(0.0, heavy, PipelineConfig::default());
        // Uploads serialise on the H2D channel: makespan ~ 8 uploads + tail.
        assert!(t.makespan_seconds >= 8.0);
        assert!(t.exposed_transfer_seconds() > 0.0);
        assert!(t.compute_utilisation() < 0.2);
    }

    #[test]
    fn empty_sessions_are_legal() {
        let t = PipelineTimeline::build(0.0, Vec::new(), PipelineConfig::default());
        assert_eq!(t.makespan_seconds, 0.0);
        assert!(t.events.is_empty());
    }
}
