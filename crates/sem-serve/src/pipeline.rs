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
//! The channels run concurrently (the link is full-duplex at
//! [`HOST_LINK_GBS`] each way, the board double-buffers), so the schedule
//! pipelines upload(`i+1`) / solve(`i`) / download(`i-1`) and the makespan
//! follows the classical recurrence.  This timeline is the one session-time
//! model of the workspace: serving, placement, deadline admission, drift
//! telemetry and every trace span read it.  The blocking figure every byte
//! would cost if it stalled the kernel — what `sem_accel::SolveReport`
//! charges a solve — stays available as
//! [`PipelineTimeline::serial_accounting_seconds`], and the overlap win is
//! measured against it.

use sem_accel::system::HOST_LINK_GBS;
use sem_accel::{AxBackend, OffloadPlan, SolveReport};
use serde::{Deserialize, Serialize};

/// Bytes of one streamed residual norm (a single double per CG iteration).
pub const RESIDUAL_BYTES_PER_ITERATION: f64 = 8.0;

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
    /// (D2H channel).
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
    /// plus the per-RHS share of the batched transfer.  For an executed
    /// solve this is exactly `SolveReport::modeled_seconds()`, bitwise.
    pub serial_seconds: f64,
}

impl RequestStages {
    /// Stage costs of one executed solve: transfers from the offload plan's
    /// byte counts, compute from the report's operator accounting.  Host
    /// backends (no plan) upload and download nothing.
    #[must_use]
    pub fn from_report(report: &SolveReport, plan: Option<&OffloadPlan>) -> Self {
        // Compute = operator plus preconditioner applications (the latter
        // priced by the backend's cycle model when claimed on-device).
        let compute_seconds = report.compute_seconds();
        let serial_seconds = report.modeled_seconds();
        match plan {
            Some(plan) => Self {
                upload_seconds: plan.operand_upload_seconds(),
                compute_seconds,
                download_seconds: plan.result_download_seconds(),
                residual_stream_seconds: residual_stream_seconds(report.iterations()),
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
}

/// Seconds `iterations` streamed residual norms take on the D2H channel.
fn residual_stream_seconds(iterations: usize) -> f64 {
    RESIDUAL_BYTES_PER_ITERATION * iterations as f64 / (HOST_LINK_GBS * 1e9)
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
    /// Session makespan: the end of the last event.
    pub makespan_seconds: f64,
}

impl PipelineTimeline {
    /// Schedule a session from explicit stage costs.
    #[must_use]
    pub fn build(shared_upload_seconds: f64, stages: Vec<RequestStages>) -> Self {
        let events = Self::events(shared_upload_seconds, &stages);
        let makespan_seconds = events.iter().map(|e| e.end_seconds).fold(0.0_f64, f64::max);
        Self {
            shared_upload_seconds,
            stages,
            events,
            makespan_seconds,
        }
    }

    /// Schedule the session of an executed batch: one [`RequestStages`] per
    /// [`SolveReport`], transfers from `plan`'s bytes.
    #[must_use]
    pub fn from_reports(plan: Option<&OffloadPlan>, reports: &[SolveReport]) -> Self {
        let shared = plan.map_or(0.0, OffloadPlan::shared_upload_seconds);
        let stages = reports
            .iter()
            .map(|report| RequestStages::from_report(report, plan))
            .collect();
        Self::build(shared, stages)
    }

    /// *Predict* the session of a `batch`-request job on `backend` before
    /// running it.  Every request costs the same: the kernel stage comes
    /// from [`AxBackend::simulated_seconds_per_batch`] over the expected
    /// operator `applications` (one command-queue submission per solve,
    /// launch overhead amortised) plus one on-device preconditioner
    /// application per operator application
    /// (`precond_seconds_per_application`; zero when the preconditioner is
    /// not claimed on-device), the transfers from the plan's bytes.
    /// Measured backends have no simulator model; callers substitute a host
    /// cost estimate via `fallback_compute_seconds`.  This is what the
    /// serving host's placement and deadline admission price candidate
    /// devices with.
    #[must_use]
    pub fn predict(
        backend: &dyn AxBackend,
        batch: usize,
        applications: usize,
        precond_seconds_per_application: f64,
        fallback_compute_seconds: f64,
    ) -> Self {
        let plan = backend.offload_plan();
        let shared = plan
            .as_ref()
            .map_or(0.0, OffloadPlan::shared_upload_seconds);
        let compute_seconds = backend
            .simulated_seconds_per_batch(applications.max(1))
            .map_or(fallback_compute_seconds, |kernel| {
                kernel + precond_seconds_per_application * applications.max(1) as f64
            });
        let (upload_seconds, download_seconds) = plan.as_ref().map_or((0.0, 0.0), |plan| {
            (
                plan.operand_upload_seconds(),
                plan.result_download_seconds(),
            )
        });
        // The shared upload is paid once per session, so each request's
        // serial share spreads it the way `SemSystem::solve_many` does.
        let batch = batch.max(1);
        let request = RequestStages {
            upload_seconds,
            compute_seconds,
            download_seconds,
            residual_stream_seconds: residual_stream_seconds(applications),
            serial_seconds: shared / batch as f64
                + upload_seconds
                + compute_seconds
                + download_seconds,
        };
        Self::build(shared, vec![request; batch])
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
    fn events(shared: f64, stages: &[RequestStages]) -> Vec<StageEvent> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_accel::{Backend, SemSystem};
    use sem_solver::CgOptions;

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
        let t = PipelineTimeline::build(0.5, stages(8));
        let serial = t.serial_accounting_seconds();
        assert!(t.makespan_seconds >= t.total_compute_seconds());
        assert!(t.makespan_seconds >= t.total_upload_seconds());
        assert!(t.makespan_seconds >= t.total_download_seconds());
        assert!(t.makespan_seconds <= serial + 1e-12);
        assert!(t.overlap_win_seconds() > 0.0);
        assert!(t.compute_utilisation() > t.total_compute_seconds() / serial);
    }

    /// The closed form of a uniform double-buffered session of `batch`
    /// requests: `shared + u + c + d + (B - 1) max(u, c, d)`.
    fn closed_form(shared: f64, request: &RequestStages, batch: usize) -> f64 {
        let (u, c, d) = (
            request.upload_seconds,
            request.compute_seconds,
            request.download_seconds,
        );
        shared + u + c + d + (batch - 1) as f64 * u.max(c).max(d)
    }

    fn assert_matches_closed_form(t: &PipelineTimeline) {
        let closed = closed_form(t.shared_upload_seconds, &t.stages[0], t.stages.len());
        assert!(
            (t.makespan_seconds - closed).abs() < 1e-12 * closed,
            "{} vs {closed}",
            t.makespan_seconds
        );
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
        assert_matches_closed_form(&PipelineTimeline::build(0.5, uniform));

        // An executed 16-RHS batch on the evaluated board, residual
        // streaming included.
        let system = fpga_system();
        let reports = system.solve_many_manufactured(16, cg());
        let t = PipelineTimeline::from_reports(system.offload_plan().as_ref(), &reports);
        assert_matches_closed_form(&t);
    }

    fn cg() -> CgOptions {
        CgOptions {
            max_iterations: 1000,
            tolerance: 1e-10,
            record_history: false,
        }
    }

    fn fpga_system() -> SemSystem {
        SemSystem::builder()
            .degree(5)
            .elements([2, 2, 2])
            .backend_named("fpga:stratix10-gx2800")
            .build()
    }

    #[test]
    fn pipelined_accounting_hides_transfer_behind_the_kernel() {
        let system = fpga_system();
        let plan = system.offload_plan();

        // A batch of one has nothing to overlap with.
        let solo = PipelineTimeline::from_reports(plan.as_ref(), &[system.solve(cg())]);
        assert!(solo.overlap_win_seconds() <= 1e-12 * solo.serial_accounting_seconds());

        // At batch 16 the double-buffered pipeline hides most of the
        // traffic: only the ramp (shared upload + first operand + last
        // result) stays exposed.
        let reports = system.solve_many_manufactured(16, cg());
        let serial_transfer: f64 = reports.iter().map(|r| r.transfer_seconds).sum();
        let batch = PipelineTimeline::from_reports(plan.as_ref(), &reports);
        assert!(batch.exposed_transfer_seconds() > 0.0);
        assert!(batch.exposed_transfer_seconds() < serial_transfer);
        assert!(batch.overlap_win_seconds() > 0.0);

        // Host backends move nothing, pipelined or not.
        let cpu = SemSystem::builder()
            .degree(5)
            .elements([2, 2, 2])
            .backend(Backend::cpu_specialized())
            .build();
        let host = PipelineTimeline::from_reports(None, &cpu.solve_many_manufactured(4, cg()));
        assert_eq!(host.exposed_transfer_seconds(), 0.0);
        assert_eq!(host.overlap_win_seconds(), 0.0);
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
        let a = PipelineTimeline::build(0.5, with);
        let b = PipelineTimeline::build(0.5, without);
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
        let t = PipelineTimeline::build(0.0, heavy);
        // Uploads serialise on the H2D channel: makespan ~ 8 uploads + tail.
        assert!(t.makespan_seconds >= 8.0);
        assert!(t.exposed_transfer_seconds() > 0.0);
        assert!(t.compute_utilisation() < 0.2);
    }

    #[test]
    fn empty_sessions_are_legal() {
        let t = PipelineTimeline::build(0.0, Vec::new());
        assert_eq!(t.makespan_seconds, 0.0);
        assert!(t.events.is_empty());
    }
}
