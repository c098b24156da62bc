//! The span/event model: fixed-size, `Copy`, allocation-free records.
//!
//! A [`SpanEvent`] is everything the recorder stores per observation — no
//! strings, no boxes.  Runtime names (backend ids, device slots) are
//! interned once into a [`LabelId`] outside the hot path; the ids carried
//! here are plain integers with [`NO_ID`] as the "absent" sentinel.

/// Sentinel for an absent `request`/`job` id.
pub const NO_ID: u64 = u64::MAX;

/// Interned label handle (`0` = no label); see `Recorder::intern`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(pub u32);

impl LabelId {
    /// The empty label.
    pub const NONE: Self = Self(0);
}

/// What a span describes.  The discriminant order is part of the exported
/// trace's stable sort key, so variants are grouped by layer: solver,
/// offload stages, serving, scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One CG iteration (index = iteration number within the solve).
    CgIteration,
    /// One operator application (`w = A p`).
    OperatorApply,
    /// One preconditioner application (`z = M⁻¹ r`).
    PrecondApply,
    /// One batched solve on a backend (a `solve_many` session).
    Solve,
    /// Shared-operand upload (geometry/operator tables), once per session.
    SharedUpload,
    /// Per-request H2D operand upload.
    Upload,
    /// Per-request kernel compute stage.
    Compute,
    /// Per-iteration residual streaming back to the host.
    ResidualStream,
    /// Per-request D2H result download.
    Download,
    /// One batch job occupying a device slot (index = device slot).
    PipelineSlot,
    /// Admission accepted a job (span covers predicted completion).
    AdmissionAdmit,
    /// Admission rejected a request against its deadline.
    AdmissionReject,
    /// Admission split a job to fit a deadline (down-batching).
    DownBatchSplit,
    /// A worker parked waiting for work (index = worker).
    WorkerPark,
    /// A worker woke up (index = worker).
    WorkerUnpark,
    /// A simulated-accelerator stage timing (label names the stage).
    SimStage,
}

impl SpanKind {
    /// Stable display name (also the Chrome-trace event name).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::CgIteration => "cg_iteration",
            Self::OperatorApply => "operator_apply",
            Self::PrecondApply => "precond_apply",
            Self::Solve => "solve",
            Self::SharedUpload => "shared_upload",
            Self::Upload => "upload",
            Self::Compute => "compute",
            Self::ResidualStream => "residual_stream",
            Self::Download => "download",
            Self::PipelineSlot => "pipeline_slot",
            Self::AdmissionAdmit => "admission_admit",
            Self::AdmissionReject => "admission_reject",
            Self::DownBatchSplit => "downbatch_split",
            Self::WorkerPark => "worker_park",
            Self::WorkerUnpark => "worker_unpark",
            Self::SimStage => "sim_stage",
        }
    }

    /// Stable small integer for sort keys (the declaration order).
    #[must_use]
    pub fn rank(self) -> u8 {
        self as u8
    }
}

/// Whether an event's content is reproducible run-to-run under a fixed
/// seed, or depends on the OS schedule.
///
/// * [`Scope::Deterministic`] — emitted from deterministic code (admission
///   decisions, modelled pipeline plans, sequential modelled solves); with
///   the modelled clock these events are byte-reproducible and form the
///   deterministic Chrome export.
/// * [`Scope::ScheduleDependent`] — emitted from worker threads or stamped
///   with measured time (worker parks, wall-clock kernel applies); they
///   appear in wall-mode exports but are filtered from the deterministic
///   one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// Content is a pure function of the request stream and the seed.
    Deterministic,
    /// Content varies with thread scheduling or host timing.
    ScheduleDependent,
}

/// One recorded span (`start == end` encodes an instant event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// What happened.
    pub kind: SpanKind,
    /// Reproducibility class (see [`Scope`]).
    pub scope: Scope,
    /// Interned label (backend name, device, stage), or [`LabelId::NONE`].
    pub label: LabelId,
    /// Stable request id ([`NO_ID`] when not request-scoped).
    pub request: u64,
    /// Stable job id ([`NO_ID`] when not job-scoped).
    pub job: u64,
    /// Free per-kind index: iteration, device slot, worker, split depth.
    pub index: u64,
    /// Span start, in clock seconds (see `ObsClock`).
    pub start_seconds: f64,
    /// Span end, in clock seconds.
    pub end_seconds: f64,
}

impl SpanEvent {
    /// A span with no request/job/index attribution (fill in what applies).
    #[must_use]
    pub fn new(kind: SpanKind, scope: Scope, start_seconds: f64, end_seconds: f64) -> Self {
        Self {
            kind,
            scope,
            label: LabelId::NONE,
            request: NO_ID,
            job: NO_ID,
            index: 0,
            start_seconds,
            end_seconds,
        }
    }

    /// Attach an interned label.
    #[must_use]
    pub fn with_label(mut self, label: LabelId) -> Self {
        self.label = label;
        self
    }

    /// Attach a request id.
    #[must_use]
    pub fn with_request(mut self, request: u64) -> Self {
        self.request = request;
        self
    }

    /// Attach a job id.
    #[must_use]
    pub fn with_job(mut self, job: u64) -> Self {
        self.job = job;
        self
    }

    /// Attach the per-kind index.
    #[must_use]
    pub fn with_index(mut self, index: u64) -> Self {
        self.index = index;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_fills_every_field() {
        let event = SpanEvent::new(SpanKind::Upload, Scope::Deterministic, 1.0, 2.0)
            .with_label(LabelId(3))
            .with_request(7)
            .with_job(2)
            .with_index(5);
        assert_eq!(event.kind.name(), "upload");
        assert_eq!(event.label, LabelId(3));
        assert_eq!(event.request, 7);
        assert_eq!(event.job, 2);
        assert_eq!(event.index, 5);
        assert_eq!(event.start_seconds, 1.0);
        assert_eq!(event.end_seconds, 2.0);
    }

    #[test]
    fn kind_ranks_are_distinct_and_ordered() {
        let kinds = [
            SpanKind::CgIteration,
            SpanKind::OperatorApply,
            SpanKind::PrecondApply,
            SpanKind::Solve,
            SpanKind::SharedUpload,
            SpanKind::Upload,
            SpanKind::Compute,
            SpanKind::ResidualStream,
            SpanKind::Download,
            SpanKind::PipelineSlot,
            SpanKind::AdmissionAdmit,
            SpanKind::AdmissionReject,
            SpanKind::DownBatchSplit,
            SpanKind::WorkerPark,
            SpanKind::WorkerUnpark,
            SpanKind::SimStage,
        ];
        for window in kinds.windows(2) {
            assert!(window[0].rank() < window[1].rank());
            assert_ne!(window[0].name(), window[1].name());
        }
    }
}
