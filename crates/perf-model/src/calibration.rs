//! Calibration: mapping observed model drift back to the model term that
//! produced the prediction.
//!
//! The serving layer records one `sem_obs::DriftSample` per stage per
//! admitted request — predicted seconds (the figure admission and placement
//! compared) against the seconds the executed timeline actually charged.
//! Aggregating those residuals answers *whether* the model is lying;
//! [`suspect_term`] answers *where*: it names the `perf_model` /
//! accelerator-model term each stage's prediction flows from, so a
//! calibration report reads as a worklist of model constants to revisit
//! rather than a pile of anonymous numbers.

/// The model term a drifting stage implicates.
///
/// Stage names follow the serving layer's drift samples: `upload`,
/// `compute`, `download`, `residual_stream` (per-request stage costs) and
/// `session` (the whole-job makespan prediction).  Unknown stages map to
/// `"unmodelled stage"` rather than panicking, so new stages degrade
/// gracefully in reports.
#[must_use]
pub fn suspect_term(stage: &str) -> &'static str {
    match stage {
        "shared_upload" => "OffloadPlan::shared_upload_seconds (table bytes / HOST_LINK_GBS)",
        "upload" => "OffloadPlan::operand_upload_seconds (operand bytes / HOST_LINK_GBS)",
        "compute" => "AxBackend::simulated_seconds_per_batch (cycle model + applications hint)",
        "download" => "OffloadPlan::result_download_seconds (result bytes / HOST_LINK_GBS)",
        "residual_stream" => "RESIDUAL_BYTES_PER_ITERATION x applications hint / HOST_LINK_GBS",
        "session" => "PipelineTimeline::predict (overlap recurrence over the stage terms)",
        _ => "unmodelled stage",
    }
}

/// An online multiplicative correction for a drifting prediction term.
///
/// The live serving path feeds every executed job's (predicted, actual)
/// session seconds into the corrector; subsequent admission verdicts and
/// autoscaler capacity checks price jobs at
/// `prediction × correction()` instead of trusting the raw model.  The
/// correction is the ratio of accumulated actual to accumulated predicted
/// seconds — exactly the aggregate the drift report computes for the
/// `session` stage, whose suspect term is the admission-time applications
/// hint.  Clamped to `[0.125, 8.0]` so one absurd sample cannot swing
/// admission by more than 8x in either direction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriftCorrector {
    predicted_seconds: f64,
    actual_seconds: f64,
    samples: usize,
}

impl DriftCorrector {
    /// A corrector with no evidence yet (correction factor 1).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one executed job's predicted and actual seconds.
    pub fn record(&mut self, predicted_seconds: f64, actual_seconds: f64) {
        if predicted_seconds.is_finite()
            && actual_seconds.is_finite()
            && predicted_seconds > 0.0
            && actual_seconds >= 0.0
        {
            self.predicted_seconds += predicted_seconds;
            self.actual_seconds += actual_seconds;
            self.samples += 1;
        }
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The multiplicative correction: accumulated actual over accumulated
    /// predicted seconds, clamped to `[0.125, 8.0]`; `1.0` with no
    /// evidence.
    #[must_use]
    pub fn correction(&self) -> f64 {
        if self.samples == 0 || self.predicted_seconds <= 0.0 {
            1.0
        } else {
            (self.actual_seconds / self.predicted_seconds).clamp(0.125, 8.0)
        }
    }

    /// Apply the correction to a raw model prediction.
    #[must_use]
    pub fn corrected(&self, predicted_seconds: f64) -> f64 {
        predicted_seconds * self.correction()
    }
}

/// Per-stage drift correction: one [`DriftCorrector`] per model term the
/// drift report attributes residuals to, instead of a single factor
/// smearing every stage's error onto every other stage's prediction.
///
/// The serving layer records each executed request's per-stage
/// (predicted, actual) pairs under the same stage names [`suspect_term`]
/// knows (`shared_upload`, `upload`, `compute`, `download`,
/// `residual_stream`, `session`); consumers then correct each stage's raw
/// prediction by *that stage's own* measured ratio — an upload-bandwidth
/// lie no longer inflates the compute prediction.  Timeout budgets price
/// off the corrected per-stage figures, so a sticky device slowdown (which
/// drifts `compute` only) tightens exactly the budget it should.
///
/// Unknown stages share one fallback corrector, mirroring
/// [`suspect_term`]'s graceful `"unmodelled stage"` degradation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageDriftCorrector {
    shared_upload: DriftCorrector,
    upload: DriftCorrector,
    compute: DriftCorrector,
    download: DriftCorrector,
    residual_stream: DriftCorrector,
    session: DriftCorrector,
    unmodelled: DriftCorrector,
}

impl StageDriftCorrector {
    /// A corrector set with no evidence yet (every factor 1).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, stage: &str) -> &DriftCorrector {
        match stage {
            "shared_upload" => &self.shared_upload,
            "upload" => &self.upload,
            "compute" => &self.compute,
            "download" => &self.download,
            "residual_stream" => &self.residual_stream,
            "session" => &self.session,
            _ => &self.unmodelled,
        }
    }

    fn slot_mut(&mut self, stage: &str) -> &mut DriftCorrector {
        match stage {
            "shared_upload" => &mut self.shared_upload,
            "upload" => &mut self.upload,
            "compute" => &mut self.compute,
            "download" => &mut self.download,
            "residual_stream" => &mut self.residual_stream,
            "session" => &mut self.session,
            _ => &mut self.unmodelled,
        }
    }

    /// Record one executed stage's predicted and actual seconds.
    pub fn record(&mut self, stage: &str, predicted_seconds: f64, actual_seconds: f64) {
        self.slot_mut(stage)
            .record(predicted_seconds, actual_seconds);
    }

    /// The stage's multiplicative correction (1.0 with no evidence).
    #[must_use]
    pub fn correction(&self, stage: &str) -> f64 {
        self.slot(stage).correction()
    }

    /// Apply the stage's correction to a raw model prediction.
    #[must_use]
    pub fn corrected(&self, stage: &str, predicted_seconds: f64) -> f64 {
        self.slot(stage).corrected(predicted_seconds)
    }

    /// Samples recorded for the stage so far.
    #[must_use]
    pub fn samples(&self, stage: &str) -> usize {
        self.slot(stage).samples()
    }

    /// The whole-session corrector — the figure the single-factor admission
    /// path (and its committed artifacts) keeps pricing with.
    #[must_use]
    pub fn session(&self) -> &DriftCorrector {
        &self.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_serving_stage_names_a_model_term() {
        for stage in [
            "shared_upload",
            "upload",
            "compute",
            "download",
            "residual_stream",
            "session",
        ] {
            assert_ne!(suspect_term(stage), "unmodelled stage", "stage {stage}");
        }
    }

    #[test]
    fn unknown_stages_degrade_gracefully() {
        assert_eq!(suspect_term("teleport"), "unmodelled stage");
    }

    #[test]
    fn corrector_converges_on_the_measured_ratio() {
        let mut c = DriftCorrector::new();
        assert_eq!(c.correction(), 1.0, "no evidence means no correction");
        // The model consistently predicts half the measured cost (the
        // admission-time applications hint undershooting the real
        // iteration count).
        c.record(1.0, 2.0);
        c.record(3.0, 6.0);
        assert!((c.correction() - 2.0).abs() < 1e-12);
        assert!((c.corrected(5.0) - 10.0).abs() < 1e-12);
        assert_eq!(c.samples(), 2);
    }

    #[test]
    fn corrector_is_clamped_and_ignores_junk() {
        let mut c = DriftCorrector::new();
        c.record(1.0, 1000.0);
        assert_eq!(c.correction(), 8.0, "upper clamp");
        let mut d = DriftCorrector::new();
        d.record(1000.0, 1.0);
        assert_eq!(d.correction(), 0.125, "lower clamp");
        let mut e = DriftCorrector::new();
        e.record(f64::NAN, 1.0);
        e.record(0.0, 1.0);
        e.record(1.0, f64::INFINITY);
        assert_eq!(e.samples(), 0);
        assert_eq!(e.correction(), 1.0);
    }

    #[test]
    fn stage_corrections_are_independent() {
        let mut c = StageDriftCorrector::new();
        // Only the compute term drifts (a down-clocked device)...
        c.record("compute", 1.0, 3.0);
        c.record("upload", 2.0, 2.0);
        assert!((c.correction("compute") - 3.0).abs() < 1e-12);
        // ...and the other stages keep their own evidence, not compute's.
        assert_eq!(c.correction("upload"), 1.0);
        assert_eq!(c.correction("download"), 1.0);
        assert!((c.corrected("compute", 2.0) - 6.0).abs() < 1e-12);
        assert_eq!(c.corrected("download", 2.0), 2.0);
        assert_eq!(c.samples("compute"), 1);
        assert_eq!(c.samples("session"), 0);
    }

    #[test]
    fn unknown_stages_share_the_fallback_corrector() {
        let mut c = StageDriftCorrector::new();
        c.record("teleport", 1.0, 2.0);
        assert!((c.correction("warp") - 2.0).abs() < 1e-12);
        assert_eq!(c.correction("compute"), 1.0);
    }

    #[test]
    fn session_slot_matches_the_single_factor_corrector() {
        // The live admission path prices sessions through the session slot;
        // it must reproduce the legacy single corrector bit for bit so
        // committed live-serving artifacts stay stable.
        let mut single = DriftCorrector::new();
        let mut staged = StageDriftCorrector::new();
        for (p, a) in [(1.0, 2.0), (3.0, 2.5), (0.5, 0.5)] {
            single.record(p, a);
            staged.record("session", p, a);
        }
        assert_eq!(single.correction(), staged.correction("session"));
        assert_eq!(single.corrected(1.7), staged.corrected("session", 1.7));
        assert_eq!(&single, staged.session());
    }
}
