//! Model-drift telemetry: per-stage modelled-vs-actual residuals,
//! aggregated into a calibration report.
//!
//! Every admitted request contributes one [`DriftSample`] per offload
//! stage: the seconds the admission-time model predicted for that stage
//! against the seconds the executed timeline actually charged.  The
//! aggregate [`DriftReport`] then says, per (stage, backend), how far the
//! model is off and — through a caller-supplied mapping — which
//! `perf_model` term is the likely liar (upload drift implicates the link
//! bandwidth, compute drift the kernel throughput model, and so on).
//! The report is the feedback signal the ROADMAP's SLO autoscaler will
//! consume.

/// One predicted-vs-actual pair for one stage of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSample {
    /// Stable request id (joins against the serve report's outcomes and the
    /// trace).
    pub request: u64,
    /// Stage name (`shared_upload`, `upload`, `compute`, `residual_stream`,
    /// `download`, `total`).
    pub stage: &'static str,
    /// Backend the request executed on.
    pub backend: String,
    /// Seconds the admission-time model predicted for this stage.
    pub predicted_seconds: f64,
    /// Seconds the executed timeline actually charged.
    pub actual_seconds: f64,
}

impl DriftSample {
    /// Signed residual: predicted minus actual (positive = the model
    /// over-estimates).
    #[must_use]
    pub fn residual_seconds(&self) -> f64 {
        self.predicted_seconds - self.actual_seconds
    }
}

/// Aggregate over one (stage, backend) group.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// Stage name.
    pub stage: String,
    /// Backend name.
    pub backend: String,
    /// Samples aggregated.
    pub samples: usize,
    /// Mean signed residual (predicted − actual), seconds.
    pub mean_residual_seconds: f64,
    /// Mean absolute residual, seconds.
    pub mean_abs_residual_seconds: f64,
    /// Worst absolute residual, seconds.
    pub max_abs_residual_seconds: f64,
    /// Mean |residual| / actual over samples with nonzero actual.
    pub mean_relative_error: f64,
    /// The `perf_model` term this stage's drift implicates.
    pub suspect_term: String,
}

/// The calibration report: every (stage, backend) group, worst first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftReport {
    /// Total samples aggregated.
    pub total_samples: usize,
    /// Aggregate rows, sorted by descending mean absolute residual.
    pub rows: Vec<DriftRow>,
}

impl DriftReport {
    /// Aggregate raw samples; `suspect_term` maps a stage name to the
    /// `perf_model` term its drift implicates (see
    /// `perf_model::calibration::suspect_term`).
    #[must_use]
    pub fn aggregate(samples: &[DriftSample], suspect_term: fn(&str) -> &'static str) -> Self {
        let mut groups: Vec<(&str, &str, Vec<&DriftSample>)> = Vec::new();
        for sample in samples {
            match groups
                .iter_mut()
                .find(|(stage, backend, _)| *stage == sample.stage && *backend == sample.backend)
            {
                Some((_, _, group)) => group.push(sample),
                None => groups.push((sample.stage, sample.backend.as_str(), vec![sample])),
            }
        }
        let mut rows: Vec<DriftRow> = groups
            .into_iter()
            .map(|(stage, backend, group)| {
                let n = group.len() as f64;
                let mean = group.iter().map(|s| s.residual_seconds()).sum::<f64>() / n;
                let mean_abs = group
                    .iter()
                    .map(|s| s.residual_seconds().abs())
                    .sum::<f64>()
                    / n;
                let max_abs = group
                    .iter()
                    .map(|s| s.residual_seconds().abs())
                    .fold(0.0, f64::max);
                let relative: Vec<f64> = group
                    .iter()
                    .filter(|s| s.actual_seconds > 0.0)
                    .map(|s| s.residual_seconds().abs() / s.actual_seconds)
                    .collect();
                let mean_relative = if relative.is_empty() {
                    0.0
                } else {
                    relative.iter().sum::<f64>() / relative.len() as f64
                };
                DriftRow {
                    stage: stage.to_string(),
                    backend: backend.to_string(),
                    samples: group.len(),
                    mean_residual_seconds: mean,
                    mean_abs_residual_seconds: mean_abs,
                    max_abs_residual_seconds: max_abs,
                    mean_relative_error: mean_relative,
                    suspect_term: suspect_term(stage).to_string(),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.mean_abs_residual_seconds
                .total_cmp(&a.mean_abs_residual_seconds)
                .then_with(|| a.stage.cmp(&b.stage))
                .then_with(|| a.backend.cmp(&b.backend))
        });
        Self {
            total_samples: samples.len(),
            rows,
        }
    }

    /// Hand-written JSON rendering (sem-obs is dependency-free); keys are
    /// pinned by sem-lint's obs-artifact check.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"total_samples\":{},\"rows\":[",
            self.total_samples
        ));
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stage\":{},\"backend\":{},\"samples\":{},\
                 \"mean_residual_seconds\":{},\"mean_abs_residual_seconds\":{},\
                 \"max_abs_residual_seconds\":{},\"mean_relative_error\":{},\
                 \"suspect_term\":{}}}",
                json_string(&row.stage),
                json_string(&row.backend),
                row.samples,
                json_number(row.mean_residual_seconds),
                json_number(row.mean_abs_residual_seconds),
                json_number(row.max_abs_residual_seconds),
                json_number(row.mean_relative_error),
                json_string(&row.suspect_term),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Escape a string for JSON.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a finite double as JSON (non-finite values become `null`; Rust's
/// shortest-round-trip `Display` never emits exponents, so the output is
/// always valid JSON).
pub(crate) fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(stage: &str) -> &'static str {
        match stage {
            "upload" | "download" => "host_link_gbs",
            "compute" => "seconds_per_application",
            _ => "other",
        }
    }

    fn sample(request: u64, stage: &'static str, predicted: f64, actual: f64) -> DriftSample {
        DriftSample {
            request,
            stage,
            backend: "fpga:test".to_string(),
            predicted_seconds: predicted,
            actual_seconds: actual,
        }
    }

    #[test]
    fn aggregates_per_stage_with_worst_first() {
        let samples = vec![
            sample(0, "upload", 2.0, 1.0),
            sample(1, "upload", 1.0, 2.0),
            sample(0, "compute", 5.0, 1.0),
        ];
        let report = DriftReport::aggregate(&samples, term);
        assert_eq!(report.total_samples, 3);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].stage, "compute");
        assert_eq!(report.rows[0].suspect_term, "seconds_per_application");
        assert_eq!(report.rows[0].max_abs_residual_seconds, 4.0);
        let upload = &report.rows[1];
        assert_eq!(upload.samples, 2);
        assert_eq!(upload.mean_residual_seconds, 0.0);
        assert_eq!(upload.mean_abs_residual_seconds, 1.0);
        assert!((upload.mean_relative_error - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_is_parseable_shape() {
        let report = DriftReport::aggregate(&[sample(0, "upload", 1.5, 1.0)], term);
        let json = report.to_json();
        assert!(json.starts_with("{\"total_samples\":1"));
        assert!(json.contains("\"stage\":\"upload\""));
        assert!(json.contains("\"suspect_term\":\"host_link_gbs\""));
        assert!(json.contains("\"mean_residual_seconds\":0.5"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn json_number_handles_non_finite() {
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(0.25), "0.25");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}
