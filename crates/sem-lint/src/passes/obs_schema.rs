//! OBS artifact schema lint.
//!
//! The CI smoke step runs `bench serve --trace` and exports three
//! observability artifacts at the workspace root; committed samples live
//! there too.  Like the bench-schema pass pins `BENCH_*.json` to the
//! serde structs that write them, this pass pins the OBS artifacts to the
//! exporters:
//!
//! 1. `OBS_trace.json` — Chrome trace-event JSON: a `traceEvents` array
//!    whose every event carries `name`/`ph`/`pid`/`tid`, with `ts` and
//!    `dur` on every `ph:"X"` complete event.
//! 2. `OBS_metrics.prom` — Prometheus text: every series line's metric
//!    name must satisfy the `sem_<crate>_<noun>_<unit>` convention
//!    (histogram `_bucket`/`_sum`/`_count` series resolve to their family
//!    name) and carry a numeric value.
//! 3. `OBS_drift.json` — the calibration report: `total_samples` plus
//!    rows pinned to `DriftReport::to_json`'s key set (incl. the
//!    `suspect_term` naming the implicated `perf_model` term).
//! 4. `OBS_races.json` — the race-detector battery: one object per case,
//!    pinned to `CaseReport::to_json`'s key set.
//!
//! Artifacts are validated when present; presence itself is enforced by
//! the CI smoke step that generates them.

use crate::passes::bench_schema::json_keys;
use crate::Finding;
use sem_obs::name_matches_convention;
use std::path::Path;

const PASS: &str = "obs-schema";

fn finding(file: &str, message: String) -> Finding {
    Finding {
        pass: PASS,
        file: file.to_string(),
        line: 1,
        message,
    }
}

/// Split the objects of the first JSON array after `marker` (depth-1
/// objects, string-aware).  `None` when the marker is absent.
fn array_objects<'a>(text: &'a str, marker: &str) -> Option<Vec<&'a str>> {
    let start = text.find(marker)? + marker.len();
    let bytes = text.as_bytes();
    let mut objects = Vec::new();
    let mut depth = 0_usize;
    let mut in_string = false;
    let mut object_start = None;
    let mut i = start;
    while i < bytes.len() {
        let c = bytes[i];
        if in_string {
            if c == b'\\' {
                i += 2;
                continue;
            }
            if c == b'"' {
                in_string = false;
            }
        } else {
            match c {
                b'"' => in_string = true,
                b'{' => {
                    if depth == 0 {
                        object_start = Some(i);
                    }
                    depth += 1;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        if let Some(begin) = object_start.take() {
                            objects.push(&text[begin..=i]);
                        }
                    }
                }
                b']' if depth == 0 => return Some(objects),
                _ => {}
            }
        }
        i += 1;
    }
    Some(objects)
}

/// Validate Chrome trace-event JSON (rule 1).
fn check_trace(rel: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(events) = array_objects(text, "\"traceEvents\":[") else {
        findings.push(finding(
            rel,
            "not a Chrome trace: no `traceEvents` array".to_string(),
        ));
        return findings;
    };
    if events.is_empty() {
        findings.push(finding(rel, "empty `traceEvents` array".to_string()));
    }
    for (index, event) in events.iter().enumerate() {
        let keys = json_keys(event);
        for required in ["name", "ph", "pid", "tid"] {
            if !keys.contains(required) {
                findings.push(finding(
                    rel,
                    format!("trace event #{index} is missing required key `{required}`"),
                ));
            }
        }
        if event.contains("\"ph\":\"X\"") {
            for required in ["ts", "dur"] {
                if !keys.contains(required) {
                    findings.push(finding(
                        rel,
                        format!("complete event #{index} is missing `{required}`"),
                    ));
                }
            }
        }
    }
    findings
}

/// Validate the Prometheus text snapshot (rule 2).
fn check_prom(rel: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut series = 0_usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        series += 1;
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        let family_ok = name_matches_convention(name)
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                name.strip_suffix(suffix)
                    .is_some_and(name_matches_convention)
            });
        if !family_ok {
            findings.push(Finding {
                pass: PASS,
                file: rel.to_string(),
                line: lineno + 1,
                message: format!(
                    "series `{name}` does not resolve to a `sem_<crate>_<noun>_<unit>` family"
                ),
            });
        }
        let value_ok = line
            .rsplit(' ')
            .next()
            .is_some_and(|v| v.parse::<f64>().is_ok());
        if !value_ok {
            findings.push(Finding {
                pass: PASS,
                file: rel.to_string(),
                line: lineno + 1,
                message: "series line does not end in a numeric value".to_string(),
            });
        }
    }
    if series == 0 {
        findings.push(finding(rel, "no metric series in snapshot".to_string()));
    }
    findings
}

/// Keys `DriftReport::to_json` writes per row (rule 3).
const DRIFT_ROW_KEYS: &[&str] = &[
    "stage",
    "backend",
    "samples",
    "mean_residual_seconds",
    "mean_abs_residual_seconds",
    "max_abs_residual_seconds",
    "mean_relative_error",
    "suspect_term",
];

/// Validate the drift calibration report (rule 3).
fn check_drift(rel: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let keys = json_keys(text);
    if !keys.contains("total_samples") || !keys.contains("rows") {
        findings.push(finding(
            rel,
            "not a drift report: missing `total_samples`/`rows`".to_string(),
        ));
        return findings;
    }
    let rows = array_objects(text, "\"rows\":[").unwrap_or_default();
    if rows.is_empty() {
        findings.push(finding(
            rel,
            "drift report has no rows (no admitted request was sampled)".to_string(),
        ));
    }
    for (index, row) in rows.iter().enumerate() {
        let row_keys = json_keys(row);
        for required in DRIFT_ROW_KEYS {
            if !row_keys.contains(*required) {
                findings.push(finding(
                    rel,
                    format!("drift row #{index} is missing key `{required}`"),
                ));
            }
        }
    }
    findings
}

/// Keys `CaseReport::to_json` writes per case (rule 4).
const RACE_CASE_KEYS: &[&str] = &[
    "name",
    "workers",
    "jobs",
    "schedules",
    "exhausted",
    "longest_trace",
    "transitions",
    "violations",
];

/// Validate the race-detector battery export (rule 4).
fn check_races(rel: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let trimmed = text.trim();
    if !trimmed.starts_with('[') {
        findings.push(finding(rel, "not a JSON array of case reports".to_string()));
        return findings;
    }
    let cases = array_objects(trimmed, "[").unwrap_or_default();
    if cases.is_empty() {
        findings.push(finding(rel, "empty race-detector battery".to_string()));
    }
    for (index, case) in cases.iter().enumerate() {
        let keys = json_keys(case);
        for required in RACE_CASE_KEYS {
            if !keys.contains(*required) {
                findings.push(finding(
                    rel,
                    format!("case report #{index} is missing key `{required}`"),
                ));
            }
        }
    }
    findings
}

/// An artifact validator: (relative path, finding list for its text).
type ArtifactCheck = fn(&str, &str) -> Vec<Finding>;

/// Run the pass: validate whichever OBS artifacts are committed or were
/// just generated at `root` (see module docs).
#[must_use]
pub fn run(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let artifacts: [(&str, ArtifactCheck); 4] = [
        ("OBS_trace.json", check_trace),
        ("OBS_metrics.prom", check_prom),
        ("OBS_drift.json", check_drift),
        ("OBS_races.json", check_races),
    ];
    for (rel, check) in artifacts {
        if let Ok(text) = std::fs::read_to_string(root.join(rel)) {
            findings.extend(check(rel, &text));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_trace_passes_and_broken_events_are_flagged() {
        let good = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"thread_name","ph":"M","pid":0,"tid":3,"args":{"name":"solve"}},
            {"name":"solve","cat":"deterministic","ph":"X","pid":0,"tid":3,"ts":0,"dur":5,"args":{"label":"fpga{x}"}}]}"#;
        assert!(check_trace("OBS_trace.json", good).is_empty());
        let missing_dur = r#"{"traceEvents":[{"name":"solve","ph":"X","pid":0,"tid":3,"ts":0}]}"#;
        let findings = check_trace("OBS_trace.json", missing_dur);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`dur`"));
        let not_a_trace = r#"{"rows":[]}"#;
        assert!(!check_trace("OBS_trace.json", not_a_trace).is_empty());
    }

    #[test]
    fn prom_lines_must_resolve_to_convention_families() {
        let good = "# TYPE sem_serve_requests_total counter\n\
                    sem_serve_requests_total{backend=\"cpu\"} 5\n\
                    sem_serve_request_latency_seconds_bucket{le=\"+Inf\"} 4\n\
                    sem_serve_request_latency_seconds_sum 2.5\n\
                    sem_serve_request_latency_seconds_count 4\n";
        assert!(check_prom("OBS_metrics.prom", good).is_empty());
        let bad = "queue_depth 3\nsem_serve_requests_total five\n";
        let findings = check_prom("OBS_metrics.prom", bad);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(findings[0].line, 1);
        assert!(findings[1].message.contains("numeric value"));
    }

    #[test]
    fn drift_rows_are_pinned_to_the_report_key_set() {
        let good = r#"{"total_samples":2,"rows":[{"stage":"upload","backend":"fpga",
            "samples":2,"mean_residual_seconds":0.1,"mean_abs_residual_seconds":0.1,
            "max_abs_residual_seconds":0.2,"mean_relative_error":0.05,
            "suspect_term":"link_gbs"}]}"#;
        assert!(check_drift("OBS_drift.json", good).is_empty());
        let stale = r#"{"total_samples":1,"rows":[{"stage":"upload","backend":"fpga"}]}"#;
        let findings = check_drift("OBS_drift.json", stale);
        assert_eq!(findings.len(), DRIFT_ROW_KEYS.len() - 2, "{findings:?}");
        assert!(!check_drift("OBS_drift.json", r#"{"total_samples":0,"rows":[]}"#).is_empty());
    }

    #[test]
    fn race_battery_cases_are_pinned_to_the_case_key_set() {
        let good = r#"[{"name":"shared-queue","workers":2,"jobs":3,"schedules":10,
            "exhausted":true,"longest_trace":9,"transitions":["is>cs"],"violations":[]}]"#;
        assert!(check_races("OBS_races.json", good).is_empty());
        let findings = check_races("OBS_races.json", r#"[{"name":"x"}]"#);
        assert_eq!(findings.len(), RACE_CASE_KEYS.len() - 1);
        assert!(!check_races("OBS_races.json", "{}").is_empty());
    }
}
