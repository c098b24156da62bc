//! Exporters: Chrome trace-event JSON (loadable in Perfetto / `chrome://
//! tracing`) for spans, alongside the Prometheus text snapshot the
//! metrics registry renders itself.
//!
//! Determinism contract: under the modelled clock the export keeps only
//! [`Scope::Deterministic`] events, assigns track ids from the event
//! *kind* (never the recording thread), and sorts by a total order over
//! the event content — so the same seed produces byte-identical JSON no
//! matter how many worker threads recorded, on both the sync and the
//! threaded serving paths.  Under the wall clock every event is kept
//! (worker parks, measured kernel applies included) with the same stable
//! ordering rules; the bytes then vary with the host, which is the point.

use crate::drift::{json_number, json_string};
use crate::event::{Scope, SpanEvent, NO_ID};
use crate::recorder::TraceSnapshot;

/// Order events by content only (never by recording thread): time, kind,
/// then attribution ids.
fn stable_order(a: &SpanEvent, b: &SpanEvent) -> std::cmp::Ordering {
    a.start_seconds
        .total_cmp(&b.start_seconds)
        .then_with(|| a.end_seconds.total_cmp(&b.end_seconds))
        .then_with(|| a.kind.rank().cmp(&b.kind.rank()))
        .then_with(|| a.request.cmp(&b.request))
        .then_with(|| a.job.cmp(&b.job))
        .then_with(|| a.index.cmp(&b.index))
        .then_with(|| a.label.cmp(&b.label))
}

/// Render a snapshot as Chrome trace-event JSON.
///
/// Events become `ph:"X"` complete events with microsecond `ts`/`dur`;
/// each [`crate::event::SpanKind`] gets its own named track (`tid` = kind
/// rank, with `thread_name` metadata), and request/job/index/label ride in
/// `args` so rows join against the serve report's outcomes by `request`.
#[must_use]
pub fn chrome_trace_json(snapshot: &TraceSnapshot) -> String {
    let mut events: Vec<&SpanEvent> = snapshot
        .events
        .iter()
        .map(|(_, event)| event)
        .filter(|event| !snapshot.modeled_clock || event.scope == Scope::Deterministic)
        .collect();
    events.sort_by(|a, b| stable_order(a, b));

    let mut lanes: Vec<u8> = events.iter().map(|e| e.kind.rank()).collect();
    lanes.sort_unstable();
    lanes.dedup();

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for lane in &lanes {
        let name = events
            .iter()
            .find(|e| e.kind.rank() == *lane)
            .map_or("", |e| e.kind.name());
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{lane},\
             \"args\":{{\"name\":{}}}}}",
            json_string(name)
        ));
    }
    for event in events {
        if !first {
            out.push(',');
        }
        first = false;
        let ts = event.start_seconds * 1e6;
        let dur = ((event.end_seconds - event.start_seconds) * 1e6).max(0.0);
        let cat = match event.scope {
            Scope::Deterministic => "deterministic",
            Scope::ScheduleDependent => "schedule_dependent",
        };
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{",
            json_string(event.kind.name()),
            event.kind.rank(),
            json_number(ts),
            json_number(dur),
        ));
        let mut first_arg = true;
        let mut arg = |out: &mut String, key: &str, value: String| {
            if !first_arg {
                out.push(',');
            }
            first_arg = false;
            out.push_str(&format!("\"{key}\":{value}"));
        };
        if event.request != NO_ID {
            arg(&mut out, "request", format!("{}", event.request));
        }
        if event.job != NO_ID {
            arg(&mut out, "job", format!("{}", event.job));
        }
        arg(&mut out, "index", format!("{}", event.index));
        let label = snapshot.label(event.label);
        if !label.is_empty() {
            arg(&mut out, "label", json_string(label));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LabelId, SpanKind};

    fn snapshot(modeled: bool, events: Vec<SpanEvent>) -> TraceSnapshot {
        TraceSnapshot {
            modeled_clock: modeled,
            events: events.into_iter().map(|e| (0, e)).collect(),
            labels: vec!["fpga:test".to_string()],
            dropped_events: 0,
        }
    }

    #[test]
    fn modeled_export_filters_schedule_dependent_events() {
        let det = SpanEvent::new(SpanKind::Upload, Scope::Deterministic, 0.0, 1.0).with_request(2);
        let sched = SpanEvent::new(SpanKind::WorkerPark, Scope::ScheduleDependent, 0.5, 0.5);
        let json = chrome_trace_json(&snapshot(true, vec![det, sched]));
        assert!(json.contains("\"name\":\"upload\""));
        assert!(!json.contains("\"name\":\"worker_park\""));
        assert!(json.contains("\"request\":2"));
        // Wall-mode export keeps everything.
        let wall = chrome_trace_json(&snapshot(false, vec![det, sched]));
        assert!(wall.contains("\"name\":\"worker_park\""));
        assert!(wall.contains("\"cat\":\"schedule_dependent\""));
    }

    #[test]
    fn export_is_independent_of_recording_order_and_thread() {
        let a = SpanEvent::new(SpanKind::Compute, Scope::Deterministic, 1.0, 2.0).with_request(0);
        let b = SpanEvent::new(SpanKind::Upload, Scope::Deterministic, 0.0, 1.0).with_request(1);
        let forward = chrome_trace_json(&snapshot(true, vec![a, b]));
        let mut reversed = snapshot(true, vec![b, a]);
        // Simulate the same events surfacing from a different ring.
        for entry in &mut reversed.events {
            entry.0 = 7;
        }
        assert_eq!(forward, chrome_trace_json(&reversed));
    }

    #[test]
    fn spans_carry_microsecond_timestamps_and_labels() {
        let event = SpanEvent::new(SpanKind::Download, Scope::Deterministic, 0.5, 0.75)
            .with_label(LabelId(1))
            .with_job(4);
        let json = chrome_trace_json(&snapshot(true, vec![event]));
        assert!(json.contains("\"ts\":500000"));
        assert!(json.contains("\"dur\":250000"));
        assert!(json.contains("\"label\":\"fpga:test\""));
        assert!(json.contains("\"job\":4"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
    }
}
