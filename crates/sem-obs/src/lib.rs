//! `sem-obs`: deterministic tracing, metrics, and model-drift telemetry
//! for the solve/serve stack.
//!
//! The paper's FPGA evaluation lives on per-stage accounting — kernel
//! cycles vs H2D/D2H transfer vs launch overhead — and once solves span a
//! device pool, *where time goes per request* is the difference between a
//! capacity plan and a guess.  This crate is the workspace's observability
//! layer, threaded through every other crate:
//!
//! * [`recorder`] — a global [`Recorder`] handle in front of preallocated
//!   per-thread event rings.  Disabled, every call is one relaxed
//!   `AtomicBool` load; enabled, recording a [`SpanEvent`] is a
//!   fixed-size write into storage sized up front (no allocation — proven
//!   by `tests/alloc_free.rs` over the CG hot loop).
//! * [`clock`] — the pluggable [`ObsClock`]: the *single sanctioned host
//!   `Instant` site* of the workspace (sem-lint's wall-clock pass pins the
//!   pragma to the file defining `ObsClock`).  On [`ObsClock::Modeled`]
//!   spans are stamped with the modelled seconds already flowing through
//!   `SolveReport`/`PipelineTimeline`, so traces are byte-reproducible.
//! * [`event`] — the span model: CG iterations, kernel applies, offload
//!   stages, pipeline slots, admission verdicts, worker parks — each
//!   tagged [`Scope::Deterministic`] or [`Scope::ScheduleDependent`].
//! * [`metrics`] — label-aware counters / gauges / log-linear histograms
//!   under the `sem_<crate>_<noun>_<unit>` naming convention, with a
//!   Prometheus text snapshot.
//! * [`export`] — the Chrome trace-event JSON exporter (Perfetto-loadable)
//!   with the byte-determinism contract.
//! * [`drift`] — modelled-vs-actual residuals per offload stage per
//!   request, aggregated into the [`DriftReport`] that tells us which
//!   `perf_model` terms are lying — the autoscaler's future input signal.
//!
//! ```
//! use sem_obs::{recorder, ObsConfig, Recorder, Scope, SpanEvent, SpanKind};
//!
//! Recorder::install(ObsConfig::default()); // modelled clock
//! let obs = recorder();
//! let start = obs.stamp(0.0);
//! let end = obs.stamp(1.5e-3);
//! obs.record(SpanEvent::new(SpanKind::Solve, Scope::Deterministic, start, end));
//! obs.counter_add("sem_serve_requests_total", &[("backend", "cpu")], 1);
//! let trace = sem_obs::export::chrome_trace_json(&obs.trace_snapshot());
//! assert!(trace.contains("\"name\":\"solve\""));
//! Recorder::uninstall();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
pub mod drift;
pub mod event;
pub mod export;
pub mod metrics;
pub mod recorder;

pub use clock::{ObsClock, WallEpoch, WallTimer};
pub use drift::{DriftReport, DriftRow, DriftSample};
pub use event::{LabelId, Scope, SpanEvent, SpanKind, NO_ID};
pub use export::chrome_trace_json;
pub use metrics::{name_matches_convention, MetricsRegistry};
pub use recorder::{recorder, ObsConfig, Recorder, TraceSnapshot, DEFAULT_RING_CAPACITY};
