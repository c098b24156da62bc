//! The one serving host: timestamped arrival streams, windowed admission
//! in virtual time, and fault-tolerant execution.
//!
//! An [`ArrivalStream`] holds requests stamped with modelled arrival
//! seconds: a seeded open-loop trace from `perf_model::workload`, or a
//! closed set at t = 0 ([`ArrivalStream::closed`]).  Same-shape arrivals
//! within a batching window coalesce into jobs
//! ([`ArrivalStream::coalesce`]), each placed on the device with the
//! earliest corrected predicted completion and priced against an
//! arrival-relative deadline (`f64::INFINITY` admits everything).  One
//! admission loop feeds two executors:
//!
//! * [`Server::serve_stream`] runs each admitted job inline on the device
//!   it was priced for, charges the backlog the actual session, and teaches
//!   a [`StageDriftCorrector`] that re-prices later admissions.
//! * [`Server::serve_stream_async`] admits against corrected *predicted*
//!   backlog, then feeds every admitted job into the worker pool's queue
//!   while it drains.  The pool attempts each job once; every failed
//!   attempt then recovers through the synchronous executor's loop.  On a
//!   homogeneous pool its answers are bitwise those of
//!   `SemSystem::solve_many`, whichever worker ran them.
//!
//! Both release only verified answers and share one recovery ladder (see
//! [`crate::chaos`]).  The stream is cut into observation windows, each
//! closed with admitted/rejected counts and a p99 (`None` when nothing was
//! admitted); an optional [`Autoscaler`] reads each closed window to resize
//! the active pool.  Every second here is modelled time, so admission never
//! depends on host load.  With the `sem-obs` recorder enabled the host
//! records admission verdict spans at their pricing instants and every
//! session's pipeline spans — deterministic for modelled sessions of the
//! synchronous executor, schedule-dependent otherwise.

use crate::autoscaler::{Autoscaler, ScaleEvent};
use crate::chaos::{Attempt, FaultEvent};
use crate::fault::{BreakerState, CircuitBreaker, FaultReason, FaultToleranceOptions, RetryLedger};
use crate::pipeline::{PipelineTimeline, Stage};
use crate::queue::BatchJob;
use crate::request::{ProblemSpec, ServeRequest};
use crate::server::{RequestOutcome, Server};
use crate::steal::JobVerdict;
use perf_model::{arrival_times, StageDriftCorrector, WorkloadKind};
use sem_obs::{recorder, Scope, SpanEvent, SpanKind, WallTimer};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One timestamped request of an open-loop workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedRequest {
    /// Modelled arrival time in seconds from the start of the trace.
    pub arrival_seconds: f64,
    /// What arrives.
    pub request: ServeRequest,
}

/// A trace of timestamped requests, sorted by arrival time.  The index of a
/// request in the sorted trace is its *request id*: the id outcomes and
/// rejections carry, and the seed offset [`ArrivalStream::from_workload`]
/// derives each right-hand side from.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    arrivals: Vec<TimedRequest>,
}

impl ArrivalStream {
    /// A stream over explicit arrivals (sorted by arrival time; ties keep
    /// their submission order).
    ///
    /// # Panics
    /// Panics if an arrival stamp is negative or non-finite.
    #[must_use]
    pub fn new(mut arrivals: Vec<TimedRequest>) -> Self {
        assert!(
            arrivals
                .iter()
                .all(|t| t.arrival_seconds.is_finite() && t.arrival_seconds >= 0.0),
            "arrival stamps must be finite and non-negative"
        );
        arrivals.sort_by(|a, b| a.arrival_seconds.total_cmp(&b.arrival_seconds));
        Self { arrivals }
    }

    /// A seeded open-loop trace: arrival times from
    /// `perf_model::workload::arrival_times` (deterministic under the
    /// seed), each carrying a [`ServeRequest::seeded`] right-hand side of
    /// shape `spec` whose seed is the request id — so two runs of the same
    /// `(kind, seed, horizon, spec)` solve bitwise-identical problems.
    #[must_use]
    pub fn from_workload(
        kind: WorkloadKind,
        seed: u64,
        horizon_seconds: f64,
        spec: ProblemSpec,
    ) -> Self {
        let arrivals = arrival_times(kind, seed, horizon_seconds)
            .into_iter()
            .enumerate()
            .map(|(id, arrival_seconds)| TimedRequest {
                arrival_seconds,
                request: ServeRequest::seeded(spec, id as u64),
            })
            .collect();
        Self::new(arrivals)
    }

    /// A closed request set: every request arrives at t = 0, in order, so
    /// request ids are indices into `requests`.
    #[must_use]
    pub fn closed(requests: &[ServeRequest]) -> Self {
        Self::new(
            requests
                .iter()
                .map(|&request| TimedRequest {
                    arrival_seconds: 0.0,
                    request,
                })
                .collect(),
        )
    }

    /// The sorted arrivals.
    #[must_use]
    pub fn arrivals(&self) -> &[TimedRequest] {
        &self.arrivals
    }

    /// Number of requests in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Coalesce the arrivals into batch jobs: same-shape arrivals within
    /// `batch_window_seconds` of the open batch's first member join it (up
    /// to `max_batch`); a shape change, a full batch or a stale window
    /// flushes.  Each job is returned with its last member's arrival, so
    /// the stamps are nondecreasing, and within a shape request ids stay in
    /// arrival order.
    #[must_use]
    pub fn coalesce(&self, max_batch: usize, batch_window_seconds: f64) -> Vec<(BatchJob, f64)> {
        let mut jobs = Vec::new();
        let mut open: Option<(BatchJob, f64, f64)> = None; // (job, first_arrival, last_arrival)
        for (id, timed) in self.arrivals.iter().enumerate() {
            if let Some((job, first, last)) = &mut open {
                if job.spec == timed.request.spec
                    && timed.arrival_seconds - *first <= batch_window_seconds
                    && job.batch_size() < max_batch
                {
                    job.requests.push(id);
                    *last = timed.arrival_seconds;
                    continue;
                }
                jobs.push((job.clone(), *last));
            }
            open = Some((
                BatchJob {
                    spec: timed.request.spec,
                    requests: vec![id],
                },
                timed.arrival_seconds,
                timed.arrival_seconds,
            ));
        }
        if let Some((job, _, last)) = open {
            jobs.push((job, last));
        }
        jobs
    }
}

/// Knobs of the live serving loop.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LiveOptions {
    /// Arrival-relative latency target: a job is admitted only if its
    /// predicted completion sits within this many modelled seconds of its
    /// arrival (`f64::INFINITY` admits everything).
    pub deadline_seconds: f64,
    /// Same-shape arrivals within this window of the batch's first member
    /// coalesce into one job (up to the server's `max_batch`).  Zero
    /// batches only simultaneous arrivals.
    pub batch_window_seconds: f64,
    /// Width of one observation window: statistics, pool-size traces and
    /// autoscaler decisions are per window.
    pub window_seconds: f64,
    /// Whether an over-deadline job is split in half and both halves
    /// re-priced (a smaller batch has a shorter session, so a leading piece
    /// often fits) instead of rejected whole.
    pub down_batch: bool,
    /// Detection thresholds, retry policy and quarantine cooldown of the
    /// fault-tolerant host.
    pub fault: FaultToleranceOptions,
}

impl Default for LiveOptions {
    fn default() -> Self {
        Self {
            deadline_seconds: 5.0,
            batch_window_seconds: 0.05,
            window_seconds: 10.0,
            down_batch: true,
            fault: FaultToleranceOptions::default(),
        }
    }
}

/// Why the live host turned a request away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectionReason {
    /// The admission model priced its job over the deadline.
    Deadline,
    /// Its problem spec cannot be meshed (zero degree or a zero element
    /// count), so no device could ever serve it.
    InvalidSpec,
}

/// One request the live host turned away.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LiveRejection {
    /// Request id (index into the sorted [`ArrivalStream`]).
    pub request: usize,
    /// When it arrived.
    pub arrival_seconds: f64,
    /// The arrival-relative latency the model predicted on the best active
    /// device at pricing time (infinite for an invalid spec, which is never
    /// priced).
    pub predicted_latency_seconds: f64,
    /// The deadline it was priced against.
    pub deadline_seconds: f64,
    /// Why it was rejected.
    pub reason: RejectionReason,
}

/// Aggregates of one closed observation window — what the autoscaler sees.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowStats {
    /// Window index (window `w` covers `[w·W, (w+1)·W)` modelled seconds).
    pub window: usize,
    /// Start of the window in modelled seconds.
    pub start_seconds: f64,
    /// Requests admitted in the window.
    pub admitted: usize,
    /// Requests rejected in the window.
    pub rejected: usize,
    /// Nearest-rank p99 over the window's arrival-relative latencies —
    /// `None` when the window admitted nothing, so the absence of a tail is
    /// never mistaken for a zero-latency tail.
    pub p99_latency_seconds: Option<f64>,
    /// Devices active while the window's admissions were priced.
    pub active_devices: usize,
}

/// The result of serving one arrival stream.
#[derive(Debug, Default)]
pub struct LiveReport {
    /// One verified outcome per served request, sorted by request id.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests turned away at admission, sorted by request id.
    pub rejections: Vec<LiveRejection>,
    /// Admitted requests that could not be completed — non-empty only when
    /// every device able to serve them is dead.  Never silently dropped.
    pub unserved: Vec<usize>,
    /// Per-request retry history.
    pub ledger: RetryLedger,
    /// Final per-device breaker states.
    pub breakers: Vec<CircuitBreaker>,
    /// Every detected fault, in detection order.
    pub fault_events: Vec<FaultEvent>,
    /// Jobs that exhausted their retries and ran on the fallback device.
    pub fallback_jobs: usize,
    /// Probe jobs offered to quarantined devices.
    pub probes: usize,
    /// Requests that completed after at least one failed attempt.
    pub recovered_requests: usize,
    /// One entry per closed observation window, in order.
    pub windows: Vec<WindowStats>,
    /// Pool indices of the devices active during each window (parallel to
    /// `windows`) — the provisioning trace cost accounting integrates.
    pub active_trace: Vec<Vec<usize>>,
    /// Every autoscaler flip, in window order (empty for a static pool).
    pub scale_events: Vec<ScaleEvent>,
    /// Width of one observation window.
    pub window_seconds: f64,
    /// The drift corrector's final multiplicative correction (1.0 means the
    /// perf model priced sessions exactly; the threaded executor reports
    /// its admission-time factor).
    pub drift_correction: f64,
    /// Modelled end-to-end seconds: the latest device backlog, backoff
    /// waits included.
    pub makespan_seconds: f64,
    /// Measured wall-clock seconds of the whole call on this host.
    pub wall_seconds: f64,
    /// Whether the run used the threaded executor.
    pub asynchronous: bool,
}

impl LiveReport {
    /// Requests admitted and answered.
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.outcomes.len()
    }

    /// Requests rejected.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.rejections.len()
    }

    /// Arrival-relative latency at percentile `p` over every answered
    /// request (`None` when nothing was answered).
    #[must_use]
    pub fn latency_percentile_seconds(&self, p: f64) -> Option<f64> {
        let latencies: Vec<f64> = self
            .outcomes
            .iter()
            .map(RequestOutcome::latency_seconds)
            .collect();
        perf_model::nearest_rank_percentile(&latencies, p)
    }

    /// Watt-seconds of provisioned capacity across the run: each window
    /// charges the TDP of every device active during it, whether or not it
    /// solved anything — idle capacity is what elasticity saves.
    ///
    /// # Panics
    /// Panics if `watts` is shorter than a traced device index.
    #[must_use]
    pub fn provisioned_watt_seconds(&self, watts: &[f64]) -> f64 {
        self.active_trace
            .iter()
            .flatten()
            .map(|&device| watts[device] * self.window_seconds)
            .sum()
    }

    /// Provisioned watt-seconds per admitted request (`None` when nothing
    /// was admitted).
    #[must_use]
    pub fn cost_per_solve_watt_seconds(&self, watts: &[f64]) -> Option<f64> {
        if self.outcomes.is_empty() {
            return None;
        }
        Some(self.provisioned_watt_seconds(watts) / self.outcomes.len() as f64)
    }

    /// Mean active devices per window (0 for a windowless run).
    #[must_use]
    pub fn mean_active_devices(&self) -> f64 {
        if self.active_trace.is_empty() {
            return 0.0;
        }
        self.active_trace.iter().map(Vec::len).sum::<usize>() as f64
            / self.active_trace.len() as f64
    }

    /// Largest per-window active-device count.
    #[must_use]
    pub fn max_active_devices(&self) -> usize {
        self.active_trace.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// One batch job of the live trace waiting its turn in virtual time.
struct LiveJob {
    job: BatchJob,
    /// Arrival of its last member (a job cannot dispatch before it is
    /// complete): the deadline and latencies count from here.
    arrival_seconds: f64,
    /// Earliest modelled dispatch: the arrival, a retry's backoff expiry,
    /// or the moment a quarantined device's probe falls due.
    not_before_seconds: f64,
    /// Failed attempts so far.
    attempts: usize,
    /// Its admission ordinal — the job id its spans carry — once admission
    /// accepted it (a retry is never re-priced against the deadline:
    /// admitted work completes).
    admitted: Option<usize>,
}

impl LiveJob {
    /// A job fresh off the coalescer.
    fn arrived(job: BatchJob, arrival_seconds: f64) -> Self {
        Self {
            job,
            arrival_seconds,
            not_before_seconds: arrival_seconds,
            attempts: 0,
            admitted: None,
        }
    }
}

/// Window bookkeeping of the live loop: accumulates one window's counts and
/// latencies, closes windows as virtual time passes their right edge, and
/// lets the autoscaler flip the active mask between windows.
struct WindowTracker {
    window_seconds: f64,
    window: usize,
    admitted: usize,
    rejected: usize,
    latencies: Vec<f64>,
    windows: Vec<WindowStats>,
    active_trace: Vec<Vec<usize>>,
}

impl WindowTracker {
    fn new(window_seconds: f64) -> Self {
        Self {
            window_seconds,
            window: 0,
            admitted: 0,
            rejected: 0,
            latencies: Vec::new(),
            windows: Vec::new(),
            active_trace: Vec::new(),
        }
    }

    /// Close every window that ended at or before `arrival`.
    fn advance_to(
        &mut self,
        arrival: f64,
        active: &mut [bool],
        scaler: &mut Option<&mut Autoscaler>,
    ) {
        while arrival >= (self.window as f64 + 1.0) * self.window_seconds {
            self.close(active, scaler);
        }
    }

    fn close(&mut self, active: &mut [bool], scaler: &mut Option<&mut Autoscaler>) {
        let active_devices: Vec<usize> = (0..active.len()).filter(|&d| active[d]).collect();
        let stats = WindowStats {
            window: self.window,
            start_seconds: self.window as f64 * self.window_seconds,
            admitted: self.admitted,
            rejected: self.rejected,
            p99_latency_seconds: perf_model::nearest_rank_percentile(&self.latencies, 99.0),
            active_devices: active_devices.len(),
        };
        let obs = recorder();
        if obs.is_enabled() {
            obs.gauge_set(
                "sem_serve_pool_devices_count",
                &[],
                active_devices.len() as f64,
            );
        }
        if let Some(scaler) = scaler.as_mut() {
            scaler.observe(&stats);
            active.copy_from_slice(scaler.active_mask());
        }
        self.active_trace.push(active_devices);
        self.windows.push(stats);
        self.window += 1;
        self.admitted = 0;
        self.rejected = 0;
        self.latencies.clear();
    }
}

/// Record one admission-verdict span per request of `job` on the modelled
/// interval it was priced over (its device's backlog → its predicted
/// completion).
fn record_verdict(
    kind: SpanKind,
    scope: Scope,
    job: &BatchJob,
    start_seconds: f64,
    end_seconds: f64,
) {
    let obs = recorder();
    let (start, end) = (obs.stamp(start_seconds), obs.stamp(end_seconds));
    for &request in &job.requests {
        obs.record(SpanEvent::new(kind, scope, start, end).with_request(request as u64));
    }
}

/// Scope of one session's pipeline spans: a modelled session in the
/// synchronous executor's deterministic dispatch order is reproducible; a
/// measured one, or any session of a threaded run, is not.
fn session_scope(modeled: bool, asynchronous: bool) -> Scope {
    if modeled && !asynchronous {
        Scope::Deterministic
    } else {
        Scope::ScheduleDependent
    }
}

/// Queue `job` in dispatch order: by `not_before_seconds`, behind every job
/// already due at the same instant — a deterministic total order however
/// retries interleave with arrivals.
fn enqueue(queue: &mut VecDeque<LiveJob>, job: LiveJob) {
    let at = queue.partition_point(|queued| {
        queued
            .not_before_seconds
            .total_cmp(&job.not_before_seconds)
            .is_le()
    });
    queue.insert(at, job);
}

/// The mutable state of one streaming serve.
struct LiveRun<'a> {
    live: &'a LiveOptions,
    arrivals: &'a [TimedRequest],
    requests: Vec<ServeRequest>,
    scaler: Option<&'a mut Autoscaler>,
    active: Vec<bool>,
    /// Modelled instant each device's backlog clears.
    free_at: Vec<f64>,
    corrector: StageDriftCorrector,
    tracker: WindowTracker,
    /// The threaded executor's plan: each admitted job, due again at its
    /// predicted completion, beside its predicted start.  A job's index
    /// here is its admission ordinal.
    planned: Vec<(LiveJob, f64)>,
    /// Jobs admitted so far (the next job id).
    admitted_jobs: usize,
    /// Scope of the admission-verdict spans: admission runs on the caller's
    /// thread on modelled predictions, so its verdicts are deterministic
    /// unless the synchronous executor charges backlogs measured sessions.
    verdict_scope: Scope,
    /// Answers, rejections and the recovery record accumulate here.
    report: LiveReport,
}

impl LiveRun<'_> {
    /// Admit `job`, priced on the modelled interval `[start, completion]`;
    /// returns its job id.
    fn admit(&mut self, job: &BatchJob, start: f64, completion: f64) -> usize {
        self.tracker.admitted += job.batch_size();
        let obs = recorder();
        if obs.is_enabled() {
            let scope = self.verdict_scope;
            record_verdict(SpanKind::AdmissionAdmit, scope, job, start, completion);
            obs.counter_add(
                "sem_serve_admitted_requests_total",
                &[],
                job.batch_size() as u64,
            );
            obs.counter_add("sem_serve_jobs_total", &[], 1);
        }
        let job_id = self.admitted_jobs;
        self.admitted_jobs += 1;
        job_id
    }

    fn reject(&mut self, job: &BatchJob, reason: RejectionReason, predicted_latency_seconds: f64) {
        self.tracker.rejected += job.batch_size();
        let obs = recorder();
        if obs.is_enabled() {
            obs.counter_add(
                "sem_serve_rejected_requests_total",
                &[],
                job.batch_size() as u64,
            );
        }
        for &request in &job.requests {
            self.report.rejections.push(LiveRejection {
                request,
                arrival_seconds: self.arrivals[request].arrival_seconds,
                predicted_latency_seconds,
                deadline_seconds: self.live.deadline_seconds,
                reason,
            });
        }
    }

    /// Termination backstop far beyond any plan the retry/fallback ladder
    /// can hit: only an all-dead pool reaches it, and those jobs land in
    /// `unserved` rather than looping forever.
    fn attempt_ceiling(&self) -> usize {
        self.live.fault.max_retries + self.free_at.len() + 2
    }

    /// The one retry step of both executors: charge the failed attempt of
    /// admitted job `job_id` on `device`, detected at the modelled instant
    /// `end`, and queue it again after its backoff (or report it unserved
    /// at the attempt ceiling).
    fn retry(
        &mut self,
        queue: &mut VecDeque<LiveJob>,
        entry: LiveJob,
        job_id: usize,
        device: usize,
        reason: FaultReason,
        end: f64,
    ) {
        let attempts = entry.attempts + 1;
        let backoff = self.live.fault.backoff_seconds(attempts);
        self.report
            .on_fault(device, reason, end, &entry.job, attempts, backoff);
        let obs = recorder();
        if obs.is_enabled() {
            obs.counter_add("sem_serve_retries_total", &[], 1);
        }
        if attempts >= self.attempt_ceiling() {
            self.report.unserved.extend(&entry.job.requests);
        } else {
            let entry = LiveJob {
                not_before_seconds: end + backoff,
                attempts,
                admitted: Some(job_id),
                ..entry
            };
            enqueue(queue, entry);
        }
    }

    /// Release verified outcomes on the modelled interval `[started,
    /// completed]`, stamping each with its arrival.
    fn release(&mut self, outcomes: Vec<RequestOutcome>, started: f64, completed: f64) {
        for mut outcome in outcomes {
            outcome.arrival_seconds = self.arrivals[outcome.request].arrival_seconds;
            outcome.started_seconds = started;
            outcome.completed_seconds = completed;
            self.tracker.latencies.push(outcome.latency_seconds());
            self.report.outcomes.push(outcome);
        }
    }
}

impl Server {
    /// Serve an arrival stream on the synchronous executor: admitted jobs
    /// execute inline on the device they were priced for, backlog advances
    /// by actual modelled makespans, the drift corrector re-prices every
    /// later admission by measured prediction drift, and failed attempts
    /// are retried in virtual time (see [`crate::chaos`]).
    ///
    /// With a `scaler`, the active device mask is re-evaluated at every
    /// window boundary; without one the whole pool stays active.
    ///
    /// # Panics
    /// Panics if an option is non-positive (`batch_window_seconds` may be
    /// zero) or a scaler's candidate pool disagrees with the server's.
    pub fn serve_stream(
        &mut self,
        stream: &ArrivalStream,
        live: &LiveOptions,
        scaler: Option<&mut Autoscaler>,
    ) -> LiveReport {
        self.serve_stream_host(stream, live, scaler, false)
    }

    /// Serve an arrival stream on the threaded executor: admission prices
    /// against corrected *predicted* backlog, then a live feeder pushes
    /// every admitted job into the pool's shared queue while the workers
    /// drain it.  Outcomes carry the plan's virtual times and the
    /// executing worker; on a homogeneous pool the solution bits are those
    /// of `SemSystem::solve_many` on the same right-hand sides.  A failed
    /// attempt retries on the synchronous executor's ladder once the pool
    /// drains, as [`crate::chaos`] describes.
    ///
    /// # Panics
    /// Panics if an option is non-positive (`batch_window_seconds` may be
    /// zero) or a scaler's candidate pool disagrees with the server's.
    pub fn serve_stream_async(
        &mut self,
        stream: &ArrivalStream,
        live: &LiveOptions,
        scaler: Option<&mut Autoscaler>,
    ) -> LiveReport {
        self.serve_stream_host(stream, live, scaler, true)
    }

    fn serve_stream_host(
        &mut self,
        stream: &ArrivalStream,
        live: &LiveOptions,
        scaler: Option<&mut Autoscaler>,
        asynchronous: bool,
    ) -> LiveReport {
        assert!(live.deadline_seconds > 0.0, "deadline must be positive");
        assert!(live.window_seconds > 0.0, "window must be positive");
        assert!(
            live.batch_window_seconds >= 0.0,
            "batch window must be non-negative"
        );
        let wall = WallTimer::start();
        let pool = self.slots.len();
        if let Some(scaler) = &scaler {
            assert_eq!(
                scaler.active_mask().len(),
                pool,
                "scaler candidates must match the server pool"
            );
        }

        let mut run = LiveRun {
            live,
            arrivals: stream.arrivals(),
            requests: stream.arrivals().iter().map(|t| t.request).collect(),
            active: scaler
                .as_ref()
                .map_or_else(|| vec![true; pool], |s| s.active_mask().to_vec()),
            scaler,
            free_at: vec![0.0; pool],
            corrector: StageDriftCorrector::new(),
            tracker: WindowTracker::new(live.window_seconds),
            planned: Vec::new(),
            admitted_jobs: 0,
            verdict_scope: if asynchronous || self.slots.iter().all(|s| s.config.is_simulated()) {
                Scope::Deterministic
            } else {
                Scope::ScheduleDependent
            },
            report: LiveReport {
                breakers: vec![CircuitBreaker::new(); pool],
                window_seconds: live.window_seconds,
                asynchronous,
                ..LiveReport::default()
            },
        };
        let queue = stream
            .coalesce(self.options.max_batch, live.batch_window_seconds)
            .into_iter()
            .map(|(job, arrival_seconds)| LiveJob::arrived(job, arrival_seconds))
            .collect();
        self.drain(&mut run, queue, asynchronous);
        if !stream.is_empty() {
            run.tracker.close(&mut run.active, &mut run.scaler);
        }
        if asynchronous && !run.planned.is_empty() {
            let leftovers = self.execute_plan(&mut run);
            self.drain(&mut run, leftovers, false);
        }

        let mut report = run.report;
        report.outcomes.sort_by_key(|o| o.request);
        report.rejections.sort_by_key(|r| r.request);
        report.unserved.sort_unstable();
        assert_eq!(
            report.outcomes.len() + report.rejections.len() + report.unserved.len(),
            stream.len(),
            "every request is answered, rejected or reported unserved exactly once"
        );
        report.makespan_seconds = run.free_at.into_iter().fold(0.0, f64::max);
        let obs = recorder();
        if obs.is_enabled() {
            obs.counter_add("sem_serve_requests_total", &[], report.admitted() as u64);
            obs.gauge_set("sem_serve_makespan_seconds", &[], report.makespan_seconds);
            for outcome in &report.outcomes {
                obs.observe(
                    "sem_serve_request_latency_seconds",
                    &[("device", outcome.device_label.as_str())],
                    outcome.latency_seconds(),
                );
            }
        }
        report.windows = run.tracker.windows;
        report.active_trace = run.tracker.active_trace;
        report.scale_events = run.scaler.map(|s| s.events().to_vec()).unwrap_or_default();
        report.drift_correction = run.corrector.correction("session");
        report.wall_seconds = wall.elapsed_wall_seconds();
        report
    }

    /// The one admission-and-recovery loop.  A job not yet admitted is
    /// validated, placed and priced against the deadline; once admitted it
    /// joins the threaded executor's plan (`plan_only`) or runs inline, and
    /// a failed attempt — inline or on the pool — re-enters the queue after
    /// its backoff, on the fallback device once its retries are spent.
    fn drain(&mut self, run: &mut LiveRun<'_>, mut queue: VecDeque<LiveJob>, plan_only: bool) {
        let fault = run.live.fault;
        let attempt_ceiling = run.attempt_ceiling();
        while let Some(entry) = queue.pop_front() {
            let (job, arrival_seconds) = (&entry.job, entry.arrival_seconds);
            let (not_before_seconds, attempts, admitted) =
                (entry.not_before_seconds, entry.attempts, entry.admitted);
            let (device, raw_predicted) = if attempts > fault.max_retries {
                let Some(device) = self.fallback_device(attempts, attempt_ceiling) else {
                    run.report.unserved.extend(&job.requests);
                    continue;
                };
                self.ensure_system(device, job.spec);
                (device, self.predict_job_seconds(device, job))
            } else {
                if admitted.is_none() {
                    run.tracker
                        .advance_to(not_before_seconds, &mut run.active, &mut run.scaler);
                    if !job.spec.is_valid() {
                        run.reject(job, RejectionReason::InvalidSpec, f64::INFINITY);
                        continue;
                    }
                }
                match self.place(job, run, not_before_seconds) {
                    Ok(placed) => placed,
                    Err(probe_due_seconds) => {
                        let entry = LiveJob {
                            not_before_seconds: probe_due_seconds,
                            ..entry
                        };
                        enqueue(&mut queue, entry);
                        continue;
                    }
                }
            };
            let start = run.free_at[device].max(not_before_seconds);
            let predicted = run.corrector.corrected("session", raw_predicted);

            let job_id = if let Some(job_id) = admitted {
                job_id
            } else {
                let predicted_completion = start + predicted;
                let predicted_latency = predicted_completion - arrival_seconds;
                if predicted_latency > run.live.deadline_seconds {
                    let split = run.live.down_batch && job.batch_size() >= 2;
                    let obs = recorder();
                    if obs.is_enabled() {
                        let kind = if split {
                            obs.counter_add("sem_serve_downbatch_splits_total", &[], 1);
                            SpanKind::DownBatchSplit
                        } else {
                            SpanKind::AdmissionReject
                        };
                        record_verdict(kind, run.verdict_scope, job, start, predicted_completion);
                    }
                    if split {
                        // Down-batch: halve and re-price both pieces before
                        // later arrivals (they keep the whole job's arrival
                        // stamp — the split is decided at that instant).
                        let (front, back) = job.split();
                        queue.push_front(LiveJob::arrived(back, arrival_seconds));
                        queue.push_front(LiveJob::arrived(front, arrival_seconds));
                    } else {
                        run.reject(job, RejectionReason::Deadline, predicted_latency);
                    }
                    continue;
                }
                let job_id = run.admit(job, start, predicted_completion);
                if plan_only {
                    // Causal host: backlog advances by the corrected
                    // prediction; execution happens later on the pool.
                    run.free_at[device] = predicted_completion;
                    for &request in &job.requests {
                        run.tracker
                            .latencies
                            .push(predicted_completion - run.arrivals[request].arrival_seconds);
                    }
                    let entry = LiveJob {
                        not_before_seconds: predicted_completion,
                        admitted: Some(job_id),
                        ..entry
                    };
                    run.planned.push((entry, start));
                    continue;
                }
                job_id
            };

            // Synchronous executor: run now, charge the backlog what the
            // session actually cost, judge the answers.
            if run.report.breakers[device].is_quarantined() {
                run.report.probes += 1;
            }
            let Attempt {
                timeline,
                outcomes,
                verdict,
                modeled,
            } = self.attempt(
                self.system(device, job.spec),
                device,
                job,
                &run.requests,
                &fault,
                fault.timeout_factor * predicted,
            );
            let makespan = timeline.makespan_seconds;
            let end = start + makespan;
            run.free_at[device] = end;
            if recorder().is_enabled() {
                let scope = session_scope(modeled, run.report.asynchronous);
                self.record_session(job_id, device, job, &timeline, start, scope);
            }
            match verdict {
                None => {
                    run.report.on_verified(device, job.batch_size(), attempts);
                    if attempts > fault.max_retries {
                        run.report.fallback_jobs += 1;
                    }
                    // A mixed pool's `cpu:*` reserve runs on another clock
                    // than the placement set and does not teach the corrector.
                    if self.placement_set(&run.active).contains(&device) {
                        run.corrector.record("session", raw_predicted, makespan);
                    }
                    run.release(outcomes, start, end);
                }
                Some(reason) => run.retry(&mut queue, entry, job_id, device, reason, end),
            }
        }
    }

    /// Record one session's pipeline spans on the modelled clock, anchored
    /// at its start: every timeline stage interval (shared upload, operand
    /// uploads, kernel computes, residual streams, result downloads), plus
    /// one [`SpanKind::PipelineSlot`] span per request covering the whole
    /// session.  Every span carries the job id and the device label.
    fn record_session(
        &self,
        job_id: usize,
        device: usize,
        job: &BatchJob,
        timeline: &PipelineTimeline,
        started: f64,
        scope: Scope,
    ) {
        let obs = recorder();
        let label = obs.intern(&self.slots[device].label);
        for event in &timeline.events {
            let kind = match event.stage {
                Stage::SharedUpload => SpanKind::SharedUpload,
                Stage::Upload => SpanKind::Upload,
                Stage::Compute => SpanKind::Compute,
                Stage::ResidualStream => SpanKind::ResidualStream,
                Stage::Download => SpanKind::Download,
            };
            let mut span = SpanEvent::new(
                kind,
                scope,
                obs.stamp(started + event.start_seconds),
                obs.stamp(started + event.end_seconds),
            )
            .with_job(job_id as u64)
            .with_label(label);
            if let Some(i) = event.request {
                span = span.with_request(job.requests[i] as u64);
            }
            obs.record(span);
        }
        let (start, end) = (
            obs.stamp(started),
            obs.stamp(started + timeline.makespan_seconds),
        );
        for &request in &job.requests {
            obs.record(
                SpanEvent::new(SpanKind::PipelineSlot, scope, start, end)
                    .with_request(request as u64)
                    .with_job(job_id as u64)
                    .with_label(label),
            );
        }
    }

    /// The active devices minus a mixed pool's `cpu:*` reserve.
    fn placement_set(&self, active: &[bool]) -> Vec<usize> {
        let active: Vec<usize> = (0..self.slots.len()).filter(|&d| active[d]).collect();
        let accelerators: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&d| !self.slots[d].label.starts_with("cpu"))
            .collect();
        if accelerators.is_empty() {
            active
        } else {
            accelerators
        }
    }

    /// Earliest-corrected-completion placement over the placement set, ties
    /// to the lowest pool index.  A quarantined device is a candidate only
    /// once its probe is due.  Returns the device and its raw predicted
    /// seconds, or — when every candidate sits in quarantine — when the
    /// earliest probe falls due.
    fn place(
        &mut self,
        job: &BatchJob,
        run: &LiveRun<'_>,
        not_before_seconds: f64,
    ) -> Result<(usize, f64), f64> {
        let candidates = self.placement_set(&run.active);
        let cooldown = run.live.fault.probe_cooldown_seconds;
        let breakers = &run.report.breakers;
        let mut best: Option<(f64, usize, f64)> = None;
        for &device in &candidates {
            let start = run.free_at[device].max(not_before_seconds);
            let breaker = &breakers[device];
            if breaker.is_quarantined() && !breaker.probe_due(start, cooldown) {
                continue;
            }
            self.ensure_system(device, job.spec);
            let raw = self.predict_job_seconds(device, job);
            let completion = start + run.corrector.corrected("session", raw);
            if best.is_none_or(|(incumbent, _, _)| completion < incumbent) {
                best = Some((completion, device, raw));
            }
        }
        if let Some((_, device, raw)) = best {
            return Ok((device, raw));
        }
        let probe_due = candidates
            .iter()
            .filter_map(|&device| match breakers[device].state() {
                BreakerState::Quarantined { since_seconds } => {
                    Some(run.free_at[device].max(since_seconds + cooldown))
                }
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        assert!(probe_due.is_finite(), "active pool is never empty");
        Err(probe_due.max(not_before_seconds))
    }

    /// The threaded executor: a live feeder pushes every planned job into
    /// the pool's shared queue while the workers drain it.  A worker
    /// attempts each job once and judges it with the one detection step; a
    /// dead device retires its worker.  The verdicts are then charged in
    /// plan (admission) order: verified answers land on the plan's virtual
    /// times, and every failed attempt — with any job a fully retired pool
    /// never took — is returned for the recovery ladder of
    /// [`Server::drain`].
    fn execute_plan(&mut self, run: &mut LiveRun<'_>) -> VecDeque<LiveJob> {
        let planned = std::mem::take(&mut run.planned);
        let fault = run.live.fault;
        let corrector = &run.corrector;
        let requests = &run.requests;
        let fed = planned
            .iter()
            .enumerate()
            .map(|(index, (plan, _))| (index, plan.job.clone()))
            .collect();
        let completed = self.run_pool(
            fed,
            // lint: no-panic (runs on the pool's worker threads)
            |server, worker, system, index: usize, job| {
                let predicted =
                    corrector.corrected("session", server.predict_on(system, worker, &job));
                let attempt = server.attempt(
                    system,
                    worker,
                    &job,
                    requests,
                    &fault,
                    fault.timeout_factor * predicted,
                );
                if attempt.verdict == Some(FaultReason::DeviceDead) {
                    JobVerdict::Retire((index, attempt))
                } else {
                    JobVerdict::Done((index, attempt))
                }
            },
        );

        let mut attempts: Vec<Option<(usize, Attempt)>> = planned.iter().map(|_| None).collect();
        for done in completed {
            let (index, attempt) = done.result;
            attempts[index] = Some((done.worker, attempt));
        }
        // A plan index is its job's admission ordinal.
        let mut retries = VecDeque::new();
        for (job_id, ((entry, started), attempt)) in planned.into_iter().zip(attempts).enumerate() {
            let Some((device, attempt)) = attempt else {
                // Never taken (every worker retired): due at its planned
                // start.
                let entry = LiveJob {
                    not_before_seconds: started,
                    ..entry
                };
                enqueue(&mut retries, entry);
                continue;
            };
            if recorder().is_enabled() {
                let scope = session_scope(attempt.modeled, true);
                self.record_session(
                    job_id,
                    device,
                    &entry.job,
                    &attempt.timeline,
                    started,
                    scope,
                );
            }
            match attempt.verdict {
                None => {
                    run.report.on_verified(device, entry.job.batch_size(), 0);
                    run.release(attempt.outcomes, started, entry.not_before_seconds);
                }
                Some(reason) => {
                    let end = started + attempt.timeline.makespan_seconds;
                    run.retry(&mut retries, entry, job_id, device, reason, end);
                }
            }
        }
        retries
    }
}
