//! Live-traffic serving: timestamped arrival streams, windowed admission in
//! virtual time, and the streaming execution host.
//!
//! The batch API ([`crate::Server::serve`]) answers a request set that all
//! arrives at time zero.  This module serves an *open-loop* workload: an
//! [`ArrivalStream`] of requests stamped with modelled arrival seconds
//! (typically drawn from `perf_model::workload` — Poisson, bursty or
//! diurnal, deterministic under a seed), coalesced into batch jobs by a
//! short batching window, priced against a per-device backlog and an
//! arrival-relative deadline, and executed as they are admitted.
//!
//! Two hosts share one admission loop:
//!
//! * [`Server::serve_stream`] — the synchronous reference host.  Each
//!   admitted job executes inline on the device it was priced for, the
//!   device's backlog advances by the job's *actual* modelled makespan (the
//!   same figure the worker ledger would charge), and every
//!   prediction/actual pair feeds the whole-session slot of a
//!   [`StageDriftCorrector`] so later admissions are re-priced by measured
//!   drift (per-stage slots carry upload/compute/download drift for the
//!   fault-tolerant hosts' timeout budgets).  Fully deterministic.
//! * [`Server::serve_stream_async`] — the streaming work-stealing host.
//!   Admission runs first in virtual time against *drift-corrected
//!   predicted* backlog (all a causal host can know at admission time),
//!   then every admitted job is fed through the shared injector of
//!   [`crate::steal::run_stealing_with_feeder`] *while the worker pool is
//!   already draining* (via `Server::run_pool`), so workers stay up until
//!   the feeder is done and no job is outstanding.  Answers are
//!   re-sequenced by request index; on a homogeneous pool the solution bits
//!   are identical to the closed-batch path on the same admitted set,
//!   whichever worker took each job.
//!
//! Windowed statistics drive elasticity: the stream is cut into fixed
//! observation windows, each closed with admitted/rejected counts and a
//! nearest-rank p99 over the window's latencies — `None`, not a fabricated
//! `0.0`, when the window admitted nothing — and an optional
//! [`Autoscaler`] digests each closed window to grow or shrink the active
//! device mask before the next window's admissions are priced.
//!
//! Every second in this module is *modelled* time (arrival stamps, backlog,
//! deadlines, window boundaries); wall clocks never influence admission, so
//! a run is reproducible on any host however loaded.

use crate::autoscaler::{Autoscaler, ScaleEvent};
use crate::queue::BatchJob;
use crate::request::{ProblemSpec, ServeRequest};
use crate::server::Server;
use perf_model::{arrival_times, StageDriftCorrector, WorkloadKind};
use sem_mesh::ElementField;
use sem_obs::recorder;
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
}

/// Knobs of the live serving loop.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LiveOptions {
    /// Arrival-relative latency target: a job is admitted only if its
    /// predicted completion sits within this many modelled seconds of its
    /// arrival.
    pub deadline_seconds: f64,
    /// Same-shape arrivals within this window of the batch's first member
    /// coalesce into one job (up to the server's `max_batch`).  Zero
    /// batches nothing.
    pub batch_window_seconds: f64,
    /// Width of one observation window: statistics, pool-size traces and
    /// autoscaler decisions are per window.
    pub window_seconds: f64,
    /// Whether an over-deadline job is split and its halves re-priced
    /// (mirrors [`crate::AdmissionPolicy::DownBatch`]) instead of rejected
    /// whole.
    pub down_batch: bool,
}

impl Default for LiveOptions {
    fn default() -> Self {
        Self {
            deadline_seconds: 5.0,
            batch_window_seconds: 0.05,
            window_seconds: 10.0,
            down_batch: true,
        }
    }
}

/// The answer to one live request.
#[derive(Debug, Clone)]
pub struct LiveOutcome {
    /// Request id (index into the sorted [`ArrivalStream`]).
    pub request: usize,
    /// When the request arrived (modelled seconds).
    pub arrival_seconds: f64,
    /// Pool index of the device the job was priced for (synchronous host)
    /// or of the worker that actually solved it (streaming host).
    pub device: usize,
    /// Display label of that device.
    pub device_label: String,
    /// Size of the batch job the request rode in.
    pub batch: usize,
    /// Modelled start of its job's session.
    pub started_seconds: f64,
    /// Modelled completion of its job's session.
    pub completed_seconds: f64,
    /// CG iterations of the solve.
    pub iterations: usize,
    /// Whether CG converged.
    pub converged: bool,
    /// The solution field — bitwise identical to a direct batched solve on
    /// the same backend.
    pub solution: ElementField,
}

impl LiveOutcome {
    /// Arrival-relative latency in modelled seconds.
    #[must_use]
    pub fn latency_seconds(&self) -> f64 {
        self.completed_seconds - self.arrival_seconds
    }
}

/// One request the live admission model turned away.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LiveRejection {
    /// Request id (index into the sorted [`ArrivalStream`]).
    pub request: usize,
    /// When it arrived.
    pub arrival_seconds: f64,
    /// The arrival-relative latency the model predicted on the best active
    /// device at pricing time.
    pub predicted_latency_seconds: f64,
    /// The deadline it overshot.
    pub deadline_seconds: f64,
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
#[derive(Debug)]
pub struct LiveReport {
    /// One outcome per admitted request, sorted by request id.
    pub outcomes: Vec<LiveOutcome>,
    /// Requests priced over the deadline, sorted by request id.
    pub rejections: Vec<LiveRejection>,
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
    /// perf model priced sessions exactly; the streaming host reports its
    /// admission-time factor).
    pub drift_correction: f64,
    /// Whether the run used the streaming work-stealing host.
    pub asynchronous: bool,
}

impl LiveReport {
    /// Requests admitted.
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.outcomes.len()
    }

    /// Requests rejected.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.rejections.len()
    }

    /// Arrival-relative latency at percentile `p` over every admitted
    /// request (`None` when nothing was admitted).
    #[must_use]
    pub fn latency_percentile_seconds(&self, p: f64) -> Option<f64> {
        let latencies: Vec<f64> = self
            .outcomes
            .iter()
            .map(LiveOutcome::latency_seconds)
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

/// One batch job of the live trace, stamped with the arrival of its last
/// member (a job cannot dispatch before it is complete).
struct LiveJob {
    job: BatchJob,
    arrival_seconds: f64,
}

/// One admitted job of the streaming host's virtual-time plan.
struct PlannedJob {
    job: BatchJob,
    started_seconds: f64,
    completed_seconds: f64,
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

/// Coalesce sorted arrivals into batch jobs: same-shape arrivals within
/// `batch_window` seconds of the open batch's first member join it (up to
/// `max_batch`); a shape change, a full batch or a stale window flushes.
/// Jobs emerge stamped with their last member's arrival, nondecreasing.
fn coalesce(stream: &ArrivalStream, max_batch: usize, batch_window: f64) -> VecDeque<LiveJob> {
    let mut jobs = VecDeque::new();
    let mut open: Option<(BatchJob, f64, f64)> = None; // (job, first_arrival, last_arrival)
    for (id, timed) in stream.arrivals().iter().enumerate() {
        if let Some((job, first, last)) = &mut open {
            if job.spec == timed.request.spec
                && timed.arrival_seconds - *first <= batch_window
                && job.batch_size() < max_batch
            {
                job.requests.push(id);
                *last = timed.arrival_seconds;
                continue;
            }
            let flushed = LiveJob {
                job: job.clone(),
                arrival_seconds: *last,
            };
            jobs.push_back(flushed);
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
        jobs.push_back(LiveJob {
            job,
            arrival_seconds: last,
        });
    }
    jobs
}

impl Server {
    /// Serve an arrival stream on the synchronous reference host: admitted
    /// jobs execute inline on the device they were priced for, backlog
    /// advances by actual modelled makespans, and the drift corrector
    /// re-prices every later admission by measured prediction drift.
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

    /// Serve an arrival stream on the streaming work-stealing host:
    /// admission runs in virtual time against drift-corrected *predicted*
    /// backlog (what a causal host knows at admission time), then every
    /// admitted job is pushed through the shared injector by a live feeder
    /// while the worker pool drains — no job carries a placement hint, so
    /// whichever worker frees up first takes it.
    ///
    /// Outcomes carry the plan's virtual times and the executing worker's
    /// identity; on a homogeneous pool the solution bits are identical to
    /// [`Server::serve`] on the same admitted set.
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
        mut scaler: Option<&mut Autoscaler>,
        asynchronous: bool,
    ) -> LiveReport {
        assert!(live.deadline_seconds > 0.0, "deadline must be positive");
        assert!(live.window_seconds > 0.0, "window must be positive");
        assert!(
            live.batch_window_seconds >= 0.0,
            "batch window must be non-negative"
        );
        let pool = self.slots.len();
        if let Some(scaler) = &scaler {
            assert_eq!(
                scaler.active_mask().len(),
                pool,
                "scaler candidates must match the server pool"
            );
        }

        let requests: Vec<ServeRequest> = stream.arrivals().iter().map(|t| t.request).collect();
        let mut queue = coalesce(stream, self.options.max_batch, live.batch_window_seconds);
        let mut active: Vec<bool> = scaler
            .as_ref()
            .map_or_else(|| vec![true; pool], |s| s.active_mask().to_vec());
        let mut free_at = vec![0.0_f64; pool];
        let mut corrector = StageDriftCorrector::new();
        let mut tracker = WindowTracker::new(live.window_seconds);
        let mut outcomes: Vec<LiveOutcome> = Vec::new();
        let mut rejections: Vec<LiveRejection> = Vec::new();
        let mut planned: Vec<PlannedJob> = Vec::new();
        let mut served_any = false;

        while let Some(LiveJob {
            job,
            arrival_seconds,
        }) = queue.pop_front()
        {
            served_any = true;
            tracker.advance_to(arrival_seconds, &mut active, &mut scaler);
            // Price the job on every *active* device: earliest corrected
            // completion wins (min_devices >= 1 keeps the mask non-empty).
            let active_devices: Vec<usize> = (0..pool).filter(|&d| active[d]).collect();
            for &device in &active_devices {
                self.ensure_system(device, job.spec);
            }
            let (best, raw_predicted) = active_devices
                .iter()
                .map(|&device| (device, self.predict_job_seconds(device, &job)))
                .min_by(|a, b| {
                    let ca =
                        free_at[a.0].max(arrival_seconds) + corrector.corrected("session", a.1);
                    let cb =
                        free_at[b.0].max(arrival_seconds) + corrector.corrected("session", b.1);
                    ca.total_cmp(&cb).then(a.0.cmp(&b.0))
                })
                .expect("active pool is never empty");
            let started = free_at[best].max(arrival_seconds);
            let predicted_completion = started + corrector.corrected("session", raw_predicted);
            let predicted_latency = predicted_completion - arrival_seconds;

            if predicted_latency <= live.deadline_seconds {
                tracker.admitted += job.batch_size();
                if asynchronous {
                    // Causal host: backlog advances by the corrected
                    // prediction; execution happens later on the pool.
                    free_at[best] = predicted_completion;
                    for &request in &job.requests {
                        tracker.latencies.push(
                            predicted_completion - stream.arrivals()[request].arrival_seconds,
                        );
                    }
                    planned.push(PlannedJob {
                        job,
                        started_seconds: started,
                        completed_seconds: predicted_completion,
                    });
                } else {
                    // Reference host: execute now, charge the backlog what
                    // the session actually cost, teach the corrector.
                    let (timeline, outs, _modeled) =
                        self.execute_job_on(self.system(best, job.spec), best, &job, &requests);
                    let actual = timeline.makespan_seconds;
                    corrector.record("session", raw_predicted, actual);
                    let completed = started + actual;
                    free_at[best] = completed;
                    for outcome in outs {
                        let arrival = stream.arrivals()[outcome.request].arrival_seconds;
                        tracker.latencies.push(completed - arrival);
                        outcomes.push(LiveOutcome {
                            request: outcome.request,
                            arrival_seconds: arrival,
                            device: best,
                            device_label: outcome.device_label,
                            batch: outcome.batch,
                            started_seconds: started,
                            completed_seconds: completed,
                            iterations: outcome.iterations,
                            converged: outcome.converged,
                            solution: outcome.solution,
                        });
                    }
                }
            } else if live.down_batch && job.batch_size() >= 2 {
                // Down-batch: halve and re-price both pieces before later
                // arrivals (they keep the whole job's arrival stamp — the
                // split decision is made at that point in virtual time).
                let (front, back) = job.split();
                queue.push_front(LiveJob {
                    job: back,
                    arrival_seconds,
                });
                queue.push_front(LiveJob {
                    job: front,
                    arrival_seconds,
                });
            } else {
                tracker.rejected += job.batch_size();
                for &request in &job.requests {
                    rejections.push(LiveRejection {
                        request,
                        arrival_seconds: stream.arrivals()[request].arrival_seconds,
                        predicted_latency_seconds: predicted_latency,
                        deadline_seconds: live.deadline_seconds,
                    });
                }
            }
        }
        if served_any {
            tracker.close(&mut active, &mut scaler);
        }

        if asynchronous && !planned.is_empty() {
            self.execute_plan(&planned, stream, &requests, &mut outcomes);
        }

        outcomes.sort_by_key(|o| o.request);
        rejections.sort_by_key(|r| r.request);
        let obs = recorder();
        if obs.is_enabled() {
            obs.counter_add("sem_serve_live_admitted_total", &[], outcomes.len() as u64);
            obs.counter_add(
                "sem_serve_live_rejected_total",
                &[],
                rejections.len() as u64,
            );
        }
        LiveReport {
            outcomes,
            rejections,
            windows: tracker.windows,
            active_trace: tracker.active_trace,
            scale_events: scaler.map(|s| s.events().to_vec()).unwrap_or_default(),
            window_seconds: live.window_seconds,
            drift_correction: corrector.correction("session"),
            asynchronous,
        }
    }

    /// Execute the streaming host's admitted plan: a live feeder pushes
    /// every planned job (unhinted) into the shared injector while the
    /// worker pool — one thread per device slot, each owning its sessions —
    /// is already draining, then answers are spliced back onto the plan's
    /// virtual times.
    fn execute_plan(
        &mut self,
        planned: &[PlannedJob],
        stream: &ArrivalStream,
        requests: &[ServeRequest],
        outcomes: &mut Vec<LiveOutcome>,
    ) {
        let fed = planned
            .iter()
            .enumerate()
            .map(|(plan_index, plan)| (plan_index, plan.job.clone()))
            .collect();
        let (executed, _wall_stats) = self.run_pool(Vec::new(), Some(fed), requests);
        for (plan_index, executed) in executed {
            let plan = &planned[plan_index];
            for outcome in executed.outcomes {
                outcomes.push(LiveOutcome {
                    request: outcome.request,
                    arrival_seconds: stream.arrivals()[outcome.request].arrival_seconds,
                    device: executed.device,
                    device_label: outcome.device_label,
                    batch: outcome.batch,
                    started_seconds: plan.started_seconds,
                    completed_seconds: plan.completed_seconds,
                    iterations: outcome.iterations,
                    converged: outcome.converged,
                    solution: outcome.solution,
                });
            }
        }
    }
}
