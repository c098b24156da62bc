//! Fault tolerance of the streaming host ([`Server::serve_stream`] and
//! [`Server::serve_stream_async`]) against devices armed with
//! [`Server::inject_faults`] plans.
//!
//! 1. **Detect** — one step judges every attempt: a typed solver fault
//!    (death, hang); then an unconverged answer or a `‖b − Ax‖`, recomputed
//!    on the trusted host operator, over `verify_slack ×` the tolerance;
//!    then a modelled session over `timeout_factor ×` its corrected
//!    prediction (the sticky-slowdown signature).  On the threaded
//!    executor each worker judges its own attempt, and a dead device
//!    retires its worker (`JobVerdict::Retire`).
//! 2. **Retry** — both executors share one recovery ladder: a failed
//!    attempt is requeued in virtual time with capped exponential backoff
//!    and re-placed.  The threaded executor's pool attempts each job once
//!    and hands every failure to that ladder after it drains.  Past
//!    [`FaultToleranceOptions::max_retries`] a job runs on the fallback
//!    device, the first clean `cpu:*` slot.
//! 3. **Quarantine** — each device's [`crate::CircuitBreaker`] walks
//!    healthy → suspect → quarantined, and a probe job after a modelled
//!    cooldown re-admits it.
//!
//! A mixed pool holds its `cpu:*` slots in reserve for degradation.  The
//! fault wrapper is transparent when not faulting, so a request that
//! succeeds on a backend equivalent to its fault-free placement returns the
//! fault-free bits.

use crate::fault::{relative_residual, FaultReason, FaultToleranceOptions};
use crate::pipeline::PipelineTimeline;
use crate::queue::BatchJob;
use crate::request::ServeRequest;
use crate::server::{RequestOutcome, Server};
use crate::stream::LiveReport;
use sem_accel::SemSystem;
use sem_mesh::ElementField;
use sem_obs::recorder;
use serde::{Deserialize, Serialize};

/// One detected fault, on the modeled clock.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Modeled seconds at which the fault was detected (the failed
    /// session's end).
    pub at_seconds: f64,
    /// Device the job was running on.
    pub device: usize,
    /// What detection concluded.
    pub reason: FaultReason,
    /// Requests riding the failed job.
    pub requests: Vec<usize>,
    /// The job's failed-attempt count after this fault.
    pub attempt: usize,
}

/// Serializable fault aggregate of a streaming serve (modeled figures only
/// — the committed chaos artifact must replay bitwise).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosSummary {
    /// Requests submitted.
    pub requests: usize,
    /// Requests completed verified.
    pub completed: usize,
    /// Requests that could not be completed (0 unless the whole pool
    /// died).
    pub unserved: usize,
    /// Failed attempts across all requests.
    pub retries_total: usize,
    /// Failed attempts per detection reason, `(label, count)` in stable
    /// label order.
    pub faults_by_reason: Vec<(String, usize)>,
    /// Jobs that ran on the fallback device after exhausting retries.
    pub fallback_jobs: usize,
    /// Probe jobs offered to quarantined devices.
    pub probes: usize,
    /// Requests that completed after at least one failed attempt.
    pub recovered_requests: usize,
    /// Quarantine entries across all devices.
    pub quarantines_total: usize,
    /// Devices still quarantined at the end of the run.
    pub quarantined_at_end: usize,
    /// Lifetime fault count per device, by pool index.
    pub device_faults: Vec<usize>,
    /// Modeled end-to-end seconds.
    pub makespan_seconds: f64,
    /// Median latency over served requests.
    pub p50_latency_seconds: Option<f64>,
    /// 99th-percentile latency over served requests.
    pub p99_latency_seconds: Option<f64>,
}

impl LiveReport {
    /// Devices quarantined when the run ended.
    #[must_use]
    pub fn quarantined_at_end(&self) -> usize {
        self.breakers.iter().filter(|b| b.is_quarantined()).count()
    }

    /// The serde-friendly fault aggregate (what the chaos bench persists).
    #[must_use]
    pub fn chaos_summary(&self) -> ChaosSummary {
        ChaosSummary {
            requests: self.outcomes.len() + self.rejections.len() + self.unserved.len(),
            completed: self.outcomes.len(),
            unserved: self.unserved.len(),
            retries_total: self.ledger.total_retries(),
            faults_by_reason: self.ledger.by_reason(),
            fallback_jobs: self.fallback_jobs,
            probes: self.probes,
            recovered_requests: self.recovered_requests,
            quarantines_total: self.breakers.iter().map(|b| b.quarantines).sum(),
            quarantined_at_end: self.quarantined_at_end(),
            device_faults: self.breakers.iter().map(|b| b.faults).collect(),
            makespan_seconds: self.makespan_seconds,
            p50_latency_seconds: self.latency_percentile_seconds(50.0),
            p99_latency_seconds: self.latency_percentile_seconds(99.0),
        }
    }

    /// A job of `requests` requests passed verification on `device` after
    /// `attempts` failed attempts.  A quarantined device was on probation,
    /// and the verified job re-admits it.
    pub(crate) fn on_verified(&mut self, device: usize, requests: usize, attempts: usize) {
        let breaker = &mut self.breakers[device];
        if breaker.is_quarantined() {
            breaker.probe_ok();
        } else {
            breaker.on_success();
        }
        if attempts > 0 {
            self.recovered_requests += requests;
            let obs = recorder();
            if obs.is_enabled() {
                obs.counter_add("sem_serve_fault_recoveries_total", &[], requests as u64);
            }
        }
    }

    /// `job` failed on `device` for `reason`, detected at modelled
    /// `at_seconds`; `attempts` counts this failure and `backoff_seconds`
    /// is the wait before its retry.
    pub(crate) fn on_fault(
        &mut self,
        device: usize,
        reason: FaultReason,
        at_seconds: f64,
        job: &BatchJob,
        attempts: usize,
        backoff_seconds: f64,
    ) {
        self.breakers[device].on_fault(at_seconds);
        for &request in &job.requests {
            self.ledger.charge(request, reason, backoff_seconds);
        }
        let obs = recorder();
        if obs.is_enabled() {
            obs.counter_add(
                "sem_serve_fault_detections_total",
                &[("kind", reason.label())],
                1,
            );
            obs.gauge_set(
                "sem_serve_quarantined_devices_count",
                &[],
                self.breakers.iter().filter(|b| b.is_quarantined()).count() as f64,
            );
        }
        self.fault_events.push(FaultEvent {
            at_seconds,
            device,
            reason,
            requests: job.requests.clone(),
            attempt: attempts,
        });
    }
}

/// One judged attempt of a job: what [`Server::attempt`] returns.
pub(crate) struct Attempt {
    /// The session's timeline.
    pub timeline: PipelineTimeline,
    /// The candidate outcomes, released only when `verdict` is `None`.
    pub outcomes: Vec<RequestOutcome>,
    /// The fault detected, if any.
    pub verdict: Option<FaultReason>,
    /// Whether the session ran on the modelled clock.
    pub modeled: bool,
}

impl Server {
    /// Run one attempt of `job` on `system` and judge it: the one
    /// detection step both executors share (see the [module docs](self)).
    pub(crate) fn attempt(
        &self,
        system: &SemSystem,
        device: usize,
        job: &BatchJob,
        requests: &[ServeRequest],
        fault: &FaultToleranceOptions,
        budget_seconds: f64,
    ) -> Attempt {
        // Each right-hand side is assembled once: the solve and the
        // residual check read the same field.
        let rhss: Vec<ElementField> = job
            .requests
            .iter()
            .map(|&i| requests[i].assemble_rhs(system))
            .collect();
        let (timeline, outcomes, modeled) =
            self.execute_job_on(system, device, job, requests, &rhss);
        let verdict = outcomes
            .iter()
            .find_map(|o| o.fault.map(FaultReason::of_solve_fault))
            .or_else(|| {
                let corrupt = outcomes.iter().zip(&rhss).any(|(o, rhs)| {
                    !o.converged
                        || !fault.residual_ok(
                            relative_residual(system, rhs, &o.solution),
                            self.options.cg.tolerance,
                        )
                });
                corrupt.then_some(FaultReason::CorruptResult)
            })
            .or_else(|| {
                (modeled && timeline.makespan_seconds > budget_seconds)
                    .then_some(FaultReason::TimeoutExceeded)
            });
        Attempt {
            timeline,
            outcomes,
            verdict,
            modeled,
        }
    }

    /// The device a retry-exhausted job is pinned to: the lowest-index
    /// clean (no fault plan) `cpu:*` slot, then any clean slot, then any
    /// slot whose device is not dead.  `None` only when every device in
    /// the pool is dead (or the termination backstop tripped).
    pub(crate) fn fallback_device(&self, attempts: usize, attempt_ceiling: usize) -> Option<usize> {
        if attempts >= attempt_ceiling {
            return None;
        }
        let usable = |d: &usize| {
            self.fault_states[*d]
                .as_ref()
                .is_none_or(|state| !state.is_dead())
        };
        (0..self.slots.len()).filter(usable).min_by_key(|&d| {
            (
                self.fault_states[d].is_some(),
                !self.slots[d].label.starts_with("cpu"),
                d,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::BreakerState;
    use crate::request::ProblemSpec;
    use crate::server::ServeOptions;
    use crate::stream::{ArrivalStream, LiveOptions};
    use fpga_sim::{FaultKind, FaultPlan, ScheduledFault};

    const FPGA: &str = "fpga:stratix10-gx2800";

    fn requests(n: usize) -> Vec<ServeRequest> {
        let spec = ProblemSpec::cube(3, 2);
        (0..n)
            .map(|i| ServeRequest::seeded(spec, i as u64))
            .collect()
    }

    fn server(names: &[&str]) -> Server {
        Server::from_registry_names(
            names,
            ServeOptions {
                max_batch: 2,
                ..ServeOptions::default()
            },
        )
    }

    /// A plan of `(at_op, kind)` faults.
    fn plan(faults: &[(u64, FaultKind)]) -> FaultPlan {
        FaultPlan::new(
            faults
                .iter()
                .map(|&(at_op, kind)| ScheduledFault { at_op, kind })
                .collect(),
        )
    }

    /// Serve `n` requests, all arriving at t = 0 with no deadline, on the
    /// threaded executor when `asynchronous`, else inline.
    fn serve(
        asynchronous: bool,
        server: &mut Server,
        n: usize,
        fault: FaultToleranceOptions,
    ) -> LiveReport {
        let live = LiveOptions {
            deadline_seconds: f64::INFINITY,
            fault,
            ..LiveOptions::default()
        };
        let stream = ArrivalStream::closed(&requests(n));
        if asynchronous {
            server.serve_stream_async(&stream, &live, None)
        } else {
            server.serve_stream(&stream, &live, None)
        }
    }

    #[test]
    fn a_fault_free_live_serve_answers_like_a_plain_serve() {
        let pool = [FPGA, FPGA, "cpu:optimized"];
        let report = serve(
            false,
            &mut server(&pool),
            6,
            FaultToleranceOptions::default(),
        );
        assert_eq!(report.outcomes.len(), 6);
        assert!(report.unserved.is_empty());
        assert_eq!(report.ledger.total_retries(), 0);
        assert!(report.fault_events.is_empty());
        assert_eq!(report.fallback_jobs, 0);
        assert!(report
            .breakers
            .iter()
            .all(|b| b.state() == BreakerState::Healthy));
        // cpu reserve never drafted into normal placement.
        assert!(report.outcomes.iter().all(|o| o.device != 2));
        // A plain batched solve on one of the same boards answers bit for
        // bit the same, in request order.
        let spec = ProblemSpec::cube(3, 2);
        let system = SemSystem::builder()
            .degree(spec.degree)
            .elements(spec.elements)
            .backend_named(FPGA)
            .build();
        let rhss: Vec<_> = requests(6)
            .iter()
            .map(|r| r.assemble_rhs(&system))
            .collect();
        let plain = system.solve_many(&rhss, ServeOptions::default().cg);
        for (i, (live, batch)) in report.outcomes.iter().zip(&plain).enumerate() {
            assert_eq!(live.request, i);
            assert_eq!(live.iterations, batch.iterations());
            assert_eq!(live.solution.as_slice(), batch.solution.solution.as_slice());
        }
    }

    #[test]
    fn each_fault_kind_is_detected_as_its_verdict_and_recovered() {
        // One fault on device 0 per case, and the verdict it must produce;
        // the 64x sticky slowdown blows the 2x timeout budget.
        let cases = [
            (
                plan(&[(2, FaultKind::Transient)]),
                FaultReason::CorruptResult,
            ),
            (plan(&[(1, FaultKind::Hang)]), FaultReason::KernelHung),
            (
                plan(&[(0, FaultKind::Slowdown { factor: 64.0 })]),
                FaultReason::TimeoutExceeded,
            ),
        ];
        let fault = FaultToleranceOptions {
            timeout_factor: 2.0,
            ..FaultToleranceOptions::default()
        };
        for (plan, reason) in cases {
            let mut server = server(&[FPGA, FPGA, "cpu:optimized"]);
            server.inject_faults(0, plan);
            let report = serve(false, &mut server, 4, fault);
            assert_eq!(report.outcomes.len(), 4, "{reason:?}");
            assert!(report.unserved.is_empty());
            assert!(
                report
                    .fault_events
                    .iter()
                    .any(|e| e.reason == reason && e.device == 0),
                "{reason:?}: {:?}",
                report.fault_events
            );
            assert!(report.recovered_requests >= 1, "{reason:?}");
            // Every released answer re-verified on the trusted operator.
            assert!(report
                .outcomes
                .iter()
                .all(|o| o.converged && o.fault.is_none()));
            // A one-shot fault is one strike: suspect or rehabilitated,
            // never quarantined.
            if reason != FaultReason::TimeoutExceeded {
                assert_eq!(report.quarantined_at_end(), 0, "{reason:?}");
            }
        }
    }

    #[test]
    fn a_dead_device_is_quarantined_and_its_work_completes_elsewhere() {
        let mut server = server(&[FPGA, FPGA, "cpu:optimized"]);
        server.inject_faults(0, plan(&[(0, FaultKind::Death)]));
        let report = serve(false, &mut server, 6, FaultToleranceOptions::default());
        assert_eq!(report.outcomes.len(), 6, "no request lost to the death");
        assert!(report.unserved.is_empty());
        assert!(report
            .fault_events
            .iter()
            .any(|e| e.reason == FaultReason::DeviceDead && e.device == 0));
        // The dead device ends quarantined (probes keep failing), and all
        // answers came from the healthy accelerator.
        assert!(report.breakers[0].is_quarantined() || report.breakers[0].faults >= 2);
        assert!(report.outcomes.iter().all(|o| o.device == 1));
    }

    #[test]
    fn a_fully_dead_pool_reports_unserved_rather_than_losing_jobs() {
        // On the threaded executor the lone worker retires on its attempt
        // and the job recovers on the ladder, which finds no live device
        // either.
        for asynchronous in [false, true] {
            let mut server = server(&[FPGA]);
            server.inject_faults(0, plan(&[(0, FaultKind::Death)]));
            let fault = FaultToleranceOptions {
                max_retries: 1,
                ..FaultToleranceOptions::default()
            };
            let report = serve(asynchronous, &mut server, 2, fault);
            assert!(report.outcomes.is_empty());
            assert_eq!(report.unserved, vec![0, 1], "conserved, not dropped");
        }
    }

    #[test]
    fn a_job_past_its_retries_finishes_on_the_fallback_device() {
        // With no retries allowed, the first corruption sends the job to
        // the fallback device: inline on the synchronous executor, after
        // the drain on the threaded one.  The retried answer keeps the
        // fault-free bits.
        let clean = serve(
            false,
            &mut server(&[FPGA]),
            1,
            FaultToleranceOptions::default(),
        );
        let fault = FaultToleranceOptions {
            max_retries: 0,
            ..FaultToleranceOptions::default()
        };
        for asynchronous in [false, true] {
            let mut server = server(&[FPGA]);
            server.inject_faults(0, plan(&[(1, FaultKind::Transient)]));
            let report = serve(asynchronous, &mut server, 1, fault);
            assert_eq!(report.fallback_jobs, 1, "async {asynchronous}");
            assert_eq!(report.ledger.total_retries(), 1, "async {asynchronous}");
            assert_eq!(report.recovered_requests, 1, "async {asynchronous}");
            assert_eq!(
                report.outcomes[0].solution.as_slice(),
                clean.outcomes[0].solution.as_slice()
            );
        }
    }

    #[test]
    fn faulted_live_serves_replay_bitwise() {
        let run = || {
            let mut server = server(&[FPGA, FPGA, "cpu:optimized"]);
            server.inject_faults(
                0,
                plan(&[(3, FaultKind::Transient), (40, FaultKind::Death)]),
            );
            server.inject_faults(1, FaultPlan::seeded(7, 2, 300));
            let report = serve(false, &mut server, 6, FaultToleranceOptions::default());
            serde::json::to_string(&report.chaos_summary())
        };
        assert_eq!(run(), run());
    }
}
