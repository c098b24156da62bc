//! The serve loop: pack requests, admit them against the deadline model,
//! place jobs via a scheduling policy, execute each job through its device's
//! `SemSystem` — synchronously on the caller's thread ([`Server::serve`]) or
//! concurrently on one worker thread per device slot with work stealing
//! ([`Server::serve_async`]) — and account every session on the
//! overlap-aware pipeline timeline.
//!
//! Every solve still runs through `SemSystem::solve_many`, so solution
//! vectors are bitwise identical to a direct batched solve — the serving
//! layer changes *when and where* things happen (the schedule, the executing
//! thread), never *what* is computed.  On a homogeneous pool the async host
//! therefore answers bitwise identically to the synchronous path, in the
//! same request order, no matter which worker stole which job.

use crate::admission::{admit, AdmissionPolicy, AdmittedJob, RejectedRequest};
use crate::pipeline::{PipelineConfig, PipelineTimeline, RequestStages, Stage};
use crate::queue::{BatchJob, SolveQueue};
use crate::request::{ProblemSpec, RhsSpec, ServeRequest};
use crate::scheduler::{DeviceSlot, DeviceStatus, SchedulingPolicy};
use crate::steal::{run_stealing, run_stealing_with_feeder, CompletedJob, JobVerdict, TaggedJob};
use sem_accel::{Backend, PerfSource, SemSystem};
use sem_mesh::ElementField;
use sem_obs::{recorder, DriftSample, Scope, SpanEvent, SpanKind, WallTimer};
use sem_solver::{CgOptions, PrecondSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Serving knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServeOptions {
    /// CG stopping criteria for every solve.
    pub cg: CgOptions,
    /// Preconditioner override: `Some` runs every solve with that
    /// preconditioner regardless of slot configuration; `None` (the
    /// default) honours each slot's own `Backend.precond` — so a registry
    /// name like `fpga:stratix10-gx2800+fdm` means what it says and mixed
    /// pools are possible.
    pub precond: Option<PrecondSpec>,
    /// Maximum right-hand sides per batch job.
    pub max_batch: usize,
    /// How sessions are scheduled (overlap + link speed).
    pub pipeline: PipelineConfig,
    /// Operator applications one solve is expected to need — the costing
    /// hint model-based policies price jobs with (the prediction only has
    /// to rank devices, so a rough figure is fine).
    pub applications_hint: usize,
    /// Deadline-aware admission control (default: admit everything).
    pub admission: AdmissionPolicy,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            cg: CgOptions {
                max_iterations: 2000,
                tolerance: 1e-10,
                record_history: false,
            },
            precond: None,
            max_batch: 16,
            pipeline: PipelineConfig::default(),
            applications_hint: 60,
            admission: AdmissionPolicy::AdmitAll,
        }
    }
}

impl ServeOptions {
    /// The options with a pool-wide preconditioner override *and* a
    /// matching operator-applications hint, so model-based placement and
    /// deadline admission price solves at the iteration count the
    /// preconditioner actually needs (measured on the standard degree-7
    /// serving problems: identity ≈ 110, Jacobi ≈ 60, FDM ≈ 25).
    #[must_use]
    pub fn with_precond(mut self, precond: PrecondSpec) -> Self {
        self.precond = Some(precond);
        self.applications_hint = Self::applications_hint_for(precond);
        self
    }

    /// The default costing hint for a preconditioner.
    #[must_use]
    pub fn applications_hint_for(precond: PrecondSpec) -> usize {
        match precond {
            PrecondSpec::Identity => 110,
            PrecondSpec::Jacobi => 60,
            PrecondSpec::Fdm => 25,
        }
    }
}

/// The answer to one request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Index of the request in the submitted order (outcomes are returned
    /// sorted by this index: with admission off, outcome `i` answers request
    /// `i`; with admission on, rejected indices are absent and reported in
    /// [`ServeReport::rejections`] instead).
    pub request: usize,
    /// Pool index of the device that served it.
    pub device: usize,
    /// Display label of that device.
    pub device_label: String,
    /// Size of the batch job the request rode in.
    pub batch: usize,
    /// Modelled arrival of the request (0 on the batch hosts, where every
    /// request arrives at time zero).
    pub arrival_seconds: f64,
    /// Modelled session start of its job.
    pub started_seconds: f64,
    /// Modelled completion of its job's session.
    pub completed_seconds: f64,
    /// CG iterations of the solve.
    pub iterations: usize,
    /// Seconds the solve spent in preconditioner applications (the
    /// backend's cycle model when the pass ran on-device, measured
    /// wall-clock otherwise).
    pub precond_seconds: f64,
    /// Whether CG converged.
    pub converged: bool,
    /// The device fault that aborted the solve, if any (`None` on the
    /// batch hosts unless faults were injected with
    /// [`Server::inject_faults`]; the streaming host retries such outcomes
    /// instead of releasing them).
    pub fault: Option<sem_solver::SolveFault>,
    /// Max-norm error against the manufactured solution (`NaN` for seeded
    /// right-hand sides, which have no exact solution).
    pub max_error: f64,
    /// Per-RHS modelled seconds under the serial (blocking) accounting,
    /// priced at the serve's configured link
    /// ([`crate::PipelineConfig::link_gbs`]) like every other figure in the
    /// report; equals `SolveReport::modeled_seconds()` bitwise at the
    /// default link.
    pub serial_modeled_seconds: f64,
    /// Per-RHS modelled seconds under the job's actual schedule: kernel
    /// seconds plus this request's share of the transfer time the session's
    /// timeline left exposed.  Equals the serial figure when overlap is
    /// disabled.
    pub pipelined_modeled_seconds: f64,
    /// The solution field — bitwise identical to
    /// `SemSystem::solve_many` on the same backend.
    pub solution: ElementField,
}

impl RequestOutcome {
    /// Arrival-relative latency in modelled seconds.
    #[must_use]
    pub fn latency_seconds(&self) -> f64 {
        self.completed_seconds - self.arrival_seconds
    }
}

/// One executed batch job, for tracing/visualisation.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Ordinal of this job in the report's `jobs` list — the stable id the
    /// exported Chrome trace carries in every span's `args.job`, so trace
    /// rows join back to this trace, and through [`JobTrace::requests`] to
    /// `ServeReport::outcomes` (whose `request` index matches the spans'
    /// `args.request`).
    pub job_id: usize,
    /// The job's shape.
    pub spec: ProblemSpec,
    /// Device it actually ran on.
    pub device: usize,
    /// Device the scheduling policy hinted it to at admission time (`None`
    /// for floating down-batched jobs that entered through the injector).
    pub hinted_device: Option<usize>,
    /// Request indices served.
    pub requests: Vec<usize>,
    /// The session's scheduled timeline.
    pub timeline: PipelineTimeline,
}

impl JobTrace {
    /// Whether the job ran somewhere other than its hinted device.
    #[must_use]
    pub fn stolen(&self) -> bool {
        self.hinted_device
            .is_some_and(|hinted| hinted != self.device)
    }
}

/// Per-device aggregate of one serve run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceUsage {
    /// Pool index.
    pub device: usize,
    /// Display label.
    pub label: String,
    /// Modelled busy seconds (overlap-aware session makespans).
    pub busy_seconds: f64,
    /// What the same sessions would cost under serial accounting.
    pub serial_busy_seconds: f64,
    /// Measured wall-clock seconds this slot's thread spent executing jobs
    /// (host time — simulator time for simulated boards, kernel time for CPU
    /// slots; the concurrency evidence, not a model figure).
    pub busy_wall_seconds: f64,
    /// Jobs executed.
    pub jobs: usize,
    /// Requests served.
    pub requests: usize,
    /// Jobs this slot executed that were hinted to a different slot.
    pub steals: usize,
    /// Busy fraction of the run's makespan.
    pub utilisation: f64,
}

/// The result of serving one request set.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Name of the scheduling policy that placed the jobs.
    pub policy: String,
    /// Label of the preconditioner every solve ran.
    pub precond: String,
    /// Whether sessions overlapped transfer and compute.
    pub overlap: bool,
    /// Whether jobs ran on worker threads with work stealing
    /// ([`Server::serve_async`]) or synchronously on the caller's thread.
    pub asynchronous: bool,
    /// One outcome per admitted request, sorted by request index.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests the admission model priced over the deadline (empty under
    /// [`AdmissionPolicy::AdmitAll`]), sorted by request index.
    pub rejections: Vec<RejectedRequest>,
    /// One trace per executed job, in execution-completion order.
    pub jobs: Vec<JobTrace>,
    /// Per-device aggregates.
    pub devices: Vec<DeviceUsage>,
    /// Modelled end-to-end seconds of the run (slowest device).
    pub makespan_seconds: f64,
    /// What the run would cost with serial (blocking) sessions.
    pub serial_makespan_seconds: f64,
    /// Measured wall-clock seconds of the whole serve call on this host.
    pub wall_seconds: f64,
}

impl ServeReport {
    /// Aggregate throughput in requests per modelled second.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_seconds <= 0.0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / self.makespan_seconds
    }

    /// Latency at percentile `p` (0–100, nearest-rank over completion
    /// times).  `None` for a run with no admitted requests — no latency
    /// evidence exists, and a fabricated 0 would read as a perfect tail.
    #[must_use]
    pub fn latency_percentile_seconds(&self, p: f64) -> Option<f64> {
        let latencies: Vec<f64> = self
            .outcomes
            .iter()
            .map(RequestOutcome::latency_seconds)
            .collect();
        perf_model::nearest_rank_percentile(&latencies, p)
    }

    /// Seconds the pipelined schedule saved over serial sessions.
    #[must_use]
    pub fn overlap_win_seconds(&self) -> f64 {
        (self.serial_makespan_seconds - self.makespan_seconds).max(0.0)
    }

    /// Total measured wall-clock seconds slots spent executing jobs.
    #[must_use]
    pub fn busy_wall_seconds(&self) -> f64 {
        self.devices.iter().map(|d| d.busy_wall_seconds).sum()
    }

    /// Measured concurrency: busy worker-seconds per wall-clock second of
    /// the run.  ~1.0 for the synchronous path; approaches the pool size
    /// when the async host keeps every slot busy.
    #[must_use]
    pub fn measured_concurrency(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.busy_wall_seconds() / self.wall_seconds
    }

    /// Jobs that ran on a different slot than their admission-time hint.
    #[must_use]
    pub fn total_steals(&self) -> usize {
        self.devices.iter().map(|d| d.steals).sum()
    }

    /// Total CG iterations across the admitted requests.
    #[must_use]
    pub fn total_iterations(&self) -> u64 {
        self.outcomes.iter().map(|o| o.iterations as u64).sum()
    }

    /// Total seconds spent in preconditioner applications across the
    /// admitted requests.
    #[must_use]
    pub fn precond_apply_seconds(&self) -> f64 {
        self.outcomes.iter().map(|o| o.precond_seconds).sum()
    }

    /// The serde-friendly aggregate (drops solutions and schedules).
    #[must_use]
    pub fn summary(&self) -> ServeSummary {
        ServeSummary {
            policy: self.policy.clone(),
            precond: self.precond.clone(),
            total_iterations: self.total_iterations(),
            precond_apply_seconds: self.precond_apply_seconds(),
            overlap: self.overlap,
            asynchronous: self.asynchronous,
            requests: self.outcomes.len() + self.rejections.len(),
            admitted: self.outcomes.len(),
            rejected: self.rejections.len(),
            jobs: self.jobs.len(),
            makespan_seconds: self.makespan_seconds,
            serial_makespan_seconds: self.serial_makespan_seconds,
            wall_seconds: self.wall_seconds,
            busy_wall_seconds: self.busy_wall_seconds(),
            measured_concurrency: self.measured_concurrency(),
            steals: self.total_steals(),
            throughput_rps: self.throughput_rps(),
            p50_latency_seconds: self.latency_percentile_seconds(50.0),
            p99_latency_seconds: self.latency_percentile_seconds(99.0),
            devices: self.devices.clone(),
        }
    }
}

/// Serializable aggregate of a serve run (what benches persist).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Scheduling policy.
    pub policy: String,
    /// Preconditioner every solve ran.
    pub precond: String,
    /// Total CG iterations across admitted requests — with the FDM
    /// preconditioner this is what collapses, which is the end-to-end
    /// serving win.
    pub total_iterations: u64,
    /// Total preconditioner-apply seconds across admitted requests.
    pub precond_apply_seconds: f64,
    /// Whether transfer/compute overlapped.
    pub overlap: bool,
    /// Whether the run used the async work-stealing host.
    pub asynchronous: bool,
    /// Requests submitted.
    pub requests: usize,
    /// Requests admitted (== `requests` without admission control).
    pub admitted: usize,
    /// Requests the admission model rejected.
    pub rejected: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Modelled end-to-end seconds.
    pub makespan_seconds: f64,
    /// Serial-accounting end-to-end seconds.
    pub serial_makespan_seconds: f64,
    /// Measured wall-clock seconds of the serve call.
    pub wall_seconds: f64,
    /// Measured wall-clock seconds slots spent executing jobs, summed.
    pub busy_wall_seconds: f64,
    /// Busy worker-seconds per wall-clock second (the measured-concurrency
    /// figure the async host exists to raise).
    pub measured_concurrency: f64,
    /// Jobs executed away from their hinted slot.
    pub steals: usize,
    /// Requests per modelled second.
    pub throughput_rps: f64,
    /// Median latency (`None` when nothing was admitted).
    pub p50_latency_seconds: Option<f64>,
    /// 99th-percentile latency (`None` when nothing was admitted).
    pub p99_latency_seconds: Option<f64>,
    /// Per-device aggregates.
    pub devices: Vec<DeviceUsage>,
}

/// One executed job on its way into a report: what both execution hosts
/// (sequential and work-stealing) produce per job.
pub(crate) struct ExecutedJob {
    job: BatchJob,
    device: usize,
    hinted_device: Option<usize>,
    timeline: PipelineTimeline,
    outcomes: Vec<RequestOutcome>,
    /// Whether the job's stage costs come from a cycle model (simulated
    /// backend) rather than host measurement — which decides whether its
    /// spans survive a modelled-clock trace export.
    modeled: bool,
}

/// Per-worker `(busy wall seconds, steals)` of one pool run.
type WallStats = Vec<(f64, usize)>;

/// A serving instance: a device pool plus options, with one lazily built
/// `SemSystem` per (device, problem shape).
pub struct Server {
    pub(crate) slots: Vec<DeviceSlot>,
    pub(crate) systems: Vec<HashMap<ProblemSpec, SemSystem>>,
    pub(crate) options: ServeOptions,
    /// Per-device deterministic fault injection (`None` = perfect device).
    /// Shared `Arc`s so worker threads and the server observe one health
    /// state per device.
    pub(crate) fault_states: Vec<Option<std::sync::Arc<fpga_sim::FaultState>>>,
}

impl Server {
    /// A server over an explicit device pool.
    ///
    /// # Panics
    /// Panics if the pool is empty.
    #[must_use]
    pub fn new(slots: Vec<DeviceSlot>, options: ServeOptions) -> Self {
        assert!(!slots.is_empty(), "need at least one device in the pool");
        let systems = slots.iter().map(|_| HashMap::new()).collect();
        let fault_states = slots.iter().map(|_| None).collect();
        Self {
            slots,
            systems,
            options,
            fault_states,
        }
    }

    /// Arm device `device` with a deterministic fault plan.  Every system
    /// the device serves from here on runs behind a
    /// [`sem_accel::FaultyBackend`] sharing one health state; cached
    /// sessions for the device are dropped so the wrap takes effect
    /// immediately.
    ///
    /// # Panics
    /// Panics if `device` is out of range.
    pub fn inject_faults(&mut self, device: usize, plan: fpga_sim::FaultPlan) {
        self.fault_states[device] = Some(std::sync::Arc::new(fpga_sim::FaultState::new(plan)));
        self.systems[device].clear();
    }

    /// The device's shared fault state, if faults were injected.
    #[must_use]
    pub fn fault_state(&self, device: usize) -> Option<&std::sync::Arc<fpga_sim::FaultState>> {
        self.fault_states[device].as_ref()
    }

    /// A server over backend registry names (heterogeneous pools welcome:
    /// CPU, FPGA, multi-board and `fpga:projected:*` entries mix freely).
    ///
    /// # Panics
    /// Panics if a name is not in the registry or the list is empty.
    #[must_use]
    pub fn from_registry_names(names: &[&str], options: ServeOptions) -> Self {
        let slots = names
            .iter()
            .map(|name| {
                DeviceSlot::from_registry_name(name)
                    .unwrap_or_else(|| panic!("unknown backend name `{name}`"))
            })
            .collect();
        Self::new(slots, options)
    }

    /// The pool.
    #[must_use]
    pub fn slots(&self) -> &[DeviceSlot] {
        &self.slots
    }

    /// The serving options.
    #[must_use]
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Serve `requests` with `policy`, executing every job synchronously on
    /// the caller's thread, exactly where it was hinted.  Outcomes are
    /// sorted by request index regardless of how jobs were packed, placed,
    /// or interleaved.
    ///
    /// # Panics
    /// Panics if a policy returns an out-of-range device index.
    pub fn serve(
        &mut self,
        requests: &[ServeRequest],
        policy: &mut dyn SchedulingPolicy,
    ) -> ServeReport {
        let started = WallTimer::start();
        let (placed, rejections) = self.prepare(requests, policy);
        let mut wall_stats = vec![(0.0_f64, 0_usize); self.slots.len()];
        let executed: Vec<ExecutedJob> = placed
            .into_iter()
            .map(|(job, device, _)| {
                let begun = WallTimer::start();
                let (timeline, outcomes, modeled) =
                    self.execute_job_on(self.system(device, job.spec), device, &job, requests);
                wall_stats[device].0 += begun.elapsed_wall_seconds();
                ExecutedJob {
                    job,
                    device,
                    hinted_device: Some(device),
                    timeline,
                    outcomes,
                    modeled,
                }
            })
            .collect();
        self.assemble(
            policy.name(),
            false,
            requests.len(),
            executed,
            rejections,
            wall_stats,
            started.elapsed_wall_seconds(),
        )
    }

    /// Serve `requests` with `policy` on the async host: one worker thread
    /// per device slot (each owning its `SemSystem` sessions), fed by
    /// per-worker deques seeded from the policy's admission-time hints plus
    /// a shared injector for floating jobs, with idle slots stealing work
    /// queued behind busy ones.  Answers are re-sequenced, so outcomes are
    /// sorted by request index and — on a homogeneous pool — bitwise
    /// identical to [`Server::serve`]; on heterogeneous pools a stolen job's
    /// bits follow the device that actually ran it, exactly as a different
    /// placement would under the synchronous path.
    ///
    /// # Panics
    /// Panics if a policy returns an out-of-range device index.
    pub fn serve_async(
        &mut self,
        requests: &[ServeRequest],
        policy: &mut dyn SchedulingPolicy,
    ) -> ServeReport {
        let started = WallTimer::start();
        let (placed, rejections) = self.prepare(requests, policy);
        let seeded = placed
            .into_iter()
            .map(|(job, device, floating)| TaggedJob {
                payload: ((), job),
                hint: (!floating).then_some(device),
            })
            .collect();
        let (completed, _, wall_stats) =
            self.run_pool(seeded, None, |server, worker, system, (), job| {
                JobVerdict::Done((server.execute_job_on(system, worker, &job, requests), job))
            });
        let executed = completed
            .into_iter()
            .map(|done| {
                let ((timeline, outcomes, modeled), job) = done.result;
                ExecutedJob {
                    job,
                    device: done.worker,
                    hinted_device: done.hint,
                    timeline,
                    outcomes,
                    modeled,
                }
            })
            .collect();
        self.assemble(
            policy.name(),
            true,
            requests.len(),
            executed,
            rejections,
            wall_stats,
            started.elapsed_wall_seconds(),
        )
    }

    /// Execute batch jobs on the work-stealing pool, one worker thread per
    /// device slot.  Each worker borrows its slot's sessions for the run
    /// (`SemSystem` is `Send`, so the handoff is a move, not a copy), builds
    /// any session it lacks, and hands them back for reuse when the pool
    /// drains.  `seeded` jobs are queued up front; `fed` jobs, when given,
    /// are pushed (unhinted) by a live feeder while the workers already run.
    /// `execute` runs one job on the worker's session for its shape and
    /// resolves it with a [`JobVerdict`].  Returns the delivered results in
    /// completion order, the jobs left unfinished (only when every worker
    /// died), and each worker's `(busy wall seconds, steals)`.
    pub(crate) fn run_pool<K, R, F>(
        &mut self,
        seeded: Vec<TaggedJob<(K, BatchJob)>>,
        fed: Option<Vec<(K, BatchJob)>>,
        execute: F,
    ) -> (Vec<CompletedJob<R>>, Vec<(K, BatchJob)>, WallStats)
    where
        K: Send,
        R: Send,
        F: Fn(&Self, usize, &SemSystem, K, BatchJob) -> JobVerdict<(K, BatchJob), R> + Sync,
    {
        let states: Vec<HashMap<ProblemSpec, SemSystem>> =
            self.systems.iter_mut().map(std::mem::take).collect();
        let server = &*self;
        // lint: no-panic (this closure runs on worker threads; a panic would
        // strand sibling deques mid-run)
        let execute = |worker: usize,
                       systems: &mut HashMap<ProblemSpec, SemSystem>,
                       (key, job): (K, BatchJob)| {
            let system = systems.entry(job.spec).or_insert_with(|| {
                Self::build_system(
                    &server.slots[worker].config,
                    job.spec,
                    server.options.precond,
                    server.fault_states[worker].clone(),
                )
            });
            execute(server, worker, system, key, job)
        };
        let run = match fed {
            Some(fed) => run_stealing_with_feeder(
                states,
                seeded,
                move |feeder| {
                    for job in fed {
                        feeder.push(job);
                        std::thread::yield_now();
                    }
                },
                execute,
            ),
            None => run_stealing(states, seeded, execute),
        };
        let mut wall_stats = Vec::with_capacity(self.slots.len());
        for (slot, ledger) in self.systems.iter_mut().zip(run.workers) {
            wall_stats.push((ledger.busy_wall_seconds, ledger.steals));
            *slot = ledger.state;
        }
        (run.completed, run.unfinished, wall_stats)
    }

    /// The shared front half of both hosts: pack the requests, admit jobs
    /// against the deadline model, and turn the policy's choices into
    /// per-job hints — all priced in modelled seconds, so the outcome is
    /// deterministic however loaded the machine is.  Returns
    /// `(job, device, floating)` triples in admission order plus the
    /// rejections.
    fn prepare(
        &mut self,
        requests: &[ServeRequest],
        policy: &mut dyn SchedulingPolicy,
    ) -> (Vec<(BatchJob, usize, bool)>, Vec<RejectedRequest>) {
        let jobs = SolveQueue::from_requests(requests).pack(self.options.max_batch);
        let pool_size = self.slots.len();

        let (admitted, rejections) = if self.options.admission.deadline_seconds().is_some() {
            // Admission prices every job on every device, which needs the
            // systems to exist up front.
            for job in &jobs {
                for device in 0..pool_size {
                    self.ensure_system(device, job.spec);
                }
            }
            admit(self.options.admission, jobs, pool_size, |device, job| {
                self.predict_job_seconds(device, job)
            })
        } else {
            admit(self.options.admission, jobs, pool_size, |_, _| 0.0)
        };

        let needs_cost_model = policy.needs_cost_model();
        let mut hinted_busy = vec![0.0_f64; pool_size];
        let mut hinted_requests = vec![0_usize; pool_size];
        let mut placed = Vec::with_capacity(admitted.len());
        for AdmittedJob { job, floating } in admitted {
            // Pricing a job for the policy instantiates a backend per
            // candidate device, so only cost-aware policies pay for the
            // whole pool; cost-blind policies see zeros in
            // `predicted_job_seconds` and price just the device they end up
            // hinting (the modelled hint ledger below needs that one figure
            // either way).
            if needs_cost_model {
                for device in 0..pool_size {
                    self.ensure_system(device, job.spec);
                }
            }
            let statuses: Vec<DeviceStatus> = (0..pool_size)
                .map(|device| DeviceStatus {
                    index: device,
                    label: self.slots[device].label.clone(),
                    busy_seconds: hinted_busy[device],
                    assigned_requests: hinted_requests[device],
                    predicted_job_seconds: if needs_cost_model {
                        self.predict_job_seconds(device, &job)
                    } else {
                        0.0
                    },
                })
                .collect();
            let device = policy.assign(&job, &statuses);
            assert!(device < pool_size, "policy chose device {device}");
            self.ensure_system(device, job.spec);
            hinted_busy[device] += if needs_cost_model {
                statuses[device].predicted_job_seconds
            } else {
                self.predict_job_seconds(device, &job)
            };
            hinted_requests[device] += job.batch_size();
            placed.push((job, device, floating));
        }
        (placed, rejections)
    }

    /// The shared back half of both hosts: walk the executed jobs in
    /// completion order, accumulate each device's modelled schedule, and
    /// re-sequence the answers by request index.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        policy: &str,
        asynchronous: bool,
        num_requests: usize,
        executed: Vec<ExecutedJob>,
        rejections: Vec<RejectedRequest>,
        wall_stats: WallStats,
        wall_seconds: f64,
    ) -> ServeReport {
        let pool_size = self.slots.len();
        let mut busy = vec![0.0_f64; pool_size];
        let mut serial_busy = vec![0.0_f64; pool_size];
        let mut jobs_per_device = vec![0_usize; pool_size];
        let mut requests_per_device = vec![0_usize; pool_size];
        let mut outcomes: Vec<Option<RequestOutcome>> = (0..num_requests).map(|_| None).collect();
        let mut traces = Vec::with_capacity(executed.len());

        let obs = recorder();
        for job in executed {
            let device = job.device;
            let started = busy[device];
            busy[device] += job.timeline.makespan_seconds;
            serial_busy[device] += job.timeline.serial_accounting_seconds();
            jobs_per_device[device] += 1;
            requests_per_device[device] += job.job.batch_size();
            let completed = busy[device];
            let job_id = traces.len();
            if obs.is_enabled() {
                self.record_job_spans(&job, job_id, started, completed, asynchronous);
            }
            for mut outcome in job.outcomes {
                outcome.started_seconds = started;
                outcome.completed_seconds = completed;
                let request = outcome.request;
                assert!(
                    outcomes[request].replace(outcome).is_none(),
                    "request {request} answered twice"
                );
            }
            traces.push(JobTrace {
                job_id,
                spec: job.job.spec,
                device,
                hinted_device: job.hinted_device,
                requests: job.job.requests,
                timeline: job.timeline,
            });
        }

        let makespan_seconds = busy.iter().copied().fold(0.0_f64, f64::max);
        let serial_makespan_seconds = serial_busy.iter().copied().fold(0.0_f64, f64::max);
        let devices = (0..pool_size)
            .map(|device| DeviceUsage {
                device,
                label: self.slots[device].label.clone(),
                busy_seconds: busy[device],
                serial_busy_seconds: serial_busy[device],
                busy_wall_seconds: wall_stats[device].0,
                jobs: jobs_per_device[device],
                requests: requests_per_device[device],
                steals: wall_stats[device].1,
                utilisation: if makespan_seconds > 0.0 {
                    busy[device] / makespan_seconds
                } else {
                    0.0
                },
            })
            .collect();
        let outcomes: Vec<RequestOutcome> = outcomes.into_iter().flatten().collect();
        assert_eq!(
            outcomes.len() + rejections.len(),
            num_requests,
            "every request is answered or rejected exactly once"
        );
        if obs.is_enabled() {
            obs.counter_add("sem_serve_requests_total", &[], outcomes.len() as u64);
            obs.counter_add("sem_serve_jobs_total", &[], traces.len() as u64);
            obs.gauge_set("sem_serve_makespan_seconds", &[], makespan_seconds);
            for outcome in &outcomes {
                obs.observe(
                    "sem_serve_request_latency_seconds",
                    &[("device", outcome.device_label.as_str())],
                    outcome.latency_seconds(),
                );
            }
        }
        ServeReport {
            policy: policy.to_string(),
            precond: self.precond_label(),
            overlap: self.options.pipeline.overlap,
            asynchronous,
            outcomes,
            rejections,
            jobs: traces,
            devices,
            makespan_seconds,
            serial_makespan_seconds,
            wall_seconds,
        }
    }

    /// Record one job's pipeline spans on the report's modelled time axis:
    /// every timeline stage interval (shared upload, operand uploads,
    /// kernel computes, residual streams, result downloads) re-anchored at
    /// the device's running busy offset, plus one [`SpanKind::PipelineSlot`]
    /// span per request covering its whole session slot.
    ///
    /// Spans are deterministic only when the stage costs come from a cycle
    /// model *and* the jobs arrived in the deterministic (synchronous)
    /// completion order — the async host's completion order is a property of
    /// the schedule, so its spans are excluded from modelled-clock exports.
    fn record_job_spans(
        &self,
        job: &ExecutedJob,
        job_id: usize,
        started: f64,
        completed: f64,
        asynchronous: bool,
    ) {
        let obs = recorder();
        let scope = if job.modeled && !asynchronous {
            Scope::Deterministic
        } else {
            Scope::ScheduleDependent
        };
        let label = obs.intern(&self.slots[job.device].label);
        for event in &job.timeline.events {
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
                span = span.with_request(job.job.requests[i] as u64);
            }
            obs.record(span);
        }
        for &request in &job.job.requests {
            obs.record(
                SpanEvent::new(
                    SpanKind::PipelineSlot,
                    scope,
                    obs.stamp(started),
                    obs.stamp(completed),
                )
                .with_request(request as u64)
                .with_job(job_id as u64)
                .with_label(label),
            );
        }
    }

    /// The report-level preconditioner label: the explicit override, the
    /// pool consensus, or `"per-slot"` for genuinely mixed pools.
    fn precond_label(&self) -> String {
        if let Some(precond) = self.options.precond {
            return precond.label().to_string();
        }
        let first = self.slots[0].config.precond;
        if self.slots.iter().all(|slot| slot.config.precond == first) {
            first.label().to_string()
        } else {
            "per-slot".to_string()
        }
    }

    /// Run one job on one device's system: assemble the right-hand sides,
    /// solve the batch through the backend, and schedule the session on the
    /// pipeline timeline.
    pub(crate) fn execute_job_on(
        &self,
        system: &SemSystem,
        device: usize,
        job: &BatchJob,
        requests: &[ServeRequest],
    ) -> (PipelineTimeline, Vec<RequestOutcome>, bool) {
        let rhss: Vec<ElementField> = job
            .requests
            .iter()
            .map(|&i| requests[i].assemble_rhs(system))
            .collect();
        let reports = system.solve_many(&rhss, self.options.cg);
        let timeline = PipelineTimeline::from_reports(
            system.offload_plan().as_ref(),
            &reports,
            self.options.pipeline,
        );
        let modeled = system.execution().perf_source() == PerfSource::Simulated;
        self.record_drift(system, device, job, &timeline);
        // Manufactured requests get real error metrics (solve_many itself
        // cannot know the exact solution of an arbitrary RHS).
        let exact = job
            .requests
            .iter()
            .any(|&i| requests[i].rhs == RhsSpec::Manufactured)
            .then(|| system.problem().manufactured_exact());
        // Per-request accounting at the *configured* link, consistent with
        // the timeline the report's makespans come from: the serial figure
        // is the timeline's per-request serial cost, the pipelined figure
        // spreads the schedule's exposed transfer over the batch.
        let exposed_share = timeline.exposed_transfer_seconds() / job.batch_size() as f64;
        // Consume the reports: the solution fields move straight into the
        // outcomes instead of being copied on the serving hot path.
        let outcomes = job
            .requests
            .iter()
            .zip(reports)
            .zip(&timeline.stages)
            .map(|((&i, report), stages)| {
                let max_error = match (&exact, requests[i].rhs) {
                    (Some(exact), RhsSpec::Manufactured) => {
                        system
                            .problem()
                            .error_against(&report.solution.solution, exact)
                            .0
                    }
                    _ => f64::NAN,
                };
                let fault = report.solution.cg.fault;
                RequestOutcome {
                    request: i,
                    device,
                    device_label: self.slots[device].label.clone(),
                    batch: job.batch_size(),
                    arrival_seconds: 0.0,
                    started_seconds: 0.0,
                    completed_seconds: 0.0,
                    iterations: report.iterations(),
                    precond_seconds: report.precond_seconds,
                    converged: report.converged(),
                    fault,
                    max_error,
                    serial_modeled_seconds: stages.serial_seconds,
                    pipelined_modeled_seconds: report.operator.seconds + exposed_share,
                    solution: report.solution.solution,
                }
            })
            .collect();
        (timeline, outcomes, modeled)
    }

    /// Record the model-drift samples of one executed job: for every
    /// admitted request, the per-stage seconds the deadline/placement model
    /// predicted at admission time against what the executed timeline
    /// actually charged — the raw material of the calibration report that
    /// identifies which `perf_model` terms are lying.
    fn record_drift(
        &self,
        system: &SemSystem,
        device: usize,
        job: &BatchJob,
        timeline: &PipelineTimeline,
    ) {
        let obs = recorder();
        if !obs.is_enabled() {
            return;
        }
        let applications = self.options.applications_hint.max(1);
        let precond = self.slot_precond(device);
        let precond_per_application = system
            .execution()
            .simulated_seconds_per_precond(precond)
            .unwrap_or(0.0);
        let plan = system.offload_plan();
        let predicted = RequestStages::predict(
            system.execution(),
            plan.as_ref(),
            applications,
            precond_per_application,
            self.host_fallback_seconds(device, job.spec, applications),
            self.options.pipeline.link_gbs,
        );
        let predicted_session = PipelineTimeline::predict(
            system.execution(),
            job.batch_size(),
            applications,
            precond_per_application,
            self.host_fallback_seconds(device, job.spec, applications),
            self.options.pipeline,
        )
        .makespan_seconds;
        let backend = &self.slots[device].label;
        for (&request, actual) in job.requests.iter().zip(&timeline.stages) {
            let stages = [
                ("upload", predicted.upload_seconds, actual.upload_seconds),
                ("compute", predicted.compute_seconds, actual.compute_seconds),
                (
                    "download",
                    predicted.download_seconds,
                    actual.download_seconds,
                ),
                (
                    "residual_stream",
                    predicted.residual_stream_seconds,
                    actual.residual_stream_seconds,
                ),
                ("session", predicted_session, timeline.makespan_seconds),
            ];
            for (stage, predicted_seconds, actual_seconds) in stages {
                obs.record_drift(DriftSample {
                    request: request as u64,
                    stage,
                    backend: backend.clone(),
                    predicted_seconds,
                    actual_seconds,
                });
            }
        }
    }

    /// Roofline host pricing of one solve on `device` — the prediction
    /// fallback for backends without a cycle model, scaled by the
    /// preconditioner's Ax-equivalent work (FDM is six contractions ≈ one
    /// Ax per application, Jacobi a pointwise sweep) so CPU predictions do
    /// not flatter the stronger preconditioners.
    fn host_fallback_seconds(&self, device: usize, spec: ProblemSpec, applications: usize) -> f64 {
        let host_precond_factor = match self.slot_precond(device) {
            PrecondSpec::Identity => 0.0,
            PrecondSpec::Jacobi => 0.05,
            PrecondSpec::Fdm => 1.0,
        };
        self.slots[device]
            .host_model
            .seconds_per_application(spec.degree, spec.num_elements())
            * applications as f64
            * (1.0 + host_precond_factor)
    }

    /// Predicted session seconds of `job` on `device` — the number
    /// model-based policies and the admission model compare.  The kernel
    /// applications come from the options' hint (which
    /// [`ServeOptions::with_precond`] scales to the preconditioner's
    /// iteration count) and the on-device preconditioner pass is priced per
    /// application, so a stronger preconditioner shows up as a genuinely
    /// cheaper predicted completion.  Requires the system to exist.
    pub(crate) fn predict_job_seconds(&self, device: usize, job: &BatchJob) -> f64 {
        self.predict_on(self.system(device, job.spec), device, job)
    }

    /// [`Server::predict_job_seconds`] on a session the caller holds (a
    /// pool worker's own).
    pub(crate) fn predict_on(&self, system: &SemSystem, device: usize, job: &BatchJob) -> f64 {
        let applications = self.options.applications_hint.max(1);
        let precond = self.slot_precond(device);
        let precond_per_application = system
            .execution()
            .simulated_seconds_per_precond(precond)
            .unwrap_or(0.0);
        let fallback = self.host_fallback_seconds(device, job.spec, applications);
        PipelineTimeline::predict(
            system.execution(),
            job.batch_size(),
            applications,
            precond_per_application,
            fallback,
            self.options.pipeline,
        )
        .makespan_seconds
    }

    /// Build the session one device uses for one problem shape (an explicit
    /// serve-options preconditioner overrides the slot's config; otherwise
    /// the slot's own `+suffix` stands).  A fault state wraps the
    /// execution backend in a [`sem_accel::FaultyBackend`] sharing it.
    pub(crate) fn build_system(
        config: &Backend,
        spec: ProblemSpec,
        precond: Option<PrecondSpec>,
        fault: Option<std::sync::Arc<fpga_sim::FaultState>>,
    ) -> SemSystem {
        let backend = match precond {
            Some(precond) => config.clone().with_precond(precond),
            None => config.clone(),
        };
        SemSystem::builder()
            .degree(spec.degree)
            .elements(spec.elements)
            .backend(backend)
            .fault_state(fault)
            .build()
    }

    /// The preconditioner slot `device` actually solves with (the options
    /// override, or the slot's own configuration).
    fn slot_precond(&self, device: usize) -> PrecondSpec {
        self.options
            .precond
            .unwrap_or(self.slots[device].config.precond)
    }

    pub(crate) fn ensure_system(&mut self, device: usize, spec: ProblemSpec) {
        if !self.systems[device].contains_key(&spec) {
            let system = Self::build_system(
                &self.slots[device].config,
                spec,
                self.options.precond,
                self.fault_states[device].clone(),
            );
            self.systems[device].insert(spec, system);
        }
    }

    pub(crate) fn system(&self, device: usize, spec: ProblemSpec) -> &SemSystem {
        self.systems[device]
            .get(&spec)
            .expect("system instantiated before use")
    }
}
