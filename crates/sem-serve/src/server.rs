//! The serving instance: a device pool, its options, one lazily built
//! `SemSystem` per (device, problem shape), and the per-job execution step
//! the streaming host ([`crate::stream`]) drives — assemble the right-hand
//! sides, solve the batch through `SemSystem::solve_many`, and account the
//! session on the overlap-aware pipeline timeline.
//!
//! Every solve runs through `SemSystem::solve_many`, so solution vectors are
//! bitwise identical to a direct batched solve: the serving layer changes
//! *when and where* things happen (the schedule, the executing thread),
//! never *what* is computed.

use crate::pipeline::PipelineTimeline;
use crate::queue::BatchJob;
use crate::request::{ProblemSpec, RhsSpec, ServeRequest};
use crate::scheduler::DeviceSlot;
use crate::steal::{run_stealing_with_feeder, CompletedJob, JobVerdict};
use perf_model::HostCostModel;
use sem_accel::{Backend, PerfSource, SemSystem};
use sem_mesh::ElementField;
use sem_obs::{recorder, DriftSample};
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
        }
    }
}

impl ServeOptions {
    /// The options with a pool-wide preconditioner override.
    #[must_use]
    pub fn with_precond(mut self, precond: PrecondSpec) -> Self {
        self.precond = Some(precond);
        self
    }
}

/// Operator applications one solve under `precond` is expected to need —
/// the costing hint placement and deadline admission price jobs with (the
/// prediction only has to rank devices, so a rough figure is fine;
/// measured on the standard degree-7 serving problems).
fn applications_hint_for(precond: PrecondSpec) -> usize {
    match precond {
        PrecondSpec::Identity => 110,
        PrecondSpec::Jacobi => 60,
        PrecondSpec::Fdm => 25,
    }
}

/// The answer to one request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Request id: the index of the request in the served
    /// [`crate::ArrivalStream`] (outcomes are returned sorted by it; rejected
    /// and unserved ids are absent and reported in
    /// [`crate::LiveReport::rejections`] and
    /// [`crate::LiveReport::unserved`] instead).
    pub request: usize,
    /// Pool index of the device that served it.
    pub device: usize,
    /// Display label of that device.
    pub device_label: String,
    /// Size of the batch job the request rode in.
    pub batch: usize,
    /// Modelled arrival of the request (0 for every request of a closed
    /// set, [`crate::ArrivalStream::closed`]).
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
    /// The device fault that aborted the solve, if any (only with faults
    /// injected by [`Server::inject_faults`]; the host retries such
    /// outcomes instead of releasing them, so a released one is `None`).
    pub fault: Option<sem_solver::SolveFault>,
    /// Max-norm error against the manufactured solution (`NaN` for seeded
    /// right-hand sides, which have no exact solution).
    pub max_error: f64,
    /// Per-RHS modelled seconds under the serial (blocking) accounting:
    /// `SolveReport::modeled_seconds()`, bitwise.
    pub serial_modeled_seconds: f64,
    /// Per-RHS modelled seconds under the job's actual schedule: kernel
    /// seconds plus this request's share of the transfer time the session's
    /// timeline left exposed.
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

    /// Execute batch jobs on the worker pool, one worker thread per
    /// device slot.  Each worker borrows its slot's sessions for the run
    /// (`SemSystem` is `Send`, so the handoff is a move, not a copy), builds
    /// any session it lacks, and hands them back for reuse when the pool
    /// drains.  A live feeder pushes the `fed` jobs into the shared queue
    /// while the workers already run, all at once and without yielding
    /// between pushes.  `execute` runs one job, once, on the worker's
    /// session for its shape and resolves it with a [`JobVerdict`].
    /// Returns the delivered results in completion order; a job that a
    /// fully retired pool never took has none.
    pub(crate) fn run_pool<K, R, F>(
        &mut self,
        fed: Vec<(K, BatchJob)>,
        execute: F,
    ) -> Vec<CompletedJob<R>>
    where
        K: Send,
        R: Send,
        F: Fn(&Self, usize, &SemSystem, K, BatchJob) -> JobVerdict<R> + Sync,
    {
        let states: Vec<HashMap<ProblemSpec, SemSystem>> =
            self.systems.iter_mut().map(std::mem::take).collect();
        let server = &*self;
        // lint: no-panic (this closure runs on worker threads; a panic would
        // strand the pool mid-run)
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
        // The feeder pushes the whole admitted plan without yielding: it
        // runs on the calling thread, a third runnable thread beside the
        // workers, and on a host with one core per worker a feeder that
        // yields after each push waits a scheduler slice for its core while
        // the workers spin on an empty queue.
        let run = run_stealing_with_feeder(
            states,
            Vec::new(),
            move |feeder| {
                for job in fed {
                    feeder.push(job);
                }
            },
            execute,
        );
        for (slot, ledger) in self.systems.iter_mut().zip(run.workers) {
            *slot = ledger.state;
        }
        run.completed
    }

    /// Run one job on one device's system: solve the batch of assembled
    /// right-hand sides `rhss` (one per request of `job`, in order) through
    /// the backend, and schedule the session on the pipeline timeline.
    pub(crate) fn execute_job_on(
        &self,
        system: &SemSystem,
        device: usize,
        job: &BatchJob,
        requests: &[ServeRequest],
        rhss: &[ElementField],
    ) -> (PipelineTimeline, Vec<RequestOutcome>, bool) {
        let reports = system.solve_many(rhss, self.options.cg);
        let timeline = PipelineTimeline::from_reports(system.offload_plan().as_ref(), &reports);
        let modeled = system.execution().perf_source() == PerfSource::Simulated;
        self.record_drift(system, device, job, &timeline);
        // Manufactured requests get real error metrics (solve_many itself
        // cannot know the exact solution of an arbitrary RHS).
        let exact = job
            .requests
            .iter()
            .any(|&i| requests[i].rhs == RhsSpec::Manufactured)
            .then(|| system.problem().manufactured_exact());
        // Per-request accounting consistent with the timeline the report's
        // makespans come from: the serial figure is the timeline's
        // per-request serial cost, the pipelined figure spreads the
        // schedule's exposed transfer over the batch.
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
        let predicted_session = self.predict_session(system, device, job);
        let predicted = predicted_session.stages[0];
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
                (
                    "session",
                    predicted_session.makespan_seconds,
                    timeline.makespan_seconds,
                ),
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
        HostCostModel::generic_server().seconds_per_application(spec.degree, spec.num_elements())
            * applications as f64
            * (1.0 + host_precond_factor)
    }

    /// Predicted session seconds of `job` on `device` — the number
    /// placement and deadline admission compare.  The kernel
    /// applications come from the hint for the preconditioner the slot
    /// solves with, and the on-device preconditioner pass is priced per
    /// application, so a stronger preconditioner shows up as a genuinely
    /// cheaper predicted completion.  Requires the system to exist.
    pub(crate) fn predict_job_seconds(&self, device: usize, job: &BatchJob) -> f64 {
        self.predict_on(self.system(device, job.spec), device, job)
    }

    /// [`Server::predict_job_seconds`] on a session the caller holds (a
    /// pool worker's own).
    pub(crate) fn predict_on(&self, system: &SemSystem, device: usize, job: &BatchJob) -> f64 {
        self.predict_session(system, device, job).makespan_seconds
    }

    /// The predicted timeline of `job` on `device`'s `system`: what
    /// placement, deadline admission and the drift telemetry all price.
    fn predict_session(
        &self,
        system: &SemSystem,
        device: usize,
        job: &BatchJob,
    ) -> PipelineTimeline {
        let precond = self.slot_precond(device);
        let applications = applications_hint_for(precond);
        let precond_per_application = system
            .execution()
            .simulated_seconds_per_precond(precond)
            .unwrap_or(0.0);
        PipelineTimeline::predict(
            system.execution(),
            job.batch_size(),
            applications,
            precond_per_application,
            self.host_fallback_seconds(device, job.spec, applications),
        )
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
