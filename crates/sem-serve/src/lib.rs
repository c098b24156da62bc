//! Pipelined, overlap-aware solve serving over the backend registry.
//!
//! `sem-accel` gave the workspace backends and batched solves; this crate
//! turns them into a *serving system*: many clients submit solve requests
//! (mixed degrees and meshes), a queue packs them into batch jobs, a
//! pluggable scheduling policy places each job on a device of a
//! heterogeneous pool (CPU kernels, simulated FPGA boards, multi-board
//! partitions, and `fpga:projected:*` model-designed future devices side by
//! side), and every session is accounted on a three-stage offload pipeline
//! that overlaps upload(`i+1`) / solve(`i`) / download(`i-1`) the way the
//! paper's host–device flow (and the follow-on Neko/FPGA work) treats the
//! accelerator: as a pipeline stage, not a blocking callee.
//!
//! * [`request`] — [`ServeRequest`]/[`ProblemSpec`]/[`RhsSpec`]: what
//!   clients submit;
//! * [`queue`] — [`SolveQueue`]: groups requests by shape and chunks them
//!   into [`BatchJob`]s without ever reordering answers;
//! * [`pipeline`] — [`PipelineTimeline`]: the event-level schedule of one
//!   session (H2D / kernel / D2H channels, double buffering, per-iteration
//!   residual streaming so convergence checks never stall the kernel),
//!   degenerating bitwise to the serial `SolveReport` accounting when
//!   overlap is disabled;
//! * [`scheduler`] — [`SchedulingPolicy`] with [`RoundRobin`],
//!   [`LeastLoaded`] and [`ModelOptimal`] (earliest predicted completion,
//!   priced by the simulator where one exists and by
//!   `perf_model::HostCostModel` elsewhere);
//! * [`admission`] — [`AdmissionPolicy`]: deadline-aware admission on top
//!   of the model-optimal completion predictions (reject, or down-batch and
//!   re-price, whatever the model prices over the target);
//! * [`steal`] — [`run_stealing`] / [`run_stealing_with_feeder`]: the one
//!   work-stealing execution core (per-worker deques + shared injector from
//!   the vendored `crossbeam`), one thread per device slot, owned-session
//!   handoff, steal/concurrency accounting, and a [`JobVerdict`] per job —
//!   retries and dying-worker requeues ride an outstanding-work
//!   termination proof, so jobs are conserved under any mix of faults;
//! * [`server`] — [`Server::serve`] and [`Server::serve_async`]: execute
//!   everything through `SemSystem::solve_many` (solutions stay bitwise
//!   identical to direct batched solves — and, on homogeneous pools, across
//!   the two hosts), re-sequence answers into request order, and report
//!   per-request latency, per-device utilisation, measured concurrency,
//!   steal counts and aggregate throughput ([`ServeReport`] /
//!   [`ServeSummary`]);
//! * [`stream`] — the one fault-tolerant streaming host: [`ArrivalStream`]s
//!   of timestamped requests (or a closed set at t = 0), windowed deadline
//!   admission in virtual time with typed rejections, and a synchronous
//!   ([`Server::serve_stream`]) and a threaded ([`Server::serve_stream_async`])
//!   executor, both reporting in one [`LiveReport`];
//! * [`chaos`] / [`fault`] — how that host detects, retries and quarantines
//!   injected device faults ([`CircuitBreaker`], [`ChaosSummary`]);
//! * [`autoscaler`] — [`Autoscaler`]: an SLO-holding, cost-minimising
//!   activation mask over an `arch-db` candidate pool (real FPGA boards and
//!   `fpga:projected:*` devices), one flip per observation window, holding
//!   rather than shrinking when a window carries no latency evidence.
//!
//! ```
//! use sem_serve::{
//!     ProblemSpec, RoundRobin, ServeOptions, ServeRequest, Server,
//! };
//!
//! let mut server = Server::from_registry_names(
//!     &["cpu:optimized", "fpga:stratix10-gx2800"],
//!     ServeOptions {
//!         max_batch: 4,
//!         ..ServeOptions::default()
//!     },
//! );
//! let spec = ProblemSpec::cube(3, 2);
//! let requests: Vec<ServeRequest> =
//!     (0..6).map(|i| ServeRequest::seeded(spec, i)).collect();
//! let report = server.serve(&requests, &mut RoundRobin::default());
//! assert_eq!(report.outcomes.len(), 6);
//! assert!(report.throughput_rps() > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod autoscaler;
pub mod chaos;
pub mod explore;
pub mod fault;
pub mod pipeline;
pub mod queue;
pub mod request;
pub mod scheduler;
pub mod server;
pub mod steal;
pub mod stream;

pub use admission::{AdmissionPolicy, AdmittedJob, RejectedRequest};
pub use autoscaler::{Autoscaler, AutoscalerPolicy, ScaleDirection, ScaleEvent};
pub use chaos::{ChaosSummary, FaultEvent};
pub use explore::{
    explore_case, standard_battery, standard_cases, CaseReport, ExploreCase, Strategy,
};
pub use fault::{
    relative_residual, BreakerState, CircuitBreaker, FaultReason, FaultToleranceOptions,
    RetryLedger, RetryRecord,
};
pub use pipeline::{
    PipelineConfig, PipelineTimeline, RequestStages, Stage, StageEvent,
    RESIDUAL_BYTES_PER_ITERATION,
};
pub use queue::{BatchJob, SolveQueue};
pub use request::{ProblemSpec, RhsSpec, ServeRequest};
pub use scheduler::{
    policy_by_name, policy_names, DeviceSlot, DeviceStatus, LeastLoaded, ModelOptimal, Pinned,
    RoundRobin, SchedulingPolicy,
};
pub use server::{
    DeviceUsage, JobTrace, RequestOutcome, ServeOptions, ServeReport, ServeSummary, Server,
};
pub use steal::{
    run_stealing, run_stealing_with_feeder, CompletedJob, FeederHandle, JobVerdict, StealRun,
    TaggedJob, WorkerLedger,
};
pub use stream::{
    ArrivalStream, LiveOptions, LiveRejection, LiveReport, RejectionReason, TimedRequest,
    WindowStats,
};
