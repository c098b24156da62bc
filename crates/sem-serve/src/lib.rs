//! Pipelined, overlap-aware solve serving over the backend registry.
//!
//! `sem-accel` gave the workspace backends and batched solves; this crate
//! turns them into a *serving system*: clients submit solve requests (mixed
//! degrees and meshes, arriving over time or as one closed set), one host
//! coalesces them into batch jobs, admits each against a deadline, places
//! it on a device of a heterogeneous pool (CPU kernels, simulated FPGA
//! boards, multi-board partitions, and `fpga:projected:*` model-designed
//! future devices side by side), verifies every answer, and accounts every
//! session on a three-stage offload pipeline that overlaps upload(`i+1`) /
//! solve(`i`) / download(`i-1`) the way the paper's host–device flow (and
//! the follow-on Neko/FPGA work) treats the accelerator: as a pipeline
//! stage, not a blocking callee.
//!
//! * [`request`] — [`ServeRequest`]/[`ProblemSpec`]/[`RhsSpec`]: what
//!   clients submit;
//! * [`queue`] — [`BatchJob`]: same-shape requests served as one session;
//! * [`pipeline`] — [`PipelineTimeline`]: the one session-time model, the
//!   event-level schedule of one session (H2D / kernel / D2H channels at
//!   the host link speed, double buffering, per-iteration residual
//!   streaming so convergence checks never stall the kernel), with the
//!   serial `SolveReport` accounting kept beside it as the blocking figure
//!   the overlap win is measured against;
//! * [`scheduler`] — [`DeviceSlot`]: one device of the pool, priced by the
//!   simulator where one exists and by the generic-server
//!   `perf_model::HostCostModel` elsewhere;
//! * [`steal`] — [`run_stealing`] / [`run_stealing_with_feeder`]: the one
//!   threaded execution core (one shared FIFO queue from the vendored
//!   `crossbeam`, fed live while the workers run), one thread per device
//!   slot, owned-session handoff, and each job attempted at most once; its
//!   [`JobVerdict`] delivers the result and may retire a dead device's
//!   worker, so jobs are conserved however many workers retire;
//! * [`server`] — [`Server`]: the pool, its [`ServeOptions`] and sessions,
//!   and the execution step every job runs through `SemSystem::solve_many`
//!   (solutions stay bitwise identical to direct batched solves), answering
//!   with one [`RequestOutcome`] per request;
//! * [`stream`] — the one serving host: [`ArrivalStream`]s of timestamped
//!   requests (or a closed set at t = 0), windowed deadline admission in
//!   virtual time with typed rejections, earliest-completion placement, and
//!   a synchronous ([`Server::serve_stream`]) and a threaded
//!   ([`Server::serve_stream_async`]) executor, both reporting in one
//!   [`LiveReport`];
//! * [`chaos`] / [`fault`] — how that host detects injected device faults
//!   and recovers them on one ladder for both executors: backoff,
//!   quarantine, probes and the fallback device ([`CircuitBreaker`],
//!   [`ChaosSummary`]);
//! * [`autoscaler`] — [`Autoscaler`]: an SLO-holding, cost-minimising
//!   activation mask over an `arch-db` candidate pool (real FPGA boards and
//!   `fpga:projected:*` devices), one flip per observation window, holding
//!   rather than shrinking when a window carries no latency evidence.
//!
//! ```
//! use sem_serve::{ArrivalStream, LiveOptions, ProblemSpec, ServeOptions, ServeRequest, Server};
//!
//! let mut server = Server::from_registry_names(
//!     &["cpu:specialized", "fpga:stratix10-gx2800"],
//!     ServeOptions {
//!         max_batch: 4,
//!         ..ServeOptions::default()
//!     },
//! );
//! let spec = ProblemSpec::cube(3, 2);
//! let requests: Vec<ServeRequest> =
//!     (0..6).map(|i| ServeRequest::seeded(spec, i)).collect();
//! // A closed set, every request at t = 0, admitted whatever it costs.
//! let live = LiveOptions {
//!     deadline_seconds: f64::INFINITY,
//!     ..LiveOptions::default()
//! };
//! let report = server.serve_stream(&ArrivalStream::closed(&requests), &live, None);
//! assert_eq!(report.outcomes.len(), 6);
//! assert!(report.outcomes.iter().all(|o| o.converged));
//! assert!(report.makespan_seconds > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

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
    PipelineTimeline, RequestStages, Stage, StageEvent, RESIDUAL_BYTES_PER_ITERATION,
};
pub use queue::BatchJob;
pub use request::{ProblemSpec, RhsSpec, ServeRequest};
pub use scheduler::DeviceSlot;
pub use server::{RequestOutcome, ServeOptions, Server};
pub use steal::{
    run_stealing, run_stealing_with_feeder, CompletedJob, FeederHandle, JobVerdict, StealRun,
    WorkerLedger,
};
pub use stream::{
    ArrivalStream, LiveOptions, LiveRejection, LiveReport, RejectionReason, TimedRequest,
    WindowStats,
};
