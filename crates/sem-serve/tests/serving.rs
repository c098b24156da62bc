//! Cross-layer serving invariants: pipeline bounds, serial bitwise
//! degeneration, result ordering, solve parity with `SemSystem::solve_many`,
//! and the deadline-admission guarantees, on closed request sets
//! (`ArrivalStream::closed`: every request at t = 0).
//!
//! Timing-discipline note (the suite must be deterministic under CI load):
//! every comparative assertion here is on *modelled* seconds — simulated
//! kernel time, pipeline closed forms, roofline pricing.  Measured
//! wall-clock figures (CPU backends re-time every run) are only ever
//! sanity-bounded, never compared between runs.  Placement and admission
//! are deterministic too: they price modelled backlogs, not wall clocks.

use sem_accel::{Backend, SemSystem, SolveReport};
use sem_serve::{
    ArrivalStream, LiveOptions, LiveReport, PipelineConfig, PipelineTimeline, ProblemSpec,
    RejectionReason, ServeOptions, ServeRequest, Server, Stage,
};
use sem_solver::{CgOptions, PrecondSpec};

fn cg() -> CgOptions {
    CgOptions {
        max_iterations: 1000,
        tolerance: 1e-10,
        record_history: false,
    }
}

fn options(max_batch: usize) -> ServeOptions {
    ServeOptions {
        cg: cg(),
        max_batch,
        ..ServeOptions::default()
    }
}

/// Admission against `deadline_seconds`, splitting over-deadline jobs when
/// `down_batch`.
fn admission(deadline_seconds: f64, down_batch: bool) -> LiveOptions {
    LiveOptions {
        deadline_seconds,
        down_batch,
        ..LiveOptions::default()
    }
}

/// Admit everything.
fn open() -> LiveOptions {
    admission(f64::INFINITY, false)
}

/// Serve `requests` as a closed set on the synchronous or the threaded
/// executor.
fn serve(
    server: &mut Server,
    requests: &[ServeRequest],
    live: &LiveOptions,
    asynchronous: bool,
) -> LiveReport {
    let stream = ArrivalStream::closed(requests);
    if asynchronous {
        server.serve_stream_async(&stream, live, None)
    } else {
        server.serve_stream(&stream, live, None)
    }
}

fn requests_of(spec: ProblemSpec, n: u64) -> Vec<ServeRequest> {
    (0..n).map(|i| ServeRequest::seeded(spec, i)).collect()
}

fn ids(report: &LiveReport) -> (Vec<usize>, Vec<usize>) {
    (
        report.outcomes.iter().map(|o| o.request).collect(),
        report.rejections.iter().map(|r| r.request).collect(),
    )
}

/// A direct batched solve of `requests` (one shape) on `backend`.
fn direct(backend: &str, requests: &[ServeRequest]) -> Vec<SolveReport> {
    let spec = requests[0].spec;
    let system = SemSystem::builder()
        .degree(spec.degree)
        .elements(spec.elements)
        .backend_named(backend)
        .build();
    let rhss: Vec<_> = requests.iter().map(|r| r.assemble_rhs(&system)).collect();
    system.solve_many(&rhss, cg())
}

#[test]
fn pipeline_invariants_hold_on_an_executed_fpga_batch() {
    let system = SemSystem::builder()
        .degree(5)
        .elements([2, 2, 2])
        .backend(Backend::fpga_simulated())
        .build();
    let reports = system.solve_many_manufactured(16, cg());
    let plan = system.offload_plan();

    let overlapped =
        PipelineTimeline::from_reports(plan.as_ref(), &reports, PipelineConfig::default());
    let serial = PipelineTimeline::from_reports(plan.as_ref(), &reports, PipelineConfig::serial());

    // Makespan at least every channel's total...
    assert!(overlapped.makespan_seconds >= overlapped.total_upload_seconds() - 1e-15);
    assert!(overlapped.makespan_seconds >= overlapped.total_compute_seconds() - 1e-15);
    assert!(overlapped.makespan_seconds >= overlapped.total_download_seconds() - 1e-15);
    // ...and at most the serial sum.
    assert!(overlapped.makespan_seconds <= serial.makespan_seconds * (1.0 + 1e-12));
    // Overlap genuinely wins on a 16-deep batch.
    assert!(overlapped.overlap_win_seconds() > 0.0);
    assert!(overlapped.compute_utilisation() > serial.compute_utilisation());
    // Residuals streamed on the D2H channel without moving the makespan of
    // this compute-dominated session.
    assert!(overlapped.stage_busy_seconds(Stage::ResidualStream) > 0.0);
    assert!(
        overlapped.exposed_transfer_seconds()
            <= serial.makespan_seconds - serial.total_compute_seconds() + 1e-15
    );
}

#[test]
fn non_default_links_price_both_accountings_consistently() {
    // On a 1 GB/s link the transfers are 12x the default, but serial and
    // overlapped accounting must price the same bytes over the same link:
    // overlap can never look worse than blocking.
    let system = SemSystem::builder()
        .degree(4)
        .elements([2, 2, 2])
        .backend(Backend::fpga_simulated())
        .build();
    let reports = system.solve_many_manufactured(8, cg());
    let plan = system.offload_plan();
    for link_gbs in [1.0, 4.0, 48.0] {
        let config = PipelineConfig {
            overlap: true,
            link_gbs,
        };
        let timeline = PipelineTimeline::from_reports(plan.as_ref(), &reports, config);
        assert!(
            timeline.makespan_seconds <= timeline.serial_accounting_seconds() * (1.0 + 1e-12),
            "link {link_gbs}: {} vs {}",
            timeline.makespan_seconds,
            timeline.serial_accounting_seconds()
        );
        assert!(timeline.overlap_win_seconds() > 0.0, "link {link_gbs}");
    }
}

#[test]
fn overlap_disabled_timeline_bitwise_matches_solve_report_accounting() {
    for backend in [Backend::fpga_simulated(), Backend::cpu_specialized()] {
        let system = SemSystem::builder()
            .degree(4)
            .elements([2, 2, 2])
            .backend(backend)
            .build();
        // A batch size that is not a power of two, to catch any
        // share-then-resum rounding shortcuts.
        let reports = system.solve_many_manufactured(7, cg());
        let timeline = PipelineTimeline::from_reports(
            system.offload_plan().as_ref(),
            &reports,
            PipelineConfig::serial(),
        );
        let accounting: f64 = reports.iter().map(SolveReport::modeled_seconds).sum();
        assert_eq!(
            timeline.makespan_seconds.to_bits(),
            accounting.to_bits(),
            "serial timeline must reproduce the blocking SolveReport sum bitwise"
        );
        assert_eq!(timeline.overlap_win_seconds(), 0.0);
    }
}

#[test]
fn serve_never_reorders_results_and_matches_solve_many_bitwise() {
    let spec = ProblemSpec::cube(3, 2);
    let requests = requests_of(spec, 5);
    for name in Backend::registry_names() {
        let mut server = Server::from_registry_names(&[name.as_str()], options(2));
        let report = serve(&mut server, &requests, &open(), false);
        assert_eq!(report.outcomes.len(), requests.len(), "{name}");

        // Reference: the same right-hand sides through the plain batched
        // path on an identically configured system.
        let direct = direct(&name, &requests);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.request, i, "{name}: answer {i} in slot {i}");
            assert_eq!(
                outcome.solution.as_slice(),
                direct[i].solution.solution.as_slice(),
                "{name}: served solution {i} must be bitwise identical to solve_many"
            );
            assert_eq!(outcome.iterations, direct[i].iterations(), "{name}");
            assert!(outcome.converged, "{name}");
            assert!(outcome.latency_seconds() > 0.0, "{name}");
        }
        // Latencies are bounded by the makespan of the device sequence.
        let makespan = report.makespan_seconds;
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.latency_seconds() <= makespan + 1e-15));
    }
}

#[test]
fn mixed_shapes_share_the_pool_without_crosstalk() {
    let small = ProblemSpec::cube(3, 2);
    let large = ProblemSpec::cube(5, 2);
    let mut requests = Vec::new();
    for i in 0..3 {
        requests.push(ServeRequest::seeded(small, i));
        requests.push(ServeRequest::manufactured(large));
        requests.push(ServeRequest::seeded(large, i));
    }
    // Every job the host forms is single-shape by construction.
    for (job, _) in ArrivalStream::closed(&requests).coalesce(4, 0.0) {
        for &i in &job.requests {
            assert_eq!(requests[i].spec, job.spec);
        }
    }
    let mut server =
        Server::from_registry_names(&["cpu:optimized", "fpga:stratix10-gx2800"], options(4));
    let report = serve(&mut server, &requests, &open(), false);
    assert_eq!(report.outcomes.len(), requests.len());
    for (i, outcome) in report.outcomes.iter().enumerate() {
        assert_eq!(outcome.request, i);
        assert_eq!(
            outcome.solution.len(),
            requests[i].spec.num_dofs(),
            "answer shape follows the request shape"
        );
        match requests[i].rhs {
            sem_serve::RhsSpec::Manufactured => {
                assert!(outcome.max_error < 1e-4, "error {}", outcome.max_error);
            }
            sem_serve::RhsSpec::Seeded(_) => assert!(outcome.max_error.is_nan()),
        }
    }
}

/// Probe the model's per-job session prediction: with a vanishing deadline
/// every job is rejected on an empty backlog (rejections never charge it),
/// so each rejection carries exactly the job-level predicted session
/// seconds.
fn probe_job_prediction(pool: &[&str], requests: &[ServeRequest], max_batch: usize) -> f64 {
    let mut server = Server::from_registry_names(pool, options(max_batch));
    let report = serve(
        &mut server,
        requests,
        &admission(f64::MIN_POSITIVE, false),
        false,
    );
    assert_eq!(report.rejections.len(), requests.len(), "probe rejects all");
    assert!(report.outcomes.is_empty());
    let p = report.rejections[0].predicted_latency_seconds;
    assert!(p > 0.0);
    p
}

#[test]
fn admission_on_an_unloaded_pool_admits_everything() {
    let requests = requests_of(ProblemSpec::cube(4, 2), 6);
    let mut server = Server::from_registry_names(&["fpga:stratix10-gx2800"], options(2));
    let report = serve(&mut server, &requests, &admission(1e6, false), false);
    assert!(
        report.rejections.is_empty(),
        "an empty pool admits everything"
    );
    assert_eq!((report.admitted(), report.rejected()), (6, 0));
}

#[test]
fn admission_rejects_exactly_the_requests_priced_over_the_deadline() {
    // Single simulated board (deterministic predictions), three jobs of two
    // requests with identical session prediction `p`.  A deadline of 1.5 p
    // admits the first job (completes at p) and rejects the next two.  The
    // threaded executor prices against predicted backlog, so both land at
    // exactly backlog p + session p = 2 p; the synchronous one charges the
    // first session's actual cost and re-prices by the learned drift, which
    // only pushes them further out.
    let pool = ["fpga:stratix10-gx2800"];
    let requests = requests_of(ProblemSpec::cube(4, 2), 6);
    let p = probe_job_prediction(&pool, &requests, 2);
    let live = admission(1.5 * p, false);
    for asynchronous in [false, true] {
        let mut server = Server::from_registry_names(&pool, options(2));
        let report = serve(&mut server, &requests, &live, asynchronous);
        assert_eq!(
            ids(&report),
            (vec![0, 1], vec![2, 3, 4, 5]),
            "async {asynchronous}: only the first job fits under the deadline"
        );
        for rejection in &report.rejections {
            assert_eq!(rejection.reason, RejectionReason::Deadline);
            assert!(rejection.predicted_latency_seconds > rejection.deadline_seconds);
            if asynchronous {
                assert_eq!(
                    rejection.predicted_latency_seconds.to_bits(),
                    (2.0 * p).to_bits(),
                    "rejections carry the backlog-aware prediction that priced them out"
                );
            }
        }
        // Deterministic: a fresh server reproduces the verdicts.
        let mut again = Server::from_registry_names(&pool, options(2));
        let repeat = serve(&mut again, &requests, &live, asynchronous);
        assert_eq!(ids(&repeat), ids(&report), "async {asynchronous}");
    }
}

#[test]
fn down_batch_admission_degrades_instead_of_rejecting_wholesale() {
    // One batch-4 job against a deadline between the batch-1 and batch-2
    // session predictions: without down-batching all four requests are
    // rejected; with it the job splits 4 → 2+2 → 1+1+... and salvages
    // exactly the first request (completes at p1 ≤ D; every later piece
    // lands behind backlog ≥ p1 and 2·p1 > D because p2 ≤ 2·p1 forces
    // D < 1.5·p1).
    let pool = ["fpga:stratix10-gx2800"];
    let requests = requests_of(ProblemSpec::cube(4, 2), 4);
    let p1 = probe_job_prediction(&pool, &requests, 1);
    let p2 = probe_job_prediction(&pool, &requests, 2);
    assert!(p2 > p1, "session predictions grow with batch size");
    assert!(
        p2 <= 2.0 * p1,
        "a second RHS cannot cost more than a session"
    );
    let deadline_seconds = (p1 + p2) / 2.0;
    let mut unsplit = Server::from_registry_names(&pool, options(4));
    let open_run = serve(&mut unsplit, &requests, &open(), false);

    for asynchronous in [false, true] {
        let mut hard_server = Server::from_registry_names(&pool, options(4));
        let hard = serve(
            &mut hard_server,
            &requests,
            &admission(deadline_seconds, false),
            asynchronous,
        );
        assert_eq!(
            ids(&hard),
            (vec![], vec![0, 1, 2, 3]),
            "async {asynchronous}: the whole batch misses the deadline"
        );

        let mut soft_server = Server::from_registry_names(&pool, options(4));
        let soft = serve(
            &mut soft_server,
            &requests,
            &admission(deadline_seconds, true),
            asynchronous,
        );
        assert_eq!(
            ids(&soft),
            (vec![0], vec![1, 2, 3]),
            "async {asynchronous}: down-batching salvages the request the model can \
             still serve in time"
        );
        // The salvaged answer is the same solve it would have been in a
        // full batch: admission changes scheduling, never numerics.
        assert_eq!(
            soft.outcomes[0].solution.as_slice(),
            open_run.outcomes[0].solution.as_slice()
        );
    }
}

#[test]
fn overlap_improves_fpga_serving_end_to_end() {
    let requests = requests_of(ProblemSpec::cube(5, 2), 16);
    let mut overlapped = Server::from_registry_names(&["fpga:stratix10-gx2800"], options(16));
    let with = serve(&mut overlapped, &requests, &open(), false);
    let mut blocking = Server::from_registry_names(
        &["fpga:stratix10-gx2800"],
        ServeOptions {
            pipeline: PipelineConfig::serial(),
            ..options(16)
        },
    );
    let without = serve(&mut blocking, &requests, &open(), false);

    assert!(with.makespan_seconds < without.makespan_seconds);
    // The blocking run's makespan is the overlapped run's serial accounting:
    // one session at t = 0 whose serial timeline is the sum of its
    // per-request serial costs, in batch order.
    let serial_accounting: f64 = with.outcomes.iter().map(|o| o.serial_modeled_seconds).sum();
    assert_eq!(
        serial_accounting.to_bits(),
        without.makespan_seconds.to_bits()
    );
    // Identical numerics and serial accounting either way: overlap only
    // changes the schedule.
    for (a, b) in with.outcomes.iter().zip(&without.outcomes) {
        assert_eq!(a.solution.as_slice(), b.solution.as_slice());
        assert_eq!(
            a.serial_modeled_seconds.to_bits(),
            b.serial_modeled_seconds.to_bits()
        );
    }
}

#[test]
fn slot_precond_suffixes_are_honoured_and_the_override_wins() {
    let requests = requests_of(ProblemSpec::cube(4, 2), 4);
    let fdm_board = "fpga:stratix10-gx2800+fdm";

    // A slot whose registry name carries `+fdm` serves with FDM by default
    // (ServeOptions.precond defaults to None = per-slot)...
    let mut fdm_server = Server::from_registry_names(&[fdm_board], options(4));
    let fdm = serve(&mut fdm_server, &requests, &open(), false);
    // ...and a pool-wide override replaces it.
    let mut overridden_server =
        Server::from_registry_names(&[fdm_board], options(4).with_precond(PrecondSpec::Jacobi));
    let overridden = serve(&mut overridden_server, &requests, &open(), false);
    // Each answers bitwise like a direct solve under the preconditioner it
    // claims to run.
    for (report, backend) in [
        (&fdm, fdm_board),
        (&overridden, "fpga:stratix10-gx2800+jacobi"),
    ] {
        for (outcome, reference) in report.outcomes.iter().zip(direct(backend, &requests)) {
            assert_eq!(outcome.iterations, reference.iterations(), "{backend}");
            assert_eq!(
                outcome.solution.as_slice(),
                reference.solution.solution.as_slice(),
                "{backend}"
            );
        }
    }
    // The preconditioners genuinely differ: FDM needs fewer total iterations
    // and both streams converge to the same answers.
    let total = |r: &LiveReport| r.outcomes.iter().map(|o| o.iterations).sum::<usize>();
    assert!(total(&fdm) < total(&overridden));
    let scale = 1.0 + fdm.outcomes[0].solution.max_abs();
    for (a, b) in fdm.outcomes.iter().zip(&overridden.outcomes) {
        for (x, y) in a.solution.as_slice().iter().zip(b.solution.as_slice()) {
            assert!((x - y).abs() < 1e-8 * scale);
        }
    }
}
