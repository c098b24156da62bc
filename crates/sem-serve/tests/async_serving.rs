//! The threaded-executor concurrency battery: `serve_stream_async` must
//! answer exactly like `serve_stream` and a direct `SemSystem::solve_many`
//! — bitwise, in request order — while actually running device sessions on
//! worker threads with work stealing.
//!
//! Every assertion here is on *modelled* seconds, bit patterns, or
//! structural invariants (conservation, ordering) — never on measured
//! wall-clock comparisons, so the battery is deterministic under arbitrary
//! CI load.

use sem_accel::{Backend, SemSystem};
use sem_serve::{
    ArrivalStream, LiveOptions, LiveReport, ProblemSpec, ServeOptions, ServeRequest, Server,
};
use sem_solver::CgOptions;

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

/// Serve `requests` as a closed set against `deadline_seconds` on the
/// synchronous or the threaded executor.
fn serve_with(
    server: &mut Server,
    requests: &[ServeRequest],
    deadline_seconds: f64,
    asynchronous: bool,
) -> LiveReport {
    let stream = ArrivalStream::closed(requests);
    let live = LiveOptions {
        deadline_seconds,
        ..LiveOptions::default()
    };
    if asynchronous {
        server.serve_stream_async(&stream, &live, None)
    } else {
        server.serve_stream(&stream, &live, None)
    }
}

/// Serve `requests` as a closed set, admitting everything.
fn serve(server: &mut Server, requests: &[ServeRequest], asynchronous: bool) -> LiveReport {
    serve_with(server, requests, f64::INFINITY, asynchronous)
}

/// Mixed-shape, mixed-RHS request stream shared by the parity tests.
fn mixed_requests() -> Vec<ServeRequest> {
    let small = ProblemSpec::cube(3, 2);
    let large = ProblemSpec::cube(4, 2);
    let mut requests = Vec::new();
    for i in 0..3 {
        requests.push(ServeRequest::seeded(small, i));
        requests.push(ServeRequest::manufactured(large));
        requests.push(ServeRequest::seeded(large, i + 100));
    }
    requests
}

#[test]
fn both_executors_answer_like_solve_many_bitwise_for_every_registry_backend() {
    const MAX_BATCH: usize = 2;
    let requests = mixed_requests();
    for name in Backend::registry_names() {
        let simulated = Backend::from_name(&name)
            .expect("registry name")
            .is_simulated();
        // The reference: each request's right-hand side through a direct
        // batched solve on an identically configured session, batched as the
        // host coalesces a closed set — runs of consecutive same-shape
        // arrivals, cut at `max_batch` — so the per-RHS share of the session
        // upload, and with it the modelled accounting, is comparable.
        let mut reference = Vec::with_capacity(requests.len());
        let mut start = 0;
        while start < requests.len() {
            let spec = requests[start].spec;
            let end = (start..requests.len())
                .take(MAX_BATCH)
                .take_while(|&i| requests[i].spec == spec)
                .last()
                .map_or(start, |last| last + 1);
            let system = SemSystem::builder()
                .degree(spec.degree)
                .elements(spec.elements)
                .backend_named(&name)
                .build();
            let rhss: Vec<_> = requests[start..end]
                .iter()
                .map(|request| request.assemble_rhs(&system))
                .collect();
            reference.extend(system.solve_many(&rhss, cg()));
            start = end;
        }
        for asynchronous in [false, true] {
            let mut server = Server::from_registry_names(&[name.as_str()], options(MAX_BATCH));
            let run = serve(&mut server, &requests, asynchronous);
            assert_eq!(run.asynchronous, asynchronous);
            assert_eq!(run.outcomes.len(), requests.len(), "{name}");
            assert_eq!(run.ledger.total_retries(), 0, "{name}: fault-free");
            for (i, (a, r)) in run.outcomes.iter().zip(&reference).enumerate() {
                assert_eq!(a.request, i, "{name}: answers arrive in request order");
                assert_eq!(
                    a.solution.as_slice(),
                    r.solution.solution.as_slice(),
                    "{name} (async {asynchronous}): request {i} must be bitwise solve_many's"
                );
                assert_eq!(a.iterations, r.iterations(), "{name}");
                assert_eq!(a.converged, r.converged(), "{name}");
                if simulated {
                    // Simulated accounting is a pure model figure; measured
                    // (CPU) backends re-time each run, so only the bits of
                    // the *solution*, not the clock, are comparable there.
                    assert_eq!(
                        a.serial_modeled_seconds.to_bits(),
                        r.modeled_seconds().to_bits(),
                        "{name} (async {asynchronous}): modelled accounting is \
                         schedule-independent"
                    );
                }
            }
        }
    }
}

#[test]
fn async_on_a_homogeneous_pool_stays_bitwise_whoever_steals() {
    // Three identical slots: stealing may move jobs anywhere, but every slot
    // runs the same backend, so answers must stay bitwise equal to the
    // synchronous single-slot reference.
    let requests = mixed_requests();
    let mut reference_server = Server::from_registry_names(&["cpu:optimized"], options(2));
    let reference = serve(&mut reference_server, &requests, false);

    let pool = ["cpu:optimized", "cpu:optimized", "cpu:optimized"];
    let mut server = Server::from_registry_names(&pool, options(2));
    let run = serve(&mut server, &requests, true);

    assert_eq!(run.outcomes.len(), requests.len());
    for (i, (a, r)) in run.outcomes.iter().zip(&reference.outcomes).enumerate() {
        assert_eq!(a.request, i);
        assert!(a.device < pool.len());
        assert_eq!(
            a.solution.as_slice(),
            r.solution.as_slice(),
            "request {i}: homogeneous pools are bitwise host-independent"
        );
    }
    // Conservation: every request served exactly once, nothing unserved.
    assert!(run.unserved.is_empty() && run.rejections.is_empty());
}

#[test]
fn heterogeneous_pools_serve_in_order_with_correct_shapes() {
    let requests = mixed_requests();
    let pool = ["cpu:optimized", "fpga:stratix10-gx2800"];
    let mut server = Server::from_registry_names(&pool, options(2));
    let run = serve(&mut server, &requests, true);
    assert_eq!(run.outcomes.len(), requests.len());
    for (i, outcome) in run.outcomes.iter().enumerate() {
        assert_eq!(outcome.request, i);
        assert_eq!(outcome.solution.len(), requests[i].spec.num_dofs());
        assert!(outcome.converged);
        match requests[i].rhs {
            sem_serve::RhsSpec::Manufactured => {
                assert!(outcome.max_error < 1e-3, "error {}", outcome.max_error);
            }
            sem_serve::RhsSpec::Seeded(_) => assert!(outcome.max_error.is_nan()),
        }
        assert!(outcome.device < pool.len());
    }
    // The wall clock exists but is only sanity-bounded (it is measured;
    // comparisons live in the bench, not the test suite).
    assert!(run.wall_seconds > 0.0);
    assert!(run.makespan_seconds > 0.0);
}

#[test]
fn empty_request_sets_produce_empty_reports_on_both_executors() {
    let mut server = Server::from_registry_names(&["cpu:optimized", "cpu:optimized"], options(4));
    for asynchronous in [false, true] {
        let report = serve(&mut server, &[], asynchronous);
        assert!(report.outcomes.is_empty());
        assert!(report.rejections.is_empty() && report.unserved.is_empty());
        assert!(report.windows.is_empty());
        assert_eq!(report.makespan_seconds, 0.0);
        assert_eq!(report.latency_percentile_seconds(99.0), None);
    }
}

#[test]
fn sessions_survive_across_serve_calls_on_both_executors() {
    // The worker-owned sessions are handed back after a threaded run: a
    // second serve on the same server must reuse them and answer bitwise
    // identically (same backends, same systems).
    let requests: Vec<ServeRequest> = (0..4)
        .map(|i| ServeRequest::seeded(ProblemSpec::cube(3, 2), i))
        .collect();
    let mut server = Server::from_registry_names(&["cpu:optimized", "cpu:optimized"], options(2));
    let first = serve(&mut server, &requests, true);
    let second = serve(&mut server, &requests, true);
    let third = serve(&mut server, &requests, false);
    assert_eq!(first.outcomes.len(), requests.len());
    for ((a, b), c) in first
        .outcomes
        .iter()
        .zip(&second.outcomes)
        .zip(&third.outcomes)
    {
        assert_eq!(a.solution.as_slice(), b.solution.as_slice());
        assert_eq!(a.solution.as_slice(), c.solution.as_slice());
    }
}

#[test]
fn admission_binds_on_both_executors_and_never_changes_the_bits() {
    // Simulated backend → deterministic session predictions.  A tight
    // deadline must reject some but not all requests on each executor,
    // reproducibly, and the served remainder must stay bitwise the
    // admit-everything answers.  (The executors price against different
    // backlogs — actual sessions inline, predicted ones for the pool — so
    // their verdicts need not coincide.)
    let spec = ProblemSpec::cube(4, 2);
    let requests: Vec<ServeRequest> = (0..8).map(|i| ServeRequest::seeded(spec, i)).collect();
    let pool = ["fpga:stratix10-gx2800"];

    // Price one job to find a deadline that admits some but not all.
    let mut probe = Server::from_registry_names(&pool, options(2));
    let full = serve(&mut probe, &requests, false);
    let per_job = full.makespan_seconds / (requests.len() / 2) as f64;
    let deadline_seconds = per_job * 2.5;

    for asynchronous in [false, true] {
        let run =
            |server: &mut Server| serve_with(server, &requests, deadline_seconds, asynchronous);
        let report = run(&mut Server::from_registry_names(&pool, options(2)));
        assert!(
            !report.rejections.is_empty(),
            "async {asynchronous}: the deadline must bind"
        );
        assert!(
            !report.outcomes.is_empty(),
            "async {asynchronous}: but not reject everything"
        );
        assert_eq!(report.admitted() + report.rejected(), 8);
        let verdicts = |r: &LiveReport| r.rejections.iter().map(|r| r.request).collect::<Vec<_>>();
        let repeat = run(&mut Server::from_registry_names(&pool, options(2)));
        assert_eq!(verdicts(&report), verdicts(&repeat), "async {asynchronous}");
        for outcome in &report.outcomes {
            assert_eq!(
                outcome.solution.as_slice(),
                full.outcomes[outcome.request].solution.as_slice()
            );
        }
    }
}
