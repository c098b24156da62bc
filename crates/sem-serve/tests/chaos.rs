//! Chaos conservation battery: seeded worker retirements in the worker
//! pool and seeded fault plans through the fault-tolerant streaming host,
//! proving **no job is ever lost** — every run delivers results that are
//! exactly `0..n`.  Each end-to-end test runs on both executors of the
//! streaming host, and both must charge one recovery ladder.
//!
//! Lives in its own integration-test binary (like `tests/explore.rs`) so
//! the threaded runs here never share a process with the schedule
//! explorer's process-global hook.

use fpga_sim::{FaultKind, FaultPlan, ScheduledFault};
use sem_serve::{
    run_stealing_with_feeder, ArrivalStream, FaultToleranceOptions, JobVerdict, LiveOptions,
    LiveReport, ProblemSpec, ServeOptions, ServeRequest, Server, StealRun,
};

/// splitmix64: the deterministic seed expander used across the repo's
/// seeded tests.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    *state = z ^ (z >> 31);
}

/// Draw a value in `0..bound` from the seeded stream.
fn draw(state: &mut u64, bound: u64) -> u64 {
    splitmix64(state);
    *state % bound
}

/// `n` jobs for the shared queue, payload == index.
fn jobs(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Sorted payloads delivered by the run (payload-returning executors).
fn delivered(run: &StealRun<usize, usize, usize>) -> Vec<usize> {
    let mut out: Vec<usize> = run.completed.iter().map(|c| c.result).collect();
    out.sort_unstable();
    out
}

/// Assert the conservation contract: completed plus unfinished is exactly
/// `0..n`, with nothing duplicated and nothing dropped.
fn assert_conserved(run: &StealRun<usize, usize, usize>, n: usize) {
    let mut all = delivered(run);
    all.extend(run.unfinished.iter().copied());
    all.sort_unstable();
    assert_eq!(
        all,
        (0..n).collect::<Vec<usize>>(),
        "jobs were lost or duplicated"
    );
    if run.alive_workers() > 0 {
        assert!(
            run.unfinished.is_empty(),
            "jobs were abandoned with live workers in the pool"
        );
    }
}

#[test]
fn seeded_retirements_under_a_live_feeder_conserve_jobs() {
    // A seeded worker retires on its first job while half the jobs arrive
    // through the feeder: across several seeds, every job is delivered
    // exactly once by the survivors or the retiree.
    for seed in [11_u64, 1234, 0xBEEF, 987_654_321] {
        let preloaded = 10;
        let n = 20;
        let workers = 4;
        let mut state = seed;
        let retiring = draw(&mut state, workers as u64) as usize;

        let run: StealRun<usize, usize, usize> = run_stealing_with_feeder(
            vec![0usize; workers],
            jobs(preloaded),
            |handle| {
                for payload in preloaded..n {
                    handle.push(payload);
                }
            },
            |worker, _state, payload: usize| {
                if worker == retiring {
                    JobVerdict::Retire(payload)
                } else {
                    JobVerdict::Done(payload)
                }
            },
        );

        assert_conserved(&run, n);
        // Whether the scripted worker reaches a job is schedule-dependent
        // (its siblings can drain the queue first), but it is the only one
        // that may retire, and then after exactly one job.
        for (worker, died) in run.died.iter().enumerate() {
            assert!(
                !died || worker == retiring,
                "seed {seed}: only the scripted worker may retire"
            );
        }
        if run.died[retiring] {
            assert_eq!(run.workers[retiring].executed_jobs, 1, "seed {seed}");
        }
        assert_eq!(
            delivered(&run),
            (0..n).collect::<Vec<usize>>(),
            "seed {seed}"
        );
    }
}

/// The accelerator the end-to-end battery serves on.
const FPGA: &str = "fpga:stratix10-gx2800";

/// Seeded cases of the threaded runs (CI's stress job raises this via
/// `SEM_STRESS_ITERS`).
fn stress_iters() -> usize {
    std::env::var("SEM_STRESS_ITERS")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(100)
}

/// Seeded requests on a small cube, shared by the end-to-end tests.
fn seeded_requests(n: usize, seed: u64) -> Vec<ServeRequest> {
    let spec = ProblemSpec::cube(3, 2);
    (0..n)
        .map(|i| ServeRequest::seeded(spec, seed.wrapping_add(i as u64)))
        .collect()
}

/// A pool of `names`; the end-to-end tests pair two boards with a cpu
/// reserve, or use three identical boards.
fn pool(names: &[&str]) -> Server {
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

/// Serve `requests` as a closed stream (every arrival at t = 0, no
/// deadline) under `fault`, on the threaded executor when `asynchronous`,
/// else inline.
fn serve_with(
    server: &mut Server,
    requests: &[ServeRequest],
    asynchronous: bool,
    fault: FaultToleranceOptions,
) -> LiveReport {
    let stream = ArrivalStream::closed(requests);
    let live = LiveOptions {
        deadline_seconds: f64::INFINITY,
        fault,
        ..LiveOptions::default()
    };
    if asynchronous {
        server.serve_stream_async(&stream, &live, None)
    } else {
        server.serve_stream(&stream, &live, None)
    }
}

/// [`serve_with`] under the default fault-tolerance options.
fn serve(server: &mut Server, requests: &[ServeRequest], asynchronous: bool) -> LiveReport {
    serve_with(
        server,
        requests,
        asynchronous,
        FaultToleranceOptions::default(),
    )
}

/// Every one of `n` requests answered exactly once, converged, with no
/// poisoned solve released.
fn assert_all_served_verified(report: &LiveReport, n: usize) {
    let executor = if report.asynchronous {
        "threaded"
    } else {
        "sync"
    };
    assert!(report.unserved.is_empty(), "{executor}: a request was lost");
    let served: Vec<usize> = report.outcomes.iter().map(|o| o.request).collect();
    assert_eq!(served, (0..n).collect::<Vec<usize>>(), "{executor}");
    assert!(
        report
            .outcomes
            .iter()
            .all(|o| o.converged && o.fault.is_none()),
        "{executor}: an unverified or poisoned solve was released"
    );
}

#[test]
fn live_serves_complete_every_request_verified_under_a_mixed_fault_plan() {
    // Transients + a hang on device 0, a hard death on device 1: every
    // request must still complete verified, the outcome set must cover the
    // request indices exactly, and recovery must be visible in the ledger.
    // Which jobs a worker takes is up to the schedule on the threaded
    // executor, so only the synchronous one must observe every fault.
    let requests = seeded_requests(10, 42);
    for asynchronous in [false, true] {
        let mut server = pool(&[FPGA, FPGA, "cpu:optimized"]);
        server.inject_faults(0, plan(&[(2, FaultKind::Transient), (40, FaultKind::Hang)]));
        server.inject_faults(1, plan(&[(10, FaultKind::Death)]));

        let report = serve(&mut server, &requests, asynchronous);

        assert_all_served_verified(&report, requests.len());
        if !asynchronous {
            assert!(
                report.ledger.total_retries() >= 1,
                "faults must be detected"
            );
            assert!(report.recovered_requests >= 1);
            assert!(
                report.fault_events.iter().any(|e| e.device == 1),
                "the death on device 1 must be observed"
            );
        }
    }
}

#[test]
fn live_serves_match_the_fault_free_bits_when_retries_stay_on_peers() {
    // Three identical boards under a death, a transient and a hang: every
    // retry lands on an equivalent board, so released solutions must match
    // the fault-free run bit for bit, and nothing may be left unserved.
    // The threaded executor repeats the run across schedules.
    let requests = seeded_requests(8, 7);
    let boards = [FPGA, FPGA, FPGA];
    let baseline = serve(&mut pool(&boards), &requests, false);
    assert_all_served_verified(&baseline, requests.len());

    for asynchronous in [false, true] {
        let runs = if asynchronous {
            (stress_iters() / 10).max(1)
        } else {
            1
        };
        for _ in 0..runs {
            let mut server = pool(&boards);
            server.inject_faults(0, plan(&[(5, FaultKind::Death)]));
            server.inject_faults(1, plan(&[(3, FaultKind::Transient)]));
            server.inject_faults(2, plan(&[(4, FaultKind::Hang)]));
            let faulted = serve(&mut server, &requests, asynchronous);

            assert_all_served_verified(&faulted, requests.len());
            for (a, b) in baseline.outcomes.iter().zip(&faulted.outcomes) {
                assert_eq!(
                    a.solution.as_slice(),
                    b.solution.as_slice(),
                    "async {asynchronous}: request {} drifted from the fault-free bits",
                    a.request
                );
            }
            assert_eq!(
                faulted.fallback_jobs, 0,
                "async {asynchronous}: no job needed the fallback device"
            );
        }
    }
}

#[test]
fn live_serves_degrade_to_the_cpu_reserve_when_every_accelerator_dies() {
    // Both boards die almost immediately: the host must degrade onto the
    // cpu reserve and still complete every request rather than dropping
    // any.  The synchronous executor reaches it through the fallback; on
    // the threaded one the cpu worker is simply the last one standing.
    let requests = seeded_requests(6, 11);
    for asynchronous in [false, true] {
        let mut server = pool(&[FPGA, FPGA, "cpu:optimized"]);
        for device in 0..2 {
            server.inject_faults(device, plan(&[(1, FaultKind::Death)]));
        }

        let report = serve(&mut server, &requests, asynchronous);

        assert_all_served_verified(&report, requests.len());
        assert!(
            report.outcomes.iter().all(|o| o.device == 2),
            "async {asynchronous}: only the cpu reserve can answer"
        );
        if !asynchronous {
            assert!(
                report.fallback_jobs >= 1,
                "with every accelerator dark, work must land on the reserve"
            );
        }
    }
}

#[test]
fn both_executors_charge_one_recovery_ladder_on_a_one_board_pool() {
    // One board serves a 2-request closed set under one fault kind at a
    // time.  Every failed attempt recovers through the same ladder
    // (backoff, breaker, probes, fallback), so the threaded executor must
    // charge exactly what the synchronous one does; under `Death` that
    // includes the probes and the quarantine of the dead board.
    let fault = FaultToleranceOptions {
        timeout_factor: 2.0,
        ..FaultToleranceOptions::default()
    };
    let requests = seeded_requests(2, 5);
    let cases = [
        ("transient", plan(&[(2, FaultKind::Transient)])),
        ("hang", plan(&[(1, FaultKind::Hang)])),
        (
            "slowdown",
            plan(&[(0, FaultKind::Slowdown { factor: 64.0 })]),
        ),
        ("death", plan(&[(0, FaultKind::Death)])),
    ];
    for (name, plan) in cases {
        let charges = [false, true].map(|asynchronous| {
            let mut server = pool(&[FPGA]);
            server.inject_faults(0, plan.clone());
            let summary = serve_with(&mut server, &requests, asynchronous, fault).chaos_summary();
            (
                summary.faults_by_reason,
                summary.retries_total,
                summary.recovered_requests,
                summary.fallback_jobs,
                summary.probes,
                summary.quarantines_total,
                summary.unserved,
            )
        });
        let [sync, threaded] = charges;
        assert!(!sync.0.is_empty(), "{name}: the fault must be detected");
        assert_eq!(sync, threaded, "{name}: (sync, threaded) charges differ");
        if name == "death" {
            assert!(sync.4 > 0 && sync.5 > 0, "{name}: {sync:?}");
        }
    }
}
