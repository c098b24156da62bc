//! Chaos conservation battery: seeded fault mixes through the worker
//! pool and the fault-tolerant streaming host, proving **no
//! job is ever lost** — every run delivers results that are exactly `0..n`,
//! or hands the remainder back explicitly when the whole pool dies.  Each
//! end-to-end test runs on both executors of the streaming host.
//!
//! Lives in its own integration-test binary (like `tests/explore.rs`) so
//! the threaded runs here never share a process with the schedule
//! explorer's process-global hook.

use std::sync::atomic::{AtomicUsize, Ordering};

use fpga_sim::{FaultKind, FaultPlan, ScheduledFault};
use sem_serve::{
    run_stealing, run_stealing_with_feeder, ArrivalStream, JobVerdict, LiveOptions, LiveReport,
    ProblemSpec, ServeOptions, ServeRequest, Server, StealRun,
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
fn seeded_retry_mixes_deliver_exactly_zero_to_n() {
    // Across several seeds: a seeded subset of payloads fails once with a
    // recoverable verdict, everything is retried through the injector, and
    // the delivered results are exactly 0..n every time.
    for seed in [1_u64, 7, 42, 0xC0FFEE] {
        let n = 24;
        let workers = 3;
        let mut state = seed;
        let retry_once: Vec<bool> = (0..n).map(|_| draw(&mut state, 3) == 0).collect();
        let attempts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();

        let run: StealRun<usize, usize, usize> = run_stealing(
            vec![0usize; workers],
            jobs(n),
            |_worker, _state, payload: usize| {
                if retry_once[payload] && attempts[payload].fetch_add(1, Ordering::SeqCst) == 0 {
                    return JobVerdict::Retry(payload);
                }
                JobVerdict::Done(payload)
            },
        );

        assert_eq!(delivered(&run), (0..n).collect::<Vec<usize>>());
        assert!(run.unfinished.is_empty());
        let expected_retries = retry_once.iter().filter(|r| **r).count();
        assert_eq!(run.retries, expected_retries, "seed {seed}");
        assert_eq!(run.died, vec![false; workers]);
    }
}

#[test]
fn a_dying_worker_hands_its_job_to_a_survivor_and_loses_nothing() {
    // Worker 0 dies on the first job it touches: the survivors must still
    // deliver exactly 0..n, the job it died holding among them.  Survivors
    // gate on the death so worker 0 provably takes a job before the queue
    // drains — without the gate a pathological schedule could let them
    // empty it first and the test would not pin the hand-back path.
    let n = 16;
    let workers = 3;
    let held = AtomicUsize::new(usize::MAX);

    let run: StealRun<usize, usize, usize> =
        run_stealing(vec![0usize; workers], jobs(n), |worker, _state, payload| {
            if worker == 0 {
                held.store(payload, Ordering::SeqCst);
                return JobVerdict::Fatal(payload);
            }
            while held.load(Ordering::SeqCst) == usize::MAX {
                std::thread::yield_now();
            }
            JobVerdict::Done(payload)
        });

    assert_eq!(delivered(&run), (0..n).collect::<Vec<usize>>());
    assert!(run.unfinished.is_empty());
    assert!(run.died[0], "worker 0 must retire through Fatal");
    assert_eq!(run.alive_workers(), workers - 1);
    assert_eq!(
        run.workers[0].executed_jobs, 0,
        "a dead worker must not deliver results"
    );
    let held = held.load(Ordering::SeqCst);
    let delivery = run.completed.iter().find(|c| c.result == held);
    assert!(
        delivery.is_some_and(|c| c.worker != 0),
        "the job worker 0 died holding must be delivered by a survivor"
    );
}

#[test]
fn retries_racing_a_live_feeder_still_conserve_jobs() {
    // Half the jobs arrive through the feeder while seeded retry verdicts
    // bounce payloads back through the injector: the done-flag race must
    // not let a requeued job slip past termination.
    for seed in [3_u64, 99, 0xFEED] {
        let preloaded = 10;
        let fed = 10;
        let n = preloaded + fed;
        let workers = 3;
        let mut state = seed;
        let retry_once: Vec<bool> = (0..n).map(|_| draw(&mut state, 2) == 0).collect();
        let attempts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();

        let run: StealRun<usize, usize, usize> = run_stealing_with_feeder(
            vec![0usize; workers],
            jobs(preloaded),
            |handle| {
                for payload in preloaded..n {
                    handle.push(payload);
                }
            },
            |_worker, _state, payload: usize| {
                if retry_once[payload] && attempts[payload].fetch_add(1, Ordering::SeqCst) == 0 {
                    return JobVerdict::Retry(payload);
                }
                JobVerdict::Done(payload)
            },
        );

        assert_eq!(
            delivered(&run),
            (0..n).collect::<Vec<usize>>(),
            "seed {seed}"
        );
        assert!(run.unfinished.is_empty());
        assert_eq!(
            run.retries,
            retry_once.iter().filter(|r| **r).count(),
            "seed {seed}"
        );
    }
}

#[test]
fn a_fully_dead_pool_hands_every_job_back() {
    // When every worker dies, nothing can complete — but nothing may be
    // dropped either: completed + unfinished must still be exactly 0..n so
    // the caller can degrade the remainder onto host backends.
    let n = 12;
    let workers = 2;
    let run: StealRun<usize, usize, usize> = run_stealing(
        vec![0usize; workers],
        jobs(n),
        |_worker, _state, payload: usize| JobVerdict::Fatal(payload),
    );

    assert_eq!(run.alive_workers(), 0);
    assert!(run.completed.is_empty());
    assert_conserved(&run, n);
}

#[test]
fn seeded_death_and_retry_storms_conserve_jobs() {
    // The combined storm: a seeded fatal worker plus seeded retry payloads,
    // across several seeds — the union contract must hold in every mix.
    for seed in [11_u64, 1234, 0xBEEF, 987_654_321] {
        let n = 20;
        let workers = 4;
        let mut state = seed;
        let fatal_worker = draw(&mut state, workers as u64) as usize;
        let retry_once: Vec<bool> = (0..n).map(|_| draw(&mut state, 4) == 0).collect();
        let attempts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();

        let run: StealRun<usize, usize, usize> = run_stealing(
            vec![0usize; workers],
            jobs(n),
            |worker, _state, payload: usize| {
                if worker == fatal_worker {
                    return JobVerdict::Fatal(payload);
                }
                if retry_once[payload] && attempts[payload].fetch_add(1, Ordering::SeqCst) == 0 {
                    return JobVerdict::Retry(payload);
                }
                JobVerdict::Done(payload)
            },
        );

        assert_conserved(&run, n);
        // Whether the scripted worker actually dies is schedule-dependent
        // (on a loaded host its siblings can drain the queue before it ever
        // claims a job) — but death is the *only* way out of the pool, and
        // the delivered set must be exactly 0..n either way.
        for (worker, died) in run.died.iter().enumerate() {
            assert!(
                !died || worker == fatal_worker,
                "seed {seed}: only the scripted worker may die"
            );
        }
        if run.died[fatal_worker] {
            assert_eq!(run.alive_workers(), workers - 1, "seed {seed}");
            assert_eq!(run.workers[fatal_worker].executed_jobs, 0, "seed {seed}");
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
/// deadline) on the threaded executor when `asynchronous`, else inline.
fn serve(server: &mut Server, requests: &[ServeRequest], asynchronous: bool) -> LiveReport {
    let stream = ArrivalStream::closed(requests);
    let live = LiveOptions {
        deadline_seconds: f64::INFINITY,
        ..LiveOptions::default()
    };
    if asynchronous {
        server.serve_stream_async(&stream, &live, None)
    } else {
        server.serve_stream(&stream, &live, None)
    }
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
