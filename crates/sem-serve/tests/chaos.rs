//! Chaos conservation battery: seeded fault mixes through the
//! work-stealing pool and the end-to-end chaos server, proving **no job is
//! ever lost** — every run delivers results that are exactly `0..n`, or
//! hands the remainder back explicitly when the whole pool dies.
//!
//! Lives in its own integration-test binary (like `tests/explore.rs`) so
//! the threaded runs here never share a process with the schedule
//! explorer's process-global hook.

use std::sync::atomic::{AtomicUsize, Ordering};

use fpga_sim::{FaultKind, FaultPlan, ScheduledFault};
use sem_serve::{
    run_stealing, run_stealing_with_feeder, FaultToleranceOptions, JobVerdict, ProblemSpec,
    ServeOptions, ServeRequest, Server, StealRun, TaggedJob,
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

/// `n` jobs, a seeded mix of hinted and floating, payload == index.
fn seeded_jobs(n: usize, workers: usize, seed: u64) -> Vec<TaggedJob<usize>> {
    let mut state = seed;
    (0..n)
        .map(|payload| {
            let hint = if draw(&mut state, 2) == 0 {
                Some(draw(&mut state, workers as u64) as usize)
            } else {
                None
            };
            TaggedJob { payload, hint }
        })
        .collect()
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
            seeded_jobs(n, workers, seed ^ 0xA5A5),
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
fn a_dying_worker_requeues_its_deque_and_loses_nothing() {
    // Every job is hinted to worker 0, which dies on the first job it
    // touches: the survivors must still deliver exactly 0..n, and the
    // drained deque shows up in the requeue counter.  Survivors gate on
    // the death so the deque is provably nonempty when it drains —
    // without the gate a pathological schedule could let the thieves
    // empty it first and the test would not pin the drain path.
    let n = 16;
    let workers = 3;
    let jobs: Vec<TaggedJob<usize>> = (0..n)
        .map(|payload| TaggedJob {
            payload,
            hint: Some(0),
        })
        .collect();
    let death_seen = AtomicUsize::new(0);

    let run: StealRun<usize, usize, usize> =
        run_stealing(vec![0usize; workers], jobs, |worker, _state, payload| {
            if worker == 0 {
                death_seen.store(1, Ordering::SeqCst);
                return JobVerdict::Fatal(payload);
            }
            while death_seen.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            JobVerdict::Done(payload)
        });

    assert_eq!(delivered(&run), (0..n).collect::<Vec<usize>>());
    assert!(run.unfinished.is_empty());
    assert!(run.died[0], "worker 0 must retire through Fatal");
    assert_eq!(run.alive_workers(), workers - 1);
    // The fatal verdict requeues its in-flight payload, so the counter is
    // at least 1 even when the survivors had already emptied the deque.
    assert!(run.requeued_on_death >= 1);
    assert_eq!(
        run.workers[0].executed_jobs, 0,
        "a dead worker must not deliver results"
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
            seeded_jobs(preloaded, workers, seed ^ 0x5A5A),
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
        seeded_jobs(n, workers, 0xDEAD),
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
            seeded_jobs(n, workers, seed ^ 0x1111),
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

/// Seeded requests on a small cube, shared by the end-to-end tests.
fn seeded_requests(n: usize, seed: u64) -> Vec<ServeRequest> {
    let spec = ProblemSpec::cube(3, 2);
    (0..n)
        .map(|i| ServeRequest::seeded(spec, seed.wrapping_add(i as u64)))
        .collect()
}

fn small_pool() -> Server {
    Server::from_registry_names(
        &[FPGA, FPGA, "cpu:optimized"],
        ServeOptions {
            max_batch: 2,
            ..ServeOptions::default()
        },
    )
}

#[test]
fn chaos_serve_completes_every_request_verified_under_a_mixed_fault_plan() {
    // Transients + a hang on device 0, a hard death on device 1: every
    // request must still complete verified, the outcome set must cover the
    // request indices exactly, and recovery must be visible in the ledger.
    let requests = seeded_requests(10, 42);
    let mut server = small_pool();
    server.inject_faults(
        0,
        FaultPlan::new(vec![
            ScheduledFault {
                at_op: 2,
                kind: FaultKind::Transient,
            },
            ScheduledFault {
                at_op: 40,
                kind: FaultKind::Hang,
            },
        ]),
    );
    server.inject_faults(
        1,
        FaultPlan::new(vec![ScheduledFault {
            at_op: 10,
            kind: FaultKind::Death,
        }]),
    );

    let report = server.serve_chaos(&requests, FaultToleranceOptions::default());

    assert!(
        report.unserved.is_empty(),
        "no admitted request may be lost"
    );
    let mut served: Vec<usize> = report.outcomes.iter().map(|o| o.request).collect();
    served.sort_unstable();
    assert_eq!(
        served,
        (0..requests.len()).collect::<Vec<usize>>(),
        "outcomes must cover the request indices exactly"
    );
    for outcome in &report.outcomes {
        assert!(
            outcome.converged,
            "request {} released unverified",
            outcome.request
        );
        assert!(outcome.fault.is_none(), "a poisoned solve was released");
    }
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

#[test]
fn chaos_serve_matches_the_fault_free_bits_when_retries_stay_on_peers() {
    // Two identical boards: a death on one forces every retry onto the
    // equivalent peer, so released solutions must match the fault-free run
    // bit for bit.
    let requests = seeded_requests(8, 7);
    let chaos = FaultToleranceOptions::default();

    let baseline = small_pool().serve_chaos(&requests, chaos);
    assert!(baseline.unserved.is_empty());

    let mut server = small_pool();
    server.inject_faults(
        0,
        FaultPlan::new(vec![ScheduledFault {
            at_op: 5,
            kind: FaultKind::Death,
        }]),
    );
    let faulted = server.serve_chaos(&requests, chaos);

    assert!(faulted.unserved.is_empty());
    assert_eq!(baseline.outcomes.len(), faulted.outcomes.len());
    for (a, b) in baseline.outcomes.iter().zip(&faulted.outcomes) {
        assert_eq!(a.request, b.request);
        assert_eq!(
            a.solution.as_slice(),
            b.solution.as_slice(),
            "request {} drifted from the fault-free bits",
            a.request
        );
    }
    assert_eq!(faulted.fallback_jobs, 0, "the cpu reserve was not needed");
}

#[test]
fn chaos_serve_degrades_to_the_cpu_reserve_when_every_accelerator_dies() {
    // Both boards die almost immediately: the host must degrade onto the
    // cpu reserve and still complete every request rather than dropping
    // any.
    let requests = seeded_requests(6, 11);
    let mut server = small_pool();
    for device in 0..2 {
        server.inject_faults(
            device,
            FaultPlan::new(vec![ScheduledFault {
                at_op: 1,
                kind: FaultKind::Death,
            }]),
        );
    }

    let report = server.serve_chaos(&requests, FaultToleranceOptions::default());

    assert!(report.unserved.is_empty(), "degradation must not lose jobs");
    let mut served: Vec<usize> = report.outcomes.iter().map(|o| o.request).collect();
    served.sort_unstable();
    assert_eq!(served, (0..requests.len()).collect::<Vec<usize>>());
    assert!(report.outcomes.iter().all(|o| o.converged));
    assert!(
        report.fallback_jobs >= 1,
        "with every accelerator dark, work must land on the reserve"
    );
}
