//! Seeded stress/property battery for the coalescer and the worker pool:
//! random request streams (shapes, sizes, arrival bursts) must never drop,
//! duplicate, or reorder a request, across at least 100 seeded cases.
//!
//! The case count scales with `SEM_STRESS_ITERS` (default 100) so CI's
//! release stress job can run the battery harder without code changes.
//! Everything here is seeded and assertion-deterministic: no wall-clock
//! comparisons, only conservation, ordering and accounting invariants.

use rand::{Rng, SeedableRng, StdRng};
use sem_serve::steal::{run_stealing_with_feeder, JobVerdict, StealRun};
use sem_serve::{
    ArrivalStream, LiveOptions, ProblemSpec, ServeOptions, ServeRequest, Server, TimedRequest,
};
use sem_solver::CgOptions;
use std::collections::BTreeSet;

/// Seeded cases to run per property (CI raises this via `SEM_STRESS_ITERS`).
fn stress_iters() -> u64 {
    std::env::var("SEM_STRESS_ITERS")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(100)
}

/// A random mixed request stream: bursts of equal-shaped requests (the
/// arrival pattern that stacks jobs behind one device) interleaved with
/// single arrivals.
fn random_stream(rng: &mut StdRng) -> Vec<ServeRequest> {
    let shapes = [
        ProblemSpec::cube(2, 2),
        ProblemSpec::cube(3, 2),
        ProblemSpec::cube(4, 2),
        ProblemSpec {
            degree: 3,
            elements: [2, 1, 1],
        },
    ];
    let mut requests = Vec::new();
    let arrivals = rng.gen_range(0..40_usize);
    while requests.len() < arrivals {
        let spec = shapes[rng.gen_range(0..shapes.len())];
        // A burst keeps one shape arriving back-to-back.
        let burst = rng.gen_range(1..=6_usize);
        for _ in 0..burst {
            requests.push(ServeRequest::seeded(spec, rng.gen_range(0..1_000_u64)));
        }
    }
    requests
}

/// Run `num_jobs` jobs on a `pool`-worker pool whose executor delivers
/// each payload unchanged, as a host that never retries does: the first
/// `up_front` are queued before the workers spawn, the rest arrive through
/// the live feeder the serving host uses.
fn echo_run(pool: usize, num_jobs: usize, up_front: usize) -> StealRun<usize, (), usize> {
    run_stealing_with_feeder(
        vec![(); pool],
        (0..up_front).collect(),
        |feeder| (up_front..num_jobs).for_each(|payload| feeder.push(payload)),
        |_, (), payload| JobVerdict::Done(payload),
    )
}

#[test]
fn packing_conserves_every_request_across_seeded_streams() {
    let cases = stress_iters();
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let requests = random_stream(&mut rng);
        let max_batch = rng.gen_range(1..=8_usize);
        // Random arrival gaps (many simultaneous) and batching window.
        let mut at = 0.0;
        let stream = ArrivalStream::new(
            requests
                .iter()
                .map(|&request| {
                    if rng.gen_range(0..2_u32) == 0 {
                        at += rng.gen_range(0..4_u32) as f64 * 0.25;
                    }
                    TimedRequest {
                        arrival_seconds: at,
                        request,
                    }
                })
                .collect(),
        );
        let window = rng.gen_range(0..3_u32) as f64 * 0.5;
        let jobs = stream.coalesce(max_batch, window);
        let arrivals = stream.arrivals();

        // Conservation: every request id appears in exactly one job.
        let mut seen = Vec::new();
        let mut last_stamp = 0.0;
        for (job, stamp) in &jobs {
            assert!(
                job.batch_size() >= 1 && job.batch_size() <= max_batch,
                "seed {seed}"
            );
            for &request in &job.requests {
                assert_eq!(
                    arrivals[request].request.spec, job.spec,
                    "seed {seed}: shape mix"
                );
            }
            // A job is stamped with its last member's arrival, within the
            // window of its first, and stamps never go back in time.
            let first = arrivals[job.requests[0]].arrival_seconds;
            let last = arrivals[*job.requests.last().expect("non-empty")].arrival_seconds;
            assert_eq!(*stamp, last, "seed {seed}");
            assert!(last - first <= window, "seed {seed}: window overrun");
            assert!(*stamp >= last_stamp, "seed {seed}: stamps regress");
            last_stamp = *stamp;
            seen.extend(job.requests.iter().copied());
        }
        assert_eq!(
            seen.len(),
            requests.len(),
            "seed {seed}: dropped/duplicated"
        );
        let unique: BTreeSet<usize> = seen.iter().copied().collect();
        assert_eq!(unique.len(), requests.len(), "seed {seed}");

        // Order: within a shape, requests stay in arrival order.
        let mut shapes_seen: Vec<ProblemSpec> = Vec::new();
        for (job, _) in &jobs {
            if !shapes_seen.contains(&job.spec) {
                shapes_seen.push(job.spec);
            }
        }
        for spec in shapes_seen {
            let packed: Vec<usize> = jobs
                .iter()
                .filter(|(job, _)| job.spec == spec)
                .flat_map(|(job, _)| job.requests.iter().copied())
                .collect();
            let mut sorted = packed.clone();
            sorted.sort_unstable();
            assert_eq!(packed, sorted, "seed {seed}: reordered within shape");
        }
    }
}

#[test]
fn the_pool_conserves_jobs_across_seeded_pools() {
    let cases = stress_iters();
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(0x5EA1 ^ seed);
        let pool = rng.gen_range(1..=6_usize);
        let num_jobs = rng.gen_range(0..120_usize);
        let up_front = rng.gen_range(0..=num_jobs);

        let run = echo_run(pool, num_jobs, up_front);

        // Conservation: every job executed exactly once, nothing invented.
        assert_eq!(run.completed.len(), num_jobs, "seed {seed}");
        let seen: BTreeSet<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(seen.len(), num_jobs, "seed {seed}: duplicate execution");
        let ledger_total: usize = run.workers.iter().map(|w| w.executed_jobs).sum();
        assert_eq!(ledger_total, num_jobs, "seed {seed}: ledger drift");
        assert!(run.completed.iter().all(|c| c.worker < pool), "seed {seed}");
    }
}

#[test]
fn single_worker_pools_drain_the_queue_in_submission_order() {
    // With one worker the shared queue is drained FIFO: up-front jobs
    // first, then the fed ones in push order, so the completion order must
    // equal the submission order for every seed.
    let cases = stress_iters().min(50);
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(0xF1F0 ^ seed);
        let num_jobs = rng.gen_range(1..60_usize);
        let up_front = rng.gen_range(0..=num_jobs);
        let run = echo_run(1, num_jobs, up_front);
        let order: Vec<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(order, (0..num_jobs).collect::<Vec<_>>(), "seed {seed}");
    }
}

#[test]
fn end_to_end_async_serves_random_streams_bitwise_like_serve() {
    // Full-stack spot checks: a handful of the seeded streams actually
    // solve, as closed sets, through the threaded executor on a homogeneous
    // pool and must match the synchronous executor bitwise, answer for
    // answer.
    let cases = (stress_iters() / 20).clamp(3, 10);
    let options = ServeOptions {
        cg: CgOptions {
            max_iterations: 600,
            tolerance: 1e-9,
            record_history: false,
        },
        max_batch: 3,
        ..ServeOptions::default()
    };
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(0xE2E ^ seed);
        let mut requests = random_stream(&mut rng);
        requests.truncate(12); // keep the battery fast; shapes still mix
        if requests.is_empty() {
            requests.push(ServeRequest::seeded(ProblemSpec::cube(2, 2), seed));
        }
        let pool = ["cpu:optimized", "cpu:optimized"];
        let stream = ArrivalStream::closed(&requests);
        let live = LiveOptions {
            deadline_seconds: f64::INFINITY,
            ..LiveOptions::default()
        };
        let mut sync_server = Server::from_registry_names(&pool, options);
        let sync = sync_server.serve_stream(&stream, &live, None);
        let mut async_server = Server::from_registry_names(&pool, options);
        let run = async_server.serve_stream_async(&stream, &live, None);

        assert_eq!(run.outcomes.len(), requests.len(), "seed {seed}");
        for (i, (a, s)) in run.outcomes.iter().zip(&sync.outcomes).enumerate() {
            assert_eq!(a.request, i, "seed {seed}");
            assert_eq!(
                a.solution.as_slice(),
                s.solution.as_slice(),
                "seed {seed}: request {i} diverged across hosts"
            );
        }
    }
}
