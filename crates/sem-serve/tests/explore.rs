//! Schedule-exploration smoke battery: drives `run_stealing` through
//! bounded interleavings via the crossbeam schedule hook and asserts the
//! host's contract on every schedule.
//!
//! Lives in its own integration-test binary on purpose: the schedule hook
//! is process-global, so exploration must not share a process with other
//! tests that call `run_stealing` concurrently.  `SEM_SCHED_ITERS` caps the
//! schedule budget (CI smoke uses a small value; the stress job a larger
//! one).

use sem_serve::{explore_case, standard_battery, ExploreCase, Strategy};

fn schedule_budget(default: usize) -> usize {
    std::env::var("SEM_SCHED_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn standard_battery_upholds_the_contract_on_every_schedule() {
    let reports = standard_battery(schedule_budget(1500));
    let mut total = 0;
    for report in &reports {
        assert!(
            report.violations.is_empty(),
            "case {} violated the contract:\n{}",
            report.name,
            report.violations.join("\n")
        );
        assert!(
            report.schedules > 0,
            "case {} ran no schedules",
            report.name
        );
        // Transition coverage: workers only take from the shared queue
        // (`is`) and send results (`cs`); nothing is ever pushed back, so
        // a controlled thread never pushes (`ip`).  Every case must
        // interleave takes with sends (measured: `is>is is>cs cs>is` in
        // every case at fifty schedules each).  A collapse below this means
        // the explorer stopped actually interleaving ops.
        let map = report.transition_map();
        for class in ["is>is", "is>cs", "cs>is"] {
            assert!(
                map.split(' ').any(|c| c == class),
                "case {} never realized {class}: {map}",
                report.name
            );
        }
        total += report.schedules;
    }
    // Seven cases (feeder cases walk seeded, the rest depth-first; two
    // carry fault schedules): the battery covers a healthy slice of the
    // interleaving space even under the CI smoke budget.
    assert!(
        total >= reports.len() * 10,
        "expected meaningful coverage, got {total} schedules"
    );
}

#[test]
fn single_worker_case_is_exhausted_with_one_schedule() {
    // One worker means one parked thread at every decision point: the
    // choice tree is a single path and DFS proves it immediately.
    let case = ExploreCase {
        name: "solo",
        workers: 1,
        jobs: 2,
        feeder_jobs: 0,
        contention: 0,
        fatal_workers: Vec::new(),
    };
    let report = explore_case(&case, Strategy::Exhaustive, 16);
    assert!(report.exhausted, "a one-worker tree has a single schedule");
    assert_eq!(report.schedules, 1);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn exhaustive_runs_are_distinct_by_construction() {
    let case = ExploreCase {
        name: "pair",
        workers: 2,
        jobs: 1,
        feeder_jobs: 0,
        contention: 0,
        fatal_workers: Vec::new(),
    };
    let report = explore_case(&case, Strategy::Exhaustive, 400);
    // Every DFS replay differs from every other in at least one choice, so
    // the distinct-trace count must equal the number of runs performed.
    assert!(
        report.schedules >= 2,
        "two workers racing one job must fork"
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn seeded_walks_find_many_distinct_schedules() {
    let case = ExploreCase {
        name: "seeded-walk",
        workers: 3,
        jobs: 3,
        feeder_jobs: 0,
        contention: 0,
        fatal_workers: Vec::new(),
    };
    let report = explore_case(&case, Strategy::Seeded(0xFEED_5EED), 64);
    assert!(report.schedules > 8, "random walks should diverge quickly");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn transition_coverage_saturates_under_a_fixed_exhaustive_budget() {
    // DFS exploration is deterministic, so the coverage map at a fixed
    // budget is a stable fingerprint of the host's scheduling behaviour.
    // shared-queue realizes `is>is is>cs cs>is` at 200 and at 400
    // schedules (measured) — every class a fault-free take/send loop
    // produces except back-to-back sends; pin it so a host change that
    // *narrows* the realizable interleavings trips this test.
    let case = ExploreCase {
        name: "shared-queue",
        workers: 2,
        jobs: 3,
        feeder_jobs: 0,
        contention: 0,
        fatal_workers: Vec::new(),
    };
    let half = explore_case(&case, Strategy::Exhaustive, 200);
    let full = explore_case(&case, Strategy::Exhaustive, 400);
    assert!(
        full.transitions.len() >= 3,
        "expected >= 3 transition classes, got {}: {}",
        full.transitions.len(),
        full.transition_map()
    );
    // Saturation: doubling the budget must not keep unlocking new classes
    // at the rate raw distinct-trace counts grow.
    assert!(
        full.transitions.len() <= half.transitions.len() + 2,
        "coverage still climbing steeply: {} -> {} classes",
        half.transitions.len(),
        full.transitions.len()
    );
    assert!(full.violations.is_empty(), "{:?}", full.violations);
}

#[test]
fn regression_worker_send_failure_must_not_panic_the_pool() {
    // Pin the fix for the former `tx.send(...).unwrap()` in the worker
    // loop: a torn-down channel mid-run must end the worker quietly, not
    // panic it with the pool still live.  The explorer cannot tear the
    // channel down mid-run (the receiver outlives the scope), so this
    // exercises the code path the defect lived on: every standard case
    // completes with workers exiting via the normal empty-take path, and
    // a schedule in which one worker drains everything leaves the others
    // returning ledgers instead of unwinding.
    let case = ExploreCase {
        name: "greedy-drain",
        workers: 2,
        jobs: 4,
        feeder_jobs: 0,
        contention: 0,
        fatal_workers: Vec::new(),
    };
    let report = explore_case(&case, Strategy::Seeded(7), 48);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}
