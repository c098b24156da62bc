//! The execution core of the threaded serving executor: one worker thread
//! per device slot, all fed from one shared FIFO queue.
//!
//! [`run_stealing`] is deliberately generic over the job payload, the
//! per-worker owned state, and the result type, so the exact machinery that
//! runs device sessions in [`crate::Server::serve_stream_async`] can also
//! be stress-tested with thousands of cheap synthetic jobs (see
//! `tests/stress.rs`) and explored schedule by schedule (see
//! [`crate::explore`]).
//!
//! ## One shared queue
//!
//! Nothing is placed on a worker ahead of time.  Jobs handed over before
//! the workers spawn and jobs a live feeder pushes while they run (see
//! [`run_stealing_with_feeder`]) all go to one shared [`Injector`], and
//! every worker loops taking its oldest job — whichever device frees up
//! first runs the next job, the way the paper's host streams work to the
//! accelerator.
//!
//! ## Verdicts
//!
//! The pool attempts each job at most once.  The executor resolves every
//! job it runs with a [`JobVerdict`], and both verdicts deliver the result:
//! `Done` keeps the worker in the pool, `Retire` (a dead device) stops it
//! so its survivors keep draining the queue.  What a failed attempt means
//! is the caller's to decide — the serving host judges each attempt on the
//! worker and recovers failures after the pool drains.  The run **conserves
//! jobs**: every job is delivered exactly once, or — only when every worker
//! retired — handed back untaken in [`StealRun::unfinished`].
//!
//! ## Termination: the feeder-done flag
//!
//! A worker exits on the first **empty take that began after it observed
//! the feeder-done flag set**.  The feeder stores the flag (SeqCst) only
//! after its last push, and no job ever re-enters the queue, so such a take
//! has seen every job that will ever exist.  A run without a feeder starts
//! with the flag already set.
//!
//! Contended takes (a [`Steal::Retry`]) and empty-but-not-finished takes
//! share one backoff path: park/unpark telemetry around a scheduler yield.

use crossbeam::channel;
use crossbeam::deque::{Injector, Steal};
use sem_obs::{recorder, Scope, SpanEvent, SpanKind};
use std::sync::atomic::{AtomicBool, Ordering};

/// One executed job, in completion order.
#[derive(Debug, Clone)]
pub struct CompletedJob<R> {
    /// The worker that actually executed the job.
    pub worker: usize,
    /// What the executor returned.
    pub result: R,
}

/// Per-worker accounting of one run, with the worker's owned state handed
/// back to the caller.
#[derive(Debug)]
pub struct WorkerLedger<S> {
    /// The state the worker owned for the duration of the run.
    pub state: S,
    /// Jobs this worker executed and delivered.
    pub executed_jobs: usize,
}

/// How an executor resolved one job.  Either way the result is delivered;
/// the job is never run again.
#[derive(Debug)]
pub enum JobVerdict<R> {
    /// Deliver the result; the worker takes its next job.
    Done(R),
    /// Deliver the result and retire the **worker**: its device is unusable
    /// (dead), so it takes no further job.
    Retire(R),
}

/// The outcome of one pool run.
#[derive(Debug)]
pub struct StealRun<T, S, R> {
    /// Every delivered result, in completion order (the order results
    /// crossed the channel, not submission order — the caller
    /// re-sequences).
    pub completed: Vec<CompletedJob<R>>,
    /// Per-worker ledgers, indexed like the input states.  Retired workers
    /// still hand their state back — a dead device's sessions return to
    /// the caller, they are not leaked with the worker.
    pub workers: Vec<WorkerLedger<S>>,
    /// Which workers retired through [`JobVerdict::Retire`] (parallel to
    /// `workers`).
    pub died: Vec<bool>,
    /// Jobs never taken — non-empty only when *every* worker retired with
    /// work left.  The caller owns them; they are never silently dropped.
    pub unfinished: Vec<T>,
}

impl<T, S, R> StealRun<T, S, R> {
    /// Workers that did not retire.
    #[must_use]
    pub fn alive_workers(&self) -> usize {
        self.died.iter().filter(|&&d| !d).count()
    }
}

/// The live-arrival side of a streaming run: the handle the feeder closure
/// pushes work through while the worker pool is already draining.
#[derive(Debug)]
pub struct FeederHandle<'a, T> {
    injector: &'a Injector<T>,
}

impl<T> FeederHandle<'_, T> {
    /// Push one live arrival into the shared queue.
    ///
    /// A feeder pushes what it has without yielding between pushes.  It
    /// runs on the calling thread beside the workers; on a host with one
    /// core per worker a feeder that yields after each push is starved of a
    /// core, and the workers spin on an empty queue while it waits.  A feeder
    /// that waits should wait for its next arrival, not for the pool.
    pub fn push(&self, payload: T) {
        self.injector.push(payload);
        let obs = recorder();
        if obs.is_enabled() {
            obs.counter_add("sem_serve_live_arrivals_total", &[], 1);
        }
    }
}

/// Run `jobs` across one thread per entry of `states`, all taking from one
/// shared queue.
///
/// `execute` is called as `execute(worker_index, &mut state, payload)` with
/// the worker's owned state — the state never crosses a thread boundary
/// mid-run, so workers can keep non-`Sync` sessions (each `SemSystem` is
/// owned by exactly one worker at a time) and hand them back through the
/// ledger when the run ends.  Its [`JobVerdict`] decides whether the worker
/// stays in the pool (see the module docs).
///
/// # Panics
/// Panics if `states` is empty.
pub fn run_stealing<T, S, R, F>(states: Vec<S>, jobs: Vec<T>, execute: F) -> StealRun<T, S, R>
where
    T: Send,
    S: Send,
    R: Send,
    F: Fn(usize, &mut S, T) -> JobVerdict<R> + Sync,
{
    run_stealing_inner(states, jobs, None::<fn(&FeederHandle<'_, T>)>, execute)
}

/// Like [`run_stealing`], but with a live feeder: `feeder` runs on the
/// calling thread *after* the workers are spawned and may push arrivals
/// into the shared queue at any point while the pool drains.  Workers stay
/// alive — backing off through the contended-take path — until the feeder
/// returns and the queue is empty.
///
/// The feeder should push every job it already holds without yielding
/// between pushes (see [`FeederHandle::push`]): it competes with the
/// workers for cores, and a yield hands its core to a worker that then finds
/// the queue empty and spins in backoff.
///
/// # Panics
/// Panics if `states` is empty.
pub fn run_stealing_with_feeder<T, S, R, F, G>(
    states: Vec<S>,
    jobs: Vec<T>,
    feeder: G,
    execute: F,
) -> StealRun<T, S, R>
where
    T: Send,
    S: Send,
    R: Send,
    F: Fn(usize, &mut S, T) -> JobVerdict<R> + Sync,
    G: FnOnce(&FeederHandle<'_, T>),
{
    run_stealing_inner(states, jobs, Some(feeder), execute)
}

fn run_stealing_inner<T, S, R, F, G>(
    states: Vec<S>,
    jobs: Vec<T>,
    feeder: Option<G>,
    execute: F,
) -> StealRun<T, S, R>
where
    T: Send,
    S: Send,
    R: Send,
    F: Fn(usize, &mut S, T) -> JobVerdict<R> + Sync,
    G: FnOnce(&FeederHandle<'_, T>),
{
    let pool = states.len();
    assert!(pool > 0, "need at least one worker");
    let injector = Injector::new();
    for job in jobs {
        injector.push(job);
    }

    // With no feeder the flag starts set: a store from the (uncontrolled)
    // calling thread would otherwise race the workers' first takes.
    let feeder_done = AtomicBool::new(feeder.is_none());
    let (tx, rx) = channel::unbounded::<CompletedJob<R>>();
    let mut ledgers: Vec<Option<(WorkerLedger<S>, bool)>> = Vec::with_capacity(pool);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(pool);
        for (index, mut state) in states.into_iter().enumerate() {
            let tx = tx.clone();
            let injector = &injector;
            let execute = &execute;
            let feeder_done = &feeder_done;
            // lint: no-panic (a worker panic strands the pool mid-run)
            handles.push(scope.spawn(move || {
                // Registers this thread with a schedule explorer when one is
                // installed (`sem_serve::explore`); inert in production.
                let _control = crossbeam::sched::controlled(index);
                let mut executed_jobs = 0;
                let mut died = false;
                while let Some(payload) = next_job(index, injector, feeder_done) {
                    let (result, retire) = match execute(index, &mut state, payload) {
                        JobVerdict::Done(result) => (result, false),
                        JobVerdict::Retire(result) => (result, true),
                    };
                    executed_jobs += 1;
                    died = retire;
                    // The receiver outlives the scope by construction, so a
                    // failed send can only mean the channel was torn down
                    // mid-run; stop taking work instead of panicking with
                    // the pool still live.
                    let torn = tx
                        .send(CompletedJob {
                            worker: index,
                            result,
                        })
                        .is_err();
                    if torn || retire {
                        break;
                    }
                }
                (
                    WorkerLedger {
                        state,
                        executed_jobs,
                    },
                    died,
                )
            }));
        }
        drop(tx);
        if let Some(feed) = feeder {
            // The feeder runs on the calling thread, uncontrolled by any
            // schedule explorer: live arrivals are outside the pool under
            // test.  Every push lands before the done flag is stored.
            feed(&FeederHandle {
                injector: &injector,
            });
            feeder_done.store(true, Ordering::SeqCst);
        }
        for handle in handles {
            ledgers.push(Some(handle.join().expect("worker thread panicked")));
        }
    });

    // Only a fully retired pool leaves work behind; hand it back rather
    // than lose it.
    let mut unfinished = Vec::new();
    loop {
        match injector.steal() {
            Steal::Success(job) => unfinished.push(job),
            Steal::Retry => {}
            Steal::Empty => break,
        }
    }

    let completed = rx.iter().collect();
    let (workers, died): (Vec<WorkerLedger<S>>, Vec<bool>) = ledgers
        .into_iter()
        .map(|entry| entry.expect("every worker joined"))
        .unzip();
    StealRun {
        completed,
        workers,
        died,
        unfinished,
    }
}

/// Take the next job, or decide the run is over.  Exits only on an empty,
/// uncontended take that *began after* the feeder-done flag was observed
/// set (see the module docs for why such a take has seen every job that
/// will ever exist).
fn next_job<T>(index: usize, injector: &Injector<T>, feeder_done: &AtomicBool) -> Option<T> {
    loop {
        // Load before taking: a push racing with this take may be missed,
        // but then the flag read here was not yet set and the take retries.
        let done_before_take = feeder_done.load(Ordering::SeqCst);
        match injector.steal() {
            Steal::Success(job) => return Some(job),
            Steal::Empty if done_before_take => return None,
            Steal::Empty | Steal::Retry => backoff(index),
        }
    }
}

/// The single backoff path every unproductive take funnels through:
/// park/unpark telemetry around a scheduler yield.
fn backoff(index: usize) {
    let obs = recorder();
    if obs.is_enabled() {
        // An unproductive take: the worker backs off and retries.  Parking
        // is a property of the schedule, never of the answer: mark the
        // event so modelled-clock exports drop it.
        let at = obs.stamp(0.0);
        obs.record(
            SpanEvent::new(SpanKind::WorkerPark, Scope::ScheduleDependent, at, at)
                .with_index(index as u64),
        );
    }
    std::thread::yield_now();
    if obs.is_enabled() {
        let at = obs.stamp(0.0);
        obs.record(
            SpanEvent::new(SpanKind::WorkerUnpark, Scope::ScheduleDependent, at, at)
                .with_index(index as u64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::exclusive;
    use std::collections::BTreeSet;

    /// The executor of a pool that never retires a worker: deliver the
    /// payload.
    fn echo(_: usize, _: &mut (), payload: usize) -> JobVerdict<usize> {
        JobVerdict::Done(payload)
    }

    fn jobs(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn single_worker_executes_jobs_in_fifo_order() {
        let _exclusive = exclusive();
        let run = run_stealing(vec![()], jobs(20), echo);
        let order: Vec<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(order, jobs(20));
        assert_eq!(run.workers[0].executed_jobs, 20);
    }

    #[test]
    fn every_job_executes_exactly_once_across_a_pool() {
        let _exclusive = exclusive();
        let run = run_stealing(vec![(); 4], jobs(200), echo);
        let seen: BTreeSet<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(seen.len(), 200, "no drop, no duplicate");
        assert_eq!(run.completed.len(), 200);
        let executed: usize = run.workers.iter().map(|w| w.executed_jobs).sum();
        assert_eq!(executed, 200);
        assert!(run.unfinished.is_empty());
        assert_eq!(run.alive_workers(), 4);
    }

    #[test]
    fn worker_state_is_owned_mutable_and_handed_back() {
        let _exclusive = exclusive();
        let run = run_stealing(vec![0u64, 0u64], (1..=10).collect(), |_, sum, payload| {
            *sum += payload;
            JobVerdict::Done(payload)
        });
        let handed_back: u64 = run.workers.iter().map(|w| w.state).sum();
        assert_eq!(handed_back, 55, "every job mutated exactly one state");
    }

    #[test]
    fn feeder_jobs_arrive_while_workers_run_and_are_conserved() {
        let _exclusive = exclusive();
        let run = run_stealing_with_feeder(
            vec![(); 3],
            jobs(10),
            |feeder| {
                for i in 10..40 {
                    feeder.push(i);
                    // Give workers a chance to drain between arrivals so
                    // some pushes genuinely race live takes.
                    std::thread::yield_now();
                }
            },
            echo,
        );
        let seen: BTreeSet<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(seen.len(), 40, "every up-front and fed job exactly once");
        let executed: usize = run.workers.iter().map(|w| w.executed_jobs).sum();
        assert_eq!(executed, 40);
    }

    #[test]
    fn a_feeder_that_pushes_nothing_still_terminates() {
        let _exclusive = exclusive();
        let run = run_stealing_with_feeder(vec![(); 2], jobs(1), |_feeder| {}, echo);
        assert_eq!(run.completed.len(), 1);
    }

    #[test]
    fn a_run_fed_entirely_through_the_feeder_drains() {
        let _exclusive = exclusive();
        let run = run_stealing_with_feeder(
            vec![(); 4],
            Vec::new(),
            |feeder| {
                for i in 0..100usize {
                    feeder.push(i);
                }
            },
            echo,
        );
        let seen: BTreeSet<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn a_retiring_worker_delivers_its_job_and_survivors_drain_the_rest() {
        let _exclusive = exclusive();
        // Worker 0 retires on the first job it takes.  Survivors hold their
        // first job until then, so worker 0 always reaches the queue on a
        // loaded host instead of finding it drained.
        let retired = AtomicBool::new(false);
        let held = std::sync::atomic::AtomicUsize::new(usize::MAX);
        let run = run_stealing(
            vec![0usize, 1, 2],
            jobs(30),
            |_, me: &mut usize, payload: usize| {
                if *me == 0 {
                    held.store(payload, Ordering::SeqCst);
                    retired.store(true, Ordering::SeqCst);
                    return JobVerdict::Retire(payload);
                }
                while !retired.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                JobVerdict::Done(payload)
            },
        );
        let seen: BTreeSet<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(run.completed.len(), 30, "no job runs twice");
        assert_eq!(seen, jobs(30).into_iter().collect());
        assert_eq!(run.died, vec![true, false, false]);
        assert_eq!(run.alive_workers(), 2);
        assert_eq!(run.workers[0].executed_jobs, 1, "retired after one job");
        let held = held.load(Ordering::SeqCst);
        assert!(
            run.completed
                .iter()
                .any(|c| c.result == held && c.worker == 0),
            "the job worker 0 retired on is delivered by worker 0, never rerun"
        );
        assert!(run.unfinished.is_empty());
    }

    #[test]
    fn a_fully_retired_pool_hands_every_untaken_job_back() {
        let _exclusive = exclusive();
        let run = run_stealing(vec![(); 3], jobs(25), |_, (), payload: usize| {
            JobVerdict::Retire(payload)
        });
        assert_eq!(run.alive_workers(), 0);
        assert_eq!(run.completed.len(), 3, "each worker ran one job");
        // Delivered and handed back together are every job exactly once.
        let mut all: Vec<usize> = run.completed.iter().map(|c| c.result).collect();
        all.extend(run.unfinished.iter().copied());
        all.sort_unstable();
        assert_eq!(all, jobs(25));
    }
}
