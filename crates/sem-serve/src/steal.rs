//! The work-stealing execution core of the threaded serving executor: one
//! worker thread per device slot, fed by per-worker deques plus a shared
//! injector.
//!
//! [`run_stealing`] is deliberately generic over the job payload, the
//! per-worker owned state, and the result type, so the exact machinery that
//! runs device sessions in [`crate::Server::serve_stream_async`] can also
//! be stress-tested with thousands of cheap synthetic jobs (see
//! `tests/stress.rs`) and explored schedule by schedule (see
//! [`crate::explore`]).
//!
//! ## Seeding and stealing discipline
//!
//! Every job carries an optional *hint* — the worker it was placed on up
//! front.  Hinted jobs are seeded onto the hinted worker's deque in
//! submission order; hint-less jobs (everything the serving host's live
//! feeder pushes) go to the shared [`Injector`] where the first free worker
//! takes them.  Each worker then
//! loops:
//!
//! 1. pop its own deque (FIFO — the jobs it was hinted, oldest first);
//! 2. steal from the injector (globally FIFO floating jobs);
//! 3. steal from sibling deques (round-robin starting after itself), taking
//!    the *newest* job — the one that would otherwise wait longest behind a
//!    busy device.
//!
//! ## Verdicts
//!
//! The executor resolves every job it runs with a [`JobVerdict`]: `Done`
//! delivers the result, `Retry` requeues the job through the injector for
//! any worker, and `Fatal` retires the worker after handing its in-flight
//! job and its whole deque back to the injector.  Hosts that never retry
//! simply wrap their result in [`JobVerdict::Done`].  Whatever mix of
//! verdicts the executor reports, the run **conserves jobs**: every job is
//! delivered exactly once, or — only when every worker died — handed back in
//! [`StealRun::unfinished`].
//!
//! ## Termination: outstanding work plus the feeder-done flag
//!
//! A worker exits only when a **fully empty, uncontended sweep began after
//! it observed both the outstanding-work counter at zero and the
//! feeder-done flag set**.  Seeded jobs start counted, a live feeder (see
//! [`run_stealing_with_feeder`]) counts each arrival *before* publishing it,
//! `Retry`/`Fatal` requeue before any count change, and `Done` retires the
//! job only after its result is sent — so zero outstanding can never be
//! observed while a job is invisible in flight, and the feeder stores the
//! flag (SeqCst) only after its last push.  A consequence: idle workers
//! wait for in-flight jobs to retire rather than exiting on the first empty
//! sweep, because a `Retry` could requeue one.  A run without a feeder
//! starts with the flag already set.
//!
//! Contended sweeps (a [`Steal::Retry`] from the injector *or* a sibling
//! deque) and empty-but-not-finished sweeps share one backoff path:
//! park/unpark telemetry around a scheduler yield.

use crossbeam::channel;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use sem_obs::{recorder, Scope, SpanEvent, SpanKind, WallTimer};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// One job plus the scheduling hint it was admitted with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedJob<T> {
    /// The work itself.
    pub payload: T,
    /// The worker this job was placed on up front, or `None` for floating
    /// jobs any worker may take from the injector.
    pub hint: Option<usize>,
}

/// One executed job, in completion order.
#[derive(Debug, Clone)]
pub struct CompletedJob<R> {
    /// The worker that actually executed the job.
    pub worker: usize,
    /// The hint the job carried when this worker took it (requeued jobs
    /// float, so a retried job completes with `None`).
    pub hint: Option<usize>,
    /// What the executor returned.
    pub result: R,
}

impl<R> CompletedJob<R> {
    /// Whether the job ran somewhere other than its hinted worker.
    #[must_use]
    pub fn stolen(&self) -> bool {
        self.hint.is_some_and(|hint| hint != self.worker)
    }
}

/// Per-worker accounting of one run, with the worker's owned state handed
/// back to the caller.
#[derive(Debug)]
pub struct WorkerLedger<S> {
    /// The state the worker owned for the duration of the run.
    pub state: S,
    /// Wall-clock seconds this worker spent executing jobs (excludes idle
    /// spinning and queue operations).
    pub busy_wall_seconds: f64,
    /// Jobs this worker resolved [`JobVerdict::Done`].
    pub executed_jobs: usize,
    /// Jobs this worker took that were hinted to a *different* worker.
    pub steals: usize,
}

/// How an executor resolved one job.
#[derive(Debug)]
pub enum JobVerdict<T, R> {
    /// The job completed (and, if the caller verifies answers, passed):
    /// deliver the result and retire the job.
    Done(R),
    /// The job failed recoverably (device fault, corrupt answer, timeout):
    /// requeue the returned payload — typically the job with its retry
    /// ledger advanced — through the shared injector for another worker.
    /// The worker that reported it stays in the pool.
    Retry(T),
    /// The worker's device is unusable (dead): requeue the returned
    /// payload, drain the worker's own deque back to the injector so
    /// nothing it was hinted is lost, and retire the **worker**.
    Fatal(T),
}

/// The outcome of one work-stealing run.
#[derive(Debug)]
pub struct StealRun<T, S, R> {
    /// Jobs resolved [`JobVerdict::Done`], in completion order (the order
    /// results crossed the channel, not submission order — the caller
    /// re-sequences).
    pub completed: Vec<CompletedJob<R>>,
    /// Per-worker ledgers, indexed like the input states.  Dead workers
    /// still hand their state back — a died device's sessions return to
    /// the caller, they are not leaked with the worker.
    pub workers: Vec<WorkerLedger<S>>,
    /// Which workers retired through [`JobVerdict::Fatal`] (parallel to
    /// `workers`).
    pub died: Vec<bool>,
    /// Jobs still unresolved when the run ended — non-empty only when
    /// *every* worker died with work left.  The caller owns them (e.g. to
    /// degrade onto host backends); they are never silently dropped.
    pub unfinished: Vec<T>,
    /// [`JobVerdict::Retry`] verdicts across the run.
    pub retries: usize,
    /// Jobs drained from dying workers' deques back to the injector.
    pub requeued_on_death: usize,
    /// Wall-clock seconds from first spawn to last join.
    pub wall_seconds: f64,
}

impl<T, S, R> StealRun<T, S, R> {
    /// Total wall-clock seconds workers spent executing jobs.
    #[must_use]
    pub fn busy_wall_seconds(&self) -> f64 {
        self.workers.iter().map(|w| w.busy_wall_seconds).sum()
    }

    /// Measured concurrency: busy worker-seconds per wall-clock second.
    /// Approaches the worker count when the pool runs fully parallel and
    /// 1.0 when execution is effectively serial.
    #[must_use]
    pub fn concurrency(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.busy_wall_seconds() / self.wall_seconds
    }

    /// Total stolen jobs across the pool.
    #[must_use]
    pub fn total_steals(&self) -> usize {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Workers that survived the run.
    #[must_use]
    pub fn alive_workers(&self) -> usize {
        self.died.iter().filter(|&&d| !d).count()
    }
}

/// What one worker sends back per executed job.
struct Delivery<R> {
    worker: usize,
    hint: Option<usize>,
    result: R,
}

/// The live-arrival side of a streaming run: the handle the feeder closure
/// pushes work through while the worker pool is already draining.  Fed
/// jobs carry no hint — they ride the shared injector to whichever worker
/// frees up first, exactly like down-batched floaters.  Every push counts
/// the job as outstanding *before* it becomes visible, so workers can never
/// observe "all work resolved" while a fed job is in flight.
#[derive(Debug)]
pub struct FeederHandle<'a, T> {
    injector: &'a Injector<TaggedJob<T>>,
    outstanding: &'a AtomicUsize,
}

impl<T> FeederHandle<'_, T> {
    /// Push one live arrival into the shared injector.
    pub fn push(&self, payload: T) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        self.injector.push(TaggedJob {
            payload,
            hint: None,
        });
        let obs = recorder();
        if obs.is_enabled() {
            obs.counter_add("sem_serve_live_arrivals_total", &[], 1);
        }
    }
}

/// Run `jobs` across one thread per entry of `states`, work-stealing style.
///
/// `execute` is called as `execute(worker_index, &mut state, payload)` with
/// the worker's owned state — the state never crosses a thread boundary
/// mid-run, so workers can keep non-`Sync` sessions (each `SemSystem` is
/// owned by exactly one worker at a time) and hand them back through the
/// ledger when the run ends.  Its [`JobVerdict`] decides whether the job is
/// delivered, requeued, or kills the worker (see the module docs).
///
/// # Panics
/// Panics if `states` is empty or any hint is out of range.
pub fn run_stealing<T, S, R, F>(
    states: Vec<S>,
    jobs: Vec<TaggedJob<T>>,
    execute: F,
) -> StealRun<T, S, R>
where
    T: Send,
    S: Send,
    R: Send,
    F: Fn(usize, &mut S, T) -> JobVerdict<T, R> + Sync,
{
    run_stealing_inner(states, jobs, None::<fn(&FeederHandle<'_, T>)>, execute)
}

/// Like [`run_stealing`], but with a live feeder: `feeder` runs on the
/// calling thread *after* the workers are spawned and may push arrivals
/// into the shared injector at any point while the pool drains.  Workers
/// stay alive — backing off through the contended-sweep path — until the
/// feeder returns and every job is resolved.
///
/// # Panics
/// Panics if `states` is empty or any seeded hint is out of range.
pub fn run_stealing_with_feeder<T, S, R, F, G>(
    states: Vec<S>,
    jobs: Vec<TaggedJob<T>>,
    feeder: G,
    execute: F,
) -> StealRun<T, S, R>
where
    T: Send,
    S: Send,
    R: Send,
    F: Fn(usize, &mut S, T) -> JobVerdict<T, R> + Sync,
    G: FnOnce(&FeederHandle<'_, T>),
{
    run_stealing_inner(states, jobs, Some(feeder), execute)
}

fn run_stealing_inner<T, S, R, F, G>(
    states: Vec<S>,
    jobs: Vec<TaggedJob<T>>,
    feeder: Option<G>,
    execute: F,
) -> StealRun<T, S, R>
where
    T: Send,
    S: Send,
    R: Send,
    F: Fn(usize, &mut S, T) -> JobVerdict<T, R> + Sync,
    G: FnOnce(&FeederHandle<'_, T>),
{
    let pool = states.len();
    assert!(pool > 0, "need at least one worker");
    let queues: Vec<Worker<TaggedJob<T>>> = (0..pool).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<TaggedJob<T>>> = queues.iter().map(Worker::stealer).collect();
    let injector = Injector::new();
    let outstanding = AtomicUsize::new(jobs.len());
    for job in jobs {
        match job.hint {
            Some(hint) => {
                assert!(hint < pool, "hint {hint} outside pool of {pool}");
                queues[hint].push(job);
            }
            None => injector.push(job),
        }
    }

    // With no feeder the flag starts set: a store from the (uncontrolled)
    // calling thread would otherwise race the workers' first sweeps.
    let feeder_done = AtomicBool::new(feeder.is_none());
    let retries = AtomicUsize::new(0);
    let requeued_on_death = AtomicUsize::new(0);
    let (tx, rx) = channel::unbounded::<Delivery<R>>();
    let run_timer = WallTimer::start();
    let mut ledgers: Vec<Option<(WorkerLedger<S>, bool)>> = Vec::with_capacity(pool);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(pool);
        for (index, (queue, mut state)) in queues.into_iter().zip(states).enumerate() {
            let tx = tx.clone();
            let injector = &injector;
            let stealers = &stealers;
            let execute = &execute;
            let feeder_done = &feeder_done;
            let outstanding = &outstanding;
            let retries = &retries;
            let requeued_on_death = &requeued_on_death;
            // lint: no-panic (a worker panic strands sibling deques mid-run)
            handles.push(scope.spawn(move || {
                // Registers this thread with a schedule explorer when one is
                // installed (`sem_serve::explore`); inert in production.
                let _control = crossbeam::sched::controlled(index);
                let mut busy_wall_seconds = 0.0;
                let mut executed_jobs = 0;
                let mut steals = 0;
                let mut died = false;
                let obs = recorder();
                while let Some(job) =
                    next_job(index, &queue, injector, stealers, feeder_done, outstanding)
                {
                    if job.hint.is_some_and(|hint| hint != index) {
                        steals += 1;
                        if obs.is_enabled() {
                            // Which worker robbed whom is a property of the
                            // schedule, never of the answer: mark the event
                            // so modelled-clock exports drop it.
                            let at = obs.stamp(busy_wall_seconds);
                            obs.record(
                                SpanEvent::new(SpanKind::Steal, Scope::ScheduleDependent, at, at)
                                    .with_index(index as u64),
                            );
                            obs.counter_add("sem_serve_steals_total", &[], 1);
                        }
                    }
                    let hint = job.hint;
                    let begun = WallTimer::start();
                    let verdict = execute(index, &mut state, job.payload);
                    busy_wall_seconds += begun.elapsed_wall_seconds();
                    match verdict {
                        JobVerdict::Done(result) => {
                            executed_jobs += 1;
                            let delivery = Delivery {
                                worker: index,
                                hint,
                                result,
                            };
                            // The receiver outlives the scope by construction,
                            // so a failed send can only mean the channel was
                            // torn down mid-run; stop taking work instead of
                            // panicking with sibling deques still live.
                            let torn = tx.send(delivery).is_err();
                            // Retire the job only after its result is
                            // published: a worker observing zero outstanding
                            // must be able to trust every answer is out.
                            outstanding.fetch_sub(1, Ordering::SeqCst);
                            if torn {
                                break;
                            }
                        }
                        JobVerdict::Retry(payload) => {
                            // Requeue before anything else: the count never
                            // dips, so no sibling can conclude the run is
                            // over while this job floats.
                            injector.push(TaggedJob {
                                payload,
                                hint: None,
                            });
                            retries.fetch_add(1, Ordering::SeqCst);
                            if obs.is_enabled() {
                                obs.counter_add("sem_serve_retries_total", &[], 1);
                            }
                        }
                        JobVerdict::Fatal(payload) => {
                            // The device is gone: hand the in-flight job and
                            // everything still hinted to this worker back to
                            // the pool, then retire the worker.  Sibling
                            // stealers may race this drain — either way each
                            // job ends up held exactly once.
                            injector.push(TaggedJob {
                                payload,
                                hint: None,
                            });
                            let mut drained = 1_usize;
                            while let Some(left) = queue.pop() {
                                injector.push(TaggedJob {
                                    payload: left.payload,
                                    hint: None,
                                });
                                drained += 1;
                            }
                            requeued_on_death.fetch_add(drained, Ordering::SeqCst);
                            if obs.is_enabled() {
                                obs.counter_add("sem_serve_requeues_total", &[], drained as u64);
                            }
                            died = true;
                            break;
                        }
                    }
                }
                (
                    WorkerLedger {
                        state,
                        busy_wall_seconds,
                        executed_jobs,
                        steals,
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
            let handle = FeederHandle {
                injector: &injector,
                outstanding: &outstanding,
            };
            feed(&handle);
            feeder_done.store(true, Ordering::SeqCst);
        }
        for handle in handles {
            ledgers.push(Some(handle.join().expect("worker thread panicked")));
        }
    });
    let wall_seconds = run_timer.elapsed_wall_seconds();

    // Only an all-dead pool leaves work behind; hand it back rather than
    // lose it (conservation is the caller's to finish, e.g. on a host
    // backend).
    let mut unfinished = Vec::new();
    loop {
        match injector.steal() {
            Steal::Success(job) => unfinished.push(job.payload),
            Steal::Retry => {}
            Steal::Empty => break,
        }
    }

    let completed = rx
        .iter()
        .map(|delivery| CompletedJob {
            worker: delivery.worker,
            hint: delivery.hint,
            result: delivery.result,
        })
        .collect();
    let (workers, died): (Vec<WorkerLedger<S>>, Vec<bool>) = ledgers
        .into_iter()
        .map(|entry| entry.expect("every worker joined"))
        .unzip();
    StealRun {
        completed,
        workers,
        died,
        unfinished,
        retries: retries.load(Ordering::SeqCst),
        requeued_on_death: requeued_on_death.load(Ordering::SeqCst),
        wall_seconds,
    }
}

/// Take the next job, or decide the run is over.  Exits only on a fully
/// empty, uncontended sweep that *began after* both the outstanding-work
/// counter was observed at zero and the feeder-done flag observed set (see
/// the module docs for why such a sweep has seen every job that will ever
/// exist).
fn next_job<T>(
    index: usize,
    own: &Worker<TaggedJob<T>>,
    injector: &Injector<TaggedJob<T>>,
    stealers: &[Stealer<TaggedJob<T>>],
    feeder_done: &AtomicBool,
    outstanding: &AtomicUsize,
) -> Option<TaggedJob<T>> {
    loop {
        // Load both before sweeping: a push racing with this sweep may be
        // missed, but then one of the reads here was not yet final and the
        // sweep retries.
        let done_before_sweep = feeder_done.load(Ordering::SeqCst);
        let outstanding_before_sweep = outstanding.load(Ordering::SeqCst);
        match sweep(index, own, injector, stealers) {
            SweepOutcome::Job(job) => return Some(job),
            SweepOutcome::Empty if done_before_sweep && outstanding_before_sweep == 0 => {
                return None;
            }
            SweepOutcome::Empty | SweepOutcome::Contended => backoff(index),
        }
    }
}

/// What one pass over the three work sources observed.
enum SweepOutcome<T> {
    /// A job was taken.
    Job(TaggedJob<T>),
    /// At least one source reported a lost race ([`Steal::Retry`]); work
    /// may exist, so emptiness proves nothing this pass.
    Contended,
    /// Every source was empty and no steal was contended.
    Empty,
}

/// One sweep: own deque, then the injector, then sibling deques round-robin
/// starting after `index`.  A `Retry` from *any* source — the injector
/// included — marks the sweep contended but still probes the remaining
/// sources first, so one hot queue cannot starve the others of a look.
fn sweep<T>(
    index: usize,
    own: &Worker<TaggedJob<T>>,
    injector: &Injector<TaggedJob<T>>,
    stealers: &[Stealer<TaggedJob<T>>],
) -> SweepOutcome<T> {
    if let Some(job) = own.pop() {
        return SweepOutcome::Job(job);
    }
    let mut contended = false;
    match injector.steal() {
        Steal::Success(job) => return SweepOutcome::Job(job),
        Steal::Retry => contended = true,
        Steal::Empty => {}
    }
    let pool = stealers.len();
    for offset in 1..pool {
        let victim = (index + offset) % pool;
        match stealers[victim].steal() {
            Steal::Success(job) => return SweepOutcome::Job(job),
            Steal::Retry => contended = true,
            Steal::Empty => {}
        }
    }
    if contended {
        SweepOutcome::Contended
    } else {
        SweepOutcome::Empty
    }
}

/// The single backoff path every unproductive sweep funnels through:
/// park/unpark telemetry around a scheduler yield.  Contended sweeps used
/// to split here — an injector `Retry` looped straight back into the sweep,
/// a busy-wait that skipped both the yield and the park telemetry.
fn backoff(index: usize) {
    let obs = recorder();
    if obs.is_enabled() {
        // An unproductive sweep: the worker backs off and retries.  Like
        // steals, parking is schedule-only telemetry.
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

    /// The executor of hosts that never retry: deliver the payload.
    fn echo(_: usize, _: &mut (), payload: usize) -> JobVerdict<usize, usize> {
        JobVerdict::Done(payload)
    }

    #[test]
    fn single_worker_executes_hinted_jobs_in_fifo_order() {
        let _exclusive = exclusive();
        let jobs: Vec<TaggedJob<usize>> = (0..20)
            .map(|i| TaggedJob {
                payload: i,
                hint: Some(0),
            })
            .collect();
        let run = run_stealing(vec![()], jobs, echo);
        let order: Vec<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
        assert_eq!(run.workers[0].executed_jobs, 20);
        assert_eq!(run.total_steals(), 0);
    }

    #[test]
    fn every_job_executes_exactly_once_across_a_stealing_pool() {
        let _exclusive = exclusive();
        // All jobs hinted to worker 0: the only way the others get work is
        // by stealing, and conservation must still hold.
        let jobs: Vec<TaggedJob<usize>> = (0..200)
            .map(|i| TaggedJob {
                payload: i,
                hint: Some(0),
            })
            .collect();
        let run = run_stealing(vec![(); 4], jobs, echo);
        let seen: BTreeSet<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(seen.len(), 200, "no drop, no duplicate");
        assert_eq!(run.completed.len(), 200);
        let executed: usize = run.workers.iter().map(|w| w.executed_jobs).sum();
        assert_eq!(executed, 200);
        // Steal accounting matches the per-job stolen flags.
        let stolen_flags = run.completed.iter().filter(|c| c.stolen()).count();
        assert_eq!(run.total_steals(), stolen_flags);
        assert_eq!(run.retries, 0);
        assert_eq!(run.requeued_on_death, 0);
        assert!(run.unfinished.is_empty());
        assert_eq!(run.alive_workers(), 4);
    }

    #[test]
    fn floating_jobs_ride_the_injector_and_are_never_counted_as_steals() {
        let _exclusive = exclusive();
        let run = run_stealing(vec![(); 3], floaters(50), echo);
        assert_eq!(run.completed.len(), 50);
        assert_eq!(run.total_steals(), 0, "floaters have no owner to rob");
        assert!(run.completed.iter().all(|c| !c.stolen()));
    }

    #[test]
    fn worker_state_is_owned_mutable_and_handed_back() {
        let _exclusive = exclusive();
        let jobs: Vec<TaggedJob<u64>> = (1..=10)
            .map(|i| TaggedJob {
                payload: i,
                hint: Some((i as usize) % 2),
            })
            .collect();
        let run = run_stealing(vec![0u64, 0u64], jobs, |_, sum, payload| {
            *sum += payload;
            JobVerdict::<u64, u64>::Done(payload)
        });
        let handed_back: u64 = run.workers.iter().map(|w| w.state).sum();
        assert_eq!(handed_back, 55, "every job mutated exactly one state");
    }

    #[test]
    fn feeder_jobs_arrive_while_workers_run_and_are_conserved() {
        let _exclusive = exclusive();
        let seeded: Vec<TaggedJob<usize>> = (0..10)
            .map(|i| TaggedJob {
                payload: i,
                hint: Some(i % 3),
            })
            .collect();
        let run = run_stealing_with_feeder(
            vec![(); 3],
            seeded,
            |feeder| {
                for i in 10..40 {
                    feeder.push(i);
                    // Give workers a chance to drain between arrivals so
                    // some pushes genuinely race live sweeps.
                    std::thread::yield_now();
                }
            },
            echo,
        );
        let seen: BTreeSet<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(seen.len(), 40, "every seeded and fed job exactly once");
        let executed: usize = run.workers.iter().map(|w| w.executed_jobs).sum();
        assert_eq!(executed, 40);
        // Fed jobs float: they can never be counted as steals.
        assert!(run
            .completed
            .iter()
            .filter(|c| c.result >= 10)
            .all(|c| c.hint.is_none() && !c.stolen()));
    }

    #[test]
    fn a_feeder_that_pushes_nothing_still_terminates() {
        let _exclusive = exclusive();
        let run = run_stealing_with_feeder(
            vec![(); 2],
            vec![TaggedJob {
                payload: 1usize,
                hint: Some(0),
            }],
            |_feeder| {},
            echo,
        );
        assert_eq!(run.completed.len(), 1);
    }

    #[test]
    fn a_run_fed_entirely_through_the_injector_drains() {
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
        assert_eq!(run.total_steals(), 0);
    }

    #[test]
    #[should_panic(expected = "hint 2 outside pool")]
    fn out_of_range_hints_are_rejected() {
        let _exclusive = exclusive();
        let _ = run_stealing(
            vec![(); 2],
            vec![TaggedJob {
                payload: 0usize,
                hint: Some(2),
            }],
            echo,
        );
    }

    fn floaters(n: usize) -> Vec<TaggedJob<usize>> {
        (0..n)
            .map(|i| TaggedJob {
                payload: i,
                hint: None,
            })
            .collect()
    }

    #[test]
    fn retries_conserve_jobs_and_are_counted() {
        let _exclusive = exclusive();
        // Every job fails once before succeeding; payloads carry a retry
        // budget the executor burns down, like a real retry ledger.
        let attempts: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        let run = run_stealing(vec![(); 4], floaters(40), |_, (), payload: usize| {
            if attempts[payload].fetch_add(1, Ordering::SeqCst) == 0 {
                JobVerdict::Retry(payload)
            } else {
                JobVerdict::Done(payload)
            }
        });
        let seen: BTreeSet<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(seen.len(), 40, "no drop, no duplicate");
        assert_eq!(run.retries, 40, "each job retried exactly once");
        assert!(run.unfinished.is_empty());
        assert_eq!(run.alive_workers(), 4);
    }

    #[test]
    fn a_dying_worker_drains_its_deque_and_nothing_is_lost() {
        let _exclusive = exclusive();
        // Everything is hinted to worker 0, which dies on its first job.
        // Its in-flight job and its whole deque must flow back through the
        // injector to the survivors.  Survivors hold their first stolen job
        // until the death, so worker 0 always reaches its deque on a loaded
        // host instead of being robbed of every job first.
        let jobs: Vec<TaggedJob<usize>> = (0..30)
            .map(|i| TaggedJob {
                payload: i,
                hint: Some(0),
            })
            .collect();
        let died = AtomicBool::new(false);
        let run = run_stealing(
            vec![0usize, 1, 2],
            jobs,
            |_, me: &mut usize, payload: usize| {
                if *me == 0 {
                    died.store(true, Ordering::SeqCst);
                    return JobVerdict::Fatal(payload);
                }
                while !died.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                JobVerdict::Done(payload)
            },
        );
        let seen: BTreeSet<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(seen, (0..30).collect(), "every job resolved exactly once");
        assert_eq!(run.died, vec![true, false, false]);
        assert_eq!(run.alive_workers(), 2);
        assert!(run.requeued_on_death >= 1, "at least the in-flight job");
        assert_eq!(run.workers[0].executed_jobs, 0, "a fatal job is not done");
        assert!(run.unfinished.is_empty());
    }

    #[test]
    fn an_all_dead_pool_hands_every_job_back_unfinished() {
        let _exclusive = exclusive();
        let run = run_stealing(vec![(); 3], floaters(25), |_, (), payload: usize| {
            JobVerdict::<usize, usize>::Fatal(payload)
        });
        assert!(run.completed.is_empty());
        assert_eq!(run.alive_workers(), 0);
        let handed_back: BTreeSet<usize> = run.unfinished.iter().copied().collect();
        // Each worker kills itself on its first job; every job ends up
        // either back in the injector or never popped — all 25 conserved.
        assert_eq!(handed_back, (0..25).collect());
    }

    #[test]
    fn feeder_pushes_racing_retries_lose_no_jobs() {
        let _exclusive = exclusive();
        let run = run_stealing_with_feeder(
            vec![(); 4],
            floaters(10),
            |feeder| {
                for i in 10..110usize {
                    feeder.push(i);
                }
            },
            |_, (), payload: usize| {
                // Odd payloads bounce once through the injector first, so
                // retries race the feeder-done flag.
                if payload % 2 == 1 && payload < 1000 {
                    JobVerdict::Retry(payload + 1000)
                } else {
                    JobVerdict::Done(payload % 1000)
                }
            },
        );
        let seen: BTreeSet<usize> = run.completed.iter().map(|c| c.result).collect();
        assert_eq!(seen, (0..110).collect());
        assert_eq!(run.retries, 55);
        assert!(run.unfinished.is_empty());
    }
}
