//! Loom-style bounded schedule exploration of the serving worker pool.
//!
//! The vendored crossbeam primitives route every queue operation through
//! crossbeam's internal `sched::yield_point`; this module installs a [`Scheduler`]
//! that *serializes* the worker pool of [`run_stealing`]: every controlled
//! thread parks at each yield point, and a central arbiter picks which
//! thread runs next.  The whole interleaving then becomes a pure function of
//! the arbiter's choice sequence, which makes schedules **replayable** and
//! **enumerable**:
//!
//! * [`Strategy::Exhaustive`] walks the bounded choice tree depth-first —
//!   run a schedule, backtrack the last choice with an unexplored
//!   alternative, replay the prefix, and continue.  Every run is a distinct
//!   interleaving by construction.
//! * [`Strategy::Seeded`] takes pseudo-random walks instead (for cases whose
//!   trees are too large to enumerate) and counts distinct traces.
//!
//! Every case runs through the one pool, with its fault schedule
//! ([`ExploreCase::fatal_workers`]) deciding which workers retire, and
//! every explored schedule is checked for the host's contract:
//!
//! 1. **Job conservation under failure** — every job is delivered exactly
//!    once or handed back, hand-back happens only when every worker
//!    retired, only scripted workers retire (each after delivering the one
//!    job it retired on), and the per-worker ledgers agree with the
//!    delivered completions;
//! 2. **Ordering** — each worker takes jobs from the shared queue in FIFO
//!    (submission) order; nothing is ever requeued, so this holds in fault
//!    cases too;
//! 3. **Deadlock/livelock freedom** — the schedule terminates within a step
//!    budget (a genuinely stuck pool would either hang a grant forever or
//!    exceed the budget, both of which the explorer reports).
//!
//! Alongside the pass/fail verdict, each [`CaseReport`] carries a coverage
//! map over [`SchedOp`] pair transitions — the distinct ordered pairs of
//! consecutive queue operations any explored schedule realized.  Distinct
//! trace counts grow with budget almost indefinitely; the transition-class
//! count saturates, which is the signal that a seeded walk has stopped
//! finding genuinely new operation orderings.
//!
//! Exploration is process-global (the scheduler hook is), so explorer
//! entry points serialize on an internal lock, and only threads spawned by
//! [`run_stealing`] register for control — concurrent uncontrolled threads
//! are unaffected.  Use the `SEM_SCHED_ITERS` environment variable (read by
//! the `sem-lint` binary and the integration smoke test) to bound the
//! schedule budget in constrained environments.

use crate::steal::{run_stealing, run_stealing_with_feeder, JobVerdict, StealRun};
use crossbeam::sched::{self, SchedOp, Scheduler};
use std::collections::BTreeSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// How the explorer picks the next thread at each scheduling point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Depth-first enumeration of the bounded choice tree: every run is a
    /// distinct schedule, and small cases are proven exhaustively.
    Exhaustive,
    /// Seeded pseudo-random walks for cases whose trees are too large to
    /// enumerate; distinct schedules are counted by trace.
    Seeded(u64),
}

/// One scenario to explore: a pool size, the jobs queued before the
/// workers spawn, and the jobs a live feeder pushes while they run.  Job
/// `i`'s payload is its submission index `i`.
#[derive(Debug, Clone)]
pub struct ExploreCase {
    /// Short stable name for reports.
    pub name: &'static str,
    /// Worker pool size.
    pub workers: usize,
    /// Jobs in the shared queue before the workers spawn (payloads
    /// `0..jobs`).
    pub jobs: usize,
    /// Jobs pushed into the shared queue *while the pool runs*, by an
    /// uncontrolled feeder thread (payloads continue after the up-front
    /// jobs).  Non-zero cases exercise the feeder-done termination
    /// protocol: workers must neither exit before fed jobs land nor hang
    /// after the feeder finishes.  Because the feeder is uncontrolled, its
    /// pushes interleave with granted steps nondeterministically — explore
    /// such cases with [`Strategy::Seeded`], never exhaustively.
    pub feeder_jobs: usize,
    /// Simulated-contention budget: the first this-many controlled
    /// injector steals observe [`crossbeam::deque::Steal::Retry`] instead
    /// of touching the queue, driving the contended-take backoff path a
    /// mutex-backed queue never reaches on its own.
    pub contention: usize,
    /// Fault schedule: workers whose device is dead — each delivers the
    /// first job it touches with [`crate::steal::JobVerdict::Retire`] and
    /// takes no further job.
    pub fatal_workers: Vec<usize>,
}

impl ExploreCase {
    /// Total jobs the run must conserve: up-front plus fed.
    fn total_jobs(&self) -> usize {
        self.jobs + self.feeder_jobs
    }
}

/// The outcome of exploring one case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The case's name.
    pub name: &'static str,
    /// Pool size.
    pub workers: usize,
    /// Job count.
    pub jobs: usize,
    /// Distinct schedules explored.
    pub schedules: usize,
    /// Whether the whole bounded choice tree was enumerated (exhaustive
    /// strategy only; seeded walks never claim exhaustion).
    pub exhausted: bool,
    /// Longest schedule trace seen (scheduling decisions per run).
    pub longest_trace: usize,
    /// Coverage map over scheduling-operation pair transitions: every
    /// ordered `(SchedOp, SchedOp)` pair of consecutive operations realized
    /// by any explored schedule (birth grants, which carry no operation,
    /// are skipped).  The class count is the saturation signal for seeded
    /// walks: when more budget stops adding classes, the walk has stopped
    /// discovering new operation orderings even if raw trace counts keep
    /// growing.
    pub transitions: BTreeSet<(SchedOp, SchedOp)>,
    /// Invariant violations, each tagged with the schedule trace that
    /// produced it.  Empty on a passing case.
    pub violations: Vec<String>,
}

impl CaseReport {
    /// Render the transition-coverage map compactly with the trace
    /// mnemonics, one `from>to` entry per observed class: `ip>is wo>ws ...`.
    #[must_use]
    pub fn transition_map(&self) -> String {
        let mut out = String::new();
        for (from, to) in &self.transitions {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(from.mnemonic());
            out.push('>');
            out.push_str(to.mnemonic());
        }
        out
    }

    /// Render the report as machine-readable JSON: the scalar verdict
    /// fields verbatim, the transition coverage as an array of `"from>to"`
    /// mnemonic classes (the same rendering as
    /// [`CaseReport::transition_map`]), and the violations as strings —
    /// so CI and tooling can join race-detector output against the other
    /// exported artifacts instead of parsing the printed table.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"name\":");
        out.push_str(&json_string(self.name));
        out.push_str(&format!(
            ",\"workers\":{},\"jobs\":{},\"schedules\":{},\"exhausted\":{},\"longest_trace\":{}",
            self.workers, self.jobs, self.schedules, self.exhausted, self.longest_trace
        ));
        out.push_str(",\"transitions\":[");
        for (i, (from, to)) in self.transitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(&format!(
                "{}>{}",
                from.mnemonic(),
                to.mnemonic()
            )));
        }
        out.push_str("],\"violations\":[");
        for (i, violation) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(violation));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) for
/// the hand-rolled [`CaseReport::to_json`] export.
fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes explorer entry points: the schedule hook is process-global.
static EXPLORE_LOCK: Mutex<()> = Mutex::new(());

/// Hold the explorer lock.  Unit tests that run the pool in the same
/// process as the explorer's own tests take it, so their worker threads
/// never register with a scheduler installed for someone else's case.
#[cfg(test)]
pub(crate) fn exclusive() -> MutexGuard<'static, ()> {
    lock_poison_free(&EXPLORE_LOCK)
}

/// Ceiling on scheduling decisions per run; `run_stealing` on the standard
/// cases needs a few dozen, so hitting this means a livelock.
const MAX_STEPS_PER_RUN: usize = 4096;

/// Per-case liveness budget.  Feeder cases burn steps while workers back
/// off waiting for the uncontrolled feeder thread to be scheduled by the
/// OS, so they get a proportionally larger ceiling — a slow machine must
/// not misreport a livelock.
fn step_budget(case: &ExploreCase) -> usize {
    if case.feeder_jobs > 0 {
        MAX_STEPS_PER_RUN * 8
    } else {
        MAX_STEPS_PER_RUN
    }
}

fn lock_poison_free<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Splitmix64: a tiny deterministic generator for seeded walks.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct SchedState {
    /// Worker indices parked at a yield point (or at birth), ascending — the
    /// canonical alternative ordering that makes choice indices replayable.
    parked: Vec<usize>,
    /// The operation each parked thread is about to perform (`None`: birth).
    pending: Vec<Option<SchedOp>>,
    /// The one thread currently allowed to run.
    granted: Option<usize>,
    /// Registered minus finished threads.
    alive: usize,
    /// Threads registered so far (the first grant waits for the whole pool).
    registered: usize,
    /// Choice to take at each decision depth (replayed prefix, then
    /// extended by the strategy).
    script: Vec<usize>,
    /// Alternatives observed at each decision depth (for backtracking).
    arity: Vec<usize>,
    depth: usize,
    /// The realized schedule: (worker, pending op) per grant.
    trace: Vec<(usize, Option<SchedOp>)>,
    steps: usize,
    /// Stop controlling: release every thread to run freely (teardown, or
    /// step budget exceeded).
    bailed: bool,
    budget_exceeded: bool,
    /// A replayed choice index exceeded the observed arity — the run was
    /// not deterministic.  Never expected; reported loudly.
    diverged: bool,
    random: bool,
    rng: u64,
    /// Remaining simulated-contention injections (see
    /// [`ExploreCase::contention`]).  Consumed by controlled injector
    /// steals in grant order, so exhaustive replays of a schedule prefix
    /// reproduce the same retries.
    contention_left: usize,
}

/// The serializing arbiter (see module docs).
struct StepScheduler {
    expected: usize,
    max_steps: usize,
    state: Mutex<SchedState>,
    cvar: Condvar,
}

impl StepScheduler {
    fn new(
        expected: usize,
        script: Vec<usize>,
        strategy: Strategy,
        run_seed: u64,
        contention: usize,
        max_steps: usize,
    ) -> Self {
        let (random, rng) = match strategy {
            Strategy::Exhaustive => (false, 0),
            Strategy::Seeded(seed) => (true, seed ^ run_seed.wrapping_mul(0x5851_f42d_4c95_7f2d)),
        };
        Self {
            expected,
            max_steps,
            state: Mutex::new(SchedState {
                parked: Vec::new(),
                pending: vec![None; expected],
                granted: None,
                alive: 0,
                registered: 0,
                script,
                arity: Vec::new(),
                depth: 0,
                trace: Vec::new(),
                steps: 0,
                bailed: false,
                budget_exceeded: false,
                diverged: false,
                random,
                rng,
                contention_left: contention,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Pick the next thread to run, if a grant is due.  Called with the
    /// state lock held, at every point the runnable set changes.
    fn arbitrate(&self, s: &mut SchedState) {
        if s.bailed || s.granted.is_some() || s.registered < self.expected || s.parked.is_empty() {
            return;
        }
        s.steps += 1;
        if s.steps > self.max_steps {
            s.bailed = true;
            s.budget_exceeded = true;
            self.cvar.notify_all();
            return;
        }
        let arity = s.parked.len();
        let choice = if s.depth < s.script.len() {
            let c = s.script[s.depth];
            if c >= arity {
                s.diverged = true;
                s.bailed = true;
                self.cvar.notify_all();
                return;
            }
            c
        } else {
            let c = if s.random {
                (next_rand(&mut s.rng) as usize) % arity
            } else {
                0
            };
            s.script.push(c);
            c
        };
        s.arity.push(arity);
        s.depth += 1;
        let index = s.parked.remove(choice);
        s.trace.push((index, s.pending[index]));
        s.granted = Some(index);
        self.cvar.notify_all();
    }

    /// Park `index` (keeping the set sorted) and block until it is granted
    /// or control is released.
    fn park_and_wait(&self, mut s: MutexGuard<'_, SchedState>, index: usize) {
        let slot = s.parked.partition_point(|&p| p < index);
        s.parked.insert(slot, index);
        self.arbitrate(&mut s);
        loop {
            if s.bailed {
                return;
            }
            if s.granted == Some(index) {
                return;
            }
            s = self.cvar.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Release every parked thread to run freely (teardown path).
    fn release_all(&self) {
        let mut s = lock_poison_free(&self.state);
        s.bailed = true;
        self.cvar.notify_all();
    }
}

impl Scheduler for StepScheduler {
    fn thread_started(&self, index: usize) {
        let mut s = lock_poison_free(&self.state);
        if s.bailed {
            return;
        }
        s.registered += 1;
        s.alive += 1;
        s.pending[index] = None;
        self.park_and_wait(s, index);
    }

    fn yield_point(&self, index: usize, op: SchedOp) {
        let mut s = lock_poison_free(&self.state);
        if s.bailed {
            return;
        }
        if s.granted == Some(index) {
            s.granted = None;
        }
        s.pending[index] = Some(op);
        self.park_and_wait(s, index);
    }

    fn thread_finished(&self, index: usize) {
        let mut s = lock_poison_free(&self.state);
        if s.granted == Some(index) {
            s.granted = None;
        }
        s.alive = s.alive.saturating_sub(1);
        self.arbitrate(&mut s);
    }

    fn steal_contended(&self, _index: usize, op: SchedOp) -> bool {
        if op != SchedOp::InjectorSteal {
            return false;
        }
        let mut s = lock_poison_free(&self.state);
        if s.bailed || s.contention_left == 0 {
            return false;
        }
        // Consumed in grant order: the schedule script fully determines
        // which steals lose their race, so exhaustive replay stays
        // deterministic.
        s.contention_left -= 1;
        true
    }
}

/// Uninstalls the scheduler (releasing any parked thread first) even when a
/// run unwinds, so one failed schedule cannot wedge the process.
struct Installed {
    scheduler: Arc<StepScheduler>,
}

impl Installed {
    fn new(scheduler: Arc<StepScheduler>) -> Self {
        sched::install(Arc::clone(&scheduler) as Arc<dyn Scheduler>);
        Self { scheduler }
    }
}

impl Drop for Installed {
    fn drop(&mut self) {
        self.scheduler.release_all();
        sched::uninstall();
    }
}

/// What one scheduled run realized.
#[derive(Debug)]
struct RunRecord {
    script: Vec<usize>,
    arity: Vec<usize>,
    trace: Vec<(usize, Option<SchedOp>)>,
    budget_exceeded: bool,
    diverged: bool,
}

/// Run `case` once under `script`, with the case's fault schedule driving
/// verdicts: scripted dead workers `Retire` on their first job, everything
/// else is `Done`.  Every worker logs the payloads it executes.
fn run_one(
    case: &ExploreCase,
    script: Vec<usize>,
    strategy: Strategy,
    run_seed: u64,
) -> (StealRun<usize, Vec<usize>, usize>, RunRecord) {
    let max_steps = step_budget(case);
    let scheduler = Arc::new(StepScheduler::new(
        case.workers,
        script,
        strategy,
        run_seed,
        case.contention,
        max_steps,
    ));
    let installed = Installed::new(Arc::clone(&scheduler));
    let states: Vec<Vec<usize>> = vec![Vec::new(); case.workers];
    let execute = |worker: usize, log: &mut Vec<usize>, payload: usize| {
        log.push(payload);
        if case.fatal_workers.contains(&worker) {
            JobVerdict::Retire(payload)
        } else {
            JobVerdict::Done(payload)
        }
    };
    let up_front: Vec<usize> = (0..case.jobs).collect();
    let run = if case.feeder_jobs > 0 {
        run_stealing_with_feeder(
            states,
            up_front,
            |feeder| {
                for payload in case.jobs..case.total_jobs() {
                    feeder.push(payload);
                    // Let workers drain between arrivals so some pushes
                    // genuinely race live takes.
                    std::thread::yield_now();
                }
            },
            execute,
        )
    } else {
        run_stealing(states, up_front, execute)
    };
    drop(installed);
    let s = lock_poison_free(&scheduler.state);
    let record = RunRecord {
        script: s.script.clone(),
        arity: s.arity.clone(),
        trace: s.trace.clone(),
        budget_exceeded: s.budget_exceeded,
        diverged: s.diverged,
    };
    (run, record)
}

/// Render a trace compactly for violation messages: `w0:wo w1:ws ...`.
fn format_trace(trace: &[(usize, Option<SchedOp>)]) -> String {
    let mut out = String::new();
    for (worker, op) in trace {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push('w');
        out.push_str(&worker.to_string());
        out.push(':');
        out.push_str(op.map_or("go", SchedOp::mnemonic));
    }
    out
}

/// Check the host's contract on one completed run; returns human-readable
/// violations (empty when the schedule upholds every invariant).
fn check_run(case: &ExploreCase, run: &StealRun<usize, Vec<usize>, usize>) -> Vec<String> {
    let n = case.total_jobs();
    let mut violations = Vec::new();

    // 1. Conservation under failure: every job is delivered exactly once
    // or handed back in `unfinished`, never both and never neither.
    let mut seen: Vec<usize> = run.completed.iter().map(|c| c.result).collect();
    seen.extend(run.unfinished.iter().copied());
    seen.sort_unstable();
    if seen != (0..n).collect::<Vec<_>>() {
        violations.push(format!(
            "conservation: expected every job 0..{n} exactly once across \
             completions and unfinished, got {seen:?}"
        ));
    }

    // 2. Hand-back is a last resort: with any worker alive, everything
    // completes.
    if run.alive_workers() > 0 && !run.unfinished.is_empty() {
        violations.push(format!(
            "liveness: {} jobs handed back with {} workers alive",
            run.unfinished.len(),
            run.alive_workers()
        ));
    }

    for (worker, ledger) in run.workers.iter().enumerate() {
        // 3. Retirements are exactly the scripted workers that reached a
        // job, each after delivering that one job.
        let scripted = case.fatal_workers.contains(&worker);
        let executed = ledger.state.len();
        if run.died[worker] != (scripted && executed > 0) || (scripted && executed > 1) {
            violations.push(format!(
                "fault: worker {worker} (scripted {scripted}) ran {executed} jobs, \
                 retired {}",
                run.died[worker]
            ));
        }
        // 4. Ledger agreement: this worker's completions cross the channel
        // in its execution order (the caller's re-sequencing relies on
        // results being attributable, not on channel order — but per-sender
        // FIFO is the channel's contract and the ledger must agree with it).
        let delivered: Vec<usize> = run
            .completed
            .iter()
            .filter(|c| c.worker == worker)
            .map(|c| c.result)
            .collect();
        if delivered != ledger.state {
            violations.push(format!(
                "ordering: worker {worker} delivered {delivered:?} but executed {:?}",
                ledger.state
            ));
        }
        if ledger.executed_jobs != executed {
            violations.push(format!(
                "accounting: worker {worker} ledger claims {} jobs, log has {executed}",
                ledger.executed_jobs
            ));
        }
        // 5. Queue FIFO per consumer: the jobs a worker takes arrive in
        // submission order.  Fed jobs are pushed behind the up-front ones
        // in ascending payload order by a single feeder thread and nothing
        // is requeued, so the global FIFO (and hence each consumer's drain
        // order) stays ascending.
        if !ledger.state.windows(2).all(|pair| pair[0] < pair[1]) {
            violations.push(format!(
                "ordering: worker {worker} drained the queue out of order: {:?}",
                ledger.state
            ));
        }
    }
    violations
}

/// Advance a depth-first script: drop trailing maxed-out choices, bump the
/// deepest choice with an unexplored alternative.  `None` when the tree is
/// fully enumerated.
fn next_script(mut script: Vec<usize>, mut arity: Vec<usize>) -> Option<Vec<usize>> {
    debug_assert_eq!(script.len(), arity.len());
    while let (Some(choice), Some(alternatives)) = (script.pop(), arity.pop()) {
        if choice + 1 < alternatives {
            script.push(choice + 1);
            return Some(script);
        }
    }
    None
}

/// Explore one case under `strategy`, running at most `budget` schedules.
///
/// Exhaustive exploration stops early (with `exhausted = true`) once the
/// bounded choice tree is fully enumerated; seeded exploration always runs
/// `budget` walks and reports how many were distinct.
///
/// # Panics
/// Panics if the case has no workers (mirroring [`run_stealing`]'s own
/// contract).
#[must_use]
pub fn explore_case(case: &ExploreCase, strategy: Strategy, budget: usize) -> CaseReport {
    let _exclusive = lock_poison_free(&EXPLORE_LOCK);
    let mut report = CaseReport {
        name: case.name,
        workers: case.workers,
        jobs: case.total_jobs(),
        schedules: 0,
        exhausted: false,
        longest_trace: 0,
        transitions: BTreeSet::new(),
        violations: Vec::new(),
    };
    let mut distinct: BTreeSet<Vec<(usize, Option<SchedOp>)>> = BTreeSet::new();
    let mut script = Vec::new();
    for run_seed in 0..budget as u64 {
        let (run, record) = run_one(case, script, strategy, run_seed);
        let run_violations = check_run(case, &run);
        report.longest_trace = report.longest_trace.max(record.trace.len());
        let ops: Vec<SchedOp> = record.trace.iter().filter_map(|&(_, op)| op).collect();
        for pair in ops.windows(2) {
            report.transitions.insert((pair[0], pair[1]));
        }
        if distinct.insert(record.trace.clone()) {
            report.schedules += 1;
        }
        if record.diverged {
            report.violations.push(format!(
                "determinism: replayed schedule diverged at depth {} [{}]",
                record.arity.len(),
                format_trace(&record.trace)
            ));
        }
        if record.budget_exceeded {
            report.violations.push(format!(
                "liveness: schedule exceeded {} steps (possible livelock) [{}]",
                step_budget(case),
                format_trace(&record.trace)
            ));
        }
        for violation in run_violations {
            report
                .violations
                .push(format!("{violation} [{}]", format_trace(&record.trace)));
        }
        match strategy {
            Strategy::Exhaustive => match next_script(record.script, record.arity) {
                Some(next) => script = next,
                None => {
                    report.exhausted = true;
                    break;
                }
            },
            Strategy::Seeded(_) => script = Vec::new(),
        }
    }
    report
}

/// The standard exploration battery: the queue, feeder and fault patterns
/// the serving host actually produces, small enough to explore densely.
#[must_use]
pub fn standard_cases() -> Vec<ExploreCase> {
    let case = |name, workers, jobs| ExploreCase {
        name,
        workers,
        jobs,
        feeder_jobs: 0,
        contention: 0,
        fatal_workers: Vec::new(),
    };
    vec![
        case("shared-queue", 2, 3),
        case("three-way-contention", 3, 2),
        case("idle-pool", 3, 1),
        // Pins the injector-retry backoff fix: a contended take must go
        // through the shared backoff path instead of hot-spinning on the
        // queue, with conservation intact.
        ExploreCase {
            contention: 2,
            ..case("contended-injector", 2, 3)
        },
        // Pins the feeder-done termination protocol: arrivals pushed by an
        // uncontrolled thread mid-run must all execute (no early exit) and
        // the pool must still terminate (no hang after the feeder stops).
        ExploreCase {
            feeder_jobs: 3,
            ..case("streaming-feeder", 2, 2)
        },
        // Fault schedule: a device dies on the first job it takes while two
        // survivors race for the rest.  The dying worker must deliver that
        // job and retire — whatever point of the run the death lands on —
        // and the survivors must finish every other job.
        ExploreCase {
            fatal_workers: vec![0],
            ..case("dying-worker-retires", 3, 3)
        },
        // The production fault path: every job arrives through the live
        // feeder, as `execute_plan` feeds the pool, and a device dies under
        // those arrivals.  The survivor must drain every fed job the dead
        // worker did not take.
        ExploreCase {
            feeder_jobs: 3,
            fatal_workers: vec![0],
            ..case("feeder-death", 2, 0)
        },
    ]
}

/// Run the standard battery, splitting `budget` schedules across the cases
/// (each case also stops early once exhausted).  This is the race-detector
/// engine behind `sem-lint` and the CI smoke step.
///
/// Cases with an uncontrolled feeder are explored with seeded walks — the
/// feeder's pushes interleave nondeterministically, so exhaustive
/// enumeration's replayed prefixes would diverge; everything else is
/// enumerated exhaustively.
#[must_use]
pub fn standard_battery(budget: usize) -> Vec<CaseReport> {
    let cases = standard_cases();
    let per_case = (budget / cases.len()).max(1);
    cases
        .iter()
        .map(|case| {
            let strategy = if case.feeder_jobs > 0 {
                Strategy::Seeded(0x5eed_cafe)
            } else {
                Strategy::Exhaustive
            };
            explore_case(case, strategy, per_case)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_script_enumerates_a_small_tree_completely() {
        // Tree: depth 0 has 2 alternatives, depth 1 has 2 — but arity is
        // whatever each run reports, so feed a fixed shape and walk it.
        let mut script = Vec::new();
        let mut visited = Vec::new();
        loop {
            // Pretend every run observes arity [2, 2] (4 leaves).
            let arity = vec![2, 2];
            let full: Vec<usize> = script
                .iter()
                .copied()
                .chain(std::iter::repeat(0))
                .take(2)
                .collect();
            visited.push(full.clone());
            match next_script(full, arity) {
                Some(next) => script = next,
                None => break,
            }
        }
        assert_eq!(
            visited,
            vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]],
            "depth-first enumeration of the whole tree, each leaf once"
        );
    }

    #[test]
    fn next_script_on_a_single_alternative_tree_is_done_immediately() {
        assert_eq!(next_script(vec![0, 0], vec![1, 1]), None);
        assert_eq!(next_script(Vec::new(), Vec::new()), None);
    }

    #[test]
    fn splitmix_is_deterministic_and_non_constant() {
        let mut a = 42;
        let mut b = 42;
        let first = next_rand(&mut a);
        assert_eq!(first, next_rand(&mut b));
        assert_ne!(first, next_rand(&mut a));
    }

    #[test]
    fn trace_formatting_is_compact() {
        let trace = vec![(0, None), (1, Some(SchedOp::InjectorSteal))];
        assert_eq!(format_trace(&trace), "w0:go w1:is");
    }

    #[test]
    fn transition_map_renders_classes_in_deterministic_order() {
        let mut transitions = BTreeSet::new();
        transitions.insert((SchedOp::InjectorSteal, SchedOp::ChannelSend));
        transitions.insert((SchedOp::InjectorPush, SchedOp::InjectorSteal));
        let report = CaseReport {
            name: "map",
            workers: 1,
            jobs: 0,
            schedules: 0,
            exhausted: false,
            longest_trace: 0,
            transitions,
            violations: Vec::new(),
        };
        assert_eq!(report.transition_map(), "ip>is is>cs");
    }

    #[test]
    fn to_json_round_trips_fields_and_escapes_violations() {
        let mut transitions = BTreeSet::new();
        transitions.insert((SchedOp::InjectorSteal, SchedOp::ChannelSend));
        let report = CaseReport {
            name: "json",
            workers: 2,
            jobs: 3,
            schedules: 17,
            exhausted: true,
            longest_trace: 9,
            transitions,
            violations: vec!["lost \"job\"\nafter steal".to_string()],
        };
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"name\":\"json\",\"workers\":2,\"jobs\":3,\"schedules\":17,\
             \"exhausted\":true,\"longest_trace\":9,\
             \"transitions\":[\"is>cs\"],\
             \"violations\":[\"lost \\\"job\\\"\\nafter steal\"]}"
        );
    }

    #[test]
    fn exploration_accumulates_transition_coverage() {
        let case = ExploreCase {
            name: "coverage-smoke",
            workers: 2,
            jobs: 2,
            feeder_jobs: 0,
            contention: 0,
            fatal_workers: Vec::new(),
        };
        let report = explore_case(&case, Strategy::Exhaustive, 64);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // Any run of the host performs at least push -> consume -> send
        // sequences, so coverage can never be empty, and the map renders
        // one class per entry.
        assert!(!report.transitions.is_empty());
        assert_eq!(
            report.transition_map().split(' ').count(),
            report.transitions.len()
        );
    }

    #[test]
    fn contention_injection_is_explored_without_violations() {
        let case = ExploreCase {
            name: "contention-smoke",
            workers: 2,
            jobs: 2,
            feeder_jobs: 0,
            contention: 2,
            fatal_workers: Vec::new(),
        };
        let report = explore_case(&case, Strategy::Exhaustive, 128);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.schedules > 0);
    }

    #[test]
    fn feeder_case_conserves_and_terminates_under_seeded_walks() {
        let case = ExploreCase {
            name: "feeder-smoke",
            workers: 2,
            jobs: 2,
            feeder_jobs: 3,
            contention: 0,
            fatal_workers: Vec::new(),
        };
        let report = explore_case(&case, Strategy::Seeded(7), 16);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.jobs, 5, "up-front plus fed jobs are all accounted");
        assert!(report.schedules > 0);
    }

    #[test]
    fn a_dying_worker_case_is_explored_without_violations() {
        let case = ExploreCase {
            name: "death-smoke",
            workers: 2,
            jobs: 3,
            feeder_jobs: 0,
            contention: 0,
            fatal_workers: vec![0],
        };
        let report = explore_case(&case, Strategy::Exhaustive, 128);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.schedules > 0);
    }
}
