//! The `serve-mix` workload: a closed drain of a seeded Poisson trace
//! through `Server::serve_stream_async` on a two-board simulated-FPGA pool.
//!
//! Every second the serving host stamps (arrival, deadline, latency) is
//! modelled, so the end-to-end figures here are wall-clock drains of the
//! whole trace; the modelled tail latency is kept as a labelled per-layer
//! number.

use crate::cg;
use crate::host;
use crate::report::{median, ratio, Outcome};
use perf_model::{arrival_times, WorkloadKind};
use sem_accel::{Backend, SemSystem};
use sem_mesh::ElementField;
use sem_obs::{
    recorder, ObsClock, ObsConfig, Recorder, WallEpoch, WallTimer, DEFAULT_RING_CAPACITY,
};
use sem_serve::{
    ArrivalStream, LiveOptions, LiveReport, ProblemSpec, ServeOptions, ServeRequest, Server,
    TimedRequest,
};
use sem_solver::PrecondSpec;
use std::collections::BTreeMap;
use std::hint::black_box;

/// The pool: two boards sharing one datapath, one worker thread each.
const POOL: [&str; 2] = ["fpga:stratix10-gx2800", "fpga:agilex-027"];

/// Request `i` of the trace has shape `SHAPES[i % 4]`.
const SHAPES: [ProblemSpec; 4] = [
    ProblemSpec {
        degree: 3,
        elements: [3, 3, 3],
    },
    ProblemSpec {
        degree: 5,
        elements: [2, 2, 2],
    },
    ProblemSpec {
        degree: 7,
        elements: [2, 2, 2],
    },
    ProblemSpec {
        degree: 7,
        elements: [3, 3, 3],
    },
];

/// Modelled offered load, and the first `REQUESTS` arrivals of it form the
/// trace (a fixed count keeps every seed's drain the same size).
const RATE_RPS: f64 = 200.0;
const REQUESTS: usize = 200;

/// Cold servers built per run; `setup_s` is the median of their warm-up.
const SETUP_REPEATS: usize = 9;

fn serve_options() -> ServeOptions {
    ServeOptions {
        cg: cg::options(),
        ..ServeOptions::default()
    }
    .with_precond(PrecondSpec::Jacobi)
}

/// A deadline of an hour of modelled time: admission prices every job but
/// rejects none.
fn live_options() -> LiveOptions {
    LiveOptions {
        deadline_seconds: 3600.0,
        ..LiveOptions::default()
    }
}

fn request(seed: u64, i: usize) -> ServeRequest {
    ServeRequest::seeded(SHAPES[i % SHAPES.len()], seed.wrapping_add(i as u64))
}

/// The seeded trace: Poisson arrivals from `perf_model`, shapes cycling.
fn trace(seed: u64) -> ArrivalStream {
    let kind = WorkloadKind::Poisson { rate_rps: RATE_RPS };
    // Twice the expected span, so the horizon never cuts the trace short.
    let horizon = 2.0 * REQUESTS as f64 / RATE_RPS;
    ArrivalStream::new(
        arrival_times(kind, seed, horizon)
            .into_iter()
            .take(REQUESTS)
            .enumerate()
            .map(|(i, arrival_seconds)| TimedRequest {
                arrival_seconds,
                request: request(seed, i),
            })
            .collect(),
    )
}

/// One request per shape, all at t = 0: the cold pass that builds every
/// (slot, shape) session on the calling thread.
fn warm_up_trace(seed: u64) -> ArrivalStream {
    ArrivalStream::new(
        (0..SHAPES.len())
            .map(|i| TimedRequest {
                arrival_seconds: 0.0,
                request: request(seed, i),
            })
            .collect(),
    )
}

fn session(device: &str, spec: ProblemSpec) -> SemSystem {
    let backend = Backend::from_name(device)
        .expect("pool names are registry names")
        .with_precond(PrecondSpec::Jacobi);
    SemSystem::builder()
        .degree(spec.degree)
        .elements(spec.elements)
        .backend(backend)
        .build()
}

/// Host sessions identical to the server's, one per (device, shape), with
/// the reference answers `SemSystem::solve_many` gives on them.
struct Reference {
    /// Indexed by `device * SHAPES.len() + shape`.
    sessions: Vec<SemSystem>,
    /// Per request: its right-hand side (assembled on the first board).
    rhs: Vec<ElementField>,
    /// Per request: the first board's solution and iteration count.
    answers: Vec<(ElementField, usize)>,
    /// Requests the second board answers differently, with its answer.
    second_board: BTreeMap<usize, (ElementField, usize)>,
    /// Modelled seconds of each first-board reference solve.
    modelled_seconds: Vec<f64>,
    /// Operator applications per shape across the first-board solves.
    applications: [usize; 4],
}

impl Reference {
    /// Solve every request of `stream` with `solve_many` on both boards.
    fn new(stream: &ArrivalStream) -> Self {
        let sessions: Vec<SemSystem> = POOL
            .iter()
            .flat_map(|device| SHAPES.iter().map(move |&spec| session(device, spec)))
            .collect();
        let rhs: Vec<ElementField> = stream
            .arrivals()
            .iter()
            .enumerate()
            .map(|(i, timed)| timed.request.assemble_rhs(&sessions[i % SHAPES.len()]))
            .collect();
        let mut answers = vec![None; stream.len()];
        let mut second_board = BTreeMap::new();
        let mut modelled_seconds = Vec::with_capacity(stream.len());
        let mut applications = [0; 4];
        for (shape, count) in applications.iter_mut().enumerate() {
            let ids: Vec<usize> = (shape..stream.len()).step_by(SHAPES.len()).collect();
            let rhss: Vec<ElementField> = ids.iter().map(|&i| rhs[i].clone()).collect();
            // One board per thread, as in the pool.
            let (first, second) = std::thread::scope(|scope| {
                let second =
                    scope.spawn(|| sessions[SHAPES.len() + shape].solve_many(&rhss, cg::options()));
                let first = sessions[shape].solve_many(&rhss, cg::options());
                (
                    first,
                    second.join().expect("reference solve thread panicked"),
                )
            });
            for ((&i, one), two) in ids.iter().zip(first).zip(second) {
                modelled_seconds.push(one.modeled_seconds());
                *count += one.solution.cg.operator_applications;
                let (one_iters, two_iters) = (one.iterations(), two.iterations());
                let answer = (one.solution.solution, one_iters);
                let other = (two.solution.solution, two_iters);
                if !same_answer((&answer.0, answer.1), (&other.0, other.1)) {
                    second_board.insert(i, other);
                }
                answers[i] = Some(answer);
            }
        }
        Self {
            sessions,
            rhs,
            answers: answers
                .into_iter()
                .map(|a| a.expect("every request solved"))
                .collect(),
            second_board,
            modelled_seconds,
            applications,
        }
    }

    /// The first board's session for `shape`; its host operator
    /// re-verifies residuals.
    fn host(&self, shape: usize) -> &SemSystem {
        self.session(0, shape)
    }

    fn session(&self, device: usize, shape: usize) -> &SemSystem {
        &self.sessions[device * SHAPES.len() + shape]
    }

    /// The reference answer to request `i` on `device`.
    fn answer(&self, device: usize, i: usize) -> (&ElementField, usize) {
        let (solution, iterations) = match self.second_board.get(&i) {
            Some(answer) if device == 1 => answer,
            _ => &self.answers[i],
        };
        (solution, *iterations)
    }
}

/// Same iteration count and the same solution, bit for bit.
fn same_answer((a, a_iters): (&ElementField, usize), (b, b_iters): (&ElementField, usize)) -> bool {
    a_iters == b_iters && cg::same_bits(a, b)
}

/// A digest of a drain's answers: admitted ids, iteration total and a hash
/// of every solution bit, so repeated drains and repeated runs can be
/// compared exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    admitted: Vec<usize>,
    iterations: u64,
    bits: u64,
}

impl Fingerprint {
    fn of(report: &LiveReport) -> Self {
        let mut bits = 0xcbf2_9ce4_8422_2325_u64;
        for outcome in &report.outcomes {
            for value in outcome.solution.as_slice() {
                bits = (bits ^ value.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Self {
            admitted: report.outcomes.iter().map(|o| o.request).collect(),
            iterations: report.outcomes.iter().map(|o| o.iterations as u64).sum(),
            bits,
        }
    }
}

/// Check every answer of one drain: each trace request admitted, converged,
/// bitwise equal to `solve_many` on its board, and residual-verified on a
/// host session.  Failures count against `outcome`.
fn verify_drain(
    report: &LiveReport,
    stream: &ArrivalStream,
    reference: &Reference,
    outcome: &mut Outcome,
) {
    let limit = cg::residual_limit();
    for _ in &report.rejections {
        outcome.answer(false);
    }
    // Requests neither answered nor rejected are failures too.
    let missing = stream.len() - report.outcomes.len() - report.rejections.len();
    for _ in 0..missing {
        outcome.answer(false);
    }
    for answer in &report.outcomes {
        let i = answer.request;
        let identical = same_answer(
            reference.answer(answer.device, i),
            (&answer.solution, answer.iterations),
        );
        let system = reference.host(i % SHAPES.len());
        let residual = sem_serve::relative_residual(system, &reference.rhs[i], &answer.solution);
        outcome.answer(answer.converged && identical && residual <= limit);
    }
}

fn new_server() -> Server {
    Server::from_registry_names(&POOL, serve_options())
}

/// Untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let stream = trace(seed);
    let timer = WallTimer::start();
    let reference = Reference::new(&stream);
    outcome.note(format!(
        "reference solves: {:.2} s",
        timer.elapsed_wall_seconds()
    ));

    let warm = warm_up_trace(seed);
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        drop(server.take());
        let timer = WallTimer::start();
        let mut cold = new_server();
        let report = cold.serve_stream_async(&warm, &live_options(), None);
        setup.push(timer.elapsed_wall_seconds());
        // The warm-up requests are the trace's first four, so the trace's
        // reference answers verify them.
        verify_drain(&report, &warm, &reference, &mut outcome);
        server = Some(cold);
    }
    let mut server = server.expect("at least one server");
    outcome.set("setup_s", median(&setup));

    let mut speed = host::HostSpeed::new(POOL.len());
    let mut drains = Vec::new();
    let mut drains_on_reference = Vec::new();
    let mut answers = 0;
    let mut first: Option<Fingerprint> = None;
    while drains.iter().sum::<f64>() < seconds {
        let (report, wall, on_reference) =
            speed.time(|| server.serve_stream_async(&stream, &live_options(), None));
        drains.push(wall);
        drains_on_reference.push(on_reference);
        answers += report.outcomes.len();
        verify_drain(&report, &stream, &reference, &mut outcome);
        check_repeat(&mut first, &report, &mut outcome);
    }
    let timed: f64 = drains.iter().sum();
    outcome.set(
        "answers_per_s_ref",
        answers as f64 / drains_on_reference.iter().sum::<f64>(),
    );
    // On this workload one "solve" is the drain of the whole trace.
    outcome.set("solve_s_ref.p50", median(&drains_on_reference));
    outcome.note(format!(
        "drain wall seconds: median {:.3}, {:.1} answers per wall second",
        median(&drains),
        answers as f64 / timed
    ));
    match host::peak_rss_mib() {
        Some(rss) => outcome.set("peak_rss_mib", rss),
        None => outcome
            .broken
            .push("peak resident memory unavailable".into()),
    }
    describe(&mut outcome, &stream, drains.len(), timed, first.as_ref());
    outcome
}

/// Drains of one trace must agree exactly with the first.
fn check_repeat(first: &mut Option<Fingerprint>, report: &LiveReport, outcome: &mut Outcome) {
    let print = Fingerprint::of(report);
    match first {
        None => *first = Some(print),
        Some(expected) if *expected != print => outcome
            .broken
            .push("a repeated drain of the same trace gave different answers".into()),
        Some(_) => {}
    }
}

fn describe(
    outcome: &mut Outcome,
    stream: &ArrivalStream,
    drains: usize,
    timed: f64,
    print: Option<&Fingerprint>,
) {
    outcome.note(format!(
        "serve-mix: {} requests ({RATE_RPS} rps modelled Poisson), pool {POOL:?}, \
         Jacobi, {drains} drains in {timed:.2} s",
        stream.len(),
    ));
    if let Some(print) = print {
        outcome.note(format!(
            "fingerprint: admitted {} requests, {} CG iterations, solution bits {:016x}",
            print.admitted.len(),
            print.iterations,
            print.bits
        ));
    }
}

/// Traced run: the serving ledger.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    host::measure_roofline(&mut outcome);
    let stream = trace(seed);
    let reference = Reference::new(&stream);
    let mut server = new_server();
    let warm = warm_up_trace(seed);
    black_box(server.serve_stream_async(&warm, &live_options(), None));

    // Steal and job counts come from the counters the stealing pool and the
    // streaming host already emit, on the wall clock.
    Recorder::install(ObsConfig {
        clock: ObsClock::Wall(WallEpoch::now()),
        ring_capacity: DEFAULT_RING_CAPACITY,
    });
    let mut drains = Vec::new();
    let mut last = None;
    let mut first: Option<Fingerprint> = None;
    while drains.is_empty() || drains.iter().sum::<f64>() < seconds {
        let timer = WallTimer::start();
        let report = server.serve_stream_async(&stream, &live_options(), None);
        drains.push(timer.elapsed_wall_seconds());
        verify_drain(&report, &stream, &reference, &mut outcome);
        check_repeat(&mut first, &report, &mut outcome);
        last = Some(report);
    }
    let metrics = recorder().prometheus_text();
    Recorder::uninstall();
    let report = last.expect("at least one drain");
    let drain_s = median(&drains);
    let per_drain = |name: &str| counter(&metrics, name) / drains.len() as f64;
    let jobs = per_drain("sem_serve_live_arrivals_total");
    outcome.set("sem-serve.jobs", jobs);
    outcome.set("sem-serve.steals", per_drain("sem_serve_steals_total"));
    outcome.set(
        "sem-serve.mean_batch",
        ratio(report.outcomes.len() as f64, jobs),
    );
    if let Some(p99) = report.latency_percentile_seconds(99.0) {
        outcome.set("sem-serve.p99_latency_s.modelled", p99);
    }
    outcome.set(
        "sem-serve.drift_correction.modelled",
        report.drift_correction,
    );

    // Solve share: each admitted request re-solved standalone on an
    // identical session, outside the host, against the pool's capacity.
    // Like the pool, one thread per board shares the requests.
    let ids: Vec<usize> = report.outcomes.iter().map(|o| o.request).collect();
    let standalone: f64 = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..POOL.len())
            .map(|device| {
                let (ids, reference) = (&ids, &reference);
                scope.spawn(move || {
                    let mut seconds = 0.0;
                    for &i in ids.iter().skip(device).step_by(POOL.len()) {
                        let system = reference.session(device, i % SHAPES.len());
                        let timer = WallTimer::start();
                        black_box(system.solve_rhs(&reference.rhs[i], cg::options()));
                        seconds += timer.elapsed_wall_seconds();
                    }
                    seconds
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("standalone solve thread panicked"))
            .sum()
    });
    let capacity = POOL.len() as f64 * drain_s;
    outcome.note(format!(
        "solve share: {standalone:.3} s of standalone solves against {POOL_LEN} workers x \
         {drain_s:.3} s median drain",
        POOL_LEN = POOL.len()
    ));
    outcome.set("sem-serve.solve_share", ratio(standalone, capacity));
    outcome.set(
        "sem-serve.overhead_s_per_req",
        ratio(capacity - standalone, report.outcomes.len() as f64),
    );

    outcome.set("fpga-sim.apply.s_per_call", apply_seconds(&reference));
    outcome.set(
        "fpga-sim.solve_s.modelled",
        median(&reference.modelled_seconds),
    );
    outcome.set("verify.samples", drains.len() as f64);
    outcome.set(
        "verify.failed_frac",
        ratio(outcome.failed as f64, outcome.attempted as f64),
    );
    describe(
        &mut outcome,
        &stream,
        drains.len(),
        drains.iter().sum(),
        first.as_ref(),
    );
    outcome
}

/// A counter's value in a Prometheus text snapshot (0 when never bumped).
fn counter(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .filter_map(|line| line.strip_prefix(name))
        .filter_map(|rest| rest.strip_prefix(' '))
        .filter_map(|value| value.trim().parse::<f64>().ok())
        .fold(0.0, |total, value| total + value)
}

/// Host wall seconds per simulated `Ax` application, weighted by how many
/// applications each shape needed across the reference solves.
fn apply_seconds(reference: &Reference) -> f64 {
    const CALLS: usize = 20;
    let applications = reference.applications;
    let mut weighted = 0.0;
    for (shape, &count) in applications.iter().enumerate() {
        let system = reference.host(shape);
        let u = system
            .mesh()
            .evaluate(|x, y, z| (x + 0.3) * (y - 0.7) * (z + 0.11));
        let mut w = ElementField::zeros(u.degree(), u.num_elements());
        let mut samples = Vec::with_capacity(3);
        for _ in 0..3 {
            let timer = WallTimer::start();
            for _ in 0..CALLS {
                system.execution().apply_into(&u, &mut w);
            }
            black_box(&w);
            samples.push(timer.elapsed_wall_seconds() / CALLS as f64);
        }
        weighted += median(&samples) * count as f64;
    }
    ratio(weighted, applications.iter().sum::<usize>() as f64)
}
