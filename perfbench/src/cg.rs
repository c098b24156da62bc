//! The `cg-jacobi` workload: a closed loop with one client issuing
//! back-to-back single-RHS Jacobi-PCG solves on one `SemSystem`.

use crate::host;
use crate::ledger::{self, Layer, LedgerSolve};
use crate::report::{median, ratio, Outcome};
use sem_accel::{AxBackend, CpuBackend, SemSystem, SolveReport};
use sem_kernel::AxImplementation;
use sem_mesh::{BoxMesh, ElementField, GatherScatter, MeshDeformation};
use sem_obs::WallTimer;
use sem_serve::{relative_residual, FaultToleranceOptions, ProblemSpec, ServeRequest};
use sem_solver::{coarse_space_dofs, CgOptions, PoissonProblem, PrecondSpec, Preconditioner};
use std::hint::black_box;

/// The committed shape: N = 7 on 6³ elements (110,592 local dofs, about
/// 10 MB of CG working set).
const SHAPE: ProblemSpec = ProblemSpec {
    degree: 7,
    elements: [6, 6, 6],
};

const BACKEND: &str = "cpu:specialized";

/// Builds of the system per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// CG to relative residual 1e-10.
pub fn options() -> CgOptions {
    CgOptions {
        max_iterations: 2000,
        tolerance: 1e-10,
        record_history: false,
    }
}

/// The serving layer's residual re-verification limit.
pub fn residual_limit() -> f64 {
    FaultToleranceOptions::default().verify_slack * options().tolerance
}

fn build() -> SemSystem {
    SemSystem::builder()
        .degree(SHAPE.degree)
        .elements(SHAPE.elements)
        .backend_named(BACKEND)
        .build()
}

/// Request `i` of a run seeded with `seed`, assembled on `system`.
fn rhs(system: &SemSystem, seed: u64, i: u64) -> ElementField {
    ServeRequest::seeded(SHAPE, seed.wrapping_add(i)).assemble_rhs(system)
}

/// Whether `report` converged and its answer passes re-verification on the
/// host operator.
fn verified(system: &SemSystem, rhs: &ElementField, report: &SolveReport) -> bool {
    report.converged()
        && relative_residual(system, rhs, &report.solution.solution) <= residual_limit()
}

/// Build the system `SETUP_REPEATS` times; return the last build and the
/// median build time.
fn timed_setup() -> (SemSystem, f64) {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    let mut system = None;
    for _ in 0..SETUP_REPEATS {
        drop(system.take());
        let timer = WallTimer::start();
        let built = build();
        samples.push(timer.elapsed_wall_seconds());
        system = Some(built);
    }
    (system.expect("at least one build"), median(&samples))
}

/// Untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let (system, setup_s) = timed_setup();
    outcome.set("setup_s", setup_s);

    // One untimed warm-up solve (request 0) lets caches and lazy set-up
    // settle; it is still verified.
    let warm = rhs(&system, seed, 0);
    let report = system.solve_rhs(&warm, options());
    outcome.answer(verified(&system, &warm, &report));

    let mut speed = host::HostSpeed::new(1);
    let mut samples = Vec::new();
    let mut reference = Vec::new();
    let mut iterations = Vec::new();
    let mut i = 1;
    while samples.iter().sum::<f64>() < seconds {
        let b = rhs(&system, seed, i);
        let (report, wall, on_reference) = speed.time(|| system.solve_rhs(&b, options()));
        samples.push(wall);
        reference.push(on_reference);
        iterations.push(report.iterations());
        outcome.answer(verified(&system, &b, &report));
        i += 1;
    }
    let timed: f64 = samples.iter().sum();
    outcome.set("solve_s_ref.p50", median(&reference));
    outcome.set(
        "answers_per_s_ref",
        samples.len() as f64 / reference.iter().sum::<f64>(),
    );
    match host::peak_rss_mib() {
        Some(rss) => outcome.set("peak_rss_mib", rss),
        None => outcome
            .broken
            .push("peak resident memory unavailable".into()),
    }
    outcome.note(format!(
        "jacobi on {BACKEND}: N={} {:?} elements, {} timed solves in {timed:.2} s, iterations {}..{}",
        SHAPE.degree,
        SHAPE.elements,
        samples.len(),
        iterations.iter().min().unwrap_or(&0),
        iterations.iter().max().unwrap_or(&0),
    ));
    outcome.note(quartiles_note("wall", &samples));
    outcome.note(quartiles_note("reference-host", &reference));
    outcome
}

/// The sample count and quartiles of per-solve seconds, and why no tail
/// percentile is reported: p90 needs at least ten samples beyond it.
fn quartiles_note(kind: &str, samples: &[f64]) -> String {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at =
        |q: f64| sorted[((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1];
    let beyond_p90 = sorted.len() - (0.9 * sorted.len() as f64).ceil() as usize;
    format!(
        "{kind} solve seconds over {} samples: min {:.4} p25 {:.4} p50 {:.4} p75 {:.4} max {:.4}; \
         p90 not reported ({beyond_p90} samples beyond it, needs 10)",
        sorted.len(),
        sorted[0],
        at(0.25),
        median(&sorted),
        at(0.75),
        sorted[sorted.len() - 1]
    )
}

/// Traced run: per-layer metrics from the ledger CG, reconciled against
/// `SemSystem::solve_rhs` on the same right-hand sides.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let roofline = host::measure_roofline(&mut outcome);
    trace_setup(&mut outcome);

    let system = build();
    let precond = system.problem().preconditioner(PrecondSpec::Jacobi);
    let backend = system.execution();
    let gather_scatter = system.gather_scatter();

    let mut solves: Vec<LedgerSolve> = Vec::new();
    let mut real_seconds = 0.0;
    let mut i = 0;
    let phase = WallTimer::start();
    while solves.is_empty() || phase.elapsed_wall_seconds() < seconds {
        let b = rhs(&system, seed, i);
        let timer = WallTimer::start();
        let report = system.solve_rhs(&b, options());
        real_seconds += timer.elapsed_wall_seconds();
        outcome.answer(verified(&system, &b, &report));
        let traced = ledger::solve(
            backend,
            gather_scatter,
            system.mask(),
            &precond,
            &b,
            options(),
        );
        if traced.iterations != report.iterations() {
            outcome.broken.push(format!(
                "request {i}: ledger ran {} iterations, solve_rhs {}",
                traced.iterations,
                report.iterations()
            ));
        }
        if !traced.converged || !same_bits(&traced.solution, &report.solution.solution) {
            outcome.broken.push(format!(
                "request {i}: ledger solution differs from solve_rhs"
            ));
        }
        solves.push(traced);
        i += 1;
    }
    let ax_per_call = record_ledger(
        &mut outcome,
        &solves,
        real_seconds,
        backend,
        gather_scatter,
        &roofline,
    );
    fdm_probe(&system, ax_per_call, &mut outcome);
    outcome.set("sem-kernel.ax_parallel.speedup", parallel_speedup(&system));
    outcome.set("verify.samples", solves.len() as f64);
    outcome.set(
        "verify.failed_frac",
        ratio(outcome.failed as f64, outcome.attempted as f64),
    );
    outcome
}

/// Whether two fields hold the same values, bit for bit.
pub fn same_bits(a: &ElementField, b: &ElementField) -> bool {
    a.len() == b.len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Set-up layers: mesh + problem discretisation (sem-accel's share of the
/// build) and the Jacobi preconditioner's own set-up (sem-solver).
fn trace_setup(outcome: &mut Outcome) {
    let mut problem_s = Vec::with_capacity(5);
    let mut precond_s = Vec::with_capacity(5);
    for _ in 0..5 {
        let timer = WallTimer::start();
        let mesh = BoxMesh::new(
            SHAPE.degree,
            SHAPE.elements,
            [1.0; 3],
            MeshDeformation::None,
        );
        let problem = PoissonProblem::new(mesh, AxImplementation::Specialized);
        problem_s.push(timer.elapsed_wall_seconds());
        let timer = WallTimer::start();
        black_box(problem.preconditioner(PrecondSpec::Jacobi));
        precond_s.push(timer.elapsed_wall_seconds());
    }
    outcome.set("sem-accel.setup.problem_s", median(&problem_s));
    outcome.set("sem-solver.setup.precond_s", median(&precond_s));
}

/// Computed bytes of one `direct_stiffness_sum`: the CSR offset of every
/// global node, plus index, read and write of every local copy of a shared
/// node (single-copy nodes are skipped by the sweep).
fn dssum_bytes(gather_scatter: &GatherScatter) -> f64 {
    let shared = gather_scatter
        .multiplicity()
        .iter()
        .filter(|&&m| m > 1.0)
        .count();
    8.0 * gather_scatter.num_global_dofs() as f64 + 24.0 * shared as f64
}

/// Record the ledger's per-layer metrics; returns seconds per `Ax` call.
fn record_ledger(
    outcome: &mut Outcome,
    solves: &[LedgerSolve],
    real_seconds: f64,
    backend: &dyn AxBackend,
    gather_scatter: &GatherScatter,
    roofline: &host::Roofline,
) -> f64 {
    let count = solves.len() as f64;
    let ledger_wall: f64 = solves.iter().map(|s| s.wall_seconds).sum();
    let iterations: f64 = solves.iter().map(|s| s.iterations as f64).sum();
    let totals = |layer: Layer| {
        solves.iter().fold((0.0, 0.0, 0.0), |acc, s| {
            let (secs, calls, bytes) = s.layer_totals(layer);
            (acc.0 + secs, acc.1 + calls as f64, acc.2 + bytes)
        })
    };
    let covered: f64 = Layer::ALL.iter().map(|&l| totals(l).0).sum();
    let share = |secs: f64| ratio(secs, ledger_wall);

    let (ax_s, ax_calls, _) = totals(Layer::Ax);
    let ax_per_call = ratio(ax_s, ax_calls);
    let ax_gflops = ratio(backend.flops_per_application() as f64 * ax_calls, ax_s) / 1e9;
    let intensity = perf_model::operational_intensity(SHAPE.degree);
    outcome.set("sem-kernel.ax.s_per_call", ax_per_call);
    outcome.set("sem-kernel.ax.calls", ax_calls / count);
    outcome.set("sem-kernel.ax.gflops", ax_gflops);
    outcome.set("sem-kernel.ax.flop_per_byte", intensity);
    if let Some(bound) = roofline.bound_gflops(intensity) {
        outcome.set("sem-kernel.ax.roofline_frac", ratio(ax_gflops, bound));
    }
    outcome.set("sem-kernel.ax.share", share(ax_s));

    let (dssum_s, dssum_calls, _) = totals(Layer::Dssum);
    outcome.set("sem-mesh.dssum.s_per_call", ratio(dssum_s, dssum_calls));
    outcome.set(
        "sem-mesh.dssum.gbs",
        ratio(dssum_bytes(gather_scatter) * dssum_calls, dssum_s) / 1e9,
    );
    outcome.set("sem-mesh.dssum.share", share(dssum_s));

    let (mask_s, mask_calls, _) = totals(Layer::Mask);
    outcome.set("sem-mesh.mask.s_per_call", ratio(mask_s, mask_calls));
    outcome.set("sem-mesh.mask.share", share(mask_s));

    let (vec_s, _, vec_bytes) = totals(Layer::Vec);
    outcome.set("sem-mesh.vec.s_per_iter", ratio(vec_s, iterations));
    outcome.set("sem-mesh.vec.gbs", ratio(vec_bytes, vec_s) / 1e9);
    outcome.set("sem-mesh.vec.share", share(vec_s));

    let (precond_s, precond_calls, _) = totals(Layer::Precond);
    let precond_per_call = ratio(precond_s, precond_calls);
    outcome.set("sem-solver.precond.s_per_call", precond_per_call);
    outcome.set("sem-solver.precond.share", share(precond_s));
    outcome.set(
        "sem-solver.precond.over_ax",
        ratio(precond_per_call, ax_per_call),
    );
    outcome.set("sem-solver.cg.iterations", iterations / count);
    outcome.set("sem-solver.cg.self_share", share(ledger_wall - covered));

    outcome.set("ledger.coverage", share(covered));
    outcome.set("ledger.fidelity", ratio(ledger_wall, real_seconds));
    outcome.note(format!(
        "ledger: {} traced solves, {ledger_wall:.3} s traced vs {real_seconds:.3} s solve_rhs; \
         layers cover {:.1}% (within-5% target {})",
        solves.len(),
        100.0 * share(covered),
        if share(covered) >= 0.95 {
            "met"
        } else {
            "not met"
        }
    ));
    ax_per_call
}

/// The FDM preconditioner on the same shape, outside any workload: its
/// set-up (eigendecompositions plus the dense coarse Cholesky) and one
/// application against an `Ax` call (the ROADMAP target is at most 1.2).
fn fdm_probe(system: &SemSystem, ax_per_call: f64, outcome: &mut Outcome) {
    const CALLS: usize = 20;
    let mut setup = Vec::with_capacity(3);
    let mut fdm = None;
    for _ in 0..3 {
        drop(fdm.take());
        let timer = WallTimer::start();
        let built = system.problem().preconditioner(PrecondSpec::Fdm);
        setup.push(timer.elapsed_wall_seconds());
        fdm = Some(built);
    }
    let fdm = fdm.expect("at least one build");
    let r = system.problem().generic_rhs();
    let mut z = ElementField::zeros(SHAPE.degree, SHAPE.num_elements());
    let mut per_call = Vec::with_capacity(3);
    for _ in 0..3 {
        let timer = WallTimer::start();
        for _ in 0..CALLS {
            fdm.apply_into(&r, &mut z);
        }
        black_box(&z);
        per_call.push(timer.elapsed_wall_seconds() / CALLS as f64);
    }
    let per_call = median(&per_call);
    outcome.set("sem-solver.setup.fdm_s", median(&setup));
    outcome.set(
        "sem-solver.setup.coarse_dofs",
        coarse_space_dofs(SHAPE.degree, SHAPE.elements) as f64,
    );
    outcome.set("sem-solver.fdm.s_per_call", per_call);
    outcome.set("sem-solver.fdm.over_ax", ratio(per_call, ax_per_call));
}

/// `cpu:parallel` ÷ `cpu:specialized` per-call `Ax` speed on this shape
/// (informational: two shared cores make it too noisy for a workload).
fn parallel_speedup(system: &SemSystem) -> f64 {
    const CALLS: usize = 20;
    let parallel = CpuBackend::new(system.mesh(), AxImplementation::Parallel);
    let specialized = system.execution();
    let u = system
        .mesh()
        .evaluate(|x, y, z| (x + 0.3) * (y - 0.7) * (z + 0.11));
    let mut w = ElementField::zeros(SHAPE.degree, SHAPE.num_elements());
    let mut time = |backend: &dyn AxBackend| {
        let timer = WallTimer::start();
        for _ in 0..CALLS {
            backend.apply_into(&u, &mut w);
        }
        black_box(&w);
        timer.elapsed_wall_seconds()
    };
    let mut serial = Vec::with_capacity(3);
    let mut threaded = Vec::with_capacity(3);
    for _ in 0..3 {
        serial.push(time(specialized));
        threaded.push(time(&parallel));
    }
    ratio(median(&serial), median(&threaded))
}
