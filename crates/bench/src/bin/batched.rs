//! Batched many-RHS serving sweep: for every registry backend, solve the
//! manufactured problem at batch sizes {1, 4, 16, 64} through
//! `SemSystem::solve_many` and record how the per-RHS cost falls as the
//! offload transfer amortises and the CG scratch is reused.
//!
//! A second sweep walks every degree the specialized kernel family covers
//! (N = 3..=15) and times the same manufactured solve through the pinned
//! generic `optimized` kernel versus the degree-specialized dispatch,
//! recording the per-RHS operator seconds of each and their ratio — the
//! measured payoff of compile-time `NX` that motivates the whole layer.
//!
//! Writes `BENCH_batched.json` next to the working directory so successive
//! PRs can track the batched-serving trajectory, and prints summary tables.
//!
//! Run with `cargo run --release -p bench --bin batched -- [degree] [elements_per_side]`
//! (CI runs tiny sizes as a smoke step: `-- 3 2`).

use bench::table::{fmt, TableWriter};
use sem_accel::{Backend, PerfSource, SemSystem};
use sem_kernel::specialized::{MAX_DEGREE, MIN_DEGREE};
use sem_kernel::AxImplementation;
use sem_mesh::{BoxMesh, ElementField, MeshDeformation};
use sem_solver::{CgOptions, PoissonProblem, PrecondSpec};
use serde::Serialize;

/// Batch sizes of the sweep (the serving shapes the ROADMAP names).
const BATCHES: [usize; 4] = [1, 4, 16, 64];

/// One (backend, batch) point of the sweep.
#[derive(Debug, Clone, Serialize)]
struct BatchedRow {
    backend: String,
    /// Preconditioner the batch solved with (the registry default, Jacobi).
    precond: String,
    simulated: bool,
    batch: usize,
    iterations: usize,
    /// Operator (kernel) seconds attributed to one RHS.
    per_rhs_operator_seconds: f64,
    /// Amortised host↔device transfer seconds attributed to one RHS.
    per_rhs_transfer_seconds: f64,
    /// What one RHS would pay without batching (one full offload round trip).
    unbatched_transfer_seconds: f64,
    /// Relative drop of the per-RHS transfer share versus sequential solves.
    transfer_drop_percent: f64,
    /// Modelled per-RHS end-to-end seconds (operator + amortised transfer).
    per_rhs_modeled_seconds: f64,
    /// Heap allocations the pre-scratch solver would have performed for this
    /// batch and that the reusable `CgScratch` + in-place dssum path eliminates
    /// (modelled: per solve, two setup clones, one work field, one
    /// preconditioned residual per iteration and one global dssum vector per
    /// operator application, minus the batch's single five-field scratch).
    allocations_eliminated: u64,
    max_error: f64,
}

/// One degree of the generic-vs-specialized kernel comparison: the same
/// manufactured Jacobi-CG solve run once through the pinned generic
/// `optimized` kernel and once through the degree-specialized dispatch
/// (which is what `cpu:specialized` — and the auto-upgraded `cpu:optimized`
/// — executes in production).
#[derive(Debug, Clone, Serialize)]
struct DegreeRow {
    degree: usize,
    /// Elements per side of the sweep mesh (capped below the main sweep's
    /// so the full 13-degree walk stays a bench step, not a campaign).
    elements_per_side: usize,
    /// CG iterations of the solve — identical for both variants because the
    /// specialized kernel is bitwise identical to the generic one.
    iterations: usize,
    /// Vector width of the generated kernel at this degree (the same
    /// structural constant `fpga_sim` derives its design unroll from).
    unroll: usize,
    /// Instruction set the specialized family ran at on this host
    /// (`avx512f`, `avx2` or `baseline`); the generic kernel always runs at
    /// the baseline.
    isa: String,
    /// Per-RHS operator seconds through the pinned generic kernel.
    generic_per_rhs_operator_seconds: f64,
    /// Per-RHS operator seconds through the specialized dispatch.
    specialized_per_rhs_operator_seconds: f64,
    /// Generic over specialized per-RHS operator seconds (> 1 means the
    /// compile-time `NX` kernels win).
    speedup: f64,
    /// Max |specialized − reference| of one operator application on the
    /// manufactured exact field (parity, not convergence error).
    max_error: f64,
}

/// The persisted sweep.
#[derive(Debug, Clone, Serialize)]
struct BatchedBenchReport {
    degree: usize,
    elements_per_side: usize,
    batches: Vec<usize>,
    rows: Vec<BatchedRow>,
    /// Generic-vs-specialized kernel timing for every covered degree.
    degree_sweep: Vec<DegreeRow>,
}

/// Time the manufactured solve through `operator` and return the best
/// per-RHS operator seconds over `reps` runs plus the iteration count.
fn time_solve(
    problem: &PoissonProblem,
    operator: &sem_kernel::PoissonOperator,
    options: CgOptions,
    reps: usize,
) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut iterations = 0;
    for _ in 0..reps {
        let solution = problem.solve_manufactured_through(operator, options, PrecondSpec::Jacobi);
        best = best.min(solution.cg.operator_seconds);
        iterations = solution.cg.iterations;
    }
    (best, iterations)
}

/// Walk every specialized degree, timing generic vs specialized kernels on
/// the same problem and checking one application against the reference
/// kernel.
fn sweep_degrees(per_side: usize) -> Vec<DegreeRow> {
    // Timing-oriented options: enough iterations to integrate over, bounded
    // so the 13-degree sweep stays quick even at N = 15.
    let options = CgOptions {
        max_iterations: 300,
        tolerance: 1e-8,
        record_history: false,
    };
    let mut rows = Vec::new();
    for degree in MIN_DEGREE..=MAX_DEGREE {
        let mesh = BoxMesh::new(degree, [per_side; 3], [1.0; 3], MeshDeformation::None);
        let problem = PoissonProblem::new(mesh, AxImplementation::Specialized);
        let specialized = problem.operator();
        let mut generic = specialized.clone();
        generic.pin_generic();
        let mut reference = specialized.clone();
        reference.set_implementation(AxImplementation::Reference);

        let exact = problem.manufactured_exact();
        let mut w_specialized = ElementField::zeros(degree, problem.mesh().num_elements());
        let mut w_reference = w_specialized.clone();
        specialized.apply_into(&exact, &mut w_specialized);
        reference.apply_into(&exact, &mut w_reference);
        let max_error = w_specialized
            .as_slice()
            .iter()
            .zip(w_reference.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);

        let (generic_seconds, iterations) = time_solve(&problem, &generic, options, 2);
        let (specialized_seconds, _) = time_solve(&problem, specialized, options, 2);
        rows.push(DegreeRow {
            degree,
            elements_per_side: per_side,
            iterations,
            unroll: sem_kernel::kernel_structure(degree).map_or(1, |structure| structure.unroll),
            isa: specialized.dispatch().isa().to_string(),
            generic_per_rhs_operator_seconds: generic_seconds,
            specialized_per_rhs_operator_seconds: specialized_seconds,
            speedup: generic_seconds / specialized_seconds.max(f64::MIN_POSITIVE),
            max_error,
        });
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let degree: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let per_side: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let options = CgOptions {
        max_iterations: 2000,
        tolerance: 1e-10,
        record_history: false,
    };

    println!(
        "Batched serving sweep: N = {degree}, {per_side}x{per_side}x{per_side} elements, \
         batches {BATCHES:?}\n"
    );
    let mut table = TableWriter::new(vec![
        "backend",
        "batch",
        "iters",
        "op/RHS (ms)",
        "xfer/RHS (ms)",
        "xfer drop",
        "modeled/RHS (ms)",
        "allocs saved",
    ]);

    let mut rows = Vec::new();
    for name in Backend::registry_names() {
        let system = SemSystem::builder()
            .degree(degree)
            .elements([per_side; 3])
            .backend_named(&name)
            .build();
        let sequential = system.solve(options);

        for batch in BATCHES {
            let reports = system.solve_many_manufactured(batch, options);
            let per_rhs_operator_seconds =
                reports.iter().map(|r| r.operator.seconds).sum::<f64>() / batch as f64;
            let per_rhs_transfer_seconds =
                reports.iter().map(|r| r.transfer_seconds).sum::<f64>() / batch as f64;
            let unbatched = sequential.transfer_seconds;
            let transfer_drop_percent = if unbatched > 0.0 {
                (1.0 - per_rhs_transfer_seconds / unbatched) * 100.0
            } else {
                0.0
            };
            let iterations = reports[0].iterations();
            let applications: u64 = reports
                .iter()
                .map(|r| r.solution.cg.operator_applications as u64)
                .sum();
            let total_iterations: u64 = reports.iter().map(|r| r.iterations() as u64).sum();
            let allocations_eliminated =
                (batch as u64 * 3 + 2 * total_iterations + applications).saturating_sub(5);
            let row = BatchedRow {
                backend: name.clone(),
                precond: reports[0].precond.label().to_string(),
                simulated: reports[0].source == PerfSource::Simulated,
                batch,
                iterations,
                per_rhs_operator_seconds,
                per_rhs_transfer_seconds,
                unbatched_transfer_seconds: unbatched,
                transfer_drop_percent,
                per_rhs_modeled_seconds: per_rhs_operator_seconds + per_rhs_transfer_seconds,
                allocations_eliminated,
                max_error: reports[0].solution.max_error,
            };
            table.row(vec![
                name.clone(),
                batch.to_string(),
                row.iterations.to_string(),
                fmt(row.per_rhs_operator_seconds * 1e3, 3),
                fmt(row.per_rhs_transfer_seconds * 1e3, 3),
                format!("{:.0}%", row.transfer_drop_percent),
                fmt(row.per_rhs_modeled_seconds * 1e3, 3),
                row.allocations_eliminated.to_string(),
            ]);
            rows.push(row);
        }
    }
    table.print();

    // Degree sweep: generic vs specialized kernel, every covered degree, on
    // a mesh capped at 3^3 elements so the walk stays a bench step.
    let sweep_side = per_side.min(3);
    println!(
        "\nDegree sweep: generic vs specialized kernels, N = {MIN_DEGREE}..={MAX_DEGREE}, \
         {sweep_side}x{sweep_side}x{sweep_side} elements\n"
    );
    let degree_sweep = sweep_degrees(sweep_side);
    let mut sweep_table = TableWriter::new(vec![
        "N",
        "unroll",
        "isa",
        "iters",
        "generic op/RHS (ms)",
        "specialized op/RHS (ms)",
        "speedup",
        "max err",
    ]);
    for row in &degree_sweep {
        sweep_table.row(vec![
            row.degree.to_string(),
            row.unroll.to_string(),
            row.isa.clone(),
            row.iterations.to_string(),
            fmt(row.generic_per_rhs_operator_seconds * 1e3, 3),
            fmt(row.specialized_per_rhs_operator_seconds * 1e3, 3),
            format!("{:.2}x", row.speedup),
            format!("{:.1e}", row.max_error),
        ]);
    }
    sweep_table.print();

    let report = BatchedBenchReport {
        degree,
        elements_per_side: per_side,
        batches: BATCHES.to_vec(),
        rows,
        degree_sweep,
    };
    let json = serde::json::to_string(&report);
    std::fs::write("BENCH_batched.json", &json).expect("write BENCH_batched.json");
    println!(
        "\nWrote BENCH_batched.json ({} rows).  FPGA rows charge the shared\n\
         geometry/matrix upload once per batch; CPU rows run batch-parallel\n\
         with per-thread scratch, so their transfer column is zero.",
        report.rows.len()
    );
}
