//! The CG hot loop must be allocation-free.
//!
//! A counting global allocator wraps the system allocator; after a warmup
//! solve (which sizes the kernel's thread-local element scratch), repeated
//! solves through a shared [`sem_solver::CgScratch`] must allocate a small,
//! **iteration-count-independent** number of times — i.e. nothing inside the
//! iteration loop touches the heap.  The same bound must hold with an
//! *enabled* sem-obs recorder: spans land in the preallocated per-thread
//! ring and metrics in families registered at first touch, so observing a
//! solve costs no heap traffic.  This file holds exactly one test so no
//! concurrent test pollutes the global counter.

use sem_kernel::{AxImplementation, PoissonOperator};
use sem_mesh::{BoxMesh, DirichletMask, ElementField, GatherScatter};
use sem_obs::{recorder, ObsConfig, Recorder, SpanKind};
use sem_solver::{CgOptions, CgScratch, CgSolver, FdmPreconditioner, JacobiPreconditioner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a relaxed
// atomic side effect.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn solver_options(max_iterations: usize) -> CgOptions {
    CgOptions {
        max_iterations,
        // Unreachable tolerance: every solve runs to its iteration cap, so
        // the two measurements below differ only in loop trips.
        tolerance: 1e-30,
        record_history: false,
    }
}

#[test]
fn cg_iterations_perform_no_heap_allocations_with_a_shared_scratch() {
    let mesh = BoxMesh::unit_cube(4, 2);
    let operator = PoissonOperator::new(&mesh, AxImplementation::Specialized);
    let gather_scatter = GatherScatter::from_mesh(&mesh);
    let mask = DirichletMask::from_mesh(&mesh);
    let preconditioner = JacobiPreconditioner::new(&operator, &gather_scatter, &mask);

    let short = CgSolver::new(&operator, &gather_scatter, &mask, solver_options(5));
    let long = CgSolver::new(&operator, &gather_scatter, &mask, solver_options(55));

    let mut x_exact = mesh.evaluate(|x, y, z| x * (1.0 - x) * y * (1.0 - y) * (3.0 * z).sin());
    mask.apply(&mut x_exact);
    let rhs = short.apply_operator(&x_exact);

    let mut scratch = CgScratch::new(4, mesh.num_elements());
    // Warmup: sizes the kernel's thread-local element scratch and touches
    // every code path once.
    let warmup = short.solve_with_scratch(&rhs, &preconditioner, &mut scratch);
    assert_eq!(warmup.iterations, 5);

    let before_short = allocations();
    let out_short = short.solve_with_scratch(&rhs, &preconditioner, &mut scratch);
    let delta_short = allocations() - before_short;

    let before_long = allocations();
    let out_long = long.solve_with_scratch(&rhs, &preconditioner, &mut scratch);
    let delta_long = allocations() - before_long;

    assert!(
        out_long.iterations > out_short.iterations,
        "the long solve must actually iterate more ({} vs {})",
        out_long.iterations,
        out_short.iterations
    );
    // The only per-solve allocation is the returned solution clone; fifty
    // extra iterations must not add heap traffic.  A small slack absorbs
    // incidental allocator activity outside the loop (e.g. the test harness).
    assert!(
        delta_short <= 8,
        "a 5-iteration solve allocated {delta_short} times"
    );
    assert!(
        delta_long <= delta_short + 4,
        "extra iterations leaked allocations: {delta_long} (long) vs {delta_short} (short)"
    );

    // And the reused scratch did not disturb correctness.
    let fresh = long.solve(&rhs, &preconditioner);
    assert_eq!(fresh.solution.as_slice(), out_long.solution.as_slice());

    // The FDM path: setup allocates (eigendecompositions, coarse factor,
    // per-thread apply scratch on first use) — all once, before the loop —
    // and then the hot loop stays heap-silent, iteration-count-independent.
    let fdm = FdmPreconditioner::new(&mesh, &operator, &gather_scatter, &mask);
    let fdm_warmup = short.solve_with_scratch(&rhs, &fdm, &mut scratch);
    assert_eq!(fdm_warmup.iterations, 5);

    let before_fdm_short = allocations();
    let fdm_short = short.solve_with_scratch(&rhs, &fdm, &mut scratch);
    let delta_fdm_short = allocations() - before_fdm_short;

    let before_fdm_long = allocations();
    let fdm_long = long.solve_with_scratch(&rhs, &fdm, &mut scratch);
    let delta_fdm_long = allocations() - before_fdm_long;

    assert!(fdm_long.iterations > fdm_short.iterations);
    assert!(
        delta_fdm_short <= 8,
        "a 5-iteration FDM solve allocated {delta_fdm_short} times"
    );
    assert!(
        delta_fdm_long <= delta_fdm_short + 4,
        "extra FDM iterations leaked allocations: {delta_fdm_long} (long) vs {delta_fdm_short} (short)"
    );
    assert!(
        fdm_long.precond_applications > 0 && fdm_long.precond_seconds > 0.0,
        "the outcome accounts the preconditioner applications"
    );

    // The enabled recorder must not change the bound: the warmup solve
    // registers the metric families, allocates this thread's event ring and
    // touches every span path once; after that, tracing a solve is
    // ring-writes and atomics only.
    Recorder::install(ObsConfig::default());
    let obs_warmup = short.solve_with_scratch(&rhs, &preconditioner, &mut scratch);
    assert_eq!(obs_warmup.iterations, 5);
    assert!(recorder().is_enabled());

    let before_obs_short = allocations();
    let obs_short = short.solve_with_scratch(&rhs, &preconditioner, &mut scratch);
    let delta_obs_short = allocations() - before_obs_short;

    let before_obs_long = allocations();
    let obs_long = long.solve_with_scratch(&rhs, &preconditioner, &mut scratch);
    let delta_obs_long = allocations() - before_obs_long;

    assert!(obs_long.iterations > obs_short.iterations);
    assert!(
        delta_obs_short <= 8,
        "a traced 5-iteration solve allocated {delta_obs_short} times"
    );
    assert!(
        delta_obs_long <= delta_obs_short + 4,
        "the enabled recorder leaked per-iteration allocations: \
         {delta_obs_long} (long) vs {delta_obs_short} (short)"
    );

    // And it actually recorded: per-iteration spans are in the ring, the
    // iteration counter moved.
    let snapshot = recorder().trace_snapshot();
    let cg_spans = snapshot
        .events
        .iter()
        .filter(|(_, e)| e.kind == SpanKind::CgIteration)
        .count();
    assert!(
        cg_spans >= (obs_short.iterations + obs_long.iterations),
        "expected at least {} CG iteration spans, found {cg_spans}",
        obs_short.iterations + obs_long.iterations
    );
    assert!(recorder()
        .prometheus_text()
        .contains("sem_solver_cg_iterations_total"));
    Recorder::uninstall();

    let _ = ElementField::zeros(4, mesh.num_elements()); // counter sanity:
    assert!(allocations() > before_short, "the counter must be live");
}
