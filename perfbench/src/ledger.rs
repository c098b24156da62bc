//! The ledger CG: the solver's preconditioned CG iteration, re-driven from
//! the benchmark through the same public calls in the same order, with
//! every call recorded as an in-memory span.
//!
//! It must reproduce `SemSystem::solve_rhs` exactly (iteration count and
//! solution bits); the caller checks that before trusting the spans.

use sem_accel::AxBackend;
use sem_mesh::{DirichletMask, ElementField, GatherScatter};
use sem_obs::WallEpoch;
use sem_solver::{AnyPreconditioner, CgOptions, Preconditioner};

/// The layers a CG iteration calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `AxBackend::apply_into` (sem-kernel).
    Ax,
    /// `GatherScatter::direct_stiffness_sum` (sem-mesh).
    Dssum,
    /// `DirichletMask::apply` (sem-mesh).
    Mask,
    /// `ElementField::{axpy, scale_add, copy_from, dot_weighted}` (sem-mesh).
    Vec,
    /// `Preconditioner::apply_into` (sem-solver).
    Precond,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Ax,
        Layer::Dssum,
        Layer::Mask,
        Layer::Vec,
        Layer::Precond,
    ];
}

/// One recorded call: its layer, wall-clock interval (seconds since the
/// solve's epoch) and computed bytes moved (vector calls only; the caller
/// computes dssum bytes).  Every span's parent is the solve's root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start: f64,
    pub end: f64,
    pub bytes: f64,
}

/// A traced solve: the CG result plus its spans.
pub struct LedgerSolve {
    pub iterations: usize,
    pub converged: bool,
    pub solution: ElementField,
    /// Wall seconds of the root span (the whole solve, setup included).
    pub wall_seconds: f64,
    pub spans: Vec<Span>,
}

impl LedgerSolve {
    /// Total seconds, call count and computed bytes of one layer.
    pub fn layer_totals(&self, layer: Layer) -> (f64, usize, f64) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0.0, 0, 0.0), |(secs, calls, bytes), s| {
                (secs + (s.end - s.start), calls + 1, bytes + s.bytes)
            })
    }
}

struct Tracer {
    epoch: WallEpoch,
    spans: Vec<Span>,
}

impl Tracer {
    fn span<R>(&mut self, layer: Layer, bytes: f64, call: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed_wall_seconds();
        let result = call();
        let end = self.epoch.elapsed_wall_seconds();
        self.spans.push(Span {
            layer,
            start,
            end,
            bytes,
        });
        result
    }
}

/// Solve `A x = rhs` exactly as `sem_solver::CgSolver::solve_with_scratch`
/// does for a backend that does not fuse dssum, recording one span per
/// layer call.
pub fn solve(
    backend: &dyn AxBackend,
    gather_scatter: &GatherScatter,
    mask: &DirichletMask,
    precond: &AnyPreconditioner,
    rhs: &ElementField,
    options: CgOptions,
) -> LedgerSolve {
    let epoch = WallEpoch::now();
    let degree = rhs.degree();
    let elements = rhs.num_elements();
    // Computed bytes per vector call: 8 B per element-local value of every
    // array operand (the weight of a weighted dot included).
    let field_bytes = 8.0 * rhs.len() as f64;
    let (copy, three) = (2.0 * field_bytes, 3.0 * field_bytes);
    let mut tracer = Tracer {
        epoch,
        spans: Vec::with_capacity(16 * options.max_iterations + 16),
    };
    let inverse_multiplicity = gather_scatter.inverse_multiplicity();
    let weight = &inverse_multiplicity;
    let mut x = ElementField::zeros(degree, elements);
    let mut r = ElementField::zeros(degree, elements);
    let mut z = ElementField::zeros(degree, elements);
    let mut p = ElementField::zeros(degree, elements);
    let mut w = ElementField::zeros(degree, elements);

    tracer.span(Layer::Vec, copy, || r.copy_from(rhs));
    tracer.span(Layer::Mask, 0.0, || mask.apply(&mut r));
    let b_norm = tracer
        .span(Layer::Vec, three, || r.dot_weighted(&r, weight))
        .sqrt();
    let mut iterations = 0;
    let mut converged = b_norm == 0.0;
    if !converged {
        tracer.span(Layer::Precond, 0.0, || precond.apply_into(&r, &mut z));
        tracer.span(Layer::Mask, 0.0, || mask.apply(&mut z));
        tracer.span(Layer::Vec, copy, || p.copy_from(&z));
        let mut rz = tracer.span(Layer::Vec, three, || r.dot_weighted(&z, weight));
        for iter in 0..options.max_iterations {
            iterations = iter + 1;
            tracer.span(Layer::Ax, 0.0, || backend.apply_into(&p, &mut w));
            tracer.span(Layer::Dssum, 0.0, || {
                gather_scatter.direct_stiffness_sum(&mut w);
            });
            tracer.span(Layer::Mask, 0.0, || mask.apply(&mut w));
            let pw = tracer.span(Layer::Vec, three, || p.dot_weighted(&w, weight));
            if pw <= 0.0 {
                break;
            }
            let alpha = rz / pw;
            tracer.span(Layer::Vec, three, || x.axpy(alpha, &p));
            tracer.span(Layer::Vec, three, || r.axpy(-alpha, &w));
            let r_norm = tracer
                .span(Layer::Vec, three, || r.dot_weighted(&r, weight))
                .sqrt();
            if r_norm / b_norm < options.tolerance {
                converged = true;
                break;
            }
            tracer.span(Layer::Precond, 0.0, || precond.apply_into(&r, &mut z));
            tracer.span(Layer::Mask, 0.0, || mask.apply(&mut z));
            let rz_new = tracer.span(Layer::Vec, three, || r.dot_weighted(&z, weight));
            let beta = rz_new / rz;
            rz = rz_new;
            tracer.span(Layer::Vec, three, || p.scale_add(beta, &z));
        }
    }
    let wall_seconds = tracer.epoch.elapsed_wall_seconds();
    LedgerSolve {
        iterations,
        converged,
        solution: x,
        wall_seconds,
        spans: tracer.spans,
    }
}
