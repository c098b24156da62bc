//! Golden bits of the CG reductions.
//!
//! Hashes of `ElementField::dot_weighted` and of the solution of a short
//! Jacobi-preconditioned CG solve at N = 7 on 2³ elements, pinned as
//! constants.  Every inner product of the solve, and the fused update
//! sweep's `‖r‖²` and `r·z`, run in the striped lane order of
//! `sem_mesh::lanes`; the inputs come from an integer generator scaled by
//! exact powers of two.  Whatever vector width the compiler picks for the
//! lane loops, and whatever `-C target-cpu` the crates are built with, the
//! bits must not move: the order is fixed in the source, Rust never fuses
//! `a * b + c`, and nothing calls `mul_add`.  CI re-runs this file under
//! `-C target-cpu=native`.

use sem_kernel::{AxImplementation, PoissonOperator};
use sem_mesh::{BoxMesh, DirichletMask, ElementField, GatherScatter};
use sem_solver::{CgOptions, CgSolver, JacobiPreconditioner};

/// SplitMix64 values mapped exactly onto `[-1, 1)`.
struct Inputs(u64);

impl Inputs {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0
    }

    fn field(&mut self, degree: usize, elements: usize) -> ElementField {
        let len = elements * (degree + 1).pow(3);
        ElementField::from_vec(degree, elements, (0..len).map(|_| self.next()).collect())
    }
}

/// FNV-1a over the IEEE bit patterns.
fn fnv1a(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// `dot_weighted` over degree-0 fields (one value per element) of every
/// length from 0 to 263, so each tail length occurs many times.
fn dot_weighted_hash() -> u64 {
    let mut inputs = Inputs(25);
    let dots: Vec<f64> = (0..264)
        .map(|len| {
            let [a, b, w] = [(); 3].map(|()| inputs.field(0, len));
            a.dot_weighted(&b, &w)
        })
        .collect();
    fnv1a(&dots)
}

/// The solution of a Jacobi-CG solve at N = 7 on the unit cube's 2³
/// elements, from a masked random right-hand side.
fn jacobi_cg_solution() -> (usize, u64) {
    let mesh = BoxMesh::unit_cube(7, 2);
    let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
    let gs = GatherScatter::from_mesh(&mesh);
    let mask = DirichletMask::from_mesh(&mesh);
    let solver = CgSolver::new(
        &op,
        &gs,
        &mask,
        CgOptions {
            max_iterations: 200,
            tolerance: 1e-10,
            record_history: false,
        },
    );
    let mut rhs = Inputs(7).field(7, 8);
    gs.direct_stiffness_sum(&mut rhs);
    mask.apply(&mut rhs);
    let outcome = solver.solve(&rhs, &JacobiPreconditioner::new(&op, &gs, &mask));
    assert!(outcome.converged);
    (outcome.iterations, fnv1a(outcome.solution.as_slice()))
}

#[test]
fn cg_reductions_reproduce_their_golden_bits() {
    let (dot, pinned) = (dot_weighted_hash(), 0x0125_6b0e_0ec7_c9a7_u64);
    assert_eq!(
        dot, pinned,
        "dot_weighted: {dot:#018x} != pinned {pinned:#018x}"
    );
    let (iterations, solution) = jacobi_cg_solution();
    let pinned = (81, 0xb6d4_f039_d549_a663_u64);
    assert_eq!(
        (iterations, solution),
        pinned,
        "Jacobi-CG at N = 7, 2^3: {iterations} iterations, {solution:#018x}"
    );
}
