//! Golden bits of a session's set-up.
//!
//! Hashes of everything `SemSystem::build` computes before the first `Ax`:
//! the mesh coordinates, the six geometric-factor planes with the mass
//! diagonal and the smallest Jacobian, the local-to-global map, the
//! gather–scatter multiplicity, `direct_stiffness_sum` and
//! `DirichletMask::apply` on a seeded field, and the Jacobi
//! preconditioner's inverse diagonal.  Each is hashed over ten
//! shapes, N = 2, 3, 5, 7 and 16 on a non-cubic 3 × 2 × 2 grid, undeformed
//! and with the sinusoidal bump, and pinned as a constant.  The set-up
//! routines run as line sweeps whose every node keeps the operation order
//! of the per-node formula; the pins hold them to it.  Rust never fuses
//! `a * b + c` and nothing calls `mul_add`, so the bits hold at every
//! `-C target-cpu` (CI re-runs this file under `-C target-cpu=native`).  The
//! deformed coordinates go through the platform's `sin`, so the pins assume
//! the same math library.

use sem_kernel::{AxImplementation, PoissonOperator};
use sem_mesh::{
    BoxMesh, DirichletMask, ElementField, GatherScatter, GeometricFactors, MeshDeformation,
};
use sem_solver::JacobiPreconditioner;

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

/// FNV-1a over the IEEE bit patterns, continuing from `h`.
fn fnv1a(h: u64, values: &[f64]) -> u64 {
    values.iter().fold(h, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
    })
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The ten pinned meshes, in hashing order.
fn meshes() -> impl Iterator<Item = BoxMesh> {
    [2, 3, 5, 7, 16].into_iter().flat_map(|degree| {
        [
            MeshDeformation::None,
            MeshDeformation::Sinusoidal { amplitude: 0.04 },
        ]
        .map(|deformation| BoxMesh::new(degree, [3, 2, 2], [1.0, 0.75, 0.5], deformation))
    })
}

/// Fold `values(mesh)` of every pinned mesh into one hash.
fn hash_over_meshes(mut values: impl FnMut(&BoxMesh) -> Vec<f64>) -> u64 {
    meshes().fold(FNV_SEED, |h, mesh| fnv1a(h, &values(&mesh)))
}

fn check(what: &str, got: u64, pinned: u64) {
    assert_eq!(got, pinned, "{what}: {got:#018x} != pinned {pinned:#018x}");
}

#[test]
fn mesh_coordinates_reproduce_their_golden_bits() {
    let got = hash_over_meshes(|mesh| {
        mesh.coordinates()
            .iter()
            .flat_map(|c| c.as_slice().iter().copied())
            .collect()
    });
    check("coordinates", got, 0x26ac_d699_0307_7664);
}

#[test]
fn geometric_factors_reproduce_their_golden_bits() {
    let got = hash_over_meshes(|mesh| {
        let geo = GeometricFactors::from_mesh(mesh);
        let mut values: Vec<f64> = geo.planes().concat();
        values.extend_from_slice(geo.mass().as_slice());
        values.push(geo.min_jacobian());
        values
    });
    check("geometric factors", got, 0x7798_ed09_eb49_7cca);
}

#[test]
fn gather_scatter_reproduces_its_golden_bits() {
    let got = hash_over_meshes(|mesh| {
        let gs = GatherScatter::from_mesh(mesh);
        let mut field = Inputs(mesh.degree() as u64).field(mesh.degree(), mesh.num_elements());
        gs.direct_stiffness_sum(&mut field);
        let mut values: Vec<f64> = gs.local_to_global().iter().map(|&g| g as f64).collect();
        values.extend_from_slice(gs.multiplicity());
        values.extend_from_slice(field.as_slice());
        values
    });
    check("gather-scatter", got, 0xd318_4bbf_aaf0_ea15);
}

#[test]
fn dirichlet_mask_reproduces_its_golden_bits() {
    let got = hash_over_meshes(|mesh| {
        let mask = DirichletMask::from_mesh(mesh);
        let mut field = Inputs(mesh.degree() as u64).field(mesh.degree(), mesh.num_elements());
        mask.apply(&mut field);
        field.as_slice().to_vec()
    });
    check("mask", got, 0xbb6c_2c1b_e284_e465);
}

#[test]
fn jacobi_inverse_diagonal_reproduces_its_golden_bits() {
    let got = hash_over_meshes(|mesh| {
        let op = PoissonOperator::new(mesh, AxImplementation::Specialized);
        let gs = GatherScatter::from_mesh(mesh);
        let mask = DirichletMask::from_mesh(mesh);
        JacobiPreconditioner::new(&op, &gs, &mask)
            .inverse_diagonal()
            .as_slice()
            .to_vec()
    });
    check("Jacobi inverse diagonal", got, 0x169a_d790_82f9_c099);
}
