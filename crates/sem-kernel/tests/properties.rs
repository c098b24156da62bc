//! Property-style tests of the matrix-free operator.
//!
//! The offline build cannot use `proptest`, so each property is exercised
//! over a deterministic seeded sweep of random inputs instead of a shrinking
//! search — same invariants, reproducible cases.

use rand::{rngs::StdRng, Rng, SeedableRng};
use sem_kernel::{AxImplementation, PoissonOperator};
use sem_mesh::{BoxMesh, ElementField, MeshDeformation};

fn random_field(degree: usize, elems: usize, values: &[f64]) -> ElementField {
    let mut f = ElementField::zeros(degree, elems);
    let n = f.len();
    for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
        *v = values[i % values.len()] * ((i % 17) as f64 / 17.0 - 0.5);
    }
    assert_eq!(f.len(), n);
    f
}

fn random_seed(rng: &mut StdRng, scale: f64) -> Vec<f64> {
    let len = rng.gen_range(8usize..32);
    (0..len).map(|_| rng.gen_range(-scale..scale)).collect()
}

/// The operator is linear: A(a u + b v) = a A u + b A v.
#[test]
fn operator_is_linear() {
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..24 {
        let degree = rng.gen_range(1usize..=5);
        let a = rng.gen_range(-3.0..3.0);
        let b = rng.gen_range(-3.0..3.0);
        let seed = random_seed(&mut rng, 1.0);
        let mesh = BoxMesh::unit_cube(degree, 2);
        let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        let u = random_field(degree, 8, &seed);
        let mut v = random_field(degree, 8, &seed);
        v.as_mut_slice().iter_mut().for_each(|x| *x = x.cos());
        let mut combo = u.clone();
        combo
            .as_mut_slice()
            .iter_mut()
            .zip(v.as_slice())
            .for_each(|(x, &y)| *x = a * *x + b * y);
        let lhs = op.apply(&combo);
        let au = op.apply(&u);
        let av = op.apply(&v);
        for i in 0..lhs.len() {
            let expect = a * au.as_slice()[i] + b * av.as_slice()[i];
            assert!(
                (lhs.as_slice()[i] - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                "degree {degree}, dof {i}"
            );
        }
    }
}

/// Symmetry of the bilinear form: v^T A u == u^T A v.
#[test]
fn operator_is_symmetric() {
    let mut rng = StdRng::seed_from_u64(22);
    for _ in 0..24 {
        let degree = rng.gen_range(1usize..=5);
        let seed_u = random_seed(&mut rng, 1.0);
        let seed_v = random_seed(&mut rng, 1.0);
        let amplitude = rng.gen_range(0.0..0.05);
        let mesh = BoxMesh::new(
            degree,
            [2, 1, 1],
            [1.0, 1.3, 0.8],
            MeshDeformation::Sinusoidal { amplitude },
        );
        let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        let u = random_field(degree, 2, &seed_u);
        let v = random_field(degree, 2, &seed_v);
        let au = op.apply(&u);
        let av = op.apply(&v);
        let vau = v.dot(&au);
        let uav = u.dot(&av);
        assert!(
            (vau - uav).abs() < 1e-8 * (1.0 + vau.abs()),
            "degree {degree}, amplitude {amplitude}"
        );
    }
}

/// Non-negative energy: u^T A u >= 0 for any nodal vector.
#[test]
fn operator_is_positive_semidefinite() {
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..24 {
        let degree = rng.gen_range(1usize..=5);
        let len = rng.gen_range(8usize..64);
        let seed: Vec<f64> = (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mesh = BoxMesh::unit_cube(degree, 2);
        let op = PoissonOperator::new(&mesh, AxImplementation::Parallel);
        let u = random_field(degree, 8, &seed);
        let au = op.apply(&u);
        assert!(u.dot(&au) >= -1e-9, "degree {degree}");
    }
}

/// Reference and specialized kernels agree on deformed meshes of any degree.
#[test]
fn implementations_agree() {
    let mut rng = StdRng::seed_from_u64(24);
    for _ in 0..24 {
        let degree = rng.gen_range(1usize..=6);
        let amplitude = rng.gen_range(0.0..0.06);
        let seed = random_seed(&mut rng, 1.0);
        let mesh = BoxMesh::new(
            degree,
            [2, 2, 1],
            [1.0; 3],
            MeshDeformation::Sinusoidal { amplitude },
        );
        let mut op = PoissonOperator::new(&mesh, AxImplementation::Reference);
        let u = random_field(degree, 4, &seed);
        let w_ref = op.apply(&u);
        op.set_implementation(AxImplementation::Specialized);
        let w_spec = op.apply(&u);
        op.set_implementation(AxImplementation::Parallel);
        let w_par = op.apply(&u);
        for i in 0..u.len() {
            assert!(
                (w_ref.as_slice()[i] - w_spec.as_slice()[i]).abs()
                    < 1e-10 * (1.0 + w_ref.as_slice()[i].abs()),
                "degree {degree}, dof {i}"
            );
            assert_eq!(
                w_spec.as_slice()[i],
                w_par.as_slice()[i],
                "degree {degree}, dof {i}: parallel must be bitwise identical"
            );
        }
    }
}
