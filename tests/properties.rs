//! Workspace-level property-style tests spanning multiple crates.
//!
//! The offline build cannot use `proptest`, so each property is exercised
//! over a deterministic seeded sweep of random inputs instead of a shrinking
//! search — same invariants, reproducible cases.

use rand::{rngs::StdRng, Rng, SeedableRng};
use semfpga::fpga::{AcceleratorDesign, FpgaAccelerator, FpgaDevice};
use semfpga::kernel::{AxImplementation, PoissonOperator};
use semfpga::mesh::{BoxMesh, DirichletMask, ElementField, GatherScatter};
use semfpga::model::throughput::{bandwidth_throughput, constrain_throughput, ArbitrationPolicy};

/// The simulated FPGA never exceeds the analytic bandwidth bound of the
/// Section IV model, for any degree, board clock and problem size.
#[test]
fn simulator_respects_the_bandwidth_bound() {
    let mut rng = StdRng::seed_from_u64(31);
    let device = FpgaDevice::stratix10_gx2800();
    for _ in 0..16 {
        let degree = rng.gen_range(1usize..16);
        let elements_pow = rng.gen_range(3u32..14);
        let acc = FpgaAccelerator::for_degree(degree, &device);
        let elements = 2usize.pow(elements_pow);
        let est = acc.estimate(elements);
        let bound = bandwidth_throughput(
            device.memory_bandwidth_gbs,
            degree,
            est.kernel_clock_mhz.min(device.memory_clock_mhz),
        )
        .max(acc.design().unroll as f64);
        assert!(
            est.dofs_per_cycle <= bound + 1e-9,
            "degree {degree}, {elements} elements: {} > {bound}",
            est.dofs_per_cycle
        );
    }
}

/// The arbitration-constrained throughput always divides N+1, is a power of
/// two, and never exceeds the unconstrained value.
#[test]
fn arbitration_constraint_invariants() {
    let mut rng = StdRng::seed_from_u64(32);
    for _ in 0..64 {
        let degree = rng.gen_range(1usize..=16);
        let t = rng.gen_range(1.0..70.0);
        let constrained = constrain_throughput(t, degree, ArbitrationPolicy::PowerOfTwoDivisor);
        assert!(constrained <= t.max(1.0) + 1e-12);
        let as_int = constrained as usize;
        assert!(as_int.is_power_of_two(), "degree {degree}, t {t}");
        assert_eq!((degree + 1) % as_int, 0, "degree {degree}, t {t}");
        let pow2_only = constrain_throughput(t, degree, ArbitrationPolicy::PowerOfTwo);
        assert!(pow2_only + 1e-12 >= constrained, "degree {degree}, t {t}");
    }
}

/// Masked dssum'd operator energies are non-negative for arbitrary nodal data
/// on arbitrary box meshes (the invariant CG depends on).
#[test]
fn assembled_operator_energy_is_nonnegative() {
    let mut rng = StdRng::seed_from_u64(33);
    for _ in 0..16 {
        let degree = rng.gen_range(1usize..=4);
        let ex = rng.gen_range(1usize..=2);
        let ey = rng.gen_range(1usize..=2);
        let len = rng.gen_range(8usize..64);
        let seed: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mesh = BoxMesh::new(
            degree,
            [ex, ey, 1],
            [1.0, 0.8, 1.3],
            semfpga::mesh::MeshDeformation::None,
        );
        let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        let gs = GatherScatter::from_mesh(&mesh);
        let mask = DirichletMask::from_mesh(&mesh);
        let mut u = ElementField::zeros(degree, mesh.num_elements());
        for (i, v) in u.as_mut_slice().iter_mut().enumerate() {
            *v = seed[i % seed.len()];
        }
        mask.apply(&mut u);
        gs.direct_stiffness_sum(&mut u);
        let mut au = op.apply(&u);
        gs.direct_stiffness_sum(&mut au);
        mask.apply(&mut au);
        let energy = u.dot_weighted(&au, &gs.inverse_multiplicity());
        assert!(energy >= -1e-8, "energy {energy}");
    }
}

/// The offload plan's traffic equals the model's 8 words per DOF (plus the
/// derivative matrices) for any degree and element count.
#[test]
fn offload_traffic_matches_q_of_n() {
    let mut rng = StdRng::seed_from_u64(34);
    let device = FpgaDevice::stratix10_gx2800();
    for _ in 0..32 {
        let degree = rng.gen_range(1usize..=15);
        let elements = rng.gen_range(1usize..=512);
        let design = AcceleratorDesign::for_degree(degree, &device);
        let plan = sem_accel::OffloadPlan::new(&design, &device, elements);
        let nx = (degree + 1) as u64;
        let dofs = nx * nx * nx * elements as u64;
        let expected = dofs * semfpga::kernel::bytes_per_dof(degree) as u64 + 2 * nx * nx * 8;
        assert_eq!(
            plan.total_transfer_bytes(),
            expected,
            "degree {degree}, {elements} elements"
        );
    }
}

/// Simulated performance is monotone in the problem size (Fig. 1 curves never
/// dip as elements are added).
#[test]
fn fpga_performance_is_monotone_in_problem_size() {
    let device = FpgaDevice::stratix10_gx2800();
    for degree in 1usize..=15 {
        let acc = FpgaAccelerator::for_degree(degree, &device);
        let mut prev = 0.0;
        for elements in [8, 32, 128, 512, 2048, 8192] {
            let g = acc.estimate(elements).gflops;
            assert!(g + 1e-9 >= prev, "degree {degree}: {g} < {prev}");
            prev = g;
        }
    }
}
