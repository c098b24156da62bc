//! Workspace-level integration tests: the full pipeline from basis functions
//! to solver, across crates.

use semfpga::accel::{Backend, SemSystem};
use semfpga::kernel::AxImplementation;
use semfpga::mesh::{BoxMesh, MeshDeformation};
use semfpga::solver::{CgOptions, PoissonProblem, PrecondSpec};

#[test]
fn cost_formulas_agree_between_kernel_and_model() {
    // The kernel crate and the analytic-model crate deliberately implement
    // the FLOP/traffic formulas independently; they must agree for every
    // degree.
    for degree in 1..=20 {
        assert_eq!(
            semfpga::kernel::flops_per_dof(degree) as f64,
            semfpga::model::flops_per_dof(degree)
        );
        assert_eq!(
            semfpga::kernel::bytes_per_dof(degree) as f64,
            semfpga::model::bytes_per_dof(degree)
        );
        assert!(
            (semfpga::kernel::operational_intensity(degree)
                - semfpga::model::operational_intensity(degree))
            .abs()
                < 1e-12
        );
    }
}

#[test]
fn poisson_solves_converge_spectrally_on_deformed_meshes() {
    let mut previous = f64::INFINITY;
    for degree in [3, 5, 7] {
        let mesh = BoxMesh::new(
            degree,
            [2, 2, 2],
            [1.0; 3],
            MeshDeformation::Sinusoidal { amplitude: 0.02 },
        );
        let problem = PoissonProblem::new(mesh, AxImplementation::Parallel);
        let sol = problem.solve_manufactured(
            CgOptions {
                max_iterations: 4000,
                tolerance: 1e-11,
                record_history: false,
            },
            PrecondSpec::Jacobi,
        );
        assert!(sol.cg.converged, "degree {degree} did not converge");
        assert!(
            sol.max_error < previous,
            "degree {degree}: error {} should beat {previous}",
            sol.max_error
        );
        previous = sol.max_error;
    }
    assert!(
        previous < 1e-4,
        "degree 7 error should be small: {previous}"
    );
}

#[test]
fn fpga_backend_is_numerically_equivalent_to_the_reference_cpu_path() {
    for degree in [1, 4, 7] {
        let cpu = SemSystem::builder()
            .degree(degree)
            .elements([2, 2, 2])
            .backend(Backend::cpu_reference())
            .build();
        let fpga = SemSystem::builder()
            .degree(degree)
            .elements([2, 2, 2])
            .backend(Backend::fpga_simulated())
            .build();
        let u = cpu
            .mesh()
            .evaluate(|x, y, z| (2.0 * x - y).sin() * (z + 0.5) + x * x);
        let (w_cpu, _) = cpu.apply_operator(&u);
        let (w_fpga, perf) = fpga.apply_operator(&u);
        let scale = w_cpu.max_abs();
        for (a, b) in w_cpu.as_slice().iter().zip(w_fpga.as_slice()) {
            assert!(
                (a - b).abs() < 1e-10 * (1.0 + scale),
                "degree {degree}: {a} vs {b}"
            );
        }
        assert!(perf.power_watts.unwrap() > 50.0, "FPGA power is reported");
    }
}

#[test]
fn proxy_driver_uses_exactly_the_advertised_flops() {
    use semfpga::solver::ProxyConfig;
    let config = ProxyConfig {
        degree: 5,
        elements: [2, 2, 2],
        cg_iterations: 7,
        implementation: AxImplementation::Specialized,
        precond: PrecondSpec::Identity,
    };
    let result = config.run();
    let expected = 7
        * 8
        * semfpga::basis::dofs_per_element(5) as u64
        * semfpga::kernel::flops_per_dof(5) as u64;
    assert_eq!(result.operator_flops, expected);
}

#[test]
fn offload_plan_matches_the_traffic_model() {
    // Q(N) = 7 loads + 1 write per DOF; the offload plan must account for the
    // same bytes (plus the two small derivative matrices).
    let system = SemSystem::builder()
        .degree(7)
        .elements([4, 4, 4])
        .backend(Backend::fpga_simulated())
        .build();
    let plan = system.offload_plan().unwrap();
    let dofs = 64_u64 * 512;
    let expected_traffic = dofs * semfpga::kernel::bytes_per_dof(7) as u64;
    // The session's plan also folds in the configured preconditioner's
    // one-off upload (the default Jacobi inverse diagonal: one field).
    assert_eq!(plan.precond_table_bytes, dofs * 8);
    assert_eq!(
        plan.total_transfer_bytes(),
        expected_traffic + 2 * 64 * 8 + plan.precond_table_bytes
    );
}

#[test]
fn gather_scatter_and_mask_commute_with_the_kernel_symmetry() {
    // The masked, assembled operator stays symmetric: (v, A u) == (u, A v)
    // with the multiplicity-weighted inner product.
    use semfpga::mesh::{DirichletMask, GatherScatter};
    use semfpga::solver::CgSolver;

    let degree = 4;
    let mesh = BoxMesh::unit_cube(degree, 2);
    let op = semfpga::kernel::PoissonOperator::new(&mesh, AxImplementation::Specialized);
    let gs = GatherScatter::from_mesh(&mesh);
    let mask = DirichletMask::from_mesh(&mesh);
    let solver = CgSolver::new(&op, &gs, &mask, CgOptions::default());

    let mut u = mesh.evaluate(|x, y, z| x * (1.0 - x) * y * z);
    let mut v = mesh.evaluate(|x, y, z| (x * y).cos() * z * (1.0 - z));
    mask.apply(&mut u);
    mask.apply(&mut v);
    gs.direct_stiffness_sum(&mut u);
    gs.direct_stiffness_sum(&mut v);

    let au = solver.apply_operator(&u);
    let av = solver.apply_operator(&v);
    let vau = solver.inner_product(&v, &au);
    let uav = solver.inner_product(&u, &av);
    assert!((vau - uav).abs() < 1e-8 * (1.0 + vau.abs()));
}
