//! Cross-backend parity: every registered execution backend must produce the
//! same `Ax` results, and backend-routed solves must converge identically on
//! CPU and FPGA backends.

use semfpga::accel::{Backend, PerfSource, SemSystem};
use semfpga::mesh::{BoxMesh, ElementField, GeometricFactors};
use semfpga::solver::CgOptions;
use std::sync::Arc;

/// The backends the parity sweep instantiates (multi-board capped at two
/// boards so the partition is non-trivial even on tiny meshes).
fn parity_backends() -> Vec<Backend> {
    [
        "cpu:reference",
        "cpu:specialized",
        "cpu:parallel",
        "fpga:stratix10-gx2800",
        "multi:2x520n",
    ]
    .into_iter()
    .map(|name| Backend::from_name(name).unwrap_or_else(|| panic!("`{name}` must resolve")))
    .collect()
}

#[test]
fn all_registered_backends_produce_identical_ax_results() {
    for degree in [3usize, 7, 11] {
        let mesh = BoxMesh::unit_cube(degree, 2);
        let u = mesh.evaluate(|x, y, z| (2.0 * x - y).sin() * (z + 0.5) + x * x * y);
        let geometry = Arc::new(GeometricFactors::from_mesh(&mesh));

        let mut reference: Option<(String, ElementField)> = None;
        for config in parity_backends() {
            let backend = config.instantiate(&mesh, &geometry);
            let mut w = ElementField::zeros(degree, mesh.num_elements());
            backend.apply_into(&u, &mut w);
            match &reference {
                None => reference = Some((backend.label().into_owned(), w)),
                Some((ref_label, w_ref)) => {
                    let scale = w_ref.max_abs();
                    for (i, (a, b)) in w_ref.as_slice().iter().zip(w.as_slice()).enumerate() {
                        assert!(
                            (a - b).abs() < 1e-10 * (1.0 + scale),
                            "degree {degree}, dof {i}: {ref_label} gives {a}, {} gives {b}",
                            backend.label()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_registry_backend_reports_consistent_metadata() {
    let mesh = BoxMesh::unit_cube(3, 2);
    let geometry = Arc::new(GeometricFactors::from_mesh(&mesh));
    for name in Backend::registry_names() {
        let config = Backend::from_name(&name).unwrap();
        let backend = config.instantiate(&mesh, &geometry);
        assert_eq!(backend.degree(), 3, "{name}");
        assert_eq!(backend.num_elements(), 8, "{name}");
        assert!(backend.flops_per_application() > 0, "{name}");
        assert_eq!(
            backend.perf_source() == PerfSource::Simulated,
            config.is_simulated(),
            "{name}: source must match the configuration"
        );
        assert_eq!(
            backend.seconds_per_application().is_some(),
            config.is_simulated(),
            "{name}: only simulated backends have modelled cost"
        );
    }
}

#[test]
fn solves_converge_identically_on_cpu_and_fpga_backends() {
    let options = CgOptions {
        max_iterations: 3000,
        tolerance: 1e-11,
        record_history: false,
    };
    let build = |backend: Backend| {
        SemSystem::builder()
            .degree(6)
            .elements([2, 2, 2])
            .backend(backend)
            .build()
    };

    let cpu = build(Backend::cpu_specialized()).solve(options);
    let fpga = build(Backend::fpga_simulated()).solve(options);
    let multi = build(Backend::multi_fpga(2)).solve(options);

    assert!(cpu.converged() && fpga.converged() && multi.converged());
    assert_eq!(cpu.iterations(), fpga.iterations());
    assert_eq!(cpu.iterations(), multi.iterations());
    assert_eq!(cpu.source, PerfSource::Measured);
    assert_eq!(fpga.source, PerfSource::Simulated);
    assert!(fpga.operator.seconds > 0.0, "simulated operator time");
    assert!(fpga.operator.power_watts.is_some(), "simulated power");

    let scale = cpu.solution.solution.max_abs();
    for (label, other) in [("fpga", &fpga), ("multi", &multi)] {
        for (a, b) in cpu
            .solution
            .solution
            .as_slice()
            .iter()
            .zip(other.solution.solution.as_slice())
        {
            assert!(
                (a - b).abs() < 1e-10 * (1.0 + scale),
                "{label}: solutions must match to 1e-10"
            );
        }
    }
    // Error metrics agree to the same precision.
    assert!((cpu.solution.max_error - fpga.solution.max_error).abs() < 1e-10);
}
