//! Degree-sweep parity battery for the specialized kernel family: for every
//! covered degree N = 3..=15 the `cpu:specialized` path must agree with
//! `cpu:reference` to 1e-10 on the Ax operator and with the generic kernels
//! on the FDM preconditioner application — and out-of-range degrees must
//! resolve the generic kernel table instead of panicking.  `cpu:parallel`
//! fans the same dispatch out over elements, and the simulated FPGA datapath
//! (one board, and 2 or 3 boards with the elements block-partitioned) runs
//! it per board, so their `Ax` must match `cpu:specialized` bit for bit, in
//! range and off it.

use semfpga::accel::Backend;
use semfpga::fpga::{
    synthesize, AcceleratorDesign, FpgaAccelerator, FpgaDevice, MultiBoardAccelerator,
};
use semfpga::kernel::specialized::{MAX_DEGREE, MIN_DEGREE};
use semfpga::kernel::{AxImplementation, DegreeDispatch, PoissonOperator};
use semfpga::mesh::{
    BoxMesh, DirichletMask, ElementField, GatherScatter, GeometricFactors, MeshDeformation,
};
use semfpga::solver::{FdmPreconditioner, Preconditioner};
use std::sync::Arc;

/// A deformed mesh so all six geometric-factor planes are populated and the
/// contractions cannot hide behind diagonal geometry.
fn deformed_mesh(degree: usize) -> BoxMesh {
    BoxMesh::new(
        degree,
        [2; 3],
        [1.0; 3],
        MeshDeformation::Sinusoidal { amplitude: 0.06 },
    )
}

fn assert_close(label: &str, degree: usize, expected: &ElementField, got: &ElementField) {
    let scale = expected.max_abs();
    for (i, (a, b)) in expected.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert!(
            (a - b).abs() <= 1e-10 * (1.0 + scale),
            "{label}, degree {degree}, dof {i}: reference {a} vs specialized {b}"
        );
    }
}

/// `w = A u` through the simulated 520N datapath: one board, then 2 and 3
/// boards (the 2³-element meshes split 4+4 and, unevenly, 3+3+2).  Empty
/// when the design for `degree` does not fit the board.
fn simulated_ax(
    mesh: &BoxMesh,
    geometry: &GeometricFactors,
    u: &ElementField,
) -> Vec<(String, ElementField)> {
    let degree = mesh.degree();
    let device = FpgaDevice::stratix10_gx2800();
    if !synthesize(&AcceleratorDesign::for_degree(degree, &device), &device).fits {
        return Vec::new();
    }
    let zeros = || ElementField::zeros(degree, mesh.num_elements());
    let mut w = zeros();
    let _ = FpgaAccelerator::for_degree(degree, &device).execute_into(u, geometry, &mut w);
    let mut results = vec![("fpga-sim".to_string(), w)];
    for boards in [2, 3] {
        let mut w = zeros();
        let _ = MultiBoardAccelerator::new(degree, &device, boards, 12.0)
            .execute_into(u, geometry, &mut w);
        results.push((format!("{boards}-board fpga-sim"), w));
    }
    results
}

#[test]
fn specialized_ax_matches_reference_on_every_covered_degree() {
    let mut simulated_degrees = 0;
    for degree in MIN_DEGREE..=MAX_DEGREE {
        let mesh = deformed_mesh(degree);
        let u = mesh.evaluate(|x, y, z| (3.1 * x + 1.3 * y).sin() * (z * z + 0.25) + x * y);
        let geometry = Arc::new(GeometricFactors::from_mesh(&mesh));
        let apply = |backend: Backend| {
            let mut w = ElementField::zeros(degree, mesh.num_elements());
            backend.instantiate(&mesh, &geometry).apply_into(&u, &mut w);
            w
        };
        let w_spec = apply(Backend::cpu_specialized());
        assert_close("Ax", degree, &apply(Backend::cpu_reference()), &w_spec);
        assert_eq!(
            apply(Backend::cpu_parallel()).as_slice(),
            w_spec.as_slice(),
            "parallel Ax, degree {degree}"
        );
        let simulated = simulated_ax(&mesh, &geometry, &u);
        simulated_degrees += usize::from(!simulated.is_empty());
        for (label, w) in simulated {
            assert_eq!(
                w.as_slice(),
                w_spec.as_slice(),
                "{label} Ax, degree {degree}"
            );
        }
    }
    assert!(
        simulated_degrees >= 3,
        "the 520N battery must cover several degrees, not {simulated_degrees}"
    );
}

#[test]
fn specialized_fdm_apply_matches_the_generic_kernels_on_every_covered_degree() {
    for degree in MIN_DEGREE..=MAX_DEGREE {
        let mesh = deformed_mesh(degree);
        let operator = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        let gather_scatter = GatherScatter::from_mesh(&mesh);
        let mask = DirichletMask::from_mesh(&mesh);
        let fdm = FdmPreconditioner::new(&mesh, &operator, &gather_scatter, &mask);
        let generic = fdm.clone().with_generic_kernels();

        let mut r = mesh.evaluate(|x, y, z| (x - 0.4) * (y + 0.2) + (2.2 * z).cos());
        gather_scatter.direct_stiffness_sum(&mut r);
        mask.apply(&mut r);
        let z_spec = fdm.apply(&r);
        let z_ref = generic.apply(&r);
        assert_close("FDM apply", degree, &z_ref, &z_spec);
    }
}

#[test]
fn out_of_range_degrees_fall_back_to_the_generic_path_without_panicking() {
    // N = 1 has no FDM coarse level, N = 2 a degree-1 one, N = 16 the
    // degree-2 one the specialized range uses.
    for degree in [1_usize, 2, MAX_DEGREE + 1] {
        assert_eq!(
            DegreeDispatch::for_degree(degree).isa(),
            "generic",
            "degree {degree} must not be covered"
        );
        let mesh = deformed_mesh(degree);
        let operator = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        assert_eq!(operator.dispatch().isa(), "generic", "degree {degree}");
        let u = mesh.evaluate(|x, y, z| x * y + z);
        let reference = PoissonOperator::new(&mesh, AxImplementation::Reference);
        assert_close(
            "fallback Ax",
            degree,
            &reference.apply(&u),
            &operator.apply(&u),
        );
        let parallel = PoissonOperator::new(&mesh, AxImplementation::Parallel);
        assert_eq!(parallel.dispatch().isa(), "generic", "degree {degree}");
        assert_eq!(
            parallel.apply(&u).as_slice(),
            operator.apply(&u).as_slice(),
            "parallel fallback Ax, degree {degree}"
        );
        let geometry = GeometricFactors::from_mesh(&mesh);
        let simulated = simulated_ax(&mesh, &geometry, &u);
        assert!(
            degree != 2 || !simulated.is_empty(),
            "the N = 2 design fits the 520N"
        );
        for (label, w) in simulated {
            assert_eq!(
                w.as_slice(),
                operator.apply(&u).as_slice(),
                "{label} fallback Ax, degree {degree}"
            );
        }
        // The FDM fine pass and coarse transfers run the same generic table.
        let gather_scatter = GatherScatter::from_mesh(&mesh);
        let mask = DirichletMask::from_mesh(&mesh);
        let fdm = FdmPreconditioner::new(&mesh, &operator, &gather_scatter, &mask);
        let mut r = mesh.evaluate(|x, y, z| (x - 0.4) * (y + 0.2) + (2.2 * z).cos());
        gather_scatter.direct_stiffness_sum(&mut r);
        mask.apply(&mut r);
        let z = fdm.apply(&r);
        assert!(
            z.as_slice().iter().all(|v| v.is_finite()),
            "degree {degree}"
        );
        assert!(
            gather_scatter.is_continuous(&z, 1e-10),
            "fallback FDM apply, degree {degree}"
        );
    }
}
