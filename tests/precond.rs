//! Workspace-level preconditioner integration tests: iteration-count
//! regressions, registry-wide `+fdm` solution parity, and the on-device
//! claim with its offload pricing.

use semfpga::accel::{Backend, SemSystem};
use semfpga::mesh::ElementField;
use semfpga::solver::{CgOptions, PrecondSpec};

fn options() -> CgOptions {
    CgOptions {
        max_iterations: 3000,
        tolerance: 1e-10,
        record_history: false,
    }
}

fn system(name: &str, degree: usize, per_side: usize) -> SemSystem {
    SemSystem::builder()
        .degree(degree)
        .elements([per_side; 3])
        .backend_named(name)
        .build()
}

/// The shared serving-shaped right-hand side (see
/// `PoissonProblem::generic_rhs` for why iteration regressions avoid the
/// standard manufactured RHS) — one definition, used here and by the
/// `precond` bench, so the CI gate and the published benchmark stay in
/// lockstep.
fn generic_rhs(system: &SemSystem) -> ElementField {
    system.problem().generic_rhs()
}

#[test]
fn fdm_beats_jacobi_beats_identity_at_every_tested_degree() {
    // The iteration-count ordering the whole optimisation exists for:
    // FDM <= Jacobi <= identity, across degrees, on a generic workload.
    for (degree, per_side) in [(3, 3), (7, 3), (11, 2)] {
        let mut iterations = Vec::new();
        for precond in ["+none", "", "+fdm"] {
            let system = system(&format!("cpu:optimized{precond}"), degree, per_side);
            let rhs = generic_rhs(&system);
            let report = system.solve_rhs(&rhs, options());
            assert!(report.converged(), "N={degree} {precond} must converge");
            iterations.push(report.iterations());
        }
        let (identity, jacobi, fdm) = (iterations[0], iterations[1], iterations[2]);
        assert!(
            fdm <= jacobi && jacobi <= identity,
            "N={degree}: fdm {fdm} <= jacobi {jacobi} <= identity {identity}"
        );
    }
}

#[test]
fn fdm_cuts_at_least_forty_percent_of_jacobi_iterations_at_degree_seven() {
    let jacobi = system("cpu:optimized", 7, 3);
    let fdm = system("cpu:optimized+fdm", 7, 3);
    let rhs = generic_rhs(&jacobi);
    let jacobi_report = jacobi.solve_rhs(&rhs, options());
    let fdm_report = fdm.solve_rhs(&rhs, options());
    assert!(jacobi_report.converged() && fdm_report.converged());
    assert!(
        (fdm_report.iterations() as f64) <= 0.6 * jacobi_report.iterations() as f64,
        "fdm {} vs jacobi {}",
        fdm_report.iterations(),
        jacobi_report.iterations()
    );
}

#[test]
fn every_registry_backend_with_fdm_agrees_with_the_cpu_reference() {
    // Registry-wide solution parity: the preconditioner changes the path,
    // never the destination.  Every backend with `+fdm` must agree with the
    // plain CPU reference to 1e-10 and still converge to the manufactured
    // solution.
    let degree = 5;
    let per_side = 2;
    let reference = system("cpu:reference", degree, per_side).solve(options());
    assert!(reference.converged());
    let scale = 1.0 + reference.solution.solution.max_abs();

    for name in Backend::registry_names() {
        let fdm_name = format!("{name}+fdm");
        let sys = system(&fdm_name, degree, per_side);
        assert_eq!(sys.precond_spec(), PrecondSpec::Fdm);
        let report = sys.solve(options());
        assert!(report.converged(), "{fdm_name} must converge");
        assert!(
            report.solution.max_error < 1e-4,
            "{fdm_name}: manufactured error {}",
            report.solution.max_error
        );
        for (a, b) in reference
            .solution
            .solution
            .as_slice()
            .iter()
            .zip(report.solution.solution.as_slice())
        {
            assert!((a - b).abs() < 1e-10 * scale, "{fdm_name}: {a} vs {b}");
        }
    }
}

#[test]
fn fpga_backends_claim_the_precond_pass_and_price_it() {
    // The FDM apply is claimed on-device (like `fuses_dssum`) and its cost
    // is visible end to end: modelled per-application seconds in the CG
    // accounting, table bytes in the offload plan's shared upload.
    let cpu = system("cpu:optimized+fdm", 5, 2);
    let fpga = system("fpga:stratix10-gx2800+fdm", 5, 2);
    let multi = system("multi:2x520n+fdm", 5, 2);

    assert!(!cpu.precond_on_device());
    assert!(fpga.precond_on_device());
    assert!(multi.precond_on_device());

    // The offload plan carries the one-off FDM table upload as shared bytes.
    let plain_plan = system("fpga:stratix10-gx2800", 5, 2)
        .offload_plan()
        .unwrap();
    let fdm_plan = fpga.offload_plan().unwrap();
    assert!(fdm_plan.precond_table_bytes > 0);
    assert_eq!(
        fdm_plan.shared_bytes(),
        plain_plan.shared_bytes() - plain_plan.precond_table_bytes + fdm_plan.precond_table_bytes
    );
    // Jacobi's resident inverse diagonal is one field's worth of upload.
    assert_eq!(
        plain_plan.precond_table_bytes,
        (5_usize + 1).pow(3) as u64 * 8 * 8,
        "jacobi uploads the inverse diagonal once"
    );

    // The solve report prices the on-device pass deterministically.
    let report = fpga.solve(options());
    assert!(report.precond_on_device);
    assert_eq!(report.precond, PrecondSpec::Fdm);
    assert!(report.precond_seconds > 0.0);
    // One apply before the loop plus one per continuing iteration; the
    // converged final iteration skips the trailing apply.
    assert!(
        report.precond_applications() >= report.iterations()
            && report.precond_applications() <= report.iterations() + 1,
        "{} applies over {} iterations",
        report.precond_applications(),
        report.iterations()
    );
    let again = fpga.solve(options());
    assert_eq!(
        report.precond_seconds.to_bits(),
        again.precond_seconds.to_bits(),
        "modelled precond seconds are a model figure, not a measurement"
    );
    // End-to-end modelled seconds include operator, preconditioner and
    // transfer parts.
    assert!(
        (report.modeled_seconds()
            - (report.operator.seconds + report.precond_seconds + report.transfer_seconds))
            .abs()
            < 1e-15
    );

    // The CPU path measures the same pass instead.
    let cpu_report = cpu.solve(options());
    assert!(!cpu_report.precond_on_device);
    assert!(cpu_report.precond_seconds > 0.0);
}

#[test]
fn fdm_improves_the_modeled_fpga_end_to_end_seconds() {
    // Fewer iterations times a pass that costs about one Ax: the modelled
    // end-to-end accelerator time of a generic solve must drop well below
    // Jacobi's.
    let jacobi = system("fpga:stratix10-gx2800", 7, 3);
    let fdm = system("fpga:stratix10-gx2800+fdm", 7, 3);
    let rhs = generic_rhs(&jacobi);
    let jacobi_report = jacobi.solve_rhs(&rhs, options());
    let fdm_report = fdm.solve_rhs(&rhs, options());
    assert!(jacobi_report.converged() && fdm_report.converged());
    assert!(
        fdm_report.modeled_seconds() < 0.75 * jacobi_report.modeled_seconds(),
        "fdm {} vs jacobi {}",
        fdm_report.modeled_seconds(),
        jacobi_report.modeled_seconds()
    );
    // Solutions agree regardless.
    let scale = 1.0 + jacobi_report.solution.solution.max_abs();
    for (a, b) in jacobi_report
        .solution
        .solution
        .as_slice()
        .iter()
        .zip(fdm_report.solution.solution.as_slice())
    {
        assert!((a - b).abs() < 1e-8 * scale);
    }
}

#[test]
fn builder_precond_and_name_suffix_agree() {
    let by_name = system("cpu:specialized+fdm", 3, 2);
    let by_builder = SemSystem::builder()
        .degree(3)
        .elements([2; 3])
        .backend(Backend::cpu_specialized())
        .precond(PrecondSpec::Fdm)
        .build();
    assert_eq!(by_name.backend(), by_builder.backend());
    assert_eq!(by_builder.precond_spec(), PrecondSpec::Fdm);
    assert_eq!(
        by_builder.backend().name().as_deref(),
        Some("cpu:specialized+fdm")
    );
    // The folded `cpu:optimized` name still parses, to the same config.
    let by_alias = system("cpu:optimized+fdm", 3, 2);
    assert_eq!(by_alias.backend(), by_builder.backend());
}
