//! The one simulated-FPGA engine behind both FPGA configurations:
//! `multi:1x<slug>` prices and solves bitwise like `fpga:<slug>`, and a
//! board count beyond the element count prices only the boards that hold
//! elements.

use sem_accel::{PrecondSpec, SemSystem};
use sem_solver::CgOptions;

/// The serve-mix shapes: (degree, elements per side).
const SERVE_MIX_SHAPES: [(usize, usize); 4] = [(3, 3), (5, 2), (7, 2), (7, 3)];

/// The serve-mix devices.
const SERVE_MIX_DEVICES: [&str; 2] = ["stratix10-gx2800", "agilex-027"];

fn system(name: &str, degree: usize, per_side: usize) -> SemSystem {
    SemSystem::builder()
        .degree(degree)
        .elements([per_side; 3])
        .backend_named(name)
        .build()
}

fn bits(seconds: Option<f64>) -> Option<u64> {
    seconds.map(f64::to_bits)
}

/// Assert that two sessions price and solve bitwise alike; only their
/// labels may differ.
fn assert_priced_and_solved_alike(a: &SemSystem, b: &SemSystem, context: &str) {
    let (ea, eb) = (a.execution(), b.execution());
    assert_eq!(
        bits(ea.simulated_seconds_per_application()),
        bits(eb.simulated_seconds_per_application()),
        "{context}: seconds per application"
    );
    for batch in [1, 2, 4, 16] {
        assert_eq!(
            bits(ea.simulated_seconds_per_batch(batch)),
            bits(eb.simulated_seconds_per_batch(batch)),
            "{context}: seconds per batch of {batch}"
        );
    }
    assert_eq!(
        bits(ea.power_watts()),
        bits(eb.power_watts()),
        "{context}: power"
    );
    assert_eq!(
        a.offload_plan(),
        b.offload_plan(),
        "{context}: offload plan"
    );
    assert_eq!(
        ea.flops_per_application(),
        eb.flops_per_application(),
        "{context}"
    );
    assert_eq!(
        a.accelerator().is_some(),
        b.accelerator().is_some(),
        "{context}: single-board accelerator"
    );
    for spec in PrecondSpec::all() {
        assert_eq!(
            ea.precond_on_device(spec),
            eb.precond_on_device(spec),
            "{context}: {spec:?} claim"
        );
        assert_eq!(
            bits(ea.simulated_seconds_per_precond(spec)),
            bits(eb.simulated_seconds_per_precond(spec)),
            "{context}: {spec:?} seconds"
        );
        assert_eq!(
            ea.precond_table_bytes(spec),
            eb.precond_table_bytes(spec),
            "{context}: {spec:?} table bytes"
        );
    }

    let options = CgOptions {
        max_iterations: 400,
        tolerance: 1e-9,
        record_history: false,
    };
    let (ra, rb) = (a.solve(options), b.solve(options));
    assert!(ra.converged(), "{context}");
    assert_eq!(ra.iterations(), rb.iterations(), "{context}: iterations");
    assert_eq!(
        ra.solution.solution.as_slice(),
        rb.solution.solution.as_slice(),
        "{context}: solution"
    );
    for (what, x, y) in [
        ("operator seconds", ra.operator.seconds, rb.operator.seconds),
        ("precond seconds", ra.precond_seconds, rb.precond_seconds),
        ("transfer seconds", ra.transfer_seconds, rb.transfer_seconds),
        (
            "pipelined transfer seconds",
            ra.pipelined_transfer_seconds,
            rb.pipelined_transfer_seconds,
        ),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: {what}");
    }
    assert_eq!(
        bits(ra.operator.power_watts),
        bits(rb.operator.power_watts),
        "{context}: solve power"
    );
    assert_eq!(
        ra.precond_on_device, rb.precond_on_device,
        "{context}: solve precond claim"
    );
}

#[test]
fn one_board_through_the_multi_syntax_prices_and_solves_like_the_single_board_name() {
    for slug in SERVE_MIX_DEVICES {
        for (degree, per_side) in SERVE_MIX_SHAPES {
            for suffix in ["", "+none", "+fdm"] {
                let single = system(&format!("fpga:{slug}{suffix}"), degree, per_side);
                let multi = system(&format!("multi:1x{slug}{suffix}"), degree, per_side);
                let context = format!("{slug}{suffix} N{degree}/{per_side}^3");
                assert!(single.accelerator().is_some(), "{context}");
                assert_priced_and_solved_alike(&single, &multi, &context);
                assert!(
                    multi.execution().label().starts_with("multi-fpga (1 x"),
                    "{context}: {}",
                    multi.execution().label()
                );
            }
        }
    }
}

#[test]
fn boards_beyond_the_element_count_are_not_priced() {
    // 2^3 = 8 elements: a usize::MAX-board configuration holds one element
    // per board on 8 boards, exactly like `multi:8x520n`.
    let huge = format!("multi:{}x520n+fdm", usize::MAX);
    for degree in [3, 5] {
        let overfull = system(&huge, degree, 2);
        let eight = system("multi:8x520n+fdm", degree, 2);
        let context = format!("{huge} N{degree}/2^3");
        assert!(eight.precond_on_device(), "{context}: FDM is claimed");
        assert_priced_and_solved_alike(&overfull, &eight, &context);
        assert!(
            overfull
                .execution()
                .label()
                .contains(&format!("{} x", usize::MAX)),
            "the label keeps the configured board count"
        );
    }
}
