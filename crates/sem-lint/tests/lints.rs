//! Fixture tests: each lint pass is pinned to exact findings on known-bad
//! snippets, proven silent on known-good ones, and the real workspace tree
//! must come back completely clean.

use sem_lint::passes::{
    alloc_free, backend_contract, bits_contract, obs_naming, panic_audit, wall_clock,
};
use sem_lint::{Finding, SourceFile};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Parse a fixture under an arbitrary workspace-relative path.
fn parse(rel: &str, name: &str) -> (SourceFile, Vec<Finding>) {
    SourceFile::parse(rel.to_string(), &fixture(name))
}

fn lines_of(findings: &[Finding], pass: &str) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.pass == pass)
        .map(|f| f.line)
        .collect()
}

#[test]
fn wall_clock_flags_instant_and_mixed_lines_exactly() {
    let (file, marker_findings) = parse("crates/foo/src/timing.rs", "wall_clock_bad.rs");
    assert!(marker_findings.is_empty());
    let findings = wall_clock::run(std::slice::from_ref(&file));
    // Lines 2 and 5 use `Instant` without a pragma; lines 9 and 10 mix
    // measured and modelled identifiers.
    assert_eq!(lines_of(&findings, "wall-clock"), vec![2, 5, 9, 10]);
}

#[test]
fn wall_clock_accepts_pragma_and_justified_comparison() {
    let (file, marker_findings) = parse("crates/foo/src/timing.rs", "wall_clock_good.rs");
    assert!(marker_findings.is_empty());
    let findings = wall_clock::run(std::slice::from_ref(&file));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn wall_clock_rejects_pragmas_outside_the_obs_clock() {
    let (file, marker_findings) = parse("crates/foo/src/timing.rs", "wall_clock_pragma_bad.rs");
    assert!(marker_findings.is_empty());
    let findings = wall_clock::run(std::slice::from_ref(&file));
    // The pragma (line 2) is flagged because the file does not implement
    // `ObsClock`; the pragma still whitelists the `Instant` uses below it.
    assert_eq!(lines_of(&findings, "wall-clock"), vec![2]);
    assert!(findings[0].message.contains("ObsClock"), "{findings:?}");
}

#[test]
fn obs_naming_flags_literal_names_off_convention() {
    let (file, marker_findings) = parse("crates/foo/src/instrument.rs", "obs_naming_bad.rs");
    assert!(marker_findings.is_empty());
    let findings = obs_naming::run(std::slice::from_ref(&file));
    // Lines 3-5: missing sem_ prefix, missing unit, unknown crate token.
    // The dynamic name (line 6) and the conforming name (line 7) pass.
    assert_eq!(lines_of(&findings, "obs-naming"), vec![3, 4, 5]);
}

#[test]
fn obs_naming_accepts_convention_names_and_method_definitions() {
    let (file, marker_findings) = parse("crates/foo/src/instrument.rs", "obs_naming_good.rs");
    assert!(marker_findings.is_empty());
    let findings = obs_naming::run(std::slice::from_ref(&file));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn obs_naming_exempts_support_crates() {
    let (file, _) = parse("crates/support/fake/src/lib.rs", "obs_naming_bad.rs");
    let findings = obs_naming::run(std::slice::from_ref(&file));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn wall_clock_exempts_support_crates() {
    let (file, _) = parse("crates/support/fake/src/lib.rs", "wall_clock_bad.rs");
    let findings = wall_clock::run(std::slice::from_ref(&file));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn alloc_free_flags_every_allocation_in_the_region() {
    let (file, marker_findings) = parse("crates/foo/src/hot.rs", "alloc_bad.rs");
    assert!(marker_findings.is_empty());
    let findings = alloc_free::run(std::slice::from_ref(&file));
    // to_vec, collect, Vec::new, format!, vec! — and nothing outside the
    // region (the trailing `cold()` allocates legally).
    assert_eq!(lines_of(&findings, "alloc-free"), vec![5, 6, 7, 8, 10]);
}

#[test]
fn alloc_free_accepts_scratch_reuse_and_justified_waivers() {
    let (file, marker_findings) = parse("crates/foo/src/hot.rs", "alloc_good.rs");
    assert!(marker_findings.is_empty());
    let findings = alloc_free::run(std::slice::from_ref(&file));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_audit_flags_region_panics_and_missing_forbid() {
    let (file, marker_findings) = parse("crates/foo/src/lib.rs", "panic_bad.rs");
    assert!(marker_findings.is_empty());
    let findings = panic_audit::run(std::slice::from_ref(&file));
    // Line 1: crate root lacks forbid(unsafe_code); lines 8/10/12:
    // unwrap, panic!, expect inside the no-panic region.
    assert_eq!(lines_of(&findings, "panic-audit"), vec![1, 8, 10, 12]);
}

#[test]
fn panic_audit_accepts_forbid_and_justified_waiver() {
    let (file, marker_findings) = parse("crates/foo/src/lib.rs", "panic_good.rs");
    assert!(marker_findings.is_empty());
    let findings = panic_audit::run(std::slice::from_ref(&file));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_audit_ignores_non_crate_roots_for_the_attribute_rule() {
    let (file, _) = parse("crates/foo/src/worker.rs", "panic_bad.rs");
    let findings = panic_audit::run(std::slice::from_ref(&file));
    assert_eq!(
        lines_of(&findings, "panic-audit"),
        vec![8, 10, 12],
        "no attribute finding outside src/lib.rs"
    );
}

#[test]
fn panic_audit_requires_safety_comments_in_justified_deny_crates() {
    let (root, marker_findings) = parse("crates/foo/src/lib.rs", "unsafe_bad.rs");
    assert!(marker_findings.is_empty());
    let findings = panic_audit::run(std::slice::from_ref(&root));
    // Lines 10, 19, 26: no comment, a blank line in between, no `SAFETY:`.
    assert_eq!(lines_of(&findings, "panic-audit"), vec![10, 19, 26]);

    // The rule covers every file under the crate's `src/`, not just the
    // root, and only that crate's.
    let (good_root, _) = parse("crates/foo/src/lib.rs", "unsafe_good.rs");
    let (module, _) = parse("crates/foo/src/kernels.rs", "unsafe_bad.rs");
    let (other, _) = parse("crates/bar/src/kernels.rs", "unsafe_bad.rs");
    let findings = panic_audit::run(&[good_root, module, other]);
    let files: Vec<&str> = findings.iter().map(|f| f.file.as_str()).collect();
    assert_eq!(files, vec!["crates/foo/src/kernels.rs"; 3], "{findings:?}");
}

#[test]
fn panic_audit_accepts_safety_comments_above_attributes() {
    let (file, marker_findings) = parse("crates/foo/src/lib.rs", "unsafe_good.rs");
    assert!(marker_findings.is_empty());
    let findings = panic_audit::run(std::slice::from_ref(&file));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn bits_contract_bans_mul_add_in_kernel_code_only() {
    let (file, _) = parse("crates/sem-kernel/src/specialized.rs", "bits_bad.rs");
    let findings = bits_contract::run(std::slice::from_ref(&file));
    assert_eq!(lines_of(&findings, "bits-contract"), vec![7, 9]);
    let (elsewhere, _) = parse("crates/sem-solver/src/cg.rs", "bits_bad.rs");
    assert!(bits_contract::run(std::slice::from_ref(&elsewhere)).is_empty());
}

#[test]
fn bits_contract_ignores_comments_and_test_modules() {
    let (file, _) = parse("crates/sem-kernel/src/specialized.rs", "bits_good.rs");
    let findings = bits_contract::run(std::slice::from_ref(&file));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn backend_contract_flags_unpriced_claims_exactly() {
    let (file, marker_findings) = parse("crates/foo/src/exec.rs", "backend_bad.rs");
    assert!(marker_findings.is_empty());
    let findings = backend_contract::run(std::slice::from_ref(&file));
    let lines = lines_of(&findings, "backend-contract");
    // FusedNoPricing (impl at line 6) lacks simulated_seconds_per_batch;
    // DevicePrecondNoHooks (impl at line 14) lacks precond_table_bytes.
    assert_eq!(lines, vec![6, 14], "{findings:?}");
    assert!(findings[0].message.contains("simulated_seconds_per_batch"));
    assert!(findings[1].message.contains("precond_table_bytes"));
}

#[test]
fn backend_contract_accepts_fully_priced_claims() {
    let (file, marker_findings) = parse("crates/foo/src/exec.rs", "backend_good.rs");
    assert!(marker_findings.is_empty());
    let findings = backend_contract::run(std::slice::from_ref(&file));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn malformed_markers_are_findings_with_exact_lines() {
    let (_, marker_findings) = parse("crates/foo/src/mod.rs", "marker_bad.rs");
    assert_eq!(lines_of(&marker_findings, "lint-marker"), vec![3, 7, 11]);
}

#[test]
fn the_real_workspace_tree_is_clean() {
    let root = sem_lint::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("sem-lint lives in the workspace");
    let findings = sem_lint::lint_workspace(&root);
    assert!(
        findings.is_empty(),
        "workspace must lint clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
