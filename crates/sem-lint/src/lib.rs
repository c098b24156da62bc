//! `sem-lint`: workspace invariant checker for the semfpga repo.
//!
//! Two engines live here:
//!
//! 1. **Lint passes** — a dependency-free Rust token [`lexer`] plus a small
//!    pass framework runs repo-specific lints over every workspace source
//!    file: wall-clock discipline ([`passes::wall_clock`]), hot-path
//!    allocation hygiene ([`passes::alloc_free`]), backend-contract
//!    coherence ([`passes::backend_contract`]), an unsafe/panic audit
//!    ([`passes::panic_audit`]), the kernels' same-bits contract
//!    ([`passes::bits_contract`]), metric-name conventions
//!    ([`passes::obs_naming`]), bench-report schema pinning
//!    ([`passes::bench_schema`]), and observability-artifact schema
//!    pinning ([`passes::obs_schema`]).  Policy is declared in-source with
//!    [`markers`] (`// lint: …` comments); waivers require justifications
//!    the linter parses, so exemptions are never silent.
//! 2. **Race detection** — the `sem-lint` binary drives
//!    `sem_serve::explore`, the schedule-exploring race detector for the
//!    work-stealing serving host, and fails on any contract violation.
//!
//! The binary (`cargo run -p sem-lint`) runs both engines and exits
//! non-zero on any finding; CI uses it as a hard gate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod markers;
pub mod passes;
pub mod workspace;

use markers::{Directive, Marker};
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The pass that produced it (`wall-clock`, `alloc-free`, …).
    pub pass: &'static str,
    /// Workspace-relative file path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.message
        )
    }
}

/// One lexed workspace source file, with its lint markers parsed.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Lexed tokens, comments included.
    pub tokens: Vec<lexer::Token>,
    /// Parsed `// lint:` markers.
    pub markers: Vec<Marker>,
}

impl SourceFile {
    /// Lex and parse one file; malformed markers come back as findings of
    /// the `lint-marker` pass.
    #[must_use]
    pub fn parse(rel: String, text: &str) -> (Self, Vec<Finding>) {
        let tokens = lexer::lex(text);
        let (markers, errors) = markers::parse_markers(&tokens);
        let findings = errors
            .into_iter()
            .map(|e| Finding {
                pass: "lint-marker",
                file: rel.clone(),
                line: e.line,
                message: e.message,
            })
            .collect();
        (
            Self {
                rel,
                tokens,
                markers,
            },
            findings,
        )
    }

    /// Whether this file belongs to a vendored support crate (exempt from
    /// repo policy: support code stands in for external dependencies).
    #[must_use]
    pub fn is_support(&self) -> bool {
        self.rel.starts_with("crates/support/")
    }

    /// Whether the file carries a given file-scope pragma.
    #[must_use]
    pub fn has_pragma(&self, directive: Directive) -> bool {
        self.markers.iter().any(|m| m.directive == directive)
    }

    /// The lines waived for a given waiver directive.
    #[must_use]
    pub fn waived_lines(&self, directive: Directive) -> BTreeSet<usize> {
        self.markers
            .iter()
            .filter(|m| m.directive == directive)
            .map(|m| markers::waived_line(&self.tokens, m))
            .collect()
    }

    /// Token ranges of the regions a region directive governs.
    #[must_use]
    pub fn regions(&self, directive: Directive) -> Vec<(usize, usize)> {
        self.markers
            .iter()
            .filter(|m| m.directive == directive)
            .filter_map(|m| markers::region_range(&self.tokens, m))
            .collect()
    }

    /// Helper for passes: emit a finding against this file.
    #[must_use]
    pub fn finding(&self, pass: &'static str, line: usize, message: String) -> Finding {
        Finding {
            pass,
            file: self.rel.clone(),
            line,
            message,
        }
    }
}

/// Load every workspace source under `root`; unreadable files are skipped
/// (the compiler will complain about them, not the linter).
#[must_use]
pub fn load_workspace(root: &Path) -> (Vec<SourceFile>, Vec<Finding>) {
    let mut files = Vec::new();
    let mut findings = Vec::new();
    for rel in workspace::collect_sources(root) {
        let Ok(text) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let rel = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let (file, marker_findings) = SourceFile::parse(rel, &text);
        findings.extend(marker_findings);
        files.push(file);
    }
    (files, findings)
}

/// Run every lint pass over the loaded files and return the combined,
/// deterministically ordered findings.
#[must_use]
pub fn run_passes(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(passes::wall_clock::run(files));
    findings.extend(passes::alloc_free::run(files));
    findings.extend(passes::backend_contract::run(files));
    findings.extend(passes::panic_audit::run(files));
    findings.extend(passes::bits_contract::run(files));
    findings.extend(passes::obs_naming::run(files));
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.pass, &a.message).cmp(&(&b.file, b.line, b.pass, &b.message))
    });
    findings
}

/// Lint the whole workspace rooted at `root`: load, parse markers, run all
/// passes (including the root-aware bench-schema and obs-schema passes,
/// which need the committed `BENCH_*.json` reports and `OBS_*` artifacts
/// next to the sources).
#[must_use]
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let (files, mut findings) = load_workspace(root);
    findings.extend(run_passes(&files));
    findings.extend(passes::bench_schema::run(&files, root));
    findings.extend(passes::obs_schema::run(root));
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.pass, &a.message).cmp(&(&b.file, b.line, b.pass, &b.message))
    });
    findings
}
