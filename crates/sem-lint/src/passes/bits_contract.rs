//! Bits contract of the `Ax` kernel family.
//!
//! `sem-kernel` promises the same bits from every instantiation of its
//! kernels, whatever instruction set the host dispatches to and whatever
//! `-C target-cpu` the crate is built with.  That holds because Rust never
//! fuses `a * b + c` or reassociates a sum on its own, even where the
//! enabled target features include `fma` (as `avx512f` implies).  Only the
//! source can break it, so this pass bans, in `crates/sem-kernel/src/`
//! outside `#[cfg(test)]` items:
//!
//! * `mul_add`, which rounds once instead of twice;
//! * fused multiply-add intrinsics, any identifier containing `fmadd`,
//!   `fmsub`, `fnmadd` or `fnmsub` (`_mm256_fmadd_pd`, …);
//! * the fast-math float operations (`fadd_fast`, `fsub_fast`, `fmul_fast`,
//!   `fdiv_fast`, `frem_fast`, and every `algebraic_*`), which license the
//!   compiler to contract and reassociate.

use crate::lexer::{matching_brace, TokKind, Token};
use crate::{Finding, SourceFile};

const PASS: &str = "bits-contract";

/// Token ranges of the braced items that carry `#[cfg(test)]`.
fn cfg_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut ranges = Vec::new();
    for w in code.windows(7) {
        let t = |k: usize| &tokens[w[k]];
        if t(0).is_punct('#')
            && t(1).is_punct('[')
            && t(2).is_ident("cfg")
            && t(3).is_punct('(')
            && t(4).is_ident("test")
            && t(5).is_punct(')')
            && t(6).is_punct(']')
        {
            if let Some(open) = (w[6]..tokens.len()).find(|&i| tokens[i].is_punct('{')) {
                ranges.push((open, matching_brace(tokens, open)));
            }
        }
    }
    ranges
}

/// Why `ident` breaks the contract, or `None` when it does not.
fn violation(ident: &str) -> Option<&'static str> {
    const FUSED: [&str; 4] = ["fmadd", "fmsub", "fnmadd", "fnmsub"];
    const FAST: [&str; 5] = [
        "fadd_fast",
        "fsub_fast",
        "fmul_fast",
        "fdiv_fast",
        "frem_fast",
    ];
    if ident == "mul_add" {
        Some("`mul_add` fuses the rounding of a multiply-add")
    } else if FUSED.iter().any(|f| ident.contains(f)) {
        Some("a fused multiply-add intrinsic rounds once instead of twice")
    } else if FAST.contains(&ident) || ident.starts_with("algebraic_") {
        Some("a fast-math float operation lets the compiler contract and reassociate")
    } else {
        None
    }
}

/// Run the pass (see module docs).
#[must_use]
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !file.rel.starts_with("crates/sem-kernel/src/") {
            continue;
        }
        let tests = cfg_test_ranges(&file.tokens);
        for (index, tok) in file.tokens.iter().enumerate() {
            if tok.kind != TokKind::Ident || tests.iter().any(|&(a, b)| (a..=b).contains(&index)) {
                continue;
            }
            if let Some(why) = violation(&tok.text) {
                findings.push(file.finding(
                    PASS,
                    tok.line,
                    format!("{why} and breaks the kernels' same-bits-on-every-ISA contract"),
                ));
            }
        }
    }
    findings
}
