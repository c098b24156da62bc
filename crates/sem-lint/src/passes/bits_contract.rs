//! Bits contract of the `Ax` kernel family.
//!
//! `sem-kernel` promises the same bits from every instantiation of its
//! kernels, whatever instruction set the host dispatches to and whatever
//! `-C target-cpu` the crate is built with.  That holds because Rust never
//! fuses `a * b + c` on its own; an explicit `mul_add` rounds once instead
//! of twice and breaks the promise.  This pass bans the `mul_add`
//! identifier in `crates/sem-kernel/src/` outside `#[cfg(test)]` items.

use crate::lexer::{matching_brace, Token};
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
            if tok.is_ident("mul_add") && !tests.iter().any(|&(a, b)| (a..=b).contains(&index)) {
                findings.push(
                    file.finding(
                        PASS,
                        tok.line,
                        "`mul_add` fuses the rounding of a multiply-add and breaks the kernels' \
                     same-bits-on-every-ISA contract"
                            .to_string(),
                    ),
                );
            }
        }
    }
    findings
}
