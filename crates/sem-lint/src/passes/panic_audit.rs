//! Unsafe/panic audit.
//!
//! Three rules:
//!
//! 1. Every non-support crate root (`src/lib.rs`) must carry
//!    `#![forbid(unsafe_code)]`.  `#![deny(unsafe_code)]` is accepted only
//!    when a comment directly above the attribute justifies why forbid is
//!    not possible (support crates — vendored dependency stand-ins — are
//!    exempt from the rule entirely).
//! 2. In a crate whose root carries that justified `deny`, every `unsafe`
//!    block under its `src/` needs a `// SAFETY:` comment directly above
//!    it.  Attributes on the block (the `#[allow(unsafe_code)]` it needs)
//!    may sit between; a blank line or code may not.
//! 3. Regions marked `// lint: no-panic` (the serving host's worker
//!    threads, where one panic strands sibling deques) must not contain
//!    panicking calls: `.unwrap()`, `.expect(…)`, `panic!`,
//!    `unreachable!`, `todo!`, `unimplemented!`, or the `assert*!`
//!    family.  `// lint: panic-ok (reason)` waives one line.

use crate::lexer::{TokKind, Token};
use crate::markers::Directive;
use crate::passes::{next_code_token, prev_code_token};
use crate::{Finding, SourceFile};

const PASS: &str = "panic-audit";

const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Whether `rel` is a crate root the forbid-unsafe rule governs.
fn is_policed_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    rel.starts_with("crates/")
        && !rel.starts_with("crates/support/")
        && rel.ends_with("/src/lib.rs")
}

/// How a crate root declares its unsafe-code stance.
#[derive(Debug, PartialEq, Eq)]
enum UnsafeStance {
    Forbid,
    /// `deny` plus whether a comment sits directly above the attribute.
    Deny {
        justified: bool,
    },
    Absent,
}

fn unsafe_stance(file: &SourceFile) -> UnsafeStance {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        // Match `# ! [ <level> ( unsafe_code ) ]` token by token.
        if !toks[i].is_punct('#') {
            continue;
        }
        let code: Vec<&crate::lexer::Token> = toks[i..]
            .iter()
            .filter(|t| !t.is_comment())
            .take(7)
            .collect();
        if code.len() == 7
            && code[1].is_punct('!')
            && code[2].is_punct('[')
            && code[3].kind == TokKind::Ident
            && code[4].is_punct('(')
            && code[5].is_ident("unsafe_code")
            && code[6].is_punct(')')
        {
            match code[3].text.as_str() {
                "forbid" => return UnsafeStance::Forbid,
                "deny" => {
                    // Justified only by a *plain* comment directly above —
                    // doc comments (`//!`, `///`) are prose every file has,
                    // not a decision record.
                    let justified = toks[..i].last().is_some_and(|t| {
                        t.kind == TokKind::LineComment
                            && !t.text.starts_with("///")
                            && !t.text.starts_with("//!")
                    });
                    return UnsafeStance::Deny { justified };
                }
                _ => {}
            }
        }
    }
    UnsafeStance::Absent
}

/// Whether a `// SAFETY:` line comment sits directly above the token at
/// `index`, looking past any attributes (`#[...]`) in between.
fn has_safety_comment(tokens: &[Token], index: usize) -> bool {
    let mut i = index;
    let mut line = tokens[index].line;
    while i > 0 {
        let prev = &tokens[i - 1];
        if prev.is_punct(']') {
            // Step back over one attribute to its `#`.
            let mut depth = 0_usize;
            let mut j = i - 1;
            loop {
                if tokens[j].is_punct(']') {
                    depth += 1;
                } else if tokens[j].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return false;
                }
                j -= 1;
            }
            if j == 0 || !tokens[j - 1].is_punct('#') {
                return false;
            }
            i = j - 1;
        } else if prev.kind == TokKind::LineComment && prev.line + 1 == line {
            if prev.text.starts_with("// SAFETY:") {
                return true;
            }
            i -= 1;
        } else {
            return false;
        }
        line = tokens[i].line;
    }
    false
}

/// Run the pass (see module docs).
#[must_use]
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // The `src/` directories of crates that justify `deny(unsafe_code)`.
    let mut deny_srcs = Vec::new();
    for file in files {
        if is_policed_crate_root(&file.rel) {
            match unsafe_stance(file) {
                UnsafeStance::Forbid => {}
                UnsafeStance::Deny { justified: true } => {
                    deny_srcs.push(file.rel.trim_end_matches("lib.rs").to_string());
                }
                UnsafeStance::Deny { justified: false } => findings.push(
                    file.finding(
                        PASS,
                        1,
                        "crate uses `#![deny(unsafe_code)]`; upgrade to `forbid` or justify \
                     the deny with a comment directly above the attribute"
                            .to_string(),
                    ),
                ),
                UnsafeStance::Absent => findings.push(file.finding(
                    PASS,
                    1,
                    "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
                )),
            }
        }
    }
    for file in files {
        if deny_srcs
            .iter()
            .any(|src| file.rel.starts_with(src.as_str()))
        {
            for (index, tok) in file.tokens.iter().enumerate() {
                if tok.is_ident("unsafe")
                    && next_code_token(&file.tokens, index).is_some_and(|n| n.is_punct('{'))
                    && !has_safety_comment(&file.tokens, index)
                {
                    findings.push(file.finding(
                        PASS,
                        tok.line,
                        "`unsafe` block lacks a `// SAFETY:` comment directly above it".to_string(),
                    ));
                }
            }
        }
        let regions = file.regions(Directive::NoPanic);
        if regions.is_empty() {
            continue;
        }
        let waived = file.waived_lines(Directive::PanicOk);
        for (open, close) in regions {
            for index in open..=close {
                let tok = &file.tokens[index];
                if tok.kind != TokKind::Ident || waived.contains(&tok.line) {
                    continue;
                }
                let name = tok.text.as_str();
                if PANIC_METHODS.contains(&name)
                    && prev_code_token(&file.tokens, index).is_some_and(|p| p.is_punct('.'))
                {
                    findings.push(file.finding(
                        PASS,
                        tok.line,
                        format!("`.{name}()` can panic inside a no-panic region"),
                    ));
                    continue;
                }
                if PANIC_MACROS.contains(&name)
                    && next_code_token(&file.tokens, index).is_some_and(|n| n.is_punct('!'))
                {
                    findings.push(file.finding(
                        PASS,
                        tok.line,
                        format!("`{name}!` panics inside a no-panic region"),
                    ));
                }
            }
        }
    }
    findings
}
