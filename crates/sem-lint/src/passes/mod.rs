//! The lint passes.  Each exposes `run(&[SourceFile]) -> Vec<Finding>`;
//! per-file rules and workspace-level rules both fit that shape.

pub mod alloc_free;
pub mod backend_contract;
pub mod bench_schema;
pub mod bits_contract;
pub mod obs_naming;
pub mod obs_schema;
pub mod panic_audit;
pub mod wall_clock;

use crate::lexer::Token;

/// The previous non-comment token before `index`, if any.
#[must_use]
pub(crate) fn prev_code_token(tokens: &[Token], index: usize) -> Option<&Token> {
    tokens[..index].iter().rev().find(|t| !t.is_comment())
}

/// The next non-comment token after `index`, if any.
#[must_use]
pub(crate) fn next_code_token(tokens: &[Token], index: usize) -> Option<&Token> {
    tokens[index + 1..].iter().find(|t| !t.is_comment())
}

/// Find `fn <name>`'s body as a token range `(open, close)`, scanning the
/// whole stream.  Returns the first match.
#[must_use]
pub(crate) fn fn_body(tokens: &[Token], name: &str) -> Option<(usize, usize)> {
    let mut i = 0;
    while i + 1 < tokens.len() {
        if tokens[i].is_ident("fn") && tokens[i + 1].is_ident(name) {
            let open = tokens[i + 2..]
                .iter()
                .position(|t| t.is_punct('{'))
                .map(|off| i + 2 + off)?;
            return Some((open, crate::lexer::matching_brace(tokens, open)));
        }
        i += 1;
    }
    None
}

/// Whether a token range contains an identifier equal to `name`.
#[must_use]
pub(crate) fn range_has_ident(tokens: &[Token], range: (usize, usize), name: &str) -> bool {
    tokens[range.0..=range.1].iter().any(|t| t.is_ident(name))
}
