// Fixture: kernel code that names the banned operations only where they
// cannot change the kernels' bits: in comments (`_mm256_fmadd_pd`,
// `fadd_fast`, `algebraic_mul`), in a string, as part of a longer
// identifier that is no intrinsic, and in a cfg(test) module. Not compiled;
// lexed by tests/lints.rs under a crates/sem-kernel/src/ path.

/// Scales a row; a plain multiply, never `fmul_fast`.
fn scale(row: &mut [f64], s: f64) {
    for v in row {
        *v *= s;
    }
}

const NOTE: &str = "no _mm512_fmadd_pd, no algebraic_add here";

fn fast_path_len(fast: usize) -> usize {
    fast + NOTE.len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn fast_math_differs() {
        let x = unsafe { std::intrinsics::fadd_fast(0.1_f64, 0.2) };
        assert!(x > 0.0);
    }
}
