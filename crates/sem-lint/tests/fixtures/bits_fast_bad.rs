// Fixture: fused multiply-add intrinsics and fast-math float operations in
// kernel code. Not compiled; lexed by tests/lints.rs under a
// crates/sem-kernel/src/ path.

use std::arch::x86_64::{__m256d, _mm256_fmadd_pd, _mm512_fnmsub_pd};
use std::intrinsics::{fadd_fast, fmul_fast};

fn axpy(a: __m256d, x: __m256d, y: __m256d) -> __m256d {
    unsafe { _mm256_fmadd_pd(a, x, y) }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc = unsafe { fadd_fast(acc, fmul_fast(*x, *y)) };
    }
    acc.algebraic_add(1.0)
}
