// Fixture: fused multiply-adds in kernel code. Not compiled; lexed by
// tests/lints.rs under a crates/sem-kernel/src/ path.

fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc = x.mul_add(*y, acc);
    }
    f64::mul_add(acc, 2.0, 1.0)
}
