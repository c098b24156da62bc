// Fixture: kernel code that never fuses; `mul_add` appears only in this
// comment and in a cfg(test) module. Not compiled; lexed by tests/lints.rs
// under a crates/sem-kernel/src/ path.

/// A left-to-right dot product; no `mul_add`, so the bits never depend on
/// the instruction set.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

#[cfg(test)]
mod tests {
    #[test]
    fn fused_rounding_differs() {
        let fused = 0.1_f64.mul_add(10.0, -1.0);
        assert_ne!(fused, 0.1 * 10.0 - 1.0);
    }
}
