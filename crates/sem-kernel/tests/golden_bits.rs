//! Golden bits of the `DegreeDispatch` kernel tables.
//!
//! Hashes of `DegreeDispatch::ax_apply_all` at N = 3, 4, 5, 7 and 11 and of
//! one fast-diagonalization element at N = 7 (the specialized family), and
//! of `ax_apply_all` at N = 2 and 16 and one FDM element at N = 2 (the
//! `"generic"` table), pinned as constants.  The inputs
//! come from an integer generator scaled by exact powers of two, with no
//! transcendental call anywhere, so the expected hashes are the same on
//! every IEEE-754 platform.  Whichever instruction set `for_degree` picks on
//! the running host, and whatever `-C target-cpu` the crate is built with,
//! the bits must not move: Rust never fuses `a * b + c`, and the kernels
//! call no `mul_add`.  CI re-runs this file under `-C target-cpu=native`.

use sem_kernel::DegreeDispatch;

/// SplitMix64 values mapped exactly onto `[-1, 1)`.
struct Inputs(u64);

impl Inputs {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0
    }

    fn field(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// FNV-1a over the IEEE bit patterns.
fn fnv1a(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn transpose(m: &[f64], n: usize) -> Vec<f64> {
    (0..n * n).map(|k| m[(k % n) * n + k / n]).collect()
}

/// `w = Dᵀ G D u` over three elements of random `u`, `G` and `D`.
fn ax_hash(degree: usize) -> u64 {
    let nx = degree + 1;
    let len = 3 * nx * nx * nx;
    let mut inputs = Inputs(degree as u64);
    let u = inputs.field(len);
    let g: Vec<Vec<f64>> = (0..6).map(|_| inputs.field(len)).collect();
    let d = inputs.field(nx * nx);
    let dt = transpose(&d, nx);
    let mut w = vec![0.0; len];
    DegreeDispatch::for_degree(degree).ax_apply_all(
        &u,
        &mut w,
        [&g[0], &g[1], &g[2], &g[3], &g[4], &g[5]],
        &d,
        &dt,
    );
    fnv1a(&w)
}

/// One fast-diagonalization element of random matrices and modal scales.
fn fdm_hash(degree: usize) -> u64 {
    let nx = degree + 1;
    let npts = nx * nx * nx;
    let mut inputs = Inputs(1000 + degree as u64);
    let m: Vec<Vec<f64>> = (0..6).map(|_| inputs.field(nx * nx)).collect();
    let inv = inputs.field(npts);
    let r = inputs.field(npts);
    let mut z = vec![0.0; npts];
    DegreeDispatch::for_degree(degree).fdm_element_apply(
        [&m[0], &m[1], &m[2]],
        [&m[3], &m[4], &m[5]],
        &inv,
        &r,
        &mut z,
    );
    fnv1a(&z)
}

#[test]
fn specialized_kernels_reproduce_their_golden_bits() {
    // (label, degree, hash, pinned).  N = 4 runs the whole-k-plane block on
    // AVX2, N = 5 the AVX2 side of the AVX-512 rule; N = 3, 7 and 11 run
    // AVX-512F where the host has it.  N = 2 and 16 run the generic table;
    // their pins are the generic kernels' bits before the table existed.
    let cases = [
        ("ax N=3", 3, ax_hash(3), 0x6d8b_95f0_ff84_7916_u64),
        ("ax N=7", 7, ax_hash(7), 0x9f2a_957e_a63c_1fae),
        ("ax N=11", 11, ax_hash(11), 0x9d2d_f575_06e4_a3bd),
        ("fdm N=7", 7, fdm_hash(7), 0xbb1a_badd_418a_14be),
        ("ax N=4", 4, ax_hash(4), 0x795e_6f56_9c02_2552),
        ("ax N=5", 5, ax_hash(5), 0xfd29_783d_a68b_ddd2),
        ("ax N=2", 2, ax_hash(2), 0xcd1f_0398_6c31_63ee),
        ("ax N=16", 16, ax_hash(16), 0x0ba2_0af0_7bfd_19fe),
        ("fdm N=2", 2, fdm_hash(2), 0x7371_9fc6_6b1c_0f05),
    ];
    for (label, degree, got, pinned) in cases {
        let isa = DegreeDispatch::for_degree(degree).isa();
        assert_eq!(
            got, pinned,
            "{label} on the {isa} instantiation: {got:#018x} != pinned {pinned:#018x}"
        );
    }
}
