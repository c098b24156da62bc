//! Element-major nodal fields.
//!
//! A field holds `(N+1)^3` double-precision values per element, stored
//! contiguously element by element — the exact layout the paper's kernel
//! (Listing 1) and Nekbone use for `u` and `w`.

use crate::lanes::{StripedSum, LANES};
use serde::{Deserialize, Serialize};

/// A scalar nodal field over a collection of spectral elements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElementField {
    degree: usize,
    num_elements: usize,
    data: Vec<f64>,
}

impl ElementField {
    /// Create a zero field for `num_elements` elements of polynomial degree
    /// `degree`.
    #[must_use]
    pub fn zeros(degree: usize, num_elements: usize) -> Self {
        let n = sem_basis::dofs_per_element(degree) * num_elements;
        Self {
            degree,
            num_elements,
            data: vec![0.0; n],
        }
    }

    /// Create a field filled with a constant.
    #[must_use]
    pub fn constant(degree: usize, num_elements: usize, value: f64) -> Self {
        let mut f = Self::zeros(degree, num_elements);
        f.data.iter_mut().for_each(|v| *v = value);
        f
    }

    /// Wrap an existing element-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != num_elements * (degree + 1)^3`.
    #[must_use]
    pub fn from_vec(degree: usize, num_elements: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            sem_basis::dofs_per_element(degree) * num_elements,
            "buffer length must match mesh size"
        );
        Self {
            degree,
            num_elements,
            data,
        }
    }

    /// Polynomial degree `N`.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of elements.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Degrees of freedom per element, `(N+1)^3`.
    #[must_use]
    pub fn dofs_per_element(&self) -> usize {
        sem_basis::dofs_per_element(self.degree)
    }

    /// Total number of local degrees of freedom (`E * (N+1)^3`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the field has no degrees of freedom.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw element-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the raw element-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The slice of one element's nodal values.
    #[must_use]
    pub fn element(&self, e: usize) -> &[f64] {
        let n = self.dofs_per_element();
        &self.data[e * n..(e + 1) * n]
    }

    /// Mutable slice of one element's nodal values.
    pub fn element_mut(&mut self, e: usize) -> &mut [f64] {
        let n = self.dofs_per_element();
        &mut self.data[e * n..(e + 1) * n]
    }

    /// Value at element `e`, tensor indices `(i, j, k)`.
    #[must_use]
    pub fn at(&self, e: usize, i: usize, j: usize, k: usize) -> f64 {
        let nx = self.degree + 1;
        self.element(e)[i + nx * (j + nx * k)]
    }

    /// Set the value at element `e`, tensor indices `(i, j, k)`.
    pub fn set(&mut self, e: usize, i: usize, j: usize, k: usize, value: f64) {
        let nx = self.degree + 1;
        let idx = i + nx * (j + nx * k);
        self.element_mut(e)[idx] = value;
    }

    /// Copy every value from `other` (BLAS `copy`); no allocation.
    ///
    /// # Panics
    /// Panics if the fields have different sizes.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "field size mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// `self <- self + alpha * other` (BLAS `axpy`).
    ///
    /// # Panics
    /// Panics if the fields have different sizes.
    pub fn axpy(&mut self, alpha: f64, other: &Self) {
        assert_eq!(self.len(), other.len(), "field size mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self <- alpha * self + other`.
    pub fn scale_add(&mut self, alpha: f64, other: &Self) {
        assert_eq!(self.len(), other.len(), "field size mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = alpha * *a + b;
        }
    }

    /// Plain (unweighted) dot product of two local fields.
    ///
    /// Note that on a multi-element mesh shared interface nodes are counted
    /// once per element; use a multiplicity-weighted dot product (see
    /// [`crate::gather_scatter::GatherScatter::inverse_multiplicity`]) for a
    /// true global inner product.
    ///
    /// Sums the products `a * b` in the striped lane order of
    /// [`crate::lanes`].
    #[must_use]
    pub fn dot(&self, other: &Self) -> f64 {
        assert_eq!(self.len(), other.len(), "field size mismatch");
        let (a, a_tail) = self.data.as_chunks::<LANES>();
        let (b, b_tail) = other.data.as_chunks::<LANES>();
        let mut sum = StripedSum::new();
        for (a, b) in a.iter().zip(b) {
            sum.add(std::array::from_fn::<_, LANES, _>(|i| a[i] * b[i]));
        }
        sum.add(a_tail.iter().zip(b_tail).map(|(a, b)| a * b));
        sum.total()
    }

    /// Dot product weighted by a third field (`sum_i self_i * other_i * w_i`),
    /// the `glsc3` of Nekbone.
    ///
    /// Every product keeps its association, `(a * b) * w`, and the products
    /// sum in the striped lane order of [`crate::lanes`]; the fused CG
    /// update sweep reduces in exactly this order, so its `‖r‖²` and `r·z`
    /// are bitwise this function's.
    #[must_use]
    pub fn dot_weighted(&self, other: &Self, weight: &Self) -> f64 {
        assert_eq!(self.len(), other.len(), "field size mismatch");
        assert_eq!(self.len(), weight.len(), "weight size mismatch");
        let (a, a_tail) = self.data.as_chunks::<LANES>();
        let (b, b_tail) = other.data.as_chunks::<LANES>();
        let (w, w_tail) = weight.data.as_chunks::<LANES>();
        let mut sum = StripedSum::new();
        for ((a, b), w) in a.iter().zip(b).zip(w) {
            sum.add(std::array::from_fn::<_, LANES, _>(|i| a[i] * b[i] * w[i]));
        }
        sum.add(
            a_tail
                .iter()
                .zip(b_tail)
                .zip(w_tail)
                .map(|((a, b), w)| a * b * w),
        );
        sum.total()
    }

    /// Euclidean norm of the local data.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Maximum absolute nodal value.
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Fill the field by evaluating `f(element, i, j, k)`.
    pub fn fill_with<F: FnMut(usize, usize, usize, usize) -> f64>(&mut self, mut f: F) {
        let nx = self.degree + 1;
        for e in 0..self.num_elements {
            for k in 0..nx {
                for j in 0..nx {
                    for i in 0..nx {
                        self.set(e, i, j, k, f(e, i, j, k));
                    }
                }
            }
        }
    }

    /// Pointwise multiplication: `self <- self .* other`.
    pub fn pointwise_mul(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "field size mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Set every value to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut f = ElementField::zeros(3, 2);
        assert_eq!(f.len(), 2 * 64);
        assert_eq!(f.dofs_per_element(), 64);
        f.set(1, 2, 3, 1, 7.5);
        assert_eq!(f.at(1, 2, 3, 1), 7.5);
        assert_eq!(f.at(0, 2, 3, 1), 0.0);
        // linear index check: i + nx*(j + nx*k) with nx = 4
        assert_eq!(f.element(1)[2 + 4 * (3 + 4)], 7.5);
    }

    #[test]
    fn axpy_and_dot() {
        let mut a = ElementField::constant(2, 3, 1.0);
        let b = ElementField::constant(2, 3, 2.0);
        a.axpy(0.5, &b);
        assert!(a.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-15));
        let n = a.len() as f64;
        assert!((a.dot(&b) - 4.0 * n).abs() < 1e-12);
        assert!((a.norm() - (4.0 * n).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn weighted_dot() {
        let a = ElementField::constant(1, 2, 3.0);
        let b = ElementField::constant(1, 2, 2.0);
        let mut w = ElementField::constant(1, 2, 0.0);
        w.set(0, 0, 0, 0, 1.0);
        assert!((a.dot_weighted(&b, &w) - 6.0).abs() < 1e-15);
    }

    /// The striped lane order spelled out: element `i` into lane `i % 8`,
    /// each lane folded left from `-0.0`, the fixed combine tree.
    fn striped_reference(terms: impl Iterator<Item = f64>) -> f64 {
        let mut l = [-0.0; 8];
        for (i, t) in terms.enumerate() {
            l[i % 8] += t;
        }
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
    }

    #[test]
    fn dot_products_sum_in_the_striped_lane_order_at_every_tail_length() {
        // Degree 0 has one node per element, so any length is a field.
        let mut state = 0x2545_f491_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1_u64 << 50) as f64 - 4.0
        };
        for len in 0..=3 * 8 + 7 {
            let mut values = || -> Vec<f64> { (0..len).map(|_| next()).collect() };
            let (a, b, w) = (values(), values(), values());
            let weighted = striped_reference((0..len).map(|i| a[i] * b[i] * w[i]));
            let plain = striped_reference((0..len).map(|i| a[i] * b[i]));
            let [a, b, w] = [a, b, w].map(|v| ElementField::from_vec(0, len, v));
            assert_eq!(
                a.dot_weighted(&b, &w).to_bits(),
                weighted.to_bits(),
                "dot_weighted, len {len} (tail {})",
                len % 8
            );
            assert_eq!(a.dot(&b).to_bits(), plain.to_bits(), "dot, len {len}");
        }
    }

    #[test]
    fn fill_with_visits_every_node_once() {
        let mut f = ElementField::zeros(2, 2);
        let mut count = 0;
        f.fill_with(|_, _, _, _| {
            count += 1;
            1.0
        });
        assert_eq!(count, f.len());
        assert!((f.dot(&f) - f.len() as f64).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_wrong_length() {
        let _ = ElementField::from_vec(2, 2, vec![0.0; 10]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn axpy_rejects_mismatched_fields() {
        let mut a = ElementField::zeros(2, 2);
        let b = ElementField::zeros(2, 3);
        a.axpy(1.0, &b);
    }
}
