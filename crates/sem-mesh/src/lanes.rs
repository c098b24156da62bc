//! The one reduction order of every local inner product.
//!
//! Element `i` of a reduction goes into lane `i % LANES`, each lane folds
//! left from `-0.0`, and the lanes combine by the fixed tree
//! `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`.  A loop over
//! `as_chunks::<LANES>()` feeds one [`StripedSum::add`] per chunk and the
//! `len % LANES` tail into lanes `0..tail`.  Eight independent accumulators
//! leave no loop-carried chain longer than one lane, so the loop runs at the
//! host's vector width; and because the order is fixed here rather than
//! left to the compiler, the bits are the same at every instruction set and
//! build flag (Rust never fuses `a * b + c`).

/// Number of striped accumulators.
pub const LANES: usize = 8;

/// Eight striped partial sums in the fixed reduction order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StripedSum([f64; LANES]);

impl Default for StripedSum {
    fn default() -> Self {
        Self::new()
    }
}

impl StripedSum {
    /// Every lane at `-0.0`, the identity of IEEE addition.
    #[must_use]
    pub const fn new() -> Self {
        Self([-0.0; LANES])
    }

    /// Fold `terms[i]` into lane `i`.  A chunk passes all [`LANES`] terms;
    /// the tail passes its fewer than [`LANES`] terms, which land in lanes
    /// `0..tail`.
    #[inline(always)]
    pub fn add(&mut self, terms: impl IntoIterator<Item = f64>) {
        for (lane, term) in self.0.iter_mut().zip(terms) {
            *lane += term;
        }
    }

    /// Combine the lanes by the fixed tree.
    #[must_use]
    #[inline]
    pub fn total(self) -> f64 {
        let [l0, l1, l2, l3, l4, l5, l6, l7] = self.0;
        ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
    }
}
