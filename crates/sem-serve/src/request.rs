//! Solve requests: what a client submits to the serving layer.

use sem_accel::SemSystem;
use sem_mesh::ElementField;
use serde::{Deserialize, Serialize};

/// The problem shape a request solves on: enough to mesh the domain and
/// instantiate a backend for it.  Requests with equal specs can share a
/// device session (one shared upload, one batched submission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// Polynomial degree `N`.
    pub degree: usize,
    /// Elements per direction.
    pub elements: [usize; 3],
}

impl ProblemSpec {
    /// A cube of `per_side`³ elements at polynomial degree `degree`.
    #[must_use]
    pub fn cube(degree: usize, per_side: usize) -> Self {
        Self {
            degree,
            elements: [per_side; 3],
        }
    }

    /// Whether the spec can be meshed: degree ≥ 1, at least one element
    /// per direction, and a local dof count `(degree + 1)³ · ex · ey · ez`
    /// that fits in `usize` (meshing computes it, so an overflowing spec
    /// would panic there).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let dofs = self
            .degree
            .checked_add(1)
            .and_then(|nodes| nodes.checked_pow(3))
            .and_then(|per_element| {
                self.elements
                    .iter()
                    .try_fold(per_element, |acc, &e| acc.checked_mul(e))
            });
        self.degree >= 1 && self.elements.iter().all(|&e| e >= 1) && dofs.is_some()
    }

    /// Total element count.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.elements[0] * self.elements[1] * self.elements[2]
    }

    /// Total degrees of freedom (element-local storage).
    #[must_use]
    pub fn num_dofs(&self) -> usize {
        (self.degree + 1).pow(3) * self.num_elements()
    }
}

/// Where a request's right-hand side comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RhsSpec {
    /// The manufactured-solution RHS of the spec's Poisson problem (so the
    /// outcome carries real error metrics).
    Manufactured,
    /// A deterministic polynomial forcing derived from the seed — distinct
    /// seeds give distinct (but reproducible) right-hand sides.
    Seeded(u64),
}

/// One solve request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Problem shape.
    pub spec: ProblemSpec,
    /// Right-hand side.
    pub rhs: RhsSpec,
}

impl ServeRequest {
    /// A manufactured-solution request.
    #[must_use]
    pub fn manufactured(spec: ProblemSpec) -> Self {
        Self {
            spec,
            rhs: RhsSpec::Manufactured,
        }
    }

    /// A seeded-forcing request.
    #[must_use]
    pub fn seeded(spec: ProblemSpec, seed: u64) -> Self {
        Self {
            spec,
            rhs: RhsSpec::Seeded(seed),
        }
    }

    /// Assemble this request's right-hand side on `system` (whose mesh must
    /// match the spec).
    ///
    /// # Panics
    /// Panics if the system's mesh does not match the request's spec.
    #[must_use]
    pub fn assemble_rhs(&self, system: &SemSystem) -> ElementField {
        assert_eq!(system.mesh().degree(), self.spec.degree, "degree mismatch");
        assert_eq!(
            system.mesh().num_elements(),
            self.spec.num_elements(),
            "element count mismatch"
        );
        match self.rhs {
            RhsSpec::Manufactured => system.problem().manufactured_rhs(),
            RhsSpec::Seeded(seed) => {
                // A smooth forcing whose coefficients vary with the seed;
                // deterministic so batched and standalone solves agree
                // bitwise.  The SplitMix64 finaliser is a bijection on u64
                // and the two coefficients take its disjoint 32-bit halves,
                // so distinct seeds always yield distinct (a, b) pairs.
                let mixed = splitmix64(seed);
                let a = 1.0 + (mixed >> 32) as f64 / 2f64.powi(32);
                let b = 0.5 + (mixed & 0xFFFF_FFFF) as f64 / 2f64.powi(33);
                system
                    .problem()
                    .right_hand_side(move |x, y, z| a * x * y * z + b * x - 0.5 * y + z)
            }
        }
    }
}

/// The SplitMix64 output finaliser: a u64 bijection with good avalanche.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_accel::Backend;

    #[test]
    fn spec_arithmetic() {
        let spec = ProblemSpec::cube(7, 4);
        assert_eq!(spec.num_elements(), 64);
        assert_eq!(spec.num_dofs(), 512 * 64);
    }

    #[test]
    fn seeded_rhs_is_deterministic_and_seed_dependent() {
        let spec = ProblemSpec::cube(3, 2);
        let system = SemSystem::builder()
            .degree(spec.degree)
            .elements(spec.elements)
            .backend(Backend::cpu_optimized())
            .build();
        let a = ServeRequest::seeded(spec, 1).assemble_rhs(&system);
        let b = ServeRequest::seeded(spec, 1).assemble_rhs(&system);
        let c = ServeRequest::seeded(spec, 2).assemble_rhs(&system);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
        // No small period: seeds that collided under a modulo scheme differ.
        for (x, y) in [(0_u64, 85), (5, 90), (17, 34)] {
            let fx = ServeRequest::seeded(spec, x).assemble_rhs(&system);
            let fy = ServeRequest::seeded(spec, y).assemble_rhs(&system);
            assert_ne!(fx.as_slice(), fy.as_slice(), "seeds {x} and {y}");
        }
        let m = ServeRequest::manufactured(spec).assemble_rhs(&system);
        assert_eq!(m.len(), a.len());
    }
}
