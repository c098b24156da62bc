//! Dirichlet boundary masks.
//!
//! The homogeneous Poisson problem of the paper (Section II) imposes `u = 0`
//! on the domain boundary.  In the local/matrix-free formulation this is done
//! by zeroing the boundary degrees of freedom of residuals and search
//! directions — the "mask" of Nekbone.

use crate::field::ElementField;
use crate::mesh::BoxMesh;
use serde::{Deserialize, Serialize};

/// The Dirichlet mask over the local degrees of freedom: the boundary
/// (constrained) local indices, zeroed by [`DirichletMask::apply`].
///
/// Only the constrained indices are stored (13,256 of 110,592 local dofs at
/// N = 7 on 6³ elements), so masking touches the boundary copies and leaves
/// the free values unread — the same bits as multiplying the whole field by
/// a dense 0/1 mask, without streaming it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DirichletMask {
    degree: usize,
    num_elements: usize,
    /// Constrained local indices, ascending.
    constrained: Vec<usize>,
}

impl DirichletMask {
    /// Build the mask for the whole boundary of a box mesh, the local nodes
    /// where [`BoxMesh::is_boundary_node`] holds, one `i`-line at a time: a
    /// line on a `y` or `z` boundary face is constrained whole, any other
    /// line only at an end on an `x` boundary face.
    #[must_use]
    pub fn from_mesh(mesh: &BoxMesh) -> Self {
        let n = mesh.degree();
        let [ex, ey, ez] = mesh.element_counts();
        let on_face = |g: usize, elements: usize| g == 0 || g == elements * n;
        let mut constrained = Vec::new();
        let mut first = 0;
        for ek in 0..ez {
            for ej in 0..ey {
                for ei in 0..ex {
                    for k in 0..=n {
                        for j in 0..=n {
                            if on_face(ej * n + j, ey) || on_face(ek * n + k, ez) {
                                constrained.extend(first..=first + n);
                            } else {
                                if ei == 0 {
                                    constrained.push(first);
                                }
                                if ei == ex - 1 {
                                    constrained.push(first + n);
                                }
                            }
                            first += n + 1;
                        }
                    }
                }
            }
        }
        Self {
            degree: n,
            num_elements: mesh.num_elements(),
            constrained,
        }
    }

    /// A mask that keeps every degree of freedom (no Dirichlet boundary), for
    /// pure-Neumann or periodic experiments.
    #[must_use]
    pub fn none(degree: usize, num_elements: usize) -> Self {
        Self {
            degree,
            num_elements,
            constrained: Vec::new(),
        }
    }

    fn num_local_dofs(&self) -> usize {
        sem_basis::dofs_per_element(self.degree) * self.num_elements
    }

    /// Apply the mask in place: boundary values are zeroed.
    ///
    /// Multiplies each constrained value by `0.0` (not a store of `0.0`), so
    /// the result is bitwise the dense `v *= m` over a 0/1 mask: the sign of
    /// a zero product and NaN from ±inf are kept, and free values are
    /// untouched exactly as `v * 1.0` leaves them.
    pub fn apply(&self, field: &mut ElementField) {
        assert_eq!(field.len(), self.num_local_dofs(), "field size mismatch");
        let data = field.as_mut_slice();
        for &l in &self.constrained {
            data[l] *= 0.0;
        }
    }

    /// Number of constrained (boundary) local degrees of freedom.
    #[must_use]
    pub fn num_constrained(&self) -> usize {
        self.constrained.len()
    }

    /// Number of free local degrees of freedom.
    #[must_use]
    pub fn num_free(&self) -> usize {
        self.num_local_dofs() - self.num_constrained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_element_mask_keeps_only_interior() {
        let mesh = BoxMesh::unit_cube(4, 1);
        let mask = DirichletMask::from_mesh(&mesh);
        // Interior points per direction: N - 1 = 3, so 27 free nodes.
        assert_eq!(mask.num_free(), 27);
        assert_eq!(mask.num_constrained(), 125 - 27);
    }

    #[test]
    fn apply_zeroes_the_boundary() {
        let mesh = BoxMesh::unit_cube(3, 2);
        let mask = DirichletMask::from_mesh(&mesh);
        let mut f = ElementField::constant(3, 8, 2.5);
        mask.apply(&mut f);
        let nx = 4;
        for e in 0..8 {
            for k in 0..nx {
                for j in 0..nx {
                    for i in 0..nx {
                        let expect = if mesh.is_boundary_node(e, i, j, k) {
                            0.0
                        } else {
                            2.5
                        };
                        assert_eq!(f.at(e, i, j, k), expect);
                    }
                }
            }
        }
    }

    #[test]
    fn line_sweep_constrains_exactly_the_boundary_nodes() {
        // One element along x puts both x faces in the same element.
        for (degree, elements) in [
            (1, [1, 1, 1]),
            (2, [1, 3, 2]),
            (3, [3, 1, 2]),
            (4, [2, 2, 1]),
        ] {
            let mesh = BoxMesh::new(degree, elements, [1.0; 3], crate::MeshDeformation::None);
            let nx = degree + 1;
            let mut expect = Vec::new();
            for e in 0..mesh.num_elements() {
                for k in 0..nx {
                    for j in 0..nx {
                        for i in 0..nx {
                            if mesh.is_boundary_node(e, i, j, k) {
                                expect.push(i + nx * (j + nx * (k + nx * e)));
                            }
                        }
                    }
                }
            }
            assert_eq!(
                DirichletMask::from_mesh(&mesh).constrained,
                expect,
                "{elements:?}"
            );
        }
    }

    #[test]
    fn none_mask_is_identity() {
        let mut f = ElementField::constant(2, 4, 3.0);
        let mask = DirichletMask::none(2, 4);
        mask.apply(&mut f);
        assert!(f.as_slice().iter().all(|&v| v == 3.0));
        assert_eq!(mask.num_constrained(), 0);
    }

    #[test]
    fn index_mask_matches_the_dense_multiply_bitwise() {
        let mesh = BoxMesh::unit_cube(3, 2);
        let mask = DirichletMask::from_mesh(&mesh);
        let special = [
            -0.0,
            0.0,
            -2.5,
            7.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1e-300,
        ];
        let mut field = ElementField::zeros(3, 8);
        let mut next = 0;
        field.fill_with(|e, i, j, k| {
            if mesh.is_boundary_node(e, i, j, k) {
                next += 1;
                special[next % special.len()]
            } else {
                (e + i) as f64 - 0.5 * (j * k) as f64
            }
        });
        let mut dense_mask = ElementField::zeros(3, 8);
        dense_mask.fill_with(|e, i, j, k| {
            if mesh.is_boundary_node(e, i, j, k) {
                0.0
            } else {
                1.0
            }
        });
        let mut dense = field.clone();
        dense.pointwise_mul(&dense_mask);
        mask.apply(&mut field);
        let bits = |f: &ElementField| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&field), bits(&dense));
        // -0.0 and negative finite values stay negative zeros; ±inf become NaN.
        assert!(field.as_slice().iter().any(|v| v.is_nan()));
        assert!(field
            .as_slice()
            .iter()
            .any(|v| *v == 0.0 && v.is_sign_negative()));
    }

    #[test]
    fn free_count_matches_interior_global_nodes_for_unit_multiplicity() {
        // For one element the free local nodes equal the interior global nodes.
        let mesh = BoxMesh::unit_cube(5, 1);
        let mask = DirichletMask::from_mesh(&mesh);
        assert_eq!(mask.num_free(), (5 - 1) * (5 - 1) * (5 - 1));
    }
}
