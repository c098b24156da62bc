//! Structured hexahedral box meshes.
//!
//! Nekbone — the proxy application the paper builds its accelerator for —
//! operates on a structured box of hexahedral spectral elements.  [`BoxMesh`]
//! reproduces that: `ex × ey × ez` elements spanning a rectangular domain,
//! each carrying `(N+1)^3` GLL nodes.  An optional smooth deformation bends
//! the elements so the general (non-diagonal) geometric factors are exercised.

use crate::field::ElementField;
use sem_basis::gauss_lobatto_legendre;
use serde::{Deserialize, Serialize};

/// Optional smooth deformation applied to the node coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MeshDeformation {
    /// Undeformed box: every element is an axis-aligned brick and the
    /// geometric factors are diagonal.
    None,
    /// A smooth sinusoidal bump that vanishes on the domain boundary.  The
    /// map stays a bijection for amplitudes well below the element size; it
    /// produces fully populated (six-component) geometric factors.
    Sinusoidal {
        /// Bump amplitude as a fraction of the shortest domain edge.
        amplitude: f64,
    },
}

/// A structured box mesh of hexahedral spectral elements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoxMesh {
    degree: usize,
    elements: [usize; 3],
    lengths: [f64; 3],
    deformation: MeshDeformation,
    /// Physical coordinates of every local GLL node, element-major.
    coords: [ElementField; 3],
}

impl BoxMesh {
    /// Build a mesh of `elements = [ex, ey, ez]` spectral elements of degree
    /// `degree` covering the box `[0, lengths[0]] × [0, lengths[1]] × [0, lengths[2]]`.
    ///
    /// # Panics
    /// Panics if any element count is zero, any length is non-positive or the
    /// degree is zero.
    #[must_use]
    pub fn new(
        degree: usize,
        elements: [usize; 3],
        lengths: [f64; 3],
        deformation: MeshDeformation,
    ) -> Self {
        assert!(degree >= 1, "polynomial degree must be at least 1");
        assert!(
            elements.iter().all(|&e| e > 0),
            "element counts must be positive"
        );
        assert!(
            lengths.iter().all(|&l| l > 0.0),
            "domain lengths must be positive"
        );
        let num_elements = elements[0] * elements[1] * elements[2];
        let gll = gauss_lobatto_legendre(degree + 1);
        let nx = degree + 1;

        let mut xs = ElementField::zeros(degree, num_elements);
        let mut ys = ElementField::zeros(degree, num_elements);
        let mut zs = ElementField::zeros(degree, num_elements);

        let h = [
            lengths[0] / elements[0] as f64,
            lengths[1] / elements[1] as f64,
            lengths[2] / elements[2] as f64,
        ];
        let min_len = lengths.iter().copied().fold(f64::INFINITY, f64::min);

        // A node's undeformed coordinate along an axis depends only on its
        // element and node index along that axis, and so does the bump's
        // sine of it: tabulate both once per axis, `line[a][ea * nx + i]`.
        let line: [Vec<f64>; 3] = std::array::from_fn(|a| {
            (0..elements[a])
                .flat_map(|ea| {
                    gll.nodes
                        .iter()
                        .map(move |&node| h[a] * (ea as f64 + 0.5 * (node + 1.0)))
                })
                .collect()
        });
        let bump = match deformation {
            MeshDeformation::None => None,
            MeshDeformation::Sinusoidal { amplitude } => {
                let sines: [Vec<f64>; 3] = std::array::from_fn(|a| {
                    line[a]
                        .iter()
                        .map(|&c| (std::f64::consts::PI * c / lengths[a]).sin())
                        .collect()
                });
                Some((amplitude * min_len, sines))
            }
        };

        for ek in 0..elements[2] {
            for ej in 0..elements[1] {
                for ei in 0..elements[0] {
                    let e = ei + elements[0] * (ej + elements[1] * ek);
                    let at = [ei, ej, ek].map(|ea| ea * nx);
                    let [xl, yl, zl] = std::array::from_fn(|a| &line[a][at[a]..][..nx]);
                    let (xe, ye, ze) = (xs.element_mut(e), ys.element_mut(e), zs.element_mut(e));
                    let mut node = 0;
                    for k in 0..nx {
                        for j in 0..nx {
                            for i in 0..nx {
                                let (x, y, z) = (xl[i], yl[j], zl[k]);
                                (xe[node], ye[node], ze[node]) = match &bump {
                                    None => (x, y, z),
                                    Some((a, [sx, sy, sz])) => {
                                        let b = a * sx[at[0] + i] * sy[at[1] + j] * sz[at[2] + k];
                                        (x + b, y + b, z - b)
                                    }
                                };
                                node += 1;
                            }
                        }
                    }
                }
            }
        }

        Self {
            degree,
            elements,
            lengths,
            deformation,
            coords: [xs, ys, zs],
        }
    }

    /// Convenience constructor: a unit cube split into `e × e × e` undeformed
    /// elements.
    #[must_use]
    pub fn unit_cube(degree: usize, elements_per_side: usize) -> Self {
        Self::new(
            degree,
            [elements_per_side; 3],
            [1.0; 3],
            MeshDeformation::None,
        )
    }

    /// Polynomial degree `N`.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of GLL points per direction, `N + 1`.
    #[must_use]
    pub fn points_per_direction(&self) -> usize {
        self.degree + 1
    }

    /// Element counts per direction.
    #[must_use]
    pub fn element_counts(&self) -> [usize; 3] {
        self.elements
    }

    /// Total number of elements.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.elements[0] * self.elements[1] * self.elements[2]
    }

    /// Total number of *local* degrees of freedom (`E (N+1)^3`), i.e. counting
    /// shared interface nodes once per adjacent element.
    #[must_use]
    pub fn num_local_dofs(&self) -> usize {
        self.num_elements() * sem_basis::dofs_per_element(self.degree)
    }

    /// Total number of *unique* (global) grid points.
    #[must_use]
    pub fn num_global_dofs(&self) -> usize {
        let n = self.degree;
        (self.elements[0] * n + 1) * (self.elements[1] * n + 1) * (self.elements[2] * n + 1)
    }

    /// Domain edge lengths.
    #[must_use]
    pub fn lengths(&self) -> [f64; 3] {
        self.lengths
    }

    /// The deformation applied to this mesh.
    #[must_use]
    pub fn deformation(&self) -> MeshDeformation {
        self.deformation
    }

    /// Physical coordinates of every local node as three element-major fields
    /// `(x, y, z)`.
    #[must_use]
    pub fn coordinates(&self) -> &[ElementField; 3] {
        &self.coords
    }

    /// Global (unique grid point) index of local node `(e, i, j, k)`.
    ///
    /// Adjacent elements share the nodes on their common face, which is what
    /// makes direct stiffness summation meaningful.
    #[must_use]
    pub fn global_node_id(&self, e: usize, i: usize, j: usize, k: usize) -> usize {
        let n = self.degree;
        let [ex, ey, _ez] = self.elements;
        let ei = e % ex;
        let ej = (e / ex) % ey;
        let ek = e / (ex * ey);
        let gi = ei * n + i;
        let gj = ej * n + j;
        let gk = ek * n + k;
        let npx = ex * n + 1;
        let npy = ey * n + 1;
        gi + npx * (gj + npy * gk)
    }

    /// Build the local-to-global index map in element-major node order:
    /// `map[l]` is [`BoxMesh::global_node_id`] of local node `l`, one
    /// contiguous `i`-line of global ids at a time.
    #[must_use]
    pub fn local_to_global(&self) -> Vec<usize> {
        let n = self.degree;
        let [ex, ey, ez] = self.elements;
        let (npx, npy) = (ex * n + 1, ey * n + 1);
        let mut map = Vec::with_capacity(self.num_local_dofs());
        for ek in 0..ez {
            for ej in 0..ey {
                for ei in 0..ex {
                    for k in 0..=n {
                        for j in 0..=n {
                            let first = ei * n + npx * (ej * n + j + npy * (ek * n + k));
                            map.extend(first..=first + n);
                        }
                    }
                }
            }
        }
        map
    }

    /// Whether local node `(e, i, j, k)` lies on the domain boundary.
    #[must_use]
    pub fn is_boundary_node(&self, e: usize, i: usize, j: usize, k: usize) -> bool {
        let n = self.degree;
        let [ex, ey, ez] = self.elements;
        let ei = e % ex;
        let ej = (e / ex) % ey;
        let ek = e / (ex * ey);
        let gi = ei * n + i;
        let gj = ej * n + j;
        let gk = ek * n + k;
        gi == 0 || gi == ex * n || gj == 0 || gj == ey * n || gk == 0 || gk == ez * n
    }

    /// Evaluate a function of physical coordinates at every local node.
    #[must_use]
    pub fn evaluate<F: Fn(f64, f64, f64) -> f64>(&self, f: F) -> ElementField {
        let mut out = ElementField::zeros(self.degree, self.num_elements());
        let nx = self.degree + 1;
        for e in 0..self.num_elements() {
            for k in 0..nx {
                for j in 0..nx {
                    for i in 0..nx {
                        let x = self.coords[0].at(e, i, j, k);
                        let y = self.coords[1].at(e, i, j, k);
                        let z = self.coords[2].at(e, i, j, k);
                        out.set(e, i, j, k, f(x, y, z));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_consistent() {
        let mesh = BoxMesh::new(3, [2, 3, 4], [1.0, 2.0, 3.0], MeshDeformation::None);
        assert_eq!(mesh.num_elements(), 24);
        assert_eq!(mesh.num_local_dofs(), 24 * 64);
        assert_eq!(mesh.num_global_dofs(), 7 * 10 * 13);
    }

    #[test]
    fn coordinates_span_the_box() {
        let mesh = BoxMesh::new(4, [2, 2, 2], [1.0, 2.0, 0.5], MeshDeformation::None);
        let [xs, ys, zs] = mesh.coordinates();
        let max_x = xs.as_slice().iter().copied().fold(f64::MIN, f64::max);
        let max_y = ys.as_slice().iter().copied().fold(f64::MIN, f64::max);
        let max_z = zs.as_slice().iter().copied().fold(f64::MIN, f64::max);
        assert!((max_x - 1.0).abs() < 1e-12);
        assert!((max_y - 2.0).abs() < 1e-12);
        assert!((max_z - 0.5).abs() < 1e-12);
        let min_x = xs.as_slice().iter().copied().fold(f64::MAX, f64::min);
        assert!(min_x.abs() < 1e-12);
    }

    #[test]
    fn shared_face_nodes_have_identical_coordinates_and_ids() {
        let mesh = BoxMesh::unit_cube(3, 2);
        let nx = mesh.points_per_direction();
        let [xs, ys, zs] = mesh.coordinates();
        // Element 0 and element 1 are adjacent in x; the i = N face of
        // element 0 coincides with the i = 0 face of element 1.
        for k in 0..nx {
            for j in 0..nx {
                assert_eq!(
                    mesh.global_node_id(0, nx - 1, j, k),
                    mesh.global_node_id(1, 0, j, k)
                );
                for (c, f) in [xs, ys, zs].iter().enumerate() {
                    let a = f.at(0, nx - 1, j, k);
                    let b = f.at(1, 0, j, k);
                    assert!((a - b).abs() < 1e-12, "coord {c} mismatch: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn global_ids_cover_range_exactly() {
        let mesh = BoxMesh::unit_cube(2, 3);
        let map = mesh.local_to_global();
        let max = *map.iter().max().unwrap();
        assert_eq!(max + 1, mesh.num_global_dofs());
        let mut seen = vec![false; mesh.num_global_dofs()];
        for &g in &map {
            seen[g] = true;
        }
        assert!(seen.iter().all(|&s| s), "every global id must be touched");
    }

    #[test]
    fn local_to_global_matches_global_node_id() {
        let mesh = BoxMesh::new(3, [2, 1, 3], [1.0; 3], MeshDeformation::None);
        let nx = mesh.points_per_direction();
        let map = mesh.local_to_global();
        let mut l = 0;
        for e in 0..mesh.num_elements() {
            for k in 0..nx {
                for j in 0..nx {
                    for i in 0..nx {
                        assert_eq!(map[l], mesh.global_node_id(e, i, j, k));
                        l += 1;
                    }
                }
            }
        }
        assert_eq!(l, map.len());
    }

    #[test]
    fn boundary_detection_matches_coordinates() {
        let mesh = BoxMesh::unit_cube(3, 2);
        let [xs, ys, zs] = mesh.coordinates();
        let nx = mesh.points_per_direction();
        for e in 0..mesh.num_elements() {
            for k in 0..nx {
                for j in 0..nx {
                    for i in 0..nx {
                        let on_boundary = mesh.is_boundary_node(e, i, j, k);
                        let x = xs.at(e, i, j, k);
                        let y = ys.at(e, i, j, k);
                        let z = zs.at(e, i, j, k);
                        let coord_boundary = x.abs() < 1e-12
                            || (x - 1.0).abs() < 1e-12
                            || y.abs() < 1e-12
                            || (y - 1.0).abs() < 1e-12
                            || z.abs() < 1e-12
                            || (z - 1.0).abs() < 1e-12;
                        assert_eq!(on_boundary, coord_boundary);
                    }
                }
            }
        }
    }

    #[test]
    fn deformation_keeps_boundary_fixed() {
        let plain = BoxMesh::new(4, [2, 2, 2], [1.0; 3], MeshDeformation::None);
        let bent = BoxMesh::new(
            4,
            [2, 2, 2],
            [1.0; 3],
            MeshDeformation::Sinusoidal { amplitude: 0.05 },
        );
        let nx = plain.points_per_direction();
        let mut interior_moved = false;
        for e in 0..plain.num_elements() {
            for k in 0..nx {
                for j in 0..nx {
                    for i in 0..nx {
                        let dx = (plain.coordinates()[0].at(e, i, j, k)
                            - bent.coordinates()[0].at(e, i, j, k))
                        .abs();
                        if plain.is_boundary_node(e, i, j, k) {
                            // The sinusoidal bump vanishes on the boundary
                            // planes in at least one factor.
                            let x = plain.coordinates()[0].at(e, i, j, k);
                            let y = plain.coordinates()[1].at(e, i, j, k);
                            let z = plain.coordinates()[2].at(e, i, j, k);
                            let sx = (std::f64::consts::PI * x).sin();
                            let sy = (std::f64::consts::PI * y).sin();
                            let sz = (std::f64::consts::PI * z).sin();
                            assert!(dx <= 0.05 * (sx * sy * sz).abs() + 1e-12);
                        } else if dx > 1e-6 {
                            interior_moved = true;
                        }
                    }
                }
            }
        }
        assert!(
            interior_moved,
            "deformation must actually move the interior"
        );
    }

    #[test]
    fn evaluate_samples_physical_coordinates() {
        let mesh = BoxMesh::unit_cube(2, 2);
        let f = mesh.evaluate(|x, y, z| x + 2.0 * y - z);
        let [xs, ys, zs] = mesh.coordinates();
        for idx in 0..f.len() {
            let expect = xs.as_slice()[idx] + 2.0 * ys.as_slice()[idx] - zs.as_slice()[idx];
            assert!((f.as_slice()[idx] - expect).abs() < 1e-13);
        }
    }

    #[test]
    #[should_panic(expected = "element counts")]
    fn zero_elements_rejected() {
        let _ = BoxMesh::new(2, [0, 1, 1], [1.0; 3], MeshDeformation::None);
    }
}
