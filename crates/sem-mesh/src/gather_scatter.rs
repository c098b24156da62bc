//! Gather–scatter (direct stiffness summation).
//!
//! SEM solvers keep fields in element-local storage and enforce continuity by
//! summing the values of shared interface nodes after each operator
//! application — the `QQᵀ` ("dssum") operation.  The paper lists this
//! gather–scatter phase as one of the candidate phases around the core kernel;
//! here it is needed so the conjugate-gradient proxy (Nekbone) is complete.

use crate::field::ElementField;
use crate::mesh::BoxMesh;
use std::sync::OnceLock;

/// The gather–scatter operator of a mesh.
#[derive(Debug, Clone)]
pub struct GatherScatter {
    degree: usize,
    num_elements: usize,
    /// Local (element-major) index → global unique grid point.
    local_to_global: Vec<usize>,
    num_global: usize,
    /// How many local copies each *local* node has (its global multiplicity).
    multiplicity: Vec<f64>,
    /// `1 / multiplicity`, the counting weight of a global inner product,
    /// built on first use and kept: built in `from_mesh`, its fresh pages
    /// would fault inside every session build.
    inverse_multiplicity: OnceLock<ElementField>,
    /// The local copies of every global node with more than one copy,
    /// bucketed by copy count `m` (ascending: 2, 4 and 8 on a box mesh).
    /// Single-copy nodes (element interiors) need no summation and are left
    /// out.
    shared: Vec<SharedBucket>,
}

/// The shared global nodes with exactly `copies` local copies.
#[derive(Debug, Clone)]
struct SharedBucket {
    /// Local copies per node, `m >= 2`.
    copies: usize,
    /// `m` local indices per node, ascending within a node; nodes in
    /// ascending global order.
    locals: Vec<usize>,
}

impl GatherScatter {
    /// Build the operator for a box mesh.
    #[must_use]
    pub fn from_mesh(mesh: &BoxMesh) -> Self {
        let local_to_global = mesh.local_to_global();
        let num_global = mesh.num_global_dofs();
        let mut counts = vec![0_usize; num_global];
        for &g in &local_to_global {
            counts[g] += 1;
        }
        let multiplicity: Vec<f64> = local_to_global.iter().map(|&g| counts[g] as f64).collect();

        // Invert local→global over the shared global nodes only, bucketed
        // by copy count, so dssum is one gather-accumulate-scatter sweep per
        // bucket that never visits an unshared node and needs no global work
        // vector.  `locals[m]` is the bucket of the nodes with `m` copies;
        // `counts[g]` turns into where the next copy of shared node `g` goes
        // in its bucket.
        let max_copies = counts.iter().copied().max().unwrap_or(0);
        let mut totals = vec![0_usize; max_copies + 1];
        let mut next = counts;
        for slot in &mut next {
            let copies = *slot;
            if copies > 1 {
                *slot = totals[copies];
                totals[copies] += copies;
            }
        }
        let mut locals: Vec<Vec<usize>> = totals.iter().map(|&total| vec![0; total]).collect();
        // Filling in ascending local order keeps each node's copies sorted,
        // so the sweep accumulates in the same order as scatter-add then
        // gather (bitwise-identical sums).
        for (l, (&g, &copies)) in local_to_global.iter().zip(&multiplicity).enumerate() {
            let copies = copies as usize;
            if copies > 1 {
                locals[copies][next[g]] = l;
                next[g] += 1;
            }
        }
        let shared = locals
            .into_iter()
            .enumerate()
            .filter(|(copies, locals)| *copies > 1 && !locals.is_empty())
            .map(|(copies, locals)| SharedBucket { copies, locals })
            .collect();

        Self {
            degree: mesh.degree(),
            num_elements: mesh.num_elements(),
            local_to_global,
            num_global,
            multiplicity,
            inverse_multiplicity: OnceLock::new(),
            shared,
        }
    }

    /// Number of unique global grid points.
    #[must_use]
    pub fn num_global_dofs(&self) -> usize {
        self.num_global
    }

    /// Number of local degrees of freedom.
    #[must_use]
    pub fn num_local_dofs(&self) -> usize {
        self.local_to_global.len()
    }

    /// The local-to-global map.
    #[must_use]
    pub fn local_to_global(&self) -> &[usize] {
        &self.local_to_global
    }

    /// Scatter-add local values into a global vector (`Qᵀ`):
    /// `global[g] = Σ_{local l : map(l) = g} local[l]`.
    #[must_use]
    pub fn scatter_add(&self, local: &ElementField) -> Vec<f64> {
        assert_eq!(local.len(), self.num_local_dofs(), "field size mismatch");
        let mut global = vec![0.0_f64; self.num_global];
        for (l, &g) in self.local_to_global.iter().enumerate() {
            global[g] += local.as_slice()[l];
        }
        global
    }

    /// Gather global values back to local storage (`Q`).
    #[must_use]
    pub fn gather(&self, global: &[f64]) -> ElementField {
        assert_eq!(global.len(), self.num_global, "global size mismatch");
        let mut local = ElementField::zeros(self.degree, self.num_elements);
        for (l, &g) in self.local_to_global.iter().enumerate() {
            local.as_mut_slice()[l] = global[g];
        }
        local
    }

    /// Direct stiffness summation `QQᵀ`: sum shared nodes and write the sum
    /// back to every copy.  This is the "dssum" of Nek5000/Nekbone.
    ///
    /// Runs one sweep per copy-count bucket of the *shared* global nodes —
    /// gather each node's `m` copies, sum them from `0.0` in ascending local
    /// order, scatter the sum back — with no intermediate global vector, so
    /// a CG iteration performs no heap allocation here.  Within a bucket
    /// every node has the same `m`, so the loop over nodes is one
    /// `chunks_exact(m)` with a predictable inner trip count.  Unshared
    /// nodes (element interiors) already hold their sum and are never
    /// visited.  Bitwise identical to `gather(&scatter_add(field))`.
    pub fn direct_stiffness_sum(&self, field: &mut ElementField) {
        assert_eq!(field.len(), self.num_local_dofs(), "field size mismatch");
        let data = field.as_mut_slice();
        for bucket in &self.shared {
            // A constant copy count lets each node's gather and scatter
            // unroll; a box mesh has only these three.
            match bucket.copies {
                2 => sum_shared_nodes(data, &bucket.locals, 2),
                4 => sum_shared_nodes(data, &bucket.locals, 4),
                8 => sum_shared_nodes(data, &bucket.locals, 8),
                copies => sum_shared_nodes(data, &bucket.locals, copies),
            }
        }
    }

    /// The multiplicity of every local node (how many elements share it).
    #[must_use]
    pub fn multiplicity(&self) -> &[f64] {
        &self.multiplicity
    }

    /// A field of `1 / multiplicity`, used to weight local dot products so
    /// that every unique grid point is counted exactly once (the `vmult` of
    /// Nekbone).  Computed once, on the first call.
    #[must_use]
    pub fn inverse_multiplicity(&self) -> &ElementField {
        self.inverse_multiplicity.get_or_init(|| {
            let data = self.multiplicity.iter().map(|&m| 1.0 / m).collect();
            ElementField::from_vec(self.degree, self.num_elements, data)
        })
    }

    /// Whether a local field is continuous (all copies of each global node
    /// agree within `tol`).
    #[must_use]
    pub fn is_continuous(&self, field: &ElementField, tol: f64) -> bool {
        let mut seen: Vec<Option<f64>> = vec![None; self.num_global];
        for (l, &g) in self.local_to_global.iter().enumerate() {
            let v = field.as_slice()[l];
            match seen[g] {
                None => seen[g] = Some(v),
                Some(prev) => {
                    if (prev - v).abs() > tol * (1.0 + prev.abs()) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Sum each node's `copies` local values (`locals` holds `copies` indices
/// per node) from `0.0` in ascending local order and write the sum back to
/// every copy.
#[inline(always)]
fn sum_shared_nodes(data: &mut [f64], locals: &[usize], copies: usize) {
    for node in locals.chunks_exact(copies) {
        let mut sum = 0.0;
        for &l in node {
            sum += data[l];
        }
        for &l in node {
            data[l] = sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshDeformation;

    fn setup(degree: usize, e: usize) -> (BoxMesh, GatherScatter) {
        let mesh = BoxMesh::unit_cube(degree, e);
        let gs = GatherScatter::from_mesh(&mesh);
        (mesh, gs)
    }

    #[test]
    fn multiplicity_partition_of_unity() {
        // Summing 1/multiplicity over local nodes counts each global node once.
        let (mesh, gs) = setup(3, 3);
        let inv = gs.inverse_multiplicity();
        let total: f64 = inv.as_slice().iter().sum();
        assert!((total - mesh.num_global_dofs() as f64).abs() < 1e-9);
    }

    #[test]
    fn dssum_of_ones_gives_multiplicity() {
        let (_, gs) = setup(2, 2);
        let mut ones = ElementField::constant(2, 8, 1.0);
        gs.direct_stiffness_sum(&mut ones);
        for (l, &v) in ones.as_slice().iter().enumerate() {
            assert!((v - gs.multiplicity()[l]).abs() < 1e-13);
        }
    }

    #[test]
    fn dssum_is_idempotent_on_continuous_fields() {
        // Applying QQ^T to Q(global) multiplies by multiplicity; but applying
        // gather(scatter_add) twice after averaging is stable.  Check the
        // stronger, correct property: gather of a global vector is continuous
        // and dssum preserves continuity.
        let (mesh, gs) = setup(3, 2);
        let global: Vec<f64> = (0..gs.num_global_dofs())
            .map(|i| (i as f64).sin())
            .collect();
        let local = gs.gather(&global);
        assert!(gs.is_continuous(&local, 1e-14));
        let mut summed = local.clone();
        gs.direct_stiffness_sum(&mut summed);
        assert!(gs.is_continuous(&summed, 1e-14));
        assert_eq!(mesh.num_local_dofs(), local.len());
    }

    #[test]
    fn scatter_then_gather_scales_by_multiplicity_on_shared_nodes() {
        let (_, gs) = setup(2, 2);
        let local = ElementField::constant(2, 8, 1.0);
        let global = gs.scatter_add(&local);
        let back = gs.gather(&global);
        for (l, &v) in back.as_slice().iter().enumerate() {
            assert!((v - gs.multiplicity()[l]).abs() < 1e-13);
        }
    }

    #[test]
    fn bucketed_dssum_matches_the_legacy_global_vector_path_bitwise() {
        let deformed = BoxMesh::new(
            4,
            [2, 3, 2],
            [1.0, 1.2, 0.9],
            MeshDeformation::Sinusoidal { amplitude: 0.05 },
        );
        let meshes = [(2, 2), (3, 3), (5, 2)]
            .map(|(degree, elems)| BoxMesh::unit_cube(degree, elems))
            .into_iter()
            .chain([deformed]);
        for mesh in meshes {
            let gs = GatherScatter::from_mesh(&mesh);
            let (degree, elems) = (mesh.degree(), mesh.num_elements());
            let mut field = ElementField::zeros(degree, elems);
            let mut state = 0x9e37_79b9_u64;
            field.fill_with(|_, _, _, _| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
            });
            let legacy = gs.gather(&gs.scatter_add(&field));
            let mut bucketed = field;
            gs.direct_stiffness_sum(&mut bucketed);
            let bits =
                |f: &ElementField| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&bucketed),
                bits(&legacy),
                "bucketed sweep must be bitwise identical at degree {degree}, {elems} elements"
            );
        }
    }

    #[test]
    fn continuity_detects_discontinuous_fields() {
        let (_, gs) = setup(2, 2);
        let mut field = ElementField::constant(2, 8, 1.0);
        // Perturb a single copy of a shared node (corner of element 0).
        let nx = 3;
        field.set(0, nx - 1, nx - 1, nx - 1, 5.0);
        assert!(!gs.is_continuous(&field, 1e-12));
    }

    #[test]
    fn interior_nodes_have_multiplicity_one() {
        let (mesh, gs) = setup(4, 2);
        let nx = mesh.points_per_direction();
        // A strictly interior node of element 0 (offset zero) is not shared.
        let l = 2 + nx * (2 + nx * 2);
        assert_eq!(gs.multiplicity()[l], 1.0);
    }

    #[test]
    fn corner_shared_by_eight_elements() {
        let (mesh, gs) = setup(2, 2);
        let nx = mesh.points_per_direction();
        // The last corner of element 0 is the centre of the 2x2x2 element
        // grid, shared by all 8 elements.
        let l = (nx - 1) + nx * ((nx - 1) + nx * (nx - 1));
        assert_eq!(gs.multiplicity()[l], 8.0);
    }

    #[test]
    fn works_on_deformed_meshes_too() {
        let mesh = BoxMesh::new(
            3,
            [2, 2, 2],
            [1.0; 3],
            MeshDeformation::Sinusoidal { amplitude: 0.05 },
        );
        let gs = GatherScatter::from_mesh(&mesh);
        // Node coordinates of shared nodes agree, so gathering the x
        // coordinate from a global vector reproduces the local x coordinates.
        let xs = &mesh.coordinates()[0];
        let global = gs.scatter_add(xs);
        let inv_mult = gs.inverse_multiplicity();
        let mut averaged = gs.gather(&global);
        // averaged currently holds the sum; divide by multiplicity to recover x.
        averaged.pointwise_mul(inv_mult);
        for (a, b) in averaged.as_slice().iter().zip(xs.as_slice()) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}
