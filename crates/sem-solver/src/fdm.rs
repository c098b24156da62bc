//! The fast-diagonalization (FDM) tensor-product preconditioner.
//!
//! Jacobi scaling fixes the *magnitude* spread of the operator diagonal but
//! none of the intra-element stiffness that makes spectral discretisations
//! ill-conditioned; the dominant cost of a backend-routed solve is
//! `iterations × Ax`, so the highest-leverage optimisation is algorithmic.
//! This preconditioner attacks the iteration count the way Nek5000 does,
//! with a two-level overlapping Schwarz method:
//!
//! **Fine level — element-patch fast diagonalisation.**  Each element's
//! subdomain is its closure, so neighbouring patches overlap on the shared
//! interface nodes (minimal-overlap Schwarz).  On an undeformed brick the
//! patch operator is the Kronecker sum of 1-D stiffness/mass pairs on
//! `N + 1` nodes with the interface entries assembled from both sides
//! ([`sem_basis::fdm1d`]), so its inverse is three small tensor
//! contractions each way:
//!
//! ```text
//! Â⁻¹ r = (S ⊗ S ⊗ S) diag(λˣᵢ + λʸⱼ + λᶻₖ)⁻¹ (Sᵀ ⊗ Sᵀ ⊗ Sᵀ) r
//! ```
//!
//! The patch solves are summed with the counting weight `W` (inverse patch
//! coverage, which for element-closure patches is the inverse node
//! multiplicity) on *both* sides — `Σₑ Rₑᵀ W Âₑ⁻¹ W Rₑ` — which keeps the
//! preconditioner symmetric positive definite, so plain CG applies.  The
//! assembled interface entries are what make the sum strong on element
//! faces, where unassembled block methods stall; every patch operator is
//! definite (the truncation just outside the element is a homogeneous
//! Dirichlet condition), so there is no Neumann constant mode to
//! special-case.
//!
//! **Coarse level — degree-`c` Galerkin correction.**  Patch solves cannot
//! move error that is smooth *across* many elements, so a low-degree SEM
//! space on the same element grid is added additively:
//! `M⁻¹ = M⁻¹₍ₛ₎ + P A_c⁻¹ Pᵀ` with `P` the tensor GLL interpolation
//! prolongation and `A_c = Pᵀ A P` the Galerkin coarse operator (assembled
//! once against the real SEM operator, so it is exact on deformed meshes
//! too) factored by dense Cholesky.  This is the same division of labour as
//! Nek5000's hybrid Schwarz: local tensor solves for the intra-element
//! spectrum, a coarse solve for the mesh-level modes.
//!
//! On deformed meshes the patch factors come from the undeformed element
//! extents, so the fine level is approximate there — exactly the trade
//! Nek5000 makes.  Setup (eigendecompositions, inverse eigenvalue tables,
//! coarse assembly and factorisation) allocates once;
//! [`Preconditioner::apply_into`] is allocation-free after the per-thread
//! scratch warms up, so the CG hot loop stays heap-silent.

use crate::cg::Preconditioner;
use sem_basis::{DenseMatrix, Fdm1d, Fdm1dBoundary};
use sem_kernel::fdm::{fdm_element_apply, rcontract_x, rcontract_y, rcontract_z, FdmScratch};
use sem_kernel::specialized::{ax_split, DegreeDispatch, COARSE_POINTS};
use sem_kernel::PoissonOperator;
use sem_mesh::{BoxMesh, DirichletMask, ElementField, GatherScatter};
use std::cell::RefCell;

/// Relative threshold below which an eigenvalue sum is treated as a removed
/// mode (belt and braces: with assembled interface entries every kept mode
/// is strictly positive already).
const ZERO_MODE_TOLERANCE: f64 = 1e-12;

/// Dimension of the FDM coarse space for a fine degree on an
/// `[ex, ey, ez]` element grid — the interior points of the degree-`c`
/// coarse grid, `Π_d (c·e_d − 1)` (zero when no coarse level exists).
/// Accelerator backends price the on-device coarse solve with this without
/// building the preconditioner.
#[must_use]
pub fn coarse_space_dofs(degree: usize, element_counts: [usize; 3]) -> usize {
    let c = sem_basis::fdm_coarse_degree(degree);
    if c == 0 {
        return 0;
    }
    element_counts.iter().map(|&e| c * e - 1).product()
}

/// Per-direction FDM factors of one boundary class.
#[derive(Debug, Clone)]
struct DirectionClass {
    boundary: Fdm1dBoundary,
    factors: Fdm1d,
}

/// One (x-class, y-class, z-class) combination's inverse eigenvalue table.
#[derive(Debug, Clone)]
struct ComboTable {
    class: [usize; 3],
    inv: Vec<f64>,
}

/// The coarse level: a degree-`c` SEM space on the same element grid,
/// prolongated by tensor-product GLL interpolation.  `c = 1` is the classic
/// element-vertex (Q1) space; higher degrees add edge/face/centre modes.
#[derive(Debug, Clone)]
struct CoarseCorrection {
    /// Coarse polynomial degree `c`.
    degree: usize,
    /// Coarse degrees of freedom (interior coarse grid points).
    num_dofs: usize,
    /// Per element, the coarse dof of each of its `(c+1)³` coarse nodes in
    /// element-major order (`-1`: boundary node, not a dof).
    element_dofs: Vec<Vec<i32>>,
    /// 1-D prolongation `J` (fine GLL × coarse GLL nodes), row-major, and
    /// its transpose.
    j: DenseMatrix,
    jt: DenseMatrix,
    /// Cholesky factor of the Galerkin coarse operator `Pᵀ A P`.
    factor: DenseMatrix,
    /// Degree-specialized transfer kernels, resolved once at setup when the
    /// coarse space is the degree-2 one the specialized family is generated
    /// for and the fine degree is covered.
    dispatch: Option<DegreeDispatch>,
}

impl CoarseCorrection {
    /// Coarse nodes per direction, `c + 1`.
    fn coarse_nx(&self) -> usize {
        self.degree + 1
    }

    /// Accumulate one element's share of the restriction `Pᵀ w` (where `w`
    /// is already counting-weighted) into the coarse right-hand side, using
    /// `t1`/`t2` as contraction buffers (each at least `nx³` long).
    fn restrict_element(
        &self,
        e: usize,
        weighted: &[f64],
        nx: usize,
        rhs: &mut [f64],
        t1: &mut [f64],
        t2: &mut [f64],
    ) {
        self.restrict_local(weighted, nx, t1, t2);
        for (local, &dof) in self.element_dofs[e].iter().enumerate() {
            if dof >= 0 {
                rhs[dof as usize] += t1[local];
            }
        }
    }

    /// `t1[..cnx³] = Jᵀ⊗Jᵀ⊗Jᵀ fine` (`t2` is the ping-pong buffer).
    fn restrict_local(&self, fine: &[f64], nx: usize, t1: &mut [f64], t2: &mut [f64]) {
        let jt = self.jt.as_slice();
        if let Some(dispatch) = &self.dispatch {
            dispatch.coarse_restrict(jt, fine, t1, t2);
            return;
        }
        let cnx = self.coarse_nx();
        rcontract_x(jt, cnx, nx, fine, t1, nx, nx);
        rcontract_y(jt, cnx, nx, t1, t2, cnx, nx);
        rcontract_z(jt, cnx, nx, t2, t1, cnx, cnx);
    }

    /// `out[..nx³] = J⊗J⊗J t1[..cnx³]` (`t1` is clobbered, `t2` is the
    /// ping-pong buffer; the result lands in `t2`).
    fn prolong_local<'b>(&self, t1: &'b mut [f64], t2: &'b mut [f64], nx: usize) -> &'b [f64] {
        let j = self.j.as_slice();
        if let Some(dispatch) = &self.dispatch {
            dispatch.coarse_prolong(j, t1, t2);
            return t2;
        }
        let cnx = self.coarse_nx();
        rcontract_x(j, nx, cnx, &t1[..cnx * cnx * cnx], t2, cnx, cnx);
        rcontract_y(j, nx, cnx, t2, t1, nx, cnx);
        rcontract_z(j, nx, cnx, t1, t2, nx, nx);
        t2
    }

    /// Add the prolongation `P c` of a coarse vector into one element, using
    /// `t1`/`t2` as buffers (each at least `nx³` long).
    fn prolong_element_add(
        &self,
        e: usize,
        c: &[f64],
        nx: usize,
        out: &mut [f64],
        t1: &mut [f64],
        t2: &mut [f64],
    ) {
        for (local, &dof) in self.element_dofs[e].iter().enumerate() {
            t1[local] = if dof >= 0 { c[dof as usize] } else { 0.0 };
        }
        let prolonged = self.prolong_local(t1, t2, nx);
        for (o, &v) in out.iter_mut().zip(prolonged.iter()) {
            *o += v;
        }
    }
}

/// Reusable per-thread buffers of one FDM application.
#[derive(Debug, Default)]
struct ApplyScratch {
    kernel: FdmScratch,
    /// Counting-weighted residual, full field (patch solve and coarse
    /// restriction input).
    weighted_residual: Vec<f64>,
    /// Patch solve output, `(N+1)³`.
    patch_out: Vec<f64>,
    /// Global accumulation of the weighted patch corrections.
    z_global: Vec<f64>,
    /// Coarse right-hand side / solution.
    coarse_rhs: Vec<f64>,
    /// Coarse transfer contraction buffers.
    ct1: Vec<f64>,
    ct2: Vec<f64>,
}

thread_local! {
    static APPLY_SCRATCH: RefCell<ApplyScratch> = RefCell::new(ApplyScratch::default());
}

/// The fast-diagonalization preconditioner of a box-mesh discretisation.
#[derive(Debug, Clone)]
pub struct FdmPreconditioner {
    degree: usize,
    num_elements: usize,
    /// Distinct boundary classes per direction (at most three each:
    /// low-boundary, interior, high-boundary — or one both-ends class).
    classes: [Vec<DirectionClass>; 3],
    /// Per-element combo index into `combos`.
    combo_of_element: Vec<u32>,
    /// Inverse eigenvalue-sum tables, one per distinct class combination.
    combos: Vec<ComboTable>,
    /// The counting weight `W` (inverse node multiplicity), per local node
    /// and per global node.
    weight: ElementField,
    weight_global: Vec<f64>,
    /// The coarse solve (`None` for degree-1 discretisations, whose fine
    /// patches already reach the vertex scale).
    coarse: Option<CoarseCorrection>,
    gather_scatter: GatherScatter,
    mask: DirichletMask,
    /// Modelled seconds one application costs when the backend claims the
    /// pass on-device (`None`: measure wall-clock instead).
    modeled_seconds: Option<f64>,
    /// Degree-specialized patch kernel, resolved once at setup from the
    /// patch extent `N + 1`.
    dispatch: Option<DegreeDispatch>,
}

impl FdmPreconditioner {
    /// Build the preconditioner: solve the per-direction generalized
    /// eigenproblems (once per distinct boundary class), precompute the
    /// inverse eigenvalue-sum table of every class combination and the
    /// counting weights, and assemble + factor the Galerkin coarse operator
    /// against `operator`.  All setup cost lives here; applications allocate
    /// nothing.
    #[must_use]
    pub fn new(
        mesh: &BoxMesh,
        operator: &PoissonOperator,
        gather_scatter: &GatherScatter,
        mask: &DirichletMask,
    ) -> Self {
        let degree = mesh.degree();
        let nx = degree + 1;
        let counts = mesh.element_counts();
        let lengths = mesh.lengths();

        // Per direction: the distinct boundary classes actually present.
        let mut classes: [Vec<DirectionClass>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut class_of_position: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for d in 0..3 {
            let h = lengths[d] / counts[d] as f64;
            for p in 0..counts[d] {
                let boundary = Fdm1dBoundary::of_element(p, counts[d]);
                let idx = classes[d]
                    .iter()
                    .position(|c| c.boundary == boundary)
                    .unwrap_or_else(|| {
                        classes[d].push(DirectionClass {
                            boundary,
                            factors: Fdm1d::new(degree, h, boundary),
                        });
                        classes[d].len() - 1
                    });
                class_of_position[d].push(idx);
            }
        }

        // Enumerate the class combinations elements actually use and build
        // one inverse eigenvalue-sum table per combination.
        let mut combos: Vec<ComboTable> = Vec::new();
        let mut combo_of_element = Vec::with_capacity(mesh.num_elements());
        for ek in 0..counts[2] {
            for ej in 0..counts[1] {
                for ei in 0..counts[0] {
                    let class = [
                        class_of_position[0][ei],
                        class_of_position[1][ej],
                        class_of_position[2][ek],
                    ];
                    let idx = combos
                        .iter()
                        .position(|c| c.class == class)
                        .unwrap_or_else(|| {
                            combos.push(ComboTable {
                                class,
                                inv: Self::inverse_table(
                                    nx,
                                    &classes[0][class[0]].factors.lambda,
                                    &classes[1][class[1]].factors.lambda,
                                    &classes[2][class[2]].factors.lambda,
                                ),
                            });
                            combos.len() - 1
                        });
                    combo_of_element.push(u32::try_from(idx).expect("combo count fits u32"));
                }
            }
        }

        // Patches are element closures, so the patch coverage of a grid
        // point is its multiplicity and one counting weight serves both the
        // patch sum and the coarse restriction.
        let weight = gather_scatter.inverse_multiplicity();
        let mut weight_global = vec![0.0; gather_scatter.num_global_dofs()];
        for (&w, &g) in weight
            .as_slice()
            .iter()
            .zip(gather_scatter.local_to_global())
        {
            weight_global[g] = w;
        }

        let coarse = Self::build_coarse(mesh, operator);

        Self {
            degree,
            num_elements: mesh.num_elements(),
            classes,
            combo_of_element,
            combos,
            weight,
            weight_global,
            coarse,
            gather_scatter: gather_scatter.clone(),
            mask: mask.clone(),
            modeled_seconds: None,
            dispatch: DegreeDispatch::for_points(nx),
        }
    }

    /// Pin the generic kernels for the patch solve and coarse transfer even
    /// when the degree is covered — the escape hatch parity tests and
    /// benchmarks use to compare generic against specialized.
    #[must_use]
    pub fn with_generic_kernels(mut self) -> Self {
        self.dispatch = None;
        if let Some(coarse) = &mut self.coarse {
            coarse.dispatch = None;
        }
        self
    }

    /// The same preconditioner with the given modelled per-application cost
    /// attached (used when an accelerator backend claims the FDM pass
    /// on-device and prices it with its own cycle model).
    #[must_use]
    pub fn with_modeled_seconds(mut self, seconds: f64) -> Self {
        self.modeled_seconds = Some(seconds);
        self
    }

    /// Modelled seconds of one application, when a backend attached them.
    #[must_use]
    pub fn modeled_seconds(&self) -> Option<f64> {
        self.modeled_seconds
    }

    /// Polynomial degree.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of elements.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Number of distinct per-direction eigendecompositions solved at setup.
    #[must_use]
    pub fn num_direction_classes(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Number of distinct inverse eigenvalue-sum tables.
    #[must_use]
    pub fn num_combo_tables(&self) -> usize {
        self.combos.len()
    }

    /// Dimension of the coarse space (zero when no coarse level exists).
    #[must_use]
    pub fn coarse_dofs(&self) -> usize {
        self.coarse.as_ref().map_or(0, |c| c.num_dofs)
    }

    /// `1 / (λˣᵢ + λʸⱼ + λᶻₖ)` with removed modes (infinite eigenvalues)
    /// mapped to zero.
    fn inverse_table(pnx: usize, lx: &[f64], ly: &[f64], lz: &[f64]) -> Vec<f64> {
        let max_sum = lx
            .iter()
            .chain(ly)
            .chain(lz)
            .filter(|l| l.is_finite())
            .fold(0.0_f64, |m, &l| m.max(l))
            * 3.0;
        let mut inv = Vec::with_capacity(pnx * pnx * pnx);
        for &z in lz {
            for &y in ly {
                for &x in lx {
                    let sum = x + y + z;
                    // `1/∞ = 0` silently drops removed nodes; the tolerance
                    // is a guard against rounding on near-singular sums.
                    inv.push(if sum > ZERO_MODE_TOLERANCE * max_sum {
                        1.0 / sum
                    } else {
                        0.0
                    });
                }
            }
        }
        inv
    }

    /// Assemble and factor the Galerkin coarse operator `A_c = Pᵀ A P` on
    /// the degree-`c` coarse space: one SEM operator application per coarse
    /// basis function, restricted back through the counting weight.
    /// Setup-only cost, linear in the coarse dimension times one `Ax`.
    fn build_coarse(mesh: &BoxMesh, operator: &PoissonOperator) -> Option<CoarseCorrection> {
        let coarse_degree = sem_basis::fdm_coarse_degree(mesh.degree());
        if coarse_degree == 0 {
            return None;
        }
        // The coarse grid shares the element grid; only its connectivity and
        // boundary flags matter, so the undeformed mesh is enough.
        let coarse_mesh = BoxMesh::new(
            coarse_degree,
            mesh.element_counts(),
            mesh.lengths(),
            sem_mesh::MeshDeformation::None,
        );
        let cnx = coarse_degree + 1;
        let mut dof_of_global = vec![-1_i32; coarse_mesh.num_global_dofs()];
        let mut num_dofs = 0_usize;
        let mut element_dofs = Vec::with_capacity(mesh.num_elements());
        for e in 0..coarse_mesh.num_elements() {
            let mut dofs = Vec::with_capacity(cnx * cnx * cnx);
            for k in 0..cnx {
                for j in 0..cnx {
                    for i in 0..cnx {
                        let g = coarse_mesh.global_node_id(e, i, j, k);
                        if coarse_mesh.is_boundary_node(e, i, j, k) {
                            dofs.push(-1);
                        } else {
                            if dof_of_global[g] < 0 {
                                dof_of_global[g] =
                                    i32::try_from(num_dofs).expect("coarse dof fits i32");
                                num_dofs += 1;
                            }
                            dofs.push(dof_of_global[g]);
                        }
                    }
                }
            }
            element_dofs.push(dofs);
        }
        if num_dofs == 0 {
            return None;
        }

        let j = sem_basis::degree_prolongation(coarse_degree, mesh.degree());
        let jt = j.transpose();
        // The specialized transfer kernels are generated for the degree-2
        // coarse space (3 nodes per direction) only.
        let dispatch = if cnx == COARSE_POINTS {
            DegreeDispatch::for_degree(mesh.degree())
        } else {
            None
        };
        let mut coarse = CoarseCorrection {
            degree: coarse_degree,
            num_dofs,
            element_dofs,
            j,
            jt,
            factor: DenseMatrix::zeros(0, 0),
            dispatch,
        };

        // Galerkin assembly, element by element: the coarse basis functions
        // vanish on the Dirichlet boundary and the assembled operator is the
        // sum of element contributions, so
        // `A_c[v, w] = Σₑ (J e_v)|ₑᵀ Âₑ (J e_w)|ₑ` — `(c+1)³` element-local
        // operator applications per element, O(elements) setup instead of
        // one full-mesh `Ax` per coarse dof (which is O(elements²) overall).
        let nx = mesh.degree() + 1;
        let npts = nx * nx * nx;
        let planes = operator.geometry().planes();
        let (derivative, ax_dispatch) = (operator.derivative(), operator.dispatch());
        let cpts = cnx * cnx * cnx;
        let mut a_c = DenseMatrix::zeros(num_dofs, num_dofs);
        let mut y = vec![0.0; npts];
        let (mut t1, mut t2) = (vec![0.0; npts], vec![0.0; npts]);
        for e in 0..mesh.num_elements() {
            let range = e * npts..(e + 1) * npts;
            let g = planes.map(|plane| &plane[range.clone()]);
            for w_local in 0..cpts {
                let w = coarse.element_dofs[e][w_local];
                if w < 0 {
                    continue;
                }
                t1[..cpts].iter_mut().for_each(|v| *v = 0.0);
                t1[w_local] = 1.0;
                let p_w = coarse.prolong_local(&mut t1, &mut t2, nx);
                ax_split(ax_dispatch, p_w, &mut y, g, derivative);
                coarse.restrict_local(&y, nx, &mut t1, &mut t2);
                for (v_local, &v) in coarse.element_dofs[e].iter().enumerate() {
                    if v >= 0 {
                        a_c[(v as usize, w as usize)] += t1[v_local];
                    }
                }
            }
        }
        coarse.factor = a_c
            .cholesky()
            .expect("Galerkin coarse operator is symmetric positive definite");
        Some(coarse)
    }
}

impl Preconditioner for FdmPreconditioner {
    fn seconds_per_application(&self) -> Option<f64> {
        self.modeled_seconds
    }

    // lint: alloc-free (runs once per CG iteration; scratch lives in a
    // thread-local and is resized only on shape change)
    fn apply_into(&self, r: &ElementField, z: &mut ElementField) {
        assert_eq!(r.degree(), self.degree, "residual degree mismatch");
        assert_eq!(
            r.num_elements(),
            self.num_elements,
            "residual element count mismatch"
        );
        assert_eq!(r.len(), z.len(), "output size mismatch");
        let nx = self.degree + 1;
        let npts = nx * nx * nx;
        let l2g = self.gather_scatter.local_to_global();

        APPLY_SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            if s.weighted_residual.len() != r.len() {
                s.weighted_residual.resize(r.len(), 0.0);
            }
            if s.patch_out.len() != npts {
                s.patch_out.resize(npts, 0.0);
                s.ct1.resize(npts, 0.0);
                s.ct2.resize(npts, 0.0);
            }
            if s.z_global.len() != self.weight_global.len() {
                s.z_global.resize(self.weight_global.len(), 0.0);
            }
            s.z_global.iter_mut().for_each(|v| *v = 0.0);
            if let Some(coarse) = &self.coarse {
                s.coarse_rhs.resize(coarse.num_dofs, 0.0);
                s.coarse_rhs.iter_mut().for_each(|v| *v = 0.0);
            }

            // W-weighted residual (continuous: the weight is a function of
            // the global node, the residual is continuous).
            for ((w, &rv), &wv) in s
                .weighted_residual
                .iter_mut()
                .zip(r.as_slice())
                .zip(self.weight.as_slice())
            {
                *w = rv * wv;
            }

            for e in 0..self.num_elements {
                let start = e * npts;
                let patch_in = &s.weighted_residual[start..start + npts];
                // Coarse restriction of the counting-weighted residual.
                if let Some(coarse) = &self.coarse {
                    coarse.restrict_element(
                        e,
                        patch_in,
                        nx,
                        &mut s.coarse_rhs,
                        &mut s.ct1,
                        &mut s.ct2,
                    );
                }

                // Patch tensor-product solve.
                let combo = &self.combos[self.combo_of_element[e] as usize];
                let fx = &self.classes[0][combo.class[0]].factors;
                let fy = &self.classes[1][combo.class[1]].factors;
                let fz = &self.classes[2][combo.class[2]].factors;
                if let Some(dispatch) = &self.dispatch {
                    dispatch.fdm_element_apply(
                        [fx.s.as_slice(), fy.s.as_slice(), fz.s.as_slice()],
                        [fx.st.as_slice(), fy.st.as_slice(), fz.st.as_slice()],
                        &combo.inv,
                        patch_in,
                        &mut s.patch_out,
                    );
                } else {
                    fdm_element_apply(
                        [fx.s.as_slice(), fy.s.as_slice(), fz.s.as_slice()],
                        [fx.st.as_slice(), fy.st.as_slice(), fz.st.as_slice()],
                        &combo.inv,
                        patch_in,
                        &mut s.patch_out,
                        nx,
                        &mut s.kernel,
                    );
                }

                // Scatter the weighted correction to the global grid.
                for (&g, &zv) in l2g[start..start + npts].iter().zip(&s.patch_out) {
                    s.z_global[g] += self.weight_global[g] * zv;
                }
            }

            // Broadcast the (continuous by construction) global correction
            // back to element-local storage.
            for (zv, &g) in z.as_mut_slice().iter_mut().zip(l2g) {
                *zv = s.z_global[g];
            }

            // Additive coarse correction: z += P A_c⁻¹ Pᵀ (W r).  The
            // interpolation prolongation is continuous, so the sum stays
            // continuous.
            if let Some(coarse) = &self.coarse {
                coarse.factor.cholesky_solve_in_place(&mut s.coarse_rhs);
                for e in 0..self.num_elements {
                    coarse.prolong_element_add(
                        e,
                        &s.coarse_rhs,
                        nx,
                        &mut z.as_mut_slice()[e * npts..(e + 1) * npts],
                        &mut s.ct1,
                        &mut s.ct2,
                    );
                }
            }
        });
        self.mask.apply(z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{CgOptions, CgSolver, IdentityPreconditioner};
    use crate::jacobi::JacobiPreconditioner;
    use sem_kernel::AxImplementation;
    use sem_mesh::MeshDeformation;

    fn problem(
        degree: usize,
        elems: usize,
    ) -> (BoxMesh, PoissonOperator, GatherScatter, DirichletMask) {
        let mesh = BoxMesh::unit_cube(degree, elems);
        let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        let gs = GatherScatter::from_mesh(&mesh);
        let mask = DirichletMask::from_mesh(&mesh);
        (mesh, op, gs, mask)
    }

    fn manufactured_rhs(
        mesh: &BoxMesh,
        solver: &CgSolver<'_>,
        mask: &DirichletMask,
    ) -> ElementField {
        let pi = std::f64::consts::PI;
        let mut x_exact =
            mesh.evaluate(move |x, y, z| (pi * x).sin() * (pi * y).sin() * (pi * z).sin());
        mask.apply(&mut x_exact);
        solver.apply_operator(&x_exact)
    }

    #[test]
    fn specialized_kernels_are_bitwise_identical_in_the_apply() {
        let (mesh, op, gs, mask) = problem(7, 2);
        let pre = FdmPreconditioner::new(&mesh, &op, &gs, &mask);
        assert!(pre.dispatch.is_some(), "degree 7 patches are covered");
        let pre_generic = pre.clone().with_generic_kernels();
        let pi = std::f64::consts::PI;
        let mut r = mesh.evaluate(move |x, y, z| {
            (pi * x).sin() * (2.0 * pi * y).sin() * (pi * z).cos() + 0.3 * x * y
        });
        mask.apply(&mut r);
        let mut z_spec = ElementField::zeros(7, mesh.num_elements());
        let mut z_gen = ElementField::zeros(7, mesh.num_elements());
        pre.apply_into(&r, &mut z_spec);
        pre_generic.apply_into(&r, &mut z_gen);
        assert_eq!(z_spec.as_slice(), z_gen.as_slice());
    }

    /// A right-hand side with broad spectral content — the shape of an
    /// arbitrary serving request.  The standard manufactured solution is a
    /// single Laplacian eigenfunction, which unpreconditioned CG resolves in
    /// misleadingly few iterations; preconditioner comparisons belong on
    /// generic data.
    fn generic_rhs(mesh: &BoxMesh, solver: &CgSolver<'_>, mask: &DirichletMask) -> ElementField {
        let pi = std::f64::consts::PI;
        let mut x = mesh.evaluate(move |x, y, z| {
            (pi * x).sin() * (pi * y).sin() * (pi * z).sin()
                + 0.4 * (3.0 * pi * x).sin() * (2.0 * pi * y).sin() * (pi * z).sin()
                + 0.2 * (5.0 * pi * x).sin() * (4.0 * pi * y).sin() * (3.0 * pi * z).sin()
                + 0.3 * x * (1.0 - x) * y * (1.0 - y) * z * (1.0 - z) * (7.3 * x * y).cos()
        });
        mask.apply(&mut x);
        solver.apply_operator(&x)
    }

    #[test]
    fn single_dirichlet_element_is_solved_in_one_iteration() {
        // With one element every direction is Dirichlet-restricted, so the
        // patch solve *is* the exact inverse and CG converges immediately.
        let (mesh, op, gs, mask) = problem(6, 1);
        let solver = CgSolver::new(&op, &gs, &mask, CgOptions::default());
        let rhs = manufactured_rhs(&mesh, &solver, &mask);
        let pc = FdmPreconditioner::new(&mesh, &op, &gs, &mask);
        let out = solver.solve(&rhs, &pc);
        assert!(out.converged);
        assert!(out.iterations <= 2, "iterations {}", out.iterations);
    }

    #[test]
    fn cuts_iterations_well_below_jacobi_on_generic_right_hand_sides() {
        let (mesh, op, gs, mask) = problem(7, 3);
        let options = CgOptions {
            max_iterations: 2000,
            tolerance: 1e-10,
            record_history: false,
        };
        let solver = CgSolver::new(&op, &gs, &mask, options);
        let rhs = generic_rhs(&mesh, &solver, &mask);

        let plain = solver.solve(&rhs, &IdentityPreconditioner);
        let jacobi = solver.solve(&rhs, &JacobiPreconditioner::new(&op, &gs, &mask));
        let fdm = solver.solve(&rhs, &FdmPreconditioner::new(&mesh, &op, &gs, &mask));
        assert!(plain.converged && jacobi.converged && fdm.converged);
        assert!(fdm.iterations <= jacobi.iterations);
        assert!(jacobi.iterations <= plain.iterations);
        // The acceptance bar of the bench: >= 40% fewer iterations at N = 7
        // (measured 60%+ here).
        assert!(
            (fdm.iterations as f64) <= 0.6 * jacobi.iterations as f64,
            "fdm {} vs jacobi {}",
            fdm.iterations,
            jacobi.iterations
        );
        // And the same solution.
        let mut diff = fdm.solution.clone();
        diff.axpy(-1.0, &jacobi.solution);
        assert!(diff.max_abs() < 1e-7 * (1.0 + jacobi.solution.max_abs()));
    }

    #[test]
    fn converges_to_the_manufactured_solution_like_jacobi() {
        // The standard manufactured solution is a single Laplacian
        // eigenfunction — easy for any Krylov solve — so it anchors
        // correctness here, not preconditioner strength.
        let (mesh, op, gs, mask) = problem(7, 2);
        let options = CgOptions {
            max_iterations: 2000,
            tolerance: 1e-10,
            record_history: false,
        };
        let solver = CgSolver::new(&op, &gs, &mask, options);
        let rhs = manufactured_rhs(&mesh, &solver, &mask);
        let jacobi = solver.solve(&rhs, &JacobiPreconditioner::new(&op, &gs, &mask));
        let fdm = solver.solve(&rhs, &FdmPreconditioner::new(&mesh, &op, &gs, &mask));
        assert!(jacobi.converged && fdm.converged);
        assert!(fdm.iterations <= jacobi.iterations);
        let mut diff = fdm.solution.clone();
        diff.axpy(-1.0, &jacobi.solution);
        assert!(diff.max_abs() < 1e-7 * (1.0 + jacobi.solution.max_abs()));
    }

    #[test]
    fn setup_reuses_eigendecompositions_across_elements() {
        let (mesh, op, gs, mask) = problem(5, 4);
        let pc = FdmPreconditioner::new(&mesh, &op, &gs, &mask);
        // Four elements per direction: low / interior / high classes only.
        assert_eq!(pc.num_direction_classes(), 9);
        // 3 classes per direction -> at most 27 tables for 64 elements.
        assert_eq!(pc.num_combo_tables(), 27);
        assert_eq!(pc.num_elements(), 64);
        // Degree-2 coarse grid: (2·4 − 1)³ interior points.
        assert_eq!(pc.coarse_dofs(), 343);
    }

    #[test]
    fn still_preconditions_deformed_meshes() {
        // The patch factors come from the undeformed extents, so the fine
        // level is inexact here (the Galerkin coarse level stays exact) —
        // FDM must still converge to the right answer and beat identity CG.
        let mesh = BoxMesh::new(
            5,
            [2, 2, 2],
            [1.0; 3],
            MeshDeformation::Sinusoidal { amplitude: 0.04 },
        );
        let op = PoissonOperator::new(&mesh, AxImplementation::Specialized);
        let gs = GatherScatter::from_mesh(&mesh);
        let mask = DirichletMask::from_mesh(&mesh);
        let options = CgOptions {
            max_iterations: 2000,
            tolerance: 1e-10,
            record_history: false,
        };
        let solver = CgSolver::new(&op, &gs, &mask, options);
        let rhs = manufactured_rhs(&mesh, &solver, &mask);
        let plain = solver.solve(&rhs, &IdentityPreconditioner);
        let fdm = solver.solve(&rhs, &FdmPreconditioner::new(&mesh, &op, &gs, &mask));
        assert!(plain.converged && fdm.converged);
        assert!(fdm.iterations < plain.iterations);
        let mut diff = fdm.solution.clone();
        diff.axpy(-1.0, &plain.solution);
        assert!(diff.max_abs() < 1e-7 * (1.0 + plain.solution.max_abs()));
    }

    #[test]
    fn apply_is_symmetric_in_the_weighted_inner_product() {
        // CG requires M⁻¹ symmetric w.r.t. the multiplicity-weighted inner
        // product; the both-sides overlap weight and the Galerkin coarse
        // term guarantee it.
        let (mesh, op, gs, mask) = problem(4, 3);
        let pc = FdmPreconditioner::new(&mesh, &op, &gs, &mask);
        let solver = CgSolver::new(&op, &gs, &mask, CgOptions::default());
        let mut a = mesh.evaluate(|x, y, z| (3.1 * x).sin() + y * y - z);
        let mut b = mesh.evaluate(|x, y, z| x * y + (2.0 * z).cos());
        // Symmetry holds on continuous masked fields (the solver only ever
        // feeds it those).
        gs.direct_stiffness_sum(&mut a);
        gs.direct_stiffness_sum(&mut b);
        mask.apply(&mut a);
        mask.apply(&mut b);
        let za = pc.apply(&a);
        let zb = pc.apply(&b);
        let left = solver.inner_product(&a, &zb);
        let right = solver.inner_product(&b, &za);
        assert!(
            (left - right).abs() < 1e-10 * (1.0 + left.abs()),
            "{left} vs {right}"
        );
    }

    #[test]
    fn correction_is_continuous_and_masked() {
        let (mesh, op, gs, mask) = problem(3, 3);
        let pc = FdmPreconditioner::new(&mesh, &op, &gs, &mask);
        let mut r = mesh.evaluate(|x, y, z| x * (1.3 - y) + z * z);
        gs.direct_stiffness_sum(&mut r);
        mask.apply(&mut r);
        let z = pc.apply(&r);
        assert!(gs.is_continuous(&z, 1e-10));
        let mut masked = z.clone();
        mask.apply(&mut masked);
        let mut diff = masked;
        diff.axpy(-1.0, &z);
        assert!(diff.max_abs() == 0.0, "boundary values must stay zero");
    }

    #[test]
    fn modeled_seconds_are_attached_not_invented() {
        let (mesh, op, gs, mask) = problem(3, 2);
        let pc = FdmPreconditioner::new(&mesh, &op, &gs, &mask);
        assert_eq!(pc.modeled_seconds(), None);
        let priced = pc.with_modeled_seconds(1.5e-4);
        assert_eq!(priced.modeled_seconds(), Some(1.5e-4));
    }
}
