//! Hexahedral spectral element meshes.
//!
//! This crate provides the mesh-level substrate the paper's kernel operates
//! on: element-major nodal fields, structured box meshes with (optionally
//! deformed) hexahedral elements, the six packed geometric factors `G` of the
//! local Poisson operator, the gather–scatter (direct stiffness summation)
//! operator that glues elements together, Dirichlet boundary masks, and
//! the one striped reduction order ([`lanes`]) of every local inner
//! product.
//!
//! The data layouts intentionally mirror Nekbone / the paper's Listing 1:
//!
//! * nodal fields are stored element-major (`ele * (N+1)^3 + ijk`),
//! * geometric factors are stored split into six separate planes (the layout
//!   of the optimised accelerator, Section III-B of the paper); the
//!   interleaved `gxyz[c + 6*ijk + 6*(N+1)^3*ele]` layout of the baseline
//!   kernel is built on demand for the reference kernel only.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod field;
pub mod gather_scatter;
pub mod geometry;
pub mod lanes;
pub mod mask;
pub mod mesh;

pub use field::ElementField;
pub use gather_scatter::GatherScatter;
pub use geometry::GeometricFactors;
pub use lanes::{StripedSum, LANES};
pub use mask::DirichletMask;
pub use mesh::{BoxMesh, MeshDeformation};
