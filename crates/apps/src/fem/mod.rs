//! Finite-element linear elasticity (paper §VI-C, Fig. 9).
//!
//! * [`hex8`] — the H8 trilinear element: stiffness matrix via Gauss
//!   quadrature, interior node-coupling blocks, slot geometry.
//! * [`solver`] — the matrix-free 27-point CG solver over dense or
//!   element-sparse grids.

pub mod hex8;
pub mod solver;

pub use hex8::{element_stiffness, interior_node_blocks, Material};
pub use solver::{
    elasticity_apply, elasticity_apply_per_cell, ElasticitySolver, FEM_FLOPS_PER_CELL,
    NEON_FEM_EFFICIENCY,
};
