//! Matrix-free finite-element linear-elastic solver (paper §VI-C).
//!
//! The benchmark of the paper's Fig. 9: a solid body discretized with H8
//! elements on a uniform node grid, Dirichlet conditions fixing
//! displacements at the `z = 0` plane and a downward surface load on the
//! `z = N−1` plane, solved with matrix-free CG over a 27-point stencil.
//!
//! The operator never assembles a global matrix: each node contracts the
//! element stiffness blocks of the (up to 8) surrounding elements that
//! actually exist — decided per cell from neighbour activity, so the same
//! kernel is correct on the dense grid, at domain boundaries, and on any
//! element-sparse active set.

use std::sync::Arc;

use neon_core::OccLevel;
use neon_domain::{
    Cell, Container, Field, FieldRead as _, FieldStencil as _, FieldWrite as _, GridLike, KernelFn,
    KernelShape, MemLayout,
};
use neon_sys::Result;

use super::hex8::{element_node_slot, element_stiffness, interior_node_blocks, Material};
use crate::cg::{CgSolver, CgState};

/// FLOPs per node of the matrix-free apply with precomputed node-coupling
/// blocks (27 slots × 3×3 MACs plus presence checks) — the fast path that
/// covers every interior node.
pub const FEM_FLOPS_PER_CELL: u64 = 500;

/// Achieved-bandwidth fraction of the Neon FEM stencil kernel.
pub const NEON_FEM_EFFICIENCY: f64 = 0.96;

/// Build the matrix-free `Ap ← K·p` container.
///
/// Assumes the grid registered [`neon_domain::Stencil::twenty_seven_point`]
/// (so stencil slots follow the `(dx+1) + 3(dy+1) + 9(dz+1)` order).
pub fn elasticity_apply<G: GridLike>(
    grid: &G,
    state: &CgState<G>,
    material: Material,
) -> Container {
    let ke = Arc::new(element_stiffness(material));
    // Interior fast path: when all 8 surrounding elements exist, the
    // operator row collapses to the precomputed 27 node-coupling blocks
    // (identical by construction — `interior_node_blocks` sums the same
    // element contributions).
    let blocks = Arc::new(interior_node_blocks(material));
    // slot_table[ei][l]: stencil slot of element ei's local node l.
    let mut slot_table = [[0usize; 8]; 8];
    for (ei, row) in slot_table.iter_mut().enumerate() {
        for (l, s) in row.iter_mut().enumerate() {
            *s = element_node_slot(ei, l);
        }
    }
    let (p, ap) = (state.p.clone(), state.ap.clone());
    // A Generic span kernel: the per-node body inlines into the loop over
    // `span.cells()`, and on the dense grid's interior spans the 26
    // `ngh_active` tests of the fast path fold to `true`.
    Container::compute_shaped_opts(
        "ElasticApply",
        grid.as_space(),
        KernelShape::Generic,
        move |ldr| {
            let pv = ldr.read_stencil(&p);
            let av = ldr.write(&ap);
            let ke = ke.clone();
            let blocks = blocks.clone();
            let per_node = move |c: Cell| {
                // Dirichlet plane: identity rows keep fixed dofs pinned.
                if c.z == 0 {
                    for k in 0..3 {
                        av.set(c, k, pv.at(c, k));
                    }
                    return;
                }
                // Fast path: all 27 neighbours active ⇒ all 8 elements
                // exist ⇒ use the precomputed blocks.
                let mut all_active = true;
                for s in 0..27 {
                    if s != 13 && !pv.ngh_active(c, s) {
                        all_active = false;
                        break;
                    }
                }
                if all_active {
                    let mut acc = [0.0f64; 3];
                    for (s, block) in blocks.iter().enumerate() {
                        let (u0, u1, u2) = if s == 13 {
                            (pv.at(c, 0), pv.at(c, 1), pv.at(c, 2))
                        } else {
                            (pv.ngh(c, s, 0), pv.ngh(c, s, 1), pv.ngh(c, s, 2))
                        };
                        for k in 0..3 {
                            acc[k] += block[k][0] * u0 + block[k][1] * u1 + block[k][2] * u2;
                        }
                    }
                    for k in 0..3 {
                        av.set(c, k, acc[k]);
                    }
                    return;
                }
                let mut acc = [0.0f64; 3];
                for ei in 0..8 {
                    // The element exists iff all 8 of its corner nodes are
                    // active grid cells (handles domain boundaries and
                    // sparse masks uniformly).
                    let slots = &slot_table[ei];
                    let mut present = true;
                    for &s in slots.iter() {
                        if s != 13 && !pv.ngh_active(c, s) {
                            present = false;
                            break;
                        }
                    }
                    if !present {
                        continue;
                    }
                    // Local index of the centre node within this element:
                    // element origin offset is local(ei) − 1, and the
                    // centre sits at −origin.
                    let a = 7 - ei;
                    for (l, &s) in slots.iter().enumerate() {
                        let (u0, u1, u2) = if s == 13 {
                            (pv.at(c, 0), pv.at(c, 1), pv.at(c, 2))
                        } else {
                            (pv.ngh(c, s, 0), pv.ngh(c, s, 1), pv.ngh(c, s, 2))
                        };
                        for k in 0..3 {
                            let row = &ke[3 * a + k];
                            acc[k] += row[3 * l] * u0 + row[3 * l + 1] * u1 + row[3 * l + 2] * u2;
                        }
                    }
                }
                for k in 0..3 {
                    av.set(c, k, acc[k]);
                }
            };
            KernelFn::spans(move |span| span.cells().for_each(&per_node))
        },
        FEM_FLOPS_PER_CELL,
        NEON_FEM_EFFICIENCY,
    )
}

/// The linear-elasticity application: CG over the matrix-free operator.
pub struct ElasticitySolver<G: GridLike> {
    /// The CG machinery (state fields `x` hold the displacements).
    pub cg: CgSolver<G>,
    material: Material,
}

impl<G: GridLike> ElasticitySolver<G> {
    /// Build the solver on `grid` (27-point stencil registered) with the
    /// chosen OCC level and memory layout.
    pub fn new(grid: &G, material: Material, layout: MemLayout, occ: OccLevel) -> Result<Self> {
        let cg = CgSolver::new(grid, 3, layout, occ, |state| {
            elasticity_apply(grid, state, material)
        })?;
        Ok(ElasticitySolver { cg, material })
    }

    /// Build the solver with full skeleton options (OCC level, collective
    /// mode for the dot-product all-reduces, tracing, …).
    pub fn with_options(
        grid: &G,
        material: Material,
        layout: MemLayout,
        options: neon_core::SkeletonOptions,
    ) -> Result<Self> {
        let cg = CgSolver::with_options(grid, 3, layout, options, |state| {
            elasticity_apply(grid, state, material)
        })?;
        Ok(ElasticitySolver { cg, material })
    }

    /// Apply the paper's load case: fixed `z = 0` plane (implicit in the
    /// operator) and an outward (−z here: compressive) pressure on the
    /// `z = zmax` plane of the active domain, then initialize CG.
    pub fn set_pressure_load(&mut self, pressure: f64) {
        let zmax = (self.cg.state.b.grid().dim().z - 1) as i32;
        self.cg.state.b.fill(
            move |_, _, z, k| {
                if k == 2 && z == zmax {
                    -pressure
                } else {
                    0.0
                }
            },
        );
        self.cg.init();
    }

    /// Run `n` CG iterations.
    pub fn solve_iters(&mut self, n: usize) -> neon_core::ExecReport {
        self.cg.iterate(n)
    }

    /// Residual norm.
    pub fn residual(&self) -> f64 {
        self.cg.residual()
    }

    /// The displacement field.
    pub fn displacements(&self) -> &Field<f64, G> {
        &self.cg.state.x
    }

    /// The material.
    pub fn material(&self) -> Material {
        self.material
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_domain::{DenseGrid, Dim3, SparseGrid, Stencil, StorageMode};
    use neon_sys::Backend;

    fn dense_grid(n_dev: usize, n: usize) -> DenseGrid {
        let b = Backend::dgx_a100(n_dev);
        let st = Stencil::twenty_seven_point();
        DenseGrid::new(&b, Dim3::cube(n), &[&st], StorageMode::Real).unwrap()
    }

    /// K applied to a rigid translation must vanish at every *free* node
    /// whose neighbourhood is free too (no Dirichlet coupling).
    #[test]
    fn operator_annihilates_translation_in_interior() {
        let g = dense_grid(1, 6);
        let mut solver =
            ElasticitySolver::new(&g, Material::default(), MemLayout::SoA, OccLevel::None).unwrap();
        // p ← constant translation; run one apply via the CG iteration
        // plumbing: set b = translation, init (r=b), iterate once: the
        // first UpdateP makes p = r = translation, then Ap = K·p.
        solver
            .cg
            .state
            .b
            .fill(|_, _, _, k| if k == 0 { 1.0 } else { 0.0 });
        solver.cg.init();
        solver.cg.iterate(1);
        // Interior nodes with z ≥ 2 (no Dirichlet neighbour): K·1 = 0.
        solver.cg.state.ap.for_each(|x, y, z, k, v| {
            let interior = x >= 1 && y >= 1 && z >= 2 && x <= 4 && y <= 4 && z <= 4;
            if interior {
                assert!(
                    v.abs() < 1e-10,
                    "K·translation ≠ 0 at ({x},{y},{z})[{k}]: {v}"
                );
            }
        });
    }

    #[test]
    fn pressure_load_compresses_the_column() {
        let g = dense_grid(2, 6);
        let mut solver =
            ElasticitySolver::new(&g, Material::default(), MemLayout::SoA, OccLevel::Standard)
                .unwrap();
        solver.set_pressure_load(0.001);
        solver.solve_iters(150);
        // Top plane moved down (negative z displacement), bottom fixed.
        let top = solver.displacements().get(3, 3, 5, 2).unwrap();
        let bottom = solver.displacements().get(3, 3, 0, 2).unwrap();
        assert!(top < -1e-6, "top did not compress: {top}");
        assert_eq!(bottom, 0.0, "Dirichlet plane moved");
        // Displacement magnitude decreases towards the support.
        let mid = solver.displacements().get(3, 3, 2, 2).unwrap();
        assert!(top < mid && mid < 0.0, "profile not monotone: {top} {mid}");
    }

    #[test]
    fn cg_reduces_residual() {
        let g = dense_grid(2, 6);
        let mut solver = ElasticitySolver::new(
            &g,
            Material::default(),
            MemLayout::SoA,
            OccLevel::TwoWayExtended,
        )
        .unwrap();
        solver.set_pressure_load(0.01);
        solver.solve_iters(1);
        let r0 = solver.residual();
        solver.solve_iters(120);
        let r = solver.residual();
        assert!(r < r0 * 1e-3, "poor convergence: {r0} → {r}");
    }

    #[test]
    fn dense_and_sparse_full_domain_agree() {
        let n = 6;
        let bk = Backend::dgx_a100(2);
        let st = Stencil::twenty_seven_point();
        let dim = Dim3::cube(n);
        let dg = DenseGrid::new(&bk, dim, &[&st], StorageMode::Real).unwrap();
        let sg = SparseGrid::new(&bk, dim, &[&st], |_, _, _| true, StorageMode::Real).unwrap();
        let mut ds =
            ElasticitySolver::new(&dg, Material::default(), MemLayout::SoA, OccLevel::Standard)
                .unwrap();
        let mut ss =
            ElasticitySolver::new(&sg, Material::default(), MemLayout::SoA, OccLevel::Standard)
                .unwrap();
        ds.set_pressure_load(0.005);
        ss.set_pressure_load(0.005);
        ds.solve_iters(60);
        ss.solve_iters(60);
        ds.displacements().for_each(|x, y, z, k, v| {
            let s = ss.displacements().get(x, y, z, k).unwrap();
            assert!(
                (v - s).abs() < 1e-9,
                "dense/sparse diverge at ({x},{y},{z})[{k}]: {v} vs {s}"
            );
        });
    }

    #[test]
    fn sparse_subdomain_solves() {
        // A 6×6 column inside an 8×8×8 box.
        let bk = Backend::dgx_a100(2);
        let st = Stencil::twenty_seven_point();
        let dim = Dim3::cube(8);
        let sg = SparseGrid::new(
            &bk,
            dim,
            &[&st],
            |x, y, _| (1..7).contains(&x) && (1..7).contains(&y),
            StorageMode::Real,
        )
        .unwrap();
        let mut s =
            ElasticitySolver::new(&sg, Material::default(), MemLayout::AoS, OccLevel::Extended)
                .unwrap();
        s.set_pressure_load(0.002);
        s.solve_iters(120);
        let top = s.displacements().get(3, 3, 7, 2).unwrap();
        assert!(top < -1e-7, "sparse column did not compress: {top}");
        // Outside the mask there is nothing.
        assert!(s.displacements().get(0, 0, 4, 2).is_none());
    }

    #[test]
    fn aos_and_soa_agree() {
        let g = dense_grid(2, 6);
        let run = |layout: MemLayout| {
            let mut s =
                ElasticitySolver::new(&g, Material::default(), layout, OccLevel::Standard).unwrap();
            s.set_pressure_load(0.004);
            s.solve_iters(50);
            let mut out = Vec::new();
            s.displacements().for_each(|_, _, _, _, v| out.push(v));
            out
        };
        let a = run(MemLayout::SoA);
        let b = run(MemLayout::AoS);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
