//! Property test of the FEM operator's row path: `elasticity_apply`,
//! which runs interior spans over neighbour rows (SoA) or neighbour blocks
//! (AoS), is bit-identical to the same per-node body run cell by cell
//! through `KernelFn::PerCell` (`elasticity_apply_per_cell`) — on the
//! dense grid, on sparse grids with random holes, and on a full-mask
//! sparse grid; under AoS and SoA; on 1–4 devices; at every OCC level.
//! The comparison is a short CG solve, so the operator runs inside the
//! halo exchanges and internal/boundary launches the OCC level creates.

use neon_apps::cg::{CgSolver, CgState};
use neon_apps::fem::{elasticity_apply, elasticity_apply_per_cell, Material};
use neon_core::OccLevel;
use neon_domain::{
    Container, DenseGrid, Dim3, GridLike, MemLayout, SparseGrid, Stencil, StorageMode,
};
use neon_sys::Backend;
use proptest::prelude::*;

/// 16 z-layers: four devices still get partitions several layers thick
/// under any of the masks below.
const DIM: Dim3 = Dim3::new(7, 6, 16);

/// An axis-aligned box of removed cells.
type Hole = ((i32, i32), (i32, i32), (i32, i32));

#[derive(Debug, Clone)]
enum GridCase {
    Dense,
    /// The box minus a few random boxes: rows break into runs, and the
    /// interior bit flips along them and along z.
    SparseHoles(Vec<Hole>),
    /// Every cell active: the sparse grid's runs are the dense grid's rows.
    SparseFull,
}

fn holes() -> impl Strategy<Value = Vec<Hole>> {
    let hole = (0i32..7, 1i32..4, 0i32..6, 1i32..4, 0i32..16, 1i32..6)
        .prop_map(|(x, dx, y, dy, z, dz)| ((x, x + dx), (y, y + dy), (z, z + dz)));
    prop::collection::vec(hole, 1..4)
}

fn grid_cases() -> impl Strategy<Value = GridCase> {
    (0usize..3, holes()).prop_map(|(kind, holes)| match kind {
        0 => GridCase::Dense,
        1 => GridCase::SparseHoles(holes),
        _ => GridCase::SparseFull,
    })
}

/// A seeded load on every free node; the `z = 0` plane is the support.
fn load(x: i32, y: i32, z: i32, k: usize) -> f64 {
    if z == 0 {
        0.0
    } else {
        1e-3 * (((x * 31 + y * 17 + z * 7 + 5 * k as i32) % 13) as f64 - 6.0)
    }
}

/// Bits of the `r·r` history of a 3-iteration solve, then of the
/// displacements and of the last `Ap`.
fn solve_bits<G: GridLike>(
    grid: &G,
    layout: MemLayout,
    occ: OccLevel,
    apply: fn(&G, &CgState<G>, Material) -> Container,
) -> Vec<u64> {
    let mut cg = CgSolver::new(grid, 3, layout, occ, |state| {
        apply(grid, state, Material::default())
    })
    .unwrap();
    cg.state.b.fill(load);
    cg.init();
    let mut bits = Vec::new();
    for _ in 0..3 {
        cg.iterate(1);
        bits.push(cg.state.rs_old.host_value().to_bits());
    }
    cg.state.x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    cg.state.ap.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    bits
}

fn rows_and_cells<G: GridLike>(grid: &G, layout: MemLayout, occ: OccLevel) -> (Vec<u64>, Vec<u64>) {
    (
        solve_bits(grid, layout, occ, elasticity_apply),
        solve_bits(grid, layout, occ, elasticity_apply_per_cell),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn row_path_is_bit_identical_to_the_per_cell_body(
        case in grid_cases(),
        aos in any::<bool>(),
        n_dev in 1usize..=4,
        occ in 0usize..4,
    ) {
        let backend = Backend::dgx_a100(n_dev);
        let st = Stencil::twenty_seven_point();
        let layout = if aos { MemLayout::AoS } else { MemLayout::SoA };
        let occ = OccLevel::ALL[occ];
        let (rows, cells) = match &case {
            GridCase::Dense => {
                let g = DenseGrid::new(&backend, DIM, &[&st], StorageMode::Real).unwrap();
                rows_and_cells(&g, layout, occ)
            }
            GridCase::SparseHoles(holes) => {
                let holes = holes.clone();
                let mask = move |x: i32, y: i32, z: i32| {
                    !holes.iter().any(|&((x0, x1), (y0, y1), (z0, z1))| {
                        (x0..x1).contains(&x) && (y0..y1).contains(&y) && (z0..z1).contains(&z)
                    })
                };
                let g = SparseGrid::new(&backend, DIM, &[&st], mask, StorageMode::Real).unwrap();
                rows_and_cells(&g, layout, occ)
            }
            GridCase::SparseFull => {
                let g = SparseGrid::new(&backend, DIM, &[&st], |_, _, _| true, StorageMode::Real)
                    .unwrap();
                rows_and_cells(&g, layout, occ)
            }
        };
        prop_assert_eq!(
            &rows, &cells,
            "row path changes bits: {:?}, {:?}, {} devices, {:?}", case, layout, n_dev, occ
        );
    }
}
