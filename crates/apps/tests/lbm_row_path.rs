//! Property test of the D3Q19 kernel's row path: `stream_collide`, which
//! runs interior spans through neighbour blocks (AoS) or neighbour rows
//! (SoA, in tiles), is bit-identical to the same per-cell body run cell by
//! cell through `KernelFn::PerCell` (`stream_collide_per_cell`) — on the
//! dense grid, on sparse grids with random holes, and on a full-mask
//! sparse grid; under AoS and SoA; on 1–4 devices; at every OCC level.
//! The comparison is several steps of the twoPop ping-pong, started from
//! perturbed populations so that a pull from the wrong direction or
//! component shows in the first step.

use neon_apps::lbm::d3q19::{stream_collide, stream_collide_per_cell, D3Q19_WEIGHTS};
use neon_apps::lbm::LbmParams;
use neon_core::{OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    Container, DenseGrid, Dim3, Field, GridLike, MemLayout, SparseGrid, Stencil, StorageMode,
};
use neon_sys::Backend;
use proptest::prelude::*;

/// 16 z-layers: four devices still get partitions several layers thick.
/// 12 x-cells: a dense interior run (10 cells) fills one SoA tile and
/// leaves a partial one.
const DIM: Dim3 = Dim3::new(12, 6, 16);

/// Ping-pong steps per comparison (both parities run twice).
const STEPS: usize = 4;

/// An axis-aligned box of removed cells.
type Hole = ((i32, i32), (i32, i32), (i32, i32));

#[derive(Debug, Clone)]
enum GridCase {
    Dense,
    /// The box minus a few random boxes: holes are walls, rows break into
    /// runs, and the interior bit flips along them and along z.
    SparseHoles(Vec<Hole>),
    /// Every cell active: the sparse grid's runs are the dense grid's rows.
    SparseFull,
}

fn holes() -> impl Strategy<Value = Vec<Hole>> {
    let hole = (0i32..12, 1i32..5, 0i32..6, 1i32..4, 0i32..16, 1i32..6)
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

/// Rest weights with a seeded per-population perturbation, so the flow is
/// not symmetric anywhere from the first step on.
fn perturbed(x: i32, y: i32, z: i32, q: usize) -> f64 {
    let h = (x * 31 + y * 17 + z * 7 + 5 * q as i32) % 13;
    D3Q19_WEIGHTS[q] * (1.0 + 0.01 * (h as f64 - 6.0))
}

type Step<G> = fn(&G, &Field<f64, G>, &Field<f64, G>, LbmParams) -> Container;

/// Bits of both population fields after [`STEPS`] ping-pong steps.
fn cavity_bits<G: GridLike>(grid: &G, layout: MemLayout, occ: OccLevel, step: Step<G>) -> Vec<u64> {
    let params = LbmParams {
        omega: 1.3,
        u_lid: 0.08,
    };
    let f = [0, 1].map(|i| {
        let f = Field::<f64, G>::new(grid, &format!("f{i}"), 19, 0.0, layout).unwrap();
        f.fill(perturbed);
        f
    });
    let options = SkeletonOptions::with_occ(occ);
    let mut skeletons = [(0, 1), (1, 0)].map(|(src, dst)| {
        Skeleton::sequence(
            grid.backend(),
            "lbm",
            vec![step(grid, &f[src], &f[dst], params)],
            options,
        )
    });
    for s in 0..STEPS {
        skeletons[s % 2].run();
    }
    let mut bits = Vec::new();
    for f in &f {
        f.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    }
    bits
}

fn rows_and_cells<G: GridLike>(grid: &G, layout: MemLayout, occ: OccLevel) -> (Vec<u64>, Vec<u64>) {
    (
        cavity_bits(grid, layout, occ, stream_collide),
        cavity_bits(grid, layout, occ, stream_collide_per_cell),
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
        let st = Stencil::d3q19();
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
