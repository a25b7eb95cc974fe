//! The interior bodies of the D3Q19 step and the FEM operator under mixed
//! layouts: an AoS input with an SoA output (and the reverse) runs them
//! with run-time strides, and each must still be bit-identical to its
//! per-cell oracle, on the dense and on a holed sparse grid.

use neon_apps::cg::CgState;
use neon_apps::fem::solver::elasticity_apply_per_cell;
use neon_apps::fem::{elasticity_apply, Material};
use neon_apps::lbm::d3q19::{stream_collide, stream_collide_per_cell, D3Q19_WEIGHTS};
use neon_apps::lbm::LbmParams;
use neon_domain::{
    Container, DataView, DenseGrid, Dim3, Field, GridLike, MemLayout, SparseGrid, Stencil,
    StorageMode,
};
use neon_sys::{Backend, DeviceId};

const LAYOUTS: [[MemLayout; 2]; 2] = [
    [MemLayout::AoS, MemLayout::SoA],
    [MemLayout::SoA, MemLayout::AoS],
];

fn run(c: &Container, grid: &impl GridLike) {
    for d in 0..grid.num_partitions() {
        c.run_device(DeviceId(d), DataView::Standard);
    }
}

fn bits(f: &Field<f64, impl GridLike>) -> Vec<u64> {
    let mut out = Vec::new();
    f.for_each(|_, _, _, _, v| out.push(v.to_bits()));
    out
}

fn seed(x: i32, y: i32, z: i32, q: usize) -> f64 {
    1.0 + 0.01 * ((x * 31 + y * 17 + z * 7 + 5 * q as i32) % 13) as f64
}

fn lbm_matches<G: GridLike>(grid: &G) {
    for [fin, fout] in LAYOUTS {
        let f_in = Field::<f64, G>::new(grid, "fin", 19, 0.0, fin).unwrap();
        f_in.fill(|x, y, z, q| D3Q19_WEIGHTS[q] * seed(x, y, z, q));
        let outs =
            [0, 1].map(|i| Field::<f64, G>::new(grid, &format!("o{i}"), 19, 0.0, fout).unwrap());
        run(
            &stream_collide(grid, &f_in, &outs[0], LbmParams::default()),
            grid,
        );
        run(
            &stream_collide_per_cell(grid, &f_in, &outs[1], LbmParams::default()),
            grid,
        );
        assert_eq!(bits(&outs[0]), bits(&outs[1]), "LBM {fin:?} -> {fout:?}");
    }
}

fn fem_matches<G: GridLike>(grid: &G) {
    for [p, ap] in LAYOUTS {
        let states = [0, 1].map(|_| {
            let mut s = CgState::new(grid, 3, p).unwrap();
            s.ap = Field::<f64, G>::new(grid, "ap", 3, 0.0, ap).unwrap();
            s.p.fill(|x, y, z, k| seed(x, y, z, k) - 1.05);
            s
        });
        run(
            &elasticity_apply(grid, &states[0], Material::default()),
            grid,
        );
        run(
            &elasticity_apply_per_cell(grid, &states[1], Material::default()),
            grid,
        );
        assert_eq!(
            bits(&states[0].ap),
            bits(&states[1].ap),
            "FEM {p:?} -> {ap:?}"
        );
    }
}

#[test]
fn interior_bodies_match_their_oracles_under_mixed_layouts() {
    let b = Backend::dgx_a100(2);
    let dim = Dim3::new(10, 6, 8);
    let holed = |x: i32, y: i32, _z: i32| x != 4 || y > 3;
    let (st19, st27) = (Stencil::d3q19(), Stencil::twenty_seven_point());
    lbm_matches(&DenseGrid::new(&b, dim, &[&st19], StorageMode::Real).unwrap());
    lbm_matches(&SparseGrid::new(&b, dim, &[&st19], holed, StorageMode::Real).unwrap());
    fem_matches(&DenseGrid::new(&b, dim, &[&st27], StorageMode::Real).unwrap());
    fem_matches(&SparseGrid::new(&b, dim, &[&st27], holed, StorageMode::Real).unwrap());
}
