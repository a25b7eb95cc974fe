//! Field layouts and the plan cache: neither the field layout nor the
//! layout policy is part of the plan key, so instances of one program in
//! different layouts share one compiled plan. A binary of its own, because
//! the plan cache is process-wide.

use neon_apps::fem::{ElasticitySolver, Material};
use neon_core::{LayoutPolicy, OccLevel, SkeletonOptions};
use neon_domain::{DenseGrid, Dim3, MemLayout, Stencil, StorageMode};
use neon_sys::Backend;

/// The field layout is not part of the plan key: an AoS instance of the
/// vector CG program rebinds the plan its SoA twin compiled. The rebind
/// recomputes the halo descriptors from the instance's own fields, so the
/// AoS instance times exactly like a fresh compile of itself.
#[test]
fn layouts_share_one_plan_and_time_as_if_compiled_fresh() {
    let b = Backend::dgx_a100(3);
    let st = Stencil::twenty_seven_point();
    let build = |layout: MemLayout, cache: bool| {
        let g = DenseGrid::new(&b, Dim3::cube(12), &[&st], StorageMode::Virtual).unwrap();
        // The policy matches the allocation, so the two instances also
        // differ in `SkeletonOptions::layout`.
        let policy = match layout {
            MemLayout::SoA => LayoutPolicy::FixedSoA,
            MemLayout::AoS => LayoutPolicy::FixedAoS,
        };
        let options = SkeletonOptions {
            cache,
            layout: policy,
            ..SkeletonOptions::with_occ(OccLevel::Standard)
        };
        ElasticitySolver::with_options(&g, Material::default(), layout, options).unwrap()
    };
    // Every report field, so the comparison is bit for bit.
    let run = |s: &mut ElasticitySolver<DenseGrid>| {
        let init = s.cg.init();
        format!("{init:?} {:?}", s.solve_iters(3))
    };
    let mut soa = build(MemLayout::SoA, true);
    assert!(!soa.cg.compile_stats().iter_from_cache);
    let mut aos = build(MemLayout::AoS, true);
    let stats = aos.cg.compile_stats();
    assert!(stats.init_from_cache && stats.iter_from_cache);
    let mut fresh = build(MemLayout::AoS, false);
    assert!(!fresh.cg.compile_stats().iter_from_cache);

    let aos_run = run(&mut aos);
    assert_eq!(aos_run, run(&mut fresh), "rebound AoS vs fresh AoS");
    // The layouts price their halos differently (2 transfers per partition
    // pair for AoS, 2 per component for SoA), so a rebind that kept the
    // SoA descriptors would show here.
    assert_ne!(aos_run, run(&mut soa), "SoA and AoS halos cost alike");
}
