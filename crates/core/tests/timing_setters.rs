//! The executor prices its timing replay once, on the first execution,
//! and every setting the prices depend on drops that program. Each of the
//! four setters, called between runs, must make the following iterations
//! time exactly like a fresh executor built with that setting.

use neon_apps::cg::{cg_iteration, CgState};
use neon_apps::lbm::d3q19::stream_collide;
use neon_apps::lbm::LbmParams;
use neon_apps::poisson::laplacian_apply;
use neon_core::{
    CollectiveAlgorithm, CollectiveMode, CommMode, HaloPolicy, OccLevel, Skeleton, SkeletonOptions,
};
use neon_domain::{Container, DenseGrid, Dim3, Field, MemLayout, Stencil, StorageMode};
use neon_sys::Backend;

/// The benchmark's bound on a virtual-clock metric's relative drift.
const REL: f64 = 1e-9;
const ITERS: usize = 3;

fn base_options() -> SkeletonOptions {
    SkeletonOptions {
        occ: OccLevel::Standard,
        ..Default::default()
    }
}

/// Makespans (µs) of `ITERS` iterations.
fn makespans(sk: &mut Skeleton) -> Vec<f64> {
    sk.run_iters(ITERS);
    sk.per_iteration_makespans()
        .iter()
        .map(|t| t.as_us())
        .collect()
}

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g - w).abs() <= REL * w.abs(),
            "{what}: {g} µs after the setter, {w} µs on a fresh executor"
        );
    }
}

#[test]
fn setters_between_runs_match_a_fresh_executor() {
    let b = Backend::dgx_a100(8);
    let g = DenseGrid::new(
        &b,
        Dim3::new(16, 16, 64),
        &[&Stencil::seven_point()],
        StorageMode::Virtual,
    )
    .unwrap();
    let state = CgState::new(&g, 1, MemLayout::SoA).unwrap();
    let cg = || -> Vec<Container> { cg_iteration(&g, &state, laplacian_apply(&g, &state)) };
    // The CG iteration runs on one compute stream; the D3Q19 step's
    // internal and boundary kernels take two, which kernel concurrency
    // lets overlap.
    let gl = DenseGrid::new(
        &b,
        Dim3::cube(256),
        &[&Stencil::d3q19()],
        StorageMode::Virtual,
    )
    .unwrap();
    let f = ["f0", "f1"].map(|n| Field::<f64, _>::new(&gl, n, 19, 0.0, MemLayout::SoA).unwrap());
    let lbm = || vec![stream_collide(&gl, &f[0], &f[1], LbmParams::default())];

    type Setter = Box<dyn Fn(&mut Skeleton)>;
    type Program<'a> = &'a dyn Fn() -> Vec<Container>;
    let cases: Vec<(&str, Program, Setter, SkeletonOptions)> = vec![
        (
            "set_halo_policy",
            &cg,
            Box::new(|sk| sk.executor_mut().set_halo_policy(HaloPolicy::UnifiedMemory)),
            SkeletonOptions {
                halo_policy: HaloPolicy::UnifiedMemory,
                ..base_options()
            },
        ),
        (
            "set_collective_mode",
            &cg,
            Box::new(|sk| {
                sk.executor_mut()
                    .set_collective_mode(CollectiveMode::Fixed(CollectiveAlgorithm::HostStaged))
            }),
            SkeletonOptions {
                collectives: CollectiveMode::Fixed(CollectiveAlgorithm::HostStaged),
                ..base_options()
            },
        ),
        (
            "set_comm_mode",
            &cg,
            Box::new(|sk| sk.executor_mut().set_comm_mode(CommMode::ChunkEvents)),
            SkeletonOptions {
                comm: CommMode::ChunkEvents,
                ..base_options()
            },
        ),
        (
            "set_kernel_concurrency",
            &lbm,
            Box::new(|sk| sk.executor_mut().set_kernel_concurrency(true)),
            SkeletonOptions {
                kernel_concurrency: true,
                ..base_options()
            },
        ),
    ];

    for (what, make, set, options) in cases {
        let before = makespans(&mut Skeleton::sequence(
            &b,
            "setters",
            make(),
            base_options(),
        ));
        let mut switched = Skeleton::sequence(&b, "setters", make(), base_options());
        assert_close(&makespans(&mut switched), &before, "default settings");
        set(&mut switched);
        let after = makespans(&mut switched);
        let fresh = makespans(&mut Skeleton::sequence(&b, "setters", make(), options));
        // Each setting moves this program's timing, so a stale program
        // could not pass the comparison below.
        assert!(
            fresh
                .iter()
                .zip(&before)
                .any(|(f, b)| (f - b).abs() > REL * b),
            "{what} should change the makespan"
        );
        assert_close(&after, &fresh, what);
    }
}
