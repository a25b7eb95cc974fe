//! Proof that the executor's steady-state timing replay allocates
//! nothing: after a warm-up iteration (which sizes the scratch tables and
//! the simulator's link-state vector), further `execute_iters` calls must
//! perform zero heap allocations.
//!
//! This is its own test binary because it installs a counting global
//! allocator, and it contains exactly one `#[test]` so no sibling test
//! thread can allocate during the measured window.
//!
//! Scope: the sequences are timing-only (virtual storage, so the functional
//! replay is skipped). Reductions are covered: the executor lowers each
//! collective once into a pre-priced send list that replays into reused
//! scratch, so a CG iteration allocates nothing under every collective
//! algorithm (tree, ring, host-staged, hierarchical), under chunk events
//! and unified memory, and with an (empty) fault plan installed. The
//! functional replay cannot be allocation-free regardless: every kernel
//! launch boxes the loading-lambda's closure. That box is the launch's
//! *only* allocation, which the second half of the test pins: loading a
//! stencil view and a write view of real fields and sweeping a partition
//! with a span kernel over them touches the heap zero times (the stencil
//! view's slot-delta table is the grid's, shared, not built per view),
//! and a whole launch of the FEM operator or of the D3Q19 step allocates
//! only that box.
//!
//! The third part bounds a plan-cache hit: rebinding the CG iteration onto
//! a new instance rebuilds each distinct container once and shares every
//! table that depends only on the program's shape, so its allocation count
//! stays small and does not grow with the device count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use neon_apps::cg::{cg_iteration, CgState};
use neon_apps::fem::{elasticity_apply, Material};
use neon_apps::lbm::d3q19::{stream_collide, D3Q19_WEIGHTS};
use neon_apps::lbm::LbmParams;
use neon_apps::poisson::laplacian_apply;
use neon_core::{
    CollectiveAlgorithm, CollectiveMode, CommMode, FaultPlan, FunctionalMode, HaloPolicy, OccLevel,
    Skeleton, SkeletonOptions,
};
use neon_domain::{
    Container, DataView, DenseGrid, Dim3, Field, FieldStencil, FieldWrite, GridLike, KernelFn,
    Loader, MemLayout, Span, SparseGrid, Stencil, StorageMode, Strides,
};
use neon_sys::{Backend, DeviceId};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates verbatim to `System`; only adds a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, new_size) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn steady_state_execute_does_not_allocate() {
    let b = Backend::dgx_a100(4);
    let st = Stencil::seven_point();
    let g = DenseGrid::new(&b, Dim3::new(32, 32, 64), &[&st], StorageMode::Virtual).unwrap();
    let x = Field::<f64, _>::new(&g, "x", 2, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&g, "y", 2, 0.0, MemLayout::SoA).unwrap();
    let upd = {
        let xc = x.clone();
        Container::compute("update", g.as_space(), move |ldr| {
            let xv = ldr.read_write(&xc);
            Box::new(move |c| xv.set(c, 0, xv.at(c, 0)))
        })
    };
    let sten = {
        let (xc, yc) = (x.clone(), y.clone());
        Container::compute("stencil", g.as_space(), move |ldr| {
            let xv = ldr.read_stencil(&xc);
            let yv = ldr.write(&yc);
            Box::new(move |c| yv.set(c, 0, xv.ngh(c, 0, 0)))
        })
    };
    // A span container with a stencil read: the span data path
    // must be as allocation-free in steady state as the per-cell one.
    let shaped = {
        let (xc, yc) = (x.clone(), y.clone());
        Container::compute("shaped-shift", g.as_space(), move |ldr| {
            let xv = ldr.read_stencil(&xc);
            let mut yv = ldr.write(&yc);
            KernelFn::spans(move |span| shift_kernel(&xv, &mut yv, span))
        })
    };
    let host = Container::host("tick", 4, |_| Box::new(|| {}));
    let mut sk = Skeleton::sequence(
        &b,
        "steady-state",
        vec![upd, sten, shaped, host],
        SkeletonOptions {
            occ: OccLevel::TwoWayExtended,
            cache: false,
            ..Default::default()
        },
    );
    assert!(!sk.is_functional(), "virtual storage must be timing-only");

    const ITERS: usize = 16;
    sk.run_iters(ITERS); // warm up scratch tables + makespan buffer

    let before = ALLOCS.load(Ordering::Relaxed);
    let report = sk.run_iters(ITERS);
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(report.executions, ITERS as u64);
    assert_eq!(
        after - before,
        0,
        "steady-state execute loop must not touch the heap"
    );

    // A CG iteration (two all-reduces per iteration) under every
    // collective algorithm, comm mode and halo policy, and with a fault
    // injector installed.
    let cases: [(&str, Backend, SkeletonOptions, bool); 7] = [
        ("tree (auto)", Backend::dgx_a100(8), cg_options(), false),
        (
            "ring",
            Backend::dgx_a100(8),
            SkeletonOptions {
                collectives: CollectiveMode::Fixed(CollectiveAlgorithm::Ring),
                ..cg_options()
            },
            false,
        ),
        (
            "host-staged (auto)",
            Backend::gv100_pcie(8),
            cg_options(),
            false,
        ),
        (
            "hierarchical",
            Backend::dgx_islands(&[2, 2]),
            SkeletonOptions {
                collectives: CollectiveMode::Fixed(CollectiveAlgorithm::Hierarchical),
                ..cg_options()
            },
            false,
        ),
        (
            "chunk events",
            Backend::dgx_a100(4),
            SkeletonOptions {
                comm: CommMode::ChunkEvents,
                ..cg_options()
            },
            false,
        ),
        (
            "unified memory",
            Backend::dgx_a100(4),
            SkeletonOptions {
                halo_policy: HaloPolicy::UnifiedMemory,
                ..cg_options()
            },
            false,
        ),
        ("empty fault plan", Backend::dgx_a100(4), cg_options(), true),
    ];
    for (label, b, options, faults) in cases {
        let g = DenseGrid::new(&b, Dim3::new(16, 16, 32), &[&st], StorageMode::Virtual).unwrap();
        let state = CgState::new(&g, 1, MemLayout::SoA).unwrap();
        let seq = cg_iteration(&g, &state, laplacian_apply(&g, &state));
        let mut sk = Skeleton::sequence(&b, "steady-cg", seq, options);
        assert!(!sk.is_functional());
        if faults {
            sk.install_fault_plan(FaultPlan::none());
        }
        sk.run_iters(ITERS); // builds the timing program, warms scratch
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = sk.run_iters(ITERS);
        let after = ALLOCS.load(Ordering::Relaxed);
        assert!(report.collective_time > neon_sys::SimTime::ZERO, "{label}");
        assert_eq!(
            after - before,
            0,
            "a steady-state CG iteration ({label}) must not touch the heap"
        );
    }

    // Functional half: everything a launch does except boxing the kernel.
    let b = Backend::dgx_a100(2);
    let g = DenseGrid::new(&b, Dim3::new(8, 4, 8), &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&g, "x", 2, -1.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&g, "y", 2, 0.0, MemLayout::SoA).unwrap();
    x.fill(|cx, _, _, _| cx as f64);
    let space = g.as_space();
    let before = ALLOCS.load(Ordering::Relaxed);
    for d in 0..2 {
        let mut ldr = Loader::for_execution(DeviceId(d), 2, DataView::Standard);
        let xv = ldr.read_stencil(&x);
        let mut yv = ldr.write(&y);
        space.for_each_span(DeviceId(d), DataView::Standard.into(), &mut |span| {
            shift_kernel(&xv, &mut yv, span)
        });
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "views and span iteration must not touch the heap"
    );
    // Slot 0 is the -x neighbour: y = x shifted right, -1 flowing in.
    y.for_each(|cx, _, _, comp, v| {
        if comp == 0 {
            assert_eq!(v, cx as f64 - 1.0);
        }
    });

    // The FEM operator, the repo's heaviest span kernel: a launch's one
    // allocation is its kernel box. Its sweep — neighbour lanes under
    // AoS and SoA, the per-node body on edge spans — allocates nothing,
    // on the dense and on the sparse grid.
    let st27 = Stencil::twenty_seven_point();
    let dim = Dim3::new(8, 6, 8);
    let dense = DenseGrid::new(&b, dim, &[&st27], StorageMode::Real).unwrap();
    let sparse = SparseGrid::new(
        &b,
        dim,
        &[&st27],
        |x, y, _| x != 3 || y > 3,
        StorageMode::Real,
    )
    .unwrap();
    let mut applies = Vec::new();
    for layout in [MemLayout::AoS, MemLayout::SoA] {
        let dense_state = CgState::new(&dense, 3, layout).unwrap();
        let sparse_state = CgState::new(&sparse, 3, layout).unwrap();
        applies.push(elasticity_apply(&dense, &dense_state, Material::default()));
        applies.push(elasticity_apply(
            &sparse,
            &sparse_state,
            Material::default(),
        ));
    }
    let launch_all = || {
        for apply in &applies {
            for d in 0..2 {
                apply.run_device(DeviceId(d), DataView::Standard);
            }
        }
    };
    launch_all(); // warm up
    let before = ALLOCS.load(Ordering::Relaxed);
    launch_all();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        2 * applies.len() as u64,
        "an FEM launch allocates its kernel box and nothing else"
    );

    // The D3Q19 step likewise: neighbour lanes collided into whole
    // output cells under AoS and SoA, the bounce-back body on edge spans —
    // nothing but the kernel box, on either grid.
    let st19 = Stencil::d3q19();
    let dim = Dim3::new(12, 6, 8);
    let dense = DenseGrid::new(&b, dim, &[&st19], StorageMode::Real).unwrap();
    let sparse = SparseGrid::new(
        &b,
        dim,
        &[&st19],
        |x, y, _| x != 5 || y > 3,
        StorageMode::Real,
    )
    .unwrap();
    let mut steps = Vec::new();
    for layout in [MemLayout::AoS, MemLayout::SoA] {
        steps.push(lbm_step(&dense, layout));
        steps.push(lbm_step(&sparse, layout));
    }
    let launch_all = || {
        for step in &steps {
            for d in 0..2 {
                step.run_device(DeviceId(d), DataView::Standard);
            }
        }
    };
    launch_all(); // warm up
    let before = ALLOCS.load(Ordering::Relaxed);
    launch_all();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        2 * steps.len() as u64,
        "an LBM launch allocates its kernel box and nothing else"
    );

    // A cache hit of the CG iteration: the containers of the new instance
    // are built outside the window, `Skeleton::sequence` inside it.
    for (ndev, bound) in [(2, 80), (8, 100)] {
        let b = Backend::dgx_a100(ndev);
        let g = DenseGrid::new(&b, Dim3::new(8, 8, 16), &[&st], StorageMode::Real).unwrap();
        let state = CgState::new(&g, 1, MemLayout::SoA).unwrap();
        let make = || cg_iteration(&g, &state, laplacian_apply(&g, &state));
        let options = SkeletonOptions {
            functional_mode: FunctionalMode::Serial,
            ..Default::default()
        };
        let _cached = Skeleton::sequence(&b, "cg-hit", make(), options);
        let _warm = Skeleton::sequence(&b, "cg-hit", make(), options);
        let seq = make();
        let before = ALLOCS.load(Ordering::Relaxed);
        let hit = Skeleton::sequence(&b, "cg-hit", seq, options);
        let after = ALLOCS.load(Ordering::Relaxed);
        assert!(hit.compiled_from_cache());
        println!(
            "cache hit of the CG iteration on {ndev} devices: {} allocations",
            after - before
        );
        assert!(
            after - before <= bound,
            "a cache hit on {ndev} devices allocates {} times (bound {bound})",
            after - before
        );
    }
}

/// The CG iteration's options: the cache off, so every case compiles (and
/// prices) its own plan.
fn cg_options() -> SkeletonOptions {
    SkeletonOptions {
        cache: false,
        ..Default::default()
    }
}

/// One `stream_collide` container between two rest-state population
/// fields of `layout`.
fn lbm_step<G: GridLike>(grid: &G, layout: MemLayout) -> Container {
    let f = [0, 1].map(|i| {
        let f = Field::<f64, G>::new(grid, &format!("f{i}"), 19, 0.0, layout).unwrap();
        f.fill(|_, _, _, q| D3Q19_WEIGHTS[q]);
        f
    });
    stream_collide(grid, &f[0], &f[1], LbmParams::default())
}

/// `y[cell] ← x[slot-0 neighbour of cell]`, by lanes where the span has
/// them and cell by cell where it does not.
fn shift_kernel(xv: &impl FieldStencil<f64>, yv: &mut impl FieldWrite<f64>, span: &Span) {
    match xv.ngh_lanes::<Strides>(span, 0) {
        Some(ngh) => {
            let mut out = yv.lanes_mut::<Strides>(span);
            for i in 0..span.len() {
                out.set(i, 0, ngh.get(i, 0));
            }
        }
        None => {
            for c in span.cells() {
                yv.set(c, 0, xv.ngh(c, 0, 0));
            }
        }
    }
}
