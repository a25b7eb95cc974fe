//! The plan-cache key is [`neon_core::CompileKey`]: the three options the
//! passes read. Everything else in [`SkeletonOptions`] configures the
//! run, so skeletons that differ only there must share one compiled plan
//! and still run exactly as if each had compiled its own — and each
//! timing option must actually move the timing. And a
//! program's dispatch form (span kernels or per-cell closures) is not part
//! of the key either, so a span program and its `ops::reference` twin
//! share one plan. And a plan rebound from the cache is the plan a fresh
//! compile of the same instance builds.

use std::sync::Arc;

use neon_apps::cg::{cg_init, cg_iteration, CgState};
use neon_apps::lbm::d3q19::{stream_collide, D3Q19_WEIGHTS};
use neon_apps::lbm::LbmParams;
use neon_apps::poisson::laplacian_apply;
use neon_core::{
    CollectiveAlgorithm, CollectiveMode, CommMode, CompiledPlan, FunctionalMode, FusionLevel,
    Graph, HaloPolicy, LayoutPolicy, NodeKind, OccLevel, ResilienceOptions, Skeleton,
    SkeletonOptions,
};
use neon_domain::{
    ops, Container, DataView, DenseGrid, Dim3, Field, FieldRead as _, FieldStencil as _,
    FieldWrite as _, GridLike as _, MemLayout, ScalarSet, Stencil, StorageMode,
};
use neon_set::uid_roles;
use neon_sys::{Backend, SimTime};

const ITERS: usize = 3;

/// A stencil + dot + axpy sequence over fresh, deterministically seeded
/// data, and a reader of every result bit it produces.
fn stencil_dot(b: &Backend) -> (Vec<Container>, impl Fn() -> Vec<u64>) {
    let st = Stencil::seven_point();
    let g = DenseGrid::new(b, Dim3::new(6, 5, 16), &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&g, "key-x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&g, "key-y", 1, 0.0, MemLayout::SoA).unwrap();
    x.fill(|i, j, k, _| ((i * 31 + j * 7 + k) as f64).sin());
    let dot = ScalarSet::<f64>::new(b.num_devices(), "key-dot", 0.0, |a, b| a + b);
    let lap = {
        let (xc, yc) = (x.clone(), y.clone());
        Container::compute("key-lap", g.as_space(), move |ldr| {
            let xv = ldr.read_stencil(&xc);
            let yv = ldr.write(&yc);
            Box::new(move |c| {
                let mut s = -6.0 * xv.at(c, 0);
                for slot in 0..6 {
                    s += xv.ngh(c, slot, 0);
                }
                yv.set(c, 0, s);
            })
        })
    };
    let seq = vec![
        lap,
        ops::dot(&g, &y, &y, &dot),
        ops::axpy_const(&g, -0.05, &y, &x),
    ];
    let bits = move || {
        let mut v = vec![dot.host_value().to_bits()];
        for f in [&x, &y] {
            f.for_each(|_, _, _, _, val| v.push(val.to_bits()));
        }
        v
    };
    (seq, bits)
}

/// What a run must reproduce: virtual time, launches, bytes and bits.
fn observe(mut sk: Skeleton, bits: impl Fn() -> Vec<u64>) -> (u64, u64, u64, Vec<u64>) {
    let r = sk.run_iters(ITERS);
    (
        r.makespan.as_us().to_bits(),
        r.launches,
        r.bytes_moved,
        bits(),
    )
}

#[test]
fn runtime_options_share_a_plan_and_run_as_if_compiled_fresh() {
    let b = Backend::dgx_a100(4);
    let base = SkeletonOptions::default();
    let flips = [
        SkeletonOptions {
            kernel_concurrency: true,
            ..base
        },
        SkeletonOptions {
            halo_policy: HaloPolicy::UnifiedMemory,
            ..base
        },
        // Ring, not Tree: `Auto` picks the tree for this 8-byte dot, and
        // a flip that changes the timing shows a stale executor setting.
        SkeletonOptions {
            collectives: CollectiveMode::Fixed(CollectiveAlgorithm::Ring),
            ..base
        },
        SkeletonOptions {
            functional_mode: FunctionalMode::Serial,
            ..base
        },
        // Chunk events price halos per chunk; the plan is the same.
        SkeletonOptions {
            comm: CommMode::ChunkEvents,
            ..base
        },
        // The layout policy steers field allocation, not the passes: SoA
        // and AoS instances share one plan.
        SkeletonOptions {
            layout: LayoutPolicy::FixedAoS,
            ..base
        },
        SkeletonOptions {
            trace: true,
            ..base
        },
        SkeletonOptions {
            resilience: ResilienceOptions {
                enabled: true,
                ..Default::default()
            },
            ..base
        },
    ];
    for flip in flips {
        assert_eq!(flip.compile_key(), base.compile_key());
        let (seq, _) = stencil_dot(&b);
        let first = Skeleton::sequence(&b, "key", seq, base);
        let (seq, bits) = stencil_dot(&b);
        let shared = Skeleton::sequence(&b, "key", seq, flip);
        assert!(shared.compiled_from_cache(), "{flip:?} must hit");
        assert!(Arc::ptr_eq(
            first.plan().schedule_arc(),
            shared.plan().schedule_arc()
        ));
        let shared = observe(shared, bits);
        let (seq, bits) = stencil_dot(&b);
        let fresh = Skeleton::sequence(
            &b,
            "key",
            seq,
            SkeletonOptions {
                cache: false,
                ..flip
            },
        );
        assert!(!fresh.compiled_from_cache());
        assert_eq!(shared, observe(fresh, bits), "{flip:?}");
    }
}

/// Each timing option moves the makespan of a program it applies to, so
/// a skeleton that priced its run without the option could not pass the
/// fresh-compile comparison above by accident. The CG iteration runs on
/// one compute stream; the D3Q19 step's internal and boundary kernels
/// take two, which kernel concurrency lets overlap.
#[test]
fn each_timing_option_moves_the_makespan() {
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
    let gl = DenseGrid::new(
        &b,
        Dim3::cube(256),
        &[&Stencil::d3q19()],
        StorageMode::Virtual,
    )
    .unwrap();
    let f = ["f0", "f1"].map(|n| Field::<f64, _>::new(&gl, n, 19, 0.0, MemLayout::SoA).unwrap());
    let lbm = || vec![stream_collide(&gl, &f[0], &f[1], LbmParams::default())];

    let base = SkeletonOptions {
        occ: OccLevel::Standard,
        ..Default::default()
    };
    type Program<'a> = &'a dyn Fn() -> Vec<Container>;
    let cases: [(Program, SkeletonOptions); 4] = [
        (
            &cg,
            SkeletonOptions {
                halo_policy: HaloPolicy::UnifiedMemory,
                ..base
            },
        ),
        (
            &cg,
            SkeletonOptions {
                collectives: CollectiveMode::Fixed(CollectiveAlgorithm::HostStaged),
                ..base
            },
        ),
        (
            &cg,
            SkeletonOptions {
                comm: CommMode::ChunkEvents,
                ..base
            },
        ),
        (
            &lbm,
            SkeletonOptions {
                kernel_concurrency: true,
                ..base
            },
        ),
    ];
    let makespans = |make: Program, options| {
        let mut sk = Skeleton::sequence(&b, "timing", make(), options);
        sk.run_iters(ITERS);
        sk.per_iteration_makespans().to_vec()
    };
    for (make, options) in cases {
        let (before, after) = (makespans(make, base), makespans(make, options));
        // Past the benchmark's bound on a virtual-clock metric's drift.
        let moved = |(b, a): (&SimTime, &SimTime)| (a.as_us() - b.as_us()).abs() > 1e-9 * b.as_us();
        assert!(
            before.iter().zip(&after).any(moved),
            "{options:?} should change the makespan"
        );
    }
}

/// `[copy, axpy, dot]` over fresh fields, from the span ops or from their
/// per-cell reference twins.
fn blas(b: &Backend, reference: bool) -> (Vec<Container>, impl Fn() -> Vec<u64>) {
    let st = Stencil::seven_point();
    let g = DenseGrid::new(b, Dim3::new(5, 4, 12), &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&g, "twin-x", 3, 0.0, MemLayout::AoS).unwrap();
    let y = Field::<f64, _>::new(&g, "twin-y", 3, 0.0, MemLayout::AoS).unwrap();
    x.fill(|i, j, k, q| ((i * 5 + j * 3 + k * 11 + q as i32) as f64).cos());
    let dot = ScalarSet::<f64>::new(b.num_devices(), "twin-dot", 0.0, |a, b| a + b);
    let seq = if reference {
        vec![
            ops::reference::copy(&g, &x, &y),
            ops::reference::axpy_const(&g, 0.37, &x, &y),
            ops::reference::dot(&g, &x, &y, &dot),
        ]
    } else {
        vec![
            ops::copy(&g, &x, &y),
            ops::axpy_const(&g, 0.37, &x, &y),
            ops::dot(&g, &x, &y, &dot),
        ]
    };
    let bits = move || {
        let mut v = vec![dot.host_value().to_bits()];
        y.for_each(|_, _, _, _, val| v.push(val.to_bits()));
        v
    };
    (seq, bits)
}

#[test]
fn span_ops_and_reference_twins_share_one_plan() {
    let b = Backend::dgx_a100(2);
    let opts = SkeletonOptions::default();
    let (seq, bits) = blas(&b, false);
    let span = Skeleton::sequence(&b, "twin", seq, opts);
    let schedule = Arc::clone(span.plan().schedule_arc());
    let span = observe(span, bits);

    let (seq, bits) = blas(&b, true);
    let twin = Skeleton::sequence(&b, "twin", seq, opts);
    assert!(twin.compiled_from_cache(), "the reference twin must hit");
    assert!(Arc::ptr_eq(&schedule, twin.plan().schedule_arc()));
    let twin = observe(twin, bits);

    let (seq, bits) = blas(&b, true);
    let fresh = Skeleton::sequence(
        &b,
        "twin",
        seq,
        SkeletonOptions {
            cache: false,
            ..opts
        },
    );
    let fresh = observe(fresh, bits);
    assert_eq!(twin, fresh, "a rebound plan runs the twin as a fresh one");
    assert_eq!(
        span, twin,
        "span kernels and per-cell twins agree bit for bit"
    );
}

/// Two grid properties shape a plan: fusion merges only containers on one
/// grid, and temporal blocking needs spare ghost layers. A program that
/// differs from a cached one only there must compile fresh; rebinding the
/// cached composites onto it used to panic.
#[test]
fn grid_identity_and_ghost_depth_key_the_plan() {
    let b = Backend::dgx_a100(2);
    let st = Stencil::seven_point();
    let dim = Dim3::new(4, 4, 32);
    let scales = |one_grid: bool| {
        let g1 = DenseGrid::new(&b, dim, &[&st], StorageMode::Real).unwrap();
        let g2 = DenseGrid::new(&b, dim, &[&st], StorageMode::Real).unwrap();
        let gy = if one_grid { &g1 } else { &g2 };
        let x = Field::<f64, _>::new(&g1, "grid-x", 1, 1.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(gy, "grid-y", 1, 1.0, MemLayout::SoA).unwrap();
        let seq = vec![
            ops::scale_const(&g1, 2.0, &x),
            ops::scale_const(gy, 2.0, &y),
        ];
        Skeleton::sequence(&b, "grid", seq, SkeletonOptions::default())
    };
    assert_eq!(
        scales(true).plan().graph().len(),
        1,
        "one grid: one fused launch"
    );
    let mut apart = scales(false);
    assert!(!apart.compiled_from_cache(), "two grids must compile fresh");
    assert_eq!(apart.plan().graph().len(), 2);
    apart.run();

    let jacobi = |halo_capacity: usize| {
        let g = DenseGrid::with_halo_capacity(&b, dim, &[&st], StorageMode::Real, halo_capacity)
            .unwrap();
        let x = Field::<f64, _>::new(&g, "depth-x", 1, 1.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "depth-y", 1, 0.0, MemLayout::SoA).unwrap();
        let sweep = {
            let (xc, yc) = (x.clone(), y.clone());
            Container::compute("depth-sweep", g.as_space(), move |ldr| {
                let xv = ldr.read_stencil(&xc);
                let yv = ldr.write(&yc);
                Box::new(move |c| yv.set(c, 0, xv.ngh(c, 0, 0) + xv.ngh(c, 1, 0)))
            })
        };
        let options = SkeletonOptions {
            fusion: FusionLevel::Temporal(2),
            ..Default::default()
        };
        let seq = vec![sweep, ops::copy(&g, &y, &x)];
        Skeleton::sequence(&b, "depth", seq, options)
    };
    assert_eq!(jacobi(4).logical_iters_per_execution(), 2);
    let mut shallow = jacobi(1);
    assert!(
        !shallow.compiled_from_cache(),
        "no spare ghost layers must compile fresh"
    );
    assert_eq!(shallow.logical_iters_per_execution(), 1);
    shallow.run();
}

/// One instance of a program: its sequence, a reset of its data to the
/// seeded start, and a reader of every result bit.
struct Instance {
    seq: Vec<Container>,
    reset: Box<dyn FnMut()>,
    bits: Box<dyn Fn() -> Vec<u64>>,
}

/// A program of the mirror test: how to build an instance, the options
/// it compiles under, and the plan shape it exists to cover.
struct Program {
    name: &'static str,
    build: fn(&Backend) -> Instance,
    options: SkeletonOptions,
    shape: fn(&CompiledPlan) -> bool,
}

/// 64 z-layers, so an 8-way split keeps 8 layers per partition.
const MIRROR_DIM: Dim3 = Dim3::new(6, 5, 64);

fn seeded(x: i32, y: i32, z: i32) -> f64 {
    ((x * 3 + y * 5 + z * 7) % 11) as f64 - 5.0
}

fn field_bits<G: neon_domain::GridLike>(fields: &[&Field<f64, G>]) -> Vec<u64> {
    let mut v = Vec::new();
    for f in fields {
        f.for_each(|_, _, _, _, val| v.push(val.to_bits()));
    }
    v
}

/// A CG iteration: fused groups and the all-reduces lowered from them.
fn cg(b: &Backend) -> Instance {
    let g = DenseGrid::new(b, MIRROR_DIM, &[&Stencil::seven_point()], StorageMode::Real).unwrap();
    let state = CgState::new(&g, 1, MemLayout::SoA).unwrap();
    let seq = cg_iteration(&g, &state, laplacian_apply(&g, &state));
    let options = SkeletonOptions {
        cache: false,
        ..Default::default()
    };
    let mut init = Skeleton::sequence(b, "mirror-cg-init", cg_init(&g, &state), options);
    let (rhs, x, r, rs) = (
        state.b.clone(),
        state.x.clone(),
        state.r.clone(),
        state.rs_old.clone(),
    );
    Instance {
        seq,
        reset: Box::new(move || {
            rhs.fill(|x, y, z, _| seeded(x, y, z));
            init.run();
        }),
        bits: Box::new(move || {
            let mut v = vec![rs.host_value().to_bits()];
            v.extend(field_bits(&[&x, &r]));
            v
        }),
    }
}

/// A stencil, a dot and an axpy: split in two by two-way-extended OCC.
fn occ_split(b: &Backend) -> Instance {
    let g = DenseGrid::new(b, MIRROR_DIM, &[&Stencil::seven_point()], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&g, "occ-x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&g, "occ-y", 1, 0.0, MemLayout::SoA).unwrap();
    let dot = ScalarSet::<f64>::new(b.num_devices(), "occ-dot", 0.0, |a, b| a + b);
    let lap = {
        let (xc, yc) = (x.clone(), y.clone());
        Container::compute("occ-lap", g.as_space(), move |ldr| {
            let xv = ldr.read_stencil(&xc);
            let yv = ldr.write(&yc);
            Box::new(move |c| {
                let mut s = -6.0 * xv.at(c, 0);
                for slot in 0..6 {
                    s += xv.ngh(c, slot, 0);
                }
                yv.set(c, 0, s);
            })
        })
    };
    let seq = vec![
        lap,
        ops::dot(&g, &y, &y, &dot),
        ops::axpy_const(&g, -0.05, &y, &x),
    ];
    let (xr, yr) = (x.clone(), y.clone());
    Instance {
        seq,
        reset: Box::new(move || {
            xr.fill(|x, y, z, _| seeded(x, y, z));
            yr.fill(|_, _, _, _| 0.0);
        }),
        bits: Box::new(move || {
            let mut v = vec![dot.host_value().to_bits()];
            v.extend(field_bits(&[&x, &y]));
            v
        }),
    }
}

/// A fused scale+dot on one grid and a dot on another: their two
/// all-reduces merge into one, with the fused group as a member.
fn merged_reductions(b: &Backend) -> Instance {
    let st = Stencil::seven_point();
    let g1 = DenseGrid::new(b, MIRROR_DIM, &[&st], StorageMode::Real).unwrap();
    let g2 = DenseGrid::new(b, Dim3::new(4, 4, 64), &[&st], StorageMode::Real).unwrap();
    let x1 = Field::<f64, _>::new(&g1, "merge-x1", 1, 0.0, MemLayout::SoA).unwrap();
    let x2 = Field::<f64, _>::new(&g2, "merge-x2", 1, 0.0, MemLayout::SoA).unwrap();
    let n = b.num_devices();
    let a = ScalarSet::<f64>::new(n, "merge-a", 0.0, |p, q| p + q);
    let c = ScalarSet::<f64>::new(n, "merge-c", 0.0, |p, q| p + q);
    let seq = vec![
        ops::scale_const(&g1, 0.5, &x1),
        ops::dot(&g1, &x1, &x1, &a),
        ops::dot(&g2, &x2, &x2, &c),
    ];
    let (x1r, x2r) = (x1.clone(), x2.clone());
    Instance {
        seq,
        reset: Box::new(move || {
            x1r.fill(|x, y, z, _| seeded(x, y, z));
            x2r.fill(|x, y, z, _| seeded(z, x, y));
        }),
        bits: Box::new(move || {
            let mut v = vec![a.host_value().to_bits(), c.host_value().to_bits()];
            v.extend(field_bits(&[&x1]));
            v
        }),
    }
}

/// A temporal super-step over a sweep with a map-read right-hand side
/// `b`, scaled in place by a kernel of its own at reset so that its ghost
/// copies are stale until the super-step's deep `halo(b)` runs.
fn temporal_rhs(b: &Backend) -> Instance {
    let st = Stencil::seven_point();
    let g = DenseGrid::with_halo_capacity(b, MIRROR_DIM, &[&st], StorageMode::Real, 4).unwrap();
    let u0 = Field::<f64, _>::new(&g, "tmp-u0", 1, 0.0, MemLayout::SoA).unwrap();
    let u1 = Field::<f64, _>::new(&g, "tmp-u1", 1, 0.0, MemLayout::SoA).unwrap();
    let rhs = Field::<f64, _>::new(&g, "tmp-b", 1, 0.0, MemLayout::SoA).unwrap();
    let sweep = {
        let (u0, u1, rhs) = (u0.clone(), u1.clone(), rhs.clone());
        Container::compute("tmp-sweep", g.as_space(), move |ldr| {
            let uv = ldr.read_stencil(&u0);
            let bv = ldr.read(&rhs);
            let out = ldr.write(&u1);
            Box::new(move |c| {
                let mut s = bv.at(c, 0);
                for slot in 0..6 {
                    s += uv.ngh(c, slot, 0);
                }
                out.set(c, 0, s);
            })
        })
    };
    let seq = vec![sweep, ops::copy(&g, &u1, &u0)];
    let options = SkeletonOptions {
        cache: false,
        ..Default::default()
    };
    let mut scale = Skeleton::sequence(
        b,
        "tmp-scale",
        vec![ops::scale_const(&g, 2.0, &rhs)],
        options,
    );
    let (u0r, rhsr) = (u0.clone(), rhs.clone());
    Instance {
        seq,
        reset: Box::new(move || {
            u0r.fill(|x, y, z, _| ((x + y + z) % 3) as f64);
            rhsr.fill(|x, y, z, _| ((x + 2 * y + 3 * z) % 5) as f64);
            scale.run();
        }),
        bits: Box::new(move || field_bits(&[&u0, &u1, &rhs])),
    }
}

/// Two D3Q19 stream-collide steps, ping-ponging populations.
fn d3q19(b: &Backend) -> Instance {
    let g = DenseGrid::new(b, MIRROR_DIM, &[&Stencil::d3q19()], StorageMode::Real).unwrap();
    let f = [0, 1]
        .map(|i| Field::<f64, _>::new(&g, &format!("lbm-f{i}"), 19, 0.0, MemLayout::SoA).unwrap());
    let params = LbmParams::default();
    let seq = vec![
        stream_collide(&g, &f[0], &f[1], params),
        stream_collide(&g, &f[1], &f[0], params),
    ];
    let fr = f.clone();
    Instance {
        seq,
        reset: Box::new(move || {
            fr[0].fill(|x, y, z, q| D3Q19_WEIGHTS[q] * (1.0 + 0.01 * seeded(x, y, z)));
            fr[1].fill(|_, _, _, _| 0.0);
        }),
        bits: Box::new(move || field_bits(&[&f[0], &f[1]])),
    }
}

/// Whether nodes `i` and `j` run one container instance.
fn shares(g: &Graph, i: usize, j: usize) -> bool {
    match (g.node(i).container(), g.node(j).container()) {
        (Some(a), Some(b)) => a.same_instance(b),
        _ => false,
    }
}

/// `hit` (rebound from a plan compiled for `cached`'s instance) against
/// `fresh`, a cache-free compile of the same instance.
fn assert_mirrors(what: &str, hit: &CompiledPlan, fresh: &CompiledPlan, cached: &CompiledPlan) {
    let roles = uid_roles(hit.containers());
    let old_roles = uid_roles(cached.containers());
    assert_eq!(roles, uid_roles(fresh.containers()), "{what}: one instance");
    for (h, f) in [
        (hit.graph(), fresh.graph()),
        (hit.dependency_graph(), fresh.dependency_graph()),
    ] {
        let names = |g: &Graph| g.nodes().iter().map(|n| n.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(h), names(f), "{what}: node names");
        let by_role = |g: &Graph| {
            g.edges()
                .iter()
                .map(|e| {
                    let role = e
                        .data
                        .map(|u| roles.role(u).expect("edge data of the instance"));
                    (e.from, e.to, e.kind, role)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(by_role(h), by_role(f), "{what}: edges by role");
        for i in 0..h.len() {
            for j in 0..h.len() {
                assert_eq!(
                    shares(h, i, j),
                    shares(f, i, j),
                    "{what}: container sharing of {} and {}",
                    h.node(i).name,
                    h.node(j).name
                );
            }
        }
    }
    for (i, (h, f)) in hit
        .graph()
        .nodes()
        .iter()
        .zip(fresh.graph().nodes())
        .enumerate()
    {
        assert_eq!(
            hit.halo_descriptors(i),
            fresh.halo_descriptors(i),
            "{what}: halo descriptors of {}",
            h.name
        );
        if let (NodeKind::Halo { exchange: eh }, NodeKind::Halo { exchange: ef }) =
            (&h.kind, &f.kind)
        {
            let uid = eh.data_uid();
            assert!(
                roles.role(uid).is_some() && old_roles.role(uid).is_none(),
                "{what}: {} must refresh the new instance's field",
                h.name
            );
            assert_eq!(
                (uid, eh.depth()),
                (ef.data_uid(), ef.depth()),
                "{what}: {}",
                h.name
            );
        }
    }
}

#[test]
fn a_rebound_plan_mirrors_a_fresh_compile() {
    let programs = [
        Program {
            name: "mirror-cg",
            build: cg,
            options: SkeletonOptions::default(),
            shape: |p| {
                let g = p.graph();
                (0..g.len()).any(|i| {
                    g.node(i).is_collective() && (0..g.len()).any(|j| j != i && shares(g, i, j))
                })
            },
        },
        Program {
            name: "mirror-occ",
            build: occ_split,
            options: SkeletonOptions::with_occ(OccLevel::TwoWayExtended),
            shape: |p| {
                let g = p.graph();
                (0..g.len()).any(|i| {
                    g.node(i).view() == DataView::Internal
                        && (0..g.len())
                            .any(|j| g.node(j).view() == DataView::Boundary && shares(g, i, j))
                })
            },
        },
        Program {
            name: "mirror-merged",
            build: merged_reductions,
            options: SkeletonOptions::default(),
            // One collective of its own over both reductions, not one
            // sharing the fused group's container.
            shape: |p| {
                let g = p.graph();
                (0..g.len()).any(|i| {
                    let n = g.node(i);
                    n.is_collective()
                        && n.container().is_some_and(|c| c.fused_members().len() == 2)
                        && !(0..g.len()).any(|j| j != i && shares(g, i, j))
                })
            },
        },
        Program {
            name: "mirror-temporal",
            build: temporal_rhs,
            options: SkeletonOptions {
                fusion: FusionLevel::Temporal(2),
                ..Default::default()
            },
            shape: |p| {
                p.temporal_k() == 2 && p.graph().nodes().iter().filter(|n| n.is_halo()).count() == 2
            },
        },
        Program {
            name: "mirror-d3q19",
            build: d3q19,
            options: SkeletonOptions::default(),
            shape: |p| p.graph().nodes().iter().filter(|n| n.is_halo()).count() == 2,
        },
    ];
    for ndev in [2, 8] {
        let b = Backend::dgx_a100(ndev);
        for p in &programs {
            let what = format!("{} on {ndev} devices", p.name);
            let cached = Skeleton::sequence(&b, p.name, (p.build)(&b).seq, p.options);
            let mut inst = (p.build)(&b);
            let mut hit = Skeleton::sequence(&b, p.name, inst.seq.clone(), p.options);
            assert!(hit.compiled_from_cache(), "{what}: must hit");
            let fresh_options = SkeletonOptions {
                cache: false,
                ..p.options
            };
            let mut fresh = Skeleton::sequence(&b, p.name, inst.seq.clone(), fresh_options);
            assert!((p.shape)(hit.plan()), "{what}: the program lost its shape");
            assert_mirrors(&what, hit.plan(), fresh.plan(), cached.plan());

            let iters = 2 / hit.logical_iters_per_execution();
            (inst.reset)();
            hit.run_iters(iters);
            let hit_bits = (inst.bits)();
            (inst.reset)();
            fresh.run_iters(iters);
            assert_eq!(hit_bits, (inst.bits)(), "{what}: result bits");
        }
    }
}
