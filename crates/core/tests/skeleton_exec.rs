//! End-to-end tests of the Skeleton: functional correctness across device
//! counts and OCC levels, and timing behaviour of the virtual clock.

use neon_core::{OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldRead as _, FieldStencil as _, FieldWrite as _,
    GridLike, MemLayout, Offset3, ScalarSet, SparseGrid, Stencil, StorageMode,
};
use neon_sys::{Backend, SpanKind};

/// Build the Laplacian stencil container (7-point, matrix-free).
fn laplacian<G: GridLike>(g: &G, input: &Field<f64, G>, out: &Field<f64, G>) -> Container {
    let (xc, yc) = (input.clone(), out.clone());
    Container::compute("laplacian", g.as_space(), move |ldr| {
        let xv = ldr.read_stencil(&xc);
        let yv = ldr.write(&yc);
        Box::new(move |c| {
            let mut s = 0.0;
            for slot in 0..6 {
                s += xv.ngh(c, slot, 0);
            }
            yv.set(c, 0, s - 6.0 * xv.at(c, 0));
        })
    })
}

fn checkerboard(x: i32, y: i32, z: i32) -> f64 {
    ((x * 31 + y * 17 + z * 7) % 13) as f64 - 6.0
}

/// Run map → laplacian → dot on `n_dev` devices and return (field, dot).
fn run_pipeline(n_dev: usize, occ: OccLevel) -> (Vec<f64>, f64) {
    let b = Backend::dgx_a100(n_dev);
    let st = Stencil::seven_point();
    let dim = Dim3::new(6, 5, 16);
    let g = DenseGrid::new(&b, dim, &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
    let dot = ScalarSet::<f64>::new(n_dev, "dot", 0.0, |a, b| a + b);
    x.fill(|x, y, z, _| checkerboard(x, y, z));

    // A map that perturbs x (so the halo machinery is actually exercised),
    // then the stencil, then a reduction.
    let perturb = {
        let xc = x.clone();
        Container::compute("perturb", g.as_space(), move |ldr| {
            let xv = ldr.read_write(&xc);
            Box::new(move |c| xv.set(c, 0, xv.at(c, 0) * 2.0 + 1.0))
        })
    };
    let mut sk = Skeleton::sequence(
        &b,
        "pipeline",
        vec![perturb, laplacian(&g, &x, &y), ops::dot(&g, &y, &y, &dot)],
        SkeletonOptions::with_occ(occ),
    );
    assert!(sk.is_functional());
    sk.run();

    let mut vals = Vec::new();
    for z in 0..16 {
        for yy in 0..5 {
            for xx in 0..6 {
                vals.push(y.get(xx, yy, z, 0).unwrap());
            }
        }
    }
    (vals, dot.host_value())
}

#[test]
fn multi_gpu_matches_single_gpu() {
    let (ref_vals, ref_dot) = run_pipeline(1, OccLevel::None);
    for n in [2, 4, 8] {
        let (vals, dotv) = run_pipeline(n, OccLevel::None);
        assert_eq!(vals, ref_vals, "{n} devices diverge from 1 device");
        assert!((dotv - ref_dot).abs() < 1e-9 * ref_dot.abs().max(1.0));
    }
}

#[test]
fn occ_levels_do_not_change_results() {
    let (ref_vals, ref_dot) = run_pipeline(4, OccLevel::None);
    for occ in [
        OccLevel::Standard,
        OccLevel::Extended,
        OccLevel::TwoWayExtended,
    ] {
        let (vals, dotv) = run_pipeline(4, occ);
        assert_eq!(vals, ref_vals, "{occ} changes results");
        assert!((dotv - ref_dot).abs() < 1e-9 * ref_dot.abs().max(1.0));
    }
}

#[test]
fn occ_reduces_makespan_when_comm_bound() {
    // Large halo (card 8, SoA) + moderate compute: communication matters.
    let mk = |occ: OccLevel| {
        let b = Backend::gv100_pcie(4); // slow PCIe links stress comm
        let st = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(64, 64, 64), &[&st], StorageMode::Virtual).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 8, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 8, 0.0, MemLayout::SoA).unwrap();
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
        let mut sk = Skeleton::sequence(
            &b,
            "comm-bound",
            vec![upd, sten],
            SkeletonOptions::with_occ(occ),
        );
        sk.run_iters(10).time_per_execution().as_us()
    };
    let none = mk(OccLevel::None);
    let std = mk(OccLevel::Standard);
    let ext = mk(OccLevel::Extended);
    assert!(
        std < none * 0.999,
        "Standard OCC should beat no OCC: {std} vs {none}"
    );
    assert!(
        ext <= std * 1.001,
        "Extended should not be slower here: {ext} vs {std}"
    );
}

#[test]
fn trace_shows_transfer_compute_overlap() {
    let b = Backend::dgx_a100(2);
    let st = Stencil::seven_point();
    let g = DenseGrid::new(&b, Dim3::new(32, 32, 32), &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&g, "x", 4, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&g, "y", 4, 0.0, MemLayout::SoA).unwrap();
    let sten = {
        let (xc, yc) = (x.clone(), y.clone());
        Container::compute("stencil", g.as_space(), move |ldr| {
            let xv = ldr.read_stencil(&xc);
            let yv = ldr.write(&yc);
            Box::new(move |c| yv.set(c, 0, xv.ngh(c, 0, 0)))
        })
    };
    let mut opts = SkeletonOptions::with_occ(OccLevel::Standard);
    opts.trace = true;
    let mut sk = Skeleton::sequence(&b, "traced", vec![sten], opts);
    sk.run();
    let trace = sk.take_trace().expect("trace enabled");
    let spans = trace.spans();
    let transfers: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Transfer)
        .collect();
    let kernels: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel)
        .collect();
    assert!(!transfers.is_empty());
    // The internal kernel halves overlap some transfer in time.
    let internal: Vec<_> = kernels
        .iter()
        .filter(|k| k.name.ends_with(".int"))
        .collect();
    assert!(!internal.is_empty(), "stencil was split");
    let overlap = internal.iter().any(|k| {
        transfers
            .iter()
            .any(|t| k.start.as_us() < t.end.as_us() && t.start.as_us() < k.end.as_us())
    });
    assert!(overlap, "internal compute should overlap halo transfers");
}

#[test]
fn cg_style_scalar_flow() {
    // x ← x + alpha·y with alpha = dot(y,y)/len computed by a host node.
    let n_dev = 2;
    let b = Backend::dgx_a100(n_dev);
    let st = Stencil::seven_point();
    let g = DenseGrid::new(&b, Dim3::new(4, 4, 8), &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
    x.fill(|_, _, _, _| 0.0);
    y.fill(|_, _, _, _| 2.0);
    let dot = ScalarSet::<f64>::new(n_dev, "dot", 0.0, |a, b| a + b);
    let alpha = ScalarSet::<f64>::new(n_dev, "alpha", 0.0, |a, b| a + b);
    let n_cells = g.active_cells() as f64;

    let host_alpha = {
        let (d, a) = (dot.clone(), alpha.clone());
        Container::host("alpha=dot/n", n_dev, move |ldr| {
            let dv = ldr.scalar_reader(&d);
            let aw = ldr.scalar_writer(&a);
            Box::new(move || aw.set(dv.get() / n_cells))
        })
    };
    let mut sk = Skeleton::sequence(
        &b,
        "cg-ish",
        vec![
            ops::dot(&g, &y, &y, &dot),
            host_alpha,
            ops::axpy_scalar(&g, &alpha, 1.0, &y, &x),
        ],
        SkeletonOptions::default(),
    );
    sk.run();
    // dot = 4·n, alpha = 4, x = 0 + 4·2 = 8.
    assert_eq!(dot.host_value(), 4.0 * n_cells);
    assert_eq!(alpha.host_value(), 4.0);
    x.for_each(|_, _, _, _, v| assert_eq!(v, 8.0));

    // Second iteration reuses the same skeleton: x = 8 + 4·2 = 16.
    sk.run();
    x.for_each(|_, _, _, _, v| assert_eq!(v, 16.0));
}

#[test]
fn cpu_backend_runs_single_stream() {
    let b = Backend::cpu();
    let st = Stencil::seven_point();
    let g = DenseGrid::new(&b, Dim3::new(4, 4, 8), &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
    x.fill(|_, _, _, _| 1.0);
    let mut sk = Skeleton::sequence(
        &b,
        "cpu",
        vec![laplacian(&g, &x, &y)],
        SkeletonOptions::default(),
    );
    assert_eq!(sk.schedule().num_streams, 1);
    sk.run();
    // Interior cells of a constant field have zero Laplacian.
    assert_eq!(y.get(2, 2, 4, 0), Some(0.0));
    // Corner cell: 3 missing neighbours (outside value 0).
    assert_eq!(y.get(0, 0, 0, 0), Some(-3.0));
}

#[test]
fn virtual_and_real_storage_time_identically() {
    let mk = |mode: StorageMode| {
        let b = Backend::dgx_a100(4);
        let st = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(16, 16, 32), &[&st], mode).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
        let mut sk = Skeleton::sequence(
            &b,
            "sized",
            vec![laplacian(&g, &x, &y)],
            SkeletonOptions::with_occ(OccLevel::Standard),
        );
        sk.run_iters(3).makespan.as_us()
    };
    let real = mk(StorageMode::Real);
    let virt = mk(StorageMode::Virtual);
    assert!(
        (real - virt).abs() < 1e-9,
        "timing model must not depend on storage: {real} vs {virt}"
    );
}

#[test]
fn sparse_grid_through_skeleton() {
    let n_dev = 2;
    let b = Backend::dgx_a100(n_dev);
    let st = Stencil::seven_point();
    let dim = Dim3::new(8, 8, 16);
    // Active: a thick plate spanning all z (so both devices have cells).
    let dg = DenseGrid::new(&b, dim, &[&st], StorageMode::Real).unwrap();
    let sg = SparseGrid::new(&b, dim, &[&st], |x, _, _| x < 6, StorageMode::Real).unwrap();

    let dx = Field::<f64, _>::new(&dg, "dx", 1, 0.0, MemLayout::SoA).unwrap();
    let dy = Field::<f64, _>::new(&dg, "dy", 1, 0.0, MemLayout::SoA).unwrap();
    let sx = Field::<f64, _>::new(&sg, "sx", 1, 0.0, MemLayout::SoA).unwrap();
    let sy = Field::<f64, _>::new(&sg, "sy", 1, 0.0, MemLayout::SoA).unwrap();
    // The dense reference masks the same region by zeroing outside; to get
    // identical stencil results at interior active cells away from the
    // mask edge, fill both with the same values inside the mask.
    dx.fill(|x, y, z, _| if x < 6 { checkerboard(x, y, z) } else { 0.0 });
    sx.fill(|x, y, z, _| checkerboard(x, y, z));

    let mut skd = Skeleton::sequence(
        &b,
        "dense",
        vec![laplacian(&dg, &dx, &dy)],
        SkeletonOptions::default(),
    );
    skd.run();
    let mut sks = Skeleton::sequence(
        &b,
        "sparse",
        vec![laplacian(&sg, &sx, &sy)],
        SkeletonOptions::default(),
    );
    sks.run();

    // Compare at active cells at least one cell away from the mask edge
    // (x < 5): there the dense zero-padding and the sparse outside-value
    // semantics agree.
    let mut compared = 0;
    for z in 0..16 {
        for y in 0..8 {
            for x in 0..5 {
                let d = dy.get(x, y, z, 0).unwrap();
                let s = sy.get(x, y, z, 0).unwrap();
                assert!(
                    (d - s).abs() < 1e-12,
                    "mismatch at ({x},{y},{z}): {d} vs {s}"
                );
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 5 * 8 * 16);
}

#[test]
fn offset_slot_lookup_is_stable() {
    let b = Backend::dgx_a100(1);
    let st = Stencil::d3q19();
    let g = DenseGrid::new(&b, Dim3::new(8, 8, 8), &[&st], StorageMode::Real).unwrap();
    for (q, o) in neon_domain::d3q19_offsets().iter().enumerate() {
        assert_eq!(g.slot_of(*o), Some(q));
    }
    assert_eq!(g.slot_of(Offset3::new(1, 1, 1)), None);
}

#[test]
fn dot_export_and_schedule_render() {
    let b = Backend::dgx_a100(2);
    let st = Stencil::seven_point();
    let g = DenseGrid::new(&b, Dim3::new(4, 4, 8), &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
    let dot_s = ScalarSet::<f64>::new(2, "dot", 0.0, |a, b| a + b);
    let sk = Skeleton::sequence(
        &b,
        "render",
        vec![
            ops::set_value(&g, &x, 1.0),
            laplacian(&g, &x, &y),
            ops::dot(&g, &y, &y, &dot_s),
        ],
        // Fusion would merge laplacian+dot into one reduce node, which OCC
        // leaves whole — this test renders the split .int/.bnd halves.
        SkeletonOptions {
            fusion: neon_core::FusionLevel::Off,
            ..SkeletonOptions::with_occ(OccLevel::TwoWayExtended)
        },
    );
    let dot = sk.graph().to_dot("render");
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("lightblue"), "halo node styled: {dot}");
    assert!(dot.contains("palegreen"), "internal halves styled");
    assert!(dot.contains("style=dotted"), "hints rendered");
    assert!(dot.ends_with("}\n"));
    // Every node and edge present.
    for (i, _) in sk.graph().nodes().iter().enumerate() {
        assert!(dot.contains(&format!("n{i} [")));
    }
    let table = sk.schedule().render(sk.graph());
    assert!(table.contains("laplacian.int"));
    assert_eq!(table.lines().count(), sk.graph().len() + 1);
}

#[test]
fn unified_memory_halo_is_slower_and_defeats_occ() {
    use neon_core::HaloPolicy;
    let mk = |policy: HaloPolicy, occ: OccLevel| {
        let b = Backend::dgx_a100(4);
        let st = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(128, 128, 64), &[&st], StorageMode::Virtual).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 8, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 8, 0.0, MemLayout::SoA).unwrap();
        let upd = {
            let xc = x.clone();
            Container::compute("upd", g.as_space(), move |ldr| {
                let xv = ldr.read_write(&xc);
                Box::new(move |c| xv.set(c, 0, xv.at(c, 0)))
            })
        };
        let sten = {
            let (xc, yc) = (x.clone(), y.clone());
            Container::compute("stn", g.as_space(), move |ldr| {
                let xv = ldr.read_stencil(&xc);
                let yv = ldr.write(&yc);
                Box::new(move |c| yv.set(c, 0, xv.ngh(c, 0, 0)))
            })
        };
        let opts = SkeletonOptions {
            occ,
            halo_policy: policy,
            ..Default::default()
        };
        Skeleton::sequence(&b, "um", vec![upd, sten], opts)
            .run_iters(5)
            .time_per_execution()
            .as_us()
    };
    let explicit = mk(neon_core::HaloPolicy::ExplicitTransfers, OccLevel::None);
    let unified = mk(neon_core::HaloPolicy::UnifiedMemory, OccLevel::None);
    assert!(
        unified > explicit * 1.05,
        "unified memory should pay a penalty: {unified} vs {explicit}"
    );
    // OCC helps the explicit model but cannot hide page faults.
    let explicit_occ = mk(neon_core::HaloPolicy::ExplicitTransfers, OccLevel::Standard);
    let unified_occ = mk(neon_core::HaloPolicy::UnifiedMemory, OccLevel::Standard);
    let explicit_gain = explicit / explicit_occ;
    let unified_gain = unified / unified_occ;
    assert!(
        explicit_gain > unified_gain + 0.01,
        "OCC gain explicit {explicit_gain:.3} vs unified {unified_gain:.3}"
    );
}

#[test]
fn unified_memory_preserves_functional_results() {
    use neon_core::HaloPolicy;
    let run = |policy: HaloPolicy| {
        let b = Backend::dgx_a100(3);
        let st = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, 9), &[&st], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
        x.fill(|a, b, c, _| (a + 2 * b + 3 * c) as f64);
        let mut opts = SkeletonOptions::with_occ(OccLevel::Standard);
        opts.halo_policy = policy;
        let mut sk = Skeleton::sequence(&b, "umf", vec![laplacian(&g, &x, &y)], opts);
        sk.run();
        let mut out = Vec::new();
        y.for_each(|_, _, _, _, v| out.push(v));
        out
    };
    let a = run(HaloPolicy::ExplicitTransfers);
    let b = run(HaloPolicy::UnifiedMemory);
    assert_eq!(a, b);
}
