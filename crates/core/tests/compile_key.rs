//! The plan-cache key is [`neon_core::CompileKey`]: the six options the
//! passes read. Everything else in [`SkeletonOptions`] configures the
//! executor, so skeletons that differ only there must share one compiled
//! plan and still run exactly as if each had compiled its own. And a
//! program's dispatch form (span kernels or per-cell closures) is not part
//! of the key either, so a span program and its `ops::reference` twin
//! share one plan.

use std::sync::Arc;

use neon_core::{
    CollectiveAlgorithm, CollectiveMode, FunctionalMode, HaloPolicy, ResilienceOptions, Skeleton,
    SkeletonOptions,
};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldRead as _, FieldStencil as _, FieldWrite as _,
    GridLike as _, MemLayout, ScalarSet, Stencil, StorageMode,
};
use neon_sys::Backend;

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
            halo_policy: HaloPolicy::unified_default(),
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
