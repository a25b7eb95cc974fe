//! Property tests of the pass pipeline: for randomized container
//! sequences, the inter-pass validator accepts the IR at every OCC level,
//! functional results are bit-identical across OCC levels, and a plan
//! rebound from the cache executes identically to a fresh compile.

use neon_core::{validate_ir, FunctionalMode, HaloPolicy, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike,
    MemLayout, ScalarSet, Stencil, StorageMode,
};
use neon_sys::Backend;
use proptest::prelude::*;

/// One step of a randomized sequence. The fields are integer-valued so
/// every arithmetic result is exact in f64 — bit-identity across OCC
/// levels is then a real property, not a tolerance.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `x ← 2x + 1` (read-write map).
    MapX,
    /// `y ← y + 3` (read-write map).
    MapY,
    /// `y ← Σ ngh(x)` (7-point stencil read of x).
    StencilXy,
    /// `x ← Σ ngh(y)` (7-point stencil read of y).
    StencilYx,
    /// `a ← x·y` (reduction).
    DotA,
    /// `b ← y·y` (reduction).
    DotB,
}

const OPS: [Op; 6] = [
    Op::MapX,
    Op::MapY,
    Op::StencilXy,
    Op::StencilYx,
    Op::DotA,
    Op::DotB,
];

struct Setup {
    backend: Backend,
    grid: DenseGrid,
    x: Field<f64, DenseGrid>,
    y: Field<f64, DenseGrid>,
    dot_a: ScalarSet<f64>,
    dot_b: ScalarSet<f64>,
}

fn setup(n_dev: usize) -> Setup {
    let backend = Backend::dgx_a100(n_dev);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(&backend, Dim3::new(5, 4, 16), &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&grid, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&grid, "y", 1, 0.0, MemLayout::SoA).unwrap();
    x.fill(|a, b, c, _| ((a * 31 + b * 17 + c * 7) % 13) as f64 - 6.0);
    y.fill(|a, b, c, _| ((a * 5 + b * 3 + c) % 7) as f64);
    let dot_a = ScalarSet::<f64>::new(n_dev, "a", 0.0, |p, q| p + q);
    let dot_b = ScalarSet::<f64>::new(n_dev, "b", 0.0, |p, q| p + q);
    Setup {
        backend,
        grid,
        x,
        y,
        dot_a,
        dot_b,
    }
}

fn stencil_sum(
    g: &DenseGrid,
    name: &'static str,
    from: &Field<f64, DenseGrid>,
    to: &Field<f64, DenseGrid>,
) -> Container {
    let (fc, tc) = (from.clone(), to.clone());
    Container::compute(name, g.as_space(), move |ldr| {
        let fv = ldr.read_stencil(&fc);
        let tv = ldr.write(&tc);
        Box::new(move |c| {
            let mut s = 0.0;
            for slot in 0..6 {
                s += fv.ngh(c, slot, 0);
            }
            tv.set(c, 0, s);
        })
    })
}

fn build_sequence(s: &Setup, ops_list: &[Op]) -> Vec<Container> {
    ops_list
        .iter()
        .map(|op| match op {
            Op::MapX => {
                let xc = s.x.clone();
                Container::compute("mapx", s.grid.as_space(), move |ldr| {
                    let xv = ldr.read_write(&xc);
                    Box::new(move |c| xv.set(c, 0, 2.0 * xv.at(c, 0) + 1.0))
                })
            }
            Op::MapY => {
                let yc = s.y.clone();
                Container::compute("mapy", s.grid.as_space(), move |ldr| {
                    let yv = ldr.read_write(&yc);
                    Box::new(move |c| yv.set(c, 0, yv.at(c, 0) + 3.0))
                })
            }
            Op::StencilXy => stencil_sum(&s.grid, "stxy", &s.x, &s.y),
            Op::StencilYx => stencil_sum(&s.grid, "styx", &s.y, &s.x),
            Op::DotA => ops::dot(&s.grid, &s.x, &s.y, &s.dot_a),
            Op::DotB => ops::dot(&s.grid, &s.y, &s.y, &s.dot_b),
        })
        .collect()
}

/// Compile + run one randomized sequence, returning the full observable
/// state: both fields (exact bits) and both reduction scalars.
fn run_case(ops_list: &[Op], n_dev: usize, occ: OccLevel) -> (Vec<u64>, f64, f64) {
    run_case_opts(
        ops_list,
        n_dev,
        occ,
        FunctionalMode::default(),
        HaloPolicy::ExplicitTransfers,
    )
}

fn run_case_opts(
    ops_list: &[Op],
    n_dev: usize,
    occ: OccLevel,
    mode: FunctionalMode,
    halo: HaloPolicy,
) -> (Vec<u64>, f64, f64) {
    let s = setup(n_dev);
    let seq = build_sequence(&s, ops_list);
    let mut sk = Skeleton::try_sequence(
        &s.backend,
        "prop",
        seq,
        SkeletonOptions {
            occ,
            functional_mode: mode,
            halo_policy: halo,
            ..Default::default()
        },
    )
    .expect("validator must accept the pipeline's own output");
    // Validate the final IR once more from the outside (the pipeline
    // already validated it after every pass).
    validate_ir(sk.graph(), Some(sk.schedule()), n_dev, true)
        .expect("final graph + schedule must satisfy all invariants");
    sk.run();
    let mut bits = Vec::new();
    s.x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    s.y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    (bits, s.dot_a.host_value(), s.dot_b.host_value())
}

fn op_sequences() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..OPS.len()).prop_map(|i| OPS[i]), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The validator accepts every intermediate IR for arbitrary
    /// sequences at every OCC level and device count, and the functional
    /// results do not depend on the OCC level — bit for bit.
    #[test]
    fn random_sequences_validate_and_agree_across_occ(
        ops_list in op_sequences(),
        n_dev in 1usize..=4,
    ) {
        let reference = run_case(&ops_list, n_dev, OccLevel::None);
        for occ in [
            OccLevel::Standard,
            OccLevel::Extended,
            OccLevel::TwoWayExtended,
        ] {
            let got = run_case(&ops_list, n_dev, occ);
            prop_assert_eq!(
                &got.0, &reference.0,
                "{:?} changes field bits for {:?} on {} devices",
                occ, ops_list, n_dev
            );
            prop_assert_eq!(got.1, reference.1, "{:?} changes dot a", occ);
            prop_assert_eq!(got.2, reference.2, "{:?} changes dot b", occ);
        }
    }

    /// The event-driven parallel replay
    /// must be bit-identical to the serial reference walk for arbitrary
    /// sequences — across OCC levels, 1/2/4/8 devices, and both halo
    /// policies. The halo policy only shapes the virtual-clock replay, so
    /// it appearing in a functional diff would itself be a bug.
    #[test]
    fn parallel_replay_is_bit_identical_to_serial(
        ops_list in op_sequences(),
        dev_pick in 0usize..4,
        occ_pick in 0usize..4,
        unified_halo in any::<bool>(),
    ) {
        let n_dev = [1, 2, 4, 8][dev_pick];
        let occ = [
            OccLevel::None,
            OccLevel::Standard,
            OccLevel::Extended,
            OccLevel::TwoWayExtended,
        ][occ_pick];
        let halo = if unified_halo {
            HaloPolicy::UnifiedMemory
        } else {
            HaloPolicy::ExplicitTransfers
        };
        let reference = run_case_opts(&ops_list, n_dev, occ, FunctionalMode::Serial, halo);
        let got = run_case_opts(&ops_list, n_dev, occ, FunctionalMode::Parallel, halo);
        prop_assert_eq!(
            &got.0, &reference.0,
            "parallel changes field bits for {:?} at {:?} on {} devices",
            ops_list, occ, n_dev
        );
        prop_assert_eq!(got.1, reference.1, "parallel changes dot a");
        prop_assert_eq!(got.2, reference.2, "parallel changes dot b");
    }
}

/// A plan rebound from the cache must execute exactly like the fresh
/// compile it was rebound from: same ExecReport, span for span.
#[test]
fn cached_plan_reports_identical_to_fresh() {
    let run = |cache: bool| {
        let s = setup(3);
        let seq = build_sequence(
            &s,
            &[Op::MapX, Op::StencilXy, Op::DotB, Op::MapY, Op::StencilYx],
        );
        let mut sk = Skeleton::sequence(
            &s.backend,
            "cached-vs-fresh",
            seq,
            SkeletonOptions {
                occ: OccLevel::Extended,
                cache,
                ..Default::default()
            },
        );
        (sk.compiled_from_cache(), sk.run_iters(3))
    };
    let (_, fresh) = run(false);
    let _ = run(true); // warm the cache (miss or hit, either is fine)
    let (from_cache, cached) = run(true);
    assert!(from_cache, "second cached build must be a hit");
    assert_eq!(fresh.makespan.as_us(), cached.makespan.as_us());
    assert_eq!(fresh.kernel_time.as_us(), cached.kernel_time.as_us());
    assert_eq!(fresh.transfer_time.as_us(), cached.transfer_time.as_us());
    assert_eq!(fresh.host_time.as_us(), cached.host_time.as_us());
}
