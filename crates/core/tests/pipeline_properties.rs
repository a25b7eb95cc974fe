//! Property tests of the pass pipeline: for randomized container
//! sequences, the inter-pass validator accepts the IR at every OCC and
//! fusion level, functional results are bit-identical across those
//! levels, and a plan rebound from the cache executes identically to a
//! fresh compile.

use neon_core::{
    validate_ir, FunctionalMode, FusionLevel, HaloPolicy, OccLevel, Skeleton, SkeletonOptions,
};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike,
    MemLayout, ScalarSet, Stencil, StorageMode,
};
use neon_sys::Backend;
use proptest::prelude::*;

/// One step of a randomized sequence over the fields `x`, `y`, `z`
/// (indices 0, 1, 2). The fields are integer-valued so every arithmetic
/// result is exact in f64 — bit-identity across OCC and fusion levels is
/// then a real property, not a tolerance.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `f ← 2f + 1` (read-write map).
    Map(usize),
    /// `f ← f + g, g ← g + 3` (read-write map of two fields).
    Map2(usize, usize),
    /// `to ← Σ ngh(from)` (7-point stencil read of `from`).
    Stencil(usize, usize),
    /// `a ← x·y` (reduction).
    DotA,
    /// `b ← y·y` (reduction).
    DotB,
    /// `y ← a·x + y`, reading the reduced scalar `a` (only in the
    /// deterministic test below: chained with dots, its values would
    /// outgrow exact f64 integers).
    AxpyA,
    /// `c ← a mod 3`, a host step reading the reduced scalar `a`.
    Host,
    /// `z ← c·x + z`, reading the host-written scalar `c`.
    AxpyC,
}

/// Every op: three maps, six two-field maps, six stencils, two dots, a
/// host step and the axpy that reads its scalar.
fn all_ops() -> Vec<Op> {
    let mut ops: Vec<Op> = (0..3).map(Op::Map).collect();
    for f in 0..3 {
        for g in (0..3).filter(|&g| g != f) {
            ops.push(Op::Map2(f, g));
            ops.push(Op::Stencil(f, g));
        }
    }
    ops.extend([Op::DotA, Op::DotB, Op::Host, Op::AxpyC]);
    ops
}

/// The fusion axis: off, the bit-identical default, and two-step
/// temporal blocking.
const FUSIONS: [FusionLevel; 3] = [
    FusionLevel::Off,
    FusionLevel::Conservative,
    FusionLevel::Temporal(2),
];

struct Setup {
    backend: Backend,
    grid: DenseGrid,
    fields: [Field<f64, DenseGrid>; 3],
    dot_a: ScalarSet<f64>,
    dot_b: ScalarSet<f64>,
    /// Written by the host step.
    c: ScalarSet<f64>,
}

fn setup(n_dev: usize) -> Setup {
    let backend = Backend::dgx_a100(n_dev);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(&backend, Dim3::new(5, 4, 16), &[&st], StorageMode::Real).unwrap();
    let fields =
        ["x", "y", "z"].map(|n| Field::<f64, _>::new(&grid, n, 1, 0.0, MemLayout::SoA).unwrap());
    fields[0].fill(|a, b, c, _| ((a * 31 + b * 17 + c * 7) % 13) as f64 - 6.0);
    fields[1].fill(|a, b, c, _| ((a * 5 + b * 3 + c) % 7) as f64);
    fields[2].fill(|a, b, c, _| ((a * 3 + b * 11 + c * 5) % 5) as f64 - 2.0);
    let dot_a = ScalarSet::<f64>::new(n_dev, "a", 0.0, |p, q| p + q);
    let dot_b = ScalarSet::<f64>::new(n_dev, "b", 0.0, |p, q| p + q);
    let c = ScalarSet::<f64>::new(n_dev, "c", 0.0, |p, q| p + q);
    Setup {
        backend,
        grid,
        fields,
        dot_a,
        dot_b,
        c,
    }
}

fn stencil_sum(
    g: &DenseGrid,
    name: &str,
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

const NAMES: [&str; 3] = ["x", "y", "z"];

fn build_sequence(s: &Setup, ops_list: &[Op]) -> Vec<Container> {
    let [x, y, z] = &s.fields;
    ops_list
        .iter()
        .map(|op| match *op {
            Op::Map(f) => {
                let fc = s.fields[f].clone();
                Container::compute(&format!("map{}", NAMES[f]), s.grid.as_space(), move |ldr| {
                    let fv = ldr.read_write(&fc);
                    Box::new(move |c| fv.set(c, 0, 2.0 * fv.at(c, 0) + 1.0))
                })
            }
            Op::Map2(f, g) => {
                let (fc, gc) = (s.fields[f].clone(), s.fields[g].clone());
                let name = format!("map{}{}", NAMES[f], NAMES[g]);
                Container::compute(&name, s.grid.as_space(), move |ldr| {
                    let (fv, gv) = (ldr.read_write(&fc), ldr.read_write(&gc));
                    Box::new(move |c| {
                        fv.set(c, 0, fv.at(c, 0) + gv.at(c, 0));
                        gv.set(c, 0, gv.at(c, 0) + 3.0);
                    })
                })
            }
            Op::Stencil(from, to) => stencil_sum(
                &s.grid,
                &format!("st{}{}", NAMES[from], NAMES[to]),
                &s.fields[from],
                &s.fields[to],
            ),
            Op::DotA => ops::dot(&s.grid, x, y, &s.dot_a),
            Op::DotB => ops::dot(&s.grid, y, y, &s.dot_b),
            Op::AxpyA => ops::axpy_scalar(&s.grid, &s.dot_a, 1.0, x, y),
            Op::Host => {
                let (a, c) = (s.dot_a.clone(), s.c.clone());
                Container::host("host-c", s.grid.num_partitions(), move |ldr| {
                    let (ar, cw) = (ldr.scalar_reader(&a), ldr.scalar_writer(&c));
                    Box::new(move || cw.set(ar.get().rem_euclid(3.0)))
                })
            }
            Op::AxpyC => ops::axpy_scalar(&s.grid, &s.c, 1.0, x, z),
        })
        .collect()
}

/// The observable state after a run: every field's exact bits, both
/// reduction scalars and the host step's scalar.
type State = (Vec<u64>, f64, f64, f64);

/// Compile + run one sequence for `logical` logical iterations (a
/// temporal super-step covers `k` of them per execution), returning the
/// state it leaves.
fn run_case_opts(ops_list: &[Op], n_dev: usize, options: SkeletonOptions, logical: usize) -> State {
    let s = setup(n_dev);
    let seq = build_sequence(&s, ops_list);
    let mut sk = Skeleton::try_sequence(&s.backend, "prop", seq, options)
        .expect("validator must accept the pipeline's own output");
    // Validate the final IR once more from the outside (the pipeline
    // already validated it after every pass).
    validate_ir(sk.graph(), Some(sk.schedule()), n_dev, true)
        .expect("final graph + schedule must satisfy all invariants");
    let k = sk.logical_iters_per_execution();
    assert_eq!(logical % k, 0, "{logical} logical iterations, k = {k}");
    sk.run_iters(logical / k);
    let mut bits = Vec::new();
    for f in &s.fields {
        f.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    }
    (
        bits,
        s.dot_a.host_value(),
        s.dot_b.host_value(),
        s.c.host_value(),
    )
}

/// The state `ops_list` leaves under `occ` and `fusion`, and the state
/// the unfused, un-overlapped reference leaves after as many logical
/// iterations (one, or `k` under `Temporal(k)`).
fn run_against_reference(
    ops_list: &[Op],
    n_dev: usize,
    occ: OccLevel,
    fusion: FusionLevel,
) -> (State, State) {
    let logical = match fusion {
        FusionLevel::Temporal(k) => k as usize,
        _ => 1,
    };
    let options = SkeletonOptions {
        occ,
        fusion,
        ..Default::default()
    };
    let got = run_case_opts(ops_list, n_dev, options, logical);
    let reference = SkeletonOptions::with_occ(OccLevel::None);
    (got, run_case_opts(ops_list, n_dev, reference, logical))
}

fn op_sequences() -> impl Strategy<Value = Vec<Op>> {
    let ops = all_ops();
    prop::collection::vec((0usize..ops.len()).prop_map(move |i| ops[i]), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The validator accepts every intermediate IR for arbitrary
    /// sequences at every OCC level, fusion level and device count, and
    /// the functional results do not depend on either level — bit for
    /// bit.
    #[test]
    fn random_sequences_validate_and_agree_across_occ(
        ops_list in op_sequences(),
        n_dev in 1usize..=4,
        fusion_pick in 0usize..3,
    ) {
        let fusion = FUSIONS[fusion_pick];
        for occ in OccLevel::ALL {
            let (got, reference) = run_against_reference(&ops_list, n_dev, occ, fusion);
            prop_assert_eq!(
                &got.0, &reference.0,
                "{:?} with {:?} changes field bits for {:?} on {} devices",
                occ, fusion, ops_list, n_dev
            );
            prop_assert_eq!(got.1, reference.1, "{:?} with {:?} changes dot a", occ, fusion);
            prop_assert_eq!(got.2, reference.2, "{:?} with {:?} changes dot b", occ, fusion);
            prop_assert_eq!(got.3, reference.3, "{:?} with {:?} changes c", occ, fusion);
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
        let occ = OccLevel::ALL[occ_pick];
        let halo_policy = if unified_halo {
            HaloPolicy::UnifiedMemory
        } else {
            HaloPolicy::ExplicitTransfers
        };
        let options = |functional_mode| SkeletonOptions {
            occ,
            functional_mode,
            halo_policy,
            ..Default::default()
        };
        let reference = run_case_opts(&ops_list, n_dev, options(FunctionalMode::Serial), 1);
        let got = run_case_opts(&ops_list, n_dev, options(FunctionalMode::Parallel), 1);
        prop_assert_eq!(
            &got.0, &reference.0,
            "parallel changes field bits for {:?} at {:?} on {} devices",
            ops_list, occ, n_dev
        );
        prop_assert_eq!(got.1, reference.1, "parallel changes dot a");
        prop_assert_eq!(got.2, reference.2, "parallel changes dot b");
        prop_assert_eq!(got.3, reference.3, "parallel changes c");
    }
}

/// Four containers on two devices whose stencil → second-map conflict on
/// `x` the multi-GPU pass's transitive reduction leaves implied only
/// through `z`'s cell-local edges: `stencil x→z`, `map rw z,y`,
/// `map rw x,z`, `stencil z→x`. Splitting every node (two-way extended
/// OCC) must keep the stencil's internal half ordered before the second
/// map's boundary half, which overwrites `x` cells that half reads.
#[test]
fn a_conflict_implied_through_split_maps_survives_every_occ_and_fusion() {
    let ops = [
        Op::Stencil(0, 2),
        Op::Map2(2, 1),
        Op::Map2(0, 2),
        Op::Stencil(2, 0),
    ];
    for fusion in FUSIONS {
        for occ in OccLevel::ALL {
            let (got, reference) = run_against_reference(&ops, 2, occ, fusion);
            assert_eq!(got, reference, "{occ:?} with {fusion:?}");
        }
    }
}

/// A reduction whose scalar a later split map reads, on two devices:
/// `stencil x→y`, `a ← x·y`, `y ← a·x + y`, `stencil y→x`. Two-way
/// extended OCC splits the dot (it consumes the stencil) and the axpy
/// (it feeds the second stencil's halo), and rewires their cell-local
/// edges half to half, so only the dot's internal half orders the axpy's
/// internal half. Collective lowering must still order the dot's
/// all-reduce, which completes `a`, before every half that reads it.
#[test]
fn a_scalar_read_by_a_split_map_waits_for_the_collective() {
    let ops = [Op::Stencil(0, 1), Op::DotA, Op::AxpyA, Op::Stencil(1, 0)];
    for fusion in FUSIONS {
        for occ in OccLevel::ALL {
            let (got, reference) = run_against_reference(&ops, 2, occ, fusion);
            assert_eq!(got, reference, "{occ:?} with {fusion:?}");
        }
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
            &[
                Op::Map(0),
                Op::Stencil(0, 1),
                Op::DotB,
                Op::Map(1),
                Op::Stencil(1, 0),
            ],
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
