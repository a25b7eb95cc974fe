//! Property tests of the temporal-fuse pass: `FusionLevel::Temporal(k)`
//! must be functionally invisible — bit-identical fields and reduction
//! scalars versus `FusionLevel::Conservative` for the same number of
//! *logical* iterations — at every device count, OCC level and halo
//! policy. When the super-step actually engages on a multi-device run it
//! must execute strictly fewer halo rounds (one deep exchange per `k`
//! iterations instead of one per iteration); when legality fails it must
//! fall back to exactly the conservative pipeline, halo round for halo
//! round.

use neon_core::{FusionLevel, HaloPolicy, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldRead as _, FieldStencil as _, FieldWrite as _,
    GridLike, MemLayout, ScalarSet, Stencil, StorageMode,
};
use neon_sys::Backend;
use proptest::prelude::*;

/// One step of a randomized sequence, integer-valued so every arithmetic
/// result is exact in f64 and bit-identity is a real property.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `x ← 2x + 1` (read-write map; makes a later stencil-read of x an
    /// intra-step hazard, forcing fallback).
    MapX,
    /// `y ← x` (map read x, write y).
    CopyXy,
    /// `x ← y` (map read y, write x — the Jacobi pointer swap).
    CopyYx,
    /// `y ← Σ ngh(x)` (7-point stencil read of x).
    StencilXy,
    /// `x ← Σ ngh(y)` (7-point stencil read of y).
    StencilYx,
    /// `a ← x·y` (reduction — closes super-steps, forcing fallback).
    DotA,
}

const OPS: [Op; 6] = [
    Op::MapX,
    Op::CopyXy,
    Op::CopyYx,
    Op::StencilXy,
    Op::StencilYx,
    Op::DotA,
];

struct Setup {
    backend: Backend,
    grid: DenseGrid,
    x: Field<f64, DenseGrid>,
    y: Field<f64, DenseGrid>,
    dot_a: ScalarSet<f64>,
}

/// Ghost layers stored per side: enough for `k ≤ 4` at radius 1.
const HALO_CAP: usize = 4;

fn setup(n_dev: usize) -> Setup {
    let backend = Backend::dgx_a100(n_dev);
    let st = Stencil::seven_point();
    // 64 z-layers: middle partitions of an 8-device split keep the 8
    // layers the deep halo capacity requires.
    let grid = DenseGrid::with_halo_capacity(
        &backend,
        Dim3::new(4, 4, 64),
        &[&st],
        StorageMode::Real,
        HALO_CAP,
    )
    .unwrap();
    let x = Field::<f64, _>::new(&grid, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&grid, "y", 1, 0.0, MemLayout::SoA).unwrap();
    x.fill(|a, b, c, _| ((a * 31 + b * 17 + c * 7) % 13) as f64 - 6.0);
    y.fill(|a, b, c, _| ((a * 5 + b * 3 + c) % 7) as f64);
    let dot_a = ScalarSet::<f64>::new(n_dev, "a", 0.0, |p, q| p + q);
    Setup {
        backend,
        grid,
        x,
        y,
        dot_a,
    }
}

fn stencil_sum(
    g: &DenseGrid,
    name: &'static str,
    from: &Field<f64, DenseGrid>,
    to: &Field<f64, DenseGrid>,
) -> Container {
    let (fc, tc) = (from.clone(), to.clone());
    Container::compute_opts(
        name,
        g.as_space(),
        move |ldr| {
            let fv = ldr.read_stencil(&fc);
            let tv = ldr.write(&tc);
            Box::new(move |c| {
                let mut s = 0.0;
                for slot in 0..6 {
                    s += fv.ngh(c, slot, 0);
                }
                tv.set(c, 0, s);
            })
        },
        // 6 neighbor adds per cell: gives the virtual-clock model (and the
        // redundant-recompute meter) something nonzero to price.
        6,
        1.0,
    )
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
            Op::CopyXy => {
                let (xc, yc) = (s.x.clone(), s.y.clone());
                Container::compute("copyxy", s.grid.as_space(), move |ldr| {
                    let xv = ldr.read(&xc);
                    let yv = ldr.write(&yc);
                    Box::new(move |c| yv.set(c, 0, xv.at(c, 0)))
                })
            }
            Op::CopyYx => ops::copy(&s.grid, &s.y, &s.x),
            Op::StencilXy => stencil_sum(&s.grid, "stxy", &s.x, &s.y),
            Op::StencilYx => stencil_sum(&s.grid, "styx", &s.y, &s.x),
            Op::DotA => ops::dot(&s.grid, &s.x, &s.y, &s.dot_a),
        })
        .collect()
}

/// Logical iterations per case; divisible by every tested `k`.
const LOGICAL_ITERS: usize = 12;

struct CaseResult {
    bits: Vec<u64>,
    dot: f64,
    halo_rounds: u64,
    redundant_flops: u64,
    /// Iterations one execution performed (k if the super-step engaged).
    iters_per_exec: usize,
}

/// Compile + run `LOGICAL_ITERS` logical iterations of one sequence at a
/// fusion level, returning the observable state and metered counters.
fn run_case(
    ops_list: &[Op],
    n_dev: usize,
    occ: OccLevel,
    halo: HaloPolicy,
    fusion: FusionLevel,
) -> CaseResult {
    let s = setup(n_dev);
    let seq = build_sequence(&s, ops_list);
    let mut sk = Skeleton::sequence(
        &s.backend,
        "temporalprop",
        seq,
        SkeletonOptions {
            occ,
            halo_policy: halo,
            fusion,
            ..Default::default()
        },
    );
    let iters_per_exec = sk.logical_iters_per_execution();
    assert_eq!(
        LOGICAL_ITERS % iters_per_exec,
        0,
        "test iteration count must divide by the super-step depth"
    );
    let report = sk.run_iters(LOGICAL_ITERS / iters_per_exec);
    let mut bits = Vec::new();
    s.x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    s.y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    CaseResult {
        bits,
        dot: s.dot_a.host_value(),
        halo_rounds: report.halo_rounds,
        redundant_flops: report.redundant_flops,
        iters_per_exec,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Temporal(k)` is bit-identical to `Conservative` over the same
    /// logical iteration count for arbitrary sequences — whether the
    /// super-step engages (deep halo + ghost recompute) or legality
    /// fails (fallback). When it engages on 2+ devices it runs strictly
    /// fewer halo rounds; when it falls back the rounds are equal.
    #[test]
    fn temporal_is_bit_identical_to_conservative(
        ops_list in prop::collection::vec((0usize..OPS.len()).prop_map(|i| OPS[i]), 1..4),
        k in 2u8..5,
        dev_pick in 0usize..4,
        occ_pick in 0usize..4,
        unified_halo in any::<bool>(),
    ) {
        let n_dev = [1, 2, 4, 8][dev_pick];
        let occ = OccLevel::ALL[occ_pick];
        let halo = if unified_halo {
            HaloPolicy::UnifiedMemory
        } else {
            HaloPolicy::ExplicitTransfers
        };
        let cons = run_case(&ops_list, n_dev, occ, halo, FusionLevel::Conservative);
        let temp = run_case(&ops_list, n_dev, occ, halo, FusionLevel::Temporal(k));
        prop_assert_eq!(
            &temp.bits, &cons.bits,
            "temporal blocking changes field bits for {:?} k={} at {:?} on {} devices",
            ops_list, k, occ, n_dev
        );
        prop_assert_eq!(temp.dot, cons.dot, "temporal blocking changes dot a");
        if temp.iters_per_exec > 1 {
            prop_assert_eq!(temp.iters_per_exec, k as usize);
            if n_dev >= 2 {
                prop_assert!(
                    temp.halo_rounds < cons.halo_rounds,
                    "super-step must shrink halo rounds ({} -> {}) for {:?} k={} on {} devices",
                    cons.halo_rounds, temp.halo_rounds, ops_list, k, n_dev
                );
                prop_assert_eq!(
                    temp.halo_rounds * k as u64, cons.halo_rounds,
                    "one deep round per k iterations"
                );
            }
        } else {
            prop_assert_eq!(
                temp.halo_rounds, cons.halo_rounds,
                "fallback must match conservative round for round"
            );
            prop_assert_eq!(temp.redundant_flops, 0u64, "fallback recomputes nothing");
        }
    }
}

/// The canonical engagement case: a Jacobi-style sweep (stencil + pointer
/// swap). Deterministic over every `k` × device-count cell so counter
/// expectations can be exact.
#[test]
fn jacobi_super_step_engages_and_matches() {
    let jacobi = [Op::StencilXy, Op::CopyYx];
    for n_dev in [1usize, 2, 4, 8] {
        let cons = run_case(
            &jacobi,
            n_dev,
            OccLevel::Standard,
            HaloPolicy::ExplicitTransfers,
            FusionLevel::Conservative,
        );
        assert_eq!(cons.redundant_flops, 0, "conservative recomputes nothing");
        for k in 2u8..5 {
            let temp = run_case(
                &jacobi,
                n_dev,
                OccLevel::Standard,
                HaloPolicy::ExplicitTransfers,
                FusionLevel::Temporal(k),
            );
            assert_eq!(
                temp.iters_per_exec, k as usize,
                "super-step must engage on the Jacobi sweep (k={k}, {n_dev} devices)"
            );
            assert_eq!(
                temp.bits, cons.bits,
                "ghost-zone recompute must be bit-identical (k={k}, {n_dev} devices)"
            );
            if n_dev >= 2 {
                assert_eq!(
                    cons.halo_rounds, LOGICAL_ITERS as u64,
                    "conservative exchanges once per iteration"
                );
                assert_eq!(
                    temp.halo_rounds,
                    (LOGICAL_ITERS / k as usize) as u64,
                    "temporal exchanges once per super-step"
                );
                assert!(
                    temp.redundant_flops > 0,
                    "ghost recompute must be metered (k={k}, {n_dev} devices)"
                );
            } else {
                assert_eq!(temp.halo_rounds, 0);
                assert_eq!(cons.halo_rounds, 0);
                assert_eq!(
                    temp.redundant_flops, 0,
                    "one device has no ghost zone to recompute"
                );
            }
        }
    }
}

/// Reductions close super-steps: the same sweep plus a dot product must
/// fall back to the conservative pipeline, bit for bit and round for
/// round.
#[test]
fn reduction_closes_the_super_step() {
    let seq = [Op::StencilXy, Op::CopyYx, Op::DotA];
    let cons = run_case(
        &seq,
        4,
        OccLevel::Standard,
        HaloPolicy::ExplicitTransfers,
        FusionLevel::Conservative,
    );
    let temp = run_case(
        &seq,
        4,
        OccLevel::Standard,
        HaloPolicy::ExplicitTransfers,
        FusionLevel::Temporal(3),
    );
    assert_eq!(temp.iters_per_exec, 1, "reduction must force fallback");
    assert_eq!(temp.bits, cons.bits);
    assert_eq!(temp.dot, cons.dot);
    assert_eq!(temp.halo_rounds, cons.halo_rounds);
    assert_eq!(temp.redundant_flops, 0);
}

/// A grid without spare ghost capacity cannot host the expanded
/// iteration: the pass must fall back rather than build an illegal step.
#[test]
fn insufficient_ghost_capacity_falls_back() {
    let n_dev = 4;
    let backend = Backend::dgx_a100(n_dev);
    let st = Stencil::seven_point();
    // Default capacity = radius: ghost_capacity() is 0.
    let grid = DenseGrid::new(&backend, Dim3::new(4, 4, 64), &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&grid, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&grid, "y", 1, 0.0, MemLayout::SoA).unwrap();
    x.fill(|a, b, c, _| ((a + b + c) % 5) as f64);
    let seq = vec![stencil_sum(&grid, "stxy", &x, &y), ops::copy(&grid, &y, &x)];
    let sk = Skeleton::sequence(
        &backend,
        "no-capacity",
        seq,
        SkeletonOptions {
            fusion: FusionLevel::Temporal(3),
            cache: false,
            ..Default::default()
        },
    );
    assert_eq!(
        sk.logical_iters_per_execution(),
        1,
        "no spare ghost layers: the super-step must not engage"
    );
}

/// Plan-cache round trip: a temporal plan compiled once must rebind onto
/// a structurally identical fresh sequence and still run the super-step
/// bit-identically.
#[test]
fn temporal_plan_rebinds_from_cache() {
    let run = || {
        let s = setup(4);
        let seq = build_sequence(&s, &[Op::StencilXy, Op::CopyYx]);
        let mut sk = Skeleton::sequence(
            &s.backend,
            "temporal-rebind",
            seq,
            SkeletonOptions {
                fusion: FusionLevel::Temporal(2),
                ..Default::default()
            },
        );
        assert_eq!(sk.logical_iters_per_execution(), 2);
        sk.run_iters(LOGICAL_ITERS / 2);
        let from_cache = sk.compiled_from_cache();
        let mut bits = Vec::new();
        s.x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
        s.y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
        (bits, from_cache)
    };
    let (first, _) = run();
    let (second, second_cached) = run();
    assert!(second_cached, "second compile must hit the plan cache");
    assert_eq!(first, second, "rebound super-step must match the original");
}

/// One instance of a sweep with a right-hand side: `u1 ← Σ ngh(u0) + b`,
/// `b` read cell-locally, then `u0 ← u1`. Before each run a kernel of its
/// own scales `b` in place, which leaves `b`'s ghost copies stale: only
/// the super-step's deep `halo(b)` refreshes them.
struct RhsSweep {
    backend: Backend,
    grid: DenseGrid,
    u0: Field<f64, DenseGrid>,
    u1: Field<f64, DenseGrid>,
    b: Field<f64, DenseGrid>,
}

impl RhsSweep {
    fn new() -> Self {
        let backend = Backend::dgx_a100(2);
        let st = Stencil::seven_point();
        let grid = DenseGrid::with_halo_capacity(
            &backend,
            Dim3::new(6, 5, 16),
            &[&st],
            StorageMode::Real,
            HALO_CAP,
        )
        .unwrap();
        let u0 = Field::<f64, _>::new(&grid, "u0", 1, 0.0, MemLayout::SoA).unwrap();
        let u1 = Field::<f64, _>::new(&grid, "u1", 1, 0.0, MemLayout::SoA).unwrap();
        let b = Field::<f64, _>::new(&grid, "b", 1, 0.0, MemLayout::SoA).unwrap();
        u0.fill(|x, y, z, _| ((x * 3 + y * 5 + z) % 7) as f64);
        b.fill(|x, y, z, _| ((x + 2 * y + 3 * z) % 5) as f64);
        RhsSweep {
            backend,
            grid,
            u0,
            u1,
            b,
        }
    }

    fn sequence(&self) -> Vec<Container> {
        let (u0, u1, b) = (self.u0.clone(), self.u1.clone(), self.b.clone());
        let sweep = Container::compute("rhs-sweep", self.grid.as_space(), move |ldr| {
            let uv = ldr.read_stencil(&u0);
            let bv = ldr.read(&b);
            let out = ldr.write(&u1);
            Box::new(move |c| {
                let mut s = bv.at(c, 0);
                for slot in 0..6 {
                    s += uv.ngh(c, slot, 0);
                }
                out.set(c, 0, s);
            })
        });
        vec![sweep, ops::copy(&self.grid, &self.u1, &self.u0)]
    }

    /// Two runs of two logical iterations each, `b` scaled before each;
    /// every bit of `u0`, `u1` and `b` after.
    fn run(&self, sk: &mut Skeleton) -> Vec<u64> {
        let mut scale = Skeleton::sequence(
            &self.backend,
            "rhs-scale",
            vec![ops::scale_const(&self.grid, 2.0, &self.b)],
            SkeletonOptions {
                cache: false,
                ..Default::default()
            },
        );
        for _ in 0..2 {
            scale.run();
            sk.run_iters(2 / sk.logical_iters_per_execution());
        }
        let mut bits = Vec::new();
        for f in [&self.u0, &self.u1, &self.b] {
            f.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
        }
        bits
    }
}

/// Regression: a temporal plan rebound from the cache must refresh the
/// *new* instance's map-read input. The super-step's deep `halo(b)` is
/// built from `b`'s field exchange, not from a stencil read of the
/// sequence, and the rebind used to miss it and keep the cached
/// instance's exchange — refreshing the first instance's `b` while the
/// second one's ghosts stayed stale.
#[test]
fn rebound_temporal_plan_refreshes_the_new_instances_halo() {
    let temporal = SkeletonOptions {
        fusion: FusionLevel::Temporal(2),
        ..Default::default()
    };
    let first = RhsSweep::new();
    let mut sk = Skeleton::sequence(&first.backend, "rhs", first.sequence(), temporal);
    first.run(&mut sk);

    let second = RhsSweep::new();
    let mut rebound = Skeleton::sequence(&second.backend, "rhs", second.sequence(), temporal);
    assert!(rebound.compiled_from_cache(), "second compile must hit");
    assert_eq!(rebound.logical_iters_per_execution(), 2);
    let owned = [second.u0.uid(), second.u1.uid(), second.b.uid()];
    let mut halos = 0;
    for n in rebound.plan().graph().nodes() {
        if let neon_core::NodeKind::Halo { exchange } = &n.kind {
            halos += 1;
            assert!(
                owned.contains(&exchange.data_uid()),
                "{} refreshes another instance's field",
                n.name
            );
        }
    }
    assert_eq!(halos, 2, "deep halos of u0 and b");
    let rebound_bits = second.run(&mut rebound);

    let fresh = |fusion| {
        let s = RhsSweep::new();
        let options = SkeletonOptions {
            fusion,
            cache: false,
            ..Default::default()
        };
        let mut sk = Skeleton::sequence(&s.backend, "rhs", s.sequence(), options);
        s.run(&mut sk)
    };
    let fresh_bits = fresh(FusionLevel::Temporal(2));
    assert_eq!(
        rebound_bits, fresh_bits,
        "rebound must run as compiled fresh"
    );
    assert_eq!(fresh_bits, fresh(FusionLevel::Conservative));
}

/// The four-device gate, on a 16×16×32 Jacobi sweep where launches, syncs
/// and halo latency dominate: at 1, 2 and 4 devices every `k` engages, is
/// bit-identical to `Conservative` and runs one deep halo round per `k`
/// iterations; at 4 devices the best `k` cuts virtual time per logical
/// iteration by at least 25 %. Under `--nocapture` it prints README's
/// temporal-blocking table.
#[test]
fn jacobi_super_steps_win_a_quarter_on_four_devices() {
    let run = |n_dev: usize, fusion: FusionLevel| {
        let backend = Backend::dgx_a100(n_dev);
        let st = Stencil::seven_point();
        let dim = Dim3::new(16, 16, 32);
        let grid =
            DenseGrid::with_halo_capacity(&backend, dim, &[&st], StorageMode::Real, HALO_CAP)
                .unwrap();
        let x = Field::<f64, _>::new(&grid, "x", 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&grid, "y", 1, 0.0, MemLayout::SoA).unwrap();
        x.fill(|a, b, c, _| ((a * 31 + b * 17 + c * 7) % 13) as f64 - 6.0);
        let seq = vec![
            stencil_sum(&grid, "jacobi", &x, &y),
            ops::copy(&grid, &y, &x),
        ];
        let options = SkeletonOptions {
            fusion,
            ..Default::default()
        };
        let mut sk = Skeleton::sequence(&backend, "jacobi-gate", seq, options);
        let k = sk.logical_iters_per_execution();
        let report = sk.run_iters(LOGICAL_ITERS / k);
        let mut bits = Vec::new();
        x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
        y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
        let us_per_iter = report.makespan.as_us() / LOGICAL_ITERS as f64;
        (k, report.halo_rounds, us_per_iter, bits)
    };
    for n_dev in [1usize, 2, 4] {
        let (_, cons_rounds, cons_us, cons_bits) = run(n_dev, FusionLevel::Conservative);
        let mut row = format!("| {n_dev} | {cons_us:.2} |");
        let (mut best, mut best_k, mut best_rounds) = (0.0f64, 0, 0);
        for k in 2u8..5 {
            let (ipe, rounds, us, bits) = run(n_dev, FusionLevel::Temporal(k));
            assert_eq!(ipe, k as usize, "k={k} did not engage on {n_dev} devices");
            assert_eq!(bits, cons_bits, "k={k} diverges on {n_dev} devices");
            if n_dev >= 2 {
                let want = (LOGICAL_ITERS as u64, (LOGICAL_ITERS / k as usize) as u64);
                assert_eq!((cons_rounds, rounds), want, "k={k}, {n_dev} devices");
            }
            row += &format!(" {us:.2} |");
            if cons_us / us > best {
                (best, best_k, best_rounds) = (cons_us / us, k, rounds);
            }
        }
        println!("{row} {best:.2}× (k={best_k}) | {cons_rounds} → {best_rounds} |");
        if n_dev == 4 {
            assert!(best >= 1.0 / 0.75, "best 4-device win {best:.2}x (< 25%)");
        }
    }
}
