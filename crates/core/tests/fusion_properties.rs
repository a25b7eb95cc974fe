//! Property tests of the fuse pass: for randomized container sequences,
//! `FusionLevel::Conservative` must be functionally invisible — bit-
//! identical fields and reduction scalars versus `FusionLevel::Off` — at
//! every device count, OCC level and halo policy, while never launching
//! *more* kernels. Plus deterministic tests of the collective-fusion half:
//! independent same-level reductions collapse into one all-reduce round.

use neon_core::{ExecReport, FusionLevel, HaloPolicy, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldRead as _, FieldStencil as _, FieldWrite as _,
    GridLike, MemLayout, ScalarSet, Stencil, StorageMode,
};
use neon_sys::{Backend, SimTime, SpanKind};
use proptest::prelude::*;

/// One step of a randomized sequence. The fields are integer-valued so
/// every arithmetic result is exact in f64 — bit-identity between fused
/// and unfused runs is then a real property, not a tolerance.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `x ← 2x + 1` (read-write map).
    MapX,
    /// `y ← y + 3` (read-write map).
    MapY,
    /// `y ← x` (read x, write y — exercises fused read elision).
    CopyXy,
    /// `y ← Σ ngh(x)` (7-point stencil read of x).
    StencilXy,
    /// `x ← Σ ngh(y)` (7-point stencil read of y).
    StencilYx,
    /// `a ← x·y` (reduction).
    DotA,
    /// `b ← y·y` (reduction).
    DotB,
}

const OPS: [Op; 7] = [
    Op::MapX,
    Op::MapY,
    Op::CopyXy,
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
            Op::CopyXy => {
                let (xc, yc) = (s.x.clone(), s.y.clone());
                Container::compute("copyxy", s.grid.as_space(), move |ldr| {
                    let xv = ldr.read(&xc);
                    let yv = ldr.write(&yc);
                    Box::new(move |c| yv.set(c, 0, xv.at(c, 0)))
                })
            }
            Op::StencilXy => stencil_sum(&s.grid, "stxy", &s.x, &s.y),
            Op::StencilYx => stencil_sum(&s.grid, "styx", &s.y, &s.x),
            Op::DotA => ops::dot(&s.grid, &s.x, &s.y, &s.dot_a),
            Op::DotB => ops::dot(&s.grid, &s.y, &s.y, &s.dot_b),
        })
        .collect()
}

/// Compile + run one randomized sequence at a fusion level, returning the
/// full observable state (field bits, reduction scalars) and the metered
/// launch/traffic counters.
fn run_case(
    ops_list: &[Op],
    n_dev: usize,
    occ: OccLevel,
    halo: HaloPolicy,
    fusion: FusionLevel,
) -> (Vec<u64>, f64, f64, u64, u64, u64, u64) {
    let s = setup(n_dev);
    let seq = build_sequence(&s, ops_list);
    let mut sk = Skeleton::sequence(
        &s.backend,
        "fuseprop",
        seq,
        SkeletonOptions {
            occ,
            halo_policy: halo,
            fusion,
            ..Default::default()
        },
    );
    let report = sk.run();
    let mut bits = Vec::new();
    s.x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    s.y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    (
        bits,
        s.dot_a.host_value(),
        s.dot_b.host_value(),
        report.launches,
        report.bytes_moved,
        report.halo_rounds,
        report.redundant_flops,
    )
}

fn op_sequences() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..OPS.len()).prop_map(|i| OPS[i]), 1..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservative fusion never changes a bit of the observable state and
    /// never launches more kernels or moves more bytes than the unfused
    /// pipeline — for arbitrary sequences across 1/2/4/8 devices, every
    /// OCC level and both halo policies.
    #[test]
    fn fused_is_bit_identical_to_unfused(
        ops_list in op_sequences(),
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
        let unfused = run_case(&ops_list, n_dev, occ, halo, FusionLevel::Off);
        let fused = run_case(&ops_list, n_dev, occ, halo, FusionLevel::Conservative);
        prop_assert_eq!(
            &fused.0, &unfused.0,
            "fusion changes field bits for {:?} at {:?} on {} devices",
            ops_list, occ, n_dev
        );
        prop_assert_eq!(fused.1, unfused.1, "fusion changes dot a");
        prop_assert_eq!(fused.2, unfused.2, "fusion changes dot b");
        prop_assert!(
            fused.3 <= unfused.3,
            "fusion raised launches {} -> {} for {:?} at {:?} on {} devices",
            unfused.3, fused.3, ops_list, occ, n_dev
        );
        prop_assert!(
            fused.4 <= unfused.4,
            "fusion raised bytes moved {} -> {} for {:?} at {:?} on {} devices",
            unfused.4, fused.4, ops_list, occ, n_dev
        );
        prop_assert_eq!(
            fused.5, unfused.5,
            "kernel fusion must not change the halo-round count for {:?} on {} devices",
            ops_list, n_dev
        );
        prop_assert_eq!(fused.6, 0u64, "conservative fusion never recomputes ghost cells");
        prop_assert_eq!(unfused.6, 0u64, "unfused runs never recompute ghost cells");
    }
}

/// Two independent reductions on *different* grids (so kernel fusion can't
/// touch them) land at the same graph level; collective fusion must fold
/// their finalizations into one multi-scalar all-reduce round.
#[test]
fn independent_reductions_share_one_collective_round() {
    let run = |fusion: FusionLevel| -> (usize, f64, f64) {
        let b = Backend::dgx_a100(4);
        let st = Stencil::seven_point();
        let g1 = DenseGrid::new(&b, Dim3::new(4, 4, 16), &[&st], StorageMode::Real).unwrap();
        let g2 = DenseGrid::new(&b, Dim3::new(5, 3, 16), &[&st], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g1, "x", 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g2, "y", 1, 0.0, MemLayout::SoA).unwrap();
        x.fill(|a, b, c, _| ((a + 2 * b + 3 * c) % 5) as f64);
        y.fill(|a, b, c, _| ((2 * a + b + c) % 7) as f64 - 3.0);
        let da = ScalarSet::<f64>::new(4, "da", 0.0, |p, q| p + q);
        let db = ScalarSet::<f64>::new(4, "db", 0.0, |p, q| p + q);
        let seq = vec![ops::dot(&g1, &x, &x, &da), ops::dot(&g2, &y, &y, &db)];
        let mut sk = Skeleton::sequence(
            &b,
            "colfuse",
            seq,
            SkeletonOptions {
                fusion,
                trace: true,
                cache: false,
                ..Default::default()
            },
        );
        sk.run();
        let trace = sk.take_trace().expect("trace enabled");
        let collective_spans = trace
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Collective)
            .count();
        (collective_spans, da.host_value(), db.host_value())
    };
    let (unfused_spans, ua, ub) = run(FusionLevel::Off);
    let (fused_spans, fa, fb) = run(FusionLevel::Conservative);
    assert_eq!(fa, ua, "collective fusion changes dot values");
    assert_eq!(fb, ub, "collective fusion changes dot values");
    assert!(
        fused_spans < unfused_spans,
        "merging two all-reduces must shrink the collective span count \
         ({unfused_spans} -> {fused_spans})"
    );
    assert_eq!(
        fused_spans * 2,
        unfused_spans,
        "two independent rounds should become exactly one"
    );
}

/// Asserts that `total` is the field-wise sum of `parts`, folded in order
/// from zero. The pattern names every field, so a field added to the
/// report must be added here too.
fn assert_fieldwise_sum(total: &ExecReport, parts: &[ExecReport]) {
    let ExecReport {
        makespan,
        kernel_time,
        transfer_time,
        host_time,
        collective_time,
        launches,
        bytes_moved,
        redundant_flops,
        halo_rounds,
        link_busy,
        executions,
        faults_injected,
        faults_recovered,
        retries,
    } = *total;
    let time =
        |f: fn(&ExecReport) -> SimTime| parts.iter().map(f).fold(SimTime::ZERO, |a, b| a + b);
    let count = |f: fn(&ExecReport) -> u64| parts.iter().map(f).sum::<u64>();
    assert_eq!(makespan, time(|r| r.makespan), "makespan");
    assert_eq!(kernel_time, time(|r| r.kernel_time), "kernel_time");
    assert_eq!(transfer_time, time(|r| r.transfer_time), "transfer_time");
    assert_eq!(host_time, time(|r| r.host_time), "host_time");
    assert_eq!(
        collective_time,
        time(|r| r.collective_time),
        "collective_time"
    );
    assert_eq!(link_busy, time(|r| r.link_busy), "link_busy");
    assert_eq!(launches, count(|r| r.launches), "launches");
    assert_eq!(bytes_moved, count(|r| r.bytes_moved), "bytes_moved");
    assert_eq!(
        redundant_flops,
        count(|r| r.redundant_flops),
        "redundant_flops"
    );
    assert_eq!(halo_rounds, count(|r| r.halo_rounds), "halo_rounds");
    assert_eq!(executions, count(|r| r.executions), "executions");
    assert_eq!(
        faults_injected,
        count(|r| r.faults_injected),
        "faults_injected"
    );
    assert_eq!(
        faults_recovered,
        count(|r| r.faults_recovered),
        "faults_recovered"
    );
    assert_eq!(retries, count(|r| r.retries), "retries");
}

/// The CG gate: 4-device Poisson CG at 16³ over 8 iterations, fusion off
/// vs Conservative. The residual history must match bit for bit, and
/// fusion must cut kernel launches by at least 40 % and bytes swept by at
/// least 25 %; one `run_iters(8)` report on a twin solver must be the
/// field-wise sum of the eight single-iteration reports. Under
/// `--nocapture` it prints README's fusion table.
#[test]
fn poisson_cg_fusion_cuts_launches_and_bytes_bit_identically() {
    const DIM: usize = 16;
    let run = |fusion: FusionLevel| {
        let backend = Backend::dgx_a100(4);
        let st = Stencil::seven_point();
        let grid = DenseGrid::new(&backend, Dim3::cube(DIM), &[&st], StorageMode::Real).unwrap();
        let options = SkeletonOptions {
            occ: OccLevel::Standard,
            fusion,
            ..Default::default()
        };
        let warmed = || {
            let mut solver = neon_apps::PoissonSolver::with_options(&grid, options).unwrap();
            let c = (DIM / 2) as i32;
            let rhs = |x, y, z| if (x, y, z) == (c, c, c) { 1.0 } else { 0.0 };
            solver.set_rhs(rhs);
            solver.solve_iters(3);
            solver.set_rhs(rhs);
            solver
        };
        let mut solver = warmed();
        let (mut reports, mut residuals) = (Vec::new(), Vec::new());
        for _ in 0..8 {
            reports.push(solver.cg.iteration_skeleton().run());
            residuals.push(solver.cg.state.rs_old.host_value().to_bits());
        }
        let total = warmed().cg.iteration_skeleton().run_iters(8);
        assert_fieldwise_sum(&total, &reports);
        assert!(total.link_busy > SimTime::ZERO, "4 devices exchange halos");
        (total.launches as f64, total.bytes_moved as f64, residuals)
    };
    let (off_launches, off_bytes, off_bits) = run(FusionLevel::Off);
    let (launches, bytes, bits) = run(FusionLevel::Conservative);
    assert_eq!(bits, off_bits, "fused residual history diverges");
    let launch_cut = 1.0 - launches / off_launches;
    let byte_cut = 1.0 - bytes / off_bytes;
    println!("| `Off` | {off_launches} | {:.2} |", off_bytes / 1e6);
    println!(
        "| `Conservative` | {launches} (−{:.1} %) | {:.2} (−{:.2} %) |",
        100.0 * launch_cut,
        bytes / 1e6,
        100.0 * byte_cut
    );
    assert!(
        launch_cut >= 0.40,
        "launches cut by {launch_cut:.3} (< 0.40)"
    );
    assert!(byte_cut >= 0.25, "bytes cut by {byte_cut:.3} (< 0.25)");
}
