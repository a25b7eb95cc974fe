//! Property tests of the link fault domain's transient tier: for
//! randomized container sequences, seeded fault plans mixing kernel,
//! halo-transfer and collective-link transients are absorbed by the
//! retry machinery with zero escapes, and the functional results stay
//! bit-identical to a fault-free run — across 2/4/8 devices and every
//! OCC level. The virtual clock pays for retries; the numerics must
//! never notice them. Plus the end-to-end gates of the whole link fault
//! domain on a resilient Poisson CG, and the straggler monitor's
//! rebalance.

mod resilient_cg;

use neon_comm::{choose, Algorithm, CollectiveKind};
use neon_core::{
    heal_backend, FaultPlan, OccLevel, PermanentFault, ResilienceOptions, Skeleton,
    SkeletonOptions, StragglerPolicy,
};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike,
    MemLayout, PartitionStrategy, ScalarSet, Stencil, StorageMode,
};
use neon_sys::{Backend, BackendKind, DeviceId, DeviceModel, Topology};
use proptest::prelude::*;

/// One step of a randomized sequence. Integer-valued arithmetic keeps
/// every f64 result exact, so bit-identity is a real property.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `x ← 2x + 1` (read-write map).
    MapX,
    /// `y ← Σ ngh(x)` (7-point stencil read of x — halo traffic).
    StencilXy,
    /// `x ← Σ ngh(y)` (7-point stencil read of y — halo traffic).
    StencilYx,
    /// `a ← x·y` (reduction — collective traffic).
    DotA,
}

const OPS: [Op; 4] = [Op::MapX, Op::StencilXy, Op::StencilYx, Op::DotA];

struct Setup {
    backend: Backend,
    grid: DenseGrid,
    x: Field<f64, DenseGrid>,
    y: Field<f64, DenseGrid>,
    dot_a: ScalarSet<f64>,
}

fn setup(n_dev: usize) -> Setup {
    let backend = Backend::dgx_a100(n_dev);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(&backend, Dim3::new(4, 4, 16), &[&st], StorageMode::Real).unwrap();
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
            Op::StencilXy => stencil_sum(&s.grid, "stxy", &s.x, &s.y),
            Op::StencilYx => stencil_sum(&s.grid, "styx", &s.y, &s.x),
            Op::DotA => ops::dot(&s.grid, &s.x, &s.y, &s.dot_a),
        })
        .collect()
}

/// Run `iters` iterations of the sequence under `plan`, returning the
/// full observable state. Resilience stays at the default retry policy
/// (3 attempts), which dominates the ≤2 consecutive failures a seeded
/// plan injects per site.
fn run_case(
    ops_list: &[Op],
    n_dev: usize,
    occ: OccLevel,
    iters: u64,
    plan: Option<FaultPlan>,
) -> Vec<u64> {
    let s = setup(n_dev);
    let seq = build_sequence(&s, ops_list);
    let mut sk = Skeleton::sequence(
        &s.backend,
        "link-prop",
        seq,
        SkeletonOptions {
            occ,
            resilience: ResilienceOptions {
                enabled: true,
                checkpoint_interval: 2,
                ..ResilienceOptions::default()
            },
            cache: false,
            ..Default::default()
        },
    );
    let faulted = plan.is_some();
    if let Some(p) = plan {
        sk.install_fault_plan(p);
    }
    let run = sk
        .run_iters_resilient(0, iters as usize)
        .expect("transient-only plans must always heal");
    if faulted {
        assert_eq!(run.report.faults_injected, run.report.faults_recovered);
        assert_eq!(run.rollbacks, 0, "no transient may escape");
    }
    let mut bits = Vec::new();
    s.x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    s.y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    bits.push(s.dot_a.host_value().to_bits());
    bits
}

fn op_sequences() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..OPS.len()).prop_map(|i| OPS[i]), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random programs × seeded link-fault plans × {2,4,8} devices × all
    /// OCC levels: retried transients are bit-invisible.
    #[test]
    fn transient_link_faults_are_bit_invisible(
        ops_list in op_sequences(),
        n_dev_idx in 0usize..3,
        occ_idx in 0usize..4,
        seed in any::<u32>(),
        n_faults in 1usize..6,
        iters in 3u64..6,
    ) {
        let n_dev = [2usize, 4, 8][n_dev_idx];
        let occ = [
            OccLevel::None,
            OccLevel::Standard,
            OccLevel::Extended,
            OccLevel::TwoWayExtended,
        ][occ_idx];
        let plan = FaultPlan::seeded_with_links(seed as u64, iters, n_dev, n_faults);
        let clean = run_case(&ops_list, n_dev, occ, iters, None);
        let faulted = run_case(&ops_list, n_dev, occ, iters, Some(plan));
        prop_assert_eq!(
            faulted, clean,
            "seed {} ({} faults) changed bits for {:?} on {} devices at {:?}",
            seed, n_faults, ops_list, n_dev, occ
        );
    }
}

/// 4-device Poisson CG at 24³ over 12 iterations with link faults at
/// iteration 6: two collective-link transients retry once each, leave the
/// residuals bit-identical and cost at most 10 % virtual time; a severed
/// and a degraded wire each heal by one recompile with no eviction, fully
/// bit-transparent, at a visible cost. On a 3-device slice of a two-island
/// fleet, severing the island's NVLink wire flips the collective route
/// from hierarchical to flat, heals by one recompile, and stays
/// bit-identical both to the clean run and to a run severed from the start.
/// Under `--nocapture` it prints README's link-fault table.
#[test]
fn resilient_cg_heals_link_faults_bit_transparently() {
    use resilient_cg::resilient_cg;
    const DIM: usize = 24;
    const ITERS: usize = 12;
    let at = ITERS as u64 / 2;
    let flat = Backend::dgx_a100(4);
    let clean = resilient_cg(&flat, DIM, ITERS, None, None, false);

    let plan = FaultPlan::none()
        .with_link_fault(2, DeviceId(1), 0, 1)
        .with_link_fault(at, DeviceId(3), 1, 1);
    let transient = resilient_cg(&flat, DIM, ITERS, Some(plan), None, false);
    assert_eq!(
        transient.bits, clean.bits,
        "link retries changed the residuals"
    );
    let r = &transient.total.report;
    assert_eq!(
        (r.faults_injected, r.faults_recovered, r.retries),
        (2, 2, 2)
    );
    let overhead = transient.virt_us() / clean.virt_us() - 1.0;
    assert!(
        (0.0..=0.10).contains(&overhead),
        "transient overhead {overhead:.3}"
    );

    clean.print_row("clean", &clean);
    transient.print_row("transient link (retry)", &clean);
    for (scenario, plan) in [
        (
            "link loss 0-1",
            FaultPlan::none().with_link_loss(at, DeviceId(0), DeviceId(1)),
        ),
        (
            "link degrade 1-2 to 25 %",
            FaultPlan::none().with_link_degrade(at, DeviceId(1), DeviceId(2), 0.25),
        ),
    ] {
        let healed = resilient_cg(&flat, DIM, ITERS, Some(plan), None, false);
        healed.print_row(scenario, &clean);
        assert_eq!(
            healed.bits, clean.bits,
            "a link repair changed the residuals"
        );
        let t = &healed.total;
        assert_eq!((t.link_repairs, t.evictions, healed.devices_end), (1, 0, 4));
        assert!(
            healed.virt_us() > clean.virt_us(),
            "a worse wire must cost time"
        );
    }

    let mixed = Backend::dgx_islands(&[2, 2])
        .with_devices(&[DeviceId(0), DeviceId(1), DeviceId(2)])
        .unwrap();
    let (a, b) = (DeviceId(0), DeviceId(1));
    let field_bytes = (DIM * DIM * DIM * 8) as u64;
    let route =
        |backend: &Backend| choose(CollectiveKind::AllReduce, field_bytes, backend.topology());
    assert_eq!(route(&mixed), Algorithm::Hierarchical);
    let severed = heal_backend(&mixed, PermanentFault::LinkLoss(a, b)).unwrap();
    assert_ne!(route(&severed), Algorithm::Hierarchical);
    let mixed_clean = resilient_cg(&mixed, DIM, ITERS, None, None, false);
    let plan = FaultPlan::none().with_link_loss(at, a, b);
    let reroute = resilient_cg(&mixed, DIM, ITERS, Some(plan), None, false);
    let oracle = resilient_cg(
        &mixed,
        DIM,
        ITERS,
        None,
        Some((0, PermanentFault::LinkLoss(a, b))),
        false,
    );
    assert_eq!(
        reroute.bits, mixed_clean.bits,
        "reroute diverged from the clean run"
    );
    assert_eq!(
        reroute.bits, oracle.bits,
        "reroute diverged from the severed oracle"
    );
    assert_eq!((reroute.total.link_repairs, reroute.devices_end), (1, 3));
    mixed_clean.print_row("mixed fleet, clean", &mixed_clean);
    reroute.print_row("mixed fleet, island split (reroute)", &mixed_clean);
    oracle.print_row("mixed fleet, split from the start", &mixed_clean);
}

/// On three A100s and a GV100, the straggler monitor flags exactly the
/// GV100 and shrinks its share, and rebuilding the grid on the reported
/// shares shrinks the makespan of a stencil + relax + dot sweep (printed
/// under `--nocapture`).
#[test]
fn straggler_rebalance_shrinks_the_makespan() {
    let mut devices = vec![DeviceModel::a100_40gb(); 3];
    devices.push(DeviceModel::gv100());
    let topo = Topology::nvlink_all_to_all(4, 1555.0);
    let backend = Backend::new(BackendKind::Gpu, devices, topo).unwrap();
    let run = |strategy: PartitionStrategy| {
        let st = Stencil::seven_point();
        let grid = DenseGrid::with_partitioning(
            &backend,
            Dim3::cube(24),
            &[&st],
            StorageMode::Real,
            strategy,
        )
        .unwrap();
        let u = Field::<f64, _>::new(&grid, "u", 1, 0.0, MemLayout::SoA).unwrap();
        let v = Field::<f64, _>::new(&grid, "v", 1, 0.0, MemLayout::SoA).unwrap();
        let s = ScalarSet::<f64>::new(4, "s", 0.0, |a, b| a + b);
        u.fill(|x, y, z, _| ((x * 31 + y * 17 + z * 7) % 23) as f64 * 0.5);
        let seq = vec![
            stencil_sum(&grid, "sten", &u, &v),
            ops::axpy_const(&grid, 0.25, &v, &u),
            ops::dot(&grid, &u, &v, &s),
        ];
        let options = SkeletonOptions {
            occ: OccLevel::Standard,
            cache: false,
            ..Default::default()
        };
        let mut sk = Skeleton::sequence(&backend, "straggler", seq, options);
        sk.enable_straggler_monitor(StragglerPolicy::default());
        let r = sk.run_iters_resilient(0, 12).expect("clean run");
        (r.report.makespan, sk.health_report().expect("monitor on"))
    };
    let (even, health) = run(PartitionStrategy::Even);
    assert_eq!(health.stragglers, [DeviceId(3)]);
    assert!(health.shares[3] < 1.0, "shares {:?}", health.shares);
    let (rebalanced, _) = run(PartitionStrategy::Shares(health.shares.clone()));
    assert!(rebalanced < even, "{rebalanced} !< {even}");
    println!(
        "shares {:.2?}: makespan {even} -> {rebalanced}",
        health.shares
    );
}
