//! Deterministic tests of the self-healing executor: structured errors
//! when recovery is off, retry counters and trace spans when it is on,
//! checkpoint rollback, device loss surfacing, options validation, and
//! backend-scoped plan-cache invalidation; and the end-to-end gate over
//! all three recovery tiers on a resilient Poisson CG.

mod resilient_cg;

use neon_core::{
    invalidate_backend, CommMode, CompileError, ExecError, FaultPlan, FaultSiteKind, OccLevel,
    PermanentFault, ResilienceOptions, Skeleton, SkeletonOptions,
};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike,
    MemLayout, ScalarSet, Stencil, StorageMode,
};
use neon_sys::{Backend, DeviceId, SpanKind};

struct Fixture {
    backend: Backend,
    u: Field<f64, DenseGrid>,
    v: Field<f64, DenseGrid>,
    s: ScalarSet<f64>,
    containers: Vec<Container>,
}

/// Stencil + read-write map + reduction over a 4-device dense grid:
/// enough structure to exercise kernels, halo transfers and scalar state.
fn fixture(ndev: usize) -> Fixture {
    let backend = Backend::dgx_a100(ndev);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(&backend, Dim3::new(4, 4, 16), &[&st], StorageMode::Real).unwrap();
    let u = Field::<f64, _>::new(&grid, "u", 1, 0.0, MemLayout::SoA).unwrap();
    let v = Field::<f64, _>::new(&grid, "v", 1, 0.0, MemLayout::SoA).unwrap();
    let s = ScalarSet::<f64>::new(ndev, "s", 0.0, |a, b| a + b);
    u.fill(|x, y, z, _| ((x * 31 + y * 17 + z * 7) % 23) as f64 * 0.5);
    let sten = {
        let (uc, vc) = (u.clone(), v.clone());
        Container::compute("sten", grid.as_space(), move |ldr| {
            let uv = ldr.read_stencil(&uc);
            let vv = ldr.write(&vc);
            Box::new(move |c| {
                let mut acc = 0.0;
                for slot in 0..6 {
                    acc += uv.ngh(c, slot, 0);
                }
                vv.set(c, 0, acc);
            })
        })
    };
    let relax = ops::axpy_const(&grid, 0.25, &v, &u);
    let reduce = ops::dot(&grid, &u, &v, &s);
    Fixture {
        backend,
        u,
        v,
        s,
        containers: vec![sten, relax, reduce],
    }
}

fn options(resilience: ResilienceOptions) -> SkeletonOptions {
    SkeletonOptions {
        occ: OccLevel::Standard,
        resilience,
        cache: false,
        ..Default::default()
    }
}

fn state_bits(f: &Fixture) -> Vec<u64> {
    let mut bits = Vec::new();
    f.u.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    f.v.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    bits.push(f.s.host_value().to_bits());
    bits
}

#[test]
fn recovery_disabled_fault_is_structured_error_not_panic() {
    let f = fixture(4);
    // Default resilience: disabled, so the retry policy is 1 attempt.
    let mut sk = Skeleton::sequence(
        &f.backend,
        "no-recovery",
        f.containers.clone(),
        options(ResilienceOptions::default()),
    );
    sk.install_fault_plan(FaultPlan::none().with_kernel_fault(1, DeviceId(2), 0, 1));
    sk.try_run().expect("iteration 0 is clean");
    let err = sk.try_run().expect_err("iteration 1 must fail");
    match err {
        ExecError::TransientFaultEscaped {
            device,
            iteration,
            attempts,
            ..
        } => {
            assert_eq!(device, DeviceId(2));
            assert_eq!(iteration, 1);
            assert_eq!(attempts, 1, "disabled resilience allows one attempt");
        }
        other => panic!("expected TransientFaultEscaped, got {other}"),
    }
    // The executor stays usable after the failure.
    sk.try_run().expect("specs consumed; next run is clean");
}

#[test]
fn recovered_faults_populate_counters_and_trace() {
    let f = fixture(4);
    let mut sk = Skeleton::sequence(
        &f.backend,
        "counters",
        f.containers.clone(),
        SkeletonOptions {
            trace: true,
            ..options(ResilienceOptions {
                enabled: true,
                ..ResilienceOptions::default()
            })
        },
    );
    sk.install_fault_plan(
        FaultPlan::none()
            .with_kernel_fault(0, DeviceId(1), 0, 2)
            .with_transfer_fault(1, DeviceId(3), 0, 1),
    );
    let run = sk.run_iters_resilient(0, 3).expect("faults recover");
    assert_eq!(run.report.faults_injected, 2);
    assert_eq!(run.report.faults_recovered, 2);
    assert_eq!(
        run.report.retries, 3,
        "2 failed kernel attempts + 1 transfer"
    );
    assert_eq!(run.rollbacks, 0, "no fault escaped");
    let trace = sk.take_trace().expect("trace enabled");
    let fault_spans = trace
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Fault)
        .count();
    assert_eq!(fault_spans, 3, "one span per failed attempt");
}

/// A kernel fault that escapes on device 1 leaves exactly the prefix of
/// the iteration before it: every task before the faulted one whole, and
/// of the faulted task the devices before device 1. The program is
/// `halo(x)`, `stencil x→y`, `y ← 2y` on two devices, faulted at the
/// second kernel launch on device 1: the map's. Under chunk events the
/// stencil, which consumes halo bytes, is priced as an interior and a
/// boundary span, but it is still one launch, so the same fault hits the
/// map in both communication modes.
#[test]
fn an_escaped_kernel_fault_leaves_exactly_the_work_before_it() {
    let backend = Backend::dgx_a100(2);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(&backend, Dim3::new(4, 4, 16), &[&st], StorageMode::Real).unwrap();
    // Fresh `x` and `y` with fixed contents, and `stencil x→y`.
    let fields = |tag: &str| {
        let x = Field::<f64, _>::new(&grid, &format!("{tag}-x"), 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&grid, &format!("{tag}-y"), 1, 0.0, MemLayout::SoA).unwrap();
        x.fill(|i, j, k, _| ((i * 31 + j * 17 + k * 7) % 23) as f64 * 0.5);
        y.fill(|i, j, k, _| ((i * 5 + j * 3 + k) % 7) as f64 - 3.0);
        let sten = {
            let (xc, yc) = (x.clone(), y.clone());
            Container::compute("prefix-sten", grid.as_space(), move |ldr| {
                let xv = ldr.read_stencil(&xc);
                let yv = ldr.write(&yc);
                Box::new(move |c| {
                    let mut acc = 0.0;
                    for slot in 0..6 {
                        acc += xv.ngh(c, slot, 0);
                    }
                    yv.set(c, 0, acc);
                })
            })
        };
        (x, y, sten)
    };
    let values = |f: &Field<f64, DenseGrid>| {
        let mut v = Vec::new();
        f.for_each(|_, _, z, _, val| v.push((z as usize, val)));
        v
    };
    // The stencil's full result, from a clean run.
    let (_, y_ref, sten) = fields("prefix-ref");
    Skeleton::sequence(
        &backend,
        "prefix-ref",
        vec![sten],
        SkeletonOptions::default(),
    )
    .run();
    let swept = values(&y_ref);
    let (z0, z1) = grid.owned_z_range(DeviceId(0));

    for comm in [CommMode::Epoch, CommMode::ChunkEvents] {
        let (x, y, sten) = fields("prefix");
        let x_before = values(&x);
        let seq = vec![sten, ops::scale_const(&grid, 2.0, &y)];
        let mut sk = Skeleton::sequence(
            &backend,
            "prefix",
            seq,
            SkeletonOptions {
                comm,
                cache: false,
                ..SkeletonOptions::with_occ(OccLevel::None)
            },
        );
        sk.install_fault_plan(FaultPlan::none().with_kernel_fault(0, DeviceId(1), 1, 1));
        match sk.try_run() {
            Err(ExecError::TransientFaultEscaped { device, kind, .. }) => {
                assert_eq!(
                    (device, kind),
                    (DeviceId(1), FaultSiteKind::Kernel),
                    "{comm:?}"
                );
            }
            other => panic!("{comm:?}: expected an escaped kernel fault, got {other:?}"),
        }
        // The stencil ran whole; the map on device 0 only.
        let expected: Vec<(usize, f64)> = swept
            .iter()
            .map(|&(z, full)| {
                (
                    z,
                    if (z0..z1).contains(&z) {
                        2.0 * full
                    } else {
                        full
                    },
                )
            })
            .collect();
        let bits = |v: &[(usize, f64)]| v.iter().map(|(_, x)| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values(&y)), bits(&expected), "{comm:?}: y");
        assert_eq!(
            bits(&values(&x)),
            bits(&x_before),
            "{comm:?}: x is only read"
        );
    }
}

#[test]
fn escaped_fault_rolls_back_to_bit_identical_state() {
    let resilience = ResilienceOptions {
        enabled: true,
        max_attempts: 2,
        checkpoint_interval: 2,
        ..ResilienceOptions::default()
    };

    let clean = fixture(4);
    let mut clean_sk = Skeleton::sequence(
        &clean.backend,
        "rollback",
        clean.containers.clone(),
        options(resilience),
    );
    clean_sk.run_iters_resilient(0, 5).expect("clean run");

    let faulty = fixture(4);
    let mut faulty_sk = Skeleton::sequence(
        &faulty.backend,
        "rollback",
        faulty.containers.clone(),
        options(resilience),
    );
    // fails = 5 >= max_attempts = 2: escapes retry, forces a rollback off
    // the checkpoint boundary (iteration 3, checkpoints at 0/2/4).
    faulty_sk.install_fault_plan(FaultPlan::none().with_kernel_fault(3, DeviceId(0), 1, 5));
    let run = faulty_sk.run_iters_resilient(0, 5).expect("must heal");
    assert_eq!(run.rollbacks, 1);
    assert_eq!(run.replayed, 1, "iteration 2 re-ran after restoring");
    assert_eq!(state_bits(&faulty), state_bits(&clean));
}

#[test]
fn device_loss_surfaces_with_restored_checkpoint() {
    let f = fixture(4);
    let mut sk = Skeleton::sequence(
        &f.backend,
        "loss",
        f.containers.clone(),
        options(ResilienceOptions {
            enabled: true,
            checkpoint_interval: 2,
            ..ResilienceOptions::default()
        }),
    );
    sk.install_fault_plan(FaultPlan::none().with_device_loss(3, DeviceId(1)));
    let err = *sk
        .run_iters_resilient(0, 6)
        .expect_err("loss is unhealable here");
    assert!(matches!(
        err.error,
        ExecError::DeviceLost { device, iteration } if device == DeviceId(1) && iteration == 3
    ));
    assert_eq!(
        err.completed, 2,
        "rolled back to the iteration-2 checkpoint"
    );
    assert_eq!(err.checkpoint.iteration(), 2);

    // The restored state is exactly a clean 2-iteration run.
    let clean = fixture(4);
    let mut clean_sk = Skeleton::sequence(
        &clean.backend,
        "loss",
        clean.containers.clone(),
        options(ResilienceOptions::default()),
    );
    clean_sk.try_run().unwrap();
    clean_sk.try_run().unwrap();
    assert_eq!(state_bits(&f), state_bits(&clean));
}

#[test]
fn resilience_options_are_validated() {
    let f = fixture(2);
    let reject = |resilience: ResilienceOptions| match Skeleton::try_sequence(
        &f.backend,
        "invalid",
        f.containers.clone(),
        options(resilience),
    ) {
        Err(err) => assert!(
            matches!(err, CompileError::InvalidOptions { .. }),
            "expected InvalidOptions, got {err}"
        ),
        Ok(_) => panic!("invalid options must be rejected"),
    };
    reject(ResilienceOptions {
        max_attempts: 0,
        ..ResilienceOptions::default()
    });
    reject(ResilienceOptions {
        checkpoint_interval: 0,
        ..ResilienceOptions::default()
    });
    reject(ResilienceOptions {
        backoff_us: -1.0,
        ..ResilienceOptions::default()
    });
    reject(ResilienceOptions {
        backoff_us: f64::NAN,
        ..ResilienceOptions::default()
    });
    // The valid default compiles.
    Skeleton::try_sequence(
        &f.backend,
        "valid",
        f.containers.clone(),
        options(ResilienceOptions::default()),
    )
    .expect("default resilience options are valid");
}

#[test]
fn invalidate_backend_purges_only_that_fingerprint() {
    // A backend shape no other test in this binary compiles for, so the
    // process-wide cache interaction stays deterministic.
    let f = fixture(3);
    let cached = SkeletonOptions {
        occ: OccLevel::Extended,
        ..Default::default() // cache: true
    };
    let sk1 = Skeleton::sequence(&f.backend, "cache-probe", f.containers.clone(), cached);
    assert!(!sk1.compiled_from_cache(), "first compile is a miss");
    let sk2 = Skeleton::sequence(&f.backend, "cache-probe", f.containers.clone(), cached);
    assert!(sk2.compiled_from_cache(), "second compile hits the cache");

    let purged = invalidate_backend(f.backend.fingerprint());
    assert!(purged >= 1, "the cached plan belongs to this fingerprint");

    let sk3 = Skeleton::sequence(&f.backend, "cache-probe", f.containers.clone(), cached);
    assert!(
        !sk3.compiled_from_cache(),
        "eviction invalidated the dead backend's plans"
    );
    // Purging an unknown fingerprint touches nothing.
    assert_eq!(invalidate_backend(0xDEAD_BEEF), 0);
}

/// The three tiers on 4-device Poisson CG at 16³ over 8 iterations:
/// retried transients and a checkpoint rollback reconverge bit-identically
/// to the clean run at a visible virtual-time cost; a device lost at
/// iteration 4 keeps the clean prefix, matches a voluntary eviction at
/// the same iteration bit for bit, and heals by exactly one eviction;
/// with recovery off, a fault is a structured error. Under `--nocapture`
/// it prints README's resilience table.
#[test]
fn resilient_cg_recovers_every_tier_bit_identically() {
    use resilient_cg::resilient_cg;
    const DIM: usize = 16;
    const ITERS: usize = 8;
    let lost_at = ITERS as u64 / 2;
    let dead = DeviceId(2);
    let b = Backend::dgx_a100(4);
    let run = |plan, heal, chunked| resilient_cg(&b, DIM, ITERS, plan, heal, chunked);

    let clean = run(None, None, false);
    let transient = run(
        Some(
            FaultPlan::none()
                .with_kernel_fault(2, DeviceId(1), 0, 1)
                .with_transfer_fault(lost_at, DeviceId(3), 0, 2),
        ),
        None,
        false,
    );
    assert_eq!(transient.bits, clean.bits, "retries changed the residuals");
    let r = &transient.total.report;
    assert!(r.faults_injected >= 2 && r.faults_recovered >= 2 && r.retries >= 3);

    // Off a checkpoint boundary, driven as one call: the rollback lands on
    // a periodic checkpoint and replays.
    let rollback_plan = FaultPlan::none().with_kernel_fault(lost_at + 2, DeviceId(0), 1, 10);
    let rollback = run(Some(rollback_plan), None, true);
    assert_eq!(rollback.bits.last(), clean.bits.last(), "rollback diverged");
    assert!(rollback.total.rollbacks >= 1 && rollback.total.replayed >= 1);
    assert!(
        rollback.virt_us() > clean.virt_us(),
        "replay must cost time"
    );

    let loss = run(
        Some(FaultPlan::none().with_device_loss(lost_at, dead)),
        None,
        false,
    );
    let oracle = run(
        None,
        Some((lost_at, PermanentFault::DeviceLoss(dead))),
        false,
    );
    let prefix = lost_at as usize;
    assert_eq!(loss.bits[..prefix], clean.bits[..prefix], "pre-loss prefix");
    assert_eq!(
        loss.bits, oracle.bits,
        "loss differs from voluntary eviction"
    );
    assert_eq!((loss.total.evictions, loss.devices_end), (1, 3));
    assert!(
        loss.virt_us() > clean.virt_us(),
        "capability loss must cost time"
    );
    for (scenario, r) in [
        ("clean", &clean),
        ("transient (retry)", &transient),
        ("rollback (escape)", &rollback),
        ("device loss", &loss),
        ("voluntary eviction (oracle)", &oracle),
    ] {
        r.print_row(scenario, &clean);
    }

    // Recovery off: the same solver surfaces a structured error.
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(&b, Dim3::cube(DIM), &[&st], StorageMode::Real).unwrap();
    let options = SkeletonOptions {
        occ: OccLevel::Standard,
        ..Default::default()
    };
    let mut solver = neon_apps::PoissonSolver::with_options(&grid, options).unwrap();
    solver.set_rhs(|x, y, z| ((x + y + z) % 3) as f64);
    solver.install_fault_plan(FaultPlan::none().with_kernel_fault(1, DeviceId(1), 0, 1));
    let err = solver.try_solve_iters(4).expect_err("recovery is off");
    assert!(
        matches!(err, ExecError::TransientFaultEscaped { device, .. } if device == DeviceId(1)),
        "expected TransientFaultEscaped on device 1, got {err}"
    );
}
