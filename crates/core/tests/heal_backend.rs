//! `heal_backend`: the one place a permanent fault maps onto hardware.
//! The healed backend is exactly what the direct `Backend` call returns,
//! only the old fingerprint's plans are purged, and a fault naming
//! hardware the backend lacks is a structured error, not a panic.

use neon_core::{heal_backend, ExecError, PermanentFault, Skeleton, SkeletonOptions};
use neon_domain::{ops, Container, DenseGrid, Dim3, Field, MemLayout, Stencil, StorageMode};
use neon_sys::{Backend, DeviceId};

/// Whether a one-container program compiled on `backend` is a plan-cache
/// hit. Each test below compiles on backend shapes no other test in this
/// binary uses, so the process-wide cache stays deterministic.
fn compiles_from_cache(backend: &Backend) -> bool {
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(backend, Dim3::new(4, 4, 12), &[&st], StorageMode::Real).unwrap();
    let u = Field::<f64, _>::new(&grid, "u", 1, 1.0, MemLayout::SoA).unwrap();
    let v = Field::<f64, _>::new(&grid, "v", 1, 0.0, MemLayout::SoA).unwrap();
    let containers: Vec<Container> = vec![ops::axpy_const(&grid, 0.5, &u, &v)];
    Skeleton::sequence(
        backend,
        "heal-probe",
        containers,
        SkeletonOptions::default(),
    )
    .compiled_from_cache()
}

#[test]
fn healed_fingerprint_matches_the_direct_backend_call() {
    let b = Backend::dgx_a100(4);
    let (d0, d1, d2) = (DeviceId(0), DeviceId(1), DeviceId(2));
    let cases = [
        (
            PermanentFault::DeviceLoss(d2),
            b.without_device(d2).unwrap(),
        ),
        (
            PermanentFault::LinkLoss(d0, d1),
            b.without_link(d0, d1).unwrap(),
        ),
        (
            PermanentFault::LinkDegrade(d1, d2, 0.25),
            b.with_degraded_link(d1, d2, 0.25).unwrap(),
        ),
    ];
    for (fault, direct) in cases {
        let healed = heal_backend(&b, fault).unwrap();
        assert_eq!(healed.fingerprint(), direct.fingerprint(), "{fault}");
        assert_ne!(healed.fingerprint(), b.fingerprint(), "{fault}");
        assert_eq!(healed.num_devices(), direct.num_devices(), "{fault}");
    }
}

#[test]
fn heal_purges_only_the_old_fingerprint() {
    let faulted = Backend::dgx_a100(3);
    let bystander = Backend::gv100_pcie(3);
    assert!(!compiles_from_cache(&faulted), "first compile is a miss");
    assert!(!compiles_from_cache(&bystander), "first compile is a miss");
    assert!(compiles_from_cache(&faulted));
    assert!(compiles_from_cache(&bystander));

    heal_backend(&faulted, PermanentFault::LinkLoss(DeviceId(0), DeviceId(2))).unwrap();
    assert!(
        !compiles_from_cache(&faulted),
        "the healed-away fingerprint's plans are gone"
    );
    assert!(
        compiles_from_cache(&bystander),
        "another backend's plans survive"
    );
}

#[test]
fn unhealable_faults_are_structured_errors_and_purge_nothing() {
    let b = Backend::dgx_a100(5);
    assert!(!compiles_from_cache(&b), "first compile is a miss");
    let (d0, d1) = (DeviceId(0), DeviceId(1));
    for fault in [
        PermanentFault::DeviceLoss(DeviceId(9)),
        PermanentFault::LinkLoss(d1, d1),
        PermanentFault::LinkLoss(d0, DeviceId(7)),
        PermanentFault::LinkDegrade(d0, d1, 1.5),
        PermanentFault::LinkDegrade(d0, d1, 0.0),
    ] {
        let err = heal_backend(&b, fault).unwrap_err();
        assert!(
            matches!(&err, ExecError::Unhealable { fault: f, .. } if *f == fault),
            "{fault}: {err}"
        );
    }
    let only = Backend::dgx_a100(1);
    assert!(matches!(
        heal_backend(&only, PermanentFault::DeviceLoss(d0)),
        Err(ExecError::Unhealable { .. })
    ));
    assert!(
        compiles_from_cache(&b),
        "a refused heal leaves the plan cache alone"
    );
}
