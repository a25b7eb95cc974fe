//! Property and acceptance tests for the `neon-comm` collective layer
//! and its integration into the Skeleton.
//!
//! * **Bit-identity**: the functional all-reduce is a canonical rank-order
//!   fold, so for *any* device count, payload and link class it must be
//!   bit-identical to sequentially folding the device buffers in rank
//!   order (even for non-associative floating-point combines).
//! * **Makespan monotonicity**: on NVLink all-to-all topologies with ≥4
//!   devices, the ring algorithm never loses to the host-staged baseline.
//! * **End-to-end acceptance**: an 8-device CG iteration whose dot
//!   products go through ring all-reduce has strictly lower makespan than
//!   the same iteration forced through host staging.

use proptest::prelude::*;

use neon::comm::{all_reduce, Algorithm, CollectiveEngine, CollectiveKind, EngineConfig};
use neon::prelude::*;
use neon_sys::{QueueSim, Topology};

fn zeros(n: usize) -> Vec<SimTime> {
    vec![SimTime::ZERO; n]
}

fn topo_for(class: bool, n: usize) -> Topology {
    if class {
        Topology::nvlink_all_to_all(n, 1555.0)
    } else {
        Topology::pcie_host_staged(n, 870.0)
    }
}

proptest! {
    /// The functional all-reduce equals the sequential rank-order fold
    /// bit-for-bit, regardless of device count, payload size, payload
    /// values, or which link class (and hence which algorithm the
    /// auto-selector picks) carries it.
    #[test]
    fn all_reduce_bit_identical_to_sequential_fold(
        ndev in 1usize..=8,
        len in 1usize..48,
        seed in any::<u64>(),
        nvlink in any::<bool>(),
    ) {
        // Deterministic but irregular payloads; addition over these is
        // genuinely non-associative in f64.
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 1e6 - 5e5
        };
        let bufs: Vec<Vec<f64>> =
            (0..ndev).map(|_| (0..len).map(|_| next()).collect()).collect();

        // Expected: sequential fold in rank order, element-wise.
        let expected: Vec<f64> = (0..len)
            .map(|i| bufs.iter().skip(1).fold(bufs[0][i], |acc, b| acc + b[i]))
            .collect();

        let mut reduced = bufs.clone();
        all_reduce(&mut reduced, |a, b| a + b);
        for (d, buf) in reduced.iter().enumerate() {
            prop_assert_eq!(
                buf.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "device {} diverged from the sequential fold", d
            );
        }

        // The timing engine schedules the same payload on either link
        // class without affecting the data path; every device finishes at
        // the same (non-negative) virtual time.
        let topo = topo_for(nvlink, ndev);
        let engine = CollectiveEngine::new(topo);
        let mut q = QueueSim::new(ndev, 1);
        let t = engine.schedule(
            &mut q,
            CollectiveKind::AllReduce,
            (len * 8) as u64,
            &zeros(ndev),
            0,
            "prop",
        );
        prop_assert_eq!(t.done.len(), ndev);
        if ndev > 1 {
            prop_assert!(t.makespan() > SimTime::ZERO);
        }
    }

    /// Host-staged → ring is monotonically non-increasing in makespan on
    /// NVLink all-to-all topologies with at least 4 devices, for any
    /// payload size.
    #[test]
    fn ring_never_loses_to_host_staged_on_nvlink(
        ndev in 4usize..=8,
        kib in 0u64..=16_384,
    ) {
        let bytes = 8 + kib * 1024;
        let run = |alg: Algorithm| {
            let mut q = QueueSim::new(ndev, 1);
            let engine = CollectiveEngine::with_config(
                Topology::nvlink_all_to_all(ndev, 1555.0),
                EngineConfig { algorithm: Some(alg), ..EngineConfig::default() },
            );
            engine
                .schedule(&mut q, CollectiveKind::AllReduce, bytes, &zeros(ndev), 0, "ar")
                .makespan()
        };
        let ring = run(Algorithm::Ring);
        let host = run(Algorithm::HostStaged);
        prop_assert!(
            ring <= host,
            "{} dev, {} B: ring {} > host-staged {}",
            ndev, bytes, ring, host
        );
    }
}

/// Build a CG (Poisson) iteration skeleton on an 8-device DGX with the
/// given collective mode and return its per-iteration makespan.
fn cg_makespan(mode: CollectiveMode) -> SimTime {
    use neon::apps::PoissonSolver;
    use neon_domain::StorageMode;

    let backend = Backend::dgx_a100(8);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(&backend, Dim3::new(16, 16, 64), &[&st], StorageMode::Real).unwrap();
    let options = SkeletonOptions {
        occ: OccLevel::Standard,
        collectives: mode,
        ..SkeletonOptions::default()
    };
    let mut solver = PoissonSolver::with_options(&grid, options).unwrap();
    solver.set_rhs(|x, y, z| (x + y + z) as f64);
    solver.solve_iters(4).time_per_execution()
}

/// Acceptance: routing the CG dot products through ring all-reduce
/// strictly beats the host-staged baseline on 8 NVLink devices.
#[test]
fn cg_dot_ring_beats_host_staged_on_8_devices() {
    let ring = cg_makespan(CollectiveMode::Fixed(CollectiveAlgorithm::Ring));
    let host = cg_makespan(CollectiveMode::Fixed(CollectiveAlgorithm::HostStaged));
    assert!(
        ring < host,
        "ring CG iteration {ring} not strictly below host-staged {host}"
    );
    // Auto is never worse than either explicit choice.
    let auto = cg_makespan(CollectiveMode::Auto);
    assert!(auto <= ring && auto <= host, "auto {auto} worse than fixed");
}

/// The functional result of a CG solve is identical across collective
/// algorithms (canonical rank-order fold).
#[test]
fn cg_residual_identical_across_algorithms() {
    use neon::apps::PoissonSolver;
    use neon_domain::StorageMode;

    let residual = |mode: CollectiveMode| {
        let backend = Backend::dgx_a100(4);
        let st = Stencil::seven_point();
        let grid =
            DenseGrid::new(&backend, Dim3::new(8, 8, 16), &[&st], StorageMode::Real).unwrap();
        let options = SkeletonOptions {
            collectives: mode,
            ..SkeletonOptions::default()
        };
        let mut solver = PoissonSolver::with_options(&grid, options).unwrap();
        solver.set_rhs(|x, y, z| ((x * 7 + y * 3 + z) % 5) as f64 - 2.0);
        solver.solve_iters(5);
        solver.residual()
    };
    let r_auto = residual(CollectiveMode::Auto);
    let r_ring = residual(CollectiveMode::Fixed(CollectiveAlgorithm::Ring));
    let r_tree = residual(CollectiveMode::Fixed(CollectiveAlgorithm::Tree));
    let r_host = residual(CollectiveMode::Fixed(CollectiveAlgorithm::HostStaged));
    assert_eq!(r_auto.to_bits(), r_ring.to_bits());
    assert_eq!(r_auto.to_bits(), r_tree.to_bits());
    assert_eq!(r_auto.to_bits(), r_host.to_bits());
    assert!(r_auto.is_finite() && r_auto > 0.0);
}

/// Tracing a multi-device run surfaces per-link utilization counters.
#[test]
fn trace_carries_link_utilization_counters() {
    let backend = Backend::dgx_a100(4);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(
        &backend,
        Dim3::new(8, 8, 16),
        &[&st],
        neon_domain::StorageMode::Real,
    )
    .unwrap();
    let dot = ScalarSet::<f64>::new(grid.num_partitions(), "dot", 0.0, |a, b| a + b);
    let x = Field::<f64, _>::new(&grid, "x", 1, 1.0, MemLayout::SoA).unwrap();
    let options = SkeletonOptions {
        trace: true,
        ..SkeletonOptions::default()
    };
    let mut app = Skeleton::sequence(
        &backend,
        "traced-dot",
        vec![neon_domain::ops::dot(&grid, &x, &x, &dot)],
        options,
    );
    app.run();
    let trace = app.take_trace().expect("trace enabled");
    assert!(
        trace
            .counters()
            .iter()
            .any(|(name, _)| name.starts_with("link:")),
        "expected per-link counters in the trace, got {:?}",
        trace.counters()
    );
    let json = trace.to_chrome_json();
    assert!(json.contains("\"ph\":\"C\""), "counter events exported");
}

// ---------------------------------------------------------------------------
// Hierarchical schedules and chunked communication (island fleets)
// ---------------------------------------------------------------------------

/// Island shapes the randomized fleet tests draw from: 2, 4 and 8 devices
/// carved into even and deliberately uneven boxes.
const ISLAND_SHAPES: &[&[usize]] = &[
    &[1, 1],
    &[2, 2],
    &[3, 1],
    &[2, 1, 1],
    &[4, 4],
    &[5, 3],
    &[2, 2, 2, 2],
    &[6, 1, 1],
];

/// Residual of a short CG solve on an island fleet with the given
/// skeleton options — the end-to-end bit-identity probe.
fn island_cg_residual(shape: &[usize], options: SkeletonOptions, iters: usize, seed: u64) -> f64 {
    use neon::apps::PoissonSolver;
    use neon_domain::StorageMode;

    let backend = Backend::dgx_islands(shape);
    let ndev = backend.num_devices();
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(
        &backend,
        Dim3::new(8, 8, 4 * ndev),
        &[&st],
        StorageMode::Real,
    )
    .unwrap();
    let mut solver = PoissonSolver::with_options(&grid, options).unwrap();
    let s = (seed % 7) as i64;
    solver.set_rhs(move |x, y, z| ((x as i64 * 7 + y as i64 * 3 + z as i64 + s) % 5) as f64 - 2.0);
    solver.solve_iters(iters);
    solver.residual()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end bit-identity of the hierarchical collective: for any
    /// island shape (2/4/8 devices, even or uneven), OCC level, rhs and
    /// iteration count, a CG solve routed through the hierarchical
    /// schedule produces the same residual bits as the flat ring and as
    /// auto-selection — the data path is a canonical rank-order fold no
    /// matter which timing schedule carries it.
    #[test]
    fn hierarchical_cg_bits_match_flat_on_island_fleets(
        shape_idx in 0usize..ISLAND_SHAPES.len(),
        occ_idx in 0usize..3,
        iters in 2usize..5,
        seed in any::<u64>(),
    ) {
        let shape = ISLAND_SHAPES[shape_idx];
        let occ = [OccLevel::None, OccLevel::Standard, OccLevel::TwoWayExtended][occ_idx];
        let opts = |mode: CollectiveMode| SkeletonOptions {
            occ,
            collectives: mode,
            ..SkeletonOptions::default()
        };
        let hier = island_cg_residual(
            shape, opts(CollectiveMode::Fixed(CollectiveAlgorithm::Hierarchical)), iters, seed);
        let ring = island_cg_residual(
            shape, opts(CollectiveMode::Fixed(CollectiveAlgorithm::Ring)), iters, seed);
        let auto = island_cg_residual(shape, opts(CollectiveMode::Auto), iters, seed);
        prop_assert_eq!(hier.to_bits(), ring.to_bits(),
            "hierarchical vs ring diverged on {:?}", shape);
        prop_assert_eq!(hier.to_bits(), auto.to_bits(),
            "hierarchical vs auto diverged on {:?}", shape);
    }

    /// Per-chunk event-driven communication is a *timing* refinement: for
    /// any island shape and OCC level, running the same solve with
    /// `CommMode::ChunkEvents` produces bit-identical residuals to the
    /// default epoch mode.
    #[test]
    fn chunk_events_cg_bits_match_epoch(
        shape_idx in 0usize..ISLAND_SHAPES.len(),
        occ_idx in 0usize..3,
        iters in 2usize..5,
        seed in any::<u64>(),
    ) {
        use neon::core::CommMode;
        let shape = ISLAND_SHAPES[shape_idx];
        let occ = [OccLevel::None, OccLevel::Standard, OccLevel::TwoWayExtended][occ_idx];
        let opts = |comm: CommMode| SkeletonOptions {
            occ,
            comm,
            ..SkeletonOptions::default()
        };
        let epoch = island_cg_residual(shape, opts(CommMode::Epoch), iters, seed);
        let chunked = island_cg_residual(shape, opts(CommMode::ChunkEvents), iters, seed);
        prop_assert_eq!(epoch.to_bits(), chunked.to_bits(),
            "chunk-events vs epoch diverged on {:?}", shape);
    }

    /// The hierarchical schedule never moves more bytes over the slow
    /// cross-island links than the flat algorithm the selector would
    /// otherwise pick: for the full-payload kinds (all-reduce and
    /// broadcast) it crosses the slow path the spanning-tree minimum
    /// number of times, whatever the payload or island split. (The
    /// shard-based kinds — reduce-scatter, all-gather — are excluded:
    /// flat rings move per-device shards while the hierarchical sweep
    /// carries the full payload, so the comparison is not byte-monotone
    /// there and the auto-selector's *time* estimate arbitrates instead.)
    #[test]
    fn hierarchical_slow_link_bytes_never_exceed_flat(
        shape_idx in 0usize..ISLAND_SHAPES.len(),
        kib in 0u64..=16_384,
        kind_idx in 0usize..2,
    ) {
        use neon::comm::choose_flat;
        let shape = ISLAND_SHAPES[shape_idx];
        prop_assume!(shape.len() > 1);
        let kind = [CollectiveKind::AllReduce, CollectiveKind::Broadcast][kind_idx];
        let bytes = 8 + kib * 1024;
        let topo = Topology::nvlink_islands(shape, 1555.0);
        let n = topo.num_devices();
        let run = |alg: Algorithm| {
            let mut q = QueueSim::new(n, 1);
            let engine = CollectiveEngine::with_config(
                topo.clone(),
                EngineConfig { algorithm: Some(alg), ..EngineConfig::default() },
            );
            engine.schedule(&mut q, kind, bytes, &zeros(n), 0, "slow");
            q.slow_link_bytes()
        };
        let flat = choose_flat(kind, bytes, &topo);
        let hier_slow = run(Algorithm::Hierarchical);
        let flat_slow = run(flat);
        prop_assert!(
            hier_slow <= flat_slow,
            "{:?}/{}: hierarchical slow bytes {} > {} ({} B payload)",
            shape, kind, hier_slow, flat_slow, bytes
        );
    }
}

/// The hierarchical gate's routing and numerics (its ≥ 20 % win on
/// [2,2] × 16 MiB and the 16 MiB routing are checked in `neon-bench`'s
/// `paper_shapes`): auto-selection routes every mixed island shape
/// hierarchically at 64 KiB and 1 MiB, and CG residuals on the [2,2],
/// [3,1] and [4,4] fleets match the ring's bit for bit.
#[test]
fn hierarchical_auto_routes_mixed_islands_and_matches_ring_bits() {
    use neon::comm::choose;
    for shape in [&[2usize, 2][..], &[3, 1], &[4, 4], &[6, 2], &[2, 2, 2, 2]] {
        let topo = Topology::nvlink_islands(shape, 1555.0);
        for bytes in [64 << 10, 1 << 20] {
            let pick = choose(CollectiveKind::AllReduce, bytes, &topo);
            assert_eq!(pick, Algorithm::Hierarchical, "{shape:?} at {bytes} B");
        }
    }
    for shape in [&[2usize, 2][..], &[3, 1], &[4, 4]] {
        let opts = |alg| SkeletonOptions {
            occ: OccLevel::Standard,
            collectives: CollectiveMode::Fixed(alg),
            ..SkeletonOptions::default()
        };
        let hier = island_cg_residual(shape, opts(Algorithm::Hierarchical), 4, 0);
        let ring = island_cg_residual(shape, opts(Algorithm::Ring), 4, 0);
        assert_eq!(hier.to_bits(), ring.to_bits(), "{shape:?}");
    }
}

/// A Jacobi sweep on a PCIe box under `comm`: per-iteration virtual time
/// and, when `functional`, the final field bits.
fn pcie_jacobi(
    ndev: usize,
    dim: Dim3,
    comm: neon::core::CommMode,
    iters: usize,
    functional: bool,
) -> (f64, Vec<u64>) {
    use neon_domain::{ops, FieldStencil as _, FieldWrite as _, GridLike as _, StorageMode};
    let backend = Backend::gv100_pcie(ndev);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(&backend, dim, &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&grid, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&grid, "y", 1, 0.0, MemLayout::SoA).unwrap();
    if functional {
        x.fill(|a, b, c, _| ((a * 31 + b * 17 + c * 7) % 13) as f64 - 6.0);
    }
    let (xc, yc) = (x.clone(), y.clone());
    let jacobi = Container::compute("jacobi", grid.as_space(), move |ldr| {
        let xv = ldr.read_stencil(&xc);
        let yv = ldr.write(&yc);
        Box::new(move |c| {
            let s: f64 = (0..6).map(|slot| xv.ngh(c, slot, 0)).sum();
            yv.set(c, 0, 0.125 * s);
        })
    });
    let options = SkeletonOptions {
        comm,
        occ: OccLevel::None,
        ..SkeletonOptions::default()
    };
    let seq = vec![jacobi, ops::copy(&grid, &y, &x)];
    let mut sk = Skeleton::sequence(&backend, "pcie-jacobi", seq, options);
    sk.set_functional(functional);
    let us = sk.run_iters(iters).makespan.as_us() / iters as f64;
    let mut bits = Vec::new();
    x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    (us, bits)
}

/// The chunk-events gate on a PCIe box: a Jacobi sweep is bit-identical
/// to epoch mode at 2 and 4 devices, never slower at 2, 4 and 8 devices
/// on a 192×192×32 grid, and recovers some exposed latency at 8. Under
/// `--nocapture` it prints README's chunk-events rows.
#[test]
fn chunk_events_match_epoch_and_never_lose_on_pcie() {
    use neon::core::CommMode;
    for ndev in [2, 4] {
        let dim = Dim3::new(16, 16, 32);
        let epoch = pcie_jacobi(ndev, dim, CommMode::Epoch, 6, true);
        let chunk = pcie_jacobi(ndev, dim, CommMode::ChunkEvents, 6, true);
        assert_eq!(epoch.1, chunk.1, "chunk-events diverged on {ndev} devices");
    }
    for ndev in [2, 4, 8] {
        let dim = Dim3::new(192, 192, 32);
        let (epoch, _) = pcie_jacobi(ndev, dim, CommMode::Epoch, 4, false);
        let (chunk, _) = pcie_jacobi(ndev, dim, CommMode::ChunkEvents, 4, false);
        assert!(
            chunk <= epoch * (1.0 + 1e-9),
            "{ndev} devices: {chunk} > {epoch}"
        );
        println!(
            "| {ndev} | {epoch:.1} | {chunk:.1} | {:.1} |",
            epoch - chunk
        );
        if ndev == 8 {
            assert!(
                epoch - chunk > 0.0,
                "no exposed latency recovered at 8 devices"
            );
        }
    }
}
