//! The functional-executor gate, alone in its test binary: cargo runs
//! test binaries one after another, so the wall-clock comparison below
//! has the host to itself rather than sharing its cores with sibling
//! tests.

use neon_core::{FunctionalMode, FusionLevel, OccLevel, SkeletonOptions};
use neon_domain::{DenseGrid, Dim3, Stencil, StorageMode};
use neon_sys::Backend;
use std::time::{Duration, Instant};

/// The functional-executor gate: 4-device Poisson CG at 16³ over 8
/// iterations, the serial reference walk against the parallel worker-pool
/// replay. The residual histories must match bit for bit. With at least 4
/// host cores, one per device worker, the parallel replay must also be no
/// slower than serial, best of two runs each; on fewer cores the workers
/// time-slice one another and the comparison would only measure the host.
#[test]
fn parallel_replay_matches_serial_and_keeps_up_on_four_cores() {
    const DIM: usize = 16;
    let run = |functional_mode| {
        let backend = Backend::dgx_a100(4);
        let st = Stencil::seven_point();
        let grid = DenseGrid::new(&backend, Dim3::cube(DIM), &[&st], StorageMode::Real).unwrap();
        let options = SkeletonOptions {
            occ: OccLevel::Standard,
            functional_mode,
            fusion: FusionLevel::Off,
            ..Default::default()
        };
        let mut solver = neon_apps::PoissonSolver::with_options(&grid, options).unwrap();
        let c = (DIM / 2) as i32;
        let rhs = |x, y, z| if (x, y, z) == (c, c, c) { 1.0 } else { 0.0 };
        // Warm up (spawns the worker pool), then restart the solve.
        solver.set_rhs(rhs);
        solver.solve_iters(3);
        solver.set_rhs(rhs);
        let mut bits = Vec::new();
        let t0 = Instant::now();
        for _ in 0..8 {
            solver.solve_iters(1);
            bits.push(solver.cg.state.rs_old.host_value().to_bits());
        }
        (bits, t0.elapsed())
    };
    let cores = neon_sys::host_cores();
    let repeats = if cores >= 4 { 2 } else { 1 };
    let mut best = [Duration::MAX; 2];
    let mut history: [Vec<u64>; 2] = Default::default();
    for _ in 0..repeats {
        for (i, mode) in [FunctionalMode::Serial, FunctionalMode::Parallel]
            .into_iter()
            .enumerate()
        {
            let (bits, wall) = run(mode);
            assert!(
                history[i].is_empty() || history[i] == bits,
                "{mode:?} repeat diverged"
            );
            history[i] = bits;
            best[i] = best[i].min(wall);
        }
    }
    assert_eq!(
        history[0], history[1],
        "parallel replay diverges from serial"
    );
    if cores >= 4 {
        assert!(
            best[1] <= best[0],
            "parallel {:?} slower than serial {:?} on {cores} cores",
            best[1],
            best[0]
        );
    }
}
