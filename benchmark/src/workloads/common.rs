//! Probe helpers the solver workloads share.

use std::collections::BTreeMap;
use std::time::Instant;

use neon_apps::cg::CgState;
use neon_apps::poisson::laplacian_apply;
use neon_core::{Skeleton, SkeletonOptions};
use neon_domain::{ops, GridLike, MemLayout};
use neon_set::Container;

use crate::harness::{serial, Metrics};

/// A one-container skeleton on the serial executor: the cost of one
/// kernel sweep (plus one launch per device), per cell.
pub struct KernelProbe {
    skeleton: Skeleton,
    reps: usize,
    cells: f64,
}

impl KernelProbe {
    /// `reps` sweeps of `container` over `grid` make one sample.
    pub fn new<G: GridLike>(grid: &G, container: Container, reps: usize) -> Self {
        let mut skeleton = Skeleton::sequence(
            grid.backend(),
            "bench-kernel",
            vec![container],
            serial(SkeletonOptions::default()),
        );
        skeleton.run();
        KernelProbe {
            skeleton,
            reps,
            cells: grid.active_cells() as f64,
        }
    }

    /// Seconds of one sample.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        self.skeleton.run_iters(self.reps);
        start.elapsed().as_secs_f64()
    }

    /// Nanoseconds per cell per sweep, from a sample's seconds.
    pub fn ns_per_cell(&self, seconds: f64) -> f64 {
        seconds * 1e9 / (self.reps as f64 * self.cells)
    }
}

/// The two probes that watch a grid type's iteration machinery: a
/// cell-local map (`p ← r + p`) and the 7-point stencil, on scalar
/// fields.
pub struct GridProbes {
    pub map: KernelProbe,
    pub stencil: KernelProbe,
}

impl GridProbes {
    pub fn new<G: GridLike>(grid: &G, reps: usize) -> Self {
        let state = CgState::new(grid, 1, MemLayout::SoA).expect("probe fields fit");
        state
            .r
            .fill(|x, y, z, _| f64::from((x + 2 * y + 3 * z) % 7));
        state
            .p
            .fill(|x, y, z, _| f64::from((3 * x + y + 2 * z) % 5));
        GridProbes {
            map: KernelProbe::new(grid, ops::axpy_const(grid, 1e-9, &state.r, &state.p), reps),
            stencil: KernelProbe::new(grid, laplacian_apply(grid, &state), reps),
        }
    }
}

/// The cylinder of radius `n/2` along z: the mask of the sparse and block
/// grids (about 78 % of the box is active).
pub fn cylinder_mask(n: usize) -> impl Fn(i32, i32, i32) -> bool + Copy {
    let centre = (n as f64 - 1.0) / 2.0;
    let r2 = (n as f64 / 2.0).powi(2);
    move |x, y, _z| {
        let (dx, dy) = (f64::from(x) - centre, f64::from(y) - centre);
        dx * dx + dy * dy <= r2
    }
}

/// The executor metrics every solver workload derives the same way from
/// its probe floors (seconds per sample of `iters` iterations): the
/// parallel executor against the serial one, the timing replay from the
/// virtual twin (`replay_reps` iterations per sample), and the functional
/// replay as what the real run costs beyond it.
pub fn set_executor_metrics(
    out: &mut Metrics,
    floors: &BTreeMap<&'static str, f64>,
    iters: usize,
    replay_reps: usize,
) {
    let (serial, parallel) = (floors["serial"], floors["parallel"]);
    let replay_us = floors["replay"] * 1e6 / replay_reps as f64;
    out.set(
        "core.exec.parallel.ms_per_iter",
        parallel * 1e3 / iters as f64,
    );
    out.set("core.exec.parallel_speedup", serial / parallel);
    out.set("core.timing_replay.us_per_iter", replay_us);
    out.set(
        "core.functional.us_per_iter",
        serial * 1e6 / iters as f64 - replay_us,
    );
}
