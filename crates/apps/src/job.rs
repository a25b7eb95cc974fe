//! Solver jobs as resumable handles — the unit of work of the serving
//! layer (`neon-serve`).
//!
//! A [`SolverJob`] wraps one solver instance (Poisson CG or LBM lid-driven
//! cavity) behind an iterator-style interface: [`SolverJob::advance`] runs a
//! bounded number of iterations and returns, so a scheduler can interleave
//! many jobs on one process by time-slicing at *iteration boundaries*. No
//! kernel is ever interrupted — a preempted job simply is not asked for its
//! next iteration yet — which is why a multiplexed run stays bit-identical
//! to a solo run of the same job.
//!
//! Two more capabilities make the handles schedulable under faults:
//!
//! * **checkpoint/restore** ([`SolverJob::capture`] / [`SolverJob::restore`])
//!   at iteration boundaries, so a quantum aborted by a device loss can be
//!   rolled back to its start;
//! * **migration** ([`SolverJob::migrate_to`]) onto a different (typically
//!   smaller, re-carved or re-wired) backend, moving state through logical
//!   coordinates. This is the second half of the one permanent-fault
//!   recovery path, after [`neon_core::heal_backend`]: the server migrates
//!   its jobs with it, and [`crate::ResilientPoisson`] is a [`PoissonJob`]
//!   healed the same way.
//!
//! Each [`SolverJob::advance`] report is the whole account of its window's
//! work; a job keeps no running totals. Setup work (CG initialization) is
//! charged to the first report, so serving throughput and per-tenant
//! accounting include it;
//! re-plan/migration cost after a permanent fault is *not* modelled on the
//! virtual clock: recompilation is host-side work.

use neon_core::{ExecReport, SkeletonOptions};
use neon_domain::{DenseGrid, Dim3, Stencil, StorageMode};
use neon_set::Checkpoint;
use std::hash::Hasher as _;

use neon_sys::{Backend, Result, StableHasher};

use crate::lbm::{LbmParams, LidDrivenCavity};
use crate::poisson::PoissonSolver;

/// What a tenant asked the server to run. Specs are plain values so a
/// request can be replayed solo (same spec, same-size backend, same
/// migration history) to check bit-identity against the multiplexed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobSpec {
    /// Poisson CG solve on a dense `dim³` grid; the right-hand side is a
    /// pure function of logical coordinates and `rhs_seed`, so it is
    /// partition-independent.
    Poisson {
        /// Cubic grid edge length.
        dim: u32,
        /// CG iterations to run.
        iters: u64,
        /// Seed of the deterministic right-hand side.
        rhs_seed: u64,
    },
    /// D3Q19 lid-driven cavity on a dense `dim³` grid.
    Lbm {
        /// Cubic grid edge length.
        dim: u32,
        /// LBM time steps to run.
        iters: u64,
    },
}

impl JobSpec {
    /// Total iterations the job needs.
    pub fn iters(&self) -> u64 {
        match self {
            JobSpec::Poisson { iters, .. } | JobSpec::Lbm { iters, .. } => *iters,
        }
    }

    /// Build the resumable handle for this spec on `backend`.
    pub fn build(&self, backend: &Backend, options: SkeletonOptions) -> Result<Box<dyn SolverJob>> {
        match *self {
            JobSpec::Poisson {
                dim,
                iters,
                rhs_seed,
            } => Ok(Box::new(PoissonJob::new(
                backend, dim, iters, rhs_seed, options,
            )?)),
            JobSpec::Lbm { dim, iters } => Ok(Box::new(LbmJob::new(backend, dim, iters, options)?)),
        }
    }
}

/// A resumable solver job: the scheduling unit of `neon-serve`.
pub trait SolverJob {
    /// Devices of the backend the job currently runs on.
    fn num_devices(&self) -> usize;

    /// Iterations committed so far.
    fn completed(&self) -> u64;

    /// Total iterations the job needs.
    fn total(&self) -> u64;

    /// Whether every iteration has run.
    fn is_done(&self) -> bool {
        self.completed() >= self.total()
    }

    /// Run up to `iters` more iterations (clamped to the remainder) and
    /// return the aggregated report of exactly that window. The job yields
    /// between `execute` calls — this is the preemption point.
    fn advance(&mut self, iters: u64) -> ExecReport;

    /// Deterministic fingerprint of the results produced so far (residual
    /// bit history for CG, population-field bits for LBM). Two runs of the
    /// same spec on same-size backends with the same migration history
    /// fingerprint identically, bit for bit.
    fn result_bits(&self) -> u64;

    /// Capture a checkpoint of the job's full iteration state at the
    /// current iteration boundary.
    fn capture(&mut self) -> Checkpoint;

    /// Roll back to `cp` (state *and* iteration counter).
    fn restore(&mut self, cp: &Checkpoint);

    /// Rebuild the job on `backend` (same spec, fresh compile through the
    /// plan cache) and migrate the current state through logical
    /// coordinates. The iteration counter is preserved.
    fn migrate_to(&mut self, backend: &Backend) -> Result<()>;
}

/// Deterministic right-hand side: a pure function of logical coordinates
/// and the seed (FNV-style mixing), uniform in roughly `[-1, 1)`. Being
/// partition-independent, every backend builds the identical problem.
fn poisson_rhs(seed: u64, x: i32, y: i32, z: i32) -> f64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [x as u64, y as u64, z as u64] {
        h ^= v.wrapping_add(0x0123_4567_89AB_CDEF);
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    ((h >> 11) % 4096) as f64 / 2048.0 - 1.0
}

/// Poisson CG as a resumable job.
pub struct PoissonJob {
    pub(crate) backend: Backend,
    dim: Dim3,
    options: SkeletonOptions,
    pub(crate) solver: PoissonSolver<DenseGrid>,
    total: u64,
    completed: u64,
    /// Residual bits after each committed iteration (truncated on restore).
    residual_bits: Vec<u64>,
    /// The cg-init report, folded whole into the first advance report.
    pending_setup: ExecReport,
}

impl PoissonJob {
    /// Build and initialize the solver on `backend`.
    pub fn new(
        backend: &Backend,
        dim: u32,
        iters: u64,
        rhs_seed: u64,
        options: SkeletonOptions,
    ) -> Result<Self> {
        let mut job = Self::uninit(backend, Dim3::cube(dim as usize), iters, options)?;
        job.solver
            .cg
            .state
            .b
            .fill(|x, y, z, _| poisson_rhs(rhs_seed, x, y, z));
        job.pending_setup = job.solver.cg.init();
        Ok(job)
    }

    /// The job with its solver built on `backend` but no right-hand side
    /// and no CG initialization yet.
    pub(crate) fn uninit(
        backend: &Backend,
        dim: Dim3,
        iters: u64,
        options: SkeletonOptions,
    ) -> Result<Self> {
        Ok(PoissonJob {
            backend: backend.clone(),
            dim,
            options,
            solver: Self::build_solver(backend, dim, &options)?,
            total: iters,
            completed: 0,
            residual_bits: Vec::new(),
            pending_setup: ExecReport::default(),
        })
    }

    fn build_solver(
        backend: &Backend,
        dim: Dim3,
        options: &SkeletonOptions,
    ) -> Result<PoissonSolver<DenseGrid>> {
        let stencil = Stencil::seven_point();
        let grid = DenseGrid::new(backend, dim, &[&stencil], StorageMode::Real)?;
        PoissonSolver::with_options(&grid, *options)
    }
}

impl SolverJob for PoissonJob {
    fn num_devices(&self) -> usize {
        self.backend.num_devices()
    }

    fn completed(&self) -> u64 {
        self.completed
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn advance(&mut self, iters: u64) -> ExecReport {
        let span = iters.min(self.total - self.completed);
        let mut report = std::mem::take(&mut self.pending_setup);
        for _ in 0..span {
            report.accumulate(self.solver.solve_iters(1));
            self.completed += 1;
            self.residual_bits
                .push(self.solver.cg.state.rs_old.host_value().to_bits());
        }
        report
    }

    fn result_bits(&self) -> u64 {
        let mut h = StableHasher::new();
        for b in &self.residual_bits {
            h.write_u64(*b);
        }
        h.finish()
    }

    fn capture(&mut self) -> Checkpoint {
        self.solver.cg.capture_checkpoint(self.completed)
    }

    fn restore(&mut self, cp: &Checkpoint) {
        cp.restore();
        self.completed = cp.iteration();
        self.residual_bits.truncate(self.completed as usize);
    }

    fn migrate_to(&mut self, backend: &Backend) -> Result<()> {
        let fresh = Self::build_solver(backend, self.dim, &self.options)?;
        // Partition boundaries moved; the logical (x, y, z) → value map did
        // not. `b` migrates too: it is read-only but still the problem.
        let old = &self.solver.cg.state;
        let new = &fresh.cg.state;
        for (src, dst) in [
            (&old.x, &new.x),
            (&old.b, &new.b),
            (&old.r, &new.r),
            (&old.p, &new.p),
            (&old.ap, &new.ap),
        ] {
            src.for_each(|x, y, z, comp, v| {
                dst.set(x, y, z, comp, v);
            });
            dst.update_halos();
        }
        for (src, dst) in [
            (&old.rs_old, &new.rs_old),
            (&old.rs_new, &new.rs_new),
            (&old.p_ap, &new.p_ap),
            (&old.alpha, &new.alpha),
            (&old.beta, &new.beta),
        ] {
            dst.set_host(src.host_value());
        }
        self.solver = fresh;
        self.backend = backend.clone();
        Ok(())
    }
}

/// D3Q19 lid-driven cavity as a resumable job.
pub struct LbmJob {
    backend: Backend,
    dim: Dim3,
    options: SkeletonOptions,
    app: LidDrivenCavity<DenseGrid>,
    total: u64,
    completed: u64,
}

impl LbmJob {
    /// Build and initialize the cavity on `backend`.
    pub fn new(backend: &Backend, dim: u32, iters: u64, options: SkeletonOptions) -> Result<Self> {
        let dim3 = Dim3::cube(dim as usize);
        let mut app = Self::build_app(backend, dim3, &options)?;
        app.init();
        Ok(LbmJob {
            backend: backend.clone(),
            dim: dim3,
            options,
            app,
            total: iters,
            completed: 0,
        })
    }

    fn build_app(
        backend: &Backend,
        dim: Dim3,
        options: &SkeletonOptions,
    ) -> Result<LidDrivenCavity<DenseGrid>> {
        let stencil = Stencil::d3q19();
        let grid = DenseGrid::new(backend, dim, &[&stencil], StorageMode::Real)?;
        LidDrivenCavity::with_options(&grid, LbmParams::default(), *options)
    }
}

impl SolverJob for LbmJob {
    fn num_devices(&self) -> usize {
        self.backend.num_devices()
    }

    fn completed(&self) -> u64 {
        self.completed
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn advance(&mut self, iters: u64) -> ExecReport {
        let span = iters.min(self.total - self.completed);
        let report = self.app.step(span as usize);
        self.completed += span;
        report
    }

    fn result_bits(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.completed);
        self.app
            .current()
            .for_each(|_, _, _, _, v| h.write_u64(v.to_bits()));
        h.finish()
    }

    fn capture(&mut self) -> Checkpoint {
        Checkpoint::capture(self.completed, &self.app.checkpoint_handles())
    }

    fn restore(&mut self, cp: &Checkpoint) {
        cp.restore();
        self.completed = cp.iteration();
        self.app.set_step_index(self.completed as usize);
    }

    fn migrate_to(&mut self, backend: &Backend) -> Result<()> {
        let fresh = Self::build_app(backend, self.dim, &self.options)?;
        for q in 0..2 {
            let (src, dst) = (self.app.population(q), fresh.population(q));
            src.for_each(|x, y, z, comp, v| {
                dst.set(x, y, z, comp, v);
            });
            dst.update_halos();
        }
        self.app = fresh;
        self.app.set_step_index(self.completed as usize);
        self.backend = backend.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_core::{FunctionalMode, OccLevel};
    use neon_sys::DeviceId;

    fn options() -> SkeletonOptions {
        SkeletonOptions::with_occ(OccLevel::Standard)
    }

    #[test]
    fn advance_clamps_and_reports_each_window() {
        let b = Backend::dgx_a100(2);
        let mut job = PoissonJob::new(&b, 8, 5, 7, options()).unwrap();
        let setup = job.pending_setup;
        assert_eq!(job.total(), 5);
        let first = job.advance(2);
        assert_eq!(job.completed(), 2);
        assert_eq!(first.executions, 3, "cg-init + two iterations");
        let rest = job.advance(100);
        assert_eq!(job.completed(), 5);
        assert_eq!(rest.executions, 3);
        assert!(job.is_done());
        // Every iteration does the same work, and the first window carries
        // the whole cg-init on top: its counts as well as its time.
        assert!(setup.launches > 0 && rest.launches > 0);
        assert_eq!(first.launches, setup.launches + 2 * rest.launches / 3);
        assert_eq!(
            first.bytes_moved,
            setup.bytes_moved + 2 * rest.bytes_moved / 3
        );
    }

    #[test]
    fn sliced_run_is_bit_identical_to_straight_run() {
        let b = Backend::dgx_a100(2);
        for spec in [
            JobSpec::Poisson {
                dim: 8,
                iters: 6,
                rhs_seed: 3,
            },
            JobSpec::Lbm { dim: 6, iters: 6 },
        ] {
            let mut solo = spec.build(&b, options()).unwrap();
            solo.advance(6);
            let mut sliced = spec.build(&b, options()).unwrap();
            for _ in 0..6 {
                sliced.advance(1);
            }
            assert_eq!(
                solo.result_bits(),
                sliced.result_bits(),
                "iteration slicing changed {spec:?}"
            );
        }
    }

    #[test]
    fn lbm_job_runs_in_the_functional_mode_it_was_given() {
        let b = Backend::dgx_a100(2);
        let run = |mode: FunctionalMode| {
            let opts = SkeletonOptions {
                functional_mode: mode,
                ..options()
            };
            let mut job = LbmJob::new(&b, 6, 5, opts).unwrap();
            assert_eq!(job.app.skeleton().functional_mode(), mode);
            job.advance(5);
            job.result_bits()
        };
        assert_eq!(
            run(FunctionalMode::Serial),
            run(FunctionalMode::Parallel),
            "serial and parallel LBM jobs diverged"
        );
    }

    #[test]
    fn checkpoint_rolls_back_state_and_iteration() {
        let b = Backend::dgx_a100(2);
        for spec in [
            JobSpec::Poisson {
                dim: 8,
                iters: 6,
                rhs_seed: 11,
            },
            JobSpec::Lbm { dim: 6, iters: 6 },
        ] {
            let mut job = spec.build(&b, options()).unwrap();
            job.advance(3);
            let cp = job.capture();
            let bits_at_cp = job.result_bits();
            job.advance(2);
            assert_ne!(job.result_bits(), bits_at_cp);
            job.restore(&cp);
            assert_eq!(job.completed(), 3);
            assert_eq!(job.result_bits(), bits_at_cp, "restore diverged {spec:?}");
            // Replaying after a rollback reproduces the same final bits.
            let mut reference = spec.build(&b, options()).unwrap();
            reference.advance(6);
            job.advance(3);
            assert_eq!(job.result_bits(), reference.result_bits());
        }
    }

    #[test]
    fn migration_matches_voluntary_restart_oracle() {
        // A job migrated from 2 devices to 1 at iteration 3 must finish
        // bit-identical to a solo run that performs the same migration at
        // the same boundary (the serving layer's device-loss oracle).
        let fleet = Backend::dgx_a100(4);
        let two = fleet.with_devices(&[DeviceId(0), DeviceId(1)]).unwrap();
        let one = fleet.with_devices(&[DeviceId(3)]).unwrap();
        for spec in [
            JobSpec::Poisson {
                dim: 8,
                iters: 6,
                rhs_seed: 5,
            },
            JobSpec::Lbm { dim: 6, iters: 6 },
        ] {
            let mut a = spec.build(&two, options()).unwrap();
            a.advance(3);
            a.migrate_to(&one).unwrap();
            assert_eq!(a.num_devices(), 1);
            assert!(
                a.advance(3).launches > 0,
                "the migrated job reports its work"
            );

            let other_one = fleet.with_devices(&[DeviceId(2)]).unwrap();
            let mut b = spec.build(&two, options()).unwrap();
            b.advance(3);
            b.migrate_to(&other_one).unwrap();
            b.advance(3);
            assert_eq!(
                a.result_bits(),
                b.result_bits(),
                "migration oracle {spec:?}"
            );
        }
    }
}
