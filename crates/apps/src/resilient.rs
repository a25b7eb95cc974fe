//! Self-healing Poisson solve: a [`PoissonJob`] driven through the one
//! recovery path.
//!
//! Transient kernel/transfer faults heal inside
//! [`neon_core::Skeleton::run_iters_resilient`] (retry, then checkpoint
//! rollback). A permanent fault — a lost device, a severed or degraded
//! link — surfaces after that rollback as an [`ExecError`], and
//! [`ResilientPoisson::heal`] takes the path the server's jobs take too:
//! [`neon_core::heal_backend`], then [`crate::SolverJob::migrate_to`].
//! Iteration resumes from the checkpoint without re-running `cg-init`.
//!
//! After an eviction the residual history is bit-identical to a run that
//! healed the same fault voluntarily at the same checkpoint; fewer
//! partitions regroup the dot products, so it is not the fault-free
//! history. A link fault keeps the partitioning, and with it every bit.

use neon_core::{ExecError, ExecReport, PermanentFault, SkeletonOptions};
use neon_domain::Dim3;
use neon_sys::{Backend, FaultPlan, Result};

use crate::job::{PoissonJob, SolverJob as _};

/// Outcome of a [`ResilientPoisson::iterate`] call that ran to completion
/// (possibly after rollbacks and device evictions).
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Aggregated execution report over every committed iteration.
    pub report: ExecReport,
    /// Checkpoint restores triggered by transient faults that escaped
    /// retry.
    pub rollbacks: u64,
    /// Committed iterations that had to be re-executed after rollbacks
    /// (transient) or evictions (device loss).
    pub replayed: u64,
    /// Permanent device losses healed by eviction + recompilation.
    pub evictions: u64,
    /// Permanent link losses/degrades healed by recompiling on the
    /// re-wired topology (every device survives).
    pub link_repairs: u64,
}

/// A Poisson CG solver that survives transient faults *and* permanent
/// device or link faults, rebuilding itself on the healed backend.
pub struct ResilientPoisson {
    job: PoissonJob,
    /// Next logical iteration to run.
    iteration: u64,
    evictions: u64,
    link_repairs: u64,
}

impl ResilientPoisson {
    /// Build the solver on `backend` for a dense `dim` grid.
    pub fn new(backend: &Backend, dim: Dim3, options: SkeletonOptions) -> Result<Self> {
        Ok(ResilientPoisson {
            job: PoissonJob::uninit(backend, dim, 0, options)?,
            iteration: 0,
            evictions: 0,
            link_repairs: 0,
        })
    }

    /// Fill the right-hand side and run CG initialization.
    pub fn set_rhs(&mut self, f: impl Fn(i32, i32, i32) -> f64) {
        self.job.solver.set_rhs(f);
        self.iteration = 0;
    }

    /// Install a fault plan on the CG iteration skeleton. A heal drops it:
    /// eviction renumbers the devices its specs address, and a permanent
    /// event would re-fire against the healed hardware.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.job.solver.install_fault_plan(plan);
    }

    /// The backend currently in use (shrinks after evictions).
    pub fn backend(&self) -> &Backend {
        &self.job.backend
    }

    /// Devices lost and healed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Link faults (losses or degrades) healed by recompilation so far.
    pub fn link_repairs(&self) -> u64 {
        self.link_repairs
    }

    /// Current residual norm.
    pub fn residual(&self) -> f64 {
        self.job.solver.residual()
    }

    /// Run `n` CG iterations, healing transient faults by rollback and
    /// permanent ones by [`ResilientPoisson::heal`]. Returns an error only
    /// for failures no recovery level can absorb (structural errors, or a
    /// fault the backend cannot heal, such as losing the last device).
    pub fn iterate(&mut self, n: usize) -> std::result::Result<RecoveryReport, ExecError> {
        let end = self.iteration + n as u64;
        let healed_before = (self.evictions, self.link_repairs);
        let mut out = RecoveryReport::default();
        while self.iteration < end {
            let left = (end - self.iteration) as usize;
            match self.job.solver.solve_iters_resilient(self.iteration, left) {
                Ok(run) => {
                    out.report.accumulate(run.report);
                    out.rollbacks += run.rollbacks;
                    out.replayed += run.replayed;
                    self.iteration = end;
                }
                Err(fail) => {
                    let Some(fault) = fail.error.permanent_fault() else {
                        return Err(fail.error);
                    };
                    // State is already rolled back to `fail.checkpoint`;
                    // re-run everything from there on the healed backend.
                    if self.heal(fault).is_err() {
                        return Err(fail.error);
                    }
                    let resume = fail.checkpoint.iteration();
                    out.replayed += self.iteration.saturating_sub(resume);
                    self.iteration = resume;
                }
            }
        }
        out.evictions = self.evictions - healed_before.0;
        out.link_repairs = self.link_repairs - healed_before.1;
        Ok(out)
    }

    /// Heal a permanent `fault`: [`neon_core::heal_backend`], then
    /// [`crate::SolverJob::migrate_to`] the state onto the healed backend.
    /// [`ResilientPoisson::iterate`] calls this after the skeleton's
    /// rollback; a direct call is a planned eviction or cable pull (the
    /// fault benchmarks' voluntary oracle).
    pub fn heal(&mut self, fault: PermanentFault) -> std::result::Result<(), ExecError> {
        let healed = neon_core::heal_backend(self.backend(), fault)?;
        self.job
            .migrate_to(&healed)
            .map_err(|_| ExecError::from_permanent(fault, self.iteration))?;
        match fault {
            PermanentFault::DeviceLoss(_) => self.evictions += 1,
            _ => self.link_repairs += 1,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_core::{OccLevel, ResilienceOptions};
    use neon_sys::DeviceId;

    fn options() -> SkeletonOptions {
        SkeletonOptions {
            resilience: ResilienceOptions {
                enabled: true,
                checkpoint_interval: 3,
                ..ResilienceOptions::default()
            },
            ..SkeletonOptions::with_occ(OccLevel::Standard)
        }
    }

    fn rhs(x: i32, y: i32, z: i32) -> f64 {
        ((x * 3 + y * 5 + z * 7) % 11) as f64 - 5.0
    }

    /// Residual history of a run with a mid-run device loss: the prefix
    /// (before the loss) is bit-identical to a fault-free run, and the
    /// suffix is bit-identical to a run that voluntarily evicted the same
    /// device at the same checkpoint.
    #[test]
    fn device_loss_heals_and_matches_voluntary_eviction() {
        let dim = Dim3::new(10, 10, 12);
        let iters = 12usize;
        let lost_at = 7u64;
        let dead = DeviceId(2);

        // Fault-free reference history on 4 devices.
        let mut clean = ResilientPoisson::new(&Backend::dgx_a100(4), dim, options()).unwrap();
        clean.set_rhs(rhs);
        let mut clean_hist = Vec::new();
        for _ in 0..iters {
            clean.iterate(1).unwrap();
            clean_hist.push(clean.residual());
        }

        // Faulted run: device 2 dies at logical iteration `lost_at`.
        let mut faulty = ResilientPoisson::new(&Backend::dgx_a100(4), dim, options()).unwrap();
        faulty.set_rhs(rhs);
        faulty.install_fault_plan(FaultPlan::none().with_device_loss(lost_at, dead));
        let mut fault_hist = Vec::new();
        let mut total = RecoveryReport::default();
        for _ in 0..iters {
            let r = faulty.iterate(1).unwrap();
            total.evictions += r.evictions;
            total.replayed += r.replayed;
            fault_hist.push(faulty.residual());
        }
        assert_eq!(total.evictions, 1, "exactly one eviction expected");
        assert_eq!(faulty.backend().num_devices(), 3);

        // Oracle: voluntarily switch to the 3-survivor backend at the same
        // checkpoint (iterate(1) checkpoints every iteration, so the
        // rollback target is exactly `lost_at`).
        let mut oracle = ResilientPoisson::new(&Backend::dgx_a100(4), dim, options()).unwrap();
        oracle.set_rhs(rhs);
        let mut oracle_hist = Vec::new();
        for i in 0..iters as u64 {
            if i == lost_at {
                oracle.heal(PermanentFault::DeviceLoss(dead)).unwrap();
            }
            oracle.iterate(1).unwrap();
            oracle_hist.push(oracle.residual());
        }

        for i in 0..lost_at as usize {
            assert_eq!(
                fault_hist[i].to_bits(),
                clean_hist[i].to_bits(),
                "prefix diverged from fault-free at iteration {i}"
            );
        }
        for i in 0..iters {
            assert_eq!(
                fault_hist[i].to_bits(),
                oracle_hist[i].to_bits(),
                "history diverged from voluntary-eviction oracle at iteration {i}"
            );
        }
    }

    /// Transient faults (recovered or escaped) leave the residual history
    /// bit-identical to a fault-free run.
    #[test]
    fn transient_faults_are_bit_transparent() {
        let dim = Dim3::new(8, 8, 10);
        let iters = 10usize;

        let run = |plan: Option<FaultPlan>| -> Vec<u64> {
            let mut s = ResilientPoisson::new(&Backend::dgx_a100(4), dim, options()).unwrap();
            s.set_rhs(rhs);
            if let Some(p) = plan {
                s.install_fault_plan(p);
            }
            let mut hist = Vec::new();
            for _ in 0..iters {
                s.iterate(1).unwrap();
                hist.push(s.residual().to_bits());
            }
            hist
        };

        let clean = run(None);
        // Recovered fault (fails < max_attempts) and an escaped fault
        // (fails >= max_attempts, forcing a rollback).
        let plan = FaultPlan::none()
            .with_kernel_fault(2, DeviceId(1), 0, 1)
            .with_transfer_fault(4, DeviceId(3), 0, 1)
            .with_kernel_fault(6, DeviceId(0), 1, 10);
        assert_eq!(run(Some(plan)), clean);
    }

    /// A mid-run permanent link loss heals by recompiling on the degraded
    /// topology. Unlike device eviction, every device survives: the
    /// partitioning — and with it every FP reduction grouping — is
    /// unchanged, so the *entire* residual history stays bit-identical to
    /// the fault-free run and to an oracle that severed the wire before
    /// ever starting.
    #[test]
    fn link_loss_heals_and_stays_bit_identical() {
        let dim = Dim3::new(10, 10, 12);
        let iters = 12usize;
        let lost_at = 6u64;
        let (a, b) = (DeviceId(0), DeviceId(1));

        let history = |prep: &dyn Fn(&mut ResilientPoisson)| -> (Vec<u64>, u64) {
            let mut s = ResilientPoisson::new(&Backend::dgx_a100(4), dim, options()).unwrap();
            s.set_rhs(rhs);
            prep(&mut s);
            let mut hist = Vec::new();
            for _ in 0..iters {
                s.iterate(1).unwrap();
                hist.push(s.residual().to_bits());
            }
            assert_eq!(s.backend().num_devices(), 4, "no device was evicted");
            (hist, s.link_repairs())
        };

        let (clean, _) = history(&|_| {});
        let (faulted, repairs) = history(&|s| {
            s.install_fault_plan(FaultPlan::none().with_link_loss(lost_at, a, b));
        });
        assert_eq!(repairs, 1, "exactly one link repair expected");
        // Oracle: the wire was never there to begin with.
        let (oracle, _) = history(&|s| s.heal(PermanentFault::LinkLoss(a, b)).unwrap());

        assert_eq!(faulted, clean, "link loss must be functionally invisible");
        assert_eq!(faulted, oracle, "degraded-start oracle diverged");
    }

    /// A permanent bandwidth degrade takes the same recompile path and is
    /// equally invisible to the numerics.
    #[test]
    fn link_degrade_heals_and_stays_bit_identical() {
        let dim = Dim3::new(8, 8, 10);
        let iters = 10usize;

        let mut clean = ResilientPoisson::new(&Backend::dgx_a100(4), dim, options()).unwrap();
        clean.set_rhs(rhs);
        let mut faulty = ResilientPoisson::new(&Backend::dgx_a100(4), dim, options()).unwrap();
        faulty.set_rhs(rhs);
        faulty.install_fault_plan(FaultPlan::none().with_link_degrade(
            4,
            DeviceId(1),
            DeviceId(2),
            0.25,
        ));
        let mut repairs = 0;
        for _ in 0..iters {
            clean.iterate(1).unwrap();
            let r = faulty.iterate(1).unwrap();
            repairs += r.link_repairs;
            assert_eq!(
                faulty.residual().to_bits(),
                clean.residual().to_bits(),
                "degrade must be functionally invisible"
            );
        }
        assert_eq!(repairs, 1);
        assert_eq!(faulty.evictions(), 0);
        // The repaired backend really runs the slower wire.
        let link = faulty.backend().topology().link(DeviceId(1), DeviceId(2));
        let healthy = clean.backend().topology().link(DeviceId(1), DeviceId(2));
        assert!(link.bandwidth_gb_s < healthy.bandwidth_gb_s * 0.3);
    }

    /// Losing the only device is unrecoverable and surfaces as a
    /// structured error, not a panic.
    #[test]
    fn last_device_loss_is_fatal_but_structured() {
        let mut s =
            ResilientPoisson::new(&Backend::dgx_a100(1), Dim3::new(6, 6, 6), options()).unwrap();
        s.set_rhs(rhs);
        s.install_fault_plan(FaultPlan::none().with_device_loss(2, DeviceId(0)));
        let err = s.iterate(5).unwrap_err();
        assert!(matches!(err, ExecError::DeviceLost { device, .. } if device == DeviceId(0)));
    }
}
