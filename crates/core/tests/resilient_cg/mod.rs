//! A resilient Poisson CG run, shared by the device-fault and link-fault
//! gates: checkpoints every 4 iterations, Standard OCC, a point source at
//! the centre of a `dim³` grid.

use neon_apps::{RecoveryReport, ResilientPoisson};
use neon_core::{FaultPlan, OccLevel, PermanentFault, ResilienceOptions, SkeletonOptions};
use neon_domain::Dim3;
use neon_sys::Backend;

pub struct CgRun {
    /// Residual bits after every call to `iterate`.
    pub bits: Vec<u64>,
    /// Recovery summed over the run; `report.makespan` is its virtual time.
    pub total: RecoveryReport,
    pub devices_end: usize,
}

impl CgRun {
    pub fn virt_us(&self) -> f64 {
        self.total.report.makespan.as_us()
    }

    /// Print this run as a row of README's recovery tables (visible under
    /// `--nocapture`): virtual time, overhead over `clean`,
    /// recovered/injected faults, rollbacks/replayed iterations,
    /// evictions, link repairs and the devices left.
    pub fn print_row(&self, scenario: &str, clean: &CgRun) {
        let (t, r) = (&self.total, &self.total.report);
        let overhead = 100.0 * (self.virt_us() / clean.virt_us() - 1.0);
        println!(
            "| {scenario} | {:.1} | {overhead:+.1} % | {}/{} | {}/{} | {} | {} | {} |",
            self.virt_us(),
            r.faults_recovered,
            r.faults_injected,
            t.rollbacks,
            t.replayed,
            t.evictions,
            t.link_repairs,
            self.devices_end
        );
    }
}

/// Run `iters` iterations under `plan`, healing `heal` by hand before
/// iteration `at` when given (a planned eviction or cable pull). With
/// `chunked` the iterations run as one resilient call, so an escaped
/// fault rolls back to a periodic checkpoint and replays; otherwise one
/// call per iteration.
pub fn resilient_cg(
    backend: &Backend,
    dim: usize,
    iters: usize,
    plan: Option<FaultPlan>,
    heal: Option<(u64, PermanentFault)>,
    chunked: bool,
) -> CgRun {
    let options = SkeletonOptions {
        occ: OccLevel::Standard,
        resilience: ResilienceOptions {
            enabled: true,
            checkpoint_interval: 4,
            ..ResilienceOptions::default()
        },
        ..Default::default()
    };
    let mut solver = ResilientPoisson::new(backend, Dim3::cube(dim), options).unwrap();
    let c = (dim / 2) as i32;
    solver.set_rhs(|x, y, z| if (x, y, z) == (c, c, c) { 1.0 } else { 0.0 });
    if let Some(p) = plan {
        solver.install_fault_plan(p);
    }
    let (calls, per_call) = if chunked { (1, iters) } else { (iters, 1) };
    let mut total = RecoveryReport::default();
    let mut bits = Vec::new();
    for i in 0..calls as u64 {
        if let Some((at, fault)) = heal {
            if i == at {
                solver.heal(fault).expect("planned heal");
            }
        }
        let r = solver.iterate(per_call).expect("iterations heal");
        total.report.accumulate(r.report);
        total.rollbacks += r.rollbacks;
        total.replayed += r.replayed;
        total.evictions += r.evictions;
        total.link_repairs += r.link_repairs;
        bits.push(solver.residual().to_bits());
    }
    CgRun {
        bits,
        total,
        devices_end: solver.backend().num_devices(),
    }
}
