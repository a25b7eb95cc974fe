//! Fault-injection benchmark: 4-device Poisson CG at 64³ under a
//! deterministic fault plan, demonstrating the three recovery tiers of
//! the self-healing executor (see DESIGN.md §5):
//!
//! * **transient** — kernel/transfer faults absorbed by retry + backoff:
//!   only virtual time changes, the residual history stays bit-identical
//!   to the clean run;
//! * **rollback** — a fault that escapes retry restores the last
//!   checkpoint and replays; still bit-identical (failed attempts have no
//!   data side effects, fault specs are consumed once);
//! * **device-loss** — a device dies mid-run and is evicted: the solver
//!   recompiles on the survivors and resumes from the checkpoint. The
//!   pre-loss residual history is bit-identical to the clean run, and the
//!   whole history is bit-identical to a *voluntary eviction oracle* that
//!   switched to the survivor backend at the same iteration (post-loss
//!   bits differ from the 4-device run only through FP reduction
//!   grouping, which is inherent to the partition-count change).
//!
//! Reported per scenario: host wall-clock, total virtual time (where
//! retry backoff and replayed iterations show up as recovery overhead),
//! fault counters, rollbacks and evictions. The identity gates above are
//! asserted, not just printed.
//!
//! Output: a table on stdout and machine-readable JSON at
//! `results/BENCH_faults.json`.
//!
//! `--smoke` runs a small grid, asserts every gate and exits non-zero on
//! violation without touching the results file (CI hook).

use std::fmt::Write as _;
use std::time::Instant;

use neon_apps::{PoissonSolver, RecoveryReport, ResilientPoisson};
use neon_bench::render_table;
use neon_core::{
    ExecError, FaultPlan, OccLevel, PermanentFault, ResilienceOptions, SkeletonOptions,
};
use neon_domain::{DenseGrid, Dim3, Stencil, StorageMode};
use neon_sys::{Backend, DeviceId};

const NDEV: usize = 4;

fn options() -> SkeletonOptions {
    SkeletonOptions {
        occ: OccLevel::Standard,
        resilience: ResilienceOptions {
            enabled: true,
            checkpoint_interval: 4,
            ..ResilienceOptions::default()
        },
        ..Default::default()
    }
}

fn rhs_for(dim: usize) -> impl Fn(i32, i32, i32) -> f64 {
    move |x, y, z| {
        let c = (dim / 2) as i32;
        if x == c && y == c && z == c {
            1.0
        } else {
            0.0
        }
    }
}

struct ScenarioRun {
    label: &'static str,
    wall_ms: f64,
    /// Total virtual time over committed iterations (includes retry
    /// backoff and replayed work — the recovery overhead).
    virt_us: f64,
    residual_bits: Vec<u64>,
    final_residual: f64,
    injected: u64,
    recovered: u64,
    retries: u64,
    rollbacks: u64,
    replayed: u64,
    evictions: u64,
    devices_end: usize,
}

/// Run `iters` CG iterations, healing whatever `plan` throws at the
/// solver. With `chunked == false` the iterations run one at a time to
/// record the residual after each (per-call checkpoints); with
/// `chunked == true` they run as one resilient call, so an escaped fault
/// rolls back to the periodic checkpoint and *replays* — only the final
/// residual is recorded. `evict_at` drives the voluntary-eviction oracle.
fn run_scenario(
    label: &'static str,
    dim: usize,
    iters: usize,
    plan: Option<FaultPlan>,
    evict_at: Option<(u64, DeviceId)>,
    chunked: bool,
) -> ScenarioRun {
    let backend = Backend::dgx_a100(NDEV);
    let mut solver = ResilientPoisson::new(&backend, Dim3::cube(dim), options()).expect("solver");
    solver.set_rhs(rhs_for(dim));
    if let Some(p) = plan {
        solver.install_fault_plan(p);
    }

    let mut total = RecoveryReport::default();
    let mut residual_bits = Vec::with_capacity(iters);
    let t0 = Instant::now();
    if chunked {
        let r = solver.iterate(iters).expect("iterations should heal");
        total.report.accumulate(r.report);
        total.rollbacks += r.rollbacks;
        total.replayed += r.replayed;
        total.evictions += r.evictions;
        residual_bits.push(solver.residual().to_bits());
    } else {
        for i in 0..iters as u64 {
            if let Some((at, dead)) = evict_at {
                if i == at {
                    solver
                        .heal(PermanentFault::DeviceLoss(dead))
                        .expect("voluntary eviction");
                }
            }
            let r = solver.iterate(1).expect("iteration should heal");
            total.report.accumulate(r.report);
            total.rollbacks += r.rollbacks;
            total.replayed += r.replayed;
            total.evictions += r.evictions;
            residual_bits.push(solver.residual().to_bits());
        }
    }
    let wall = t0.elapsed();

    ScenarioRun {
        label,
        wall_ms: wall.as_secs_f64() * 1e3,
        virt_us: total.report.makespan.as_us(),
        residual_bits,
        final_residual: solver.residual(),
        injected: total.report.faults_injected,
        recovered: total.report.faults_recovered,
        retries: total.report.retries,
        rollbacks: total.rollbacks,
        replayed: total.replayed,
        evictions: total.evictions,
        devices_end: solver.backend().num_devices(),
    }
}

/// With recovery disabled, an injected fault must surface as a structured
/// [`ExecError`], not a panic.
fn check_structured_failure(dim: usize) {
    let backend = Backend::dgx_a100(NDEV);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(&backend, Dim3::cube(dim), &[&st], StorageMode::Real).expect("grid");
    let mut solver = PoissonSolver::with_options(
        &grid,
        SkeletonOptions {
            occ: OccLevel::Standard,
            ..Default::default() // resilience disabled: max_attempts == 1
        },
    )
    .expect("solver");
    solver.set_rhs(rhs_for(dim));
    solver.install_fault_plan(FaultPlan::none().with_kernel_fault(1, DeviceId(1), 0, 1));
    let err = solver
        .try_solve_iters(4)
        .expect_err("fault with recovery disabled must fail");
    assert!(
        matches!(err, ExecError::TransientFaultEscaped { device, .. } if device == DeviceId(1)),
        "expected a structured TransientFaultEscaped, got: {err}"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (dim, iters) = if smoke { (16, 8) } else { (64, 40) };
    let lost_at = iters as u64 / 2;
    let dead = DeviceId(2);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "== repro_faults: {NDEV}-device Poisson CG at {dim}^3, {iters} iterations, \
         device {} lost at iteration {lost_at}, host_cores={host_cores} ==\n",
        dead.0
    );

    let clean = run_scenario("clean", dim, iters, None, None, false);

    // Transient tier: one kernel fault and one transfer fault, both
    // recovered within the default 3-attempt budget.
    let transient_plan = FaultPlan::none()
        .with_kernel_fault(2, DeviceId(1), 0, 1)
        .with_transfer_fault(lost_at, DeviceId(3), 0, 2);
    let transient = run_scenario("transient", dim, iters, Some(transient_plan), None, false);

    // Rollback tier: a kernel fault that exhausts retry and forces a
    // checkpoint restore. The faulted iteration sits off the checkpoint
    // boundary, so healing genuinely replays iterations, and the run is
    // driven as one resilient call so the periodic checkpoints are what
    // the rollback lands on.
    let rollback_plan = FaultPlan::none().with_kernel_fault(lost_at + 2, DeviceId(0), 1, 10);
    let rollback = run_scenario("rollback", dim, iters, Some(rollback_plan), None, true);

    // Device-loss tier, plus its voluntary-eviction oracle.
    let loss_plan = FaultPlan::none().with_device_loss(lost_at, dead);
    let loss = run_scenario("device-loss", dim, iters, Some(loss_plan), None, false);
    let oracle = run_scenario(
        "evict-oracle",
        dim,
        iters,
        None,
        Some((lost_at, dead)),
        false,
    );

    let mut rows = Vec::new();
    for r in [&clean, &transient, &rollback, &loss, &oracle] {
        let overhead = (r.virt_us - clean.virt_us) / clean.virt_us * 100.0;
        rows.push(vec![
            r.label.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.1}", r.virt_us),
            format!("{overhead:+.1}%"),
            format!("{}/{}", r.recovered, r.injected),
            format!("{}", r.retries),
            format!("{}/{}", r.rollbacks, r.replayed),
            format!("{}", r.evictions),
            format!("{}", r.devices_end),
            format!("{:.3e}", r.final_residual),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "Scenario",
                "Wall (ms)",
                "Virtual (us)",
                "Overhead",
                "Recovered/Injected",
                "Retries",
                "Rollbacks/Replayed",
                "Evictions",
                "Devices",
                "Final residual",
            ],
            &rows
        )
    );
    println!();

    // --- Acceptance gates -------------------------------------------------
    let mut failed = false;
    let mut gate = |ok: bool, msg: &str| {
        if ok {
            println!("PASS: {msg}");
        } else {
            eprintln!("FAIL: {msg}");
            failed = true;
        }
    };

    gate(
        transient.residual_bits == clean.residual_bits,
        "retried faults leave the residual history bit-identical",
    );
    gate(
        transient.injected >= 2 && transient.recovered >= 2 && transient.retries >= 3,
        "transient scenario actually injected and recovered faults",
    );
    gate(
        rollback.residual_bits.last() == clean.residual_bits.last(),
        "checkpoint rollback reconverges bit-identically",
    );
    gate(
        rollback.rollbacks >= 1 && rollback.replayed >= 1,
        "rollback scenario actually rolled back and replayed",
    );
    gate(
        rollback.virt_us > clean.virt_us,
        "replayed iterations cost virtual time (rollback overhead is visible)",
    );
    gate(
        loss.residual_bits[..lost_at as usize] == clean.residual_bits[..lost_at as usize],
        "pre-loss residual history is bit-identical to the clean run",
    );
    gate(
        loss.residual_bits == oracle.residual_bits,
        "post-loss history matches the voluntary-eviction oracle bit-for-bit",
    );
    gate(
        loss.evictions == 1 && loss.devices_end == NDEV - 1,
        "device loss healed by exactly one eviction",
    );
    gate(
        loss.virt_us > clean.virt_us,
        "losing a device costs virtual time (capability loss is visible)",
    );
    check_structured_failure(dim);
    println!("PASS: recovery-disabled faults fail with a structured error, no panic");

    if failed {
        std::process::exit(1);
    }
    let overhead_transient = (transient.virt_us - clean.virt_us) / clean.virt_us * 100.0;
    let overhead_loss = (loss.virt_us - clean.virt_us) / clean.virt_us * 100.0;
    println!(
        "\nrecovery overhead: transient {overhead_transient:+.2}% virtual time, \
         device loss {overhead_loss:+.2}% (includes running on {} devices after eviction)",
        NDEV - 1
    );

    if smoke {
        return; // CI gate: identities checked, no results file
    }

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"repro_faults\",\"devices\":{NDEV},\"dim\":{dim},\
         \"iters\":{iters},\"lost_at\":{lost_at},\"dead_device\":{},\
         \"host_cores\":{host_cores},\
         \"transient_overhead_pct\":{overhead_transient:.4},\
         \"device_loss_overhead_pct\":{overhead_loss:.4},\"scenarios\":[",
        dead.0
    );
    for (i, r) in [&clean, &transient, &rollback, &loss, &oracle]
        .iter()
        .enumerate()
    {
        let _ = write!(
            json,
            "{}{{\"scenario\":\"{}\",\"wall_ms\":{:.3},\"virtual_us\":{:.3},\
             \"faults_injected\":{},\"faults_recovered\":{},\"retries\":{},\
             \"rollbacks\":{},\"replayed\":{},\"evictions\":{},\"devices_end\":{},\
             \"final_residual\":{:.6e},\"bit_identical_to_clean\":{}}}",
            if i == 0 { "" } else { "," },
            r.label,
            r.wall_ms,
            r.virt_us,
            r.injected,
            r.recovered,
            r.retries,
            r.rollbacks,
            r.replayed,
            r.evictions,
            r.devices_end,
            r.final_residual,
            r.residual_bits.last() == clean.residual_bits.last(),
        );
    }
    json.push_str("]}");
    std::fs::create_dir_all("results").expect("results dir");
    let path = "results/BENCH_faults.json";
    std::fs::write(path, &json).expect("write results JSON");
    println!("wrote {path}");
}
