//! Link fault-domain benchmark: Poisson CG under transient and permanent
//! interconnect faults, demonstrating that the wire is a recoverable
//! fault domain of its own (DESIGN.md §5):
//!
//! * **transient-link** — collective-link transients absorbed by
//!   chunk-granular retry: the residual history stays bit-identical to
//!   the clean run and the virtual-time overhead is small (≤ 10%);
//! * **link-loss / link-degrade** — a permanent wire failure mid-run:
//!   the solver aborts the iteration, flushes plans keyed on the healthy
//!   fingerprint, recompiles on the degraded topology and resumes from
//!   its checkpoint. No device is lost and the partition never changes,
//!   so recovery is *fully* bit-transparent — the entire history matches
//!   the clean run, a stronger contract than device eviction's
//!   prefix+oracle identity;
//! * **reroute-on-split** — severing the NVLink wire of a mixed
//!   (islands) fleet splits an island, and the recompiled collective
//!   schedule flips from hierarchical to flat routing. Bits still match
//!   both the clean mixed-fleet run and an oracle run started on the
//!   degraded topology;
//! * **straggler-rebalance** — on a heterogeneous box the deterministic
//!   straggler monitor (EWMA of per-device kernel spans) flags the slow
//!   device, and rebuilding the grid with the report's re-weighted
//!   shares ([`PartitionStrategy::Shares`]) shrinks its slab and the
//!   iteration makespan with it.
//!
//! Output: a table on stdout and machine-readable JSON at
//! `results/BENCH_degraded.json`.
//!
//! `--smoke` runs a small grid, asserts every gate and exits non-zero on
//! violation without touching the results file (CI hook).

use std::fmt::Write as _;
use std::time::Instant;

use neon_apps::{RecoveryReport, ResilientPoisson};
use neon_bench::render_table;
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
    virt_us: f64,
    residual_bits: Vec<u64>,
    final_residual: f64,
    injected: u64,
    recovered: u64,
    retries: u64,
    link_repairs: u64,
    evictions: u64,
    devices_end: usize,
}

/// Run `iters` CG iterations on `backend`, healing whatever `plan`
/// throws at the solver. `sever_at_start` drives the degraded-topology
/// oracle for the reroute scenario.
fn run_scenario(
    label: &'static str,
    backend: &Backend,
    dim: usize,
    iters: usize,
    plan: Option<FaultPlan>,
    sever_at_start: Option<(DeviceId, DeviceId)>,
) -> ScenarioRun {
    let mut solver = ResilientPoisson::new(backend, Dim3::cube(dim), options()).expect("solver");
    solver.set_rhs(rhs_for(dim));
    if let Some((a, b)) = sever_at_start {
        solver
            .heal(PermanentFault::LinkLoss(a, b))
            .expect("voluntary sever");
    }
    if let Some(p) = plan {
        solver.install_fault_plan(p);
    }

    let mut total = RecoveryReport::default();
    let mut residual_bits = Vec::with_capacity(iters);
    let t0 = Instant::now();
    for _ in 0..iters {
        let r = solver.iterate(1).expect("iteration should heal");
        total.report.accumulate(r.report);
        total.rollbacks += r.rollbacks;
        total.replayed += r.replayed;
        total.evictions += r.evictions;
        total.link_repairs += r.link_repairs;
        residual_bits.push(solver.residual().to_bits());
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
        link_repairs: total.link_repairs,
        evictions: total.evictions,
        devices_end: solver.backend().num_devices(),
    }
}

/// The collective route a field-sized all-reduce would take on `topo` —
/// the same observable the serving layer records as a `RouteChange`.
fn route_for(dim: usize, topo: &Topology) -> Algorithm {
    let field_bytes = (dim * dim * dim) as u64 * std::mem::size_of::<f64>() as u64;
    choose(CollectiveKind::AllReduce, field_bytes, topo)
}

struct StragglerRun {
    even_virt_us: f64,
    rebal_virt_us: f64,
    stragglers: Vec<usize>,
    shares: Vec<f64>,
}

/// Heterogeneous box (three A100s + one GV100): run with even slabs and
/// the monitor on, then rebuild the grid from the report's shares and
/// measure the rebalanced makespan.
fn straggler_scenario(dim: usize, iters: usize) -> StragglerRun {
    let devices = vec![
        DeviceModel::a100_40gb(),
        DeviceModel::a100_40gb(),
        DeviceModel::a100_40gb(),
        DeviceModel::gv100(),
    ];
    let backend = Backend::new(
        BackendKind::Gpu,
        devices,
        Topology::nvlink_all_to_all(NDEV, 1555.0),
    )
    .expect("heterogeneous backend");

    let run = |strategy: PartitionStrategy| {
        let st = Stencil::seven_point();
        let grid = DenseGrid::with_partitioning(
            &backend,
            Dim3::cube(dim),
            &[&st],
            StorageMode::Real,
            strategy,
        )
        .expect("grid");
        let u = Field::<f64, _>::new(&grid, "u", 1, 0.0, MemLayout::SoA).expect("u");
        let v = Field::<f64, _>::new(&grid, "v", 1, 0.0, MemLayout::SoA).expect("v");
        let s = ScalarSet::<f64>::new(NDEV, "s", 0.0, |a, b| a + b);
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
        let mut sk = Skeleton::sequence(
            &backend,
            "straggler",
            vec![sten, relax, reduce],
            SkeletonOptions {
                occ: OccLevel::Standard,
                cache: false,
                ..Default::default()
            },
        );
        sk.enable_straggler_monitor(StragglerPolicy::default());
        let r = sk.run_iters_resilient(0, iters).expect("clean run");
        let health = sk.health_report().expect("monitor enabled");
        (r.report.makespan.as_us(), health)
    };

    let (even_virt_us, health) = run(PartitionStrategy::Even);
    let (rebal_virt_us, _) = run(PartitionStrategy::Shares(health.shares.clone()));
    StragglerRun {
        even_virt_us,
        rebal_virt_us,
        stragglers: health.stragglers.iter().map(|d| d.0).collect(),
        shares: health.shares,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (dim, iters) = if smoke { (24, 12) } else { (64, 40) };
    let fault_at = iters as u64 / 2;
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "== repro_degraded: {NDEV}-device Poisson CG at {dim}^3, {iters} iterations, \
         link faults at iteration {fault_at}, host_cores={host_cores} ==\n"
    );

    let flat = Backend::dgx_a100(NDEV);
    let clean = run_scenario("clean", &flat, dim, iters, None, None);

    // Transient tier: two collective-link faults, each recovered by one
    // chunk-granular retry within the default 3-attempt budget.
    let transient_plan = FaultPlan::none()
        .with_link_fault(2, DeviceId(1), 0, 1)
        .with_link_fault(fault_at, DeviceId(3), 1, 1);
    let transient = run_scenario(
        "transient-link",
        &flat,
        dim,
        iters,
        Some(transient_plan),
        None,
    );

    // Permanent tier on the all-NVLink box: a severed wire falls back to
    // PCIe staging, a degraded wire keeps its class at 25% bandwidth.
    let loss_plan = FaultPlan::none().with_link_loss(fault_at, DeviceId(0), DeviceId(1));
    let loss = run_scenario("link-loss", &flat, dim, iters, Some(loss_plan), None);
    let degrade_plan =
        FaultPlan::none().with_link_degrade(fault_at, DeviceId(1), DeviceId(2), 0.25);
    let degrade = run_scenario("link-degrade", &flat, dim, iters, Some(degrade_plan), None);

    // Reroute tier: a 3-device slice of a two-box fleet ({0,1} NVLink +
    // {2} across PCIe) routes hierarchically until the NVLink wire dies;
    // the recompile on the split topology must fall back to flat routing.
    let mixed = Backend::dgx_islands(&[2, 2])
        .with_devices(&[DeviceId(0), DeviceId(1), DeviceId(2)])
        .expect("mixed 3-device slice");
    let (ra, rb) = (DeviceId(0), DeviceId(1));
    let route_healthy = route_for(dim, mixed.topology());
    let severed = heal_backend(&mixed, PermanentFault::LinkLoss(ra, rb)).expect("sever mixed wire");
    let route_degraded = route_for(dim, severed.topology());
    let mixed_clean = run_scenario("mixed-clean", &mixed, dim, iters, None, None);
    let reroute_plan = FaultPlan::none().with_link_loss(fault_at, ra, rb);
    let reroute = run_scenario(
        "reroute-split",
        &mixed,
        dim,
        iters,
        Some(reroute_plan),
        None,
    );
    let oracle = run_scenario("split-oracle", &mixed, dim, iters, None, Some((ra, rb)));

    let straggler = straggler_scenario(dim, iters);

    let mut rows = Vec::new();
    for r in [&clean, &transient, &loss, &degrade] {
        let overhead = (r.virt_us - clean.virt_us) / clean.virt_us * 100.0;
        rows.push(row(r, overhead));
    }
    for r in [&mixed_clean, &reroute, &oracle] {
        let overhead = (r.virt_us - mixed_clean.virt_us) / mixed_clean.virt_us * 100.0;
        rows.push(row(r, overhead));
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
                "Link repairs",
                "Evictions",
                "Devices",
                "Final residual",
            ],
            &rows
        )
    );
    println!(
        "\ncollective route: healthy mixed fleet {route_healthy:?} -> severed {route_degraded:?}"
    );
    println!(
        "straggler monitor: flagged {:?}, shares {:?}, even {:.1}us -> rebalanced {:.1}us\n",
        straggler.stragglers, straggler.shares, straggler.even_virt_us, straggler.rebal_virt_us
    );

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

    let overhead_transient = (transient.virt_us - clean.virt_us) / clean.virt_us * 100.0;
    gate(
        transient.residual_bits == clean.residual_bits,
        "transient link faults leave the residual history bit-identical",
    );
    gate(
        transient.injected == 2 && transient.recovered == 2 && transient.retries == 2,
        "transient scenario actually injected and recovered link faults",
    );
    gate(
        (0.0..=10.0).contains(&overhead_transient),
        "transient link-fault overhead is bounded (<= 10% virtual time)",
    );
    for (r, what) in [(&loss, "link loss"), (&degrade, "link degrade")] {
        gate(
            r.residual_bits == clean.residual_bits,
            &format!("{what} recovery is fully bit-transparent (no partition change)"),
        );
        gate(
            r.link_repairs == 1 && r.evictions == 0 && r.devices_end == NDEV,
            &format!("{what} healed by exactly one recompile, no eviction"),
        );
        gate(
            r.virt_us > clean.virt_us,
            &format!("{what} costs virtual time (degraded wire is visible)"),
        );
    }
    gate(
        route_healthy == Algorithm::Hierarchical && route_degraded != Algorithm::Hierarchical,
        "severing the island wire flips the collective route hierarchical -> flat",
    );
    gate(
        reroute.residual_bits == mixed_clean.residual_bits,
        "reroute-on-split stays bit-identical to the clean mixed-fleet run",
    );
    gate(
        reroute.residual_bits == oracle.residual_bits,
        "reroute-on-split matches the degraded-topology oracle bit-for-bit",
    );
    gate(
        reroute.link_repairs == 1 && reroute.devices_end == 3,
        "island split healed by exactly one recompile, all devices survive",
    );
    gate(
        straggler.stragglers == vec![NDEV - 1],
        "the straggler monitor flags exactly the slow device",
    );
    gate(
        straggler.shares[NDEV - 1] < 1.0,
        "the flagged device's partition share shrinks",
    );
    gate(
        straggler.rebal_virt_us < straggler.even_virt_us,
        "rebalancing on the report's shares shrinks the iteration makespan",
    );
    if failed {
        std::process::exit(1);
    }

    let overhead_loss = (loss.virt_us - clean.virt_us) / clean.virt_us * 100.0;
    let overhead_degrade = (degrade.virt_us - clean.virt_us) / clean.virt_us * 100.0;
    let overhead_reroute = (reroute.virt_us - mixed_clean.virt_us) / mixed_clean.virt_us * 100.0;
    let rebalance_gain =
        (straggler.even_virt_us - straggler.rebal_virt_us) / straggler.even_virt_us * 100.0;
    println!(
        "\nlink-fault overhead: transient {overhead_transient:+.2}%, loss \
         {overhead_loss:+.2}%, degrade {overhead_degrade:+.2}%, reroute \
         {overhead_reroute:+.2}%; straggler rebalance {rebalance_gain:+.2}% makespan"
    );

    if smoke {
        return; // CI gate: identities checked, no results file
    }

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"repro_degraded\",\"devices\":{NDEV},\"dim\":{dim},\
         \"iters\":{iters},\"fault_at\":{fault_at},\"host_cores\":{host_cores},\
         \"transient_overhead_pct\":{overhead_transient:.4},\
         \"loss_overhead_pct\":{overhead_loss:.4},\
         \"degrade_overhead_pct\":{overhead_degrade:.4},\
         \"reroute_overhead_pct\":{overhead_reroute:.4},\
         \"route_healthy\":\"{route_healthy:?}\",\
         \"route_degraded\":\"{route_degraded:?}\",\
         \"straggler_shares\":{:?},\
         \"rebalance_gain_pct\":{rebalance_gain:.4},\"scenarios\":[",
        straggler.shares
    );
    let baseline = |label: &str| {
        if label.starts_with("mixed") || label.contains("split") {
            &mixed_clean
        } else {
            &clean
        }
    };
    for (i, r) in [
        &clean,
        &transient,
        &loss,
        &degrade,
        &mixed_clean,
        &reroute,
        &oracle,
    ]
    .iter()
    .enumerate()
    {
        let _ = write!(
            json,
            "{}{{\"scenario\":\"{}\",\"wall_ms\":{:.3},\"virtual_us\":{:.3},\
             \"faults_injected\":{},\"faults_recovered\":{},\"retries\":{},\
             \"link_repairs\":{},\"evictions\":{},\"devices_end\":{},\
             \"final_residual\":{:.6e},\"bit_identical_to_clean\":{}}}",
            if i == 0 { "" } else { "," },
            r.label,
            r.wall_ms,
            r.virt_us,
            r.injected,
            r.recovered,
            r.retries,
            r.link_repairs,
            r.evictions,
            r.devices_end,
            r.final_residual,
            r.residual_bits == baseline(r.label).residual_bits,
        );
    }
    json.push_str("]}");
    std::fs::create_dir_all("results").expect("results dir");
    let path = "results/BENCH_degraded.json";
    std::fs::write(path, &json).expect("write results JSON");
    println!("wrote {path}");
}

fn row(r: &ScenarioRun, overhead: f64) -> Vec<String> {
    vec![
        r.label.to_string(),
        format!("{:.1}", r.wall_ms),
        format!("{:.1}", r.virt_us),
        format!("{overhead:+.1}%"),
        format!("{}/{}", r.recovered, r.injected),
        format!("{}", r.retries),
        format!("{}", r.link_repairs),
        format!("{}", r.evictions),
        format!("{}", r.devices_end),
        format!("{:.3e}", r.final_residual),
    ]
}
