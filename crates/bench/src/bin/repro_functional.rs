//! Wall-clock benchmark of the functional executor modes (not the
//! virtual clock): 4-device Poisson CG at 64³, run two ways —
//!
//! * `serial` — the reference walk, tasks strictly in order on one
//!   thread;
//! * `parallel` — the event-driven replay on the persistent per-device
//!   worker pool walking the compiled device plan.
//!
//! Both must produce **bit-identical** residual histories — the
//! event table only admits orderings the data dependencies allow, and
//! every cross-device fold runs in canonical rank order. The speedup is
//! whatever the host actually delivers: on a multi-core host the
//! parallel replay overlaps the per-device kernel walks; on a single
//! hardware thread (CI containers) it can't beat serial, which is why
//! `host_cores` is recorded next to every number.
//!
//! Output: a table on stdout and machine-readable JSON at
//! `results/BENCH_functional.json`.
//!
//! `--smoke` runs a small grid, asserts bit-identity and exits non-zero
//! on divergence without touching the results file (CI hook).

use std::fmt::Write as _;
use std::time::Instant;

use neon_apps::PoissonSolver;
use neon_bench::render_table;
use neon_core::{FunctionalMode, OccLevel, SkeletonOptions};
use neon_domain::{DenseGrid, Dim3, Stencil, StorageMode};
use neon_sys::Backend;

const NDEV: usize = 4;

#[derive(Clone)]
struct ModeRun {
    label: &'static str,
    wall_ms: f64,
    mlups: f64,
    /// Bit pattern of ‖r‖² after every iteration.
    residual_bits: Vec<u64>,
    /// Residual after the last iteration (human-readable counterpart).
    final_residual: f64,
}

fn merge_best(best: &mut Option<ModeRun>, run: ModeRun) {
    match best {
        Some(b) => {
            assert_eq!(
                b.residual_bits, run.residual_bits,
                "{}: residuals differ between repeats",
                run.label
            );
            if run.wall_ms < b.wall_ms {
                b.wall_ms = run.wall_ms;
                b.mlups = run.mlups;
            }
        }
        None => *best = Some(run),
    }
}

fn run_mode(mode: FunctionalMode, label: &'static str, dim: usize, iters: usize) -> ModeRun {
    let backend = Backend::dgx_a100(NDEV);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(
        &backend,
        Dim3::new(dim, dim, dim),
        &[&st],
        StorageMode::Real,
    )
    .expect("grid");
    let mut solver = PoissonSolver::with_options(
        &grid,
        SkeletonOptions {
            occ: OccLevel::Standard,
            functional_mode: mode,
            // This bench compares executor modes on the unfused program
            // (the checked-in numbers predate fusion); `repro_fusion`
            // owns the fused-vs-unfused comparison.
            fusion: neon_core::FusionLevel::Off,
            ..Default::default()
        },
    )
    .expect("solver");
    solver.set_rhs(|x, y, z| {
        // A localized source away from the boundary.
        let c = (dim / 2) as i32;
        if x == c && y == c && z == c {
            1.0
        } else {
            0.0
        }
    });

    // Warm up: spawns the worker pool (parallel mode), faults in the
    // partitions, and takes first-touch costs out of the measured window.
    solver.solve_iters(3);
    solver.set_rhs(|x, y, z| {
        let c = (dim / 2) as i32;
        if x == c && y == c && z == c {
            1.0
        } else {
            0.0
        }
    });

    let mut residual_bits = Vec::with_capacity(iters);
    let t0 = Instant::now();
    for _ in 0..iters {
        solver.solve_iters(1);
        // rs_old holds ‖r‖² of the iteration that just completed.
        residual_bits.push(solver.cg.state.rs_old.host_value().to_bits());
    }
    let wall = t0.elapsed();

    let cells = (dim * dim * dim) as f64;
    let wall_s = wall.as_secs_f64();
    ModeRun {
        label,
        wall_ms: wall_s * 1e3,
        mlups: cells * iters as f64 / wall_s / 1e6,
        residual_bits,
        final_residual: solver.residual(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (dim, iters) = if smoke { (16, 8) } else { (64, 40) };
    let host_cores = neon_sys::host_cores();

    println!(
        "== repro_functional: {NDEV}-device Poisson CG at {dim}^3, {iters} iterations, \
         host_cores={host_cores} ==\n"
    );

    // Interleaved best-of-N: a fresh process warms its page cache and
    // allocator arenas on whichever configuration runs first, which
    // (measured here) inflates later runs by up to ~1.5× relative to the
    // first. Repeating the whole ladder and keeping each mode's best
    // removes that order effect.
    // In smoke mode the perf gate below only fires on ≥ 4 cores; give it
    // one extra repeat there so a single scheduler hiccup can't fail CI.
    let repeats = if !smoke {
        3
    } else if host_cores >= 4 {
        2
    } else {
        1
    };
    let (mut serial, mut parallel) = (None, None);
    for _ in 0..repeats {
        merge_best(
            &mut serial,
            run_mode(FunctionalMode::Serial, "serial", dim, iters),
        );
        merge_best(
            &mut parallel,
            run_mode(FunctionalMode::Parallel, "parallel", dim, iters),
        );
    }
    let runs = [serial.unwrap(), parallel.unwrap()];

    let serial = &runs[0];
    let mut rows = Vec::new();
    let mut identical = true;
    for r in &runs {
        let bitwise = r.residual_bits == serial.residual_bits;
        identical &= bitwise;
        rows.push(vec![
            r.label.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.1}", r.mlups),
            format!("{:.3}", serial.wall_ms / r.wall_ms),
            format!("{:.3e}", r.final_residual),
            if bitwise { "yes".into() } else { "NO".into() },
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "Mode",
                "Wall (ms)",
                "MLUPS",
                "Speedup vs serial",
                "Final residual",
                "Bit-identical"
            ],
            &rows
        )
    );
    println!();

    if !identical {
        eprintln!("FAIL: functional modes diverge from the serial reference");
        std::process::exit(1);
    }
    println!("all modes bit-identical to the serial reference");

    if smoke {
        // Perf gate, multi-core hosts only: with enough cores to run all
        // device workers concurrently, the parallel replay must at least
        // match the serial walk. On fewer cores the replay cannot beat
        // serial (the workers time-slice one another), so the gate would
        // only measure the CI container — skip it there, loudly.
        let parallel = &runs[1];
        if host_cores >= 4 {
            let speedup = serial.wall_ms / parallel.wall_ms;
            if speedup < 1.0 {
                eprintln!(
                    "FAIL: parallel replay slower than serial on a \
                     {host_cores}-core host ({speedup:.3}x)"
                );
                std::process::exit(1);
            }
            println!("parallel speedup gate passed: {speedup:.3}x (>= 1.0x)");
        } else {
            println!("parallel speedup gate skipped: host_cores={host_cores} < 4");
        }
        return; // CI gate: identity (and perf, above) checked, no results file
    }

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"repro_functional\",\"devices\":{NDEV},\"dim\":{dim},\
         \"iters\":{iters},\"host_cores\":{host_cores},\"bit_identical\":{identical},\
         \"modes\":["
    );
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"mode\":\"{}\",\"wall_ms\":{:.3},\"mlups\":{:.3},\
             \"speedup_vs_serial\":{:.4},\"final_residual\":{:.6e}}}",
            if i == 0 { "" } else { "," },
            r.label,
            r.wall_ms,
            r.mlups,
            serial.wall_ms / r.wall_ms,
            r.final_residual,
        );
    }
    json.push_str("]}");
    std::fs::create_dir_all("results").expect("results dir");
    let path = "results/BENCH_functional.json";
    std::fs::write(path, &json).expect("write results JSON");
    println!("wrote {path}");
}
