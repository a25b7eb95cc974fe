//! The two passes over one workload, and the `run` command around them.
//!
//! A run of one workload is one process and one pass: the untraced pass
//! produces the end-to-end metrics, the traced pass the per-layer ones.
//! `run` without `--workload` starts one child process per workload and
//! pass, one at a time, so `peak_rss_mb` is the workload's own and no two
//! load generators ever overlap.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::harness::{
    calibration_seconds, interleave, peak_rss_mb, Cfg, Checks, CompileObs, Metrics,
};
use crate::json::Json;
use crate::manifest::{END_TO_END, PASSES, PER_LAYER, WORKLOADS};
use crate::stats;
use crate::tracer::Tracer;
use crate::workloads;

/// What one pass over one workload produced.
pub struct Outcome {
    pub workload: String,
    pub traced: bool,
    pub checks: Checks,
    /// `(name, value, unit)`: every end-to-end metric of an untraced pass,
    /// every per-layer metric of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Beside each floor: median, p95 and count of its samples.
    pub diagnostics: Vec<(String, f64)>,
}

impl Outcome {
    /// The contract's result object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.checks.correct())),
            ("attempted", Json::Num(self.checks.attempted as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }

    /// Every metric by name with its unit, for the person at the terminal.
    fn print(&self) {
        let pass = if self.traced { "traced" } else { "untraced" };
        eprintln!("== {} ({pass} pass) ==", self.workload);
        for (name, value, unit) in &self.metrics {
            eprintln!("  {name:<44} {value:>16.6} {unit}");
        }
        for (name, value) in &self.diagnostics {
            eprintln!("  {name:<44} {value:>16.6}");
        }
        eprintln!(
            "  operations: {} attempted, {} failed{}",
            self.checks.attempted,
            self.checks.failed,
            if self.checks.correct() {
                ""
            } else {
                "  <-- INCORRECT"
            }
        );
        for reason in &self.checks.reasons {
            eprintln!("    failed: {reason}");
        }
    }
}

/// Where traces and result files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn summarize(label: &str, values: &[f64], scale: f64, into: &mut Vec<(String, f64)>) {
    let sorted = stats::sorted(values);
    into.push((format!("{label}.min"), sorted[0] * scale));
    into.push((
        format!("{label}.p50"),
        stats::percentile(&sorted, 0.5) * scale,
    ));
    into.push((
        format!("{label}.p95"),
        stats::percentile(&sorted, 0.95) * scale,
    ));
    into.push((format!("{label}.samples"), values.len() as f64));
}

/// The untraced pass: one timed window in which the three host-wall
/// metrics, a calibration loop and fresh set-ups are sampled round-robin.
fn untraced_pass(name: &str, cfg: Cfg, seconds: f64) -> Outcome {
    let mut tr = Tracer::new(false);
    let mut checks = Checks::default();

    let mut setup_s = Vec::new();
    let mut set_up = |tr: &mut Tracer| {
        let start = Instant::now();
        let built = workloads::build(name, cfg, tr).expect("workload name was validated");
        setup_s.push(start.elapsed().as_secs_f64());
        built
    };
    // The first set-up of a process also pays for its lazy statics and
    // page-ins; the measured instance is the second.
    drop(set_up(&mut tr));
    let mut w = set_up(&mut tr);
    w.prepare(&mut checks);

    // Set-ups are sampled through the whole window like everything else:
    // ten in a row take under a second, and a slow phase of the host (they
    // last up to 5 s) swallowed them whole, moving the floor by 50 %.
    // Each is a throw-away second instance, built while set-ups have used
    // less than `SETUP_SHARE` of the window so far.
    const SETUP_SHARE: f64 = 0.10;
    let mut series = vec![Vec::new(); 4];
    let mut rss_mb = 0.0;
    let window = Instant::now();
    let mut in_setups = 0.0;
    while series[0].len() < 3 || window.elapsed().as_secs_f64() < seconds {
        series[0].push(w.wall_sample(&mut tr, &mut checks));
        series[1].push(w.compile_sample(&mut tr, false, &mut checks).us);
        series[2].push(w.compile_sample(&mut tr, true, &mut checks).us);
        series[3].push(calibration_seconds());
        if series[0].len() == 1 {
            // One instance and one round of every sample kind: the peak
            // before any second instance exists.
            rss_mb = peak_rss_mb();
        }
        if in_setups < SETUP_SHARE * window.elapsed().as_secs_f64() {
            let start = Instant::now();
            drop(set_up(&mut tr));
            in_setups += start.elapsed().as_secs_f64();
        }
    }
    w.finish(&mut checks);
    let virt = w.virtual_metrics(&mut checks);
    let per_iter = 1e3 / w.iters_per_sample();

    let values = [
        stats::low(&setup_s),
        stats::low(&series[0]) * per_iter,
        stats::floor(&series[1]),
        stats::floor(&series[2]),
        virt.us_per_iter,
        virt.parallel_eff,
        virt.p95_latency_us,
        virt.goodput_per_s,
        rss_mb,
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    for (name, value, _) in &metrics {
        checks.check(value.is_finite() && *value > 0.0, || {
            format!("{name} = {value} is not a positive finite number")
        });
    }
    let mut diagnostics = Vec::new();
    summarize("setup_s", &setup_s, 1.0, &mut diagnostics);
    summarize("wall_ms_per_iter", &series[0], per_iter, &mut diagnostics);
    diagnostics.push((
        "wall_ms_per_iter.quiet_frac".to_string(),
        stats::quiet_frac(&series[0], 0.05),
    ));
    summarize("compile_cold_us", &series[1], 1.0, &mut diagnostics);
    summarize("compile_hit_us", &series[2], 1.0, &mut diagnostics);
    // How fast the host was during this window (see `calibration_seconds`).
    diagnostics.push(("host.calib_ms".to_string(), stats::low(&series[3]) * 1e3));
    Outcome {
        workload: name.to_string(),
        traced: false,
        checks,
        metrics,
        diagnostics,
    }
}

/// The traced pass: one set-up, a window in which the end-to-end loop runs
/// alternately traced and untraced (their floors give the tracing
/// overhead), then the workload's own probes.
fn traced_pass(name: &str, cfg: Cfg, seconds: f64) -> Outcome {
    let mut tr = Tracer::new(true);
    let mut checks = Checks::default();
    let mut out = Metrics::default();
    let start = Instant::now();

    let mut w = workloads::build(name, cfg, &mut tr).expect("workload name was validated");
    w.prepare(&mut checks);

    // Window A, 40 % of the time: the loop and its compiles.
    let cache_before = neon_core::plan_cache_stats();
    let mut allocs = None;
    let mut cold = CompileObs::WORST;
    let deadline = start + Duration::from_secs_f64(0.4 * seconds);
    let series = interleave(deadline, 3, 5, |kind| match kind {
        0 => {
            tr.set_enabled(true);
            tr.next_sample();
            w.wall_sample(&mut tr, &mut checks)
        }
        1 => {
            tr.set_enabled(false);
            let before = alloc::snapshot();
            let s = w.wall_sample(&mut tr, &mut checks);
            let after = alloc::snapshot();
            allocs.get_or_insert((after.0 - before.0, after.1 - before.1));
            tr.set_enabled(true);
            s
        }
        2 => {
            tr.next_sample();
            let obs = w.compile_sample(&mut tr, false, &mut checks);
            cold.fold_min(&obs);
            obs.us
        }
        3 => w.compile_sample(&mut tr, true, &mut checks).us,
        _ => calibration_seconds(),
    });
    let cache_after = neon_core::plan_cache_stats();

    let iters = w.iters_per_sample();
    let untraced = &series[1];
    let sorted = stats::sorted(untraced);
    out.set(
        "bench.wall_ms_per_iter.p50",
        stats::percentile(&sorted, 0.5) * 1e3 / iters,
    );
    out.set(
        "bench.wall_ms_per_iter.p95",
        stats::percentile(&sorted, 0.95) * 1e3 / iters,
    );
    out.set("bench.samples", untraced.len() as f64);
    out.set("bench.quiet_frac", stats::quiet_frac(untraced, 0.05));
    out.set(
        "bench.trace_overhead_frac",
        stats::low(&series[0]) / stats::low(untraced) - 1.0,
    );
    let (n_allocs, n_bytes) = allocs.expect("the window ran an untraced sample");
    out.set("bench.allocs_per_iter", n_allocs as f64 / iters);
    out.set("bench.alloc_bytes_per_iter", n_bytes as f64 / iters);
    for (pass, us) in PASSES.iter().zip(cold.pass_us) {
        out.set(&format!("core.pass.{pass}.us"), us);
    }
    out.set("core.compile.unattributed_us", cold.unattributed_us);
    let (hits, misses) = (
        cache_after.hits - cache_before.hits,
        cache_after.misses - cache_before.misses,
    );
    out.set(
        "core.plan_cache.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    // Window B, the rest: the workload's own probes.
    tr.set_enabled(true);
    tr.next_sample();
    w.probes(
        &mut tr,
        start + Duration::from_secs_f64(seconds),
        &mut checks,
        &mut out,
    );
    w.finish(&mut checks);

    let virt = w.virtual_metrics(&mut checks);
    out.set("core.launches_per_iter", virt.launches_per_iter);
    out.set("core.bytes_moved_per_iter", virt.bytes_moved_per_iter);
    out.set("core.halo_rounds_per_iter", virt.halo_rounds_per_iter);
    out.set("core.virt.kernel_us_per_iter", virt.kernel_us_per_iter);
    out.set("core.virt.transfer_us_per_iter", virt.transfer_us_per_iter);
    out.set(
        "core.virt.collective_us_per_iter",
        virt.collective_us_per_iter,
    );
    out.set("core.virt.exposed_comm_frac", virt.exposed_comm_frac);
    out.set("bench.host.calib_ms", stats::low(&series[4]) * 1e3);

    let trace_path = out_dir().join(format!("{name}.trace.json"));
    if let Err(e) = tr.write_chrome(&trace_path, name) {
        checks.check(false, || format!("writing {}: {e}", trace_path.display()));
    }
    let mut diagnostics: Vec<(String, f64)> = tr
        .layer_self_ns()
        .into_iter()
        .map(|(layer, ns)| (format!("trace.self_ms.{layer}"), ns as f64 / 1e6))
        .collect();
    diagnostics.push(("trace.spans".to_string(), tr.spans().len() as f64));
    diagnostics.push(("trace.dropped_spans".to_string(), tr.dropped() as f64));

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, out.get(m.name), m.unit))
        .collect();
    for (name, value, _) in &metrics {
        checks.check(value.is_finite(), || {
            format!("{name} = {value} is not finite")
        });
    }
    Outcome {
        workload: name.to_string(),
        traced: true,
        checks,
        metrics,
        diagnostics,
    }
}

/// One pass over one workload, in this process.
pub fn run_pass(name: &str, cfg: Cfg, seconds: f64, traced: bool) -> Outcome {
    let outcome = if traced {
        traced_pass(name, cfg, seconds)
    } else {
        untraced_pass(name, cfg, seconds)
    };
    outcome.print();
    outcome
}

/// Arguments of `run`.
pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    /// Window of each pass; `None` takes 20 s untraced and 6 s traced.
    pub seconds: Option<f64>,
    /// `Some` selects one pass (the driver's `--trace 0|1`).
    pub trace: Option<bool>,
    pub smoke: bool,
}

impl RunArgs {
    fn window(&self, traced: bool) -> f64 {
        match (self.seconds, self.smoke, traced) {
            (Some(s), _, _) => s,
            (None, true, _) => 0.5,
            (None, false, false) => 20.0,
            (None, false, true) => 6.0,
        }
    }
}

/// Run one pass of one workload in a child process and parse the result
/// object off the last line of its output.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr goes to ours.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(line).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() && result.get("correct").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{workload} child ended with {}", output.status));
    }
    Ok(result)
}

/// The `run` command. Returns the process exit code.
pub fn run(args: &RunArgs) -> i32 {
    let cfg = Cfg {
        seed: args.seed,
        smoke: args.smoke,
    };
    // One workload, one pass: the form the driver calls. The result
    // object is the last line of standard output.
    if let (Some(name), Some(traced)) = (&args.workload, args.trace) {
        let outcome = run_pass(name, cfg, args.window(traced), traced);
        println!("{}", outcome.to_json().compact());
        return i32::from(!outcome.checks.correct());
    }

    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut all_correct = true;
    let mut by_workload = Vec::new();
    for name in names {
        let mut entry = vec![];
        for traced in [false, true] {
            match run_child(name, args.seed, args.window(traced), traced, args.smoke) {
                Ok(result) => {
                    all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
                    entry.push((if traced { "per_layer" } else { "end_to_end" }, result));
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    all_correct = false;
                }
            }
        }
        by_workload.push((name, Json::obj(entry)));
    }
    let doc = Json::obj([
        ("kind", Json::str("run")),
        ("seed", Json::Num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("host_cores", Json::Num(neon_sys::host_cores() as f64)),
        ("workloads", Json::obj(by_workload)),
    ]);
    let path = out_dir().join("result.json");
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc.pretty()));
    match written {
        Ok(()) => eprintln!("result written to {}", path.display()),
        Err(e) => {
            eprintln!("error: writing {}: {e}", path.display());
            return 1;
        }
    }
    println!("{}", doc.compact());
    i32::from(!all_correct)
}
