//! What every workload shares: the run configuration, the check ledger,
//! the interleaved floor sampler, the compile-sample helper and the
//! `Workload` interface the two passes drive.

use std::collections::BTreeMap;
use std::time::Instant;

use neon_core::{ExecReport, FunctionalMode, Skeleton, SkeletonOptions};
use neon_set::Container;
use neon_sys::Backend;

use crate::manifest::{PASSES, PER_LAYER};
use crate::stats;
use crate::tracer::Tracer;

/// One run's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    /// The workload seed: right-hand sides, LBM parameters, arrival
    /// jitter, fault plans and the virtual replay length derive from it.
    pub seed: u64,
    /// Shrunk sizes for the 15-second smoke run; correctness still checked.
    pub smoke: bool,
}

impl Cfg {
    /// Iterations the virtual-clock measurement replays. It is part of the
    /// seeded input: an average over 256 iterations and one over 300 differ
    /// only in floating-point rounding, so virtual metrics agree to ~1e-13
    /// across seeds and are bit-equal for equal seeds.
    pub fn virtual_iters(&self) -> usize {
        let base = if self.smoke { 32 } else { 256 };
        base + (crate::rng::Rng::new(self.seed, 99).next_u64() % 64) as usize
    }
}

/// Operations attempted and failed, with the reason of each failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checks {
    /// Count one operation; `why` is evaluated only when it failed, and
    /// only the first 20 reasons are kept.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 20 {
                self.reasons.push(why());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Per-layer metric values of one traced run, by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set a per-layer metric. The name must be one `BENCHMARK.json` lists.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("'{name}' is not a per-layer metric of the manifest"));
        self.0.insert(known.name, value);
    }

    /// The value of `name`; 0 for a metric this workload does not exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Virtual-clock results of a workload: deterministic for a seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Virt {
    pub us_per_iter: f64,
    pub parallel_eff: f64,
    pub p95_latency_us: f64,
    pub goodput_per_s: f64,
    pub kernel_us_per_iter: f64,
    pub transfer_us_per_iter: f64,
    pub collective_us_per_iter: f64,
    pub exposed_comm_frac: f64,
    pub launches_per_iter: f64,
    pub bytes_moved_per_iter: f64,
    pub halo_rounds_per_iter: f64,
}

impl Virt {
    /// Fill the per-iteration fields from a virtual-clock report over
    /// `iters` iterations on `devices` devices.
    pub fn from_report(r: &ExecReport, iters: usize, devices: usize) -> Virt {
        let n = iters as f64;
        let makespan = r.makespan.as_us();
        Virt {
            us_per_iter: makespan / n,
            goodput_per_s: n / r.makespan.as_secs(),
            kernel_us_per_iter: r.kernel_time.as_us() / n,
            transfer_us_per_iter: r.transfer_time.as_us() / n,
            collective_us_per_iter: r.collective_time.as_us() / n,
            exposed_comm_frac: 1.0 - r.kernel_time.as_us() / (devices as f64 * makespan),
            launches_per_iter: r.launches as f64 / n,
            bytes_moved_per_iter: r.bytes_moved as f64 / n,
            halo_rounds_per_iter: r.halo_rounds as f64 / n,
            ..Virt::default()
        }
    }
}

/// The fastest compile a sample saw, field by field.
///
/// Compile metrics are floors over *single* compiles, not over batches: a
/// compile is 3 to 90 µs of pointer chasing, the operation most exposed to
/// a neighbour's cache traffic, and over 30 runs the fastest single
/// compile ranged 5 % where the fastest 10 ms batch ranged 12 %.
#[derive(Debug, Clone, Copy)]
pub struct CompileObs {
    /// Wall microseconds of one `Skeleton::sequence`, timed from outside.
    pub us: f64,
    /// Microseconds per pass, in [`PASSES`] order, as the compiler reports
    /// them (all zero on a cache hit).
    pub pass_us: [f64; 9],
    /// Outside-timed compile minus what its passes account for:
    /// validation between passes, plan construction, executor set-up.
    pub unattributed_us: f64,
}

impl CompileObs {
    /// The identity of [`CompileObs::fold_min`].
    pub const WORST: CompileObs = CompileObs {
        us: f64::INFINITY,
        pass_us: [f64::INFINITY; 9],
        unattributed_us: f64::INFINITY,
    };

    /// Keep, field by field, the smaller of `self` and `other`.
    pub fn fold_min(&mut self, other: &CompileObs) {
        self.us = self.us.min(other.us);
        self.unattributed_us = self.unattributed_us.min(other.unattributed_us);
        for (a, b) in self.pass_us.iter_mut().zip(other.pass_us) {
            *a = a.min(b);
        }
    }
}

/// Compile `batch` instances of a program, time each `Skeleton::sequence`
/// from outside and return the floors. Building the containers and
/// dropping the skeletons happen outside the timed regions.
pub fn compile_batch(
    tr: &mut Tracer,
    backend: &Backend,
    make: &dyn Fn() -> Vec<Container>,
    options: SkeletonOptions,
    batch: usize,
    checks: &mut Checks,
) -> CompileObs {
    let programs: Vec<Vec<Container>> = (0..batch).map(|_| make()).collect();
    let mut compiled = Vec::with_capacity(batch);
    for containers in programs {
        let span = tr.enter("core", "Skeleton::sequence");
        let start = Instant::now();
        let sk = Skeleton::sequence(backend, "bench-compile", containers, options);
        let us = start.elapsed().as_secs_f64() * 1e6;
        tr.exit(span);
        compiled.push((sk, us));
    }
    let mut floor = CompileObs::WORST;
    for (sk, us) in &compiled {
        checks.check(sk.compiled_from_cache() == options.cache, || {
            format!(
                "compile with cache={} reported from_cache={}",
                options.cache,
                sk.compiled_from_cache()
            )
        });
        let mut pass_us = [0.0; 9];
        for t in sk.pass_timings() {
            if let Some(i) = PASSES.iter().position(|p| *p == t.name) {
                pass_us[i] += t.wall_us;
            }
        }
        floor.fold_min(&CompileObs {
            us: *us,
            pass_us,
            unattributed_us: us - pass_us.iter().sum::<f64>(),
        });
    }
    floor
}

/// The interface the untraced and the traced pass drive.
///
/// Constructing a workload *is* its complete set-up (what `setup_s`
/// times): a cleared plan cache, a fresh backend, grid, fields,
/// solver or server, the first compile and one warm-up iteration.
pub trait Workload {
    /// Solver iterations one wall sample executes. Fixed in set-up and the
    /// same on every run, so samples are comparable across runs.
    fn iters_per_sample(&self) -> f64;

    /// Untimed work after set-up: compute the references samples are
    /// checked against.
    fn prepare(&mut self, checks: &mut Checks);

    /// One sample of the end-to-end loop with the serial executor: untimed
    /// reset, timed region, untimed check. Returns the timed seconds.
    fn wall_sample(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64;

    /// One sample of compiling the workload's iteration program, with the
    /// plan cache bypassed (`cache == false`) or warm: the fastest single
    /// compile of the sample's batch.
    fn compile_sample(&mut self, tr: &mut Tracer, cache: bool, checks: &mut Checks) -> CompileObs;

    /// Checks that run once, after the timed window (independent
    /// references, parallel-executor bit identity, conservation laws).
    fn finish(&mut self, checks: &mut Checks);

    /// The virtual-clock metrics.
    fn virtual_metrics(&mut self, checks: &mut Checks) -> Virt;

    /// The workload's own per-layer probes, run until `deadline`.
    fn probes(
        &mut self,
        tr: &mut Tracer,
        deadline: Instant,
        checks: &mut Checks,
        out: &mut Metrics,
    );
}

/// Run `kinds` sample kinds round-robin until `deadline`, at least
/// `min_rounds` rounds. `sample(kind)` returns the value of one sample.
///
/// Interleaving matters: a slow phase of the host (they last 0.1 to 5 s
/// here) then hits every series alike, and each series still sees the
/// quiet slices its floor needs.
pub fn interleave(
    deadline: Instant,
    min_rounds: usize,
    kinds: usize,
    mut sample: impl FnMut(usize) -> f64,
) -> Vec<Vec<f64>> {
    let mut series = vec![Vec::new(); kinds];
    let mut round = 0;
    while round < min_rounds || Instant::now() < deadline {
        for (kind, values) in series.iter_mut().enumerate() {
            values.push(sample(kind));
        }
        round += 1;
    }
    series
}

/// Run the named probes round-robin until `deadline` (at least three
/// rounds) and return each one's floor. `sample(name)` runs one fixed
/// batch of the probe and returns its seconds.
pub fn probe_floors(
    deadline: Instant,
    names: &[&'static str],
    mut sample: impl FnMut(&str) -> f64,
) -> BTreeMap<&'static str, f64> {
    let series = interleave(deadline, 3, names.len(), |k| sample(names[k]));
    names
        .iter()
        .zip(series)
        .map(|(name, values)| (*name, stats::low(&values)))
        .collect()
}

/// Seconds `f` takes.
pub fn time(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The serial-executor options a workload compiles with: the defaults,
/// except that the functional replay runs on the calling thread.
pub fn serial(options: SkeletonOptions) -> SkeletonOptions {
    SkeletonOptions {
        functional_mode: FunctionalMode::Serial,
        ..options
    }
}

/// Nearest-rank p95 of per-iteration makespans, in virtual microseconds.
pub fn p95_makespan_us(sk: &Skeleton) -> f64 {
    let us: Vec<f64> = sk
        .per_iteration_makespans()
        .iter()
        .map(|t| t.as_us())
        .collect();
    stats::percentile(&stats::sorted(&us), 0.95)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed piece of arithmetic (an LCG over a 1 MiB table, ~10 ms): its
/// floor says how fast this host is today, so two result files from
/// different hosts are not mistaken for a regression.
pub fn calibration_seconds() -> f64 {
    let mut table = vec![0u64; 1 << 17];
    time(|| {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..4_000_000u32 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let i = (x >> 47) as usize;
            table[i] = table[i].wrapping_add(x);
        }
        std::hint::black_box(&mut table);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_alternates_kinds_and_honours_min_rounds() {
        let mut order = Vec::new();
        let past = Instant::now();
        let series = interleave(past, 3, 2, |k| {
            order.push(k);
            k as f64
        });
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(series, vec![vec![0.0; 3], vec![1.0; 3]]);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "bits differ".to_string());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert!(!c.correct());
        assert_eq!(c.reasons, vec!["bits differ".to_string()]);
    }

    #[test]
    fn unknown_metric_names_are_rejected() {
        let mut m = Metrics::default();
        m.set("sys.queue.op_ns", 12.0);
        assert_eq!(m.get("sys.queue.op_ns"), 12.0);
        assert_eq!(m.get("sys.pool.spawn_us"), 0.0);
        assert!(std::panic::catch_unwind(move || m.set("sys.typo", 1.0)).is_err());
    }

    #[test]
    fn virtual_replay_length_is_seeded_and_bounded() {
        let a = Cfg {
            seed: 1,
            smoke: false,
        }
        .virtual_iters();
        assert_eq!(
            a,
            Cfg {
                seed: 1,
                smoke: false
            }
            .virtual_iters()
        );
        for seed in 0..50 {
            let v = Cfg { seed, smoke: false }.virtual_iters();
            assert!((256..320).contains(&v));
        }
    }
}
