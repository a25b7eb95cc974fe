//! `serve_mix`: 42 tiny solver jobs from three weighted tenants through
//! `neon-serve` on a 4-device fleet, with one device loss mid-run.
//!
//! The jobs are small on purpose (Poisson CG, 12³ × 6 iterations on one or
//! two devices and 8³ × 4 on one): kernels are tiny, so job build,
//! cache-hit compiles, per-launch overhead, checkpoints, rollback and the
//! scheduler dominate the wall time. Open loop, because tenants are
//! independent; latency is timed from the due arrival time.
//!
//! There is no LBM job in the mix, though the issue asked for one.
//! `LbmJob` compiles its skeletons with the parallel functional mode
//! whatever the job options say, so each of its launches is a hand-off to
//! a pool thread, and on the 2-vCPU host hand-off latency has eras: with
//! 14 LBM jobs in the mix the run read 0.16 to 0.22 ms per iteration for
//! four minutes between readings of 0.12. LBM jobs are measured in the
//! traced pass (`apps.job.build_ms.lbm`); when `LbmJob` honours
//! `functional_mode`, the third kind should become LBM again.

use std::time::Instant;

use neon_apps::cg::{cg_iteration, CgState};
use neon_apps::poisson::laplacian_apply;
use neon_apps::JobSpec;
use neon_core::{clear_plan_cache, OccLevel, SkeletonOptions};
use neon_domain::{DenseGrid, Dim3, MemLayout, Stencil, StorageMode};
use neon_serve::{
    percentile, solo_run_bits, DeviceLoss, JobRequest, SchedPolicy, ServeConfig, ServeReport,
    Server, TenantSpec,
};
use neon_sys::{Backend, DeviceId, WorkerPool};

use crate::harness::{
    compile_batch, probe_floors, serial, time, Cfg, Checks, CompileObs, Metrics, Virt, Workload,
};
use crate::rng::{stratified_arrivals, Rng};
use crate::tracer::Tracer;

const DEVICES: usize = 4;
/// Iterations per scheduling quantum.
const QUANTUM: u64 = 2;
/// Offered load of the operating point, as a share of the fleet's
/// capacity measured from solo runs. Below saturation on purpose: at the
/// capacity limit latency measures the arrival stream's luck, not the
/// server.
const NOMINAL_LOAD: f64 = 0.6;
/// A job meets its latency limit when it completes within this many solo
/// times of the mix's longest job kind.
const SLO_FACTOR: f64 = 4.0;
/// Tenant of each job in a cycle of seven: weights 1, 2 and 4 submit in
/// proportion to what they pay for.
const TENANT_CYCLE: [usize; 7] = [0, 1, 1, 2, 2, 2, 2];

fn job_options() -> SkeletonOptions {
    serial(SkeletonOptions::with_occ(OccLevel::Standard))
}

/// The three job kinds: `(spec, devices requested)`.
fn kinds(smoke: bool) -> [(JobSpec, usize); 3] {
    let (large, small) = if smoke { (8, 6) } else { (12, 8) };
    let poisson = |dim, iters| JobSpec::Poisson {
        dim,
        iters,
        rhs_seed: 0,
    };
    [
        (poisson(large, 6), 1),
        (poisson(large, 6), 2),
        (poisson(small, 2), 1),
    ]
}

fn subset(fleet: &Backend, ndev: usize) -> Backend {
    let ids: Vec<DeviceId> = (0..ndev).map(DeviceId).collect();
    fleet.with_devices(&ids).expect("a prefix of the fleet")
}

/// The job mix and what its solo runs cost: everything an arrival stream
/// at some load is generated from.
struct Mix {
    cfg: Cfg,
    fleet: Backend,
    kinds: [(JobSpec, usize); 3],
    /// Solo virtual makespan of each kind, in microseconds.
    solo_us: [f64; 3],
    /// Mean device-time demand of a job of the mix, in device-µs.
    mean_demand_us: f64,
}

impl Mix {
    /// Capacity from solo runs: what one job of each kind costs alone.
    fn measure(cfg: Cfg, fleet: Backend, tr: &mut Tracer) -> Self {
        let kinds = kinds(cfg.smoke);
        let solo_us = kinds.map(|(spec, ndev)| {
            let backend = subset(&fleet, ndev);
            let mut job = tr.scope("apps", "JobSpec::build", || {
                spec.build(&backend, job_options())
                    .expect("solo job builds")
            });
            tr.scope("apps", "SolverJob::advance", || job.advance(job.total()))
                .makespan
                .as_us()
        });
        let mean_demand_us = kinds
            .iter()
            .zip(solo_us)
            .map(|(&(_, ndev), us)| us * ndev as f64)
            .sum::<f64>()
            / kinds.len() as f64;
        Mix {
            cfg,
            fleet,
            kinds,
            solo_us,
            mean_demand_us,
        }
    }

    fn jobs(&self) -> usize {
        if self.cfg.smoke {
            15
        } else {
            42
        }
    }

    /// The server and the arrival stream at `load` times the operating
    /// point.
    ///
    /// The job pattern is fixed (kind = j mod 3, tenant from
    /// [`TENANT_CYCLE`]); the seed draws the arrival time inside each slot
    /// and every right-hand side. A seeded job order would move the p95
    /// latency by 40 % from seed to seed and hide any regression.
    fn scenario(&self, load: f64) -> (Server, Vec<JobRequest>) {
        let n = self.jobs();
        let horizon_us = n as f64 * self.mean_demand_us / (DEVICES as f64 * NOMINAL_LOAD * load);
        let mut rng = Rng::new(self.cfg.seed, 3);
        let arrivals = stratified_arrivals(&mut rng, n, horizon_us);
        let requests: Vec<JobRequest> = arrivals
            .into_iter()
            .enumerate()
            .map(|(j, arrival_us)| {
                let (spec, ndev) = self.kinds[j % 3];
                let spec = match spec {
                    JobSpec::Poisson { dim, iters, .. } => JobSpec::Poisson {
                        dim,
                        iters,
                        rhs_seed: rng.next_u64(),
                    },
                    other => other,
                };
                JobRequest {
                    tenant: TENANT_CYCLE[(j / 3) % 7],
                    spec,
                    ndev,
                    arrival_us,
                }
            })
            .collect();
        let tenants = || {
            vec![
                TenantSpec::new("bronze", 1.0),
                TenantSpec::new("silver", 2.0),
                TenantSpec::new("gold", 4.0),
            ]
        };
        let server = |loss_at_us| {
            let config = ServeConfig {
                queue_capacity: 4,
                quantum_iters: QUANTUM,
                policy: SchedPolicy::WeightedFair,
                device_loss: Some(DeviceLoss {
                    at_us: loss_at_us,
                    device: 0,
                }),
                link_fault: None,
            };
            Server::new(&self.fleet, tenants(), config).with_job_options(job_options())
        };
        // The loss must catch work in flight on every seed. A rehearsal
        // finds the job nearest mid-run that arrived to an idle fleet:
        // placement takes the lowest-numbered free devices, so that job
        // runs on device 0, and device 0 dies halfway through its first
        // quantum. The rehearsal arms the loss too, far in the future (an
        // armed loss makes quanta on its device pay for checkpoints), so
        // it and the real run agree up to the moment of the loss.
        let rehearsal = server(1e18).run(requests.clone());
        let idle_at = |t: f64| {
            rehearsal
                .outcomes
                .iter()
                .all(|o| o.start_us.is_none_or(|s| s >= t) || o.finish_us.is_some_and(|f| f <= t))
        };
        let victim = rehearsal
            .outcomes
            .iter()
            .filter_map(|o| o.start_us)
            .filter(|&start| idle_at(start))
            .min_by(|a, b| {
                (a - horizon_us / 2.0)
                    .abs()
                    .total_cmp(&(b - horizon_us / 2.0).abs())
            })
            .expect("the first arrival finds the fleet idle");
        let shortest_quantum_us = self
            .kinds
            .iter()
            .zip(self.solo_us)
            .map(|(&(spec, _), us)| us / spec.iters() as f64 * QUANTUM as f64)
            .fold(f64::INFINITY, f64::min);
        (server(victim + 0.5 * shortest_quantum_us), requests)
    }

    fn slo_us(&self) -> f64 {
        SLO_FACTOR * self.solo_us.iter().copied().fold(0.0, f64::max)
    }
}

pub struct ServeMix {
    mix: Mix,
    server: Server,
    requests: Vec<JobRequest>,
    reference: Option<ServeReport>,
    solo_bits: Vec<u64>,
}

impl ServeMix {
    pub fn new(cfg: Cfg, tr: &mut Tracer) -> Self {
        clear_plan_cache();
        let mix = Mix::measure(cfg, Backend::dgx_a100(DEVICES), tr);
        let (mut server, requests) = mix.scenario(1.0);
        // First compiles and the warm-up run.
        tr.scope("serve", "Server::run[warm-up]", || {
            server.run(requests.clone())
        });
        ServeMix {
            mix,
            server,
            requests,
            reference: None,
            solo_bits: Vec::new(),
        }
    }

    /// One run of the arrival stream: `(timed seconds, report)`.
    fn timed_run(&mut self, tr: &mut Tracer) -> (f64, ServeReport) {
        let requests = self.requests.clone();
        let span = tr.enter("serve", "Server::run");
        let start = Instant::now();
        let report = self.server.run(requests);
        let seconds = start.elapsed().as_secs_f64();
        tr.exit(span);
        (seconds, report)
    }

    /// Count every job of `report` as an operation: it fails when it was
    /// shed, did not complete, missed the latency limit, or its result
    /// differs from its solo replay.
    fn judge_jobs(&self, report: &ServeReport, checks: &mut Checks) {
        let slo = self.mix.slo_us();
        for (j, o) in report.outcomes.iter().enumerate() {
            let bits_ok = o.result_bits == Some(self.solo_bits[j]);
            let in_time = o.latency_us().is_some_and(|l| l <= slo);
            checks.check(o.completed && bits_ok && in_time, || {
                format!(
                    "job {j} ({:?}): admitted={} completed={} bits_ok={bits_ok} latency={:?} (limit {slo:.0})",
                    o.spec,
                    o.admitted,
                    o.completed,
                    o.latency_us()
                )
            });
        }
    }
}

/// The job kind a probe name such as `build1` ends in.
fn kind_of(probe: &str) -> usize {
    probe
        .chars()
        .last()
        .and_then(|c| c.to_digit(10))
        .expect("probe names end in their kind") as usize
}

/// Nearest-rank p95 of the completed jobs' latencies, in virtual µs.
fn p95_latency_us(report: &ServeReport) -> f64 {
    let mut lat: Vec<f64> = report
        .outcomes
        .iter()
        .filter_map(|o| o.latency_us())
        .collect();
    lat.sort_by(f64::total_cmp);
    percentile(&lat, 0.95)
}

fn iterations(report: &ServeReport) -> f64 {
    report.outcomes.iter().map(|o| o.iterations).sum::<u64>() as f64
}

impl Workload for ServeMix {
    fn iters_per_sample(&self) -> f64 {
        iterations(self.reference.as_ref().expect("prepare ran"))
    }

    fn prepare(&mut self, checks: &mut Checks) {
        let report = self.server.run(self.requests.clone());
        // The oracle: every job replayed solo, with the evictions the
        // multiplexed run forced on it.
        self.solo_bits = report
            .outcomes
            .iter()
            .map(|o| {
                solo_run_bits(
                    &self.mix.fleet,
                    o.spec,
                    o.first_ndev.unwrap_or(o.ndev),
                    job_options(),
                    &o.evictions,
                )
                .expect("solo replay runs")
            })
            .collect();
        self.judge_jobs(&report, checks);
        let evictions: usize = report.outcomes.iter().map(|o| o.evictions.len()).sum();
        checks.check(report.device_losses == 1 && evictions >= 1, || {
            format!(
                "device losses {}, evictions {evictions}: the loss caught no job",
                report.device_losses
            )
        });
        self.reference = Some(report);
    }

    fn wall_sample(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let (seconds, report) = self.timed_run(tr);
        self.judge_jobs(&report, checks);
        // Every repeat of the run must tell the same virtual story.
        let reference = self.reference.as_ref().expect("prepare ran");
        let same = report.makespan.as_us().to_bits() == reference.makespan.as_us().to_bits()
            && report.shed == reference.shed
            && report
                .outcomes
                .iter()
                .zip(&reference.outcomes)
                .all(|(a, b)| {
                    a.finish_us.map(f64::to_bits) == b.finish_us.map(f64::to_bits)
                        && a.start_us.map(f64::to_bits) == b.start_us.map(f64::to_bits)
                        && a.iterations == b.iterations
                        && a.evictions == b.evictions
                });
        checks.check(same, || {
            "a repeat of the run changed its virtual report".to_string()
        });
        seconds
    }

    fn compile_sample(&mut self, tr: &mut Tracer, cache: bool, checks: &mut Checks) -> CompileObs {
        // The program a Poisson job compiles, on the subset it runs on.
        let JobSpec::Poisson { dim, .. } = self.mix.kinds[0].0 else {
            unreachable!("kind 0 is the Poisson job")
        };
        let backend = subset(&self.mix.fleet, 1);
        let grid = DenseGrid::new(
            &backend,
            Dim3::cube(dim as usize),
            &[&Stencil::seven_point()],
            StorageMode::Real,
        )
        .expect("job grid");
        let state = CgState::new(&grid, 1, MemLayout::SoA).expect("job fields");
        let make = || cg_iteration(&grid, &state, laplacian_apply(&grid, &state));
        let options = SkeletonOptions {
            cache,
            ..job_options()
        };
        let batch = if cache { 400 } else { 80 };
        compile_batch(tr, &backend, &make, options, batch, checks)
    }

    fn finish(&mut self, _checks: &mut Checks) {}

    fn virtual_metrics(&mut self, _checks: &mut Checks) -> Virt {
        let r = self.reference.as_ref().expect("prepare ran");
        let makespan_us = r.makespan.as_us();
        let iters = iterations(r);
        let busy: f64 = r.tenants.iter().map(|t| t.device_busy_us).sum();
        let slo = self.mix.slo_us();
        let in_time = r
            .outcomes
            .iter()
            .filter(|o| o.latency_us().is_some_and(|l| l <= slo))
            .count() as f64;
        Virt {
            us_per_iter: makespan_us / iters,
            parallel_eff: busy / (DEVICES as f64 * makespan_us),
            p95_latency_us: p95_latency_us(r),
            goodput_per_s: in_time / r.makespan.as_secs(),
            launches_per_iter: r.tenants.iter().map(|t| t.launches).sum::<u64>() as f64 / iters,
            bytes_moved_per_iter: r.tenants.iter().map(|t| t.bytes_moved).sum::<u64>() as f64
                / iters,
            ..Virt::default()
        }
    }

    fn probes(
        &mut self,
        tr: &mut Tracer,
        deadline: Instant,
        checks: &mut Checks,
        out: &mut Metrics,
    ) {
        const POOL_RUNS: usize = 2_000;
        let n_jobs = self.mix.jobs() as f64;
        let options = job_options();
        let backends = [subset(&self.mix.fleet, 1), subset(&self.mix.fleet, 2)];
        let kinds = self.mix.kinds;
        let backend_of = |k: usize| &backends[kinds[k].1 - 1];
        let build = |k: usize| {
            kinds[k]
                .0
                .build(backend_of(k), options)
                .expect("job builds")
        };
        let pool = WorkerPool::new(2);
        let mut capture_job = build(0);
        capture_job.advance(QUANTUM);
        let checkpoint_bytes = capture_job.capture().bytes() as f64;
        let (mut sched_us, mut total_us) = (f64::INFINITY, f64::INFINITY);

        let lbm = JobSpec::Lbm {
            dim: if self.mix.cfg.smoke { 6 } else { 8 },
            iters: 12,
        };
        const PROBES: [&str; 11] = [
            "run",
            "build0",
            "build1",
            "build2",
            "build_lbm",
            "advance0",
            "advance1",
            "advance2",
            "capture",
            "pool_run",
            "pool_spawn",
        ];
        let f = probe_floors(deadline, &PROBES, |name| match name {
            "run" => {
                let (seconds, report) = self.timed_run(tr);
                if report.total_wall_us < total_us {
                    total_us = report.total_wall_us;
                    sched_us = report.sched_wall_us;
                }
                seconds
            }
            "build0" | "build1" | "build2" => {
                let k = kind_of(name);
                tr.scope("apps", "JobSpec::build", || time(|| drop(build(k))))
            }
            "build_lbm" => tr.scope("apps", "JobSpec::build", || {
                time(|| drop(lbm.build(&backends[0], options).expect("LBM job builds")))
            }),
            "advance0" | "advance1" | "advance2" => {
                let k = kind_of(name);
                let mut job = build(k);
                tr.scope("apps", "SolverJob::advance", || {
                    time(|| {
                        while !job.is_done() {
                            job.advance(QUANTUM);
                        }
                    })
                })
            }
            "capture" => tr.scope("apps", "SolverJob::capture", || {
                time(|| {
                    for _ in 0..100 {
                        std::hint::black_box(capture_job.capture());
                    }
                })
            }),
            "pool_run" => tr.scope("sys", "WorkerPool::run", || {
                time(|| {
                    for _ in 0..POOL_RUNS {
                        pool.run(|i| {
                            std::hint::black_box(i);
                        });
                    }
                })
            }),
            "pool_spawn" => tr.scope("sys", "WorkerPool::new", || {
                time(|| drop(WorkerPool::new(2)))
            }),
            other => unreachable!("unknown probe {other}"),
        });

        let quanta = |k: usize| (kinds[k].0.iters() as f64 / QUANTUM as f64).ceil();
        let capture_us = f["capture"] * 1e6 / 100.0;
        out.set("apps.job.build_ms.poisson", f["build0"] * 1e3);
        out.set("apps.job.build_ms.lbm", f["build_lbm"] * 1e3);
        out.set(
            "apps.job.advance_ms_per_quantum",
            f["advance0"] * 1e3 / quanta(0),
        );
        out.set("apps.job.checkpoint_us", capture_us);
        out.set(
            "sys.pool.roundtrip_us",
            f["pool_run"] * 1e6 / POOL_RUNS as f64,
        );
        out.set("sys.pool.spawn_us", f["pool_spawn"] * 1e6);
        out.set("serve.sched_us_per_job", sched_us / n_jobs);
        out.set("serve.sched_frac", sched_us / total_us);

        // What the run's wall time is made of, modelled from the pieces
        // measured alone: each job is built once and advanced to the end,
        // checkpoints cost their bytes at the measured capture rate, the
        // scheduler reports its own time. The rest (rollback, migration,
        // the event loop) is the server's unattributed time.
        let reference = self.reference.as_ref().expect("prepare ran");
        let per_kind = n_jobs / 3.0;
        let jobs_s: f64 = (0..3)
            .map(|k| {
                per_kind
                    * (f[["build0", "build1", "build2"][k]]
                        + f[["advance0", "advance1", "advance2"][k]])
            })
            .sum();
        let checkpointed: u64 = reference.tenants.iter().map(|t| t.checkpoint_bytes).sum();
        let checkpoints_s = checkpointed as f64 / checkpoint_bytes * capture_us / 1e6;
        let unattributed_s = f["run"] - jobs_s - checkpoints_s - sched_us / 1e6;
        out.set(
            "serve.unattributed_ms_per_job",
            unattributed_s * 1e3 / n_jobs,
        );

        out.set(
            "serve.evictions",
            reference
                .outcomes
                .iter()
                .map(|o| o.evictions.len())
                .sum::<usize>() as f64,
        );
        out.set(
            "serve.wasted_device_us",
            reference.tenants.iter().map(|t| t.wasted_device_us).sum(),
        );
        // Half and twice the operating point, once each: virtual results.
        let mut run_at = |load: f64| {
            let (mut server, requests) = self.mix.scenario(load);
            tr.scope("serve", "Server::run[other load]", || server.run(requests))
        };
        let half = run_at(0.5);
        let double = run_at(2.0);
        checks.check(half.shed == 0, || {
            format!("{} jobs shed at half the operating point", half.shed)
        });
        out.set("serve.virt_p95_us.l05", p95_latency_us(&half));
        out.set("serve.virt_p95_us.l2", p95_latency_us(&double));
        out.set("serve.shed_frac.l2", double.shed as f64 / n_jobs);
        out.set("serve.jain.l2", double.jain_fairness());
    }
}
