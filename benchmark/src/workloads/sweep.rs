//! `paper_sweep_virtual`: the configurations of the paper's Fig. 7, 8 and
//! 9 on virtual (timing-only) storage. No kernel body runs; the compiler
//! passes, the plan cache, the timing replay, `QueueSim` and the comm
//! engine do all the work. This is the paper-reproduction user's workload.

use std::time::Instant;

use neon_apps::cg::{cg_iteration, CgState};
use neon_apps::fem::solver::elasticity_apply;
use neon_apps::fem::Material;
use neon_apps::lbm::d3q19::stream_collide;
use neon_apps::lbm::{AnalyticLbm, LbmParams};
use neon_apps::poisson::laplacian_apply;
use neon_comm::{CollectiveEngine, CollectiveKind};
use neon_core::{clear_plan_cache, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{DenseGrid, Dim3, Field, GridLike, MemLayout, SparseGrid, Stencil, StorageMode};
use neon_set::Container;
use neon_sys::{Backend, DeviceId, QueueSim, SimTime, SpanKind, StreamId};

use crate::harness::{
    compile_batch, probe_floors, time, Cfg, Checks, CompileObs, Metrics, Virt, Workload,
};
use crate::stats;
use crate::tracer::Tracer;

/// One configuration: an application's iteration program on a backend.
struct Config {
    label: String,
    backend: Backend,
    options: SkeletonOptions,
    /// Builds the program's containers over the configuration's fields.
    make: Box<dyn Fn() -> Vec<Container>>,
    /// Virtual microseconds per iteration of the first sweep (bit-exact
    /// reference for every later sweep).
    virt_us: f64,
    /// Fastest compile of this configuration so far, cold and warm.
    fastest: [CompileObs; 2],
}

impl Config {
    fn new(
        label: String,
        backend: Backend,
        occ: OccLevel,
        make: Box<dyn Fn() -> Vec<Container>>,
    ) -> Self {
        Config {
            label,
            backend,
            // As the `repro_fig*` programs compile: the OCC level under
            // study shapes the graph, fusion off.
            options: SkeletonOptions::with_occ(occ),
            make,
            virt_us: 0.0,
            fastest: [CompileObs::WORST; 2],
        }
    }
}

fn occ_tag(occ: OccLevel) -> &'static str {
    match occ {
        OccLevel::None => "none",
        OccLevel::Standard => "std",
        OccLevel::Extended => "ext",
        OccLevel::TwoWayExtended => "2way",
    }
}

fn lbm_config(system: &str, backend: Backend, n: usize, occ: OccLevel) -> Config {
    let grid = DenseGrid::new(
        &backend,
        Dim3::cube(n),
        &[&Stencil::d3q19()],
        StorageMode::Virtual,
    )
    .expect("virtual grid");
    let field =
        |name| Field::<f64, _>::new(&grid, name, 19, 0.0, MemLayout::AoS).expect("virtual field");
    let (f0, f1) = (field("f0"), field("f1"));
    let label = format!(
        "lbm/{system}/d{}/{n}/{}",
        backend.num_devices(),
        occ_tag(occ)
    );
    let make = move || vec![stream_collide(&grid, &f0, &f1, LbmParams::default())];
    Config::new(label, backend, occ, Box::new(make))
}

fn cg_config<G: GridLike>(
    label: String,
    backend: Backend,
    occ: OccLevel,
    grid: G,
    card: usize,
    apply: impl Fn(&G, &CgState<G>) -> Container + 'static,
) -> Config {
    let state = CgState::new(&grid, card, MemLayout::SoA).expect("virtual fields");
    let make = move || cg_iteration(&grid, &state, apply(&grid, &state));
    Config::new(label, backend, occ, Box::new(make))
}

fn poisson_config(system: &str, backend: Backend, n: usize, occ: OccLevel) -> Config {
    let grid = DenseGrid::new(
        &backend,
        Dim3::cube(n),
        &[&Stencil::seven_point()],
        StorageMode::Virtual,
    )
    .expect("virtual grid");
    let label = format!(
        "poisson/{system}/d{}/{n}/{}",
        backend.num_devices(),
        occ_tag(occ)
    );
    cg_config(label, backend, occ, grid, 1, laplacian_apply)
}

fn fem_dense_config(system: &str, backend: Backend, n: usize, occ: OccLevel) -> Config {
    let st = Stencil::twenty_seven_point();
    let grid = DenseGrid::new(&backend, Dim3::cube(n), &[&st], StorageMode::Virtual)
        .expect("virtual grid");
    let label = format!(
        "fem-dense/{system}/d{}/{n}/{}",
        backend.num_devices(),
        occ_tag(occ)
    );
    cg_config(label, backend, occ, grid, 3, |g, s| {
        elasticity_apply(g, s, Material::default())
    })
}

/// Fig. 9's element-sparse body: a centred column holding a fifth of the
/// box, anchored at the `z = 0` support.
fn fem_sparse_config(backend: Backend, n: usize, occ: OccLevel) -> Config {
    let side = (n as f64 * 0.2f64.cbrt()).round() as i32;
    let lo = (n as i32 - side) / 2;
    let inside = move |v: i32| v >= lo && v < lo + side;
    let st = Stencil::twenty_seven_point();
    let grid = SparseGrid::new(
        &backend,
        Dim3::cube(n),
        &[&st],
        move |x, y, z| inside(x) && inside(y) && z < side,
        StorageMode::Virtual,
    )
    .expect("virtual grid");
    let label = format!(
        "fem-sparse0.2/nvlink/d{}/{n}/{}",
        backend.num_devices(),
        occ_tag(occ)
    );
    cg_config(label, backend, occ, grid, 3, |g, s| {
        elasticity_apply(g, s, Material::default())
    })
}

/// The configurations, 47 of them. A smoke run keeps them all: on virtual
/// storage they cost nothing to build.
fn configs() -> Vec<Config> {
    use OccLevel::{Extended, None as NoOcc, Standard, TwoWayExtended};
    let nv = Backend::dgx_a100;
    let mut out = Vec::new();
    // Fig. 7: LBM efficiency on 8 GPUs against size, with and without OCC.
    for n in [192, 256, 320, 384, 448, 512] {
        out.push(lbm_config("nvlink", nv(1), n, NoOcc));
        out.push(lbm_config("nvlink", nv(8), n, NoOcc));
        out.push(lbm_config("nvlink", nv(8), n, Standard));
    }
    // Fig. 8 top: Poisson 320³, every OCC level against the device count,
    // on NVLink and (the communication-bound corner) on PCIe.
    for ndev in [1, 2, 4, 8] {
        for occ in [NoOcc, Standard, Extended, TwoWayExtended] {
            out.push(poisson_config("nvlink", nv(ndev), 320, occ));
        }
    }
    for ndev in [4, 8] {
        for occ in [NoOcc, TwoWayExtended] {
            out.push(poisson_config("pcie", Backend::gv100_pcie(ndev), 320, occ));
        }
    }
    // Fig. 9: FEM dense against element-sparse, and the one-GPU system.
    for n in [256, 384, 512] {
        out.push(fem_dense_config("nvlink", nv(1), n, Standard));
        out.push(fem_dense_config("nvlink", nv(8), n, Standard));
    }
    for n in [128, 256] {
        out.push(fem_sparse_config(nv(8), n, Standard));
    }
    out.push(fem_dense_config(
        "pcie",
        Backend::gv100_pcie(1),
        256,
        Standard,
    ));
    out
}

pub struct Sweep {
    cfg: Cfg,
    configs: Vec<Config>,
    /// Iterations replayed per configuration in one sweep.
    replay: usize,
}

impl Sweep {
    pub fn new(cfg: Cfg, tr: &mut Tracer) -> Self {
        clear_plan_cache();
        let configs = tr.scope("domain", "grids+fields[virtual]", configs);
        let mut sweep = Sweep {
            cfg,
            configs,
            replay: 100,
        };
        // First compile of every configuration and the warm-up replay; the
        // virtual times it sees are the reference of every later sweep.
        let first = sweep.sweep(tr);
        for (c, us) in sweep.configs.iter_mut().zip(first.1) {
            c.virt_us = us;
        }
        sweep
    }

    /// One sweep: per configuration a cold compile, a cache-hit compile
    /// and `replay` replayed iterations. Returns the timed seconds and the
    /// virtual microseconds per iteration of each configuration.
    fn sweep(&mut self, tr: &mut Tracer) -> (f64, Vec<f64>) {
        let mut virt = Vec::with_capacity(self.configs.len());
        let span = tr.enter("bench", "sweep");
        let start = Instant::now();
        for c in &self.configs {
            let cold = SkeletonOptions {
                cache: false,
                ..c.options
            };
            let s = tr.enter("core", "Skeleton::sequence[cold]");
            std::hint::black_box(Skeleton::sequence(&c.backend, &c.label, (c.make)(), cold));
            tr.exit(s);
            let s = tr.enter("core", "Skeleton::sequence[hit]");
            let mut sk = Skeleton::sequence(&c.backend, &c.label, (c.make)(), c.options);
            tr.exit(s);
            let s = tr.enter("core", "run_iters[virtual]");
            let report = sk.run_iters(self.replay);
            tr.exit(s);
            virt.push(report.makespan.as_us() / self.replay as f64);
        }
        let seconds = start.elapsed().as_secs_f64();
        tr.exit(span);
        (seconds, virt)
    }

    /// Per-iteration virtual time of `label` over `iters` iterations, on a
    /// fresh skeleton.
    fn replay_config(&self, label: &str, iters: usize) -> f64 {
        let c = self
            .configs
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("no configuration {label}"));
        let mut sk = Skeleton::sequence(&c.backend, &c.label, (c.make)(), c.options);
        sk.run_iters(iters).makespan.as_us() / iters as f64
    }

    /// Parallel efficiency at 8 devices, per application, at the paper's
    /// sizes: `T(1 device) / (8 · T(8 devices))` at the best OCC level.
    fn eff_d8(&self, iters: usize) -> [f64; 3] {
        let t = |label: &str| self.replay_config(label, iters);
        let best = |app: &str| {
            ["none", "std", "ext", "2way"]
                .iter()
                .map(|occ| t(&format!("{app}/nvlink/d8/320/{occ}")))
                .fold(f64::INFINITY, f64::min)
        };
        [
            t("lbm/nvlink/d1/512/none") / (8.0 * t("lbm/nvlink/d8/512/std")),
            t("poisson/nvlink/d1/320/none") / (8.0 * best("poisson")),
            t("fem-dense/nvlink/d1/512/std") / (8.0 * t("fem-dense/nvlink/d8/512/std")),
        ]
    }
}

impl Workload for Sweep {
    fn iters_per_sample(&self) -> f64 {
        (self.configs.len() * self.replay) as f64
    }

    fn prepare(&mut self, checks: &mut Checks) {
        checks.check(
            self.configs
                .iter()
                .all(|c| c.virt_us.is_finite() && c.virt_us > 0.0),
            || "a configuration replayed in no virtual time".to_string(),
        );
    }

    fn wall_sample(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let (seconds, virt) = self.sweep(tr);
        // Fresh skeletons start their clocks at zero: the same program
        // must be priced to the bit.
        for (c, us) in self.configs.iter().zip(virt) {
            checks.check(us.to_bits() == c.virt_us.to_bits(), || {
                format!("{}: virtual time moved from {} to {us}", c.label, c.virt_us)
            });
        }
        seconds
    }

    fn compile_sample(&mut self, tr: &mut Tracer, cache: bool, checks: &mut Checks) -> CompileObs {
        // The mean over configurations of each one's fastest compile so
        // far: it only falls, so the floor over samples is its last value.
        let batch = if cache { 4 } else { 2 };
        let share = 1.0 / self.configs.len() as f64;
        let mut mean = CompileObs {
            us: 0.0,
            pass_us: [0.0; 9],
            unattributed_us: 0.0,
        };
        for c in &mut self.configs {
            let options = SkeletonOptions { cache, ..c.options };
            let obs = compile_batch(tr, &c.backend, &*c.make, options, batch, checks);
            let fastest = &mut c.fastest[usize::from(cache)];
            fastest.fold_min(&obs);
            mean.us += fastest.us * share;
            mean.unattributed_us += fastest.unattributed_us * share;
            for (m, p) in mean.pass_us.iter_mut().zip(fastest.pass_us) {
                *m += p * share;
            }
        }
        mean
    }

    fn finish(&mut self, _checks: &mut Checks) {}

    fn virtual_metrics(&mut self, _checks: &mut Checks) -> Virt {
        let iters = self.cfg.virtual_iters();
        let (mut total_us, mut pooled) = (0.0, Vec::new());
        let mut sums = neon_core::ExecReport::default();
        let mut devices = 0.0;
        for c in &self.configs {
            let mut sk = Skeleton::sequence(&c.backend, &c.label, (c.make)(), c.options);
            let r = sk.run_iters(iters);
            total_us += r.makespan.as_us();
            devices += c.backend.num_devices() as f64 * r.makespan.as_us();
            pooled.extend(sk.per_iteration_makespans().iter().map(|t| t.as_us()));
            sums.accumulate(r);
        }
        let n = (iters * self.configs.len()) as f64;
        let eff = self.eff_d8(iters);
        Virt {
            us_per_iter: total_us / n,
            parallel_eff: eff.iter().sum::<f64>() / 3.0,
            p95_latency_us: stats::percentile(&stats::sorted(&pooled), 0.95),
            goodput_per_s: n / (total_us / 1e6),
            // Device-time weighted: kernel busy over (devices · makespan).
            exposed_comm_frac: 1.0 - sums.kernel_time.as_us() / devices,
            ..Virt::from_report(&sums, iters * self.configs.len(), 1)
        }
    }

    fn probes(
        &mut self,
        tr: &mut Tracer,
        deadline: Instant,
        _checks: &mut Checks,
        out: &mut Metrics,
    ) {
        const QUEUE_OPS: usize = 100_000;
        const ALLREDUCES: usize = 2_000;
        let iters = self.cfg.virtual_iters();
        let zeros8 = vec![SimTime::ZERO; 8];
        let topo8 = Backend::dgx_a100(8).topology().clone();
        let engine8 = CollectiveEngine::new(topo8);
        // Pre-compiled skeletons for the replay-only probe.
        let mut compiled: Vec<Skeleton> = self
            .configs
            .iter()
            .map(|c| Skeleton::sequence(&c.backend, &c.label, (c.make)(), c.options))
            .collect();
        let replay = self.replay;

        const PROBES: [&str; 4] = ["replay", "queue_ops", "allreduce_8B", "allreduce_16MiB"];
        let f = probe_floors(deadline, &PROBES, |name| match name {
            "replay" => tr.scope("core", "run_iters[virtual]", || {
                time(|| {
                    for sk in &mut compiled {
                        sk.run_iters(replay);
                    }
                })
            }),
            "queue_ops" => tr.scope("sys", "QueueSim ops", || {
                let mut q = QueueSim::new(8, 2);
                let event = q.create_event();
                let dur = SimTime::from_us(1.0);
                time(|| {
                    for i in 0..QUEUE_OPS {
                        let a = StreamId::new(DeviceId(i % 8), 0);
                        let b = StreamId::new(DeviceId((i + 1) % 8), 1);
                        q.enqueue(a, dur, "k", SpanKind::Kernel);
                        q.record_event(a, event);
                        q.wait_event(b, event).expect("event was recorded");
                    }
                    std::hint::black_box(q.makespan());
                })
            }),
            "allreduce_8B" | "allreduce_16MiB" => {
                tr.scope("comm", "CollectiveEngine::schedule", || {
                    let bytes = if name == "allreduce_8B" { 8 } else { 16 << 20 };
                    let mut q = QueueSim::new(8, 1);
                    time(|| {
                        for _ in 0..ALLREDUCES {
                            let t = engine8.schedule(
                                &mut q,
                                CollectiveKind::AllReduce,
                                bytes,
                                &zeros8,
                                0,
                                "ar",
                            );
                            std::hint::black_box(t);
                        }
                    })
                })
            }
            other => unreachable!("unknown probe {other}"),
        });

        out.set(
            "core.timing_replay.us_per_iter",
            f["replay"] * 1e6 / self.iters_per_sample(),
        );
        // Three queue operations (enqueue, record, wait) per loop turn.
        out.set(
            "sys.queue.op_ns",
            f["queue_ops"] * 1e9 / (3 * QUEUE_OPS) as f64,
        );
        out.set(
            "comm.allreduce.sim_us.8B",
            f["allreduce_8B"] * 1e6 / ALLREDUCES as f64,
        );
        out.set(
            "comm.allreduce.sim_us.16MiB",
            f["allreduce_16MiB"] * 1e6 / ALLREDUCES as f64,
        );

        let virt_allreduce = |backend: Backend, bytes: u64| {
            let n = backend.num_devices();
            let engine = CollectiveEngine::new(backend.topology().clone());
            let mut q = QueueSim::new(n, 1);
            engine
                .schedule(
                    &mut q,
                    CollectiveKind::AllReduce,
                    bytes,
                    &vec![SimTime::ZERO; n],
                    0,
                    "ar",
                )
                .makespan()
                .as_us()
        };
        out.set(
            "comm.allreduce.virt_us.8B_d4",
            virt_allreduce(Backend::dgx_a100(4), 8),
        );
        out.set(
            "comm.allreduce.virt_us.16MiB_i22",
            virt_allreduce(Backend::dgx_islands(&[2, 2]), 16 << 20),
        );

        let eff = self.eff_d8(iters);
        out.set("core.virt.eff_d8.lbm", eff[0]);
        out.set("core.virt.eff_d8.poisson", eff[1]);
        out.set("core.virt.eff_d8.fem", eff[2]);

        // The simulator's error against the paper's numbers (EXPERIMENTS.md
        // records both): stated beside every simulated speed-up.
        let rel_err = |ours: f64, paper: f64| (ours - paper).abs() / paper;
        let t = |label: &str| self.replay_config(label, iters);
        // Table II: Neon twoPop reaches 99 % of native-CUDA cuboltz (256³, one A100).
        let a100 = Backend::dgx_a100(1);
        let lbm256 = lbm_config("nvlink", a100.clone(), 256, OccLevel::None);
        let mut sk = Skeleton::sequence(&lbm256.backend, "table2", (lbm256.make)(), lbm256.options);
        let cells = 256u64.pow(3);
        let neon_mlups = cells as f64 / (sk.run_iters(iters).makespan.as_us() / iters as f64);
        let cuboltz_mlups = AnalyticLbm::cuboltz().mlups(a100.device(DeviceId(0)), cells);
        out.set(
            "core.virt.model_err.table2_neon_vs_cuboltz",
            rel_err(neon_mlups / cuboltz_mlups, 0.99),
        );
        // Fig. 7: no-OCC efficiency 0.93 at 512³; communication is 49 % of a
        // no-OCC iteration at 192³ (against a free interconnect, here taken
        // as the ideal 1/8 of the one-GPU time).
        let eff512 = t("lbm/nvlink/d1/512/none") / (8.0 * t("lbm/nvlink/d8/512/none"));
        out.set("core.virt.model_err.fig7_eff_512", rel_err(eff512, 0.93));
        let comm192 = 1.0 - t("lbm/nvlink/d1/192/none") / (8.0 * t("lbm/nvlink/d8/192/none"));
        out.set(
            "core.virt.model_err.fig7_comm_share_192",
            rel_err(comm192, 0.49),
        );
    }
}
