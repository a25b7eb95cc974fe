//! `lbm64_d2`: the D3Q19 twoPop lid-driven cavity, one time step per
//! sample.
//!
//! The cavity is assembled here from the public `stream_collide`
//! container instead of through `LidDrivenCavity`, because that type
//! compiles its skeletons with the default (parallel) functional mode and
//! exposes only one of the two; the end-to-end wall metric is measured on
//! the serial executor (README, "One thread").

use std::sync::Arc;
use std::time::Instant;

use neon_apps::lbm::d3q19::stream_collide;
use neon_apps::lbm::reference::ReferenceCavity;
use neon_apps::lbm::LbmParams;
use neon_core::{
    clear_plan_cache, recommend_layout, AccessSummary, ExecReport, FunctionalMode, LayoutPolicy,
    OccLevel, Skeleton, SkeletonOptions,
};
use neon_domain::{DenseGrid, Dim3, Field, GridLike, Stencil, StorageMode};
use neon_set::{Checkpoint, StateHandle};
use neon_sys::Backend;

use super::common::set_executor_metrics;
use crate::harness::{
    compile_batch, probe_floors, serial, time, Cfg, Checks, CompileObs, Metrics, Virt, Workload,
};
use crate::plain::lbm::PlainCavity;
use crate::rng::Rng;
use crate::stats;
use crate::tracer::Tracer;

/// Two population fields and the two skeletons of the twoPop swap.
struct Cavity {
    f: [Field<f64, DenseGrid>; 2],
    skeletons: [Skeleton; 2],
    step: usize,
}

impl Cavity {
    fn new(grid: &DenseGrid, params: LbmParams, options: SkeletonOptions, tr: &mut Tracer) -> Self {
        // The layout the application itself would pick.
        let layout = recommend_layout(
            LayoutPolicy::Auto,
            AccessSummary {
                card: 19,
                stencil: true,
                live_halo: grid.num_partitions() > 1,
            },
        )
        .0;
        let field = |name: &str| {
            Field::<f64, DenseGrid>::new(grid, name, 19, 0.0, layout)
                .expect("population field fits")
        };
        let (f0, f1) = tr.scope("set", "Field::new x2", || (field("f0"), field("f1")));
        let compile = |src: &Field<f64, DenseGrid>, dst: &Field<f64, DenseGrid>, name: &str| {
            Skeleton::sequence(
                grid.backend(),
                name,
                vec![stream_collide(grid, src, dst, params)],
                options,
            )
        };
        let skeletons = tr.scope("core", "Skeleton::sequence x2", || {
            [compile(&f0, &f1, "lbm-even"), compile(&f1, &f0, "lbm-odd")]
        });
        Cavity {
            f: [f0, f1],
            skeletons,
            step: 0,
        }
    }

    /// Rest equilibrium: ρ = 1, u = 0.
    fn init(&mut self) {
        let w = neon_apps::lbm::d3q19::D3Q19_WEIGHTS;
        for f in &self.f {
            f.fill(|_, _, _, q| w[q]);
        }
        self.step = 0;
    }

    fn step(&mut self, n: usize) -> ExecReport {
        self.step_each(n, |_| ())
    }

    /// `n` steps; `each` sees every step's own report.
    fn step_each(&mut self, n: usize, mut each: impl FnMut(&ExecReport)) -> ExecReport {
        let mut total = ExecReport::default();
        for _ in 0..n {
            let report = self.skeletons[self.step % 2].run();
            each(&report);
            total.accumulate(report);
            self.step += 1;
        }
        total
    }

    fn current(&self) -> &Field<f64, DenseGrid> {
        &self.f[self.step % 2]
    }

    fn set_mode(&mut self, mode: FunctionalMode) {
        for s in &mut self.skeletons {
            s.set_functional_mode(mode);
        }
    }

    /// Σ f with compensated summation: the sum of 10⁸ values must not lose
    /// the 1e-12 the conservation check needs.
    fn total_mass(&self) -> f64 {
        let (mut sum, mut carry) = (0.0f64, 0.0f64);
        self.current().for_each(|_, _, _, _, v| {
            let y = v - carry;
            let t = sum + y;
            carry = (t - sum) - y;
            sum = t;
        });
        sum
    }

    /// Both population fields, as checkpoint handles.
    fn handles(&self) -> Vec<Arc<dyn StateHandle>> {
        let mut seen = std::collections::HashSet::new();
        self.skeletons
            .iter()
            .flat_map(|s| s.state_handles())
            .filter(|h| seen.insert(h.state_uid()))
            .collect()
    }
}

pub struct Lbm64 {
    cfg: Cfg,
    n: usize,
    params: LbmParams,
    options: SkeletonOptions,
    backend: Backend,
    grid: DenseGrid,
    cavity: Cavity,
    mass0: f64,
    virt_first: Option<f64>,
}

fn lbm_grid(backend: &Backend, n: usize, mode: StorageMode) -> DenseGrid {
    DenseGrid::new(backend, Dim3::cube(n), &[&Stencil::d3q19()], mode).expect("dense grid")
}

impl Lbm64 {
    pub fn new(cfg: Cfg, tr: &mut Tracer) -> Self {
        let n = if cfg.smoke { 16 } else { 64 };
        // Seeded physics: the relaxation rate and the lid speed. Neither
        // changes the work per cell.
        let mut rng = Rng::new(cfg.seed, 2);
        let params = LbmParams {
            omega: rng.range(0.9, 1.1),
            u_lid: rng.range(0.05, 0.1),
        };
        // The options `LidDrivenCavity` compiles with, on the serial executor.
        let options = serial(SkeletonOptions::with_occ(OccLevel::Standard));
        clear_plan_cache();
        let backend = Backend::dgx_a100(2);
        let grid = tr.scope("domain", "DenseGrid::new", || {
            lbm_grid(&backend, n, StorageMode::Real)
        });
        let mut cavity = Cavity::new(&grid, params, options, tr);
        tr.scope("domain", "Field::fill x2", || cavity.init());
        tr.scope("core", "run[warm-up]", || cavity.step(1));
        Lbm64 {
            cfg,
            n,
            params,
            options,
            backend,
            grid,
            cavity,
            mass0: 0.0,
            virt_first: None,
        }
    }

    fn virtual_twin(&self, devices: usize) -> Cavity {
        let backend = Backend::dgx_a100(devices);
        let grid = lbm_grid(&backend, self.n, StorageMode::Virtual);
        Cavity::new(&grid, self.params, self.options, &mut Tracer::new(false))
    }

    /// 16³, 8 steps, four implementations: the serial cavity must equal
    /// the parallel one bit for bit, and the crate's reference and the
    /// benchmark's plain cavity to 1e-12.
    fn check_small(&self, checks: &mut Checks) {
        const N: usize = 16;
        const STEPS: usize = 8;
        let params = self.params;
        let backend = Backend::dgx_a100(2);
        let grid = lbm_grid(&backend, N, StorageMode::Real);
        let run = |mode: FunctionalMode| {
            let mut c = Cavity::new(&grid, params, self.options, &mut Tracer::new(false));
            c.set_mode(mode);
            c.init();
            c.step(STEPS);
            c
        };
        let serial = run(FunctionalMode::Serial);
        let parallel = run(FunctionalMode::Parallel);
        let mut reference = ReferenceCavity::new(N, N, N, params);
        let mut plain = PlainCavity::new(N, params.omega, params.u_lid);
        for _ in 0..STEPS {
            reference.step();
            plain.step();
        }
        let (mut bits_differ, mut worst_ref, mut worst_plain) = (0u64, 0.0f64, 0.0f64);
        serial.current().for_each(|x, y, z, q, v| {
            let p = parallel.current().get(x, y, z, q).expect("same grid");
            bits_differ += u64::from(p.to_bits() != v.to_bits());
            let (ux, uy, uz) = (x as usize, y as usize, z as usize);
            worst_ref = worst_ref.max((v - reference.get(ux, uy, uz, q)).abs());
            worst_plain = worst_plain.max((v - plain.get(ux, uy, uz, q)).abs());
        });
        checks.check(bits_differ == 0, || {
            format!("{bits_differ} populations differ between serial and parallel executor")
        });
        checks.check(worst_ref < 1e-12, || {
            format!("cavity differs from ReferenceCavity by {worst_ref}")
        });
        checks.check(worst_plain < 1e-12, || {
            format!("cavity differs from the plain cavity by {worst_plain}")
        });
    }
}

impl Workload for Lbm64 {
    fn iters_per_sample(&self) -> f64 {
        1.0
    }

    fn prepare(&mut self, checks: &mut Checks) {
        self.mass0 = self.cavity.total_mass();
        let cells = (self.n * self.n * self.n) as f64;
        checks.check((self.mass0 - cells).abs() < 1e-9 * cells, || {
            format!("initial mass {} is not the cell count {cells}", self.mass0)
        });
    }

    fn wall_sample(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let span = tr.enter("core", "run[real]");
        let start = Instant::now();
        let report = self.cavity.step(1);
        let seconds = start.elapsed().as_secs_f64();
        tr.exit(span);
        let virt = report.makespan.as_us();
        let first = *self.virt_first.get_or_insert(virt);
        let centre = self.n as i32 / 2;
        let probe = self
            .cavity
            .current()
            .get(centre, self.n as i32 - 1, centre, 0);
        checks.check(
            (virt - first).abs() <= 1e-9 * first && probe.is_some_and(f64::is_finite),
            || format!("step: virtual time {first} -> {virt}, lid-plane population {probe:?}"),
        );
        seconds
    }

    fn compile_sample(&mut self, tr: &mut Tracer, cache: bool, checks: &mut Checks) -> CompileObs {
        let (grid, f, params) = (&self.grid, &self.cavity.f, self.params);
        let make = || vec![stream_collide(grid, &f[0], &f[1], params)];
        let options = SkeletonOptions {
            cache,
            ..self.options
        };
        let batch = if cache { 600 } else { 300 };
        compile_batch(tr, &self.backend, &make, options, batch, checks)
    }

    fn finish(&mut self, checks: &mut Checks) {
        let mass = self.cavity.total_mass();
        checks.check((mass - self.mass0).abs() <= 1e-12 * self.mass0, || {
            format!(
                "mass not conserved over {} steps: {} -> {mass}",
                self.cavity.step, self.mass0
            )
        });
        self.check_small(checks);
    }

    fn virtual_metrics(&mut self, _checks: &mut Checks) -> Virt {
        let iters = self.cfg.virtual_iters();
        let mut makespans = Vec::with_capacity(iters);
        let r2 = self
            .virtual_twin(2)
            .step_each(iters, |r| makespans.push(r.makespan.as_us()));
        let r1 = self.virtual_twin(1).step(iters);
        Virt {
            parallel_eff: r1.makespan.as_us() / (2.0 * r2.makespan.as_us()),
            p95_latency_us: stats::percentile(&stats::sorted(&makespans), 0.95),
            ..Virt::from_report(&r2, iters, 2)
        }
    }

    fn probes(
        &mut self,
        tr: &mut Tracer,
        deadline: Instant,
        _checks: &mut Checks,
        out: &mut Metrics,
    ) {
        const REPLAY_REPS: usize = 2000;
        let n = self.n;
        let cells = (n * n * n) as f64;
        let mut twin = self.virtual_twin(2);
        let mut plain = PlainCavity::new(n, self.params.omega, self.params.u_lid);
        let handles = self.cavity.handles();
        let mut checkpoint = Checkpoint::capture(0, &handles);
        let checkpoint_bytes = checkpoint.bytes() as f64;
        let grid = self.grid.clone();

        const PROBES: [&str; 7] = [
            "serial", "parallel", "replay", "plain", "alloc", "capture", "restore",
        ];
        let f = probe_floors(deadline, &PROBES, |name| match name {
            "serial" => tr.scope("core", "run[real]", || {
                time(|| {
                    self.cavity.step(1);
                })
            }),
            "parallel" => {
                self.cavity.set_mode(FunctionalMode::Parallel);
                let s = time(|| {
                    self.cavity.step(1);
                });
                self.cavity.set_mode(FunctionalMode::Serial);
                s
            }
            "replay" => tr.scope("core", "run[virtual]", || {
                time(|| {
                    twin.step(REPLAY_REPS);
                })
            }),
            "plain" => time(|| plain.step()),
            "alloc" => tr.scope("set", "Field::new", || {
                time(|| {
                    let field = Field::<f64, DenseGrid>::new(
                        &grid,
                        "probe",
                        19,
                        0.0,
                        self.cavity.f[0].layout(),
                    );
                    std::hint::black_box(field.expect("probe field fits"));
                })
            }),
            "capture" => tr.scope("set", "Checkpoint::capture", || {
                time(|| checkpoint = Checkpoint::capture(0, &handles))
            }),
            "restore" => tr.scope("set", "Checkpoint::restore", || {
                time(|| checkpoint.restore())
            }),
            other => unreachable!("unknown probe {other}"),
        });

        set_executor_metrics(out, &f, 1, REPLAY_REPS);
        out.set("apps.lbm.ns_per_cell", f["serial"] * 1e9 / cells);
        // Computed, not measured, traffic: 19 doubles read and 19 written
        // per cell, from the array sizes; cache misses are not in it.
        out.set(
            "apps.lbm.computed_gb_per_s",
            cells * 2.0 * 19.0 * 8.0 / f["serial"] / 1e9,
        );
        out.set("apps.lbm.overhead_vs_plain_x", f["serial"] / f["plain"]);
        out.set("set.field.alloc_ms", f["alloc"] * 1e3);
        out.set("set.checkpoint.bytes", checkpoint_bytes);
        out.set(
            "set.checkpoint.capture_gb_per_s",
            checkpoint_bytes / f["capture"] / 1e9,
        );
        out.set(
            "set.checkpoint.restore_gb_per_s",
            checkpoint_bytes / f["restore"] / 1e9,
        );
    }
}
