//! The two CG workloads: `cg64_d2` (Poisson, dense) and
//! `fem_sparse48_d2` (elasticity, masked sparse). They share everything
//! but the grid, the operator, one extra check and their probes.

use std::time::Instant;

use neon_apps::cg::{cg_iteration, CgSolver, CgState};
use neon_apps::fem::solver::elasticity_apply;
use neon_apps::fem::Material;
use neon_apps::poisson::laplacian_apply;
use neon_core::{
    clear_plan_cache, ExecReport, FaultPlan, FunctionalMode, ResilienceOptions, SkeletonOptions,
};
use neon_domain::{
    BlockSparseGrid, DenseGrid, Dim3, GridLike, MemLayout, SparseGrid, Stencil, StorageMode,
};
use neon_set::Container;
use neon_sys::{Backend, DeviceId};

use super::common::{cylinder_mask, set_executor_metrics, GridProbes, KernelProbe};
use crate::harness::{
    compile_batch, p95_makespan_us, probe_floors, serial, time, Cfg, Checks, CompileObs, Metrics,
    Virt, Workload,
};
use crate::plain::cg::PlainCg;
use crate::rng::{cell_value, Rng};
use crate::tracer::Tracer;

type MakeGrid<G> = Box<dyn Fn(&Backend, StorageMode) -> G>;
type MakeApply<G> = Box<dyn Fn(&G, &CgState<G>) -> Container>;
type Probes<G> = fn(&mut CgSolve<G>, &mut Tracer, Instant, &mut Checks, &mut Metrics);

/// Timing-only iterations per replay sample (about 3 µs each).
const REPLAY_REPS: usize = 1000;

/// A CG solve measured as fixed-length solves from a reset state.
///
/// A sample is one `iters`-iteration solve from `CgSolver::init`, not a
/// continuation: a converged CG drives residuals toward denormals, and
/// the cost per iteration changes with them (README, "Constant numerical
/// regime").
pub struct CgSolve<G: GridLike> {
    cfg: Cfg,
    backend: Backend,
    grid: G,
    cg: CgSolver<G>,
    layout: MemLayout,
    options: SkeletonOptions,
    spec: Spec<G>,
    /// `r·r` bits after each iteration of the reference solve.
    reference: Vec<u64>,
    /// Virtual microseconds per iteration of the first sample.
    virt_first: Option<f64>,
}

/// What distinguishes one CG workload from the other.
struct Spec<G: GridLike> {
    /// Components per cell of the solver's fields.
    card: usize,
    make_grid: MakeGrid<G>,
    make_apply: MakeApply<G>,
    /// Iterations per sample.
    iters: usize,
    /// Compiles timed per compile sample, cold and warm.
    batch: (usize, usize),
    /// The workload's independent check against another implementation.
    cross_check: fn(&CgSolve<G>, &mut Checks),
    /// The workload's own per-layer probes.
    probes: Probes<G>,
}

impl<G: GridLike> CgSolve<G> {
    fn new(
        cfg: Cfg,
        tr: &mut Tracer,
        spec: Spec<G>,
        rhs: impl Fn(i32, i32, i32, usize) -> f64,
    ) -> Self {
        clear_plan_cache();
        let backend = Backend::dgx_a100(2);
        let grid = tr.scope("domain", "Grid::new", || {
            (spec.make_grid)(&backend, StorageMode::Real)
        });
        let options = serial(SkeletonOptions::default());
        let layout = CgSolver::<G>::layout_for(options.layout, &grid, spec.card);
        let mut cg = tr.scope("apps", "CgSolver::with_options", || {
            CgSolver::with_options(&grid, spec.card, layout, options, |state| {
                (spec.make_apply)(&grid, state)
            })
            .expect("solver fields fit the simulated devices")
        });
        tr.scope("domain", "Field::fill", || cg.state.b.fill(rhs));
        tr.scope("core", "run[init]", || cg.init());
        tr.scope("core", "run_iters[warm-up]", || cg.iterate(1));
        CgSolve {
            cfg,
            backend,
            grid,
            cg,
            layout,
            options,
            spec,
            reference: Vec::new(),
            virt_first: None,
        }
    }

    /// One solve from reset: `(timed seconds, r·r bits per iteration,
    /// aggregated report)`.
    fn solve(&mut self, tr: &mut Tracer) -> (f64, Vec<u64>, ExecReport) {
        self.cg.init();
        let mut bits = Vec::with_capacity(self.spec.iters);
        let mut report = ExecReport::default();
        let span = tr.enter("core", "run_iters[real]");
        let start = Instant::now();
        for _ in 0..self.spec.iters {
            report.accumulate(self.cg.iterate(1));
            bits.push(self.cg.state.rs_old.host_value().to_bits());
        }
        let seconds = start.elapsed().as_secs_f64();
        tr.exit(span);
        (seconds, bits, report)
    }

    /// Seconds of one solve on the parallel executor, and its `r·r` bits.
    fn solve_parallel(&mut self) -> (f64, Vec<u64>) {
        let iteration = self.cg.iteration_skeleton();
        iteration.set_functional_mode(FunctionalMode::Parallel);
        let (seconds, bits, _) = self.solve(&mut Tracer::new(false));
        let iteration = self.cg.iteration_skeleton();
        iteration.set_functional_mode(FunctionalMode::Serial);
        (seconds, bits)
    }

    /// A solver for the same program on virtual storage over `devices`.
    fn virtual_twin(&self, devices: usize) -> CgSolver<G> {
        let backend = Backend::dgx_a100(devices);
        let grid = (self.spec.make_grid)(&backend, StorageMode::Virtual);
        CgSolver::with_options(&grid, self.spec.card, self.layout, self.options, |state| {
            (self.spec.make_apply)(&grid, state)
        })
        .expect("virtual fields cost no memory")
    }

    /// Edge length of the cubic grid.
    fn n(&self) -> usize {
        self.grid.dim().x
    }
}

impl<G: GridLike> Workload for CgSolve<G> {
    fn iters_per_sample(&self) -> f64 {
        self.spec.iters as f64
    }

    fn prepare(&mut self, checks: &mut Checks) {
        let (_, bits, _) = self.solve(&mut Tracer::new(false));
        let finite = bits.iter().all(|b| f64::from_bits(*b).is_finite());
        checks.check(finite && bits.len() == self.spec.iters, || {
            "reference solve produced a non-finite residual".to_string()
        });
        self.reference = bits;
    }

    fn wall_sample(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let (seconds, bits, report) = self.solve(tr);
        checks.check(bits == self.reference, || {
            "residual history differs from the serial reference".to_string()
        });
        // The virtual clock must price every repeat the same (to rounding:
        // it keeps running, so spans are differences of growing numbers).
        let virt = report.makespan.as_us() / self.spec.iters as f64;
        let first = *self.virt_first.get_or_insert(virt);
        checks.check((virt - first).abs() <= 1e-9 * first, || {
            format!("virtual time per iteration moved: {first} -> {virt}")
        });
        seconds
    }

    fn compile_sample(&mut self, tr: &mut Tracer, cache: bool, checks: &mut Checks) -> CompileObs {
        let (grid, state, make_apply) = (&self.grid, &self.cg.state, &self.spec.make_apply);
        let make = || cg_iteration(grid, state, make_apply(grid, state));
        let options = SkeletonOptions {
            cache,
            ..self.options
        };
        let (cold, warm) = self.spec.batch;
        let batch = if cache { warm } else { cold };
        compile_batch(tr, &self.backend, &make, options, batch, checks)
    }

    fn finish(&mut self, checks: &mut Checks) {
        let (_, bits) = self.solve_parallel();
        checks.check(bits == self.reference, || {
            "parallel executor's residual history differs from the serial one".to_string()
        });
        (self.spec.cross_check)(self, checks);
    }

    fn virtual_metrics(&mut self, _checks: &mut Checks) -> Virt {
        let iters = self.cfg.virtual_iters();
        let mut multi = self.virtual_twin(2);
        let r2 = multi.iterate(iters);
        let r1 = self.virtual_twin(1).iterate(iters);
        Virt {
            parallel_eff: r1.makespan.as_us() / (2.0 * r2.makespan.as_us()),
            p95_latency_us: p95_makespan_us(multi.iteration_skeleton()),
            ..Virt::from_report(&r2, iters, 2)
        }
    }

    fn probes(
        &mut self,
        tr: &mut Tracer,
        deadline: Instant,
        checks: &mut Checks,
        out: &mut Metrics,
    ) {
        (self.spec.probes)(self, tr, deadline, checks, out);
    }
}

/// Seconds of [`REPLAY_REPS`] timing-only iterations of `twin`.
fn replay_sample<G: GridLike>(tr: &mut Tracer, twin: &mut CgSolver<G>) -> f64 {
    tr.scope("core", "run_iters[virtual]", || {
        time(|| {
            twin.iterate(REPLAY_REPS);
        })
    })
}

// ----------------------------------------------------------------- cg64_d2

/// The seeded right-hand side of the Poisson workloads.
fn poisson_rhs(seed: u64) -> impl Fn(i32, i32, i32, usize) -> f64 {
    move |x, y, z, comp| cell_value(seed, x, y, z, comp)
}

fn dense_poisson_grid(n: usize) -> MakeGrid<DenseGrid> {
    Box::new(move |backend, mode| {
        DenseGrid::new(backend, Dim3::cube(n), &[&Stencil::seven_point()], mode)
            .expect("dense grid")
    })
}

/// A Poisson CG solver on a small dense `n³` grid over 2 devices with its
/// seeded right-hand side filled in: the object the probes and the plain
/// cross-check work on.
fn small_poisson(n: usize, options: SkeletonOptions, seed: u64) -> CgSolver<DenseGrid> {
    let backend = Backend::dgx_a100(2);
    let grid = dense_poisson_grid(n)(&backend, StorageMode::Real);
    let cg = CgSolver::with_options(&grid, 1, MemLayout::SoA, options, |state| {
        laplacian_apply(&grid, state)
    })
    .expect("small fields fit");
    cg.state.b.fill(poisson_rhs(seed));
    cg
}

/// `cg64_d2`: Poisson CG on a dense grid, 2 devices.
pub fn cg64(cfg: Cfg, tr: &mut Tracer) -> CgSolve<DenseGrid> {
    let spec = Spec {
        card: 1,
        make_grid: dense_poisson_grid(if cfg.smoke { 24 } else { 64 }),
        make_apply: Box::new(laplacian_apply),
        iters: 4,
        batch: (80, 400),
        cross_check: poisson_against_plain,
        probes: cg64_probes,
    };
    CgSolve::new(cfg, tr, spec, poisson_rhs(cfg.seed))
}

/// The framework against the plain solver on 16³: the same seeded problem
/// must give the same residual history to rounding.
fn poisson_against_plain(w: &CgSolve<DenseGrid>, checks: &mut Checks) {
    let seed = w.cfg.seed;
    let mut cg = small_poisson(16, w.options, seed);
    cg.init();
    let mut plain = PlainCg::new(16, |x, y, z| cell_value(seed, x, y, z, 0));
    for i in 0..12 {
        cg.iterate(1);
        let (ours, theirs) = (plain.iterate(), cg.state.rs_old.host_value());
        checks.check((ours - theirs).abs() <= 1e-10 * theirs.abs(), || {
            format!("plain CG and framework disagree at iteration {i}: {ours} vs {theirs}")
        });
    }
}

/// What `solve_iters_resilient` costs over `solve_iters`, on a 32³ twin:
/// 100 iterations with checkpoints every 4, three seeded transient faults
/// that retry absorbs and one that escapes and forces a rollback.
struct ResilientProbe {
    plain: CgSolver<DenseGrid>,
    resilient: CgSolver<DenseGrid>,
    plan: FaultPlan,
    rollbacks: f64,
    replayed: f64,
    retries: f64,
}

impl ResilientProbe {
    const ITERS: usize = 100;

    fn new(seed: u64) -> Self {
        let options = serial(SkeletonOptions::default());
        let resilient = SkeletonOptions {
            resilience: ResilienceOptions {
                enabled: true,
                ..ResilienceOptions::default()
            },
            ..options
        };
        let mut rng = Rng::new(seed, 7);
        let plan = FaultPlan::seeded(rng.next_u64(), Self::ITERS as u64, 2, 3).with_kernel_fault(
            10 + rng.next_u64() % 80,
            DeviceId((rng.next_u64() % 2) as usize),
            0,
            8,
        );
        ResilientProbe {
            plain: small_poisson(32, options, seed),
            resilient: small_poisson(32, resilient, seed),
            plan,
            rollbacks: 0.0,
            replayed: 0.0,
            retries: 0.0,
        }
    }

    fn plain_sample(&mut self) -> f64 {
        self.plain.init();
        time(|| {
            self.plain.iterate(Self::ITERS);
        })
    }

    fn resilient_sample(&mut self, checks: &mut Checks) -> f64 {
        self.resilient.init();
        self.resilient.install_fault_plan(self.plan.clone());
        let start = Instant::now();
        let run = self.resilient.iterate_resilient(0, Self::ITERS);
        let seconds = start.elapsed().as_secs_f64();
        match run {
            Ok(run) => {
                self.rollbacks = run.rollbacks as f64;
                self.replayed = run.replayed as f64;
                self.retries = run.report.retries as f64;
                // Recovered faults have no data effects: same bits as the
                // fault-free solve.
                let (a, b) = (
                    self.resilient.state.rs_old.host_value(),
                    self.plain.state.rs_old.host_value(),
                );
                checks.check(a.to_bits() == b.to_bits(), || {
                    format!("resilient solve diverged from the plain one: {a} vs {b}")
                });
            }
            Err(e) => checks.check(false, || format!("resilient solve failed: {e}")),
        }
        seconds
    }
}

/// Poisson CG on two tiny grids: the cell-proportional part of the cost
/// cancels in the two-point intercept, leaving the executor's cost per
/// launch.
struct LaunchProbe {
    small: CgSolver<DenseGrid>,
    large: CgSolver<DenseGrid>,
    launches_per_iter: f64,
}

impl LaunchProbe {
    const ITERS: usize = 40;
    const SMALL: usize = 8;
    const LARGE: usize = 16;

    fn new(options: SkeletonOptions, mode: FunctionalMode) -> Self {
        let build = |n: usize| {
            let mut cg = small_poisson(n, options, 1);
            cg.iteration_skeleton().set_functional_mode(mode);
            cg.init();
            cg
        };
        let mut small = build(Self::SMALL);
        let launches_per_iter = small.iterate(1).launches as f64;
        LaunchProbe {
            small,
            large: build(Self::LARGE),
            launches_per_iter,
        }
    }

    fn sample(cg: &mut CgSolver<DenseGrid>) -> f64 {
        cg.init();
        time(|| {
            cg.iterate(Self::ITERS);
        })
    }

    /// Microseconds per launch from the floors of the two sizes.
    fn us_per_launch(&self, small_s: f64, large_s: f64) -> f64 {
        let (cs, cl) = (Self::SMALL.pow(3) as f64, Self::LARGE.pow(3) as f64);
        let intercept = small_s - (large_s - small_s) * cs / (cl - cs);
        intercept * 1e6 / (Self::ITERS as f64 * self.launches_per_iter)
    }
}

/// Iterations the seeded problem needs to shrink `‖r‖` by 1e-8.
fn iters_to_tol(cg: &mut CgSolver<DenseGrid>) -> f64 {
    cg.init();
    let target = cg.state.rs_old.host_value() * 1e-16;
    let mut iters = 0;
    while cg.state.rs_old.host_value() > target && iters < 1000 {
        cg.iterate(1);
        iters += 1;
    }
    f64::from(iters)
}

fn cg64_probes(
    w: &mut CgSolve<DenseGrid>,
    tr: &mut Tracer,
    deadline: Instant,
    checks: &mut Checks,
    out: &mut Metrics,
) {
    let seed = w.cfg.seed;
    let n = w.n();
    let build_s = tr.scope("domain", "DenseGrid::new", || {
        time(|| {
            std::hint::black_box(dense_poisson_grid(n)(&w.backend, StorageMode::Real));
        })
    });
    let mut twin = w.virtual_twin(2);
    let mut apply = KernelProbe::new(&w.grid, laplacian_apply(&w.grid, &w.cg.state), 4);
    let probe_n = if w.cfg.smoke { 16 } else { 48 };
    let probe_grid = dense_poisson_grid(probe_n)(&w.backend, StorageMode::Real);
    let mut grid_probes = GridProbes::new(&probe_grid, 8);
    let mut plain = PlainCg::new(n, |x, y, z| cell_value(seed, x, y, z, 0));
    let mut resilient = ResilientProbe::new(seed);
    let mut launch = LaunchProbe::new(w.options, FunctionalMode::Serial);
    let mut par_launch = LaunchProbe::new(w.options, FunctionalMode::Parallel);

    const PROBES: [&str; 13] = [
        "serial",
        "parallel",
        "replay",
        "apply",
        "map",
        "stencil",
        "plain",
        "solve_iters",
        "solve_iters_resilient",
        "launch_small",
        "launch_large",
        "par_launch_small",
        "par_launch_large",
    ];
    let f = probe_floors(deadline, &PROBES, |name| match name {
        "serial" => w.solve(tr).0,
        "parallel" => w.solve_parallel().0,
        "replay" => replay_sample(tr, &mut twin),
        "apply" => apply.sample(),
        "map" => grid_probes.map.sample(),
        "stencil" => grid_probes.stencil.sample(),
        "plain" => {
            plain.reset();
            time(|| {
                for _ in 0..w.spec.iters {
                    plain.iterate();
                }
            })
        }
        "solve_iters" => resilient.plain_sample(),
        "solve_iters_resilient" => resilient.resilient_sample(checks),
        "launch_small" => LaunchProbe::sample(&mut launch.small),
        "launch_large" => LaunchProbe::sample(&mut launch.large),
        "par_launch_small" => LaunchProbe::sample(&mut par_launch.small),
        "par_launch_large" => LaunchProbe::sample(&mut par_launch.large),
        other => unreachable!("unknown probe {other}"),
    });

    set_executor_metrics(out, &f, w.spec.iters, REPLAY_REPS);
    out.set("domain.dense.build_ms", build_s * 1e3);
    out.set(
        "apps.poisson.apply_ns_per_cell",
        apply.ns_per_cell(f["apply"]),
    );
    out.set(
        "domain.dense.map_ns_per_cell",
        grid_probes.map.ns_per_cell(f["map"]),
    );
    out.set(
        "domain.dense.stencil_ns_per_cell",
        grid_probes.stencil.ns_per_cell(f["stencil"]),
    );
    out.set("apps.poisson.overhead_vs_plain_x", f["serial"] / f["plain"]);
    out.set(
        "core.resilient.overhead_frac",
        f["solve_iters_resilient"] / f["solve_iters"] - 1.0,
    );
    out.set("core.retries", resilient.retries);
    out.set("core.rollbacks", resilient.rollbacks);
    out.set("core.replayed_iters", resilient.replayed);
    out.set(
        "core.exec.serial.us_per_launch",
        launch.us_per_launch(f["launch_small"], f["launch_large"]),
    );
    out.set(
        "core.exec.parallel.us_per_launch",
        par_launch.us_per_launch(f["par_launch_small"], f["par_launch_large"]),
    );
    out.set("apps.cg.iters_to_tol", iters_to_tol(&mut w.cg));
}

// --------------------------------------------------------- fem_sparse48_d2

fn sparse_fem_grid(n: usize) -> MakeGrid<SparseGrid> {
    Box::new(move |backend, mode| {
        SparseGrid::new(
            backend,
            Dim3::cube(n),
            &[&Stencil::twenty_seven_point()],
            cylinder_mask(n),
            mode,
        )
        .expect("sparse grid")
    })
}

/// The seeded load: a small body force on every free node. The `z = 0`
/// plane is the Dirichlet support, where the operator is the identity.
fn fem_rhs(seed: u64) -> impl Fn(i32, i32, i32, usize) -> f64 {
    move |x, y, z, comp| {
        if z == 0 {
            0.0
        } else {
            1e-3 * cell_value(seed, x, y, z, comp)
        }
    }
}

/// `fem_sparse48_d2`: elasticity CG on a masked sparse grid, 2 devices.
pub fn fem48(cfg: Cfg, tr: &mut Tracer) -> CgSolve<SparseGrid> {
    let material = Material::default();
    let spec = Spec {
        card: 3,
        make_grid: sparse_fem_grid(if cfg.smoke { 16 } else { 48 }),
        make_apply: Box::new(move |grid, state| elasticity_apply(grid, state, material)),
        iters: 2,
        batch: (60, 300),
        cross_check: sparse_against_dense,
        probes: fem48_probes,
    };
    CgSolve::new(cfg, tr, spec, fem_rhs(cfg.seed))
}

/// The sparse grid with a full mask against the dense grid on 12³: two
/// grid types, one problem, the same residuals to rounding.
fn sparse_against_dense(w: &CgSolve<SparseGrid>, checks: &mut Checks) {
    let backend = Backend::dgx_a100(2);
    let st = Stencil::twenty_seven_point();
    let dim = Dim3::cube(12);
    let material = Material::default();
    let dense = DenseGrid::new(&backend, dim, &[&st], StorageMode::Real).expect("dense grid");
    let sparse = SparseGrid::new(&backend, dim, &[&st], |_, _, _| true, StorageMode::Real)
        .expect("sparse grid");
    let mut d = CgSolver::with_options(&dense, 3, MemLayout::SoA, w.options, |s| {
        elasticity_apply(&dense, s, material)
    })
    .expect("dense solver");
    let mut s = CgSolver::with_options(&sparse, 3, MemLayout::SoA, w.options, |st| {
        elasticity_apply(&sparse, st, material)
    })
    .expect("sparse solver");
    d.state.b.fill(fem_rhs(w.cfg.seed));
    s.state.b.fill(fem_rhs(w.cfg.seed));
    d.init();
    s.init();
    for i in 0..8 {
        d.iterate(1);
        s.iterate(1);
        let (a, b) = (d.state.rs_old.host_value(), s.state.rs_old.host_value());
        checks.check((a - b).abs() <= 1e-10 * a.abs(), || {
            format!("dense and sparse FEM disagree at iteration {i}: {a} vs {b}")
        });
    }
}

fn fem48_probes(
    w: &mut CgSolve<SparseGrid>,
    tr: &mut Tracer,
    deadline: Instant,
    _checks: &mut Checks,
    out: &mut Metrics,
) {
    let n = w.n();
    let backend = w.backend.clone();
    let material = Material::default();
    let st7 = Stencil::seven_point();
    let masked = |stencil: &Stencil| {
        SparseGrid::new(
            &backend,
            Dim3::cube(n),
            &[stencil],
            cylinder_mask(n),
            StorageMode::Real,
        )
        .expect("sparse grid")
    };

    let sparse_build_s = tr.scope("domain", "SparseGrid::new", || {
        time(|| {
            std::hint::black_box(masked(&Stencil::twenty_seven_point()));
        })
    });
    let mut block_grid = None;
    let block_build_s = tr.scope("domain", "BlockSparseGrid::new", || {
        time(|| {
            block_grid = Some(
                BlockSparseGrid::new(
                    &backend,
                    Dim3::cube(n),
                    4,
                    &[&st7],
                    cylinder_mask(n),
                    StorageMode::Real,
                )
                .expect("block grid"),
            );
        })
    });
    let block_grid = block_grid.expect("built above");
    let dense27 = DenseGrid::new(
        &backend,
        Dim3::cube(n),
        &[&Stencil::twenty_seven_point()],
        StorageMode::Real,
    )
    .expect("dense grid");
    let dense_state = CgState::new(&dense27, 3, MemLayout::SoA).expect("dense FEM fields fit");
    dense_state.p.fill(fem_rhs(w.cfg.seed));

    let mut twin = w.virtual_twin(2);
    let mut apply_sparse =
        KernelProbe::new(&w.grid, elasticity_apply(&w.grid, &w.cg.state, material), 1);
    let mut apply_dense = KernelProbe::new(
        &dense27,
        elasticity_apply(&dense27, &dense_state, material),
        1,
    );
    let mut sparse_probes = GridProbes::new(&masked(&st7), 8);
    let mut block_probes = GridProbes::new(&block_grid, 8);

    const PROBES: [&str; 9] = [
        "serial",
        "parallel",
        "replay",
        "apply_sparse",
        "apply_dense",
        "sparse_map",
        "sparse_stencil",
        "block_map",
        "block_stencil",
    ];
    let f = probe_floors(deadline, &PROBES, |name| match name {
        "serial" => w.solve(tr).0,
        "parallel" => w.solve_parallel().0,
        "replay" => replay_sample(tr, &mut twin),
        "apply_sparse" => apply_sparse.sample(),
        "apply_dense" => apply_dense.sample(),
        "sparse_map" => sparse_probes.map.sample(),
        "sparse_stencil" => sparse_probes.stencil.sample(),
        "block_map" => block_probes.map.sample(),
        "block_stencil" => block_probes.stencil.sample(),
        other => unreachable!("unknown probe {other}"),
    });

    set_executor_metrics(out, &f, w.spec.iters, REPLAY_REPS);
    out.set("domain.sparse.build_ms", sparse_build_s * 1e3);
    out.set("domain.block.build_ms", block_build_s * 1e3);
    out.set(
        "apps.fem.apply_ns_per_cell.sparse",
        apply_sparse.ns_per_cell(f["apply_sparse"]),
    );
    out.set(
        "apps.fem.apply_ns_per_cell.dense",
        apply_dense.ns_per_cell(f["apply_dense"]),
    );
    out.set(
        "domain.sparse.map_ns_per_cell",
        sparse_probes.map.ns_per_cell(f["sparse_map"]),
    );
    out.set(
        "domain.sparse.stencil_ns_per_cell",
        sparse_probes.stencil.ns_per_cell(f["sparse_stencil"]),
    );
    out.set(
        "domain.block.map_ns_per_cell",
        block_probes.map.ns_per_cell(f["block_map"]),
    );
    out.set(
        "domain.block.stencil_ns_per_cell",
        block_probes.stencil.ns_per_cell(f["block_stencil"]),
    );
}
